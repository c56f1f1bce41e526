//! Encoding and decoding LUT configuration in the bitstream byte
//! stream.
//!
//! A 64-bit LUT INIT is first permuted with ξ (Table I), split into
//! four 16-bit sub-vectors `B1..B4`, and stored at byte offsets
//! `l, l+d, l+2d, l+3d` (Section V-A): in the order `B1 B2 B3 B4` for
//! LUTs in SLICEL slices and `B4 B3 B1 B2` for SLICEM slices.

use boolfn::DualOutputInit;

use crate::xi;

/// Sub-vector storage order, determined by the slice type hosting the
/// LUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubVectorOrder {
    /// Logic slice: `B1, B2, B3, B4`.
    SliceL,
    /// Memory-capable slice: `B4, B3, B1, B2`.
    SliceM,
}

impl SubVectorOrder {
    /// The storage order as indices into `[B1, B2, B3, B4]`.
    #[must_use]
    pub fn indices(self) -> [usize; 4] {
        match self {
            SubVectorOrder::SliceL => [0, 1, 2, 3],
            SubVectorOrder::SliceM => [3, 2, 0, 1],
        }
    }

    /// All orders a search has to consider when the slice type is
    /// unknown.
    #[must_use]
    pub fn both() -> [SubVectorOrder; 2] {
        [SubVectorOrder::SliceL, SubVectorOrder::SliceM]
    }
}

/// Where a LUT's configuration lives in a byte stream: base index
/// `l`, sub-vector stride `d` and storage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutLocation {
    /// Byte index of the first stored sub-vector.
    pub l: usize,
    /// Byte offset between consecutive sub-vectors.
    pub d: usize,
    /// Storage order.
    pub order: SubVectorOrder,
}

impl LutLocation {
    /// The byte range `[l, l + 3d + 2)` this location touches.
    #[must_use]
    pub fn span(&self) -> core::ops::Range<usize> {
        self.l..self.l + 3 * self.d + 2
    }

    /// Whether two locations' stored bytes overlap (two real LUTs can
    /// never overlap in a bitstream — the pruning rule of
    /// Section VI-C).
    #[must_use]
    pub fn overlaps(&self, other: &LutLocation) -> bool {
        let theirs = other.byte_indices();
        self.byte_indices().iter().any(|b| theirs.contains(b))
    }

    /// The eight byte indices this location's sub-vectors occupy
    /// (two bytes at each of the four strided offsets, in storage
    /// order).
    #[must_use]
    pub fn byte_indices(&self) -> [usize; 8] {
        core::array::from_fn(|k| self.l + k / 2 * self.d + k % 2)
    }
}

/// Splits a ξ-permuted vector into `[B1, B2, B3, B4]`.
#[must_use]
pub fn split(b: u64) -> [u16; 4] {
    [b as u16, (b >> 16) as u16, (b >> 32) as u16, (b >> 48) as u16]
}

/// Reassembles a ξ-permuted vector from `[B1, B2, B3, B4]`.
#[must_use]
pub fn join(parts: [u16; 4]) -> u64 {
    u64::from(parts[0])
        | (u64::from(parts[1]) << 16)
        | (u64::from(parts[2]) << 32)
        | (u64::from(parts[3]) << 48)
}

/// Encodes a LUT INIT into its four stored sub-vectors, in storage
/// order.
#[must_use]
pub fn encode(init: DualOutputInit, order: SubVectorOrder) -> [u16; 4] {
    let parts = split(xi::permute(init.init()));
    let idx = order.indices();
    [parts[idx[0]], parts[idx[1]], parts[idx[2]], parts[idx[3]]]
}

/// Decodes a LUT INIT from four stored sub-vectors in storage order.
#[must_use]
pub fn decode(stored: [u16; 4], order: SubVectorOrder) -> DualOutputInit {
    let idx = order.indices();
    let mut parts = [0u16; 4];
    for (pos, &which) in idx.iter().enumerate() {
        parts[which] = stored[pos];
    }
    DualOutputInit::new(xi::unpermute(join(parts)))
}

/// Writes a LUT INIT into `data` at `loc`. Sub-vectors are stored
/// little-endian.
///
/// # Panics
///
/// Panics if the location extends past the end of `data`.
pub fn write_lut(data: &mut [u8], loc: LutLocation, init: DualOutputInit) {
    let stored = encode(init, loc.order);
    for (j, sv) in stored.iter().enumerate() {
        let at = loc.l + j * loc.d;
        data[at..at + 2].copy_from_slice(&sv.to_le_bytes());
    }
}

/// Reads a LUT INIT from `data` at `loc`.
///
/// # Panics
///
/// Panics if the location extends past the end of `data`.
#[must_use]
pub fn read_lut(data: &[u8], loc: LutLocation) -> DualOutputInit {
    let mut stored = [0u16; 4];
    for (j, sv) in stored.iter_mut().enumerate() {
        let at = loc.l + j * loc.d;
        *sv = u16::from_le_bytes([data[at], data[at + 1]]);
    }
    decode(stored, loc.order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_BYTES;

    fn loc(l: usize, order: SubVectorOrder) -> LutLocation {
        LutLocation { l, d: FRAME_BYTES, order }
    }

    #[test]
    fn encode_decode_roundtrip_both_orders() {
        let mut x: u64 = 0xFEED_FACE_CAFE_BEEF;
        for order in SubVectorOrder::both() {
            for _ in 0..50 {
                let init = DualOutputInit::new(x);
                assert_eq!(decode(encode(init, order), order), init);
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut data = vec![0u8; 5 * FRAME_BYTES];
        let init = DualOutputInit::new(0x0123_4567_89AB_CDEF);
        for order in SubVectorOrder::both() {
            let location = loc(37, order);
            write_lut(&mut data, location, init);
            assert_eq!(read_lut(&data, location), init);
        }
    }

    #[test]
    fn orders_store_differently() {
        let init = DualOutputInit::new(0x0123_4567_89AB_CDEF);
        let l = encode(init, SubVectorOrder::SliceL);
        let m = encode(init, SubVectorOrder::SliceM);
        assert_ne!(l, m);
        // SLICEM stores B4 B3 B1 B2.
        assert_eq!(m, [l[3], l[2], l[0], l[1]]);
    }

    #[test]
    fn split_join_roundtrip() {
        let x = 0xA1B2_C3D4_E5F6_0718u64;
        assert_eq!(join(split(x)), x);
        assert_eq!(split(x)[0], 0x0718);
        assert_eq!(split(x)[3], 0xA1B2);
    }

    #[test]
    fn overlap_detection() {
        let a = loc(100, SubVectorOrder::SliceL);
        let b = loc(101, SubVectorOrder::SliceL);
        let c = loc(102, SubVectorOrder::SliceL);
        assert!(a.overlaps(&b), "adjacent bases share a byte");
        assert!(!a.overlaps(&c), "two-byte stride separates cleanly");
        assert!(a.overlaps(&a));
    }

    #[test]
    fn byte_indices_are_the_bytes_write_lut_touches() {
        for order in SubVectorOrder::both() {
            let location = LutLocation { l: 37, d: 101, order };
            assert_eq!(location.byte_indices(), [37, 38, 138, 139, 239, 240, 340, 341]);
            let mut data = vec![0u8; 4 * FRAME_BYTES];
            write_lut(&mut data, location, DualOutputInit::new(u64::MAX));
            let written: Vec<usize> = (0..data.len()).filter(|&b| data[b] != 0).collect();
            assert_eq!(written, location.byte_indices());
        }
    }

    #[test]
    fn constant_zero_lut_is_all_zero_bytes() {
        // ξ is a pure permutation, so the all-0 truth table stores as
        // all-0 bytes — which is why the "replace with 0s" fault of
        // the paper is easy to spot-check.
        assert_eq!(encode(DualOutputInit::new(0), SubVectorOrder::SliceL), [0; 4]);
        assert_eq!(encode(DualOutputInit::new(u64::MAX), SubVectorOrder::SliceM), [u16::MAX; 4]);
    }
}
