//! Patch-oracle properties: for *any* variant of the golden body, a
//! sealed patch must be byte-identical to a from-scratch reseal of the
//! variant — the dirty-window optimisation is pure bookkeeping, never
//! semantics.
//! And the seekable device-side open must be total: any garbled,
//! truncated or foreign container yields exactly the typed error the
//! full open yields, never a panic.

use bitstream::{
    Bitstream, BitstreamBuilder, FrameData, OpenSecureError, PatchError, PatchOracle,
    SecureBitstream, BODY_OFFSET,
};
use proptest::prelude::*;

const K_ENC: [u8; 32] = [0xC4; 32];
const K_AUTH: [u8; 32] = [0x9B; 32];
const IV: [u8; 16] = [0x52; 16];

/// A well-formed golden bitstream with pseudo-random frame contents.
fn golden(frames: usize, seed: u64) -> Bitstream {
    let mut data = FrameData::new(frames);
    let mut x = seed | 1;
    for b in data.as_mut_bytes().iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    BitstreamBuilder::new(data).build()
}

fn oracle(frames: usize, seed: u64) -> (Bitstream, PatchOracle) {
    let bs = golden(frames, seed);
    let sealed = SecureBitstream::seal(&bs, &K_ENC, &K_AUTH, IV);
    let oracle = PatchOracle::new(&sealed, &K_ENC).expect("golden container opens");
    (bs, oracle)
}

/// Raw generator output → a variant of `golden`: each `(pos, len,
/// fill)` overwrites up to four bytes anywhere in the body (the last
/// ones clipped at its end), so headers, payload and CRC word are all
/// hit and a draw may also leave the body unchanged.
fn variant_of(golden: &Bitstream, raw: &[(u64, u8, u8)]) -> Bitstream {
    let mut body = golden.as_bytes().to_vec();
    let n = body.len();
    for &(pos, len, fill) in raw {
        let offset = (pos as usize) % n;
        let end = (offset + usize::from(len % 4) + 1).min(n);
        body[offset..end].fill(fill);
    }
    Bitstream::from_bytes(body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any same-length variant seals to *exactly* the container a
    /// from-scratch reseal of it produces — and the device accepts
    /// it; a length change is refused typed.
    #[test]
    fn patched_containers_equal_full_reseals(
        frames in 1usize..4,
        seed in any::<u64>(),
        raw in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 0..4),
        grow in any::<bool>(),
    ) {
        let (bs, oracle) = oracle(frames, seed);
        let variant = variant_of(&bs, &raw);
        if grow {
            let grown = Bitstream::from_bytes([variant.as_bytes(), &[0u8][..]].concat());
            prop_assert_eq!(
                oracle.patch_bitstream(&grown),
                Err(PatchError::LengthChanged { got: bs.len() + 1, want: bs.len() })
            );
        }
        let patched = oracle.patch_bitstream(&variant).expect("same-length variants seal");
        let resealed = SecureBitstream::seal(&variant, &K_ENC, &K_AUTH, IV);
        prop_assert_eq!(&patched, &resealed, "patch must equal the full reseal");

        // HMAC verifies and the device sees the variant.
        let opened = patched.open(&K_ENC).expect("device opens the patched container");
        prop_assert_eq!(&opened.bitstream, &variant);

        // Ciphertext before the dirty window is untouched.
        if let Some(first) = bs.diff(&variant).first() {
            let clean = (BODY_OFFSET + first.start) / 16 * 16;
            let golden_ct = oracle.golden_container().ciphertext;
            prop_assert_eq!(
                &patched.ciphertext[..clean],
                &golden_ct[..clean],
                "clean prefix blocks must be reused byte-for-byte"
            );
        }
    }

    /// The seekable open is total and agrees with the full open on
    /// every mangled container: same plaintext on success, same typed
    /// error on refusal.
    #[test]
    fn open_patched_is_total_and_agrees_with_open(
        frames in 1usize..3,
        seed in any::<u64>(),
        garbles in prop::collection::vec((any::<u64>(), 0u8..8), 0..3),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let (_, oracle) = oracle(frames, seed);
        let mut sealed = oracle.golden_container();
        for &(pos, bit) in &garbles {
            let n = sealed.ciphertext.len();
            sealed.ciphertext[(pos as usize) % n] ^= 1 << bit;
        }
        if truncate {
            let n = sealed.ciphertext.len();
            sealed.ciphertext.truncate((cut as usize) % (n + 1));
        }
        let full = sealed.open(&K_ENC).map(|o| o.bitstream);
        let seek = oracle.open_patched(&sealed);
        match (seek, full) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "typed errors must agree"),
            (seek, full) => prop_assert!(
                false,
                "seekable and full opens disagree: {seek:?} vs {full:?}"
            ),
        }
    }

    /// Arbitrary bytes never panic the constructor: any byte soup is
    /// either a (vanishingly unlikely) valid container or a typed
    /// [`OpenSecureError`].
    #[test]
    fn construction_is_total_over_arbitrary_containers(
        iv in any::<[u8; 16]>(),
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let sealed = SecureBitstream { iv, ciphertext: bytes };
        match PatchOracle::new(&sealed, &K_ENC) {
            Ok(_) => {}
            Err(
                OpenSecureError::Decrypt(_)
                | OpenSecureError::Malformed
                | OpenSecureError::MacMismatch,
            ) => {}
        }
    }
}
