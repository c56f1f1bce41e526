//! The parallel multi-candidate scan engine.
//!
//! A [`Scanner`] is configured once via [`Scanner::builder`] and then
//! reused across payloads: the candidate index (see [`super::index`])
//! is compiled at `build()` time, and each [`Scanner::scan`] call is a
//! single pass over the data.
//!
//! # Parallelism and determinism
//!
//! The position range is split into frame-aligned chunks of
//! [`CHUNK_FRAMES`] frames. Worker threads (scoped `std::thread`s —
//! the build environment has no network access, so the `rayon`
//! dependency is replaced by a small dynamic work queue over an
//! `AtomicUsize`) claim chunk indices from the queue, scan their chunk
//! sequentially, and deposit `(chunk_index, hits)` pairs. The pairs
//! are merged in chunk order, so the final hit list — ascending in
//! `(l, candidate)` — is identical for every thread count, including
//! the sequential path. A determinism test pins this.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use boolfn::TruthTable;

use bitstream::{codec, SubVectorOrder, FRAME_BYTES};

use super::halves;
use super::index::CandidateIndex;
use super::{pack_stored, stored_at, LutHit};

/// Frames per parallel work unit. At the default stride this is
/// ~100 KiB of payload per chunk: small enough to balance load across
/// threads, large enough that the per-chunk bookkeeping is noise.
const CHUNK_FRAMES: usize = 256;

/// Payload size below which the scan stays on the calling thread.
const PARALLEL_THRESHOLD: usize = 4 * CHUNK_FRAMES * FRAME_BYTES;

/// An invalid [`ScannerBuilder`] configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanConfigError {
    /// `k` outside the supported 2..=6 range.
    KOutOfRange(u8),
    /// The sub-vector stride `d` was zero.
    ZeroStride,
}

impl core::fmt::Display for ScanConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::KOutOfRange(k) => {
                write!(f, "LUT input count k={k} out of range (supported: 2..=6)")
            }
            Self::ZeroStride => write!(f, "sub-vector stride d must be positive"),
        }
    }
}

impl std::error::Error for ScanConfigError {}

/// A hit produced by [`Scanner::scan`], tagging the [`LutHit`] with
/// the index of the candidate that matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanHit {
    /// Index of the matching candidate in the order the candidates
    /// were added to the builder.
    pub candidate: usize,
    /// The location-level hit.
    pub hit: LutHit,
}

/// Configures a [`Scanner`]. See [`Scanner::builder`].
#[derive(Debug, Clone)]
pub struct ScannerBuilder {
    k: u8,
    d: usize,
    orders: Option<SubVectorOrder>,
    threads: usize,
    candidates: Vec<TruthTable>,
}

impl ScannerBuilder {
    /// Sets the number of LUT inputs `k` (validated to 2..=6 at
    /// [`build`](Self::build) time). Defaults to 6.
    #[must_use]
    pub fn k(mut self, k: u8) -> Self {
        self.k = k;
        self
    }

    /// Sets the byte offset between consecutive sub-vectors (validated
    /// to be positive at [`build`](Self::build) time). Defaults to
    /// [`FRAME_BYTES`].
    #[must_use]
    pub fn stride(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Restricts the scan to one sub-vector order; `None` (the
    /// default) tries both known orders (SLICEL and SLICEM).
    #[must_use]
    pub fn orders(mut self, orders: Option<SubVectorOrder>) -> Self {
        self.orders = orders;
        self
    }

    /// Sets the worker thread count; `0` (the default) uses the
    /// available parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Adds one candidate function.
    #[must_use]
    pub fn candidate(mut self, f: TruthTable) -> Self {
        self.candidates.push(f);
        self
    }

    /// Adds a set of candidate functions (e.g. every
    /// [`Shape::truth`](crate::candidates::Shape) of a
    /// [`Catalogue`](crate::candidates::Catalogue)).
    #[must_use]
    pub fn candidates(mut self, fs: impl IntoIterator<Item = TruthTable>) -> Self {
        self.candidates.extend(fs);
        self
    }

    /// Adds every shape of a catalogue as a candidate, in catalogue
    /// order (so scan results can be zipped back onto the shapes).
    #[must_use]
    pub fn catalogue(self, catalogue: &crate::candidates::Catalogue) -> Self {
        self.candidates(catalogue.shapes.iter().map(|s| s.truth))
    }

    /// Validates the configuration and compiles the candidate index.
    ///
    /// # Errors
    ///
    /// [`ScanConfigError::KOutOfRange`] unless `2 <= k <= 6`;
    /// [`ScanConfigError::ZeroStride`] if `d == 0`.
    pub fn build(self) -> Result<Scanner, ScanConfigError> {
        if !(2..=6).contains(&self.k) {
            return Err(ScanConfigError::KOutOfRange(self.k));
        }
        if self.d == 0 {
            return Err(ScanConfigError::ZeroStride);
        }
        let order_list = match self.orders {
            Some(o) => vec![o],
            None => SubVectorOrder::both().to_vec(),
        };
        let index = CandidateIndex::build(&self.candidates, self.k, &order_list);
        Ok(Scanner { d: self.d, threads: self.threads, n_candidates: self.candidates.len(), index })
    }
}

/// The one-pass multi-candidate FINDLUT engine (Algorithm 1 over a
/// candidate *set*).
///
/// ```
/// use bitmod::findlut::Scanner;
/// use bitmod::Catalogue;
/// use bitstream::FRAME_BYTES;
///
/// let scanner = Scanner::builder()
///     .k(6)
///     .stride(FRAME_BYTES)
///     .catalogue(&Catalogue::full())
///     .build()
///     .expect("valid configuration");
/// let hits = scanner.scan(&vec![0u8; 8 * FRAME_BYTES]);
/// assert!(hits.iter().all(|h| h.candidate < Catalogue::full().shapes.len()));
/// ```
#[derive(Debug)]
pub struct Scanner {
    d: usize,
    threads: usize,
    n_candidates: usize,
    index: CandidateIndex,
}

impl Scanner {
    /// Starts building a scanner. Defaults: `k = 6`, stride
    /// [`FRAME_BYTES`], both sub-vector orders, automatic thread
    /// count, no candidates.
    #[must_use]
    pub fn builder() -> ScannerBuilder {
        ScannerBuilder { k: 6, d: FRAME_BYTES, orders: None, threads: 0, candidates: Vec::new() }
    }

    /// The configured sub-vector stride.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.d
    }

    /// Last scannable byte position in a payload of `len` bytes, or
    /// `None` if the payload is too short for even one LUT window.
    fn last_pos(&self, len: usize) -> Option<usize> {
        len.checked_sub(3 * self.d + 2)
    }

    fn worker_count(&self, positions: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let n = if self.threads == 0 { auto } else { self.threads };
        n.min(positions.div_ceil(CHUNK_FRAMES * self.d).max(1))
    }

    /// Scans the payload for every candidate in one pass.
    ///
    /// Hits are sorted by `(l, candidate)`; per candidate the hit list
    /// is byte-identical to
    /// [`find_lut_reference`](super::find_lut_reference) run on that
    /// candidate alone.
    #[must_use]
    pub fn scan(&self, data: &[u8]) -> Vec<ScanHit> {
        let Some(last) = self.last_pos(data.len()) else { return Vec::new() };
        if self.n_candidates == 0 {
            return Vec::new();
        }
        self.chunked(data, 0..last + 1, |range, out| self.scan_positions(data, range, out))
    }

    /// Scans and groups hits per candidate (index-aligned with the
    /// builder's candidate order). Each inner list is byte-identical
    /// to [`find_lut_reference`](super::find_lut_reference).
    #[must_use]
    pub fn scan_grouped(&self, data: &[u8]) -> Vec<Vec<LutHit>> {
        let mut grouped = vec![Vec::new(); self.n_candidates];
        for h in self.scan(data) {
            grouped[h.candidate].push(h.hit);
        }
        grouped
    }

    /// Scans every byte position in `range`, decoding the dual-output
    /// LUT stored there under each sub-vector order, and reports
    /// positions where `predicate` accepts the two 5-variable halves
    /// `(O5, O6)` — the Section VII-B search, parallelised.
    ///
    /// The candidate index is not consulted, so a candidate-less
    /// scanner is sufficient:
    ///
    /// ```
    /// use bitmod::findlut::Scanner;
    /// use bitstream::FRAME_BYTES;
    ///
    /// let scanner = Scanner::builder().stride(FRAME_BYTES).build().unwrap();
    /// let data = vec![0u8; 6 * FRAME_BYTES];
    /// let hits = scanner.scan_halves(&data, 0..data.len(), |o5, _| o5.as_xor_pair().is_some());
    /// assert!(hits.is_empty());
    /// ```
    #[must_use]
    pub fn scan_halves<P>(&self, data: &[u8], range: Range<usize>, predicate: P) -> Vec<LutHit>
    where
        P: Fn(TruthTable, TruthTable) -> bool + Sync,
    {
        self.scan_halves_where(data, range, |_| true, predicate)
    }

    /// [`scan_halves`](Self::scan_halves) with a byte-position
    /// prefilter: positions rejected by `pos_filter` are skipped
    /// *before* the stored sub-vectors are decoded. Decoding and
    /// half-table extraction dominate the scan, so a cheap structural
    /// filter (e.g. [`SiteLattice::accepts`]) turns a full-payload
    /// walk into a sparse one while returning exactly the
    /// `pos_filter`-accepted subset of the unfiltered hit list.
    ///
    /// [`SiteLattice::accepts`]: crate::attack::SiteLattice::accepts
    #[must_use]
    pub fn scan_halves_where<F, P>(
        &self,
        data: &[u8],
        range: Range<usize>,
        pos_filter: F,
        predicate: P,
    ) -> Vec<LutHit>
    where
        F: Fn(usize) -> bool + Sync,
        P: Fn(TruthTable, TruthTable) -> bool + Sync,
    {
        let Some(last) = self.last_pos(data.len()) else { return Vec::new() };
        let last = last.min(range.end.saturating_sub(1));
        if range.start > last {
            return Vec::new();
        }
        self.chunked(data, range.start..last + 1, |r, out: &mut Vec<LutHit>| {
            halves::scan_halves(data, self.d, r, &pos_filter, &predicate, out);
        })
    }

    /// Runs `scan_chunk` over frame-aligned sub-ranges of `positions`,
    /// in parallel when profitable, and returns the concatenation of
    /// the per-chunk outputs in chunk order.
    fn chunked<T, F>(&self, data: &[u8], positions: Range<usize>, scan_chunk: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>, &mut Vec<T>) + Sync,
    {
        let total = positions.len();
        let chunk_len = CHUNK_FRAMES * self.d;
        let workers = self.worker_count(total);
        if workers <= 1 || data.len() < PARALLEL_THRESHOLD {
            let mut out = Vec::new();
            scan_chunk(positions, &mut out);
            return out;
        }
        let n_chunks = total.div_ceil(chunk_len);
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(n_chunks));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let start = positions.start + i * chunk_len;
                    let end = (start + chunk_len).min(positions.end);
                    let mut hits = Vec::new();
                    scan_chunk(start..end, &mut hits);
                    if !hits.is_empty() {
                        results.lock().expect("no panics while locked").push((i, hits));
                    }
                });
            }
        });
        let mut per_chunk = results.into_inner().expect("no panics while locked");
        per_chunk.sort_unstable_by_key(|&(i, _)| i);
        per_chunk.into_iter().flat_map(|(_, hits)| hits).collect()
    }

    /// Sequentially scans one position range against the candidate
    /// index, appending hits in `(l, candidate)` order.
    fn scan_positions(&self, data: &[u8], range: Range<usize>, out: &mut Vec<ScanHit>) {
        for l in range {
            let s0 = u16::from_le_bytes([data[l], data[l + 1]]);
            if !self.index.may_start_with(s0) {
                continue;
            }
            let stored = stored_at(data, l, self.d);
            let Some(entries) = self.index.entries(pack_stored(stored)) else { continue };
            // Entries are sorted by (cand, rank, order_pos): the first
            // entry per candidate is the reference algorithm's winner
            // (permutations outermost, then order, with marking).
            let mut last_cand = u32::MAX;
            for e in entries {
                if e.cand == last_cand {
                    continue;
                }
                last_cand = e.cand;
                out.push(ScanHit {
                    candidate: e.cand as usize,
                    hit: LutHit {
                        l,
                        order: e.order,
                        perm: e.perm,
                        init: codec::decode(stored, e.order),
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{find_lut_reference, FindLutParams};
    use super::*;
    use bitstream::{codec, LutLocation};
    use boolfn::expr::var;
    use boolfn::{DualOutputInit, Permutation};

    fn noisy_payload(frames: usize, planted: &[(usize, SubVectorOrder, TruthTable)]) -> Vec<u8> {
        let mut data = vec![0u8; frames * FRAME_BYTES];
        let mut x = 0x2545_f491u32;
        for b in data.iter_mut() {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            *b = (x >> 16) as u8;
        }
        for &(l, order, tt) in planted {
            codec::write_lut(
                &mut data,
                LutLocation { l, d: FRAME_BYTES, order },
                DualOutputInit::from_single(tt.extend(6)),
            );
        }
        data
    }

    #[test]
    fn builder_validates() {
        assert_eq!(Scanner::builder().k(1).build().unwrap_err(), ScanConfigError::KOutOfRange(1));
        assert_eq!(Scanner::builder().k(7).build().unwrap_err(), ScanConfigError::KOutOfRange(7));
        assert_eq!(Scanner::builder().stride(0).build().unwrap_err(), ScanConfigError::ZeroStride);
        assert!(Scanner::builder().k(2).stride(1).build().is_ok());
        let err = Scanner::builder().k(9).build().unwrap_err();
        assert!(err.to_string().contains("k=9"));
    }

    #[test]
    fn one_pass_matches_reference_per_candidate() {
        let f = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let g = ((var(1) & var(2)) ^ (var(3) & var(4))).truth_table(6);
        let h = (var(1) ^ var(2)).truth_table(6);
        let data = noisy_payload(
            12,
            &[
                (77, SubVectorOrder::SliceL, f),
                (500, SubVectorOrder::SliceM, g),
                (900, SubVectorOrder::SliceL, h),
            ],
        );
        let cands = [f, g, h];
        let scanner = Scanner::builder().stride(FRAME_BYTES).candidates(cands).build().unwrap();
        let grouped = scanner.scan_grouped(&data);
        for (i, &c) in cands.iter().enumerate() {
            let reference = find_lut_reference(&data, c, &FindLutParams::k6(FRAME_BYTES));
            assert_eq!(grouped[i], reference, "candidate {i} diverges from reference");
        }
        assert!(grouped[0].iter().any(|h| h.l == 77));
        assert!(grouped[1].iter().any(|h| h.l == 500));
        assert!(grouped[2].iter().any(|h| h.l == 900));
    }

    #[test]
    fn scan_is_sorted_by_position_then_candidate() {
        let f = (var(1) ^ var(2)).truth_table(6);
        // f appears twice in the candidate list: every position that
        // matches candidate 0 also matches candidate 1.
        let data = noisy_payload(8, &[(300, SubVectorOrder::SliceL, f)]);
        let scanner =
            Scanner::builder().stride(FRAME_BYTES).candidate(f).candidate(f).build().unwrap();
        let hits = scanner.scan(&data);
        let keys: Vec<(usize, usize)> = hits.iter().map(|h| (h.hit.l, h.candidate)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(keys.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn thread_counts_agree() {
        let f = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        // Large enough to clear PARALLEL_THRESHOLD.
        let plants: Vec<(usize, SubVectorOrder, TruthTable)> = (0..40)
            .map(|i| {
                let order =
                    if i % 2 == 0 { SubVectorOrder::SliceL } else { SubVectorOrder::SliceM };
                (i * 31 * FRAME_BYTES + 13 * i, order, f)
            })
            .collect();
        let data = noisy_payload(1300, &plants);
        let scan_with = |threads: usize| {
            Scanner::builder()
                .stride(FRAME_BYTES)
                .threads(threads)
                .candidate(f)
                .build()
                .unwrap()
                .scan(&data)
        };
        let sequential = scan_with(1);
        assert!(!sequential.is_empty());
        for threads in [2, 3, 8] {
            assert_eq!(scan_with(threads), sequential, "thread count {threads} diverges");
        }
    }

    #[test]
    fn empty_candidates_and_tiny_payloads() {
        let scanner = Scanner::builder().build().unwrap();
        assert!(scanner.scan(&vec![0u8; 8 * FRAME_BYTES]).is_empty());
        let f = (var(1) & var(2)).truth_table(6);
        let one = Scanner::builder().candidate(f).build().unwrap();
        assert!(one.scan(&[]).is_empty());
        assert!(one.scan(&[0u8; 64]).is_empty());
    }

    /// The sequential Section VII-B half scan: every position in
    /// `range`, both sub-vector orders, in order — the reference the
    /// chunked parallel scan must reproduce.
    fn scan_halves_sequential(
        data: &[u8],
        d: usize,
        range: Range<usize>,
        predicate: impl Fn(TruthTable, TruthTable) -> bool,
    ) -> Vec<LutHit> {
        let mut hits = Vec::new();
        if data.len() < 3 * d + 2 {
            return hits;
        }
        let last = (data.len() - (3 * d + 2)).min(range.end.saturating_sub(1));
        for l in range.start..=last {
            for order in SubVectorOrder::both() {
                let init = codec::decode(stored_at(data, l, d), order);
                if predicate(init.o5(), init.o6_fractured()) {
                    hits.push(LutHit { l, order, perm: Permutation::identity(6), init });
                }
            }
        }
        hits
    }

    #[test]
    fn scan_halves_parallel_matches_sequential_wrapper() {
        let xor = (var(2) ^ var(4)).truth_table(5);
        let other = (var(1) & var(3)).truth_table(5);
        let mut data = noisy_payload(1100, &[]);
        for l in [99, 40_000, 300_000] {
            codec::write_lut(
                &mut data,
                LutLocation { l, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
                DualOutputInit::from_pair(xor, other),
            );
        }
        let scanner = Scanner::builder().stride(FRAME_BYTES).build().unwrap();
        let par = scanner.scan_halves(&data, 0..data.len(), |o5, o6| {
            o5.as_xor_pair().is_some() || o6.as_xor_pair().is_some()
        });
        let seq = scan_halves_sequential(&data, FRAME_BYTES, 0..data.len(), |o5, o6| {
            o5.as_xor_pair().is_some() || o6.as_xor_pair().is_some()
        });
        assert_eq!(par, seq);
        for l in [99, 40_000, 300_000] {
            assert!(par.iter().any(|h| h.l == l), "missed plant at {l}");
        }
    }

    #[test]
    fn scan_halves_respects_range() {
        let xor = (var(1) ^ var(2)).truth_table(5);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l: 900, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
            DualOutputInit::from_pair(xor, xor),
        );
        let scanner = Scanner::builder().stride(FRAME_BYTES).build().unwrap();
        let hits = scanner.scan_halves(&data, 0..100, |o5, _| o5.as_xor_pair().is_some());
        assert!(hits.iter().all(|h| h.l < 100));
        // A start past the clamped end yields nothing.
        let past_end = data.len() + 100;
        assert!(scanner.scan_halves(&data, past_end..past_end + 10, |_, _| true).is_empty());
    }
}
