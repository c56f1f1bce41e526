//! The one-pass candidate index.
//!
//! All candidate functions of a [`super::Scanner`] are compiled into a
//! single entry list grouped by the packed stored sub-vectors: for every
//! candidate, every deduplicated input permutation of its truth table
//! is ξ-permuted, partitioned, and projected into the stored domain
//! once per sub-vector order. Scanning then reads the four stored
//! sub-vectors at a byte position exactly once — the packed key is the
//! same under every order; only the index construction differs — and a
//! single lookup of the key's entry range yields every
//! `(candidate, permutation, order)` triple matching there.
//!
//! The build is bit-twiddling throughout: each permutation of `P_k` is
//! compiled once into a delta-swap network ([`SwapNetwork`]) and
//! applied to every candidate's 64-bit table, ξ is eight byte lookups
//! ([`xi::permute`]), duplicates are dropped by sorting each
//! candidate's `(bits, rank)` pairs, and one sort groups the entries
//! by key.
//!
//! Entries carry the *rank* of their permutation in `P_k` enumeration
//! order so the scan can reproduce the reference algorithm's hit
//! selection exactly: [`find_lut_reference`](super::find_lut_reference)
//! iterates permutations in rank order outside the position loop and
//! marks positions, so the surviving hit per `(position, candidate)`
//! minimises `(rank, order_position)`. Entry lists are pre-sorted by
//! `(candidate, rank, order_position)`, making "first entry per
//! candidate" the correct winner during the scan.

use std::collections::HashMap;
use std::ops::Range;

use boolfn::{Permutation, SwapNetwork, TruthTable};

use bitstream::{codec, xi, SubVectorOrder};

use super::{extend_permutation, pack_stored};

/// One `(candidate, permutation, order)` triple that matches a packed
/// stored key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    /// Index of the candidate in the scanner's candidate list.
    pub cand: u32,
    /// Rank of `perm` in `Permutation::all(k)` enumeration order.
    pub rank: u16,
    /// Position of `order` in the scanner's order list.
    pub order_pos: u8,
    /// Matching sub-vector order.
    pub order: SubVectorOrder,
    /// Input permutation mapping the candidate onto the stored bits.
    pub perm: Permutation,
}

/// Deduplicated permuted-truth-table index over all candidates.
#[derive(Debug, Default)]
pub(crate) struct CandidateIndex {
    /// Packed stored sub-vectors → the range of their entries.
    map: HashMap<u64, Range<usize>>,
    /// Every entry, grouped by key and sorted by
    /// `(cand, rank, order_pos)` within a key.
    entries: Vec<Entry>,
    /// 65536-bit prefilter over sub-vector 0 (union of all orders and
    /// candidates).
    first: Vec<u64>,
}

impl CandidateIndex {
    /// Compiles the index for `candidates` under permutation width `k`
    /// and the given sub-vector order list.
    pub(crate) fn build(candidates: &[TruthTable], k: u8, orders: &[SubVectorOrder]) -> Self {
        let perms: Vec<(Permutation, SwapNetwork)> = Permutation::all(k)
            .map(|p| (p, SwapNetwork::new(&extend_permutation(&p, k))))
            .collect();
        let mut first = vec![0u64; 1024];
        let mut rows: Vec<(u64, Entry)> = Vec::new();
        let mut tables: Vec<(u64, u16)> = Vec::with_capacity(perms.len());
        for (cand, &f) in candidates.iter().enumerate() {
            let f6 = f.extend(6);
            tables.clear();
            tables.extend(
                perms.iter().zip(0u16..).map(|((_, net), rank)| (net.apply(f6).bits(), rank)),
            );
            // Deduplicate permuted tables, keeping the minimal rank:
            // two permutations producing the same stored bits are
            // indistinguishable at scan time, and the reference
            // algorithm reports the first. Sorting `(bits, rank)` puts
            // each table's minimal rank first, and `dedup` keeps it.
            tables.sort_unstable();
            tables.dedup_by_key(|&mut (bits, _)| bits);
            for &(bits, rank) in &tables {
                let parts = codec::split(xi::permute(bits));
                for (order_pos, &order) in orders.iter().enumerate() {
                    let idx = order.indices();
                    let stored = [parts[idx[0]], parts[idx[1]], parts[idx[2]], parts[idx[3]]];
                    first[(stored[0] >> 6) as usize] |= 1 << (stored[0] & 63);
                    let entry = Entry {
                        cand: cand as u32,
                        rank,
                        order_pos: order_pos as u8,
                        order,
                        perm: perms[usize::from(rank)].0,
                    };
                    rows.push((pack_stored(stored), entry));
                }
            }
        }
        // Group by key, each key's entries in (cand, rank, order_pos)
        // order; the sort key is unique, so the order is total.
        rows.sort_unstable_by_key(|(key, e)| (*key, e.cand, e.rank, e.order_pos));
        let mut map = HashMap::with_capacity(rows.len());
        let mut start = 0;
        for group in rows.chunk_by(|a, b| a.0 == b.0) {
            map.insert(group[0].0, start..start + group.len());
            start += group.len();
        }
        let entries = rows.into_iter().map(|(_, e)| e).collect();
        Self { map, entries, first }
    }

    /// Whether any indexed key starts with sub-vector `s0`.
    #[inline]
    pub(crate) fn may_start_with(&self, s0: u16) -> bool {
        self.first[(s0 >> 6) as usize] & (1 << (s0 & 63)) != 0
    }

    /// The entries matching a packed stored key, if any.
    #[inline]
    pub(crate) fn entries(&self, key: u64) -> Option<&[Entry]> {
        self.map.get(&key).map(|r| &self.entries[r.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Catalogue;
    use boolfn::expr::var;

    /// The index's entry lists per key, for comparison.
    fn lists(idx: &CandidateIndex) -> HashMap<u64, Vec<Entry>> {
        idx.map.iter().map(|(&key, r)| (key, idx.entries[r.clone()].to_vec())).collect()
    }

    /// Row-by-row permutation: row `i` reads `f` at the row whose
    /// input `perm(j)` is bit `j` of `i`.
    fn permute_rows(f: TruthTable, perm: &Permutation) -> TruthTable {
        TruthTable::from_fn(f.num_vars(), |i| {
            let src = perm
                .as_slice()
                .iter()
                .enumerate()
                .fold(0u8, |src, (j, &p)| src | (((i >> j) & 1) << p));
            f.eval(src)
        })
    }

    /// The build as a `HashMap` of first insertions over row-by-row
    /// permutes and a bit-at-a-time ξ.
    fn reference_build(
        candidates: &[TruthTable],
        k: u8,
        orders: &[SubVectorOrder],
    ) -> HashMap<u64, Vec<Entry>> {
        let mut map: HashMap<u64, Vec<Entry>> = HashMap::new();
        for (cand, &f) in candidates.iter().enumerate() {
            let f6 = f.extend(6);
            let mut tables: HashMap<u64, (u16, Permutation)> = HashMap::new();
            for (rank, p) in Permutation::all(k).enumerate() {
                let bits = permute_rows(f6, &extend_permutation(&p, k)).bits();
                tables.entry(bits).or_insert((rank as u16, p));
            }
            for (&bits, &(rank, perm)) in &tables {
                let b = (0..64)
                    .filter(|&i| (bits >> i) & 1 == 1)
                    .fold(0u64, |b, i| b | (1 << xi::XI_TABLE[i]));
                let parts = codec::split(b);
                for (order_pos, &order) in orders.iter().enumerate() {
                    let idx = order.indices();
                    let stored = [parts[idx[0]], parts[idx[1]], parts[idx[2]], parts[idx[3]]];
                    map.entry(pack_stored(stored)).or_default().push(Entry {
                        cand: cand as u32,
                        rank,
                        order_pos: order_pos as u8,
                        order,
                        perm,
                    });
                }
            }
        }
        for entries in map.values_mut() {
            entries.sort_by_key(|e| (e.cand, e.rank, e.order_pos));
        }
        map
    }

    #[test]
    fn entries_sorted_and_prefilter_consistent() {
        let f = ((var(1) ^ var(2)) & var(3)).truth_table(6);
        let g = (var(1) & var(2) & var(3)).truth_table(6);
        let idx = CandidateIndex::build(&[f, g], 6, &SubVectorOrder::both());
        assert!(!idx.map.is_empty());
        let mut covered: Vec<usize> = idx.map.values().flat_map(Clone::clone).collect();
        covered.sort_unstable();
        assert!(covered.into_iter().eq(0..idx.entries.len()), "ranges must tile the entries");
        for (key, entries) in lists(&idx) {
            assert!(idx.may_start_with(key as u16), "prefilter misses indexed key");
            assert_eq!(idx.entries(key), Some(&entries[..]));
            assert!(
                entries.is_sorted_by_key(|e| (e.cand, e.rank, e.order_pos)),
                "entry list not sorted"
            );
        }
    }

    #[test]
    fn dedup_keeps_minimal_rank() {
        // A totally symmetric function: every permutation produces the
        // same table, so exactly rank 0 must survive per order.
        let sym = (var(1) & var(2) & var(3) & var(4) & var(5) & var(6)).truth_table(6);
        let idx = CandidateIndex::build(&[sym], 6, &SubVectorOrder::both());
        assert_eq!(idx.entries.len(), 2);
        assert!(idx.entries.iter().all(|e| e.rank == 0));
    }

    #[test]
    fn entry_lists_equal_the_row_by_row_reference_over_the_full_catalogue() {
        let shapes: Vec<TruthTable> = Catalogue::full().shapes.iter().map(|s| s.truth).collect();
        let orders = SubVectorOrder::both();
        let idx = CandidateIndex::build(&shapes, 6, &orders);
        assert_eq!(lists(&idx), reference_build(&shapes, 6, &orders));
    }
}
