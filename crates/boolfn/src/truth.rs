//! Compact truth tables for Boolean functions of up to 6 variables.

use core::fmt;

use crate::perm::Permutation;
use crate::MAX_VARS;

/// The truth table of a Boolean function of up to 6 variables.
///
/// The function value for the input assignment `i` (where variable `a1`
/// is bit 0 of `i`, ..., `a6` is bit 5) is stored in bit `i` of
/// [`TruthTable::bits`]. For a `k`-variable table only the low `2^k`
/// bits are significant; the constructor keeps the rest cleared so that
/// equality and hashing behave as expected.
///
/// # Example
///
/// ```
/// use boolfn::TruthTable;
///
/// let xor2 = TruthTable::from_fn(2, |i| (i & 1) ^ ((i >> 1) & 1) == 1);
/// assert_eq!(xor2.bits(), 0b0110);
/// assert!(xor2.eval(0b01));
/// assert!(!xor2.eval(0b11));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TruthTable {
    bits: u64,
    k: u8,
}

impl TruthTable {
    /// Creates a `k`-variable truth table from raw bits.
    ///
    /// Bits above position `2^k - 1` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `k > 6`.
    #[must_use]
    pub fn new(k: u8, bits: u64) -> Self {
        assert!(k <= MAX_VARS, "at most {MAX_VARS} variables supported, got {k}");
        Self { bits: bits & Self::mask(k), k }
    }

    /// Creates a `k`-variable truth table by evaluating `f` on every
    /// input assignment `0..2^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k > 6`.
    #[must_use]
    pub fn from_fn<F: FnMut(u8) -> bool>(k: u8, mut f: F) -> Self {
        assert!(k <= MAX_VARS, "at most {MAX_VARS} variables supported, got {k}");
        let mut bits = 0u64;
        for i in 0..(1u64 << k) {
            if f(i as u8) {
                bits |= 1 << i;
            }
        }
        Self { bits, k }
    }

    /// The constant-0 function of `k` variables.
    #[must_use]
    pub fn zero(k: u8) -> Self {
        Self::new(k, 0)
    }

    /// The constant-1 function of `k` variables.
    #[must_use]
    pub fn one(k: u8) -> Self {
        Self::new(k, u64::MAX)
    }

    /// The projection function `a_var` (`var` is 1-based, per the
    /// paper's `a1..a6` naming).
    ///
    /// # Panics
    ///
    /// Panics if `var` is 0 or greater than `k`.
    #[must_use]
    pub fn var(k: u8, var: u8) -> Self {
        assert!(var >= 1 && var <= k, "variable a{var} out of range for k={k}");
        Self::from_fn(k, |i| (i >> (var - 1)) & 1 == 1)
    }

    /// The low-bits mask for a `k`-variable table.
    #[inline]
    #[must_use]
    pub fn mask(k: u8) -> u64 {
        if k >= 6 {
            u64::MAX
        } else {
            (1u64 << (1u32 << k)) - 1
        }
    }

    /// Raw truth-table bits (low `2^k` bits significant).
    #[inline]
    #[must_use]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Number of variables `k`.
    #[inline]
    #[must_use]
    pub fn num_vars(self) -> u8 {
        self.k
    }

    /// Evaluates the function on the input assignment `input`
    /// (variable `a_j` is bit `j-1`).
    #[inline]
    #[must_use]
    pub fn eval(self, input: u8) -> bool {
        debug_assert!((input as u64) < (1u64 << self.k));
        (self.bits >> (input & 0x3f)) & 1 == 1
    }

    /// Returns the number of input assignments on which the function
    /// is 1 (the *weight* of the function).
    #[must_use]
    pub fn weight(self) -> u32 {
        self.bits.count_ones()
    }

    /// Whether the function is constant (0 or 1) over all `2^k` inputs.
    #[must_use]
    pub fn is_constant(self) -> bool {
        self.bits == 0 || self.bits == Self::mask(self.k)
    }

    /// Complement of the function.
    #[allow(clippy::should_implement_trait)] // deliberate: value-style API like `and`/`or`/`xor`
    #[must_use]
    pub fn not(self) -> Self {
        Self::new(self.k, !self.bits)
    }

    /// Pointwise AND of two functions with the same variable count.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        assert_eq!(self.k, other.k, "variable count mismatch");
        Self::new(self.k, self.bits & other.bits)
    }

    /// Pointwise OR of two functions with the same variable count.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        assert_eq!(self.k, other.k, "variable count mismatch");
        Self::new(self.k, self.bits | other.bits)
    }

    /// Pointwise XOR of two functions with the same variable count.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    #[must_use]
    pub fn xor(self, other: Self) -> Self {
        assert_eq!(self.k, other.k, "variable count mismatch");
        Self::new(self.k, self.bits ^ other.bits)
    }

    /// Whether the function's value depends on variable `a_var`
    /// (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `var` is 0 or greater than `k`.
    #[must_use]
    pub fn depends_on(self, var: u8) -> bool {
        assert!(var >= 1 && var <= self.k, "variable a{var} out of range for k={}", self.k);
        let (lo, hi) = self.cofactors(var);
        lo != hi
    }

    /// The set of variables the function depends on, as a bitmask
    /// (bit `j-1` set means `a_j` is in the support).
    #[must_use]
    pub fn support(self) -> u8 {
        let mut s = 0u8;
        for v in 1..=self.k {
            if self.depends_on(v) {
                s |= 1 << (v - 1);
            }
        }
        s
    }

    /// Negative and positive cofactors with respect to `a_var`
    /// (1-based), each returned as a `k`-variable table that no longer
    /// depends on `a_var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is 0 or greater than `k`.
    #[must_use]
    pub fn cofactors(self, var: u8) -> (Self, Self) {
        assert!(var >= 1 && var <= self.k, "variable a{var} out of range for k={}", self.k);
        // Copy the rows with the variable clear (set) onto their
        // partners: one masked shift per cofactor.
        let v = usize::from(var - 1);
        let (set, shift) = (self.bits & VAR[v], 1 << v);
        let clear = self.bits & !VAR[v];
        let lo = Self { bits: clear | (clear << shift), k: self.k };
        let hi = Self { bits: set | (set >> shift), k: self.k };
        (lo, hi)
    }

    /// Applies an input permutation: the result `g` satisfies
    /// `g(a_1, ..., a_k) = f(a_{perm(1)}, ..., a_{perm(k)})`.
    ///
    /// In other words, input position `j` of the new function is wired
    /// to what used to be input `perm(j)` of `f`. The table is permuted
    /// by the permutation's [`SwapNetwork`]; build that once to apply
    /// one permutation to many tables.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the variable count.
    #[must_use]
    pub fn permute(self, perm: &Permutation) -> Self {
        SwapNetwork::new(perm).apply(self)
    }

    /// Extends the function to `k_new >= k` variables; the added
    /// variables are don't-cares (the function ignores them).
    ///
    /// # Panics
    ///
    /// Panics if `k_new < k` or `k_new > 6`.
    #[must_use]
    pub fn extend(self, k_new: u8) -> Self {
        assert!(k_new >= self.k, "cannot shrink a truth table with extend");
        Self::from_fn(k_new, |i| self.eval(i & (((1u16 << self.k) - 1) as u8)))
    }

    /// Restricts variable `a_var` (1-based) to the constant `value`,
    /// producing a function that ignores `a_var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    #[must_use]
    pub fn restrict(self, var: u8, value: bool) -> Self {
        let (lo, hi) = self.cofactors(var);
        if value {
            hi
        } else {
            lo
        }
    }

    /// Tests whether the function is exactly the XOR of the two
    /// (distinct, 1-based) variables `u` and `v`, ignoring all others.
    #[must_use]
    pub fn is_xor_of(self, u: u8, v: u8) -> bool {
        if u == v || u == 0 || v == 0 || u > self.k || v > self.k {
            return false;
        }
        let want = Self::var(self.k, u).xor(Self::var(self.k, v));
        self == want
    }

    /// If the function is a 2-input XOR of some pair of its variables
    /// (all other variables being don't-cares), returns that pair
    /// (1-based, with the smaller variable first).
    ///
    /// This is the predicate used by the countermeasure scan of
    /// Section VII-B of the paper ("2-input XOR in one half of the
    /// truth table").
    #[must_use]
    pub fn as_xor_pair(self) -> Option<(u8, u8)> {
        let support = self.support();
        if support.count_ones() != 2 {
            return None;
        }
        let u = support.trailing_zeros() as u8 + 1;
        let v = 8 - support.leading_zeros() as u8;
        if self.is_xor_of(u, v) {
            Some((u, v))
        } else {
            None
        }
    }
}

/// The projection tables `a1..a6` over 64 rows: bit `i` of `VAR[v]`
/// is bit `v` of `i`.
const VAR: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// An input permutation compiled into a delta-swap network over the
/// 64-bit truth table: one masked shift-XOR per transposition of input
/// positions, at most `k - 1` of them.
///
/// Swapping inputs `a < b` exchanges every row with `a` set and `b`
/// clear (mask `VAR[a] & !VAR[b]`) with the row `2^b - 2^a` above it.
/// The network sorts the identity wiring into the permutation's by
/// selection, one swap per misplaced position.
///
/// # Example
///
/// ```
/// use boolfn::{Permutation, SwapNetwork, TruthTable};
///
/// let f = TruthTable::new(3, 0b1000_0110);
/// let p = Permutation::from_slice(&[2, 0, 1]).unwrap();
/// assert_eq!(SwapNetwork::new(&p).apply(f), f.permute(&p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapNetwork {
    /// `(mask, shift)` per swap, in application order.
    swaps: [(u64, u32); MAX_VARS as usize - 1],
    len: u8,
    k: u8,
}

impl SwapNetwork {
    /// Compiles `perm` (see [`TruthTable::permute`] for its meaning).
    #[must_use]
    pub fn new(perm: &Permutation) -> Self {
        let k = perm.len();
        let mut net = Self { swaps: [(0, 0); MAX_VARS as usize - 1], len: 0, k: k as u8 };
        // `wired[j]` is the input of `f` that position `j` of the
        // partly permuted table reads.
        let mut wired: [u8; MAX_VARS as usize] = core::array::from_fn(|j| j as u8);
        for a in 0..k {
            let want = perm.apply(a as u8);
            if wired[a] == want {
                continue;
            }
            let b = (a + 1..k).find(|&b| wired[b] == want).expect("a permutation");
            net.swaps[usize::from(net.len)] = (VAR[a] & !VAR[b], (1 << b) - (1 << a));
            net.len += 1;
            wired.swap(a, b);
        }
        net
    }

    /// Applies the permutation to `f`.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the variable count.
    #[must_use]
    pub fn apply(&self, f: TruthTable) -> TruthTable {
        assert_eq!(self.k, f.k, "permutation length mismatch");
        let mut x = f.bits;
        for &(mask, shift) in &self.swaps[..usize::from(self.len)] {
            let t = ((x >> shift) ^ x) & mask;
            x ^= t ^ (t << shift);
        }
        TruthTable { bits: x, k: f.k }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable(k={}, 0x{:0w$x})", self.k, self.bits, w = (1usize << self.k) / 4)
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:0w$x}", self.bits, w = (1usize << self.k).div_ceil(4))
    }
}

impl fmt::LowerHex for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::UpperHex for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.bits, f)
    }
}

impl fmt::Binary for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_projection() {
        let a1 = TruthTable::var(3, 1);
        assert_eq!(a1.bits(), 0b10101010);
        let a3 = TruthTable::var(3, 3);
        assert_eq!(a3.bits(), 0b11110000);
    }

    #[test]
    fn masks_out_high_bits() {
        let t = TruthTable::new(2, u64::MAX);
        assert_eq!(t.bits(), 0b1111);
        assert_eq!(t, TruthTable::one(2));
    }

    #[test]
    fn weight_and_constant() {
        assert!(TruthTable::zero(6).is_constant());
        assert!(TruthTable::one(6).is_constant());
        assert_eq!(TruthTable::one(6).weight(), 64);
        assert!(!TruthTable::var(6, 4).is_constant());
        assert_eq!(TruthTable::var(6, 4).weight(), 32);
    }

    #[test]
    fn support_of_gated_xor() {
        // (a1 ^ a2) & a4 should depend on a1, a2, a4 but not a3.
        let f = TruthTable::var(4, 1).xor(TruthTable::var(4, 2)).and(TruthTable::var(4, 4));
        assert_eq!(f.support(), 0b1011);
        assert!(f.depends_on(1));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn cofactor_identities() {
        let f = TruthTable::var(3, 1).xor(TruthTable::var(3, 3));
        let (lo, hi) = f.cofactors(3);
        // f = !a3 & lo | a3 & hi (Shannon expansion).
        let a3 = TruthTable::var(3, 3);
        let recon = a3.not().and(lo).or(a3.and(hi));
        assert_eq!(recon, f);
        assert!(!lo.depends_on(3));
        assert!(!hi.depends_on(3));
    }

    #[test]
    fn restrict_kills_dependency() {
        let f = TruthTable::var(2, 1).and(TruthTable::var(2, 2));
        assert_eq!(f.restrict(2, false), TruthTable::zero(2));
        assert_eq!(f.restrict(2, true), TruthTable::var(2, 1));
    }

    #[test]
    fn permute_swap_two_vars() {
        // f = a1 & !a2; swapping a1 and a2 should give a2 & !a1.
        let f = TruthTable::var(2, 1).and(TruthTable::var(2, 2).not());
        let p = Permutation::from_slice(&[1, 0]).unwrap();
        let g = f.permute(&p);
        let want = TruthTable::var(2, 2).and(TruthTable::var(2, 1).not());
        assert_eq!(g, want);
    }

    #[test]
    fn permute_identity_is_noop() {
        let f = TruthTable::new(6, 0xdead_beef_0bad_f00d);
        let id = Permutation::identity(6);
        assert_eq!(f.permute(&id), f);
    }

    #[test]
    fn extend_ignores_new_vars() {
        let xor2 = TruthTable::var(2, 1).xor(TruthTable::var(2, 2));
        let f = xor2.extend(5);
        assert_eq!(f.support(), 0b00011);
        assert!(f.eval(0b00001));
        assert!(f.eval(0b10001));
        assert!(!f.eval(0b10011));
    }

    #[test]
    fn xor_pair_detection() {
        let f = TruthTable::var(5, 2).xor(TruthTable::var(5, 4));
        assert_eq!(f.as_xor_pair(), Some((2, 4)));
        assert!(f.is_xor_of(2, 4));
        assert!(f.is_xor_of(4, 2));
        // XNOR is not XOR.
        let g = f.not();
        assert_eq!(g.as_xor_pair(), None);
        // An AND of two vars is not an XOR.
        let h = TruthTable::var(5, 2).and(TruthTable::var(5, 4));
        assert_eq!(h.as_xor_pair(), None);
    }

    #[test]
    #[should_panic(expected = "at most 6 variables")]
    fn too_many_vars_panics() {
        let _ = TruthTable::new(7, 0);
    }
}
