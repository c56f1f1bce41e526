//! The table-driven ξ against Table I applied one bit at a time:
//! `xi::permute` must move bit `i` to bit `XI_TABLE[i]` and
//! `xi::unpermute` must move it back, for every 64-bit word.

use bitstream::xi::{self, XI_TABLE};
use proptest::prelude::*;

/// Table I as a bit loop: bit `i` of `f` lands at bit `XI_TABLE[i]`.
fn permute_bits(f: u64) -> u64 {
    (0..64).filter(|&i| (f >> i) & 1 == 1).fold(0, |b, i| b | (1 << XI_TABLE[i]))
}

/// The inverse bit loop: bit `XI_TABLE[i]` of `b` returns to bit `i`.
fn unpermute_bits(b: u64) -> u64 {
    (0..64).filter(|&i| (b >> XI_TABLE[i]) & 1 == 1).fold(0, |f, i| f | (1 << i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn table_driven_xi_equals_the_table_i_bit_loop(x in any::<u64>()) {
        prop_assert_eq!(xi::permute(x), permute_bits(x));
        prop_assert_eq!(xi::unpermute(x), unpermute_bits(x));
        prop_assert_eq!(xi::unpermute(xi::permute(x)), x);
    }
}

#[test]
fn every_single_bit_moves_as_table_i_says() {
    for (i, &b) in XI_TABLE.iter().enumerate() {
        assert_eq!(xi::permute(1 << i), 1 << b, "F[{i}]");
        assert_eq!(xi::unpermute(1 << b), 1 << i, "B[{b}]");
    }
}
