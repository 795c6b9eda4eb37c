//! [`NodeRng`] is the ChaCha8 generator it replaces, word for word.

use anubis_traces::{node_stream_seed, NodeRng};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mixed sequence of draws, 40 to 160 of them, spans several
    /// 16-word blocks at one to two words a draw (more for a rejected
    /// `random_range` draw).
    #[test]
    fn node_rng_draws_match_chacha8_word_for_word(
        seed in any::<u64>(),
        node in any::<u32>(),
        stream in 0u64..4,
        draws in prop::collection::vec((0u8..5, 1u64..u64::MAX), 40..160),
    ) {
        let stream_seed = node_stream_seed(seed, node, stream);
        let mut compact = NodeRng::new(stream_seed);
        let mut reference = ChaCha8Rng::seed_from_u64(stream_seed);
        for (kind, span) in draws {
            match kind {
                0 => prop_assert_eq!(compact.next_u32(), reference.next_u32()),
                1 => prop_assert_eq!(compact.next_u64(), reference.next_u64()),
                2 => prop_assert_eq!(compact.random_range(0..span), reference.random_range(0..span)),
                3 => prop_assert_eq!(
                    compact.random_range(0.0..1.5f64).to_bits(),
                    reference.random_range(0.0..1.5f64).to_bits()
                ),
                _ => {
                    let len = (span & 7) as usize;
                    let (mut ours, mut theirs) = ([0u8; 7], [0u8; 7]);
                    compact.fill_bytes(&mut ours[..len]);
                    reference.fill_bytes(&mut theirs[..len]);
                    prop_assert_eq!(ours, theirs);
                }
            }
        }
    }
}
