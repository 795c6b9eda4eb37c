//! Property-based tests for the deterministic executor: every entry point
//! must return bit-identical results at any thread count, because the
//! chunk decomposition and all reductions are fixed independently of how
//! many workers happen to run them.

use proptest::prelude::*;

/// Strategy: vectors of floats spanning enough magnitude that any
/// reassociation of a sum would change the result bitwise.
fn ill_conditioned() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![-1.0e12f64..1.0e12, -1.0f64..1.0, Just(0.0f64),],
        0..96,
    )
}

proptest! {
    #[test]
    fn map_chunks_is_thread_count_invariant(
        items in ill_conditioned(),
        chunk_size in 1usize..16,
    ) {
        // Chunk sums are order-sensitive; identical outputs across thread
        // counts prove the decomposition and assembly ignore parallelism.
        let run = |threads: usize| {
            anubis_parallel::map_chunks(&items, chunk_size, threads, |idx, chunk| {
                (idx, chunk.iter().fold(0.0f64, |a, &v| a / 3.0 + v))
            })
        };
        let reference = run(1);
        prop_assert_eq!(&reference, &run(2));
        prop_assert_eq!(&reference, &run(8));
        prop_assert_eq!(reference.len(), items.len().div_ceil(chunk_size.max(1)));
    }

    #[test]
    fn map_chunks_mut_is_thread_count_invariant(
        items in ill_conditioned(),
        chunk_size in 1usize..16,
    ) {
        let run = |threads: usize| {
            let mut data = items.clone();
            let sums = anubis_parallel::map_chunks_mut(&mut data, chunk_size, threads, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.sin() * 1.0e3;
                }
                chunk.iter().sum::<f64>()
            });
            (data, sums)
        };
        let reference = run(1);
        prop_assert_eq!(&reference, &run(2));
        prop_assert_eq!(&reference, &run(8));
    }

    #[test]
    fn map_items_and_indexed_match_sequential(items in ill_conditioned()) {
        let expected: Vec<f64> = items.iter().map(|v| v * 1.5 - 2.0).collect();
        for threads in [1usize, 2, 8] {
            let by_item = anubis_parallel::map_items(&items, threads, |v| v * 1.5 - 2.0);
            let by_index = anubis_parallel::map_indexed(items.len(), threads, |i| {
                items[i] * 1.5 - 2.0
            });
            prop_assert_eq!(&by_item, &expected);
            prop_assert_eq!(&by_index, &expected);
        }
    }

    #[test]
    fn uneven_task_costs_do_not_change_results(
        costs in prop::collection::vec(prop_oneof![0u64..50, 2_000u64..20_000], 0..40),
    ) {
        // Workers claim tasks as they go idle, so with uneven costs the
        // task-to-worker assignment varies run to run; the assembled
        // output must not.
        let spin = |rounds: u64| {
            (0..rounds).fold(1u64, |x, r| {
                std::hint::black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r)
            })
        };
        let fold_chunk = |chunk: &[u64]| chunk.iter().fold(0u64, |a, &c| a.rotate_left(7) ^ spin(c));
        let by_item: Vec<u64> = costs.iter().map(|&c| spin(c)).collect();
        let by_chunk: Vec<u64> = costs.chunks(3).map(fold_chunk).collect();
        for threads in [1usize, 2, 3, 8] {
            prop_assert_eq!(&anubis_parallel::map_items(&costs, threads, |&c| spin(c)), &by_item);
            prop_assert_eq!(
                &anubis_parallel::map_chunks(&costs, 3, threads, |_, chunk| fold_chunk(chunk)),
                &by_chunk
            );
        }
    }
}
