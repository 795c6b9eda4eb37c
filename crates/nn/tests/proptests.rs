//! Property-based tests for the neural-network substrate.

use anubis_nn::{Activation, Adam, BatchCache, Mlp, StandardScaler};
use proptest::prelude::*;

fn architecture() -> impl Strategy<Value = Vec<usize>> {
    (1usize..4, 1usize..12, 1usize..3)
        .prop_map(|(input, hidden, output)| vec![input, hidden, output])
}

/// One to three layers of widths 1–70: on and off the batched kernels'
/// 8-lane chunks.
fn wide_architecture() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=70, 2..5)
}

/// Values that send `tanh_slice` down its scalar fallback: signed zeros,
/// saturation, subnormals.
const SPECIAL_INPUTS: [f64; 7] = [0.0, -0.0, 25.0, -25.0, 5e-324, -1e-310, 2.2e-308];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analytic gradients match finite differences on random
    /// architectures, activations, inputs and seeds.
    #[test]
    fn gradients_match_finite_differences(
        sizes in architecture(),
        tanh in any::<bool>(),
        seed in 0u64..200,
        x in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let activation = if tanh { Activation::Tanh } else { Activation::Relu };
        let mlp = Mlp::new(&sizes, activation, seed);
        let input = &x[..sizes[0]];
        // Loss: 0.5 * Σ y².
        let loss = |net: &Mlp| -> f64 {
            net.forward(input).iter().map(|y| 0.5 * y * y).sum()
        };
        let cache = mlp.forward_cached(input);
        let output_grad: Vec<f64> = cache.output().to_vec();
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &output_grad, &mut grads);
        let analytic: Vec<f64> = Mlp::flattened_gradients(&grads);

        let eps = 1e-6;
        for (p, &analytic_grad) in analytic.iter().enumerate().take(mlp.parameter_count()) {
            let mut plus = mlp.clone();
            plus.perturb_parameter(p, eps);
            let mut minus = mlp.clone();
            minus.perturb_parameter(p, -eps);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            // ReLU kinks make finite differences locally inexact; allow a
            // loose bound there and a tight one for tanh.
            let tolerance: f64 = if tanh { 1e-4 } else { 2e-3 };
            prop_assert!(
                (analytic_grad - numeric).abs() <= tolerance.max(numeric.abs() * 1e-3),
                "param {p}: analytic {analytic_grad} vs numeric {numeric}"
            );
        }
    }

    /// Training with Adam on a constant target always reduces the loss.
    #[test]
    fn adam_reduces_constant_target_loss(seed in 0u64..100, target in -3.0f64..3.0) {
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, seed);
        let mut adam = Adam::new(&mlp, 1e-2);
        let loss = |net: &Mlp| {
            let y = net.forward_scalar(&[0.5]);
            0.5 * (y - target) * (y - target)
        };
        let initial = loss(&mlp);
        for _ in 0..200 {
            let cache = mlp.forward_cached(&[0.5]);
            let err = cache.output()[0] - target;
            let mut grads = mlp.zero_gradients();
            mlp.backward(&cache, &[err], &mut grads);
            adam.step(&mut mlp, &grads);
        }
        prop_assert!(loss(&mlp) <= initial.max(1e-8), "{} -> {}", initial, loss(&mlp));
        prop_assert!(loss(&mlp) < 0.05, "converges near the target: {}", loss(&mlp));
    }

    /// Scaler round-trip: transformed features have near-zero mean and
    /// near-unit variance for arbitrary data.
    #[test]
    fn scaler_standardizes(rows in prop::collection::vec(
        prop::collection::vec(-1000.0f64..1000.0, 3), 4..40))
    {
        let scaler = StandardScaler::fit(&rows);
        let transformed = scaler.transform_all(&rows);
        for d in 0..3 {
            let n = transformed.len() as f64;
            let mean: f64 = transformed.iter().map(|r| r[d]).sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-6, "dim {d} mean {mean}");
            let var: f64 = transformed.iter().map(|r| r[d] * r[d]).sum::<f64>() / n;
            // Constant columns standardize to zero (variance 0), others
            // to 1.
            prop_assert!(var < 1.0 + 1e-6, "dim {d} var {var}");
        }
    }
}

/// `rows` input rows and output gradients for a `sizes` network, and one
/// optimizer step on `mlp` so its biases are non-zero. Every fifth row is
/// one special value throughout, so whole pre-activation chunks hit the
/// fallback; the rest mix the pool.
fn batch(
    mlp: &mut Mlp,
    sizes: &[usize],
    rows: usize,
    pool: &[f64],
    grad_pool: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let (width, outputs) = (sizes[0], sizes[sizes.len() - 1]);
    let inputs: Vec<f64> = (0..rows * width)
        .map(|k| {
            let r = k / width;
            if r % 5 == 0 {
                SPECIAL_INPUTS[(r / 5) % SPECIAL_INPUTS.len()]
            } else {
                pool[(k * 7 + r) % pool.len()]
            }
        })
        .collect();
    let output_grads: Vec<f64> = (0..rows * outputs)
        .map(|k| grad_pool[k % grad_pool.len()])
        .collect();
    if rows > 1 {
        let cache = mlp.forward_cached(&inputs[width..2 * width]);
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &output_grads[outputs..2 * outputs], &mut grads);
        Adam::new(mlp, 0.05).step(mlp, &grads);
    }
    (inputs, output_grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The batched kernels are bit-exact against the per-row reference:
    /// `forward_batch` row `r` equals `forward_cached` on row `r`, and one
    /// `backward_batch` per batch equals row-by-row `backward` into
    /// `Gradients`, including onto a non-zero accumulator.
    #[test]
    fn batched_kernels_match_per_row_reference_bitwise(
        sizes in wide_architecture(),
        hidden in prop::sample::select(vec![Activation::Tanh, Activation::Relu, Activation::Identity]),
        seed in 0u64..1000,
        rows in 0usize..=300,
        split in 0usize..=300,
        pool in prop::collection::vec(-3.0f64..3.0, 61),
        grad_pool in prop::collection::vec(-2.0f64..2.0, 17),
    ) {
        let mut mlp = Mlp::new(&sizes, hidden, seed);
        let (width, outputs) = (sizes[0], sizes[sizes.len() - 1]);
        let (inputs, output_grads) = batch(&mut mlp, &sizes, rows, &pool, &grad_pool);

        let mut cache = BatchCache::default();
        let mut flat = vec![0.0; mlp.parameter_count()];
        let mut grads = mlp.zero_gradients();
        // Two batches into one accumulator, split anywhere.
        let split = split.min(rows);
        for (start, end) in [(0, split), (split, rows)] {
            let batch = &inputs[start * width..end * width];
            mlp.forward_batch(batch, end - start, &mut cache);
            for (r, x) in batch.chunks_exact(width).enumerate() {
                let reference = mlp.forward_cached(x);
                prop_assert_eq!(bits(cache.output(r)), bits(reference.output()), "row {}", start + r);
                let g = &output_grads[(start + r) * outputs..(start + r + 1) * outputs];
                mlp.backward(&reference, g, &mut grads);
            }
            let g = &output_grads[start * outputs..end * outputs];
            mlp.backward_batch(&mut cache, g, &mut flat);
            prop_assert_eq!(bits(&Mlp::flattened_gradients(&grads)), bits(&flat));
        }
    }

    /// The range kernels compose to the per-row reference bit for bit:
    /// the rows split into two segments anywhere (an empty one included;
    /// every split for small batches), each run through `forward_batch`
    /// and `backprop_deltas`, then `accumulate_gradients` over 1, 2 and 3
    /// parameter parts in reverse order onto a non-zero accumulator. Half
    /// the cases end in a 1-wide output layer, of which a part may own no
    /// neuron.
    #[test]
    fn split_kernels_match_per_row_reference_bitwise(
        sizes in wide_architecture(),
        narrow_output in any::<bool>(),
        hidden in prop::sample::select(vec![Activation::Tanh, Activation::Relu, Activation::Identity]),
        seed in 0u64..1000,
        rows in 0usize..=300,
        split in 0usize..=300,
        pool in prop::collection::vec(-3.0f64..3.0, 61),
        grad_pool in prop::collection::vec(-2.0f64..2.0, 17),
    ) {
        let mut sizes = sizes;
        if narrow_output {
            *sizes.last_mut().unwrap() = 1;
        }
        let mut mlp = Mlp::new(&sizes, hidden, seed);
        let (width, outputs) = (sizes[0], sizes[sizes.len() - 1]);
        let (inputs, output_grads) = batch(&mut mlp, &sizes, rows, &pool, &grad_pool);

        // The reference: one `backward` per row onto a non-zero start.
        let mut grads = mlp.zero_gradients();
        if rows > 0 {
            let cache = mlp.forward_cached(&inputs[..width]);
            mlp.backward(&cache, &output_grads[..outputs], &mut grads);
        }
        let start = Mlp::flattened_gradients(&grads);
        for (x, g) in inputs.chunks_exact(width).zip(output_grads.chunks_exact(outputs)) {
            let reference = mlp.forward_cached(x);
            mlp.backward(&reference, g, &mut grads);
        }
        let expected = bits(&Mlp::flattened_gradients(&grads));

        let splits: Vec<usize> = if rows <= 12 {
            (0..=rows).collect()
        } else {
            vec![0, split.min(rows), rows]
        };
        let mut halves = [BatchCache::default(), BatchCache::default()];
        for split in splits {
            let [a, b] = &mut halves;
            for (half, range) in [(&mut *a, 0..split), (&mut *b, split..rows)] {
                mlp.forward_batch(&inputs[range.start * width..range.end * width], range.len(), half);
                mlp.backprop_deltas(half, &output_grads[range.start * outputs..range.end * outputs]);
            }
            for parts in 1..=3 {
                let mut flat = start.clone();
                let mut covered = 0;
                for part in (0..parts).rev() {
                    let range = mlp.gradient_part(part, parts);
                    prop_assert!(range.start <= range.end);
                    covered += range.len();
                    mlp.accumulate_gradients(&[&*a, &*b], range.start, &mut flat[range]);
                }
                prop_assert_eq!(covered, mlp.parameter_count());
                prop_assert_eq!(
                    &bits(&flat), &expected, "split {} of {}, {} parts", split, rows, parts
                );
            }
        }
    }
}
