//! Manual timing probe for the MLP kernels (ignored by default; run with
//! `cargo test -p anubis-nn --release --test timing -- --ignored --nocapture`).
//!
//! Prints rows/s for the per-row reference path (`forward_cached` plus
//! `backward` into `Gradients`) against the batched kernels
//! (`forward_batch`, `backward_batch`) on a Cox-Time-shaped network
//! (14 inputs → width → width → 1, tanh) with 224-row batches, the
//! quick preset's minibatch of 32 events × (1 + 6 controls), and
//! `tanh_slice`'s cost in ns per value and as a share of batched forward
//! time.

// A wall-clock probe by design; its readings are printed, never asserted.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use anubis_nn::fastmath::tanh_slice;
use anubis_nn::{Activation, BatchCache, Mlp};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 224;
const INPUTS: usize = 14;

/// Seconds per call of `f`, over enough calls to fill ~0.3 s.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.3 {
            return elapsed / f64::from(calls);
        }
        calls *= 2;
    }
}

#[test]
#[ignore = "manual timing probe"]
fn time_reference_vs_batched_kernels() {
    for width in [24usize, 32, 64] {
        let mlp = Mlp::new(&[INPUTS, width, width, 1], Activation::Tanh, 7);
        // Zero-free synthetic data: an exact zero sends its whole chunk to
        // the scalar `tanh` fallback, which real pre-activations never do.
        let inputs: Vec<f64> = (0..ROWS * INPUTS)
            .map(|k| ((k * 37 % 29) as f64 - 13.5) * 0.11)
            .collect();
        let output_grads: Vec<f64> = (0..ROWS).map(|r| (r as f64 - 100.0) * 1e-3).collect();

        let reference = seconds_per_call(|| {
            let mut grads = mlp.zero_gradients();
            for (x, &g) in inputs.chunks_exact(INPUTS).zip(&output_grads) {
                let cache = mlp.forward_cached(black_box(x));
                mlp.backward(&cache, &[g], &mut grads);
            }
            black_box(&grads);
        });

        let mut cache = BatchCache::default();
        let mut flat = vec![0.0; mlp.parameter_count()];
        let forward = seconds_per_call(|| {
            mlp.forward_batch(black_box(&inputs), ROWS, &mut cache);
        });
        let backward = seconds_per_call(|| {
            mlp.backward_batch(&mut cache, black_box(&output_grads), &mut flat);
        });

        // The forward pass applies tanh to both hidden layers' outputs.
        let pre: Vec<f64> = (0..ROWS * width * 2)
            .map(|k| ((k * 13 % 31) as f64 - 14.5) * 0.09)
            .collect();
        let tanh = seconds_per_call(|| {
            let mut values = black_box(&pre).clone();
            tanh_slice(&mut values);
            black_box(&values);
        });
        let copy = seconds_per_call(|| {
            black_box(black_box(&pre).clone());
        });

        let rows = ROWS as f64;
        println!(
            "width {width:>2}: per-row reference {:>10.0} rows/s | batched forward {:>10.0} rows/s, \
             backward {:>10.0} rows/s, forward+backward {:>10.0} rows/s ({:.2}x) | \
             tanh {:.2} ns/value, {:.0}% of forward",
            rows / reference,
            rows / forward,
            rows / backward,
            rows / (forward + backward),
            reference / (forward + backward),
            (tanh - copy).max(0.0) * 1e9 / pre.len() as f64,
            100.0 * (tanh - copy).max(0.0) / forward,
        );
    }
}
