//! Manual timing probe for the MLP hot paths (ignored by default; run
//! with `cargo test -p anubis-nn --release -- --ignored --nocapture`).

// A wall-clock probe by design; its readings are printed, never asserted.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use anubis_nn::{Activation, BackwardScratch, Mlp};
use std::time::Instant;

#[test]
#[ignore = "manual timing probe"]
fn time_forward_backward() {
    let mlp = Mlp::new(&[11, 64, 64, 1], Activation::Tanh, 7);
    let input: Vec<f64> = (0..11).map(|i| 0.1 * i as f64 - 0.5).collect();
    let mut cache = mlp.empty_cache();

    let n = 200_000u32;
    let start = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..n {
        sink += mlp.forward_scalar_into(&input, &mut cache);
    }
    let fwd = start.elapsed();
    println!(
        "forward:  {:.2} us/call (sink {sink})",
        fwd.as_secs_f64() * 1e6 / f64::from(n)
    );

    let mut flat = vec![0.0f64; mlp.parameter_count()];
    let mut scratch = BackwardScratch::default();
    mlp.forward_into(&input, &mut cache);
    let start = Instant::now();
    for _ in 0..n {
        mlp.backward_flat(&cache, &[1.0], &mut flat, &mut scratch);
    }
    let bwd = start.elapsed();
    println!(
        "backward: {:.2} us/call (flat[0] {})",
        bwd.as_secs_f64() * 1e6 / f64::from(n),
        flat[0]
    );

    let start = Instant::now();
    let mut t = 0.0f64;
    for i in 0..10_000_000u32 {
        t += (f64::from(i) * 1e-6).tanh();
    }
    println!(
        "tanh:     {:.1} ns/call (sink {t})",
        start.elapsed().as_secs_f64() * 1e9 / 1e7
    );
}
