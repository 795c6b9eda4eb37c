//! Differential verification that `fastmath::tanh` is bit-identical to
//! the system libm's `tanh` (fdlibm on glibc x86-64): dense log-uniform
//! sampling across every branch of the algorithm, plus ulp sweeps around
//! each branch boundary. A single mismatching bit anywhere fails loudly.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn assert_matches(x: f64) {
    let ours = anubis_nn::fastmath::tanh(x);
    let libm = x.tanh();
    assert_eq!(
        ours.to_bits(),
        libm.to_bits(),
        "tanh({x:e}) [bits {:#018x}]: ours {ours:e} != libm {libm:e}",
        x.to_bits(),
    );
    // The batched kernel must agree too: 13 = 8 + 4 + 1 lanes reach an
    // eight-lane block (512-bit where the target has AVX-512), a
    // four-lane chunk and the scalar tail, each through its branchless
    // body or its scalar fallback.
    let mut buf = [x; 13];
    anubis_nn::fastmath::tanh_slice(&mut buf);
    for (i, v) in buf.iter().enumerate() {
        assert_eq!(v.to_bits(), libm.to_bits(), "tanh_slice lane {i} for {x:e}");
    }
}

#[test]
fn mixed_domain_chunks_match() {
    // Chunks mixing in-domain values with tiny/saturated/non-finite ones
    // must take the scalar fallback without disturbing neighbours.
    let specials = [0.0, -0.0, 1e-300, 25.0, -40.0, f64::INFINITY, 1e18];
    for (i, &s) in specials.iter().enumerate() {
        let mut buf = [
            0.3, -1.7, s, 0.9, 18.99, -0.001, 2.5, 1.0, -1.0, 0.05, -7.5, 3.3, -0.6,
        ];
        let len = buf.len();
        buf.rotate_left(i % len);
        let expected: Vec<u64> = buf.iter().map(|v| v.tanh().to_bits()).collect();
        anubis_nn::fastmath::tanh_slice(&mut buf);
        for (lane, (v, want)) in buf.iter().zip(&expected).enumerate() {
            assert_eq!(v.to_bits(), *want, "lane {lane} with special {s:e}");
        }
    }
}

#[test]
fn special_values_match() {
    for x in [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        f64::MAX,
        f64::MIN,
    ] {
        assert_matches(x);
    }
    assert!(anubis_nn::fastmath::tanh(f64::NAN).is_nan());
}

#[test]
fn branch_boundaries_match_to_the_ulp() {
    // tanh's own branch cuts, and the points where its expm1 argument
    // (±2|x|) crosses expm1's reduction thresholds (2⁻⁵⁴, 0.5 ln 2,
    // 1.5 ln 2, 56 ln 2) or lands on an integer-k boundary.
    let ln2 = std::f64::consts::LN_2;
    let mut anchors = vec![
        f64::from_bits(0x3c80_0000_0000_0000), // 2⁻⁵⁵
        f64::from_bits(0x3c90_0000_0000_0000) / 2.0,
        0.25 * ln2,
        0.75 * ln2,
        1.0,
        22.0,
        19.0, // 2|x| near the k > 56 cut
        0.25,
        0.125,
    ];
    for k in 1..64 {
        anchors.push(0.5 * ln2 * f64::from(k)); // 2|x| = k ln 2
    }
    for anchor in anchors {
        for sign in [1.0, -1.0] {
            let mut lo = sign * anchor;
            let mut hi = lo;
            for _ in 0..64 {
                assert_matches(lo);
                assert_matches(hi);
                lo = lo.next_down();
                hi = hi.next_up();
            }
        }
    }
}

#[test]
fn dense_log_uniform_sweep_matches() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7a11);
    // Log-uniform magnitudes from deep subnormal to past every cutoff:
    // exercises the tiny path, both expm1 halves, every reduction branch
    // and the saturated tail.
    for _ in 0..2_000_000 {
        let exponent: f64 = rng.random_range(-60.0..6.0);
        let mantissa: f64 = rng.random_range(1.0..2.0);
        let sign = if rng.random_range(0..2) == 0 {
            1.0
        } else {
            -1.0
        };
        assert_matches(sign * mantissa * exponent.exp2());
    }
    // Uniform sweep over the realistic pre-activation range.
    for _ in 0..2_000_000 {
        assert_matches(rng.random_range(-25.0..25.0));
    }
}

#[test]
fn long_buffers_match_lane_by_lane() {
    // Distinct values in every lane, through `tanh_slice` in long buffers
    // as the network calls it: mostly eight-lane blocks, whose lanes each
    // take their own branch of the algorithm. Log-uniform magnitudes over
    // the branchless domain and a little past both of its ends, so some
    // blocks fall back to the scalar path.
    let mut rng = ChaCha8Rng::seed_from_u64(0x51ab);
    let mut checked = 0usize;
    for len in (1..=1027).cycle() {
        if checked >= 1_200_000 {
            break;
        }
        let values: Vec<f64> = (0..len)
            .map(|_| {
                let exponent: f64 = rng.random_range(-58.0..5.0);
                let mantissa: f64 = rng.random_range(1.0..2.0);
                let sign = if rng.random_range(0..2) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * mantissa * exponent.exp2()
            })
            .collect();
        let mut out = values.clone();
        anubis_nn::fastmath::tanh_slice(&mut out);
        for (lane, (x, y)) in values.iter().zip(&out).enumerate() {
            assert_eq!(
                y.to_bits(),
                x.tanh().to_bits(),
                "tanh_slice lane {lane} of {len} for {x:e}"
            );
        }
        checked += len;
    }
}
