//! A fixed, inlinable `tanh` kernel for the network hot loops.
//!
//! `Activation::Tanh` used to call the system libm, which on this class
//! of host (glibc x86-64 with FMA) dispatches `tanh` to the classic
//! fdlibm routine and its inner `expm1` — via an ifunc — to glibc's
//! FMA-contracted multiarch build of the same Sun fdlibm code. This
//! module ports that exact pair operation for operation (fused
//! multiply-adds exactly where the shipped binary fuses them, high-word
//! exponent arithmetic and all), so every result is bit-identical to
//! what `f64::tanh` produced before, while the call — billions per
//! `repro table3`, one per hidden neuron per forward pass — now inlines.
//! Two things make the port faster than the call it replaces:
//!
//! * the `|x| < 1` / `|x| >= 1` split is evaluated branchlessly (one
//!   `expm1` on a selected argument, one division on a selected
//!   numerator), removing a data-dependent branch that mispredicts on
//!   roughly half of real pre-activation streams;
//! * inlining lets the CPU overlap the long-latency FP divisions of
//!   *neighbouring* activations, which a dynamic call boundary forbids.
//!
//! Beyond speed, a vendored kernel pins the workspace's seeded
//! determinism to one fixed implementation instead of whatever libm the
//! host ships; `crates/nn/tests/tanh_exactness.rs` verifies bit-equality
//! against the system libm across every branch of the algorithm.
//! (`f64::mul_add` is a correctly-rounded fused multiply-add on every
//! target — hardware FMA or libm fallback — so the port's results do not
//! depend on build flags.)

// fdlibm constants, spelled as bit patterns so no decimal-literal
// round-trip is involved; each one was read back out of the shipped
// libm.so.6's constant pool.
pub(crate) const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000); // high part of ln 2
pub(crate) const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76); // ln 2 − LN2_HI
pub(crate) const INVLN2: f64 = f64::from_bits(0x3FF7_1547_652B_82FE); // 1 / ln 2
const O_THRESHOLD: f64 = f64::from_bits(0x4086_2E42_FEFA_39EF); // exp overflow bound
const HUGE: f64 = 1.0e300;
const TINY: f64 = 1.0e-300;
// Minimax polynomial coefficients for the expm1 primary range.
pub(crate) const Q1: f64 = f64::from_bits(0xBFA1_1111_1111_10F4);
pub(crate) const Q2: f64 = f64::from_bits(0x3F5A_01A0_19FE_5585);
pub(crate) const Q3: f64 = f64::from_bits(0xBF14_CE19_9EAA_DBB7);
pub(crate) const Q4: f64 = f64::from_bits(0x3ED0_CFCA_86E6_5239);
pub(crate) const Q5: f64 = f64::from_bits(0xBE8A_FDB7_6E09_C32D);

// `expm1`'s high-word threshold compares for the branchless lanes,
// rewritten as full-width float compares against the smallest magnitude
// whose high word passes (the low word of the original compare is
// ignored, so the two predicates agree on every input).
pub(crate) const THR_REDUCE: f64 = f64::from_bits(0x3FD6_2E43_0000_0000); // hx > 0x3fd62E42
pub(crate) const THR_15LN2: f64 = f64::from_bits(0x3FF0_A2B2_0000_0000); // hx < 0x3FF0A2B2

/// Adds `k` to the biased exponent in `y`'s high word — fdlibm's
/// `GET_HIGH_WORD`/`SET_HIGH_WORD(high + (k << 20))` scaling idiom,
/// which is *not* the same rounding path as multiplying by 2ᵏ.
#[inline]
fn add_to_exponent(y: f64, k: i32) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((k as i64 as u64) << 52))
}

/// Bit-exact port of the shipped `expm1(x)` = `eˣ − 1`.
///
/// Matches glibc's FMA multiarch `__expm1` result bit for bit;
/// floating-point *flags* (inexact/underflow) and `errno` on overflow
/// are not replicated.
#[inline(always)]
#[allow(clippy::many_single_char_names)]
fn expm1(x: f64) -> f64 {
    let bits = x.to_bits();
    let xsb = ((bits >> 32) as u32) & 0x8000_0000; // sign bit
    let hx = ((bits >> 32) as u32) & 0x7fff_ffff; // high word of |x|
    let mut x = x;

    // Filter out huge and non-finite arguments.
    if hx >= 0x4043_687A {
        // |x| >= 56 ln 2
        if hx >= 0x4086_2E42 {
            // |x| >= 709.78...
            if hx >= 0x7ff0_0000 {
                let low = bits as u32;
                if ((hx & 0xf_ffff) | low) != 0 {
                    return x + x; // NaN
                }
                return if xsb == 0 { x } else { -1.0 }; // expm1(±inf)
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if xsb != 0 {
            return TINY - 1.0; // x < −56 ln 2: expm1(x) = −1
        }
    }

    // Argument reduction: x = k·ln2 + r with |r| <= 0.5 ln 2; `c` is the
    // rounding error of the reduction, folded back in below.
    let c: f64;
    let k: i32;
    if hx > 0x3FD6_2E42 {
        // |x| > 0.5 ln 2
        let (hi, lo);
        if hx < 0x3FF0_A2B2 {
            // and |x| < 1.5 ln 2
            if xsb == 0 {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            } else {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            }
        } else {
            let kf = 0.5f64.copysign(x) + INVLN2 * x;
            k = kf as i32; // C `(int)` truncation
            let t = k as f64;
            hi = t.mul_add(-LN2_HI, x); // fused, as shipped
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3c90_0000 {
        // |x| < 2⁻⁵⁴: expm1(x) rounds to x (fdlibm only adds FP flags).
        return x;
    } else {
        k = 0;
        c = 0.0;
    }

    // Primary range: rational approximation of expm1(x)/x, in the exact
    // fuse-and-evaluate order of the shipped binary.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let p32 = Q3.mul_add(hxs, Q2);
    let p54 = Q5.mul_add(hxs, Q4);
    let h2 = hxs * hxs;
    let p1 = hxs.mul_add(Q1, 1.0);
    let h4 = h2 * h2;
    let r1 = h4.mul_add(p54, h2.mul_add(p32, p1));
    let t = hfx.mul_add(-r1, 3.0);
    let d = t.mul_add(-x, 6.0);
    let e = ((r1 - t) / d) * hxs;
    if k == 0 {
        return x - e.mul_add(x, -hxs); // c is 0
    }
    let e = (e - c).mul_add(x, -c) - hxs;
    if k == -1 {
        return (x - e).mul_add(0.5, -0.5);
    }
    if k == 1 {
        return if x < -0.25 {
            (e - (x + 0.5)) * -2.0
        } else {
            (x - e).mul_add(2.0, 1.0)
        };
    }
    if k <= -2 || k > 56 {
        // Sufficient to return exp(x) − 1.
        let y = 1.0 - (e - x);
        return add_to_exponent(y, k) - 1.0;
    }
    if k < 20 {
        let t = f64::from_bits((0x3ff0_0000_u64 - (0x20_0000_u64 >> k)) << 32); // 1 − 2⁻ᵏ
        let y = t - (e - x);
        return add_to_exponent(y, k);
    }
    let t = f64::from_bits(((0x3ff - i64::from(k)) as u64) << 52); // 2⁻ᵏ
    let y = (x - (e + t)) + 1.0;
    add_to_exponent(y, k)
}

/// Branchless select; compiles to a conditional move / vector blend.
#[inline(always)]
fn sel(c: bool, a: f64, b: f64) -> f64 {
    if c {
        a
    } else {
        b
    }
}

/// Integer twin of [`sel`].
#[inline(always)]
fn seli(c: bool, a: i32, b: i32) -> i32 {
    if c {
        a
    } else {
        b
    }
}

/// Fully branchless `tanh` lane, valid only for `2⁻⁵⁵ <= |x| < 19`.
///
/// Evaluates *every* branch of the fdlibm algorithm — both reduction
/// forms and all four `expm1` tail cases — and picks per value with
/// [`sel`], so each input flows through exactly the operations its
/// scalar branch would have performed and the result stays bit-exact.
/// The domain bound keeps the excluded paths (tiny, saturated, `k > 56`,
/// non-finite) unreachable; [`tanh_slice`] falls back to [`tanh`]
/// outside it. Straight-line code with no data-dependent branches means
/// no `k`-dependent mispredictions and a body the SLP vectorizer can
/// run four lanes wide.
#[inline(always)]
#[allow(clippy::many_single_char_names)]
fn tanh_lane(x: f64) -> f64 {
    let sign_bit = x.to_bits() & 0x8000_0000_0000_0000;
    let ax = f64::from_bits(x.to_bits() & 0x7fff_ffff_ffff_ffff);
    let big = ax >= 1.0;
    let two_ax = 2.0 * ax;
    // expm1 argument: +2|x| when |x| >= 1, else −2|x| (exact sign flip).
    let a = sel(big, two_ax, -two_ax);
    let sbit = if big { 0u64 } else { 1u64 << 63 }; // sign of `a`

    // ---- expm1(a): argument reduction a = k·ln2 + r ----
    let reduce = two_ax >= THR_REDUCE;
    let k1case = two_ax < THR_15LN2;
    // |a| in (0.5 ln2, 1.5 ln2): k = ±1 with exact hi/lo constants.
    let hi1 = a - f64::from_bits(LN2_HI.to_bits() | sbit);
    let lo1 = f64::from_bits(LN2_LO.to_bits() | sbit);
    let k1 = seli(sbit == 0, 1, -1);
    // General case: k = trunc(±0.5 + a/ln2).
    let kf = f64::from_bits(0.5_f64.to_bits() | sbit) + INVLN2 * a;
    let kg = kf as i32; // C `(int)` truncation
    let tg = f64::from(kg);
    let hi_g = tg.mul_add(-LN2_HI, a);
    let lo_g = tg * LN2_LO;
    let kk = seli(k1case, k1, kg);
    let hi = sel(k1case, hi1, hi_g);
    let lo = sel(k1case, lo1, lo_g);
    let xr_r = hi - lo;
    let c_r = (hi - xr_r) - lo;
    let xr = sel(reduce, xr_r, a);
    let c = sel(reduce, c_r, 0.0);
    let k = seli(reduce, kk, 0);

    // ---- primary-range polynomial, identical to [`expm1`] ----
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let p32 = Q3.mul_add(hxs, Q2);
    let p54 = Q5.mul_add(hxs, Q4);
    let h2 = hxs * hxs;
    let p1 = hxs.mul_add(Q1, 1.0);
    let h4 = h2 * h2;
    let r1 = h4.mul_add(p54, h2.mul_add(p32, p1));
    let t = hfx.mul_add(-r1, 3.0);
    let d = t.mul_add(-xr, 6.0);
    let e = ((r1 - t) / d) * hxs;

    // ---- every tail, then one select chain on k ----
    let r_k0 = xr - e.mul_add(xr, -hxs);
    let e2 = (e - c).mul_add(xr, -c) - hxs;
    let r_km1 = (xr - e2).mul_add(0.5, -0.5);
    let r_k1 = sel(
        xr < -0.25,
        (e2 - (xr + 0.5)) * -2.0,
        (xr - e2).mul_add(2.0, 1.0),
    );
    let r_neg = add_to_exponent(1.0 - (e2 - xr), k) - 1.0; // k <= −2
    let ku = k.clamp(0, 63) as u32; // keep the discarded-lane shifts in range
    let t20 = f64::from_bits((0x3ff0_0000_u64 - (0x20_0000_u64 >> ku)) << 32); // 1 − 2⁻ᵏ
    let r_lt20 = add_to_exponent(t20 - (e2 - xr), k);
    let t56 = f64::from_bits(((0x3ff_i64 - i64::from(k)) as u64) << 52); // 2⁻ᵏ
    let r_ge20 = add_to_exponent((xr - (e2 + t56)) + 1.0, k);
    let r_gen = sel(k < 20, r_lt20, r_ge20);
    let em1 = sel(
        k == 0,
        r_k0,
        sel(
            k == 1,
            r_k1,
            sel(k == -1, r_km1, sel(k <= -2, r_neg, r_gen)),
        ),
    );

    // ---- tanh from expm1, then restore the argument's sign ----
    let q = sel(big, 2.0, -em1) / (em1 + 2.0);
    let z = sel(big, 1.0 - q, q);
    f64::from_bits(z.to_bits() ^ sign_bit)
}

/// Applies [`tanh`] to every element in place, eight or four lanes at a
/// time.
///
/// Chunks whose values all fall in `2⁻⁵⁵ <= |x| < 19` run through the
/// branchless `tanh_lane` operations; anything else (zeros, saturated,
/// non-finite — rare in practice) falls back to the scalar [`tanh`].
/// Where the target has AVX-512F and AVX-512DQ, eight-lane blocks run
/// first through `crate::avx512::tanh8`, the same operations on one
/// 512-bit register; the rest (and the whole slice elsewhere) takes
/// four-lane chunks, then a scalar tail. Every path is bit-exact, so the
/// output never depends on how values happen to be grouped.
pub fn tanh_slice(values: &mut [f64]) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512dq"
    ))]
    let values = {
        let mut blocks = values.chunks_exact_mut(8);
        for block in &mut blocks {
            #[expect(
                clippy::expect_used,
                reason = "`chunks_exact_mut(8)` yields 8-lane blocks"
            )]
            let block: &mut [f64; 8] = block.try_into().expect("eight-lane block");
            if !crate::avx512::tanh8(block) {
                for v in block.iter_mut() {
                    *v = tanh(*v);
                }
            }
        }
        blocks.into_remainder()
    };
    let mut chunks = values.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let mut in_domain = true;
        for &v in chunk.iter() {
            let ix = ((v.to_bits() >> 32) as u32) & 0x7fff_ffff;
            in_domain &= (0x3c80_0000..0x4033_0000).contains(&ix);
        }
        if in_domain {
            for v in chunk.iter_mut() {
                *v = tanh_lane(*v);
            }
        } else {
            for v in chunk.iter_mut() {
                *v = tanh(*v);
            }
        }
    }
    for v in chunks.into_remainder() {
        *v = tanh(*v);
    }
}

/// Bit-exact fdlibm `tanh(x)` — a drop-in for [`f64::tanh`] that inlines
/// into hot loops.
///
/// # Examples
///
/// ```
/// let x = 0.731_f64;
/// assert_eq!(anubis_nn::fastmath::tanh(x).to_bits(), x.tanh().to_bits());
/// ```
#[inline]
pub fn tanh(x: f64) -> f64 {
    let jx = (x.to_bits() >> 32) as u32 as i32; // sign-carrying high word
    let ix = jx & 0x7fff_ffff;

    if ix >= 0x7ff0_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }

    let z = if ix < 0x4036_0000 {
        // |x| < 22
        if ix < 0x3c80_0000 {
            // |x| < 2⁻⁵⁵: tanh(x) rounds to x·(1+x).
            return x * (1.0 + x);
        }
        // One expm1 + one division cover both halves of the range; the
        // selects compile to conditional moves instead of a data-dependent
        // branch. Each select picks exactly the operand fdlibm's
        // corresponding branch would use, so results stay bit-identical.
        let big = ix >= 0x3ff0_0000; // |x| >= 1
        let two_ax = 2.0 * x.abs();
        let t = expm1(if big { two_ax } else { -two_ax });
        let q = if big { 2.0 } else { -t } / (t + 2.0);
        if big {
            1.0 - q
        } else {
            q
        }
    } else {
        1.0 - TINY // |x| >= 22: rounds to 1
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}
