//! 512-bit twins of the two hottest network kernels, compiled only when
//! the target enables AVX-512F and AVX-512DQ (as `-C target-cpu=native`
//! does on such a host); every other target runs the portable code.
//!
//! Both twins perform, lane by lane, the exact IEEE operation sequence of
//! their portable counterparts, so every result is bit-identical:
//!
//! * [`add_scaled`] is [`crate::mlp`]'s `Lanes::add_scaled` (one rounded
//!   multiply, one rounded add per lane);
//! * [`tanh8`] is [`crate::fastmath`]'s branchless `tanh_lane` on eight
//!   lanes: the same fdlibm operations in the same order, fused exactly
//!   where the scalar port fuses, with mask blends in place of its
//!   selects.
//!
//! They exist because LLVM's `prefer-256-bit` tuning for these CPUs splits
//! the portable code's 8-lane arrays into two 256-bit halves; explicit
//! 512-bit intrinsics keep the full width.
//!
//! Safety: the intrinsics are `#[target_feature]` functions, callable
//! only where AVX-512F and AVX-512DQ are present. This module is compiled
//! only when the target enables both, so every CPU the binary may run on
//! has them; the `unsafe` blocks below rely on that and on nothing else.

use std::arch::x86_64::{
    __m512d, __m512i, _mm512_add_epi64, _mm512_add_pd, _mm512_and_pd, _mm512_castpd_si512,
    _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_cmpeq_epi64_mask, _mm512_cmpge_epi64_mask,
    _mm512_cmple_epi64_mask, _mm512_cmplt_epi64_mask, _mm512_cvtepi64_pd, _mm512_cvttpd_epi64,
    _mm512_div_pd, _mm512_fmadd_pd, _mm512_fmsub_pd, _mm512_fnmadd_pd, _mm512_mask_blend_epi64,
    _mm512_mask_blend_pd, _mm512_maskz_mov_epi64, _mm512_maskz_mov_pd, _mm512_max_epi64,
    _mm512_min_epi64, _mm512_mul_pd, _mm512_or_pd, _mm512_set1_epi64, _mm512_set1_pd,
    _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srlv_epi64, _mm512_sub_epi64, _mm512_sub_pd,
    _mm512_xor_pd, _CMP_GE_OQ, _CMP_LT_OQ,
};

use crate::fastmath::{INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, THR_15LN2, THR_REDUCE};

/// Eight lanes as one register.
#[inline(always)]
fn load(lanes: [f64; 8]) -> __m512d {
    // SAFETY: `[f64; 8]` and `__m512d` are both 64 bytes of eight `f64`
    // lanes in the same order, and every bit pattern is valid for both.
    unsafe { std::mem::transmute::<[f64; 8], __m512d>(lanes) }
}

/// One register as eight lanes.
#[inline(always)]
fn store(v: __m512d) -> [f64; 8] {
    // SAFETY: as in `load`, the inverse reinterpretation.
    unsafe { std::mem::transmute::<__m512d, [f64; 8]>(v) }
}

#[inline(always)]
fn splat(x: f64) -> __m512d {
    // SAFETY: AVX-512F is enabled (module header).
    unsafe { _mm512_set1_pd(x) }
}

#[inline(always)]
fn splat_i(x: i64) -> __m512i {
    // SAFETY: AVX-512F is enabled (module header).
    unsafe { _mm512_set1_epi64(x) }
}

/// `acc[j] + w[j]·x` per lane: the multiply and the add each round once,
/// exactly the scalar `acc += w * x`.
#[inline(always)]
pub(crate) fn add_scaled(acc: [f64; 8], w: [f64; 8], x: f64) -> [f64; 8] {
    // SAFETY: AVX-512F is enabled (module header).
    store(unsafe { _mm512_add_pd(load(acc), _mm512_mul_pd(load(w), splat(x))) })
}

/// fdlibm's `SET_HIGH_WORD(high + (k << 20))` on every lane: adds `k` to
/// the biased exponent, as `fastmath::add_to_exponent` does.
#[inline(always)]
fn add_to_exponent(y: __m512d, k: __m512i) -> __m512d {
    // SAFETY: AVX-512F is enabled (module header).
    unsafe {
        _mm512_castsi512_pd(_mm512_add_epi64(
            _mm512_castpd_si512(y),
            _mm512_slli_epi64::<52>(k),
        ))
    }
}

/// Applies `tanh` to eight values in place if all of them lie in the
/// branchless domain `2⁻⁵⁵ <= |x| < 19`, returning whether they did;
/// otherwise leaves them untouched for the scalar fallback.
///
/// Line for line the operations of `fastmath::tanh_lane`; where the
/// intrinsic form differs from the scalar one, a comment names the
/// scalar expression. Negating an operand
/// of a fused multiply-add (`fnmadd`, `fmsub`) negates exactly, so each
/// fused step rounds the same exact value as the scalar `mul_add`.
#[inline(always)]
#[allow(clippy::many_single_char_names)]
pub(crate) fn tanh8(values: &mut [f64; 8]) -> bool {
    // SAFETY: AVX-512F and AVX-512DQ are enabled (module header).
    unsafe {
        let x = load(*values);
        let sign = _mm512_castsi512_pd(splat_i(i64::MIN)); // 0x8000…
        let ax = _mm512_and_pd(x, _mm512_castsi512_pd(splat_i(i64::MAX)));
        // Domain check on |x|'s bits: the high word in [0x3c800000, 0x40330000).
        let ax_bits = _mm512_castpd_si512(ax);
        let in_domain = _mm512_cmpge_epi64_mask(ax_bits, splat_i(0x3c80_0000_0000_0000))
            & _mm512_cmplt_epi64_mask(ax_bits, splat_i(0x4033_0000_0000_0000));
        if in_domain != 0xff {
            return false;
        }
        let one = splat(1.0);
        let sign_bit = _mm512_and_pd(x, sign);
        let big = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ax, one);
        let two_ax = _mm512_mul_pd(splat(2.0), ax);
        // a = sel(big, 2|x|, −2|x|); sbit = the sign of a.
        let a = _mm512_mask_blend_pd(big, _mm512_xor_pd(two_ax, sign), two_ax);
        let sbit = _mm512_maskz_mov_pd(!big, sign);

        // ---- expm1(a): argument reduction a = k·ln2 + r ----
        let reduce = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(two_ax, splat(THR_REDUCE));
        let k1case = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(two_ax, splat(THR_15LN2));
        let hi1 = _mm512_sub_pd(a, _mm512_or_pd(splat(LN2_HI), sbit));
        let lo1 = _mm512_or_pd(splat(LN2_LO), sbit);
        let k1 = _mm512_mask_blend_epi64(big, splat_i(-1), splat_i(1));
        // kf = (±0.5) + INVLN2·a, truncated; |kf| < 56 so i64 truncation
        // gives the scalar's i32 value.
        let kf = _mm512_add_pd(
            _mm512_or_pd(splat(0.5), sbit),
            _mm512_mul_pd(splat(INVLN2), a),
        );
        let kg = _mm512_cvttpd_epi64(kf);
        let tg = _mm512_cvtepi64_pd(kg);
        let hi_g = _mm512_fmadd_pd(tg, splat(-LN2_HI), a); // tg.mul_add(−LN2_HI, a)
        let lo_g = _mm512_mul_pd(tg, splat(LN2_LO));
        let kk = _mm512_mask_blend_epi64(k1case, kg, k1);
        let hi = _mm512_mask_blend_pd(k1case, hi_g, hi1);
        let lo = _mm512_mask_blend_pd(k1case, lo_g, lo1);
        let xr_r = _mm512_sub_pd(hi, lo);
        let c_r = _mm512_sub_pd(_mm512_sub_pd(hi, xr_r), lo);
        let xr = _mm512_mask_blend_pd(reduce, a, xr_r);
        let c = _mm512_maskz_mov_pd(reduce, c_r);
        let k = _mm512_maskz_mov_epi64(reduce, kk);

        // ---- primary-range polynomial ----
        let hfx = _mm512_mul_pd(splat(0.5), xr);
        let hxs = _mm512_mul_pd(xr, hfx);
        let p32 = _mm512_fmadd_pd(splat(Q3), hxs, splat(Q2));
        let p54 = _mm512_fmadd_pd(splat(Q5), hxs, splat(Q4));
        let h2 = _mm512_mul_pd(hxs, hxs);
        let p1 = _mm512_fmadd_pd(hxs, splat(Q1), one);
        let h4 = _mm512_mul_pd(h2, h2);
        let r1 = _mm512_fmadd_pd(h4, p54, _mm512_fmadd_pd(h2, p32, p1));
        let t = _mm512_fnmadd_pd(hfx, r1, splat(3.0)); // hfx.mul_add(−r1, 3)
        let d = _mm512_fnmadd_pd(t, xr, splat(6.0)); // t.mul_add(−xr, 6)
        let e = _mm512_mul_pd(_mm512_div_pd(_mm512_sub_pd(r1, t), d), hxs);

        // ---- every tail, then one blend chain on k ----
        let r_k0 = _mm512_sub_pd(xr, _mm512_fmsub_pd(e, xr, hxs)); // xr − e.mul_add(xr, −hxs)
        let e2 = _mm512_sub_pd(_mm512_fmsub_pd(_mm512_sub_pd(e, c), xr, c), hxs);
        let xr_e2 = _mm512_sub_pd(xr, e2);
        let r_km1 = _mm512_fmadd_pd(xr_e2, splat(0.5), splat(-0.5));
        let r_k1 = _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(xr, splat(-0.25)),
            _mm512_fmadd_pd(xr_e2, splat(2.0), one),
            _mm512_mul_pd(
                _mm512_sub_pd(e2, _mm512_add_pd(xr, splat(0.5))),
                splat(-2.0),
            ),
        );
        let e2_xr = _mm512_sub_pd(e2, xr);
        let r_neg = _mm512_sub_pd(add_to_exponent(_mm512_sub_pd(one, e2_xr), k), one);
        let ku = _mm512_min_epi64(_mm512_max_epi64(k, _mm512_setzero_si512()), splat_i(63));
        let t20 = _mm512_castsi512_pd(_mm512_slli_epi64::<32>(_mm512_sub_epi64(
            splat_i(0x3ff0_0000),
            _mm512_srlv_epi64(splat_i(0x20_0000), ku),
        ))); // 1 − 2⁻ᵏ
        let r_lt20 = add_to_exponent(_mm512_sub_pd(t20, e2_xr), k);
        let t56 = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_sub_epi64(splat_i(0x3ff), k))); // 2⁻ᵏ
        let r_ge20 = add_to_exponent(
            _mm512_add_pd(_mm512_sub_pd(xr, _mm512_add_pd(e2, t56)), one),
            k,
        );
        // The k cases are disjoint, so blending innermost-first matches the
        // scalar select chain.
        let mut em1 = _mm512_mask_blend_pd(_mm512_cmplt_epi64_mask(k, splat_i(20)), r_ge20, r_lt20);
        em1 = _mm512_mask_blend_pd(_mm512_cmple_epi64_mask(k, splat_i(-2)), em1, r_neg);
        em1 = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, splat_i(-1)), em1, r_km1);
        em1 = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, splat_i(1)), em1, r_k1);
        em1 = _mm512_mask_blend_pd(
            _mm512_cmpeq_epi64_mask(k, _mm512_setzero_si512()),
            em1,
            r_k0,
        );

        // ---- tanh from expm1, then restore the argument's sign ----
        let two = splat(2.0);
        let q = _mm512_div_pd(
            _mm512_mask_blend_pd(big, _mm512_xor_pd(em1, sign), two),
            _mm512_add_pd(em1, two),
        );
        let z = _mm512_mask_blend_pd(big, q, _mm512_sub_pd(one, q));
        *values = store(_mm512_xor_pd(z, sign_bit));
        true
    }
}
