//! Analytic performance kernels.
//!
//! Closed-form efficiency models mapping operation parameters to achievable
//! fractions of peak hardware rates. The constants are tuned to typical
//! published numbers (cuBLAS GEMM efficiency, NCCL bus-bandwidth curves)
//! so that simulated measurements sit in realistic ranges; the validation
//! pipeline only depends on their *relative* behaviour.

/// Fraction of peak FLOPS a dense GEMM of square dimension `n` achieves.
///
/// Small GEMMs are launch/memory bound; large ones approach peak. The curve
/// is `n³ / (n³ + n_half³)` with `n_half = 1024`, giving ~50% efficiency at
/// n = 1024 and >97% at n = 4096.
pub fn gemm_efficiency(n: usize) -> f64 {
    let n = n as f64;
    let n_half = 1024.0f64;
    let cubed = n * n * n;
    let half_cubed = n_half * n_half * n_half;
    0.98 * cubed / (cubed + half_cubed)
}

/// Fraction of peak bandwidth a transfer of `bytes` achieves.
///
/// Follows the classic half-saturation model: tiny messages pay latency,
/// large ones saturate the pipe. `half_saturation_bytes` is the message size
/// achieving 50% of peak.
pub fn bandwidth_efficiency(bytes: u64, half_saturation_bytes: u64) -> f64 {
    let b = bytes as f64;
    let h = half_saturation_bytes as f64;
    0.97 * b / (b + h)
}

/// Ring all-reduce *algorithm* bandwidth factor for `n` ranks.
///
/// A ring moves `2(n−1)/n` times the data per rank; bus bandwidth, the
/// NCCL-style metric, normalizes by that factor, so the achievable bus
/// bandwidth is flat in `n` up to protocol overheads that grow mildly.
pub fn ring_allreduce_factor(ranks: usize) -> f64 {
    if ranks <= 1 {
        return 1.0;
    }
    // Protocol overhead: ~1.5% per additional rank, capped.
    let overhead = 1.0 - 0.015 * ((ranks - 2) as f64).min(10.0);
    overhead.max(0.8)
}

/// Overlapped execution time for a compute phase and a communication phase
/// with overlap fraction `overlap` in `[0, 1]`.
///
/// `overlap = 1` means perfect overlap, `max(c, m)`; `overlap = 0` means
/// fully serialized, `c + m`.
pub fn overlapped_time_s(compute_s: f64, comm_s: f64, overlap: f64) -> f64 {
    let overlap = overlap.clamp(0.0, 1.0);
    let serial = compute_s + comm_s;
    let parallel = compute_s.max(comm_s);
    serial + (parallel - serial) * overlap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_efficiency_grows_with_size() {
        assert!(gemm_efficiency(256) < gemm_efficiency(1024));
        assert!(gemm_efficiency(1024) < gemm_efficiency(8192));
        assert!((gemm_efficiency(1024) - 0.49).abs() < 0.01);
        assert!(gemm_efficiency(8192) > 0.95);
        assert!(gemm_efficiency(16384) <= 0.98);
    }

    #[test]
    fn bandwidth_saturates_with_message_size() {
        let half = 1 << 20;
        assert!((bandwidth_efficiency(half, half) - 0.485).abs() < 0.01);
        assert!(bandwidth_efficiency(1 << 30, half) > 0.95);
        assert!(bandwidth_efficiency(1024, half) < 0.01);
    }

    #[test]
    fn ring_factor_degrades_gently() {
        assert_eq!(ring_allreduce_factor(1), 1.0);
        assert!(ring_allreduce_factor(2) > ring_allreduce_factor(8));
        assert!(ring_allreduce_factor(64) >= 0.8);
    }

    #[test]
    fn overlap_interpolates_between_serial_and_parallel() {
        let serial = overlapped_time_s(2.0, 3.0, 0.0);
        let parallel = overlapped_time_s(2.0, 3.0, 1.0);
        let half = overlapped_time_s(2.0, 3.0, 0.5);
        assert_eq!(serial, 5.0);
        assert_eq!(parallel, 3.0);
        assert_eq!(half, 4.0);
    }
}
