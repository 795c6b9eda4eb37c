//! Node-parallel benchmark execution.
//!
//! Validation runs the same benchmark on every node simultaneously in
//! production (the nodes are independent machines); this module gives the
//! simulator the same shape by fanning single-node benchmarks out across
//! worker threads via the shared deterministic executor
//! ([`anubis_parallel`]).

use crate::id::{BenchmarkId, Phase};
use crate::runner::{run_benchmark, RunData, SuiteError};
use anubis_hwsim::NodeSim;

/// Nodes per executor chunk: small enough to balance uneven per-node
/// simulation cost, fixed so the decomposition never depends on the
/// thread count.
const NODES_PER_CHUNK: usize = 4;

/// Runs a set of **single-node** benchmarks over all nodes, parallelizing
/// across nodes.
///
/// Semantically identical to iterating [`run_benchmark`] (each node owns
/// its RNG, so results match the sequential runner exactly); only
/// wall-clock time changes. Multi-node benchmarks in `set` are rejected —
/// they need the shared fabric and belong to the sequential phase-2 path.
///
/// `threads` caps the worker count (`0` = auto, see
/// [`anubis_parallel::auto_threads`]).
pub fn run_set_parallel(
    set: &[BenchmarkId],
    nodes: &mut [NodeSim],
    threads: usize,
) -> Result<RunData, SuiteError> {
    if nodes.is_empty() {
        return Err(SuiteError::EmptyNodeSet);
    }
    if set.is_empty() {
        return Ok(RunData::default());
    }
    if let Some(&bad) = set.iter().find(|b| b.spec().phase != Phase::SingleNode) {
        return Err(SuiteError::PhaseMismatch(bad));
    }
    // Orchestration-level span only: the per-node work below runs through
    // the executor, where recording is suppressed at any thread count.
    let _span = anubis_obs::span!("runner.run_set_parallel");
    anubis_obs::counter!(
        "runner.parallel_node_runs",
        (nodes.len() * set.len()) as i64
    );
    // Each worker owns a disjoint node chunk and returns one flat
    // node-major row buffer (node 0's full set, then node 1's, …): a
    // single allocation per chunk instead of one per node. Per-chunk
    // results come back in chunk order, so assembly below is in fleet
    // order without sorting.
    type ChunkResult = Result<Vec<(BenchmarkId, anubis_metrics::Sample)>, SuiteError>;
    let per_chunk: Vec<ChunkResult> =
        anubis_parallel::map_chunks_mut(nodes, NODES_PER_CHUNK, threads, |_, chunk| {
            let mut rows = Vec::with_capacity(chunk.len() * set.len());
            for node in chunk.iter_mut() {
                for &bench in set {
                    rows.push((bench, run_benchmark(bench, node)?));
                }
            }
            Ok(rows)
        });

    // The rows arrive node-major in fleet order: each node's id repeats
    // once per benchmark of the set.
    let mut data = RunData::default();
    let mut ids = nodes
        .iter()
        .flat_map(|node| std::iter::repeat_n(node.id(), set.len()));
    for chunk in per_chunk {
        for ((bench, sample), id) in chunk?.into_iter().zip(&mut ids) {
            data.results.entry(bench).or_default().push((id, sample));
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_set;
    use anubis_hwsim::{NodeId, NodeSpec};

    fn fleet(n: u32) -> Vec<NodeSim> {
        (0..n)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 33))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let set = [
            BenchmarkId::GpuGemmFp16,
            BenchmarkId::CpuLatency,
            BenchmarkId::DiskSeqRead,
        ];
        let members: Vec<usize> = (0..12).collect();
        let mut sequential_nodes = fleet(12);
        let sequential = run_set(&set, &mut sequential_nodes, &members, None).unwrap();
        let mut parallel_nodes = fleet(12);
        let parallel = run_set_parallel(&set, &mut parallel_nodes, 4).unwrap();
        for bench in set {
            let a = sequential.samples_for(bench).unwrap();
            let b = parallel.samples_for(bench).unwrap();
            assert_eq!(a.len(), b.len());
            for ((id_a, s_a), (id_b, s_b)) in a.iter().zip(b) {
                assert_eq!(id_a, id_b);
                assert_eq!(s_a.values(), s_b.values(), "{bench}: node {id_a} diverged");
            }
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let set = [BenchmarkId::GpuGemmFp16, BenchmarkId::GpuCopyBandwidth];
        let mut reference_nodes = fleet(9);
        let reference = run_set_parallel(&set, &mut reference_nodes, 1).unwrap();
        for threads in [2usize, 8] {
            let mut nodes = fleet(9);
            let data = run_set_parallel(&set, &mut nodes, threads).unwrap();
            for bench in set {
                let a = reference.samples_for(bench).unwrap();
                let b = data.samples_for(bench).unwrap();
                assert_eq!(a, b, "{bench} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn rejects_multi_node_benchmarks() {
        let mut nodes = fleet(2);
        let err = run_set_parallel(&[BenchmarkId::AllPairRdma], &mut nodes, 2);
        assert!(matches!(
            err,
            Err(SuiteError::PhaseMismatch(BenchmarkId::AllPairRdma))
        ));
    }

    #[test]
    fn rejects_empty_fleet() {
        let mut nodes: Vec<NodeSim> = Vec::new();
        assert!(matches!(
            run_set_parallel(&[BenchmarkId::CpuLatency], &mut nodes, 2),
            Err(SuiteError::EmptyNodeSet)
        ));
    }

    #[test]
    fn worker_count_edge_cases() {
        let set = [BenchmarkId::CpuLatency];
        for threads in [0usize, 1, 3, 100] {
            let mut nodes = fleet(5);
            let data = run_set_parallel(&set, &mut nodes, threads).unwrap();
            assert_eq!(data.samples_for(BenchmarkId::CpuLatency).unwrap().len(), 5);
        }
    }
}
