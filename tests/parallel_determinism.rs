//! Every `repro <id> --quick` output (and `fig9 --quick --centroid-mean`)
//! must print the same bytes at `ANUBIS_THREADS` 1, 2 and 8, and those
//! bytes are pinned by digest in `tests/repro_digests.expected` (see
//! `tests/digests/mod.rs`). This covers each parallelized hot path the
//! experiments drive: table3's Cox-Time training, table6's benchmark
//! fan-out, fig9's per-node training loops and fig8's Selector fit, CELF
//! selection and cluster simulation.

mod common;
mod digests;

#[test]
fn rendered_experiment_output_is_identical_across_thread_counts() {
    digests::check(digests::Owner::Quick);
}
