//! Sequential-vs-parallel determinism for the experiment harness: every
//! parallelized hot path must render byte-identical output at any worker
//! count. The whole check lives in a single `#[test]` (its own binary) so
//! the `ANUBIS_THREADS` mutations can never race another test.

use anubis_bench::experiments::{fig9, table3, table6};

#[test]
fn rendered_experiment_output_is_identical_across_thread_counts() {
    // table3 drives Cox-Time training + evaluation through an explicit
    // thread count, which fans out the Breslow baseline buckets.
    let mut cfg = table3::Table3Config::quick();
    cfg.coxtime.threads = 1;
    let table3_seq = table3::run(&cfg).to_string();
    cfg.coxtime.threads = 8;
    let table3_par = table3::run(&cfg).to_string();
    assert_eq!(
        table3_seq, table3_par,
        "table3 must render identically at 1 and 8 training workers"
    );

    // table6 (benchmark fan-out) and fig9 (per-node training loops)
    // resolve their worker count from `ANUBIS_THREADS`.
    let run_env_resolved = || {
        let t6 = table6::run(&table6::Table6Config::quick()).to_string();
        let f9 = fig9::run(&fig9::Fig9Config::quick()).to_string();
        (t6, f9)
    };
    std::env::set_var("ANUBIS_THREADS", "1");
    let (table6_seq, fig9_seq) = run_env_resolved();
    std::env::set_var("ANUBIS_THREADS", "8");
    let (table6_par, fig9_par) = run_env_resolved();
    std::env::remove_var("ANUBIS_THREADS");
    assert_eq!(
        table6_seq, table6_par,
        "table6 must render identically at 1 and 8 workers"
    );
    assert_eq!(
        fig9_seq, fig9_par,
        "fig9 must render identically at 1 and 8 workers"
    );
}
