//! Exact deltas of the global `ipdb-obs` counters the executors feed.
//!
//! The counters are process-wide, so an exact-delta assertion only holds
//! while no other executor runs in the process. These tests therefore
//! live in an integration-test binary of their own (cargo runs test
//! binaries one after another) and take one lock each, so they never
//! overlap even with each other — under `IPDB_METRICS=1` as well, where
//! every default-configured execution records metrics.

use std::sync::{Mutex, PoisonError};

use ipdb_engine::morsel::run_instance;
use ipdb_engine::{Engine, ExecConfig, Input, OpReport, RunOpts};
use ipdb_rel::{instance, Instance, Query};
use ipdb_tables::CTable;

static SERIAL: Mutex<()> = Mutex::new(());

fn total_pruned(r: &OpReport) -> u64 {
    r.rows_pruned + r.children.iter().map(total_pruned).sum::<u64>()
}

#[test]
fn metrics_flow_into_registry_when_config_asks() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Per-config opt-in, not the global flag: a metrics:true config
    // records stage/morsel counters even with the flag off. A bare `V`
    // over 16 rows in morsels of 4 runs two stages (leaf conversion and
    // row materialization) of four morsels each.
    let i = Instance::from_rows(1, (0..16i64).map(|x| [x])).unwrap();
    let before = ipdb_obs::counter("exec.stages").get();
    let before_morsels = ipdb_obs::counter("exec.morsels").get();
    let cfg = ExecConfig {
        threads: 1,
        morsel_rows: 4,
        metrics: true,
    };
    let (out, _) = run_instance(
        Input::Single(&i),
        &Query::Input,
        &RunOpts::with(cfg.clone()),
    )
    .unwrap();
    assert_eq!(out, i);
    assert_eq!(ipdb_obs::counter("exec.stages").get(), before + 2);
    assert_eq!(ipdb_obs::counter("exec.morsels").get(), before_morsels + 8);
    // And a metrics:false config records nothing.
    let cfg_off = ExecConfig {
        metrics: false,
        ..cfg
    };
    run_instance(Input::Single(&i), &Query::Input, &RunOpts::with(cfg_off)).unwrap();
    assert_eq!(ipdb_obs::counter("exec.stages").get(), before + 2);
    assert_eq!(ipdb_obs::counter("exec.morsels").get(), before_morsels + 8);
}

#[test]
fn plain_ctable_execution_counts_pruned_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // V − {[2]}: row [2]'s composed condition ¬(2=2) folds to false and
    // is pruned. Plain execution with metrics on must add to
    // `prune.rows` exactly what EXPLAIN ANALYZE reports as pruned.
    let t = CTable::from_instance(&instance![[1], [2]]);
    let stmt = Engine::new().prepare_text("V diff {(2)}", 1).unwrap();
    let (_, report) = stmt
        .run(
            &t,
            &RunOpts {
                exec: ExecConfig {
                    metrics: false,
                    ..ExecConfig::serial()
                },
                analyze: true,
            },
        )
        .unwrap();
    let expected = total_pruned(&report.expect("analyze was requested").root);
    assert!(expected >= 1, "the false-condition row must be pruned");

    let plain = stmt.execute(&t).unwrap();
    let counter = ipdb_obs::counter("prune.rows");
    let before = counter.get();
    let metrics_on = ExecConfig {
        metrics: true,
        ..ExecConfig::serial()
    };
    let (out, report) = stmt.run(&t, &RunOpts::with(metrics_on)).unwrap();
    assert!(report.is_none());
    assert_eq!(out, plain);
    assert_eq!(counter.get(), before + expected);

    // Metrics off: plain execution records nothing.
    let metrics_off = ExecConfig {
        metrics: false,
        ..ExecConfig::serial()
    };
    stmt.run(&t, &RunOpts::with(metrics_off)).unwrap();
    assert_eq!(counter.get(), before + expected);
}
