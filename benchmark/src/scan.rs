//! The 100k-row probe join (`ENGINE_PARALLEL_JOIN`, R 1024 ⋈ S 100k) on
//! the columnar morsel executor, timed as a layer phase of the
//! `serve_hot` traced run.
//!
//! It is not a workload of its own: one thread streaming a 100k-row
//! relation is the operation most exposed to a shared host, and its
//! runs spread past any bound the benchmark may set (see `README.md`,
//! "Noise on a shared host"). Its layers are still measured here:
//! serial execution (`morsel.serial_us_p50`), execution at `nproc`
//! threads (`exec.query_us_p50`, `morsel.fanout_speedup`) and serial leaf
//! conversion (`columnar.scan_leaf_*`). The generators have no random
//! part, so the seed does not change this phase. Every answer is
//! compared with the row-at-a-time `Query::eval_catalog` answer of the
//! optimized query.

use std::time::{Duration, Instant};

use crate::adapter::{self, Failure, Instance, ScanJoin};
use crate::harness::{p_us, ratio, timed, Miss};
use crate::trace::{Trace, Tracer};

/// Rounds the phase runs at least, whatever its time budget.
const MIN_ROUNDS: u64 = 5;

/// Runs rounds of serial execution, execution at `nproc` threads and
/// serial leaf conversion until `budget_s` has passed (at least
/// `MIN_ROUNDS`), each under its own span, and returns the layer
/// metrics; a line on what ran goes to `log`. A wrong answer is a
/// [`Miss::Wrong`].
pub fn layers(
    budget_s: f64,
    log: &mut Vec<String>,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<Vec<(&'static str, f64)>, Miss> {
    let threads = adapter::nproc();
    let join = ScanJoin::new().map_err(Miss::Failed)?;
    let (reference, check_ns) = timed(|| join.reference());
    let reference = reference.map_err(Miss::Failed)?;
    let check = |ans: Result<Instance, Failure>, how: &str| {
        let ans = ans.map_err(Miss::Failed)?;
        if ans != reference {
            return Err(Miss::Wrong(format!(
                "scan join ({how}): {} answer rows, reference {}",
                ans.len(),
                reference.len()
            )));
        }
        Ok(())
    };
    // One untimed execution of each kind, so that the first round does
    // not pay for the morsel pool's start.
    check(join.execute(1), "serial")?;
    check(join.execute(threads), "nproc threads")?;

    let mut t = Tracer::new(true, epoch, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        let (ans, _) = t.span("morsel.serial", round, |_| join.execute(1));
        check(ans, "serial")?;
        let (ans, _) = t.span("exec.query", round, |_| join.execute(threads));
        check(ans, "nproc threads")?;
        t.span("columnar.scan_leaf_convert", round, |_| join.leaf_convert())
            .0
            .map_err(Miss::Failed)?;
        round += 1;
    }
    trace.merge([t]);
    log.push(format!(
        "scan join phase: R {} x S {} rows, {round} rounds of serial, {threads}-thread and \
         leaf-conversion spans, {} answer rows; reference (row-at-a-time eval_catalog) in {:.3} s",
        adapter::SCAN_BUILD_ROWS,
        adapter::SCAN_PROBE_ROWS,
        reference.len(),
        check_ns as f64 / 1e9
    ));
    let query = p_us(&trace.durations("exec.query"), 0.5);
    let serial = p_us(&trace.durations("morsel.serial"), 0.5);
    let leaf = p_us(&trace.durations("columnar.scan_leaf_convert"), 0.5);
    Ok(vec![
        ("exec.query_us_p50", query),
        ("morsel.serial_us_p50", serial),
        ("morsel.fanout_speedup", ratio(serial, query)),
        ("columnar.scan_leaf_convert_us_p50", leaf),
        ("columnar.scan_leaf_share", ratio(leaf, serial)),
    ])
}
