//! `ctable_join`: the c-table algebra (Thm 4) on `ENGINE_PRODUCT_HEAVY`
//! over 64-row c-tables with variable join keys, rotating through 128
//! seeded tables, `nproc` callers.
//!
//! The loop has `nproc` callers, not one: the c-table algebra allocates
//! heavily, and with one caller the speed of the one core it ran on
//! moved whole runs by ~25% on a shared host (ten runs spread by up to
//! 0.24); two callers average the two cores (0.13–0.15).
//!
//! Every answer is compared with the unoptimized plan's answer
//! (`execute_naive`), computed once per table before timing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{self, CTable, CtableJoin, Failure, ENGINE_PRODUCT_HEAVY};
use crate::harness::{
    closed_loop, p_us, prepare_layers, ratio, reset_peak_rss, timed, timed_setups, Miss, Report,
};
use crate::trace::{Trace, Tracer};
use crate::Args;

/// Distinct tables the loop rotates through: enough that the mean cost
/// of a run hardly depends on the seed.
const INPUTS: u64 = 128;
/// Parse and plan + optimize repetitions in the traced run.
const PREPARE_REPS: u64 = 200;

fn wrong(k: usize, got: &CTable, want: &CTable) -> Miss {
    Miss::Wrong(format!(
        "table {k}: {} answer rows, naive plan {} (or different conditions)",
        got.rows().len(),
        want.rows().len()
    ))
}

pub fn run(args: &Args, trace: &mut Trace, epoch: Instant) -> Result<Report, Failure> {
    let mut report = Report::new();
    let callers = adapter::nproc();
    // References first, on inputs of their own, so that the peak resident
    // set can be reset before the set-up and the timed window.
    let (refs, check_ns) = timed(|| {
        let cj = CtableJoin::new(args.seed, INPUTS)?;
        (0..cj.inputs())
            .map(|k| cj.reference(k))
            .collect::<Result<Vec<_>, _>>()
    });
    let refs = refs?;
    report.log.push(format!(
        "{INPUTS} c-tables of {} rows (seeds {}..{}), {callers} callers; references (execute_naive) \
         in {:.3} s",
        adapter::CT_ROWS,
        args.seed,
        args.seed.wrapping_add(INPUTS - 1),
        check_ns as f64 / 1e9
    ));
    report.log.push(reset_peak_rss());
    // Set-up: the tables, the prepared query, and a warm-up answer of
    // every table (all of them, so its cost does not hang on which few
    // tables a seed draws). Warm-up answers are dropped unchecked: the
    // timed loop checks every answer of every table.
    let build = || -> Result<_, Failure> {
        let cj = CtableJoin::new(args.seed, INPUTS)?;
        for k in 0..cj.inputs() {
            drop(cj.run(k)?);
        }
        Ok(cj)
    };
    let (cj, setup_s) = if args.trace {
        (build()?, 0.0)
    } else {
        timed_setups(build)?
    };
    let shapes: Mutex<BTreeMap<usize, (usize, usize)>> = Mutex::new(BTreeMap::new());
    let op = |t: &mut Tracer, seq: u64| {
        let k = (seq % INPUTS) as usize;
        let ((out, ns), _) = t.span("tables.closure", seq, |_| timed(|| cj.run(k)));
        let out = out.map_err(Miss::Failed)?;
        if out != refs[k] {
            return Err(wrong(k, &out, &refs[k]));
        }
        if args.trace {
            shapes
                .lock()
                .expect("shape map lock poisoned")
                .entry(k)
                .or_insert_with(|| adapter::table_shape(&out));
        }
        Ok(ns)
    };

    if !args.trace {
        let w = closed_loop(callers, args.seconds, 0..u64::MAX, None, op);
        report.count(&w);
        report.end_to_end(&w, setup_s);
        return Ok(report);
    }

    let third = args.seconds / 3.0;
    let untraced = closed_loop(callers, third, 0..u64::MAX, None, op);
    let traced = closed_loop(
        callers,
        third,
        untraced.next_seq..u64::MAX,
        Some((&mut *trace, epoch)),
        op,
    );
    report.count(&untraced);
    report.count(&traced);
    if !report.correct {
        return Ok(report);
    }
    let mut layers = prepare_layers(
        ENGINE_PRODUCT_HEAVY,
        &CtableJoin::schema(),
        PREPARE_REPS,
        trace,
        epoch,
    )?;
    // Means over the distinct tables, each counted once: exact per seed.
    let shapes = shapes.into_inner().expect("shape map lock poisoned");
    let n = shapes.len() as f64;
    let rows: usize = shapes.values().map(|s| s.0).sum();
    let cond: usize = shapes.values().map(|s| s.1).sum();
    layers.extend([
        (
            "tables.closure_us_p50",
            p_us(&trace.durations("tables.closure"), 0.5),
        ),
        ("tables.rows_out", ratio(rows as f64, n)),
        ("tables.cond_size", ratio(cond as f64, n)),
    ]);
    report.per_layer(layers, &untraced, &traced);
    Ok(report)
}
