//! `pc_exact`: exact answer distributions (Thm 9) of the 3-relation
//! chain join over pc-catalogs with 16 shared binary variables, rotating
//! through 32 seeded catalogs, one caller.
//!
//! Every distribution is compared with an independent exact path: the
//! unoptimized plan's closure followed by Shannon expansion instead of
//! BDD + WMC, computed once per catalog before timing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{self, BddStats, Dist, Failure, PcExact, ENGINE_CHAIN_NAIVE};
use crate::harness::{
    closed_loop, p_us, prepare_layers, ratio, reset_peak_rss, timed, timed_setups, Miss, Report,
};
use crate::trace::{Trace, Tracer};
use crate::Args;

/// Distinct catalogs the loop rotates through: enough that the mean cost
/// of a run hardly depends on the seed.
const INPUTS: u64 = 32;
/// Parse and plan + optimize repetitions in the traced run.
const PREPARE_REPS: u64 = 200;

/// What one answer's closure and BDD did.
struct Shape {
    rows: usize,
    cond_size: usize,
    bdd: BddStats,
}

fn wrong(k: usize, got: &Dist, want: &Dist) -> Miss {
    Miss::Wrong(format!(
        "catalog {k}: {} answer tuples, reference {} (or different probabilities)",
        got.len(),
        want.len()
    ))
}

pub fn run(args: &Args, trace: &mut Trace, epoch: Instant) -> Result<Report, Failure> {
    let mut report = Report::new();
    // References first, on inputs of their own, so that the peak resident
    // set can be reset before the set-up and the timed window.
    let (refs, check_ns) = timed(|| {
        let pc = PcExact::new(args.seed, INPUTS)?;
        (0..pc.inputs())
            .map(|k| pc.reference(k))
            .collect::<Result<Vec<_>, _>>()
    });
    let refs = refs?;
    report.log.push(format!(
        "{INPUTS} chain pc-catalogs (seeds {}..{}), {} answer tuples on the first; references \
         (naive closure + Shannon expansion) in {:.3} s",
        args.seed,
        args.seed.wrapping_add(INPUTS - 1),
        refs[0].len(),
        check_ns as f64 / 1e9
    ));
    report.log.push(reset_peak_rss());
    // Set-up: the catalogs, the prepared query, and a warm-up answer of
    // every catalog (all of them, so its cost does not hang on which few
    // catalogs a seed draws). Warm-up answers are dropped unchecked: the
    // timed loop checks every answer of every catalog.
    let build = || -> Result<_, Failure> {
        let pc = PcExact::new(args.seed, INPUTS)?;
        for k in 0..pc.inputs() {
            drop(pc.answer(k)?);
        }
        Ok(pc)
    };
    let (pc, setup_s) = if args.trace {
        (build()?, 0.0)
    } else {
        timed_setups(build)?
    };
    let op = |_: &mut Tracer, seq: u64| {
        let k = (seq % INPUTS) as usize;
        let (dist, ns) = timed(|| pc.answer(k));
        let dist = dist.map_err(Miss::Failed)?;
        if dist != refs[k] {
            return Err(wrong(k, &dist, &refs[k]));
        }
        Ok(ns)
    };

    if !args.trace {
        let w = closed_loop(1, args.seconds, 0..u64::MAX, None, op);
        report.count(&w);
        report.end_to_end(&w, setup_s);
        return Ok(report);
    }

    // The traced operation is the same answer in its two layers: the
    // Thm 9 closure, then BDD compilation + WMC of the answer tuples.
    let shapes: Mutex<BTreeMap<usize, Shape>> = Mutex::new(BTreeMap::new());
    let traced_op = |t: &mut Tracer, seq: u64| {
        let k = (seq % INPUTS) as usize;
        let ((out, ns), _) = t.span("op", seq, |t| {
            timed(|| -> Result<_, Failure> {
                let (answer, _) = t.span("tables.closure", seq, |_| pc.closure(k));
                let answer = answer?;
                let (dist, _) = t.span("bdd.marginals", seq, |_| adapter::marginals(&answer));
                Ok((answer, dist?))
            })
        });
        let (answer, (dist, bdd)) = out.map_err(Miss::Failed)?;
        if dist != refs[k] {
            return Err(wrong(k, &dist, &refs[k]));
        }
        let (rows, cond_size) = adapter::table_shape(adapter::pc_table(&answer));
        shapes
            .lock()
            .expect("shape map lock poisoned")
            .entry(k)
            .or_insert(Shape {
                rows,
                cond_size,
                bdd,
            });
        Ok(ns)
    };
    let third = args.seconds / 3.0;
    let untraced = closed_loop(1, third, 0..u64::MAX, None, op);
    let traced = closed_loop(
        1,
        third,
        untraced.next_seq..u64::MAX,
        Some((&mut *trace, epoch)),
        traced_op,
    );
    report.count(&untraced);
    report.count(&traced);
    if !report.correct {
        return Ok(report);
    }
    let mut layers = prepare_layers(
        ENGINE_CHAIN_NAIVE,
        &PcExact::schema(),
        PREPARE_REPS,
        trace,
        epoch,
    )?;
    // Counts are means over the distinct catalogs, each counted once, so
    // they repeat exactly for a seed.
    let shapes = shapes.into_inner().expect("shape map lock poisoned");
    let n = shapes.len() as f64;
    let mean = |f: &dyn Fn(&Shape) -> u64| ratio(shapes.values().map(f).sum::<u64>() as f64, n);
    let (uh, um) = (mean(&|s| s.bdd.unique_hits), mean(&|s| s.bdd.unique_misses));
    let (ah, am) = (
        mean(&|s| s.bdd.apply_cache_hits),
        mean(&|s| s.bdd.apply_cache_misses),
    );
    layers.extend([
        (
            "tables.closure_us_p50",
            p_us(&trace.durations("tables.closure"), 0.5),
        ),
        ("tables.rows_out", mean(&|s| s.rows as u64)),
        ("tables.cond_size", mean(&|s| s.cond_size as u64)),
        (
            "bdd.marginals_us_p50",
            p_us(&trace.durations("bdd.marginals"), 0.5),
        ),
        ("bdd.nodes_allocated", mean(&|s| s.bdd.nodes_allocated)),
        ("bdd.unique_hits", uh),
        ("bdd.unique_misses", um),
        ("bdd.unique_hit_ratio", ratio(uh, uh + um)),
        ("bdd.apply_hits", ah),
        ("bdd.apply_misses", am),
        ("bdd.apply_hit_ratio", ratio(ah, ah + am)),
        ("bdd.wmc_calls", mean(&|s| s.bdd.wmc_calls)),
    ]);
    report.per_layer(layers, &untraced, &traced);
    Ok(report)
}
