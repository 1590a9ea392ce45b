//! `serve_hot` and `serve_tail`: a `Server<Instance>` answering a
//! Zipf-skewed read/install trace from `nproc` closed-loop clients.
//!
//! Every reply is compared with the row-at-a-time answer of its
//! template. That reference is computed once per template on the base
//! catalog, which is valid for every snapshot the run can reach: every
//! relation the trace installs is a `serve_relation`, a permutation of
//! `0..rows` in its second column, so each chain join extends every row
//! of the template's first relation exactly once, and the final `pi[0]`
//! returns all of `0..rows` whatever shifts are installed, in whatever
//! order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, DirectServe, Failure, Instance, Query, ServeInputs, ServeOp, ServeSystem,
};
use crate::harness::{
    closed_loop, p_us, ratio, reset_peak_rss, timed, timed_setups, Miss, OpResult, Report,
};
use crate::scan;
use crate::trace::{Trace, Tracer};
use crate::Args;

/// `serve_hot`: templates that all fit the 256-entry plan cache.
pub const HOT_POOL: usize = 48;
/// `serve_tail`: a working set far larger than the plan cache.
pub const TAIL_POOL: usize = 4096;
/// The server's default plan-cache capacity.
const CACHE_CAPACITY: usize = 256;
/// Trace length; the loop replays it cyclically.
const TRACE_LEN: usize = 4096;
/// Operations replayed before timing starts, to fill the plan cache;
/// from `nproc` clients, like the timed loop, so that the warm-up's
/// length does not hinge on idle-core wake-ups.
const WARM_OPS: u64 = 2000;
/// Time limit on the warm-up (it normally takes a fraction of a second).
const WARM_S: f64 = 60.0;
/// Reads of the trace prepared into the direct replay's cache before it
/// starts, so its LRU state resembles the server's.
const DIRECT_WARM_OPS: u64 = 2048;
/// Most operations the direct replay runs (enough for stable medians;
/// it also stops at its time budget).
const DIRECT_MAX_OPS: u64 = 20_000;
/// Most popular templates whose reference is also checked against the
/// unoptimized query (a naive σ(×) walk costs tens of ms each).
const NAIVE_CHECKS: usize = 2;
/// How far snapshot + cache + execute + handoff may stray from the
/// measured read latency (means over the paired reads).
const PARTS_TOLERANCE: f64 = 0.05;

struct Serving {
    inputs: ServeInputs,
    sys: ServeSystem,
}

fn wrong(i: usize, got: &Instance, want: &Instance) -> Miss {
    Miss::Wrong(format!(
        "read of template {i}: {} rows, reference {} rows",
        got.len(),
        want.len()
    ))
}

/// One trace operation through the server.
fn server_op(serving: &Serving, refs: &[Instance], tracer: &mut Tracer, seq: u64) -> OpResult {
    let inputs = &serving.inputs;
    match inputs.trace[(seq % inputs.trace.len() as u64) as usize] {
        ServeOp::Read(i) => {
            let ((ans, ns), _) = tracer.span("serve.read", seq, |_| {
                timed(|| serving.sys.query(&inputs.pool[i]))
            });
            let ans = ans.map_err(Miss::Failed)?;
            if ans != refs[i] {
                return Err(wrong(i, &ans, &refs[i]));
            }
            Ok(ns)
        }
        ServeOp::Write { rel, shift } => {
            let (name, relation) = install_args(inputs, rel, shift).map_err(Miss::Failed)?;
            let ((done, ns), _) = tracer.span("serve.install", seq, |_| {
                timed(|| serving.sys.install(name, relation))
            });
            done.map_err(Miss::Failed)?;
            Ok(ns)
        }
    }
}

fn install_args(
    inputs: &ServeInputs,
    rel: usize,
    shift: i64,
) -> Result<(String, Instance), Failure> {
    let relation = usize::try_from(shift)
        .ok()
        .and_then(|s| inputs.relations.get(s))
        .ok_or_else(|| Failure(format!("trace install with unknown shift {shift}")))?;
    Ok((inputs.names[rel].clone(), relation.clone()))
}

fn fatal(m: Miss) -> Failure {
    match m {
        Miss::Failed(e) => e,
        Miss::Wrong(msg) => Failure(format!("wrong answer: {msg}")),
    }
}

/// Inputs, a started server, and the warm-up that fills its cache.
fn setup(pool: usize, seed: u64, refs: &[Instance]) -> Result<Serving, Failure> {
    let serving = Serving {
        inputs: adapter::serve_inputs(pool, TRACE_LEN, seed),
        sys: ServeSystem::start(adapter::nproc()),
    };
    if pool <= CACHE_CAPACITY {
        for (i, text) in serving.inputs.pool.iter().enumerate() {
            let ans = serving.sys.query(text)?;
            if ans != refs[i] {
                return Err(fatal(wrong(i, &ans, &refs[i])));
            }
        }
    }
    let warm = closed_loop(adapter::nproc(), WARM_S, 0..WARM_OPS, None, |t, seq| {
        server_op(&serving, refs, t, seq)
    });
    if let Some(msg) = warm.wrong {
        return Err(Failure(format!("wrong answer in warm-up: {msg}")));
    }
    if let Some(msg) = warm.first_failure {
        return Err(Failure(msg));
    }
    if warm.next_seq < WARM_OPS {
        return Err(Failure(format!("warm-up did not finish in {WARM_S} s")));
    }
    Ok(serving)
}

/// The reference answer of every template, plus the naive-plan check of
/// the most popular ones.
fn references(pool: usize, seed: u64) -> Result<Vec<Instance>, Failure> {
    let texts = adapter::serve_pool(pool, seed);
    let refs = texts
        .iter()
        .map(|t| adapter::serve_reference(&adapter::serve_plan(t)?))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, text) in texts.iter().enumerate().take(NAIVE_CHECKS) {
        if adapter::serve_reference_naive(text)? != refs[i] {
            return Err(Failure(format!(
                "template {i}: optimized and naive row-at-a-time answers differ"
            )));
        }
    }
    Ok(refs)
}

/// Every template's plan as the server's plan cache hands it out must
/// equal the plan the benchmark's own `Engine` prepares from the text:
/// the replies alone cannot show a cache that serves one template's plan
/// for another, because every template answers `0..rows`. Runs outside
/// the timed window; the plans are prepared here rather than kept, so
/// they do not count in `peak_rss_mb`.
fn check_plans(sys: &ServeSystem, pool: &[String]) -> Result<(), Miss> {
    for (i, text) in pool.iter().enumerate() {
        let own = adapter::serve_plan(text).map_err(Miss::Failed)?;
        if sys.cached_plan(text).map_err(Miss::Failed)? != own {
            return Err(Miss::Wrong(format!(
                "the server's plan cache returned another plan for template {i}"
            )));
        }
    }
    Ok(())
}

pub fn run(args: &Args, pool: usize, trace: &mut Trace, epoch: Instant) -> Result<Report, Failure> {
    let mut report = Report::new();
    let clients = adapter::nproc();
    let (refs, check_ns) = timed(|| references(pool, args.seed));
    let refs = refs?;
    report.log.push(format!(
        "{} templates, {clients} clients, {clients} server workers; references in {:.3} s \
         (row-at-a-time eval_catalog; naive plan checked on the top {NAIVE_CHECKS}); every \
         template's cached plan checked after the timed window",
        pool,
        check_ns as f64 / 1e9
    ));
    report.log.push(reset_peak_rss());
    let op = |t: &mut Tracer, seq: u64, serving: &Serving| server_op(serving, &refs, t, seq);

    if !args.trace {
        let (serving, setup_s) = timed_setups(|| setup(pool, args.seed, &refs))?;
        let w = closed_loop(clients, args.seconds, WARM_OPS..u64::MAX, None, |t, seq| {
            op(t, seq, &serving)
        });
        report.count(&w);
        report.end_to_end(&w, setup_s);
        let checked = check_plans(&serving.sys, &serving.inputs.pool);
        serving.sys.shutdown();
        report.settle("plan check", checked)?;
        return Ok(report);
    }

    let serving = setup(pool, args.seed, &refs)?;
    let third = args.seconds / 3.0;
    let untraced = closed_loop(clients, third, WARM_OPS..u64::MAX, None, |t, seq| {
        op(t, seq, &serving)
    });
    let (h0, m0) = serving.sys.cache_counts();
    let traced = closed_loop(
        clients,
        third,
        untraced.next_seq..u64::MAX,
        Some((&mut *trace, epoch)),
        |t, seq| op(t, seq, &serving),
    );
    let (h1, m1) = serving.sys.cache_counts();
    let checked = check_plans(&serving.sys, &serving.inputs.pool);
    let Serving { inputs, sys } = serving;
    sys.shutdown();
    report.count(&untraced);
    report.count(&traced);
    report.settle("plan check", checked)?;
    if !report.correct {
        return Ok(report);
    }
    let window = untraced.next_seq..traced.next_seq;
    let replayed = direct_replay(&inputs, &refs, window, third, trace, epoch);
    let Some(mut layers) = report.settle("direct replay", replayed)? else {
        return Ok(report);
    };
    let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
    layers.extend([
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
    ]);
    layers.extend(serve_layers(trace)?);
    if pool <= CACHE_CAPACITY {
        // `serve_hot` also carries the 100k-row scan join's layers; see
        // `scan.rs` for why that join is not a workload of its own.
        let scanned = scan::layers(args.seconds / 6.0, &mut report.log, trace, epoch);
        let Some(scan_layers) = report.settle("scan join phase", scanned)? else {
            return Ok(report);
        };
        layers.extend(scan_layers);
    }
    report.per_layer(layers, &untraced, &traced);
    Ok(report)
}

/// Replays the traced window's operations single-threaded through the
/// same public parts the server's handler uses — snapshot, plan cache,
/// serial execute — with a span around each, plus side spans for leaf
/// conversion, parse and plan + optimize of every read. Each read's plan
/// (against the benchmark's own `Engine`) and answer are checked after
/// its `direct.read` span.
fn direct_replay(
    inputs: &ServeInputs,
    refs: &[Instance],
    window: Range<u64>,
    budget_s: f64,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<Vec<(&'static str, f64)>, Miss> {
    let op_at = |seq: u64| inputs.trace[(seq % inputs.trace.len() as u64) as usize];
    let direct = DirectServe::new();
    let schema = adapter::serving_schema();
    let snap = direct.snapshot();
    if inputs.pool.len() <= CACHE_CAPACITY {
        for text in &inputs.pool {
            direct.prepare(text, &snap).map_err(Miss::Failed)?;
        }
    }
    for seq in window.start.saturating_sub(DIRECT_WARM_OPS)..window.start {
        if let ServeOp::Read(i) = op_at(seq) {
            direct
                .prepare(&inputs.pool[i], &snap)
                .map_err(Miss::Failed)?;
        }
    }
    drop(snap);
    let mut t = Tracer::new(true, epoch, 0);
    let (mut passes, mut reads) = (0, 0);
    let mut plans: BTreeMap<usize, Query> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    for seq in window.start..window.end.min(window.start + DIRECT_MAX_OPS) {
        if Instant::now() >= deadline {
            break;
        }
        match op_at(seq) {
            ServeOp::Read(i) => {
                let text = &inputs.pool[i];
                let (done, _) = t.span("direct.read", seq, |t| {
                    let (snap, _) = t.span("snapshot.get", seq, |_| direct.snapshot());
                    let hits = direct.cache_hits();
                    let (stmt, id) = t.span("cache.hit", seq, |_| direct.prepare(text, &snap));
                    if direct.cache_hits() == hits {
                        t.rename(id, "cache.miss");
                    }
                    let stmt = stmt.map_err(Miss::Failed)?;
                    let (ans, _) = t.span("exec.read", seq, |_| direct.execute(&stmt, &snap));
                    Ok((stmt, snap, ans.map_err(Miss::Failed)?))
                });
                let (stmt, snap, ans) = done?;
                let own = match plans.entry(i) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(adapter::serve_plan(text).map_err(Miss::Failed)?),
                };
                if adapter::plan_of(&stmt) != own {
                    return Err(Miss::Wrong(format!(
                        "direct replay: the plan cache returned another plan for template {i}"
                    )));
                }
                if ans != refs[i] {
                    return Err(wrong(i, &ans, &refs[i]));
                }
                let leaves = adapter::plan_leaves(&stmt);
                let (rows, _) = t.span("columnar.leaf_convert", seq, |_| {
                    adapter::snap_leaf_convert(&snap, &leaves)
                });
                rows.map_err(Miss::Failed)?;
                let (q, _) = t.span("parser.parse", seq, |_| adapter::parse_text(text));
                let q = q.map_err(Miss::Failed)?;
                let (p, _) = t.span("optimize.plan", seq, |_| {
                    adapter::plan_optimize(&q, &schema)
                });
                passes += p.map_err(Miss::Failed)?;
                reads += 1;
            }
            ServeOp::Write { rel, shift } => {
                let (name, relation) = install_args(inputs, rel, shift).map_err(Miss::Failed)?;
                t.span("direct.install", seq, |t| {
                    t.span("snapshot.update", seq, |_| direct.install(name, relation))
                });
            }
        }
    }
    trace.merge([t]);
    Ok(vec![(
        "optimize.passes_mean",
        ratio(passes as f64, reads as f64),
    )])
}

/// Per-layer metrics of the serving workloads, from the spans.
fn serve_layers(trace: &Trace) -> Result<Vec<(&'static str, f64)>, Failure> {
    let server_reads = trace.by_req("serve.read");
    let direct_reads = trace.by_req("direct.read");
    let mut handoff: Vec<i64> = Vec::new();
    let mut paired_ns: u64 = 0;
    for (req, d) in &direct_reads {
        let s = server_reads
            .get(req)
            .ok_or_else(|| Failure(format!("direct read {req} has no server read")))?;
        handoff.push(*s as i64 - *d as i64);
        paired_ns += s;
    }
    // Self-contained sums over the replayed reads: the direct spans cover
    // exactly those requests.
    let sum = |name: &str| trace.durations(name).iter().sum::<u64>() as f64;
    let n = handoff.len() as f64;
    let parts_ns = sum("snapshot.get")
        + sum("cache.hit")
        + sum("cache.miss")
        + sum("exec.read")
        + handoff.iter().sum::<i64>() as f64;
    let read_mean_us = ratio(paired_ns as f64, n) / 1e3;
    let parts_mean_us = ratio(parts_ns, n) / 1e3;
    let parts_sum_ratio = ratio(parts_mean_us, read_mean_us);
    if (parts_sum_ratio - 1.0).abs() > PARTS_TOLERANCE {
        return Err(Failure(format!(
            "trace accounting: snapshot + cache + execute + handoff = {parts_mean_us:.3} us, \
             read latency {read_mean_us:.3} us (ratio {parts_sum_ratio:.4}, tolerance {PARTS_TOLERANCE})"
        )));
    }
    handoff.sort_unstable();
    let handoff_p50 = handoff
        .get(handoff.len().saturating_sub(1) / 2)
        .map_or(0.0, |ns| *ns as f64 / 1e3);
    let direct_ops =
        (trace.durations("direct.read").len() + trace.durations("direct.install").len()) as f64;
    let direct_s = (sum("direct.read") + sum("direct.install")) / 1e9;
    let exec_p50 = p_us(&trace.durations("exec.read"), 0.5);
    let leaf_p50 = p_us(&trace.durations("columnar.leaf_convert"), 0.5);
    Ok(vec![
        (
            "serve.read_us_p50",
            p_us(&trace.durations("serve.read"), 0.5),
        ),
        ("serve.handoff_us_p50", handoff_p50),
        (
            "serve.install_us_p50",
            p_us(&trace.durations("serve.install"), 0.5),
        ),
        ("serve.direct_ops_per_s", ratio(direct_ops, direct_s)),
        ("serve.read_us_mean", read_mean_us),
        ("serve.parts_us_mean", parts_mean_us),
        ("serve.parts_sum_ratio", parts_sum_ratio),
        (
            "snapshot.get_us_p50",
            p_us(&trace.durations("snapshot.get"), 0.5),
        ),
        (
            "snapshot.update_us_p50",
            p_us(&trace.durations("snapshot.update"), 0.5),
        ),
        ("cache.hit_us_p50", p_us(&trace.durations("cache.hit"), 0.5)),
        (
            "cache.miss_us_p50",
            p_us(&trace.durations("cache.miss"), 0.5),
        ),
        (
            "parser.parse_us_p50",
            p_us(&trace.durations("parser.parse"), 0.5),
        ),
        (
            "optimize.plan_us_p50",
            p_us(&trace.durations("optimize.plan"), 0.5),
        ),
        ("exec.read_us_p50", exec_p50),
        ("columnar.leaf_convert_us_p50", leaf_p50),
        ("columnar.leaf_share", ratio(leaf_p50, exec_p50)),
    ])
}
