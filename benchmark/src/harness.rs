//! Closed-loop timing, percentiles, set-up timing and the metric report
//! every workload shares.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::Failure;
use crate::trace::{Trace, Tracer};

/// A run builds its set-up at least `SETUP_MIN_RUNS` times and until
/// `SETUP_MIN_S` seconds went into it (at most `SETUP_MAX_RUNS` times);
/// `setup_s` is the median build time.
const SETUP_MIN_RUNS: usize = 5;
const SETUP_MAX_RUNS: usize = 60;
const SETUP_MIN_S: f64 = 2.0;

/// Why an operation did not complete correctly.
pub enum Miss {
    /// The program returned a typed error: counted in `failed`.
    Failed(Failure),
    /// The program returned a wrong answer: the run aborts.
    Wrong(String),
}

/// One operation's result: its latency in ns, or why it missed.
pub type OpResult = Result<u64, Miss>;

/// Times `f`'s call in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// What one closed-loop window measured.
pub struct Window {
    /// Latencies (ns) of correct operations: all of them, or a uniform
    /// sample of `LAT_SAMPLES` per client when there were more.
    pub lat_ns: Vec<u64>,
    /// Operations that completed correctly.
    pub ok: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub failed: u64,
    /// The first wrong answer, if any (the window stopped there).
    pub wrong: Option<String>,
    /// One failure message, for the log.
    pub first_failure: Option<String>,
    /// Wall time from the start until every client stopped.
    pub elapsed_s: f64,
    /// The next unused operation sequence number.
    pub next_seq: u64,
}

impl Window {
    fn empty() -> Window {
        Window {
            lat_ns: Vec::new(),
            ok: 0,
            attempted: 0,
            failed: 0,
            wrong: None,
            first_failure: None,
            elapsed_s: 0.0,
            next_seq: 0,
        }
    }

    /// Correct operations per second over the window's wall time.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ok as f64, self.elapsed_s)
    }
}

/// Latency samples a client keeps; beyond that it keeps a uniform
/// reservoir sample, so the benchmark's own memory (and `peak_rss_mb`)
/// does not grow with the number of operations.
const LAT_SAMPLES: usize = 1 << 16;

/// One client's latency sample.
struct Recorder {
    lat: Vec<u64>,
    rng: u64,
    ok: u64,
}

impl Recorder {
    fn new(client: usize) -> Recorder {
        Recorder {
            lat: Vec::with_capacity(LAT_SAMPLES),
            rng: 0x9E37_79B9_7F4A_7C15 ^ client as u64,
            ok: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.ok += 1;
        if self.lat.len() < LAT_SAMPLES {
            self.lat.push(ns);
        } else {
            // Reservoir sampling (Algorithm R), xorshift64 draws.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if let Some(slot) = self.lat.get_mut((self.rng % self.ok) as usize) {
                *slot = ns;
            }
        }
    }
}

/// A closed loop: `clients` threads, each issuing its next operation
/// only when the previous one has returned, for `seconds` or until the
/// sequence numbers `seqs` run out. Operations take consecutive sequence
/// numbers from `seqs.start` on. Each client records spans into its own
/// tracer, merged into `trace`.
pub fn closed_loop<F>(
    clients: usize,
    seconds: f64,
    seqs: Range<u64>,
    trace: Option<(&mut Trace, Instant)>,
    op: F,
) -> Window
where
    F: Fn(&mut Tracer, u64) -> OpResult + Sync,
{
    let cursor = AtomicU64::new(seqs.start);
    let stop = AtomicBool::new(false);
    let (tracing, epoch) = match &trace {
        Some((_, epoch)) => (true, *epoch),
        None => (false, Instant::now()),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Window, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (cursor, stop, op) = (&cursor, &stop, &op);
                s.spawn(move || {
                    let mut tracer = Tracer::new(tracing, epoch, c);
                    let mut w = Window::empty();
                    let mut rec = Recorder::new(c);
                    // ORDERING: Relaxed — `stop` only shortens the loop;
                    // no data is published through it.
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        // ORDERING: Relaxed — a ticket counter; each
                        // value is handed out once, nothing else rides
                        // on it.
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        if seq >= seqs.end {
                            break;
                        }
                        w.attempted += 1;
                        match op(&mut tracer, seq) {
                            Ok(ns) => rec.record(ns),
                            Err(Miss::Failed(e)) => {
                                w.failed += 1;
                                w.first_failure.get_or_insert(e.0);
                            }
                            Err(Miss::Wrong(msg)) => {
                                w.wrong = Some(msg);
                                // ORDERING: Relaxed — the other clients only
                                // need to see the flag eventually; the
                                // message travels through the join.
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    w.ok = rec.ok;
                    w.lat_ns = rec.lat;
                    (w, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    });
    let mut out = Window {
        elapsed_s: start.elapsed().as_secs_f64(),
        next_seq: cursor.into_inner().min(seqs.end),
        ..Window::empty()
    };
    let mut tracers = Vec::new();
    for (w, t) in per_client {
        out.lat_ns.extend(w.lat_ns);
        out.ok += w.ok;
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.wrong = out.wrong.or(w.wrong);
        out.first_failure = out.first_failure.or(w.first_failure);
        tracers.push(t);
    }
    if let Some((trace, _)) = trace {
        trace.merge(tracers);
    }
    out
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `v`; 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile in µs.
pub fn p_us(v: &[u64], q: f64) -> f64 {
    percentile(&mut v.to_vec(), q) as f64 / 1e3
}

/// `a / b`, 0 when `b` is 0 (a layer with no samples).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Builds the set-up repeatedly (see `SETUP_MIN_RUNS`); returns the last
/// build and the median build time in seconds. Earlier builds are
/// dropped untimed.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, Failure>) -> Result<(T, f64), Failure> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_RUNS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_RUNS)
    {
        drop(last.take());
        let t0 = Instant::now();
        let built = build()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    times.sort_by(f64::total_cmp);
    let built = last.expect("the loop builds at least once");
    Ok((built, times[times.len() / 2]))
}

/// A `/proc/self/status` field (`VmHWM`, `VmRSS`) in MiB; 0 when absent.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Lowers the peak resident set to the current one (writing `5` to
/// `/proc/self/clear_refs`, Linux 4.0 and later), so that `peak_rss_mb`
/// covers what follows and not the reference computations before it.
/// Returns a log line with the peak before and the resident set after.
pub fn reset_peak_rss() -> String {
    let before = peak_rss_mb();
    let how = match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => "reset".to_string(),
        Err(e) => format!("NOT reset ({e}); peak_rss_mb includes the references"),
    };
    format!(
        "peak RSS {before:.1} MiB after the references, resident {:.1} MiB; peak {how}",
        status_mb("VmRSS:")
    )
}

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; a layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.read_us_p50", "us"),
    ("serve.handoff_us_p50", "us"),
    ("serve.install_us_p50", "us"),
    ("serve.direct_ops_per_s", "1/s"),
    ("serve.read_us_mean", "us"),
    ("serve.parts_us_mean", "us"),
    ("serve.parts_sum_ratio", "ratio"),
    ("snapshot.get_us_p50", "us"),
    ("snapshot.update_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_us_p50", "us"),
    ("cache.miss_us_p50", "us"),
    ("parser.parse_us_p50", "us"),
    ("optimize.plan_us_p50", "us"),
    ("optimize.passes_mean", "count"),
    ("exec.read_us_p50", "us"),
    ("exec.query_us_p50", "us"),
    ("morsel.serial_us_p50", "us"),
    ("morsel.fanout_speedup", "ratio"),
    ("columnar.leaf_convert_us_p50", "us"),
    ("columnar.leaf_share", "ratio"),
    ("columnar.scan_leaf_convert_us_p50", "us"),
    ("columnar.scan_leaf_share", "ratio"),
    ("tables.closure_us_p50", "us"),
    ("tables.rows_out", "count"),
    ("tables.cond_size", "count"),
    ("bdd.marginals_us_p50", "us"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.unique_hit_ratio", "ratio"),
    ("bdd.unique_hits", "count"),
    ("bdd.unique_misses", "count"),
    ("bdd.apply_hit_ratio", "ratio"),
    ("bdd.apply_hits", "count"),
    ("bdd.apply_misses", "count"),
    ("bdd.wmc_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
];

/// What a run prints: log lines, then the result object.
pub struct Report {
    /// Every answer matched its reference.
    pub correct: bool,
    /// Operations started in the measured window(s).
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the result (prefixed `# `).
    pub log: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Records a window's counts and its wrong answer, if any.
    pub fn count(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        if let Some(msg) = &w.wrong {
            self.correct = false;
            self.log.push(format!("WRONG ANSWER: {msg}"));
        }
        if let Some(msg) = &w.first_failure {
            self.log.push(format!("first failure: {msg}"));
        }
    }

    /// Records the outcome of a check made outside the measured windows:
    /// a wrong answer marks the report incorrect and gives `None`; a
    /// typed error ends the run.
    pub fn settle<T>(
        &mut self,
        what: &str,
        checked: Result<T, Miss>,
    ) -> Result<Option<T>, Failure> {
        match checked {
            Ok(v) => Ok(Some(v)),
            Err(Miss::Wrong(msg)) => {
                self.correct = false;
                self.log.push(format!("WRONG ANSWER ({what}): {msg}"));
                Ok(None)
            }
            Err(Miss::Failed(e)) => Err(e),
        }
    }

    /// Sets the end-to-end metrics from the timed window.
    pub fn end_to_end(&mut self, w: &Window, setup_s: f64) {
        let ok = w.ok as f64;
        let mut lat = w.lat_ns.clone();
        let p99 = percentile(&mut lat, 0.99);
        let beyond_p99 = lat.iter().filter(|&&ns| ns > p99).count();
        self.log.push(format!(
            "{} correct operations, latency percentiles over {} of them (a uniform sample of at \
             most {LAT_SAMPLES} per client); lat_p99_us {} with {} samples beyond it; fail_ratio {} \
             ({} failed / {} attempted)",
            w.ok,
            lat.len(),
            p99 as f64 / 1e3,
            beyond_p99,
            ratio(w.failed as f64, w.attempted as f64),
            w.failed,
            w.attempted
        ));
        self.put("ops_per_s", w.ops_per_s(), "1/s");
        self.put("lat_p50_us", p_us(&lat, 0.5), "us");
        self.put("lat_p90_us", p_us(&lat, 0.9), "us");
        self.put("ok_ratio", ratio(ok, w.attempted as f64), "ratio");
        self.put("setup_s", setup_s, "s");
        self.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Sets every per-layer metric, 0 for those `layers` lacks. The
    /// traced and untraced windows give `trace.*`.
    pub fn per_layer(
        &mut self,
        mut layers: Vec<(&'static str, f64)>,
        untraced: &Window,
        traced: &Window,
    ) {
        layers.push(("trace.untraced_ops_per_s", untraced.ops_per_s()));
        layers.push(("trace.traced_ops_per_s", traced.ops_per_s()));
        layers.push((
            "trace.overhead_ratio",
            ratio(traced.ops_per_s(), untraced.ops_per_s()),
        ));
        for (name, unit) in PER_LAYER {
            let value = layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            self.put(name, value, unit);
        }
    }

    /// Prints the log lines and the result object (last line of stdout).
    pub fn print(&self) {
        for line in &self.log {
            println!("# {line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Times `parse` and plan + optimize of one query text on their own,
/// `reps` times each, as spans `parser.parse` and `optimize.plan`.
pub fn prepare_layers(
    text: &str,
    schema: &crate::adapter::Schema,
    reps: u64,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<Vec<(&'static str, f64)>, Failure> {
    let mut t = Tracer::new(true, epoch, 0);
    let mut passes = 0;
    for rep in 0..reps {
        let (q, _) = t.span("parser.parse", rep, |_| crate::adapter::parse_text(text));
        let q = q?;
        let (p, _) = t.span("optimize.plan", rep, |_| {
            crate::adapter::plan_optimize(&q, schema)
        });
        passes += p?;
    }
    trace.merge([t]);
    Ok(vec![
        (
            "parser.parse_us_p50",
            p_us(&trace.durations("parser.parse"), 0.5),
        ),
        (
            "optimize.plan_us_p50",
            p_us(&trace.durations("optimize.plan"), 0.5),
        ),
        ("optimize.passes_mean", ratio(passes as f64, reps as f64)),
    ])
}
