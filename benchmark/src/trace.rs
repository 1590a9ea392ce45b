//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start and an end (ns since the run's epoch), the
//! span that was open around it (its parent) and the id of the request
//! it belongs to. Each client thread records into its own [`Tracer`];
//! [`Trace::merge`] joins them. A span's self time is its duration minus
//! the part of it that its children cover.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span times, e.g. `snapshot.get`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request (operation sequence number) the span belongs to.
    pub req: u64,
    /// Client thread that recorded it.
    pub thread: usize,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] just runs its
/// closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for one thread; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns `f`'s result and the
    /// span's index (meaningless when tracing is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, usize) {
        if !self.on {
            return (f(self), 0);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (out, id)
    }

    /// Renames a recorded span (e.g. a cache lookup found to be a miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
        }
    }
}

/// All spans of a run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends the spans of several tracers, re-basing parent indices.
    pub fn merge(&mut self, tracers: impl IntoIterator<Item = Tracer>) {
        for t in tracers {
            let base = self.spans.len();
            self.spans.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Duration (ns) of the span named `name` for each request.
    pub fn by_req(&self, name: &str) -> BTreeMap<u64, u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.dur()))
            .collect()
    }

    /// Self time (ns) of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur() - covered
            })
            .collect()
    }

    /// Writes every span as one tab-separated line to
    /// `dir/<stem>.spans.tsv` (times in ns since the run's epoch, parent
    /// as a line index, `-` for none) and a per-name summary (count, p50
    /// duration, p50 self time) to `dir/<stem>.summary.tsv`.
    pub fn write(&self, dir: &Path, stem: &str) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let self_ns = self.self_times();
        let mut out = BufWriter::new(fs::File::create(dir.join(format!("{stem}.spans.tsv")))?);
        writeln!(
            out,
            "id\tname\tstart_ns\tend_ns\tself_ns\tparent\treq\tthread"
        )?;
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{own}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, s.req, s.thread
            )?;
        }
        out.flush()?;
        let mut by_name: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur());
            e.1.push(*own);
        }
        let mut sum = BufWriter::new(fs::File::create(dir.join(format!("{stem}.summary.tsv")))?);
        writeln!(sum, "span\tcount\tp50_dur_ns\tp50_self_ns")?;
        for (name, (mut dur, mut own)) in by_name {
            let n = dur.len();
            writeln!(
                sum,
                "{name}\t{n}\t{}\t{}",
                crate::harness::percentile(&mut dur, 0.5),
                crate::harness::percentile(&mut own, 0.5)
            )?;
        }
        sum.flush()
    }
}
