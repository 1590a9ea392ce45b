//! The one place the benchmark calls into the `ipdb-*` crates.
//!
//! Every other file of the benchmark reaches the program only through
//! the functions and types here, so an API change in the engine (for
//! example collapsing the `execute*`/`run*` variants into one entry
//! point) migrates this file alone. Each function wraps exactly one call
//! into one layer, so a span the caller records around it times that
//! layer and nothing else. Typed errors from any layer come back as a
//! [`Failure`]; nothing here unwraps a program result.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;

use ipdb_bench::{
    chain_pc_catalog, chain_schema, parallel_build_side, parallel_probe_side, parallel_schema,
    random_ctable, serve_catalog, serve_query_pool, serve_relation, serve_schema, serve_trace,
    ENGINE_PARALLEL_JOIN, SERVE_RELS,
};
use ipdb_engine::{
    optimize_plan_stats, parse, Backend, Catalog, Engine, ExecConfig, Plan, PlanCache, Prepared,
    Server, ServerConfig, Snapshot, SnapshotCatalog,
};
use ipdb_prob::{answering, PcTable, Rat};
use ipdb_rel::columnar::ColumnarInstance;
use ipdb_rel::Tuple;

pub use ipdb_bench::{ServeOp, ENGINE_CHAIN_NAIVE, ENGINE_PRODUCT_HEAVY};
pub use ipdb_prob::BddStats;
pub use ipdb_rel::{Instance, Query, Schema};
pub use ipdb_tables::CTable;

/// An exact answer distribution: every possible answer tuple with its
/// probability.
pub type Dist = Vec<(Tuple, Rat)>;
/// A prepared statement shared out of a plan cache.
pub type Stmt = Arc<Prepared>;
/// One installed catalog version.
pub type Snap = Arc<Snapshot<Instance>>;
/// A pc-table answer before its probabilities are counted.
pub type PcAnswer = PcTable<Rat>;

/// A typed error from any layer of the program, rendered once.
#[derive(Debug, Clone)]
pub struct Failure(pub String);

fn fail(e: impl Display) -> Failure {
    Failure(e.to_string())
}

/// The worker count the host offers (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------
// Parser and optimizer, called on their own.
// ---------------------------------------------------------------------

/// `parser::parse`.
pub fn parse_text(text: &str) -> Result<Query, Failure> {
    parse(text).map_err(fail)
}

/// `Plan::from_query_schema` followed by `optimize_plan_stats`; returns
/// the optimizer's pass count.
pub fn plan_optimize(q: &Query, schema: &Schema) -> Result<usize, Failure> {
    let naive = Plan::from_query_schema(q, schema).map_err(fail)?;
    let (_, stats) = optimize_plan_stats(&naive);
    Ok(stats.passes)
}

/// The relation leaves a prepared plan reads, one entry per occurrence
/// (the executor converts each leaf occurrence to columnar form).
pub fn plan_leaves(stmt: &Prepared) -> Vec<String> {
    fn walk(q: &Query, out: &mut Vec<String>) {
        match q {
            Query::Input => out.push(Schema::INPUT.to_string()),
            Query::Second => out.push(Schema::SECOND.to_string()),
            Query::Rel(name) => out.push(name.clone()),
            Query::Lit(_) => {}
            Query::Project(_, a) | Query::Select(_, a) => walk(a, out),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Diff(a, b)
            | Query::Intersect(a, b)
            | Query::Join {
                left: a, right: b, ..
            } => {
                walk(a, out);
                walk(b, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(stmt.query(), &mut out);
    out
}

/// Serial `ColumnarInstance::from_rows` on every named leaf; returns the
/// number of rows converted.
fn leaf_convert(cat: &Catalog<Instance>, leaves: &[String]) -> Result<usize, Failure> {
    let mut rows = 0;
    for name in leaves {
        let rel = cat
            .get(name)
            .ok_or_else(|| Failure(format!("catalog has no relation {name}")))?;
        rows += std::hint::black_box(ColumnarInstance::from_rows(rel)).len();
    }
    Ok(rows)
}

/// Row-at-a-time `Query::eval_catalog` over a catalog's relations.
fn eval_rows(q: &Query, cat: &Catalog<Instance>) -> Result<Instance, Failure> {
    let rels: BTreeMap<String, Instance> = cat
        .iter()
        .map(|(name, rel)| (name.to_string(), rel.clone()))
        .collect();
    q.eval_catalog(&rels).map_err(fail)
}

// ---------------------------------------------------------------------
// Serving: the server, and the same reads replayed directly.
// ---------------------------------------------------------------------

/// Rows per serving relation.
pub const SERVE_ROWS: usize = 16;
/// Highest link shift a `serve_trace` install uses (`k mod 31 + 1`).
const MAX_SHIFT: usize = 31;

/// The seeded serving inputs: templates, the operation trace, and every
/// relation an install in the trace can carry, built ahead of time so
/// the timed loop only clones them.
pub struct ServeInputs {
    /// Read templates, indexed by `ServeOp::Read`.
    pub pool: Vec<String>,
    /// The operation trace, replayed cyclically.
    pub trace: Vec<ServeOp>,
    /// `Z{rel}` relation names.
    pub names: Vec<String>,
    /// `serve_relation(SERVE_ROWS, shift)`, indexed by shift.
    pub relations: Vec<Instance>,
}

/// `serve_query_pool`: the read templates alone.
pub fn serve_pool(pool: usize, seed: u64) -> Vec<String> {
    serve_query_pool(pool, seed)
}

/// `serve_query_pool` + `serve_trace` + the install relations.
pub fn serve_inputs(pool: usize, trace_len: usize, seed: u64) -> ServeInputs {
    ServeInputs {
        pool: serve_query_pool(pool, seed),
        trace: serve_trace(pool, trace_len, seed),
        names: (0..SERVE_RELS).map(|r| format!("Z{r}")).collect(),
        relations: (0..=MAX_SHIFT)
            .map(|shift| serve_relation(SERVE_ROWS, shift as i64))
            .collect(),
    }
}

/// A running `Server<Instance>` over the serving base catalog.
pub struct ServeSystem {
    server: Server<Instance>,
    engine: Engine,
}

impl ServeSystem {
    /// `Server::start` with `threads` workers and the default plan cache.
    pub fn start(threads: usize) -> ServeSystem {
        let config = ServerConfig::with_threads(threads);
        let engine = config.engine.clone();
        ServeSystem {
            server: Server::start(serve_catalog(SERVE_ROWS), config),
            engine,
        }
    }

    /// `Server::query`: one read, blocking for its answer.
    pub fn query(&self, text: &str) -> Result<Instance, Failure> {
        self.server.query(text).map_err(fail)
    }

    /// `Server::install`: one relation install, blocking for its version.
    pub fn install(&self, name: String, rel: Instance) -> Result<u64, Failure> {
        self.server.install(name, rel).map_err(fail)
    }

    /// The plan the server's `PlanCache` hands out for `text` under the
    /// current snapshot's schema, as its workers look it up
    /// (`PlanCache::prepare_text`; a lookup counts as a hit or a miss).
    pub fn cached_plan(&self, text: &str) -> Result<Query, Failure> {
        let stmt = self
            .server
            .cache()
            .prepare_text(&self.engine, text, self.server.snapshot().schema())
            .map_err(fail)?;
        Ok(stmt.query().clone())
    }

    /// The server's `PlanCache` counters `(hits, misses)`.
    pub fn cache_counts(&self) -> (u64, u64) {
        let cache = self.server.cache();
        (cache.hits(), cache.misses())
    }

    /// `Server::shutdown`: drains the queue and joins every worker.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The plan of one read template, prepared by the benchmark's own
/// `Engine` (no plan cache, no server) over the serving schema.
pub fn serve_plan(text: &str) -> Result<Query, Failure> {
    let stmt = Engine::new()
        .prepare_text_schema(text, &serve_schema())
        .map_err(fail)?;
    Ok(stmt.query().clone())
}

/// The row-at-a-time reference answer of a template's plan on the base
/// serving catalog: `Query::eval_catalog`, bypassing the columnar
/// executor.
pub fn serve_reference(plan: &Query) -> Result<Instance, Failure> {
    eval_rows(plan, &serve_catalog(SERVE_ROWS))
}

/// The same reference from the query as written, with no optimizer in
/// the path: the naive σ(×) walk (tens of ms per template, so the
/// benchmark runs it on a few templates only).
pub fn serve_reference_naive(text: &str) -> Result<Instance, Failure> {
    eval_rows(&parse_text(text)?, &serve_catalog(SERVE_ROWS))
}

/// The plan a prepared statement runs.
pub fn plan_of(stmt: &Prepared) -> &Query {
    stmt.query()
}

/// The serving schema.
pub fn serving_schema() -> Schema {
    serve_schema()
}

/// A single-threaded stand-in for the server's request handler, made of
/// the same public parts: a `SnapshotCatalog`, a `PlanCache` of the
/// server's default capacity, and serial execution.
pub struct DirectServe {
    engine: Engine,
    cache: PlanCache,
    snapshots: SnapshotCatalog<Instance>,
    exec: ExecConfig,
}

impl DirectServe {
    /// Fresh snapshots over the serving base catalog and an empty cache.
    pub fn new() -> DirectServe {
        let config = ServerConfig::default();
        DirectServe {
            engine: config.engine,
            cache: PlanCache::new(config.cache_capacity),
            snapshots: SnapshotCatalog::new(serve_catalog(SERVE_ROWS)),
            exec: ExecConfig::serial(),
        }
    }

    /// `SnapshotCatalog::snapshot`.
    pub fn snapshot(&self) -> Snap {
        self.snapshots.snapshot()
    }

    /// `PlanCache::prepare_text` against the snapshot's schema.
    pub fn prepare(&self, text: &str, snap: &Snap) -> Result<Stmt, Failure> {
        self.cache
            .prepare_text(&self.engine, text, snap.schema())
            .map_err(fail)
    }

    /// The cache's hit counter (a prepare that bumps it was a hit).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// `Prepared::execute_catalog_cfg` at the server's serial config.
    pub fn execute(&self, stmt: &Prepared, snap: &Snap) -> Result<Instance, Failure> {
        stmt.execute_catalog_cfg(snap.catalog(), &self.exec)
            .map_err(fail)
    }

    /// `SnapshotCatalog::update` installing one relation.
    pub fn install(&self, name: String, rel: Instance) -> u64 {
        self.snapshots.update(|cat| {
            cat.insert(name, rel);
        })
    }
}

/// Serial `from_rows` of every named leaf in a snapshot's catalog.
pub fn snap_leaf_convert(snap: &Snap, leaves: &[String]) -> Result<usize, Failure> {
    leaf_convert(snap.catalog(), leaves)
}

// ---------------------------------------------------------------------
// The 100k-row probe join on the morsel executor (a layer phase of the
// serve_hot traced run).
// ---------------------------------------------------------------------

/// `ENGINE_PARALLEL_JOIN` over `R` (1024 rows) and `S` (100k rows).
pub struct ScanJoin {
    cat: Catalog<Instance>,
    stmt: Prepared,
    leaves: Vec<String>,
}

/// Build-side rows of the scan join.
pub const SCAN_BUILD_ROWS: usize = 1024;
/// Probe-side rows of the scan join.
pub const SCAN_PROBE_ROWS: usize = 100_000;

impl ScanJoin {
    /// Builds both relations and prepares the join. The generators have
    /// no random part, so there is no seed.
    pub fn new() -> Result<ScanJoin, Failure> {
        let cat: Catalog<Instance> = [
            ("R", parallel_build_side(SCAN_BUILD_ROWS)),
            ("S", parallel_probe_side(SCAN_PROBE_ROWS)),
        ]
        .into_iter()
        .collect();
        let stmt = Engine::new()
            .prepare_text_schema(ENGINE_PARALLEL_JOIN, &parallel_schema())
            .map_err(fail)?;
        let leaves = plan_leaves(&stmt);
        Ok(ScanJoin { cat, stmt, leaves })
    }

    /// `Prepared::execute_catalog_cfg` at `threads` workers.
    pub fn execute(&self, threads: usize) -> Result<Instance, Failure> {
        self.stmt
            .execute_catalog_cfg(&self.cat, &ExecConfig::with_threads(threads))
            .map_err(fail)
    }

    /// Row-at-a-time `Query::eval_catalog` of the optimized query.
    pub fn reference(&self) -> Result<Instance, Failure> {
        eval_rows(self.stmt.query(), &self.cat)
    }

    /// Serial `from_rows` of every relation the plan reads.
    pub fn leaf_convert(&self) -> Result<usize, Failure> {
        leaf_convert(&self.cat, &self.leaves)
    }
}

// ---------------------------------------------------------------------
// pc_exact: exact answer distributions over chain pc-catalogs.
// ---------------------------------------------------------------------

/// Variables per relation of the chain pc-catalogs (16 shared in all).
/// At 7 (19 shared) the BDD path overflows `Rat` on some seeds (catalog
/// seeds 328 and 2604 of 0..3000); at 6 none of 0..10000 does.
pub const PC_VARS_PER_REL: u32 = 6;
/// Join-key pool of the chain pc-catalogs.
pub const PC_KEYS: i64 = 4;

/// `ENGINE_CHAIN_NAIVE` over rotating `chain_pc_catalog` inputs.
pub struct PcExact {
    stmt: Prepared,
    cats: Vec<Catalog<PcTable<Rat>>>,
}

impl PcExact {
    /// `chain_pc_catalog(6, 4, seed + k)` for `k in 0..inputs`.
    pub fn new(seed: u64, inputs: u64) -> Result<PcExact, Failure> {
        let stmt = Engine::new()
            .prepare_text_schema(ENGINE_CHAIN_NAIVE, &chain_schema())
            .map_err(fail)?;
        let cats = (0..inputs)
            .map(|k| chain_pc_catalog(PC_VARS_PER_REL, PC_KEYS, seed.wrapping_add(k)))
            .collect();
        Ok(PcExact { stmt, cats })
    }

    /// Number of distinct inputs.
    pub fn inputs(&self) -> usize {
        self.cats.len()
    }

    /// `Prepared::answer_dist_catalog` on input `k`.
    pub fn answer(&self, k: usize) -> Result<Dist, Failure> {
        self.stmt.answer_dist_catalog(&self.cats[k]).map_err(fail)
    }

    /// The Thm 9 closure alone: `PcTable::run_catalog` of the optimized
    /// query on input `k`.
    pub fn closure(&self, k: usize) -> Result<PcAnswer, Failure> {
        PcTable::run_catalog(&self.cats[k], self.stmt.query()).map_err(fail)
    }

    /// An independent exact path: the naive plan's closure, then Shannon
    /// expansion (`answering::answer_marginals`) instead of BDD + WMC.
    pub fn reference(&self, k: usize) -> Result<Dist, Failure> {
        let answered =
            PcTable::run_catalog(&self.cats[k], self.stmt.naive_query()).map_err(fail)?;
        answering::answer_marginals(&answered, &Query::Input).map_err(fail)
    }

    /// The schema the query is prepared over.
    pub fn schema() -> Schema {
        chain_schema()
    }
}

/// `PcTable::marginals_bdd_traced`: probabilities of a closure's answer
/// tuples, with the shared manager's counters.
pub fn marginals(answer: &PcAnswer) -> Result<(Dist, BddStats), Failure> {
    answer.marginals_bdd_traced().map_err(fail)
}

/// `(rows, Σ Condition::size)` of a c-table.
pub fn table_shape(t: &CTable) -> (usize, usize) {
    (t.rows().len(), t.rows().iter().map(|r| r.cond.size()).sum())
}

/// The c-table underneath a pc-table answer.
pub fn pc_table(answer: &PcAnswer) -> &CTable {
    answer.table()
}

// ---------------------------------------------------------------------
// ctable_join: the c-table algebra on a variable-keyed self-join.
// ---------------------------------------------------------------------

/// Rows of each `ctable_join` input.
pub const CT_ROWS: usize = 64;

/// `ENGINE_PRODUCT_HEAVY` over rotating `random_ctable` inputs.
pub struct CtableJoin {
    stmt: Prepared,
    tables: Vec<CTable>,
}

impl CtableJoin {
    /// `random_ctable(64, 2, 6, 4, seed + k)` for `k in 0..inputs`.
    pub fn new(seed: u64, inputs: u64) -> Result<CtableJoin, Failure> {
        let stmt = Engine::new()
            .prepare_text(ENGINE_PRODUCT_HEAVY, 2)
            .map_err(fail)?;
        let tables = (0..inputs)
            .map(|k| random_ctable(CT_ROWS, 2, 6, 4, seed.wrapping_add(k)))
            .collect();
        Ok(CtableJoin { stmt, tables })
    }

    /// Number of distinct inputs.
    pub fn inputs(&self) -> usize {
        self.tables.len()
    }

    /// `Prepared::execute` (the c-table `Backend::run`) on input `k`.
    pub fn run(&self, k: usize) -> Result<CTable, Failure> {
        self.stmt.execute(&self.tables[k]).map_err(fail)
    }

    /// `Prepared::execute_naive` on input `k`: the unoptimized plan.
    pub fn reference(&self, k: usize) -> Result<CTable, Failure> {
        self.stmt.execute_naive(&self.tables[k]).map_err(fail)
    }

    /// The single-input schema the query is prepared over.
    pub fn schema() -> Schema {
        Schema::single(2)
    }
}
