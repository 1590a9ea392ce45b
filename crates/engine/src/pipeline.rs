//! The front door: parse/plan/optimize once, execute anywhere.
//!
//! [`Engine::prepare`] (or [`Engine::prepare_text`] for the surface
//! syntax) runs the first three pipeline stages — parse, plan,
//! optimize — and returns a [`Prepared`] statement holding both the
//! naive and the optimized plan. [`Prepared::explain`] shows what the
//! optimizer did. Multi-relation queries prepare against a named
//! [`Schema`] ([`Engine::prepare_schema`] /
//! [`Engine::prepare_text_schema`]).
//!
//! Execution has one entry, [`Prepared::run`], and answer distributions
//! one, [`Prepared::answer_dist`]; both take any [`Source`] — a single
//! relation (bound as `V`) or a [`Catalog`] — and [`RunOpts`] (executor
//! configuration, `EXPLAIN ANALYZE` on or off), and return the report
//! when one was asked for. [`Prepared::execute`] and the other named
//! methods are shorthands for common options.

use std::time::Instant;

use ipdb_prob::{PcTable, Weight};
use ipdb_rel::{Query, Schema, Tuple};

use crate::backend::{Backend, Catalog, Input, RunOpts, Source};
use crate::error::EngineError;
use crate::morsel::ExecConfig;
use crate::optimize::{optimize_plan_stats, OptimizeStats};
use crate::parser;
use crate::plan::Plan;
use crate::report::{elapsed_ns, QueryReport};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Whether `prepare` runs the optimizer (on by default; turn off to
    /// compare naive evaluation, as `bench_engine` does).
    pub optimize: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine { optimize: true }
    }
}

impl Engine {
    /// An engine with default settings (optimizer on).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Plans and optimizes a query for inputs of the given arity.
    pub fn prepare(&self, q: &Query, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare_schema(q, &Schema::single(input_arity))
    }

    /// Plans and optimizes a query over an arbitrary named [`Schema`].
    pub fn prepare_schema(&self, q: &Query, schema: &Schema) -> Result<Prepared, EngineError> {
        let naive = Plan::from_query_schema(q, schema)?;
        let (optimized, optimize_stats) = if self.optimize {
            let (optimized, stats) = optimize_plan_stats(&naive);
            // Same invariant `optimize_plan` pins: the pass bound must
            // have sufficed (see `crate::optimize`).
            debug_assert!(
                stats.converged,
                "optimizer exhausted its fixpoint bound without converging \
                 ({} passes on a depth-{} plan)",
                stats.passes,
                naive.depth()
            );
            (optimized, stats)
        } else {
            (
                naive.clone(),
                OptimizeStats {
                    passes: 0,
                    converged: true,
                },
            )
        };
        // Lower both plans once here so repeated `execute` calls don't
        // pay a per-call plan-to-AST conversion.
        let naive_query = naive.to_query();
        let optimized_query = optimized.to_query();
        Ok(Prepared {
            schema: schema.clone(),
            naive,
            optimized,
            naive_query,
            optimized_query,
            optimize_stats,
        })
    }

    /// Parses the surface syntax, then plans and optimizes.
    pub fn prepare_text(&self, src: &str, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare(&parser::parse(src)?, input_arity)
    }

    /// Parses the surface syntax, then plans and optimizes over a named
    /// [`Schema`].
    pub fn prepare_text_schema(&self, src: &str, schema: &Schema) -> Result<Prepared, EngineError> {
        self.prepare_schema(&parser::parse(src)?, schema)
    }
}

/// A planned (and possibly optimized) query, ready to execute on any
/// backend whose input arity matches (or any catalog implementing the
/// prepared schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    schema: Schema,
    naive: Plan,
    optimized: Plan,
    naive_query: Query,
    optimized_query: Query,
    optimize_stats: OptimizeStats,
}

impl Prepared {
    /// The schema the statement was prepared over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The arity of the reserved input relation `V` in the prepared
    /// schema — the classic single-input convention. `None` when the
    /// schema declares no `V` at all (purely named schemas), which is
    /// distinct from `Some(0)`, a declared nullary input: conflating
    /// the two is what let schema-validation paths misclassify named
    /// statements as nullary single-input ones.
    pub fn input_arity(&self) -> Option<usize> {
        self.schema.arity_of(Schema::INPUT)
    }

    /// Whether the prepared schema declares the reserved input `V` —
    /// i.e. whether [`Prepared::execute`]-style single-input calls can
    /// apply at all.
    pub fn has_input(&self) -> bool {
        self.schema.arity_of(Schema::INPUT).is_some()
    }

    /// The plan as written (arity-annotated, unoptimized).
    pub fn naive_plan(&self) -> &Plan {
        &self.naive
    }

    /// The optimized plan.
    pub fn plan(&self) -> &Plan {
        &self.optimized
    }

    /// The optimized query, lowered back to the executable AST (cached
    /// at `prepare` time).
    pub fn query(&self) -> &Query {
        &self.optimized_query
    }

    /// The original query, lowered back without optimization.
    pub fn naive_query(&self) -> &Query {
        &self.naive_query
    }

    /// Output arity of the statement.
    pub fn output_arity(&self) -> usize {
        self.optimized.arity
    }

    /// Before/after plan trees, for humans.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("naive plan:\n");
        out.push_str(&self.naive.render_tree());
        if self.optimized == self.naive {
            out.push_str("optimized plan: (unchanged)\n");
        } else {
            out.push_str("optimized plan:\n");
            out.push_str(&self.optimized.render_tree());
        }
        out
    }

    /// Executes the optimized plan against a source under `opts`:
    /// the output, plus a [`QueryReport`] when `opts.analyze` is set —
    /// per-operator cardinalities, selectivity, inclusive/exclusive
    /// timings, the hash join's build side, and (on the c-/pc-table
    /// backends) rows pruned by condition simplification. The output is
    /// identical either way.
    ///
    /// A single relation must match the prepared `V` arity
    /// ([`EngineError::InputArityMismatch`]); a catalog must supply
    /// every relation the prepared schema declares, at the declared
    /// arity ([`EngineError::MissingRelation`] /
    /// [`EngineError::RelationArity`] otherwise).
    pub fn run<'a, S: Source<'a>>(
        &self,
        input: S,
        opts: &RunOpts,
    ) -> Result<(<S::Backend as Backend>::Output, Option<QueryReport>), EngineError> {
        let input = input.input();
        self.check(input)?;
        let t0 = opts.analyze.then(Instant::now);
        let (out, root) = S::Backend::run(input, &self.optimized_query, opts)?;
        let report = root.zip(t0).map(|(root, t0)| QueryReport {
            backend: S::Backend::NAME,
            root,
            total_ns: elapsed_ns(t0),
            optimize: self.optimize_stats,
            bdd: None,
        });
        Ok((out, report))
    }

    /// [`Prepared::run`] with default options: untraced, executor
    /// configured by [`ExecConfig::from_env`].
    pub fn execute<'a, S: Source<'a>>(
        &self,
        input: S,
    ) -> Result<<S::Backend as Backend>::Output, EngineError> {
        Ok(self.run(input, &RunOpts::default())?.0)
    }

    /// Executes the *unoptimized* plan — the differential baseline for
    /// [`Prepared::execute`] (and what `bench_engine` compares against).
    pub fn execute_naive<'a, S: Source<'a>>(
        &self,
        input: S,
    ) -> Result<<S::Backend as Backend>::Output, EngineError> {
        let input = input.input();
        self.check(input)?;
        Ok(S::Backend::run(input, &self.naive_query, &RunOpts::default())?.0)
    }

    /// Untraced execution against a catalog under `cfg` (how a server
    /// worker runs a request).
    pub fn execute_catalog_cfg<B: Backend>(
        &self,
        cat: &Catalog<B>,
        cfg: &ExecConfig,
    ) -> Result<B::Output, EngineError> {
        Ok(self.run(cat, &RunOpts::with(cfg.clone()))?.0)
    }

    /// The full answer distribution over pc-tables — every possible
    /// answer tuple with its exact probability — via the **BDD fast
    /// path**: the optimized plan runs through the pruning c-table
    /// executor (Thm 9 closure; a catalog's relations share one
    /// variable namespace), then every answer tuple's presence condition
    /// is compiled under the finite-domain one-hot encoding and
    /// weighted-model-counted with one shared `BddManager`
    /// ([`PcTable::marginals_bdd`]). No walk over the §8 valuation
    /// product space.
    ///
    /// With `opts.analyze`, the report's operator tree covers the
    /// c-table execution, its [`QueryReport::bdd`] carries the manager's
    /// counters from the WMC phase, and its total includes that phase.
    #[allow(clippy::type_complexity)]
    pub fn answer_dist<'a, W: Weight, S: Source<'a, Backend = PcTable<W>>>(
        &self,
        input: S,
        opts: &RunOpts,
    ) -> Result<(Vec<(Tuple, W)>, Option<QueryReport>), EngineError> {
        let (answer, report) = self.run(input, opts)?;
        let Some(mut report) = report else {
            return Ok((answer.marginals_bdd()?, None));
        };
        let t0 = Instant::now();
        let (dist, bdd) = answer.marginals_bdd_traced()?;
        report.total_ns = report.total_ns.saturating_add(elapsed_ns(t0));
        report.bdd = Some(bdd);
        Ok((dist, Some(report)))
    }

    /// Untraced [`Prepared::answer_dist`] over a pc-table catalog.
    pub fn answer_dist_catalog<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.answer_dist(cat, &RunOpts::default())?.0)
    }

    /// The same answer distribution by full valuation enumeration over
    /// the *naive* plan's result — exponential in the number of
    /// variables. Kept reachable as the differential oracle for
    /// [`Prepared::answer_dist`] (see `tests/prob_oracle.rs` and the
    /// `bench_smoke` pc-table series).
    pub fn answer_dist_enum<'a, W: Weight, S: Source<'a, Backend = PcTable<W>>>(
        &self,
        input: S,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute_naive(input)?.mod_space()?.marginals())
    }

    /// What the optimizer's fixpoint loop did when this statement was
    /// prepared (pass count, convergence). `passes == 0` means the
    /// optimizer was disabled.
    pub fn optimize_stats(&self) -> OptimizeStats {
        self.optimize_stats
    }

    /// Executes against `input` and renders the annotated operator tree
    /// — `EXPLAIN ANALYZE` for humans (the output itself is discarded;
    /// use [`Prepared::run`] with [`RunOpts::analyzed`] to keep both).
    pub fn explain_analyze<'a, S: Source<'a>>(&self, input: S) -> Result<String, EngineError> {
        let (_, report) = self.run(input, &RunOpts::analyzed())?;
        Ok(report.map(|r| r.render()).unwrap_or_default())
    }

    /// Checks an input against the prepared schema before execution.
    fn check<B: Backend>(&self, input: Input<'_, B>) -> Result<(), EngineError> {
        let cat = match input {
            Input::Catalog(cat) => cat,
            Input::Single(rel) => {
                return match self.schema.arity_of(Schema::INPUT) {
                    // Prepared over a purely named schema: a bare input
                    // has no name to bind to — same error a `V` leaf
                    // would report.
                    None => Err(EngineError::Rel(ipdb_rel::RelError::UnknownRelation {
                        name: Schema::INPUT.to_string(),
                    })),
                    Some(expected) if rel.input_arity() != expected => {
                        Err(EngineError::InputArityMismatch {
                            expected,
                            got: rel.input_arity(),
                        })
                    }
                    Some(_) => Ok(()),
                };
            }
        };
        for (name, expected) in self.schema.iter() {
            match cat.get(name) {
                None => {
                    return Err(EngineError::MissingRelation {
                        name: name.to_string(),
                    })
                }
                Some(rel) if rel.input_arity() != expected => {
                    return Err(EngineError::RelationArity {
                        name: name.to_string(),
                        expected,
                        got: rel.input_arity(),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::{instance, Instance};

    #[test]
    fn prepare_text_and_execute() {
        let engine = Engine::new();
        let stmt = engine
            .prepare_text("pi[1](sigma[and(#0=1,#1=#3)](V x V))", 2)
            .unwrap();
        assert_eq!(stmt.input_arity(), Some(2));
        assert!(stmt.has_input());
        assert_eq!(stmt.output_arity(), 1);
        let i = instance![[1, 10], [2, 10], [2, 20]];
        let out = stmt.execute(&i).unwrap();
        assert_eq!(out, instance![[10]]);
        assert_eq!(out, stmt.execute_naive(&i).unwrap());
    }

    #[test]
    fn explain_shows_both_plans() {
        let stmt = Engine::new()
            .prepare_text("sigma[#0=1](sigma[#1=2](V))", 2)
            .unwrap();
        let text = stmt.explain();
        assert!(text.contains("naive plan:"));
        assert!(text.contains("optimized plan:"));
        assert!(text.contains("and(#1=2,#0=1)"));
        // The fused plan is strictly shallower.
        assert!(stmt.plan().depth() < stmt.naive_plan().depth());
    }

    #[test]
    fn sigma_product_prepares_to_a_hash_join() {
        // The acceptance-criterion shape: σ_{#0=#2}(R × S) must show a
        // Join node in explain() and execute identically to the naive
        // filtered product.
        let stmt = Engine::new()
            .prepare_text("sigma[#0=#2](V x V)", 2)
            .unwrap();
        let text = stmt.explain();
        assert!(text.contains("join[#0=#2]"), "explain was:\n{text}");
        assert!(!format!("{:?}", stmt.plan()).contains("Product"));
        let i = instance![[1, 10], [2, 20], [1, 30]];
        assert_eq!(stmt.execute(&i).unwrap(), stmt.execute_naive(&i).unwrap());
        assert_eq!(stmt.execute(&i).unwrap().len(), 5);
    }

    #[test]
    fn explain_notes_unchanged_plans() {
        let stmt = Engine::new().prepare_text("V", 2).unwrap();
        assert!(stmt.explain().contains("(unchanged)"));
    }

    #[test]
    fn optimizer_can_be_disabled() {
        let engine = Engine { optimize: false };
        let stmt = engine.prepare_text("sigma[true](V)", 2).unwrap();
        assert_eq!(stmt.query(), stmt.naive_query());
        let on = Engine::new().prepare_text("sigma[true](V)", 2).unwrap();
        assert_ne!(on.query(), on.naive_query());
    }

    #[test]
    fn arity_mismatch_is_rejected_at_execute() {
        let stmt = Engine::new().prepare_text("V", 2).unwrap();
        let narrow = Instance::empty(1);
        assert_eq!(
            stmt.execute(&narrow),
            Err(EngineError::InputArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn prepare_rejects_ill_typed_text() {
        assert!(Engine::new().prepare_text("pi[4](V)", 2).is_err());
        assert!(Engine::new().prepare_text("pi[4(V)", 2).is_err());
    }

    #[test]
    fn prepare_schema_and_execute_catalog() {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("join[#0=#2](R, S)", &schema)
            .unwrap();
        assert_eq!(stmt.schema(), &schema);
        assert_eq!(stmt.output_arity(), 4);
        // No V in this schema: the classic accessor says so (`None`,
        // not a fake arity 0) and single-input execution errors
        // gracefully.
        assert_eq!(stmt.input_arity(), None);
        assert!(!stmt.has_input());
        // ... whereas a genuinely declared nullary `V` is `Some(0)`.
        let nullary = Engine::new()
            .prepare_schema(&Query::Input, &Schema::single(0))
            .unwrap();
        assert_eq!(nullary.input_arity(), Some(0));
        assert!(nullary.has_input());
        assert!(matches!(
            stmt.execute(&instance![[1, 2]]),
            Err(EngineError::Rel(ipdb_rel::RelError::UnknownRelation { .. }))
        ));

        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [5, 6]]),
            ("S", instance![[1, 9], [6, 0]]),
        ]
        .into_iter()
        .collect();
        let out = stmt.execute(&cat).unwrap();
        assert_eq!(out, instance![[1, 2, 1, 9]]);
        assert_eq!(out, stmt.execute_naive(&cat).unwrap());

        // Round-trip of the named surface text.
        let text = parser::render(stmt.naive_query());
        assert_eq!(parser::parse(&text).unwrap(), *stmt.naive_query());

        // Catalog checks: missing relation, wrong arity.
        let missing: Catalog<Instance> = [("R", instance![[1, 2]])].into_iter().collect();
        assert_eq!(
            stmt.execute(&missing),
            Err(EngineError::MissingRelation { name: "S".into() })
        );
        let narrow: Catalog<Instance> = [("R", instance![[1, 2]]), ("S", instance![[9]])]
            .into_iter()
            .collect();
        assert_eq!(
            stmt.execute(&narrow),
            Err(EngineError::RelationArity {
                name: "S".into(),
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn classic_prepare_runs_against_a_v_catalog() {
        // Single-input statements are the special case of catalogs keyed
        // by the reserved name V — the alias claim end to end.
        let stmt = Engine::new()
            .prepare_text("sigma[#0=#1](V x V)", 1)
            .unwrap();
        let i = instance![[1], [2]];
        let cat: Catalog<Instance> = [("V", i.clone())].into_iter().collect();
        assert_eq!(stmt.execute(&cat).unwrap(), stmt.execute(&i).unwrap());
    }

    #[test]
    fn prepare_schema_rejects_bad_relation_names() {
        let schema = Schema::new([("R", 1)]).unwrap();
        // Reserved word as a Rel leaf (constructed, not parsed).
        let q = Query::Rel("pi".into());
        assert_eq!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { name: "pi".into() })
        );
        // Non-identifier name.
        let q = Query::Rel("not ident".into());
        assert!(matches!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { .. })
        ));
        // Non-canonical alias spelling is rejected too (use Query::rel).
        let q = Query::Rel("V".into());
        assert!(matches!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { .. })
        ));
    }

    #[test]
    fn rat_overflow_surfaces_as_error_from_answer_dist() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{FiniteSpace, PcTable, ProbError, Rat};
        use ipdb_rel::Value;
        use ipdb_tables::{t_const, t_var, CTable};

        // Adversarial denominators (~1e18 each) push the WMC and the
        // enumeration normalization past i128: both public engine entry
        // points must return ProbError::Overflow, never panic.
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        const D: i128 = 1_000_000_000_000_000_003;
        let dist = || {
            FiniteSpace::new([
                (Value::from(0), Rat::new(1, D)),
                (Value::from(1), Rat::new(D - 1, D)),
            ])
            .unwrap()
        };
        let t = CTable::builder(1)
            .row(
                [t_var(x)],
                Condition::and([Condition::eq_vc(y, 0), Condition::eq_vc(z, 0)]),
            )
            .row([t_const(9)], Condition::eq_vc(x, 0))
            .build()
            .unwrap();
        let pc = PcTable::new(t, [(x, dist()), (y, dist()), (z, dist())]).unwrap();
        let stmt = Engine::new().prepare_text("sigma[#0!=1](V)", 1).unwrap();
        assert_eq!(
            stmt.answer_dist(&pc, &RunOpts::default())
                .map(|(dist, _)| dist),
            Err(EngineError::Prob(ProbError::Overflow))
        );
        assert_eq!(
            stmt.answer_dist_enum(&pc),
            Err(EngineError::Prob(ProbError::Overflow))
        );
    }

    #[test]
    fn answer_dist_catalog_matches_enumeration() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable, Rat};
        use ipdb_rel::Value;
        use ipdb_tables::{t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let r = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let s = CTable::builder(1)
            .row([t_var(y)], Condition::neq_vv(x, y))
            .build()
            .unwrap();
        let cat: Catalog<PcTable<Rat>> = [
            ("R", PcTable::new(r, [(x, uniform(2))]).unwrap()),
            (
                "S",
                PcTable::new(s, [(x, uniform(2)), (y, uniform(2))]).unwrap(),
            ),
        ]
        .into_iter()
        .collect();
        let schema = Schema::new([("R", 1), ("S", 1)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("R intersect S", &schema)
            .unwrap();
        let bdd = stmt.answer_dist_catalog(&cat).unwrap();
        assert_eq!(bdd, stmt.answer_dist_enum(&cat).unwrap());
        // R ∩ S holds t iff x = t ∧ y = t ∧ x ≠ y: impossible.
        assert!(bdd.is_empty());
    }

    #[test]
    fn execute_analyzed_matches_execute_and_reports_consistently() {
        let stmt = Engine::new()
            .prepare_text("pi[1](sigma[and(#0=1,#1=#3)](V x V))", 2)
            .unwrap();
        let i = instance![[1, 10], [2, 10], [2, 20]];
        let (out, report) = stmt.run(&i, &RunOpts::analyzed()).unwrap();
        let report = report.expect("analyze was requested");
        assert_eq!(out, stmt.execute(&i).unwrap());
        assert_eq!(report.backend, "instance");
        // The caller's clock wraps the operator tree's.
        assert!(report.root.ns <= report.total_ns);
        assert_eq!(report.root.total_exclusive_ns(), report.root.ns);
        assert_eq!(report.root.rows_out, out.len() as u64);
        // Optimizer context rides along.
        assert_eq!(report.optimize, stmt.optimize_stats());
        assert!(report.optimize.converged);
        assert!(report.optimize.passes >= 1);
        // And the rendered form carries the header + annotated tree.
        let text = stmt.explain_analyze(&i).unwrap();
        assert!(
            text.contains("EXPLAIN ANALYZE (backend: instance"),
            "{text}"
        );
        assert!(text.contains("rows:"), "{text}");

        // A disabled optimizer reports 0 passes.
        let stmt_off = Engine { optimize: false }.prepare_text("V", 2).unwrap();
        assert_eq!(stmt_off.optimize_stats().passes, 0);
        assert!(stmt_off.optimize_stats().converged);

        // Arity mismatches reject before any execution, as in execute.
        let narrow = Instance::empty(1);
        assert!(matches!(
            stmt.run(&narrow, &RunOpts::analyzed()),
            Err(EngineError::InputArityMismatch { .. })
        ));
    }

    #[test]
    fn analyzed_catalog_and_config_variants_agree() {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("join[#0=#2](R, S)", &schema)
            .unwrap();
        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [5, 6]]),
            ("S", instance![[1, 9], [6, 0]]),
        ]
        .into_iter()
        .collect();
        let expected = stmt.execute(&cat).unwrap();
        let (out, report) = stmt.run(&cat, &RunOpts::analyzed()).unwrap();
        let report = report.expect("analyze was requested");
        assert_eq!(out, expected);
        assert!(report.root.label.starts_with("join["));
        assert_eq!(report.root.build_left, Some(true));
        let cfg = ExecConfig {
            threads: 2,
            morsel_rows: 1,
            metrics: false,
        };
        let opts = RunOpts {
            exec: cfg,
            analyze: true,
        };
        let (out2, report2) = stmt.run(&cat, &opts).unwrap();
        let report2 = report2.expect("analyze was requested");
        assert_eq!(out2, expected);
        assert_eq!(report2.root.rows_out, report.root.rows_out);
        assert!(stmt
            .explain_analyze(&cat)
            .unwrap()
            .contains("EXPLAIN ANALYZE"));
    }

    #[test]
    fn answer_dist_analyzed_matches_and_reports_bdd_stats() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable};
        use ipdb_rel::Value;
        use ipdb_tables::{t_const, t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let pc = PcTable::new(t, [(x, uniform(3)), (y, uniform(3))]).unwrap();
        let stmt = Engine::new()
            .prepare_text("sigma[#0!=1](V union {(9)})", 1)
            .unwrap();
        let (dist, report) = stmt.answer_dist(&pc, &RunOpts::analyzed()).unwrap();
        let report = report.expect("analyze was requested");
        assert_eq!(dist, stmt.answer_dist(&pc, &RunOpts::default()).unwrap().0);
        assert_eq!(report.backend, "pc-table");
        let bdd = report.bdd.expect("probabilistic reports carry BDD stats");
        assert!(bdd.nodes_allocated > 0);
        assert!(bdd.wmc_calls > 0);
        assert!(report.render().contains("bdd:"), "{}", report.render());
    }

    #[test]
    fn answer_dist_bdd_path_matches_enumeration() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable};
        use ipdb_rel::{tuple, Value};
        use ipdb_tables::{t_const, t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let pc = PcTable::new(t, [(x, uniform(3)), (y, uniform(3))]).unwrap();
        let stmt = Engine::new()
            .prepare_text("sigma[#0!=1](V union {(9)})", 1)
            .unwrap();
        let bdd = stmt.answer_dist(&pc, &RunOpts::default()).unwrap().0;
        assert_eq!(bdd, stmt.answer_dist_enum(&pc).unwrap());
        // (9) is certain via the literal; (0) and (2) carry P[x=i] = 1/3.
        assert!(bdd.contains(&(tuple![9], rat!(1))));
        assert!(bdd.contains(&(tuple![0], rat!(1, 3))));
        // Arity mismatches are caught before any compilation.
        let stmt2 = Engine::new().prepare_text("V", 2).unwrap();
        assert!(matches!(
            stmt2.answer_dist(&pc, &RunOpts::default()),
            Err(EngineError::InputArityMismatch { .. })
        ));
    }
}
