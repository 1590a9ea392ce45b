//! Query answering on probabilistic c-tables: three engines.
//!
//! §7–§8 of the paper: the probability that a tuple `t` appears in a
//! query answer is the probability of `t`'s *event expression* — the
//! condition decorating `t` in `q̄(T)`. This module computes it three
//! ways, cheapest-to-build first:
//!
//! 1. [`tuple_prob_enum`] — enumerate the whole valuation space
//!    (exponential in the number of variables, always applicable);
//! 2. [`tuple_prob_shannon`] — Shannon expansion of the tuple's presence
//!    condition with memoization on residual conditions (touches only
//!    the variables the condition mentions);
//! 3. [`PcTable::tuple_prob_bdd`] / [`PcTable::answer_dist_bdd`] — the
//!    finite-domain BDD path: every variable is one-hot encoded
//!    (`ipdb_bdd::FdEncoding`; a boolean variable is a `{false, true}`
//!    domain), so arbitrary `Eq`/`Neq` conditions compile, and the
//!    answer distribution is computed by domain-aware WMC with one
//!    manager shared across all answer tuples.
//!
//! All engines agree exactly (property-tested with `Rat`, including the
//! `prob_oracle` differential suite in `ipdb-engine`); the benches in
//! `ipdb-bench` measure the crossovers.

use std::collections::{BTreeMap, BTreeSet};

use ipdb_bdd::Weight;
use ipdb_logic::{Condition, Term, Valuation, Var};
use ipdb_rel::{Domain, Tuple, Value};
use ipdb_tables::{algebra, CTable};

use crate::error::ProbError;
use crate::pctable::PcTable;
use crate::space::FiniteSpace;

/// The *presence condition* of tuple `t` in a c-table: the event
/// expression `⋁_{rows (s:φ)} (s = t ∧ φ)` — exactly the condition `t`
/// would carry in the table after merging rows (and the tuple's lineage,
/// §9).
pub fn presence_condition(table: &CTable, t: &Tuple) -> Condition {
    let t_terms: Vec<Term> = t.iter().map(|v| Term::Const(v.clone())).collect();
    Condition::or(
        table.rows().iter().map(|row| {
            Condition::and([algebra::tuples_eq(&row.tuple, &t_terms), row.cond.clone()])
        }),
    )
}

/// `P[φ]` by Shannon expansion over the variables' finite distributions,
/// with memoization on the (folded) residual condition.
///
/// Branch on the first variable of the residual: each outcome
/// contributes `P[x = a] · P[φ[x:=a]]`. Residuals that fold to
/// `true`/`false` terminate immediately, and the memo table catches the
/// (frequent, for event expressions) coinciding residuals.
pub fn prob_of_condition<W: Weight>(
    cond: &Condition,
    dists: &BTreeMap<Var, FiniteSpace<Value, W>>,
) -> Result<W, ProbError> {
    for v in cond.vars() {
        if !dists.contains_key(&v) {
            return Err(ProbError::MissingDistribution(v));
        }
    }
    let mut memo: BTreeMap<Condition, W> = BTreeMap::new();
    fn rec<W: Weight>(
        cond: &Condition,
        dists: &BTreeMap<Var, FiniteSpace<Value, W>>,
        memo: &mut BTreeMap<Condition, W>,
    ) -> Result<W, ProbError> {
        match cond {
            Condition::True => return Ok(W::one()),
            Condition::False => return Ok(W::zero()),
            _ => {}
        }
        if let Some(p) = memo.get(cond) {
            return Ok(p.clone());
        }
        let v = *cond
            .vars()
            .iter()
            .next()
            .expect("non-constant condition has a variable");
        let mut acc = W::zero();
        for (val, p) in dists[&v].iter() {
            let step = Valuation::from_iter([(v, val.clone())]);
            let residual = cond.partial_eval(&step);
            let branch = p
                .checked_mul(&rec(&residual, dists, memo)?)
                .ok_or(ProbError::Overflow)?;
            acc = acc.checked_add(&branch).ok_or(ProbError::Overflow)?;
        }
        memo.insert(cond.clone(), acc.clone());
        Ok(acc)
    }
    rec(&cond.simplify(), dists, &mut memo)
}

/// Engine 1: `P[t ∈ I]` by full enumeration of `Mod(T)`.
pub fn tuple_prob_enum<W: Weight>(pc: &PcTable<W>, t: &Tuple) -> Result<W, ProbError> {
    pc.tuple_prob_enum(t)
}

/// Engine 2: `P[t ∈ I]` by Shannon expansion of the presence condition.
pub fn tuple_prob_shannon<W: Weight>(pc: &PcTable<W>, t: &Tuple) -> Result<W, ProbError> {
    let cond = presence_condition(pc.table(), t);
    prob_of_condition(&cond, pc.dists())
}

/// The candidate answer tuples of a pc-table: every row's tuple grounded
/// over the domains (distribution supports) of its own tuple variables,
/// deduplicated in canonical order. Cheaper than materializing `Mod`,
/// and complete: every tuple with non-zero marginal is among these.
/// Shared by the Shannon ([`answer_marginals`]) and BDD
/// ([`PcTable::marginals_bdd`]) paths so their candidate semantics
/// cannot drift apart.
pub(crate) fn candidate_tuples<W: Weight>(pc: &PcTable<W>) -> Result<BTreeSet<Tuple>, ProbError> {
    let mut out = BTreeSet::new();
    for row in pc.table().rows() {
        let mut row_vars: Vec<Var> = row.tuple.iter().filter_map(Term::as_var).collect();
        row_vars.sort_unstable();
        row_vars.dedup();
        let doms: BTreeMap<Var, Domain> = row_vars
            .iter()
            .map(|v| {
                let d = Domain::new(pc.dists()[v].iter().map(|(val, _)| val.clone()));
                (*v, d)
            })
            .collect();
        for nu in Valuation::all_over(&doms) {
            out.insert(row.apply(&nu)?);
        }
    }
    Ok(out)
}

/// The full answer-tuple marginal table for `q` over `pc`: every
/// possible answer tuple with its probability (computed with the Shannon
/// engine), in canonical tuple order.
///
/// This is the §7 question ("the probability of tuples appearing in
/// query answers") answered through the Thm 9 closure.
pub fn answer_marginals<W: Weight>(
    pc: &PcTable<W>,
    q: &ipdb_rel::Query,
) -> Result<Vec<(Tuple, W)>, ProbError> {
    let answered = pc.eval_query(q)?;
    let mut out = Vec::new();
    for t in candidate_tuples(&answered)? {
        let p = tuple_prob_shannon(&answered, &t)?;
        if !p.is_zero() {
            out.push((t, p));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pctable::BooleanPcTable;
    use crate::rat;
    use crate::rat::Rat;
    use crate::space::FiniteSpace;
    use ipdb_logic::VarGen;
    use ipdb_rel::{tuple, Pred, Query};
    use ipdb_tables::{t_const, t_var, BooleanCTable};

    fn uniform(vals: &[i64]) -> FiniteSpace<Value, Rat> {
        let n = vals.len() as i128;
        FiniteSpace::new(vals.iter().map(|v| (Value::from(*v), Rat::new(1, n)))).unwrap()
    }

    fn small_pc() -> PcTable<Rat> {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let table = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        PcTable::new(table, [(x, uniform(&[1, 2, 3])), (y, uniform(&[1, 2, 3]))]).unwrap()
    }

    #[test]
    fn presence_condition_shape() {
        let pc = small_pc();
        let c = presence_condition(pc.table(), &tuple![9]);
        // (9 = x ∧ true) ∨ (9 = 9 ∧ x = y) — first disjunct keeps x=9,
        // second folds to x=y.
        assert!(c.vars().len() == 2);
    }

    #[test]
    fn three_engines_agree_on_small_pc() {
        let pc = small_pc();
        for t in [tuple![1], tuple![2], tuple![9], tuple![7]] {
            let e = tuple_prob_enum(&pc, &t).unwrap();
            let s = tuple_prob_shannon(&pc, &t).unwrap();
            assert_eq!(e, s, "tuple {t}");
        }
        // Hand-checked: P[(1)] = P[x=1] = 1/3;
        // P[(9)] = P[x=y] = 1/3 (9 not in dom(x)).
        assert_eq!(tuple_prob_shannon(&pc, &tuple![1]).unwrap(), rat!(1, 3));
        assert_eq!(tuple_prob_shannon(&pc, &tuple![9]).unwrap(), rat!(1, 3));
    }

    #[test]
    fn bdd_engine_agrees_on_boolean_tables() {
        let (a, b) = (Var(0), Var(1));
        let mut bt = BooleanCTable::new(1);
        bt.push(
            tuple![1],
            Condition::or([Condition::bvar(a), Condition::bvar(b)]),
        )
        .unwrap();
        bt.push(
            tuple![2],
            Condition::and([Condition::bvar(a), Condition::nbvar(b)]),
        )
        .unwrap();
        let bpc = BooleanPcTable::new(bt, [(a, rat!(1, 2)), (b, rat!(1, 4))]).unwrap();
        for t in [tuple![1], tuple![2], tuple![3]] {
            let e = tuple_prob_enum(bpc.as_pctable(), &t).unwrap();
            let s = tuple_prob_shannon(bpc.as_pctable(), &t).unwrap();
            let d = bpc.as_pctable().tuple_prob_bdd(&t).unwrap();
            assert_eq!(e, s, "tuple {t}");
            assert_eq!(e, d, "tuple {t}");
        }
        // P[(1)] = 1 - 1/2·3/4 = 5/8.
        assert_eq!(
            bpc.as_pctable().tuple_prob_bdd(&tuple![1]).unwrap(),
            rat!(5, 8)
        );
    }

    #[test]
    fn fd_bdd_engine_agrees_on_general_tables() {
        // small_pc has non-boolean atoms (x = 1, x = y); the one-hot
        // encoding handles them like boolean ones.
        let pc = small_pc();
        for t in [tuple![1], tuple![2], tuple![9], tuple![7]] {
            let e = tuple_prob_enum(&pc, &t).unwrap();
            let s = tuple_prob_shannon(&pc, &t).unwrap();
            let d = pc.tuple_prob_bdd(&t).unwrap();
            assert_eq!(e, d, "enum vs bdd on tuple {t}");
            assert_eq!(s, d, "shannon vs bdd on tuple {t}");
        }
        assert_eq!(pc.tuple_prob_bdd(&tuple![9]).unwrap(), rat!(1, 3));
    }

    #[test]
    fn answer_dist_bdd_matches_enum_and_shannon_marginals() {
        let pc = small_pc();
        for q in [
            Query::Input,
            Query::select(Query::Input, Pred::neq_const(0, 9)),
            Query::union(Query::Input, Query::Lit(ipdb_rel::instance![[2]])),
        ] {
            let bdd = pc.answer_dist_bdd(&q).unwrap();
            assert_eq!(bdd, pc.answer_dist_enum(&q).unwrap(), "query {q}");
            assert_eq!(bdd, answer_marginals(&pc, &q).unwrap(), "query {q}");
        }
    }

    #[test]
    fn prob_of_condition_basics() {
        let x = Var(0);
        let dists = BTreeMap::from([(x, uniform(&[1, 2, 3, 4]))]);
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(x, 1), &dists).unwrap(),
            rat!(1, 4)
        );
        assert_eq!(
            prob_of_condition(&Condition::neq_vc(x, 1), &dists).unwrap(),
            rat!(3, 4)
        );
        assert_eq!(
            prob_of_condition(&Condition::True, &dists).unwrap(),
            Rat::ONE
        );
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(x, 77), &dists).unwrap(),
            Rat::ZERO
        );
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(Var(9), 1), &dists),
            Err(ProbError::MissingDistribution(Var(9)))
        );
    }

    #[test]
    fn answer_marginals_on_query() {
        let pc = small_pc();
        // σ_{#1≠9}(V): drops the 9 row unless... keeps x-row tuples ≠ 9.
        let q = Query::select(Query::Input, Pred::neq_const(0, 9));
        let m = answer_marginals(&pc, &q).unwrap();
        // Possible answers: 1, 2, 3 each with P = 1/3.
        assert_eq!(m.len(), 3);
        for (t, p) in &m {
            assert_eq!(*p, rat!(1, 3), "tuple {t}");
        }
    }

    #[test]
    fn answer_marginals_match_mod_space() {
        let pc = small_pc();
        let q = Query::union(Query::Input, Query::Lit(ipdb_rel::instance![[2]]));
        let m = answer_marginals(&pc, &q).unwrap();
        let answered = pc.eval_query(&q).unwrap().mod_space().unwrap();
        for (t, p) in &m {
            assert_eq!(*p, answered.tuple_prob(t), "tuple {t}");
        }
        // And (2) is now certain.
        assert!(m.contains(&(tuple![2], Rat::ONE)));
    }
}
