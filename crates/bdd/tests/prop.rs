//! Property tests: BDD compilation agrees with condition semantics, the
//! counting engines agree with brute force, and the finite-domain
//! encoding agrees with Shannon-style enumeration.
//!
//! The manager-level properties (`eval`, `sat_count`, `wmc`,
//! `restrict`) run on boolean conditions compiled through the one-hot
//! encoding over `{false, true}` domains: two indicators per variable,
//! with the exactly-one constraint conjoined wherever raw assignments
//! are counted.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_bdd::{BddManager, FdEncoding, NodeRef};
use ipdb_logic::strategies::{arb_boolean_condition, arb_condition};
use ipdb_logic::{sat, Condition, Valuation, Var};
use ipdb_rel::{Domain, Value};

const NVARS: u32 = 4;

fn all_assignments(n: u32) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
}

/// Compiles a boolean condition over `{false, true}` domains; returns
/// the encoding, the condition's BDD, and the boolean domains.
fn compile_boolean(
    m: &mut BddManager,
    c: &Condition,
) -> (FdEncoding, NodeRef, BTreeMap<Var, Domain>) {
    let bools = vec![Value::Bool(false), Value::Bool(true)];
    let enc = FdEncoding::new(m, c.vars().into_iter().map(|v| (v, bools.clone()))).unwrap();
    let f = enc.compile(m, c).unwrap();
    let doms = c.vars().into_iter().map(|v| (v, Domain::bools())).collect();
    (enc, f, doms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_bdd_agrees_with_eval(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, doms) = compile_boolean(&mut m, &c);
        for nu in Valuation::all_over(&doms) {
            let asg = enc.encode_valuation(&nu).unwrap();
            prop_assert_eq!(m.eval(f, &asg), c.eval(&nu).unwrap(), "valuation {}", nu);
        }
    }

    /// Over raw indicator assignments, the consistent models of `f` are
    /// exactly the condition's models.
    #[test]
    fn bdd_sat_count_matches_logic_count(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, doms) = compile_boolean(&mut m, &c);
        let g = m.and(f, enc.consistency());
        prop_assert_eq!(
            m.sat_count(g, enc.nvars()).unwrap(),
            sat::count_models(&c, &doms).unwrap()
        );
    }

    #[test]
    fn wmc_uniform_weights_match_sat_count(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, _) = compile_boolean(&mut m, &c);
        let g = m.and(f, enc.consistency());
        let n = enc.nvars();
        let weights = vec![(0.5f64, 0.5f64); n as usize];
        let p = m.wmc(g, &weights).unwrap();
        let frac = m.sat_count(g, n).unwrap() as f64 / (1u128 << n) as f64;
        prop_assert!((p - frac).abs() < 1e-12);
    }

    /// The finite-domain encoding agrees with plain condition evaluation
    /// on every valuation of the variables over their domains.
    #[test]
    fn fd_encoding_agrees_with_eval(c in arb_condition(3, 2, 3)) {
        let domain: Vec<Value> = (0..=2i64).map(Value::from).collect();
        let mut m = BddManager::new();
        let enc = FdEncoding::new(
            &mut m,
            c.vars().into_iter().map(|v| (v, domain.clone())),
        ).unwrap();
        let f = enc.compile(&mut m, &c).unwrap();
        let doms: BTreeMap<Var, Domain> =
            c.vars().into_iter().map(|v| (v, Domain::ints(0..=2))).collect();
        for nu in Valuation::all_over(&doms) {
            let asg = enc.encode_valuation(&nu).unwrap();
            prop_assert_eq!(m.eval(f, &asg), c.eval(&nu).unwrap(), "valuation {}", nu);
        }
    }

    /// Domain-aware WMC over uniform weights equals the model fraction
    /// computed by the logic crate's enumeration counter.
    #[test]
    fn fd_wmc_matches_enumeration(c in arb_condition(3, 2, 3)) {
        let nvars = c.vars().len() as u32;
        let domain: Vec<Value> = (0..=2i64).map(Value::from).collect();
        let mut m = BddManager::new();
        let enc = FdEncoding::new(
            &mut m,
            c.vars().into_iter().map(|v| (v, domain.clone())),
        ).unwrap();
        let f = enc.compile(&mut m, &c).unwrap();
        let weights: BTreeMap<Var, BTreeMap<Value, f64>> = c
            .vars()
            .into_iter()
            .map(|v| (v, domain.iter().map(|val| (val.clone(), 1.0 / 3.0)).collect()))
            .collect();
        let p = enc.wmc(&mut m, f, &weights).unwrap();
        let doms: BTreeMap<Var, Domain> =
            c.vars().into_iter().map(|v| (v, Domain::ints(0..=2))).collect();
        let models = sat::count_models(&c, &doms).unwrap() as f64;
        let frac = models / 3f64.powi(nvars as i32);
        prop_assert!((p - frac).abs() < 1e-9, "wmc {} vs fraction {}", p, frac);
    }

    #[test]
    fn restrict_agrees_with_semantics(c in arb_boolean_condition(2, 3)) {
        let mut m = BddManager::new();
        let (enc, f, _) = compile_boolean(&mut m, &c);
        let n = enc.nvars();
        if n == 0 {
            return Ok(());
        }
        // Restrict BDD index 0 to true; must agree with eval forcing it.
        let g = m.restrict(f, 0, true);
        for asg in all_assignments(n) {
            let mut forced = asg.clone();
            forced[0] = true;
            prop_assert_eq!(m.eval(g, &asg), m.eval(f, &forced));
        }
    }
}
