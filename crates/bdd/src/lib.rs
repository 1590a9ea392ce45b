//! # `ipdb-bdd` — reduced ordered BDDs and weighted model counting
//!
//! Why this substrate exists: §7–§8 of Green & Tannen reduce query
//! answering on probabilistic tables to computing the probability of the
//! *event expression* (boolean condition) attached to each answer tuple —
//! exactly the "event expressions / paths / traces" of Fuhr–Rölleke,
//! Zimányi, and ProbView that the paper unifies. Computing such a
//! probability is weighted model counting (WMC), and the standard data
//! structure making the tractable cases fast is the reduced ordered
//! binary decision diagram. The probabilistic-database engines descending
//! from this line of work (MystiQ, MayBMS, Trio) all ship such a
//! component; we build it from scratch.
//!
//! * [`BddManager`] — hash-consed ROBDD store with an apply cache:
//!   `var`, `not`, `and`, `or`, `xor`, `ite`, `restrict`, evaluation,
//!   exact satisfying-assignment counting.
//! * [`Weight`] — the numeric abstraction for WMC (implemented here for
//!   `f64`; `ipdb-prob` adds exact rationals).
//! * [`encode`] — condition compilation: [`FdEncoding`] one-hot-encodes
//!   finite-domain variables into indicator blocks (with the exactly-one
//!   domain-consistency constraint), so *arbitrary* `Eq`/`Neq` conditions
//!   compile — boolean c-/pc-table conditions (§3/§8) are the case of
//!   `{false, true}` domains — and its domain-aware `wmc` consumes per-variable
//!   `(value → weight)` maps. This is what lets `ipdb-prob` answer
//!   general pc-table queries without enumerating the §8 valuation
//!   product space.
//!
//! The probability engines in `ipdb-prob::answering` (naive enumeration,
//! Shannon expansion, finite-domain BDD+WMC) are checked
//! against each other; the benches in `ipdb-bench` measure where the BDD
//! pays off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod error;
pub mod manager;
pub mod weight;

pub use encode::FdEncoding;
pub use error::BddError;
pub use manager::{BddManager, BddStats, NodeRef, FALSE, TRUE};
pub use weight::Weight;
