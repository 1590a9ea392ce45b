//! The plan cache: an engine-level LRU of shared [`Prepared`]
//! statements.
//!
//! Preparing a statement (parse → plan → optimizer fixpoint → lowering)
//! is the expensive per-request step a server pays before any tuple
//! moves; a traffic workload repeats the same handful of query shapes,
//! so [`PlanCache`] memoizes `prepare` behind a key that is **exactly**
//! the statement's identity:
//!
//! * the **canonical render string** — PR 2's `parse(render(q)) == q`
//!   invariant makes `render(parse(text))` a canonical form, so
//!   differently-spelled texts of the same query share one entry;
//! * **and the [`Schema`]** — the same text prepared against different
//!   schemas yields different plans (different leaf arities, different
//!   optimizer decisions). Keying by text alone would hand a statement
//!   prepared for `{R:1}` to a request over `{R:2}`; the schema
//!   component is load-bearing, and `tests/cache_oracle.rs` pins the
//!   regression.
//!
//! On top of the canonical map sits a **raw-text alias** layer: once a
//! text has been seen, the hot path resolves it with one map lookup and
//! no parse at all. Eviction is LRU by a monotonic touch stamp, scanned
//! at eviction time only (the cache is small; misses are rare by
//! design). Entries are `Arc<Prepared>`, so an evicted statement stays
//! valid for requests already holding it.
//!
//! Hit/miss totals are kept in local atomics (always on, race-free) and
//! mirrored into the global `ipdb-obs` registry as `serve.cache.hits` /
//! `serve.cache.misses` when metrics are [`ipdb_obs::enabled`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use ipdb_rel::{Query, Schema};

use crate::error::EngineError;
use crate::parser;
use crate::pipeline::{Engine, Prepared};

/// The `ipdb-obs` counter mirroring [`PlanCache::hits`].
pub const OBS_CACHE_HITS: &str = "serve.cache.hits";
/// The `ipdb-obs` counter mirroring [`PlanCache::misses`].
pub const OBS_CACHE_MISSES: &str = "serve.cache.misses";

/// One cached statement: the shared plan, its LRU touch stamp, and the
/// raw texts aliased to it (removed together with it on eviction).
#[derive(Debug)]
struct Entry {
    plan: Arc<Prepared>,
    stamp: u64,
    aliases: Vec<String>,
}

/// Per-schema shard: raw text → canonical text, canonical text → entry.
/// Sharding by schema makes the hot lookup allocation-free (borrowed
/// `&Schema` then `&str` key lookups) and makes cross-schema collisions
/// structurally impossible.
#[derive(Debug, Default)]
struct Shard {
    aliases: BTreeMap<String, String>,
    entries: BTreeMap<String, Entry>,
}

#[derive(Debug, Default)]
struct Inner {
    clock: u64,
    len: usize,
    shards: BTreeMap<Schema, Shard>,
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts the least-recently-touched entry (and its aliases) across
    /// all shards. O(entries), paid only on an at-capacity miss; the
    /// scan compares stamps by reference and clones only the victim's
    /// keys.
    fn evict_lru(&mut self) {
        let victim = self
            .shards
            .iter()
            .flat_map(|(schema, shard)| {
                shard
                    .entries
                    .iter()
                    .map(move |(canon, e)| (e, schema, canon))
            })
            .min_by_key(|(e, _, _)| e.stamp)
            .map(|(_, schema, canon)| (schema.clone(), canon.clone()));
        // The victim was found by iterating `self.shards`, so its shard
        // is present; an `if let` keeps this total instead of asserting.
        if let Some((schema, canon)) = victim {
            let Some(shard) = self.shards.get_mut(&schema) else {
                return;
            };
            let empty = {
                if let Some(entry) = shard.entries.remove(&canon) {
                    for alias in entry.aliases {
                        shard.aliases.remove(&alias);
                    }
                    self.len -= 1;
                }
                shard.entries.is_empty()
            };
            if empty {
                self.shards.remove(&schema);
            }
        }
    }
}

/// A thread-safe LRU cache of prepared statements, keyed by
/// **(canonical render string, [`Schema`])**. See the module docs for
/// the design; see [`PlanCache::prepare_text`] for the lookup protocol.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` distinct statements
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached statements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached statements (aliases don't count).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups answered from the cache since construction (or the
    /// last [`PlanCache::clear`]).
    pub fn hits(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistic read on its own; no
        // other data is synchronized through it, and a count that lags a
        // concurrent lookup by one is indistinguishable from having read
        // a moment earlier.
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that had to run `prepare` since construction (or
    /// the last [`PlanCache::clear`]). Parse/plan *errors* count as
    /// neither — nothing was cached or served.
    pub fn misses(&self) -> u64 {
        // ORDERING: Relaxed — same statistic-only contract as `hits`.
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
        // ORDERING: Relaxed — the zeroing races benignly with concurrent
        // lookups (a count bumped around a clear lands on either side of
        // it); entry visibility is carried by the mutex above, never by
        // these counters.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// The cached equivalent of [`Engine::prepare_text_schema`].
    ///
    /// Protocol: (1) one lock, alias lookup — the warm path returns
    /// here without parsing; (2) parse outside the lock, canonical
    /// lookup — a differently-spelled hit installs the new alias;
    /// (3) prepare outside the lock, insert (or adopt a racing
    /// insert of the same key), evicting LRU entries over capacity.
    pub fn prepare_text(
        &self,
        engine: &Engine,
        text: &str,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        // Fast path: raw text already aliased for this schema.
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(shard) = inner.shards.get_mut(schema) {
                let Shard { aliases, entries } = shard;
                if let Some(canon) = aliases.get(text) {
                    if let Some(entry) = entries.get_mut(canon) {
                        entry.stamp = stamp;
                        let plan = Arc::clone(&entry.plan);
                        drop(inner);
                        self.record_hit();
                        return Ok(plan);
                    }
                }
            }
        }
        // Parse (outside the lock — pure) and go through the canonical
        // key, remembering the raw spelling as an alias on success.
        let q = parser::parse(text)?;
        let canonical = parser::render(&q);
        let alias = (text != canonical).then(|| text.to_string());
        self.prepare_canonical(engine, &q, canonical, alias, schema)
    }

    /// The cached equivalent of [`Engine::prepare_schema`] for an
    /// already-parsed query (no alias layer: the canonical render *is*
    /// the key).
    pub fn prepare(
        &self,
        engine: &Engine,
        q: &Query,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        self.prepare_canonical(engine, q, parser::render(q), None, schema)
    }

    fn prepare_canonical(
        &self,
        engine: &Engine,
        q: &Query,
        canonical: String,
        alias: Option<String>,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        // Canonical lookup (the text was spelled differently, or this
        // is a `prepare(q)` call).
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(shard) = inner.shards.get_mut(schema) {
                if let Some(entry) = shard.entries.get_mut(&canonical) {
                    entry.stamp = stamp;
                    let plan = Arc::clone(&entry.plan);
                    if let Some(alias) = alias {
                        entry.aliases.push(alias.clone());
                        shard.aliases.insert(alias, canonical);
                    }
                    drop(inner);
                    self.record_hit();
                    return Ok(plan);
                }
            }
        }
        // Miss: prepare outside the lock (two threads may race on the
        // same cold key and both prepare; the loser's work is identical
        // and the first insert wins).
        let plan = Arc::new(engine.prepare_schema(q, schema)?);
        let plan = {
            let mut inner = self.lock();
            let stamp = inner.touch();
            let shard = inner.shards.entry(schema.clone()).or_default();
            let (plan, inserted) = match shard.entries.get_mut(&canonical) {
                Some(entry) => {
                    // A racing thread beat us to it; adopt its plan.
                    entry.stamp = stamp;
                    (Arc::clone(&entry.plan), false)
                }
                None => {
                    shard.entries.insert(
                        canonical.clone(),
                        Entry {
                            plan: Arc::clone(&plan),
                            stamp,
                            aliases: alias.iter().cloned().collect(),
                        },
                    );
                    (plan, true)
                }
            };
            if let Some(alias) = alias {
                shard.aliases.insert(alias, canonical);
            }
            if inserted {
                inner.len += 1;
                while inner.len > self.capacity {
                    inner.evict_lru();
                }
            }
            plan
        };
        self.record_miss();
        Ok(plan)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only come from allocation
        // failure mid-insert; the map structure itself is still sound,
        // so recover rather than poisoning every later request.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_hit(&self) {
        // ORDERING: Relaxed — atomicity keeps the tally exact under
        // concurrent bumps; nothing reads other data through it.
        self.hits.fetch_add(1, Ordering::Relaxed);
        if ipdb_obs::enabled() {
            ipdb_obs::incr(OBS_CACHE_HITS);
        }
    }

    fn record_miss(&self) {
        // ORDERING: Relaxed — same exact-tally contract as `record_hit`.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if ipdb_obs::enabled() {
            ipdb_obs::incr(OBS_CACHE_MISSES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::instance;

    fn engine() -> Engine {
        Engine::new()
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let cache = PlanCache::new(8);
        let schema = Schema::single(2);
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookup must share the plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn non_canonical_spellings_share_one_entry() {
        let cache = PlanCache::new(8);
        let schema = Schema::single(1);
        // Same query, two spellings (whitespace is not canonical).
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1, "one statement, two aliases");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Both spellings are now warm (no parse, alias fast path).
        cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn same_text_different_schemas_are_distinct_entries() {
        // The cross-schema key-collision regression: "R" means an
        // arity-1 scan under {R:1} and an arity-2 scan under {R:2}; the
        // cache must never serve one for the other.
        let cache = PlanCache::new(8);
        let s1 = Schema::new([("R", 1)]).unwrap();
        let s2 = Schema::new([("R", 2)]).unwrap();
        let p1 = cache.prepare_text(&engine(), "R", &s1).unwrap();
        let p2 = cache.prepare_text(&engine(), "R", &s2).unwrap();
        assert_eq!(cache.misses(), 2, "distinct schemas must not collide");
        assert_eq!(p1.output_arity(), 1);
        assert_eq!(p2.output_arity(), 2);
        // And the cached statements really execute at their arities.
        let c1: crate::Catalog<ipdb_rel::Instance> = [("R", instance![[7]])].into_iter().collect();
        assert_eq!(p1.execute(&c1).unwrap(), instance![[7]]);
        let c2: crate::Catalog<ipdb_rel::Instance> =
            [("R", instance![[7, 8]])].into_iter().collect();
        assert_eq!(p2.execute(&c2).unwrap(), instance![[7, 8]]);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let schema = Schema::single(1);
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        // Touch the first so the second is now coldest.
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        cache
            .prepare_text(&engine(), "sigma[#0=3](V)", &schema)
            .unwrap();
        assert_eq!(cache.len(), 2);
        // #0=1 survived (still warm); #0=2 was evicted (miss again).
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        let misses = cache.misses();
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        assert_eq!(cache.misses(), misses + 1, "evicted entry must re-prepare");
    }

    #[test]
    fn capacity_one_still_serves_and_cleans_aliases() {
        let cache = PlanCache::new(1);
        let schema = Schema::single(1);
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        // Displace it; its alias must go with it.
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        assert_eq!(cache.len(), 1);
        let a2 = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &a2), "the entry was really evicted");
        assert_eq!(*a, *a2, "but re-preparing yields an equal statement");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prepare_by_query_and_by_text_share_entries() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        let q = parser::parse("sigma[#0=1](V)").unwrap();
        let a = cache.prepare(&engine(), &q, &schema).unwrap();
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn parse_errors_propagate_and_count_nothing() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        assert!(cache.prepare_text(&engine(), "pi[4(V)", &schema).is_err());
        // Ill-typed (well-formed but wrong arity) also propagates.
        assert!(cache.prepare_text(&engine(), "pi[4](V)", &schema).is_err());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        cache.prepare_text(&engine(), "V", &schema).unwrap();
        cache.prepare_text(&engine(), "V", &schema).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.capacity(), 4);
    }
}
