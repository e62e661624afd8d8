//! LRU cache of built [`SolvePlan`]s and the weighted series they
//! answer from.
//!
//! Plans are keyed by the [`somrm_core::chain_digest`] of their model,
//! taken on every request (one multiply per 64-bit word of the model):
//! a plan holds nothing that depends on the initial distribution, a
//! horizon or an order (every plan is built for orders up to
//! [`crate::MAX_ORDER`]).
//! Each entry also keeps its chain's [`ProjectedSeries`], one per π, so
//! a repeat query whose order and `G` its series covers is answered with
//! no matvec. The series count toward their entry's bytes and leave
//! with it. Hits, misses and evictions are published to the `somrm-obs`
//! registry under `serve.plan.*` and `serve.proj.*`.

use somrm_core::{
    digests, MomentSolution, MrmError, ProjectedSeries, SecondOrderMrm, SeriesUse, SolvePlan,
};
use somrm_obs::RecorderHandle;
use std::sync::Arc;
use std::time::Instant;

/// Cache key of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Word-wise digest of the model's chain ([`somrm_core::chain_digest`]).
    pub digest: u64,
}

/// Byte budget of one entry's series (their summed
/// [`ProjectedSeries::footprint_bytes`]): the least recently used go
/// first, and a query whose own series would not fit is answered without
/// recording one ([`SeriesUse::Streamed`]). It bounds what an entry
/// keeps beside its plan when no byte budget is set. Serve-sized series
/// (100–1,001 states, `G` in the thousands) take 10–100 KB; the paper's
/// 200,001-state model at order 2 takes 6.4 MB.
pub const SERIES_BYTES_PER_PLAN: u64 = 8 << 20;

/// Hit/miss/eviction counts since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a resident plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Exact bytes released by those evictions: each victim's plan
    /// ([`somrm_core::SolvePlan::footprint_bytes`]) and series.
    pub evict_bytes: u64,
    /// Key matches whose resident plan was built for a *different*
    /// chain — a 64-bit digest collision, counted within `misses`.
    pub collisions: u64,
}

/// Counts of the entries' weighted series since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionStats {
    /// Queries answered from a recorded series, no recursion.
    pub hits: u64,
    /// Queries that resumed a series' recursion to a larger `G`.
    pub resumes: u64,
    /// Queries that ran the recursion from step 0: a new series, one
    /// that recorded too low an order, or one the query could not keep
    /// ([`SeriesUse::Streamed`]).
    pub builds: u64,
    /// Series dropped: with their entry, or as the least recently used
    /// of an entry past [`SERIES_BYTES_PER_PLAN`].
    pub evictions: u64,
}

/// One answered weighted query.
#[derive(Debug, Clone)]
pub struct Answer {
    /// One solution per requested time, in request order; only
    /// `weighted`, `error_bounds` and `stats` are filled.
    pub solutions: Vec<MomentSolution>,
    /// `true` when the request built no plan.
    pub plan_hit: bool,
    /// How the query used its series.
    pub series: SeriesUse,
    /// The [`somrm_core::model_digest`] of the `(chain, π)` that
    /// answered.
    pub entry: u64,
    /// Nanoseconds spent looking up or building the plan.
    pub plan_ns: u64,
}

/// Why a weighted query got no answer.
#[derive(Debug, Clone)]
pub enum AnswerError {
    /// The plan could not be built.
    Plan(MrmError),
    /// The plan was there; the query failed.
    Solve(MrmError),
}

impl std::fmt::Display for AnswerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerError::Plan(e) | AnswerError::Solve(e) => e.fmt(f),
        }
    }
}

struct Entry {
    key: PlanKey,
    plan: Arc<SolvePlan>,
    /// The chain's weighted series, one per π, least recently used
    /// first.
    series: Vec<ProjectedSeries>,
    /// Exact owned bytes of the plan's solver state plus the series'.
    bytes: u64,
    last_used: u64,
}

impl Entry {
    fn new(key: PlanKey, plan: Arc<SolvePlan>, tick: u64) -> Self {
        let bytes = plan.footprint_bytes() as u64;
        Entry {
            key,
            plan,
            series: Vec::new(),
            bytes,
            last_used: tick,
        }
    }

    fn series_bytes(&self) -> u64 {
        self.series.iter().map(|s| s.footprint_bytes() as u64).sum()
    }
}

/// An LRU map from [`PlanKey`] to a shared [`SolvePlan`] and its chain's
/// weighted series ([`PlanCache::answer`]).
///
/// Linear scans over small vectors — plan caches are small (each entry
/// holds a matrix and possibly a worker pool), so a vector beats
/// hash-map bookkeeping and keeps eviction order trivial to audit.
///
/// Eviction is LRU under **two** ceilings: the entry-count `capacity`
/// and an optional byte budget ([`PlanCache::with_budget`]) measured
/// against each entry's exact bytes, its plan's
/// [`somrm_core::SolvePlan::footprint_bytes`] plus its series. The most
/// recently used entry is never evicted, so an entry larger than the
/// whole budget still serves (a budget bounds what is *retained*, not
/// what the server may build).
pub struct PlanCache {
    capacity: usize,
    byte_budget: Option<u64>,
    entries: Vec<Entry>,
    resident_bytes: u64,
    tick: u64,
    recorder: RecorderHandle,
    stats: CacheStats,
    projection: ProjectionStats,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (clamped to at
    /// least 1), with no byte budget. Counter deltas go to `recorder`
    /// as `serve.plan.hit`, `serve.plan.miss`, `serve.plan.evict`,
    /// `serve.plan.evict_bytes` and `serve.proj.{hit,resume,build,evict}`;
    /// resident bytes as the `mem.cache.resident` gauge, and the
    /// series' share of them as `mem.proj.resident`.
    pub fn new(capacity: usize, recorder: RecorderHandle) -> Self {
        Self::with_budget(capacity, None, recorder)
    }

    /// Like [`PlanCache::new`], additionally bounding the summed entry
    /// bytes by `byte_budget` (the `--cache-bytes` serve flag).
    pub fn with_budget(
        capacity: usize,
        byte_budget: Option<u64>,
        recorder: RecorderHandle,
    ) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            byte_budget,
            entries: Vec::new(),
            resident_bytes: 0,
            tick: 0,
            recorder,
            stats: CacheStats::default(),
            projection: ProjectionStats::default(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The byte budget, if one was set.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// Summed exact bytes of the resident entries: plans and series.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Plan-cache counters accumulated since creation.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Series counters accumulated since creation.
    pub fn projection_stats(&self) -> ProjectionStats {
        self.projection
    }

    /// Number of resident series.
    pub fn projection_entries(&self) -> usize {
        self.entries.iter().map(|e| e.series.len()).sum()
    }

    /// The series' share of [`PlanCache::resident_bytes`].
    pub fn projection_bytes(&self) -> u64 {
        self.entries.iter().map(Entry::series_bytes).sum()
    }

    /// `true` when the cache exceeds either ceiling and still holds a
    /// candidate besides the protected (most recent) entry.
    fn over_budget(&self) -> bool {
        if self.entries.len() <= 1 {
            return false;
        }
        self.entries.len() > self.capacity
            || self
                .byte_budget
                .is_some_and(|b| self.resident_bytes > b)
    }

    /// Evicts LRU entries until both ceilings hold (always keeping the
    /// newest entry), then republishes the resident-bytes gauges.
    fn enforce_budget(&mut self) {
        while self.over_budget() {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("over_budget implies at least two entries");
            let victim = self.entries.swap_remove(lru);
            self.resident_bytes -= victim.bytes;
            self.stats.evictions += 1;
            self.stats.evict_bytes += victim.bytes;
            self.recorder.counter_add("serve.plan.evict", 1);
            self.recorder
                .counter_add("serve.plan.evict_bytes", victim.bytes);
            self.count_series_evictions(victim.series.len());
        }
        self.recorder
            .gauge_set("mem.cache.resident", self.resident_bytes as f64);
        self.recorder
            .gauge_set("mem.proj.resident", self.projection_bytes() as f64);
    }

    /// Returns the plan under `key`, building (and caching) it with
    /// `build` on a miss. The boolean is `true` on a hit.
    ///
    /// The 64-bit digest in `key` is index material, not proof of
    /// identity: on a key match the resident plan's chain is compared
    /// against `model`'s in full ([`SecondOrderMrm::same_chain`]), and a
    /// mismatch (a digest collision) is treated as a miss — counted
    /// under `serve.plan.digest_collision` and [`CacheStats::collisions`]
    /// — with the fresh plan replacing the colliding entry, and its
    /// series, in place (no eviction of bystanders).
    ///
    /// A failed build caches nothing and counts as a miss.
    ///
    /// # Errors
    ///
    /// Propagates the error of `build`.
    pub fn get_or_build(
        &mut self,
        key: PlanKey,
        model: &SecondOrderMrm,
        build: impl FnOnce() -> Result<SolvePlan, MrmError>,
    ) -> Result<(Arc<SolvePlan>, bool), MrmError> {
        let (idx, hit) = self.slot(key, model, build)?;
        let plan = Arc::clone(&self.entries[idx].plan);
        self.enforce_budget();
        Ok((plan, hit))
    }

    /// [`PlanCache::get_or_build`] up to the budget check: the touched
    /// or new entry's index and whether it was a hit.
    fn slot(
        &mut self,
        key: PlanKey,
        model: &SecondOrderMrm,
        build: impl FnOnce() -> Result<SolvePlan, MrmError>,
    ) -> Result<(usize, bool), MrmError> {
        self.tick += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            if self.entries[idx].plan.model().same_chain(model) {
                self.count_plan(true);
                self.entries[idx].last_used = self.tick;
                return Ok((idx, true));
            }
            // Same digest, different chain. Serving the resident plan
            // would silently answer for the wrong model; rebuild and
            // take over the slot.
            self.count_plan(false);
            self.stats.collisions += 1;
            self.recorder.counter_add("serve.plan.digest_collision", 1);
            let entry = Entry::new(key, Arc::new(build()?), self.tick);
            let old = std::mem::replace(&mut self.entries[idx], entry);
            self.resident_bytes = self.resident_bytes - old.bytes + self.entries[idx].bytes;
            self.count_series_evictions(old.series.len());
            return Ok((idx, false));
        }
        self.count_plan(false);
        let entry = Entry::new(key, Arc::new(build()?), self.tick);
        self.resident_bytes += entry.bytes;
        self.entries.push(entry);
        Ok((self.entries.len() - 1, false))
    }

    fn count_plan(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
            self.recorder.counter_add("serve.plan.hit", 1);
        } else {
            self.stats.misses += 1;
            self.recorder.counter_add("serve.plan.miss", 1);
        }
    }

    /// `true` if a plan is cached under `key` (no LRU touch).
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.entries.iter().any(|e| e.key == *key)
    }

    /// π-weighted moments of `model` at `times` up to `order`
    /// ([`SolvePlan::execute_weighted`]) on the plan of `model`'s chain
    /// ([`PlanCache::get_or_build`], `build` on a miss) and the entry's
    /// series for `model`'s π, which the query starts when there is none.
    /// A series that covers the order and `G` answers with no matvec; it
    /// resumes to a larger `G`, and rebuilds for a higher order. The
    /// answer is the same bits either way, and whether the series is
    /// kept or not: a series does not depend on how it was grown.
    ///
    /// # Errors
    ///
    /// [`AnswerError::Plan`] when `build` fails, [`AnswerError::Solve`]
    /// when the query does; neither leaves a new series behind.
    pub fn answer(
        &mut self,
        model: &SecondOrderMrm,
        times: &[f64],
        order: usize,
        build: impl FnOnce() -> Result<SolvePlan, MrmError>,
    ) -> Result<Answer, AnswerError> {
        let plan_t0 = Instant::now();
        let (chain, entry) = digests(model);
        let (idx, plan_hit) = self
            .slot(PlanKey { digest: chain }, model, build)
            .map_err(AnswerError::Plan)?;
        let plan_ns = plan_t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let e = &mut self.entries[idx];
        let mut series = match e.series.iter().position(|s| s.pi() == model.initial()) {
            Some(pos) => e.series.remove(pos),
            None => ProjectedSeries::new(model.initial().to_vec())
                .with_max_bytes(SERIES_BYTES_PER_PLAN as usize),
        };
        let result = e.plan.execute_weighted(&mut series, times, order);
        if series.g().is_some() {
            e.series.push(series);
        }
        let mut dropped = 0;
        while e.series.len() > 1 && e.series_bytes() > SERIES_BYTES_PER_PLAN {
            e.series.remove(0);
            dropped += 1;
        }
        let bytes = e.plan.footprint_bytes() as u64 + e.series_bytes();
        self.resident_bytes = self.resident_bytes - e.bytes + bytes;
        e.bytes = bytes;
        self.count_series_evictions(dropped);
        self.enforce_budget();
        let (solutions, used) = result.map_err(AnswerError::Solve)?;
        let (name, count) = match used {
            SeriesUse::Hit => ("serve.proj.hit", &mut self.projection.hits),
            SeriesUse::Resumed => ("serve.proj.resume", &mut self.projection.resumes),
            SeriesUse::Built | SeriesUse::Streamed => {
                ("serve.proj.build", &mut self.projection.builds)
            }
        };
        *count += 1;
        self.recorder.counter_add(name, 1);
        Ok(Answer {
            solutions,
            plan_hit,
            series: used,
            entry,
            plan_ns,
        })
    }

    fn count_series_evictions(&mut self, n: usize) {
        if n > 0 {
            self.projection.evictions += n as u64;
            self.recorder.counter_add("serve.proj.evict", n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::SolverConfig;
    use somrm_core::{chain_digest, SecondOrderMrm, SolvePlan};
    use somrm_ctmc::generator::GeneratorBuilder;

    fn model(hi_rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, hi_rate).unwrap();
        SecondOrderMrm::new(
            b.build().unwrap(),
            vec![0.0, 3.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        )
        .unwrap()
    }

    fn key_for(m: &SecondOrderMrm) -> PlanKey {
        PlanKey {
            digest: chain_digest(m),
        }
    }

    fn build_plan(m: &SecondOrderMrm, order: usize) -> Result<SolvePlan, somrm_core::MrmError> {
        SolvePlan::build(m, order, &SolverConfig::default())
    }

    #[test]
    fn hit_then_miss_then_evict() {
        let (m1, m2, m3) = (model(2.0), model(4.0), model(16.0));
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());

        let (p1, hit) = cache
            .get_or_build(key_for(&m1), &m1, || build_plan(&m1, 2))
            .unwrap();
        assert!(!hit);
        let (p2, hit) = cache
            .get_or_build(key_for(&m1), &m1, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2), "hit returns the same plan");

        // Two more keys overflow capacity 2; the LRU entry is the one
        // *not* touched since: m2, inserted second, never reused.
        cache
            .get_or_build(key_for(&m2), &m2, || build_plan(&m2, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&m1), &m1, || panic!("still cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m3), &m3, || build_plan(&m3, 2))
            .unwrap();
        assert!(cache.contains(&key_for(&m1)), "recently used survives");
        assert!(!cache.contains(&key_for(&m2)), "LRU entry evicted");
        let plan_bytes = build_plan(&m1, 2).unwrap().footprint_bytes() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 3,
                evictions: 1,
                evict_bytes: plan_bytes,
                collisions: 0
            }
        );
        assert_eq!(cache.resident_bytes(), 2 * plan_bytes);
    }

    #[test]
    fn mutated_model_changes_digest_and_misses() {
        let m1 = model(2.0);
        let m2 = model(2.0 + 1e-12);
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        cache
            .get_or_build(key_for(&m1), &m1, || build_plan(&m1, 2))
            .unwrap();
        let (_, hit) = cache
            .get_or_build(key_for(&m2), &m2, || build_plan(&m2, 2))
            .unwrap();
        assert!(!hit, "a 1-ulp rate change must not reuse the stale plan");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn plans_are_shared_across_initial_distributions() {
        let m = model(2.0);
        let other_pi = m.with_initial(vec![0.25, 0.75]).unwrap();
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        cache
            .get_or_build(key_for(&m), &m, || build_plan(&m, 2))
            .unwrap();
        let (_, hit) = cache
            .get_or_build(key_for(&other_pi), &other_pi, || panic!("same chain"))
            .unwrap();
        assert!(hit, "π is a query input, not part of the plan key");
    }

    #[test]
    fn failed_build_caches_nothing() {
        let m = model(2.0);
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        let key = key_for(&m);
        assert!(cache
            .get_or_build(key, &m, || SolvePlan::build(&m, 2, &bad))
            .is_err());
        assert!(!cache.contains(&key));
        let (_, hit) = cache.get_or_build(key, &m, || build_plan(&m, 2)).unwrap();
        assert!(!hit, "the failed build left no entry behind");
    }

    #[test]
    fn eviction_order_is_by_last_use_across_interleaved_digests() {
        let (a1, b1, a2, b2, a3) = (model(2.0), model(5.0), model(8.0), model(11.0), model(64.0));
        let mut cache = PlanCache::new(3, RecorderHandle::disabled());
        cache
            .get_or_build(key_for(&a1), &a1, || build_plan(&a1, 2))
            .unwrap(); // tick 1
        cache
            .get_or_build(key_for(&b1), &b1, || build_plan(&b1, 2))
            .unwrap(); // tick 2
        cache
            .get_or_build(key_for(&a2), &a2, || build_plan(&a2, 2))
            .unwrap(); // tick 3
                       // Touch a1 (oldest) so b1 becomes LRU despite a1 being the
                       // earliest insert.
        cache
            .get_or_build(key_for(&a1), &a1, || panic!("cached"))
            .unwrap(); // tick 4
        cache
            .get_or_build(key_for(&b2), &b2, || build_plan(&b2, 2))
            .unwrap(); // evicts b1
        assert!(cache.contains(&key_for(&a1)), "touched entry survives");
        assert!(cache.contains(&key_for(&a2)));
        assert!(cache.contains(&key_for(&b2)));
        assert!(
            !cache.contains(&key_for(&b1)),
            "globally least-recently-used evicted"
        );

        // Next overflow evicts a2 (tick 3 is now the oldest).
        cache
            .get_or_build(key_for(&a3), &a3, || build_plan(&a3, 2))
            .unwrap();
        assert!(!cache.contains(&key_for(&a2)));
        assert!(cache.contains(&key_for(&a1)));
        assert_eq!(cache.len(), 3);
        // All five are two-state plans of one footprint: b1 then a2.
        let plan_bytes = build_plan(&a1, 2).unwrap().footprint_bytes() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 5,
                evictions: 2,
                evict_bytes: 2 * plan_bytes,
                collisions: 0
            }
        );
    }

    #[test]
    fn counters_are_exact_over_a_mixed_workload() {
        let (m1, m2, m3) = (model(2.0), model(4.0), model(16.0));
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        // Scripted: miss, hit, miss, failed miss, hit, miss+evict.
        cache
            .get_or_build(key_for(&m1), &m1, || build_plan(&m1, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&m1), &m1, || panic!("cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m2), &m2, || build_plan(&m2, 2))
            .unwrap();
        assert!(cache
            .get_or_build(key_for(&m3), &m3, || SolvePlan::build(&m3, 2, &bad))
            .is_err());
        cache
            .get_or_build(key_for(&m2), &m2, || panic!("cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m3), &m3, || build_plan(&m3, 2))
            .unwrap();
        let s = cache.stats();
        assert_eq!(
            s,
            CacheStats {
                hits: 2,
                misses: 4,
                evictions: 1,
                evict_bytes: build_plan(&m1, 2).unwrap().footprint_bytes() as u64,
                collisions: 0
            }
        );
        // Reconciliation invariants the serve stats sideband relies on.
        assert_eq!(s.hits + s.misses, 6, "every lookup is a hit or a miss");
        assert!(s.evictions <= s.misses);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn failed_build_never_occupies_or_evicts_a_slot_at_capacity() {
        let (m1, m2, m3) = (model(2.0), model(4.0), model(16.0));
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        cache
            .get_or_build(key_for(&m1), &m1, || build_plan(&m1, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&m2), &m2, || build_plan(&m2, 2))
            .unwrap();
        assert_eq!(cache.len(), 2, "at capacity");

        // A failing build at capacity must not evict the residents:
        // eviction happens only once a replacement plan exists.
        assert!(cache
            .get_or_build(key_for(&m3), &m3, || SolvePlan::build(&m3, 2, &bad))
            .is_err());
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key_for(&m1)) && cache.contains(&key_for(&m2)));
        assert!(!cache.contains(&key_for(&m3)));
        assert_eq!(cache.stats().evictions, 0);

        // The retry builds, and only then does one eviction happen.
        let (_, hit) = cache
            .get_or_build(key_for(&m3), &m3, || build_plan(&m3, 2))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn counters_reach_the_registry() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let (m1, m2) = (model(2.0), model(8.0));
        let mut cache = PlanCache::new(1, RecorderHandle::new(registry.clone()));
        cache
            .get_or_build(key_for(&m1), &m1, || build_plan(&m1, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&m1), &m1, || panic!("cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m2), &m2, || build_plan(&m2, 2))
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.hit"), Some(1));
        assert_eq!(snap.counter("serve.plan.miss"), Some(2));
        assert_eq!(snap.counter("serve.plan.evict"), Some(1));
    }

    /// A birth-death chain with `n` states, so plans of very different
    /// footprints can share one cache.
    fn chain_model(n: usize, rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, rate).unwrap();
            b.rate(i + 1, i, 2.0 * rate).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rates: Vec<f64> = (0..n).map(|i| i as f64).collect();
        SecondOrderMrm::new(b.build().unwrap(), rates, vec![0.1; n], init).unwrap()
    }

    #[test]
    fn byte_budget_evicts_lru_and_accounts_evict_bytes_under_mixed_sizes() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let (small1, small2) = (model(2.0), model(16.0));
        let big = chain_model(64, 1.5);
        let small_bytes = build_plan(&small1, 2).unwrap().footprint_bytes() as u64;
        let big_bytes = build_plan(&big, 2).unwrap().footprint_bytes() as u64;
        assert!(big_bytes > 4 * small_bytes, "sizes must genuinely differ");
        // Room for the big plan plus one small one — not two.
        let budget = big_bytes + small_bytes + small_bytes / 2;
        let mut cache =
            PlanCache::with_budget(8, Some(budget), RecorderHandle::new(registry.clone()));

        cache
            .get_or_build(key_for(&small1), &small1, || build_plan(&small1, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&big), &big, || build_plan(&big, 2))
            .unwrap();
        assert_eq!(cache.resident_bytes(), small_bytes + big_bytes);
        assert_eq!(cache.stats().evictions, 0, "within budget so far");

        // A third plan crosses the byte budget though the entry count
        // (8) is nowhere near: the LRU small plan goes.
        cache
            .get_or_build(key_for(&small2), &small2, || build_plan(&small2, 2))
            .unwrap();
        assert!(
            !cache.contains(&key_for(&small1)),
            "LRU victim under byte pressure"
        );
        assert!(cache.contains(&key_for(&big)));
        assert_eq!(cache.resident_bytes(), big_bytes + small_bytes);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().evict_bytes, small_bytes);

        // Touch the big plan, then insert another big one: now the
        // cache must shed both LRU entries to get back under budget.
        cache
            .get_or_build(key_for(&big), &big, || panic!("cached"))
            .unwrap();
        let big2 = chain_model(64, 2.5);
        cache
            .get_or_build(key_for(&big2), &big2, || build_plan(&big2, 2))
            .unwrap();
        assert!(
            cache.contains(&key_for(&big2)),
            "newest entry is never evicted"
        );
        assert!(
            cache.resident_bytes() <= budget,
            "{} > budget {budget}",
            cache.resident_bytes()
        );
        let s = cache.stats();
        assert_eq!(s.evictions, 3, "small2 and big both evicted for big2");
        assert_eq!(s.evict_bytes, 2 * small_bytes + big_bytes);

        // The registry mirrors both: the counter and the live gauge.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.evict_bytes"), Some(s.evict_bytes));
        assert_eq!(
            snap.gauge("mem.cache.resident"),
            Some(cache.resident_bytes() as f64)
        );
    }

    #[test]
    fn a_single_plan_larger_than_the_budget_is_still_retained() {
        let big = chain_model(32, 1.0);
        let mut cache = PlanCache::with_budget(4, Some(1), RecorderHandle::disabled());
        cache
            .get_or_build(key_for(&big), &big, || build_plan(&big, 2))
            .unwrap();
        assert_eq!(cache.len(), 1, "the newest plan always stays");
        assert_eq!(cache.stats().evictions, 0);
        // The next insert displaces it — the budget holds again.
        let small = model(2.0);
        cache
            .get_or_build(key_for(&small), &small, || build_plan(&small, 2))
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key_for(&small)));
        assert!(!cache.contains(&key_for(&big)));
        assert_eq!(
            cache.stats().evict_bytes,
            build_plan(&big, 2).unwrap().footprint_bytes() as u64
        );
    }

    #[test]
    fn digest_collision_is_detected_and_rebuilt_in_place() {
        use somrm_obs::MetricsRegistry;
        // Simulate a 64-bit digest collision: two different chains
        // presented under the same key — exactly what the server would
        // do if the chain digest collided.
        let registry = Arc::new(MetricsRegistry::new());
        let m1 = model(2.0);
        let m2 = model(5.0);
        let mut cache = PlanCache::new(2, RecorderHandle::new(registry.clone()));
        let key = key_for(&m1);
        let (p1, _) = cache.get_or_build(key, &m1, || build_plan(&m1, 2)).unwrap();
        let (p2, hit) = cache.get_or_build(key, &m2, || build_plan(&m2, 2)).unwrap();
        assert!(!hit, "a colliding key must never serve the wrong model's plan");
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(p2.model(), &m2, "the rebuilt plan answers for the new model");
        assert_eq!(cache.len(), 1, "replacement happens in place");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 2, "the collision is counted as a miss");
        assert_eq!(s.evictions, 0, "no bystander eviction");

        // The slot now answers for m2.
        let (_, hit) = cache.get_or_build(key, &m2, || panic!("cached")).unwrap();
        assert!(hit);

        // A failed rebuild on a later collision keeps the resident.
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        assert!(cache
            .get_or_build(key, &m1, || SolvePlan::build(&m1, 2, &bad))
            .is_err());
        let (_, hit) = cache
            .get_or_build(key, &m2, || panic!("resident intact"))
            .unwrap();
        assert!(hit);
        assert_eq!(cache.stats().collisions, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.digest_collision"), Some(2));
    }

    #[test]
    fn entries_answer_resume_and_rebuild_their_series() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let m = chain_model(12, 1.0);
        let other_pi = m.with_initial(vec![1.0 / 12.0; 12]).unwrap();
        let mut cache = PlanCache::new(1, RecorderHandle::new(registry.clone()));
        let build = |m: &SecondOrderMrm| build_plan(m, crate::MAX_ORDER);
        let first = cache.answer(&m, &[0.5], 2, || build(&m)).unwrap();
        assert!(!first.plan_hit);
        assert_eq!(first.series, SeriesUse::Built);
        // Covered: no recursion.
        let hit = cache.answer(&m, &[0.25], 1, || panic!("no build")).unwrap();
        assert!(hit.plan_hit);
        assert_eq!(hit.series, SeriesUse::Hit);
        // Longer: resume; higher order: rebuild — on the cached plan.
        let longer = cache.answer(&m, &[3.0], 2, || panic!("no build")).unwrap();
        assert_eq!(longer.series, SeriesUse::Resumed);
        let higher = cache.answer(&m, &[3.0], 3, || panic!("no build")).unwrap();
        assert_eq!(higher.series, SeriesUse::Built);
        // Another π of the chain: a second series on the same plan.
        let other = cache
            .answer(&other_pi, &[0.5], 2, || panic!("plan cached"))
            .unwrap();
        assert!(other.plan_hit);
        assert_eq!(other.series, SeriesUse::Built);
        assert_ne!(other.entry, first.entry);
        assert_eq!((cache.len(), cache.projection_entries()), (1, 2));
        assert_eq!(
            cache.projection_stats(),
            ProjectionStats {
                hits: 1,
                resumes: 1,
                builds: 3,
                evictions: 0
            }
        );
        assert_eq!(
            cache.stats().hits + cache.stats().misses,
            5,
            "one event per request"
        );
        // The series count toward their entry.
        let plan_bytes = build(&m).unwrap().footprint_bytes() as u64;
        assert!(cache.projection_bytes() > 0);
        assert_eq!(
            cache.resident_bytes(),
            plan_bytes + cache.projection_bytes()
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.proj.hit"), Some(1));
        assert_eq!(snap.counter("serve.proj.resume"), Some(1));
        assert_eq!(snap.counter("serve.proj.build"), Some(3));
        assert_eq!(
            snap.gauge("mem.cache.resident"),
            Some(cache.resident_bytes() as f64)
        );
        assert_eq!(
            snap.gauge("mem.proj.resident"),
            Some(cache.projection_bytes() as f64)
        );
        // Evicting the plan drops its series; they answer again with the
        // same bits.
        let bystander = chain_model(3, 1.0);
        cache
            .answer(&bystander, &[0.5], 1, || build(&bystander))
            .unwrap();
        assert_eq!((cache.len(), cache.projection_entries()), (1, 1));
        assert_eq!(cache.projection_stats().evictions, 2);
        assert_eq!(snap_counter(&registry, "serve.proj.evict"), Some(2));
        let again = cache.answer(&m, &[0.25], 1, || build(&m)).unwrap();
        let back = cache
            .answer(&other_pi, &[0.5], 2, || panic!("plan cached"))
            .unwrap();
        assert_eq!(back.series, SeriesUse::Built, "rebuilt after eviction");
        assert_eq!(back.solutions[0].weighted, other.solutions[0].weighted);
        assert_eq!(again.solutions[0].weighted, hit.solutions[0].weighted);
        // A failing query leaves no series behind.
        let far = cache.answer(&bystander, &[1e12], 1, || build(&bystander));
        assert!(matches!(far, Err(AnswerError::Solve(_))));
        assert_eq!(cache.projection_entries(), 0);
    }

    #[test]
    fn an_entry_keeps_its_series_within_its_byte_budget() {
        // 136 bytes a step at order 16: each series takes a bit less
        // than half the budget.
        let m = model(2.0);
        let q = m.generator().uniformization_rate();
        let t = 0.4 * SERIES_BYTES_PER_PLAN as f64 / 136.0 / q;
        let (a, b, c) = (
            m.clone(),
            m.with_initial(vec![0.5, 0.5]).unwrap(),
            m.with_initial(vec![0.25, 0.75]).unwrap(),
        );
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        let build = || build_plan(&m, crate::MAX_ORDER);
        for model in [&a, &b] {
            let answer = cache.answer(model, &[t], 16, build).unwrap();
            assert_eq!(answer.series, SeriesUse::Built);
        }
        assert_eq!(cache.projection_entries(), 2);
        // A third series does not fit beside both: the least recently
        // used one goes.
        cache.answer(&c, &[t], 16, build).unwrap();
        assert_eq!(cache.projection_entries(), 2);
        assert_eq!(cache.projection_stats().evictions, 1);
        assert!(cache.projection_bytes() <= SERIES_BYTES_PER_PLAN);
        for model in [&b, &c] {
            let answer = cache.answer(model, &[t], 16, || panic!("cached")).unwrap();
            assert_eq!(answer.series, SeriesUse::Hit, "the LRU series was dropped");
        }
    }

    #[test]
    fn a_series_past_the_budget_is_answered_without_recording() {
        // 136 bytes a step at order 16: this horizon's G needs more than
        // the whole budget.
        let m = model(2.0);
        let q = m.generator().uniformization_rate();
        let t = 1.05 * SERIES_BYTES_PER_PLAN as f64 / 136.0 / q;
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        let build = || build_plan(&m, crate::MAX_ORDER);
        let streamed = cache.answer(&m, &[0.5, t], 16, build).unwrap();
        assert_eq!(streamed.series, SeriesUse::Streamed);
        assert_eq!(cache.projection_bytes(), 0, "nothing recorded or reserved");
        assert_eq!(cache.projection_entries(), 0);
        // The bits an unlimited series gives.
        let mut unlimited = ProjectedSeries::new(m.initial().to_vec());
        let (want, _) = build()
            .unwrap()
            .execute_weighted(&mut unlimited, &[0.5, t], 16)
            .unwrap();
        assert!(unlimited.footprint_bytes() as u64 > SERIES_BYTES_PER_PLAN);
        for (got, want) in streamed.solutions.iter().zip(&want) {
            assert_eq!(got.weighted, want.weighted);
            assert_eq!(got.error_bounds, want.error_bounds);
        }
        // A short horizon still records its series.
        let short = cache.answer(&m, &[0.5], 16, build).unwrap();
        assert_eq!(short.series, SeriesUse::Built);
        assert_eq!(short.solutions[0].weighted, want[0].weighted);
        assert!(cache.projection_bytes() > 0);
    }

    fn snap_counter(registry: &somrm_obs::MetricsRegistry, name: &str) -> Option<u64> {
        registry.snapshot().counter(name)
    }
}
