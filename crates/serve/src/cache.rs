//! LRU cache of built [`SolvePlan`]s, the weighted series they answer
//! from, and the model texts those series were asked with.
//!
//! Plans are keyed by the [`somrm_core::chain_digest`] of their model:
//! a plan holds nothing that depends on the initial distribution, a
//! horizon or an order (every plan is built for orders up to
//! [`crate::MAX_ORDER`]).
//! Each entry also keeps its chain's [`ProjectedSeries`], one per π, so
//! a repeat query whose order and `G` its series covers is answered with
//! no matvec. A series answered for a model text remembers that text
//! ([`PlanCache::answer_text`]), so a request with a byte-equal text
//! goes straight to its entry and series: no parse, no digest, no chain
//! comparison. Series and texts count toward their entry's bytes and
//! leave with it. Hits, misses and evictions are published to the
//! `somrm-obs` registry under `serve.plan.*` and `serve.proj.*`.

use crate::proto::ModelSpec;
use crate::server::{ns, ModelResolver};
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

/// Byte budget of one entry's series and the texts they remember
/// (their summed [`ProjectedSeries::footprint_bytes`] and text bytes):
/// past it, texts go first, least recently used first, then series, so
/// a text never costs a series; a text that does not fit beside the
/// series alone is not remembered, and a query whose own series would
/// not fit is answered without recording one ([`SeriesUse::Streamed`]).
/// It bounds what an entry keeps beside its plan when no byte budget is
/// set. Serve-sized series (100–1,001 states, `G` in the thousands) take
/// 10–100 KB and their texts about as much; the paper's 200,001-state
/// model at order 2 takes 6.4 MB, and its 15.5 MB text is never kept.
pub const SERIES_BYTES_PER_PLAN: u64 = 8 << 20;

/// Hit/miss/eviction counts since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a resident plan, a remembered text's included.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Exact bytes released by those evictions: each victim's plan
    /// ([`somrm_core::SolvePlan::footprint_bytes`]), series and texts.
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
    /// Nanoseconds spent looking up or building the plan (a text's
    /// lookup included, its resolution not).
    pub plan_ns: u64,
    /// Nanoseconds spent in the query on the plan.
    pub execute_ns: u64,
}

/// Why a weighted query got no answer.
#[derive(Debug, Clone)]
pub enum AnswerError {
    /// The model text did not resolve to a model: the resolver's
    /// message.
    Model(String),
    /// The plan could not be built; first the
    /// [`somrm_core::model_digest`] of the model.
    Plan(u64, MrmError),
    /// The plan was there; the query failed. First the
    /// [`somrm_core::model_digest`] of the model.
    Solve(u64, MrmError),
}

impl AnswerError {
    /// The error kind the serve stats count: `model`, `plan` or
    /// `solver`.
    pub fn kind(&self) -> &'static str {
        match self {
            AnswerError::Model(_) => "model",
            AnswerError::Plan(..) => "plan",
            AnswerError::Solve(..) => "solver",
        }
    }

    /// The [`somrm_core::model_digest`] of the model, when it resolved.
    pub fn entry(&self) -> Option<u64> {
        match self {
            AnswerError::Model(_) => None,
            AnswerError::Plan(entry, _) | AnswerError::Solve(entry, _) => Some(*entry),
        }
    }
}

impl std::fmt::Display for AnswerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerError::Model(e) => write!(f, "model: {e}"),
            AnswerError::Plan(_, e) | AnswerError::Solve(_, e) => e.fmt(f),
        }
    }
}

/// A series an entry keeps, and the model text it was last answered
/// for.
struct Kept {
    series: ProjectedSeries,
    /// The [`somrm_core::model_digest`] of the entry's chain and the
    /// series' π.
    digest: u64,
    /// The last text whose query left the series here, while it fits
    /// [`SERIES_BYTES_PER_PLAN`].
    text: Option<String>,
}

impl Kept {
    fn text_bytes(&self) -> u64 {
        self.text.as_ref().map_or(0, |t| t.capacity() as u64)
    }
}

struct Entry {
    key: PlanKey,
    plan: Arc<SolvePlan>,
    /// The chain's weighted series, one per π, least recently used
    /// first.
    series: Vec<Kept>,
    /// Exact owned bytes of the plan's solver state, the series and
    /// their texts.
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
        self.series
            .iter()
            .map(|k| k.series.footprint_bytes() as u64)
            .sum()
    }

    fn text_bytes(&self) -> u64 {
        self.series.iter().map(Kept::text_bytes).sum()
    }

    /// Brings the series and texts within [`SERIES_BYTES_PER_PLAN`],
    /// first giving `text` to the newest series if it fits beside the
    /// series alone: drops the least recently used series while the
    /// series alone exceed it (keeping the newest), then the least
    /// recently used texts. Returns the number of series dropped.
    fn fit(&mut self, text: Option<String>) -> usize {
        let mut dropped = 0;
        while self.series.len() > 1 && self.series_bytes() > SERIES_BYTES_PER_PLAN {
            self.series.remove(0);
            dropped += 1;
        }
        let series_bytes = self.series_bytes();
        if let (Some(mut text), Some(newest)) = (text, self.series.last_mut()) {
            if text.len() as u64 + series_bytes <= SERIES_BYTES_PER_PLAN {
                text.shrink_to_fit();
                newest.text = Some(text);
            }
        }
        let mut bytes = series_bytes + self.text_bytes();
        for kept in &mut self.series {
            if bytes <= SERIES_BYTES_PER_PLAN {
                break;
            }
            bytes -= kept.text_bytes();
            kept.text = None;
        }
        dropped
    }
}

/// An LRU map from [`PlanKey`] to a shared [`SolvePlan`], its chain's
/// weighted series and the texts they remember ([`PlanCache::answer`],
/// [`PlanCache::answer_text`]).
///
/// Linear scans over small vectors — plan caches are small (each entry
/// holds a matrix and possibly a worker pool), so a vector beats
/// hash-map bookkeeping and keeps eviction order trivial to audit.
///
/// Eviction is LRU under **two** ceilings: the entry-count `capacity`
/// and an optional byte budget ([`PlanCache::with_budget`]) measured
/// against each entry's exact bytes, its plan's
/// [`somrm_core::SolvePlan::footprint_bytes`] plus its series and texts.
/// The most recently used entry is never evicted, so an entry larger
/// than the whole budget still serves (a budget bounds what is
/// *retained*, not what the server may build).
///
/// A cache assumes one solver configuration for its plans and one
/// [`ModelResolver`] for its texts: a remembered text answers as the
/// model it resolved to when it was remembered.
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

    /// Summed exact bytes of the resident entries: plans, series and
    /// texts.
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

    /// The remembered texts' share of [`PlanCache::resident_bytes`].
    pub fn text_bytes(&self) -> u64 {
        self.entries.iter().map(Entry::text_bytes).sum()
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
    /// series and texts, in place (no eviction of bystanders).
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
        self.answer_model(model, None, 0, times, order, build)
    }

    /// [`PlanCache::answer`] for the model that `resolver` makes of
    /// `text`, remembering the text. A series remembers the last text
    /// whose query succeeded and left the series in its entry (a new
    /// spelling of the same chain and π replaces the old one), within
    /// [`SERIES_BYTES_PER_PLAN`]. A text byte-equal to a remembered one
    /// — the lengths compared first, then every byte — goes straight to
    /// that entry and series, touching both as a plan hit does, and is
    /// not resolved again; any other text is resolved as
    /// [`ModelSpec::Inline`]. A failed query on a remembered text leaves
    /// it remembered: the text still names the same model.
    ///
    /// # Errors
    ///
    /// [`AnswerError::Model`] when `resolver` refuses the text, and
    /// [`PlanCache::answer`]'s errors; none of them remembers the text.
    pub fn answer_text(
        &mut self,
        text: String,
        times: &[f64],
        order: usize,
        resolver: &ModelResolver,
        build: impl FnOnce(&SecondOrderMrm) -> Result<SolvePlan, MrmError>,
    ) -> Result<Answer, AnswerError> {
        let t0 = Instant::now();
        let found = self.entries.iter().enumerate().find_map(|(idx, e)| {
            // `str` equality compares the lengths first, then the bytes.
            let pos = e.series.iter().position(|k| k.text.as_deref() == Some(&*text));
            pos.map(|pos| (idx, pos))
        });
        if let Some((idx, pos)) = found {
            self.tick += 1;
            self.count_plan(true);
            let entry = &mut self.entries[idx];
            entry.last_used = self.tick;
            let kept = entry.series.remove(pos);
            return self.query(idx, kept, None, times, order, true, ns(t0.elapsed()));
        }
        let lookup_ns = ns(t0.elapsed());
        let spec = ModelSpec::Inline(text);
        let model = resolver(&spec).map_err(AnswerError::Model)?;
        let ModelSpec::Inline(text) = spec else {
            unreachable!("the spec was built inline above")
        };
        self.answer_model(&model, Some(text), lookup_ns, times, order, || {
            build(&model)
        })
    }

    /// [`PlanCache::answer`], giving `text` to the series when the query
    /// succeeds; `lookup_ns` is added to the answer's `plan_ns`.
    fn answer_model(
        &mut self,
        model: &SecondOrderMrm,
        text: Option<String>,
        lookup_ns: u64,
        times: &[f64],
        order: usize,
        build: impl FnOnce() -> Result<SolvePlan, MrmError>,
    ) -> Result<Answer, AnswerError> {
        let plan_t0 = Instant::now();
        let (chain, digest) = digests(model);
        let (idx, plan_hit) = self
            .slot(PlanKey { digest: chain }, model, build)
            .map_err(|e| AnswerError::Plan(digest, e))?;
        let plan_ns = lookup_ns + ns(plan_t0.elapsed());
        let e = &mut self.entries[idx];
        // The digest picks the candidate; π decides.
        let kept = match e
            .series
            .iter()
            .position(|k| k.digest == digest && k.series.pi() == model.initial())
        {
            Some(pos) => e.series.remove(pos),
            None => Kept {
                series: ProjectedSeries::new(model.initial().to_vec())
                    .with_max_bytes(SERIES_BYTES_PER_PLAN as usize),
                digest,
                text: None,
            },
        };
        self.query(idx, kept, text, times, order, plan_hit, plan_ns)
    }

    /// Runs the query on entry `idx`'s plan and `kept`'s series, keeps
    /// the series as the entry's newest (with `text` if the query
    /// succeeds), refits the entry's bytes and counts the outcome.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &mut self,
        idx: usize,
        mut kept: Kept,
        text: Option<String>,
        times: &[f64],
        order: usize,
        plan_hit: bool,
        plan_ns: u64,
    ) -> Result<Answer, AnswerError> {
        let execute_t0 = Instant::now();
        let digest = kept.digest;
        let e = &mut self.entries[idx];
        let result = e.plan.execute_weighted(&mut kept.series, times, order);
        let execute_ns = ns(execute_t0.elapsed());
        let kept_here = kept.series.g().is_some();
        if kept_here {
            e.series.push(kept);
        }
        let text = text.filter(|_| kept_here && result.is_ok());
        let dropped = e.fit(text);
        let bytes = e.plan.footprint_bytes() as u64 + e.series_bytes() + e.text_bytes();
        self.resident_bytes = self.resident_bytes - e.bytes + bytes;
        e.bytes = bytes;
        self.count_series_evictions(dropped);
        self.enforce_budget();
        let (solutions, used) = result.map_err(|e| AnswerError::Solve(digest, e))?;
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
            entry: digest,
            plan_ns,
            execute_ns,
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
    use crate::proto::ModelSpec;
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
        assert!(matches!(far, Err(AnswerError::Solve(..))));
        assert_eq!(cache.projection_entries(), 0);
    }

    #[test]
    fn an_entry_keeps_its_series_within_its_byte_budget() {
        // 128 bytes a step at order 16 (orders 1–16; a₀ = Σπ is not
        // recorded): each series takes a bit less than half the budget.
        let m = model(2.0);
        let q = m.generator().uniformization_rate();
        let t = 0.4 * SERIES_BYTES_PER_PLAN as f64 / 128.0 / q;
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
        // 128 bytes a step at order 16 (orders 1–16): this horizon's G
        // needs more than the whole budget.
        let m = model(2.0);
        let q = m.generator().uniformization_rate();
        let t = 1.05 * SERIES_BYTES_PER_PLAN as f64 / 128.0 / q;
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

    /// Resolves a text `"<rate> [<π₀>] [# …]"` to [`model`] at that rate,
    /// started from `(π₀, 1 − π₀)` when π₀ is given.
    fn by_rate(spec: &ModelSpec) -> Result<SecondOrderMrm, String> {
        let ModelSpec::Inline(text) = spec else {
            panic!("the cache resolves texts inline: {spec:?}")
        };
        let mut words = text.split('#').next().unwrap_or("").split_whitespace();
        let rate: f64 = words.next().and_then(|w| w.parse().ok()).ok_or("no rate")?;
        let m = model(rate);
        match words.next().map(str::parse::<f64>) {
            None => Ok(m),
            Some(Ok(p)) => m.with_initial(vec![p, 1.0 - p]).map_err(|e| e.to_string()),
            Some(Err(e)) => Err(e.to_string()),
        }
    }

    fn build_max(m: &SecondOrderMrm) -> Result<SolvePlan, somrm_core::MrmError> {
        build_plan(m, crate::MAX_ORDER)
    }

    #[test]
    fn evicting_an_entry_drops_its_texts_and_texts_count_in_its_bytes() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let calls = std::cell::Cell::new(0);
        let counting = |spec: &ModelSpec| {
            calls.set(calls.get() + 1);
            by_rate(spec)
        };
        let mut cache = PlanCache::new(1, RecorderHandle::new(registry.clone()));
        let plan_bytes = build_max(&model(2.0)).unwrap().footprint_bytes() as u64;
        let first = cache
            .answer_text("2".to_string(), &[0.5], 2, &counting, build_max)
            .unwrap();
        assert_eq!(cache.text_bytes(), 1);
        let entry_a = plan_bytes + cache.projection_bytes() + 1;
        assert_eq!(cache.resident_bytes(), entry_a);
        let hit = cache
            .answer_text("2".to_string(), &[0.25], 1, &counting, |_| panic!("cached"))
            .unwrap();
        assert!(hit.plan_hit);
        assert_eq!((hit.series, hit.entry), (SeriesUse::Hit, first.entry));
        assert_eq!(calls.get(), 1);
        // Another chain evicts the entry, its series and its text.
        cache
            .answer_text("4.5 # b".to_string(), &[0.5], 2, &counting, build_max)
            .unwrap();
        assert_eq!(cache.text_bytes(), "4.5 # b".len() as u64);
        assert_eq!(
            cache.resident_bytes(),
            plan_bytes + cache.projection_bytes() + cache.text_bytes()
        );
        assert_eq!(cache.stats().evict_bytes, entry_a);
        assert_eq!(
            registry.snapshot().gauge("mem.cache.resident"),
            Some(cache.resident_bytes() as f64)
        );
        let back = cache
            .answer_text("2".to_string(), &[0.25], 1, &counting, build_max)
            .unwrap();
        assert_eq!(calls.get(), 3, "the evicted text is resolved again");
        assert!(!back.plan_hit);
        assert_eq!(back.solutions[0].weighted, hit.solutions[0].weighted);
        // A text the resolver refuses is remembered nowhere.
        for _ in 0..2 {
            let refused = cache.answer_text("x".to_string(), &[0.5], 2, &counting, build_max);
            assert!(matches!(refused, Err(AnswerError::Model(_))));
        }
        assert_eq!(calls.get(), 5);
    }

    #[test]
    fn a_text_past_the_series_budget_is_not_remembered_and_evicts_no_series() {
        let calls = std::cell::Cell::new(0);
        let counting = |spec: &ModelSpec| {
            calls.set(calls.get() + 1);
            by_rate(spec)
        };
        let m = model(2.0);
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        let other = m.with_initial(vec![0.5, 0.5]).unwrap();
        cache.answer(&other, &[0.5], 2, || build_max(&m)).unwrap();
        cache
            .answer_text("2".to_string(), &[0.5], 2, &counting, build_max)
            .unwrap();
        let big = format!("2 #{}", " ".repeat(SERIES_BYTES_PER_PLAN as usize));
        for round in 1..=2 {
            let answer = cache
                .answer_text(big.clone(), &[0.5], 2, &counting, build_max)
                .unwrap();
            assert_eq!((answer.plan_hit, answer.series), (true, SeriesUse::Hit));
            assert_eq!(calls.get(), 1 + round, "the big text is resolved each time");
        }
        assert_eq!(cache.projection_entries(), 2);
        assert_eq!(cache.projection_stats().evictions, 0);
        assert_eq!(cache.text_bytes(), 1, "the fitting spelling stays");
        cache
            .answer_text("2".to_string(), &[0.5], 2, &counting, build_max)
            .unwrap();
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn texts_go_before_series_within_an_entrys_budget() {
        // At order 16 each series takes a bit more than 0.3 of the budget
        // and each text 0.25: two of each do not fit, two series and a
        // text do.
        let m = model(2.0);
        let q = m.generator().uniformization_rate();
        let t = 0.3 * SERIES_BYTES_PER_PLAN as f64 / 128.0 / q;
        let pad = " ".repeat(SERIES_BYTES_PER_PLAN as usize / 4);
        let (a, b) = (format!("2 # {pad}"), format!("2 0.5 # {pad}"));
        let calls = std::cell::Cell::new(0);
        let counting = |spec: &ModelSpec| {
            calls.set(calls.get() + 1);
            by_rate(spec)
        };
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        let mut ask = |text: &String| {
            cache
                .answer_text(text.clone(), &[t], 16, &counting, build_max)
                .unwrap();
            (cache.projection_entries(), cache.text_bytes())
        };
        assert_eq!(ask(&a), (1, a.len() as u64));
        assert_eq!(ask(&b), (2, b.len() as u64), "a's text made room");
        assert_eq!(calls.get(), 2);
        assert_eq!(ask(&b), (2, b.len() as u64));
        assert_eq!(calls.get(), 2, "b's text is remembered");
        assert_eq!(ask(&a), (2, a.len() as u64), "now b's text made room");
        assert_eq!(calls.get(), 3);
        assert_eq!(cache.projection_stats().evictions, 0);
        assert!(cache.projection_bytes() + cache.text_bytes() <= SERIES_BYTES_PER_PLAN);
    }

    fn snap_counter(registry: &somrm_obs::MetricsRegistry, name: &str) -> Option<u64> {
        registry.snapshot().counter(name)
    }
}
