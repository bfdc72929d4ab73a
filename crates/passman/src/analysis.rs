//! Lazily computed, cached, fingerprint-validated analyses — the
//! demand-driven half of the incremental query layer.
//!
//! Passes request analyses through an [`AnalysisManager`] instead of
//! computing them inline. The manager caches each result per function (or
//! per module for [`ModuleAnalysis`]) and returns `Rc` clones, so a pass
//! can hold a result while mutating unrelated state.
//!
//! ## Invalidation: fingerprints first, generations as fallback
//!
//! Historically the manager *push*-invalidated: a pass declaring
//! [`Mutation`] dropped every cached result for the
//! declared functions (or for everything, under `Mutation::All`/`None`),
//! even when the pass left most functions byte-identical. Since the
//! query-layer refactor, mutation declarations only mark the manager
//! *stale* ([`note_mutation`](AnalysisManager::note_mutation)); the next
//! query recomputes the module's [`Fingerprint`]s and drops **only** the
//! entries whose function's fingerprint actually changed — a recomputed
//! fingerprint that matches keeps the cached dom tree/liveness/escape
//! result even though a pass reported `changed`. Because fingerprints
//! fold in transitive callee fingerprints, a `Mutation::Funcs`-scoped
//! pass that changes a callee automatically invalidates the *callers'*
//! entries too (the callgraph-edge audit gap).
//!
//! IR units that do not implement
//! [`IrUnit::fingerprints`] keep the legacy
//! generation-counter behaviour unchanged. Explicit
//! [`invalidate`](AnalysisManager::invalidate) /
//! [`invalidate_all`](AnalysisManager::invalidate_all) always force-drop
//! regardless of fingerprints — they remain the escape hatch for passes
//! that know better (`Mutation::Handled`) and for fault rollback.
//!
//! ## Incremental refresh and the declaration contract
//!
//! A refresh does not re-hash the whole module. The manager memoizes
//! each function's [`LocalFingerprint`] (its own structure plus its
//! callee list) and the IR's context word, records a *dirty set* from
//! [`invalidate`](AnalysisManager::invalidate) and from
//! `note_mutation(Funcs(ks))`, and at the next query re-hashes only the
//! dirty functions, then re-propagates callee fingerprints from them up
//! through their callers ([`Propagation::update`]). `All`, `None`,
//! `Handled`, [`invalidate_all`](AnalysisManager::invalidate_all) and
//! fault rollback (which calls `invalidate_all`) re-hash everything, as
//! does any change to the set of functions. A pass like `sink`, which
//! invalidates each function it rewrites and queries the next one, so
//! costs O(size of the rewritten functions + F) per refresh instead of
//! O(module size) — linear rather than quadratic in the module.
//!
//! This is sound only if passes declare what they change:
//!
//! * report `changed` on any edit (a silent edit is never re-hashed);
//! * `Mutation::Funcs(ks)` must cover every function touched, and must
//!   not add or remove functions or touch the context word (type and
//!   extern tables): passes that do declare `All`;
//! * `Handled` passes [`invalidate`](AnalysisManager::invalidate) each
//!   function as they change it.
//!
//! Debug builds check the contract twice: every incremental refresh is
//! compared against a full [`IrUnit::fingerprints`], and the runner
//! compares every function's local fingerprint before and after each
//! pass reporting `changed = false` or `Funcs(ks)` against its
//! declaration. Release builds pay for neither.
//!
//! The manager keeps hit/miss counters per analysis, plus a high-water
//! mark of how many times any single `(function, analysis)` pair was
//! computed between invalidations — the caching contract says this must
//! be 1, and tests assert it stays there. A fingerprint-driven drop
//! counts as an invalidation of that function for this contract.
//!
//! The manager also carries the (optional) cross-job
//! [`CompileCache`] handle, so sharded executors can
//! reach it — the manager is the only state passes see.

use crate::cache::{CompileCache, CompileCacheStats};
use crate::fingerprint::{Fingerprint, LocalFingerprint, Propagation};
use crate::pass::Mutation;
use crate::IrUnit;
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// A per-function analysis over an IR unit.
///
/// Implementations are zero-sized marker types; the computed result is
/// `Output`. The `NAME` is used for cache counters and reports.
pub trait Analysis<M: IrUnit>: 'static {
    /// The computed result type.
    type Output: 'static;

    /// Stable, human-readable analysis name (e.g. `"dom-tree"`).
    const NAME: &'static str;

    /// Computes the analysis for one function.
    fn compute(m: &M, f: M::FuncKey) -> Self::Output;
}

/// A module-wide analysis over an IR unit (e.g. field affinity, which
/// aggregates accesses across all functions).
pub trait ModuleAnalysis<M: IrUnit>: 'static {
    /// The computed result type.
    type Output: 'static;

    /// Stable, human-readable analysis name.
    const NAME: &'static str;

    /// Computes the analysis for the whole module.
    fn compute(m: &M) -> Self::Output;
}

/// Hit/miss counters for one analysis kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounter {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that had to compute.
    pub misses: u64,
    /// Maximum number of computes observed for a single
    /// `(function, analysis)` pair between invalidations of that
    /// function. The caching contract keeps this at 1.
    pub max_computes_between_invalidations: u64,
}

/// Counters for the fingerprint-driven retention machinery, reported per
/// run alongside the per-analysis [`CacheCounter`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FingerprintStats {
    /// Module-wide fingerprint recomputations (one per batch of mutation
    /// declarations, performed lazily at the next query).
    pub refreshes: u64,
    /// Cached per-function entries that *survived* a refresh because
    /// their function's fingerprint was unchanged — each one an analysis
    /// the legacy scheme would have recomputed.
    pub retained: u64,
    /// Cached per-function entries dropped because their function's
    /// fingerprint changed (or the function disappeared).
    pub dropped: u64,
    /// Functions whose local structure was hashed: every function on a
    /// full recompute, only the dirty ones on an incremental refresh.
    pub rehashed: u64,
}

impl FingerprintStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: FingerprintStats) {
        self.refreshes += other.refreshes;
        self.retained += other.retained;
        self.dropped += other.dropped;
        self.rehashed += other.rehashed;
    }

    /// Counter-wise difference (`self - earlier`).
    pub fn since(&self, earlier: FingerprintStats) -> FingerprintStats {
        FingerprintStats {
            refreshes: self.refreshes - earlier.refreshes,
            retained: self.retained - earlier.retained,
            dropped: self.dropped - earlier.dropped,
            rehashed: self.rehashed - earlier.rehashed,
        }
    }
}

/// Caches per-function and module-wide analysis results (see the module
/// docs for the fingerprint-based invalidation scheme).
pub struct AnalysisManager<M: IrUnit> {
    /// Per-function results.
    cache: HashMap<(M::FuncKey, TypeId), Rc<dyn Any>>,
    /// Every analysis kind ever cached (a handful), so a function's
    /// entries can be dropped by key instead of by scanning the cache.
    kinds: Vec<TypeId>,
    module_cache: HashMap<TypeId, Rc<dyn Any>>,
    counters: BTreeMap<&'static str, CacheCounter>,
    /// Per-function invalidation generation; bumped by `invalidate` and
    /// by fingerprint-driven drops.
    generation: HashMap<M::FuncKey, u64>,
    /// Global epoch; bumped by `invalidate_all`.
    epoch: u64,
    /// Computes per `(function, analysis)` in the current generation.
    computes: HashMap<(M::FuncKey, TypeId), (u64, u64, u64)>, // (epoch, gen, count)
    invalidation_events: u64,
    /// Last known per-function fingerprints (empty until first refresh).
    fingerprints: HashMap<M::FuncKey, Fingerprint>,
    fp_initialized: bool,
    /// Set by `note_mutation`/`invalidate*`; the next query refreshes.
    fp_dirty: bool,
    /// Memoized fingerprint inputs as of the last refresh: the function
    /// keys in `func_keys` order (and each key's position), their local
    /// parts, the context word, and the propagation over them.
    fp_keys: Vec<M::FuncKey>,
    fp_pos: HashMap<M::FuncKey, usize>,
    fp_locals: Vec<LocalFingerprint>,
    fp_context: Option<u64>,
    fp_prop: Propagation,
    /// Functions declared mutated since the last refresh (the only ones
    /// an incremental refresh re-hashes).
    fp_dirty_funcs: HashSet<M::FuncKey>,
    /// A wholesale declaration since the last refresh: re-hash everything.
    fp_full: bool,
    /// All mutations since the last refresh were `Mutation::Handled`
    /// (the pass kept the cache coherent itself): keep entries instead
    /// of dropping.
    pending_handled_only: bool,
    fp_stats: FingerprintStats,
    /// Cross-job pass-output/lowering cache, when one is installed.
    compile_cache: Option<CompileCache>,
    cc_stats: CompileCacheStats,
}

impl<M: IrUnit> std::fmt::Debug for AnalysisManager<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisManager")
            .field("cached_entries", &self.cache.len())
            .field("counters", &self.counters)
            .field("fingerprints", &self.fp_stats)
            .finish()
    }
}

impl<M: IrUnit> Default for AnalysisManager<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: IrUnit> AnalysisManager<M> {
    /// An empty manager.
    pub fn new() -> Self {
        AnalysisManager {
            cache: HashMap::new(),
            kinds: Vec::new(),
            module_cache: HashMap::new(),
            counters: BTreeMap::new(),
            generation: HashMap::new(),
            epoch: 0,
            computes: HashMap::new(),
            invalidation_events: 0,
            fingerprints: HashMap::new(),
            fp_initialized: false,
            fp_dirty: true,
            fp_keys: Vec::new(),
            fp_pos: HashMap::new(),
            fp_locals: Vec::new(),
            fp_context: None,
            fp_prop: Propagation::default(),
            fp_dirty_funcs: HashSet::new(),
            fp_full: true,
            pending_handled_only: true,
            fp_stats: FingerprintStats::default(),
            compile_cache: None,
            cc_stats: CompileCacheStats::default(),
        }
    }

    /// Recomputes fingerprints if a mutation was declared since the last
    /// refresh, dropping exactly the entries whose function content
    /// changed. No-op for IRs without fingerprint support.
    fn refresh(&mut self, m: &M) {
        if !self.fp_dirty || !m.supports_fingerprints() {
            return;
        }
        self.fp_dirty = false;
        let rebind = std::mem::replace(&mut self.pending_handled_only, true);
        let changed = self.recompute(m);
        if !self.fp_initialized {
            self.fp_initialized = true;
            return;
        }
        self.fp_stats.refreshes += 1;
        if rebind {
            // Every mutation since the last refresh was `Handled`: the
            // pass kept results valid, so keep them.
            return;
        }
        let before = self.cache.len();
        for &f in &changed {
            for &kind in &self.kinds {
                self.cache.remove(&(f, kind));
            }
        }
        let dropped = (before - self.cache.len()) as u64;
        self.fp_stats.dropped += dropped;
        self.fp_stats.retained += self.cache.len() as u64;
        if dropped > 0 {
            self.invalidation_events += 1;
        }
        // A fingerprint-driven drop is an invalidation for the caching
        // contract: recomputes start a fresh generation.
        for f in changed {
            *self.generation.entry(f).or_insert(0) += 1;
        }
    }

    /// Brings the memoized fingerprint inputs and `fingerprints` up to
    /// date, returning the functions whose fingerprint changed (or that
    /// appeared or disappeared).
    ///
    /// Incremental — re-hashing only the functions declared mutated, and
    /// re-propagating only from them up through their callers — unless
    /// a wholesale declaration is pending or the set of functions moved;
    /// then every function and the context word are re-hashed. A dirty
    /// function whose callee list changed re-propagates the whole (cheap)
    /// callgraph from the memoized local parts.
    fn recompute(&mut self, m: &M) -> Vec<M::FuncKey> {
        let keys = m.func_keys();
        let dirty_funcs = std::mem::take(&mut self.fp_dirty_funcs);
        if self.fp_full || keys != self.fp_keys {
            self.fp_full = false;
            self.fp_locals = keys.iter().map(|&k| m.local_fingerprint(k)).collect();
            self.fp_context = m.fingerprint_context();
            self.fp_stats.rehashed += keys.len() as u64;
            self.fp_pos = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            self.fp_keys = keys;
            return self.repropagate();
        }
        let mut dirty: Vec<usize> = Vec::new();
        let mut relink = false;
        for k in dirty_funcs {
            let Some(&i) = self.fp_pos.get(&k) else {
                continue;
            };
            let local = m.local_fingerprint(k);
            self.fp_stats.rehashed += 1;
            if local != self.fp_locals[i] {
                relink |= local.callees != self.fp_locals[i].callees;
                self.fp_locals[i] = local;
                dirty.push(i);
            }
        }
        let changed: Vec<M::FuncKey> = if relink {
            self.repropagate()
        } else {
            let moved = self
                .fp_prop
                .update(&self.fp_locals, self.fp_context, &dirty);
            for &i in &moved {
                self.fingerprints
                    .insert(self.fp_keys[i], self.fp_prop.fingerprints()[i]);
            }
            moved.into_iter().map(|i| self.fp_keys[i]).collect()
        };
        #[cfg(debug_assertions)]
        {
            let full = m.fingerprints();
            assert!(
                full.len() == self.fingerprints.len()
                    && full
                        .iter()
                        .all(|(k, fp)| self.fingerprints.get(k) == Some(fp)),
                "incremental fingerprint refresh diverged from a full recompute: \
                 a function changed without being declared mutated"
            );
        }
        changed
    }

    /// Propagates the memoized local parts over the whole callgraph and
    /// diffs the result against the previous fingerprints.
    fn repropagate(&mut self) -> Vec<M::FuncKey> {
        self.fp_prop = Propagation::new(&self.fp_locals, self.fp_context);
        let new: HashMap<M::FuncKey, Fingerprint> = self
            .fp_keys
            .iter()
            .copied()
            .zip(self.fp_prop.fingerprints().iter().copied())
            .collect();
        let changed = self
            .fingerprints
            .iter()
            .filter(|(f, old)| new.get(f) != Some(old))
            .map(|(f, _)| *f)
            .chain(
                new.keys()
                    .filter(|f| !self.fingerprints.contains_key(f))
                    .copied(),
            )
            .collect();
        self.fingerprints = new;
        changed
    }

    /// Marks the manager stale after a pass reported `changed` with the
    /// given mutation scope. For fingerprint-capable IRs every scope
    /// (including the wholesale `All`/`None`) resolves lazily to
    /// "drop what actually changed" at the next query; other IRs keep the
    /// legacy push-invalidation semantics.
    pub fn note_mutation(&mut self, m: &M, mutated: &Mutation<M>) {
        if m.supports_fingerprints() {
            self.fp_dirty = true;
            match mutated {
                // Only the declared functions need re-hashing.
                Mutation::Funcs(fs) => self.fp_dirty_funcs.extend(fs.iter().copied()),
                _ => self.fp_full = true,
            }
            if !matches!(mutated, Mutation::Handled) {
                self.pending_handled_only = false;
                // Module-wide analyses may aggregate anything (including
                // shell state fingerprints cannot see): stay conservative.
                self.module_cache.clear();
            }
            return;
        }
        match mutated {
            Mutation::None | Mutation::All => self.invalidate_all(),
            Mutation::Funcs(fs) => {
                for &f in fs {
                    self.invalidate(f);
                }
            }
            Mutation::Handled => {}
        }
    }

    /// Returns the current fingerprint of function `f`, refreshing if
    /// stale. `None` when the IR does not support fingerprints or the
    /// function is unknown.
    pub fn fingerprint_of(&mut self, m: &M, f: M::FuncKey) -> Option<Fingerprint> {
        if !m.supports_fingerprints() {
            return None;
        }
        self.refresh(m);
        if !self.fp_initialized {
            // No mutation was ever declared: compute the initial map now.
            self.fp_dirty = true;
            self.refresh(m);
        }
        self.fingerprints.get(&f).copied()
    }

    /// Returns the cached result of analysis `A` for function `f`,
    /// computing (and caching) it on first request.
    pub fn get<A: Analysis<M>>(&mut self, m: &M, f: M::FuncKey) -> Rc<A::Output> {
        self.refresh(m);
        let key = (f, TypeId::of::<A>());
        if let Some(hit) = self.cache.get(&key) {
            self.counters.entry(A::NAME).or_default().hits += 1;
            return Rc::clone(hit)
                .downcast::<A::Output>()
                .expect("analysis cache type");
        }
        let value: Rc<A::Output> = Rc::new(A::compute(m, f));
        let gen = self.generation.get(&f).copied().unwrap_or(0);
        let entry = self.computes.entry(key).or_insert((self.epoch, gen, 0));
        if entry.0 == self.epoch && entry.1 == gen {
            entry.2 += 1;
        } else {
            *entry = (self.epoch, gen, 1);
        }
        let count = entry.2;
        let ctr = self.counters.entry(A::NAME).or_default();
        ctr.misses += 1;
        ctr.max_computes_between_invalidations = ctr.max_computes_between_invalidations.max(count);
        if !self.kinds.contains(&key.1) {
            self.kinds.push(key.1);
        }
        self.cache.insert(key, Rc::clone(&value) as Rc<dyn Any>);
        value
    }

    /// Returns the cached result of module-wide analysis `A`, computing
    /// (and caching) it on first request.
    pub fn get_module<A: ModuleAnalysis<M>>(&mut self, m: &M) -> Rc<A::Output> {
        self.refresh(m);
        let key = TypeId::of::<A>();
        if let Some(hit) = self.module_cache.get(&key) {
            self.counters.entry(A::NAME).or_default().hits += 1;
            return Rc::clone(hit)
                .downcast::<A::Output>()
                .expect("analysis cache type");
        }
        let value: Rc<A::Output> = Rc::new(A::compute(m));
        self.counters.entry(A::NAME).or_default().misses += 1;
        self.module_cache
            .insert(key, Rc::clone(&value) as Rc<dyn Any>);
        value
    }

    /// Force-drops every cached analysis for function `f` (and all
    /// module-wide analyses, which may depend on it), regardless of
    /// fingerprints.
    pub fn invalidate(&mut self, f: M::FuncKey) {
        *self.generation.entry(f).or_insert(0) += 1;
        self.invalidation_events += 1;
        for &kind in &self.kinds {
            self.cache.remove(&(f, kind));
        }
        self.module_cache.clear();
        // The content may have changed under us: re-fingerprint lazily.
        self.fp_dirty = true;
        self.fp_dirty_funcs.insert(f);
        self.pending_handled_only = false;
    }

    /// Force-drops every cached analysis.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        self.invalidation_events += 1;
        self.cache.clear();
        self.module_cache.clear();
        self.fp_dirty = true;
        self.fp_full = true;
        self.pending_handled_only = false;
    }

    /// Hit/miss counters per analysis name.
    pub fn counters(&self) -> &BTreeMap<&'static str, CacheCounter> {
        &self.counters
    }

    /// Counter for one analysis name (zeroed if never requested).
    pub fn counter(&self, name: &str) -> CacheCounter {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Number of invalidation events so far (explicit invalidations plus
    /// fingerprint refreshes that dropped at least one entry).
    pub fn invalidation_events(&self) -> u64 {
        self.invalidation_events
    }

    /// Number of live cached per-function entries (for tests).
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative fingerprint-retention counters.
    pub fn fingerprint_stats(&self) -> FingerprintStats {
        self.fp_stats
    }

    /// Installs the cross-job compile cache sharded executors consult.
    pub fn set_compile_cache(&mut self, cache: CompileCache) {
        self.compile_cache = Some(cache);
    }

    /// The installed compile cache, if any.
    pub fn compile_cache(&self) -> Option<&CompileCache> {
        self.compile_cache.as_ref()
    }

    /// Cumulative compile-cache counters recorded against this manager.
    pub fn compile_cache_stats(&self) -> CompileCacheStats {
        self.cc_stats
    }

    /// Records compile-cache lookup outcomes (called by the sharded
    /// executors after consulting the cache).
    pub fn note_compile_cache(&mut self, delta: CompileCacheStats) {
        self.cc_stats.merge(delta);
    }
}
