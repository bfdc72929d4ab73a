//! Snapshot engines for the fault-recovery path.
//!
//! Before a pass runs under a recovering [`FaultPolicy`](crate::FaultPolicy),
//! the runner captures a snapshot of whatever the pass declares it *may*
//! mutate ([`Pass::may_mutate`](crate::Pass::may_mutate)); if the pass
//! faults, the snapshot restores the module to its pre-pass state.
//!
//! Two engines implement this contract:
//!
//! * [`FullCloneEngine`] — the legacy strategy: clone the whole module,
//!   every pass, no matter what it touches;
//! * [`CowEngine`] — per-function copy-on-write for [`ShardedIr`]
//!   modules: a `Mutation::Funcs(keys)` scope clones only the declared
//!   functions, and clones made for an earlier pass are *reused* while
//!   those functions stay unmutated (commit keeps entries whose function
//!   did not change), falling back to a full module clone only for
//!   `Mutation::All` scopes.
//!
//! Both engines meter their work ([`SnapshotStats`] cumulative,
//! [`SnapshotCost`] per capture) in "units" — the implementor's
//! `size_hint`/`func_size_hint`, i.e. instructions cloned — so the
//! compile-time profiler can show exactly how much cloning each policy
//! paid for.

use crate::parallel::ShardedIr;
use crate::pass::Mutation;
use crate::IrUnit;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cumulative snapshot-engine counters for a whole pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Captures requested (one per recovering pass invocation).
    pub captures: usize,
    /// Captures that fell back to cloning the entire module.
    pub full_clones: usize,
    /// Individual functions cloned across all captures.
    pub funcs_cloned: usize,
    /// Functions whose existing pooled clone was reused (CoW hit).
    pub funcs_reused: usize,
    /// Size units (instructions) actually cloned across all captures.
    pub units_cloned: usize,
    /// Rollbacks performed.
    pub restores: usize,
}

/// What one capture cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCost {
    /// Whether this capture cloned the entire module.
    pub full: bool,
    /// Functions cloned by this capture.
    pub funcs_cloned: usize,
    /// Functions served from the pool without cloning.
    pub funcs_reused: usize,
    /// Size units (instructions) cloned by this capture.
    pub units_cloned: usize,
    /// Wall-clock time spent capturing.
    pub time: Duration,
}

/// Strategy for capturing and restoring pre-pass module state.
///
/// Call order per pass invocation: `capture` before the pass, then
/// exactly one of `restore` (the pass faulted) or `commit` (it
/// succeeded, with its actual mutation declaration).
pub trait SnapshotEngine<M: IrUnit> {
    /// Captures whatever `scope` says the upcoming pass may mutate.
    fn capture(&mut self, m: &M, scope: &Mutation<M>);

    /// Rolls the module back to the captured state.
    fn restore(&mut self, m: &mut M);

    /// Reconciles the engine with a successful pass: state captured for
    /// functions the pass actually mutated is now stale and dropped;
    /// state for untouched functions stays reusable.
    fn commit(&mut self, mutated: &Mutation<M>, changed: bool);

    /// Cost of the most recent capture.
    fn last_cost(&self) -> SnapshotCost;

    /// Cumulative counters.
    fn stats(&self) -> SnapshotStats;
}

/// The legacy engine: clone the whole module on every capture.
#[derive(Debug, Default)]
pub struct FullCloneEngine<M> {
    snapshot: Option<M>,
    last: SnapshotCost,
    stats: SnapshotStats,
}

impl<M> FullCloneEngine<M> {
    /// A fresh engine holding no snapshot.
    pub fn new() -> Self {
        FullCloneEngine {
            snapshot: None,
            last: SnapshotCost::default(),
            stats: SnapshotStats::default(),
        }
    }
}

impl<M: IrUnit + Clone> SnapshotEngine<M> for FullCloneEngine<M> {
    fn capture(&mut self, m: &M, _scope: &Mutation<M>) {
        let t0 = Instant::now();
        let units = m.size_hint();
        self.snapshot = Some(m.clone());
        self.last = SnapshotCost {
            full: true,
            funcs_cloned: 0,
            funcs_reused: 0,
            units_cloned: units,
            time: t0.elapsed(),
        };
        self.stats.captures += 1;
        self.stats.full_clones += 1;
        self.stats.units_cloned += units;
    }

    fn restore(&mut self, m: &mut M) {
        if let Some(snap) = self.snapshot.take() {
            *m = snap;
            self.stats.restores += 1;
        }
    }

    fn commit(&mut self, _mutated: &Mutation<M>, _changed: bool) {
        self.snapshot = None;
    }

    fn last_cost(&self) -> SnapshotCost {
        self.last
    }

    fn stats(&self) -> SnapshotStats {
        self.stats
    }
}

/// Per-function copy-on-write engine for [`ShardedIr`] modules.
///
/// Keeps a pool of pre-pass function clones keyed by function id. A
/// `Mutation::Funcs(keys)` capture clones only pool-missing keys; commit
/// evicts exactly the functions the pass reported mutated, so clean
/// functions carry their clone across passes for free. An `All` scope
/// (the pass may touch the module shell) falls back to a full module
/// clone, preserving the legacy guarantee.
#[derive(Debug)]
pub struct CowEngine<M: ShardedIr> {
    pool: HashMap<M::FuncKey, M::Func>,
    /// Keys of the most recent `Funcs` capture (the restore scope).
    scope: Vec<M::FuncKey>,
    /// Whole-module fallback snapshot, when the last scope was not
    /// function-shaped.
    full: Option<M>,
    last: SnapshotCost,
    stats: SnapshotStats,
}

impl<M: ShardedIr> Default for CowEngine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: ShardedIr> CowEngine<M> {
    /// A fresh engine with an empty clone pool.
    pub fn new() -> Self {
        CowEngine {
            pool: HashMap::new(),
            scope: Vec::new(),
            full: None,
            last: SnapshotCost::default(),
            stats: SnapshotStats::default(),
        }
    }
}

impl<M: ShardedIr + Clone> SnapshotEngine<M> for CowEngine<M> {
    fn capture(&mut self, m: &M, scope: &Mutation<M>) {
        let t0 = Instant::now();
        self.stats.captures += 1;
        match scope {
            Mutation::None => {
                // The pass promises to mutate nothing: nothing to hold.
                self.scope.clear();
                self.full = None;
                self.last = SnapshotCost {
                    time: t0.elapsed(),
                    ..SnapshotCost::default()
                };
            }
            Mutation::Funcs(keys) => {
                self.full = None;
                self.scope = keys.clone();
                let mut cloned = 0;
                let mut reused = 0;
                let mut units = 0;
                for &k in keys {
                    match self.pool.entry(k) {
                        Entry::Occupied(_) => reused += 1,
                        Entry::Vacant(slot) => {
                            units += m.func_size_hint(k);
                            slot.insert(m.clone_func(k));
                            cloned += 1;
                        }
                    }
                }
                self.stats.funcs_cloned += cloned;
                self.stats.funcs_reused += reused;
                self.stats.units_cloned += units;
                self.last = SnapshotCost {
                    full: false,
                    funcs_cloned: cloned,
                    funcs_reused: reused,
                    units_cloned: units,
                    time: t0.elapsed(),
                };
            }
            Mutation::All => {
                // The pass may restructure the module shell: only a full
                // clone is safe, and the per-function pool is void.
                self.scope.clear();
                self.pool.clear();
                let units = m.size_hint();
                self.full = Some(m.clone());
                self.stats.full_clones += 1;
                self.stats.units_cloned += units;
                self.last = SnapshotCost {
                    full: true,
                    funcs_cloned: 0,
                    funcs_reused: 0,
                    units_cloned: units,
                    time: t0.elapsed(),
                };
            }
        }
    }

    fn restore(&mut self, m: &mut M) {
        self.stats.restores += 1;
        if let Some(snap) = self.full.take() {
            *m = snap;
            self.pool.clear();
            return;
        }
        // The faulting pass promised to stay within `scope`: restoring
        // those functions from the pool reconstructs the pre-pass module.
        for k in std::mem::take(&mut self.scope) {
            if let Some(f) = self.pool.get(&k) {
                m.restore_func(k, f.clone());
            }
        }
    }

    fn commit(&mut self, mutated: &Mutation<M>, changed: bool) {
        self.full = None;
        self.scope.clear();
        if !changed {
            return;
        }
        match mutated {
            Mutation::None => {}
            Mutation::Funcs(keys) => {
                for k in keys {
                    self.pool.remove(k);
                }
            }
            Mutation::All => {
                self.pool.clear();
            }
        }
    }

    fn last_cost(&self) -> SnapshotCost {
        self.last
    }

    fn stats(&self) -> SnapshotStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::Toy;

    #[test]
    fn cow_clones_only_the_declared_functions() {
        let m = Toy {
            vals: vec![10, 20, 30, 40],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![1, 3]));
        let c = eng.last_cost();
        assert!(!c.full);
        assert_eq!(c.funcs_cloned, 2);
        assert_eq!(c.units_cloned, 2);
    }

    #[test]
    fn cow_reuses_pooled_clones_for_clean_functions() {
        let mut m = Toy {
            vals: vec![10, 20, 30],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
        // The pass mutated only function 1.
        m.vals[1] = 99;
        eng.commit(&Mutation::Funcs(vec![1]), true);
        // Next pass over the same scope: only function 1 needs recloning.
        eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
        let c = eng.last_cost();
        assert_eq!(c.funcs_cloned, 1);
        assert_eq!(c.funcs_reused, 2);
        assert_eq!(eng.stats().funcs_cloned, 4);
    }

    #[test]
    fn cow_restore_rolls_back_exactly_the_scope() {
        let mut m = Toy {
            vals: vec![1, 2, 3],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0, 2]));
        m.vals[0] = 100;
        m.vals[1] = 200; // outside the scope: a pass honoring its
                         // declaration would not do this; restore leaves it.
        m.vals[2] = 300;
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![1, 200, 3]);
        assert_eq!(eng.stats().restores, 1);
    }

    #[test]
    fn cow_falls_back_to_full_clone_for_all_scope() {
        let mut m = Toy { vals: vec![5, 6] };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::All);
        assert!(eng.last_cost().full);
        assert_eq!(eng.last_cost().units_cloned, 2);
        m.vals.clear(); // even structural damage rolls back
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![5, 6]);
    }

    #[test]
    fn full_clone_engine_always_pays_for_the_module() {
        let mut m = Toy {
            vals: vec![7, 8, 9],
        };
        let mut eng = FullCloneEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0]));
        assert!(eng.last_cost().full);
        assert_eq!(eng.last_cost().units_cloned, 3);
        m.vals[2] = 0;
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![7, 8, 9]);
    }
}
