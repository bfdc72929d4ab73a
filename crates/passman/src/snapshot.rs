//! The copy-on-write snapshot engine behind every rollback.
//!
//! Before a pass (or a lowering stage) runs under a recovering
//! [`FaultPolicy`](crate::FaultPolicy), the runner captures whatever the
//! pass declares it *may* mutate ([`Pass::may_mutate`](crate::Pass::may_mutate))
//! in a [`CowEngine`]; if the pass faults, the engine restores the module
//! to its pre-pass state. One engine lives for one pipeline run.
//!
//! A `Mutation::Funcs(keys)` scope clones only the declared functions,
//! and clones made for an earlier pass are *reused* while those
//! functions stay unmutated (commit keeps entries whose function did not
//! change); a `Mutation::All` scope falls back to a full module clone.
//! The pool holds exactly each function's pre-pass state, so a panic
//! contained to one function of a sharded pass is rolled back by
//! restoring just that function ([`CowEngine::restore_funcs`]).
//!
//! The engine meters its work ([`SnapshotStats`] cumulative,
//! [`SnapshotCost`] per capture) in "units" — the implementor's
//! `size_hint`/`func_size_hint`, i.e. instructions cloned — so the
//! compile-time profiler can show exactly how much cloning recovery
//! paid for.

use crate::parallel::ShardedIr;
use crate::pass::Mutation;
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
    /// Rollbacks performed (whole passes, and single functions of a
    /// sharded pass).
    pub restores: usize,
}

impl SnapshotStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: SnapshotStats) {
        self.captures += other.captures;
        self.full_clones += other.full_clones;
        self.funcs_cloned += other.funcs_cloned;
        self.funcs_reused += other.funcs_reused;
        self.units_cloned += other.units_cloned;
        self.restores += other.restores;
    }
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

/// Per-function copy-on-write snapshots of a [`ShardedIr`] module.
///
/// Call order per pass invocation: [`capture`](CowEngine::capture)
/// before the pass, then exactly one of [`restore`](CowEngine::restore)
/// (the pass faulted) or [`commit`](CowEngine::commit) (it succeeded,
/// with its actual mutation declaration).
#[derive(Debug)]
pub struct CowEngine<M: ShardedIr> {
    /// Pre-pass function clones, valid while the function is unmutated.
    pool: HashMap<M::FuncKey, M::Func>,
    /// Keys of the most recent `Funcs` capture (the restore scope).
    scope: Vec<M::FuncKey>,
    /// Whole-module snapshot, when the last scope was `All`.
    full: Option<M>,
    stats: SnapshotStats,
}

impl<M: ShardedIr> Default for CowEngine<M> {
    fn default() -> Self {
        CowEngine {
            pool: HashMap::new(),
            scope: Vec::new(),
            full: None,
            stats: SnapshotStats::default(),
        }
    }
}

impl<M: ShardedIr + Clone> CowEngine<M> {
    /// A fresh engine with an empty clone pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures whatever `scope` says the upcoming pass may mutate.
    pub fn capture(&mut self, m: &M, scope: &Mutation<M>) -> SnapshotCost {
        let t0 = Instant::now();
        self.stats.captures += 1;
        self.scope.clear();
        self.full = None;
        let mut cost = SnapshotCost::default();
        match scope {
            // The pass promises to mutate nothing: nothing to hold.
            Mutation::None => {}
            Mutation::Funcs(keys) => {
                self.scope = keys.clone();
                for &k in keys {
                    match self.pool.entry(k) {
                        Entry::Occupied(_) => cost.funcs_reused += 1,
                        Entry::Vacant(slot) => {
                            cost.units_cloned += m.func_size_hint(k);
                            slot.insert(m.clone_func(k));
                            cost.funcs_cloned += 1;
                        }
                    }
                }
                self.stats.funcs_cloned += cost.funcs_cloned;
                self.stats.funcs_reused += cost.funcs_reused;
            }
            Mutation::All => {
                // The pass may restructure the module shell: only a full
                // clone is safe, and the per-function pool is void.
                self.pool.clear();
                cost.full = true;
                cost.units_cloned = m.size_hint();
                self.full = Some(m.clone());
                self.stats.full_clones += 1;
            }
        }
        self.stats.units_cloned += cost.units_cloned;
        cost.time = t0.elapsed();
        cost
    }

    /// Rolls the module back to the captured state.
    pub fn restore(&mut self, m: &mut M) {
        self.stats.restores += 1;
        match self.full.take() {
            Some(snap) => {
                *m = snap;
                self.pool.clear();
            }
            // The faulting pass promised to stay within `scope`: restoring
            // those functions from the pool reconstructs the pre-pass module.
            None => {
                for k in std::mem::take(&mut self.scope) {
                    self.put_back(m, k);
                }
            }
        }
    }

    /// Rolls back only `keys` — functions of the current `Funcs` capture
    /// whose sharded work panicked — leaving the rest of the pass's work
    /// in place. Counts one restore per function.
    pub fn restore_funcs(&mut self, m: &mut M, keys: &[M::FuncKey]) {
        self.stats.restores += keys.len();
        for &k in keys {
            self.put_back(m, k);
        }
    }

    fn put_back(&self, m: &mut M, k: M::FuncKey) {
        if let Some(f) = self.pool.get(&k) {
            m.restore_func(k, f.clone());
        }
    }

    /// Reconciles the engine with a successful pass: clones of the
    /// functions it actually mutated are now stale and dropped; clones of
    /// untouched functions stay reusable.
    pub fn commit(&mut self, mutated: &Mutation<M>, changed: bool) {
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
            Mutation::All => self.pool.clear(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SnapshotStats {
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
        let c = eng.capture(&m, &Mutation::Funcs(vec![1, 3]));
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
        let c = eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
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
    fn cow_restore_funcs_rolls_back_only_the_named_functions() {
        let mut m = Toy {
            vals: vec![1, 2, 3],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
        m.vals = vec![10, 20, 30];
        eng.restore_funcs(&mut m, &[1]);
        assert_eq!(m.vals, vec![10, 2, 30]);
        assert_eq!(eng.stats().restores, 1);
    }

    #[test]
    fn cow_falls_back_to_full_clone_for_all_scope() {
        let mut m = Toy { vals: vec![5, 6] };
        let mut eng = CowEngine::<Toy>::new();
        let c = eng.capture(&m, &Mutation::All);
        assert!(c.full);
        assert_eq!(c.units_cloned, 2);
        m.vals.clear(); // even structural damage rolls back
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![5, 6]);
    }
}
