//! The test IRs shared by passman's unit tests: one "function" per vector
//! slot, holding a number — as a plain `i64` ([`Toy`]), or in a body that
//! counts its clones ([`CountingToy`]).

use crate::fingerprint::{LocalFingerprint, StableHasher};
use crate::parallel::ShardedIr;
use crate::IrUnit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Toy {
    pub(crate) vals: Vec<i64>,
}

impl IrUnit for Toy {
    type FuncKey = usize;

    fn func_keys(&self) -> Vec<usize> {
        (0..self.vals.len()).collect()
    }

    fn size_hint(&self) -> usize {
        self.vals.len()
    }

    /// A hash of the slot's value; slots call nothing.
    fn local_fingerprint(&self, f: usize) -> LocalFingerprint {
        let mut h = StableHasher::new();
        h.write_i64(self.vals[f]);
        LocalFingerprint {
            hash: h.finish(),
            callees: Vec::new(),
        }
    }
}

impl ShardedIr for Toy {
    type Func = i64;

    fn detach_funcs(&mut self) -> Vec<(usize, i64)> {
        std::mem::take(&mut self.vals)
            .into_iter()
            .enumerate()
            .collect()
    }

    fn attach_funcs(&mut self, funcs: Vec<(usize, i64)>) {
        assert!(self.vals.is_empty());
        for (i, (k, v)) in funcs.into_iter().enumerate() {
            assert_eq!(i, k, "functions re-attach in key order");
            self.vals.push(v);
        }
    }

    fn clone_func(&self, key: usize) -> i64 {
        self.vals[key]
    }

    fn restore_func(&mut self, key: usize, func: i64) {
        self.vals[key] = func;
    }

    fn func_size_hint(&self, _key: usize) -> usize {
        1
    }
}

/// A function body that bumps a counter, shared by its module, whenever
/// it is cloned.
#[derive(Debug)]
pub(crate) struct Counted {
    pub(crate) val: i64,
    clones: Arc<AtomicUsize>,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted {
            val: self.val,
            clones: Arc::clone(&self.clones),
        }
    }
}

/// [`Toy`] over [`Counted`] bodies.
#[derive(Clone, Debug)]
pub(crate) struct CountingToy {
    pub(crate) funcs: Vec<Counted>,
    clones: Arc<AtomicUsize>,
}

impl CountingToy {
    pub(crate) fn new(vals: &[i64]) -> Self {
        let clones = Arc::new(AtomicUsize::new(0));
        let funcs = vals
            .iter()
            .map(|&val| Counted {
                val,
                clones: Arc::clone(&clones),
            })
            .collect();
        CountingToy { funcs, clones }
    }

    /// Function bodies cloned so far.
    pub(crate) fn clones(&self) -> usize {
        self.clones.load(Ordering::Relaxed)
    }
}

impl IrUnit for CountingToy {
    type FuncKey = usize;

    fn func_keys(&self) -> Vec<usize> {
        (0..self.funcs.len()).collect()
    }

    fn size_hint(&self) -> usize {
        self.funcs.len()
    }

    fn local_fingerprint(&self, f: usize) -> LocalFingerprint {
        let mut h = StableHasher::new();
        h.write_i64(self.funcs[f].val);
        LocalFingerprint {
            hash: h.finish(),
            callees: Vec::new(),
        }
    }
}

impl ShardedIr for CountingToy {
    type Func = Counted;

    fn detach_funcs(&mut self) -> Vec<(usize, Counted)> {
        std::mem::take(&mut self.funcs)
            .into_iter()
            .enumerate()
            .collect()
    }

    fn attach_funcs(&mut self, funcs: Vec<(usize, Counted)>) {
        self.funcs = funcs.into_iter().map(|(_, f)| f).collect();
    }

    fn clone_func(&self, key: usize) -> Counted {
        self.funcs[key].clone()
    }

    fn restore_func(&mut self, key: usize, func: Counted) {
        self.funcs[key] = func;
    }

    fn func_size_hint(&self, _key: usize) -> usize {
        1
    }
}
