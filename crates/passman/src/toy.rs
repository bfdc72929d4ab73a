//! The test IR shared by passman's unit tests: one "function" per vector
//! slot, holding a number.

use crate::fingerprint::{LocalFingerprint, StableHasher};
use crate::parallel::ShardedIr;
use crate::IrUnit;

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
