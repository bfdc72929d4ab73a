//! Structural content fingerprints — the cache key of the incremental
//! query layer.
//!
//! A [`Fingerprint`] is a stable structural hash of a function's
//! *content*: its operations, the structure of every type it touches,
//! and — transitively, via the callgraph — the fingerprints of every
//! function it calls. Two functions with the same fingerprint are
//! structurally identical for every per-function analysis and
//! transformation in the workspace, so analysis results, pass outputs,
//! and lowered bodies can be keyed by fingerprint and reused across
//! pipeline iterations and even across compile jobs (see
//! [`CompileCache`](crate::CompileCache)).
//!
//! The contract (DESIGN.md §14):
//!
//! * **Deterministic** — independent of process, run, thread count, and
//!   hash-map iteration order. The hasher below is a fixed-seed mixer,
//!   never `std`'s randomly keyed `SipHash`.
//! * **Renumbering-insensitive** — value ids are canonicalized by
//!   definition order before hashing, so a print/parse round trip or a
//!   compaction that renumbers values does not change the fingerprint.
//! * **Content-sensitive** — any edit to an op, an immediate, a referenced
//!   type's structure, or any (transitive) callee's body changes the
//!   fingerprint. Callee sensitivity is what lets the analysis manager
//!   invalidate *dependents* of a changed function without a separate
//!   dependency graph.
//!
//! The IR crates implement only the per-function walk
//! (`memoir_ir::fingerprint`, `lir::fingerprint`): a [`LocalFingerprint`]
//! of the function's own structure plus its callee list, and optionally a
//! module-wide context word (MEMOIR's type/extern table hash).
//! [`propagate`] here folds callee fingerprints over the leaves-first
//! [`sccs`] condensation, so both IRs share one propagation — and the
//! [`AnalysisManager`](crate::AnalysisManager) can memoize the local
//! parts and re-hash only the functions a pass declared mutated.

use std::collections::BTreeSet;
use std::fmt;

/// A stable structural content hash of one function (plus its type and
/// callee context). See the module docs for the contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(pub u64);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Combines two fingerprints order-sensitively (`combine(a, b) !=
    /// combine(b, a)`).
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u64(self.0);
        h.write_u64(other.0);
        Fingerprint(h.finish())
    }

    /// Combines a set of fingerprints commutatively (order-insensitive) —
    /// used for SCC summaries, where member order is id-dependent.
    pub fn combine_commutative(fps: impl IntoIterator<Item = Fingerprint>) -> Fingerprint {
        let (mut xor, mut sum, mut n) = (0u64, 0u64, 0u64);
        for fp in fps {
            xor ^= fp.0;
            sum = sum.wrapping_add(mix64(fp.0));
            n += 1;
        }
        let mut h = StableHasher::new();
        h.write_u64(xor);
        h.write_u64(sum);
        h.write_u64(n);
        Fingerprint(h.finish())
    }
}

/// The part of a function's fingerprint that depends on the function
/// alone: a structural hash of its body and its in-module callees in
/// call-site order, as positions in [`IrUnit::func_keys`](crate::IrUnit::func_keys).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalFingerprint {
    /// Structural hash of the function's own body.
    pub hash: u64,
    /// Callee positions, one per call site, in call-site order.
    pub callees: Vec<usize>,
}

/// Marker folded in place of an intra-SCC (recursive) callee.
const RECURSIVE_CALLEE: u64 = 0x5245_4355_5253_4500; // "RECURSE"

/// Final fingerprints from per-function local parts, in `locals` order.
///
/// The callgraph is condensed into SCCs (leaves-first) and each member
/// hashes `context` (when present), its local hash, and its callees'
/// fingerprints in call-site order — an intra-SCC callee as a marker,
/// resolved by a commutative SCC summary, so the result does not depend
/// on member enumeration order. Editing a function therefore changes
/// the fingerprint of every transitive caller.
pub fn propagate(locals: &[LocalFingerprint], context: Option<u64>) -> Vec<Fingerprint> {
    Propagation::new(locals, context).out
}

/// The state of one [`propagate`] run, kept so that a later edit can be
/// re-propagated from the edited functions up through their callers
/// only, instead of over the whole callgraph.
#[derive(Clone, Debug, Default)]
pub struct Propagation {
    /// SCCs, leaves-first.
    comps: Vec<Vec<usize>>,
    comp_of: Vec<usize>,
    /// Per SCC, the other SCCs that call into it.
    callers: Vec<Vec<usize>>,
    out: Vec<Fingerprint>,
}

impl Propagation {
    /// Propagates over the whole callgraph (see [`propagate`]).
    pub fn new(locals: &[LocalFingerprint], context: Option<u64>) -> Self {
        let n = locals.len();
        let comps = sccs(n, &|v| locals[v].callees.clone());
        let mut comp_of = vec![usize::MAX; n];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v] = ci;
            }
        }
        let mut callers = vec![Vec::new(); comps.len()];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                for &c in &locals[v].callees {
                    if c < n && comp_of[c] != ci {
                        callers[comp_of[c]].push(ci);
                    }
                }
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        let mut p = Propagation {
            comps,
            comp_of,
            callers,
            out: vec![Fingerprint(0); n],
        };
        for ci in 0..p.comps.len() {
            p.hash_comp(ci, locals, context, &mut Vec::new());
        }
        p
    }

    /// The fingerprints, in `locals` order.
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.out
    }

    /// Re-propagates after the local hashes at positions `dirty` changed,
    /// returning the positions whose fingerprint changed, ascending. The
    /// callee lists (and so the condensation) must be unchanged; when
    /// they are not, build a fresh [`Propagation::new`] instead.
    /// Propagation stops at SCCs whose fingerprints came out unchanged.
    pub fn update(
        &mut self,
        locals: &[LocalFingerprint],
        context: Option<u64>,
        dirty: &[usize],
    ) -> Vec<usize> {
        let mut pending: BTreeSet<usize> = dirty.iter().map(|&v| self.comp_of[v]).collect();
        let mut changed = Vec::new();
        // Callers sit later in leaves-first order, so ascending order
        // finalizes every callee SCC before its callers are re-hashed.
        while let Some(ci) = pending.pop_first() {
            if self.hash_comp(ci, locals, context, &mut changed) {
                pending.extend(self.callers[ci].iter().copied());
            }
        }
        changed.sort_unstable();
        changed
    }

    /// Hashes SCC `ci` from its members' local parts and their (final)
    /// callee fingerprints, appending the members whose fingerprint
    /// changed to `changed`; returns whether any did.
    fn hash_comp(
        &mut self,
        ci: usize,
        locals: &[LocalFingerprint],
        context: Option<u64>,
        changed: &mut Vec<usize>,
    ) -> bool {
        let n = self.out.len();
        let comp = &self.comps[ci];
        let members: Vec<Fingerprint> = comp
            .iter()
            .map(|&v| {
                let mut h = StableHasher::new();
                if let Some(cx) = context {
                    h.write_u64(cx);
                }
                h.write_u64(locals[v].hash);
                for &c in &locals[v].callees {
                    if c < n && self.comp_of[c] == ci {
                        h.write_u64(RECURSIVE_CALLEE);
                    } else if c < n {
                        h.write_u64(self.out[c].0);
                    } else {
                        h.write_u64(u64::MAX); // dangling callee
                    }
                }
                h.fingerprint()
            })
            .collect();
        let summary = Fingerprint::combine_commutative(members.iter().copied());
        let before = changed.len();
        for (&v, member) in comp.iter().zip(members) {
            let fp = member.combine(summary);
            if self.out[v] != fp {
                self.out[v] = fp;
                changed.push(v);
            }
        }
        changed.len() > before
    }
}

/// 64-bit finalization mixer (the murmur3/splitmix avalanche step).
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A deterministic, fixed-seed word hasher.
///
/// Unlike `std::hash::DefaultHasher` (randomly keyed per process), this
/// produces the same digest for the same write sequence in every run on
/// every machine — the property fingerprints need to serve as cross-job
/// cache keys. Not cryptographic; collision resistance is "good 64-bit
/// mixing", which is plenty for cache keying.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher with the fixed seed.
    pub fn new() -> Self {
        StableHasher {
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds one 64-bit word.
    pub fn write_u64(&mut self, x: u64) {
        self.state = mix64(self.state.rotate_left(23) ^ x).wrapping_add(0x2545_f491_4f6c_dd1d);
    }

    /// Feeds a 32-bit word.
    pub fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Feeds a signed 64-bit word.
    pub fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    /// Feeds a boolean.
    pub fn write_bool(&mut self, x: bool) {
        self.write_u64(x as u64);
    }

    /// Feeds a string, length-prefixed (so `"ab", "c"` and `"a", "bc"`
    /// digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }

    /// The digest as a [`Fingerprint`].
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(self.finish())
    }
}

/// Strongly connected components of a directed graph over nodes
/// `0..n`, returned **leaves-first** (every edge leaving a component
/// points to an earlier component in the returned order). Within a
/// component, nodes appear in a deterministic (input-index) order.
///
/// This is the condensation [`propagate`] runs callee-fingerprint
/// propagation over: process SCCs leaves-first, so every cross-SCC
/// callee already has a final fingerprint, and summarize intra-SCC
/// (recursive) edges commutatively.
///
/// Iterative Tarjan — fuzzed modules can have deep call chains, so no
/// recursion.
pub fn sccs(n: usize, edges: &dyn Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, its edge list, next edge position).
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<(usize, Vec<usize>, usize)> = vec![(root, edges(root), 0)];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.2 < frame.1.len() {
                let w = frame.1[frame.2];
                frame.2 += 1;
                if w >= n {
                    continue; // dangling edge (broken IR): ignore
                }
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, edges(w), 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn str_hashing_is_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn commutative_combine_ignores_order() {
        let fps = [Fingerprint(3), Fingerprint(9), Fingerprint(27)];
        let a = Fingerprint::combine_commutative(fps);
        let b = Fingerprint::combine_commutative([fps[2], fps[0], fps[1]]);
        assert_eq!(a, b);
        let c = Fingerprint::combine_commutative([fps[0], fps[1]]);
        assert_ne!(a, c);
    }

    #[test]
    fn sccs_leaves_first() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 3 isolated.
        let edges = |v: usize| -> Vec<usize> {
            match v {
                0 => vec![1],
                1 => vec![2],
                2 => vec![1],
                _ => vec![],
            }
        };
        let comps = sccs(4, &edges);
        let pos = |v: usize| comps.iter().position(|c| c.contains(&v)).unwrap();
        assert!(pos(1) < pos(0), "callee SCC must precede caller");
        assert_eq!(pos(1), pos(2), "cycle is one component");
        assert_eq!(comps.iter().map(|c| c.len()).sum::<usize>(), 4);
    }

    #[test]
    fn propagation_folds_callees_and_context() {
        let leaf = |hash| LocalFingerprint {
            hash,
            callees: vec![],
        };
        let caller = LocalFingerprint {
            hash: 1,
            callees: vec![1],
        };
        let a = propagate(&[caller.clone(), leaf(2)], None);
        let b = propagate(&[caller.clone(), leaf(3)], None);
        assert_ne!(a[0], b[0], "callee edit must reach the caller");
        assert_ne!(a[0], propagate(&[caller, leaf(2)], Some(9))[0]);
    }

    #[test]
    fn update_matches_a_fresh_propagation() {
        // 0 -> 1 -> {2 <-> 3}, 4 isolated.
        let local = |hash, callees: Vec<usize>| LocalFingerprint { hash, callees };
        let mut locals = vec![
            local(10, vec![1]),
            local(11, vec![2]),
            local(12, vec![3]),
            local(13, vec![2]),
            local(14, vec![]),
        ];
        let mut p = Propagation::new(&locals, Some(7));
        let before = p.fingerprints().to_vec();
        locals[3].hash = 99;
        let changed = p.update(&locals, Some(7), &[3]);
        assert_eq!(p.fingerprints(), propagate(&locals, Some(7)).as_slice());
        assert_eq!(changed, vec![0, 1, 2, 3], "the edit reaches every caller");
        assert_eq!(p.fingerprints()[4], before[4]);
        assert!(p.update(&locals, Some(7), &[4]).is_empty(), "no-op edit");
    }

    #[test]
    fn sccs_handles_self_loop_and_dangling_edges() {
        let edges = |v: usize| -> Vec<usize> {
            match v {
                0 => vec![0, 7],
                _ => vec![],
            }
        };
        let comps = sccs(2, &edges);
        assert_eq!(comps.iter().map(|c| c.len()).sum::<usize>(), 2);
    }
}
