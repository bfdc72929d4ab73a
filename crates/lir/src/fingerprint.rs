//! Content fingerprints for lir functions (see `passman::fingerprint`
//! for the contract).
//!
//! The hash walks each function in canonical form: blocks in reverse
//! postorder from the entry (unreachable blocks appended in id order),
//! values renumbered by definition order (parameters first, then
//! instruction results in walk order) — so compaction, print/parse round
//! trips, or any other value-id renumbering leaves the fingerprint
//! unchanged, while every op, immediate, φ-incoming, or runtime-call
//! name edit changes it. The function *name* is included: cached pass
//! outputs are whole function bodies carrying their symbol name, so two
//! functions may share a fingerprint only when they are byte-compatible,
//! not merely structurally isomorphic.
//!
//! Callee *bodies* are not hashed locally (their slot ids are, since
//! cached pass outputs embed them); instead
//! `passman::fingerprint::propagate` condenses the callgraph into SCCs
//! (leaves-first) and folds each function's callee fingerprints into its
//! final fingerprint in call-site order (lir has no context word: its
//! ops carry no type or extern ids). Editing any
//! (transitively) called function therefore changes the fingerprints of
//! all its dependents.

use crate::ir::{Blk, Fun, Function, Module, Op, Val};
use passman::fingerprint::{Fingerprint, LocalFingerprint, StableHasher};
use std::collections::HashMap;

/// Per-op tags (stable, never reordered: they are part of the hash).
const T_CONST: u64 = 1;
const T_BIN: u64 = 2;
const T_CMP: u64 = 3;
const T_PHI: u64 = 4;
const T_ALLOCA: u64 = 5;
const T_MALLOC: u64 = 6;
const T_FREE: u64 = 7;
const T_LOAD: u64 = 8;
const T_STORE: u64 = 9;
const T_GEP: u64 = 10;
const T_CALL: u64 = 11;
const T_CALLRT: u64 = 12;
const T_JMP: u64 = 13;
const T_BR: u64 = 14;
const T_RET: u64 = 15;
const BLOCK_MARK: u64 = 0x424c_4f43_4b00_0000; // "BLOCK"

/// Canonical block order: reverse postorder from the entry, then any
/// unreachable blocks in id order.
fn block_order(f: &Function) -> Vec<Blk> {
    let n = f.blocks.len();
    let mut seen = vec![false; n];
    let mut post: Vec<Blk> = Vec::with_capacity(n);
    // Iterative DFS with explicit (block, next-successor) frames.
    if (f.entry.0 as usize) < n {
        let mut stack: Vec<(Blk, Vec<Blk>, usize)> = vec![(f.entry, f.successors(f.entry), 0)];
        seen[f.entry.0 as usize] = true;
        while let Some(frame) = stack.last_mut() {
            if frame.1.len() > frame.2 {
                let s = frame.1[frame.2];
                frame.2 += 1;
                if (s.0 as usize) < n && !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    stack.push((s, f.successors(s), 0));
                }
            } else {
                post.push(frame.0);
                stack.pop();
            }
        }
    }
    post.reverse();
    for (b, &hit) in seen.iter().enumerate() {
        if !hit {
            post.push(Blk(b as u32));
        }
    }
    post
}

/// Hashes one function's structure (ops, immediates, control flow) with
/// canonical value/block numbering, and collects its callee list in
/// call-site order.
pub(crate) fn local_structure(f: &Function) -> LocalFingerprint {
    let order = block_order(f);
    let mut bnum: HashMap<Blk, u64> = HashMap::new();
    for (i, &b) in order.iter().enumerate() {
        bnum.insert(b, i as u64);
    }
    // Canonical value numbers: params first, then results in walk order.
    let mut canon: HashMap<Val, u64> = HashMap::new();
    for p in 0..f.num_params {
        canon.insert(Val(p), p as u64);
    }
    let mut next = f.num_params as u64;
    for &b in &order {
        for &i in &f.blocks[b.0 as usize].insts {
            let Some(inst) = f.insts.get(i.0 as usize) else {
                continue;
            };
            for &r in &inst.results {
                canon.entry(r).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                });
            }
        }
    }
    let cv = |h: &mut StableHasher, v: Val| match canon.get(&v) {
        Some(&c) => {
            h.write_u64(2);
            h.write_u64(c);
        }
        None => {
            // Use of an undefined value (broken IR mid-fuzz): hash the
            // raw id so the walk stays total and deterministic.
            h.write_u64(1);
            h.write_u64(v.0 as u64);
        }
    };
    let cb = |h: &mut StableHasher, b: Blk| match bnum.get(&b) {
        Some(&c) => {
            h.write_u64(2);
            h.write_u64(c);
        }
        None => {
            h.write_u64(1);
            h.write_u64(b.0 as u64);
        }
    };

    let mut h = StableHasher::new();
    let mut callees: Vec<usize> = Vec::new();
    h.write_str(&f.name);
    h.write_u32(f.num_params);
    h.write_u32(f.num_rets);
    h.write_usize(order.len());
    for &b in &order {
        h.write_u64(BLOCK_MARK);
        h.write_u64(bnum[&b]);
        for &i in &f.blocks[b.0 as usize].insts {
            let Some(inst) = f.insts.get(i.0 as usize) else {
                h.write_u64(u64::MAX); // dangling inst id
                continue;
            };
            h.write_usize(inst.results.len());
            match &inst.op {
                Op::Const(k) => {
                    h.write_u64(T_CONST);
                    h.write_i64(*k);
                }
                Op::Bin(op, a, b2) => {
                    h.write_u64(T_BIN);
                    h.write_u8(*op as u8);
                    cv(&mut h, *a);
                    cv(&mut h, *b2);
                }
                Op::Cmp(op, a, b2) => {
                    h.write_u64(T_CMP);
                    h.write_u8(*op as u8);
                    cv(&mut h, *a);
                    cv(&mut h, *b2);
                }
                Op::Phi(incomings) => {
                    h.write_u64(T_PHI);
                    // Incoming order is id-dependent: sort by canonical
                    // predecessor number.
                    let mut inc: Vec<(u64, Blk, Val)> = incomings
                        .iter()
                        .map(|&(p, v)| (bnum.get(&p).copied().unwrap_or(u64::MAX), p, v))
                        .collect();
                    inc.sort_by_key(|&(c, _, _)| c);
                    h.write_usize(inc.len());
                    for (_, p, v) in inc {
                        cb(&mut h, p);
                        cv(&mut h, v);
                    }
                }
                Op::Alloca(n) => {
                    h.write_u64(T_ALLOCA);
                    h.write_u32(*n);
                }
                Op::Malloc(v) => {
                    h.write_u64(T_MALLOC);
                    cv(&mut h, *v);
                }
                Op::Free(v) => {
                    h.write_u64(T_FREE);
                    cv(&mut h, *v);
                }
                Op::Load(v) => {
                    h.write_u64(T_LOAD);
                    cv(&mut h, *v);
                }
                Op::Store { addr, value } => {
                    h.write_u64(T_STORE);
                    cv(&mut h, *addr);
                    cv(&mut h, *value);
                }
                Op::Gep { base, offset } => {
                    h.write_u64(T_GEP);
                    cv(&mut h, *base);
                    cv(&mut h, *offset);
                }
                Op::Call { func, args } => {
                    // The callee's *content* is hashed by fingerprint
                    // propagation (call-site order); its *slot id* is
                    // hashed here, because cached pass outputs embed
                    // concrete `Fun` indices — reusing one across modules
                    // whose function tables are laid out differently
                    // would retarget the call.
                    h.write_u64(T_CALL);
                    h.write_u32(func.0);
                    h.write_usize(args.len());
                    for &a in args {
                        cv(&mut h, a);
                    }
                    callees.push(func.0 as usize);
                }
                Op::CallRt {
                    name,
                    args,
                    has_result,
                } => {
                    h.write_u64(T_CALLRT);
                    h.write_str(name);
                    h.write_bool(*has_result);
                    h.write_usize(args.len());
                    for &a in args {
                        cv(&mut h, a);
                    }
                }
                Op::Jmp(b2) => {
                    h.write_u64(T_JMP);
                    cb(&mut h, *b2);
                }
                Op::Br {
                    cond,
                    then_b,
                    else_b,
                } => {
                    h.write_u64(T_BR);
                    cv(&mut h, *cond);
                    cb(&mut h, *then_b);
                    cb(&mut h, *else_b);
                }
                Op::Ret(vals) => {
                    h.write_u64(T_RET);
                    h.write_usize(vals.len());
                    for &v in vals {
                        cv(&mut h, v);
                    }
                }
            }
        }
    }
    LocalFingerprint {
        hash: h.finish(),
        callees,
    }
}

/// Fingerprints every function of a module, with callee propagation
/// across the condensed callgraph (see the module docs).
pub fn module_fingerprints(m: &Module) -> Vec<(Fun, Fingerprint)> {
    passman::IrUnit::fingerprints(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Op};

    fn leaf(k: i64) -> Function {
        let mut f = Function::new("leaf", 1, 1);
        let c = f.push1(f.entry, Op::Const(k));
        let s = f.push1(f.entry, Op::Bin(BinOp::Add, f.param(0), c));
        f.push0(f.entry, Op::Ret(vec![s]));
        f
    }

    #[test]
    fn deterministic_across_computations() {
        let mut m = Module::default();
        m.add(leaf(7));
        let a = module_fingerprints(&m);
        let b = module_fingerprints(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn insensitive_to_value_id_renumbering() {
        let f1 = leaf(7);
        // Same structure, but an orphaned instruction consumed value ids
        // first — every live id is shifted.
        let mut f2 = Function::new("leaf", 1, 1);
        let orphan = f2.push1(f2.entry, Op::Const(999));
        let _ = orphan;
        f2.blocks[f2.entry.0 as usize].insts.remove(0);
        let c = f2.push1(f2.entry, Op::Const(7));
        let s = f2.push1(f2.entry, Op::Bin(BinOp::Add, f2.param(0), c));
        f2.push0(f2.entry, Op::Ret(vec![s]));

        let mut m1 = Module::default();
        m1.add(f1);
        let mut m2 = Module::default();
        m2.add(f2);
        assert_eq!(
            module_fingerprints(&m1)[0].1,
            module_fingerprints(&m2)[0].1,
            "value-id renumbering must not change the fingerprint"
        );
    }

    #[test]
    fn sensitive_to_op_edits() {
        let mut m1 = Module::default();
        m1.add(leaf(7));
        let mut m2 = Module::default();
        m2.add(leaf(8));
        assert_ne!(module_fingerprints(&m1)[0].1, module_fingerprints(&m2)[0].1);
    }

    #[test]
    fn callee_edit_changes_caller_fingerprint() {
        let caller = |m: &mut Module, callee: Fun| {
            let mut f = Function::new("caller", 1, 1);
            let r = f.push1(
                f.entry,
                Op::Call {
                    func: callee,
                    args: vec![f.param(0)],
                },
            );
            f.push0(f.entry, Op::Ret(vec![r]));
            m.add(f)
        };
        let mut m1 = Module::default();
        let g1 = m1.add(leaf(7));
        let c1 = caller(&mut m1, g1);
        let mut m2 = Module::default();
        let g2 = m2.add(leaf(8));
        let c2 = caller(&mut m2, g2);
        let fp1 = module_fingerprints(&m1);
        let fp2 = module_fingerprints(&m2);
        let of = |fps: &[(Fun, Fingerprint)], f: Fun| fps.iter().find(|(k, _)| *k == f).unwrap().1;
        assert_ne!(
            of(&fp1, c1),
            of(&fp2, c2),
            "editing the callee must change the caller's fingerprint"
        );
    }

    #[test]
    fn mutual_recursion_terminates_and_distinguishes() {
        let mut m = Module::default();
        // f0 calls f1, f1 calls f0; bodies differ by a constant.
        let mut f0 = Function::new("f0", 1, 1);
        let c0 = f0.push1(f0.entry, Op::Const(1));
        let r0 = f0.push1(
            f0.entry,
            Op::Call {
                func: Fun(1),
                args: vec![c0],
            },
        );
        f0.push0(f0.entry, Op::Ret(vec![r0]));
        let mut f1 = Function::new("f1", 1, 1);
        let c1 = f1.push1(f1.entry, Op::Const(2));
        let r1 = f1.push1(
            f1.entry,
            Op::Call {
                func: Fun(0),
                args: vec![c1],
            },
        );
        f1.push0(f1.entry, Op::Ret(vec![r1]));
        m.add(f0);
        m.add(f1);
        let fps = module_fingerprints(&m);
        assert_ne!(fps[0].1, fps[1].1);
    }

    /// A leaf, its caller, and a mutually recursive pair.
    fn golden_module() -> Module {
        let mut m = Module::default();
        let g = m.add(leaf(7));
        let mut c = Function::new("caller", 1, 1);
        let r = c.push1(
            c.entry,
            Op::Call {
                func: g,
                args: vec![c.param(0)],
            },
        );
        c.push0(c.entry, Op::Ret(vec![r]));
        m.add(c);
        for (name, other) in [("f2", Fun(3)), ("f3", Fun(2))] {
            let mut f = Function::new(name, 1, 1);
            let r = f.push1(
                f.entry,
                Op::Call {
                    func: other,
                    args: vec![f.param(0)],
                },
            );
            f.push0(f.entry, Op::Ret(vec![r]));
            m.add(f);
        }
        m
    }

    const GOLDEN: [u64; 4] = [
        0x7e6b_8e02_c776_8535,
        0xf038_015d_c169_cc0e,
        0x21d6_49ad_5e7d_e328,
        0xaaeb_9ea5_0817_e70b,
    ];

    /// Pins the digests themselves (they are cross-job cache keys): the
    /// values below were produced before propagation moved into
    /// `passman::fingerprint`, and must never drift silently.
    #[test]
    fn golden_values_are_pinned() {
        let fps: Vec<u64> = module_fingerprints(&golden_module())
            .into_iter()
            .map(|(_, fp)| fp.0)
            .collect();
        assert_eq!(fps, GOLDEN);
    }
}
