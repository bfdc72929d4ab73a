//! The low-level IR: a minimal LLVM-like SSA language.
//!
//! This is the substrate MEMOIR lowers into (the paper lowers to LLVM 9).
//! Memory is explicit — `alloca`, `malloc`, `load`, `store`, `gep` — and
//! collection operations arrive either inlined to loads/stores (sequences,
//! objects) or as **opaque runtime calls** (associative arrays), exactly
//! the premature-lowering shape whose pass-blocking behaviour §VII-D
//! measures.

use std::collections::HashMap;
use std::fmt;

/// Value id (SSA).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Val(pub u32);

/// Block id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Blk(pub u32);

/// Instruction id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ins(pub u32);

/// Function id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fun(pub u32);

impl fmt::Debug for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}
impl fmt::Debug for Blk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}
impl fmt::Debug for Ins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Binary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Add.
    Add,
    /// Subtract.
    Sub,
    /// Multiply.
    Mul,
    /// Signed divide (traps on zero).
    Div,
    /// Remainder.
    Rem,
    /// And.
    And,
    /// Or.
    Or,
    /// Xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

/// Comparisons (produce 0/1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than (signed).
    Lt,
    /// Less-or-equal (signed).
    Le,
    /// Greater-than (signed).
    Gt,
    /// Greater-or-equal (signed).
    Ge,
}

/// An instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Integer constant.
    Const(i64),
    /// ALU operation.
    Bin(BinOp, Val, Val),
    /// Comparison.
    Cmp(CmpOp, Val, Val),
    /// φ node: `(pred, value)` incomings.
    Phi(Vec<(Blk, Val)>),
    /// Stack allocation of `n` words; yields the address.
    Alloca(u32),
    /// Heap allocation: size in words (dynamic); yields the address.
    Malloc(Val),
    /// Heap release.
    Free(Val),
    /// Load one word from an address.
    Load(Val),
    /// Store `value` to `address`.
    Store {
        /// Address operand.
        addr: Val,
        /// Stored value.
        value: Val,
    },
    /// Address arithmetic: `base + offset` (word-scaled).
    Gep {
        /// Base address.
        base: Val,
        /// Word offset.
        offset: Val,
    },
    /// Call a function in this module.
    Call {
        /// Callee.
        func: Fun,
        /// Arguments.
        args: Vec<Val>,
    },
    /// Call an opaque runtime routine by name (may read/write any memory).
    CallRt {
        /// Runtime symbol.
        name: String,
        /// Arguments.
        args: Vec<Val>,
        /// Whether the routine has a result.
        has_result: bool,
    },
    /// Unconditional jump.
    Jmp(Blk),
    /// Conditional branch (`cond != 0` → then).
    Br {
        /// Condition.
        cond: Val,
        /// Target when non-zero.
        then_b: Blk,
        /// Target when zero.
        else_b: Blk,
    },
    /// Return (multi-value).
    Ret(Vec<Val>),
}

impl Op {
    /// Whether this terminates a block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Jmp(_) | Op::Br { .. } | Op::Ret(_))
    }

    /// Whether this may write memory (or have arbitrary effects).
    pub fn may_write(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::Call { .. } | Op::CallRt { .. } | Op::Free(_) | Op::Malloc(_)
        )
    }

    /// Whether this may read memory.
    pub fn may_read(&self) -> bool {
        matches!(self, Op::Load(_) | Op::Call { .. } | Op::CallRt { .. })
    }

    /// Whether this is a memory-class operation for the Fig. 10 census
    /// (loads, stores, address computation, allocation, opaque calls).
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            Op::Load(_)
                | Op::Store { .. }
                | Op::Gep { .. }
                | Op::Alloca(_)
                | Op::Malloc(_)
                | Op::Free(_)
                | Op::CallRt { .. }
                | Op::Call { .. }
        )
    }

    /// Operand values.
    pub fn operands(&self) -> Vec<Val> {
        let mut out = Vec::new();
        self.visit(|v| out.push(*v));
        out
    }

    /// Visits operands immutably.
    pub fn visit(&self, mut f: impl FnMut(&Val)) {
        match self {
            Op::Const(_) | Op::Alloca(_) | Op::Jmp(_) => {}
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Op::Phi(incs) => {
                for (_, v) in incs {
                    f(v);
                }
            }
            Op::Malloc(v) | Op::Free(v) | Op::Load(v) => f(v),
            Op::Store { addr, value } => {
                f(addr);
                f(value);
            }
            Op::Gep { base, offset } => {
                f(base);
                f(offset);
            }
            Op::Call { args, .. } | Op::CallRt { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Br { cond, .. } => f(cond),
            Op::Ret(vs) => {
                for v in vs {
                    f(v);
                }
            }
        }
    }

    /// Visits operands mutably.
    pub fn visit_mut(&mut self, mut f: impl FnMut(&mut Val)) {
        match self {
            Op::Const(_) | Op::Alloca(_) | Op::Jmp(_) => {}
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Op::Phi(incs) => {
                for (_, v) in incs {
                    f(v);
                }
            }
            Op::Malloc(v) | Op::Free(v) | Op::Load(v) => f(v),
            Op::Store { addr, value } => {
                f(addr);
                f(value);
            }
            Op::Gep { base, offset } => {
                f(base);
                f(offset);
            }
            Op::Call { args, .. } | Op::CallRt { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Br { cond, .. } => f(cond),
            Op::Ret(vs) => {
                for v in vs {
                    f(v);
                }
            }
        }
    }

    /// Successor blocks of a terminator.
    pub fn successors(&self) -> Vec<Blk> {
        match self {
            Op::Jmp(b) => vec![*b],
            Op::Br { then_b, else_b, .. } => {
                if then_b == else_b {
                    vec![*then_b]
                } else {
                    vec![*then_b, *else_b]
                }
            }
            _ => Vec::new(),
        }
    }
}

/// An instruction node.
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    /// Operation.
    pub op: Op,
    /// Results (0, 1, or several for multi-return calls).
    pub results: Vec<Val>,
}

/// A basic block.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Instructions in order.
    pub insts: Vec<Ins>,
}

/// A function.
#[derive(Clone, Debug)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Number of parameters (values `0..n`).
    pub num_params: u32,
    /// Number of return values.
    pub num_rets: u32,
    /// Entry block.
    pub entry: Blk,
    /// Blocks.
    pub blocks: Vec<Block>,
    /// Instructions.
    pub insts: Vec<Inst>,
    /// Next value id.
    pub next_val: u32,
}

impl Function {
    /// Creates an empty function with `num_params` parameters (bound to
    /// values `%0..%n`) and one empty entry block.
    pub fn new(name: impl Into<String>, num_params: u32, num_rets: u32) -> Self {
        Function {
            name: name.into(),
            num_params,
            num_rets,
            entry: Blk(0),
            blocks: vec![Block::default()],
            insts: Vec::new(),
            next_val: num_params,
        }
    }

    /// The `i`-th parameter value.
    pub fn param(&self, i: u32) -> Val {
        assert!(i < self.num_params);
        Val(i)
    }

    /// Adds a block.
    pub fn add_block(&mut self) -> Blk {
        self.blocks.push(Block::default());
        Blk(self.blocks.len() as u32 - 1)
    }

    /// Appends an instruction with `nres` results to a block.
    pub fn push(&mut self, b: Blk, op: Op, nres: usize) -> Vec<Val> {
        let results: Vec<Val> = (0..nres)
            .map(|_| {
                let v = Val(self.next_val);
                self.next_val += 1;
                v
            })
            .collect();
        let id = Ins(self.insts.len() as u32);
        self.insts.push(Inst {
            op,
            results: results.clone(),
        });
        self.blocks[b.0 as usize].insts.push(id);
        results
    }

    /// Appends a single-result instruction.
    pub fn push1(&mut self, b: Blk, op: Op) -> Val {
        self.push(b, op, 1)[0]
    }

    /// Appends a no-result instruction.
    pub fn push0(&mut self, b: Blk, op: Op) {
        self.push(b, op, 0);
    }

    /// Inserts an instruction at a position within a block.
    pub fn insert_at(&mut self, b: Blk, pos: usize, op: Op, nres: usize) -> Vec<Val> {
        let results: Vec<Val> = (0..nres)
            .map(|_| {
                let v = Val(self.next_val);
                self.next_val += 1;
                v
            })
            .collect();
        let id = Ins(self.insts.len() as u32);
        self.insts.push(Inst {
            op,
            results: results.clone(),
        });
        self.blocks[b.0 as usize].insts.insert(pos, id);
        results
    }

    /// All `(block, inst)` pairs in block order.
    pub fn order(&self) -> Vec<(Blk, Ins)> {
        let mut out = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            for &i in &b.insts {
                out.push((Blk(bi as u32), i));
            }
        }
        out
    }

    /// Successors of a block.
    pub fn successors(&self, b: Blk) -> Vec<Blk> {
        self.blocks[b.0 as usize]
            .insts
            .last()
            .map(|&i| self.insts[i.0 as usize].op.successors())
            .unwrap_or_default()
    }

    /// Replaces uses of values per the map.
    pub fn replace_uses(&mut self, map: &HashMap<Val, Val>) {
        if map.is_empty() {
            return;
        }
        for inst in &mut self.insts {
            inst.op.visit_mut(|v| {
                let mut cur = *v;
                while let Some(&n) = map.get(&cur) {
                    cur = n;
                }
                *v = cur;
            });
        }
    }

    /// Removes an instruction from its block (stays in the arena).
    pub fn remove(&mut self, b: Blk, i: Ins) {
        self.blocks[b.0 as usize].insts.retain(|&x| x != i);
    }

    /// Reachable instruction count.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Functions.
    pub funcs: Vec<Function>,
}

impl Module {
    /// Adds a function.
    pub fn add(&mut self, f: Function) -> Fun {
        self.funcs.push(f);
        Fun(self.funcs.len() as u32 - 1)
    }

    /// Function lookup by name.
    pub fn by_name(&self, name: &str) -> Option<Fun> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| Fun(i as u32))
    }

    /// Total reachable instructions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.live_inst_count()).sum()
    }
}

/// lir modules can be driven by the generic `passman` pass-manager
/// framework; functions are keyed by [`Fun`].
impl passman::IrUnit for Module {
    type FuncKey = Fun;

    fn func_keys(&self) -> Vec<Fun> {
        (0..self.funcs.len() as u32).map(Fun).collect()
    }

    fn size_hint(&self) -> usize {
        self.inst_count()
    }

    fn supports_fingerprints(&self) -> bool {
        true
    }

    fn local_fingerprint(&self, f: Fun) -> passman::LocalFingerprint {
        crate::fingerprint::local_structure(&self.funcs[f.0 as usize])
    }
}

/// Functions detach from the (empty) module shell, enabling
/// function-sharded passes and per-function copy-on-write snapshots.
impl passman::ShardedIr for Module {
    type Func = Function;

    fn detach_funcs(&mut self) -> Vec<(Fun, Function)> {
        std::mem::take(&mut self.funcs)
            .into_iter()
            .enumerate()
            .map(|(i, f)| (Fun(i as u32), f))
            .collect()
    }

    fn attach_funcs(&mut self, funcs: Vec<(Fun, Function)>) {
        debug_assert!(self.funcs.is_empty(), "attach over detached shell only");
        for (i, (id, f)) in funcs.into_iter().enumerate() {
            debug_assert_eq!(id, Fun(i as u32), "functions must re-attach in id order");
            self.funcs.push(f);
        }
    }

    fn clone_func(&self, key: Fun) -> Function {
        self.funcs[key.0 as usize].clone()
    }

    fn restore_func(&mut self, key: Fun, func: Function) {
        self.funcs[key.0 as usize] = func;
    }

    fn func_size_hint(&self, key: Fun) -> usize {
        self.funcs[key.0 as usize].live_inst_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_walk() {
        let mut f = Function::new("f", 1, 1);
        let e = f.entry;
        let c = f.push1(e, Op::Const(2));
        let x = f.param(0);
        let y = f.push1(e, Op::Bin(BinOp::Mul, x, c));
        f.push0(e, Op::Ret(vec![y]));
        assert_eq!(f.live_inst_count(), 3);
        assert_eq!(f.order().len(), 3);
        let last = f.order()[2].1;
        assert!(f.insts[last.0 as usize].op.is_terminator());
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Load(Val(0)).is_memory_op());
        assert!(Op::Store {
            addr: Val(0),
            value: Val(1)
        }
        .may_write());
        assert!(!Op::Bin(BinOp::Add, Val(0), Val(1)).is_memory_op());
        assert!(Op::CallRt {
            name: "x".into(),
            args: vec![],
            has_result: false
        }
        .may_read());
    }

    #[test]
    fn replace_uses_chases_chains() {
        let mut f = Function::new("f", 2, 1);
        let e = f.entry;
        let s = f.push1(e, Op::Bin(BinOp::Add, f.param(0), f.param(1)));
        f.push0(e, Op::Ret(vec![s]));
        let mut map = HashMap::new();
        map.insert(f.param(0), f.param(1));
        f.replace_uses(&map);
        let add = &f.insts[0].op;
        assert_eq!(add.operands(), vec![f.param(1), f.param(1)]);
    }
}
