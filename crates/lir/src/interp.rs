//! An interpreter for the low-level IR.
//!
//! Memory is a flat, word-addressed array grown by a bump allocator
//! (`free` is a no-op — lifetimes are measured at the MEMOIR level).
//! Opaque runtime routines (`rt_*`) are implemented by the host: sequence
//! helpers manipulate the same linear memory (their data is visible to
//! `load`/`store`), while associative arrays live in host tables —
//! mirroring a real libc++ `unordered_map` being opaque to the compiler
//! *and* to this paper's analyses.
//!
//! # Execution model
//!
//! A function is decoded on its first call and the decoded form is kept
//! for the machine's lifetime. Decoding lays the blocks out as one
//! instruction array whose operands are `u32` register slots (value `%v`
//! is slot `v`; ids at or past `Function::next_val` get slots of their
//! own after it), resolves each `CallRt` name to a routine once, and
//! turns every control-flow edge into a target position plus the
//! parallel copies its target's leading φs perform. Each frame owns a
//! window of `next_val` (plus out-of-range ids) registers on a shared
//! register stack, with one defined bit per register: reading a register
//! whose bit is clear traps `Malformed("unbound value")`, exactly where
//! an unbound value would be read. φs read all their sources before any
//! is written, through one reused buffer.
//!
//! `Call` pushes a frame on an explicit stack instead of recursing on the
//! host stack, so recursion depth is bounded by memory and fuel, not by
//! the host thread's stack. Frames and registers are reused from call to
//! call: after the first call at a given depth, executing an instruction
//! or entering a block allocates nothing (runtime routines still grow
//! memory and host tables as their semantics require).
//!
//! # Counters and fuel
//!
//! [`LirStats::insts`] counts executed instructions: every instruction
//! including terminators and calls, and every φ evaluated at a block
//! entry. Fuel is checked before each non-φ instruction: once `insts`
//! reaches the fuel budget the next one traps [`LirTrap::OutOfFuel`]
//! instead of running (φs are never refused, so a trap can see `insts`
//! above the budget; falling off a block is not an instruction and draws
//! no fuel). `loads` and `stores` count every linear-memory
//! access, whether by a `load`/`store` instruction or inside a runtime
//! routine (dense maps, sequence helpers), including the access that
//! traps. `rt_calls` counts executed `CallRt` instructions, before their
//! arguments are read. Counters and memory persist across `run` calls on
//! one machine; the fuel budget is machine-wide.
//!
//! An unknown routine name traps [`LirTrap::UnknownRt`] only when its
//! call executes; malformed control flow traps when it is reached.

use crate::ir::{BinOp, CmpOp, Fun, Function, Module, Op, Val};
use std::collections::HashMap;
use std::fmt;

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LirTrap {
    /// Division by zero.
    DivByZero,
    /// Address out of the allocated range.
    BadAddress(i64),
    /// Missing associative key.
    MissingKey,
    /// Fuel exhausted.
    OutOfFuel,
    /// Unknown runtime routine.
    UnknownRt(String),
    /// Malformed block (no terminator / φ misuse).
    Malformed(&'static str),
}

impl fmt::Display for LirTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LirTrap::DivByZero => write!(f, "division by zero"),
            LirTrap::BadAddress(a) => write!(f, "bad address {a}"),
            LirTrap::MissingKey => write!(f, "missing key"),
            LirTrap::OutOfFuel => write!(f, "out of fuel"),
            LirTrap::UnknownRt(n) => write!(f, "unknown runtime routine `{n}`"),
            LirTrap::Malformed(m) => write!(f, "malformed function: {m}"),
        }
    }
}

impl std::error::Error for LirTrap {}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LirStats {
    /// Instructions executed.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Runtime calls executed.
    pub rt_calls: u64,
}

/// The machine.
#[derive(Debug)]
pub struct LirMachine<'m> {
    module: &'m Module,
    /// Linear memory (word-addressed).
    pub mem: Vec<i64>,
    assocs: Vec<(HashMap<i64, i64>, Vec<i64>)>,
    /// Counters.
    pub stats: LirStats,
    fuel: u64,
    /// Names of the routines no `Rt` answers to, indexed by `Rt::Unknown`.
    unknown_rt: Vec<String>,
    /// Decoded functions and the call stack; taken out while running.
    exec: Exec,
}

const NULL_GUARD: usize = 16; // low addresses invalid

/// A runtime routine, resolved from its `CallRt` name once per call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rt {
    DenseNew,
    SeqNew,
    SeqGrow,
    SeqInsert,
    SeqRemove,
    SeqRemoveRange,
    SeqSplice,
    SeqSwapRange,
    SeqCopy,
    SeqCopyRange,
    SeqSwap2,
    AssocCopy,
    AssocNew,
    AssocWrite,
    AssocRead,
    AssocHas,
    AssocRemove,
    AssocRmw,
    AssocSize,
    AssocKeys,
    ObjNew,
    ObjDelete,
    /// A name no routine answers to (an index into
    /// `LirMachine::unknown_rt`): its call traps when it executes.
    Unknown(u32),
}

/// Every routine the host implements, by symbol.
const ROUTINES: [(&str, Rt); 22] = [
    ("rt_dense_new", Rt::DenseNew),
    ("rt_seq_new", Rt::SeqNew),
    ("rt_seq_grow", Rt::SeqGrow),
    ("rt_seq_insert", Rt::SeqInsert),
    ("rt_seq_remove", Rt::SeqRemove),
    ("rt_seq_remove_range", Rt::SeqRemoveRange),
    ("rt_seq_splice", Rt::SeqSplice),
    ("rt_seq_swap_range", Rt::SeqSwapRange),
    ("rt_seq_copy", Rt::SeqCopy),
    ("rt_seq_copy_range", Rt::SeqCopyRange),
    ("rt_seq_swap2", Rt::SeqSwap2),
    ("rt_assoc_copy", Rt::AssocCopy),
    ("rt_assoc_new", Rt::AssocNew),
    ("rt_assoc_write", Rt::AssocWrite),
    ("rt_assoc_read", Rt::AssocRead),
    ("rt_assoc_has", Rt::AssocHas),
    ("rt_assoc_remove", Rt::AssocRemove),
    ("rt_assoc_rmw", Rt::AssocRmw),
    ("rt_assoc_size", Rt::AssocSize),
    ("rt_assoc_keys", Rt::AssocKeys),
    ("rt_obj_new", Rt::ObjNew),
    ("rt_obj_delete", Rt::ObjDelete),
];

/// A register slot no value occupies: a missing result (writing it
/// panics, as binding a missing result always has) or, as a φ source, an
/// absent incoming.
const NONE: u32 = u32::MAX;

/// A range of `Decoded::operands` or `Decoded::copies`.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A decoded instruction. Operands and results are register slots;
/// control transfers name an `Edge`.
#[derive(Clone, Copy, Debug)]
enum Code {
    Const {
        dst: u32,
        c: i64,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Alloca {
        dst: u32,
        words: u32,
    },
    Malloc {
        dst: u32,
        words: u32,
    },
    Free,
    Load {
        dst: u32,
        addr: u32,
    },
    Store {
        addr: u32,
        value: u32,
    },
    Gep {
        dst: u32,
        base: u32,
        offset: u32,
    },
    Call {
        func: u32,
        args: Span,
        rets: Span,
    },
    CallRt {
        rt: Rt,
        args: Span,
        dst: u32,
    },
    Jmp {
        edge: u32,
    },
    Br {
        cond: u32,
        then_e: u32,
        else_e: u32,
    },
    Ret {
        vals: Span,
    },
    /// A φ after a non-φ instruction: counts, then traps.
    LatePhi,
    /// The end of a block without a terminator: traps without counting.
    FellOff,
}

/// A control-flow edge: where execution continues, and the φ copies
/// `(source, destination)` of its target block, in block order.
#[derive(Clone, Copy, Debug)]
struct Edge {
    pc: u32,
    copies: Span,
}

/// A function decoded for execution.
#[derive(Debug)]
struct Decoded {
    /// Slots `0..direct` hold values `%0..%direct` (`Function::next_val`).
    direct: u32,
    /// Registers per frame: `direct` plus one per entry of `extra`.
    nregs: u32,
    /// Value ids at or past `direct` that the body names, in slot order
    /// from `direct`; an argument binds the ones below the argument count.
    extra: Vec<u32>,
    /// Position of the entry block's first non-φ instruction.
    entry: u32,
    /// Whether the entry block starts with a φ (which has no predecessor
    /// when a call enters it).
    entry_phi: bool,
    code: Vec<Code>,
    operands: Vec<u32>,
    edges: Vec<Edge>,
    copies: Vec<(u32, u32)>,
}

impl Decoded {
    fn span(&self, s: Span) -> &[u32] {
        &self.operands[s.range()]
    }
}

/// Builds a `Decoded` from a `Function`.
struct Decoder<'f> {
    f: &'f Function,
    d: Decoded,
    extra: HashMap<u32, u32>,
}

impl<'f> Decoder<'f> {
    fn slot(&mut self, v: Val) -> u32 {
        if v.0 < self.d.direct {
            return v.0;
        }
        let next = self.d.direct + self.d.extra.len() as u32;
        *self.extra.entry(v.0).or_insert_with(|| {
            self.d.extra.push(v.0);
            next
        })
    }

    fn result(&mut self, results: &[Val]) -> u32 {
        results.first().map_or(NONE, |&v| self.slot(v))
    }

    fn span(&mut self, vals: &[Val]) -> Span {
        let start = self.d.operands.len() as u32;
        for &v in vals {
            let s = self.slot(v);
            self.d.operands.push(s);
        }
        Span {
            start,
            len: vals.len() as u32,
        }
    }

    /// Leading φs of block `b` (none for a block that does not exist).
    fn phis(&self, b: u32) -> &'f [crate::ir::Ins] {
        let f = self.f;
        let Some(block) = f.blocks.get(b as usize) else {
            return &[];
        };
        let n = block
            .insts
            .iter()
            .take_while(|i| matches!(f.insts[i.0 as usize].op, Op::Phi(_)))
            .count();
        &block.insts[..n]
    }

    /// The edge `pred → target`, with the target's block index standing
    /// in for its position until every block is laid out.
    fn edge(&mut self, pred: u32, target: u32) -> u32 {
        let start = self.d.copies.len() as u32;
        let phis = self.phis(target);
        for i in phis {
            let inst = &self.f.insts[i.0 as usize];
            let Op::Phi(incs) = &inst.op else {
                unreachable!("leading instructions are φs")
            };
            let src = incs
                .iter()
                .find(|(b, _)| b.0 == pred)
                .map_or(NONE, |&(_, v)| self.slot(v));
            let dst = self.result(&inst.results);
            self.d.copies.push((src, dst));
        }
        self.d.edges.push(Edge {
            pc: target,
            copies: Span {
                start,
                len: phis.len() as u32,
            },
        });
        self.d.edges.len() as u32 - 1
    }

    fn decode(f: &Function, unknown_rt: &mut Vec<String>) -> Decoded {
        let mut dec = Decoder {
            f,
            d: Decoded {
                direct: f.next_val,
                nregs: 0,
                extra: Vec::new(),
                entry: 0,
                entry_phi: false,
                code: Vec::new(),
                operands: Vec::new(),
                edges: Vec::new(),
                copies: Vec::new(),
            },
            extra: HashMap::new(),
        };
        let mut block_pc = Vec::with_capacity(f.blocks.len());
        for (b, block) in f.blocks.iter().enumerate() {
            block_pc.push(dec.d.code.len() as u32);
            let lead = dec.phis(b as u32).len();
            let mut terminated = false;
            for i in &block.insts[lead..] {
                let inst = &f.insts[i.0 as usize];
                let res = &inst.results;
                let code = match &inst.op {
                    Op::Const(c) => Code::Const {
                        dst: dec.result(res),
                        c: *c,
                    },
                    Op::Bin(op, a, b) => Code::Bin {
                        op: *op,
                        a: dec.slot(*a),
                        b: dec.slot(*b),
                        dst: dec.result(res),
                    },
                    Op::Cmp(op, a, b) => Code::Cmp {
                        op: *op,
                        a: dec.slot(*a),
                        b: dec.slot(*b),
                        dst: dec.result(res),
                    },
                    Op::Phi(_) => Code::LatePhi,
                    Op::Alloca(n) => Code::Alloca {
                        dst: dec.result(res),
                        words: *n,
                    },
                    Op::Malloc(n) => Code::Malloc {
                        words: dec.slot(*n),
                        dst: dec.result(res),
                    },
                    Op::Free(_) => Code::Free,
                    Op::Load(a) => Code::Load {
                        addr: dec.slot(*a),
                        dst: dec.result(res),
                    },
                    Op::Store { addr, value } => Code::Store {
                        addr: dec.slot(*addr),
                        value: dec.slot(*value),
                    },
                    Op::Gep { base, offset } => Code::Gep {
                        base: dec.slot(*base),
                        offset: dec.slot(*offset),
                        dst: dec.result(res),
                    },
                    Op::Call { func, args } => Code::Call {
                        func: func.0,
                        args: dec.span(args),
                        rets: dec.span(res),
                    },
                    Op::CallRt { name, args, .. } => {
                        let rt = ROUTINES
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|&(_, rt)| rt)
                            .unwrap_or_else(|| {
                                unknown_rt.push(name.clone());
                                Rt::Unknown(unknown_rt.len() as u32 - 1)
                            });
                        Code::CallRt {
                            rt,
                            args: dec.span(args),
                            dst: dec.result(res),
                        }
                    }
                    Op::Jmp(t) => Code::Jmp {
                        edge: dec.edge(b as u32, t.0),
                    },
                    Op::Br {
                        cond,
                        then_b,
                        else_b,
                    } => Code::Br {
                        cond: dec.slot(*cond),
                        then_e: dec.edge(b as u32, then_b.0),
                        else_e: dec.edge(b as u32, else_b.0),
                    },
                    Op::Ret(vs) => Code::Ret { vals: dec.span(vs) },
                };
                dec.d.code.push(code);
                if inst.op.is_terminator() {
                    terminated = true;
                    break;
                }
            }
            if !terminated {
                dec.d.code.push(Code::FellOff);
            }
        }
        let mut d = dec.d;
        for e in &mut d.edges {
            // An edge to a block that does not exist panics when taken.
            e.pc = block_pc.get(e.pc as usize).copied().unwrap_or(NONE);
        }
        d.entry = block_pc[f.entry.0 as usize];
        d.entry_phi = f.blocks[f.entry.0 as usize]
            .insts
            .first()
            .is_some_and(|i| matches!(f.insts[i.0 as usize].op, Op::Phi(_)));
        d.nregs = d.direct + d.extra.len() as u32;
        d
    }
}

/// One activation: its function, the position it resumes at (a caller
/// waits at its `Call`), and its window of `nregs` registers at `base`
/// (defined bits at `dbase`) on the register stacks.
#[derive(Clone, Copy, Debug)]
struct Frame {
    func: u32,
    pc: u32,
    nregs: u32,
    base: usize,
    dbase: usize,
}

impl Frame {
    /// Where the next frame's windows start.
    fn top(&self) -> (usize, usize) {
        let n = self.nregs as usize;
        (self.base + n, self.dbase + n.div_ceil(64))
    }
}

/// The interpreter's own state: decoded functions, the call stack, and
/// the buffers every instruction reuses.
#[derive(Debug, Default)]
struct Exec {
    /// Per function, its decoded form once it has been called.
    code: Vec<Option<Decoded>>,
    frames: Vec<Frame>,
    /// The register stack: each frame's window of `nregs` values.
    regs: Vec<i64>,
    /// Defined bits of `regs`, one word-aligned window per frame.
    defs: Vec<u64>,
    /// Values in flight: call arguments, return values, runtime-call
    /// arguments.
    vals: Vec<i64>,
    /// φ sources read at a block entry before any φ is written.
    phi_vals: Vec<i64>,
}

/// A frame's registers.
struct Regs<'a> {
    vals: &'a mut [i64],
    defs: &'a mut [u64],
}

impl<'a> Regs<'a> {
    /// The window of `fr` on the register stacks.
    fn of(regs: &'a mut [i64], defs: &'a mut [u64], fr: &Frame) -> Self {
        let (end, dend) = fr.top();
        Regs {
            vals: &mut regs[fr.base..end],
            defs: &mut defs[fr.dbase..dend],
        }
    }

    #[inline(always)]
    fn get(&self, s: u32) -> Result<i64, LirTrap> {
        let s = s as usize;
        if self.defs[s / 64] >> (s % 64) & 1 == 0 {
            return Err(LirTrap::Malformed("unbound value"));
        }
        Ok(self.vals[s])
    }

    #[inline(always)]
    fn set(&mut self, s: u32, v: i64) {
        let s = s as usize;
        self.vals[s] = v;
        self.defs[s / 64] |= 1 << (s % 64);
    }
}

/// Where the running frame stopped.
enum Exit {
    /// At the `Call` at `pc`, with the arguments in `Exec::vals`.
    Call { func: u32, pc: u32 },
    /// At a `Ret`, with the returned values in `Exec::vals`.
    Ret,
}

fn bin(op: BinOp, x: i64, y: i64) -> Result<i64, LirTrap> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(LirTrap::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(LirTrap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
    })
}

fn cmp(op: CmpOp, x: i64, y: i64) -> i64 {
    (match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }) as i64
}

/// Applies an `rt_assoc_rmw`/dense-rmw opcode (the integer encoding of
/// `memoir_ir::BinOp` emitted by `memoir-lower::rmw_opcode`):
/// `0`=add `1`=sub `2`=mul `3`=div `4`=rem `5`=and `6`=or `7`=xor
/// `8`=shl `9`=shr `10`=min `11`=max.
fn apply_rmw(op: i64, x: i64, y: i64) -> Result<i64, LirTrap> {
    use BinOp::*;
    const OPS: [BinOp; 10] = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr];
    match op {
        10 => Ok(x.min(y)),
        11 => Ok(x.max(y)),
        _ => match usize::try_from(op).ok().and_then(|i| OPS.get(i)) {
            Some(&b) => bin(b, x, y),
            None => Err(LirTrap::Malformed("bad rmw opcode")),
        },
    }
}

impl<'m> LirMachine<'m> {
    /// Creates a machine.
    pub fn new(module: &'m Module) -> Self {
        LirMachine {
            module,
            mem: vec![0; NULL_GUARD],
            assocs: Vec::new(),
            stats: LirStats::default(),
            fuel: 200_000_000,
            unknown_rt: Vec::new(),
            exec: Exec {
                code: module.funcs.iter().map(|_| None).collect(),
                ..Exec::default()
            },
        }
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs a function by name.
    pub fn run_by_name(&mut self, name: &str, args: Vec<i64>) -> Result<Vec<i64>, LirTrap> {
        let f = self.module.by_name(name).expect("function exists");
        self.run(f, args)
    }

    fn alloc_words(&mut self, n: usize) -> i64 {
        let base = self.mem.len() as i64;
        self.mem.resize(self.mem.len() + n.max(1), 0);
        base
    }

    #[inline]
    fn load(&mut self, addr: i64) -> Result<i64, LirTrap> {
        self.stats.loads += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        Ok(self.mem[addr as usize])
    }

    #[inline]
    fn store(&mut self, addr: i64, v: i64) -> Result<(), LirTrap> {
        self.stats.stores += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        self.mem[addr as usize] = v;
        Ok(())
    }

    /// Runs a function.
    pub fn run(&mut self, fid: Fun, args: Vec<i64>) -> Result<Vec<i64>, LirTrap> {
        let mut exec = std::mem::take(&mut self.exec);
        exec.frames.clear();
        exec.vals.clear();
        exec.vals.extend_from_slice(&args);
        let out = self.execute(&mut exec, fid.0);
        self.exec = exec;
        out
    }

    /// Pushes a frame for `func`, decoding it on its first call, and binds
    /// the arguments in `ex.vals`.
    fn enter(&mut self, ex: &mut Exec, func: u32) -> Result<(), LirTrap> {
        let module = self.module;
        let unknown_rt = &mut self.unknown_rt;
        let d = ex.code[func as usize]
            .get_or_insert_with(|| Decoder::decode(&module.funcs[func as usize], unknown_rt));
        if d.entry_phi {
            return Err(LirTrap::Malformed("phi in entry"));
        }
        let (base, dbase) = ex.frames.last().map_or((0, 0), Frame::top);
        let fr = Frame {
            func,
            pc: d.entry,
            nregs: d.nregs,
            base,
            dbase,
        };
        let (end, dend) = fr.top();
        if ex.regs.len() < end {
            ex.regs.resize(end, 0);
        }
        if ex.defs.len() < dend {
            ex.defs.resize(dend, 0);
        }
        let mut regs = Regs::of(&mut ex.regs, &mut ex.defs, &fr);
        regs.defs.fill(0);
        for (i, &a) in ex.vals.iter().enumerate().take(d.direct as usize) {
            regs.set(i as u32, a);
        }
        for (k, &id) in d.extra.iter().enumerate() {
            if let Some(&a) = ex.vals.get(id as usize) {
                regs.set(d.direct + k as u32, a);
            }
        }
        ex.frames.push(fr);
        Ok(())
    }

    /// Takes edge `e` of `d`: performs its φ copies and returns the
    /// position execution continues at.
    #[inline]
    fn take_edge(
        &mut self,
        d: &Decoded,
        e: u32,
        regs: &mut Regs<'_>,
        phi_vals: &mut Vec<i64>,
    ) -> Result<usize, LirTrap> {
        let edge = d.edges[e as usize];
        if edge.copies.len > 0 {
            let copies = &d.copies[edge.copies.range()];
            phi_vals.clear();
            for &(src, _) in copies {
                if src == NONE {
                    return Err(LirTrap::Malformed("phi missing incoming"));
                }
                let v = regs
                    .get(src)
                    .map_err(|_| LirTrap::Malformed("unbound phi operand"))?;
                phi_vals.push(v);
                self.stats.insts += 1;
            }
            for (&(_, dst), &v) in copies.iter().zip(phi_vals.iter()) {
                regs.set(dst, v);
            }
        }
        Ok(edge.pc as usize)
    }

    /// Runs `func` with the arguments in `ex.vals` until its frame
    /// returns.
    fn execute(&mut self, ex: &mut Exec, func: u32) -> Result<Vec<i64>, LirTrap> {
        self.enter(ex, func)?;
        loop {
            let fr = *ex.frames.last().expect("a frame is running");
            let d = ex.code[fr.func as usize]
                .as_ref()
                .expect("entered functions are decoded");
            let mut regs = Regs::of(&mut ex.regs, &mut ex.defs, &fr);
            let mut pc = fr.pc as usize;
            let exit = loop {
                if self.stats.insts >= self.fuel {
                    return Err(match d.code[pc] {
                        Code::FellOff => LirTrap::Malformed("fell off block"),
                        _ => LirTrap::OutOfFuel,
                    });
                }
                self.stats.insts += 1;
                match d.code[pc] {
                    Code::Const { dst, c } => regs.set(dst, c),
                    Code::Bin { op, dst, a, b } => {
                        let r = bin(op, regs.get(a)?, regs.get(b)?)?;
                        regs.set(dst, r);
                    }
                    Code::Cmp { op, dst, a, b } => {
                        let r = cmp(op, regs.get(a)?, regs.get(b)?);
                        regs.set(dst, r);
                    }
                    Code::Alloca { dst, words } => {
                        let base = self.alloc_words(words as usize);
                        regs.set(dst, base);
                    }
                    Code::Malloc { dst, words } => {
                        let words = regs.get(words)?.max(0) as usize;
                        let base = self.alloc_words(words);
                        regs.set(dst, base);
                    }
                    Code::Free => {}
                    Code::Load { dst, addr } => {
                        let v = self.load(regs.get(addr)?)?;
                        regs.set(dst, v);
                    }
                    Code::Store { addr, value } => {
                        let (a, v) = (regs.get(addr)?, regs.get(value)?);
                        self.store(a, v)?;
                    }
                    Code::Gep { dst, base, offset } => {
                        let r = regs.get(base)?.wrapping_add(regs.get(offset)?);
                        regs.set(dst, r);
                    }
                    Code::Call { func, args, .. } => {
                        ex.vals.clear();
                        for &s in d.span(args) {
                            ex.vals.push(regs.get(s)?);
                        }
                        break Exit::Call {
                            func,
                            pc: pc as u32,
                        };
                    }
                    Code::CallRt { rt, args, dst } => {
                        self.stats.rt_calls += 1;
                        ex.vals.clear();
                        for &s in d.span(args) {
                            ex.vals.push(regs.get(s)?);
                        }
                        if let (Some(v), true) = (self.call_rt(rt, &ex.vals)?, dst != NONE) {
                            regs.set(dst, v);
                        }
                    }
                    Code::Jmp { edge } => {
                        pc = self.take_edge(d, edge, &mut regs, &mut ex.phi_vals)?;
                        continue;
                    }
                    Code::Br {
                        cond,
                        then_e,
                        else_e,
                    } => {
                        let e = if regs.get(cond)? != 0 { then_e } else { else_e };
                        pc = self.take_edge(d, e, &mut regs, &mut ex.phi_vals)?;
                        continue;
                    }
                    Code::Ret { vals } => {
                        ex.vals.clear();
                        for &s in d.span(vals) {
                            ex.vals.push(regs.get(s)?);
                        }
                        break Exit::Ret;
                    }
                    Code::LatePhi => return Err(LirTrap::Malformed("phi after non-phi")),
                    Code::FellOff => {
                        self.stats.insts -= 1;
                        return Err(LirTrap::Malformed("fell off block"));
                    }
                }
                pc += 1;
            };
            match exit {
                Exit::Call { func, pc } => {
                    ex.frames.last_mut().expect("the caller is running").pc = pc;
                    self.enter(ex, func)?;
                }
                Exit::Ret => {
                    ex.frames.pop();
                    let Some(caller) = ex.frames.last_mut() else {
                        return Ok(ex.vals.clone());
                    };
                    let cd = ex.code[caller.func as usize]
                        .as_ref()
                        .expect("callers are decoded");
                    let Code::Call { rets, .. } = cd.code[caller.pc as usize] else {
                        unreachable!("a caller waits at its call")
                    };
                    caller.pc += 1;
                    let mut regs = Regs::of(&mut ex.regs, &mut ex.defs, caller);
                    for (&dst, &v) in cd.span(rets).iter().zip(&ex.vals) {
                        regs.set(dst, v);
                    }
                }
            }
        }
    }

    /// The symbol a routine was called by.
    fn rt_name(&self, rt: Rt) -> String {
        match rt {
            Rt::Unknown(i) => self.unknown_rt[i as usize].clone(),
            known => ROUTINES
                .iter()
                .find(|&&(_, r)| r == known)
                .map(|&(name, _)| name.to_string())
                .expect("every known routine has a symbol"),
        }
    }

    /// Whether the routine's symbol starts with `rt_assoc_` (its handle
    /// may be dense).
    fn is_assoc(&self, rt: Rt) -> bool {
        match rt {
            Rt::AssocCopy
            | Rt::AssocNew
            | Rt::AssocWrite
            | Rt::AssocRead
            | Rt::AssocHas
            | Rt::AssocRemove
            | Rt::AssocRmw
            | Rt::AssocSize
            | Rt::AssocKeys => true,
            Rt::Unknown(i) => self.unknown_rt[i as usize].starts_with("rt_assoc_"),
            _ => false,
        }
    }

    /// Sequence header layout: `[data, len, cap]` at the handle address.
    fn seq_parts(&mut self, hdr: i64) -> Result<(i64, i64, i64), LirTrap> {
        Ok((self.load(hdr)?, self.load(hdr + 1)?, self.load(hdr + 2)?))
    }

    /// Dense-map operations at a non-negative assoc handle. Layout in
    /// linear memory: `[cap, size, present[cap], vals[cap]]` at `hdr`.
    /// The repr analysis proved every key in `0 .. cap`, so an
    /// out-of-bound read/write is a compiler bug and traps loudly
    /// (`has` stays total: absent, not a trap).
    fn call_dense(&mut self, rt: Rt, args: &[i64]) -> Result<Option<i64>, LirTrap> {
        let hdr = args[0];
        let cap = self.load(hdr)?;
        let in_bounds = |k: i64| (0..cap).contains(&k);
        match rt {
            Rt::AssocRead => {
                let k = args[1];
                if !in_bounds(k) || self.load(hdr + 2 + k)? == 0 {
                    return Err(LirTrap::MissingKey);
                }
                Ok(Some(self.load(hdr + 2 + cap + k)?))
            }
            Rt::AssocWrite => {
                let (k, v) = (args[1], args[2]);
                if !in_bounds(k) {
                    return Err(LirTrap::BadAddress(k));
                }
                if self.load(hdr + 2 + k)? == 0 {
                    self.store(hdr + 2 + k, 1)?;
                    let sz = self.load(hdr + 1)?;
                    self.store(hdr + 1, sz + 1)?;
                }
                self.store(hdr + 2 + cap + k, v)?;
                Ok(None)
            }
            Rt::AssocRmw => {
                let k = args[1];
                if !in_bounds(k) || self.load(hdr + 2 + k)? == 0 {
                    return Err(LirTrap::MissingKey);
                }
                let x = self.load(hdr + 2 + cap + k)?;
                let r = apply_rmw(args[2], x, args[3])?;
                self.store(hdr + 2 + cap + k, r)?;
                Ok(None)
            }
            Rt::AssocHas => {
                let k = args[1];
                let present = in_bounds(k) && self.load(hdr + 2 + k)? != 0;
                Ok(Some(present as i64))
            }
            Rt::AssocRemove => {
                let k = args[1];
                if in_bounds(k) && self.load(hdr + 2 + k)? != 0 {
                    self.store(hdr + 2 + k, 0)?;
                    let sz = self.load(hdr + 1)?;
                    self.store(hdr + 1, sz - 1)?;
                }
                Ok(None)
            }
            Rt::AssocSize => Ok(Some(self.load(hdr + 1)?)),
            Rt::AssocCopy => {
                let out = self.alloc_words((2 + 2 * cap) as usize);
                for i in 0..2 + 2 * cap {
                    let v = self.load(hdr + i)?;
                    self.store(out + i, v)?;
                }
                Ok(Some(out))
            }
            Rt::AssocKeys => {
                // Present keys ascending — selection never fires when a
                // `keys` op is reachable, so this order is unobservable;
                // it matches `memoir_runtime::DenseMap::keys`.
                let mut keys = Vec::new();
                for k in 0..cap {
                    if self.load(hdr + 2 + k)? != 0 {
                        keys.push(k);
                    }
                }
                let out = self.call_rt(Rt::SeqNew, &[keys.len() as i64])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for (i, k) in keys.iter().enumerate() {
                    self.store(odata + i as i64, *k)?;
                }
                Ok(Some(out))
            }
            other => Err(LirTrap::UnknownRt(self.rt_name(other))),
        }
    }

    fn call_rt(&mut self, rt: Rt, args: &[i64]) -> Result<Option<i64>, LirTrap> {
        match rt {
            // Dense dispatch: a non-negative assoc handle is a dense
            // direct-indexed map living in linear memory (emitted by the
            // adaptive `rt_dense_new` lowering); a negative handle is a
            // host hashtable as before.
            rt if self.is_assoc(rt) && args.first().is_some_and(|&h| h >= 0) => {
                self.call_dense(rt, args)
            }
            Rt::DenseNew => {
                let cap = args[0].max(0);
                let hdr = self.alloc_words((2 + 2 * cap) as usize);
                self.store(hdr, cap)?;
                self.store(hdr + 1, 0)?;
                Ok(Some(hdr))
            }
            // ------------------------------------------------- sequences
            Rt::SeqNew => {
                let n = args[0].max(0);
                let data = self.alloc_words(n as usize);
                let hdr = self.alloc_words(3);
                self.store(hdr, data)?;
                self.store(hdr + 1, n)?;
                self.store(hdr + 2, n)?;
                Ok(Some(hdr))
            }
            Rt::SeqGrow => {
                // Ensure capacity ≥ args[1] for handle args[0].
                let hdr = args[0];
                let want = args[1];
                let (data, len, cap) = self.seq_parts(hdr)?;
                if want > cap {
                    let new_cap = (cap * 2).max(want).max(4);
                    let new_data = self.alloc_words(new_cap as usize);
                    for i in 0..len {
                        let v = self.load(data + i)?;
                        self.store(new_data + i, v)?;
                    }
                    self.store(hdr, new_data)?;
                    self.store(hdr + 2, new_cap)?;
                }
                Ok(None)
            }
            Rt::SeqInsert => {
                let (hdr, at, v) = (args[0], args[1], args[2]);
                let (_, len, _) = self.seq_parts(hdr)?;
                self.call_rt(Rt::SeqGrow, &[hdr, len + 1])?;
                let (data, len, _) = self.seq_parts(hdr)?;
                let mut i = len;
                while i > at {
                    let x = self.load(data + i - 1)?;
                    self.store(data + i, x)?;
                    i -= 1;
                }
                self.store(data + at, v)?;
                self.store(hdr + 1, len + 1)?;
                Ok(None)
            }
            Rt::SeqRemove => {
                let (hdr, at) = (args[0], args[1]);
                let (data, len, _) = self.seq_parts(hdr)?;
                for i in at..len - 1 {
                    let x = self.load(data + i + 1)?;
                    self.store(data + i, x)?;
                }
                self.store(hdr + 1, len - 1)?;
                Ok(None)
            }
            Rt::SeqRemoveRange => {
                let (hdr, from, to) = (args[0], args[1], args[2]);
                let (data, len, _) = self.seq_parts(hdr)?;
                let w = to - from;
                for i in from..len - w {
                    let x = self.load(data + i + w)?;
                    self.store(data + i, x)?;
                }
                self.store(hdr + 1, len - w)?;
                Ok(None)
            }
            Rt::SeqSplice => {
                let (hdr, at, src) = (args[0], args[1], args[2]);
                let (_, slen, _) = self.seq_parts(src)?;
                let (_, len, _) = self.seq_parts(hdr)?;
                self.call_rt(Rt::SeqGrow, &[hdr, len + slen])?;
                let (data, len, _) = self.seq_parts(hdr)?;
                let (sdata, slen, _) = self.seq_parts(src)?;
                let mut i = len;
                while i > at {
                    let x = self.load(data + i - 1)?;
                    self.store(data + i - 1 + slen, x)?;
                    i -= 1;
                }
                for i in 0..slen {
                    let x = self.load(sdata + i)?;
                    self.store(data + at + i, x)?;
                }
                self.store(hdr + 1, len + slen)?;
                Ok(None)
            }
            Rt::SeqSwapRange => {
                let (hdr, from, to, at) = (args[0], args[1], args[2], args[3]);
                let (data, _, _) = self.seq_parts(hdr)?;
                for o in 0..(to - from) {
                    let a = self.load(data + from + o)?;
                    let b = self.load(data + at + o)?;
                    self.store(data + from + o, b)?;
                    self.store(data + at + o, a)?;
                }
                Ok(None)
            }
            Rt::SeqCopy => {
                let hdr = args[0];
                let (data, len, _) = self.seq_parts(hdr)?;
                let out = self.call_rt(Rt::SeqNew, &[len])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for i in 0..len {
                    let v = self.load(data + i)?;
                    self.store(odata + i, v)?;
                }
                Ok(Some(out))
            }
            Rt::SeqCopyRange => {
                let (hdr, from, to) = (args[0], args[1], args[2]);
                let (data, _, _) = self.seq_parts(hdr)?;
                let out = self.call_rt(Rt::SeqNew, &[to - from])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for i in 0..(to - from) {
                    let v = self.load(data + from + i)?;
                    self.store(odata + i, v)?;
                }
                Ok(Some(out))
            }
            Rt::SeqSwap2 => {
                let (ha, from, to, hb, at) = (args[0], args[1], args[2], args[3], args[4]);
                let (da, _, _) = self.seq_parts(ha)?;
                let (db, _, _) = self.seq_parts(hb)?;
                for o in 0..(to - from) {
                    let x = self.load(da + from + o)?;
                    let y = self.load(db + at + o)?;
                    self.store(da + from + o, y)?;
                    self.store(db + at + o, x)?;
                }
                Ok(None)
            }
            // ------------------------------------------------ assoc (host)
            Rt::AssocCopy => {
                let idx = (-args[0] - 1) as usize;
                let cloned = self.assocs[idx].clone();
                self.assocs.push(cloned);
                Ok(Some(-(self.assocs.len() as i64)))
            }
            Rt::AssocNew => {
                self.assocs.push((HashMap::new(), Vec::new()));
                Ok(Some(-(self.assocs.len() as i64)))
            }
            Rt::AssocWrite => {
                let idx = (-args[0] - 1) as usize;
                let (map, order) = &mut self.assocs[idx];
                if !map.contains_key(&args[1]) {
                    order.push(args[1]);
                }
                map.insert(args[1], args[2]);
                Ok(None)
            }
            Rt::AssocRead => {
                let idx = (-args[0] - 1) as usize;
                self.assocs[idx]
                    .0
                    .get(&args[1])
                    .copied()
                    .map(Some)
                    .ok_or(LirTrap::MissingKey)
            }
            Rt::AssocHas => {
                let idx = (-args[0] - 1) as usize;
                Ok(Some(self.assocs[idx].0.contains_key(&args[1]) as i64))
            }
            Rt::AssocRemove => {
                let idx = (-args[0] - 1) as usize;
                let (map, order) = &mut self.assocs[idx];
                if map.remove(&args[1]).is_some() {
                    order.retain(|&k| k != args[1]);
                }
                Ok(None)
            }
            Rt::AssocRmw => {
                // Fused read-modify-write (`mut.rmw` lowering): the
                // read-half traps on a missing key exactly like
                // `rt_assoc_read`, then the combined value is stored
                // without re-hashing.
                let idx = (-args[0] - 1) as usize;
                let x = *self.assocs[idx]
                    .0
                    .get(&args[1])
                    .ok_or(LirTrap::MissingKey)?;
                let r = apply_rmw(args[2], x, args[3])?;
                self.assocs[idx].0.insert(args[1], r);
                Ok(None)
            }
            Rt::AssocSize => {
                let idx = (-args[0] - 1) as usize;
                Ok(Some(self.assocs[idx].0.len() as i64))
            }
            Rt::AssocKeys => {
                // Returns a fresh sequence of the keys.
                let idx = (-args[0] - 1) as usize;
                let keys: Vec<i64> = {
                    let (map, order) = &self.assocs[idx];
                    order
                        .iter()
                        .copied()
                        .filter(|k| map.contains_key(k))
                        .collect()
                };
                let out = self.call_rt(Rt::SeqNew, &[keys.len() as i64])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for (i, k) in keys.iter().enumerate() {
                    self.store(odata + i as i64, *k)?;
                }
                Ok(Some(out))
            }
            // ------------------------------------------------------ misc
            Rt::ObjNew => {
                let words = args[0].max(1);
                Ok(Some(self.alloc_words(words as usize)))
            }
            Rt::ObjDelete => Ok(None),
            other => Err(LirTrap::UnknownRt(self.rt_name(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_loop_runs() {
        // sum 0..n via a loop.
        let mut f = Function::new("sum", 1, 1);
        let entry = f.entry;
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let zero = f.push1(entry, Op::Const(0));
        f.push0(entry, Op::Jmp(header));
        let i = f.push1(header, Op::Phi(vec![]));
        let acc = f.push1(header, Op::Phi(vec![]));
        let done = f.push1(header, Op::Cmp(CmpOp::Ge, i, f.param(0)));
        f.push0(
            header,
            Op::Br {
                cond: done,
                then_b: exit,
                else_b: body,
            },
        );
        let one = f.push1(body, Op::Const(1));
        let acc2 = f.push1(body, Op::Bin(BinOp::Add, acc, i));
        let i2 = f.push1(body, Op::Bin(BinOp::Add, i, one));
        f.push0(body, Op::Jmp(header));
        f.push0(exit, Op::Ret(vec![acc]));
        // Patch φs (found by scan; `i` comes before `acc`).
        let mut patched = 0;
        for inst in &mut f.insts {
            if let Op::Phi(incs) = &mut inst.op {
                if patched == 0 {
                    incs.push((entry, zero));
                    incs.push((body, i2));
                } else {
                    incs.push((entry, zero));
                    incs.push((body, acc2));
                }
                patched += 1;
            }
        }
        assert_eq!(patched, 2);
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("sum", vec![10]).unwrap(), vec![45]);
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let mut f = Function::new("mem", 0, 1);
        let e = f.entry;
        let a = f.push1(e, Op::Alloca(2));
        let c = f.push1(e, Op::Const(7));
        f.push0(e, Op::Store { addr: a, value: c });
        let one = f.push1(e, Op::Const(1));
        let a1 = f.push1(
            e,
            Op::Gep {
                base: a,
                offset: one,
            },
        );
        f.push0(
            e,
            Op::Store {
                addr: a1,
                value: one,
            },
        );
        let v = f.push1(e, Op::Load(a));
        f.push0(e, Op::Ret(vec![v]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("mem", vec![]).unwrap(), vec![7]);
        assert_eq!(vm.stats.stores, 2);
        assert_eq!(vm.stats.loads, 1);
    }

    #[test]
    fn rt_seq_helpers() {
        let mut f = Function::new("seqtest", 0, 2);
        let e = f.entry;
        let n = f.push1(e, Op::Const(3));
        let hdr = f.push1(
            e,
            Op::CallRt {
                name: "rt_seq_new".into(),
                args: vec![n],
                has_result: true,
            },
        );
        // write s[1] = 42 inline: data = load hdr; store data+1.
        let data = f.push1(e, Op::Load(hdr));
        let one = f.push1(e, Op::Const(1));
        let addr = f.push1(
            e,
            Op::Gep {
                base: data,
                offset: one,
            },
        );
        let v42 = f.push1(e, Op::Const(42));
        f.push0(e, Op::Store { addr, value: v42 });
        // insert 99 at 0 → shifts right.
        let zero = f.push1(e, Op::Const(0));
        let v99 = f.push1(e, Op::Const(99));
        f.push0(
            e,
            Op::CallRt {
                name: "rt_seq_insert".into(),
                args: vec![hdr, zero, v99],
                has_result: false,
            },
        );
        // len and s[2] (the shifted 42).
        let lenp = f.push1(
            e,
            Op::Gep {
                base: hdr,
                offset: one,
            },
        );
        let len = f.push1(e, Op::Load(lenp));
        let data2 = f.push1(e, Op::Load(hdr));
        let two = f.push1(e, Op::Const(2));
        let addr2 = f.push1(
            e,
            Op::Gep {
                base: data2,
                offset: two,
            },
        );
        let v = f.push1(e, Op::Load(addr2));
        f.push0(e, Op::Ret(vec![len, v]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("seqtest", vec![]).unwrap(), vec![4, 42]);
    }

    #[test]
    fn rt_assoc_helpers() {
        let mut f = Function::new("assoctest", 0, 3);
        let e = f.entry;
        let h = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_new".into(),
                args: vec![],
                has_result: true,
            },
        );
        let k = f.push1(e, Op::Const(5));
        let v = f.push1(e, Op::Const(50));
        f.push0(
            e,
            Op::CallRt {
                name: "rt_assoc_write".into(),
                args: vec![h, k, v],
                has_result: false,
            },
        );
        let got = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_read".into(),
                args: vec![h, k],
                has_result: true,
            },
        );
        let has = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_has".into(),
                args: vec![h, k],
                has_result: true,
            },
        );
        let size = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_size".into(),
                args: vec![h],
                has_result: true,
            },
        );
        f.push0(e, Op::Ret(vec![got, has, size]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("assoctest", vec![]).unwrap(), vec![50, 1, 1]);
    }

    /// Builds a one-block function that performs `calls` in order and
    /// returns the listed result values.
    fn rt_program(calls: Vec<(&str, Vec<RtArg>, bool)>, rets: Vec<usize>) -> Module {
        let nrets = rets.len();
        let mut f = Function::new("t", 0, nrets as u32);
        let e = f.entry;
        let mut results: Vec<Val> = Vec::new();
        for (name, args, has_result) in calls {
            let argv: Vec<Val> = args
                .into_iter()
                .map(|a| match a {
                    RtArg::C(c) => f.push1(e, Op::Const(c)),
                    RtArg::R(i) => results[i],
                })
                .collect();
            let out = f.push(
                e,
                Op::CallRt {
                    name: name.into(),
                    args: argv,
                    has_result,
                },
                has_result as usize,
            );
            results.push(out.first().copied().unwrap_or(Val(u32::MAX)));
        }
        let ret_vals: Vec<Val> = rets.into_iter().map(|i| results[i]).collect();
        f.push0(e, Op::Ret(ret_vals));
        let mut m = Module::default();
        m.add(f);
        m
    }

    enum RtArg {
        C(i64),
        R(usize),
    }
    use RtArg::{C, R};

    #[test]
    fn dense_map_roundtrip_through_assoc_dispatch() {
        // new(8); write(3,30); write(3,33); has(3); has(7); size; read(3)
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(8)], true),
                ("rt_assoc_write", vec![R(0), C(3), C(30)], false),
                ("rt_assoc_write", vec![R(0), C(3), C(33)], false),
                ("rt_assoc_has", vec![R(0), C(3)], true),
                ("rt_assoc_has", vec![R(0), C(7)], true),
                ("rt_assoc_size", vec![R(0)], true),
                ("rt_assoc_read", vec![R(0), C(3)], true),
            ],
            vec![3, 4, 5, 6],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![1, 0, 1, 33]);
    }

    #[test]
    fn dense_rmw_and_remove() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_write", vec![R(0), C(2), C(5)], false),
                ("rt_assoc_rmw", vec![R(0), C(2), C(0), C(7)], false), // += 7
                ("rt_assoc_read", vec![R(0), C(2)], true),
                ("rt_assoc_remove", vec![R(0), C(2)], false),
                ("rt_assoc_size", vec![R(0)], true),
            ],
            vec![3, 5],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![12, 0]);
    }

    #[test]
    fn dense_read_of_absent_key_traps_like_hashtable() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_read", vec![R(0), C(1)], true),
            ],
            vec![1],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]), Err(LirTrap::MissingKey));
    }

    #[test]
    fn dense_copy_is_value_semantic() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_write", vec![R(0), C(1), C(10)], false),
                ("rt_assoc_copy", vec![R(0)], true),
                ("rt_assoc_write", vec![R(0), C(1), C(99)], false),
                ("rt_assoc_read", vec![R(2), C(1)], true),
            ],
            vec![4],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![10]);
    }

    #[test]
    fn host_assoc_rmw_traps_on_missing_key() {
        let m = rt_program(
            vec![
                ("rt_assoc_new", vec![], true),
                ("rt_assoc_rmw", vec![R(0), C(1), C(0), C(7)], false),
            ],
            vec![],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]), Err(LirTrap::MissingKey));
    }

    #[test]
    fn host_assoc_rmw_combines_in_place() {
        let m = rt_program(
            vec![
                ("rt_assoc_new", vec![], true),
                ("rt_assoc_write", vec![R(0), C(5), C(40)], false),
                ("rt_assoc_rmw", vec![R(0), C(5), C(11), C(50)], false), // max
                ("rt_assoc_read", vec![R(0), C(5)], true),
            ],
            vec![3],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![50]);
    }
}
