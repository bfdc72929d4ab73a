//! Constant propagation and folding, including **element-level** constant
//! propagation along collection def-use chains.
//!
//! The scalar part is conventional folding. The collection part is the
//! paper's Listing 1 scenario: because MEMOIR represents a map update as
//! `A₁ = WRITE(A₀, k, v)`, a later `READ(A₂, k)` can walk the def-use
//! chain and, when keys are statically distinguishable, forward the stored
//! value — something the lowered form (opaque hash-table calls) can never
//! do. `SIZE` is likewise folded through the chain (`new Seq(n)` ⇒ `n`,
//! `insert` ⇒ `+1`, `remove` ⇒ `−1`).
//!
//! Field arrays get the same treatment block-locally (the load-store
//! propagation the paper credits to Extended Array SSA): a `field.read`
//! reached by a `field.write` through the *same reference value* with no
//! intervening write to that field array (through any reference — two
//! distinct SSA references may alias the same object) forwards the stored
//! value. Calls that may write the field (per the purity summaries) kill
//! the facts.

use memoir_ir::{BinOp, CmpOp, Constant, Function, InstKind, Module, Type, ValueDef, ValueId};
use std::collections::HashMap;

/// Statistics from one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConstPropStats {
    /// Scalar instructions folded to constants.
    pub scalars_folded: usize,
    /// Collection reads forwarded along def-use chains (Listing 1).
    pub element_reads_forwarded: usize,
    /// `size` queries folded.
    pub sizes_folded: usize,
    /// Conditional branches turned unconditional.
    pub branches_folded: usize,
    /// Other results forwarded to an existing value: identities
    /// (`x+0`, `x*1`, …), selects on constant conditions, and φs whose
    /// incomings all agree.
    pub values_forwarded: usize,
}

/// Runs constant propagation over every function. Iterates to a local
/// fixed point.
pub fn constprop(m: &mut Module) -> ConstPropStats {
    constprop_with(m, &mut passman::AnalysisManager::new())
}

/// Like [`constprop`], but takes the purity summaries from a shared
/// [`passman::AnalysisManager`] instead of recomputing them per function
/// per fixpoint round. Constprop folds values and branch conditions
/// without adding or removing calls or field writes, so the summaries
/// fetched up front stay valid for the whole run.
pub fn constprop_with(m: &mut Module, am: &mut passman::AnalysisManager<Module>) -> ConstPropStats {
    let purity = am.get_module::<memoir_analysis::cached::CachedPurity>(m);
    let mut stats = ConstPropStats::default();
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        loop {
            let round = run_function(m, fid, &purity);
            stats.scalars_folded += round.scalars_folded;
            stats.element_reads_forwarded += round.element_reads_forwarded;
            stats.sizes_folded += round.sizes_folded;
            stats.branches_folded += round.branches_folded;
            stats.values_forwarded += round.values_forwarded;
            if round == ConstPropStats::default() {
                break;
            }
        }
    }
    stats
}

fn run_function(
    m: &mut Module,
    fid: memoir_ir::FuncId,
    purity: &memoir_analysis::Purity,
) -> ConstPropStats {
    let mut stats = ConstPropStats::default();
    let mut replacements: HashMap<ValueId, ValueId> = HashMap::new();
    let field_forwards = field_forwarding(m, fid, purity);
    let f = &m.funcs[fid];

    // Collect fold candidates first (immutable pass), then apply.
    #[derive(Clone)]
    enum Action {
        ReplaceResult(
            memoir_ir::BlockId,
            memoir_ir::InstId,
            ValueId,
            Constant,
            memoir_ir::TypeId,
        ),
        ForwardResult(memoir_ir::BlockId, memoir_ir::InstId, ValueId, ValueId),
        FoldBranch(memoir_ir::InstId, bool),
    }
    let mut actions: Vec<Action> = Vec::new();

    for (blk, iid) in f.inst_ids_in_order() {
        let inst = &f.insts[iid];
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (f.value_const(*lhs), f.value_const(*rhs)) {
                    if let Some(c) = fold_bin(*op, a, b) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            c,
                            f.value_ty(inst.results[0]),
                        ));
                        continue;
                    }
                }
                // Identity simplifications: x+0, x*1, x-0.
                if let Some(b) = f.value_const(*rhs).and_then(Constant::as_int) {
                    let identity = matches!(
                        (op, b),
                        (BinOp::Add, 0)
                            | (BinOp::Sub, 0)
                            | (BinOp::Mul, 1)
                            | (BinOp::Or, 0)
                            | (BinOp::Xor, 0)
                            | (BinOp::Shl, 0)
                            | (BinOp::Shr, 0)
                    );
                    if identity {
                        actions.push(Action::ForwardResult(blk, iid, inst.results[0], *lhs));
                        stats.values_forwarded += 1;
                    }
                }
            }
            InstKind::Cmp { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (f.value_const(*lhs), f.value_const(*rhs)) {
                    if let Some(c) = fold_cmp(*op, a, b) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            Constant::Bool(c),
                            f.value_ty(inst.results[0]),
                        ));
                    }
                } else if lhs == rhs && matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge) {
                    actions.push(Action::ReplaceResult(
                        blk,
                        iid,
                        inst.results[0],
                        Constant::Bool(true),
                        f.value_ty(inst.results[0]),
                    ));
                } else if lhs == rhs && matches!(op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt) {
                    actions.push(Action::ReplaceResult(
                        blk,
                        iid,
                        inst.results[0],
                        Constant::Bool(false),
                        f.value_ty(inst.results[0]),
                    ));
                }
            }
            InstKind::Cast { to, value } => {
                if let Some(c) = f.value_const(*value) {
                    if let Some(folded) = fold_cast(m.types.get(*to), c) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            folded,
                            *to,
                        ));
                    }
                }
            }
            InstKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                if let Some(Constant::Bool(b)) = f.value_const(*cond) {
                    let v = if b { *then_value } else { *else_value };
                    actions.push(Action::ForwardResult(blk, iid, inst.results[0], v));
                    stats.values_forwarded += 1;
                }
            }
            InstKind::Phi { incoming } => {
                // All incomings identical (or the φ itself) ⇒ forward.
                let mut uniq: Option<ValueId> = None;
                let mut ok = !incoming.is_empty();
                for (_, v) in incoming {
                    if *v == inst.results[0] {
                        continue;
                    }
                    match uniq {
                        None => uniq = Some(*v),
                        Some(u) if u == *v => {}
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    if let Some(u) = uniq {
                        actions.push(Action::ForwardResult(blk, iid, inst.results[0], u));
                        stats.values_forwarded += 1;
                    }
                }
            }
            InstKind::Branch { cond, .. } => {
                if let Some(Constant::Bool(b)) = f.value_const(*cond) {
                    actions.push(Action::FoldBranch(iid, b));
                }
            }
            // The collection def-use chain walks below assume value
            // semantics: in mut form a collection is a single mutable
            // value, so its chain stops at the allocation even though
            // MUT ops have changed the contents since. SSA form only.
            InstKind::Read { c, idx } if f.form == memoir_ir::Form::Ssa => {
                if let Some(v) = forward_read(f, *c, *idx, 64) {
                    actions.push(Action::ForwardResult(blk, iid, inst.results[0], v));
                    stats.element_reads_forwarded += 1;
                }
            }
            InstKind::FieldRead { .. } => {
                if let Some(&v) = field_forwards.get(&iid) {
                    actions.push(Action::ForwardResult(blk, iid, inst.results[0], v));
                    stats.element_reads_forwarded += 1;
                }
            }
            InstKind::Size { c } if f.form == memoir_ir::Form::Ssa => {
                if let Some(n) = fold_size(&m.types, f, *c, 64) {
                    actions.push(Action::ReplaceResult(
                        blk,
                        iid,
                        inst.results[0],
                        Constant::index(n),
                        f.value_ty(inst.results[0]),
                    ));
                    stats.sizes_folded += 1;
                }
            }
            _ => {}
        }
    }

    if actions.is_empty() {
        return stats;
    }
    let f = &mut m.funcs[fid];
    for action in actions {
        match action {
            Action::ReplaceResult(b, i, r, c, ty) => {
                let cv = f.constant(c, ty);
                replacements.insert(r, cv);
                f.remove_inst(b, i);
                stats.scalars_folded += 1;
            }
            Action::ForwardResult(b, i, r, v) => {
                replacements.insert(r, v);
                f.remove_inst(b, i);
            }
            Action::FoldBranch(iid, b) => {
                if let InstKind::Branch {
                    then_target,
                    else_target,
                    ..
                } = f.insts[iid].kind
                {
                    let target = if b { then_target } else { else_target };
                    f.insts[iid].kind = InstKind::Jump { target };
                    stats.branches_folded += 1;
                    // Remove now-stale φ incomings in the dropped target.
                    let dropped = if b { else_target } else { then_target };
                    if dropped != target {
                        let from = block_of(f, iid);
                        if let Some(from) = from {
                            for di in f.blocks[dropped].insts.clone() {
                                if let InstKind::Phi { incoming } = &mut f.insts[di].kind {
                                    incoming.retain(|(p, _)| *p != from);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    f.replace_uses_map(&replacements);
    stats
}

/// Block-local field-array load-store forwarding: maps forwardable
/// `field.read` instructions to the value last stored through the same
/// reference. Conservative about aliasing: a write through any *other*
/// reference to the same `(type, field)` kills that field array's facts,
/// and calls kill per their effect summaries.
fn field_forwarding(
    m: &Module,
    fid: memoir_ir::FuncId,
    purity: &memoir_analysis::Purity,
) -> HashMap<memoir_ir::InstId, ValueId> {
    use memoir_ir::{Callee, ObjTypeId};
    let f = &m.funcs[fid];
    let mut out = HashMap::new();
    for (_, block) in f.blocks.iter() {
        // (obj value, type, field) → stored value.
        let mut facts: HashMap<(ValueId, ObjTypeId, u32), ValueId> = HashMap::new();
        for &i in &block.insts {
            match &f.insts[i].kind {
                InstKind::FieldWrite {
                    obj,
                    obj_ty,
                    field,
                    value,
                } => {
                    // A write through `obj` invalidates facts held through
                    // any other reference to the same field array.
                    facts.retain(|&(o, t, fi), _| !(t == *obj_ty && fi == *field && o != *obj));
                    facts.insert((*obj, *obj_ty, *field), *value);
                }
                InstKind::FieldRead { obj, obj_ty, field } => {
                    if let Some(&v) = facts.get(&(*obj, *obj_ty, *field)) {
                        out.insert(i, v);
                    }
                }
                InstKind::DeleteObj { .. } => facts.clear(),
                InstKind::Call { callee, .. } => match callee {
                    Callee::Func(t) => {
                        let s = purity.summary(*t);
                        if s.opaque {
                            facts.clear();
                        } else {
                            facts.retain(|&(_, ty, fi), _| !s.writes_fields.contains(&(ty, fi)));
                        }
                    }
                    Callee::Extern(e) => {
                        if m.externs[*e].effects.opaque {
                            facts.clear();
                        }
                    }
                },
                _ => {}
            }
        }
    }
    out
}

fn block_of(f: &Function, inst: memoir_ir::InstId) -> Option<memoir_ir::BlockId> {
    f.blocks
        .iter()
        .find(|(_, b)| b.insts.contains(&inst))
        .map(|(id, _)| id)
}

/// Walks a collection def-use chain backwards looking for the value stored
/// at `idx` (Listing 1). Keys must be statically comparable constants for
/// the walk to step over an intervening write.
fn forward_read(f: &Function, c: ValueId, idx: ValueId, fuel: usize) -> Option<ValueId> {
    if fuel == 0 {
        return None;
    }
    let key = f.value_const(idx);
    let ValueDef::Inst(iid, _) = f.values[c].def else {
        return None;
    };
    match &f.insts[iid].kind {
        InstKind::Write {
            c: prev,
            idx: wkey,
            value,
        } => {
            if idx == *wkey {
                return Some(*value); // same SSA key value ⇒ must match
            }
            match (key, f.value_const(*wkey)) {
                (Some(a), Some(b)) if a != b => forward_read(f, *prev, idx, fuel - 1),
                _ => None,
            }
        }
        InstKind::Insert {
            c: prev,
            idx: wkey,
            value,
        } => {
            if idx == *wkey {
                return *value;
            }
            match (key, f.value_const(*wkey)) {
                (Some(a), Some(b)) if a != b => {
                    // For sequences an insert shifts indices; only walk
                    // through when the read index is strictly below the
                    // insertion point.
                    match (a.as_int(), b.as_int(), a.ty() == Type::Index) {
                        (Some(ka), Some(kb), true) if ka < kb => {
                            forward_read(f, *prev, idx, fuel - 1)
                        }
                        (_, _, false) => forward_read(f, *prev, idx, fuel - 1),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        InstKind::UsePhi { c: prev } | InstKind::Copy { c: prev } => {
            forward_read(f, *prev, idx, fuel - 1)
        }
        _ => None,
    }
}

/// Folds `size` through the collection chain when it is statically known.
/// Associative writes may grow the index space (writing an absent key
/// inserts it, §IV-B), so the walk only steps over sequence operations.
fn fold_size(types: &memoir_ir::TypeTable, f: &Function, c: ValueId, fuel: usize) -> Option<u64> {
    if fuel == 0 {
        return None;
    }
    let is_seq = |v: ValueId| matches!(types.get(f.value_ty(v)), Type::Seq(_));
    let ValueDef::Inst(iid, _) = f.values[c].def else {
        return None;
    };
    match &f.insts[iid].kind {
        InstKind::NewSeq { len, .. } => f
            .value_const(*len)
            .and_then(Constant::as_int)
            .map(|v| v as u64),
        InstKind::NewAssoc { .. } => Some(0),
        InstKind::Write { c: prev, .. } | InstKind::Swap { c: prev, .. } => {
            if is_seq(*prev) {
                fold_size(types, f, *prev, fuel - 1)
            } else {
                None
            }
        }
        InstKind::Insert { c: prev, .. } => {
            if is_seq(*prev) {
                fold_size(types, f, *prev, fuel - 1).map(|n| n + 1)
            } else {
                None
            }
        }
        InstKind::Remove { c: prev, .. } => {
            if is_seq(*prev) {
                fold_size(types, f, *prev, fuel - 1).map(|n| n.saturating_sub(1))
            } else {
                None
            }
        }
        InstKind::Copy { c: prev } | InstKind::UsePhi { c: prev } => {
            fold_size(types, f, *prev, fuel - 1)
        }
        _ => None,
    }
}

fn fold_bin(op: BinOp, a: Constant, b: Constant) -> Option<Constant> {
    match (a, b) {
        (Constant::Int(ty, x), Constant::Int(_, y)) => {
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_rem(y)
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32),
                BinOp::Shr => x.wrapping_shr(y as u32),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            };
            Some(Constant::Int(ty, v))
        }
        (Constant::Bool(x), Constant::Bool(y)) => {
            let v = match op {
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                _ => return None,
            };
            Some(Constant::Bool(v))
        }
        (Constant::Float(ty, xb), Constant::Float(_, yb)) => {
            let (x, y) = (f64::from_bits(xb), f64::from_bits(yb));
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => return None,
            };
            Some(Constant::Float(ty, v.to_bits()))
        }
        _ => None,
    }
}

fn fold_cmp(op: CmpOp, a: Constant, b: Constant) -> Option<bool> {
    match (a, b) {
        (Constant::Int(ty, x), Constant::Int(_, y)) => {
            let ord = if matches!(
                ty,
                Type::U64 | Type::U32 | Type::U16 | Type::U8 | Type::Index
            ) {
                (x as u64).cmp(&(y as u64))
            } else {
                x.cmp(&y)
            };
            Some(apply_ord(op, ord))
        }
        (Constant::Bool(x), Constant::Bool(y)) => Some(apply_ord(op, x.cmp(&y))),
        (Constant::Float(_, xb), Constant::Float(_, yb)) => {
            let (x, y) = (f64::from_bits(xb), f64::from_bits(yb));
            Some(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        _ => None,
    }
}

fn apply_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

fn fold_cast(to: Type, c: Constant) -> Option<Constant> {
    match c {
        Constant::Int(_, v) if to.is_integer() => Some(Constant::Int(to, truncate(to, v))),
        Constant::Int(_, v) if to.is_float() => Some(Constant::Float(to, (v as f64).to_bits())),
        Constant::Bool(b) if to.is_integer() => Some(Constant::Int(to, b as i64)),
        Constant::Float(_, bits) if to.is_integer() => {
            Some(Constant::Int(to, truncate(to, f64::from_bits(bits) as i64)))
        }
        Constant::Float(_, bits) if to.is_float() => Some(Constant::Float(to, bits)),
        _ => None,
    }
}

fn truncate(t: Type, v: i64) -> i64 {
    match t {
        Type::I8 => v as i8 as i64,
        Type::U8 => v as u8 as i64,
        Type::I16 => v as i16 as i64,
        Type::U16 => v as u16 as i64,
        Type::I32 => v as i32 as i64,
        Type::U32 => v as u32 as i64,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder};

    /// Listing 1: `map[0] = 10; map[1] = 11; return map[0];` folds to 10
    /// in MEMOIR SSA form.
    #[test]
    fn listing1_map_constant_propagates() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("work", Form::Ssa, |b| {
            let i32t = b.ty(Type::I32);
            let a0 = b.new_assoc(i32t, i32t);
            let k0 = b.i32(0);
            let k1 = b.i32(1);
            let v10 = b.i32(10);
            let v11 = b.i32(11);
            let a1 = b.write(a0, k0, v10);
            let a2 = b.write(a1, k1, v11);
            let r = b.read(a2, k0);
            b.returns(&[i32t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 1);
        // The ret now returns the constant 10 directly.
        let f = &m.funcs[m.func_by_name("work").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::i32(10)));
    }

    #[test]
    fn ambiguous_key_blocks_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("work", Form::Ssa, |b| {
            let i32t = b.ty(Type::I32);
            let k_unknown = b.param("k", i32t);
            let a0 = b.new_assoc(i32t, i32t);
            let k0 = b.i32(0);
            let v10 = b.i32(10);
            let v11 = b.i32(11);
            let a1 = b.write(a0, k0, v10);
            let a2 = b.write(a1, k_unknown, v11); // may alias key 0
            let r = b.read(a2, k0);
            b.returns(&[i32t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    #[test]
    fn scalar_folding_chains() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let a = b.i64(6);
            let c = b.i64(7);
            let x = b.mul(a, c);
            let y = b.add(x, x);
            b.returns(&[b.func.value_ty(y)]);
            b.ret(vec![y]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert!(stats.scalars_folded >= 2);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::i64(84)));
    }

    #[test]
    fn size_folds_through_chain() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(3);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            let s1 = b.insert(s0, zero, Some(v));
            let s2 = b.write(s1, zero, v);
            let sz = b.size(s2);
            let idxt = b.ty(Type::Index);
            b.returns(&[idxt]);
            b.ret(vec![sz]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.sizes_folded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::index(4)));
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            let yes = b.block("yes");
            let no = b.block("no");
            let cond = b.bool(true);
            b.branch(cond, yes, no);
            b.switch_to(yes);
            let one = b.i64(1);
            b.returns(&[t]);
            b.ret(vec![one]);
            b.switch_to(no);
            let two = b.i64(2);
            b.ret(vec![two]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.branches_folded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert!(f
            .inst_ids_in_order()
            .iter()
            .any(|(_, i)| matches!(f.insts[*i].kind, InstKind::Jump { .. })));
    }

    /// A φ with a single incoming forwards to that value. The removal is
    /// a mutation like any fold, so it must show in the stats: the
    /// registered pass derives its changed-bit (and with it analysis
    /// invalidation and fixpoint convergence) from them.
    #[test]
    fn single_incoming_phi_forward_reports_a_change() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            let x = b.param("x", t);
            let entry = b.current_block();
            let next = b.block("next");
            b.jump(next);
            b.switch_to(next);
            let p = b.phi(t, vec![(entry, x)]);
            b.returns(&[t]);
            b.ret(vec![p]);
        });
        let mut m = mb.finish();
        let mut pass = crate::passes::create("constprop").unwrap();
        let out = pass
            .run(&mut m, &mut passman::AnalysisManager::new())
            .unwrap();
        assert!(out.changed, "forwarding the φ removed an instruction");
        assert_eq!(
            out.stats
                .iter()
                .find(|(k, _)| *k == "values_forwarded")
                .map(|&(_, v)| v),
            Some(1)
        );
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert!(!f
            .inst_ids_in_order()
            .iter()
            .any(|(_, i)| f.insts[*i].kind.is_phi()));
    }

    /// Field-array load-store forwarding (the Extended-Array-SSA
    /// propagation of §VII-D's ConstantFold discussion).
    #[test]
    fn field_write_forwards_to_read() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let v = b.i64(5);
            b.field_write(o, obj, 0, v);
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                assert_eq!(f.value_const(values[0]), Some(Constant::i64(5)));
            }
        }
    }

    /// A write through a possibly-aliasing second reference kills the
    /// forwarding fact.
    #[test]
    fn aliasing_reference_blocks_field_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        let ref_ty = mb.module.types.ref_of(obj);
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let p = b.param("p", ref_ty); // may alias o? (it cannot here,
                                          // but the analysis is per-value)
            let v5 = b.i64(5);
            let v9 = b.i64(9);
            b.field_write(o, obj, 0, v5);
            b.field_write(p, obj, 0, v9); // kills o's fact
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    /// An opaque extern call between write and read kills the fact.
    #[test]
    fn opaque_call_blocks_field_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "io".into(),
            params: vec![],
            ret_tys: vec![],
            effects: memoir_ir::ExternEffects::unknown(),
        });
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let v = b.i64(5);
            b.field_write(o, obj, 0, v);
            b.call(memoir_ir::Callee::Extern(ext), vec![], &[]);
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    /// In mut form a collection's def-use chain stops at its allocation,
    /// so size/read folding through the chain would ignore interleaved
    /// MUT ops — it must stay off until SSA construction.
    #[test]
    fn mut_form_blocks_collection_chain_folding() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let zero = b.index(0);
            let s = b.new_seq(i64t, zero);
            let v = b.i64(7);
            let sz0 = b.size(s);
            b.mut_insert(s, sz0, Some(v));
            let sz = b.size(s); // 1 at runtime; the chain says 0
            let r = b.read(s, zero); // 7 at runtime; the chain sees no write
            let szi = b.cast(Type::I64, sz);
            let out = b.add(szi, r);
            b.returns(&[i64t]);
            b.ret(vec![out]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.sizes_folded, 0, "mut-form size must not fold");
        assert_eq!(
            stats.element_reads_forwarded, 0,
            "mut-form read must not forward"
        );
    }

    #[test]
    fn same_operand_compare_folds() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            let x = b.param("x", t);
            let e = b.cmp(CmpOp::Le, x, x);
            let boolt = b.ty(Type::Bool);
            b.returns(&[boolt]);
            b.ret(vec![e]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.scalars_folded, 1);
    }
}
