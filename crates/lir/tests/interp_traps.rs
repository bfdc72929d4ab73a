//! `LirMachine` trap parity: one test per trap path, each pinning the
//! trap and the counters at the moment it fires, plus deep recursion.

use lir::{BinOp, Blk, CmpOp, Fun, Function, LirMachine, LirStats, LirTrap, Module, Op, Val};

fn module(fs: Vec<Function>) -> Module {
    let mut m = Module::default();
    for f in fs {
        m.add(f);
    }
    m
}

fn rt(name: &str, args: Vec<Val>) -> Op {
    Op::CallRt {
        name: name.into(),
        args,
        has_result: true,
    }
}

fn stats(insts: u64, loads: u64, stores: u64, rt_calls: u64) -> LirStats {
    LirStats {
        insts,
        loads,
        stores,
        rt_calls,
    }
}

/// Runs `m`'s first function, returning the outcome and the counters.
fn run(m: &Module, args: Vec<i64>) -> (Result<Vec<i64>, LirTrap>, LirStats) {
    let mut vm = LirMachine::new(m);
    let out = vm.run(Fun(0), args);
    (out, vm.stats)
}

/// Sets the incomings of the `k`-th φ (in arena order) of `f`.
fn patch_phi(f: &mut Function, k: usize, incs: Vec<(Blk, Val)>) {
    let inst = f
        .insts
        .iter_mut()
        .filter(|i| matches!(i.op, Op::Phi(_)))
        .nth(k)
        .expect("φ exists");
    inst.op = Op::Phi(incs);
}

#[test]
fn division_by_zero_traps() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let zero = f.push1(e, Op::Const(0));
    let q = f.push1(e, Op::Bin(BinOp::Div, f.param(0), zero));
    f.push0(e, Op::Ret(vec![q]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![7]),
        (Err(LirTrap::DivByZero), stats(2, 0, 0, 0))
    );
}

#[test]
fn rem_by_zero_traps() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let zero = f.push1(e, Op::Const(0));
    let q = f.push1(e, Op::Bin(BinOp::Rem, f.param(0), zero));
    f.push0(e, Op::Ret(vec![q]));
    let m = module(vec![f]);
    assert_eq!(run(&m, vec![7]).0, Err(LirTrap::DivByZero));
}

#[test]
fn load_below_the_null_guard_traps_and_counts_the_load() {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let a = f.push1(e, Op::Const(3));
    let v = f.push1(e, Op::Load(a));
    f.push0(e, Op::Ret(vec![v]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::BadAddress(3)), stats(2, 1, 0, 0))
    );
}

#[test]
fn store_past_the_end_of_memory_traps() {
    let mut f = Function::new("f", 0, 0);
    let e = f.entry;
    let a = f.push1(e, Op::Const(1 << 40));
    f.push0(e, Op::Store { addr: a, value: a });
    f.push0(e, Op::Ret(vec![]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::BadAddress(1 << 40)), stats(2, 0, 1, 0))
    );
}

fn read_missing_key(new: Op) -> Module {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let h = f.push1(e, new);
    let k = f.push1(e, Op::Const(1));
    let v = f.push1(e, rt("rt_assoc_read", vec![h, k]));
    f.push0(e, Op::Ret(vec![v]));
    module(vec![f])
}

#[test]
fn missing_key_on_a_host_handle_traps() {
    let m = read_missing_key(rt("rt_assoc_new", vec![]));
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::MissingKey), stats(3, 0, 0, 2))
    );
}

#[test]
fn missing_key_on_a_dense_handle_traps() {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let cap = f.push1(e, Op::Const(4));
    let h = f.push1(e, rt("rt_dense_new", vec![cap]));
    let k = f.push1(e, Op::Const(1));
    let v = f.push1(e, rt("rt_assoc_read", vec![h, k]));
    f.push0(e, Op::Ret(vec![v]));
    let m = module(vec![f]);
    // `rt_dense_new` stores cap and size; the read loads cap and the
    // key's present flag.
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::MissingKey), stats(4, 2, 2, 2))
    );
}

#[test]
fn fuel_runs_out_at_exactly_the_budget() {
    let mut f = Function::new("f", 0, 0);
    let e = f.entry;
    let spin = f.add_block();
    f.push0(e, Op::Jmp(spin));
    f.push0(spin, Op::Jmp(spin));
    let m = module(vec![f]);
    let mut vm = LirMachine::new(&m).with_fuel(1000);
    assert_eq!(vm.run(Fun(0), vec![]), Err(LirTrap::OutOfFuel));
    assert_eq!(vm.stats.insts, 1000);
}

#[test]
fn fuel_is_shared_across_calls() {
    // `f` calls `g` (one instruction) in a loop: the callee's
    // instructions draw on the same budget.
    let mut g = Function::new("g", 0, 0);
    let ge = g.entry;
    g.push0(ge, Op::Ret(vec![]));
    let mut f = Function::new("f", 0, 0);
    let e = f.entry;
    let spin = f.add_block();
    f.push0(e, Op::Jmp(spin));
    f.push(
        spin,
        Op::Call {
            func: Fun(1),
            args: vec![],
        },
        0,
    );
    f.push0(spin, Op::Jmp(spin));
    let m = module(vec![f, g]);
    let mut vm = LirMachine::new(&m).with_fuel(1001);
    assert_eq!(vm.run(Fun(0), vec![]), Err(LirTrap::OutOfFuel));
    assert_eq!(vm.stats.insts, 1001);
}

#[test]
fn an_unknown_routine_traps_only_when_it_executes() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let call = f.add_block();
    let skip = f.add_block();
    f.push0(
        e,
        Op::Br {
            cond: f.param(0),
            then_b: call,
            else_b: skip,
        },
    );
    let v = f.push1(call, rt("rt_no_such_routine", vec![f.param(0)]));
    f.push0(call, Op::Ret(vec![v]));
    let zero = f.push1(skip, Op::Const(0));
    f.push0(skip, Op::Ret(vec![zero]));
    let m = module(vec![f]);
    assert_eq!(run(&m, vec![0]), (Ok(vec![0]), stats(3, 0, 0, 0)));
    assert_eq!(
        run(&m, vec![1]),
        (
            Err(LirTrap::UnknownRt("rt_no_such_routine".into())),
            stats(2, 0, 0, 1)
        )
    );
}

#[test]
fn an_unknown_assoc_routine_on_a_dense_handle_reads_its_capacity_first() {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let cap = f.push1(e, Op::Const(2));
    let h = f.push1(e, rt("rt_dense_new", vec![cap]));
    let v = f.push1(e, rt("rt_assoc_frobnicate", vec![h]));
    f.push0(e, Op::Ret(vec![v]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![]),
        (
            Err(LirTrap::UnknownRt("rt_assoc_frobnicate".into())),
            stats(3, 1, 2, 2)
        )
    );
}

#[test]
fn phi_in_the_entry_block_is_malformed() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let p = f.push1(e, Op::Phi(vec![(e, Val(0))]));
    f.push0(e, Op::Ret(vec![p]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![1]),
        (Err(LirTrap::Malformed("phi in entry")), stats(0, 0, 0, 0))
    );
}

#[test]
fn phi_in_a_callee_entry_block_is_malformed() {
    let mut g = Function::new("g", 0, 1);
    let ge = g.entry;
    let p = g.push1(ge, Op::Phi(vec![]));
    g.push0(ge, Op::Ret(vec![p]));
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let r = f.push1(
        e,
        Op::Call {
            func: Fun(1),
            args: vec![],
        },
    );
    f.push0(e, Op::Ret(vec![r]));
    let m = module(vec![f, g]);
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::Malformed("phi in entry")), stats(1, 0, 0, 0))
    );
}

#[test]
fn phi_without_an_incoming_for_the_taken_edge_is_malformed() {
    // The second φ lacks the edge: the first one still counts.
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let b = f.add_block();
    f.push0(e, Op::Jmp(b));
    let p = f.push1(b, Op::Phi(vec![]));
    f.push1(b, Op::Phi(vec![]));
    f.push0(b, Op::Ret(vec![p]));
    patch_phi(&mut f, 0, vec![(e, Val(0))]);
    patch_phi(&mut f, 1, vec![(Blk(7), Val(0))]);
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![1]),
        (
            Err(LirTrap::Malformed("phi missing incoming")),
            stats(2, 0, 0, 0)
        )
    );
}

#[test]
fn phi_reading_an_unbound_value_is_malformed() {
    // The φ's operand is defined on the other path only.
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let other = f.add_block();
    let join = f.add_block();
    f.push0(e, Op::Jmp(join));
    let x = f.push1(other, Op::Const(5));
    f.push0(other, Op::Jmp(join));
    let p = f.push1(join, Op::Phi(vec![(other, x), (e, x)]));
    f.push0(join, Op::Ret(vec![p]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![1]),
        (
            Err(LirTrap::Malformed("unbound phi operand")),
            stats(1, 0, 0, 0)
        )
    );
}

#[test]
fn reading_an_unbound_value_is_malformed() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let dead = f.add_block();
    let live = f.add_block();
    f.push0(e, Op::Jmp(live));
    let x = f.push1(dead, Op::Const(5));
    f.push0(dead, Op::Jmp(live));
    let y = f.push1(live, Op::Bin(BinOp::Add, f.param(0), x));
    f.push0(live, Op::Ret(vec![y]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![1]),
        (Err(LirTrap::Malformed("unbound value")), stats(2, 0, 0, 0))
    );
}

#[test]
fn a_missing_argument_is_an_unbound_value() {
    let mut f = Function::new("f", 2, 1);
    let e = f.entry;
    let y = f.push1(e, Op::Bin(BinOp::Add, f.param(0), f.param(1)));
    f.push0(e, Op::Ret(vec![y]));
    let m = module(vec![f]);
    assert_eq!(run(&m, vec![1]).0, Err(LirTrap::Malformed("unbound value")));
}

#[test]
fn an_unbound_runtime_argument_still_counts_the_call() {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    let v = f.push1(e, rt("rt_seq_new", vec![Val(40)]));
    f.push0(e, Op::Ret(vec![v]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::Malformed("unbound value")), stats(1, 0, 0, 1))
    );
}

#[test]
fn phi_after_a_non_phi_is_malformed() {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let b = f.add_block();
    f.push0(e, Op::Jmp(b));
    f.push1(b, Op::Const(1));
    let p = f.push1(b, Op::Phi(vec![(e, Val(0))]));
    f.push0(b, Op::Ret(vec![p]));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![1]),
        (
            Err(LirTrap::Malformed("phi after non-phi")),
            stats(3, 0, 0, 0)
        )
    );
}

#[test]
fn falling_off_a_block_is_malformed() {
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    f.push1(e, Op::Const(1));
    let m = module(vec![f]);
    assert_eq!(
        run(&m, vec![]),
        (Err(LirTrap::Malformed("fell off block")), stats(1, 0, 0, 0))
    );
}

#[test]
fn falling_off_a_block_is_malformed_even_without_fuel() {
    // Falling off is not an instruction: it draws no fuel.
    let mut f = Function::new("f", 0, 1);
    let e = f.entry;
    f.push1(e, Op::Const(1));
    let m = module(vec![f]);
    let mut vm = LirMachine::new(&m).with_fuel(1);
    assert_eq!(
        vm.run(Fun(0), vec![]),
        Err(LirTrap::Malformed("fell off block"))
    );
    assert_eq!(vm.stats.insts, 1);
}

#[test]
fn call_results_bind_up_to_the_values_returned() {
    // `g` returns two values; the call binds both, and a third result
    // stays unbound.
    let mut g = Function::new("g", 1, 2);
    let ge = g.entry;
    let one = g.push1(ge, Op::Const(1));
    let s = g.push1(ge, Op::Bin(BinOp::Add, g.param(0), one));
    g.push0(ge, Op::Ret(vec![g.param(0), s]));
    let mut f = Function::new("f", 1, 2);
    let e = f.entry;
    let rs = f.push(
        e,
        Op::Call {
            func: Fun(1),
            args: vec![f.param(0)],
        },
        3,
    );
    f.push0(e, Op::Ret(vec![rs[1], rs[0]]));
    let m = module(vec![f.clone(), g.clone()]);
    assert_eq!(run(&m, vec![4]), (Ok(vec![5, 4]), stats(5, 0, 0, 0)));

    let mut f2 = Function::new("f", 1, 1);
    let e2 = f2.entry;
    let rs = f2.push(
        e2,
        Op::Call {
            func: Fun(1),
            args: vec![f2.param(0)],
        },
        3,
    );
    f2.push0(e2, Op::Ret(vec![rs[2]]));
    let m2 = module(vec![f2, g]);
    assert_eq!(
        run(&m2, vec![4]).0,
        Err(LirTrap::Malformed("unbound value"))
    );
}

/// `rec(n) = n == 0 ? 0 : rec(n - 1) + 1`, six instructions a level.
fn countdown() -> Module {
    let mut f = Function::new("rec", 1, 1);
    let e = f.entry;
    let base = f.add_block();
    let step = f.add_block();
    let zero = f.push1(e, Op::Const(0));
    let done = f.push1(e, Op::Cmp(CmpOp::Eq, f.param(0), zero));
    f.push0(
        e,
        Op::Br {
            cond: done,
            then_b: base,
            else_b: step,
        },
    );
    f.push0(base, Op::Ret(vec![zero]));
    let one = f.push1(step, Op::Const(1));
    let n1 = f.push1(step, Op::Bin(BinOp::Sub, f.param(0), one));
    let r = f.push1(
        step,
        Op::Call {
            func: Fun(0),
            args: vec![n1],
        },
    );
    let s = f.push1(step, Op::Bin(BinOp::Add, r, one));
    f.push0(step, Op::Ret(vec![s]));
    module(vec![f])
}

#[test]
fn deep_recursion_runs_to_completion() {
    let m = countdown();
    let mut vm = LirMachine::new(&m);
    assert_eq!(vm.run_by_name("rec", vec![100_000]), Ok(vec![100_000]));
    assert_eq!(vm.stats.insts, 100_000 * 8 + 4);
}

/// `dive(n, d) = n == 0 ? 1 / d : dive(n - 1, d) + 1`.
fn dive() -> Module {
    let mut f = Function::new("dive", 2, 1);
    let e = f.entry;
    let base = f.add_block();
    let step = f.add_block();
    let zero = f.push1(e, Op::Const(0));
    let done = f.push1(e, Op::Cmp(CmpOp::Eq, f.param(0), zero));
    f.push0(
        e,
        Op::Br {
            cond: done,
            then_b: base,
            else_b: step,
        },
    );
    let one = f.push1(base, Op::Const(1));
    let q = f.push1(base, Op::Bin(BinOp::Div, one, f.param(1)));
    f.push0(base, Op::Ret(vec![q]));
    let one = f.push1(step, Op::Const(1));
    let n1 = f.push1(step, Op::Bin(BinOp::Sub, f.param(0), one));
    let r = f.push1(
        step,
        Op::Call {
            func: Fun(0),
            args: vec![n1, f.param(1)],
        },
    );
    let s = f.push1(step, Op::Bin(BinOp::Add, r, one));
    f.push0(step, Op::Ret(vec![s]));
    module(vec![f])
}

#[test]
fn a_machine_runs_again_after_a_trap_deep_in_the_stack() {
    let m = dive();
    let mut vm = LirMachine::new(&m);
    assert_eq!(vm.run_by_name("dive", vec![50, 0]), Err(LirTrap::DivByZero));
    assert_eq!(vm.run_by_name("dive", vec![20, 1]), Ok(vec![21]));
    // Six instructions a level on the way down, two more on the way up.
    assert_eq!(vm.stats.insts, (50 * 6 + 5) + (20 * 8 + 6));
}
