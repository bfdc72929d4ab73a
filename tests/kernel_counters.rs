//! The perf kernels through the shipped pipeline, executed in
//! `LirMachine`: each kernel is built through O3 (with `dee-strict` in
//! place of `dee`, so every pass preserves the program's output) in the
//! default and the `lower<adaptive>` layout, run at fixed arguments, and
//! checked against `memoir-interp` on the unoptimized module. The
//! machine's counters are pinned: a change to the interpreter must not
//! move what it counts.

use memoir::interp::{Interp, Value};
use memoir::ir::{Module, Type};
use memoir::lir::{LirMachine, LirStats};
use memoir::opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline};
use memoir::opt::pipeline::default_spec;
use memoir::opt::{OptConfig, OptLevel};
use memoir::passman::{PassOptions, PipelineSpec};

type KernelSpec = (&'static str, fn() -> Module, &'static str, &'static [i64]);

/// Arguments are small so the test stays quick in a debug build.
const KERNELS: [KernelSpec; 5] = [
    (
        "smallbank",
        memoir::workloads::smallbank_ir::build_smallbank_ir,
        "bank",
        &[300],
    ),
    (
        "docstore",
        memoir::workloads::docstore::build_docstore_ir,
        "docstore",
        &[300],
    ),
    (
        "optlike",
        memoir::workloads::optlike_ir::build_optlike_ir,
        "gvn",
        &[300],
    ),
    (
        "deepsjeng",
        memoir::workloads::deepsjeng_ir::build_deepsjeng_ir,
        "search",
        &[200],
    ),
    (
        "mcf",
        memoir::workloads::mcf_ir::build_mcf_ir,
        "master",
        &[16, 4, 8, 6],
    ),
];

/// `LirStats { insts, loads, stores, rt_calls }` per kernel, for the
/// default and the adaptive layout.
const EXPECTED: [[[u64; 4]; 2]; 5] = [
    [[27806, 0, 0, 3551], [26782, 10046, 7048, 3551]],
    [[61036, 6660, 8703, 4583], [60524, 15072, 12117, 4583]],
    [[8967, 0, 0, 556], [8968, 1365, 767, 556]],
    [[10841, 5, 400, 606], [10841, 5, 400, 606]],
    [[7316, 3386, 1543, 268], [7316, 3386, 1543, 268]],
];

fn o3_with_dee_strict() -> PipelineSpec {
    let full = default_spec(OptLevel::O3(OptConfig::all())).to_string();
    let passes: Vec<&str> = full
        .split(',')
        .map(|p| if p == "dee" { "dee-strict" } else { p })
        .collect();
    PipelineSpec::parse(&passes.join(",")).expect("O3 with dee-strict parses")
}

fn reference(m: &Module, entry: &str, args: &[i64]) -> Vec<i64> {
    let args = args.iter().map(|&a| Value::Int(Type::Index, a)).collect();
    Interp::new(m)
        .run_by_name(entry, args)
        .unwrap_or_else(|t| panic!("reference run of `{entry}` trapped: {t:?}"))
        .iter()
        .map(|v| v.as_int().expect("kernels return integers"))
        .collect()
}

#[test]
fn kernels_match_the_reference_with_pinned_counters() {
    let pipeline = LoweredPipeline {
        memoir: o3_with_dee_strict(),
        lower_opts: PassOptions::none(),
        lir: memoir::lir::passes::default_spec(),
    };
    let mut got = Vec::new();
    for (name, build, entry, args) in KERNELS {
        let module = build();
        let want = reference(&module, entry, args);
        let mut row = [[0; 4]; 2];
        for (l, adaptive) in [false, true].into_iter().enumerate() {
            let cfg = LowerConfig {
                threads: 1,
                cross_check: false,
                adaptive,
                ..LowerConfig::default()
            };
            let mut m = module.clone();
            let lowered = compile_lowered_with(&mut m, &pipeline, &cfg)
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
                .lowered
                .expect("the pipeline lowers");
            let mut vm = LirMachine::new(&lowered);
            let out = vm
                .run_by_name(entry, args.to_vec())
                .unwrap_or_else(|t| panic!("{name} (adaptive={adaptive}) trapped: {t}"));
            assert_eq!(out, want, "{name} (adaptive={adaptive})");
            let LirStats {
                insts,
                loads,
                stores,
                rt_calls,
            } = vm.stats;
            row[l] = [insts, loads, stores, rt_calls];
        }
        got.push(row);
    }
    assert_eq!(got, EXPECTED, "LirStats moved: {got:?}");
}
