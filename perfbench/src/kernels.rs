//! The run-kernels activity: each kernel built from a fresh module with
//! cross-validation on, once with the default lowering and once with
//! `lower<adaptive>`, then both builds executed in `LirMachine`.

use crate::compile::{self, TraceTotals};
use crate::inputs::{Kernel, FUEL};
use crate::report::{Metrics, Tally};
use crate::stats::{fast, geomean, kendall_tau};
use crate::trace::Tracer;
use lir::LirMachine;
use memoir_interp::{Interp, Value};
use memoir_ir::{Module, Type};
use memoir_lower::{lower_module_opts, LowerOptions};
use memoir_opt::lowering::LoweredPipeline;
use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel builds are single-module and mostly validation, which is serial.
const THREADS: usize = 1;

/// The two shipped layouts: default lowering and `lower<adaptive>`.
const LAYOUTS: [&str; 2] = ["default", "adaptive"];

/// The four configurations of the model-vs-wall reconciliation:
/// `(name, fusion in the MEMOIR pipeline, adaptive lowering)`.
const CONFIGS: [(&str, bool, bool); 4] = [
    ("baseline", false, false),
    ("fusion", true, false),
    ("adaptive", false, true),
    ("both", true, true),
];

/// Timings of every round run so far.
#[derive(Debug, Default)]
pub struct Kernels {
    /// Per kernel, per layout: build ms of every round.
    build_ms: Vec<[Vec<f64>; 2]>,
    /// Per kernel, per layout, per argument vector: run ms of every run.
    run_ms: Vec<[Vec<Vec<f64>>; 2]>,
    rounds: usize,
}

/// Runs `entry(args)` on a lowered kernel, returning its results and the
/// machine's counters.
fn run_lir(
    lm: &lir::Module,
    entry: &str,
    args: &[i64],
) -> (Result<Vec<i64>, String>, lir::LirStats) {
    let mut vm = LirMachine::new(lm).with_fuel(FUEL);
    let out = vm
        .run_by_name(entry, args.to_vec())
        .map_err(|t| format!("{t:?}"));
    (out, vm.stats)
}

fn check_result(
    tally: &mut Tally,
    req: String,
    got: &Result<Vec<i64>, String>,
    want: &Result<Vec<i64>, String>,
) {
    tally.check(got.is_ok() && got == want, req, || {
        format!("got {got:?}, the unoptimized module gives {want:?}")
    });
}

impl Kernels {
    /// One round: every kernel built in both layouts, then both builds
    /// run at every seeded argument vector, alternating which layout
    /// runs first.
    pub fn round(&mut self, kernels: &[Kernel], tally: &mut Tally) {
        let r = self.rounds;
        self.rounds += 1;
        if self.build_ms.is_empty() {
            self.build_ms = vec![Default::default(); kernels.len()];
            self.run_ms = kernels
                .iter()
                .map(|k| {
                    [
                        vec![Vec::new(); k.args.len()],
                        vec![Vec::new(); k.args.len()],
                    ]
                })
                .collect();
        }
        let pipeline = compile::lowered(compile::o3_kernels());
        for (k, kernel) in kernels.iter().enumerate() {
            let mut builds = Vec::new();
            for (l, layout) in LAYOUTS.iter().enumerate() {
                let cfg = compile::config(THREADS, None, l == 1);
                let m = kernel.module.clone();
                let t0 = Instant::now();
                let out = compile::compile(m, &pipeline, &cfg);
                self.build_ms[k][l].push(t0.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(b) => {
                        tally.ok();
                        builds.push((l, b.lowered));
                    }
                    Err(e) => tally.fail(
                        format!("run-kernels/r{r}/{}/{layout}/build", kernel.name),
                        e,
                    ),
                }
            }
            for (a, args) in kernel.args.iter().enumerate() {
                if (r + a) % 2 == 1 {
                    builds.reverse();
                }
                for (l, lm) in &builds {
                    let t0 = Instant::now();
                    let (got, _) = run_lir(lm, kernel.entry, args);
                    self.run_ms[k][*l][a].push(t0.elapsed().as_secs_f64() * 1e3);
                    let req = format!("run-kernels/r{r}/{}/{}/a{a}", kernel.name, LAYOUTS[*l]);
                    check_result(tally, req, &got, &kernel.reference[a]);
                }
            }
        }
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `build_ms_gm`, `run_ms_gm` and `run_ms_gm_adaptive`: geometric
    /// means over kernels (and layouts, for builds; argument vectors, for
    /// runs) of the [`fast`] time.
    pub fn metrics(&self, out: &mut Metrics) {
        let builds: Vec<f64> = self
            .build_ms
            .iter()
            .flat_map(|per| per.iter().map(|ms| fast(ms)))
            .collect();
        out.time("build_ms_gm", geomean(&builds), "ms");
        for (l, name) in ["run_ms_gm", "run_ms_gm_adaptive"].iter().enumerate() {
            let runs: Vec<f64> = self
                .run_ms
                .iter()
                .flat_map(|per| per[l].iter().map(|ms| fast(ms)))
                .collect();
            out.time(*name, geomean(&runs), "ms");
        }
    }
}

/// Proves each function of `lm` equivalent to its source in `m` under a
/// `symexec` root span, one `symexec.prove` child per function. Returns
/// `(proved, inconclusive, ms)`; functions outside the prover's scalar
/// signature domain are not counted.
fn prove_all(
    tr: &mut Tracer,
    req: &str,
    m: &Module,
    lm: &lir::Module,
    tally: &mut Tally,
) -> (u64, u64, f64) {
    let budget = symexec::Budget::default();
    let root = tr.open("symexec", req, None);
    let (mut proved, mut inconclusive, mut ms) = (0, 0, 0.0);
    for (_, f) in m.funcs.iter() {
        if lm.by_name(&f.name).is_none() {
            continue;
        }
        let (verdict, t) = tr.span("symexec.prove", req, Some(root), || {
            symexec::prove_lowering(m, lm, &f.name, &budget)
        });
        ms += t;
        match verdict {
            symexec::FnVerdict::Proved => proved += 1,
            symexec::FnVerdict::Inconclusive("non-scalar signature") => {}
            symexec::FnVerdict::Inconclusive(_) => inconclusive += 1,
            symexec::FnVerdict::Diverged { args, detail } => {
                tally.fail(
                    format!("{req}/{}", f.name),
                    format!("symexec diverged on {args:?}: {detail}"),
                );
            }
        }
    }
    tr.close(root);
    (proved, inconclusive, ms)
}

/// One traced pass over every kernel in all four reconciliation
/// configurations: a rebuilt, traced build checked against
/// [`compile::compile`]; the prover re-run per function on the builds
/// `build_ms_gm` measures; one `LirMachine` run and one cost-model run at
/// the first seeded argument vector, both checked against the reference.
pub fn traced_pass(
    kernels: &[Kernel],
    tr: &mut Tracer,
    totals: &mut TraceTotals,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let with = compile::lowered(compile::o3_kernels());
    let without = compile::lowered(compile::without_fusion(&compile::o3_kernels()));
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sum.entry(k).or_default() += v;
    let (mut lir_counts, mut interp_ms, mut interp_insts) = ([[0u64; 4]; 2], 0.0, 0u64);
    let mut per_config = Metrics::default();
    let mut agree = Vec::new();
    for kernel in kernels {
        let (mut cost, mut wall) = (Vec::new(), Vec::new());
        for &(config, fusion, adaptive) in &CONFIGS {
            let req = format!("run-kernels/{}/{config}", kernel.name);
            let pipeline: &LoweredPipeline = if fusion { &with } else { &without };
            let cfg = compile::config(THREADS, None, adaptive);
            let Some(t) = compile::compile_both(
                tr,
                &req,
                &kernel.module,
                pipeline,
                &cfg,
                &cfg,
                totals,
                tally,
            ) else {
                continue;
            };
            // `fusion` and `both` are the two builds `build_ms_gm` measures.
            let shipped = fusion;
            if shipped {
                let c = t.check.unwrap_or_default();
                add("memoir-lower.validate.ms", t.validate_ms);
                add("memoir-lower.functions_proved", c.functions_proved as f64);
                add("memoir-lower.functions_probed", c.functions_probed as f64);
                add("memoir-lower.functions_skipped", c.functions_skipped as f64);
                add("memoir-lower.probes_compared", c.probes_compared as f64);
                add(
                    "memoir-lower.dense_assocs",
                    t.lower_stats.dense_assocs as f64,
                );
                add("memoir-lower.inline_seqs", t.lower_stats.inline_seqs as f64);
                // Cross-validation proves the freshly lowered module,
                // before the lir passes: lower again to prove the same one.
                let opts = LowerOptions {
                    threads: THREADS,
                    cache: None,
                    adaptive,
                };
                match lower_module_opts(&t.build.optimized, &opts) {
                    Ok(run) => {
                        tally.ok();
                        let (p, i, ms) =
                            prove_all(tr, &req, &t.build.optimized, &run.module, tally);
                        add("symexec.proved", p as f64);
                        add("symexec.inconclusive", i as f64);
                        add("symexec.prove.ms", ms);
                    }
                    Err(e) => tally.fail(format!("{req}/relower"), e.to_string()),
                }
            }
            let args = &kernel.args[0];
            let ((got, stats), ms) = tr.span("lir.interp", &req, None, || {
                run_lir(&t.build.lowered, kernel.entry, args)
            });
            check_result(tally, format!("{req}/lir"), &got, &kernel.reference[0]);
            if shipped {
                let l = usize::from(adaptive);
                for (slot, v) in [stats.insts, stats.loads, stats.stores, stats.rt_calls]
                    .into_iter()
                    .enumerate()
                {
                    lir_counts[l][slot] += v;
                }
                interp_ms += ms;
                interp_insts += stats.insts;
            }
            let ((model, cycles), _) = tr.span("memoir-interp", &req, None, || {
                let mut interp = Interp::new(&t.build.optimized).with_fuel(FUEL);
                if adaptive {
                    interp =
                        interp.with_repr_choices(memoir_analysis::choose_reprs(&t.build.optimized));
                }
                let vals = interp.run_by_name(
                    kernel.entry,
                    args.iter().map(|&a| Value::Int(Type::Index, a)).collect(),
                );
                let ints = vals.map_err(|e| format!("{e:?}")).and_then(|v| {
                    v.iter()
                        .map(|x| x.as_int().ok_or(format!("non-integer {x:?}")))
                        .collect()
                });
                (ints, interp.stats.cost)
            });
            check_result(
                tally,
                format!("{req}/memoir-interp"),
                &model,
                &kernel.reference[0],
            );
            per_config.time(format!("lir.interp.ms.{}.{config}", kernel.name), ms, "ms");
            per_config.count(
                format!("memoir-interp.cost.{}.{config}", kernel.name),
                cycles,
                "cycles",
            );
            cost.push(cycles);
            wall.push(ms);
        }
        agree.push((kernel.name, kendall_tau(&cost, &wall)));
    }
    let get = |k: &str| sum.get(k).copied().unwrap_or(0.0);
    out.time(
        "memoir-lower.validate.ms",
        get("memoir-lower.validate.ms"),
        "ms",
    );
    for k in [
        "memoir-lower.functions_proved",
        "memoir-lower.functions_probed",
        "memoir-lower.functions_skipped",
        "memoir-lower.probes_compared",
        "memoir-lower.dense_assocs",
        "memoir-lower.inline_seqs",
    ] {
        out.count(k, get(k), "count");
    }
    out.time("symexec.prove.ms", get("symexec.prove.ms"), "ms");
    let (proved, inconclusive) = (get("symexec.proved"), get("symexec.inconclusive"));
    out.count("symexec.proved", proved, "count");
    out.count("symexec.inconclusive", inconclusive, "count");
    let checked = proved + inconclusive;
    out.count(
        "symexec.proved_frac",
        if checked > 0.0 { proved / checked } else { 0.0 },
        "ratio",
    );
    for (l, layout) in LAYOUTS.iter().enumerate() {
        for (slot, what) in ["insts", "loads", "stores", "rt_calls"].iter().enumerate() {
            out.count(
                format!("lir.interp.{what}.{layout}"),
                lir_counts[l][slot] as f64,
                "count",
            );
        }
    }
    out.time(
        "lir.interp.ns_per_inst",
        interp_ms * 1e6 / interp_insts.max(1) as f64,
        "ns/inst",
    );
    out.rows.extend(per_config.rows);
    for (k, tau) in agree {
        out.time(format!("reconcile.rank_agree.{k}"), tau, "tau");
    }
}
