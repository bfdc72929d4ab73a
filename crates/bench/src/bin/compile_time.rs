//! Compile-time profile: serial vs sharded pass execution over the
//! Table III subjects plus a lowered low-level-IR subject.
//!
//! Emits `BENCH_compile_time.json`: per subject × mode, the per-pass
//! wall-clock times, the total, and the copy-on-write snapshot-engine
//! counters. The two modes are `serial` (1 thread) and `threads4`
//! (4 workers). Both run under the `SkipPass` policy so snapshots are
//! actually taken.
//!
//! Also emits `BENCH_incremental.json`: warm-cache recompiles through a
//! shared [`passman::CompileCache`]. Each subject compiles the synthetic
//! whole-program module cold (populating the cache), edits 0%, 10%, or
//! 50% of its functions, and recompiles warm — reporting the cache
//! hit/skip/miss counters, the reuse rate, and the speedup vs the cold
//! compile. The 0% subject is the incremental-recompilation contract:
//! byte-identical output with ≥ 90% of per-function work reused.
//!
//! The synthetic memoir→lir subject runs at 120 and at 240 functions,
//! and the report's `scaling` section compares their serial compile time
//! per input instruction (the minimum of three repetitions each): a
//! module twice as large must compile in at most 2.3× the time.
//!
//! ```text
//! compile_time [--out FILE] [--inc-out FILE] [--check]
//! ```
//!
//! `--check` asserts the invariants CI smokes: non-zero pass timings,
//! byte-identical IR between serial and sharded runs, fewer units
//! cloned than whole-module snapshots would have (captures × the input
//! module's instruction count) on the lir and lowered subjects, where
//! every lir pass is function-sharded, and — for the incremental
//! section — ≥ 90% cache reuse and byte-identical output on the
//! unchanged-module recompile; and that the 240-function subject's
//! time per instruction is at most [`SCALING_BOUND`] times the
//! 120-function subject's.

use bench::report::{json_escape, write_report, BenchArgs};
use bench::{compilation_subjects, o3_all};
use memoir_opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline};
use memoir_opt::pipeline::{compile_spec_with, default_spec};
use passman::{FaultPolicy, PassOptions, SnapshotStats};

/// The largest allowed ratio of per-instruction compile time between the
/// 240- and 120-function synthetic subjects: twice the module in at most
/// 2.3× the time.
const SCALING_BOUND: f64 = 1.15;

/// Function counts of the two synthetic memoir→lir scaling subjects.
const SCALING_FUNCS: [usize; 2] = [120, 240];

struct ModeResult {
    mode: &'static str,
    threads: usize,
    total_ms: f64,
    passes: Vec<(String, f64)>,
    snapshots: SnapshotStats,
    /// Printed final IR, for the determinism check (not serialized).
    ir: String,
}

fn run_memoir(m: &memoir_ir::Module, mode: &'static str, threads: usize) -> ModeResult {
    let mut m = m.clone();
    let report = compile_spec_with(&mut m, &default_spec(o3_all()), |pm| {
        pm.on_fault(FaultPolicy::SkipPass).with_threads(threads)
    })
    .expect("pipeline runs clean");
    let run = report.run;
    ModeResult {
        mode,
        threads,
        total_ms: run.total_ms(),
        passes: run
            .passes
            .iter()
            .map(|p| (p.name.clone(), p.time.as_secs_f64() * 1e3))
            .collect(),
        snapshots: run.snapshots,
        ir: memoir_ir::printer::print_module(&m),
    }
}

fn run_lir(m: &lir::Module, mode: &'static str, threads: usize) -> ModeResult {
    let mut m = m.clone();
    let run = lir::passes::pass_manager()
        .on_fault(FaultPolicy::SkipPass)
        .with_threads(threads)
        .run(&mut m, &lir::passes::default_spec())
        .expect("pipeline runs clean");
    ModeResult {
        mode,
        threads,
        total_ms: run.total_ms(),
        passes: run
            .passes
            .iter()
            .map(|p| (p.name.clone(), p.time.as_secs_f64() * 1e3))
            .collect(),
        snapshots: run.snapshots,
        ir: format!("{m:?}"),
    }
}

/// The end-to-end lowered pipeline: MEMOIR passes → the verified `lower`
/// stage → the default lir pipeline, profiled as one run (the stage shows
/// up as the `lower` row in `passes`).
fn run_lowered(m: &memoir_ir::Module, mode: &'static str, threads: usize) -> ModeResult {
    let mut m = m.clone();
    let pipeline = LoweredPipeline {
        memoir: default_spec(o3_all()),
        lower_opts: PassOptions::none(),
        lir: lir::passes::default_spec(),
    };
    let cfg = LowerConfig {
        policy: FaultPolicy::SkipPass,
        threads,
        ..LowerConfig::default()
    };
    let out = compile_lowered_with(&mut m, &pipeline, &cfg).expect("pipeline runs clean");
    let lowered = out.lowered.expect("pipeline lowers");
    let run = out.report.run;
    ModeResult {
        mode,
        threads,
        total_ms: run.total_ms(),
        passes: run
            .passes
            .iter()
            .map(|p| (p.name.clone(), p.time.as_secs_f64() * 1e3))
            .collect(),
        snapshots: run.snapshots,
        ir: format!("{lowered:?}"),
    }
}

/// One warm-cache recompile subject: edit `edited_funcs` functions,
/// recompile through the cache the cold run populated.
struct IncrementalResult {
    edited_pct: u32,
    edited_funcs: usize,
    funcs: usize,
    cold_ms: f64,
    warm_ms: f64,
    cache: passman::CompileCacheStats,
    identical: bool,
}

/// Compiles `m` through the full lowered pipeline with `cache`
/// installed, returning wall-clock ms, this run's cache counters, and
/// the printed lowered output.
fn compile_cached(
    m: &memoir_ir::Module,
    cache: &passman::CompileCache,
) -> (f64, passman::CompileCacheStats, String) {
    let mut m = m.clone();
    let pipeline = LoweredPipeline {
        memoir: default_spec(o3_all()),
        lower_opts: PassOptions::none(),
        lir: lir::passes::default_spec(),
    };
    let cfg = LowerConfig {
        threads: 1,
        cross_check: false,
        cache: Some(cache.clone()),
        ..LowerConfig::default()
    };
    let t0 = std::time::Instant::now();
    let out = compile_lowered_with(&mut m, &pipeline, &cfg).expect("pipeline runs clean");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let lowered = out.lowered.expect("pipeline lowers");
    (ms, out.report.run.compile_cache, format!("{lowered:?}"))
}

/// Edits the first `count` functions in place — bumping an `i64`
/// constant where one exists, renaming otherwise — so their fingerprints
/// (and their callers') change while the rest of the module stays
/// cache-hot.
fn edit_functions(m: &mut memoir_ir::Module, count: usize) -> usize {
    use memoir_ir::{Constant, Type, ValueDef};
    let ids: Vec<_> = m.funcs.ids().collect();
    let mut edited = 0;
    for &fid in &ids {
        if edited == count {
            break;
        }
        let f = &mut m.funcs[fid];
        let const_val = f.values.ids().find(|&v| {
            matches!(
                f.values[v].def,
                ValueDef::Const(Constant::Int(Type::I64, _))
            )
        });
        match const_val {
            Some(v) => {
                let ValueDef::Const(Constant::Int(t, k)) = f.values[v].def else {
                    unreachable!()
                };
                f.values[v].def = ValueDef::Const(Constant::Int(t, k.wrapping_add(1)));
            }
            None => f.name.push_str("_edited"),
        }
        edited += 1;
    }
    edited
}

/// Cold-compiles the subject into a fresh cache, edits `pct`% of its
/// functions, and recompiles warm through the same cache.
fn run_incremental(base: &memoir_ir::Module, pct: u32) -> IncrementalResult {
    let funcs = base.funcs.ids().count();
    let cache = passman::CompileCache::new();
    let (cold_ms, _, cold_ir) = compile_cached(base, &cache);
    let mut edited_m = base.clone();
    let edited_funcs = edit_functions(&mut edited_m, funcs * pct as usize / 100);
    let (warm_ms, warm_cache, warm_ir) = compile_cached(&edited_m, &cache);
    IncrementalResult {
        edited_pct: pct,
        edited_funcs,
        funcs,
        cold_ms,
        warm_ms,
        cache: warm_cache,
        identical: cold_ir == warm_ir,
    }
}

fn incremental_json(r: &IncrementalResult) -> String {
    let c = r.cache;
    format!(
        "    {{\"edited_pct\": {}, \"edited_funcs\": {}, \"funcs\": {},          \"cold_ms\": {:.6}, \"warm_ms\": {:.6}, \"speedup\": {:.6},          \"cache\": {{\"hits\": {}, \"skips\": {}, \"misses\": {},          \"lookups\": {}, \"reuse_rate\": {:.6}}}, \"identical_output\": {}}}",
        r.edited_pct,
        r.edited_funcs,
        r.funcs,
        r.cold_ms,
        r.warm_ms,
        if r.warm_ms > 0.0 {
            r.cold_ms / r.warm_ms
        } else {
            0.0
        },
        c.hits,
        c.skips,
        c.misses,
        c.lookups(),
        c.reuse_rate(),
        r.identical,
    )
}

fn mode_json(r: &ModeResult) -> String {
    let passes: Vec<String> = r
        .passes
        .iter()
        .map(|(n, ms)| format!("{{\"name\": \"{}\", \"ms\": {:.6}}}", json_escape(n), ms))
        .collect();
    let s = r.snapshots;
    format!(
        "{{\"mode\": \"{}\", \"threads\": {}, \
         \"total_ms\": {:.6}, \"passes\": [{}], \"snapshots\": {{\
         \"captures\": {}, \"full_clones\": {}, \"funcs_cloned\": {}, \
         \"funcs_reused\": {}, \"units_cloned\": {}, \"restores\": {}}}}}",
        r.mode,
        r.threads,
        r.total_ms,
        passes.join(", "),
        s.captures,
        s.full_clones,
        s.funcs_cloned,
        s.funcs_reused,
        s.units_cloned,
        s.restores,
    )
}

fn main() {
    let args = BenchArgs::parse("BENCH_compile_time.json", &["inc-out"]);
    let out_path = args.out.clone();
    let inc_path = args
        .opt("inc-out")
        .unwrap_or("BENCH_incremental.json")
        .to_string();
    let check = args.check;

    // Per subject: name, IR, input-module instruction count, modes.
    let mut subjects: Vec<(String, &'static str, usize, Vec<ModeResult>)> = Vec::new();
    for (name, m) in compilation_subjects() {
        subjects.push((
            name.to_string(),
            "memoir",
            m.inst_count(),
            vec![run_memoir(&m, "serial", 1), run_memoir(&m, "threads4", 4)],
        ));
    }
    // One low-level-IR subject, where every pass is function-sharded: the
    // whole-program-sized synthetic module.
    let synth = memoir_lower::lower_module(&workloads::synth_ir::build_synth_ir(120, 2024))
        .expect("lowerable");
    subjects.push((
        "synthetic (lir)".to_string(),
        "lir",
        synth.inst_count(),
        vec![run_lir(&synth, "serial", 1), run_lir(&synth, "threads4", 4)],
    ));
    // The full MEMOIR → lower → lir pipeline as one profiled run: the
    // verified lowering stage appears as the `lower` row. Two sizes, for
    // the scaling gate.
    let scaling_mods: Vec<memoir_ir::Module> = SCALING_FUNCS
        .iter()
        .map(|&funcs| workloads::synth_ir::build_synth_ir(funcs, 2024))
        .collect();
    for (m, funcs) in scaling_mods.iter().zip(SCALING_FUNCS) {
        let name = match funcs {
            120 => "synthetic (memoir→lir)".to_string(),
            n => format!("synthetic {n} (memoir→lir)"),
        };
        subjects.push((
            name,
            "lowered",
            m.inst_count(),
            vec![run_lowered(m, "serial", 1), run_lowered(m, "threads4", 4)],
        ));
    }
    let scaling = scaling_points(&scaling_mods);
    let synth_mir = scaling_mods[0].clone();
    let scaling_ratio = scaling[1].ns_per_inst() / scaling[0].ns_per_inst();

    let subject_json: Vec<String> = subjects
        .iter()
        .map(|(name, ir, _, modes)| {
            let modes: Vec<String> = modes.iter().map(mode_json).collect();
            format!(
                "    {{\"name\": \"{}\", \"ir\": \"{}\", \"modes\": [\n      {}\n    ]}}",
                json_escape(name),
                ir,
                modes.join(",\n      ")
            )
        })
        .collect();
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|p| {
            format!(
                "{{\"funcs\": {}, \"insts\": {}, \"ms_min3\": {:.6}, \"ns_per_inst\": {:.6}}}",
                p.funcs,
                p.insts,
                p.ms,
                p.ns_per_inst()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"compile_time\",\n  \"subjects\": [\n{}\n  ],\n  \
         \"scaling\": {{\"subject\": \"synthetic (memoir→lir)\", \"mode\": \"serial\", \
         \"points\": [{}], \"ratio\": {:.6}, \"bound\": {}}}\n}}\n",
        subject_json.join(",\n"),
        scaling_json.join(", "),
        scaling_ratio,
        SCALING_BOUND
    );
    write_report(&out_path, &json, &format!("{} subjects", subjects.len()));

    for (name, _, _, modes) in &subjects {
        for r in modes {
            let s = r.snapshots;
            println!(
                "{name:>16}  {:>10}  {:8.3}ms  snapshots: {} captures, {} full, \
                 {}c/{}r funcs, {} units",
                r.mode,
                r.total_ms,
                s.captures,
                s.full_clones,
                s.funcs_cloned,
                s.funcs_reused,
                s.units_cloned,
            );
        }
    }

    for p in &scaling {
        println!(
            "scaling {:>3} funcs  {:>6} insts  {:8.3}ms (min of 3)  {:8.1} ns/inst",
            p.funcs,
            p.insts,
            p.ms,
            p.ns_per_inst()
        );
    }
    println!("scaling ratio {scaling_ratio:.3} (bound {SCALING_BOUND})");

    // Warm-cache/incremental subjects: cold compile populates a shared
    // compile cache; the warm recompile (0%, 10%, 50% of functions
    // edited) replays it.
    let incrementals: Vec<IncrementalResult> = [0u32, 10, 50]
        .iter()
        .map(|&pct| run_incremental(&synth_mir, pct))
        .collect();
    let inc_json = format!(
        "{{\n  \"bench\": \"incremental\",\n  \"subject\": \"synthetic (memoir→lir)\",\n  \"subjects\": [\n{}\n  ]\n}}\n",
        incrementals
            .iter()
            .map(incremental_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    write_report(
        &inc_path,
        &inc_json,
        &format!("{} subjects", incrementals.len()),
    );
    for r in &incrementals {
        println!(
            "incremental {:>3}% edited ({:>3}/{} funcs)  cold {:8.3}ms  warm {:8.3}ms               {:.1}x  cache {}h/{}s/{}m ({:.0}% reuse){}",
            r.edited_pct,
            r.edited_funcs,
            r.funcs,
            r.cold_ms,
            r.warm_ms,
            if r.warm_ms > 0.0 { r.cold_ms / r.warm_ms } else { 0.0 },
            r.cache.hits,
            r.cache.skips,
            r.cache.misses,
            r.cache.reuse_rate() * 100.0,
            if r.identical { ", identical" } else { "" },
        );
    }

    if check {
        let unchanged = &incrementals[0];
        assert!(
            unchanged.cache.lookups() > 0,
            "warm recompile made no cache lookups"
        );
        assert!(
            unchanged.cache.reuse_rate() >= 0.9,
            "unchanged-module warm recompile must reuse >= 90% of per-function              work, got {:.1}% ({:?})",
            unchanged.cache.reuse_rate() * 100.0,
            unchanged.cache
        );
        assert!(
            unchanged.identical,
            "unchanged-module warm recompile must be byte-identical to cold"
        );
        for r in &incrementals[1..] {
            assert!(
                r.cache.misses > 0,
                "{}% edit produced no cache misses",
                r.edited_pct
            );
        }
        println!(
            "check OK: unchanged warm recompile reused {:.1}% of lookups, identical output",
            unchanged.cache.reuse_rate() * 100.0
        );

        for (name, ir, input_units, modes) in &subjects {
            let serial = &modes[0];
            let threads4 = &modes[1];
            assert!(
                serial.passes.iter().map(|(_, ms)| ms).sum::<f64>() > 0.0,
                "{name}: zero pass timings"
            );
            assert_eq!(
                serial.ir, threads4.ir,
                "{name}: sharded IR diverged from serial"
            );
            assert_eq!(
                fingerprint_times(&serial.passes),
                fingerprint_times(&threads4.passes),
                "{name}: sharded pass sequence diverged from serial"
            );
            let s = serial.snapshots;
            assert!(s.captures > 0, "{name}: no snapshots taken");
            if *ir != "memoir" {
                // Whole-module snapshots would clone the module at every
                // capture; the per-function pool must undercut that.
                let whole = s.captures * input_units;
                assert!(
                    s.units_cloned < whole,
                    "{name}: CoW snapshots cloned {} units, no fewer than \
                     {whole} for whole-module clones",
                    s.units_cloned
                );
                println!(
                    "check OK: {name}: cloned {} units vs {whole} for whole-module clones",
                    s.units_cloned
                );
            }
        }

        assert!(
            scaling_ratio <= SCALING_BOUND,
            "a {}-function module compiles at {scaling_ratio:.3}x the per-instruction \
             time of a {}-function one (bound {SCALING_BOUND}): compile time is \
             superlinear in module size",
            SCALING_FUNCS[1],
            SCALING_FUNCS[0]
        );
        println!("check OK: scaling ratio {scaling_ratio:.3} <= {SCALING_BOUND}");
    }
}

/// Serial compile time of one scaling subject.
struct ScalingPoint {
    funcs: usize,
    /// Instructions in the input module.
    insts: usize,
    /// Minimum total time over three serial compiles.
    ms: f64,
}

impl ScalingPoint {
    fn ns_per_inst(&self) -> f64 {
        self.ms * 1e6 / self.insts.max(1) as f64
    }
}

/// Times three serial compiles of each module through the shipped
/// lowered pipeline configuration (the one `memoird` and the benchmark
/// harness run: no fault-policy snapshots, whose whole-module clones
/// would measure cache capacity rather than the compiler), alternating
/// between the modules so drift on a shared machine hits both alike, and
/// keeps each module's fastest — its least-disturbed measurement.
fn scaling_points(mods: &[memoir_ir::Module]) -> Vec<ScalingPoint> {
    let pipeline = LoweredPipeline {
        memoir: default_spec(o3_all()),
        lower_opts: PassOptions::none(),
        lir: lir::passes::default_spec(),
    };
    let cfg = LowerConfig {
        threads: 1,
        ..LowerConfig::default()
    };
    let mut best = vec![f64::INFINITY; mods.len()];
    for _ in 0..3 {
        for (m, b) in mods.iter().zip(&mut best) {
            let mut m = m.clone();
            let t0 = std::time::Instant::now();
            compile_lowered_with(&mut m, &pipeline, &cfg).expect("pipeline runs clean");
            *b = b.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    mods.iter()
        .zip(SCALING_FUNCS)
        .zip(best)
        .map(|((m, funcs), ms)| ScalingPoint {
            funcs,
            insts: m.inst_count(),
            ms,
        })
        .collect()
}

/// The pass-name sequence (timings themselves legitimately differ
/// between runs; the executed sequence must not).
fn fingerprint_times(passes: &[(String, f64)]) -> Vec<&str> {
    passes.iter().map(|(n, _)| n.as_str()).collect()
}
