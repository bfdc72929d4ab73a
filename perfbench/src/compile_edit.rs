//! The compile-edit activity: cold compiles of synthetic whole-program
//! modules, then warm recompiles of a 10%-edited copy through the same
//! compile cache.

use crate::compile::{self, TraceTotals};
use crate::inputs::{EditSubject, EDIT_SIZES};
use crate::report::{Metrics, Tally};
use crate::stats::{fast, median};
use crate::trace::Tracer;
use passman::CompileCache;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads for the function-sharded passes. One: on a 2-vCPU
/// machine shared with other tenants, two-thread compiles made every
/// compile-edit metric vary by 20–37% from run to run, against 3–6%
/// for the single-threaded kernel builds, and they were not faster.
const THREADS: usize = 1;

/// MEMOIR passes of the O3 pipeline, one `memoir-opt.pass.<name>.ms` row each.
const MEMOIR_PASSES: [&str; 12] = [
    "ssa-construct",
    "constprop",
    "fusion",
    "dee",
    "simplify",
    "sink",
    "dce",
    "ssa-destruct",
    "field-elision",
    "rie",
    "key-fold",
    "dfe",
];

/// Passes of the default lir pipeline, one `lir.pass.<name>.ms` row each.
const LIR_PASSES: [&str; 5] = ["mem2reg", "constfold", "gvn", "sink", "dce"];

/// Timings of every round run so far.
#[derive(Debug, Default)]
pub struct CompileEdit {
    /// Per round, per subject: cold compile ms.
    cold_ms: Vec<Vec<f64>>,
    /// Per round, per subject: warm recompile ms.
    warm_ms: Vec<Vec<f64>>,
    /// lir instructions the cold compiles emitted, per round.
    code_insts: Vec<u64>,
    /// Warm outputs kept for the reference check: (round, subject, lir).
    sampled: Vec<(usize, usize, String)>,
}

impl CompileEdit {
    /// One round: every subject compiled cold into a fresh cache, then
    /// its edited copy recompiled warm through that cache. One subject
    /// per round (rotating) keeps its warm output for [`Self::verify`].
    pub fn round(&mut self, subjects: &[EditSubject], tally: &mut Tally) {
        let r = self.cold_ms.len();
        let pipeline = compile::lowered(compile::o3());
        let (mut cold, mut warm, mut insts) = (Vec::new(), Vec::new(), 0u64);
        for (i, s) in subjects.iter().enumerate() {
            let cfg = compile::config(THREADS, Some(CompileCache::new()), false);
            let m = s.base.clone();
            let t0 = Instant::now();
            let out = compile::compile(m, &pipeline, &cfg);
            cold.push(t0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(b) => {
                    tally.ok();
                    insts += b.lowered.inst_count() as u64;
                }
                Err(e) => tally.fail(format!("compile-edit/r{r}/m{i}/cold"), e),
            }
            let m = s.edited.clone();
            let t0 = Instant::now();
            let out = compile::compile(m, &pipeline, &cfg);
            warm.push(t0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(b) => {
                    tally.ok();
                    if i == r % subjects.len() {
                        self.sampled.push((r, i, compile::print(&b.lowered)));
                    }
                }
                Err(e) => tally.fail(format!("compile-edit/r{r}/m{i}/warm"), e),
            }
        }
        if let Some(&first) = self.code_insts.first() {
            tally.check(insts == first, format!("compile-edit/r{r}/code"), || {
                format!("emitted {insts} lir instructions, round 0 emitted {first}")
            });
        }
        self.cold_ms.push(cold);
        self.warm_ms.push(warm);
        self.code_insts.push(insts);
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.cold_ms.len()
    }

    /// Checks each sampled warm recompile against a cold compile of the
    /// same edited module with no cache.
    pub fn verify(&self, subjects: &[EditSubject], tally: &mut Tally) {
        let pipeline = compile::lowered(compile::o3());
        let mut reference: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
        for (r, i, got) in &self.sampled {
            let want = reference.entry(*i).or_insert_with(|| {
                compile::compile(
                    subjects[*i].edited.clone(),
                    &pipeline,
                    &compile::config(THREADS, None, false),
                )
                .map(|b| compile::print(&b.lowered))
            });
            tally.check(
                want.as_ref() == Ok(got),
                format!("compile-edit/r{r}/m{i}/warm"),
                || match want {
                    Ok(_) => {
                        "warm recompile differs from a cold compile of the edited module".into()
                    }
                    Err(e) => format!("reference compile failed: {e}"),
                },
            );
        }
    }

    /// `compile_insts_per_s` and `recompile_insts_per_s` (instructions
    /// over the summed [`fast`] compile time of each module across
    /// rounds), `compile_scaling` (cold time per instruction of the
    /// largest size class over that of the smallest, per round, then the
    /// median over rounds) and `code_insts`.
    pub fn metrics(&self, subjects: &[EditSubject], out: &mut Metrics) {
        let insts = |edited: bool| -> Vec<f64> {
            subjects
                .iter()
                .map(|s| (if edited { &s.edited } else { &s.base }).inst_count() as f64)
                .collect()
        };
        let (base, edited) = (insts(false), insts(true));
        // Per module: the fast time of its compiles over all rounds.
        let per_module = |ms: &[Vec<f64>]| -> Vec<f64> {
            (0..subjects.len())
                .map(|i| fast(&ms.iter().map(|r| r[i]).collect::<Vec<_>>()))
                .collect()
        };
        let (cold, warm) = (per_module(&self.cold_ms), per_module(&self.warm_ms));
        let rate = |ms: &[f64], n: &[f64]| n.iter().sum::<f64>() / (ms.iter().sum::<f64>() / 1e3);
        out.time("compile_insts_per_s", rate(&cold, &base), "insts/s");
        out.time("recompile_insts_per_s", rate(&warm, &edited), "insts/s");
        // Both classes are compiled within a second of each other in a
        // round, so the machine's speed mostly cancels out of the ratio.
        let (small, large) = (EDIT_SIZES[0], EDIT_SIZES[EDIT_SIZES.len() - 1]);
        let ms_per_inst = |round: &[f64], funcs: usize| -> f64 {
            let class = || (0..subjects.len()).filter(|&i| subjects[i].funcs == funcs);
            class().map(|i| round[i]).sum::<f64>() / class().map(|i| base[i]).sum::<f64>()
        };
        let scaling: Vec<f64> = self
            .cold_ms
            .iter()
            .map(|r| ms_per_inst(r, large) / ms_per_inst(r, small))
            .collect();
        out.time("compile_scaling", median(&scaling), "ratio");
        out.count(
            "code_insts",
            self.code_insts.first().copied().unwrap_or(0) as f64,
            "count",
        );
    }
}

/// One traced pass: every subject compiled cold and recompiled warm
/// through the rebuilt pipeline and through [`compile::compile`], each
/// side with its own fresh cache (see [`compile::compile_both`]).
pub fn traced_pass(
    subjects: &[EditSubject],
    tr: &mut Tracer,
    totals: &mut TraceTotals,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let pipeline = compile::lowered(compile::o3());
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *layer.entry(k.to_string()).or_default() += v;
    let mut warm_cache = passman::CompileCacheStats::default();
    for (i, s) in subjects.iter().enumerate() {
        let traced_cfg = compile::config(THREADS, Some(CompileCache::new()), false);
        let direct_cfg = compile::config(THREADS, Some(CompileCache::new()), false);
        for (phase, m) in [("cold", &s.base), ("warm", &s.edited)] {
            let req = format!("compile-edit/m{i}/{phase}");
            let Some(t) = compile::compile_both(
                tr,
                &req,
                m,
                &pipeline,
                &traced_cfg,
                &direct_cfg,
                totals,
                tally,
            ) else {
                continue;
            };
            if phase == "warm" {
                warm_cache.merge(t.compile_cache());
                continue;
            }
            add("memoir-opt.ms", t.opt_ms);
            add("memoir-lower.lower.ms", t.lower_ms);
            add("lir.verify.ms", t.verify_ms);
            add("lir.passes.ms", t.lir_ms);
            for run in [&t.memoir_run, &t.lir_run] {
                add("passman.fp_retained", run.fingerprints.retained as f64);
                add("passman.fp_refreshes", run.fingerprints.refreshes as f64);
                add("passman.invalidations", run.invalidation_events as f64);
                for (_, c) in &run.cache {
                    add("passman.analysis_hits", c.hits as f64);
                    add("passman.analysis_misses", c.misses as f64);
                }
            }
            for p in &t.memoir_run.passes {
                add(
                    &format!("memoir-opt.pass.{}.ms", p.name),
                    p.time.as_secs_f64() * 1e3,
                );
            }
            for p in &t.lir_run.passes {
                add(
                    &format!("lir.pass.{}.ms", p.name),
                    p.time.as_secs_f64() * 1e3,
                );
            }
        }
    }
    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    for k in [
        "memoir-opt.ms",
        "memoir-lower.lower.ms",
        "lir.verify.ms",
        "lir.passes.ms",
    ] {
        out.time(k, get(k), "ms");
    }
    for p in MEMOIR_PASSES {
        let k = format!("memoir-opt.pass.{p}.ms");
        out.time(&k, get(&k), "ms");
    }
    for p in LIR_PASSES {
        let k = format!("lir.pass.{p}.ms");
        out.time(&k, get(&k), "ms");
    }
    for k in [
        "passman.fp_retained",
        "passman.fp_refreshes",
        "passman.analysis_hits",
        "passman.analysis_misses",
        "passman.invalidations",
    ] {
        out.count(k, get(k), "count");
    }
    out.count("passman.cache.hits", warm_cache.hits as f64, "count");
    out.count("passman.cache.skips", warm_cache.skips as f64, "count");
    out.count("passman.cache.misses", warm_cache.misses as f64, "count");
    out.count("passman.cache.reuse", warm_cache.reuse_rate(), "ratio");
}
