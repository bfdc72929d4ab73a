//! The shipped O3 → `lower` → lir pipeline, run two ways: directly
//! through [`compile_lowered_with`] (untraced runs), and rebuilt from its
//! public pieces with a span around each (traced runs).

use crate::report::Tally;
use crate::trace::{SpanId, Tracer};
use memoir_ir::Module;
use memoir_lower::DEFAULT_PROBES;
use memoir_lower::{cross_validate, lower_module_opts, CrossCheckReport, LowerOptions, LowerStats};
use memoir_opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline};
use memoir_opt::pipeline::{compile_spec_with, default_spec};
use memoir_opt::{OptConfig, OptLevel};
use passman::{CompileCache, IrUnit, PassManager, PassOptions, PipelineSpec, RunReport};
use std::time::Instant;

/// The default O3 MEMOIR pipeline.
pub fn o3() -> PipelineSpec {
    default_spec(OptLevel::O3(OptConfig::all()))
}

/// The O3 pipeline of the run-kernels builds: O3 with its `dee` step
/// replaced by `dee-strict`, so that every pass preserves the program's
/// output and each run can be checked against the unoptimized module.
///
/// `dee` adds call-specialization DEE in the faithful Listing-4 mode,
/// which DESIGN.md §8 documents as exact only for the live slice: stale
/// elements may survive in the dead region, and the `mcf` kernel observes
/// them once it runs enough rounds (`master(64, 8, 16, 24)` returns 4333
/// after O3 against 4239 unoptimized). No other kernel's optimized module
/// changes.
pub fn o3_kernels() -> PipelineSpec {
    let full = o3().to_string();
    let passes: Vec<&str> = full
        .split(',')
        .map(|p| if p == "dee" { "dee-strict" } else { p })
        .collect();
    PipelineSpec::parse(&passes.join(",")).expect("O3 with dee-strict parses")
}

/// `spec` with every standalone `fusion` pass removed (the `baseline`
/// configuration of the model-vs-wall reconciliation).
pub fn without_fusion(spec: &PipelineSpec) -> PipelineSpec {
    let full = spec.to_string();
    let kept: Vec<&str> = full.split(',').filter(|p| *p != "fusion").collect();
    PipelineSpec::parse(&kept.join(",")).expect("pipeline without fusion parses")
}

/// `memoir` → `lower` → the default lir pipeline.
pub fn lowered(memoir: PipelineSpec) -> LoweredPipeline {
    LoweredPipeline {
        memoir,
        lower_opts: PassOptions::none(),
        lir: lir::passes::default_spec(),
    }
}

/// A lowering configuration with cross-IR validation on.
pub fn config(threads: usize, cache: Option<CompileCache>, adaptive: bool) -> LowerConfig {
    LowerConfig {
        threads,
        cache,
        adaptive,
        cross_check: true,
        ..LowerConfig::default()
    }
}

/// A finished compile.
#[derive(Debug)]
pub struct Build {
    /// The module after the MEMOIR phase.
    pub optimized: Module,
    /// The lowered, lir-optimized module.
    pub lowered: lir::Module,
}

/// Compiles `m` through [`compile_lowered_with`].
pub fn compile(mut m: Module, p: &LoweredPipeline, cfg: &LowerConfig) -> Result<Build, String> {
    let out = compile_lowered_with(&mut m, p, cfg).map_err(|e| e.to_string())?;
    let lowered = out
        .lowered
        .ok_or("pipeline produced no lowered module (degraded or stopped early)")?;
    Ok(Build {
        optimized: m,
        lowered,
    })
}

/// A compile rebuilt from public pieces, with what each piece reported.
#[derive(Debug)]
pub struct TracedBuild {
    /// The compiled output.
    pub build: Build,
    /// The root `compile` span.
    pub root: SpanId,
    /// Root span duration in milliseconds.
    pub ms: f64,
    /// The MEMOIR phase's report.
    pub memoir_run: RunReport,
    /// Lowering statistics.
    pub lower_stats: LowerStats,
    /// Lowering's compile-cache traffic.
    pub lower_cache: passman::CompileCacheStats,
    /// Cross-validation coverage (when `cross_check` is on).
    pub check: Option<CrossCheckReport>,
    /// The lir phase's report.
    pub lir_run: RunReport,
    /// Span durations in milliseconds: MEMOIR phase, lowering, lir
    /// verifier, cross-validation, lir passes.
    pub opt_ms: f64,
    /// See `opt_ms`.
    pub lower_ms: f64,
    /// See `opt_ms`.
    pub verify_ms: f64,
    /// See `opt_ms`.
    pub validate_ms: f64,
    /// See `opt_ms`.
    pub lir_ms: f64,
}

impl TracedBuild {
    /// Compile-cache counters of all three phases.
    pub fn compile_cache(&self) -> passman::CompileCacheStats {
        let mut c = self.memoir_run.compile_cache;
        c.merge(self.lower_cache);
        c.merge(self.lir_run.compile_cache);
        c
    }
}

/// The pass-manager settings [`compile_lowered_with`] applies in both
/// pass phases.
fn configure<M: IrUnit + Clone + 'static>(cfg: &LowerConfig, pm: PassManager<M>) -> PassManager<M> {
    let mut pm = pm
        .on_fault(cfg.policy)
        .with_budgets(cfg.budgets)
        .with_threads(cfg.threads);
    if let Some(cache) = &cfg.cache {
        pm = pm.with_compile_cache(cache.clone());
    }
    pm
}

/// Runs the same pipeline as [`compile`] from its public pieces —
/// `compile_spec_with`, `lower_module_opts`, the lir verifier,
/// `cross_validate`, the lir `pass_manager().run` — with one child span
/// per piece under a root `compile` span.
pub fn compile_traced(
    tr: &mut Tracer,
    req: &str,
    mut m: Module,
    p: &LoweredPipeline,
    cfg: &LowerConfig,
) -> Result<TracedBuild, String> {
    let lower_opts = LowerOptions {
        threads: cfg.threads,
        cache: cfg.cache.clone(),
        adaptive: cfg.adaptive,
    };
    let root = tr.open("compile", req, None);
    let (memoir_run, opt_ms) = tr.span("memoir-opt", req, Some(root), || {
        compile_spec_with(&mut m, &p.memoir, |pm| configure(cfg, pm))
    });
    let memoir_run = memoir_run.map_err(|e| e.to_string())?.run;
    if memoir_run.stopped_early {
        return Err("MEMOIR phase stopped early".into());
    }
    let (lowered, lower_ms) = tr.span("memoir-lower.lower", req, Some(root), || {
        lower_module_opts(&m, &lower_opts)
    });
    let lowered = lowered.map_err(|e| e.to_string())?;
    let (errors, verify_ms) = tr.span("lir.verify", req, Some(root), || {
        lir::verifier::verify_module(&lowered.module)
    });
    if !errors.is_empty() {
        return Err(format!(
            "lowered module fails verification: {}",
            errors.join("; ")
        ));
    }
    let (check, validate_ms) = if cfg.cross_check {
        let (check, ms) = tr.span("memoir-lower.validate", req, Some(root), || {
            cross_validate(&m, &lowered.module, DEFAULT_PROBES)
        });
        (Some(check.map_err(|e| e.to_string())?), ms)
    } else {
        (None, 0.0)
    };
    let mut lm = lowered.module;
    let (lir_run, lir_ms) = tr.span("lir.passes", req, Some(root), || {
        configure(cfg, lir::passes::pass_manager()).run(&mut lm, &p.lir)
    });
    let lir_run = lir_run.map_err(|e| e.to_string())?;
    let ms = tr.close(root);
    Ok(TracedBuild {
        build: Build {
            optimized: m,
            lowered: lm,
        },
        root,
        ms,
        memoir_run,
        lower_stats: lowered.stats,
        lower_cache: lowered.cache,
        check,
        lir_run,
        opt_ms,
        lower_ms,
        verify_ms,
        validate_ms,
        lir_ms,
    })
}

/// What the traced compiles of one pass add up to.
#[derive(Clone, Copy, Debug)]
pub struct TraceTotals {
    /// Wall time of the rebuilt, traced compiles.
    pub traced_ms: f64,
    /// Wall time of the same compiles through `compile_lowered_with`.
    pub direct_ms: f64,
    /// Time inside root `compile` spans that no leaf span covers.
    pub unattributed_ms: f64,
    /// Lowest leaf-span coverage of any traced compile.
    pub min_coverage: f64,
}

impl Default for TraceTotals {
    fn default() -> Self {
        TraceTotals {
            traced_ms: 0.0,
            direct_ms: 0.0,
            unattributed_ms: 0.0,
            min_coverage: 1.0,
        }
    }
}

/// Compiles `m` both ways — rebuilt and traced under `traced_cfg`,
/// directly under `direct_cfg` (which must not share `traced_cfg`'s
/// cache) — counting the rebuilt pipeline's byte identity with
/// [`compile`] and its ≥ 95% leaf-span coverage as two checks.
#[allow(clippy::too_many_arguments)]
pub fn compile_both(
    tr: &mut Tracer,
    req: &str,
    m: &Module,
    p: &LoweredPipeline,
    traced_cfg: &LowerConfig,
    direct_cfg: &LowerConfig,
    totals: &mut TraceTotals,
    tally: &mut Tally,
) -> Option<TracedBuild> {
    let traced = compile_traced(tr, req, m.clone(), p, traced_cfg);
    let m = m.clone();
    let t0 = Instant::now();
    let direct = compile(m, p, direct_cfg);
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t = match (traced, direct) {
        (Ok(t), Ok(d)) => {
            tally.check(print(&t.build.lowered) == print(&d.lowered), req, || {
                "rebuilt pipeline output differs from compile_lowered_with".into()
            });
            t
        }
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(req, e);
            return None;
        }
    };
    let coverage = tr.leaf_coverage(t.root);
    tally.check(coverage >= 0.95, format!("{req}/trace"), || {
        format!("leaf spans cover {:.1}% of the compile", coverage * 100.0)
    });
    totals.traced_ms += t.ms;
    totals.direct_ms += direct_ms;
    totals.unattributed_ms += t.ms * (1.0 - coverage);
    totals.min_coverage = totals.min_coverage.min(coverage);
    Some(t)
}

/// Printed lir, the byte-level identity the checks compare.
pub fn print(lm: &lir::Module) -> String {
    lir::printer::print_module(lm)
}
