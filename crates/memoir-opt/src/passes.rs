//! [`passman::Pass`] adapters for every MEMOIR transformation, and the
//! name → constructor [`registry`] that pipeline specs resolve against.
//!
//! Each adapter translates a pass's native statistics struct into the
//! flat `(key, value)` form of [`PassOutcome`] and declares what it
//! invalidates: most passes declare [`Mutation::All`] on change, while
//! the iterative passes that already maintain the
//! [`AnalysisManager`](passman::AnalysisManager)
//! themselves ([`sink_with`](crate::sink::sink_with),
//! [`dee_strict_with`](crate::dee::dee_strict_with)) declare
//! [`Mutation::Handled`] so their still-fresh analyses survive the run.

use crate::dee::DeeStats;
use crate::pipeline::FE_AFFINITY_THRESHOLD;
use crate::{constprop, dce, dee, dfe, field_elision, fusion, key_fold, rie, simplify, sink};
use crate::{construct_ssa, construct_use_phis, destruct_ssa, destruct_use_phis};
use memoir_ir::{FuncId, Function, Module};
use passman::{
    FnPass, FuncOutcome, FuncPass, FuncPassAdapter, Mutation, Pass, PassOutcome, PassRegistry,
};

fn dee_stats(s: &DeeStats) -> Vec<(&'static str, i64)> {
    vec![
        ("writes_guarded", s.writes_guarded as i64),
        ("inserts_guarded", s.inserts_guarded as i64),
        ("swaps_guarded", s.swaps_guarded as i64),
        ("ops_dropped", s.ops_dropped as i64),
        ("functions_specialized", s.functions_specialized as i64),
        ("calls_specialized", s.calls_specialized as i64),
        ("recursive_calls_pruned", s.recursive_calls_pruned as i64),
    ]
}

/// CFG simplification as a function-sharded pass: it rewrites one
/// function at a time and never touches the module shell, so it runs
/// per function (potentially on worker threads) behind
/// [`FuncPassAdapter`] and declares exactly the changed functions.
struct SimplifyPass;
impl FuncPass<Module> for SimplifyPass {
    fn name(&self) -> &'static str {
        "simplify"
    }
    fn run_on(
        &self,
        _shell: &Module,
        _key: FuncId,
        f: &mut Function,
        _ctx: Option<&(dyn std::any::Any + Send + Sync)>,
    ) -> FuncOutcome {
        let s = simplify::simplify_function(f);
        FuncOutcome {
            changed: s != Default::default(),
            stats: vec![
                ("phis_removed", s.phis_removed as i64),
                ("branches_to_jumps", s.branches_to_jumps as i64),
                ("blocks_threaded", s.blocks_threaded as i64),
            ],
        }
    }
}

/// Collection-op fusion as a function-sharded pass: it rewrites one
/// SSA-form function at a time (read-modify-write fusion, query folds,
/// dominance CSE of redundant queries) and needs only the module shell's
/// type table, so it runs per function behind [`FuncPassAdapter`].
struct FusionPass;
impl FuncPass<Module> for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }
    fn run_on(
        &self,
        shell: &Module,
        _key: FuncId,
        f: &mut Function,
        _ctx: Option<&(dyn std::any::Any + Send + Sync)>,
    ) -> FuncOutcome {
        let s = fusion::fuse_function(&shell.types, f);
        FuncOutcome {
            changed: s != Default::default(),
            stats: vec![
                ("rmws_fused", s.rmws_fused as i64),
                ("queries_folded", s.queries_folded as i64),
                ("queries_merged", s.queries_merged as i64),
            ],
        }
    }
}

/// The registry of all MEMOIR passes, by spec name:
///
/// | name | pass |
/// |------|------|
/// | `ssa-construct` | [`construct_ssa`] (Fig. 5) |
/// | `ssa-destruct` | [`destruct_ssa`] (Alg. 3) |
/// | `constprop` | [`constprop::constprop`] |
/// | `simplify` | [`simplify::simplify_function`] (function-sharded) |
/// | `fusion` | [`fusion::fuse_function`] (function-sharded) |
/// | `dce` | [`dce::dce`] |
/// | `sink` | [`sink::sink_with`] |
/// | `dee-strict` | [`dee::dee_strict_with`] |
/// | `dee-specialize` | [`dee::dee_specialize_calls`] |
/// | `dee` | strict + call-specialization DEE combined |
/// | `field-elision` | [`field_elision::auto_field_elision`] |
/// | `rie` | [`rie::rie`] |
/// | `key-fold` | [`key_fold::key_fold`] |
/// | `dfe` | [`dfe::dfe`] |
/// | `use-phi-construct` | [`construct_use_phis`] |
/// | `use-phi-destruct` | [`destruct_use_phis`] |
pub fn registry() -> PassRegistry<Module> {
    let mut r = PassRegistry::new();

    r.register("ssa-construct", || {
        Box::new(FnPass::new("ssa-construct", |m: &mut Module, _am| {
            construct_ssa(m).map_err(|e| passman::PassError::with_payload(e.to_string(), e))?;
            Ok(PassOutcome::from_stats(vec![]).with_changed(true))
        }))
    });
    r.register("ssa-destruct", || {
        Box::new(FnPass::infallible("ssa-destruct", |m: &mut Module, _am| {
            let s = destruct_ssa(m);
            PassOutcome::from_stats(vec![
                ("copies_inserted", s.copies_inserted as i64),
                ("byref_params_restored", s.byref_params_restored as i64),
            ])
            .with_changed(true)
        }))
    });
    r.register("constprop", || {
        Box::new(FnPass::infallible("constprop", |m: &mut Module, am| {
            let s = constprop::constprop_with(m, am);
            PassOutcome::from_stats(vec![
                ("scalars_folded", s.scalars_folded as i64),
                ("element_reads_forwarded", s.element_reads_forwarded as i64),
                ("sizes_folded", s.sizes_folded as i64),
                ("branches_folded", s.branches_folded as i64),
                ("values_forwarded", s.values_forwarded as i64),
            ])
        }))
    });
    r.register("simplify", || Box::new(FuncPassAdapter::new(SimplifyPass)));
    r.register("fusion", || Box::new(FuncPassAdapter::new(FusionPass)));
    r.register("dce", || {
        Box::new(FnPass::infallible("dce", |m: &mut Module, am| {
            let s = dce::dce_with(m, am);
            PassOutcome::from_stats(vec![
                ("insts_removed", s.insts_removed as i64),
                ("blocks_removed", s.blocks_removed as i64),
                ("calls_removed", s.calls_removed as i64),
            ])
        }))
    });
    r.register("sink", || {
        Box::new(FnPass::infallible("sink", |m: &mut Module, am| {
            let s = sink::sink_with(m, am);
            PassOutcome::from_stats(vec![("sunk", s.sunk as i64)]).with_mutated(Mutation::Handled)
        }))
    });
    r.register("dee-strict", || {
        Box::new(FnPass::infallible("dee-strict", |m: &mut Module, am| {
            let s = dee::dee_strict_with(m, am);
            PassOutcome::from_stats(dee_stats(&s)).with_mutated(Mutation::Handled)
        }))
    });
    r.register("dee-specialize", || {
        Box::new(FnPass::infallible(
            "dee-specialize",
            |m: &mut Module, _am| {
                let s = dee::dee_specialize_calls(m);
                PassOutcome::from_stats(dee_stats(&s))
            },
        ))
    });
    // The paper's combined DEE step (legacy pipeline name "dee"): strict
    // intra-function DEE followed by call specialization.
    r.register("dee", || {
        Box::new(FnPass::infallible("dee", |m: &mut Module, am| {
            let strict = dee::dee_strict_with(m, am);
            let spec = dee::dee_specialize_calls(m);
            let spec_changed = spec != DeeStats::default();
            let mut stats = dee_stats(&strict);
            for (i, (_, v)) in dee_stats(&spec).into_iter().enumerate() {
                stats[i].1 += v;
            }
            let out = PassOutcome::from_stats(stats);
            if spec_changed {
                // Specialization clones functions: cached analyses for
                // the whole module are stale.
                out.with_mutated(Mutation::All)
            } else {
                out.with_mutated(Mutation::Handled)
            }
        }))
    });
    r.register("field-elision", || {
        Box::new(FnPass::infallible("field-elision", |m: &mut Module, am| {
            // Elision requires mut form and an entry function; like the
            // legacy pipeline, quietly skip when preconditions fail.
            // The pass invalidates `am` itself after each rewrite (and
            // re-derives affinity through it), so declare Handled to
            // keep the final — still fresh — affinity cached.
            match field_elision::auto_field_elision_with(m, FE_AFFINITY_THRESHOLD, am) {
                Ok(s) => PassOutcome::from_stats(vec![
                    ("fields_elided", s.fields_elided.len() as i64),
                    ("functions_threaded", s.functions_threaded as i64),
                    ("accesses_rewritten", s.accesses_rewritten as i64),
                ])
                .with_mutated(Mutation::Handled),
                Err(_) => PassOutcome::unchanged(),
            }
        }))
    });
    r.register("rie", || {
        Box::new(FnPass::infallible("rie", |m: &mut Module, am| {
            let s = rie::rie_with(m, am);
            PassOutcome::from_stats(vec![
                ("assocs_retyped", s.assocs_retyped as i64),
                ("accesses_rewritten", s.accesses_rewritten as i64),
            ])
        }))
    });
    r.register("key-fold", || {
        Box::new(FnPass::infallible("key-fold", |m: &mut Module, _am| {
            let s = key_fold::key_fold(m);
            PassOutcome::from_stats(vec![
                ("assocs_folded", s.assocs_folded as i64),
                ("casts_removed", s.casts_removed as i64),
            ])
        }))
    });
    r.register("dfe", || {
        Box::new(FnPass::infallible("dfe", |m: &mut Module, am| {
            let s = dfe::dfe_with(m, am);
            PassOutcome::from_stats(vec![
                ("fields_eliminated", s.fields_eliminated.len() as i64),
                ("writes_removed", s.writes_removed as i64),
            ])
        }))
    });
    r.register("use-phi-construct", || {
        Box::new(FnPass::infallible(
            "use-phi-construct",
            |m: &mut Module, _am| {
                let n = construct_use_phis(m);
                PassOutcome::from_stats(vec![("use_phis_constructed", n as i64)])
            },
        ))
    });
    r.register("use-phi-destruct", || {
        Box::new(FnPass::infallible(
            "use-phi-destruct",
            |m: &mut Module, _am| {
                let n = destruct_use_phis(m);
                PassOutcome::from_stats(vec![("use_phis_folded", n as i64)])
            },
        ))
    });

    r
}

/// Instantiates a single registered pass by name (for drivers running
/// passes outside a spec).
pub fn create(name: &str) -> Option<Box<dyn Pass<Module>>> {
    registry().create(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_memoir_passes() {
        let r = registry();
        for name in [
            "ssa-construct",
            "ssa-destruct",
            "constprop",
            "simplify",
            "fusion",
            "dce",
            "sink",
            "dee",
            "dee-strict",
            "dee-specialize",
            "field-elision",
            "rie",
            "key-fold",
            "dfe",
            "use-phi-construct",
            "use-phi-destruct",
        ] {
            assert!(r.contains(name), "missing pass `{name}`");
        }
        assert_eq!(r.names().len(), 16);
    }

    #[test]
    fn created_passes_report_their_registered_name() {
        let r = registry();
        for name in r.names() {
            let p = r.create(name).unwrap();
            assert_eq!(p.name(), name);
        }
    }
}
