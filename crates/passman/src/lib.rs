//! # passman
//!
//! A generic pass-manager framework shared by the MEMOIR pipeline
//! (`memoir-opt`) and the low-level IR pipeline (`lir`).
//!
//! The framework replaces hand-rolled pass sequences (each timing itself,
//! each recomputing every analysis from scratch) with four cooperating
//! pieces:
//!
//! * [`Pass`] — a named transformation over an IR unit, reporting a
//!   changed-bit, flat serde-friendly statistics, and which functions it
//!   mutated (its *analysis invalidation* declaration);
//! * [`AnalysisManager`] — lazily computes and caches per-function
//!   [`Analysis`] results (and module-wide [`ModuleAnalysis`] results),
//!   dropping a function's results only when a declared mutation moved
//!   its content fingerprint, with hit/miss counters surfaced in the
//!   final report;
//! * [`PipelineSpec`] — an LLVM `-passes=`-style textual pipeline
//!   description, e.g. `"constprop,dee,fixpoint(simplify,sink,dce)"`,
//!   where `fixpoint(...)` iterates its body to convergence using each
//!   pass's changed-bit;
//! * [`PassManager`] — runs a spec against a [`PassRegistry`], timing
//!   every pass, optionally verifying the IR between passes (naming the
//!   offending pass on failure), and producing a unified [`RunReport`].
//!
//! The framework is IR-agnostic: anything implementing [`IrUnit`] (a way
//! to enumerate function keys and fingerprint each function) and
//! [`ShardedIr`] (detaching, cloning and restoring single functions — the
//! sharded executor and the copy-on-write rollback engine work per
//! function) can be driven by it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod fault;
pub mod fingerprint;
pub mod parallel;
pub mod pass;
pub mod query;
pub mod recover;
pub mod rng;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod stage;
#[cfg(test)]
mod toy;

pub use analysis::{Analysis, AnalysisManager, CacheCounter, FingerprintStats, ModuleAnalysis};
pub use budget::{BudgetViolation, Budgets};
pub use cache::{CompileCache, CompileCacheStats};
pub use fault::{FaultPlan, InjectKind};
pub use fingerprint::{Fingerprint, LocalFingerprint, StableHasher};
pub use parallel::{
    ContainedFault, ExecContext, FuncOutcome, FuncPass, FuncPassAdapter, FuncPassProfile,
    ShardStat, ShardedIr,
};
pub use pass::{FnPass, Mutation, Pass, PassError, PassOutcome, PassRegistry};
pub use query::QueryCtx;
pub use recover::{Degradation, FaultCause, FaultPolicy, RecoveryAction};
pub use rng::SplitMix64;
pub use runner::{PassManager, PassRun, RunError, RunReport};
pub use snapshot::{CowEngine, SnapshotCost, SnapshotStats};
pub use spec::{PassCall, PassOptions, PipelineSpec, SpecParseError, SpecStep};
pub use stage::{LowerStage, StageOutcome};

use std::fmt::Debug;
use std::hash::Hash;
use std::sync::OnceLock;

/// The pass-manager settings the environment requests, read once per
/// process: `MEMOIR_THREADS` (worker threads for function-sharded
/// passes; unset, empty, or unparsable → 1, i.e. serial) and
/// `MEMOIR_CACHE` (`1` or `true` → one process-global [`CompileCache`],
/// shared by every IR's pipelines — its domains are namespaced per IR).
/// Later changes to the variables have no effect.
fn env_settings() -> &'static (usize, Option<CompileCache>) {
    static SETTINGS: OnceLock<(usize, Option<CompileCache>)> = OnceLock::new();
    SETTINGS.get_or_init(|| {
        let var = |name| {
            std::env::var(name)
                .ok()
                .map(|v| v.trim().to_ascii_lowercase())
        };
        let threads = var("MEMOIR_THREADS")
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(1, |n| n.max(1));
        let cache = matches!(var("MEMOIR_CACHE").as_deref(), Some("1" | "true"));
        (threads, cache.then(CompileCache::new))
    })
}

/// The worker-thread count requested via `MEMOIR_THREADS` (see
/// [`cache_from_env`] for how the environment is read).
pub fn threads_from_env() -> usize {
    env_settings().0
}

/// The process-global compile cache enabled by `MEMOIR_CACHE=1` (or
/// `true`): every pass manager that installs it — MEMOIR and lir alike —
/// shares one [`CompileCache`], so repeated compiles of unchanged
/// functions across jobs in the same process are served from cache. Both
/// variables are read once per process; later changes have no effect.
pub fn cache_from_env() -> Option<CompileCache> {
    env_settings().1.clone()
}

/// An IR unit a pass pipeline can run over: a module-like container with
/// enumerable per-function keys and per-function content fingerprints.
///
/// The fingerprints are what the [`AnalysisManager`] validates cached
/// analyses against (and what the [`CompileCache`] keys pass outputs
/// by), so every unit provides a [`local_fingerprint`](IrUnit::local_fingerprint)
/// that moves whenever the function's content does.
///
/// `FuncKey` is `Ord + Send + Sync` so the sharded executor
/// ([`parallel`]) can partition the key set deterministically and share
/// it across scoped worker threads.
pub trait IrUnit {
    /// Stable identifier for a function within the unit.
    type FuncKey: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static;

    /// All function keys currently in the unit.
    fn func_keys(&self) -> Vec<Self::FuncKey>;

    /// A cheap size measure (typically the instruction count) used by
    /// growth budgets. Units returning the default `0` opt out of growth
    /// budgeting.
    fn size_hint(&self) -> usize {
        0
    }

    /// The local part of function `f`'s fingerprint: its own structural
    /// hash and its callees as positions in
    /// [`func_keys`](IrUnit::func_keys). The analysis manager memoizes it
    /// per function and re-asks only for functions declared mutated.
    fn local_fingerprint(&self, f: Self::FuncKey) -> LocalFingerprint;

    /// A module-wide word folded into every function's fingerprint
    /// (e.g. a hash of the type and extern tables), or `None`. Passes
    /// that change it must declare [`Mutation::All`].
    fn fingerprint_context(&self) -> Option<u64> {
        None
    }

    /// Structural content fingerprints for every function, in
    /// [`func_keys`](IrUnit::func_keys) order (see [`fingerprint`] for
    /// the contract: deterministic, renumbering-insensitive, sensitive to
    /// op/type/callee edits): every local part, propagated over the
    /// callgraph.
    fn fingerprints(&self) -> Vec<(Self::FuncKey, Fingerprint)> {
        let keys = self.func_keys();
        let locals: Vec<LocalFingerprint> =
            keys.iter().map(|&k| self.local_fingerprint(k)).collect();
        let fps = fingerprint::propagate(&locals, self.fingerprint_context());
        keys.into_iter().zip(fps).collect()
    }
}
