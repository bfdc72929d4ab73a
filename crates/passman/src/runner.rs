//! The pass-manager runner: executes a [`PipelineSpec`] against a
//! [`PassRegistry`], timing each pass, invalidating cached analyses
//! according to each pass's declaration, optionally verifying the IR
//! between passes, enforcing [`Budgets`], and accumulating a unified
//! [`RunReport`].
//!
//! With a recovering [`FaultPolicy`] installed (see
//! [`PassManager::on_fault`]), every pass runs under `catch_unwind` with
//! its declared mutation scope snapshotted beforehand (whole-module
//! clone by default, per-function copy-on-write via
//! [`PassManager::with_cow_snapshots`]): a panicking, erroring,
//! verifier-failing, or over-budget pass is rolled back to the last
//! verified IR and recorded as a [`Degradation`], and the pipeline either
//! continues (`SkipPass`) or stops cleanly (`StopPipeline`).
//!
//! Function-sharded passes (see [`crate::parallel`]) additionally run
//! their per-function bodies on [`PassManager::with_threads`] worker
//! threads, with bit-identical results to serial runs, and surface a
//! per-function wall-clock/shard-utilization profile through each
//! [`PassRun`].

use crate::analysis::{AnalysisManager, CacheCounter, FingerprintStats};
use crate::budget::{BudgetViolation, Budgets};
use crate::cache::{CompileCache, CompileCacheStats};
use crate::fault::{FaultPlan, InjectKind};
#[cfg(debug_assertions)]
use crate::fingerprint::LocalFingerprint;
use crate::parallel::{ExecContext, FuncPassProfile, ShardedIr};
#[cfg(debug_assertions)]
use crate::pass::{Mutation, PassOutcome};
use crate::pass::{Pass, PassError, PassRegistry};
use crate::recover::{Degradation, FaultCause, FaultPolicy, RecoveryAction};
use crate::snapshot::{CowEngine, FullCloneEngine, SnapshotCost, SnapshotEngine, SnapshotStats};
use crate::spec::{PassCall, PipelineSpec, SpecStep};
use crate::IrUnit;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One executed pass instance in the report.
#[derive(Clone, Debug)]
pub struct PassRun {
    /// Pass name.
    pub name: String,
    /// Wall time of the pass body (excluding verification).
    pub time: Duration,
    /// Whether the pass reported a change.
    pub changed: bool,
    /// Flat statistics reported by the pass.
    pub stats: Vec<(&'static str, i64)>,
    /// `Some(i)` if this run happened in iteration `i` (0-based) of a
    /// `fixpoint(...)` group.
    pub fixpoint_iteration: Option<usize>,
    /// Driver-attached annotations (e.g. collection censuses).
    pub annotations: Vec<(String, String)>,
    /// Cost of the pre-pass snapshot (recovering policies only).
    pub snapshot: Option<SnapshotCost>,
    /// Per-function execution profile (function-sharded passes only).
    pub profile: Option<FuncPassProfile>,
}

impl PassRun {
    /// Looks up a statistic by key.
    pub fn stat(&self, key: &str) -> Option<i64> {
        self.stats.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// The unified report of a pipeline run: per-pass timing and stats plus
/// analysis-cache counters and any contained faults.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Every executed pass, in execution order (fixpoint iterations
    /// appear once per execution). Degraded passes appear with
    /// `changed = false` and a `degraded` annotation.
    pub passes: Vec<PassRun>,
    /// Total wall time, including verification.
    pub total: Duration,
    /// Analysis-cache hit/miss counters by analysis name.
    pub cache: Vec<(String, CacheCounter)>,
    /// Number of analysis-cache invalidation events.
    pub invalidation_events: u64,
    /// Faults contained by the fault policy, sorted by pass invocation
    /// index then function index — deterministic, so parallel and serial
    /// runs diff clean.
    pub degradations: Vec<Degradation>,
    /// Whether the pipeline stopped before completing the spec (the
    /// `StopPipeline` policy fired, or the pipeline time budget ran out).
    pub stopped_early: bool,
    /// Worker threads the manager was configured with.
    pub threads: usize,
    /// Cumulative snapshot-engine counters (zeroed under
    /// [`FaultPolicy::Abort`], which never snapshots).
    pub snapshots: SnapshotStats,
    /// Cross-job compile-cache hit/skip/miss counters for this run
    /// (all-zero when no [`CompileCache`] was installed).
    pub compile_cache: CompileCacheStats,
    /// Fingerprint-retention counters for this run (all-zero for IRs
    /// without fingerprint support).
    pub fingerprints: FingerprintStats,
}

impl RunReport {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }

    /// `(name, time)` pairs in execution order (the legacy
    /// `PipelineReport::pass_times` shape).
    pub fn pass_times(&self) -> Vec<(String, Duration)> {
        self.passes
            .iter()
            .map(|p| (p.name.clone(), p.time))
            .collect()
    }

    /// The last run of the named pass, if any.
    pub fn last_run(&self, name: &str) -> Option<&PassRun> {
        self.passes.iter().rev().find(|p| p.name == name)
    }

    /// Cache counter for one analysis name (zeroed if never requested).
    pub fn cache_counter(&self, name: &str) -> CacheCounter {
        self.cache
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, c)| c)
            .unwrap_or_default()
    }

    /// Whether any fault was contained during the run.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// The degradation recorded for the named pass, if any.
    pub fn degradation_of(&self, pass: &str) -> Option<&Degradation> {
        self.degradations.iter().find(|d| d.pass == pass)
    }

    /// Renders a plain-text per-pass table (for debugging and bench
    /// binaries).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10}  {:>7}  stats\n",
            "pass", "time", "changed"
        ));
        for p in &self.passes {
            let mut stats: Vec<String> = p.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            if let Some(s) = &p.snapshot {
                if s.full {
                    stats.push(format!("[snap full {}u]", s.units_cloned));
                } else if s.funcs_cloned + s.funcs_reused > 0 {
                    stats.push(format!(
                        "[snap {}c/{}r {}u]",
                        s.funcs_cloned, s.funcs_reused, s.units_cloned
                    ));
                }
            }
            if let Some(prof) = &p.profile {
                if prof.shards.len() > 1 {
                    stats.push(format!(
                        "[{} funcs / {} shards, max {:.0}%]",
                        prof.func_times.len(),
                        prof.shards.len(),
                        prof.max_shard_fraction() * 100.0
                    ));
                }
            }
            let name = match p.fixpoint_iteration {
                Some(i) => format!("{} [fix #{i}]", p.name),
                None => p.name.clone(),
            };
            out.push_str(&format!(
                "{:<24} {:>8.3}ms  {:>7}  {}\n",
                name,
                p.time.as_secs_f64() * 1e3,
                p.changed,
                stats.join(" ")
            ));
        }
        for (name, c) in &self.cache {
            out.push_str(&format!(
                "analysis {:<15} hits={} misses={}\n",
                name, c.hits, c.misses
            ));
        }
        if self.compile_cache.lookups() > 0 {
            let cc = &self.compile_cache;
            out.push_str(&format!(
                "compile-cache hits={} skips={} misses={} contended={} (reused {:.0}%)\n",
                cc.hits,
                cc.skips,
                cc.misses,
                cc.contended,
                cc.reuse_rate() * 100.0
            ));
        }
        if self.fingerprints.refreshes > 0 {
            let fp = &self.fingerprints;
            out.push_str(&format!(
                "fingerprints refreshes={} retained={} dropped={} rehashed={}\n",
                fp.refreshes, fp.retained, fp.dropped, fp.rehashed
            ));
        }
        for d in &self.degradations {
            out.push_str(&format!("degraded {d}\n"));
        }
        if self.threads > 1 {
            out.push_str(&format!("threads {}\n", self.threads));
        }
        if self.snapshots.captures > 0 {
            let s = &self.snapshots;
            out.push_str(&format!(
                "snapshots captures={} full={} cloned={} reused={} units={} restores={}\n",
                s.captures,
                s.full_clones,
                s.funcs_cloned,
                s.funcs_reused,
                s.units_cloned,
                s.restores
            ));
        }
        if self.stopped_early {
            out.push_str("pipeline stopped early\n");
        }
        out
    }
}

/// A pipeline-run failure (under the [`FaultPolicy::Abort`] policy;
/// recovering policies turn most of these into
/// [`Degradation`]s instead).
#[derive(Debug)]
pub enum RunError {
    /// The spec referenced a pass the registry does not know.
    UnknownPass {
        /// The unknown name.
        name: String,
        /// All registered names, for the error message.
        known: Vec<&'static str>,
    },
    /// A pass constructor rejected its spec options.
    InvalidOptions {
        /// The pass whose options were rejected.
        pass: String,
        /// The constructor's message.
        message: String,
    },
    /// A pass failed (e.g. SSA construction rejected the input).
    PassFailed {
        /// The failing pass.
        pass: String,
        /// The failure.
        error: PassError,
    },
    /// Inter-pass verification failed right after the named pass.
    VerifyFailed {
        /// The pass after which verification failed.
        pass: String,
        /// The verifier's message.
        message: String,
    },
    /// A budget was exceeded by (or right after) the named pass.
    BudgetExceeded {
        /// The pass charged with the violation.
        pass: String,
        /// The violated budget.
        violation: BudgetViolation,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownPass { name, known } => {
                write!(
                    f,
                    "unknown pass `{name}`; known passes: {}",
                    known.join(", ")
                )
            }
            RunError::InvalidOptions { pass, message } => {
                write!(f, "invalid options for pass `{pass}`: {message}")
            }
            RunError::PassFailed { pass, error } => {
                write!(f, "pass `{pass}` failed: {}", error.message)
            }
            RunError::VerifyFailed { pass, message } => {
                write!(f, "IR verification failed after pass `{pass}`: {message}")
            }
            RunError::BudgetExceeded { pass, violation } => {
                write!(f, "budget exceeded at pass `{pass}`: {violation}")
            }
        }
    }
}

impl std::error::Error for RunError {}

type Verifier<M> = Rc<dyn Fn(&M, &mut AnalysisManager<M>) -> Result<(), String>>;
type Observer<M> = Rc<dyn Fn(&M, &mut PassRun)>;
type SymCheck<M> = Rc<dyn Fn(&M, &M, u64) -> Result<(), String>>;

/// The per-pass symbolic equivalence verifier (see
/// [`PassManager::with_sym_verifier`]): a capture hook cloning the IR
/// before a pass runs, and a check proving pre-pass ≡ post-pass under a
/// path budget (`0` = the verifier's default budget).
struct SymVerifier<M> {
    capture: Rc<dyn Fn(&M) -> M>,
    check: SymCheck<M>,
}

/// The fingerprint inputs of a whole module: its context word and every
/// function's local part.
#[cfg(debug_assertions)]
type AuditSnapshot<K> = (Option<u64>, Vec<(K, LocalFingerprint)>);

#[cfg(debug_assertions)]
fn audit_snapshot<M: IrUnit>(m: &M) -> Option<AuditSnapshot<M::FuncKey>> {
    m.supports_fingerprints().then(|| {
        let locals = m
            .func_keys()
            .into_iter()
            .map(|k| (k, m.local_fingerprint(k)))
            .collect();
        (m.fingerprint_context(), locals)
    })
}

/// The declaration audit (debug builds only): the incremental
/// fingerprint refresh re-hashes only what passes declare, so a pass
/// reporting `changed = false` must have moved nothing, and one
/// reporting `Mutation::Funcs(ks)` nothing outside `ks` — no other
/// function, no function added or removed, no change to the context
/// word. `All`, `None` and `Handled` are followed by a full re-hash and
/// need no audit.
#[cfg(debug_assertions)]
fn audit_declaration<M: IrUnit>(
    pass: &str,
    before: &AuditSnapshot<M::FuncKey>,
    m: &M,
    outcome: &PassOutcome<M>,
) {
    let declared: &[M::FuncKey] = match (&outcome.mutated, outcome.changed) {
        (_, false) => &[],
        (Mutation::Funcs(ks), true) => ks,
        _ => return,
    };
    let (context, locals) = audit_snapshot(m).expect("fingerprint support is fixed per IR");
    let scope = format!("changed={} {:?}", outcome.changed, outcome.mutated);
    assert!(
        context == before.0,
        "pass `{pass}` declared {scope} but changed the module context"
    );
    assert!(
        locals
            .iter()
            .map(|(k, _)| k)
            .eq(before.1.iter().map(|(k, _)| k)),
        "pass `{pass}` declared {scope} but added or removed functions"
    );
    for ((k, after), (_, prior)) in locals.iter().zip(&before.1) {
        assert!(
            after == prior || declared.contains(k),
            "pass `{pass}` declared {scope} but mutated undeclared function {k:?}"
        );
    }
}

/// What [`PassManager::run_one`] tells the step loop.
enum StepOutcome {
    /// The pass ran (or was degraded under `SkipPass`); the flag is its
    /// changed-bit (`false` for a degraded pass).
    Ran(bool),
    /// The pipeline must stop (`StopPipeline` fired).
    Stop,
}

/// Drives pipeline specs over an IR unit.
pub struct PassManager<M: IrUnit> {
    registry: PassRegistry<M>,
    verifier: Option<Verifier<M>>,
    verify_between_passes: bool,
    max_fixpoint_iters: usize,
    observer: Option<Observer<M>>,
    policy: FaultPolicy,
    budgets: Budgets,
    snapshots: Option<RefCell<Box<dyn SnapshotEngine<M>>>>,
    injection: Option<FaultPlan>,
    /// Worker threads for function-sharded passes (1 = serial).
    threads: usize,
    /// 0-based index of the next pass invocation (reset per run).
    invocations: Cell<usize>,
    /// Cross-job compile cache installed into each run's analysis
    /// manager (unless the manager already carries one).
    compile_cache: Option<CompileCache>,
    /// Symbolic per-pass equivalence verifier, consulted only by pass
    /// invocations carrying the `verify-sym` spec option.
    sym_verifier: Option<SymVerifier<M>>,
}

impl<M: IrUnit> std::fmt::Debug for PassManager<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("registry", &self.registry)
            .field("verify_between_passes", &self.verify_between_passes)
            .field("max_fixpoint_iters", &self.max_fixpoint_iters)
            .field("policy", &self.policy)
            .field("budgets", &self.budgets)
            .field("injection", &self.injection)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<M: IrUnit> PassManager<M> {
    /// A manager over the given registry. Inter-pass verification
    /// defaults to on in debug builds and off in release builds; the
    /// fault policy defaults to [`FaultPolicy::Abort`] (fail fast, no
    /// snapshotting cost) and budgets default to unlimited.
    pub fn new(registry: PassRegistry<M>) -> Self {
        PassManager {
            registry,
            verifier: None,
            verify_between_passes: cfg!(debug_assertions),
            max_fixpoint_iters: 8,
            observer: None,
            policy: FaultPolicy::Abort,
            budgets: Budgets::none(),
            snapshots: None,
            injection: None,
            threads: 1,
            invocations: Cell::new(0),
            compile_cache: None,
            sym_verifier: None,
        }
    }

    /// Installs the symbolic per-pass equivalence verifier behind the
    /// `verify-sym` spec option: for each invocation carrying the
    /// option (`dce<verify-sym>`, `fusion<verify-sym=128>`), `capture`
    /// clones the IR before the pass body and `check(before, after,
    /// budget)` must prove the two equivalent afterwards. The budget is
    /// the option's value (`0` for the bare flag — the checker's
    /// default). A failed check is classified exactly like an IR
    /// verifier failure: [`RunError::VerifyFailed`] under
    /// [`FaultPolicy::Abort`], rollback + degradation under recovering
    /// policies. Passes without the option never pay the capture cost.
    pub fn with_sym_verifier(
        mut self,
        capture: impl Fn(&M) -> M + 'static,
        check: impl Fn(&M, &M, u64) -> Result<(), String> + 'static,
    ) -> Self {
        self.sym_verifier = Some(SymVerifier {
            capture: Rc::new(capture),
            check: Rc::new(check),
        });
        self
    }

    /// Installs a cross-job [`CompileCache`]: function-sharded passes
    /// then skip functions whose `(pass, input-fingerprint)` output is
    /// already cached — across fixpoint iterations, across `run_with`
    /// calls, and across jobs sharing the cache handle. Requires the IR
    /// to support fingerprints ([`IrUnit::fingerprints`]); without them
    /// the cache is never consulted.
    pub fn with_compile_cache(mut self, cache: CompileCache) -> Self {
        self.compile_cache = Some(cache);
        self
    }

    /// Sets the worker-thread count for function-sharded passes (see
    /// [`FuncPassAdapter`](crate::parallel::FuncPassAdapter)). Results
    /// are bit-identical to serial runs; only wall-clock changes. The
    /// per-call spec option `parallel=N` overrides this for one
    /// invocation. Default 1 (serial).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the IR verifier run between passes.
    pub fn with_verifier(mut self, v: impl Fn(&M) -> Result<(), String> + 'static) -> Self {
        self.verifier = Some(Rc::new(move |m, _am| v(m)));
        self
    }

    /// Sets an IR verifier that may consult (and populate) the run's
    /// [`AnalysisManager`] — e.g. to reuse cached dominator trees for
    /// functions no pass has touched since they were last verified. Safe
    /// with rollback: a failed verification restores the snapshot and
    /// then drops *every* cached analysis, so nothing the verifier
    /// computed against the discarded state survives.
    pub fn with_verifier_am(
        mut self,
        v: impl Fn(&M, &mut AnalysisManager<M>) -> Result<(), String> + 'static,
    ) -> Self {
        self.verifier = Some(Rc::new(v));
        self
    }

    /// Forces inter-pass verification on or off (overriding the
    /// debug-build default).
    pub fn verify_between_passes(mut self, on: bool) -> Self {
        self.verify_between_passes = on;
        self
    }

    /// Caps `fixpoint(...)` iteration counts (default 8; overridden per
    /// group by `fixpoint<max=N>(...)` and by
    /// [`Budgets::max_fixpoint_iters`]).
    pub fn max_fixpoint_iters(mut self, n: usize) -> Self {
        self.max_fixpoint_iters = n.max(1);
        self
    }

    /// Installs a post-pass observer, called with the module and the
    /// just-recorded [`PassRun`] (e.g. to attach censuses).
    pub fn with_observer(mut self, obs: impl Fn(&M, &mut PassRun) + 'static) -> Self {
        self.observer = Some(Rc::new(obs));
        self
    }

    /// Sets the fault policy. The recovering policies snapshot what each
    /// pass may mutate before running it (hence the `Clone` bound) and
    /// roll back on any contained fault; [`FaultPolicy::Abort`] restores
    /// the legacy fail-fast behaviour and costs nothing.
    ///
    /// If no snapshot engine is installed yet, this installs the
    /// whole-module [`FullCloneEngine`]; a previously installed engine
    /// (e.g. [`with_cow_snapshots`](PassManager::with_cow_snapshots)) is
    /// kept.
    pub fn on_fault(mut self, policy: FaultPolicy) -> Self
    where
        M: Clone + 'static,
    {
        self.policy = policy;
        if self.snapshots.is_none() {
            self.snapshots = Some(RefCell::new(Box::new(FullCloneEngine::<M>::new())));
        }
        self
    }

    /// Installs the per-function copy-on-write [`CowEngine`]: recovering
    /// policies then clone only the functions a pass declares it may
    /// mutate (reusing clones of still-clean functions across passes)
    /// instead of the whole module. Overrides any earlier engine.
    pub fn with_cow_snapshots(mut self) -> Self
    where
        M: ShardedIr + Clone + 'static,
    {
        self.snapshots = Some(RefCell::new(Box::new(CowEngine::<M>::new())));
        self
    }

    /// Forces the legacy whole-module [`FullCloneEngine`] (the baseline
    /// the compile-time bench compares CoW against). Overrides any
    /// earlier engine.
    pub fn with_full_clone_snapshots(mut self) -> Self
    where
        M: Clone + 'static,
    {
        self.snapshots = Some(RefCell::new(Box::new(FullCloneEngine::<M>::new())));
        self
    }

    /// Sets pipeline-wide default budgets (per-pass spec options like
    /// `dce<max-ms=50>` override the per-pass axes).
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Installs a deterministic fault-injection plan (tests and fuzz
    /// harnesses only — see [`crate::fault`]).
    pub fn with_fault_injection(mut self, plan: FaultPlan) -> Self {
        self.injection = Some(plan);
        self
    }

    /// The underlying registry.
    pub fn registry(&self) -> &PassRegistry<M> {
        &self.registry
    }

    /// The active fault policy.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Validates that every pass named in `spec` is registered.
    pub fn validate(&self, spec: &PipelineSpec) -> Result<(), RunError> {
        for name in spec.pass_names() {
            if !self.registry.contains(name) {
                return Err(RunError::UnknownPass {
                    name: name.to_string(),
                    known: self.registry.names(),
                });
            }
        }
        Ok(())
    }

    /// Runs a spec with a fresh analysis manager.
    pub fn run(&self, m: &mut M, spec: &PipelineSpec) -> Result<RunReport, RunError> {
        let mut am = AnalysisManager::new();
        self.run_with(m, spec, &mut am)
    }

    /// Runs a spec against an existing analysis manager (so cached
    /// analyses survive across multiple `run_with` calls).
    pub fn run_with(
        &self,
        m: &mut M,
        spec: &PipelineSpec,
        am: &mut AnalysisManager<M>,
    ) -> Result<RunReport, RunError> {
        self.validate(spec)?;
        let start = Instant::now();
        self.invocations.set(0);
        if let (Some(cache), None) = (&self.compile_cache, am.compile_cache()) {
            am.set_compile_cache(cache.clone());
        }
        // Per-run deltas: the manager's counters accumulate across
        // `run_with` calls.
        let cc_before = am.compile_cache_stats();
        let fp_before = am.fingerprint_stats();
        // Contention is counted by the shared cache handle itself (it is
        // a property of the lock, not of this manager), so delta it too.
        let contention_before = am.compile_cache().map_or(0, |c| c.contention());
        let mut report = RunReport::default();
        // Pass instances are created once per distinct spec call (name +
        // options) and reused across fixpoint iterations, so stateful
        // passes can accumulate.
        let mut instances: HashMap<String, Box<dyn Pass<M>>> = HashMap::new();

        'steps: for step in &spec.steps {
            match step {
                SpecStep::Pass(call) => {
                    match self.run_one(m, am, &mut instances, call, None, &mut report, start)? {
                        StepOutcome::Ran(_) => {}
                        StepOutcome::Stop => {
                            report.stopped_early = true;
                            break 'steps;
                        }
                    }
                }
                SpecStep::Fixpoint { opts, body } => {
                    let cap = match opts.get_parsed::<usize>("max") {
                        Ok(Some(n)) => n.max(1),
                        Ok(None) => self
                            .budgets
                            .max_fixpoint_iters
                            .unwrap_or(self.max_fixpoint_iters),
                        Err(message) => {
                            return Err(RunError::InvalidOptions {
                                pass: "fixpoint".into(),
                                message,
                            })
                        }
                    };
                    for iter in 0..cap {
                        let mut any_changed = false;
                        for call in body {
                            match self.run_one(
                                m,
                                am,
                                &mut instances,
                                call,
                                Some(iter),
                                &mut report,
                                start,
                            )? {
                                StepOutcome::Ran(changed) => any_changed |= changed,
                                StepOutcome::Stop => {
                                    report.stopped_early = true;
                                    break 'steps;
                                }
                            }
                        }
                        if !any_changed {
                            break;
                        }
                    }
                }
            }
        }

        report.total = start.elapsed();
        report.cache = am
            .counters()
            .iter()
            .map(|(&n, &c)| (n.to_string(), c))
            .collect();
        report.invalidation_events = am.invalidation_events();
        report.compile_cache = am.compile_cache_stats().since(cc_before);
        report.compile_cache.contended += am
            .compile_cache()
            .map_or(0, |c| c.contention())
            .saturating_sub(contention_before);
        report.fingerprints = am.fingerprint_stats().since(fp_before);
        report.threads = self.threads;
        if let Some(engine) = &self.snapshots {
            report.snapshots = engine.borrow().stats();
        }
        // Deterministic ordering: pass invocation index, then function
        // index (whole-pass faults first). Pushes already happen in this
        // order, so the (stable) sort is a guard, not a shuffle.
        report
            .degradations
            .sort_by_key(|d| (d.invocation, d.func_index));
        Ok(report)
    }

    /// Instantiates (or reuses) the pass for `call`.
    fn instance<'i>(
        &self,
        instances: &'i mut HashMap<String, Box<dyn Pass<M>>>,
        call: &PassCall,
    ) -> Result<&'i mut Box<dyn Pass<M>>, RunError> {
        let key = call.to_string();
        if !instances.contains_key(&key) {
            let created = self
                .registry
                .create_with(&call.name, &call.opts.without_reserved())
                .ok_or_else(|| RunError::UnknownPass {
                    name: call.name.clone(),
                    known: self.registry.names(),
                })?;
            let pass = created.map_err(|message| RunError::InvalidOptions {
                pass: call.name.clone(),
                message,
            })?;
            instances.insert(key.clone(), pass);
        }
        Ok(instances.get_mut(&key).expect("just inserted"))
    }

    /// The effective per-pass budgets for `call` (spec options override
    /// the pipeline-wide defaults).
    fn pass_budgets(&self, call: &PassCall) -> Result<(Option<u64>, Option<f64>), RunError> {
        let bad = |message| RunError::InvalidOptions {
            pass: call.name.clone(),
            message,
        };
        let ms = call
            .opts
            .get_parsed::<u64>("max-ms")
            .map_err(bad)?
            .or(self.budgets.max_pass_millis);
        let growth = call
            .opts
            .get_parsed::<f64>("max-growth")
            .map_err(bad)?
            .or(self.budgets.max_growth);
        Ok((ms, growth))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        m: &mut M,
        am: &mut AnalysisManager<M>,
        instances: &mut HashMap<String, Box<dyn Pass<M>>>,
        call: &PassCall,
        fixpoint_iteration: Option<usize>,
        report: &mut RunReport,
        pipeline_start: Instant,
    ) -> Result<StepOutcome, RunError> {
        let name = call.name.as_str();
        let (max_ms, max_growth) = self.pass_budgets(call)?;
        let threads = match call.opts.get_parsed::<usize>("parallel") {
            Ok(Some(n)) => n.max(1),
            Ok(None) => self.threads,
            Err(message) => {
                return Err(RunError::InvalidOptions {
                    pass: name.to_string(),
                    message,
                })
            }
        };
        // Per-pass symbolic verification (`verify-sym` / `verify-sym=N`).
        let sym_requested = call.opts.iter().any(|(k, _)| k == "verify-sym");
        let sym_budget = match call.opts.get_parsed::<u64>("verify-sym") {
            Ok(v) => v.unwrap_or(0),
            Err(message) => {
                return Err(RunError::InvalidOptions {
                    pass: name.to_string(),
                    message,
                })
            }
        };
        let sym = if sym_requested {
            match &self.sym_verifier {
                Some(sv) => Some(sv),
                None => {
                    return Err(RunError::InvalidOptions {
                        pass: name.to_string(),
                        message: "option `verify-sym` requires a symbolic verifier \
                                  (see PassManager::with_sym_verifier)"
                            .into(),
                    })
                }
            }
        } else {
            None
        };
        let pass = self.instance(instances, call)?;

        let invocation = self.invocations.get();
        self.invocations.set(invocation + 1);
        let plan = self
            .injection
            .as_ref()
            .filter(|plan| plan.fires(invocation, name));
        let injected = plan.map(|plan| plan.kind);
        // A function-targeted panic is injected inside the sharded
        // executor (via the ExecContext), not ahead of the pass body.
        let injected_func = plan.and_then(|plan| plan.func);

        let recovering = self.policy != FaultPolicy::Abort;
        let size_before = if max_growth.is_some() {
            m.size_hint()
        } else {
            0
        };
        pass.prepare(ExecContext {
            threads,
            contain_faults: recovering,
            inject_func_panic: if injected == Some(InjectKind::Panic) {
                injected_func
            } else {
                None
            },
        });
        let snapshot_cost = if recovering {
            let engine = self
                .snapshots
                .as_ref()
                .expect("recovering policies are installed with a snapshot engine");
            let scope = pass.may_mutate(m);
            let mut engine = engine.borrow_mut();
            engine.capture(m, &scope);
            Some(engine.last_cost())
        } else {
            None
        };

        // The symbolic verifier needs the pre-pass IR to prove against.
        let sym_before = sym.map(|sv| (sv.capture)(m));
        // Debug builds audit the pass's mutation declaration against the
        // functions it actually moved (see `audit_declaration`).
        #[cfg(debug_assertions)]
        let audit_before = audit_snapshot(m);

        // --- run the pass body ---------------------------------------
        let t0 = Instant::now();
        let body = |m: &mut M, am: &mut AnalysisManager<M>, pass: &mut Box<dyn Pass<M>>| {
            if injected == Some(InjectKind::Panic) && injected_func.is_none() {
                panic!("fault injection: panic in `{name}` at invocation {invocation}");
            }
            pass.run(m, am)
        };
        let result: Result<Result<_, PassError>, String> = if recovering {
            catch_unwind(AssertUnwindSafe(|| body(m, am, pass))).map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".to_string())
            })
        } else {
            // Abort: let panics propagate with their original backtrace.
            Ok(body(m, am, pass))
        };
        let time = t0.elapsed();

        // --- classify the outcome into (success, fault) ---------------
        let mut fault: Option<FaultCause> = None;
        let mut success: Option<crate::pass::PassOutcome<M>> = None;
        match result {
            Err(panic_msg) => fault = Some(FaultCause::Panic(panic_msg)),
            Ok(Err(error)) => {
                if recovering {
                    fault = Some(FaultCause::PassFailed(error.message.clone()));
                } else {
                    return Err(RunError::PassFailed {
                        pass: name.to_string(),
                        error,
                    });
                }
            }
            Ok(Ok(outcome)) => {
                #[cfg(debug_assertions)]
                if let Some(before) = &audit_before {
                    audit_declaration(name, before, m, &outcome);
                }
                if outcome.changed {
                    // Fingerprint-capable IRs resolve every scope lazily
                    // ("drop what actually changed") at the next query;
                    // others get the legacy push-invalidation (wholesale
                    // for `None`/`All`, per-function for `Funcs`,
                    // nothing for `Handled`).
                    am.note_mutation(m, &outcome.mutated);
                }

                // Verification (a forced injection counts as a failure).
                let verify_msg = if injected == Some(InjectKind::VerifyFail) {
                    Some(format!(
                        "fault injection: forced verifier failure after `{name}`"
                    ))
                } else if self.verify_between_passes {
                    match &self.verifier {
                        Some(v) => v(m, am).err(),
                        None => None,
                    }
                } else {
                    None
                };
                // Symbolic per-pass verification, only once the plain
                // verifier accepted the IR: prove pre-pass ≡ post-pass.
                // An unchanged pass is trivially equivalent — skip it.
                let verify_msg = verify_msg.or_else(|| match (&sym, &sym_before) {
                    (Some(sv), Some(before)) if outcome.changed => {
                        (sv.check)(before, m, sym_budget)
                            .err()
                            .map(|e| format!("verify-sym: {e}"))
                    }
                    _ => None,
                });

                if let Some(message) = verify_msg {
                    fault = Some(FaultCause::VerifyFailed(message));
                } else if let Some(v) =
                    self.budget_violation(injected, time, max_ms, max_growth, size_before, m)
                {
                    fault = Some(FaultCause::Budget(v));
                } else {
                    success = Some(outcome);
                }
            }
        }

        // --- fault handling -------------------------------------------
        if let Some(cause) = fault {
            if !recovering {
                return Err(match cause {
                    FaultCause::Panic(message) => {
                        unreachable!("panics are not caught under Abort: {message}")
                    }
                    FaultCause::PassFailed(message) => RunError::PassFailed {
                        pass: name.to_string(),
                        error: PassError::msg(message),
                    },
                    FaultCause::VerifyFailed(message) => RunError::VerifyFailed {
                        pass: name.to_string(),
                        message,
                    },
                    FaultCause::Budget(violation) => RunError::BudgetExceeded {
                        pass: name.to_string(),
                        violation,
                    },
                });
            }

            // Roll back to the last verified IR; every cached analysis
            // may describe the discarded state, so drop them all.
            self.snapshots
                .as_ref()
                .expect("recovering policies are installed with a snapshot engine")
                .borrow_mut()
                .restore(m);
            am.invalidate_all();

            let action = match self.policy {
                FaultPolicy::SkipPass => RecoveryAction::RolledBack,
                FaultPolicy::StopPipeline => RecoveryAction::Stopped,
                FaultPolicy::Abort => unreachable!("handled above"),
            };
            report.passes.push(PassRun {
                name: name.to_string(),
                time,
                changed: false,
                stats: Vec::new(),
                fixpoint_iteration,
                annotations: vec![("degraded".into(), cause.to_string())],
                snapshot: snapshot_cost,
                profile: None,
            });
            report.degradations.push(Degradation {
                pass: name.to_string(),
                invocation,
                cause,
                fixpoint_iteration,
                func_index: None,
                func: None,
                action,
            });
            return Ok(match action {
                RecoveryAction::RolledBack => StepOutcome::Ran(false),
                RecoveryAction::Stopped => StepOutcome::Stop,
            });
        }

        // --- success ---------------------------------------------------
        let outcome = success.expect("no fault implies a successful outcome");
        if let Some(engine) = &self.snapshots {
            if recovering {
                engine
                    .borrow_mut()
                    .commit(&outcome.mutated, outcome.changed);
            }
        }
        let changed = outcome.changed;
        let mut run = PassRun {
            name: name.to_string(),
            time,
            changed,
            stats: outcome.stats,
            fixpoint_iteration,
            annotations: Vec::new(),
            snapshot: snapshot_cost,
            profile: outcome.profile.clone(),
        };
        if let Some(obs) = &self.observer {
            obs(m, &mut run);
        }
        report.passes.push(run);

        // Faults a sharded pass contained to single functions: the pass
        // as a whole succeeded (and verified) with those functions rolled
        // back to their pre-pass state; record them as function-scoped
        // degradations.
        let contained = outcome
            .profile
            .as_ref()
            .map(|p| p.contained.clone())
            .unwrap_or_default();
        if !contained.is_empty() {
            let action = match self.policy {
                FaultPolicy::SkipPass => RecoveryAction::RolledBack,
                FaultPolicy::StopPipeline => RecoveryAction::Stopped,
                FaultPolicy::Abort => unreachable!("faults are only contained when recovering"),
            };
            for c in contained {
                report.degradations.push(Degradation {
                    pass: name.to_string(),
                    invocation,
                    cause: FaultCause::Panic(c.message),
                    fixpoint_iteration,
                    func_index: Some(c.func_index),
                    func: Some(c.func),
                    action,
                });
            }
            if action == RecoveryAction::Stopped {
                return Ok(StepOutcome::Stop);
            }
        }

        // Pipeline time budget: checked between passes, charged to the
        // pass that crossed the line. The pass itself succeeded and
        // verified, so there is nothing to roll back — the pipeline just
        // ends here (or errors under Abort).
        if let Some(limit_ms) = self.budgets.max_pipeline_millis {
            let elapsed = pipeline_start.elapsed();
            if elapsed > Duration::from_millis(limit_ms) {
                let violation = BudgetViolation::PipelineTime {
                    limit_ms,
                    actual_ms: (elapsed.as_millis() as u64).max(1),
                };
                if !recovering {
                    return Err(RunError::BudgetExceeded {
                        pass: name.to_string(),
                        violation,
                    });
                }
                report.degradations.push(Degradation {
                    pass: name.to_string(),
                    invocation,
                    cause: FaultCause::Budget(violation),
                    fixpoint_iteration,
                    func_index: None,
                    func: None,
                    action: RecoveryAction::Stopped,
                });
                return Ok(StepOutcome::Stop);
            }
        }

        Ok(StepOutcome::Ran(changed))
    }

    /// Checks the per-pass budgets (and the injected blowup) after a
    /// successful pass body.
    fn budget_violation(
        &self,
        injected: Option<InjectKind>,
        time: Duration,
        max_ms: Option<u64>,
        max_growth: Option<f64>,
        size_before: usize,
        m: &M,
    ) -> Option<BudgetViolation> {
        if injected == Some(InjectKind::BudgetBlowup) {
            return Some(BudgetViolation::PassTime {
                limit_ms: 0,
                actual_ms: (time.as_millis() as u64).max(1),
            });
        }
        if let Some(limit_ms) = max_ms {
            if time > Duration::from_millis(limit_ms) {
                return Some(BudgetViolation::PassTime {
                    limit_ms,
                    actual_ms: (time.as_millis() as u64).max(1),
                });
            }
        }
        if let Some(limit) = max_growth {
            if size_before > 0 {
                let after = m.size_hint();
                if after as f64 > size_before as f64 * limit {
                    return Some(BudgetViolation::Growth {
                        limit,
                        before: size_before,
                        after,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{FnPass, PassOutcome};
    use crate::spec::PassOptions;

    /// A toy IR: one "function" per vector slot holding a counter.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct Toy {
        vals: Vec<i64>,
    }

    impl IrUnit for Toy {
        type FuncKey = usize;
        fn func_keys(&self) -> Vec<usize> {
            (0..self.vals.len()).collect()
        }
        fn size_hint(&self) -> usize {
            self.vals.len()
        }
    }

    struct Sum;
    impl crate::Analysis<Toy> for Sum {
        type Output = i64;
        const NAME: &'static str = "sum";
        fn compute(m: &Toy, f: usize) -> i64 {
            m.vals[f]
        }
    }

    fn registry() -> PassRegistry<Toy> {
        let mut r = PassRegistry::new();
        // Decrements every positive slot by one.
        r.register("dec", || {
            Box::new(FnPass::infallible("dec", |m: &mut Toy, _am| {
                let mut n = 0;
                for v in &mut m.vals {
                    if *v > 0 {
                        *v -= 1;
                        n += 1;
                    }
                }
                PassOutcome::from_stats(vec![("decremented", n)])
            }))
        });
        // Reads the analysis but changes nothing.
        r.register("observe", || {
            Box::new(FnPass::infallible("observe", |m: &mut Toy, am| {
                for f in m.func_keys() {
                    let _ = am.get::<Sum>(m, f);
                }
                PassOutcome::unchanged()
            }))
        });
        // Doubles the slot count (for growth-budget tests).
        r.register("grow", || {
            Box::new(FnPass::infallible("grow", |m: &mut Toy, _am| {
                let extra: Vec<i64> = m.vals.clone();
                m.vals.extend(extra);
                PassOutcome::from_stats(vec![("grown", m.vals.len() as i64 / 2)])
            }))
        });
        // Panics when any slot is negative, after corrupting the state —
        // rollback must discard the corruption.
        r.register("landmine", || {
            Box::new(FnPass::infallible("landmine", |m: &mut Toy, _am| {
                if m.vals.iter().any(|&v| v < 0) {
                    m.vals.push(777); // half-done mutation a panic leaves behind
                    panic!("landmine stepped on");
                }
                PassOutcome::unchanged()
            }))
        });
        // Option-aware pass: `bump<by=N>` adds N to every slot.
        r.register_with("bump", |opts: &PassOptions| {
            if let Some(bad) = opts.unknown_keys(&["by"]).first() {
                return Err(format!("unknown option `{bad}` (expected `by`)"));
            }
            let by = opts.get_parsed::<i64>("by")?.unwrap_or(1);
            Ok(Box::new(FnPass::infallible(
                "bump",
                move |m: &mut Toy, _| {
                    for v in &mut m.vals {
                        *v += by;
                    }
                    PassOutcome::from_stats(vec![("bumped", by)])
                },
            )))
        });
        r
    }

    #[test]
    fn fixpoint_iterates_to_convergence() {
        let pm = PassManager::new(registry());
        let mut m = Toy { vals: vec![3, 1] };
        let spec = PipelineSpec::parse("fixpoint(dec)").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0, 0]);
        // 3 changing iterations + 1 confirming iteration.
        assert_eq!(report.passes.len(), 4);
        assert!(!report.passes.last().unwrap().changed);
        assert_eq!(report.passes[0].fixpoint_iteration, Some(0));
    }

    #[test]
    fn fixpoint_iteration_cap_holds() {
        let pm = PassManager::new(registry()).max_fixpoint_iters(2);
        let mut m = Toy { vals: vec![100] };
        let spec = PipelineSpec::parse("fixpoint(dec)").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(report.passes.len(), 2);
        assert_eq!(m.vals, vec![98]);
    }

    #[test]
    fn fixpoint_cap_from_spec_options_wins() {
        let pm = PassManager::new(registry()).max_fixpoint_iters(8);
        let mut m = Toy { vals: vec![100] };
        let spec = PipelineSpec::parse("fixpoint<max=3>(dec)").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(report.passes.len(), 3);
        assert_eq!(m.vals, vec![97]);
    }

    #[test]
    fn unknown_pass_is_reported_with_known_names() {
        let pm = PassManager::new(registry());
        let mut m = Toy::default();
        let spec = PipelineSpec::parse("dec,nope").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown pass `nope`"), "{msg}");
        assert!(msg.contains("dec"), "{msg}");
        // Validation fails before anything runs.
        assert_eq!(m.vals, Vec::<i64>::new());
    }

    #[test]
    fn pass_options_reach_the_constructor() {
        let pm = PassManager::new(registry());
        let mut m = Toy { vals: vec![10] };
        let spec = PipelineSpec::parse("bump<by=5>,bump").unwrap();
        pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![16], "bump<by=5> then default bump<by=1>");
    }

    #[test]
    fn bad_options_error_names_the_pass() {
        let pm = PassManager::new(registry());
        let mut m = Toy { vals: vec![1] };
        // Unknown key on an option-aware pass.
        let spec = PipelineSpec::parse("bump<wat=3>").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        assert!(
            matches!(&err, RunError::InvalidOptions { pass, .. } if pass == "bump"),
            "{err}"
        );
        // Any non-budget key on an option-free pass.
        let spec = PipelineSpec::parse("dec<fast>").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        assert!(err.to_string().contains("takes no options"), "{err}");
        // Budget keys are fine on option-free passes.
        let spec = PipelineSpec::parse("dec<max-ms=10000>").unwrap();
        pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0]);
    }

    #[test]
    fn analyses_cache_until_mutation() {
        let pm = PassManager::new(registry());
        let mut m = Toy { vals: vec![1, 2] };
        // observe,observe: second is all hits. dec mutates, then observe
        // must recompute.
        let spec = PipelineSpec::parse("observe,observe,dec,observe").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        let c = report.cache_counter("sum");
        assert_eq!(c.misses, 4, "2 funcs × (initial + post-mutation)");
        assert_eq!(c.hits, 2, "second observe is fully cached");
        assert_eq!(c.max_computes_between_invalidations, 1);
    }

    #[test]
    fn verifier_names_offending_pass() {
        let mut r = registry();
        r.register("break", || {
            Box::new(FnPass::infallible("break", |m: &mut Toy, _| {
                m.vals.push(-999);
                PassOutcome::from_stats(vec![("broke", 1)])
            }))
        });
        let pm = PassManager::new(r)
            .verify_between_passes(true)
            .with_verifier(|m: &Toy| {
                if m.vals.contains(&-999) {
                    Err("slot holds sentinel -999".into())
                } else {
                    Ok(())
                }
            });
        let mut m = Toy { vals: vec![1] };
        let spec = PipelineSpec::parse("dec,break,dec").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        match err {
            RunError::VerifyFailed { pass, message } => {
                assert_eq!(pass, "break");
                assert!(message.contains("sentinel"));
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }

    // ---- per-pass symbolic verification ------------------------------

    /// A Toy "equivalence" oracle: a pass is equivalence-preserving iff
    /// it keeps the slot count (dec/bump qualify, grow does not).
    fn slot_count_oracle(before: &Toy, after: &Toy) -> Result<(), String> {
        if before.vals.len() == after.vals.len() {
            Ok(())
        } else {
            Err(format!(
                "slot count {} -> {}",
                before.vals.len(),
                after.vals.len()
            ))
        }
    }

    #[test]
    fn verify_sym_option_checks_pass_equivalence() {
        let seen_budget = Rc::new(Cell::new(None));
        let sb = Rc::clone(&seen_budget);
        let pm = PassManager::new(registry()).with_sym_verifier(
            |m: &Toy| m.clone(),
            move |before, after, budget| {
                sb.set(Some(budget));
                slot_count_oracle(before, after)
            },
        );
        let mut m = Toy { vals: vec![2, 3] };
        let spec = PipelineSpec::parse("dec<verify-sym=128>").unwrap();
        pm.run(&mut m, &spec).unwrap();
        assert_eq!(seen_budget.get(), Some(128), "option value is the budget");
        assert_eq!(m.vals, vec![1, 2]);

        let mut m = Toy { vals: vec![1] };
        let spec = PipelineSpec::parse("grow<verify-sym>").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        match err {
            RunError::VerifyFailed { pass, message } => {
                assert_eq!(pass, "grow");
                assert!(message.contains("verify-sym"), "{message}");
                assert!(message.contains("1 -> 2"), "{message}");
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
        assert_eq!(seen_budget.get(), Some(0), "bare flag means default budget");
    }

    #[test]
    fn verify_sym_failure_degrades_and_rolls_back() {
        let pm = PassManager::new(registry())
            .with_sym_verifier(|m: &Toy| m.clone(), |b, a, _| slot_count_oracle(b, a))
            .on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![3, 1] };
        let spec = PipelineSpec::parse("grow<verify-sym>,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![2, 0], "grow rolled back, dec still ran");
        let d = report.degradation_of("grow").unwrap();
        assert!(
            matches!(&d.cause, FaultCause::VerifyFailed(msg) if msg.contains("verify-sym")),
            "{d:?}"
        );
    }

    #[test]
    fn verify_sym_requires_an_installed_verifier() {
        let pm = PassManager::new(registry());
        let mut m = Toy { vals: vec![1] };
        let spec = PipelineSpec::parse("dec<verify-sym>").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        assert!(
            matches!(&err, RunError::InvalidOptions { pass, .. } if pass == "dec"),
            "{err}"
        );
        assert!(err.to_string().contains("with_sym_verifier"), "{err}");
        assert_eq!(m.vals, vec![1], "nothing ran");
    }

    #[test]
    fn sym_verifier_only_runs_when_requested_and_changed() {
        let calls = Rc::new(Cell::new(0usize));
        let c = Rc::clone(&calls);
        let pm = PassManager::new(registry()).with_sym_verifier(
            |m: &Toy| m.clone(),
            move |_, _, _| {
                c.set(c.get() + 1);
                Ok(())
            },
        );
        let mut m = Toy { vals: vec![1] };
        // grow without the option: never checked. observe<verify-sym>
        // reports no change: trivially equivalent, skipped. Only
        // dec<verify-sym> (requested + changed) pays for a proof.
        let spec = PipelineSpec::parse("grow,observe<verify-sym>,dec<verify-sym>").unwrap();
        pm.run(&mut m, &spec).unwrap();
        assert_eq!(calls.get(), 1);
    }

    // ---- fault tolerance ---------------------------------------------

    #[test]
    fn injected_panic_rolls_back_bit_identical_to_skipping_the_pass() {
        let spec = PipelineSpec::parse("dec,grow,dec").unwrap();
        // Inject a panic at each invocation in turn; the result must be
        // bit-identical to the spec with that step removed.
        for n in 0..3usize {
            let pm = PassManager::new(registry())
                .on_fault(FaultPolicy::SkipPass)
                .with_fault_injection(FaultPlan::at_invocation(InjectKind::Panic, n));
            let mut faulted = Toy {
                vals: vec![3, 0, 5],
            };
            let report = pm.run(&mut faulted, &spec).unwrap();

            let mut steps = spec.steps.clone();
            steps.remove(n);
            let skipped_spec = PipelineSpec::new(steps);
            let pm2 = PassManager::new(registry());
            let mut skipped = Toy {
                vals: vec![3, 0, 5],
            };
            pm2.run(&mut skipped, &skipped_spec).unwrap();

            assert_eq!(faulted, skipped, "invocation {n}");
            assert_eq!(report.degradations.len(), 1);
            let d = &report.degradations[0];
            assert!(matches!(d.cause, FaultCause::Panic(_)), "{d:?}");
            assert_eq!(d.action, RecoveryAction::RolledBack);
            assert!(!report.stopped_early);
            // The degraded attempt still appears in the pass list.
            assert_eq!(report.passes.len(), 3);
            assert!(report.passes[n]
                .annotations
                .iter()
                .any(|(k, _)| k == "degraded"));
        }
    }

    #[test]
    fn rollback_discards_half_done_mutations() {
        // `landmine` pushes a bogus slot *before* panicking; the snapshot
        // restore must discard it.
        let pm = PassManager::new(registry()).on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![-1, 4] };
        let spec = PipelineSpec::parse("landmine,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![-1, 3], "no 777 slot; dec still ran");
        let d = report.degradation_of("landmine").unwrap();
        assert!(matches!(&d.cause, FaultCause::Panic(msg) if msg.contains("landmine")));
    }

    #[test]
    fn stop_pipeline_halts_at_the_fault() {
        let pm = PassManager::new(registry())
            .on_fault(FaultPolicy::StopPipeline)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::Panic, "grow"));
        let mut m = Toy { vals: vec![2, 2] };
        let spec = PipelineSpec::parse("dec,grow,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(
            m.vals,
            vec![1, 1],
            "first dec ran, grow rolled back, second dec never ran"
        );
        assert!(report.stopped_early);
        assert_eq!(report.degradations.len(), 1);
        assert_eq!(report.degradations[0].action, RecoveryAction::Stopped);
        assert_eq!(report.passes.len(), 2, "dec + degraded grow");
    }

    #[test]
    fn abort_policy_still_fails_fast_on_pass_errors() {
        let mut r = registry();
        r.register("fail", || {
            Box::new(FnPass::new("fail", |_: &mut Toy, _| {
                Err(PassError::msg("nope"))
            }))
        });
        let pm = PassManager::new(r);
        let mut m = Toy { vals: vec![1] };
        let spec = PipelineSpec::parse("fail").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        assert!(matches!(err, RunError::PassFailed { .. }), "{err}");
    }

    #[test]
    fn pass_error_degrades_under_skip() {
        let mut r = registry();
        r.register("fail", || {
            Box::new(FnPass::new("fail", |_: &mut Toy, _| {
                Err(PassError::msg("nope"))
            }))
        });
        let pm = PassManager::new(r).on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![1] };
        let spec = PipelineSpec::parse("fail,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0]);
        let d = report.degradation_of("fail").unwrap();
        assert!(matches!(&d.cause, FaultCause::PassFailed(msg) if msg == "nope"));
    }

    #[test]
    fn verifier_failure_degrades_and_rolls_back() {
        let mut r = registry();
        r.register("break", || {
            Box::new(FnPass::infallible("break", |m: &mut Toy, _| {
                m.vals.push(-999);
                PassOutcome::from_stats(vec![("broke", 1)])
            }))
        });
        let pm = PassManager::new(r)
            .verify_between_passes(true)
            .with_verifier(|m: &Toy| {
                if m.vals.contains(&-999) {
                    Err("slot holds sentinel -999".into())
                } else {
                    Ok(())
                }
            })
            .on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![2] };
        let spec = PipelineSpec::parse("dec,break,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0], "break rolled back, both decs ran");
        let d = report.degradation_of("break").unwrap();
        assert!(matches!(d.cause, FaultCause::VerifyFailed(_)));
    }

    #[test]
    fn injected_verify_failure_fires_even_without_a_verifier() {
        let pm = PassManager::new(registry())
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::VerifyFail, "dec"));
        let mut m = Toy { vals: vec![5] };
        let spec = PipelineSpec::parse("dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![5], "dec rolled back");
        assert!(matches!(
            report.degradation_of("dec").unwrap().cause,
            FaultCause::VerifyFailed(_)
        ));
    }

    #[test]
    fn growth_budget_contains_a_runaway_pass() {
        let pm = PassManager::new(registry()).on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![1, 2] };
        // grow doubles the module; a 1.5× budget forbids that.
        let spec = PipelineSpec::parse("grow<max-growth=1.5>,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0, 1], "grow rolled back, dec ran");
        let d = report.degradation_of("grow").unwrap();
        assert!(
            matches!(
                d.cause,
                FaultCause::Budget(BudgetViolation::Growth {
                    before: 2,
                    after: 4,
                    ..
                })
            ),
            "{d:?}"
        );
        // Within budget, the pass is kept.
        let pm = PassManager::new(registry()).on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![1, 2] };
        let spec = PipelineSpec::parse("grow<max-growth=2.0>").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals.len(), 4);
        assert!(report.degradations.is_empty());
    }

    #[test]
    fn growth_budget_errors_under_abort() {
        let pm = PassManager::new(registry()).with_budgets(Budgets {
            max_growth: Some(1.5),
            ..Budgets::none()
        });
        let mut m = Toy { vals: vec![1, 2] };
        let spec = PipelineSpec::parse("grow").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        assert!(matches!(err, RunError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn injected_budget_blowup_degrades() {
        let pm = PassManager::new(registry())
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::BudgetBlowup, "dec"));
        let mut m = Toy { vals: vec![5] };
        let spec = PipelineSpec::parse("dec,observe").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![5], "dec rolled back");
        assert!(matches!(
            report.degradation_of("dec").unwrap().cause,
            FaultCause::Budget(BudgetViolation::PassTime { limit_ms: 0, .. })
        ));
    }

    #[test]
    fn pipeline_time_budget_stops_early() {
        let pm = PassManager::new(registry())
            .on_fault(FaultPolicy::SkipPass)
            .with_budgets(Budgets {
                max_pipeline_millis: Some(0),
                ..Budgets::none()
            });
        let mut m = Toy { vals: vec![9] };
        let spec = PipelineSpec::parse("dec,dec,dec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        // The first pass completes (and is kept — it verified), then the
        // pipeline stops.
        assert_eq!(m.vals, vec![8]);
        assert!(report.stopped_early);
        assert!(matches!(
            report.degradations[0].cause,
            FaultCause::Budget(BudgetViolation::PipelineTime { .. })
        ));
    }

    // ---- function-sharded execution ----------------------------------

    use crate::parallel::{FuncOutcome, FuncPass, FuncPassAdapter, ShardedIr};

    impl ShardedIr for Toy {
        type Func = i64;
        fn detach_funcs(&mut self) -> Vec<(usize, i64)> {
            std::mem::take(&mut self.vals)
                .into_iter()
                .enumerate()
                .collect()
        }
        fn attach_funcs(&mut self, funcs: Vec<(usize, i64)>) {
            assert!(self.vals.is_empty());
            for (i, (k, v)) in funcs.into_iter().enumerate() {
                assert_eq!(i, k, "functions re-attach in key order");
                self.vals.push(v);
            }
        }
        fn clone_func(&self, key: usize) -> i64 {
            self.vals[key]
        }
        fn restore_func(&mut self, key: usize, func: i64) {
            self.vals[key] = func;
        }
        fn func_size_hint(&self, _key: usize) -> usize {
            1
        }
    }

    /// Function-scoped `dec`: decrements one positive slot.
    struct FDec;
    impl FuncPass<Toy> for FDec {
        fn name(&self) -> &'static str {
            "fdec"
        }
        fn run_on(
            &self,
            _shell: &Toy,
            _key: usize,
            v: &mut i64,
            _ctx: Option<&(dyn std::any::Any + Send + Sync)>,
        ) -> FuncOutcome {
            if *v > 0 {
                *v -= 1;
                FuncOutcome::from_stats(vec![("decremented", 1)])
            } else {
                FuncOutcome::unchanged()
            }
        }
    }

    fn registry_with_fdec() -> PassRegistry<Toy> {
        let mut r = registry();
        r.register("fdec", || Box::new(FuncPassAdapter::new(FDec)));
        r
    }

    type Fingerprint = Vec<(String, bool, Vec<(&'static str, i64)>)>;

    fn report_fingerprint(report: &RunReport) -> Fingerprint {
        report
            .passes
            .iter()
            .map(|p| (p.name.clone(), p.changed, p.stats.clone()))
            .collect()
    }

    #[test]
    fn sharded_pass_is_bit_identical_across_thread_counts() {
        let init = Toy {
            vals: vec![3, 0, 5, 1, 0, 2, 7, 4],
        };
        let spec = PipelineSpec::parse("fixpoint<max=16>(fdec)").unwrap();
        let mut serial = init.clone();
        let serial_report = PassManager::new(registry_with_fdec())
            .run(&mut serial, &spec)
            .unwrap();
        for threads in [2, 4, 8, 64] {
            let mut par = init.clone();
            let report = PassManager::new(registry_with_fdec())
                .with_threads(threads)
                .run(&mut par, &spec)
                .unwrap();
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(
                report_fingerprint(&report),
                report_fingerprint(&serial_report),
                "threads={threads}"
            );
        }
        assert_eq!(serial.vals, vec![0; 8]);
    }

    #[test]
    fn parallel_spec_option_overrides_the_manager() {
        let mut m = Toy {
            vals: vec![1, 2, 3],
        };
        let spec = PipelineSpec::parse("fdec<parallel=2>").unwrap();
        let report = PassManager::new(registry_with_fdec())
            .run(&mut m, &spec)
            .unwrap();
        assert_eq!(m.vals, vec![0, 1, 2]);
        let prof = report.passes[0].profile.as_ref().unwrap();
        assert_eq!(prof.shards.len(), 2);
        assert_eq!(prof.func_times.len(), 3);
    }

    #[test]
    fn sharded_panic_rolls_back_only_the_faulting_function() {
        for threads in [1, 4] {
            let pm = PassManager::new(registry_with_fdec())
                .with_threads(threads)
                .on_fault(FaultPolicy::SkipPass)
                .with_fault_injection("panic@fdec%2".parse().unwrap());
            let mut m = Toy {
                vals: vec![5, 6, 7, 8],
            };
            let spec = PipelineSpec::parse("fdec").unwrap();
            let report = pm.run(&mut m, &spec).unwrap();
            assert_eq!(
                m.vals,
                vec![4, 5, 7, 7],
                "function 2 rolled back, others decremented (threads={threads})"
            );
            assert_eq!(report.degradations.len(), 1);
            let d = &report.degradations[0];
            assert_eq!(d.func_index, Some(2));
            assert_eq!(d.func.as_deref(), Some("2"));
            assert_eq!(d.action, RecoveryAction::RolledBack);
            assert!(matches!(d.cause, FaultCause::Panic(_)));
            // The pass as a whole still counts as run-and-changed.
            assert!(report.passes[0].changed);
        }
    }

    #[test]
    fn uncontained_sharded_panic_propagates_under_abort() {
        let pm = PassManager::new(registry_with_fdec())
            .with_threads(4)
            .with_fault_injection("panic@fdec%1".parse().unwrap());
        let mut m = Toy {
            vals: vec![1, 2, 3],
        };
        let spec = PipelineSpec::parse("fdec").unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = pm.run(&mut m, &spec);
        }));
        assert!(result.is_err(), "Abort lets the shard panic propagate");
        assert_eq!(m.vals.len(), 3, "functions were still re-attached");
    }

    #[test]
    fn cow_snapshots_clone_less_than_full_clones() {
        let init = Toy {
            vals: vec![1, 0, 0, 0],
        };
        let spec = PipelineSpec::parse("fdec,fdec").unwrap();

        let pm = PassManager::new(registry_with_fdec())
            .with_cow_snapshots()
            .on_fault(FaultPolicy::SkipPass);
        let mut m = init.clone();
        let cow = pm.run(&mut m, &spec).unwrap().snapshots;
        // First fdec captures all 4 slots, mutates only slot 0; the
        // second capture reclones slot 0 and reuses the other 3.
        assert_eq!(cow.funcs_cloned, 5);
        assert_eq!(cow.funcs_reused, 3);
        assert_eq!(cow.units_cloned, 5);
        assert_eq!(cow.full_clones, 0);

        let pm = PassManager::new(registry_with_fdec())
            .with_full_clone_snapshots()
            .on_fault(FaultPolicy::SkipPass);
        let mut m = init.clone();
        let full = pm.run(&mut m, &spec).unwrap().snapshots;
        assert_eq!(full.full_clones, 2);
        assert_eq!(full.units_cloned, 8);
        assert!(cow.units_cloned < full.units_cloned);
    }

    #[test]
    fn cow_restore_survives_a_module_level_fault() {
        // A module-level pass (landmine: may_mutate = All) faulting under
        // the CoW engine must still roll back via the full-clone
        // fallback.
        let pm = PassManager::new(registry_with_fdec())
            .with_cow_snapshots()
            .on_fault(FaultPolicy::SkipPass);
        let mut m = Toy { vals: vec![-1, 4] };
        let spec = PipelineSpec::parse("landmine,fdec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![-1, 3], "no 777 slot; fdec still ran");
        assert!(report.degradation_of("landmine").is_some());
        assert_eq!(report.snapshots.full_clones, 1);
    }

    #[test]
    fn degradations_sort_by_invocation_then_function() {
        let pm = PassManager::new(registry_with_fdec())
            .with_threads(3)
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::Panic, "fdec").on_func(1));
        let mut m = Toy {
            vals: vec![2, 2, 2],
        };
        let spec = PipelineSpec::parse("fdec,fdec").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        let order: Vec<(usize, Option<usize>)> = report
            .degradations
            .iter()
            .map(|d| (d.invocation, d.func_index))
            .collect();
        assert_eq!(order, vec![(0, Some(1)), (1, Some(1))]);
        assert_eq!(m.vals, vec![0, 2, 0]);
    }

    #[test]
    fn degraded_pass_in_fixpoint_does_not_spin() {
        // A pass that always panics inside a fixpoint group contributes
        // changed=false after rollback, so the group still converges.
        let pm = PassManager::new(registry())
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::Panic, "grow"));
        let mut m = Toy { vals: vec![2] };
        let spec = PipelineSpec::parse("fixpoint(dec,grow)").unwrap();
        let report = pm.run(&mut m, &spec).unwrap();
        assert_eq!(m.vals, vec![0], "dec converged despite grow degrading");
        // grow degraded once per iteration it was attempted.
        assert!(report.degradations.iter().all(|d| d.pass == "grow"));
        assert!(!report.stopped_early);
    }
}
