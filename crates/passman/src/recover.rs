//! Fault policies and degradation records.
//!
//! A *fault* is anything that would previously have aborted a pipeline:
//! a pass panicking, a pass returning an error, the inter-pass verifier
//! rejecting the IR, or a budget being exceeded. The [`FaultPolicy`]
//! decides what the runner does with a fault; under the recovering
//! policies the module is rolled back to the snapshot taken before the
//! offending pass (the last verified IR) and the fault is recorded as a
//! [`Degradation`] in the [`RunReport`] instead of tearing the pipeline
//! down.
//!
//! `Envelope` is that sequence, written once for both kinds of
//! invocation: a pass run by the [`PassManager`](crate::PassManager) and
//! a cross-IR [`LowerStage`](crate::LowerStage).

use crate::budget::BudgetViolation;
use crate::fault::InjectKind;
use crate::parallel::ShardedIr;
use crate::pass::{Mutation, PassError};
use crate::runner::{PassRun, RunError, RunReport};
use crate::snapshot::CowEngine;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// What the runner does when a pass faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Fail fast (the pre-fault-tolerance behaviour): pass errors and
    /// verifier failures become [`RunError`]s, panics
    /// propagate, and the module is left as the failing pass left it.
    #[default]
    Abort,
    /// Roll the module back to the snapshot taken before the faulting
    /// pass, record a [`Degradation`], and continue with the next pass.
    SkipPass,
    /// Roll back like [`FaultPolicy::SkipPass`], but stop the pipeline:
    /// the module is left in its last verified state and the report is
    /// marked as stopped early.
    StopPipeline,
}

impl FaultPolicy {
    /// What a contained fault leads to (`None` under
    /// [`FaultPolicy::Abort`], which contains nothing).
    pub(crate) fn action(self) -> Option<RecoveryAction> {
        match self {
            FaultPolicy::Abort => None,
            FaultPolicy::SkipPass => Some(RecoveryAction::RolledBack),
            FaultPolicy::StopPipeline => Some(RecoveryAction::Stopped),
        }
    }
}

impl FromStr for FaultPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "abort" => Ok(FaultPolicy::Abort),
            "skip" | "skip-pass" => Ok(FaultPolicy::SkipPass),
            "stop" | "stop-pipeline" => Ok(FaultPolicy::StopPipeline),
            other => Err(format!(
                "unknown fault policy `{other}` (expected abort|skip|stop)"
            )),
        }
    }
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultPolicy::Abort => "abort",
            FaultPolicy::SkipPass => "skip",
            FaultPolicy::StopPipeline => "stop",
        })
    }
}

/// Why a pass was degraded.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultCause {
    /// The pass body panicked; the payload's message, if extractable.
    Panic(String),
    /// The pass returned a [`PassError`].
    PassFailed(String),
    /// The inter-pass verifier rejected the IR the pass produced.
    VerifyFailed(String),
    /// A per-pass or pipeline budget was exceeded.
    Budget(BudgetViolation),
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Panic(msg) => write!(f, "panic: {msg}"),
            FaultCause::PassFailed(msg) => write!(f, "pass error: {msg}"),
            FaultCause::VerifyFailed(msg) => write!(f, "verifier: {msg}"),
            FaultCause::Budget(v) => write!(f, "budget: {v}"),
        }
    }
}

/// What the runner did about a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Module rolled back to the pre-pass snapshot; pipeline continued.
    RolledBack,
    /// Module rolled back (where applicable) and the pipeline stopped.
    Stopped,
}

/// One contained fault: which pass, why, and what was done.
#[derive(Clone, Debug, PartialEq)]
pub struct Degradation {
    /// The faulting pass (spec name).
    pub pass: String,
    /// 0-based pass invocation index the fault happened at (the primary
    /// sort key of the deterministic degradation ordering).
    pub invocation: usize,
    /// Why it faulted.
    pub cause: FaultCause,
    /// `Some(i)` if the fault happened in iteration `i` of a
    /// `fixpoint(...)` group.
    pub fixpoint_iteration: Option<usize>,
    /// For a fault contained to one function of a sharded pass: the
    /// function's index in the stable function order (the secondary sort
    /// key). `None` for whole-pass faults, which sort first.
    pub func_index: Option<usize>,
    /// Rendered function key (e.g. `fn3`) for contained faults.
    pub func: Option<String>,
    /// What the runner did.
    pub action: RecoveryAction,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` degraded ({})", self.pass, self.cause)?;
        if let Some(func) = &self.func {
            write!(f, " [func {func}]")?;
        }
        if let Some(i) = self.fixpoint_iteration {
            write!(f, " [fix #{i}]")?;
        }
        match self.action {
            RecoveryAction::RolledBack => write!(f, " — rolled back, pipeline continued"),
            RecoveryAction::Stopped => write!(f, " — pipeline stopped"),
        }
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// One pass or stage invocation inside the fault envelope.
pub(crate) struct Envelope<'a> {
    /// Spec name (reports, errors, and injection messages).
    pub(crate) name: &'a str,
    /// 0-based invocation index in the pipeline.
    pub(crate) invocation: usize,
    /// `Some(i)` inside iteration `i` of a `fixpoint(...)` group.
    pub(crate) fixpoint_iteration: Option<usize>,
    /// The active fault policy.
    pub(crate) policy: FaultPolicy,
    /// The fault a [`FaultPlan`](crate::FaultPlan) injects here, if any.
    pub(crate) injected: Option<InjectKind>,
    /// Whether an injected panic targets one function of a sharded pass
    /// (the executor raises it) instead of the body as a whole.
    pub(crate) inject_in_func: bool,
    /// Per-invocation wall-time budget.
    pub(crate) max_ms: Option<u64>,
    /// Per-invocation size-growth budget.
    pub(crate) max_growth: Option<f64>,
}

/// What [`Envelope::run`] made of an invocation.
pub(crate) enum Contained<T> {
    /// The body succeeded and passed every check: its output, and its
    /// [`PassRun`] (time and snapshot cost filled in) for the caller to
    /// complete and record.
    Done(T, Box<PassRun>),
    /// A recovering policy contained a fault: the module was rolled back
    /// and the degraded run recorded.
    Degraded(RecoveryAction),
}

impl Envelope<'_> {
    /// Runs `body` over `m` (with `cx`, state the body and `check` share)
    /// inside the envelope:
    ///
    /// 1. under a recovering policy, `engine` captures `scope`;
    /// 2. an injected panic fires ahead of the body, which runs under
    ///    `catch_unwind` (recovering policies only — under
    ///    [`FaultPolicy::Abort`] panics propagate with their backtrace);
    /// 3. the outcome is classified: panic, then body error, then
    ///    `check`'s verdict (an injected verifier failure overrides it),
    ///    then the time and growth budgets (an injected blowup first);
    /// 4. a fault becomes a [`RunError`] under `Abort`; otherwise `m` is
    ///    restored from `engine` and a degraded [`PassRun`] plus its
    ///    [`Degradation`] go into `report`.
    ///
    /// `check` sees the module right after a successful body, with the
    /// engine in hand (to roll back functions a sharded pass contained).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<M: ShardedIr + Clone, C, T>(
        &self,
        m: &mut M,
        cx: &mut C,
        engine: &mut CowEngine<M>,
        scope: Mutation<M>,
        report: &mut RunReport,
        body: impl FnOnce(&mut M, &mut C) -> Result<T, PassError>,
        check: impl FnOnce(&mut M, &mut C, &mut CowEngine<M>, &T) -> Option<String>,
    ) -> Result<Contained<T>, RunError> {
        let action = self.policy.action();
        let snapshot = action.map(|_| engine.capture(m, &scope));
        let size_before = if self.max_growth.is_some() {
            m.size_hint()
        } else {
            0
        };

        let t0 = Instant::now();
        let exec = |m: &mut M, cx: &mut C| {
            if self.injected == Some(InjectKind::Panic) && !self.inject_in_func {
                panic!(
                    "fault injection: panic in `{}` at invocation {}",
                    self.name, self.invocation
                );
            }
            body(m, cx)
        };
        let result = match action {
            None => Ok(exec(m, cx)),
            Some(_) => {
                catch_unwind(AssertUnwindSafe(|| exec(m, cx))).map_err(|p| panic_message(&*p))
            }
        };
        let time = t0.elapsed();
        let pass_run = |annotations| PassRun {
            name: self.name.to_string(),
            time,
            changed: false,
            stats: Vec::new(),
            fixpoint_iteration: self.fixpoint_iteration,
            annotations,
            snapshot,
            profile: None,
        };

        let cause = match result {
            Err(message) => FaultCause::Panic(message),
            Ok(Err(error)) if action.is_none() => {
                return Err(RunError::PassFailed {
                    pass: self.name.to_string(),
                    error,
                })
            }
            Ok(Err(error)) => FaultCause::PassFailed(error.message),
            Ok(Ok(out)) => {
                let verdict = check(m, cx, engine, &out);
                if self.injected == Some(InjectKind::VerifyFail) {
                    FaultCause::VerifyFailed(format!(
                        "fault injection: forced verifier failure after `{}`",
                        self.name
                    ))
                } else if let Some(message) = verdict {
                    FaultCause::VerifyFailed(message)
                } else if let Some(v) = self.budget_violation(time, size_before, m) {
                    FaultCause::Budget(v)
                } else {
                    return Ok(Contained::Done(out, Box::new(pass_run(Vec::new()))));
                }
            }
        };
        let Some(action) = action else {
            return Err(self.run_error(cause));
        };
        engine.restore(m);
        report
            .passes
            .push(pass_run(vec![("degraded".into(), cause.to_string())]));
        report.degradations.push(self.degradation(cause, action));
        Ok(Contained::Degraded(action))
    }

    /// The [`RunError`] a fault becomes under [`FaultPolicy::Abort`].
    pub(crate) fn run_error(&self, cause: FaultCause) -> RunError {
        let pass = self.name.to_string();
        match cause {
            // Under Abort panics propagate and body errors return as-is
            // (keeping their payload) before classification.
            FaultCause::Panic(message) | FaultCause::PassFailed(message) => {
                unreachable!("not classified under Abort: {message}")
            }
            FaultCause::VerifyFailed(message) => RunError::VerifyFailed { pass, message },
            FaultCause::Budget(violation) => RunError::BudgetExceeded { pass, violation },
        }
    }

    /// A whole-invocation [`Degradation`] record.
    pub(crate) fn degradation(&self, cause: FaultCause, action: RecoveryAction) -> Degradation {
        Degradation {
            pass: self.name.to_string(),
            invocation: self.invocation,
            cause,
            fixpoint_iteration: self.fixpoint_iteration,
            func_index: None,
            func: None,
            action,
        }
    }

    /// The per-invocation budget check after a verified body (and the
    /// injected blowup).
    fn budget_violation<M: ShardedIr>(
        &self,
        time: Duration,
        size_before: usize,
        m: &M,
    ) -> Option<BudgetViolation> {
        let actual_ms = (time.as_millis() as u64).max(1);
        if self.injected == Some(InjectKind::BudgetBlowup) {
            return Some(BudgetViolation::PassTime {
                limit_ms: 0,
                actual_ms,
            });
        }
        if let Some(limit_ms) = self.max_ms.filter(|&l| time > Duration::from_millis(l)) {
            return Some(BudgetViolation::PassTime {
                limit_ms,
                actual_ms,
            });
        }
        let limit = self.max_growth.filter(|_| size_before > 0)?;
        let after = m.size_hint();
        (after as f64 > size_before as f64 * limit).then_some(BudgetViolation::Growth {
            limit,
            before: size_before,
            after,
        })
    }
}
