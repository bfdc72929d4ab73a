//! Cross-IR bridge stages: lowering one IR unit into a different IR unit
//! under the same fault policies, budgets, snapshots, and reporting as
//! ordinary passes.
//!
//! [`PassManager`](crate::PassManager) is generic over a single IR type,
//! so a translation step (MEMOIR → low-level IR) cannot be registered as
//! a [`Pass`](crate::Pass). [`LowerStage`] fills the gap: it runs a
//! bridging body `FnOnce(&mut A) -> Result<(B, stats), String>` with
//!
//! * panic isolation (`catch_unwind`) and input rollback under the
//!   recovering [`FaultPolicy`] variants, via a whole-module (`All`)
//!   capture of the input in the same [`CowEngine`] passes use (the input
//!   is the last verified IR: a faulted stage must leave it exactly as it
//!   found it);
//! * output verification (e.g. the target IR's structural verifier) and
//!   an optional *cross-IR check* comparing input and output (e.g.
//!   interpreter agreement on probe inputs) — both classified as
//!   [`FaultCause::VerifyFailed`](crate::FaultCause::VerifyFailed);
//! * per-stage time budgets and [`FaultPlan`] injection (`panic@lower`,
//!   `verify@lower`, `budget@lower`);
//! * a [`PassRun`](crate::PassRun) (and, on fault, a
//!   [`Degradation`](crate::Degradation)) appended to the
//!   caller's [`RunReport`], so lowering shows up in the same profile
//!   table as every other pass.
//!
//! The stage runs inside the same fault envelope as every pass
//! ([`crate::recover`]), so its fault classification is every pass's:
//! panic, then body error, then output verification, then cross-IR
//! check, then budgets.
//! Under [`FaultPolicy::Abort`] panics propagate and other faults map to
//! [`RunError`]; under `SkipPass`/`StopPipeline` the input is restored
//! and the stage reports [`StageOutcome::Degraded`]. Either recovering
//! policy marks the report `stopped_early`: unlike an ordinary skipped
//! pass, nothing downstream of a lowering stage can run without its
//! output, so the pipeline ends at the stage with the *input* IR as the
//! final result.

use crate::budget::Budgets;
use crate::fault::FaultPlan;
use crate::parallel::ShardedIr;
use crate::pass::{Mutation, PassError};
use crate::recover::{Contained, Envelope, FaultPolicy, RecoveryAction};
use crate::runner::{RunError, RunReport};
use crate::snapshot::CowEngine;

/// What a [`LowerStage`] run produced.
#[derive(Debug)]
pub enum StageOutcome<B> {
    /// The stage completed and verified; here is the lowered unit.
    Lowered(B),
    /// A recovering [`FaultPolicy`] contained a fault: the input was
    /// rolled back to its pre-stage state and no lowered unit exists.
    /// The [`Degradation`](crate::Degradation) is in the caller's
    /// [`RunReport`].
    Degraded {
        /// The [`RecoveryAction`] taken (`RolledBack` for `SkipPass`,
        /// `Stopped` for `StopPipeline`).
        action: RecoveryAction,
    },
}

impl<B> StageOutcome<B> {
    /// The lowered unit, if the stage completed.
    pub fn lowered(self) -> Option<B> {
        match self {
            StageOutcome::Lowered(b) => Some(b),
            StageOutcome::Degraded { .. } => None,
        }
    }
}

type OutputVerifier<B> = Box<dyn Fn(&B) -> Result<(), String>>;
type CrossCheck<A, B> = Box<dyn Fn(&A, &B) -> Result<(), String>>;

/// A cross-IR bridge stage (see the module docs).
///
/// `A` is the source IR unit (snapshotted for rollback under recovering
/// policies), `B` the target.
pub struct LowerStage<A, B> {
    name: String,
    policy: FaultPolicy,
    budgets: Budgets,
    verify_output: bool,
    output_verifier: Option<OutputVerifier<B>>,
    cross_check: Option<CrossCheck<A, B>>,
    injection: Option<FaultPlan>,
}

impl<A, B> std::fmt::Debug for LowerStage<A, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LowerStage")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("budgets", &self.budgets)
            .field("verify_output", &self.verify_output)
            .field("has_output_verifier", &self.output_verifier.is_some())
            .field("has_cross_check", &self.cross_check.is_some())
            .field("injection", &self.injection)
            .finish()
    }
}

impl<A, B> Default for LowerStage<A, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A, B> LowerStage<A, B> {
    /// A stage named `lower` with the [`FaultPolicy::Abort`] policy, no
    /// budgets, and no verifiers.
    pub fn new() -> Self {
        Self::named("lower")
    }

    /// A stage with an explicit spec name (used for reporting and as the
    /// [`FaultPlan`] target name).
    pub fn named(name: impl Into<String>) -> Self {
        LowerStage {
            name: name.into(),
            policy: FaultPolicy::Abort,
            budgets: Budgets::default(),
            verify_output: true,
            output_verifier: None,
            cross_check: None,
            injection: None,
        }
    }

    /// The stage's spec name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the fault policy (recovering policies snapshot the input and
    /// roll it back on fault).
    pub fn on_fault(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the stage budgets (`max_pass_millis` bounds the stage body;
    /// growth budgets do not apply across IRs and are ignored).
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Installs the output verifier (typically the target IR's
    /// structural verifier).
    pub fn with_output_verifier(mut self, v: impl Fn(&B) -> Result<(), String> + 'static) -> Self {
        self.output_verifier = Some(Box::new(v));
        self
    }

    /// Installs the cross-IR check, run after the output verifier
    /// (typically interpreter agreement between source and target on
    /// probe inputs).
    pub fn with_cross_check(mut self, c: impl Fn(&A, &B) -> Result<(), String> + 'static) -> Self {
        self.cross_check = Some(Box::new(c));
        self
    }

    /// Enables or disables output verification and the cross-IR check
    /// (both on by default when installed).
    pub fn verify_output(mut self, on: bool) -> Self {
        self.verify_output = on;
        self
    }

    /// Installs a deterministic fault-injection plan; plans targeting
    /// this stage's name (or the given invocation index) force a panic,
    /// verifier failure, or budget blowup.
    pub fn with_fault_injection(mut self, plan: FaultPlan) -> Self {
        self.injection = Some(plan);
        self
    }

    /// Whether the stage's output passes the output verifier and then
    /// the cross-IR check (`None` = accepted).
    fn verdict(&self, input: &A, out: &B) -> Option<String> {
        if !self.verify_output {
            return None;
        }
        self.output_verifier
            .as_ref()
            .and_then(|v| v(out).err())
            .or_else(|| {
                self.cross_check
                    .as_ref()
                    .and_then(|c| c(input, out).err())
                    .map(|msg| format!("cross-IR check failed: {msg}"))
            })
    }
}

impl<A: ShardedIr + Clone, B> LowerStage<A, B> {
    /// Runs the stage body over `input`, appending one
    /// [`PassRun`](crate::PassRun) (and, on a contained fault, one
    /// [`Degradation`](crate::Degradation)) to `report`.
    ///
    /// `invocation` is the stage's invocation index in the surrounding
    /// pipeline (used for `#N` fault-injection targets and recorded on
    /// any `Degradation`). The body returns the lowered unit plus flat
    /// report stats.
    pub fn run<F>(
        &self,
        input: &mut A,
        report: &mut RunReport,
        invocation: usize,
        body: F,
    ) -> Result<StageOutcome<B>, RunError>
    where
        F: FnOnce(&mut A) -> Result<(B, Vec<(&'static str, i64)>), String>,
    {
        let env = Envelope {
            name: &self.name,
            invocation,
            fixpoint_iteration: None,
            policy: self.policy,
            injected: self
                .injection
                .as_ref()
                .filter(|plan| plan.fires(invocation, &self.name))
                .map(|plan| plan.kind),
            // The stage has no functions to target: any injected panic
            // fires ahead of the body.
            inject_in_func: false,
            max_ms: self.budgets.max_pass_millis,
            // Growth is not comparable across IRs.
            max_growth: None,
        };
        // The body may mutate the input (normalization) before faulting,
        // and a faulted stage must leave the input exactly as it found it.
        let mut engine = CowEngine::new();
        let contained = env.run(
            input,
            &mut (),
            &mut engine,
            Mutation::All,
            report,
            |input, _| body(input).map_err(PassError::msg),
            |input, _, _, (out, _)| self.verdict(input, out),
        );
        report.snapshots.merge(engine.stats());
        match contained? {
            Contained::Done((out, stats), mut run) => {
                run.changed = true;
                run.stats = stats;
                report.passes.push(*run);
                Ok(StageOutcome::Lowered(out))
            }
            Contained::Degraded(action) => {
                // Nothing downstream can run without the stage's output.
                report.stopped_early = true;
                Ok(StageOutcome::Degraded { action })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetViolation;
    use crate::recover::FaultCause;
    use crate::toy::Toy;
    use std::time::Duration;

    type DoubleResult = Result<(Toy, Vec<(&'static str, i64)>), String>;

    /// The toy "lowering": every number, doubled.
    fn double(src: &mut Toy) -> DoubleResult {
        let vals: Vec<i64> = src.vals.iter().map(|v| v * 2).collect();
        let n = vals.len() as i64;
        Ok((Toy { vals }, vec![("lowered", n)]))
    }

    #[test]
    fn success_appends_a_pass_run_and_returns_the_output() {
        let mut src = Toy {
            vals: vec![1, 2, 3],
        };
        let mut report = RunReport::default();
        let stage = LowerStage::<Toy, Toy>::new();
        let out = stage.run(&mut src, &mut report, 0, double).unwrap();
        match out {
            StageOutcome::Lowered(d) => assert_eq!(d.vals, vec![2, 4, 6]),
            other => panic!("expected Lowered, got {other:?}"),
        }
        assert_eq!(report.passes.len(), 1);
        let run = &report.passes[0];
        assert_eq!(run.name, "lower");
        assert!(run.changed);
        assert_eq!(run.stat("lowered"), Some(3));
        assert!(!report.stopped_early);
    }

    #[test]
    fn body_error_aborts_with_pass_failed() {
        let mut src = Toy { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Toy, Toy>::new();
        let err = stage
            .run(&mut src, &mut report, 0, |_| Err("unsupported".into()))
            .unwrap_err();
        assert!(matches!(err, RunError::PassFailed { ref pass, .. } if pass == "lower"));
        assert!(report.passes.is_empty());
    }

    #[test]
    fn output_verifier_failure_aborts_with_verify_failed() {
        let mut src = Toy { vals: vec![1] };
        let mut report = RunReport::default();
        let stage =
            LowerStage::<Toy, Toy>::new().with_output_verifier(|_d: &Toy| Err("bad output".into()));
        let err = stage.run(&mut src, &mut report, 0, double).unwrap_err();
        assert!(
            matches!(err, RunError::VerifyFailed { ref message, .. } if message == "bad output")
        );
    }

    #[test]
    fn cross_check_failure_is_a_verify_fault() {
        let mut src = Toy { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Toy, Toy>::new()
            .with_cross_check(|_a: &Toy, _b: &Toy| Err("interp disagreement".into()));
        let err = stage.run(&mut src, &mut report, 0, double).unwrap_err();
        match err {
            RunError::VerifyFailed { message, .. } => {
                assert!(message.contains("cross-IR check failed"));
                assert!(message.contains("interp disagreement"));
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }

    #[test]
    fn panic_under_skip_rolls_back_and_degrades() {
        let mut src = Toy { vals: vec![7, 8] };
        let before = src.clone();
        let mut report = RunReport::default();
        let stage = LowerStage::<Toy, Toy>::new().on_fault(FaultPolicy::SkipPass);
        let out = stage
            .run(&mut src, &mut report, 2, |s: &mut Toy| {
                s.vals.clear(); // corrupt the input, then die
                panic!("lowering landmine");
            })
            .unwrap();
        assert!(matches!(
            out,
            StageOutcome::Degraded {
                action: RecoveryAction::RolledBack
            }
        ));
        assert_eq!(src, before, "input rolled back to pre-stage state");
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.pass, "lower");
        assert_eq!(d.invocation, 2);
        assert!(matches!(&d.cause, FaultCause::Panic(msg) if msg.contains("landmine")));
        assert!(report.stopped_early, "nothing can run past a dead stage");
        assert_eq!(report.snapshots.restores, 1);
        assert!(report.passes[0]
            .annotations
            .iter()
            .any(|(k, _)| k == "degraded"));
    }

    #[test]
    fn injected_faults_fire_by_stage_name() {
        for (plan, expect_cause) in [
            ("panic@lower", "panic"),
            ("verify@lower", "verify"),
            ("budget@lower", "budget"),
        ] {
            let mut src = Toy { vals: vec![1] };
            let mut report = RunReport::default();
            let stage = LowerStage::<Toy, Toy>::new()
                .on_fault(FaultPolicy::StopPipeline)
                .with_fault_injection(plan.parse().unwrap());
            let out = stage.run(&mut src, &mut report, 0, double).unwrap();
            assert!(
                matches!(
                    out,
                    StageOutcome::Degraded {
                        action: RecoveryAction::Stopped
                    }
                ),
                "{plan}"
            );
            let d = &report.degradations[0];
            let matched = match expect_cause {
                "panic" => matches!(d.cause, FaultCause::Panic(_)),
                "verify" => matches!(d.cause, FaultCause::VerifyFailed(_)),
                _ => matches!(d.cause, FaultCause::Budget(_)),
            };
            assert!(matched, "{plan}: {:?}", d.cause);
        }
    }

    #[test]
    fn injection_targeting_other_stage_does_not_fire() {
        let mut src = Toy { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Toy, Toy>::new()
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection("panic@dce".parse().unwrap());
        let out = stage.run(&mut src, &mut report, 0, double).unwrap();
        assert!(matches!(out, StageOutcome::Lowered(_)));
        assert!(report.degradations.is_empty());
    }

    #[test]
    fn pass_time_budget_is_enforced() {
        let mut src = Toy { vals: vec![1] };
        let mut report = RunReport::default();
        let stage =
            LowerStage::<Toy, Toy>::new().with_budgets(Budgets::parse("pass-ms=0").unwrap());
        let err = stage
            .run(&mut src, &mut report, 0, |s: &mut Toy| {
                std::thread::sleep(Duration::from_millis(5));
                double(s)
            })
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::BudgetExceeded {
                violation: BudgetViolation::PassTime { .. },
                ..
            }
        ));
    }
}
