//! The [`Pass`] trait, pass outcomes, and the name → constructor registry.

use crate::analysis::AnalysisManager;
use crate::parallel::{ExecContext, FuncPassProfile};
use crate::spec::PassOptions;
use crate::IrUnit;
use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which functions a pass mutated — its analysis-invalidation declaration.
///
/// The [`AnalysisManager`] re-hashes only the declared functions and
/// drops the cached analyses of those whose content fingerprint moved; a
/// pass that cannot name what it touched should declare
/// [`Mutation::All`]. Debug builds audit `Funcs` declarations.
pub enum Mutation<M: IrUnit> {
    /// Nothing changed; all cached analyses stay valid.
    None,
    /// Exactly these functions were mutated.
    Funcs(Vec<M::FuncKey>),
    /// Assume everything changed (also covers added/removed functions).
    All,
}

impl<M: IrUnit> Clone for Mutation<M> {
    fn clone(&self) -> Self {
        match self {
            Mutation::None => Mutation::None,
            Mutation::Funcs(fs) => Mutation::Funcs(fs.clone()),
            Mutation::All => Mutation::All,
        }
    }
}

impl<M: IrUnit> std::fmt::Debug for Mutation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::None => f.write_str("None"),
            Mutation::Funcs(fs) => f.debug_tuple("Funcs").field(fs).finish(),
            Mutation::All => f.write_str("All"),
        }
    }
}

impl<M: IrUnit> PartialEq for Mutation<M> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Mutation::None, Mutation::None) | (Mutation::All, Mutation::All) => true,
            (Mutation::Funcs(a), Mutation::Funcs(b)) => a == b,
            _ => false,
        }
    }
}

impl<M: IrUnit> Eq for Mutation<M> {}

/// The result of running one pass: a changed-bit, flat statistics for the
/// unified report, and the invalidation declaration.
pub struct PassOutcome<M: IrUnit> {
    /// Whether the pass changed the IR at all (drives `fixpoint(...)`).
    pub changed: bool,
    /// Which functions were mutated.
    pub mutated: Mutation<M>,
    /// Flat, serde-friendly `(key, value)` statistics.
    pub stats: Vec<(&'static str, i64)>,
    /// Per-function execution profile, populated by function-sharded
    /// passes (see [`FuncPassAdapter`](crate::parallel::FuncPassAdapter)).
    pub profile: Option<FuncPassProfile>,
}

impl<M: IrUnit> Clone for PassOutcome<M> {
    fn clone(&self) -> Self {
        PassOutcome {
            changed: self.changed,
            mutated: self.mutated.clone(),
            stats: self.stats.clone(),
            profile: self.profile.clone(),
        }
    }
}

impl<M: IrUnit> std::fmt::Debug for PassOutcome<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassOutcome")
            .field("changed", &self.changed)
            .field("mutated", &self.mutated)
            .field("stats", &self.stats)
            .field("profile", &self.profile)
            .finish()
    }
}

impl<M: IrUnit> PassOutcome<M> {
    /// An outcome that changed nothing.
    pub fn unchanged() -> Self {
        PassOutcome {
            changed: false,
            mutated: Mutation::None,
            stats: Vec::new(),
            profile: None,
        }
    }

    /// An outcome computed from statistics: changed iff any stat is
    /// nonzero; a change invalidates all functions unless narrowed with
    /// [`PassOutcome::with_mutated`].
    pub fn from_stats(stats: Vec<(&'static str, i64)>) -> Self {
        let changed = stats.iter().any(|&(_, v)| v != 0);
        PassOutcome {
            changed,
            mutated: if changed {
                Mutation::All
            } else {
                Mutation::None
            },
            stats,
            profile: None,
        }
    }

    /// Overrides the changed-bit (for passes whose stats do not capture
    /// every mutation).
    pub fn with_changed(mut self, changed: bool) -> Self {
        self.changed = changed;
        if changed && self.mutated == Mutation::None {
            self.mutated = Mutation::All;
        }
        self
    }

    /// Narrows the invalidation declaration.
    pub fn with_mutated(mut self, mutated: Mutation<M>) -> Self {
        self.mutated = mutated;
        self
    }
}

/// A failure inside a pass (e.g. SSA construction rejecting the input).
///
/// Carries an optional typed payload so drivers can surface their own
/// error types (`compile` downcasts it back to `ConstructError`).
#[derive(Debug)]
pub struct PassError {
    /// Human-readable failure description.
    pub message: String,
    /// Optional typed payload for the driver.
    pub payload: Option<Box<dyn Any>>,
}

impl PassError {
    /// A message-only failure.
    pub fn msg(message: impl Into<String>) -> Self {
        PassError {
            message: message.into(),
            payload: None,
        }
    }

    /// A failure carrying a typed payload.
    pub fn with_payload(message: impl Into<String>, payload: impl Any) -> Self {
        PassError {
            message: message.into(),
            payload: Some(Box::new(payload)),
        }
    }
}

/// A named transformation over an IR unit.
pub trait Pass<M: IrUnit> {
    /// The registry/spec name of this pass (e.g. `"constprop"`).
    fn name(&self) -> &'static str;

    /// Hands the pass its per-invocation [`ExecContext`] (worker thread
    /// count, fault-containment flag) right before [`run`](Pass::run).
    /// Module-level passes can ignore it; the default does nothing.
    fn prepare(&mut self, _cx: ExecContext) {}

    /// Which functions [`run`](Pass::run) *may* mutate — the snapshot
    /// scope for the fault-recovery path. A pass returning
    /// `Mutation::Funcs(keys)` additionally promises it will not touch
    /// the module shell (types, externs, entry) nor add or remove
    /// functions. The conservative default is everything.
    fn may_mutate(&self, _m: &M) -> Mutation<M> {
        Mutation::All
    }

    /// Runs the pass. Analyses should be requested through `am` so they
    /// are shared with other passes; the runner marks `am` stale
    /// according to the outcome's [`Mutation`].
    fn run(&mut self, m: &mut M, am: &mut AnalysisManager<M>) -> Result<PassOutcome<M>, PassError>;
}

/// A [`Pass`] built from a name and a closure (the common adapter shape).
pub struct FnPass<M: IrUnit> {
    name: &'static str,
    #[allow(clippy::type_complexity)]
    f: Box<dyn FnMut(&mut M, &mut AnalysisManager<M>) -> Result<PassOutcome<M>, PassError>>,
}

impl<M: IrUnit> std::fmt::Debug for FnPass<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnPass").field("name", &self.name).finish()
    }
}

impl<M: IrUnit> FnPass<M> {
    /// Wraps a closure as a pass.
    pub fn new(
        name: &'static str,
        f: impl FnMut(&mut M, &mut AnalysisManager<M>) -> Result<PassOutcome<M>, PassError> + 'static,
    ) -> Self {
        FnPass {
            name,
            f: Box::new(f),
        }
    }

    /// Wraps an infallible closure as a pass.
    pub fn infallible(
        name: &'static str,
        mut f: impl FnMut(&mut M, &mut AnalysisManager<M>) -> PassOutcome<M> + 'static,
    ) -> Self {
        FnPass {
            name,
            f: Box::new(move |m, am| Ok(f(m, am))),
        }
    }
}

impl<M: IrUnit> Pass<M> for FnPass<M> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, m: &mut M, am: &mut AnalysisManager<M>) -> Result<PassOutcome<M>, PassError> {
        (self.f)(m, am)
    }
}

type Ctor<M> = Rc<dyn Fn(&PassOptions) -> Result<Box<dyn Pass<M>>, String>>;

/// Maps spec names to pass constructors.
///
/// Constructors receive the [`PassOptions`] attached at the spec call
/// site (minus the runner-reserved budget keys). Passes registered with
/// [`register`](PassRegistry::register) accept no options and reject any
/// they are given; option-aware passes use
/// [`register_with`](PassRegistry::register_with).
pub struct PassRegistry<M: IrUnit> {
    ctors: BTreeMap<&'static str, Ctor<M>>,
}

impl<M: IrUnit> std::fmt::Debug for PassRegistry<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl<M: IrUnit> Default for PassRegistry<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: IrUnit> PassRegistry<M> {
    /// An empty registry.
    pub fn new() -> Self {
        PassRegistry {
            ctors: BTreeMap::new(),
        }
    }

    /// Registers an option-free pass constructor under `name`. Later
    /// registrations shadow earlier ones. The pass rejects any call-site
    /// option (other than the runner-reserved budget keys) with an error
    /// naming the pass, so `constprop<bogus>` fails loudly instead of
    /// silently ignoring the typo.
    pub fn register(&mut self, name: &'static str, ctor: impl Fn() -> Box<dyn Pass<M>> + 'static) {
        self.ctors.insert(
            name,
            Rc::new(move |opts: &PassOptions| {
                if let Some((key, _)) = opts.iter().next() {
                    return Err(format!("pass `{name}` takes no options (got `{key}`)"));
                }
                Ok(ctor())
            }),
        );
    }

    /// Registers an option-aware pass constructor under `name`. The
    /// constructor receives call-site options (reserved budget keys
    /// already stripped) and should reject unknown keys.
    pub fn register_with(
        &mut self,
        name: &'static str,
        ctor: impl Fn(&PassOptions) -> Result<Box<dyn Pass<M>>, String> + 'static,
    ) {
        self.ctors.insert(name, Rc::new(ctor));
    }

    /// Instantiates the pass registered under `name` with no options.
    pub fn create(&self, name: &str) -> Option<Box<dyn Pass<M>>> {
        self.create_with(name, &PassOptions::none())
            .and_then(Result::ok)
    }

    /// Instantiates the pass registered under `name` with the given
    /// options. `None` if the name is unknown; `Some(Err(_))` if the
    /// constructor rejected the options.
    pub fn create_with(
        &self,
        name: &str,
        opts: &PassOptions,
    ) -> Option<Result<Box<dyn Pass<M>>, String>> {
        self.ctors.get(name).map(|c| c(opts))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.ctors.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.ctors.keys().copied().collect()
    }
}
