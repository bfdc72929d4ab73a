//! Modules: the compilation unit holding functions, externs, and types.

use crate::ids::{ExternId, FuncId, IdMap, TypeId};
use crate::{Form, Function, TypeTable};

/// Summarized effects of an external (unknown) function, used under partial
/// compilation (§V): externally visible behaviour must be assumed where not
/// summarized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExternEffects {
    /// May read collection arguments.
    pub reads_args: bool,
    /// May mutate collection arguments.
    pub writes_args: bool,
    /// Has effects beyond its arguments (I/O, globals).
    pub opaque: bool,
}

impl ExternEffects {
    /// A pure summarized computation (like the paper's `check_cost` /
    /// `check_opt`): reads its arguments, no side effects.
    pub fn pure_reader() -> Self {
        ExternEffects {
            reads_args: true,
            writes_args: false,
            opaque: false,
        }
    }

    /// Fully unknown code: assume everything.
    pub fn unknown() -> Self {
        ExternEffects {
            reads_args: true,
            writes_args: true,
            opaque: true,
        }
    }
}

/// Declaration of an external function.
#[derive(Clone, Debug)]
pub struct ExternDecl {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<TypeId>,
    /// Return types.
    pub ret_tys: Vec<TypeId>,
    /// Effect summary.
    pub effects: ExternEffects,
}

/// A MEMOIR module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Type table (interned types + object type definitions).
    pub types: TypeTable,
    /// Function definitions.
    pub funcs: IdMap<FuncId, Function>,
    /// External declarations.
    pub externs: IdMap<ExternId, ExternDecl>,
    /// The designated entry function, if any (used by the interpreter and
    /// by transformations that thread state from "the beginning of the
    /// program's entry function", §V).
    pub entry: Option<FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f)
    }

    /// Declares an external function.
    pub fn add_extern(&mut self, decl: ExternDecl) -> ExternId {
        self.externs.push(decl)
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }

    /// Total reachable instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|(_, f)| f.live_inst_count()).sum()
    }

    /// Module-wide collection census: the paper's Table III counts.
    pub fn collection_census(&self) -> CollectionCensus {
        let mut census = CollectionCensus::default();
        for (_, f) in self.funcs.iter() {
            census.allocations += f.collection_allocations();
            census.ssa_variables += f.collection_values(&self.types);
        }
        census
    }

    /// Whether every function is in the given form.
    pub fn all_in_form(&self, form: Form) -> bool {
        self.funcs.iter().all(|(_, f)| f.form == form)
    }
}

/// MEMOIR modules can be driven by the generic `passman` pass-manager
/// framework; functions are keyed by [`FuncId`].
impl passman::IrUnit for Module {
    type FuncKey = FuncId;

    fn func_keys(&self) -> Vec<FuncId> {
        self.funcs.ids().collect()
    }

    fn size_hint(&self) -> usize {
        self.inst_count()
    }

    fn supports_fingerprints(&self) -> bool {
        true
    }

    /// Callees are `FuncId` indices, which are positions in `func_keys`.
    fn local_fingerprint(&self, f: FuncId) -> passman::LocalFingerprint {
        crate::fingerprint::local_structure(&self.funcs[f])
    }

    /// The type and extern tables give raw type/extern ids their meaning.
    fn fingerprint_context(&self) -> Option<u64> {
        Some(crate::fingerprint::table_hash(self))
    }
}

/// Functions detach from the module shell (name, types, externs, entry
/// stay behind), enabling function-sharded passes and per-function
/// copy-on-write snapshots.
impl passman::ShardedIr for Module {
    type Func = Function;

    fn detach_funcs(&mut self) -> Vec<(FuncId, Function)> {
        self.funcs.take_entries()
    }

    fn attach_funcs(&mut self, funcs: Vec<(FuncId, Function)>) {
        debug_assert!(self.funcs.is_empty(), "attach over detached shell only");
        for (id, f) in funcs {
            let got = self.funcs.push(f);
            debug_assert_eq!(got, id, "functions must re-attach in id order");
        }
    }

    fn clone_func(&self, key: FuncId) -> Function {
        self.funcs[key].clone()
    }

    fn restore_func(&mut self, key: FuncId, func: Function) {
        self.funcs[key] = func;
    }

    fn func_size_hint(&self, key: FuncId) -> usize {
        self.funcs[key].live_inst_count()
    }
}

/// Module-wide collection statistics (Table III's "# Collections").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionCensus {
    /// Collection-allocating operations (`new`, `copy`, `split`, `keys`) —
    /// the paper's "Source"/"Binary" columns count these.
    pub allocations: usize,
    /// Collection-typed SSA variables — the paper's "SSA" column.
    pub ssa_variables: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Form, Function};

    #[test]
    fn func_lookup_by_name() {
        let mut m = Module::new("m");
        let id = m.add_func(Function::new("qsort", Form::Mut));
        assert_eq!(m.func_by_name("qsort"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
    }

    #[test]
    fn extern_effects_presets() {
        let p = ExternEffects::pure_reader();
        assert!(p.reads_args && !p.writes_args && !p.opaque);
        let u = ExternEffects::unknown();
        assert!(u.reads_args && u.writes_args && u.opaque);
    }

    #[test]
    fn form_query() {
        let mut m = Module::new("m");
        m.add_func(Function::new("a", Form::Mut));
        assert!(m.all_in_form(Form::Mut));
        m.add_func(Function::new("b", Form::Ssa));
        assert!(!m.all_in_form(Form::Mut));
        assert!(!m.all_in_form(Form::Ssa));
    }
}
