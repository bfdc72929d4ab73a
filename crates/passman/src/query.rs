//! The demand-driven query bridge between sharded workers and the
//! analysis cache.
//!
//! The `Rc`-based [`AnalysisManager`] lives on the main thread; sharded
//! executors ([`FuncPassAdapter`](crate::FuncPassAdapter), the sharded
//! lower stage) run workers that must not touch it. A [`QueryCtx`] is
//! the seam between the two: it is constructed on the main thread — one
//! per function, in stable key order, while the module is still whole —
//! and hands the consumer scoped access to the module, the function's
//! [`Fingerprint`], and any cached [`Analysis`]/[`ModuleAnalysis`]
//! result. Whatever the consumer *clones out* of the ctx (an owned dom
//! tree, an escape summary) travels into the worker as its prefetched
//! context.
//!
//! This generalizes the original `FuncPass::prefetch(m, key, am)`
//! signature: instead of the raw manager, prefetchers now see a ctx that
//! also answers fingerprint queries — which is how the executors key
//! their [`CompileCache`](crate::CompileCache) lookups — and that can be
//! constructed by *any* sharded consumer (the lowering stage uses it the
//! same way the pass executor does).

use crate::analysis::{Analysis, AnalysisManager, ModuleAnalysis};
use crate::fingerprint::Fingerprint;
use crate::IrUnit;
use std::rc::Rc;

/// Scoped, demand-driven access to one function's analyses, fingerprint,
/// and module — handed to prefetch hooks on the main thread.
pub struct QueryCtx<'q, M: IrUnit> {
    m: &'q M,
    key: M::FuncKey,
    am: &'q mut AnalysisManager<M>,
}

impl<M: IrUnit> std::fmt::Debug for QueryCtx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCtx").field("key", &self.key).finish()
    }
}

impl<'q, M: IrUnit> QueryCtx<'q, M> {
    /// A query context for `key`, borrowing the module and the manager.
    pub fn new(m: &'q M, key: M::FuncKey, am: &'q mut AnalysisManager<M>) -> Self {
        QueryCtx { m, key, am }
    }

    /// The (whole, still-attached) module.
    pub fn module(&self) -> &M {
        self.m
    }

    /// The function this context is scoped to.
    pub fn key(&self) -> M::FuncKey {
        self.key
    }

    /// The function's current content fingerprint.
    pub fn fingerprint(&mut self) -> Fingerprint {
        self.am.fingerprint_of(self.m, self.key)
    }

    /// The cached result of per-function analysis `A` for this function,
    /// computing it on first request.
    pub fn analysis<A: Analysis<M>>(&mut self) -> Rc<A::Output> {
        self.am.get::<A>(self.m, self.key)
    }

    /// The cached result of module-wide analysis `A`.
    pub fn module_analysis<A: ModuleAnalysis<M>>(&mut self) -> Rc<A::Output> {
        self.am.get_module::<A>(self.m)
    }
}
