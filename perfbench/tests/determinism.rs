//! The counts the benchmark reports must repeat exactly for a fixed seed,
//! and its inputs must depend on the seed and nothing else.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the traced passes are too slow for a debug build.

use perfbench::compile_edit::CompileEdit;
use perfbench::inputs::Inputs;
use perfbench::report::{Metrics, Tally};
use perfbench::trace::Tracer;

/// Everything a run receives, printed.
fn digest(inputs: &Inputs) -> String {
    let mut out = String::new();
    for s in &inputs.edit {
        out += &memoir_ir::printer::print_module(&s.base);
        out += &memoir_ir::printer::print_module(&s.edited);
    }
    for k in &inputs.kernels {
        out += &format!("{} {:?} {:?}\n", k.name, k.args, k.reference);
    }
    for m in &inputs.serve.modules {
        out += &memoir_ir::printer::print_module(m);
    }
    out + &format!("{:?}", inputs.serve.jobs)
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    let a = digest(&Inputs::generate(7));
    assert_eq!(
        a,
        digest(&Inputs::generate(7)),
        "same seed, different inputs"
    );
    assert_ne!(
        a,
        digest(&Inputs::generate(8)),
        "different seeds, same inputs"
    );
}

fn exact_rows(m: &Metrics) -> Vec<(String, f64)> {
    m.rows
        .iter()
        .filter(|r| r.exact)
        .map(|r| (r.name.clone(), r.value))
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs a release build")]
fn counts_repeat_for_a_fixed_seed() {
    let inputs = Inputs::generate(3);
    let run = || {
        let mut tally = Tally::default();
        let traced = perfbench::traced_pass(&inputs, 3, &mut Tracer::new(), &mut tally);
        let mut edit = CompileEdit::default();
        edit.round(&inputs.edit, &mut tally);
        let mut code = Metrics::default();
        edit.metrics(&inputs.edit, &mut code);
        (exact_rows(&traced), code.get("code_insts"))
    };
    let (first, second) = (run(), run());
    let names: Vec<&str> = first.0.iter().map(|(n, _)| n.as_str()).collect();
    for required in [
        "passman.fp_retained",
        "passman.cache.hits",
        "passman.cache.skips",
        "passman.cache.misses",
        "lir.interp.insts.default",
        "lir.interp.rt_calls.adaptive",
        "memoir-interp.cost.docstore.both",
        "symexec.proved",
        "symexec.inconclusive",
    ] {
        assert!(
            names.contains(&required),
            "{required} is not reported as an exact count"
        );
    }
    assert_eq!(first, second);
    assert!(first.1.is_some_and(|n| n > 0.0));
}
