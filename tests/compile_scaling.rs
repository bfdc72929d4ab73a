//! Compile cost must stay linear in module size. After every declared
//! mutation the analysis manager refreshes content fingerprints; the
//! refresh re-hashes only the functions declared mutated, so doubling
//! the module roughly doubles the hashing. A refresh that re-hashed the
//! whole module each time would make `sink` (which invalidates each
//! function it rewrites) quadratic, and this count would quadruple.
//!
//! The gate counts re-hashed functions rather than timing anything, so
//! it is deterministic on any machine.

use memoir::opt::{compile_spec, default_spec, OptConfig, OptLevel};
use memoir::workloads::synth_ir::build_synth_ir;

/// Functions whose local structure was hashed while compiling an
/// `nfuncs`-function synthetic module through O3.
fn rehashed(nfuncs: usize) -> u64 {
    let mut m = build_synth_ir(nfuncs, 2024);
    let report = compile_spec(&mut m, &default_spec(OptLevel::O3(OptConfig::all())))
        .expect("pipeline runs clean");
    report.run.fingerprints.rehashed
}

#[test]
fn fingerprint_rehashing_grows_linearly_with_module_size() {
    let small = rehashed(64);
    let large = rehashed(128);
    assert!(small > 0, "the O3 pipeline refreshes fingerprints");
    let growth = large as f64 / small as f64;
    assert!(
        growth <= 2.3,
        "a 2x module re-hashed {growth:.2}x the functions ({small} -> {large}): \
         the fingerprint refresh is no longer incremental"
    );
}
