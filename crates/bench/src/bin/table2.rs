//! Table III (artifact `table_2`): MEMOIR compile time at O0/O3 and the
//! collection census (source / SSA / binary), demonstrating that SSA
//! construction+destruction introduces no spurious copies.

use memoir_opt::OptLevel;

fn main() {
    println!(
        "{}",
        bench::header("Table III — compile time and collection census")
    );
    println!(
        "{:>12} | {:>12} {:>12} | {:>8} {:>6} {:>8} | {:>14}",
        "benchmark", "MEMOIR O0", "MEMOIR O3", "source", "SSA", "binary", "destruct copies"
    );
    println!("{}", "-".repeat(96));
    for (name, module) in bench::compilation_subjects() {
        let source = module.collection_census();
        // Warm once, then take the median of several timed runs.
        let _ = bench::compile_at(&module, OptLevel::O0);
        let mut o0_times = Vec::new();
        let mut o0_report = None;
        for _ in 0..5 {
            let r = bench::compile_at(&module, OptLevel::O0);
            o0_times.push(r.run.total_ms());
            o0_report = Some(r);
        }
        let mut o3_times = Vec::new();
        let mut o3_report = None;
        for _ in 0..5 {
            let r = bench::compile_at(&module, bench::o3_all());
            o3_times.push(r.run.total_ms());
            o3_report = Some(r);
        }
        o0_times.sort_by(f64::total_cmp);
        o3_times.sort_by(f64::total_cmp);
        let (o0r, o3r) = (o0_report.unwrap(), o3_report.unwrap());
        println!(
            "{:>12} | {:>10.2}ms {:>10.2}ms | {:>8} {:>6} {:>8} | {:>14}",
            name,
            o0_times[o0_times.len() / 2],
            o3_times[o3_times.len() / 2],
            source.allocations,
            o0r.ssa_census.ssa_variables,
            o3r.final_census.allocations,
            o0r.destruct_copies,
        );
        assert_eq!(o0r.destruct_copies, 0, "no spurious copies at O0");
    }
    println!("\n(`destruct copies` = collection copies materialized by SSA destruction;");
    println!(" the paper's Table III claim is that this is zero.)");
}
