//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, every failed operation by request id, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use perfbench::report::{Metrics, Tally};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use perfbench::{calib_ms, measure, setup, trace, Workload, SETUP_REPS};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let num = |flag: &str, v: Option<String>| -> Result<f64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds", get("--seconds"))?;
    let trace = get("--trace").unwrap_or_else(|| "0".into());
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!(
            "unknown workload `{workload}` (compile-edit, run-kernels, serve-jobs)"
        ))?,
        seed: get("--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: if seconds.is_finite() && seconds >= 0.0 {
            seconds
        } else {
            return Err("--seconds must be a non-negative number".into());
        },
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut calib = vec![calib_ms()];
    let (inputs, mut setup_times) = setup(args.seed, SETUP_REPS[0]);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();
    if args.trace {
        let layers = trace(&inputs, args.seed, args.seconds, &mut tracer, &mut tally);
        calib.push(calib_ms());
        metrics.time("calib_ms", median(&calib), "ms");
        metrics.rows.extend(layers.rows);
    } else {
        let measured = measure(&inputs, args.workload, args.seed, args.seconds, &mut tally);
        calib.push(calib_ms());
        setup_times.extend(setup(args.seed, SETUP_REPS[1]).1);
        metrics.time("setup_s", median(&setup_times), "s");
        metrics.count("ok_frac", tally.ok_frac(), "ratio");
        metrics.rows.extend(measured.rows);
    }
    for row in &metrics.rows {
        if !row.value.is_finite() {
            tally.fail(format!("metric/{}", row.name), "value is not finite");
        }
    }

    let setup_s = median(&setup_times);
    println!(
        "perfbench workload={:?} seed={} trace={} setup_s={setup_s:.4} calib_ms={:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        median(&calib)
    );
    for row in &metrics.rows {
        println!("  {:<44} {:>16.4} {}", row.name, row.value, row.unit);
    }
    if args.trace {
        println!(
            "  {:<44} {:>6} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in tracer.summary() {
            println!("  {name:<44} {n:>6} {total:>12.3} {own:>12.3}");
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = format!(
            "{dir}/perfbench-trace/{:?}-seed{}.json",
            args.workload, args.seed
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("  trace written to {path}"),
            Err(e) => tally.fail("trace-out", format!("cannot write {path}: {e}")),
        }
    }
    for (req, why) in &tally.failures {
        println!("FAILED {req}: {why}");
    }
    println!("{}", tally.result_line(&metrics));
    ExitCode::SUCCESS
}
