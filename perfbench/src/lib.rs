//! # perfbench
//!
//! The repository's end-to-end benchmark: three activities (compile-edit,
//! run-kernels, serve-jobs) over inputs generated from one seed, every
//! output checked against a reference, failures counted against
//! attempts. See `README.md` in this directory for the workloads, the
//! metrics, and how to read the trace.

pub mod compile;
pub mod compile_edit;
pub mod inputs;
pub mod kernels;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use compile::TraceTotals;
use compile_edit::CompileEdit;
use inputs::Inputs;
use kernels::Kernels;
use report::{Metrics, Tally};
use serve::Serve;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions before the measurement and after it; `setup_s`
/// is the median of all of them, so that a slow stretch of the machine
/// at one end of a run does not decide it alone.
pub const SETUP_REPS: [usize; 2] = [3, 4];

/// Each run does at least this many compile-edit and run-kernels rounds…
const MIN_ROUNDS: usize = 2;

/// …and serves at least this many jobs, so `job_ms_p99` has ten samples
/// beyond it.
const MIN_JOBS: usize = 1000;

/// A workload: which activity gets most of the measured time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Compile-edit cycles get most of the time.
    CompileEdit,
    /// Kernel builds and runs get most of the time.
    RunKernels,
    /// Served jobs get most of the time.
    ServeJobs,
}

impl Workload {
    /// Parses a workload name as listed in `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "compile-edit" => Some(Workload::CompileEdit),
            "run-kernels" => Some(Workload::RunKernels),
            "serve-jobs" => Some(Workload::ServeJobs),
            _ => None,
        }
    }

    /// Share of measured time per activity (compile-edit, run-kernels,
    /// serve-jobs): half for the named one, a quarter for each of the
    /// others, which every run needs to report every end-to-end metric.
    fn shares(self) -> [f64; 3] {
        let mut s = [0.25; 3];
        s[self as usize] = 0.5;
        s
    }
}

/// Generates the inputs `reps` times (at least once) and returns the
/// last copy with the wall time in seconds of each generation.
pub fn setup(seed: u64, reps: usize) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..reps.max(1) {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::generate(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), times)
}

/// The untraced run: rounds of the three activities, interleaved so each
/// gets its share of `seconds`, then every output checked. Returns the
/// end-to-end metrics other than `setup_s` and `ok_frac`.
pub fn measure(
    inputs: &Inputs,
    workload: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Metrics {
    let mut out = Metrics::default();
    warm_up(inputs, seed, tally);
    match peak_rss_mb() {
        Some(mb) => out.time("peak_rss_mb", mb, "MB"),
        None => tally.fail("peak_rss_mb", "cannot read VmHWM from /proc/self/status"),
    }
    let shares = workload.shares();
    let mut edit = CompileEdit::default();
    let mut kernels = Kernels::default();
    let mut serve = Serve::new(seed);
    let mut used = [0.0f64; 3];
    let t0 = Instant::now();
    loop {
        let due = t0.elapsed().as_secs_f64() >= seconds;
        let wanted = [
            !due || edit.rounds() < MIN_ROUNDS,
            !due || kernels.rounds() < MIN_ROUNDS,
            !due || serve.jobs() < MIN_JOBS,
        ];
        let Some(next) = (0..3)
            .filter(|&a| wanted[a])
            .min_by(|&a, &b| (used[a] / shares[a]).total_cmp(&(used[b] / shares[b])))
        else {
            break;
        };
        let t = Instant::now();
        match next {
            0 => edit.round(&inputs.edit, tally),
            1 => kernels.round(&inputs.kernels, tally),
            _ => serve.round(&inputs.serve, tally),
        }
        used[next] += t.elapsed().as_secs_f64();
    }
    edit.verify(&inputs.edit, tally);
    let served = serve.finish(&inputs.serve, tally);
    edit.metrics(&inputs.edit, &mut out);
    kernels.metrics(&mut out);
    served.metrics(&mut out);
    out
}

/// One round of each activity on state that is then dropped, before
/// anything is timed. Its outputs are checked like all others. The
/// process's resident high-water mark right after it is `peak_rss_mb`:
/// it covers set-up and one round of everything, and does not grow
/// with the number of rounds a run happens to fit in.
fn warm_up(inputs: &Inputs, seed: u64, tally: &mut Tally) {
    let mut edit = CompileEdit::default();
    edit.round(&inputs.edit, tally);
    edit.verify(&inputs.edit, tally);
    Kernels::default().round(&inputs.kernels, tally);
    let mut serve = Serve::new(seed);
    serve.round(&inputs.serve, tally);
    serve.finish(&inputs.serve, tally);
}

/// One traced pass over all three activities, with its per-layer rows.
pub fn traced_pass(inputs: &Inputs, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Metrics {
    let mut out = Metrics::default();
    let mut totals = TraceTotals::default();
    compile_edit::traced_pass(&inputs.edit, tr, &mut totals, tally, &mut out);
    kernels::traced_pass(&inputs.kernels, tr, &mut totals, tally, &mut out);
    let mut serve = Serve::new(seed);
    serve.round(&inputs.serve, tally);
    serve.finish(&inputs.serve, tally).traced(tr, &mut out);
    out.time(
        "trace.overhead_frac",
        totals.traced_ms / totals.direct_ms - 1.0,
        "ratio",
    );
    out.time("trace.unattributed_ms", totals.unattributed_ms, "ms");
    out.time("trace.coverage_min", totals.min_coverage, "ratio");
    out
}

/// The traced run: traced passes until `seconds` have passed (at least
/// one). Exact counts come from the first pass and must repeat in every
/// later one; times are medians over passes.
pub fn trace(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Metrics {
    let t0 = Instant::now();
    let mut passes = vec![traced_pass(inputs, seed, tr, tally)];
    while t0.elapsed().as_secs_f64() < seconds {
        passes.push(traced_pass(inputs, seed, tr, tally));
    }
    let mut out = Metrics::default();
    for row in &passes[0].rows {
        let values: Vec<f64> = passes.iter().filter_map(|p| p.get(&row.name)).collect();
        if row.exact {
            for (n, v) in values.iter().enumerate().skip(1) {
                tally.check(
                    *v == row.value,
                    format!("trace/pass{n}/{}", row.name),
                    || format!("count {v} differs from the first pass's {}", row.value),
                );
            }
            out.count(row.name.clone(), row.value, row.unit);
        } else {
            out.time(row.name.clone(), stats::median(&values), row.unit);
        }
    }
    out
}

/// Median time of a fixed CPU loop, in milliseconds: a reference for
/// how busy the machine was, reported next to the metrics and never
/// used to scale them.
pub fn calib_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 1u64;
            for i in 0..4_000_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                x ^= x >> 29;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// Peak resident set size of this process in MB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
