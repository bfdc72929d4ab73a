//! The serve-jobs activity: two closed-loop clients against a `memoird`
//! service with two workers, the compile cache and the job cache.
//!
//! Jobs are served in sessions of [`SESSION`](crate::inputs::SESSION)
//! jobs, each against a fresh service, and every session replays the
//! same jobs. A fresh service per session keeps the service's cache size,
//! and with it the process's memory, the same from run to run. Because
//! sessions repeat the same work, each job and each window of [`WINDOW`]
//! jobs is timed once per session, and the metrics take the [`fast`]
//! figure of each across sessions.

use crate::compile;
use crate::inputs::ServeInputs;
use crate::report::{Metrics, Tally};
use crate::stats::{fast, median, percentile};
use crate::trace::Tracer;
use memoir_opt::lowering::{compile_lowered_with, split_lowered_spec, LowerConfig};
use memoir_opt::pipeline::compile_spec_with;
use memoird::{JobOutcome, JobSpec, RetryPolicy, Rung, Service, ServiceConfig};
use passman::{CompileCache, FaultPolicy, PipelineSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Client threads; each submits its next job only after the previous
/// one's outcome arrives.
const CLIENTS: usize = 2;

/// Jobs per window: `jobs_per_s` sums the fast time of each window of
/// this many consecutive jobs of a session.
const WINDOW: usize = 50;

/// One finished job as its client saw it.
struct Done {
    job: usize,
    start: Instant,
    end: Instant,
    outcome: JobOutcome,
}

/// Everything served so far.
#[derive(Default)]
pub struct Serve {
    seed: u64,
    sessions: usize,
    /// Client-timed latency of every job.
    latency_ms: Vec<f64>,
    /// Per job of a session, per session: client-timed latency.
    job_ms: Vec<Vec<f64>>,
    /// Per job of a session: whether it is the first job of its module,
    /// which the service compiles rather than reads from its job cache.
    fresh: Vec<bool>,
    /// Per window of [`WINDOW`] jobs, per session: seconds from the
    /// window's first submission to its last outcome.
    window_s: Vec<Vec<f64>>,
    /// Wall time of every attempt.
    attempt_ms: Vec<f64>,
    /// Per job: latency minus attempt and backoff time.
    wait_ms: Vec<f64>,
    attempts: usize,
    degraded: usize,
    job_cache_hits: u64,
    /// `(request id, start, end)` of every job.
    spans: Vec<(String, Instant, Instant)>,
    /// The first output of each module, with its request id.
    first: BTreeMap<usize, (String, String)>,
}

/// The MEMOIR-only spec and the through-lowering spec of the jobs.
fn specs() -> [PipelineSpec; 2] {
    let o3 = compile::o3();
    let lowered = format!("{o3},lower,{}", lir::passes::default_spec());
    [
        o3,
        PipelineSpec::parse(&lowered).expect("lowered job spec parses"),
    ]
}

impl Serve {
    /// Nothing served yet; `seed` seeds each session's service.
    pub fn new(seed: u64) -> Serve {
        Serve {
            seed,
            ..Serve::default()
        }
    }

    /// Jobs completed so far.
    pub fn jobs(&self) -> usize {
        self.latency_ms.len()
    }

    /// One session: the job list served closed-loop by a fresh service.
    /// Every outcome must be `Ok` and byte-identical to the first output
    /// of the same module.
    pub fn round(&mut self, inputs: &ServeInputs, tally: &mut Tally) {
        let s = self.sessions;
        self.sessions += 1;
        let specs = specs();
        let svc = Service::start(ServiceConfig {
            workers: 2,
            queue_cap: 256,
            seed: self.seed,
            cache: Some(CompileCache::new()),
            job_cache: true,
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let cursor = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let job = cursor.fetch_add(1, Ordering::Relaxed);
                    if job >= inputs.jobs.len() {
                        break;
                    }
                    let j = inputs.jobs[job];
                    let spec = JobSpec::new(
                        format!("job{job}"),
                        inputs.modules[j.module].clone(),
                        specs[usize::from(j.lowered)].clone(),
                    );
                    let start = Instant::now();
                    let outcome = svc.submit(spec).wait();
                    let end = Instant::now();
                    done.lock().expect("a client panicked").push(Done {
                        job,
                        start,
                        end,
                        outcome,
                    });
                });
            }
        });
        self.job_cache_hits += svc.join().job_cache_hits;
        let mut done = done.into_inner().expect("a client panicked");
        done.sort_by_key(|d| d.job);
        self.job_ms.resize(done.len(), Vec::new());
        for d in &done {
            self.job_ms[d.job].push((d.end - d.start).as_secs_f64() * 1e3);
        }
        self.window_s.resize(done.len() / WINDOW, Vec::new());
        for (w, jobs) in done.chunks_exact(WINDOW).enumerate() {
            let start = jobs.iter().map(|d| d.start).min().expect("window is full");
            let end = jobs.iter().map(|d| d.end).max().expect("window is full");
            self.window_s[w].push((end - start).as_secs_f64());
        }
        for d in done {
            self.record(s, d, inputs, tally);
        }
    }

    fn record(&mut self, session: usize, d: Done, inputs: &ServeInputs, tally: &mut Tally) {
        let req = format!("serve-jobs/s{session}/job{}", d.job);
        let latency = (d.end - d.start).as_secs_f64() * 1e3;
        self.latency_ms.push(latency);
        let attempts = d.outcome.attempts();
        self.attempts += attempts.len();
        self.attempt_ms.extend(attempts.iter().map(|a| a.ms));
        let in_attempts: f64 = attempts.iter().map(|a| a.ms + a.backoff_ms as f64).sum();
        self.wait_ms.push(latency - in_attempts);
        self.degraded += usize::from(attempts.last().is_some_and(|a| a.rung != Rung::Full));
        self.spans.push((req.clone(), d.start, d.end));
        let JobOutcome::Ok { output, .. } = d.outcome else {
            tally.fail(req, format!("outcome {}", d.outcome.kind()));
            return;
        };
        let module = inputs.jobs[d.job].module;
        match self.first.get(&module) {
            Some((first_req, first)) => tally.check(*first == output, req, || {
                format!("output differs from {first_req} of the same module")
            }),
            None => {
                self.first.insert(module, (req, output));
            }
        }
    }

    /// Checks the first output of every module served against a direct
    /// compile of the same module and spec, on one thread per client.
    pub fn finish(mut self, inputs: &ServeInputs, tally: &mut Tally) -> Served {
        let mut seen = BTreeSet::new();
        self.fresh = inputs.jobs.iter().map(|j| seen.insert(j.module)).collect();
        let specs = specs();
        let lowered: BTreeMap<usize, bool> =
            inputs.jobs.iter().map(|j| (j.module, j.lowered)).collect();
        let firsts: Vec<(&usize, &(String, String))> = self.first.iter().collect();
        let cursor = AtomicUsize::new(0);
        let verdicts = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    while let Some(&(&module, (req, got))) =
                        firsts.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        let spec = &specs[usize::from(lowered[&module])];
                        let want = direct_compile(&inputs.modules[module], spec);
                        verdicts
                            .lock()
                            .expect("a compile thread panicked")
                            .push((req.clone(), want.map(|w| w == *got)));
                    }
                });
            }
        });
        let mut verdicts = verdicts.into_inner().expect("a compile thread panicked");
        verdicts.sort();
        for (req, verdict) in verdicts {
            tally.check(verdict == Ok(true), req, || match verdict {
                Ok(_) => "output differs from a direct compile".into(),
                Err(e) => format!("direct compile failed: {e}"),
            });
        }
        Served(self)
    }
}

/// What the service does for a job on its first rung, without the
/// service: same pipeline, same fault policy, one thread, no cache.
fn direct_compile(m: &memoir_ir::Module, spec: &PipelineSpec) -> Result<String, String> {
    let mut m = m.clone();
    match split_lowered_spec(spec)? {
        Some(pipeline) => {
            let cfg = LowerConfig {
                policy: FaultPolicy::SkipPass,
                ..compile::config(1, None, false)
            };
            let out = compile_lowered_with(&mut m, &pipeline, &cfg).map_err(|e| e.to_string())?;
            let lm = out.lowered.ok_or("lowering produced no output")?;
            Ok(lir::printer::print_module(&lm))
        }
        None => {
            compile_spec_with(&mut m, spec, |pm| {
                pm.on_fault(FaultPolicy::SkipPass).with_threads(1)
            })
            .map_err(|e| e.to_string())?;
            Ok(memoir_ir::printer::print_module(&m))
        }
    }
}

/// A finished, checked serve activity.
pub struct Served(Serve);

impl Served {
    /// `jobs_per_s`: the jobs of the windows over the sum of each
    /// window's [`fast`] time across sessions; `job_ms_p50`: the median
    /// over the fresh jobs of a session of each one's fast latency across
    /// sessions; `job_ms_p99`: over the latencies of every job served.
    /// Latencies are timed by the clients.
    ///
    /// `job_ms_p50` leaves out the two jobs in five that the job cache
    /// answers in well under a millisecond: with them, the median falls
    /// just above that cliff, among the cheapest compiles, where a few
    /// jobs more or less on either side move it by a quarter.
    pub fn metrics(&self, out: &mut Metrics) {
        let s = &self.0;
        let window_s: f64 = s.window_s.iter().map(|w| fast(w)).sum();
        out.time(
            "jobs_per_s",
            (s.window_s.len() * WINDOW) as f64 / window_s,
            "jobs/s",
        );
        let fresh_ms: Vec<f64> = s
            .job_ms
            .iter()
            .zip(&s.fresh)
            .filter(|(_, &fresh)| fresh)
            .map(|(j, _)| fast(j))
            .collect();
        out.time("job_ms_p50", median(&fresh_ms), "ms");
        out.time("job_ms_p99", percentile(&s.latency_ms, 99.0), "ms");
    }

    /// The `memoird.*` layer rows, and one `memoird.job` span per job.
    pub fn traced(&self, tr: &mut Tracer, out: &mut Metrics) {
        let s = &self.0;
        for (req, start, end) in &s.spans {
            tr.record("memoird.job", req, *start, *end);
        }
        let jobs = s.jobs().max(1) as f64;
        out.time("memoird.attempt_ms_p50", median(&s.attempt_ms), "ms");
        out.time("memoird.wait_ms_p50", median(&s.wait_ms), "ms");
        out.count(
            "memoird.attempts_per_job",
            s.attempts as f64 / jobs,
            "ratio",
        );
        out.count(
            "memoird.retries",
            s.attempts.saturating_sub(s.jobs()) as f64,
            "count",
        );
        out.count("memoird.degraded", s.degraded as f64, "count");
        out.count(
            "memoird.job_cache_hit_rate",
            s.job_cache_hits as f64 / jobs,
            "ratio",
        );
    }
}
