//! Seeded input generation: everything the measured program receives is
//! built here, during set-up, from the benchmark seed alone.

use memoir_interp::{Interp, Value};
use memoir_ir::{Constant, Module, Type, ValueDef};
use reduce::SplitMix64;

/// Function counts of the compile-edit size classes: 8× from smallest to
/// largest, so the per-instruction cost of the largest class against the
/// smallest exposes super-linear passes. Each class has as many modules
/// as fit into the largest one (8, 4, 2, 1), so every class gets about
/// the same compile time and the small ones are not lost in timer noise.
pub const EDIT_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Kernel argument vectors drawn per kernel.
const KERNEL_ARGS: usize = 3;

/// Jobs per serve session (one fresh service each). Every session
/// replays the same pre-generated jobs.
pub const SESSION: usize = 250;

/// How many recent distinct jobs of its session a repeated job may pick
/// from.
const SERVE_RECENT: usize = 16;

/// One compile-edit subject: a synthetic whole-program module and the
/// same module with a seeded 10% of its functions edited.
#[derive(Clone, Debug)]
pub struct EditSubject {
    /// Functions in the module.
    pub funcs: usize,
    /// The module as first compiled (cold).
    pub base: Module,
    /// The module after the edit (recompiled warm).
    pub edited: Module,
}

/// One run-kernels subject with its seeded arguments and the reference
/// results of the unoptimized module.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Metric-safe kernel name.
    pub name: &'static str,
    /// The kernel as built (MUT form, unoptimized).
    pub module: Module,
    /// Entry function.
    pub entry: &'static str,
    /// Seeded argument vectors.
    pub args: Vec<Vec<i64>>,
    /// The MEMOIR interpreter's result on `module` for each of `args`,
    /// or why it trapped.
    pub reference: Vec<Result<Vec<i64>, String>>,
}

/// One job of the serve activity. Jobs with equal `module` are repeats
/// (same module, same spec).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index into [`ServeInputs::modules`].
    pub module: usize,
    /// Through-lowering spec (lir output) rather than MEMOIR-only.
    pub lowered: bool,
}

/// The pre-generated jobs of a serve session.
#[derive(Clone, Debug)]
pub struct ServeInputs {
    /// Distinct modules, one per fresh job.
    pub modules: Vec<Module>,
    /// Jobs in submission order; every session replays them.
    pub jobs: Vec<Job>,
}

/// Every input of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Compile-edit subjects, smallest size class first.
    pub edit: Vec<EditSubject>,
    /// Run-kernels subjects.
    pub kernels: Vec<Kernel>,
    /// Serve-jobs job list.
    pub serve: ServeInputs,
}

impl Inputs {
    /// Builds every input from `seed`: identical for equal seeds.
    pub fn generate(seed: u64) -> Inputs {
        let root = SplitMix64::new(seed);
        Inputs {
            edit: edit_subjects(&mut root.split(1)),
            kernels: kernels(&mut root.split(2)),
            serve: serve_jobs(&mut root.split(3)),
        }
    }
}

fn edit_subjects(rng: &mut SplitMix64) -> Vec<EditSubject> {
    let largest = EDIT_SIZES[EDIT_SIZES.len() - 1];
    EDIT_SIZES
        .iter()
        .flat_map(|&funcs| std::iter::repeat_n(funcs, largest / funcs))
        .map(|funcs| {
            let base = workloads::synth_ir::build_synth_ir(funcs, rng.next_u64());
            let mut edited = base.clone();
            edit_functions(&mut edited, rng, funcs.div_ceil(10));
            EditSubject {
                funcs,
                base,
                edited,
            }
        })
        .collect()
}

/// Edits `count` seeded functions in place — bumping an `i64` constant
/// where one exists, renaming otherwise — so their fingerprints (and
/// their callers') change while the rest of the module stays cache-hot.
fn edit_functions(m: &mut Module, rng: &mut SplitMix64, count: usize) {
    let mut ids: Vec<_> = m.funcs.ids().collect();
    for i in 0..count.min(ids.len()) {
        let j = i + rng.index(ids.len() - i);
        ids.swap(i, j);
        let f = &mut m.funcs[ids[i]];
        let konst = f.values.ids().find(|&v| {
            matches!(
                f.values[v].def,
                ValueDef::Const(Constant::Int(Type::I64, _))
            )
        });
        match konst {
            Some(v) => {
                if let ValueDef::Const(Constant::Int(t, k)) = f.values[v].def {
                    f.values[v].def = ValueDef::Const(Constant::Int(t, k.wrapping_add(1)));
                }
            }
            None => f.name.push_str("_edited"),
        }
    }
}

/// A kernel, its entry, and the base argument vector its seeded
/// arguments jitter around.
type KernelSpec = (&'static str, fn() -> Module, &'static str, &'static [i64]);

/// Base arguments are sized so that each run takes tens of milliseconds
/// in `LirMachine`; only the last argument (transactions, iterations or
/// rounds) is jittered, by at most ±5%, so seeds differ in inputs but
/// not in the size of the work.
const KERNELS: [KernelSpec; 5] = [
    (
        "smallbank",
        workloads::smallbank_ir::build_smallbank_ir,
        "bank",
        &[4000],
    ),
    (
        "docstore",
        workloads::docstore::build_docstore_ir,
        "docstore",
        &[4000],
    ),
    (
        "optlike",
        workloads::optlike_ir::build_optlike_ir,
        "gvn",
        &[5000],
    ),
    (
        "deepsjeng",
        workloads::deepsjeng_ir::build_deepsjeng_ir,
        "search",
        &[3000],
    ),
    (
        "mcf",
        workloads::mcf_ir::build_mcf_ir,
        "master",
        &[64, 8, 16, 24],
    ),
];

/// Interpreter fuel for reference runs and kernel runs.
pub const FUEL: u64 = 2_000_000_000;

fn kernels(rng: &mut SplitMix64) -> Vec<Kernel> {
    KERNELS
        .iter()
        .map(|&(name, build, entry, base)| {
            let module = build();
            let args: Vec<Vec<i64>> = (0..KERNEL_ARGS)
                .map(|_| {
                    let mut a = base.to_vec();
                    let last = a.last_mut().expect("kernels take an argument");
                    let span = (*last / 20).max(1) as u64;
                    *last += rng.below(2 * span + 1) as i64 - span as i64;
                    a
                })
                .collect();
            let reference = args.iter().map(|a| reference(&module, entry, a)).collect();
            Kernel {
                name,
                module,
                entry,
                args,
                reference,
            }
        })
        .collect()
}

/// Runs the unoptimized module in the MEMOIR interpreter.
fn reference(m: &Module, entry: &str, args: &[i64]) -> Result<Vec<i64>, String> {
    let mut interp = Interp::new(m).with_fuel(FUEL);
    let vals = interp
        .run_by_name(
            entry,
            args.iter().map(|&a| Value::Int(Type::Index, a)).collect(),
        )
        .map_err(|t| format!("{t:?}"))?;
    vals.iter()
        .map(|v| {
            v.as_int()
                .ok_or_else(|| format!("non-integer result {v:?}"))
        })
        .collect()
}

/// Three jobs in five are fresh modules, the other two repeat one of
/// the recent distinct jobs (module and spec). Fresh modules take every
/// size from 4 to 24 functions once per 21, in seeded order, and
/// alternate between the MEMOIR-only and the through-lowering spec; the
/// fixed proportions keep the job mix, and so the latency percentiles,
/// the same from seed to seed.
fn serve_jobs(rng: &mut SplitMix64) -> ServeInputs {
    let mut modules = Vec::new();
    let mut jobs: Vec<Job> = Vec::with_capacity(SESSION);
    let mut recent: Vec<Job> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for i in 0..SESSION {
        let job = if matches!(i % 5, 2 | 4) {
            recent[rng.index(recent.len())]
        } else {
            if sizes.is_empty() {
                sizes = (4..=24).collect();
                for k in (1..sizes.len()).rev() {
                    sizes.swap(k, rng.index(k + 1));
                }
            }
            let nfuncs = sizes.pop().expect("refilled above");
            modules.push(workloads::synth_ir::build_synth_ir(nfuncs, rng.next_u64()));
            let job = Job {
                module: modules.len() - 1,
                lowered: modules.len() % 2 == 0,
            };
            if recent.len() == SERVE_RECENT {
                recent.remove(0);
            }
            recent.push(job);
            job
        };
        jobs.push(job);
    }
    ServeInputs { modules, jobs }
}
