//! End-to-end and per-layer benchmark of the HawkSet pipeline.
//!
//! ```text
//! hawkset-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--hawkset <path to the hawkset CLI>] [--work-dir <dir>]
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run times
//! the workload's operations through the public entry points and prints
//! the end-to-end metrics; with `--trace 1` it calls each layer's public
//! function one at a time inside spans recorded by this benchmark and
//! prints the per-layer metrics. Both modes check the program's outputs;
//! the last stdout line is the machine-readable result, and the exit code
//! is non-zero when any check failed. `e2ebench/run.py` builds the
//! program and this binary and is the command `BENCHMARK.json` names.

mod campaign;
mod fig6;
mod layers;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hawkset_core::analysis::{Analyzer, Race};
use hawkset_core::memsim::SimConfig;
use hawkset_core::stats::CountingAllocator;
use pm_apps::{KnownRace, RaceClass};
use serde_json::{Map, Number, Value};

use stats::Tally;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `hawkset` CLI binary (serve workload).
    pub hawkset: Option<PathBuf>,
    /// Scratch directory for databases and sockets.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)
            .ok_or_else(|| format!("missing {key}"))?
            .parse()
            .map_err(|e| format!("{key}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, got {n}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload").ok_or("missing --workload")?.clone(),
        seed: num("--seed")?,
        seconds,
        trace,
        hawkset: get("--hawkset").map(PathBuf::from),
        work_dir: get("--work-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build/e2ebench-work")),
    })
}

/// Shared run context.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// `available_parallelism`: the cap on app threads, analysis threads,
    /// serve workers and client connections.
    pub nproc: usize,
}

impl Ctx {
    /// Seed of the `i`-th input of stream `stream`, a pure function of the
    /// run seed (SplitMix64 finalizer).
    pub fn derive(&self, stream: u64, i: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operation accounting.
    pub tally: Tally,
    /// Failed output checks, one line each (empty = correct).
    pub failures: Vec<String>,
    /// `(name, value, unit, sample count)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric computed from `n` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push((name, value, unit, n));
    }

    /// Records a check; a failed one is kept for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let line = what();
            if self.failures.len() < 20 {
                self.failures.push(line);
            }
        }
        ok
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Ground-truth scoring of one report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Truth {
    /// Ground-truth entries (malign and benign) matched by at least one
    /// report ÷ ground-truth entries.
    pub recall: f64,
    /// Known-malign entries matched ÷ known-malign entries (`None` for an
    /// application with no malign race, e.g. MadFS).
    pub malign_recall: Option<f64>,
    /// Reports matching a ground-truth entry ÷ reports (1 with no reports).
    pub precision: f64,
    /// Reports matching no ground-truth entry.
    pub false_positives: usize,
}

/// Scores `races` against `known` (the `pm_apps::score` matching rule).
pub fn truth(races: &[Race], known: &[KnownRace]) -> Truth {
    let b = pm_apps::score(races, known);
    let hit = |k: &KnownRace| races.iter().any(|r| k.matches(r));
    let malign: Vec<&KnownRace> = known
        .iter()
        .filter(|k| k.class == RaceClass::Malign)
        .collect();
    let total = b.total();
    Truth {
        recall: known.iter().filter(|k| hit(k)).count() as f64 / known.len().max(1) as f64,
        malign_recall: (!malign.is_empty())
            .then(|| malign.iter().filter(|k| hit(k)).count() as f64 / malign.len() as f64),
        precision: if total == 0 {
            1.0
        } else {
            (total - b.false_positives.len()) as f64 / total as f64
        },
        false_positives: b.false_positives.len(),
    }
}

/// The simulation settings `analyzer` runs its first stage with, for
/// calling `simulate` on its own.
pub fn sim_config(analyzer: &Analyzer) -> SimConfig {
    let cfg = analyzer.config();
    SimConfig {
        irh: cfg.irh,
        eadr: cfg.eadr,
        threads: cfg.threads,
        memory_budget: cfg.budget.memory_budget,
    }
}

/// Runs `setup` `reps` times; returns the last result and the median
/// wall time in seconds. Repeating set-up makes `setup_s` a median, so
/// work moved into set-up shows without one slow repetition deciding it.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    let last = last.expect("at least one set-up repetition");
    (last, stats::median(&times), times)
}

/// Heap high-water mark above the current live size, bytes, around `f`.
pub fn with_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();
    let v = f();
    (v, ALLOC.peak_bytes().saturating_sub(base))
}

/// The workload design each traced run should confirm: which layer
/// dominates where. A claim that stops holding is reported, not failed —
/// it is what an optimization of that layer is expected to change.
fn design_claims(workload: &str, out: &Outcome) -> Vec<(&'static str, bool)> {
    let get = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    };
    let (runtime, analysis, repair) = (
        get("share.runtime"),
        get("share.memsim_pairing"),
        get("share.repair"),
    );
    match workload {
        "fig6-fastfair" => vec![
            (
                "runtime.execute has the largest self time",
                runtime > analysis && runtime > get("op.self_ms") / get("op.total_ms").max(1e-9),
            ),
            (
                "repair is absent",
                repair == 0.0 && get("repair.attach_ms") == 0.0,
            ),
        ],
        "serve-triage" => vec![
            ("repair is the majority of the request path", repair > 0.5),
            ("the runtime is absent from requests", runtime == 0.0),
        ],
        _ => vec![],
    }
}

fn result_line(out: &Outcome) -> String {
    let mut metrics = Map::new();
    for &(name, value, unit, _) in &out.metrics {
        let mut m = Map::new();
        m.insert("value", Value::Number(Number::Float(value)));
        m.insert("unit", Value::String(unit.to_string()));
        metrics.insert(name, Value::Object(m));
    }
    let mut root = Map::new();
    root.insert("correct", Value::Bool(out.failures.is_empty()));
    root.insert(
        "attempted",
        Value::Number(Number::PosInt(out.tally.attempted)),
    );
    root.insert("failed", Value::Number(Number::PosInt(out.tally.failed)));
    root.insert("metrics", Value::Object(metrics));
    serde_json::to_string(&Value::Object(root)).expect("result serializes")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let out = match args.workload.as_str() {
        "fig6-fastfair" => fig6::run(&ctx, args.trace),
        "serve-triage" => match &args.hawkset {
            Some(bin) => serve::run(&ctx, bin, &args.work_dir, args.trace),
            None => {
                eprintln!("e2ebench: serve-triage needs --hawkset <path>");
                std::process::exit(2);
            }
        },
        "campaign-pclht" => campaign::run(&ctx, args.trace),
        other => {
            eprintln!("e2ebench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    for line in &out.notes {
        println!("  {line}");
    }
    println!(
        "  operations: attempted {} failed {} error_rate {:.4}",
        out.tally.attempted,
        out.tally.failed,
        out.tally.error_rate()
    );
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    for &(name, value, unit, n) in &out.metrics {
        println!("  {name:<32} {value:>16.6} {unit:<6} n={n}");
    }
    if args.trace {
        for (claim, holds) in design_claims(&args.workload, &out) {
            println!(
                "  design: {claim}: {}",
                if holds { "holds" } else { "DOES NOT HOLD" }
            );
        }
    }
    println!("{}", result_line(&out));
    if !out.failures.is_empty() || out.tally.failed > 0 {
        std::process::exit(1);
    }
}
