//! `campaign-pclht`: steered P-CLHT crash campaigns (12 rounds, 3 crash
//! points) seeded from `--seed`. The unit of work is one campaign. The
//! only workload that reaches `pmrace`: plan derivation, crash images,
//! recovery audits, per-round analysis.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hawkset_core::analysis::{AnalysisConfig, Analyzer};
use hawkset_core::memsim::simulate;
use hawkset_core::Trace;
use pm_apps::pclht::PclhtApp;
use pm_apps::{
    AppWorkload, Application, ExecOptions, ExecResult, InvariantViolation, KnownRace, RecoveryError,
};
use pm_runtime::{PmPool, PmThread};
use pmrace::{run_crash_campaign, AxisSet, CoveragePoint, CrashCampaignConfig, RoundOutcome};

use crate::layers::Layers;
use crate::spans::{maybe_time, Tracer};
use crate::stats::{mean, median, Summary};
use crate::{sim_config, timed_setup, with_peak, Ctx, Outcome};

/// Rounds per campaign.
const ROUNDS: u64 = 12;
/// Main-phase operations per round. The pinned `campaign` stage runs 24
/// over 8 threads; re-dealt over 2 threads, 24 ops left the races a
/// campaign finds up to the interleaving (5 or 6 of the 15 known ones,
/// an 8% spread between runs), while from 100 ops on every campaign finds
/// the same 6.
const MAIN_OPS: u64 = 100;
/// Rounds of the unsteered warm-up campaign in set-up.
const WARMUP_ROUNDS: u64 = 4;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 5;

/// P-CLHT with its main phase re-dealt over at most `threads` threads —
/// the stock workload runs 8 — and, in the traced run, spans around the
/// runtime and recovery-audit calls the campaign makes into it.
struct Capped {
    threads: usize,
    tracer: Option<Arc<Tracer>>,
    /// Span id of the running campaign (parent of the layer spans).
    parent: AtomicU64,
    /// Event counts of every crash-capturing pass (the one a round
    /// analyzes).
    layers: Mutex<Layers>,
    /// The first [`ROUNDS`] of those traces, kept for replay; keeping them
    /// all would hold hundreds of traces.
    replay: Mutex<Vec<Trace>>,
}

impl Capped {
    fn new(threads: usize, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            threads,
            tracer,
            parent: AtomicU64::new(0),
            layers: Mutex::new(Layers::default()),
            replay: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` in a span under the running campaign's span.
    fn spanned<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = Some(self.parent.load(Ordering::SeqCst));
        maybe_time(self.tracer.as_deref(), name, parent, 0, f)
    }
}

impl Application for Capped {
    fn name(&self) -> &'static str {
        PclhtApp.name()
    }

    fn sync_method(&self) -> &'static str {
        PclhtApp.sync_method()
    }

    fn known_races(&self) -> Vec<KnownRace> {
        PclhtApp.known_races()
    }

    fn default_workload(&self, main_ops: u64, seed: u64) -> AppWorkload {
        self.spanned("workloads.generate", || {
            match PclhtApp.default_workload(main_ops, seed) {
                AppWorkload::Ycsb(w) => AppWorkload::Ycsb(w.reshard(self.threads)),
                other => other,
            }
        })
    }

    fn execute_with(&self, workload: &AppWorkload, opts: &ExecOptions) -> ExecResult {
        // A round runs the workload twice: a probe pass that counts PM
        // operations, then the pass that captures crash images.
        // The runtime layer is measured on the second pass only, the one
        // whose trace the round analyzes.
        let crashing = opts.crash.as_ref().is_some_and(|c| !c.points().is_empty());
        if !crashing {
            return self.spanned("pmrace.probe_pass", || {
                PclhtApp.execute_with(workload, opts)
            });
        }
        let result = self.spanned("pmrace.crash_pass", || {
            self.spanned("runtime.execute", || PclhtApp.execute_with(workload, opts))
        });
        if self.tracer.is_some() {
            self.layers
                .lock()
                .expect("layer counters poisoned")
                .record_trace(&result.trace);
            let mut replay = self.replay.lock().expect("replay list poisoned");
            if replay.len() < ROUNDS as usize {
                replay.push(result.trace.clone());
            }
        }
        result
    }

    fn supports_recovery(&self) -> bool {
        PclhtApp.supports_recovery()
    }

    fn recover(&self, pool: &PmPool, t: &PmThread) -> Result<(), RecoveryError> {
        self.spanned("pmrace.audit", || PclhtApp.recover(pool, t))
    }

    fn check_invariants(&self, pool: &PmPool, t: &PmThread) -> Vec<InvariantViolation> {
        self.spanned("pmrace.audit", || PclhtApp.check_invariants(pool, t))
    }
}

fn config(ctx: &Ctx, seed: u64, rounds: u64, steer: bool) -> CrashCampaignConfig {
    CrashCampaignConfig {
        rounds,
        crash_points: 3,
        main_ops: MAIN_OPS,
        seed,
        analysis_threads: ctx.nproc,
        steer,
        // Steering varies the workload, the crash points and the memory
        // budget. The threads axis is off: it re-deals rounds over up to 8
        // threads, more than the host may have cores. The delay axis is off
        // and no base delay is set: delays are wall-clock sleeps whose length
        // follows the host's timer and load, not the code — with them,
        // rounds/s of one seed varied from 4.1 to 5.1 between runs.
        axes: AxisSet::parse("workload,crash,memory").expect("valid axis list"),
        ..Default::default()
    }
}

/// The function name in a rendered `file:line (function)` site.
fn function_of(site: &str) -> &str {
    site.rsplit_once(" (")
        .map_or(site, |(_, f)| f.trim_end_matches(')'))
}

/// Ground-truth recall and precision of the race sites among `coverage`.
fn score_sites(coverage: &[CoveragePoint], known: &[KnownRace]) -> (f64, f64) {
    let sites: Vec<(&str, &str)> = coverage
        .iter()
        .filter_map(|p| match p {
            CoveragePoint::Site { store, load } => Some((function_of(store), function_of(load))),
            _ => None,
        })
        .collect();
    let matches = |k: &KnownRace, s: &(&str, &str)| k.store_fn == s.0 && k.load_fn == s.1;
    let found = known
        .iter()
        .filter(|k| sites.iter().any(|s| matches(k, s)))
        .count();
    let true_sites = sites
        .iter()
        .filter(|s| known.iter().any(|k| matches(k, s)))
        .count();
    let precision = if sites.is_empty() {
        1.0
    } else {
        true_sites as f64 / sites.len() as f64
    };
    (found as f64 / known.len().max(1) as f64, precision)
}

/// One finished campaign.
struct Run {
    secs: f64,
    peak: usize,
    result: pmrace::CrashCampaignResult,
    cfg: CrashCampaignConfig,
}

fn campaign(app: &Arc<Capped>, cfg: CrashCampaignConfig, out: &mut Outcome) -> Option<Run> {
    let dyn_app: Arc<dyn Application> = app.clone();
    let ((result, secs), peak) = with_peak(|| {
        let t0 = Instant::now();
        let r = run_crash_campaign(&dyn_app, &cfg);
        (r, t0.elapsed().as_secs_f64())
    });
    match result {
        Ok(result) => {
            let v = result.metrics(&cfg).conservation_violations();
            out.check(v.is_empty(), || {
                format!("campaign metrics conservation: {v:?}")
            });
            out.check(result.records.len() as u64 == cfg.rounds, || {
                format!(
                    "campaign recorded {} of {} rounds",
                    result.records.len(),
                    cfg.rounds
                )
            });
            for rec in &result.records {
                let transient = rec.outcome.is_transient();
                out.check(!transient, || {
                    format!("round {}: {:?}", rec.round, rec.outcome)
                });
                out.tally.record(!transient);
            }
            Some(Run {
                secs,
                peak,
                result,
                cfg,
            })
        }
        Err(e) => {
            out.check(false, || format!("campaign failed to run: {e}"));
            out.tally.record(false);
            None
        }
    }
}

/// Runs the workload for the context's measurement window.
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let known = PclhtApp.known_races();
    // Set-up: an unsteered warm-up campaign, which loads the code paths
    // and the allocator without touching the measured campaigns' steering.
    // It runs several rounds because one round's cost depends on whether
    // its workload resizes the table: a one-round warm-up made set-up time
    // bimodal across seeds (0.043 s or 0.070 s). Each repetition warms up
    // on a seed of its own: with one seed for all, setup_s followed that
    // seed's resizes (medians 0.45 s to 0.59 s across run seeds).
    let plain = Arc::new(Capped::new(ctx.nproc, None));
    let mut warm = Outcome::default();
    let mut rep = 0;
    let (_, setup_s, setup_times) = timed_setup(SETUP_REPS, || {
        rep += 1;
        campaign(
            &plain,
            config(ctx, ctx.derive(5, rep), WARMUP_ROUNDS, false),
            &mut warm,
        )
    });
    out.check(warm.failures.is_empty(), || {
        format!("warm-up round failed: {:?}", warm.failures)
    });
    out.note(format!(
        "campaign-pclht: steered, {ROUNDS} rounds x {MAIN_OPS} ops, 3 crash points, axes workload,crash,memory, no delays, app threads <= {}, analysis threads {}, set-up reps {setup_times:.4?}",
        ctx.nproc, ctx.nproc
    ));
    if traced {
        traced_campaigns(ctx, &plain, &mut out);
        return out;
    }

    let started = Instant::now();
    let mut runs = Vec::new();
    let mut j = 0u64;
    while j == 0 || started.elapsed() < ctx.seconds {
        runs.extend(campaign(
            &plain,
            config(ctx, ctx.derive(4, j), ROUNDS, true),
            &mut out,
        ));
        j += 1;
    }
    // Rounds fall into two cost modes (runs whose P-CLHT table resizes
    // and runs where it does not), so a median round sits between them;
    // a whole campaign mixes both and its time is unimodal.
    let round_s: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.result
                .records
                .iter()
                .map(|rec| rec.duration_ms as f64 / 1e3)
        })
        .collect();
    let campaign_s: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    // Detection quality is scored on the union of a campaign's race sites:
    // what a campaign finds is its output.
    let (mut recall, mut precision) = (vec![], vec![]);
    for r in &runs {
        let sites: Vec<CoveragePoint> = r
            .result
            .records
            .iter()
            .flat_map(|rec| rec.coverage.iter().cloned())
            .collect();
        let (rc, pr) = score_sites(&sites, &known);
        recall.push(rc);
        precision.push(pr);
    }
    let sites: Vec<f64> = runs
        .iter()
        .map(|r| r.result.coverage_report().race_sites as f64)
        .collect();
    let findings: usize = runs.iter().map(|r| r.result.findings().count()).sum();
    let total_secs: f64 = campaign_s.iter().sum();
    out.note(format!(
        "campaign: {}",
        Summary::of(&campaign_s).render(1.0, "s")
    ));
    out.note(format!(
        "round: {}; {:.3} rounds/s",
        Summary::of(&round_s).render(1.0, "s"),
        round_s.len() as f64 / total_secs.max(1e-9)
    ));
    out.note(format!(
        "race sites per campaign {sites:?}; finding rounds {findings}"
    ));
    let peaks: Vec<f64> = runs
        .iter()
        .map(|r| r.peak as f64 / (1u64 << 20) as f64)
        .collect();
    out.metric("op_s_p50", median(&campaign_s), "s", campaign_s.len());
    out.metric(
        "ops_per_s",
        runs.len() as f64 / total_secs.max(1e-9),
        "1/s",
        runs.len(),
    );
    out.metric("peak_mib", median(&peaks), "MiB", peaks.len());
    out.metric("known_recall", mean(&recall), "ratio", recall.len());
    out.metric("precision", mean(&precision), "ratio", precision.len());
    out.metric(
        "success_ratio",
        1.0 - out.tally.error_rate(),
        "ratio",
        out.tally.attempted as usize,
    );
    out.metric("setup_s", setup_s, "s", SETUP_REPS);
    out
}

/// Traced campaigns, each paired with an untraced campaign of the same
/// seed; afterwards the first campaign's round traces are replayed through
/// `simulate` and `run_pairing` to attribute the per-round analysis,
/// which runs inside the campaign where no span can reach it.
fn traced_campaigns(ctx: &Ctx, plain: &Arc<Capped>, out: &mut Outcome) {
    let tracer = Arc::new(Tracer::default());
    let spanned = Arc::new(Capped::new(ctx.nproc, Some(tracer.clone())));
    let (mut traced_s, mut untraced_s) = (vec![], vec![]);
    let mut runs = Vec::new();
    let started = Instant::now();
    let mut j = 0u64;
    while j == 0 || started.elapsed() < ctx.seconds {
        let seed = ctx.derive(4, j);
        let root = tracer.start("op", None, j);
        spanned.parent.store(root.id(), Ordering::SeqCst);
        let traced = campaign(&spanned, config(ctx, seed, ROUNDS, true), out);
        drop(root);
        let untraced = campaign(plain, config(ctx, seed, ROUNDS, true), out);
        if let (Some(a), Some(b)) = (&traced, &untraced) {
            traced_s.push(a.secs);
            untraced_s.push(b.secs);
        }
        runs.extend(traced);
        j += 1;
    }
    let mut layers = std::mem::take(&mut *spanned.layers.lock().expect("layer counters poisoned"));
    for r in &runs {
        let records = &r.result.records;
        for rec in records {
            layers.sample("pmrace.round_ms", rec.duration_ms as f64);
        }
        layers.sample(
            "pmrace.retries",
            records.iter().map(|rec| f64::from(rec.retries)).sum(),
        );
        layers.sample(
            "pmrace.race_sites",
            r.result.coverage_report().race_sites as f64,
        );
        let failed = records
            .iter()
            .filter(|rec| {
                matches!(
                    rec.outcome,
                    RoundOutcome::Panicked { .. } | RoundOutcome::TimedOut
                )
            })
            .count();
        out.check(failed == 0, || {
            format!("seed {}: {failed} rounds failed", r.cfg.seed)
        });
    }
    let replay = std::mem::take(&mut *spanned.replay.lock().expect("replay list poisoned"));
    let analyzer = Analyzer::new(AnalysisConfig::default()).threads(ctx.nproc);
    let sim_cfg = sim_config(&analyzer);
    for (trace, k) in replay.iter().zip(0u64..) {
        let root = tracer.start("replay", None, k);
        let access = tracer.time("memsim.simulate", Some(root.id()), k, || {
            simulate(trace, &sim_cfg)
        });
        let split = tracer.time("pairing.run_pairing", Some(root.id()), k, || {
            analyzer.run_pairing(trace, &access)
        });
        drop(root);
        let whole = analyzer.run(trace);
        out.check(split.races == whole.races, || {
            format!("replay {k}: simulate + run_pairing differ from Analyzer::run")
        });
        layers.record_sim(&access.stats);
        if let Some(m) = &split.metrics {
            layers.record_pairing(m);
        }
    }
    out.note(format!(
        "tracing overhead: traced campaign {:.3} s vs untraced {:.3} s, same seeds (n={}); {} round traces replayed",
        mean(&traced_s),
        mean(&untraced_s),
        traced_s.len(),
        replay.len()
    ));
    layers.overhead(mean(&traced_s) * 1e3, mean(&untraced_s) * 1e3);
    layers.set("env.nproc", ctx.nproc as f64);
    layers.set("env.app_threads", ctx.nproc as f64);
    layers.set("env.analysis_threads", ctx.nproc as f64);
    layers.finish(out, &tracer.spans());
}
