//! `fig6-fastfair`: the paper's Figure-6 unit of work — one tested
//! application run, `Application::execute` followed by `Analyzer::run` —
//! on Fast-Fair at the Figure-6 16k size.

use std::time::Instant;

use hawkset_core::analysis::{AnalysisConfig, AnalysisReport, Analyzer};
use hawkset_core::memsim::simulate;
use hawkset_core::Trace;
use pm_apps::fastfair::FastFairApp;
use pm_apps::{AppWorkload, Application};

use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::{mean, median, Summary};
use crate::{sim_config, timed_setup, truth, with_peak, Ctx, Outcome};

/// Main-phase operations per tested run (the Figure-6 size).
const OPS: u64 = 16_000;
/// Distinct seeded inputs generated in set-up and cycled through.
const POOL: u64 = 8;
/// Operations of the warm-up run in set-up.
const WARMUP_OPS: u64 = 1_000;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 5;

/// Fast-Fair's §5 workload for `seed`, with the main phase re-dealt over
/// `threads` threads (never more than the host has cores).
fn workload(ops: u64, seed: u64, threads: usize) -> AppWorkload {
    match FastFairApp.default_workload(ops, seed) {
        AppWorkload::Ycsb(w) => AppWorkload::Ycsb(w.reshard(threads)),
        other => other,
    }
}

fn same_input(a: &AppWorkload, b: &AppWorkload) -> bool {
    match (a, b) {
        (AppWorkload::Ycsb(x), AppWorkload::Ycsb(y)) => x == y,
        _ => false,
    }
}

/// Checks one tested run's outputs; returns `false` on any failure.
fn check_run(out: &mut Outcome, i: u64, trace: &Trace, report: &AnalysisReport) -> bool {
    let valid = trace.validate();
    let mut ok = out.check(valid.is_ok(), || {
        format!("run {i}: recorded trace fails validation: {valid:?}")
    });
    let violations = report
        .metrics
        .as_ref()
        .map(|m| m.conservation_violations())
        .unwrap_or_else(|| vec!["report carries no metrics snapshot".into()]);
    ok &= out.check(violations.is_empty(), || {
        format!("run {i}: metrics conservation: {violations:?}")
    });
    ok &= out.check(!report.coverage.truncated, || {
        format!("run {i}: analysis truncated: {:?}", report.coverage.reason)
    });
    ok
}

/// Runs the workload for the context's measurement window.
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let app = &FastFairApp;
    let threads = ctx.nproc;
    let analyzer = Analyzer::new(AnalysisConfig::default()).threads(threads);
    let mut out = Outcome::default();

    // Set-up: generate the seeded input pool and warm the allocator and
    // code paths with one small tested run.
    let inputs = || -> Vec<AppWorkload> {
        (0..POOL)
            .map(|i| workload(OPS, ctx.derive(1, i), threads))
            .collect()
    };
    let (pool, setup_s, setup_times) = timed_setup(SETUP_REPS, || {
        let warm = workload(WARMUP_OPS, ctx.derive(2, 0), threads);
        analyzer.run(&app.execute(&warm));
        inputs()
    });
    let again = inputs();
    out.check(
        pool.iter().zip(&again).all(|(a, b)| same_input(a, b)),
        || "the same seed generated different inputs".into(),
    );
    out.note(format!(
        "fig6-fastfair: {OPS} ops/run, pool of {POOL} seeded inputs, app threads {threads}, analysis threads {threads}, set-up reps {setup_times:.4?}"
    ));

    if traced {
        traced_runs(ctx, app, &analyzer, &pool, &mut out);
    } else {
        untraced_runs(ctx, app, &analyzer, &pool, setup_s, &mut out);
    }
    out
}

fn untraced_runs(
    ctx: &Ctx,
    app: &dyn Application,
    analyzer: &Analyzer,
    pool: &[AppWorkload],
    setup_s: f64,
    out: &mut Outcome,
) {
    let known = app.known_races();
    let (mut lat, mut peaks, mut recall, mut precision) = (vec![], vec![], vec![], vec![]);
    let (mut malign, mut fps, mut events) = (vec![], vec![], vec![]);
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed() < ctx.seconds {
        let wl = &pool[i as usize % pool.len()];
        let ((trace, report, secs), peak) = with_peak(|| {
            let t0 = Instant::now();
            let trace = app.execute(wl);
            let report = analyzer.run(&trace);
            (trace, report, t0.elapsed().as_secs_f64())
        });
        let ok = check_run(out, i, &trace, &report);
        out.tally.record(ok);
        if ok {
            let t = truth(&report.races, &known);
            lat.push(secs);
            peaks.push(peak as f64 / (1u64 << 20) as f64);
            recall.push(t.recall);
            precision.push(t.precision);
            malign.extend(t.malign_recall);
            fps.push(t.false_positives as f64);
            events.push(trace.events.len() as f64);
        }
        i += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    out.note(format!(
        "tested run (execute + Analyzer::run): {}",
        Summary::of(&lat).render(1.0, "s")
    ));
    out.note(format!(
        "mean events/run {:.0}; malign_recall {}; false_positives/run {:.2}",
        mean(&events),
        if malign.is_empty() {
            "n/a (no known-malign race)".to_string()
        } else {
            format!("{:.4}", mean(&malign))
        },
        mean(&fps)
    ));
    out.metric("op_s_p50", median(&lat), "s", lat.len());
    out.metric("ops_per_s", lat.len() as f64 / elapsed, "1/s", lat.len());
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
}

fn traced_runs(
    ctx: &Ctx,
    app: &dyn Application,
    analyzer: &Analyzer,
    pool: &[AppWorkload],
    out: &mut Outcome,
) {
    let tracer = Tracer::default();
    let sim_cfg = sim_config(analyzer);
    let mut layer = Layers::default();
    let (mut traced_ms, mut untraced_ms) = (vec![], vec![]);
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed() < ctx.seconds {
        // Regenerate the input inside a span: generation is set-up work,
        // outside the tested run, but its cost is a layer of its own.
        let wl = tracer.time("workloads.generate", None, i, || {
            workload(OPS, ctx.derive(1, i % POOL), ctx.nproc)
        });
        let ok_input = out.check(same_input(&wl, &pool[(i % POOL) as usize]), || {
            format!("run {i}: regenerated input differs from set-up's")
        });
        let root = tracer.start("op", None, i);
        let rid = Some(root.id());
        let trace = tracer.time("runtime.execute", rid, i, || app.execute(&wl));
        let t_split = Instant::now();
        let access = tracer.time("memsim.simulate", rid, i, || simulate(&trace, &sim_cfg));
        let split = tracer.time("pairing.run_pairing", rid, i, || {
            analyzer.run_pairing(&trace, &access)
        });
        let split_ms = t_split.elapsed().as_secs_f64() * 1e3;
        drop(root);
        // The untraced comparison analyzes the same trace through the one
        // public call, outside any span.
        let t_whole = Instant::now();
        let report = analyzer.run(&trace);
        let whole_ms = t_whole.elapsed().as_secs_f64() * 1e3;
        traced_ms.push(split_ms);
        untraced_ms.push(whole_ms);

        let mut ok = ok_input && check_run(out, i, &trace, &report);
        ok &= out.check(split.races == report.races, || {
            format!(
                "run {i}: simulate + run_pairing found {} races, Analyzer::run {}",
                split.races.len(),
                report.races.len()
            )
        });
        out.tally.record(ok);
        layer.record_trace(&trace);
        layer.record_sim(&access.stats);
        if let Some(m) = &split.metrics {
            layer.record_pairing(m);
        }
        i += 1;
    }
    out.note(format!(
        "tracing overhead: layer-by-layer analysis {:.3} ms vs Analyzer::run {:.3} ms on the same traces (medians, n={})",
        median(&traced_ms),
        median(&untraced_ms),
        traced_ms.len()
    ));
    layer.overhead(mean(&traced_ms), mean(&untraced_ms));
    layer.set("env.nproc", ctx.nproc as f64);
    layer.set("env.app_threads", ctx.nproc as f64);
    layer.set("env.analysis_threads", ctx.nproc as f64);
    layer.finish(out, &tracer.spans());
}
