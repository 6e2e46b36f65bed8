//! `serve-triage`: recorded app traces submitted to a child
//! `hawkset serve --suggest-fixes` by closed-loop client connections,
//! with race-database reads interleaved. The runtime runs only in set-up;
//! each request is streaming ingest, analysis, repair, the serve queue
//! and a durable database checkpoint.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hawkset_core::analysis::{AnalysisConfig, AnalysisReport, Analyzer};
use hawkset_core::trace::io;
use hawkset_serve::frame::{read_frame, write_frame, Frame, FrameKind};
use hawkset_serve::{load_stable, ServeMetricsSnapshot};
use pm_apps::apex::ApexApp;
use pm_apps::pclht::PclhtApp;
use pm_apps::turbohash::TurboHashApp;
use pm_apps::wipe::WipeApp;
use pm_apps::{AppWorkload, Application};
use serde_json::{Map, Value};

use crate::layers::Layers;
use crate::spans::{maybe_time, Tracer};
use crate::stats::{mean, median, Summary};
use crate::{timed_setup, truth, with_peak, Ctx, Outcome, Truth};

/// Main-phase operations of each recorded trace. Memcached is left out:
/// one of its requests takes seconds and would be the whole tail.
const OPS: u64 = 1_000;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 5;
/// Payload bytes per DATA frame (the stock client's chunk size).
const CHUNK: usize = hawkset_serve::client::DATA_CHUNK;
/// Bound on a RESULT payload.
const MAX_REPLY: usize = 64 << 20;

fn apps() -> [Box<dyn Application>; 4] {
    [
        Box::new(WipeApp),
        Box::new(PclhtApp),
        Box::new(ApexApp),
        Box::new(TurboHashApp),
    ]
}

/// One recorded trace and what the offline analyzer says about it.
struct Input {
    app: &'static str,
    bytes: Vec<u8>,
    /// Offline report (`suggest_fixes` on), timing masked, rendered.
    reference: String,
    truth: Truth,
}

/// Replaces every wall-clock field of a schema-v1 report with `null`:
/// `stats.duration_ms` and the `metrics.timing` object.
fn mask(v: Value) -> Value {
    match v {
        Value::Object(m) => {
            let mut out = Map::new();
            for (k, v) in m {
                let masked = if k == "duration_ms" || k == "timing" {
                    Value::Null
                } else {
                    mask(v)
                };
                out.insert(k, masked);
            }
            Value::Object(out)
        }
        Value::Array(a) => Value::Array(a.into_iter().map(mask).collect()),
        other => other,
    }
}

fn masked_json(report_json: &str) -> Result<String, String> {
    let v = serde_json::parse(report_json).map_err(|e| format!("report is not JSON: {e}"))?;
    Ok(serde_json::to_string_pretty(&mask(v)).expect("masked report serializes"))
}

/// Records, encodes and analyzes offline every input trace.
fn prepare(
    ctx: &Ctx,
    tracer: Option<&Tracer>,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Vec<Input> {
    let offline = Analyzer::new(AnalysisConfig::default())
        .threads(ctx.nproc)
        .suggest_fixes(true);
    let mut inputs = Vec::new();
    for (k, app) in apps().iter().enumerate() {
        let wl = maybe_time(tracer, "workloads.generate", None, 0, || {
            match app.default_workload(OPS, ctx.derive(3, k as u64)) {
                AppWorkload::Ycsb(w) => AppWorkload::Ycsb(w.reshard(ctx.nproc)),
                other => other,
            }
        });
        let trace = maybe_time(tracer, "runtime.execute", None, 0, || app.execute(&wl));
        let valid = trace.validate();
        out.check(valid.is_ok(), || {
            format!("{}: recorded trace fails validation: {valid:?}", app.name())
        });
        let bytes = maybe_time(tracer, "trace_io.encode", None, 0, || {
            io::encode(&trace).to_vec()
        });
        if tracer.is_some() {
            layers.record_trace(&trace);
            layers.sample("trace_io.bytes", bytes.len() as f64);
        }
        let report = match io::decode(&bytes) {
            Ok(decoded) => offline.run(&decoded),
            Err(e) => {
                out.check(false, || {
                    format!("{}: own encoding fails to decode: {e}", app.name())
                });
                AnalysisReport::default()
            }
        };
        let reference = masked_json(&report.to_json()).expect("own report is JSON");
        inputs.push(Input {
            app: app.name(),
            truth: truth(&report.races, &app.known_races()),
            bytes,
            reference,
        });
    }
    inputs
}

/// A running `hawkset serve`; stopped (and reaped) on drop.
struct Daemon {
    child: Child,
    addr: String,
    db: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, db: &Path, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(db);
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--suggest-fixes",
                "--workers",
            ])
            .arg(workers.to_string())
            .arg("--db")
            .arg(db)
            .env_remove("HAWKSET_IO_FAULT_SCRIPT")
            .env_remove("HAWKSET_TEST_JOB_DELAY_MS")
            .env_remove("HAWKSET_TEST_PANIC_FIRST_ATTEMPT")
            .env_remove("HAWKSET_TEST_SHARD_DELAY_MS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            db: db.to_path_buf(),
        };
        if read.is_err() || !line.starts_with("serve: ready") {
            return Err(format!("daemon did not become ready: {line:?}"));
        }
        daemon.addr = line
            .split_whitespace()
            .find_map(|t| t.strip_prefix("tcp="))
            .ok_or_else(|| format!("readiness line has no tcp address: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Peak resident set of the daemon so far, MiB (`VmHWM`).
    fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// SIGTERM, wait for the graceful drain, and return its exit code and
    /// the metrics snapshot it wrote.
    fn drain(mut self) -> Result<ServeMetricsSnapshot, String> {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status();
        if !sent.is_ok_and(|s| s.success()) {
            return Err("cannot signal the daemon".into());
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break s,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err("daemon did not drain within 60 s".into()),
            }
        };
        if status.code() != Some(0) {
            return Err(format!("daemon drain exited with {status}"));
        }
        let raw = std::fs::read_to_string(self.db.join("serve-metrics.json"))
            .map_err(|e| format!("no serve metrics after drain: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("serve metrics unreadable: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One served request's timings and verdict.
struct Served {
    input: usize,
    /// SUBMIT → ACCEPTED, s.
    upload: f64,
    /// ACCEPTED → RESULT, s.
    wait: f64,
    ok: bool,
    shed: bool,
    /// Race-database read after the request: (seconds, races).
    query: Option<(f64, usize)>,
}

fn request(
    conn: &mut TcpStream,
    tenant: &str,
    bytes: &[u8],
) -> std::io::Result<(f64, f64, Frame, Option<Frame>)> {
    let t0 = Instant::now();
    write_frame(
        conn,
        &Frame::new(FrameKind::Submit, tenant.as_bytes().to_vec()),
    )?;
    conn.flush()?;
    let verdict = read_frame(conn, MAX_REPLY)?.ok_or(std::io::ErrorKind::UnexpectedEof)?;
    let t1 = Instant::now();
    if verdict.kind != FrameKind::Accepted {
        return Ok(((t1 - t0).as_secs_f64(), 0.0, verdict, None));
    }
    for chunk in bytes.chunks(CHUNK) {
        write_frame(conn, &Frame::new(FrameKind::Data, chunk.to_vec()))?;
    }
    write_frame(conn, &Frame::empty(FrameKind::End))?;
    conn.flush()?;
    let result = read_frame(conn, MAX_REPLY)?.ok_or(std::io::ErrorKind::UnexpectedEof)?;
    let t2 = Instant::now();
    Ok((
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        verdict,
        Some(result),
    ))
}

/// One closed-loop client: submits inputs round-robin (starting at its
/// own index) until the deadline, reading the race database after each
/// result.
fn client(
    c: usize,
    addr: &str,
    db: &Path,
    inputs: &[Input],
    until: Instant,
    failures: &mut Vec<String>,
) -> Vec<Served> {
    let mut served = Vec::new();
    let mut conn = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("client {c}: connect: {e}"));
            return served;
        }
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(120)));
    let tenant = format!("client-{c}");
    let mut last_races = 0usize;
    let mut k = 0usize;
    while k == 0 || Instant::now() < until {
        let idx = (c + k) % inputs.len();
        k += 1;
        let input = &inputs[idx];
        let mut rec = Served {
            input: idx,
            upload: 0.0,
            wait: 0.0,
            ok: false,
            shed: false,
            query: None,
        };
        match request(&mut conn, &tenant, &input.bytes) {
            Err(e) => {
                failures.push(format!("client {c}: {}: {e}", input.app));
                served.push(rec);
                break;
            }
            Ok((upload, wait, verdict, result)) => {
                rec.upload = upload;
                rec.wait = wait;
                rec.shed = verdict.kind == FrameKind::Shed;
                match result {
                    Some(r) if r.kind == FrameKind::Result && !r.payload.is_empty() => {
                        let json = String::from_utf8_lossy(&r.payload[1..]);
                        match masked_json(&json) {
                            Ok(m) if m == input.reference => rec.ok = true,
                            Ok(_) => failures.push(format!(
                                "client {c}: {}: served report differs from the offline report",
                                input.app
                            )),
                            Err(e) => failures.push(format!("client {c}: {}: {e}", input.app)),
                        }
                    }
                    Some(r) => failures.push(format!(
                        "client {c}: {}: {:?} {}",
                        input.app,
                        r.kind,
                        r.text()
                    )),
                    None => failures.push(format!(
                        "client {c}: {}: {:?} {}",
                        input.app,
                        verdict.kind,
                        verdict.text()
                    )),
                }
            }
        }
        if rec.ok {
            let t0 = Instant::now();
            match load_stable(db) {
                Ok(snap) => {
                    let races = snap.records.len();
                    if races < last_races {
                        failures.push(format!(
                            "client {c}: race database shrank {last_races} -> {races}"
                        ));
                    }
                    last_races = races;
                    rec.query = Some((t0.elapsed().as_secs_f64(), races));
                }
                Err(e) => failures.push(format!("client {c}: load_stable: {e}")),
            }
        }
        served.push(rec);
    }
    served
}

/// Runs every client against the daemon until `window` elapses.
fn serve_phase(
    ctx: &Ctx,
    daemon: &Daemon,
    inputs: &[Input],
    window: Duration,
    out: &mut Outcome,
) -> (Vec<Served>, f64) {
    let started = Instant::now();
    let until = started + window;
    let results: Vec<(Vec<Served>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|c| {
                s.spawn(move || {
                    let mut failures = Vec::new();
                    let served = client(c, &daemon.addr, &daemon.db, inputs, until, &mut failures);
                    (served, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for (served, failures) in results {
        for f in failures {
            out.check(false, || f);
        }
        all.extend(served);
    }
    (all, elapsed)
}

/// Stops the daemon and checks its books against what the clients saw.
fn finish_daemon(
    daemon: Daemon,
    served: &[Served],
    out: &mut Outcome,
) -> Option<ServeMetricsSnapshot> {
    match daemon.drain() {
        Ok(m) => {
            let v = m.conservation_violations();
            out.check(v.is_empty(), || {
                format!("serve metrics conservation: {v:?}")
            });
            out.check(m.submitted == served.len() as u64, || {
                format!(
                    "daemon counted {} submissions, clients sent {}",
                    m.submitted,
                    served.len()
                )
            });
            let ok = served.iter().filter(|s| s.ok).count() as u64;
            let done = m.outcomes.completed_clean + m.outcomes.completed_races;
            out.check(done == ok, || {
                format!("daemon completed {done} jobs, clients verified {ok}")
            });
            Some(m)
        }
        Err(e) => {
            out.check(false, || e);
            None
        }
    }
}

/// Runs the workload for the context's measurement window.
pub fn run(ctx: &Ctx, bin: &Path, work_dir: &Path, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(work_dir) {
        out.check(false, || {
            format!("cannot create {}: {e}", work_dir.display())
        });
        return out;
    }
    let tracer = traced.then(Tracer::default);
    let mut layers = Layers::default();
    let mut rep = 0;
    let mut spare = Vec::new();
    let ((inputs, daemon), setup_s, setup_times) = timed_setup(SETUP_REPS, || {
        rep += 1;
        let last = rep == SETUP_REPS;
        // Only the last repetition's inputs, spans and daemon are kept;
        // earlier daemons are drained after the timed set-up.
        let mut scratch = Layers::default();
        let mut discard = Outcome::default();
        let (layers, out) = if last {
            (&mut layers, &mut out)
        } else {
            (&mut scratch, &mut discard)
        };
        let inputs = prepare(ctx, tracer.as_ref().filter(|_| last), layers, out);
        let db = work_dir.join(format!("serve-db-{}-{rep}", std::process::id()));
        let daemon = Daemon::start(bin, &db, ctx.nproc);
        if last {
            return (inputs, Some(daemon));
        }
        spare.extend(daemon.ok());
        (inputs, None)
    });
    for d in spare {
        let db = d.db.clone();
        let _ = d.drain();
        let _ = std::fs::remove_dir_all(db);
    }
    let daemon = match daemon {
        Some(Ok(d)) => d,
        Some(Err(e)) => {
            out.check(false, || e);
            return out;
        }
        None => unreachable!("the last set-up repetition starts the daemon"),
    };
    out.note(format!(
        "serve-triage: {} traces of {OPS} ops ({}), {} bytes total, daemon workers {}, client connections {} (closed loop), app threads {}, offline analysis threads {}, daemon analysis threads 1 per worker, set-up reps {setup_times:.4?}",
        inputs.len(),
        inputs.iter().map(|i| i.app).collect::<Vec<_>>().join(", "),
        inputs.iter().map(|i| i.bytes.len()).sum::<usize>(),
        ctx.nproc,
        ctx.nproc,
        ctx.nproc,
        ctx.nproc,
    ));

    let window = if traced { ctx.seconds / 2 } else { ctx.seconds };
    let (served, elapsed) = serve_phase(ctx, &daemon, &inputs, window, &mut out);
    let peak = daemon.peak_rss_mib();
    let db = daemon.db.clone();
    let metrics = finish_daemon(daemon, &served, &mut out);
    let _ = std::fs::remove_dir_all(&db);
    for s in &served {
        out.tally.record(s.ok);
    }
    let ok: Vec<&Served> = served.iter().filter(|s| s.ok).collect();
    let latency: Vec<f64> = ok.iter().map(|s| s.upload + s.wait).collect();
    out.note(format!(
        "request (SUBMIT -> RESULT): {}",
        Summary::of(&latency).render(1.0, "s")
    ));
    // The four traces' latencies form four separate modes, and a pooled
    // median falls in the gap between two of them, where a small shift in
    // the request mix moves it a lot. The reported figure is therefore the
    // mean of the per-trace medians.
    let mut per_trace = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let own: Vec<f64> = ok
            .iter()
            .filter(|s| s.input == k)
            .map(|s| s.upload + s.wait)
            .collect();
        out.check(!own.is_empty(), || {
            format!("{}: no request completed", input.app)
        });
        out.note(format!(
            "  {}: {}",
            input.app,
            Summary::of(&own).render(1.0, "s")
        ));
        per_trace.push(median(&own));
    }

    if let Some(tracer) = tracer {
        out.check(peak.is_some(), || "daemon peak RSS unreadable".into());
        for s in &ok {
            layers.sample("serve.upload_ms", s.upload * 1e3);
            layers.sample("serve.wait_ms", s.wait * 1e3);
            if let Some((q, races)) = s.query {
                layers.sample("db.query_ms", q * 1e3);
                layers.sample("db.races", races as f64);
            }
        }
        layers.set("serve.shed", metrics.map_or(0, |m| m.shed.total) as f64);
        in_process(ctx, &inputs, &ok, &tracer, &mut layers, &mut out);
        layers.set("env.nproc", ctx.nproc as f64);
        layers.set("env.app_threads", ctx.nproc as f64);
        layers.set("env.analysis_threads", 1.0);
        layers.set("env.serve_workers", ctx.nproc as f64);
        layers.set("env.connections", ctx.nproc as f64);
        layers.finish(&mut out, &tracer.spans());
        return out;
    }

    let recall: Vec<f64> = ok.iter().map(|s| inputs[s.input].truth.recall).collect();
    let precision: Vec<f64> = ok.iter().map(|s| inputs[s.input].truth.precision).collect();
    let malign: Vec<f64> = ok
        .iter()
        .filter_map(|s| inputs[s.input].truth.malign_recall)
        .collect();
    out.note(format!(
        "malign_recall {:.4}; false_positives/request {:.2}; shed {}",
        mean(&malign),
        mean(
            &ok.iter()
                .map(|s| inputs[s.input].truth.false_positives as f64)
                .collect::<Vec<_>>()
        ),
        served.iter().filter(|s| s.shed).count()
    ));
    // Peak heap of one request's analysis path, the daemon worker's calls
    // made in process on each trace; the daemon's whole-process peak RSS
    // depends on how the two workers' peaks happen to overlap.
    let heap: Vec<f64> = inputs
        .iter()
        .map(|input| with_peak(|| request_path(input)).1 as f64 / (1u64 << 20) as f64)
        .collect();
    out.note(format!(
        "daemon peak RSS {:.1} MiB; request-path peak heap per trace {heap:.1?} MiB",
        peak.unwrap_or(0.0)
    ));
    out.metric("op_s_p50", mean(&per_trace), "s", ok.len());
    out.metric("ops_per_s", ok.len() as f64 / elapsed, "1/s", ok.len());
    out.metric("peak_mib", mean(&heap), "MiB", heap.len());
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

/// The daemon worker's calls for one submission, made in process:
/// streaming analysis, a decode for repair, repair, rendering.
fn request_path(input: &Input) -> Result<String, String> {
    let analyzer = AnalysisConfig::builder()
        .threads(1)
        .suggest_fixes(true)
        .build_analyzer();
    let mut report = analyzer
        .try_run_stream(Cursor::new(input.bytes.clone()))
        .map_err(|e| e.to_string())?;
    let trace = io::decode(&input.bytes).map_err(|e| e.to_string())?;
    analyzer.attach_fixes(&trace, &mut report);
    Ok(report.to_json())
}

/// The traced run's second half: each input's request path called in
/// process, one public function at a time, as the daemon's worker calls
/// them — streaming analysis, decode for repair, repair, rendering —
/// alternating with the same path untraced.
fn in_process(
    ctx: &Ctx,
    inputs: &[Input],
    served: &[&Served],
    tracer: &Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let analyzer = AnalysisConfig::builder()
        .threads(1)
        .suggest_fixes(true)
        .build_analyzer();
    let mut per_input_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let (mut traced_ms, mut untraced_ms) = (vec![], vec![]);
    let started = Instant::now();
    let mut i = 0u64;
    while i < inputs.len() as u64 || started.elapsed() < ctx.seconds / 2 {
        let idx = (i % inputs.len() as u64) as usize;
        let input = &inputs[idx];
        // Untraced: the worker's path under one timer.
        let t0 = Instant::now();
        let plain = request_path(input);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t1 = Instant::now();
        let root = tracer.start("op", None, i);
        let rid = Some(root.id());
        let streamed = tracer.time("analysis.try_run_stream", rid, i, || {
            analyzer.try_run_stream(Cursor::new(input.bytes.clone()))
        });
        let (json, served_part_ms) = match streamed {
            Ok(mut report) => {
                let decoded = tracer.time("trace_io.decode", rid, i, || io::decode(&input.bytes));
                if let Ok(trace) = &decoded {
                    tracer.time("repair.attach_fixes", rid, i, || {
                        analyzer.attach_fixes(trace, &mut report)
                    });
                }
                let before_render = t1.elapsed().as_secs_f64() * 1e3;
                let json = tracer.time("report.to_json", rid, i, || report.to_json());
                if let Some(m) = &report.metrics {
                    layers.record_stage_timers(m);
                    layers.stream_stage_ms(m.timing.simulate_ms + m.timing.pairing_ms);
                    layers.record_pairing(m);
                }
                layers.record_sim(&report.stats.sim);
                let fixes = report
                    .fixes
                    .as_ref()
                    .map_or(&[][..], |f| &f.suggestions[..]);
                layers.record_fixes(fixes.len(), fixes.iter().filter(|f| f.validated).count());
                layers.sample("report.bytes", json.len() as f64);
                (Ok(json), before_render)
            }
            Err(e) => (Err(e), 0.0),
        };
        drop(root);
        traced_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        per_input_ms[idx].push(served_part_ms);

        let same = match (&json, &plain) {
            (Ok(a), Ok(b)) => {
                masked_json(a).ok() == Some(input.reference.clone())
                    && masked_json(b).ok() == Some(input.reference.clone())
            }
            _ => false,
        };
        let ok = out.check(same, || {
            format!(
                "{}: in-process request path differs from the offline report",
                input.app
            )
        });
        out.tally.record(ok);
        i += 1;
    }
    // serve.overhead_ms: what a served request waits beyond the in-process
    // work on the same bytes (queueing, contention, protocol, checkpoint).
    let overhead: Vec<f64> = served
        .iter()
        .map(|s| s.wait * 1e3 - mean(&per_input_ms[s.input]))
        .collect();
    layers.sample("serve.overhead_ms", mean(&overhead));
    layers.overhead(mean(&traced_ms), mean(&untraced_ms));
    out.note(format!(
        "in-process request path: traced {:.3} ms vs untraced {:.3} ms (medians, n={})",
        median(&traced_ms),
        median(&untraced_ms),
        traced_ms.len()
    ));
}
