//! Per-layer metrics of the traced run. Every workload reports the same
//! list, in the same order; a layer the workload does not exercise reads
//! 0 — that absence is itself the design claim being checked (repair is
//! absent on the Figure-6 workloads, the runtime on the serve workload's
//! requests).

use std::collections::BTreeMap;

use hawkset_core::memsim::SimStats;
use hawkset_core::obs::MetricsSnapshot;
use hawkset_core::trace::{EventKind, Trace};

use crate::stats::mean;
use crate::Outcome;

/// Per-layer metric names and units, in report order. `BENCHMARK.json`
/// lists the same names under `per_layer`.
pub const METRICS: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("runtime.execute_ms", "ms"),
    ("runtime.events", "count"),
    ("runtime.events_per_s", "1/s"),
    ("runtime.pm_ops", "count"),
    ("runtime.sync_ops", "count"),
    ("trace_io.encode_ms", "ms"),
    ("trace_io.decode_ms", "ms"),
    ("trace_io.bytes", "bytes"),
    ("memsim.simulate_ms", "ms"),
    ("memsim.events_per_s", "1/s"),
    ("memsim.windows_created", "count"),
    ("memsim.tracked_words", "count"),
    ("irh.prune_ratio", "ratio"),
    ("pairing.pairing_ms", "ms"),
    ("pairing.candidate_pairs", "count"),
    ("pairing.pairs_reported", "count"),
    ("pairing.report_ratio", "ratio"),
    ("pairing.hb_memo_hit_ratio", "ratio"),
    ("analysis.stream_ms", "ms"),
    ("repair.attach_ms", "ms"),
    ("repair.suggestions", "count"),
    ("repair.validated_ratio", "ratio"),
    ("repair.ms_per_suggestion", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.upload_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("db.query_ms", "ms"),
    ("db.races", "count"),
    ("pmrace.round_ms", "ms"),
    ("pmrace.probe_pass_ms", "ms"),
    ("pmrace.crash_pass_ms", "ms"),
    ("pmrace.retries", "count"),
    ("pmrace.audit_ms", "ms"),
    ("pmrace.race_sites", "count"),
    ("op.self_ms", "ms"),
    ("op.total_ms", "ms"),
    ("share.runtime", "ratio"),
    ("share.memsim_pairing", "ratio"),
    ("share.repair", "ratio"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_ratio", "ratio"),
    ("env.nproc", "count"),
    ("env.app_threads", "count"),
    ("env.analysis_threads", "count"),
    ("env.serve_workers", "count"),
    ("env.connections", "count"),
];

/// Span names whose mean self time (per span) is reported directly.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("workloads.generate", "workloads.generate_ms"),
    ("runtime.execute", "runtime.execute_ms"),
    ("trace_io.encode", "trace_io.encode_ms"),
    ("trace_io.decode", "trace_io.decode_ms"),
    ("memsim.simulate", "memsim.simulate_ms"),
    ("pairing.run_pairing", "pairing.pairing_ms"),
    ("analysis.try_run_stream", "analysis.stream_ms"),
    ("repair.attach_fixes", "repair.attach_ms"),
    ("report.to_json", "report.render_ms"),
    ("pmrace.audit", "pmrace.audit_ms"),
    ("pmrace.probe_pass", "pmrace.probe_pass_ms"),
    ("pmrace.crash_pass", "pmrace.crash_pass_ms"),
    ("db.load_stable", "db.query_ms"),
];

/// Accumulates per-layer samples across a traced run.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one sample of a per-call metric (reported as the mean).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds to a running sum used by a ratio.
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Sets a metric to a single value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.samples.insert(name, vec![v]);
    }

    /// One recorded trace: its events, split into PM operations (stores,
    /// loads, flushes, fences) and synchronization (lock and thread
    /// events).
    pub fn record_trace(&mut self, trace: &Trace) {
        let (mut pm, mut sync) = (0u64, 0u64);
        for ev in trace.iter() {
            match ev.kind {
                EventKind::Store { .. }
                | EventKind::Load { .. }
                | EventKind::Flush { .. }
                | EventKind::Fence => pm += 1,
                EventKind::Acquire { .. }
                | EventKind::Release { .. }
                | EventKind::ThreadCreate { .. }
                | EventKind::ThreadJoin { .. } => sync += 1,
            }
        }
        let events = trace.events.len() as f64;
        self.sample("runtime.events", events);
        self.sample("runtime.pm_ops", pm as f64);
        self.sample("runtime.sync_ops", sync as f64);
        self.add("runtime.events", events);
    }

    /// One simulation's counters (`AccessSet.stats`).
    pub fn record_sim(&mut self, s: &SimStats) {
        self.sample("memsim.windows_created", s.windows_created as f64);
        self.sample("memsim.tracked_words", s.tracked_words as f64);
        self.add("memsim.events", s.events as f64);
        self.add("irh.discarded", s.irh_discarded_windows as f64);
        self.add("memsim.windows", s.windows_created as f64);
    }

    /// One pairing run's counters.
    pub fn record_pairing(&mut self, m: &MetricsSnapshot) {
        let p = &m.pairing;
        self.sample("pairing.candidate_pairs", p.candidate_pairs as f64);
        self.sample("pairing.pairs_reported", p.pairs_reported as f64);
        self.add("pairing.candidates", p.candidate_pairs as f64);
        self.add("pairing.reported", p.pairs_reported as f64);
        self.add("pairing.hb_memo_hits", p.hb_memo_hits as f64);
    }

    /// Simulation and pairing times measured by the program's own stage
    /// timers — used where the two stages run inside one public call
    /// (the streaming path) and cannot be wrapped separately.
    pub fn record_stage_timers(&mut self, m: &MetricsSnapshot) {
        self.sample("memsim.simulate_ms", m.timing.simulate_ms);
        self.sample("pairing.pairing_ms", m.timing.pairing_ms);
        self.add("memsim.ms", m.timing.simulate_ms);
    }

    /// Repair output of one report: suggestion and validated counts.
    pub fn record_fixes(&mut self, suggestions: usize, validated: usize) {
        self.sample("repair.suggestions", suggestions as f64);
        self.add("repair.suggestions", suggestions as f64);
        self.add("repair.validated", validated as f64);
    }

    /// Records the tracing overhead: traced minus untraced time of the
    /// same work, absolute and relative to the untraced time.
    pub fn overhead(&mut self, traced_ms: f64, untraced_ms: f64) {
        self.set("tracing.overhead_ms", traced_ms - untraced_ms);
        self.set(
            "tracing.overhead_ratio",
            if untraced_ms > 0.0 {
                (traced_ms - untraced_ms) / untraced_ms
            } else {
                0.0
            },
        );
    }

    /// Folds the span self times in, derives the ratios and shares, and
    /// emits every metric of [`METRICS`] into `out`.
    pub fn finish(mut self, out: &mut Outcome, spans: &[crate::spans::SpanRecord]) {
        let selfs = crate::spans::self_times(spans);
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(selfs[&s.id] as f64 / 1e6);
        }
        let total = |name: &str| {
            by_name
                .get(name)
                .map_or(0.0, |v| v.iter().fold(0.0, |a, b| a + b))
        };
        for &(span, metric) in SPAN_METRICS {
            if let Some(v) = by_name.get(span) {
                self.samples.entry(metric).or_default().extend(v);
            }
        }
        // Shares of the time spent inside operation spans: the op's own
        // self time plus every layer span it parents.
        let op_ids: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| s.id)
            .collect();
        let op_total: f64 = spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum();
        let under_op = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name && s.parent.is_some_and(|p| op_ids.contains(&p)))
                .map(|s| selfs[&s.id] as f64 / 1e6)
                .fold(0.0, |a, b| a + b)
        };
        let ops = op_ids.len().max(1) as f64;
        let share = |x: f64| if op_total > 0.0 { x / op_total } else { 0.0 };
        let memsim_pairing = under_op("memsim.simulate")
            + under_op("pairing.run_pairing")
            + self.sums.get("stream.stage_ms").copied().unwrap_or(0.0);
        self.set("share.runtime", share(under_op("runtime.execute")));
        self.set("share.memsim_pairing", share(memsim_pairing));
        self.set("share.repair", share(under_op("repair.attach_fixes")));
        self.set("op.total_ms", op_total / ops);
        self.set("op.self_ms", total("op") / ops);

        let sum = |s: &Self, k: &str| s.sums.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let exec_s = total("runtime.execute") / 1e3;
        self.set(
            "runtime.events_per_s",
            ratio(sum(&self, "runtime.events"), exec_s),
        );
        let sim_ms = total("memsim.simulate") + sum(&self, "memsim.ms");
        self.set(
            "memsim.events_per_s",
            ratio(sum(&self, "memsim.events"), sim_ms / 1e3),
        );
        self.set(
            "irh.prune_ratio",
            ratio(sum(&self, "irh.discarded"), sum(&self, "memsim.windows")),
        );
        self.set(
            "pairing.report_ratio",
            ratio(
                sum(&self, "pairing.reported"),
                sum(&self, "pairing.candidates"),
            ),
        );
        self.set(
            "pairing.hb_memo_hit_ratio",
            ratio(
                sum(&self, "pairing.hb_memo_hits"),
                sum(&self, "pairing.candidates"),
            ),
        );
        self.set(
            "repair.validated_ratio",
            ratio(
                sum(&self, "repair.validated"),
                sum(&self, "repair.suggestions"),
            ),
        );
        self.set(
            "repair.ms_per_suggestion",
            ratio(
                total("repair.attach_fixes"),
                sum(&self, "repair.suggestions"),
            ),
        );
        for &(name, unit) in METRICS {
            let samples = self.samples.get(name).map_or(&[][..], |s| &s[..]);
            out.metric(name, mean(samples), unit, samples.len());
        }
    }

    /// Adds to the simulation+pairing time measured by stage timers
    /// inside a streamed analysis (counted toward `share.memsim_pairing`).
    pub fn stream_stage_ms(&mut self, ms: f64) {
        self.add("stream.stage_ms", ms);
    }
}
