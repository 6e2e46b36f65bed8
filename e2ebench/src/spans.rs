//! In-memory span recording for the traced run.
//!
//! A span is a named interval with an optional parent and the id of the
//! operation (tested run, request or campaign) it belongs to. Spans are
//! recorded by the benchmark around its calls into each layer — never
//! inside the program — and kept in memory until the run ends. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Operation the span belongs to (shared by all spans of one op).
    pub op: u64,
    /// Layer name, e.g. `memsim.simulate`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (`>= start`).
    pub end: u64,
}

/// Thread-safe span sink.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<(u64, Vec<SpanRecord>)>,
}

/// An open span; records itself when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: u64,
}

impl Span<'_> {
    /// Id to pass as the parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        self.tracer.lock().1.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start: self.start,
            end,
        });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new((0, Vec::new())),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Vec<SpanRecord>)> {
        self.spans
            .lock()
            .expect("span sink poisoned: a traced layer panicked")
    }

    /// Opens a span.
    pub fn start(&self, name: &'static str, parent: Option<u64>, op: u64) -> Span<'_> {
        let id = {
            let mut g = self.lock();
            g.0 += 1;
            g.0
        };
        Span {
            tracer: self,
            id,
            parent,
            op,
            name,
            start: self.now(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.start(name, parent, op);
        f()
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().1.clone()
    }
}

/// Runs `f` inside a span when `tracer` is set, plainly otherwise.
pub fn maybe_time<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, op, f),
        None => f(),
    }
}

/// Self time of every span, in nanoseconds, keyed by span id: duration
/// minus the union of its children's intervals, each clipped to the
/// parent's own interval (children that overlap one another, e.g. ones
/// run on parallel threads, are not subtracted twice).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 0,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 90),
            span(4, Some(3), 60, 70),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 20 - 40);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 40 - 10, "grandchildren only reduce their own parent");
        assert_eq!(s[&4], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, None, 100, 200),
            // Two parallel children overlapping on [130, 150].
            span(2, Some(1), 120, 150),
            span(3, Some(1), 130, 160),
            // A child that started before its parent: only [100, 110] counts.
            span(4, Some(1), 90, 110),
            // A child entirely outside the parent's interval.
            span(5, Some(1), 250, 260),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
    }

    #[test]
    fn recorded_spans_nest_and_self_times_add_up() {
        let t = Tracer::default();
        {
            let root = t.start("op", None, 7);
            t.time("layer", Some(root.id()), 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let (layer, root) = (&spans[0], &spans[1]);
        assert_eq!((layer.name, root.name), ("layer", "op"));
        assert_eq!(layer.parent, Some(root.id));
        let s = self_times(&spans);
        assert!(s[&layer.id] >= 2_000_000);
        assert_eq!(s[&root.id] + s[&layer.id], root.end - root.start);
    }
}
