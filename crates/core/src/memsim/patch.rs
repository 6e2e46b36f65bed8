//! Replay-with-patch: re-simulating a trace with synthetic events applied.
//!
//! The repair engine ([`crate::analysis::repair`]) proposes instrumentation-
//! level patches — flush/fence insertions and lock-scope moves — and proves
//! them by *replaying* the original event stream with the patch applied
//! through the same incremental simulator the streaming analyzer uses
//! ([`StreamSimulator`]). This module is that replay substrate: a patch is a
//! set of event-level edits keyed by the original sequence numbers, applied
//! in one pass and densely re-sequenced so the patched stream is
//! indistinguishable from a trace recorded with the fix in place.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::iter::Peekable;

use crate::trace::{Event, EventKind, StackId, ThreadId, TraceView};

use super::{AccessSet, SimConfig, StreamSimulator};

/// One synthetic event to splice into the stream: who appears to have
/// executed it and what it does. The `seq` is assigned during application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntheticEvent {
    /// Thread the event is attributed to.
    pub tid: ThreadId,
    /// Stack the event is attributed to — patches reuse an existing stack
    /// id (typically the patched store's) so the stack table needs no
    /// growth and race keys stay comparable across replays.
    pub stack: StackId,
    /// The operation.
    pub kind: EventKind,
}

/// An event-level edit script over one trace view.
///
/// Edits are keyed by the *original* sequence numbers; application walks
/// the view once, drops removed events, splices insertions, and re-sequences
/// the result densely (the same normalization the lenient streaming path
/// applies to quarantined traces).
#[derive(Clone, Debug, Default)]
pub struct EventPatch {
    /// Events to drop, by original `seq`.
    removed: BTreeSet<u64>,
    /// Synthetic events spliced in *before* the event with the keyed `seq`.
    before: BTreeMap<u64, Vec<SyntheticEvent>>,
    /// Synthetic events spliced in *after* the event with the keyed `seq`.
    after: BTreeMap<u64, Vec<SyntheticEvent>>,
}

impl EventPatch {
    /// An empty patch (replays the view unchanged).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the patch edits nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.before.is_empty() && self.after.is_empty()
    }

    /// Number of edits (removals + insertions).
    pub fn len(&self) -> usize {
        self.removed.len()
            + self.before.values().map(Vec::len).sum::<usize>()
            + self.after.values().map(Vec::len).sum::<usize>()
    }

    /// Drops the event with original sequence number `seq`.
    pub fn remove(&mut self, seq: u64) {
        self.removed.insert(seq);
    }

    /// Splices `ev` immediately before the event with original `seq`
    /// (insertions at the same anchor keep their call order).
    pub fn insert_before(&mut self, seq: u64, ev: SyntheticEvent) {
        self.before.entry(seq).or_default().push(ev);
    }

    /// Splices `ev` immediately after the event with original `seq`
    /// (insertions at the same anchor keep their call order).
    pub fn insert_after(&mut self, seq: u64, ev: SyntheticEvent) {
        self.after.entry(seq).or_default().push(ev);
    }

    /// Walks the patched event stream of `view` in order, handing each
    /// event to `f` densely re-sequenced from 0 — no intermediate vector.
    ///
    /// The sorted edit maps are merge-walked alongside the view's sequence
    /// numbers, which ascend in every analyzed view, so each event costs a
    /// few cursor comparisons instead of map lookups. Edits keyed to
    /// sequence numbers the view does not contain (e.g. beyond a
    /// [`TraceView::prefix`]) are skipped.
    pub fn for_each(&self, view: &TraceView<'_>, mut f: impl FnMut(Event)) {
        let mut removed = self.removed.iter().peekable();
        let mut before = self.before.iter().peekable();
        let mut after = self.after.iter().peekable();
        let mut next_seq = 0u64;
        let mut emit = |tid, stack, kind| {
            f(Event {
                seq: next_seq,
                tid,
                stack,
                kind,
            });
            next_seq += 1;
        };
        for ev in view.events.iter() {
            for s in inserts_at(&mut before, ev.seq) {
                emit(s.tid, s.stack, s.kind);
            }
            while removed.next_if(|&&r| r < ev.seq).is_some() {}
            if removed.peek() != Some(&&ev.seq) {
                emit(ev.tid, ev.stack, ev.kind);
            }
            for s in inserts_at(&mut after, ev.seq) {
                emit(s.tid, s.stack, s.kind);
            }
        }
    }

    /// Applies the edit script to `view`, returning the patched event
    /// stream densely re-sequenced from 0 (the [`for_each`](Self::for_each)
    /// walk, collected).
    pub fn apply(&self, view: &TraceView<'_>) -> Vec<Event> {
        let mut out = Vec::with_capacity(view.events.len() + self.len());
        self.for_each(view, |ev| out.push(ev));
        out
    }
}

/// A merge-walk cursor over one insertion map.
type InsertCursor<'p> = Peekable<btree_map::Iter<'p, u64, Vec<SyntheticEvent>>>;

/// Advances `cursor` past keys below `seq` and returns the insertions keyed
/// exactly at `seq` (empty if none), leaving them under the cursor so a
/// repeated `seq` sees them again.
fn inserts_at<'p>(cursor: &mut InsertCursor<'p>, seq: u64) -> &'p [SyntheticEvent] {
    while cursor.next_if(|&(&k, _)| k < seq).is_some() {}
    match cursor.peek() {
        Some(&(&k, inserts)) if k == seq => inserts,
        _ => &[],
    }
}

/// Replays `view` with `patch` applied through the incremental simulator —
/// the replay-with-patch mode backing repair validation. The patched events
/// stream straight from [`EventPatch::for_each`] into the simulator; the
/// result is an [`AccessSet`] computed exactly as a streamed analysis of
/// the patched trace would compute it.
pub fn simulate_patched(view: &TraceView<'_>, patch: &EventPatch, cfg: &SimConfig) -> AccessSet {
    let mut sim = StreamSimulator::new(view.thread_count, view.regions.to_vec(), cfg);
    patch.for_each(view, |ev| sim.step(&ev));
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;
    use crate::memsim::simulate_view;
    use crate::trace::{Frame, Trace, TraceBuilder};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn unpersisted_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.add_region(crate::trace::PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/patch".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "w.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "r.rs", 2)]);
        b.push(T0, st, EventKind::ThreadCreate { child: T1 });
        b.push(
            T0,
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            T1,
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: false,
            },
        );
        b.push(T0, st, EventKind::ThreadJoin { child: T1 });
        b.finish()
    }

    #[test]
    fn empty_patch_replays_identically() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let base = simulate_view(view, &SimConfig::default());
        let patched = simulate_patched(&view, &EventPatch::new(), &SimConfig::default());
        assert_eq!(base.windows, patched.windows);
        assert_eq!(base.loads, patched.loads);
    }

    #[test]
    fn inserted_flush_fence_closes_the_window() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let base = simulate_view(view, &SimConfig::default());
        assert!(base.windows[0].close_vc.is_none(), "window starts open");

        let mut patch = EventPatch::new();
        let stack = trace.events.get(1).stack;
        patch.insert_after(
            1,
            SyntheticEvent {
                tid: T0,
                stack,
                kind: EventKind::Flush { addr: 0x1000 },
            },
        );
        patch.insert_after(
            1,
            SyntheticEvent {
                tid: T0,
                stack,
                kind: EventKind::Fence,
            },
        );
        let patched = simulate_patched(&view, &patch, &SimConfig::default());
        assert!(
            patched.windows[0].close_vc.is_some(),
            "patched window must be persisted"
        );
    }

    /// The lookup-per-event application the merge walk replaced, kept as
    /// the reference it must match.
    fn apply_by_lookup(patch: &EventPatch, view: &TraceView<'_>) -> Vec<Event> {
        let mut out = Vec::new();
        let push = |out: &mut Vec<Event>, tid, stack, kind| {
            let seq = out.len() as u64;
            out.push(Event {
                seq,
                tid,
                stack,
                kind,
            });
        };
        for ev in view.events.iter() {
            for s in patch.before.get(&ev.seq).into_iter().flatten() {
                push(&mut out, s.tid, s.stack, s.kind);
            }
            if !patch.removed.contains(&ev.seq) {
                push(&mut out, ev.tid, ev.stack, ev.kind);
            }
            for s in patch.after.get(&ev.seq).into_iter().flatten() {
                push(&mut out, s.tid, s.stack, s.kind);
            }
        }
        out
    }

    #[test]
    fn streamed_walk_matches_lookup_application() {
        let trace = unpersisted_trace();
        let last = trace.events.len() as u64 - 1;
        let stack = trace.events.get(1).stack;
        let synth = |kind| SyntheticEvent {
            tid: T0,
            stack,
            kind,
        };
        let flush = EventKind::Flush { addr: 0x1000 };
        let mut patch = EventPatch::new();
        // First event: removed, with insertions on both sides.
        patch.remove(0);
        patch.insert_before(0, synth(EventKind::Fence));
        patch.insert_after(0, synth(flush));
        // One seq with a removal and several insertions before and after.
        patch.remove(2);
        patch.insert_before(2, synth(flush));
        patch.insert_before(2, synth(EventKind::Fence));
        patch.insert_after(2, synth(EventKind::Fence));
        patch.insert_after(2, synth(flush));
        // Last event: insertions only.
        patch.insert_before(last, synth(flush));
        patch.insert_after(last, synth(EventKind::Fence));
        // Edits keyed beyond the trace end.
        patch.remove(last + 5);
        patch.insert_after(last + 7, synth(EventKind::Fence));

        for len in 0..=trace.events.len() {
            let view = TraceView::prefix(&trace, len);
            let mut walked = Vec::new();
            patch.for_each(&view, |ev| walked.push(ev));
            assert_eq!(walked, apply_by_lookup(&patch, &view), "prefix {len}");
            assert_eq!(patch.apply(&view), walked, "prefix {len}");
        }
        // The full view splices all eight in-trace insertions, drops both
        // in-trace removals and ignores the out-of-range edits.
        let full = patch.apply(&TraceView::full(&trace));
        assert_eq!(full.len(), trace.events.len() - 2 + 8);
        assert!(matches!(full[0].kind, EventKind::Fence));
        assert!(matches!(full.last().unwrap().kind, EventKind::Fence));
    }

    #[test]
    fn apply_reseqs_densely_and_honors_removal() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let mut patch = EventPatch::new();
        patch.remove(2);
        patch.insert_before(
            1,
            SyntheticEvent {
                tid: T0,
                stack: trace.events.get(1).stack,
                kind: EventKind::Fence,
            },
        );
        let events = patch.apply(&view);
        assert_eq!(events.len(), trace.events.len()); // -1 removal +1 insert
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "dense re-sequencing");
        }
        assert!(matches!(events[1].kind, EventKind::Fence));
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Load { .. })));
    }
}
