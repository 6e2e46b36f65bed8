//! Initialization Removal Heuristic (§3.1.3).
//!
//! Concurrent programs routinely initialize freshly allocated memory without
//! holding a lock — correct, because the region is not yet visible to other
//! threads, but poison for a naive lockset analysis. Eraser pioneered
//! initialization pruning; HawkSet adapts it to persistency:
//!
//! * an address is considered **published** once a *second* thread accesses
//!   it;
//! * stores that were **explicitly persisted** by the sole-accessor thread
//!   before publication are discarded;
//! * **unpersisted** stores are kept even if they precede publication — a
//!   thread that initializes memory and publishes the pointer *without
//!   persisting* is exactly the race the tool must not miss;
//! * accesses after publication are always kept.
//!
//! Publication is tracked at 8-byte-word granularity and is sticky: freed
//! and reallocated PM stays published, which reproduces the tool's known
//! limitation on memory-reusing applications such as memcached (§7).

use std::collections::hash_map::Entry;

use crate::addr::AddrRange;
use crate::fxhash::FxHashMap;
use crate::trace::ThreadId;

/// Per-word publication state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WordState {
    /// Accessed only by this thread so far.
    Sole(ThreadId),
    /// A second thread has accessed the word.
    Published,
}

/// Tracks which PM words have become visible to more than one thread.
///
/// The word map is probe-only (only its `len()` is ever observed), so it
/// uses the fast deterministic hasher.
#[derive(Debug, Default)]
pub struct PublicationTracker {
    words: FxHashMap<u64, WordState>,
}

impl PublicationTracker {
    /// Creates an empty tracker (all words untouched).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access by `tid` to `range`, updating publication state.
    ///
    /// Returns `true` if **any** word of the range was already published
    /// *before* this access — i.e. whether the access itself is to public
    /// memory. The access that publishes a word (the first one from a
    /// second thread) returns `false` for that word but flips it to
    /// published for all later queries; it is nevertheless always kept by
    /// the pipeline, because [`was_published_before`] is only consulted for
    /// discarding decisions on *prior* sole-thread activity.
    ///
    /// [`was_published_before`]: PublicationTracker::is_published
    pub fn record_access(&mut self, tid: ThreadId, range: &AddrRange) -> bool {
        self.record(tid, range).0
    }

    /// [`record_access`](Self::record_access) and, in the same pass over
    /// the words, [`all_private_to`](Self::all_private_to) evaluated
    /// *after* the update: returns `(any_public, all_private)` with one
    /// map entry per word instead of two lookups.
    pub fn record(&mut self, tid: ThreadId, range: &AddrRange) -> (bool, bool) {
        let mut any_public = false;
        let mut all_private = true;
        for w in range.words() {
            match self.words.entry(w) {
                Entry::Vacant(e) => {
                    e.insert(WordState::Sole(tid));
                }
                Entry::Occupied(mut e) => match *e.get() {
                    WordState::Sole(owner) if owner == tid => {}
                    WordState::Sole(_) => {
                        e.insert(WordState::Published);
                        all_private = false;
                    }
                    WordState::Published => {
                        any_public = true;
                        all_private = false;
                    }
                },
            }
        }
        (any_public, all_private)
    }

    /// Returns `true` if every word of `range` is still private to `tid`.
    ///
    /// This is the discard condition for a persisted store window: the
    /// store was persisted while its memory was exclusively owned by the
    /// storing thread, so it is initialization and cannot race.
    pub fn all_private_to(&self, tid: ThreadId, range: &AddrRange) -> bool {
        range
            .words()
            .all(|w| matches!(self.words.get(&w), Some(WordState::Sole(t)) if *t == tid))
    }

    /// Returns `true` if any word of `range` has been published.
    pub fn is_published(&self, range: &AddrRange) -> bool {
        range
            .words()
            .any(|w| matches!(self.words.get(&w), Some(WordState::Published)))
    }

    /// Number of tracked words (cost accounting).
    pub fn tracked_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn first_access_claims_words() {
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(0, 16);
        assert!(!p.record_access(T0, &r));
        assert!(p.all_private_to(T0, &r));
        assert!(!p.all_private_to(T1, &r));
        assert!(!p.is_published(&r));
    }

    #[test]
    fn second_thread_publishes() {
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(0, 8);
        p.record_access(T0, &r);
        // The publishing access itself reports "not yet public"...
        assert!(!p.record_access(T1, &r));
        // ...but from then on the word is published.
        assert!(p.is_published(&r));
        assert!(!p.all_private_to(T0, &r));
        assert!(p.record_access(T0, &r));
    }

    #[test]
    fn publication_is_sticky_across_reuse() {
        // Free + reallocate does not reset the tracker: exactly the
        // memcached limitation of §7.
        let mut p = PublicationTracker::new();
        let r = AddrRange::new(64, 8);
        p.record_access(T0, &r);
        p.record_access(T1, &r);
        assert!(p.is_published(&r));
        // "Reallocation" by T0: still published.
        assert!(p.record_access(T0, &r));
        assert!(!p.all_private_to(T0, &r));
    }

    #[test]
    fn partial_publication_is_detected() {
        let mut p = PublicationTracker::new();
        let whole = AddrRange::new(0, 16); // words 0 and 1
        let first_word = AddrRange::new(0, 8);
        p.record_access(T0, &whole);
        p.record_access(T1, &first_word);
        assert!(p.is_published(&whole));
        assert!(!p.all_private_to(T0, &whole));
        assert!(p.all_private_to(T0, &AddrRange::new(8, 8)));
    }

    #[test]
    fn untouched_words_are_not_private() {
        let p = PublicationTracker::new();
        assert!(!p.all_private_to(T0, &AddrRange::new(0, 8)));
        assert!(!p.is_published(&AddrRange::new(0, 8)));
    }
}
