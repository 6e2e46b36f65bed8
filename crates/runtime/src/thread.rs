//! Instrumented threads and synthetic call stacks.
//!
//! The original tool replaces `PIN_Backtrace` with cheap call/return
//! instrumentation (§4). Our substrate does the analogue: application code
//! pushes named frames ([`PmThread::frame`]) around logical operations, and
//! every PM access is attributed to the current frame stack plus its own
//! `#[track_caller]` source location as the innermost frame. The result is
//! the backtrace attached to every event — what lets a race report say
//! "store at `btree.h:560` in `fastfair::insert`".
//!
//! Like call/return instrumentation, the cost is paid at push time, not
//! per access. Pushed frames are nodes of a per-thread *frame trie*: a
//! push resolves `(parent node, push site, name)` to a node once, so the
//! current stack is always one node id. Each thread then memoizes
//! `(node, access site) → StackId`; a recorded event costs one lookup in
//! that memo, with no allocation and no hashing of frames. Only a memo
//! miss builds the `Vec<Frame>` ([`PmThread::capture_stack`]) and interns
//! it in the trace's one global stack table, so stack ids are still
//! assigned in first-occurrence order and the recorded trace is exactly
//! what interning every event's captured stack would produce. The memo is
//! valid for one trace builder: [`PmEnv::finish`] starts a new
//! *generation*, and the first lookup in a new generation clears it.

use std::cell::RefCell;
use std::panic::Location;
use std::sync::Arc;

use hawkset_core::fxhash::FxHashMap;
use hawkset_core::trace::{Frame, StackId, ThreadId, TraceBuilder};

use crate::env::PmEnv;

/// Index of a node in a thread's frame trie.
type NodeId = u32;

/// The trie root: no frame pushed. Its name is what an access at top
/// level is attributed to.
const ROOT: NodeId = 0;

/// Address of a `'static` source location — a stable key, since equal
/// addresses always hold equal locations.
fn loc_key(loc: &'static Location<'static>) -> usize {
    loc as *const Location<'static> as usize
}

/// One pushed application frame, as a trie node: the frame itself plus
/// the node of the frame it was pushed under.
struct FrameNode {
    parent: NodeId,
    /// Shared with every shadow store attributed to this frame.
    name: Arc<str>,
    file: &'static str,
    line: u32,
}

/// A thread's pushed frames and its memo of interned stack ids.
struct Frames {
    /// `nodes[ROOT]` is the root; every other node's parent precedes it.
    nodes: Vec<FrameNode>,
    /// `(parent, push site)` → the nodes pushed there, one per name.
    children: FxHashMap<(NodeId, usize), Vec<NodeId>>,
    /// The innermost pushed frame.
    current: NodeId,
    /// `(node, access site)` → stack id, valid for builder `generation`.
    memo: FxHashMap<(NodeId, usize), StackId>,
    generation: u64,
}

impl Frames {
    fn new() -> Self {
        Self {
            nodes: vec![FrameNode {
                parent: ROOT,
                name: Arc::from("<app>"),
                file: "",
                line: 0,
            }],
            children: FxHashMap::default(),
            current: ROOT,
            memo: FxHashMap::default(),
            generation: 0,
        }
    }

    fn push(&mut self, name: String, loc: &'static Location<'static>) {
        let siblings = self
            .children
            .entry((self.current, loc_key(loc)))
            .or_default();
        let nodes = &mut self.nodes;
        self.current = match siblings.iter().find(|&&n| *nodes[n as usize].name == *name) {
            Some(&n) => n,
            None => {
                let n = nodes.len() as NodeId;
                nodes.push(FrameNode {
                    parent: self.current,
                    name: Arc::from(name),
                    file: loc.file(),
                    line: loc.line(),
                });
                siblings.push(n);
                n
            }
        };
    }

    fn pop(&mut self) {
        self.current = self.nodes[self.current as usize].parent;
    }

    fn capture(&self, loc: &'static Location<'static>) -> Vec<Frame> {
        let mut id = self.current;
        let top_name = &*self.nodes[id as usize].name;
        let mut stack = vec![Frame::new(top_name, loc.file(), loc.line())];
        while id != ROOT {
            let node = &self.nodes[id as usize];
            stack.push(Frame::new(&*node.name, node.file, node.line));
            id = node.parent;
        }
        stack
    }
}

/// Per-thread instrumentation context.
///
/// A `PmThread` is created for you by [`PmEnv::main_thread`] and
/// [`PmEnv::spawn`]; every instrumented operation takes `&PmThread` so the
/// runtime knows the issuing thread and its current call stack.
pub struct PmThread {
    env: PmEnv,
    tid: ThreadId,
    frames: RefCell<Frames>,
}

impl PmThread {
    pub(crate) fn new(env: PmEnv, tid: ThreadId) -> Self {
        Self {
            env,
            tid,
            frames: RefCell::new(Frames::new()),
        }
    }

    /// The thread's id in the trace.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The environment this thread belongs to.
    pub fn env(&self) -> &PmEnv {
        &self.env
    }

    /// Pushes a named frame for the duration of the returned guard.
    ///
    /// # Examples
    ///
    /// ```ignore
    /// let _f = t.frame("fastfair::insert");
    /// // ... PM accesses recorded inside carry this frame ...
    /// ```
    #[track_caller]
    pub fn frame(&self, name: impl Into<String>) -> FrameGuard<'_> {
        self.frames
            .borrow_mut()
            .push(name.into(), Location::caller());
        FrameGuard { thread: self }
    }

    /// Issues a store fence (`sfence`): everything this thread flushed (and
    /// every non-temporal store it issued) is persistent afterwards.
    #[track_caller]
    pub fn fence(&self) {
        self.env.fence_at(self, Location::caller());
    }

    /// Builds the current backtrace, innermost first, with `loc` as the
    /// access site. The innermost frame borrows the enclosing frame's name
    /// (or `<app>` at top level), mirroring how a PC-based backtrace names
    /// the containing function.
    pub(crate) fn capture_stack(&self, loc: &'static Location<'static>) -> Vec<Frame> {
        self.frames.borrow().capture(loc)
    }

    /// The function name an access made now is attributed to: the
    /// innermost pushed frame's, or `<app>` at top level.
    pub(crate) fn site_name(&self) -> Arc<str> {
        let frames = self.frames.borrow();
        Arc::clone(&frames.nodes[frames.current as usize].name)
    }

    /// The id, in `builder`'s stack table, of the stack
    /// [`capture_stack`](Self::capture_stack) would build for `loc`.
    /// `generation` identifies `builder`; a new one drops the memo.
    pub(crate) fn stack_id(
        &self,
        builder: &mut TraceBuilder,
        generation: u64,
        loc: &'static Location<'static>,
    ) -> StackId {
        let mut frames = self.frames.borrow_mut();
        if frames.generation != generation {
            frames.memo.clear();
            frames.generation = generation;
        }
        let key = (frames.current, loc_key(loc));
        if let Some(&id) = frames.memo.get(&key) {
            debug_assert_eq!(
                builder.intern_stack(frames.capture(loc)),
                id,
                "memoized stack id diverged from a fresh capture"
            );
            return id;
        }
        let id = builder.intern_stack(frames.capture(loc));
        frames.memo.insert(key, id);
        id
    }
}

/// Pops its frame when dropped. Created by [`PmThread::frame`].
pub struct FrameGuard<'t> {
    thread: &'t PmThread,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.thread.frames.borrow_mut().pop();
    }
}

/// Handle to an instrumented spawned thread.
///
/// Joining through [`PmJoinHandle::join`] records the `ThreadJoin` event
/// that establishes the happens-before edge used by the analysis.
pub struct PmJoinHandle<R> {
    pub(crate) inner: std::thread::JoinHandle<R>,
    pub(crate) child: ThreadId,
}

impl<R> PmJoinHandle<R> {
    /// The spawned thread's id.
    pub fn child_tid(&self) -> ThreadId {
        self.child
    }

    /// Waits for the thread and records the join edge on behalf of
    /// `joiner`, returning the child's panic payload instead of
    /// propagating it.
    ///
    /// The `ThreadJoin` event is recorded **even when the child panicked**:
    /// the OS-level join completed either way, so the happens-before edge
    /// is real, and dropping it would let the analysis pair the surviving
    /// threads' accesses against the dead thread's as if they were
    /// concurrent.
    #[track_caller]
    pub fn try_join(self, joiner: &PmThread) -> std::thread::Result<R> {
        let loc = Location::caller();
        let out = self.inner.join();
        joiner.env().join_at(joiner, self.child, loc);
        out
    }

    /// Waits for the thread and records the join edge on behalf of
    /// `joiner`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the joined thread with its original payload
    /// (after the join edge is recorded), like
    /// [`std::thread::JoinHandle::join`] + `unwrap`.
    #[track_caller]
    pub fn join(self, joiner: &PmThread) -> R {
        match self.try_join(joiner) {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use hawkset_core::trace::{EventKind, Trace};

    use super::*;
    use crate::pool::PmPool;

    /// One access site: every call stores from this line.
    fn access(pool: &PmPool, t: &PmThread) {
        pool.store_u64(t, pool.base(), 1);
    }

    /// One push site: every call pushes `name` from this line.
    fn under(t: &PmThread, name: &str, f: impl FnOnce()) {
        let _f = t.frame(name);
        f();
    }

    fn store_stacks(trace: &Trace) -> Vec<StackId> {
        trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Store { .. }))
            .map(|e| e.stack)
            .collect()
    }

    fn rendered(trace: &Trace, id: StackId) -> Vec<String> {
        trace.stacks.frames_of(id).map(Frame::render).collect()
    }

    #[test]
    fn one_site_under_two_frame_stacks_gets_two_ids() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/memo-two-stacks", 4096);
        let main = env.main_thread();
        under(&main, "a", || access(&pool, &main));
        under(&main, "b", || access(&pool, &main));
        under(&main, "a", || under(&main, "b", || access(&pool, &main)));
        under(&main, "a", || access(&pool, &main));
        let trace = env.finish();
        let ids = store_stacks(&trace);
        assert_eq!(ids.len(), 4);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[1], ids[2]);
        assert_eq!(ids[0], ids[3], "a repeated stack reuses its id");
        let names = |id| -> Vec<String> {
            trace
                .stacks
                .frames_of(id)
                .map(|f| f.function.clone())
                .collect()
        };
        assert_eq!(names(ids[0]), ["a", "a"]);
        assert_eq!(names(ids[2]), ["b", "b", "a"]);
    }

    #[test]
    fn one_name_pushed_from_two_lines_gets_two_nodes() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/memo-two-lines", 4096);
        let main = env.main_thread();
        for _ in 0..2 {
            {
                let _f = main.frame("f");
                access(&pool, &main);
            }
            {
                let _f = main.frame("f");
                access(&pool, &main);
            }
        }
        assert_eq!(
            main.frames.borrow().nodes.len(),
            3,
            "root + one node per line"
        );
        let trace = env.finish();
        let ids = store_stacks(&trace);
        assert_ne!(ids[0], ids[1], "the push line is part of the stack");
        assert_eq!(ids[..2], ids[2..]);
        let (a, b) = (rendered(&trace, ids[0]), rendered(&trace, ids[1]));
        assert_eq!(a[0], b[0], "same access site");
        assert_ne!(a[1], b[1], "different push lines");
    }

    #[test]
    fn two_threads_at_one_site_share_one_id() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/memo-threads", 4096);
        let main = env.main_thread();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                env.spawn(&main, move |t| under(t, "worker", || access(&p, t)))
            })
            .collect();
        for h in handles {
            h.join(&main);
        }
        let trace = env.finish();
        let ids = store_stacks(&trace);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1]);
    }

    #[test]
    fn recording_after_finish_uses_the_new_builders_ids() {
        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/memo-generation", 4096);
        let main = env.main_thread();
        for name in ["a", "b", "c"] {
            under(&main, name, || access(&pool, &main));
        }
        let first = env.finish();
        assert!(first.validate().is_ok());
        // The memo knows "c" by its id in the first trace; the new
        // builder's table must assign its own.
        under(&main, "c", || access(&pool, &main));
        under(&main, "a", || access(&pool, &main));
        let second = env.finish();
        second.validate().expect("post-finish trace validates");
        let ids = store_stacks(&second);
        assert_eq!(ids.len(), 2);
        assert_eq!(
            rendered(&second, ids[0]),
            rendered(&first, store_stacks(&first)[2])
        );
        assert_eq!(
            rendered(&second, ids[1]),
            rendered(&first, store_stacks(&first)[0])
        );
    }
}
