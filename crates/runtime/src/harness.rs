//! Convenience harness for multi-threaded instrumented runs.
//!
//! Most experiments follow the same shape: map a pool, run a load phase on
//! the main thread, fan out N worker threads, join them, and hand the
//! trace to the analysis. [`run_workers`] captures the fan-out/join part.

use std::sync::{Arc, Barrier};

use crate::env::PmEnv;
use crate::thread::PmThread;

/// Spawns `n` instrumented workers running `f(worker_index, thread)`, all
/// started together once every one is spawned, and joins them on `main`.
///
/// All workers are joined (and their `ThreadJoin` edges recorded) before
/// the first panic, if any, is re-raised with its original payload — so a
/// trace flushed by [`TraceGuard`](crate::guard::TraceGuard) after a
/// worker panic still contains every join edge.
///
/// # Examples
///
/// ```
/// use pm_runtime::{PmEnv, run_workers};
///
/// let env = PmEnv::new();
/// let pool = env.map_pool("/mnt/pmem/demo", 4096);
/// let main = env.main_thread();
/// let base = pool.base();
/// let p = pool.clone();
/// run_workers(&env, &main, 4, move |i, t| {
///     p.store_u64(t, base + 64 * i as u64, i as u64);
/// });
/// let trace = env.finish();
/// assert_eq!(trace.thread_count, 5);
/// ```
pub fn run_workers<F>(env: &PmEnv, main: &PmThread, n: usize, f: F)
where
    F: Fn(usize, &PmThread) + Send + Sync + 'static,
{
    let f = start_together(n, f);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let f = Arc::clone(&f);
            env.spawn(main, move |t| f(i, t))
        })
        .collect();
    let mut first_panic = None;
    for h in handles {
        if let Err(payload) = h.try_join(main) {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Wraps `f` so each of its `n` callers first waits on an uninstrumented
/// barrier, which records nothing, until all `n` have arrived. In
/// [`run_workers`] that puts every worker's `ThreadCreate` before every
/// worker's first event. Without it the first-spawned worker could finish
/// much of a short workload before the last one starts, and
/// interleaving-dependent races would go unobserved.
fn start_together<F>(n: usize, f: F) -> Arc<impl Fn(usize, &PmThread) + Send + Sync>
where
    F: Fn(usize, &PmThread) + Send + Sync,
{
    let start = Barrier::new(n);
    Arc::new(move |i, t: &PmThread| {
        start.wait();
        f(i, t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No worker records anything before the last worker is created.
    /// Spawning 64 workers keeps the spawn window wide enough that, without
    /// the barrier, the first worker records before the last `ThreadCreate`.
    #[test]
    fn workers_start_after_every_thread_create() {
        use hawkset_core::trace::EventKind;

        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/barrier", 64 * 64);
        let main = env.main_thread();
        let base = pool.base();
        let p = pool.clone();
        run_workers(&env, &main, 64, move |i, t| {
            p.store_u64(t, base + 64 * i as u64, i as u64);
        });
        let trace = env.finish();
        let last_create = trace
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EventKind::ThreadCreate { .. }))
            .last()
            .expect("workers were created")
            .0;
        let first_worker = trace
            .events
            .iter()
            .position(|e| e.tid != main.tid())
            .expect("workers recorded events");
        assert!(
            last_create < first_worker,
            "worker event at {first_worker} precedes the last ThreadCreate at {last_create}"
        );
    }

    /// A panicking worker must not cost the other workers their join
    /// edges: all three `ThreadJoin` events appear in the snapshot even
    /// though worker 1 dies.
    #[test]
    fn run_workers_joins_all_before_propagating_panic() {
        use hawkset_core::trace::EventKind;

        let env = PmEnv::new();
        let pool = env.map_pool("/mnt/pmem/joinall", 4096);
        let main = env.main_thread();
        let base = pool.base();
        let p = pool.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_workers(&env, &main, 3, move |i, t| {
                p.store_u64(t, base + 64 * i as u64, i as u64);
                if i == 1 {
                    panic!("worker 1 dies");
                }
            });
        }))
        .expect_err("the worker panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker 1 dies", "original payload must be preserved");

        let trace = env.snapshot();
        let joins = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ThreadJoin { .. }))
            .count();
        assert_eq!(joins, 3, "every worker's join edge must be recorded");
    }
}
