//! Deterministic parallel execution for the experiment pipeline.
//!
//! Every expensive stage of the harness — per-tenant history composition,
//! the FFD-vs-2-step advisor comparison, and the per-point sweep loops —
//! fans out through this module. Two primitives cover all of them:
//!
//! * [`par_map`] — apply a function to every element of a slice on a pool
//!   of scoped worker threads, returning results **in input order**.
//! * [`par_join2`] — run two independent closures concurrently.
//!
//! # Determinism contract
//!
//! Parallelism here never changes *what* is computed, only *when*. Each
//! task owns an independent input (tenant spec, sweep point, algorithm
//! configuration) and the workload generator derives every random stream
//! from `(seed, stream, substream)` rather than from generation order, so
//! a task's output is a pure function of its input. Because `par_map`
//! reassembles results by input index, the pipeline output is byte-for-byte
//! identical at any thread count — `tests/determinism.rs` enforces this
//! against the serial run. The only thing allowed to vary is wall-clock
//! time (`ConsolidationReport::runtime` and the [`StageTiming`] records).
//!
//! # Thread-count knob
//!
//! The pool width comes from, in order of precedence:
//!
//! 1. [`set_thread_override`] — a programmatic override, used by tests and
//!    benchmarks (avoids racy `std::env::set_var` calls);
//! 2. the `THRIFTY_THREADS` environment variable (read once; `1` forces
//!    the exact serial code path);
//! 3. [`std::thread::available_parallelism`].
//!
//! Stages nest (a sweep point runs its own history composition and advisor
//! comparison), but only the **outermost** stage on any thread fans out:
//! tasks already running on a worker thread execute nested stages on the
//! serial code path. This keeps the thread count bounded by the knob
//! instead of multiplying per nesting level, and gives the widest fan-out
//! (the one with the best load balance) all the cores.
//!
//! # Timings
//!
//! Every `par_map`/`par_join2` call records one [`StageTiming`] (stage
//! label, threads, tasks, wall time) into a process-global registry;
//! [`take_timings`] drains it. Tasks themselves are not timed. The
//! experiment dispatcher attaches the drained records to each
//! [`ExperimentResult`](crate::report::ExperimentResult), and the
//! `experiments` binary persists them in `BENCH_<id>.json`, so a stage's
//! speedup is the ratio of its wall times in two runs at different
//! `THRIFTY_THREADS`.

use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wall-clock accounting for one parallel stage.
#[derive(Clone, Debug, Serialize)]
pub struct StageTiming {
    /// Stage label, e.g. `"histories"` or `"sweep:fig7.1"`.
    pub stage: String,
    /// Worker threads the stage ran on (1 = the serial code path).
    pub threads: usize,
    /// Number of tasks in the stage.
    pub tasks: usize,
    /// Wall-clock time of the whole stage.
    pub wall: Duration,
}

/// `0` means "no override"; set via [`set_thread_override`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on scoped worker threads; nested stages then run serially so
    /// the process-wide thread count stays bounded by the knob.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Drained by [`take_timings`]; appended by every stage.
static TIMINGS: Mutex<Vec<StageTiming>> = Mutex::new(Vec::new());

/// Overrides the thread count programmatically (`None` restores the
/// `THRIFTY_THREADS` / `available_parallelism` default). Global: tests
/// that toggle it must do both runs within one `#[test]`.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

fn env_default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("THRIFTY_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// The configured maximum worker-thread count for a stage: 1 on worker
/// threads (nested stages run serially), the override / `THRIFTY_THREADS` /
/// `available_parallelism` setting otherwise.
pub fn max_threads() -> usize {
    if IN_WORKER.with(std::cell::Cell::get) {
        return 1;
    }
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_default_threads(),
        n => n,
    }
}

/// Drains all stage timings recorded since the last call, in the order
/// the stages completed.
pub fn take_timings() -> Vec<StageTiming> {
    std::mem::take(&mut TIMINGS.lock().expect("timings registry poisoned"))
}

fn record(stage: &str, threads: usize, tasks: usize, wall: Duration) {
    let timing = StageTiming {
        stage: stage.to_string(),
        threads,
        tasks,
        wall,
    };
    TIMINGS
        .lock()
        .expect("timings registry poisoned")
        .push(timing);
}

/// Applies `f` to every element of `items` on up to [`max_threads`]
/// scoped worker threads and returns the results **in input order**.
///
/// With one thread (or one item) this is exactly `items.iter().map(f)` —
/// the serial code path the determinism tests compare against. A panic in
/// any task is propagated to the caller with its original payload.
pub fn par_map<T, R, F>(stage: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let wall_start = Instant::now();
    let threads = max_threads().min(items.len().max(1));
    let results: Vec<R> = if threads <= 1 {
        items.iter().map(f).collect()
    } else {
        // Workers claim contiguous chunks from a shared counter (dynamic
        // load balancing — sweep points differ wildly in cost) and tag
        // each chunk with its start index so the merge restores input
        // order. About four chunks per thread keeps the handout cheap for
        // a million tiny items, while a short sweep still goes one item
        // per claim.
        let chunk = (items.len() / (4 * threads)).max(1);
        let next = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, Vec<R>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        IN_WORKER.with(|w| w.set(true));
                        let mut local = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            local.push((start, items[start..end].iter().map(&f).collect()));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => tagged.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        tagged.sort_unstable_by_key(|&(start, _)| start);
        tagged.into_iter().flat_map(|(_, chunk)| chunk).collect()
    };
    record(stage, threads, items.len(), wall_start.elapsed());
    results
}

/// Runs two independent closures, concurrently when more than one thread
/// is configured, and returns both results. Panics propagate with their
/// original payload.
pub fn par_join2<A, B, FA, FB>(stage: &str, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    let wall_start = Instant::now();
    let threads = max_threads();
    let (a, b) = if threads <= 1 {
        (fa(), fb())
    } else {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                fb()
            });
            let a = fa();
            match handle.join() {
                Ok(b) => (a, b),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    };
    record(stage, threads.min(2), 2, wall_start.elapsed());
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        // 10_001 items at 4 threads: many chunks per thread and a ragged
        // last chunk.
        for n in [200u64, 10_001] {
            set_thread_override(Some(4));
            let items: Vec<u64> = (0..n).collect();
            let out = par_map("test:order", &items, |&x| x * 2);
            set_thread_override(None);
            assert_eq!(out, (0..n).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        for (n, threads) in [(64u64, 8), (10_001, 4)] {
            let items: Vec<u64> = (0..n).collect();
            set_thread_override(Some(1));
            let serial = par_map("test:serial", &items, |&x| x.wrapping_mul(0x9E37_79B9));
            set_thread_override(Some(threads));
            let parallel = par_map("test:parallel", &items, |&x| x.wrapping_mul(0x9E37_79B9));
            set_thread_override(None);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn par_join2_returns_both_results() {
        set_thread_override(Some(2));
        let (a, b) = par_join2("test:join", || 1 + 1, || "two");
        set_thread_override(None);
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn par_map_propagates_panics() {
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..16).collect();
        // Restore the default before panicking so other tests in this
        // process are unaffected even under `--test-threads=1`.
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                set_thread_override(None);
            }
        }
        let _reset = Reset;
        let _ = par_map("test:panic", &items, |&x| {
            if x == 7 {
                panic!("task boom");
            }
            x
        });
    }

    #[test]
    fn timings_record_stage_shape() {
        let _ = take_timings();
        set_thread_override(Some(3));
        let items: Vec<u64> = (0..10).collect();
        let _ = par_map("test:timing", &items, |&x| x + 1);
        set_thread_override(None);
        let timings = take_timings();
        let t = timings
            .iter()
            .find(|t| t.stage == "test:timing")
            .expect("stage recorded");
        assert_eq!(t.tasks, 10);
        assert_eq!(t.threads, 3);
        assert!(t.wall > Duration::ZERO);
    }

    #[test]
    fn nested_stages_run_serially_on_workers() {
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..8).collect();
        let widths = par_map("test:nested", &items, |_| max_threads());
        set_thread_override(None);
        assert!(
            widths.iter().all(|&w| w == 1),
            "worker threads must not fan out again: {widths:?}"
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u64> = Vec::new();
        let out = par_map("test:empty", &items, |&x| x);
        assert!(out.is_empty());
    }
}
