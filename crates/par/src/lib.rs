//! Shared std-only parallel executor for `phaselab`.
//!
//! Every parallel stage of the pipeline — benchmark characterization,
//! k-means restarts and assignment passes, GA fitness evaluation, the
//! pairwise-distance kernel — runs on the primitives in this crate, so
//! thread-count policy and determinism guarantees live in one place.
//!
//! # Design
//!
//! The executor is the work-stealing loop the pipeline originally
//! hand-rolled for benchmark characterization: a shared atomic cursor
//! hands out task indices, `std::thread::scope` workers race on it, and
//! each result lands in its own pre-allocated slot. Because results are
//! keyed by task index — never by completion order — every function here
//! returns **exactly the same output regardless of thread count**, which
//! is what lets the statistical pipeline promise bit-identical studies
//! from `--threads 1` and `--threads 64`.
//!
//! No dependencies, no unsafe: just `std::thread::scope`, atomics and
//! per-slot mutexes. Workers running a single task never touch a lock on
//! the hot path of the task itself, so the coordination cost is one
//! atomic fetch-add plus one uncontended mutex acquisition per task;
//! tasks therefore want to be coarse (a chunk of rows, a restart, a
//! genome), not a single arithmetic operation.
//!
//! # Seed derivation
//!
//! Deterministic parallelism needs per-task seeds that are independent of
//! scheduling. [`derive_seed`] hashes a master seed and a stream index
//! through SplitMix64 so each restart/population draws from its own
//! well-separated stream no matter which worker runs it.
//!
//! # Examples
//!
//! ```
//! use phaselab_par::{parallel_map, parallel_chunks};
//!
//! let squares = parallel_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Chunked iteration over an index space, results in chunk order.
//! let sums = parallel_chunks(10, 4, 2, |r| r.sum::<usize>());
//! assert_eq!(sums.len(), 3); // 0..4, 4..8, 8..10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A parallel stage was cancelled before every task completed.
///
/// Returned by [`parallel_map_cancellable`] and
/// [`try_parallel_map_cancellable`] when their [`CancelToken`] fired
/// early enough that at least one task never ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel stage cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Remaining task completions before auto-cancel; `u64::MAX` means
    /// "no countdown armed".
    countdown: AtomicU64,
}

/// A cooperative cancellation flag shared between a controller (e.g. a
/// Ctrl-C handler) and the executor's workers.
///
/// Cancellation is *cooperative*: workers check the token before
/// claiming each task, so tasks already in flight run to completion and
/// their results stay valid — nothing is torn down mid-task. Clones
/// share one flag.
///
/// [`CancelToken::after`] arms a deterministic countdown: the token
/// cancels itself once the executor has completed that many tasks,
/// which gives tests a scheduling-independent way to interrupt a stage
/// "after N benchmarks".
///
/// # Examples
///
/// ```
/// use phaselab_par::{parallel_map_cancellable, CancelToken};
///
/// let token = CancelToken::new();
/// let out = parallel_map_cancellable(&[1u64, 2, 3], 2, &token, |&x| x * x);
/// assert_eq!(out.unwrap(), vec![1, 4, 9]);
///
/// let token = CancelToken::new();
/// token.cancel();
/// assert!(parallel_map_cancellable(&[1u64, 2, 3], 2, &token, |&x| x).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// Creates a token that never fires on its own; only [`cancel`]
    /// (from any clone, any thread) trips it.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                countdown: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Creates a token that cancels itself after `tasks` task
    /// completions across all cancellable stages it is passed to.
    ///
    /// With `tasks == 0` the token starts out cancelled. Because
    /// in-flight tasks always finish, up to `workers - 1` additional
    /// tasks may still complete after the countdown trips.
    pub fn after(tasks: u64) -> Self {
        let token = CancelToken::new();
        if tasks == 0 {
            token.cancel();
        } else {
            token.inner.countdown.store(tasks, Ordering::SeqCst);
        }
        token
    }

    /// Trips the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Records one task completion, tripping the token when an armed
    /// [`after`](CancelToken::after) countdown reaches zero.
    fn task_completed(&self) {
        let hit_zero = self
            .inner
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                if c == u64::MAX || c == 0 {
                    None
                } else {
                    Some(c - 1)
                }
            });
        if hit_zero == Ok(1) {
            self.cancel();
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// The shared work-stealing core: runs `run(0..n)` on up to `threads`
/// workers, each result keyed by its task index. Returns `None` iff the
/// token cancelled before every slot was filled (the partial results are
/// dropped); with `token: None` the result is always `Some`.
fn run_tasks<U, F>(n: usize, threads: usize, token: Option<&CancelToken>, run: F) -> Option<Vec<U>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for idx in 0..n {
            if token.is_some_and(CancelToken::is_cancelled) {
                flush_worker_tallies(&[(out.len() as u64, 0)]);
                return None;
            }
            out.push(run(idx));
            if let Some(t) = token {
                t.task_completed();
            }
        }
        flush_worker_tallies(&[(out.len() as u64, 0)]);
        return Some(out);
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // (tasks run, empty cursor claims) per worker, written once at exit.
    let tallies: Vec<Mutex<(u64, u64)>> = (0..workers).map(|_| Mutex::new((0, 0))).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = tallies
            .iter()
            .map(|tally| {
                let (cursor, slots, run) = (&cursor, &slots, &run);
                scope.spawn(move || {
                    let (mut done, mut wasted) = (0u64, 0u64);
                    loop {
                        if token.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            wasted += 1;
                            break;
                        }
                        let out = run(idx);
                        *slots[idx].lock().expect("result slot poisoned") = Some(out);
                        done += 1;
                        if let Some(t) = token {
                            t.task_completed();
                        }
                    }
                    *tally.lock().expect("tally slot poisoned") = (done, wasted);
                })
            })
            .collect();
        // Join every worker rather than leaving it to the scope, which
        // returns once the closures finish but before the threads exit
        // and hand their malloc arenas back. The next call's workers
        // would then find no free arena and make fresh ones, so which
        // arenas grow, and the process's peak RSS, would vary from run
        // to run.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let counts: Vec<(u64, u64)> = tallies
        .into_iter()
        .map(|t| t.into_inner().expect("tally slot poisoned"))
        .collect();
    flush_worker_tallies(&counts);

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.push(slot.into_inner().expect("result slot poisoned")?);
    }
    Some(out)
}

/// Accumulates per-worker `(tasks, wasted claims)` tallies into the
/// observability registry. Worker indices are per-invocation, so the
/// per-thread counters describe load balance, not OS threads. All of
/// this is Timing-class: the split depends on scheduling.
fn flush_worker_tallies(counts: &[(u64, u64)]) {
    use phaselab_obs::Class;
    if !phaselab_obs::enabled() {
        return;
    }
    let mut total_done = 0u64;
    let mut total_wasted = 0u64;
    for (w, (done, wasted)) in counts.iter().enumerate() {
        total_done += done;
        total_wasted += wasted;
        phaselab_obs::counter_add(&format!("par.thread[{w:02}].tasks"), Class::Timing, *done);
    }
    phaselab_obs::counter_add("par.tasks", Class::Timing, total_done);
    phaselab_obs::counter_add("par.wasted_claims", Class::Timing, total_wasted);
}

/// Resolves a requested thread count: `0` means "all cores".
///
/// # Examples
///
/// ```
/// assert_eq!(phaselab_par::effective_threads(3), 3);
/// assert!(phaselab_par::effective_threads(0) >= 1);
/// ```
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        requested
    }
}

/// One step of the SplitMix64 generator.
///
/// Advances `state` and returns the next output. SplitMix64 passes
/// BigCrush and is the standard choice for expanding one seed into many.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of stream `stream` from a master seed.
///
/// The derivation is a pure function of `(master, stream)`, so a parallel
/// stage that gives task *i* the seed `derive_seed(master, i)` produces
/// identical randomness no matter how tasks are scheduled across threads.
///
/// # Examples
///
/// ```
/// let a = phaselab_par::derive_seed(42, 0);
/// let b = phaselab_par::derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, phaselab_par::derive_seed(42, 0));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut state = master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    let first = splitmix64(&mut state);
    // A second scramble decorrelates adjacent (master, stream) pairs.
    let mut state2 = first ^ 0x2545_F491_4F6C_DD1D;
    splitmix64(&mut state2)
}

/// Applies `f` to every item, in parallel, returning results in item
/// order.
///
/// Work is distributed by a shared atomic cursor (work stealing by
/// competition: fast workers take more tasks), so uneven task costs
/// balance automatically. With `threads <= 1` — or a single item — the
/// closure runs inline on the caller's thread with no synchronization.
///
/// The output is always `items.iter().map(f)` in order; thread count
/// affects wall-clock only, never results.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    run_tasks(items.len(), threads, None, |idx| f(&items[idx]))
        .expect("uncancellable stage always completes")
}

/// [`parallel_map`] with cooperative cancellation.
///
/// Workers check `token` before claiming each task; tasks already in
/// flight finish and the stage returns `Err(Cancelled)` only if at
/// least one task never ran. If the token trips after the last task was
/// claimed, the complete result vector is still returned — a late
/// cancel never discards finished work.
///
/// On success the output is exactly [`parallel_map`]'s: results in item
/// order, bit-identical across thread counts.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fired before every task
/// completed. Partial results are dropped; durable side effects of the
/// tasks that did run (e.g. checkpoint writes) are the caller's to keep.
pub fn parallel_map_cancellable<T, U, F>(
    items: &[T],
    threads: usize,
    token: &CancelToken,
    f: F,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    run_tasks(items.len(), threads, Some(token), |idx| f(&items[idx])).ok_or(Cancelled)
}

/// Applies `f` to every item by value, in parallel, returning results in
/// item order.
///
/// The owned variant of [`parallel_map`]: use it when tasks carry
/// exclusive state — e.g. disjoint `&mut` sub-slices produced by
/// `chunks_mut`, which cannot be handed out through a shared `&T`.
/// Ordering and determinism guarantees are identical to
/// [`parallel_map`].
pub fn parallel_map_owned<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run_tasks(tasks.len(), workers, None, |idx| {
        let task = tasks[idx]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("each task is taken exactly once");
        f(task)
    })
    .expect("uncancellable stage always completes")
}

/// Applies a fallible `f` to every item, in parallel, returning either
/// all results in item order or the error of the *lowest-indexed*
/// failing item.
///
/// Every task still runs to completion — there is no early abort, so
/// side effects are identical across thread counts — but the error
/// reported is always the one `items.iter().map(f)` would hit first.
/// That keeps fallible stages exactly as deterministic as
/// [`parallel_map`]: thread count never changes *which* error surfaces.
///
/// # Errors
///
/// Returns the `Err` of the lowest-indexed item for which `f` fails.
pub fn try_parallel_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let outcomes = parallel_map(items, threads, f);
    let mut out = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        out.push(outcome?);
    }
    Ok(out)
}

/// [`try_parallel_map`] with cooperative cancellation.
///
/// The outer `Result` reports cancellation; the inner one carries the
/// first (lowest-indexed) task error, exactly as [`try_parallel_map`]
/// would. Like [`parallel_map_cancellable`], a token that trips after
/// every task was claimed does not discard the finished results.
///
/// # Errors
///
/// Outer [`Cancelled`] when the token fired before every task
/// completed; inner `E` of the lowest-indexed failing item otherwise.
pub fn try_parallel_map_cancellable<T, U, E, F>(
    items: &[T],
    threads: usize,
    token: &CancelToken,
    f: F,
) -> Result<Result<Vec<U>, E>, Cancelled>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let outcomes = parallel_map_cancellable(items, threads, token, f)?;
    let mut out = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Ok(v) => out.push(v),
            Err(e) => return Ok(Err(e)),
        }
    }
    Ok(Ok(out))
}

/// Splits `0..len` into chunks of at most `chunk` indices and applies `f`
/// to each chunk in parallel, returning results in chunk order.
///
/// The chunk grid depends only on `len` and `chunk`, and results are
/// ordered by chunk start, so concatenating per-chunk output reconstructs
/// the full index space in ascending order regardless of thread count.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn parallel_chunks<U, F>(len: usize, chunk: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect();
    parallel_map(&ranges, threads, |r| f(r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn derive_seed_is_pure_and_separating() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..4u64 {
            for stream in 0..64u64 {
                let s = derive_seed(master, stream);
                assert_eq!(s, derive_seed(master, stream));
                assert!(seen.insert(s), "seed collision at ({master},{stream})");
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 16] {
            let out = parallel_map(&items, threads, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[9u32], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_map_balances_uneven_tasks() {
        // Tasks with wildly different costs still land in their slots.
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map(&items, 4, |&x| {
            let spin = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn parallel_map_owned_moves_tasks_in_order() {
        let mut backing: Vec<u64> = (0..50).collect();
        for threads in [1, 4] {
            let tasks: Vec<&mut [u64]> = backing.chunks_mut(7).collect();
            let out = parallel_map_owned(tasks, threads, |chunk| {
                for v in chunk.iter_mut() {
                    *v = v.wrapping_add(1);
                }
                chunk.len()
            });
            assert_eq!(out.iter().sum::<usize>(), 50);
            assert_eq!(out[0], 7);
        }
        assert_eq!(backing[0], 2, "both passes incremented in place");
    }

    #[test]
    fn parallel_chunks_covers_index_space() {
        for threads in [1, 3] {
            let chunks = parallel_chunks(23, 5, threads, std::iter::Iterator::collect::<Vec<_>>);
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..23).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_chunks_zero_len_is_empty() {
        assert!(parallel_chunks(0, 5, 2, |r| r.len()).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn parallel_chunks_rejects_zero_chunk() {
        let _ = parallel_chunks(10, 0, 2, |r| r.len());
    }

    #[test]
    fn try_parallel_map_collects_or_reports_first_error() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let ok: Result<Vec<u64>, String> = try_parallel_map(&items, threads, |&x| Ok(x + 1));
            assert_eq!(ok.expect("no failures"), (1..=64).collect::<Vec<_>>());
            // Two failing items: the lower index always wins, no matter
            // which worker reaches it first.
            let err: Result<Vec<u64>, u64> = try_parallel_map(&items, threads, |&x| {
                if x == 9 || x == 40 {
                    Err(x)
                } else {
                    Ok(x)
                }
            });
            assert_eq!(err.expect_err("has failures"), 9);
        }
    }

    #[test]
    fn cancellable_map_completes_with_untripped_token() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            let out = parallel_map_cancellable(&items, threads, &token, |&x| x + 1)
                .expect("untripped token never cancels");
            assert_eq!(out, (1..=97).collect::<Vec<_>>());
            assert!(!token.is_cancelled());
        }
    }

    #[test]
    fn pre_cancelled_token_skips_all_work() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let token = CancelToken::new();
            token.cancel();
            let out = parallel_map_cancellable(&items, threads, &token, |&x| {
                ran.fetch_add(1, Ordering::SeqCst);
                x
            });
            assert_eq!(out, Err(Cancelled));
            assert_eq!(ran.load(Ordering::SeqCst), 0, "no task should start");
        }
    }

    #[test]
    fn countdown_token_cancels_after_n_completions() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 2, 4] {
            let token = CancelToken::after(5);
            let out = parallel_map_cancellable(&items, threads, &token, |&x| x);
            assert_eq!(out, Err(Cancelled), "5 of 100 tasks cannot finish the map");
            assert!(token.is_cancelled());
        }
        // A countdown larger than the task count never trips.
        let token = CancelToken::after(1_000);
        assert!(parallel_map_cancellable(&items, 4, &token, |&x| x).is_ok());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn after_zero_starts_cancelled() {
        let token = CancelToken::after(0);
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn try_cancellable_reports_first_error_or_cancellation() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            let err: Result<Result<Vec<u64>, u64>, Cancelled> =
                try_parallel_map_cancellable(&items, threads, &token, |&x| {
                    if x == 9 || x == 40 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(err.expect("not cancelled").expect_err("has failures"), 9);

            let token = CancelToken::after(0);
            let cancelled: Result<Result<Vec<u64>, u64>, Cancelled> =
                try_parallel_map_cancellable(&items, threads, &token, |&x| Ok(x));
            assert_eq!(cancelled, Err(Cancelled));
        }
    }

    #[test]
    fn cancellable_results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let reference = parallel_map_cancellable(&items, 1, &CancelToken::new(), |&x| {
            x.wrapping_mul(7) ^ 0xA5
        })
        .expect("complete");
        for threads in [2, 3, 8] {
            let out = parallel_map_cancellable(&items, threads, &CancelToken::new(), |&x| {
                x.wrapping_mul(7) ^ 0xA5
            })
            .expect("complete");
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let reference = parallel_map(&items, 1, |&x| x.wrapping_mul(x) ^ 0xDEAD);
        for threads in [2, 3, 8] {
            assert_eq!(
                parallel_map(&items, threads, |&x| x.wrapping_mul(x) ^ 0xDEAD),
                reference
            );
        }
    }
}
