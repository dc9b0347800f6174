//! Workspace-local scoped thread pool for QuickSel's hot paths.
//!
//! The training pipeline (QP assembly, Gram products, the blocked
//! Cholesky's trailing update) and planner-scale batched estimation are
//! all embarrassingly parallel over *disjoint output slices* — but the
//! workspace is dependency-free by policy, so this crate provides the
//! small fork-join substrate those kernels need instead of pulling in
//! rayon:
//!
//! * **One lazy global pool** ([`global`]), sized from
//!   [`std::thread::available_parallelism`] and overridable with the
//!   `QUICKSEL_THREADS` environment variable or the
//!   [`set_global_threads`] config knob (call it before the pool's
//!   first use). Custom pools ([`ThreadPool::new`]) can be scoped onto
//!   a thread with [`with_pool`] — that is how the equivalence suites
//!   pin exact thread counts.
//! * **Scoped fork-join** ([`ThreadPool::scope`]): spawned closures may
//!   borrow from the caller's stack (same contract as
//!   [`std::thread::scope`]); the scope does not return until every
//!   spawned closure has finished, and the waiting thread *helps* —
//!   it executes queued jobs instead of blocking — so nested scopes and
//!   arbitrarily many concurrent scope callers (oversubscription) can
//!   never deadlock the fixed worker set.
//! * **Deterministic chunking** ([`split_even`], [`ThreadPool::chunks_for`],
//!   [`ThreadPool::run_chunks`]): chunk boundaries depend only on the
//!   input length and the pool's thread count, never on timing. The
//!   kernels built on top write disjoint output slices per chunk and
//!   keep per-entry arithmetic identical to their serial form, so
//!   **parallel results compare equal (`==`) to serial results** — the
//!   equivalence proptests in `quicksel-core` and `quicksel-linalg`
//!   pin this for every kernel driven through the pool.
//! * **Serial fallback**: a pool with one thread spawns no workers and
//!   runs every closure inline; kernels additionally gate on
//!   [`chunks_for`](ThreadPool::chunks_for)` <= 1` and keep their
//!   original single-threaded loops, so `QUICKSEL_THREADS=1` is the
//!   exact pre-parallelism code path with zero pool overhead.
//! * [`SharedSlice`]: an unsafe-but-narrow escape hatch for kernels
//!   whose concurrent accesses are provably disjoint but inexpressible
//!   with `split_at_mut` (e.g. mirroring a matrix's upper triangle into
//!   the lower one, where reads and writes interleave by row).

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Chunks handed out per pool thread by [`ThreadPool::chunks_for`]:
/// more chunks than threads so unevenly-sized work (triangular updates,
/// pruned rows) load-balances through the shared queue, few enough that
/// per-chunk dispatch overhead stays negligible.
pub const CHUNKS_PER_THREAD: usize = 4;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        self.queue.lock().expect("pool queue poisoned").pop_front()
    }
}

/// Owns the worker threads; dropping the last pool clone shuts the
/// workers down and joins them.
struct PoolHandle {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    threads: usize,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Take the queue lock once so no worker is between its empty
        // check and its wait when the wake-up broadcast fires.
        drop(self.shared.queue.lock().expect("pool queue poisoned"));
        self.shared.work_ready.notify_all();
        for handle in self.workers.lock().expect("worker list poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-size scoped thread pool; cheap to clone (clones share the
/// same workers). See the module docs for the design.
#[derive(Clone)]
pub struct ThreadPool {
    handle: Arc<PoolHandle>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads()).finish()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

impl ThreadPool {
    /// Builds a pool of `threads` executors: `threads - 1` worker
    /// threads plus the caller of each [`scope`](Self::scope), which
    /// participates while it waits. `threads <= 1` spawns no workers at
    /// all — every closure runs inline on the caller (the serial
    /// fallback).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("quicksel-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { handle: Arc::new(PoolHandle { shared, workers: Mutex::new(workers), threads }) }
    }

    /// Effective parallelism: worker threads plus the scope caller.
    pub fn threads(&self) -> usize {
        self.handle.threads
    }

    /// Worker threads (0 for a serial pool).
    fn workers(&self) -> usize {
        self.handle.threads - 1
    }

    fn push_job(&self, job: Job) {
        self.handle.shared.queue.lock().expect("pool queue poisoned").push_back(job);
        self.handle.shared.work_ready.notify_one();
    }

    /// Fork-join scope: closures spawned on it may borrow from the
    /// enclosing stack frame, and the call does not return until every
    /// spawned closure has completed. A panic inside any spawned
    /// closure is re-raised on the caller after the scope drains.
    ///
    /// The caller helps while it waits (it pops and runs queued jobs),
    /// so any number of concurrent or nested `scope` calls make
    /// progress on a fixed worker set — oversubscription degrades to
    /// cooperative sharing, never deadlock.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::default());
        let scope =
            Scope { pool: self, state: Arc::clone(&state), _scope: PhantomData, _env: PhantomData };
        // Wait even if `f` unwinds: spawned jobs borrow the caller's
        // stack, which must stay alive until the last of them finishes.
        let guard = WaitGuard { pool: self, state: &state };
        let result = f(&scope);
        drop(guard);
        if let Some(payload) = state.panic.lock().expect("scope panic slot poisoned").take() {
            resume_unwind(payload);
        }
        result
    }

    /// Runs queued jobs until `state` has no pending jobs left.
    fn help_until_done(&self, state: &ScopeState) {
        while state.pending.load(Ordering::SeqCst) != 0 {
            match self.handle.shared.pop() {
                Some(job) => job(),
                None => {
                    // Nothing runnable here: the scope's jobs are on
                    // other threads. Sleep until the last one signals,
                    // with a timeout guarding the (benign) race where
                    // it finishes between our check and our wait.
                    let sync = state.sync.lock().expect("scope sync poisoned");
                    if state.pending.load(Ordering::SeqCst) != 0 {
                        let _ = state
                            .all_done
                            .wait_timeout(sync, Duration::from_millis(1))
                            .expect("scope sync poisoned");
                    }
                }
            }
        }
    }

    /// Number of chunks a `len`-item loop should split into on this
    /// pool, keeping at least `min_per_chunk` items per chunk: `1`
    /// means "run serially". Deterministic for a given pool size.
    pub fn chunks_for(&self, len: usize, min_per_chunk: usize) -> usize {
        if self.threads() == 1 || len == 0 {
            return 1;
        }
        let max_by_size = len / min_per_chunk.max(1);
        (self.threads() * CHUNKS_PER_THREAD).min(max_by_size).max(1)
    }

    /// Convenience fork-join over `0..len`: splits into
    /// [`chunks_for`](Self::chunks_for) deterministic ranges and runs
    /// `f` on each (inline when the split degenerates to one chunk).
    pub fn run_chunks(&self, len: usize, min_per_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
        let pieces = self.chunks_for(len, min_per_chunk);
        if pieces <= 1 {
            f(0..len);
            return;
        }
        let f = &f;
        self.scope(|s| {
            for range in split_even(len, pieces) {
                s.spawn(move || f(range));
            }
        });
    }

    /// Fork-join over the rows of a row-major buffer: treats `data` as
    /// `data.len() / width` rows of `width` elements, splits the rows
    /// into `pieces` contiguous slabs with [`split_even`], and runs
    /// `f(rows, slab)` per slab — inline (one call covering every row)
    /// when `pieces <= 1`, so the serial fallback is the plain loop
    /// with zero dispatch overhead. Returns each slab's result, in slab
    /// order.
    ///
    /// This is the one home of the slab/offset bookkeeping every
    /// row-partitioned kernel needs; slabs are carved with
    /// `split_at_mut`, so disjointness is compiler-checked, and chunk
    /// boundaries are deterministic ([`split_even`] of the row count).
    pub fn scope_slabs<T: Send, R: Send>(
        &self,
        data: &mut [T],
        width: usize,
        pieces: usize,
        f: impl Fn(Range<usize>, &mut [T]) -> R + Sync,
    ) -> Vec<R> {
        let rows = data.len().checked_div(width).unwrap_or(0);
        debug_assert_eq!(rows * width, data.len(), "data must be whole rows");
        if pieces <= 1 {
            return vec![f(0..rows, data)];
        }
        let ranges = split_even(rows, pieces);
        let mut results: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
        let f = &f;
        self.scope(|s| {
            let mut rest = data;
            for (range, slot) in ranges.into_iter().zip(&mut results) {
                let (slab, tail) = rest.split_at_mut((range.end - range.start) * width);
                rest = tail;
                s.spawn(move || *slot = Some(f(range, slab)));
            }
        });
        results.into_iter().map(|r| r.expect("the scope ran every slab job")).collect()
    }

    /// Forces every worker thread through one wake-up, so one-shot
    /// profiles don't charge first-use pool spin-up to the first timed
    /// stage. Bounded: gives up after a short deadline rather than
    /// insisting every worker ran a job (a busy pool is already warm).
    pub fn warm_up(&self) {
        let workers = self.workers();
        if workers == 0 {
            return;
        }
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_millis(50);
        self.scope(|s| {
            for _ in 0..workers {
                let started = &started;
                s.spawn(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < workers && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                });
            }
        });
    }
}

/// Completion and panic bookkeeping for one [`ThreadPool::scope`].
#[derive(Default)]
struct ScopeState {
    pending: AtomicUsize,
    sync: Mutex<()>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

struct WaitGuard<'a> {
    pool: &'a ThreadPool,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.pool.help_until_done(self.state);
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; the
/// lifetimes mirror [`std::thread::Scope`] (`'env` is the enclosing
/// environment spawned closures may borrow from).
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns `f` onto the pool (or runs it inline on a serial pool).
    /// The closure may borrow anything that outlives the enclosing
    /// [`ThreadPool::scope`] call; the scope waits for it before
    /// returning.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.workers() == 0 {
            // Serial fallback: no queue, no boxing, panics propagate
            // exactly as in straight-line code.
            f();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Pair with the waiter's lock-then-recheck so the
                // notification cannot fall between its check and wait.
                drop(state.sync.lock().expect("scope sync poisoned"));
                state.all_done.notify_all();
            }
        });
        // SAFETY: the job's borrows all outlive 'env, and the enclosing
        // `scope` call (via WaitGuard, panic-safe) does not return until
        // `pending` drops to zero — i.e. until this job has run to
        // completion — so the 'env data stays alive for the job's whole
        // lifetime. The ScopeState Arc the wrapper captures is owned.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push_job(job);
    }
}

/// Splits `0..len` into `pieces` contiguous, near-equal ranges (the
/// first `len % pieces` ranges are one element longer; empty ranges are
/// omitted). Deterministic: depends only on the two arguments, so
/// chunked kernels produce identical chunk boundaries on every run.
pub fn split_even(len: usize, pieces: usize) -> Vec<Range<usize>> {
    let pieces = pieces.max(1);
    let base = len / pieces;
    let extra = len % pieces;
    let mut ranges = Vec::with_capacity(pieces.min(len));
    let mut start = 0;
    for p in 0..pieces {
        let size = base + usize::from(p < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// A raw view over a mutable slice that can be shared across scope
/// jobs whose reads and writes are **provably disjoint** but cannot be
/// expressed through `split_at_mut` (interleaved triangular access,
/// scattered row ownership).
///
/// All accessors are `unsafe`: the caller asserts that no element is
/// written by one job while read or written by another within the same
/// scope. Bounds are still checked.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: SharedSlice only hands out element access through unsafe
// methods whose contract forbids concurrent overlap; the wrapper itself
// is just a pointer + length.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for scoped shared access.
    pub fn new(data: &'a mut [T]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len(), _marker: PhantomData }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// No other job may be concurrently writing element `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        assert!(i < self.len, "SharedSlice index {i} out of bounds {}", self.len);
        *self.ptr.add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    /// No other job may be concurrently reading or writing element `i`.
    #[inline]
    pub unsafe fn set(&self, i: usize, value: T) {
        assert!(i < self.len, "SharedSlice index {i} out of bounds {}", self.len);
        *self.ptr.add(i) = value;
    }

    /// Borrows `range` immutably.
    ///
    /// # Safety
    /// No other job may be concurrently writing any element of `range`
    /// for the lifetime of the returned slice.
    #[inline]
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedSlice range {range:?} out of bounds {}",
            self.len
        );
        std::slice::from_raw_parts(self.ptr.add(range.start), range.end - range.start)
    }

    /// Borrows `range` mutably.
    ///
    /// # Safety
    /// No other job may touch any element of `range` (read or write)
    /// for the lifetime of the returned slice.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the whole point of the escape hatch
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedSlice range {range:?} out of bounds {}",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
static REQUESTED_THREADS: OnceLock<usize> = OnceLock::new();

/// Requests a size for the lazy global pool — the programmatic
/// equivalent of `QUICKSEL_THREADS` (which still wins when set, as the
/// operator-facing override). Returns `false` when the global pool was
/// already built (the request cannot take effect) or a size was already
/// requested.
pub fn set_global_threads(threads: usize) -> bool {
    if GLOBAL.get().is_some() {
        return false;
    }
    REQUESTED_THREADS.set(threads.max(1)).is_ok()
}

/// The global pool's size policy: `QUICKSEL_THREADS` (clamped to ≥ 1)
/// beats [`set_global_threads`] beats
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var("QUICKSEL_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    if let Some(&n) = REQUESTED_THREADS.get() {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The lazily-built global pool every hot path defaults to.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

thread_local! {
    static OVERRIDE: RefCell<Vec<ThreadPool>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `pool` installed as this thread's [`current`] pool
/// (nestable; restored on exit, including on panic). The equivalence
/// suites use this to run one kernel at several exact thread counts.
///
/// The override is per-thread: closures `f` spawns onto *other* threads
/// resolve [`current`] themselves (usually to the global pool).
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|stack| stack.borrow_mut().push(pool.clone()));
    let _guard = PopGuard;
    f()
}

/// The pool the calling thread should fan out on: the innermost
/// [`with_pool`] override, or the [`global`] pool.
pub fn current() -> ThreadPool {
    OVERRIDE.with(|stack| stack.borrow().last().cloned()).unwrap_or_else(|| global().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut hits = 0;
        pool.scope(|s| {
            // A serial spawn may borrow mutably across iterations only
            // through a cell; use a plain counter via interior spawn.
            s.spawn(|| hits += 1);
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn scope_runs_all_jobs_and_borrows_stack() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let n = 257;
            let mut out = vec![0usize; n];
            pool.scope(|s| {
                for (i, slot) in out.iter_mut().enumerate() {
                    s.spawn(move || *slot = i * i);
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i), "threads={threads}");
        }
    }

    #[test]
    fn run_chunks_covers_every_index_once() {
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(threads);
            let n = 1003;
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_chunks(n, 16, |range| {
                for i in range {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                }
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1), "threads={threads}");
        }
    }

    #[test]
    fn scope_slabs_partitions_rows_disjointly() {
        for (threads, pieces) in [(1, 1), (1, 4), (3, 1), (3, 5), (8, 16)] {
            let pool = ThreadPool::new(threads);
            let (rows, width) = (37, 5);
            let mut data = vec![0usize; rows * width];
            let starts = pool.scope_slabs(&mut data, width, pieces, |range, slab| {
                assert_eq!(slab.len(), (range.end - range.start) * width);
                for (k, r) in range.clone().enumerate() {
                    for c in 0..width {
                        slab[k * width + c] = r * width + c;
                    }
                }
                range.start
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i),
                "threads={threads} pieces={pieces}"
            );
            // One result per slab, in slab order.
            let expected: Vec<usize> =
                split_even(rows, pieces).into_iter().map(|r| r.start).collect();
            assert_eq!(starts, expected, "threads={threads} pieces={pieces}");
        }
    }

    #[test]
    fn split_even_is_deterministic_and_balanced() {
        let ranges = split_even(10, 4);
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(split_even(10, 4), ranges);
        // Short inputs drop empty trailing chunks.
        assert_eq!(split_even(2, 4), vec![0..1, 1..2]);
        assert_eq!(split_even(0, 4), Vec::<Range<usize>>::new());
        // Full coverage, no overlap, ordered.
        for (len, pieces) in [(1usize, 1usize), (7, 3), (64, 64), (65, 8), (1000, 7)] {
            let ranges = split_even(len, pieces);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn chunks_for_degenerates_to_serial() {
        assert_eq!(ThreadPool::new(1).chunks_for(1_000_000, 1), 1);
        assert_eq!(ThreadPool::new(4).chunks_for(0, 1), 1);
        assert_eq!(ThreadPool::new(4).chunks_for(10, 16), 1);
        let pool = ThreadPool::new(4);
        assert_eq!(pool.chunks_for(1_000_000, 1), 4 * CHUNKS_PER_THREAD);
        assert_eq!(pool.chunks_for(48, 16), 3);
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let total = &total;
                let pool = &pool;
                s.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn oversubscribed_callers_never_deadlock() {
        // Many OS threads hammer one 2-thread pool concurrently; the
        // help-while-waiting loop must drain everything.
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        std::thread::scope(|outer| {
            for _ in 0..8 {
                let pool = &pool;
                let total = &total;
                outer.spawn(move || {
                    for _ in 0..50 {
                        pool.scope(|s| {
                            for _ in 0..4 {
                                s.spawn(|| {
                                    total.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 8 * 50 * 4);
    }

    #[test]
    fn spawned_panic_propagates_after_drain() {
        let pool = ThreadPool::new(4);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 7 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the scope caller");
        // Every non-panicking job still ran to completion.
        assert_eq!(finished.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn with_pool_overrides_current_and_restores() {
        let base = current().threads();
        let pool = ThreadPool::new(3);
        let inner = with_pool(&pool, || {
            let nested = ThreadPool::new(2);
            let deepest = with_pool(&nested, || current().threads());
            assert_eq!(deepest, 2);
            current().threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(current().threads(), base);
    }

    #[test]
    fn warm_up_returns() {
        ThreadPool::new(1).warm_up();
        ThreadPool::new(4).warm_up();
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let pool = ThreadPool::new(4);
        let n = 512;
        let mut data = vec![0u64; n];
        let shared = SharedSlice::new(&mut data);
        pool.scope(|s| {
            for range in split_even(n, 8) {
                let shared = &shared;
                s.spawn(move || {
                    // SAFETY: ranges from split_even are disjoint.
                    let slab = unsafe { shared.slice_mut(range.clone()) };
                    for (k, v) in slab.iter_mut().enumerate() {
                        *v = (range.start + k) as u64;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }
}
