//! A zero-dependency work-stealing executor for the synthesis hot paths.
//!
//! The pipeline's dominant stages — per-level candidate pruning and
//! per-candidate hub placement — are embarrassingly parallel sweeps over
//! an index space whose results must nevertheless be **bit-identical**
//! to a serial run. This crate provides exactly that shape of
//! parallelism and nothing more:
//!
//! * [`Executor::par_map`] applies a pure function to every element of a
//!   slice and returns the results **in input order** (slot-addressed
//!   emission: workers tag each result with its input index and the
//!   results are scattered back into index order afterwards). Because
//!   the function sees the same inputs in every schedule, the output is
//!   identical for every thread count, including 1.
//! * Work is distributed as contiguous chunks over per-worker queues;
//!   an idle worker *steals* from the back of a victim's queue, so
//!   irregular per-item cost (some candidate subsets are pruned in
//!   nanoseconds, others pay a full two-hub solve) cannot leave threads
//!   idle.
//! * [`ShardedCache`] is a small concurrent memo table for pure
//!   functions (e.g. per-demand placement weights): whichever thread
//!   computes a key first, every thread observes the same value, so
//!   caching cannot perturb determinism.
//!
//! The executor is built on scoped `std::thread` only — no channels, no
//! external crates — consistent with the workspace's vendored-offline
//! policy. A `par_map` call over many items first runs them inline on
//! the calling thread; only a sweep still unfinished after ~200 µs
//! spawns its workers for the rest and joins them, so short sweeps never
//! pay the thread start-up and the executor stays free of global state.
//! A sweep of at most two items per worker (each item a large share of
//! the work) spawns its workers straight away.
//!
//! Instrumentation: every parallel sweep reports `exec.tasks` (chunks
//! the sweep splits into), `exec.steals`, and an `exec.queue_depth`
//! gauge (largest initial per-worker queue) to the active [`ccs_obs`] sink, and
//! returns the same numbers plus total busy time in [`ExecStats`].
//! Workers re-enter the spawning thread's per-request observability
//! scope ([`ccs_obs::scope`]), so a sweep running on behalf of one
//! served request records into that request's collector only.
//!
//! Two service primitives round out the crate for the `ccs serve`
//! daemon: [`CancelToken`] (cooperative cancellation checked at sweep
//! granularity by the pipeline) and [`JobQueue`] (a blocking priority
//! queue multiplexing requests onto a fixed worker pool).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Chunks handed to each worker's queue at the start of a sweep; more
/// chunks per worker means finer-grained stealing at slightly higher
/// queueing overhead.
const CHUNKS_PER_WORKER: usize = 8;

/// A sweep of many items runs them inline on the calling thread until
/// they have taken this long, and only then spawns workers for the
/// rest: starting scoped threads costs tens of µs each, more than a
/// small sweep's whole work. Which items run inline depends on timing,
/// but each output slot does not, so results are the same either way.
const INLINE_BUDGET: Duration = Duration::from_micros(200);

/// Items between clock reads of the inline run.
const CLOCK_STRIDE: usize = 8;

static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (≥ 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Overrides the process-wide default thread count that
/// [`Executor::new`] resolves `0` to. `0` restores auto-detection.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The process-wide default thread count: the value set by
/// [`set_default_threads`] if any, else the `CCS_THREADS` environment
/// variable if it parses to a positive integer, else [`available`].
pub fn default_threads() -> usize {
    let n = DEFAULT_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Ok(s) = std::env::var("CCS_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available()
}

/// Statistics of one or more parallel sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Chunks (tasks) the sweeps split into: a function of the item and
    /// thread counts alone, whichever of them ran inline.
    pub tasks: u64,
    /// Chunks obtained by stealing from another worker's queue.
    pub steals: u64,
    /// Summed per-chunk execution time across all workers — a proxy for
    /// CPU time spent in the sweep (excludes queueing and joins).
    pub busy: Duration,
    /// Largest initial per-worker queue depth observed.
    pub max_queue_depth: u64,
}

impl ExecStats {
    /// Accumulates another sweep's statistics into `self`.
    pub fn merge(&mut self, other: &ExecStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.busy += other.busy;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// length, in order. Returns an empty vector when `n == 0`.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// A fixed-width scoped thread pool with work stealing.
///
/// # Examples
///
/// ```
/// use ccs_exec::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// // Same result on any thread count, including serial.
/// assert_eq!(squares, Executor::serial().par_map(&[1, 2, 3, 4, 5], |_, &x| x * x));
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    cancel: CancelToken,
}

impl Executor {
    /// An executor with `threads` workers; `0` resolves through
    /// [`default_threads`].
    pub fn new(threads: usize) -> Executor {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Executor {
            threads,
            cancel: CancelToken::new(),
        }
    }

    /// A single-threaded executor (runs sweeps inline).
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// The same executor carrying `cancel`, which long-running work on
    /// it (e.g. the exact covering search) polls to stop early.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Executor {
        self.cancel = cancel;
        self
    }

    /// The cancellation token work on this executor polls (a fresh,
    /// never-cancelled one unless set by [`with_cancel`](Self::with_cancel)).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every element and returns results in input order.
    ///
    /// `f` receives `(index, &item)` and must be pure with respect to
    /// the output slot (it may read shared state and hit concurrent
    /// caches): the executor guarantees `out[i] == f(i, &items[i])`
    /// regardless of scheduling, so any thread count yields the same
    /// vector.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_stats(items, f).0
    }

    /// [`par_map`](Self::par_map), also returning the sweep's
    /// [`ExecStats`].
    pub fn par_map_stats<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ExecStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let tasks = match self.threads.min(n) {
            0 | 1 => u64::from(n > 0),
            w => (w * CHUNKS_PER_WORKER).min(n) as u64,
        };
        let start = Instant::now();
        let mut head: Vec<R> = Vec::with_capacity(n);
        {
            // Buffer decision-ledger emissions for the inline run so it
            // pays the same single merge a worker does.
            let _ledger = ccs_obs::ledger::worker_scope();
            // With at most two items per worker each item is a large
            // share of the sweep, and running one inline first would
            // serialize it: such sweeps go straight to the workers. The
            // clock is read every CLOCK_STRIDE items: a read costs about
            // as much as a cheap item.
            let inline = self.threads.min(n) <= 1 || n > 2 * self.threads;
            while inline
                && head.len() < n
                && (self.threads == 1
                    || head.len() % CLOCK_STRIDE != 0
                    || start.elapsed() < INLINE_BUDGET)
            {
                let i = head.len();
                head.push(f(i, &items[i]));
            }
        }
        let first = head.len();
        let inline_busy = start.elapsed();
        let workers = self.threads.min(n - first);
        if workers == 0 {
            let stats = ExecStats {
                tasks,
                steals: 0,
                busy: inline_busy,
                max_queue_depth: u64::from(n > 0),
            };
            report_sweep(&stats);
            return (head, stats);
        }

        // Deal the remaining items as contiguous chunks round-robin
        // onto per-worker queues.
        let chunks: Vec<(usize, usize)> = chunk_ranges(n - first, workers * CHUNKS_PER_WORKER)
            .into_iter()
            .map(|(s, e)| (first + s, first + e))
            .collect();
        let queues: Vec<Mutex<VecDeque<(usize, usize)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (c, range) in chunks.iter().enumerate() {
            queues[c % workers]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(*range);
        }
        let max_queue_depth = queues
            .iter()
            .map(|q| q.lock().unwrap_or_else(|e| e.into_inner()).len())
            .max()
            .unwrap_or(0) as u64;

        let steals = AtomicU64::new(0);
        let busy_ns = AtomicU64::new(0);

        let run_worker = |w: usize| -> Vec<(usize, R)> {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                // Own queue first (front), then steal (back) from the
                // next victim in ring order.
                let mut next = queues[w]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let mut stolen = false;
                if next.is_none() {
                    for off in 1..workers {
                        let victim = (w + off) % workers;
                        next = queues[victim]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .pop_back();
                        if next.is_some() {
                            stolen = true;
                            break;
                        }
                    }
                }
                let Some((start, end)) = next else {
                    return local;
                };
                if stolen {
                    steals.fetch_add(1, Ordering::Relaxed);
                }
                let t0 = Instant::now();
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    local.push((i, f(i, item)));
                }
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                busy_ns.fetch_add(ns, Ordering::Relaxed);
            }
        };

        // Worker threads start with an empty profiler context; capture
        // the spawning thread's path so their subtrees graft where a
        // serial run would record them (profile call counts stay
        // bit-identical across thread counts).
        let profile_base = ccs_obs::profile::current_path();
        // Likewise capture the spawning thread's per-request
        // observability scope (if any) so workers record into the same
        // request's sinks instead of the process globals.
        let obs_scope = ccs_obs::scope::current();

        // Scatter tagged results back into input order.
        let mut slots: Vec<Option<R>> = (first..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let base = profile_base.clone();
                    let obs = obs_scope.clone();
                    scope.spawn(move || {
                        // Scope first: the ledger worker scope below
                        // drops before it and merges into the scoped
                        // ledger while the scope is still active.
                        let _obs = obs.map(ccs_obs::scope::enter);
                        let _profile = ccs_obs::profile::worker_scope(base);
                        // Decision-ledger emissions buffer per worker and
                        // merge order-independently, so any schedule
                        // reconstructs the same ledger.
                        let _ledger = ccs_obs::ledger::worker_scope();
                        run_worker(w)
                    })
                })
                .collect();
            let slot0 = {
                let _ledger = ccs_obs::ledger::worker_scope();
                run_worker(0)
            };
            for (i, r) in slot0 {
                slots[i - first] = Some(r);
            }
            for h in handles {
                for (i, r) in h.join().expect("executor worker panicked") {
                    slots[i - first] = Some(r);
                }
            }
        });
        let mut out = head;
        out.extend(
            slots
                .into_iter()
                .map(|s| s.expect("every slot filled exactly once")),
        );

        let stats = ExecStats {
            tasks,
            steals: steals.load(Ordering::Relaxed),
            busy: Duration::from_nanos(busy_ns.load(Ordering::Relaxed)) + inline_busy,
            max_queue_depth,
        };
        report_sweep(&stats);
        (out, stats)
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

fn report_sweep(stats: &ExecStats) {
    if ccs_obs::enabled() {
        ccs_obs::counter("exec.tasks", stats.tasks);
        ccs_obs::counter("exec.steals", stats.steals);
        ccs_obs::gauge("exec.queue_depth", stats.max_queue_depth as f64);
    }
}

/// Number of independently locked shards in a [`ShardedCache`].
const SHARDS: usize = 16;

/// FNV-1a offset basis / prime, the seeds of the cache's fixed hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fixed-seed streaming hasher (FNV-1a). The cache deliberately does
/// NOT use `RandomState`: eviction must retain the same keys in every
/// process and thread count, so the hash is a pure function of key
/// content.
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// `splitmix64` finalizer applied on top of FNV for avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn det_hash<K: Hash>(seed: u64, key: &K) -> u64 {
    let mut h = FnvHasher(FNV_OFFSET ^ seed);
    key.hash(&mut h);
    mix(h.finish())
}

/// One shard: entries sorted ascending by retention priority.
struct Shard<K, V> {
    entries: Vec<(u64, K, V)>,
}

/// A concurrent, optionally bounded memo table for pure functions.
///
/// Keys hash (with a fixed seed) to one of `SHARDS` independently
/// locked shards, so unrelated keys rarely contend. The compute
/// closure runs *outside* the shard lock; two threads racing on the
/// same key may both compute it, but because memoized functions must
/// be pure the first insert wins and every caller observes an
/// identical value — determinism is unaffected by the race.
///
/// A cache built with [`ShardedCache::bounded`] keeps at most
/// `per_shard` entries per shard, so a long-running daemon cannot
/// grow it without bound. Eviction is *deterministic*: each key has a
/// content-derived 64-bit retention priority (a fixed-seed hash), a
/// full shard admits a new key only by evicting its
/// largest-priority entry, and only when the new key's priority is
/// smaller. The retained set is therefore the `per_shard`
/// priority-smallest keys of everything requested — a pure function
/// of the request *set*, independent of arrival order and thread
/// count (same semilattice argument as the decision ledger's
/// hash-minimum sampling). Evictions bump the `exec.cache_evicted`
/// counter and [`ShardedCache::evictions`].
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard: usize,
    evicted: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// An empty, unbounded cache.
    pub fn new() -> ShardedCache<K, V> {
        ShardedCache::bounded(usize::MAX)
    }

    /// An empty cache holding at most `per_shard` entries in each of
    /// its 16 shards (total capacity `per_shard * 16`).
    pub fn bounded(per_shard: usize) -> ShardedCache<K, V> {
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Vec::new(),
                    })
                })
                .collect(),
            per_shard: per_shard.max(1),
            evicted: AtomicU64::new(0),
        }
    }

    /// The per-shard capacity (`usize::MAX` when unbounded).
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard
    }

    /// The most entries the cache ever holds (`usize::MAX` when
    /// unbounded).
    pub fn capacity(&self) -> usize {
        self.per_shard.saturating_mul(SHARDS)
    }

    /// Total entries evicted so far. The *retained set* is
    /// deterministic; this count can vary by a few recomputations
    /// under racing inserts and is informational only.
    pub fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Retention priority: a fixed-seed hash of the key. Smaller
    /// priorities are retained first; a tie across distinct keys needs
    /// a 64-bit collision. Its top bits pick the shard.
    fn priority(key: &K) -> u64 {
        det_hash(0, key)
    }

    fn find(entries: &[(u64, K, V)], prio: u64, key: &K) -> Option<usize> {
        let mut i = entries.partition_point(|e| e.0 < prio);
        while i < entries.len() && entries[i].0 == prio {
            if entries[i].1 == *key {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Returns the cached value for `key`, computing it with `make` on
    /// a miss. `make` must be a pure function of `key`. On a bounded
    /// cache the computed value may not be admitted (when the shard is
    /// full of smaller-priority keys); the value is still returned.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let prio = Self::priority(&key);
        let slot = &self.shards[(prio >> 60) as usize % SHARDS];
        {
            let shard = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(i) = Self::find(&shard.entries, prio, &key) {
                return shard.entries[i].2.clone();
            }
        }
        let value = make();
        let mut shard = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = Self::find(&shard.entries, prio, &key) {
            return shard.entries[i].2.clone();
        }
        if shard.entries.len() >= self.per_shard {
            match shard.entries.last() {
                // The shard is full of smaller-priority keys: the new
                // key is deterministically not retained.
                Some(last) if prio >= last.0 => return value,
                _ => {
                    shard.entries.pop();
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    ccs_obs::counter("exec.cache_evicted", 1);
                }
            }
        }
        let at = shard.entries.partition_point(|e| e.0 <= prio);
        shard.entries.insert(at, (prio, key, value.clone()));
        value
    }

    /// Entries currently cached (racy under concurrent inserts; exact
    /// once all workers joined).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

/// A cooperative cancellation flag shared between a request's
/// submitter and the pipeline running it.
///
/// Clones share one flag. The pipeline polls [`is_cancelled`]
/// (one relaxed atomic load) at phase boundaries and per sweep item,
/// and aborts with `SynthesisError::Cancelled` — it never observes a
/// torn state, so cancellation cannot corrupt output, only suppress
/// it.
///
/// [`is_cancelled`]: CancelToken::is_cancelled
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Tokens compare by identity: two tokens are equal when they share
/// the same flag (fresh defaults are distinct).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// One queued job, ordered by (priority desc, arrival asc).
struct QueueSlot<T> {
    priority: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for QueueSlot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for QueueSlot<T> {}
impl<T> PartialOrd for QueueSlot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueueSlot<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO within a priority.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueState<T> {
    heap: BinaryHeap<QueueSlot<T>>,
    seq: u64,
    closed: bool,
}

/// A blocking multi-producer multi-consumer priority queue.
///
/// Higher [`push`] priorities pop first; jobs of equal priority pop in
/// arrival order, so the schedule is a pure function of the submitted
/// (priority, arrival) sequence. [`pop`] blocks until a job is
/// available or the queue is [`close`]d *and* drained — close-then-
/// drain is exactly the graceful-shutdown contract of `ccs serve`.
///
/// [`push`]: JobQueue::push
/// [`pop`]: JobQueue::pop
/// [`close`]: JobQueue::close
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> std::fmt::Debug for JobQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("JobQueue")
            .field("len", &state.heap.len())
            .field("closed", &state.closed)
            .finish()
    }
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item` at `priority` (higher pops first). Returns the
    /// item back when the queue is closed.
    pub fn push(&self, priority: i64, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(item);
        }
        let seq = state.seq;
        state.seq += 1;
        state.heap.push(QueueSlot {
            priority,
            seq,
            item,
        });
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (returning the highest-priority
    /// one) or the queue is closed and empty (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(slot) = state.heap.pop() {
                return Some(slot.item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: further pushes fail, queued jobs still pop,
    /// and blocked consumers return `None` once the queue drains.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Whether [`close`](JobQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Jobs currently queued (racy under concurrent push/pop).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .heap
            .len()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_input_order_on_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let exec = Executor::new(threads);
            let (out, stats) = exec.par_map_stats(&items, |_, &x| x.wrapping_mul(x) ^ 17);
            assert_eq!(out, expected, "threads = {threads}");
            assert!(stats.tasks >= 1);
        }
    }

    #[test]
    fn par_map_passes_the_input_index() {
        let items = vec!["a", "b", "c"];
        let exec = Executor::new(4);
        let out = exec.par_map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        let (out, stats) = exec.par_map_stats(&empty, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.tasks, 0);
        assert_eq!(exec.par_map(&[42u32], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = Executor::new(7).par_map(&items, |i, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1001] {
            for parts in [1usize, 2, 5, 16, 2000] {
                let chunks = chunk_ranges(n, parts);
                let total: usize = chunks.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                let mut cursor = 0;
                for &(s, e) in &chunks {
                    assert_eq!(s, cursor);
                    assert!(e > s, "empty chunk for n={n} parts={parts}");
                    cursor = e;
                }
                assert!(chunks.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn exec_stats_merge_accumulates() {
        let mut a = ExecStats {
            tasks: 3,
            steals: 1,
            busy: Duration::from_nanos(100),
            max_queue_depth: 2,
        };
        let b = ExecStats {
            tasks: 4,
            steals: 0,
            busy: Duration::from_nanos(50),
            max_queue_depth: 5,
        };
        a.merge(&b);
        assert_eq!(a.tasks, 7);
        assert_eq!(a.steals, 1);
        assert_eq!(a.busy, Duration::from_nanos(150));
        assert_eq!(a.max_queue_depth, 5);
    }

    #[test]
    fn default_threads_resolution() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(Executor::new(0).threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
        assert_eq!(Executor::new(5).threads(), 5);
    }

    #[test]
    fn sharded_cache_memoizes_pure_functions() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let computes = AtomicUsize::new(0);
        let f = |k: u64| {
            computes.fetch_add(1, Ordering::Relaxed);
            k * 10
        };
        assert_eq!(cache.get_or_insert_with(7, || f(7)), 70);
        assert_eq!(cache.get_or_insert_with(7, || f(7)), 70);
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn sharded_cache_is_consistent_under_contention() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let items: Vec<u64> = (0..2000).collect();
        let out = Executor::new(8).par_map(&items, |_, &x| {
            cache.get_or_insert_with(x % 50, || (x % 50) * 3)
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64 % 50) * 3);
        }
        assert_eq!(cache.len(), 50);
    }

    #[test]
    fn bounded_cache_retains_a_deterministic_set() {
        // The retained set must be a pure function of the requested
        // key set: any arrival order and thread count agree.
        let keys: Vec<u64> = (0..500).collect();
        let retained = |order: &[u64], threads: usize| -> Vec<(u64, u64)> {
            let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
            Executor::new(threads).par_map(order, |_, &k| cache.get_or_insert_with(k, || k * 3));
            // Read the retained entries straight out of the shards
            // (same-module test; no public iteration API needed).
            let mut kept: Vec<(u64, u64)> = cache
                .shards
                .iter()
                .flat_map(|s| {
                    s.lock()
                        .unwrap()
                        .entries
                        .iter()
                        .map(|(_, k, v)| (*k, *v))
                        .collect::<Vec<_>>()
                })
                .collect();
            kept.sort_unstable();
            kept
        };
        let forward = retained(&keys, 1);
        let mut reversed: Vec<u64> = keys.clone();
        reversed.reverse();
        assert_eq!(retained(&reversed, 1), forward, "arrival order");
        assert_eq!(retained(&keys, 8), forward, "thread count");
        // Capacity is respected: 16 shards * 4 entries max.
        assert!(forward.len() <= SHARDS * 4);
        assert!(!forward.is_empty());
    }

    #[test]
    fn bounded_cache_counts_evictions_and_caps_memory() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(2);
        for k in 0..1000u64 {
            assert_eq!(cache.get_or_insert_with(k, || k + 1), k + 1);
        }
        assert!(cache.len() <= 2 * SHARDS);
        assert!(cache.evictions() > 0);
        assert_eq!(cache.per_shard_capacity(), 2);
        // Unbounded caches never evict.
        let unbounded: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..1000u64 {
            unbounded.get_or_insert_with(k, || k);
        }
        assert_eq!(unbounded.len(), 1000);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
        b.cancel();
        assert!(a.is_cancelled());
        a.cancel(); // idempotent
        assert!(b.is_cancelled());
    }

    #[test]
    fn job_queue_orders_by_priority_then_arrival() {
        let q: JobQueue<&'static str> = JobQueue::new();
        q.push(0, "low-1").unwrap();
        q.push(5, "high-1").unwrap();
        q.push(0, "low-2").unwrap();
        q.push(5, "high-2").unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some("high-1"));
        assert_eq!(q.pop(), Some("high-2"));
        assert_eq!(q.pop(), Some("low-1"));
        assert_eq!(q.pop(), Some("low-2"));
    }

    #[test]
    fn job_queue_close_drains_then_releases_consumers() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new());
        q.push(1, 7).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(1, 8), Err(8), "closed queue rejects pushes");
        // Queued work still drains after close...
        assert_eq!(q.pop(), Some(7));
        // ...then consumers (including blocked ones) observe the end.
        assert_eq!(q.pop(), None);
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn job_queue_feeds_concurrent_consumers_exactly_once() {
        let q: Arc<JobQueue<u64>> = Arc::new(JobQueue::new());
        for i in 0..200 {
            q.push((i % 3) as i64, i).unwrap();
        }
        q.close();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_workers_record_into_the_spawners_scope() {
        let collector = ccs_obs::Collector::new();
        let obs = ccs_obs::scope::RequestObs::new(
            Some(collector.clone() as Arc<dyn ccs_obs::Record>),
            None,
        );
        let _guard = ccs_obs::scope::enter(obs);
        let items: Vec<u64> = (0..256).collect();
        Executor::new(4).par_map(&items, |_, &x| {
            ccs_obs::counter("scoped.work", 1);
            x
        });
        let m = collector.snapshot();
        assert_eq!(m.counters["scoped.work"], 256);
        // The sweep's own stats landed in the scope too.
        assert!(m.counters.contains_key("exec.tasks"));
    }

    #[test]
    fn stealing_happens_under_skewed_load() {
        // One pathologically slow item at the front forces other
        // workers to drain the slow worker's remaining queue.
        let items: Vec<u64> = (0..256).collect();
        let (out, stats) = Executor::new(4).par_map_stats(&items, |_, &x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out[0], 1);
        assert_eq!(out[255], 256);
        // Not asserting steals > 0 (a 1-core machine may finish the
        // queue before any worker goes idle), but the counters must be
        // coherent.
        assert!(stats.tasks >= 1);
        assert!(stats.steals <= stats.tasks);
    }
}
