//! A persistent worker pool for the solver's per-iteration kernels.
//!
//! The randomization recursion runs one parallel pass per iteration `k`,
//! and `G` routinely reaches tens of thousands (the paper's large model
//! has `G = 41,588`). Spawning scoped OS threads inside every pass would
//! pay `O(G·order·threads)` thread creations per solve, which dwarfs the
//! useful work on sparse rows. The
//! [`WorkerPool`] instead creates its threads **once per solve** and
//! parks them between passes:
//!
//! * `new(n)` spawns `n − 1` workers, which immediately block on a
//!   condvar;
//! * [`WorkerPool::run`] publishes a job (an epoch-stamped closure
//!   pointer), wakes every worker, executes chunk 0 on the calling
//!   thread, and waits until all chunks report completion;
//! * dropping the pool shuts the workers down and joins them.
//!
//! Chunk assignment is **static**: worker `i` always executes chunk `i`.
//! Combined with fixed chunk boundaries in the callers, this keeps every
//! floating-point reduction in a deterministic order, so pooled results
//! are bit-identical to the serial kernel no matter the thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Counters describing a pool's lifetime behaviour, for telemetry.
///
/// `parks` counts condvar waits entered by workers (how often a worker
/// found no fresh epoch and blocked); `wakes` counts epochs picked up by
/// workers. A healthy solve shows `wakes ≈ epochs · (threads − 1)`;
/// `parks` close to `wakes` means workers drain each pass and park
/// instead of spinning through spurious wakeups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Threads participating in each run (workers + caller).
    pub threads: usize,
    /// Parallel passes executed so far (pool epochs).
    pub epochs: u64,
    /// Condvar waits entered by workers.
    pub parks: u64,
    /// Epochs picked up by workers.
    pub wakes: u64,
}

/// Type-erased job pointer: the chunk closure of the current epoch.
///
/// In a type alias the trait-object lifetime defaults to `'static`; the
/// actual closure only lives for the duration of [`WorkerPool::run`],
/// which is sound because a worker dereferences the pointer only between
/// the epoch publish and the completion handshake of that same call.
type Job = *const (dyn Fn(usize) + Sync);

struct PoolState {
    job: Option<Job>,
    epoch: u64,
    /// Worker chunks of the current epoch still running.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

// The raw job pointer is only dereferenced under the epoch protocol;
// moving it between threads is the whole point.
unsafe impl Send for PoolState {}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new epoch.
    work: Condvar,
    /// The caller parks here waiting for `remaining == 0`.
    done: Condvar,
    /// Telemetry: condvar waits entered by workers. Relaxed atomics —
    /// read only by [`WorkerPool::stats`], never for synchronization.
    parks: AtomicU64,
    /// Telemetry: epochs picked up by workers.
    wakes: AtomicU64,
}

/// A pool of parked OS threads executing statically-assigned chunks.
///
/// # Example
///
/// ```
/// use somrm_linalg::pool::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let mut pool = WorkerPool::new(4);
/// let hits = AtomicU64::new(0);
/// pool.run(&|chunk| {
///     hits.fetch_add(1 << (8 * chunk), Ordering::Relaxed);
/// });
/// // Every chunk 0..4 ran exactly once.
/// assert_eq!(hits.load(Ordering::Relaxed), 0x0101_0101);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Total `run` calls, including inline single-thread runs (which
    /// never touch the epoch protocol).
    runs: u64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool executing jobs on `n_threads` threads total: the
    /// calling thread plus `n_threads − 1` spawned workers (`0` is
    /// treated as `1`; a 1-thread pool spawns nothing and runs inline).
    pub fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });
        let workers = (1..n_threads)
            .map(|chunk_index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("somrm-worker-{chunk_index}"))
                    .spawn(move || worker_loop(&shared, chunk_index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            runs: 0,
        }
    }

    /// Total threads participating in each `run` (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Telemetry counters accumulated since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            epochs: self.runs,
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
        }
    }

    /// Executes `task(chunk)` for every chunk `0..self.threads()`, chunk
    /// 0 on the calling thread and chunk `i` on worker `i`. Returns when
    /// all chunks have completed.
    ///
    /// Chunks must touch disjoint data; the task only gets `&self`-style
    /// shared access plus its chunk index, so interior mutability (or
    /// `unsafe` disjoint writes, as in the CSR kernels) is the caller's
    /// responsibility.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any chunk after all chunks finished.
    pub fn run(&mut self, task: &(dyn Fn(usize) + Sync)) {
        self.runs += 1;
        if self.workers.is_empty() {
            task(0);
            return;
        }
        // Erase the borrow lifetime; see the `Job` docs for why this is
        // sound under the epoch protocol.
        let job: Job = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), Job>(
                task as *const (dyn Fn(usize) + Sync),
            )
        };
        {
            let mut st = self.shared.state.lock().expect("pool mutex");
            st.job = Some(job);
            st.epoch += 1;
            st.remaining = self.workers.len();
            st.panicked = false;
            self.shared.work.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| task(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("pool mutex");
            while st.remaining > 0 {
                st = self.shared.done.wait(st).expect("pool mutex");
            }
            st.job = None;
            st.panicked
        };
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "a WorkerPool worker panicked; see stderr");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, chunk_index: usize) {
    // Claim a dense timeline lane before any work arrives, so workers
    // spawned in chunk order get consecutive lanes and trace sinks show
    // a stable `somrm-worker-<chunk>` lane layout across solves.
    let _ = somrm_obs::thread_lane();
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    break;
                }
                shared.parks.fetch_add(1, Ordering::Relaxed);
                st = shared.work.wait(st).expect("pool mutex");
            }
            last_epoch = st.epoch;
            shared.wakes.fetch_add(1, Ordering::Relaxed);
            st.job.expect("job published with the epoch")
        };
        // SAFETY: `run` cannot return (and the closure cannot die) until
        // this chunk decrements `remaining` below.
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(chunk_index) })).is_ok();
        let mut st = shared.state.lock().expect("pool mutex");
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// A raw pointer shareable across pool workers for disjoint chunk
/// writes (slices cannot be split by a closure that only receives a
/// chunk index).
#[derive(Debug, Clone, Copy)]
pub struct SyncMutPtr<T>(*mut T);

// SAFETY: the pool caller promises chunks write disjoint index ranges.
unsafe impl<T> Send for SyncMutPtr<T> {}
unsafe impl<T> Sync for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    /// Wraps a base pointer valid for the whole target buffer.
    pub fn new(ptr: *mut T) -> Self {
        SyncMutPtr(ptr)
    }

    /// Pointer to element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the wrapped buffer and no other thread
    /// may concurrently access element `i`.
    pub unsafe fn add(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Splits `rows` into `chunks` contiguous ranges with fixed boundaries.
///
/// Chunk `c` covers `[c·⌈rows/chunks⌉, min((c+1)·⌈rows/chunks⌉, rows))`;
/// trailing chunks may be empty. The boundaries depend only on `(rows,
/// chunks)`, which is what keeps pooled reductions deterministic.
pub fn chunk_range(rows: usize, chunks: usize, c: usize) -> std::ops::Range<usize> {
    let per = rows.div_ceil(chunks.max(1));
    let lo = (c * per).min(rows);
    let hi = ((c + 1) * per).min(rows);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let mut pool = WorkerPool::new(8);
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|c| {
                counts[c].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (c, count) in counts.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 100, "chunk {c}");
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hit = AtomicUsize::new(0);
        pool.run(&|c| {
            assert_eq!(c, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn disjoint_writes_through_chunks() {
        let mut pool = WorkerPool::new(4);
        let n = 1003usize;
        let mut data = vec![0u64; n];
        let ptr = SyncMutPtr::new(data.as_mut_ptr());
        pool.run(&|c| {
            let range = chunk_range(n, 4, c);
            for i in range {
                // SAFETY: chunk ranges are disjoint.
                unsafe { *ptr.add(i) = i as u64 + 1 };
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives_drop() {
        let result = std::panic::catch_unwind(|| {
            let mut pool = WorkerPool::new(4);
            pool.run(&|c| {
                if c == 2 {
                    panic!("intentional chunk panic");
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn stats_count_epochs_and_wakes() {
        let mut pool = WorkerPool::new(4);
        for _ in 0..10 {
            pool.run(&|_| {});
        }
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.epochs, 10);
        // Every epoch is picked up by each of the 3 workers exactly once.
        assert_eq!(stats.wakes, 30);
        // Workers park at least once on creation (before the first epoch).
        assert!(stats.parks >= 3);

        // Inline single-thread pools still count their runs as epochs.
        let mut serial = WorkerPool::new(1);
        serial.run(&|_| {});
        let stats = serial.stats();
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.wakes, 0);
    }

    #[test]
    fn chunk_range_covers_rows_without_overlap() {
        for &(rows, chunks) in &[(10usize, 3usize), (4096, 8), (5, 8), (0, 4), (1, 1)] {
            let mut covered = 0;
            for c in 0..chunks {
                let r = chunk_range(rows, chunks, c);
                assert_eq!(r.start, covered.min(rows).min(r.start));
                assert!(r.start <= r.end && r.end <= rows);
                if c > 0 {
                    assert!(r.start >= chunk_range(rows, chunks, c - 1).end);
                }
                covered += r.len();
            }
            assert_eq!(covered, rows, "rows {rows}, chunks {chunks}");
        }
    }
}
