//! Persistent work-stealing compute pool for the IoT SENTINEL service.
//!
//! Every parallel path in the workspace — batch chunking in
//! `sentinel-core`, sharded span scans in `sentinel-ml`, background
//! recompiles behind hot reload — used to spawn scoped threads per
//! call, and those scopes *nested* when a batch fanned out over a
//! sharded bank (threads × threads). This crate replaces all of that
//! with one pool of pinned worker threads created once and reused for
//! the life of the service:
//!
//! * **Per-worker deques + a global injector.** Each worker owns a
//!   deque it pushes/pops at the back (LIFO, so nested jobs run
//!   depth-first with hot caches) while idle workers steal from the
//!   front of other deques (FIFO, so the oldest — typically outermost
//!   and largest — jobs migrate first). External threads submit
//!   through a shared injector queue. This is the Chase–Lev schedule
//!   with the deques guarded by uncontended mutexes instead of the
//!   epoch-reclamation machinery the lock-free variant needs; tasks
//!   here are coarse (span ranges, batch chunks), so the lock is noise.
//! * **Fork-join over borrowed data.** [`ComputePool::for_each`] is a
//!   scoped `join`: the job descriptor lives on the caller's stack,
//!   workers are handed copyable *tickets* pointing at it, and the call
//!   does not return until every task ran and every ticket has been
//!   retired — so closures may freely borrow `&CompiledBank`, scratch
//!   buffers, or anything else from the caller's frame.
//! * **No oversubscription under nesting.** A task already running on a
//!   pool worker executes sub-jobs by pushing tickets onto its own
//!   deque and draining the task cursor itself; it never blocks waiting
//!   for threads that do not exist and never spawns. Total live
//!   compute threads are exactly the pool size, forever.
//! * **Panic containment.** Each task runs under `catch_unwind`; the
//!   first panic message is captured and surfaced as a typed
//!   [`TaskPanic`] from the submitting call. Remaining tasks still
//!   execute, so the executed-equals-submitted counter reconciliation
//!   holds even on the failure path, and the pool itself is never
//!   poisoned.
//! * **Warm calls are zero-allocation and zero-spawn.** Job state is
//!   stack-allocated, tickets are `Copy`, the queues reuse their grown
//!   capacity, and `Mutex`/`Condvar` are futex-backed on Linux. The
//!   [`thread_spawns`] counter (bumped here per worker created, and by
//!   the `crossbeam` compat shim per scoped spawn) lets tests pin the
//!   zero-spawn property exactly.
//!
//! # Safety
//!
//! This crate contains the workspace's only `unsafe` code, confined to
//! one idea: a [`Ticket`] carries a lifetime-erased pointer to the
//! stack-allocated [`JobCore`] of a submitting call. The pointer is
//! guaranteed valid for as long as any ticket exists because the
//! submitting call never returns before `done == tasks` **and**
//! `outstanding == 0` — i.e. every queued ticket has been either
//! consumed by a worker or purged from the queues by the caller, and
//! every in-flight ticket has been retired. Workers therefore never
//! observe a dangling job pointer.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the global pool's worker count.
pub const POOL_THREADS_ENV: &str = "SENTINEL_POOL_THREADS";

/// Locks a mutex, recovering the guard if a panicking task poisoned it.
///
/// Pool state stays consistent across task panics by construction
/// (every critical section only moves plain counters and queue entries),
/// so poisoning carries no information here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Spawn accounting
// ---------------------------------------------------------------------------

static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Records one OS thread creation. Called by the pool for its own
/// workers and by the `crossbeam` compat shim for every scoped spawn,
/// so allocation-style tests can assert warm paths spawn nothing.
pub fn note_thread_spawn() {
    THREAD_SPAWNS.fetch_add(1, Ordering::Relaxed);
}

/// Total OS threads spawned through instrumented paths since process
/// start. Monotone; diff across a region to count spawns inside it.
pub fn thread_spawns() -> u64 {
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A task submitted to the pool panicked.
///
/// The panic was contained on the worker (or caller) that ran the task:
/// sibling tasks in the same job still executed, the pool remains fully
/// usable, and the first panic's message is carried here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    message: String,
}

impl TaskPanic {
    fn new(message: String) -> Self {
        Self { message }
    }

    /// The first panicking task's payload, rendered as text.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Monotone event counters for one pool, snapshot via
/// [`ComputePool::counters`]. Mirrored into the observability registry
/// by the serve layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Tasks handed to the pool (`for_each` task indices plus `run` calls).
    pub submitted: u64,
    /// Tasks that finished executing (panicked tasks included).
    pub executed: u64,
    /// Tickets taken from another worker's deque.
    pub steals: u64,
    /// Tickets pushed by threads outside the pool into the injector.
    pub injector_pushes: u64,
    /// Times a worker parked because no work was queued.
    pub parks: u64,
    /// Times a parked worker was woken.
    pub unparks: u64,
}

#[derive(Default)]
struct CounterCells {
    submitted: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    injector_pushes: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

// ---------------------------------------------------------------------------
// Job protocol
// ---------------------------------------------------------------------------

/// Stack-allocated descriptor for one fork-join submission.
///
/// `run` is the caller's closure with its borrow lifetime erased; see
/// the crate-level safety section for why the erasure is sound. The
/// `cursor` dispenses task indices to whichever threads hold tickets,
/// which is what makes the schedule work-stealing at task granularity:
/// a slow worker simply claims fewer indices.
struct JobCore {
    run: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    cursor: AtomicUsize,
    state: Mutex<JobState>,
    complete: Condvar,
}

struct JobState {
    /// Tasks whose closure invocation has returned (or panicked).
    done: usize,
    /// Tickets pushed for this job and not yet consumed, purged, or retired.
    outstanding: usize,
    /// First contained panic, if any task panicked.
    panic: Option<String>,
}

/// A copyable invitation for one thread to help drain a job's cursor.
///
/// Holding a ticket grants shared access to the referenced [`JobCore`];
/// validity is guaranteed by the submission protocol (the core outlives
/// all tickets by construction), never by lifetimes.
#[derive(Clone, Copy)]
struct Ticket {
    job: *const JobCore,
}

// SAFETY: a ticket is a plain pointer plus the protocol invariant that
// the pointee outlives it (enforced by `execute_job`, which never
// returns while `outstanding > 0`). `JobCore` itself is Sync: every
// field is either immutable, atomic, or mutex-guarded, and `run` is a
// `Sync` closure.
unsafe impl Send for Ticket {}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

struct Sleep {
    shutdown: bool,
}

struct Shared {
    /// Process-unique id so nested submissions can tell whether the
    /// current thread is a worker of *this* pool.
    pool_id: usize,
    threads: usize,
    injector: Mutex<VecDeque<Ticket>>,
    deques: Vec<Mutex<VecDeque<Ticket>>>,
    /// Queued-ticket count; the parking fast path re-checks it under
    /// `sleep` so a push can never slip between check and wait.
    pending: AtomicUsize,
    sleep: Mutex<Sleep>,
    wake: Condvar,
    counters: CounterCells,
}

thread_local! {
    /// `(pool_id, worker_index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// A fixed-size pool of pinned worker threads executing fork-join jobs
/// over borrowed data. See the crate docs for the full design.
pub struct ComputePool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("threads", &self.shared.threads)
            .finish_non_exhaustive()
    }
}

impl ComputePool {
    /// Creates a pool with `threads` pinned workers (clamped to at
    /// least 1). Workers are created once, here, and live until the
    /// pool is dropped; no call on the pool ever spawns again.
    ///
    /// Returns only once every worker thread is running its loop, so
    /// the runtime's own thread start-up (naming the thread, setting up
    /// its thread-locals) never overlaps the caller's first jobs — a
    /// zero-allocation window measured right after construction sees
    /// the pool's steady state.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            threads,
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(Sleep { shutdown: false }),
            wake: Condvar::new(),
            counters: CounterCells::default(),
        });
        let started = Arc::new(Barrier::new(threads + 1));
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let started = Arc::clone(&started);
                note_thread_spawn();
                std::thread::Builder::new()
                    .name(format!("sentinel-pool-{index}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((shared.pool_id, index))));
                        started.wait();
                        drop(started);
                        worker_loop(shared, index)
                    })
                    .expect("spawning pool worker")
            })
            .collect();
        started.wait();
        Self { shared, handles }
    }

    /// Number of worker threads (fixed at construction).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Snapshot of the pool's monotone event counters.
    pub fn counters(&self) -> PoolCounters {
        let c = &self.shared.counters;
        PoolCounters {
            submitted: c.submitted.load(Ordering::Relaxed),
            executed: c.executed.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            injector_pushes: c.injector_pushes.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
        }
    }

    /// Whether the current thread is one of this pool's workers.
    pub fn on_worker(&self) -> bool {
        self.current_worker().is_some()
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool and returns
    /// once all of them finished. The caller participates: it claims
    /// task indices alongside the workers, so a single-task job (or a
    /// call from a pool already saturated elsewhere) degenerates to an
    /// inline loop with no queue traffic beyond the initial tickets.
    ///
    /// Nested use is the designed case: when called from a task already
    /// running on one of this pool's workers, helper tickets go onto
    /// that worker's own deque for siblings to steal — never a new
    /// thread — so fan-out depth never multiplies thread count.
    ///
    /// Any task panic is contained and reported as [`TaskPanic`];
    /// sibling tasks still run.
    pub fn for_each<F>(&self, tasks: usize, f: F) -> Result<(), TaskPanic>
    where
        F: Fn(usize) + Sync,
    {
        let run: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erases the borrow lifetime of `run` for storage in the
        // JobCore. `execute_job` does not return until no ticket (and so
        // no worker) can reach the job any more, and `f` lives on this
        // frame until after that return.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        self.execute_job(tasks, run, true)
    }

    /// Executes `f` on a pool worker and returns its result, parking
    /// the calling thread until done. This is the hand-off used by I/O
    /// threads (serve connections, reload handling) that must not do
    /// compute themselves. Called from a thread that *is* a worker of
    /// this pool, it runs inline instead — blocking a worker on its own
    /// pool would deadlock a size-1 pool.
    pub fn run<R, F>(&self, f: F) -> Result<R, TaskPanic>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.on_worker() {
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .executed
                .fetch_add(1, Ordering::Relaxed);
            return catch_unwind(AssertUnwindSafe(f))
                .map_err(|payload| TaskPanic::new(panic_message(payload)));
        }
        let func = Mutex::new(Some(f));
        let result = Mutex::new(None);
        let call = |_task: usize| {
            let f = lock(&func).take().expect("run task claimed twice");
            let value = f();
            *lock(&result) = Some(value);
        };
        let run: &(dyn Fn(usize) + Sync) = &call;
        // SAFETY: same protocol as `for_each` — the job completes before
        // this frame (holding `func`/`result`/`call`) unwinds.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        self.execute_job(1, run, false)?;
        let value = lock(&result)
            .take()
            .expect("run task completed without result");
        Ok(value)
    }

    fn current_worker(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((pool, index)) if pool == self.shared.pool_id => Some(index),
            _ => None,
        })
    }

    /// Core submission protocol. With `participate` the caller drains
    /// the cursor itself and then purges its leftover tickets; without
    /// it (the `run` hand-off) exactly the queued tickets execute the
    /// work. Either way this returns only once `done == tasks` and
    /// `outstanding == 0`, which is the invariant the `unsafe` lifetime
    /// erasure rests on.
    fn execute_job(
        &self,
        tasks: usize,
        run: &'static (dyn Fn(usize) + Sync),
        participate: bool,
    ) -> Result<(), TaskPanic> {
        let shared = &*self.shared;
        if tasks == 0 {
            return Ok(());
        }
        shared
            .counters
            .submitted
            .fetch_add(tasks as u64, Ordering::Relaxed);
        if participate && tasks == 1 {
            // Pure inline fast path: no tickets, no wakeups, no waiting.
            let job = JobCore {
                run,
                tasks: 1,
                cursor: AtomicUsize::new(1),
                state: Mutex::new(JobState {
                    done: 0,
                    outstanding: 0,
                    panic: None,
                }),
                complete: Condvar::new(),
            };
            execute_task(shared, &job, 0);
            let mut state = lock(&job.state);
            return match state.panic.take() {
                Some(message) => Err(TaskPanic::new(message)),
                None => Ok(()),
            };
        }

        let job = JobCore {
            run,
            tasks,
            cursor: AtomicUsize::new(0),
            state: Mutex::new(JobState {
                done: 0,
                outstanding: 0,
                panic: None,
            }),
            complete: Condvar::new(),
        };
        let tickets = if participate {
            shared.threads.min(tasks - 1)
        } else {
            shared.threads.min(tasks)
        };
        lock(&job.state).outstanding = tickets;
        self.push_tickets(Ticket { job: &job }, tickets);

        if participate {
            loop {
                let index = job.cursor.fetch_add(1, Ordering::Relaxed);
                if index >= tasks {
                    break;
                }
                execute_task(shared, &job, index);
            }
            // Every task index is claimed; tickets still sitting in a
            // queue are pure bookkeeping now. Remove them ourselves so
            // completion never waits on a parked or busy worker.
            self.purge_tickets(&job);
        }

        let mut state = lock(&job.state);
        while state.done < tasks || state.outstanding > 0 {
            state = job
                .complete
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        match state.panic.take() {
            Some(message) => Err(TaskPanic::new(message)),
            None => Ok(()),
        }
    }

    fn push_tickets(&self, ticket: Ticket, count: usize) {
        if count == 0 {
            return;
        }
        let shared = &*self.shared;
        // `pending` rises before the tickets become visible so a worker
        // that races past an empty queue still refuses to park.
        shared.pending.fetch_add(count, Ordering::SeqCst);
        match self.current_worker() {
            Some(index) => {
                let mut deque = lock(&shared.deques[index]);
                for _ in 0..count {
                    deque.push_back(ticket);
                }
            }
            None => {
                shared
                    .counters
                    .injector_pushes
                    .fetch_add(count as u64, Ordering::Relaxed);
                let mut injector = lock(&shared.injector);
                for _ in 0..count {
                    injector.push_back(ticket);
                }
            }
        }
        let _guard = lock(&shared.sleep);
        shared.wake.notify_all();
    }

    /// Removes every queued ticket for `job` (identified by pointer)
    /// from the injector and all deques. Only sound once the job's
    /// cursor is exhausted — a purged ticket must represent no
    /// remaining work.
    fn purge_tickets(&self, job: &JobCore) {
        let shared = &*self.shared;
        let target: *const JobCore = job;
        let mut removed = 0usize;
        {
            let mut injector = lock(&shared.injector);
            let before = injector.len();
            injector.retain(|ticket| !std::ptr::eq(ticket.job, target));
            removed += before - injector.len();
        }
        for deque in &shared.deques {
            let mut deque = lock(deque);
            let before = deque.len();
            deque.retain(|ticket| !std::ptr::eq(ticket.job, target));
            removed += before - deque.len();
        }
        if removed > 0 {
            shared.pending.fetch_sub(removed, Ordering::SeqCst);
            let mut state = lock(&job.state);
            state.outstanding -= removed;
            if state.outstanding == 0 {
                job.complete.notify_all();
            }
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let mut sleep = lock(&self.shared.sleep);
            sleep.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one task index under panic containment and records completion.
fn execute_task(shared: &Shared, job: &JobCore, index: usize) {
    let outcome = catch_unwind(AssertUnwindSafe(|| (job.run)(index)));
    shared.counters.executed.fetch_add(1, Ordering::Relaxed);
    let mut state = lock(&job.state);
    if let Err(payload) = outcome {
        if state.panic.is_none() {
            state.panic = Some(panic_message(payload));
        }
    }
    state.done += 1;
    if state.done == job.tasks {
        job.complete.notify_all();
    }
}

/// Drains the job behind `ticket` until its cursor is exhausted, then
/// retires the ticket.
fn work_ticket(shared: &Shared, ticket: Ticket) {
    // SAFETY: the submission protocol keeps the JobCore alive while any
    // ticket for it exists (see crate docs).
    let job = unsafe { &*ticket.job };
    loop {
        let index = job.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= job.tasks {
            break;
        }
        execute_task(shared, job, index);
    }
    let mut state = lock(&job.state);
    state.outstanding -= 1;
    if state.outstanding == 0 {
        job.complete.notify_all();
    }
}

/// Pops the next ticket for worker `index`: own deque back first
/// (LIFO), then the injector, then steals from sibling deques (FIFO).
fn find_ticket(shared: &Shared, index: usize) -> Option<Ticket> {
    if let Some(ticket) = lock(&shared.deques[index]).pop_back() {
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        return Some(ticket);
    }
    if let Some(ticket) = lock(&shared.injector).pop_front() {
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        return Some(ticket);
    }
    for offset in 1..shared.threads {
        let victim = (index + offset) % shared.threads;
        if let Some(ticket) = lock(&shared.deques[victim]).pop_front() {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(ticket);
        }
    }
    None
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    loop {
        if let Some(ticket) = find_ticket(&shared, index) {
            work_ticket(&shared, ticket);
            continue;
        }
        let mut sleep = lock(&shared.sleep);
        if sleep.shutdown {
            return;
        }
        if shared.pending.load(Ordering::SeqCst) > 0 {
            // A push slipped in after our queue sweep; retry instead of
            // parking past live work.
            continue;
        }
        shared.counters.parks.fetch_add(1, Ordering::Relaxed);
        sleep = shared
            .wake
            .wait(sleep)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        shared.counters.unparks.fetch_add(1, Ordering::Relaxed);
        if sleep.shutdown {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

/// Worker count for the global pool: `SENTINEL_POOL_THREADS` when set
/// to a positive integer, otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(POOL_THREADS_ENV) {
        if let Ok(parsed) = raw.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Arc<ComputePool>> = OnceLock::new();

/// The process-wide pool, created on first use and sized by
/// [`default_threads`]. Service cells default to sharing it so a
/// process hosting several services still runs one set of compute
/// threads.
pub fn global() -> &'static Arc<ComputePool> {
    GLOBAL.get_or_init(|| Arc::new(ComputePool::new(default_threads())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// The spawn ledger and the process's thread list are global, so
    /// tests asserting on them would see the pools of concurrently
    /// running tests. Every test here holds this lock for its whole
    /// body.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock(&SERIAL)
    }

    #[test]
    fn for_each_runs_every_task_exactly_once() {
        let _serial = serial();
        let pool = ComputePool::new(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        pool.for_each(0, |_| panic!("must not run")).unwrap();
    }

    #[test]
    fn single_task_runs_inline_on_the_caller() {
        let _serial = serial();
        let pool = ComputePool::new(4);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.for_each(1, |_| {
            *lock(&ran_on) = Some(std::thread::current().id());
        })
        .unwrap();
        assert_eq!(lock(&ran_on).take(), Some(caller));
        // And it never touched the queues.
        assert_eq!(pool.counters().injector_pushes, 0);
    }

    #[test]
    fn size_one_pool_matches_sequential_results_bit_identically() {
        let _serial = serial();
        let pool = ComputePool::new(1);
        let pooled: Vec<Mutex<u64>> = (0..64).map(|_| Mutex::new(0)).collect();
        pool.for_each(64, |i| {
            *lock(&pooled[i]) = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        })
        .unwrap();
        let sequential: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let pooled: Vec<u64> = pooled.iter().map(|c| *lock(c)).collect();
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn borrowed_caller_data_is_visible_to_tasks() {
        let _serial = serial();
        let pool = ComputePool::new(3);
        let inputs: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        pool.for_each(inputs.len(), |i| {
            total.fetch_add(inputs[i], Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn panic_is_contained_typed_and_does_not_poison_the_pool() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let survivors = AtomicUsize::new(0);
        let err = pool
            .for_each(8, |i| {
                if i == 3 {
                    panic!("task {i} exploded");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert_eq!(err.message(), "task 3 exploded");
        // Sibling tasks still ran: containment, not abortion.
        assert_eq!(survivors.load(Ordering::SeqCst), 7);
        // The pool is fully usable afterwards.
        let after = AtomicUsize::new(0);
        pool.for_each(16, |_| {
            after.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(after.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn run_executes_remotely_for_external_callers() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let caller = std::thread::current().id();
        let (value, worker) = pool.run(|| (21 * 2, std::thread::current().id())).unwrap();
        assert_eq!(value, 42);
        assert_ne!(worker, caller, "run must hand off to a pool worker");
    }

    #[test]
    fn run_panic_is_typed() {
        let _serial = serial();
        let pool = ComputePool::new(1);
        let err = pool.run(|| -> u32 { panic!("boom in run") }).unwrap_err();
        assert_eq!(err.message(), "boom in run");
        assert_eq!(pool.run(|| 7).unwrap(), 7);
    }

    #[test]
    fn nested_for_each_reuses_the_same_workers() {
        let _serial = serial();
        let pool = ComputePool::new(3);
        let before = thread_spawns();
        let total = AtomicU64::new(0);
        pool.for_each(6, |outer| {
            pool.for_each(5, |inner| {
                total.fetch_add((outer * 10 + inner) as u64, Ordering::SeqCst);
            })
            .unwrap();
        })
        .unwrap();
        let expected: u64 = (0..6u64)
            .flat_map(|o| (0..5u64).map(move |i| o * 10 + i))
            .sum();
        assert_eq!(total.load(Ordering::SeqCst), expected);
        assert_eq!(thread_spawns() - before, 0, "nesting must never spawn");
    }

    #[test]
    fn deeply_nested_size_one_pool_makes_progress() {
        let _serial = serial();
        // The degenerate configuration that deadlocks naive designs:
        // one worker, external caller, three levels of nesting.
        let pool = ComputePool::new(1);
        let total = AtomicUsize::new(0);
        pool.for_each(3, |_| {
            pool.for_each(3, |_| {
                pool.for_each(3, |_| {
                    total.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            })
            .unwrap();
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 27);
    }

    #[test]
    fn executed_reconciles_with_submitted_even_after_panics() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let _ = pool.for_each(10, |i| {
            if i % 2 == 0 {
                panic!("even task");
            }
        });
        pool.for_each(5, |_| {}).unwrap();
        let _ = pool.run(|| ());
        let counters = pool.counters();
        assert_eq!(counters.submitted, 16);
        assert_eq!(counters.executed, 16);
    }

    #[test]
    fn drop_joins_all_workers() {
        let _serial = serial();
        // Live pool workers in this process, by thread name from
        // /proc (`None` where there is no /proc). Counting by name
        // leaves out the test harness's own threads, which come and go
        // while this test runs.
        let live = || -> Option<usize> {
            let tasks = std::fs::read_dir("/proc/self/task").ok()?;
            Some(
                tasks
                    .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                    .filter(|name| name.starts_with("sentinel-pool-"))
                    .count(),
            )
        };
        let before = live();
        {
            let pool = ComputePool::new(4);
            pool.for_each(8, |_| {}).unwrap();
            if let Some(before) = before {
                assert_eq!(live(), Some(before + 4));
            }
        }
        assert_eq!(live(), before, "drop must join every worker");
    }

    #[test]
    fn global_pool_is_shared_and_env_sized() {
        let _serial = serial();
        let a = Arc::as_ptr(global());
        let b = Arc::as_ptr(global());
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn parallelism_is_bounded_by_pool_size() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.for_each(32, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        })
        .unwrap();
        // Workers plus the participating caller.
        assert!(peak.load(Ordering::SeqCst) <= pool.threads() + 1);
    }
}
