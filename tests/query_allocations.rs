//! Allocation accounting for the IoTSSP query hot path.
//!
//! Two stacked claims are pinned with a counting global allocator:
//!
//! * The `TypeId` redesign: answering a query allocates no strings —
//!   a [`ServiceResponse`] is a `Copy` value (interned id + isolation
//!   class), and names are resolved by *borrowing* from the
//!   [`TypeRegistry`]. Response assembly performs **zero** heap
//!   allocations.
//! * The compiled classifier bank: `identify` runs stage one against
//!   a flat node arena through a per-thread `CandidateScratch`, so a
//!   warm single-candidate (or unknown) query performs **zero** heap
//!   allocations end to end — F′ conversion, candidate collection,
//!   vote counting, identification result and response included.
//! * The feature-usage index: trained banks now route stage one
//!   through the prefilter (query bitmap + cached default verdicts),
//!   and that must not cost an allocation either — the zero-allocation
//!   pins above now hold *for the indexed scan*.
//! * The compute pool: parallel paths no longer spawn scoped threads
//!   per call — sharded scans and batch fan-out run on persistent
//!   pinned workers, so a warm pooled call is **zero heap
//!   allocations** AND **zero thread spawns** (pinned by the
//!   workspace-wide spawn ledger), and the pool's own accounting
//!   reconciles: every task submitted was executed.
//! * Stage two: discrimination runs the bit-parallel edit distance
//!   with its match masks on the stack, and `handle` answers from a
//!   score-free `Verdict`, so a warm query that reaches stage two is
//!   allocation-free too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use iot_sentinel::core::{
    CandidateScratch, IsolationClass, Severity, ShardedScratch, VulnerabilityRecord,
};
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::ml::ShardScratch;
use iot_sentinel::pool::{thread_spawns, ComputePool};
use iot_sentinel::{Sentinel, SentinelBuilder};

/// The allocation counter is process-global, so concurrently running
/// tests would pollute each other's measured windows. Every test in
/// this binary holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations performed while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

fn fp_bits(bits: u32, tags: &[u32]) -> Fingerprint {
    Fingerprint::from_columns(
        tags.iter()
            .map(|t| {
                let mut v = [0u32; 23];
                for (b, slot) in v.iter_mut().enumerate().take(12) {
                    *slot = (bits >> b) & 1;
                }
                v[18] = *t;
                PacketFeatures::from_raw(v)
            })
            .collect(),
    )
}

fn sentinel() -> Sentinel {
    let mut ds = Dataset::new();
    for i in 0..12u32 {
        ds.push(LabeledFingerprint::new(
            "CleanType",
            fp_bits(0b001, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "VulnType",
            fp_bits(0b010, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "OtherType",
            fp_bits(0b100, &[100 + i, 110, 120]),
        ));
    }
    SentinelBuilder::new()
        .dataset(ds)
        .training_seed(4)
        .vulnerability(
            "VulnType",
            VulnerabilityRecord::new("CVE-A", "demo", Severity::High),
        )
        .build()
        .unwrap()
}

/// The probes every test below agrees on: two clean single-candidate
/// matches and one unknown device. None of them needs discrimination,
/// so all three sit on the allocation-free fast path.
const PROBE_BITS: [u32; 3] = [0b001, 0b010, 0b1000];

#[test]
fn response_assembly_is_allocation_free() {
    let _serial = serial();
    let s = sentinel();
    let service = s.service();
    for (bits, expected) in [
        (0b001u32, IsolationClass::Trusted),
        (0b010, IsolationClass::Restricted),
        (0b1000, IsolationClass::Strict),
    ] {
        let probe = fp_bits(bits, &[104, 110, 120]);
        // Identification runs outside the measured region; what is
        // measured is everything the redesign claims is free:
        // assessment, response construction, and name resolution.
        let (_, identification) = service.handle_detailed(&probe);
        let device_type = identification.device_type();
        let (allocs, response) = allocations_during(|| {
            let isolation = service.vulnerabilities().assess(device_type);
            let name: Option<&str> = service.registry().resolve(device_type);
            std::hint::black_box(name);
            iot_sentinel::core::ServiceResponse {
                device_type,
                isolation,
                needed_discrimination: identification.needed_discrimination(),
            }
        });
        assert_eq!(response.isolation, expected);
        assert_eq!(
            allocs, 0,
            "assembling a response for {expected:?} must not touch the heap"
        );
    }
}

#[test]
fn warm_identify_is_allocation_free() {
    let _serial = serial();
    // The compiled-bank claim in full: stage one runs against the flat
    // arena, candidates land in the per-thread scratch, and the
    // single-candidate / unknown outcomes own no heap data — so a warm
    // `identify` performs zero allocations.
    let s = sentinel();
    let identifier = s.identifier();
    for bits in PROBE_BITS {
        let probe = fp_bits(bits, &[104, 110, 120]);
        // Warm up the thread-local scratch (and any lazy state).
        std::hint::black_box(identifier.identify(&probe));

        let (identify_allocs, result) =
            allocations_during(|| std::hint::black_box(identifier.identify(&probe)));
        assert!(
            !result.needed_discrimination(),
            "probe {bits:#b} must sit on the single-candidate fast path"
        );
        assert_eq!(
            identify_allocs, 0,
            "warm identify (bits {bits:#b}) must not touch the heap"
        );
    }
}

#[test]
fn classify_candidates_into_reuses_the_scratch() {
    let _serial = serial();
    let s = sentinel();
    let identifier = s.identifier();
    let prefix_len = identifier.config().fixed_prefix_len;
    let mut scratch = CandidateScratch::new();
    for bits in PROBE_BITS {
        let probe = fp_bits(bits, &[104, 110, 120]);
        let fixed = probe.to_fixed_with(prefix_len);
        // First call may grow the scratch buffers...
        identifier.classify_candidates_into(&fixed, &mut scratch);
        // ...after which classification is allocation-free.
        let (allocs, ()) =
            allocations_during(|| identifier.classify_candidates_into(&fixed, &mut scratch));
        assert_eq!(
            allocs, 0,
            "classify_candidates_into (bits {bits:#b}) must reuse the scratch"
        );
        assert_eq!(
            scratch.candidates(),
            identifier.classify_candidates(&fixed).as_slice(),
            "scratch and owned-Vec entry points must agree"
        );
        // And the caller-owned-scratch identify is equally free.
        std::hint::black_box(identifier.identify_with(&probe, &mut scratch));
        let (allocs, _) = allocations_during(|| {
            std::hint::black_box(identifier.identify_with(&probe, &mut scratch))
        });
        assert_eq!(allocs, 0, "warm identify_with (bits {bits:#b})");
    }
    // The conversion the scratch replaces is a real cost: computing F′
    // from scratch does allocate.
    let probe = fp_bits(0b001, &[104, 110, 120]);
    let (fresh_conversion_allocs, _) =
        allocations_during(|| std::hint::black_box(probe.to_fixed_with(prefix_len)));
    assert!(
        fresh_conversion_allocs > 0,
        "to_fixed_with without a scratch is expected to allocate"
    );
}

#[test]
fn warm_handle_is_allocation_free() {
    let _serial = serial();
    // End to end: the full service query (identify + assess + respond)
    // must be allocation-free once the per-thread scratch is warm.
    let s = sentinel();
    let service = s.service();
    for bits in PROBE_BITS {
        let probe = fp_bits(bits, &[104, 110, 120]);
        // Warm up any lazily initialised state.
        std::hint::black_box(service.handle(&probe));

        let (handle_allocs, _) =
            allocations_during(|| std::hint::black_box(service.handle(&probe)));
        assert_eq!(
            handle_allocs, 0,
            "a warm single-candidate handle (bits {bits:#b}) must not touch the heap"
        );
    }
}

#[test]
fn warm_multi_candidate_handle_is_allocation_free() {
    let _serial = serial();
    // Two types with identical training data both accept the twin
    // probe, so every query below runs stage two.
    let mut ds = Dataset::new();
    for i in 0..20u32 {
        for label in ["TwinOne", "TwinTwo"] {
            ds.push(LabeledFingerprint::new(
                label,
                fp_bits(0, &[100, 110, 120 + (i % 2)]),
            ));
        }
        for far in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                format!("Far{far}"),
                fp_bits(0, &[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
            ));
        }
    }
    let s = SentinelBuilder::new()
        .dataset(ds)
        .training_seed(3)
        .build()
        .unwrap();
    let service = s.service();
    let probe = fp_bits(0, &[100, 110, 120]);
    let (detailed, identification) = service.handle_detailed(&probe);
    assert!(
        identification.accepted_candidates() >= 2,
        "the twin probe must reach stage two"
    );
    // Warm up the thread-local scratch.
    std::hint::black_box(service.handle(&probe));

    let (allocs, response) = allocations_during(|| std::hint::black_box(service.handle(&probe)));
    assert_eq!(response, detailed, "handle and handle_detailed diverged");
    assert!(response.needed_discrimination);
    assert_eq!(
        allocs, 0,
        "a warm handle that runs stage two must not touch the heap"
    );
}

/// The 5-type dataset the sharded tests train on, so shard counts up
/// to 4 are not clamped away.
fn five_type_dataset() -> Dataset {
    let mut ds = Dataset::new();
    for (label, bits) in [
        ("TypeA", 0b00001u32),
        ("TypeB", 0b00010),
        ("TypeC", 0b00100),
        ("TypeD", 0b10000),
        ("TypeE", 0b100000),
    ] {
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                label,
                fp_bits(bits, &[100 + i, 110, 120]),
            ));
        }
    }
    ds
}

#[test]
fn pooled_sharded_scan_is_allocation_and_spawn_free() {
    let _serial = serial();
    // The sharded scan used to spawn scoped threads per call and was
    // allowed their fixed per-spawn bookkeeping. On the compute pool
    // the workers are persistent, so the pin tightens to zero: a warm
    // pooled scan at ANY shard count allocates nothing and spawns
    // nothing — the lanes live in the caller's scratch and the
    // tickets in the pool's reused deques.
    let s = SentinelBuilder::new()
        .dataset(five_type_dataset())
        .training_seed(4)
        .build()
        .unwrap();
    let identifier = s.identifier();
    let probe = fp_bits(0b001, &[104, 110, 120]);
    let expected = identifier.identify(&probe);
    let pool = ComputePool::new(3);
    let mut scratch = CandidateScratch::new();
    let mut lanes = ShardScratch::default();
    // Grow every lane buffer and the pool's queues at the widest
    // shard count before measuring.
    for _ in 0..4 {
        std::hint::black_box(identifier.verdict_sharded_on(
            &pool,
            &probe,
            4,
            &mut scratch,
            &mut lanes,
        ));
    }

    let spawns_before = thread_spawns();
    for shards in [1usize, 2, 3, 4] {
        identifier.verdict_sharded_on(&pool, &probe, shards, &mut scratch, &mut lanes);
        let (allocs, result) = allocations_during(|| {
            std::hint::black_box(identifier.verdict_sharded_on(
                &pool,
                &probe,
                shards,
                &mut scratch,
                &mut lanes,
            ))
        });
        assert_eq!(
            result.device_type,
            expected.device_type(),
            "{shards}-shard identification diverged from the sequential result"
        );
        assert_eq!(
            allocs, 0,
            "a warm {shards}-shard pooled scan must not touch the heap"
        );
    }
    assert_eq!(
        thread_spawns(),
        spawns_before,
        "pooled scans must not spawn threads"
    );
    let counters = pool.counters();
    assert_eq!(
        counters.submitted, counters.executed,
        "every task handed to the pool must have run"
    );
    assert!(
        counters.submitted > 0,
        "multi-shard scans must actually have used the pool"
    );
}

#[test]
fn small_bank_auto_sharding_is_inline_and_allocation_free() {
    let _serial = serial();
    // The auto-router sends banks below the sharding threshold through
    // the plain inline scan: same results, zero allocations, zero
    // spawns, and no pool traffic at all.
    let s = SentinelBuilder::new()
        .dataset(five_type_dataset())
        .training_seed(4)
        .build()
        .unwrap();
    let identifier = s.identifier();
    let prefix_len = identifier.config().fixed_prefix_len;
    let probe = fp_bits(0b001, &[104, 110, 120]).to_fixed_with(prefix_len);
    let expected = identifier.classify_candidates(&probe);
    let mut scratch = ShardedScratch::new();
    for _ in 0..2 {
        identifier.classify_candidates_sharded_into(&probe, 4, &mut scratch);
    }
    let spawns_before = thread_spawns();
    for shards in [1usize, 2, 3, 4] {
        let (allocs, ()) = allocations_during(|| {
            identifier.classify_candidates_sharded_into(&probe, shards, &mut scratch)
        });
        assert_eq!(scratch.candidates(), expected.as_slice());
        assert_eq!(
            allocs, 0,
            "a warm auto-routed {shards}-shard scan must not touch the heap"
        );
    }
    assert_eq!(
        thread_spawns(),
        spawns_before,
        "small banks must scan inline without spawning"
    );
}

#[test]
fn warm_pooled_batch_is_allocation_and_spawn_free() {
    let _serial = serial();
    // handle_batch's parallel arm fans chunks out on the pool; with
    // the response buffer caller-owned (`handle_batch_into`), a warm
    // batch is zero allocations and zero spawns end to end.
    let s = sentinel();
    let service = s.service();
    let pool = ComputePool::new(2);
    let probes: Vec<Fingerprint> = (0..iot_sentinel::core::BATCH_CHUNK * 2 + 5)
        .map(|i| {
            let bits = PROBE_BITS[i % PROBE_BITS.len()];
            fp_bits(bits, &[104, 110, 120])
        })
        .collect();
    let sequential = service.handle_batch_with(&probes, 1);
    let mut out = Vec::new();
    // Chunk→worker placement is racy, so a cold worker could warm its
    // thread-local query scratch inside the measured window. Warm
    // every executor deterministically instead: threads+1 barrier
    // tasks force the caller and both workers to run exactly one task
    // each (an executor blocked in the barrier cannot take a second),
    // and each task warms its own thread's scratch.
    let barrier = std::sync::Barrier::new(3);
    pool.for_each(3, |_| {
        barrier.wait();
        for bits in PROBE_BITS {
            std::hint::black_box(service.handle(&fp_bits(bits, &[104, 110, 120])));
        }
    })
    .unwrap();
    // Then warm the caller-side lane and output buffers.
    for _ in 0..2 {
        service.handle_batch_into(&pool, &probes, &mut out);
    }
    let spawns_before = thread_spawns();
    let (allocs, ()) = allocations_during(|| service.handle_batch_into(&pool, &probes, &mut out));
    assert_eq!(allocs, 0, "a warm pooled batch must not touch the heap");
    assert_eq!(
        thread_spawns(),
        spawns_before,
        "pooled batches must not spawn threads"
    );
    assert_eq!(out, sequential, "pooled batch responses diverged");
    let counters = pool.counters();
    assert_eq!(
        counters.submitted, counters.executed,
        "every task handed to the pool must have run"
    );
}

#[test]
fn scan_instrumentation_counts_without_allocating() {
    let _serial = serial();
    // The compiled bank now keeps live scan counters (queries seen,
    // prefilter consultations, forests skipped). They are plain
    // relaxed atomics bumped at query granularity, so the warm handle
    // path must stay allocation-free with them recording — and they
    // must actually advance inside the measured window.
    let s = sentinel();
    let service = s.service();
    let probe = fp_bits(0b001, &[104, 110, 120]);
    std::hint::black_box(service.handle(&probe));

    let before = service.bank_stats().scan;
    let (allocs, _) = allocations_during(|| {
        for _ in 0..32 {
            std::hint::black_box(service.handle(&probe));
        }
    });
    let after = service.bank_stats().scan;
    assert_eq!(
        allocs, 0,
        "warm handle with scan counters live must not touch the heap"
    );
    assert_eq!(
        after.queries - before.queries,
        32,
        "every warm handle must count exactly one scan query"
    );
    assert!(
        after.prefiltered >= before.prefiltered,
        "prefilter consultations must never regress"
    );
}

#[test]
fn interpreted_bank_no_longer_allocates_vote_vectors() {
    let _serial = serial();
    // The reference interpreter also stopped paying `predict_proba`'s
    // per-classifier vote vector: scanning the bank through
    // `classify_candidates_interpreted` allocates only the returned
    // candidate Vec (at most one allocation per non-empty result).
    let s = sentinel();
    let identifier = s.identifier();
    let prefix_len = identifier.config().fixed_prefix_len;
    for bits in PROBE_BITS {
        let fixed = fp_bits(bits, &[104, 110, 120]).to_fixed_with(prefix_len);
        let (allocs, candidates) =
            allocations_during(|| identifier.classify_candidates_interpreted(&fixed));
        let budget = u64::from(!candidates.is_empty());
        assert!(
            allocs <= budget,
            "interpreted scan (bits {bits:#b}) allocated {allocs} times for \
             {} candidates — the vote vectors are supposed to be gone",
            candidates.len()
        );
    }
}
