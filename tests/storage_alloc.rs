//! Allocation regression tests for the hot path:
//!
//! * the write path: installing, logging, shipping and applying a committed
//!   write allocates nothing per write, an epoch after the first allocates
//!   nothing at all, populating a replica allocates nothing per row, and
//!   copying one (replica add) allocates its two row vectors and no key
//!   index;
//! * the engine: once warm, a commit allocates only its request and its
//!   history record — contexts are built in recycled buffers;
//! * the future-event list: a warm calendar queue schedules and pops
//!   without allocating, because a drained bucket keeps a buffer.
//!
//! A counting global allocator tallies fresh allocations (`alloc` and
//! `alloc_zeroed`; a `realloc` grows a block that already exists) on the
//! calling thread only, so other test threads cannot disturb the count.

use lion::common::{PartitionId, TxnId};
use lion::prelude::{Engine, Lion, SimConfig, YcsbConfig, YcsbWorkload, SECOND};
use lion::sim::CalendarQueue;
use lion::storage::{ReplicaStore, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. Counting touches only a
// thread-local `Cell` with a `const` initialiser and no destructor, which
// never allocates and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn the_write_path_allocates_nothing_per_write() {
    const KEYS: u64 = 4_000;
    const WRITES: u64 = 10_000;
    const EPOCH: u64 = 500;
    const SPARSE: u64 = 1_000;
    let p = PartitionId(0);

    let (mut primary, populate) = allocations(|| ReplicaStore::new_primary(p, KEYS, 64));
    assert!(
        populate <= 4,
        "populating {KEYS} rows made {populate} allocations; expected O(1), not one per row"
    );
    // Sparse rows (TPC-C-style inserts past the dense range) put entries in
    // the partition's key index, which a copy shares rather than rebuilds.
    for i in 0..SPARSE {
        let (key, txn) = ((1 << 40) | i, TxnId(i + 1));
        assert!(primary.table.occ_lock(key, txn).is_ok());
        primary
            .table
            .occ_install(key, txn, Table::synth_value(key, 1, 64));
    }
    let (mut secondary, copy) = allocations(|| ReplicaStore::from_snapshot(p, &primary));
    assert!(
        copy <= 2,
        "copying {} rows made {copy} allocations; expected its dense and sparse \
         row vectors and no key index",
        KEYS + SPARSE
    );
    assert_eq!(secondary.table.len(), primary.table.len());

    // One epoch of writes: install and log each, then ship the epoch the
    // way the cluster's flush does and hand its buffer back to the log.
    let mut epoch = |first: u64| {
        for i in first..first + EPOCH {
            let key = i.wrapping_mul(7_919) % KEYS;
            let txn = TxnId(i + 1);
            assert!(primary.table.occ_lock(key, txn).is_ok());
            let value = || Table::synth_value(key, txn.0, 64);
            let version = primary.table.occ_install(key, txn, value());
            primary.log.append(p, key, version, value());
        }
        let shipped = primary.log.take_pending();
        secondary.apply_entries(&shipped);
        primary.log.recycle(shipped);
    };
    let ((), first) = allocations(|| epoch(0));
    assert!(
        first <= 1,
        "the first epoch made {first} allocations; expected its log buffer at most"
    );
    let ((), rest) = allocations(|| {
        for e in 1..WRITES / EPOCH {
            epoch(e * EPOCH);
        }
    });
    assert_eq!(
        rest,
        0,
        "{} writes in {} later epochs allocated; the log buffer must be reused",
        WRITES - EPOCH,
        WRITES / EPOCH - 1
    );

    assert_eq!(secondary.applied_lsn, primary.log.head_lsn());
    for key in 0..KEYS {
        assert_eq!(secondary.table.get(key), primary.table.get(key));
    }
}

#[test]
fn a_warm_engine_allocates_only_the_request_and_its_record_per_commit() {
    let sim = SimConfig {
        nodes: 2,
        partitions_per_node: 2,
        keys_per_partition: 512,
        clients_per_node: 4,
        ..SimConfig::default()
    };
    // Allocations and commits of one run to `horizon`, from a fresh engine.
    let run = |horizon| {
        let wl = YcsbWorkload::new(YcsbConfig::for_cluster(2, 2, 512).with_mix(0.5, 0.7));
        let mut eng = Engine::new(sim.clone(), Box::new(wl));
        let mut lion = Lion::standard();
        let (report, allocs) = allocations(|| eng.run(&mut lion, horizon));
        (allocs, report.commits)
    };
    // The difference of two runs is the steady state: set-up and warm-up
    // cancel out. Besides its commits, the longer run's extra time holds
    // epoch ticks, and each tick's flush returns one frontier list.
    let (short, long) = (SECOND / 10, SECOND / 5);
    let (a1, c1) = run(short);
    let (a2, c2) = run(long);
    assert!(c2 > c1 + 1_000, "too few commits to measure: {c1} -> {c2}");
    let ticks = (long - short) / sim.epoch_us;
    let per_commit = (a2 - a1).saturating_sub(ticks) as f64 / (c2 - c1) as f64;
    assert!(
        per_commit <= 2.0,
        "{per_commit:.3} allocations per commit; expected the request and its \
         history record at most"
    );
}

#[test]
fn a_warm_calendar_queue_schedules_and_pops_without_allocating() {
    const POPULATION: u64 = 200;
    const EVENTS: u64 = 100_000;
    // A steady population: every pop schedules one event up to 1 ms out.
    let mut q = CalendarQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % 1_000
    };
    for i in 0..POPULATION {
        q.schedule(delay(), i);
    }
    let mut churn = |q: &mut CalendarQueue<u64>| {
        for _ in 0..EVENTS {
            let (_, e) = q.pop().expect("steady population");
            q.schedule(delay(), e);
        }
    };
    churn(&mut q);
    let ((), allocs) = allocations(|| churn(&mut q));
    assert_eq!(
        allocs, 0,
        "{EVENTS} events through a warm queue allocated; drained buckets must keep a buffer"
    );
    assert_eq!(q.len() as u64, POPULATION);
}
