//! Allocation regression test for the write path: installing, logging,
//! shipping and applying a committed write allocates nothing per write, an
//! epoch after the first allocates nothing at all, and populating a replica
//! allocates nothing per row.
//!
//! A counting global allocator tallies fresh allocations (`alloc` and
//! `alloc_zeroed`; a `realloc` grows a block that already exists) on the
//! calling thread only, so other test threads cannot disturb the count.

use lion::common::{PartitionId, TxnId};
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
    let p = PartitionId(0);

    let (mut primary, populate) = allocations(|| ReplicaStore::new_primary(p, KEYS, 64));
    assert!(
        populate <= 4,
        "populating {KEYS} rows made {populate} allocations; expected O(1), not one per row"
    );
    let mut secondary = ReplicaStore::from_snapshot(p, &primary);

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
