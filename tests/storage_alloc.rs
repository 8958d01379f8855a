//! Allocation regression test for the write path: installing, logging,
//! shipping and applying a committed write allocates nothing per write, and
//! populating a replica allocates nothing per row.
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

    let ((), writes) = allocations(|| {
        for i in 0..WRITES {
            let key = i.wrapping_mul(7_919) % KEYS;
            let txn = TxnId(i + 1);
            assert!(primary.table.occ_lock(key, txn).is_ok());
            let value = || Table::synth_value(key, txn.0, 64);
            let version = primary.table.occ_install(key, txn, value());
            primary.log.append(p, key, version, value());
            if (i + 1) % EPOCH == 0 {
                let shipped = primary.log.take_pending();
                secondary.apply_entries(&shipped);
            }
        }
    });
    // One buffer per epoch: the log's first push after each drain.
    assert!(
        writes < 100,
        "{WRITES} writes in {} epochs made {writes} allocations",
        WRITES / EPOCH
    );

    assert_eq!(secondary.applied_lsn, primary.log.head_lsn());
    for key in 0..KEYS {
        assert_eq!(secondary.table.get(key), primary.table.get(key));
    }
}
