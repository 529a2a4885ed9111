//! The scan and reduce level kernels keep their working state on the stack:
//! a counting global allocator checks that a tall block allocates no more
//! than a short one, so nothing is allocated per level.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spatial_model::{zorder, Machine, Tracked};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds the `GlobalAlloc` contract exactly as `System` does;
// the counter is a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's guarantee on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn leaves(m: &mut Machine, lo: u64, n: u64) -> Vec<Tracked<i64>> {
    (0..n).map(|i| m.place(zorder::coord_of(lo + i), i as i64 - 7)).collect()
}

/// A fold that allocates nothing itself.
fn op(a: &i64, b: &i64) -> i64 {
    a.wrapping_sub(b.wrapping_mul(2))
}

/// Allocations of one bare `scan_block` (inclusive and exclusive) and one
/// `reduce_block` over an aligned block of `n` cells.
fn kernel_allocations(n: u64) -> [u64; 3] {
    let mut m = Machine::new();
    let mut items = leaves(&mut m, n, n);
    let inclusive = allocations(|| m.scan_block(n, &mut items, None, op));
    let exclusive = allocations(|| m.scan_block(n, &mut items, Some(&3), op));
    let reduce = allocations(|| {
        m.reduce_block(items, n, op);
    });
    [inclusive, exclusive, reduce]
}

#[test]
fn scan_and_reduce_kernels_allocate_nothing_per_level() {
    let short = kernel_allocations(1 << 4);
    let tall = kernel_allocations(1 << 16);
    let kernels = ["scan", "scan_exclusive", "reduce"];
    for ((what, s), t) in kernels.into_iter().zip(short).zip(tall) {
        assert!(t <= s, "{what}: {t} allocations at 4^8 against {s} at 4^2");
    }
}
