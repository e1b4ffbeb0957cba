//! Peak live heap: the system allocator, counting the bytes it has handed
//! out and not yet taken back.
//!
//! Each thread keeps its running delta in a thread-local and publishes it
//! to the process-wide count once it passes [`FLUSH_BYTES`], so the count
//! costs no shared-memory traffic per allocation. The peak is therefore
//! exact to within `FLUSH_BYTES` per thread. A block freed on another
//! thread than the one that allocated it still balances once both
//! threads have published.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

const FLUSH_BYTES: isize = 1 << 20;

/// Live bytes published by all threads, and the highest value seen. They
/// publish no other data, so relaxed ordering suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // A const-initialized `Cell` needs no lazy allocation or destructor,
    // so the allocator may touch it.
    static DELTA: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // During thread teardown the thread-local may be gone: publish directly.
    let flush = DELTA
        .try_with(|d| {
            let v = d.get() + bytes;
            if v.abs() < FLUSH_BYTES {
                d.set(v);
                0
            } else {
                d.set(0);
                v
            }
        })
        .unwrap_or(bytes);
    if flush != 0 {
        let now = LIVE.fetch_add(flush, Relaxed) + flush;
        PEAK.fetch_max(now, Relaxed);
    }
}

/// Live heap in MiB, as far as other threads have published it plus this
/// thread's own count.
pub fn live_mib() -> f64 {
    let own = DELTA.try_with(Cell::get).unwrap_or(0);
    (LIVE.load(Relaxed) + own) as f64 / (1024.0 * 1024.0)
}

/// Highest live heap seen so far, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a const-initialized thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned, with
        // its layout.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}
