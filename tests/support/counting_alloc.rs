//! The workspace's one counting allocator, for the test binaries that
//! measure allocation (`drain_alloc`, `frame_alloc`, `supervisor_budget`,
//! `wheel_alloc`, `hostile_bytes`, `recording_memory`,
//! `flow_pool_budget`). A binary
//! includes this file by `#[path]` and installs it with its own line:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! Counts are per thread: the test harness runs tests on parallel
//! threads, and one test's work must not show up in another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations made (`realloc` defaults to `alloc` + `dealloc`, so
    /// growth counts too).
    pub allocations: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
    /// The most `live` has been.
    pub peak: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocations: 0,
            bytes: 0,
            live: 0,
            peak: 0,
        })
    };
}

/// Forwards to the system allocator, keeping this thread's [`Counts`].
pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a `Cell`
// thread-local with a const initializer and no destructor, so it neither
// allocates nor can observe a destroyed value.
#[expect(unsafe_code, reason = "a counting `GlobalAlloc` is an `unsafe impl`")]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size() as u64;
            let _ = COUNTS.try_with(|c| {
                let mut n = c.get();
                n.allocations += 1;
                n.bytes += size;
                n.live += size;
                n.peak = n.peak.max(n.live);
                c.set(n);
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // A block may be freed on a thread that did not allocate it.
        let _ = COUNTS.try_with(|c| {
            let mut n = c.get();
            n.live = n.live.saturating_sub(layout.size() as u64);
            c.set(n);
        });
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }
}

/// Run `f`, returning its result and what this thread allocated while it
/// ran: allocations, bytes, live bytes left over, and the peak of live
/// bytes above the level on entry.
pub fn during<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let base = COUNTS.with(|c| {
        let mut n = c.get();
        n.peak = n.live;
        c.set(n);
        n
    });
    let out = f();
    let end = COUNTS.with(Cell::get);
    let counts = Counts {
        allocations: end.allocations - base.allocations,
        bytes: end.bytes - base.bytes,
        live: end.live.saturating_sub(base.live),
        peak: end.peak - base.live,
    };
    (out, counts)
}
