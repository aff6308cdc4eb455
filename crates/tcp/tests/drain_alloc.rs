//! The flow pool's allocation-free steady state, measured: once the
//! packet slab and the retransmission queue have grown to a transfer's
//! window, a data segment and its ACK are staged, drained with
//! `FlowPool::drain_out` and delivered without touching the allocator.
//!
//! The count comes from a counting `GlobalAlloc` local to this test
//! binary (the pattern of `crates/netsim/tests/wheel_alloc.rs`; no
//! library crate carries an `unsafe_code` expectation).

#![expect(unsafe_code, reason = "a counting `GlobalAlloc` is an `unsafe impl`")]

use dui_netsim::packet::{Addr, FlowKey, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_tcp::{FlowPool, FlowRef, TcpSenderConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting this thread's allocations
/// (`realloc` defaults to `alloc` + `dealloc`, so growth counts too).
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a `Cell<u64>`
// thread-local with a const initializer and no destructor, so it neither
// allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// An unbounded sender and its receiver, whose advertised window holds
/// the sender to eight segments in flight.
struct Transfer {
    pool: FlowPool,
    s: FlowRef,
    r: FlowRef,
    now: SimTime,
    /// Segments drained from one end, on their way to the other.
    wire: Vec<Packet>,
}

impl Transfer {
    fn new() -> Self {
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 1000, Addr::new(10, 0, 0, 2), 80);
        let mut pool = FlowPool::new();
        let s = pool.insert_sender(key, TcpSenderConfig::default(), 1);
        let r = pool.insert_receiver(key, 1);
        pool.set_advertised_window(r, 8 * 1460).expect("live");
        pool.on_start(s, SimTime::ZERO).expect("live");
        Transfer {
            pool,
            s,
            r,
            now: SimTime::ZERO,
            wire: Vec::new(),
        }
    }

    /// Carry everything staged at `from` to `to`; returns the segments
    /// carried.
    fn carry(&mut self, from: FlowRef, to: FlowRef) -> usize {
        let wire = &mut self.wire;
        self.pool.drain_out(from, |p| wire.push(p)).expect("live");
        let n = self.wire.len();
        for pkt in self.wire.drain(..) {
            self.pool.on_segment(to, self.now, &pkt).expect("live");
        }
        n
    }

    /// Data one way, ACKs back, until `segments` data segments crossed.
    fn run(&mut self, segments: usize) {
        let mut sent = 0;
        while sent < segments {
            self.now += SimDuration::from_micros(100);
            sent += self.carry(self.s, self.r);
            self.carry(self.r, self.s);
        }
    }
}

#[test]
fn steady_exchanges_through_drain_out_make_no_allocations() {
    let mut t = Transfer::new();
    t.run(1_000);
    let acked = t.pool.sender_stats(t.s).expect("live").bytes_acked;
    let before = ALLOCATIONS.with(Cell::get);
    t.run(100_000);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "steady data/ACK exchanges allocated");
    let moved = t.pool.sender_stats(t.s).expect("live").bytes_acked - acked;
    assert!(moved >= 99_000 * 1460, "only {moved} bytes acknowledged");
}
