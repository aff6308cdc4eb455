//! The flow pool's allocation-free steady state, measured: once the
//! packet slab and the retransmission queue have grown to a transfer's
//! window, a data segment and its ACK are staged, drained with
//! `FlowPool::drain_out` and delivered without touching the allocator.
//!
//! The count comes from the workspace's one counting allocator
//! (`tests/support/counting_alloc.rs`).

use dui_netsim::packet::{Addr, FlowKey, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_tcp::{FlowPool, FlowRef, TcpSenderConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

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
    let ((), counts) = counting_alloc::during(|| t.run(100_000));
    assert_eq!(counts.allocations, 0, "steady data/ACK exchanges allocated");
    let moved = t.pool.sender_stats(t.s).expect("live").bytes_acked - acked;
    assert!(moved >= 99_000 * 1460, "only {moved} bytes acknowledged");
}
