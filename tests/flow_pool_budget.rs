//! What a pooled flow costs, counted by the workspace's one counting
//! allocator (`tests/support/counting_alloc.rs`): a miniature of the
//! ledger's `flow_churn` workload.
//!
//! A `FlowPool` keeps every per-flow byte in tables it reuses: slot
//! columns, sender and receiver rows, and two slabs, one of staged
//! packets and one of a sender's outstanding segments. So a warm pool
//! walks connections through their whole lifecycle without touching the
//! allocator, and a full one holds a fixed number of heap bytes a slot.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use dui_netsim::packet::{Addr, FlowKey, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_tcp::{FlowPool, FlowRef, TcpSenderConfig, TcpState};

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Connections walked through their lifecycle side by side.
const WAVE: usize = 100;

fn key(i: usize) -> FlowKey {
    let host = u32::try_from(i).expect("a small index");
    FlowKey::tcp(Addr(0x0A00_0000 | host), 1000, Addr::new(10, 255, 0, 1), 80)
}

/// `flow_churn`'s connection: a handshake, one data segment, FIN and a
/// TIME-WAIT that has expired by the next tick.
fn config() -> TcpSenderConfig {
    TcpSenderConfig {
        total_bytes: Some(1460),
        handshake: true,
        time_wait: SimDuration::from_nanos(1),
        ..TcpSenderConfig::default()
    }
}

/// Admit a sender and its listener for `key` and open the connection.
fn admit(pool: &mut FlowPool, key: FlowKey, now: SimTime) -> (FlowRef, FlowRef) {
    let s = pool.insert_sender(key, config(), 1);
    let l = pool.insert_listener(key);
    pool.on_start(s, now).expect("just inserted");
    (s, l)
}

/// A pool, the wave of pairs it runs, and a wire for the segments
/// between drain and delivery, both allocated up front.
struct Churn {
    pool: FlowPool,
    pairs: Vec<(FlowRef, FlowRef)>,
    wire: Vec<Packet>,
    now: SimTime,
    admitted: usize,
}

impl Churn {
    fn new() -> Self {
        Churn {
            pool: FlowPool::new(),
            pairs: Vec::with_capacity(WAVE),
            wire: Vec::with_capacity(16),
            now: SimTime::ZERO,
            admitted: 0,
        }
    }

    /// Carry what `from` staged to `to`; whether anything crossed.
    fn carry(&mut self, from: FlowRef, to: FlowRef) -> bool {
        let wire = &mut self.wire;
        self.pool.drain_out(from, |p| wire.push(p)).expect("live");
        let any = !self.wire.is_empty();
        for pkt in self.wire.drain(..) {
            self.pool.on_segment(to, self.now, &pkt).expect("live");
        }
        any
    }

    /// Admit a wave, run every connection to CLOSED and free both ends.
    fn wave(&mut self) {
        for _ in 0..WAVE {
            let pair = admit(&mut self.pool, key(self.admitted % WAVE), self.now);
            self.pairs.push(pair);
            self.admitted += 1;
        }
        let mut busy = true;
        while busy {
            busy = false;
            for k in 0..WAVE {
                let (s, l) = self.pairs[k];
                busy |= self.carry(s, l);
                busy |= self.carry(l, s);
            }
        }
        self.now += SimDuration::from_millis(1);
        for (s, l) in self.pairs.drain(..) {
            self.pool.on_tick(s, self.now).expect("live");
            assert_eq!(self.pool.state(s), Ok(TcpState::Closed));
            assert_eq!(self.pool.state(l), Ok(TcpState::Closed));
            self.pool.free(s).expect("live");
            self.pool.free(l).expect("live");
        }
    }
}

#[test]
fn a_warm_pool_runs_whole_lifecycles_without_allocating() {
    let mut churn = Churn::new();
    churn.wave();
    let ((), counts) = counting_alloc::during(|| {
        for _ in 0..10_000 / WAVE {
            churn.wave();
        }
    });
    assert_eq!(churn.admitted, 10_000 + WAVE);
    assert_eq!(churn.pool.live(), 0);
    assert_eq!(churn.pool.capacity(), 2 * WAVE, "slots were recycled");
    assert_eq!(counts.allocations, 0, "10,000 lifecycles allocated");
}

/// Heap bytes a slot of a full pool holds: 36 B of slot columns, half
/// a 312 B sender row and half an 88 B receiver row, half a 72 B packet
/// node for the staged SYN and half a 32 B node for its retransmission
/// record. A sender whose queue kept a `VecDeque` of its own held 332.
const BYTES_PER_SLOT: u64 = 288;

#[test]
fn a_pool_with_every_syn_staged_holds_its_pinned_bytes_a_slot() {
    let pairs = 4096;
    let (pool, counts) = counting_alloc::during(|| {
        let mut pool = FlowPool::new();
        for k in 0..pairs {
            admit(&mut pool, key(k), SimTime::ZERO);
        }
        pool
    });
    let slots = u64::try_from(pool.capacity()).expect("a small pool");
    assert_eq!(slots, 2 * 4096);
    assert_eq!(counts.live / slots, BYTES_PER_SLOT, "{counts:?}");
}
