//! The SPSC channel's wake discipline, tested as what it can break: a
//! lost wakeup is a hang, so every case here runs behind a watchdog and
//! fails — rather than stalls the suite — if it stops making progress
//! (the `recv_timeout` pattern of netsim's
//! `wheel_one_slot_drains_without_a_cliff`).
//!
//! The channel notifies only a peer whose `*_waiting` flag is set, and a
//! blocked sender only once half its queue has drained (see the module
//! docs of `dui_telemetry::channel`). The property below drives both
//! sides through seeded `yield_now` patterns — producer-bound,
//! consumer-bound and evenly matched — at capacities on both sides of
//! every edge of the half rule (1: `0 * 2 <= 1`; 2, 3 and 5: odd and
//! even halves; 64: the pipeline's default).

use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert_eq, prop_check, Rng};
use dui_telemetry::channel::{bounded, SendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Far above what any case takes (milliseconds), far below the gate's
/// own `timeout`.
const LIMIT: Duration = Duration::from_secs(20);

/// Run `body` on its own thread; panic naming `what` if it has not
/// finished within [`LIMIT`], and re-raise its panic if it had one.
fn within_limit<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(LIMIT) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress in {LIMIT:?} — a lost wakeup or a deadlock")
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

/// One side's scheduling noise: yield before an operation with
/// probability `1 / period`, from its own seeded stream.
#[derive(Debug, Clone, Copy)]
struct Yields {
    seed: u64,
    period: u64,
}

impl Yields {
    /// Often, occasionally, rarely, never.
    const PERIODS: [u64; 4] = [3, 16, 128, u64::MAX];

    fn arb(g: &mut Gen) -> Self {
        Yields {
            seed: g.any_u64(),
            period: Self::PERIODS[g.usize(0..Self::PERIODS.len())],
        }
    }

    fn start(self) -> impl FnMut() {
        let mut rng = Rng::new(self.seed);
        move || {
            if rng.below(self.period) == 0 {
                thread::yield_now();
            }
        }
    }
}

const CAPACITIES: [usize; 5] = [1, 2, 3, 5, 64];

prop_check! {
    fn every_item_arrives_in_order_and_both_sides_finish(g) {
        let capacity = CAPACITIES[g.usize(0..CAPACITIES.len())];
        // Below the default capacity nearly every item is a blocking
        // handoff (two futex sleeps, ~10 us on a 2-core VM), so those
        // cases get their thousands of transitions from fewer items.
        let items = g.u64(1_000..if capacity < 64 { 2_501 } else { 10_001 });
        let (tx_yields, rx_yields) = (Yields::arb(g), Yields::arb(g));
        let what = format!(
            "capacity {capacity}, {items} items, sender {tx_yields:?}, receiver {rx_yields:?}"
        );
        let got = within_limit(&what, move || {
            let (tx, rx) = bounded::<u64>(capacity);
            let producer = thread::spawn(move || {
                let mut pause = tx_yields.start();
                for v in 0..items {
                    pause();
                    tx.send(v).expect("the receiver outlives the stream");
                }
            });
            let mut pause = rx_yields.start();
            let got: Vec<u64> = std::iter::from_fn(|| {
                pause();
                rx.recv()
            })
            .collect();
            producer.join().expect("producer");
            got
        });
        prop_assert_eq!(got.len() as u64, items, "{}", what);
        let out_of_order = got.iter().zip(0u64..).find(|&(&v, want)| v != want);
        prop_assert_eq!(out_of_order, None, "{}", what);
    }
}

/// Let the other thread run: there is no way to see from outside that
/// it has parked, so the hang-up tests give it every chance to and run
/// many rounds — the asserted outcome is the same on either side of the
/// race, which is the point.
fn let_the_peer_park(round: usize) {
    for _ in 0..round % 50 {
        thread::yield_now();
    }
}

#[test]
fn sender_dropped_under_a_blocked_receiver_ends_the_stream() {
    within_limit("sender dropped while the receiver waits", || {
        for round in 0..500 {
            let (tx, rx) = bounded::<u8>(2);
            let (entering, entered) = mpsc::channel();
            let receiver = thread::spawn(move || {
                let _ = entering.send(());
                rx.recv()
            });
            entered.recv().expect("receiver started");
            let_the_peer_park(round);
            drop(tx);
            assert_eq!(receiver.join().expect("receiver"), None, "round {round}");
        }
    });
}

#[test]
fn receiver_dropped_under_a_blocked_sender_returns_the_value() {
    within_limit("receiver dropped while the sender waits", || {
        for round in 0..500 {
            let capacity = 1 + round % 3;
            let (tx, rx) = bounded::<usize>(capacity);
            for v in 0..capacity {
                tx.send(v).expect("room");
            }
            let (entering, entered) = mpsc::channel();
            let sender = thread::spawn(move || {
                let _ = entering.send(());
                tx.send(99) // the queue is full: blocks until the hang-up
            });
            entered.recv().expect("sender started");
            let_the_peer_park(round);
            drop(rx);
            assert_eq!(
                sender.join().expect("sender"),
                Err(SendError(99)),
                "round {round}"
            );
        }
    });
}

#[test]
fn stalled_consumer_holds_the_producer_at_capacity() {
    // ROADMAP R-finish (b): the memory a slow consumer can cost is
    // exactly `capacity` items per channel, however long the stream.
    const CAPACITY: usize = 64;
    const ITEMS: u64 = 100_000;
    within_limit("stalled consumer", || {
        let (tx, rx) = bounded::<u64>(CAPACITY);
        let sent = Arc::new(AtomicU64::new(0));
        let producer = {
            let sent = Arc::clone(&sent);
            thread::spawn(move || {
                for v in 0..ITEMS {
                    tx.send(v).expect("the receiver outlives the stream");
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // The consumer stalls: the producer runs up to the bound …
        while sent.load(Ordering::SeqCst) < CAPACITY as u64 {
            thread::yield_now();
        }
        // … and, given every chance to overrun it, stays there.
        for _ in 0..10_000 {
            thread::yield_now();
            assert_eq!(sent.load(Ordering::SeqCst), CAPACITY as u64);
        }
        // `sent` trails the queue, never leads it, so at any instant the
        // sends completed may exceed the receives by at most the bound.
        for want in 0..ITEMS {
            assert!(sent.load(Ordering::SeqCst) <= want + CAPACITY as u64);
            assert_eq!(rx.recv(), Some(want));
        }
        producer.join().expect("producer");
        assert_eq!(rx.recv(), None);
    });
}
