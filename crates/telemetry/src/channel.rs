//! Bounded single-producer/single-consumer channel with blocking
//! backpressure, built on `std::sync` only: a `Mutex` + two `Condvar`s.
//! The crate is `#![forbid(unsafe_code)]`, so what the two threads may
//! share is decided by `Send`/`Sync` and nothing else.
//!
//! This is the transport between a telemetry producer and its
//! supervisord worker. Semantics chosen for determinism and bounded
//! memory:
//!
//! * [`Sender::send`] **blocks** while the queue holds `capacity`
//!   items — a slow consumer exerts backpressure instead of letting the
//!   queue grow. It returns the value in `Err` if the receiver is gone.
//! * [`Receiver::recv`] blocks while the queue is empty and returns
//!   `None` once the queue is drained *and* the sender is dropped, so
//!   end-of-stream is unambiguous.
//! * FIFO order is preserved; with one sender per channel this gives
//!   the per-producer `seq` order the merge layer relies on.
//!
//! The handles are `Send` but deliberately not `Clone`: one producer,
//! one consumer. Poisoned locks are tolerated (`into_inner`) because
//! the protected state is a plain `VecDeque` and four flags, valid at
//! every instruction boundary.
//!
//! # Wake discipline
//!
//! A `Condvar::notify_one` is a `futex` wake whether or not anyone is
//! parked, so the channel notifies only a peer that is actually
//! waiting: each side sets its `*_waiting` flag immediately before
//! `Condvar::wait` and the waker clears it, then notifies after
//! releasing the lock. `send` wakes a waiting receiver; `recv` wakes a
//! waiting sender only once the queue has drained to half its capacity
//! (`len * 2 <= capacity`), so a producer that outruns its consumer is
//! woken once per half queue instead of once per slot — it refills in a
//! burst rather than ping-ponging one item per wake. Dropping either
//! half notifies unconditionally.
//!
//! *No lost wakeup:* the flags are read and written only under the
//! mutex, and `Condvar::wait` releases the mutex and parks atomically —
//! so whoever next takes the lock and finds a flag set finds its owner
//! already parked (or about to re-check its condition), and the
//! `notify_one` that follows the flag's clearing reaches it. A spurious
//! wakeup can leave a flag set with nobody parked; that costs one
//! redundant notify and nothing else.
//!
//! *No deadlock:* the sender blocks only on a full queue and the
//! receiver only on an empty one, and `capacity >= 1` makes those
//! exclusive. A parked sender is woken before the receiver can park,
//! because a queue on its way from full to empty crosses half — at
//! capacity 1 the first `recv` already leaves `0 * 2 <= 1`.
//!
//! ```
//! use dui_telemetry::channel::bounded;
//!
//! let (tx, rx) = bounded::<u32>(2);
//! std::thread::spawn(move || {
//!     for v in 0..5 {
//!         tx.send(v).ok();
//!     }
//! });
//! let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
//! assert_eq!(got, vec![0, 1, 2, 3, 4]);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct Inner<T> {
    queue: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
    /// The receiver is (about to be) parked on `not_empty`.
    rx_waiting: bool,
    /// The sender is (about to be) parked on `not_full`.
    tx_waiting: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Sending half of a bounded SPSC channel; dropping it closes the
/// stream (the receiver drains the queue, then sees `None`).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a bounded SPSC channel; dropping it makes every
/// subsequent `send` fail fast.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; owns
/// the unsent value.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Create a bounded SPSC channel holding at most `capacity` items
/// (`capacity` is clamped to at least 1 so `send` can always make
/// progress).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            sender_alive: true,
            receiver_alive: true,
            rx_waiting: false,
            tx_waiting: false,
        }),
        capacity: capacity.max(1),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the channel is full. Returns the
    /// value back if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if !inner.receiver_alive {
                return Err(SendError(value));
            }
            if inner.queue.len() < self.shared.capacity {
                inner.queue.push_back(value);
                let wake = std::mem::take(&mut inner.rx_waiting);
                drop(inner);
                if wake {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            inner.tx_waiting = true;
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.sender_alive = false;
        drop(inner);
        self.shared.not_empty.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next item, blocking while the channel is empty.
    /// Returns `None` once the channel is drained and the sender is
    /// dropped.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                let wake = inner.tx_waiting && inner.queue.len() * 2 <= self.shared.capacity;
                if wake {
                    inner.tx_waiting = false;
                }
                drop(inner);
                if wake {
                    self.shared.not_full.notify_one();
                }
                return Some(v);
            }
            if !inner.sender_alive {
                return None;
            }
            inner.rx_waiting = true;
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.receiver_alive = false;
        inner.queue.clear();
        drop(inner);
        self.shared.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = bounded(4);
        for v in 0..4 {
            tx.send(v).ok();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_sees_end_of_stream_after_sender_drop() {
        let (tx, rx) = bounded::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(42), Err(SendError(42)));
    }

    #[test]
    fn full_channel_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).ok();
        let h = thread::spawn(move || {
            // Blocks until the receiver drains the first item.
            tx.send(2).ok();
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        h.join().ok();
        assert_eq!(rx.recv(), None);
    }
}
