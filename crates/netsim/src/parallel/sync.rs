//! The window rendezvous: one leader, `n` workers, one hand-off each way
//! per window, each far shorter than a futex sleep.
//!
//! Workers bump a done-count and wait for the leader to bump the epoch;
//! the leader waits for the count to reach `n`, does its serial work, and
//! bumps the epoch. What a worker wrote before arriving the leader sees
//! after `collect` (`done`: `AcqRel` add / `Acquire` load); what the
//! leader wrote before `release` a worker sees when its wait returns
//! (`epoch`: `Release` add / `Acquire` load). Every wait also checks a
//! poison flag — `std::sync::Barrier` has none, so a thread that
//! panicked mid-window used to strand all the others.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;

/// Spin iterations before yielding: a window is 40–80 µs of work, so on
/// two cores the peer is usually microseconds away. Bounded, because the
/// waiter may share its CPU with the thread it waits for: pinned to one
/// CPU the benchmark unit takes 0.56 s so, 7.6 s spinning 20,000 times.
const SPINS: u32 = 256;
/// Tries (spins, then `yield_now` calls) before parking. On one CPU the
/// first yield hands it to the awaited thread; on two, each is a slow
/// spin, and the waiter parks only once a futex wake-up costs less.
const TRIES: u32 = SPINS + 1024;

/// Leader/worker rendezvous, led by the thread that creates it. With
/// zero workers every operation returns at once.
pub(crate) struct WindowSync {
    workers: usize,
    epoch: AtomicU64,
    done: AtomicUsize,
    poisoned: AtomicBool,
    leader: Thread,
}

impl WindowSync {
    pub fn new(workers: usize) -> Self {
        let (epoch, done, poisoned) = Default::default();
        WindowSync { workers, epoch, done, poisoned, leader: std::thread::current() }
    }

    /// Spin, yield, park until `ready`; `false` if poisoned meanwhile.
    /// Every waker sets its condition before unparking, so a wake-up
    /// that races the `park` leaves a token and the park returns.
    fn wait(&self, ready: impl Fn() -> bool) -> bool {
        for tries in 0u32.. {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if ready() {
                break;
            }
            match tries {
                0..SPINS => std::hint::spin_loop(),
                SPINS..TRIES => std::thread::yield_now(),
                _ => std::thread::park(),
            }
        }
        true
    }

    /// Worker: report this thread's phase finished and wait for the
    /// leader's release. `false` means a participant panicked.
    pub fn arrive_and_wait(&self) -> bool {
        // No release can come before this arrival: `seen` is current.
        let seen = self.epoch.load(Ordering::Acquire);
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            self.leader.unpark();
        }
        self.wait(|| self.epoch.load(Ordering::Acquire) != seen)
    }

    /// Leader: wait until every worker has arrived; `false` as above.
    pub fn collect(&self) -> bool {
        self.wait(|| self.done.load(Ordering::Acquire) == self.workers)
    }

    /// Leader: start the next phase on every worker.
    pub fn release(&self, workers: &[Thread]) {
        self.done.store(0, Ordering::Relaxed); // ordered by the epoch bump
        self.epoch.fetch_add(1, Ordering::Release);
        workers.iter().for_each(Thread::unpark);
    }
}

/// Held by every participant while it takes part: an unwinding holder
/// poisons the rendezvous and wakes the leader; any exit unparks `wake`
/// (the leader's guard names the workers), who then see the poison.
pub(crate) struct ExitGuard<'a> {
    pub sync: &'a WindowSync,
    pub wake: &'a [Thread],
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sync.poisoned.store(true, Ordering::Release);
            self.sync.leader.unpark();
        }
        self.wake.iter().for_each(Thread::unpark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` workers and the leader add to a counter in turns, `epochs`
    /// times; any lost or early release shows as a wrong count.
    fn count_in_turns(n: usize, epochs: u64) {
        let sync = WindowSync::new(n);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        for e in 0..epochs {
                            // Between releases the counter is the leader's.
                            assert_eq!(counter.load(Ordering::Relaxed) % (n as u64 + 1), 0, "epoch {e}");
                            assert!(sync.arrive_and_wait());
                            counter.fetch_add(1, Ordering::Relaxed);
                            assert!(sync.arrive_and_wait());
                        }
                    })
                })
                .collect();
            let threads: Vec<Thread> = handles.iter().map(|h| h.thread().clone()).collect();
            for e in 0..epochs {
                assert!(sync.collect());
                assert_eq!(counter.load(Ordering::Relaxed), e * (n as u64 + 1));
                sync.release(&threads);
                assert!(sync.collect());
                assert_eq!(counter.fetch_add(1, Ordering::Relaxed), e * (n as u64 + 1) + n as u64);
                sync.release(&threads);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), epochs * (n as u64 + 1));
    }

    #[test]
    fn every_epoch_sees_every_arrival() {
        count_in_turns(0, 1_000);
        count_in_turns(1, 100_000);
        count_in_turns(3, 100_000);
    }

    #[test]
    fn poisoned_waiters_return() {
        let sync = WindowSync::new(2);
        std::thread::scope(|scope| {
            // One worker parks in the rendezvous, the other unwinds.
            let waiter = scope.spawn(|| sync.arrive_and_wait());
            let panicker = scope.spawn(|| {
                let _guard = ExitGuard { sync: &sync, wake: &[] };
                panic!("worker failed");
            });
            assert!(!sync.collect(), "leader must see the poison");
            drop(ExitGuard { sync: &sync, wake: &[waiter.thread().clone()] });
            assert!(!waiter.join().expect("waiter returns"), "waiter must see the poison");
            assert!(panicker.join().is_err());
        });
    }
}
