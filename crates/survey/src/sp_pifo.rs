//! SP-PIFO (Alcoz et al., NSDI'20): approximating a PIFO (push-in
//! first-out, i.e. perfect rank ordering) with the strict-priority FIFO
//! queues available in commodity switches.
//!
//! The mechanism: each of the `k` queues keeps a *bound* — the rank of
//! the last packet it admitted. An arriving packet scans queues from
//! lowest priority (large ranks) to highest (small ranks) and is pushed
//! into the first queue whose bound is ≤ its rank (*push-up*: the bound
//! rises to the packet's rank). If even the highest-priority queue's
//! bound exceeds the rank, an **inversion** has happened — a smaller rank
//! will be dequeued after larger ones already admitted — and SP-PIFO
//! reacts by *push-down*: all bounds decrease by the overshoot.
//!
//! The design assumption the HotNets'19 paper calls out (§3.2): "the
//! proposed heuristic is based on the assumption that given a rank
//! distribution, the order in which packet ranks arrive is random. An
//! attacker could send packet sequences of particular ranks, resulting in
//! packets being delayed or even dropped." [`adversarial_sequence`]
//! generates exactly such a sequence: a saw-tooth that repeatedly drives
//! every bound up with ascending ranks, then slams a high-priority packet
//! into the inverted structure.

use std::collections::VecDeque;

/// An SP-PIFO scheduler over `k` strict-priority queues.
///
/// ```
/// use dui_survey::sp_pifo::SpPifo;
///
/// let mut sp = SpPifo::new(4, 16);
/// sp.enqueue(300);
/// sp.enqueue(10);
/// // Adaptation has separated the ranks: the small rank leaves first.
/// assert_eq!(sp.dequeue(), Some(10));
/// assert_eq!(sp.dequeue(), Some(300));
/// ```
#[derive(Debug, Clone)]
pub struct SpPifo {
    /// queues[0] has the highest priority (dequeued first, lowest ranks).
    queues: Vec<VecDeque<u64>>,
    /// Admission bound per queue.
    bounds: Vec<i64>,
    /// Per-queue capacity (packets); full queues tail-drop.
    capacity: usize,
    /// Packets dropped because their target queue was full.
    pub dropped: u64,
    /// Push-down events (inversions detected at admission).
    pub push_downs: u64,
    /// Total packets admitted.
    pub admitted: u64,
}

impl SpPifo {
    /// `k` queues of `capacity` packets each.
    pub fn new(k: usize, capacity: usize) -> Self {
        assert!(k >= 1, "need at least one queue");
        assert!(capacity >= 1, "queues must hold at least one packet");
        SpPifo {
            queues: vec![VecDeque::new(); k],
            bounds: vec![0; k],
            capacity,
            dropped: 0,
            push_downs: 0,
            admitted: 0,
        }
    }

    /// Number of queues.
    pub fn k(&self) -> usize {
        self.queues.len()
    }

    /// Packets currently enqueued.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Is the scheduler empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue a packet with `rank` (smaller = higher priority).
    pub fn enqueue(&mut self, rank: u64) {
        let r = rank as i64;
        // Scan lowest priority (last queue) -> highest (first queue).
        for i in (1..self.queues.len()).rev() {
            if r >= self.bounds[i] {
                self.admit(i, rank, r);
                return;
            }
        }
        // Highest-priority queue: admit; if the bound is violated this is
        // an inversion -> push-down all bounds by the overshoot.
        let overshoot = self.bounds[0] - r;
        if overshoot > 0 {
            self.push_downs += 1;
            for b in &mut self.bounds {
                *b -= overshoot;
            }
            // Admit without raising the (just lowered) bound above r.
            self.admit_no_bound_update(0, rank);
        } else {
            self.admit(0, rank, r);
        }
    }

    fn admit(&mut self, i: usize, rank: u64, r: i64) {
        if self.queues[i].len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.bounds[i] = r;
        self.queues[i].push_back(rank);
        self.admitted += 1;
    }

    fn admit_no_bound_update(&mut self, i: usize, rank: u64) {
        if self.queues[i].len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.queues[i].push_back(rank);
        self.admitted += 1;
    }

    /// Dequeue the next packet (strict priority across queues, FIFO
    /// within).
    pub fn dequeue(&mut self) -> Option<u64> {
        for q in &mut self.queues {
            if let Some(r) = q.pop_front() {
                return Some(r);
            }
        }
        None
    }

    /// Smallest rank currently enqueued (what a perfect PIFO would serve).
    pub fn min_rank(&self) -> Option<u64> {
        self.queues.iter().flat_map(|q| q.iter().copied()).min()
    }
}

/// Drive a rank sequence through an SP-PIFO in bursts of `batch` arrivals
/// followed by `batch` services (so a standing queue exists — with one
/// packet at a time, ordering is trivially perfect) and count *dequeue
/// inversions*: services where the dequeued rank exceeds the smallest
/// rank waiting (a perfect PIFO would have served someone else).
/// Returns `(inversions, services, drops)`.
pub fn measure_inversions(
    ranks: &[u64],
    k: usize,
    capacity: usize,
    batch: usize,
) -> (u64, u64, u64) {
    assert!(batch >= 1);
    let mut sp = SpPifo::new(k, capacity);
    let mut inversions = 0;
    let mut services = 0;
    for chunk in ranks.chunks(batch) {
        for &r in chunk {
            sp.enqueue(r);
        }
        for _ in 0..chunk.len() {
            let min = sp.min_rank();
            let Some(served) = sp.dequeue() else { break };
            services += 1;
            if let Some(min) = min {
                if served > min {
                    inversions += 1;
                }
            }
        }
    }
    (inversions, services, sp.dropped)
}

/// The attack sequence of §3.2: repeated strictly *descending* rank runs
/// — the worst case for SP-PIFO's push-up/push-down adaptation. Each
/// arrival undercuts every queue bound, forcing a push-down and landing
/// behind already-admitted larger ranks in the same FIFO, so almost every
/// service is an inversion. A random arrival order with the same rank
/// *distribution* behaves far better — exactly the randomness assumption
/// the attacker violates.
pub fn adversarial_sequence(teeth: usize, run: usize, _burst: usize, max_rank: u64) -> Vec<u64> {
    assert!(run >= 1);
    let mut out = Vec::with_capacity(teeth * run);
    for _ in 0..teeth {
        for i in 0..run {
            let frac = 1.0 - i as f64 / run as f64;
            out.push((frac * max_rank as f64) as u64);
        }
    }
    out
}

/// A rank sequence with the same *distribution* as
/// [`adversarial_sequence`] but randomly shuffled — the benign baseline
/// SP-PIFO was designed for.
pub fn shuffled_sequence(
    teeth: usize,
    ascent: usize,
    burst: usize,
    max_rank: u64,
    rng: &mut dui_stats::Rng,
) -> Vec<u64> {
    let mut seq = adversarial_sequence(teeth, ascent, burst, max_rank);
    rng.shuffle(&mut seq);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_stats::Rng;

    #[test]
    fn strict_priority_ordering_within_bounds() {
        let mut sp = SpPifo::new(4, 16);
        sp.enqueue(10);
        sp.enqueue(200);
        sp.enqueue(3000);
        // Ranks landed in different queues; dequeue order follows rank.
        let a = sp.dequeue().unwrap();
        let b = sp.dequeue().unwrap();
        let c = sp.dequeue().unwrap();
        assert!(a <= b && b <= c, "{a} {b} {c}");
    }

    #[test]
    fn ascending_ranks_never_invert() {
        let ranks: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let (inv, served, dropped) = measure_inversions(&ranks, 8, 64, 16);
        assert_eq!(inv, 0, "monotone arrivals are PIFO-perfect");
        assert!(served > 0);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn push_down_counted() {
        let mut sp = SpPifo::new(2, 16);
        sp.enqueue(100); // raises a bound
        sp.enqueue(50); // below the low queue's bound? depends; force it:
        sp.enqueue(1000);
        sp.enqueue(0); // certainly below every raised bound -> push-down
        assert!(sp.push_downs >= 1);
    }

    #[test]
    fn full_queue_drops() {
        let mut sp = SpPifo::new(1, 2);
        sp.enqueue(1);
        sp.enqueue(2);
        sp.enqueue(3);
        assert_eq!(sp.dropped, 1);
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn adversarial_sequence_inverts_far_more_than_shuffled() {
        let teeth = 100;
        let (run, burst, max_rank) = (24, 0, 10_000);
        let adv = adversarial_sequence(teeth, run, burst, max_rank);
        let mut rng = Rng::new(5);
        let rnd = shuffled_sequence(teeth, run, burst, max_rank, &mut rng);
        let (adv_inv, adv_served, _) = measure_inversions(&adv, 8, 64, 12);
        let (rnd_inv, rnd_served, _) = measure_inversions(&rnd, 8, 64, 12);
        let adv_rate = adv_inv as f64 / adv_served.max(1) as f64;
        let rnd_rate = rnd_inv as f64 / rnd_served.max(1) as f64;
        assert!(
            adv_rate > 2.0 * rnd_rate,
            "adversarial {adv_rate:.3} vs shuffled {rnd_rate:.3}"
        );
    }

    #[test]
    fn min_rank_tracks_contents() {
        let mut sp = SpPifo::new(4, 8);
        assert_eq!(sp.min_rank(), None);
        sp.enqueue(42);
        sp.enqueue(7);
        assert_eq!(sp.min_rank(), Some(7));
    }

    #[test]
    fn empty_dequeue_none() {
        let mut sp = SpPifo::new(3, 4);
        assert_eq!(sp.dequeue(), None);
        assert!(sp.is_empty());
    }
}
