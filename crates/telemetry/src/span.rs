//! Nested span tracing into a bounded ring buffer.
//!
//! Spans are timestamped with opaque `u64` nanoseconds supplied by the
//! caller, which keeps this module time-source agnostic: the simulator
//! passes deterministic `SimTime` nanos, while a harness outside the
//! library crates may pass monotonic wall-clock nanos. The recorder
//! itself never reads a clock.
//!
//! The buffer is bounded: once `capacity` completed spans are stored,
//! the oldest is dropped and [`SpanRecorder::wrapped`] counts the loss,
//! so long simulations can keep tracing enabled without unbounded
//! memory growth.

/// One completed span: a named interval with a nesting depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Name supplied at `enter`.
    pub name: String,
    /// Start timestamp in caller-defined nanoseconds.
    pub start_ns: u64,
    /// End timestamp in caller-defined nanoseconds.
    pub end_ns: u64,
    /// Nesting depth at the time of `enter` (0 = top level).
    pub depth: usize,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans into a bounded ring buffer.
#[derive(Debug)]
pub struct SpanRecorder {
    capacity: usize,
    spans: Vec<Span>,
    head: usize,
    wrapped: u64,
    stack: Vec<(String, u64)>,
}

impl SpanRecorder {
    /// A recorder holding at most `capacity` completed spans (at least 1).
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            capacity: capacity.max(1),
            spans: Vec::new(),
            head: 0,
            wrapped: 0,
            stack: Vec::new(),
        }
    }

    /// Open a span at `now_ns`. Spans nest: depth is the number of
    /// currently-open spans.
    pub fn enter(&mut self, name: &str, now_ns: u64) {
        self.stack.push((name.to_string(), now_ns));
    }

    /// Close the innermost open span at `now_ns`. A no-op if no span is
    /// open (tolerated so callers can guard coarsely).
    pub fn exit(&mut self, now_ns: u64) {
        let Some((name, start_ns)) = self.stack.pop() else {
            return;
        };
        let span = Span {
            name,
            start_ns,
            end_ns: now_ns,
            depth: self.stack.len(),
        };
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.wrapped += 1;
        }
    }

    /// Completed spans, oldest first.
    pub fn spans(&self) -> Vec<&Span> {
        let (newer, older) = self.spans.split_at(self.head);
        older.iter().chain(newer.iter()).collect()
    }

    /// Number of completed spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no completed spans are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// How many completed spans were evicted because the ring was full.
    pub fn wrapped(&self) -> u64 {
        self.wrapped
    }

    /// Number of currently-open (unclosed) spans.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_depth() {
        let mut r = SpanRecorder::new(8);
        r.enter("outer", 0);
        r.enter("inner", 10);
        r.exit(20);
        r.exit(30);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].duration_ns(), 10);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].duration_ns(), 30);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut r = SpanRecorder::new(2);
        for i in 0..4u64 {
            r.enter("s", i * 10);
            r.exit(i * 10 + 5);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.wrapped(), 2);
        let spans = r.spans();
        assert_eq!(spans[0].start_ns, 20);
        assert_eq!(spans[1].start_ns, 30);
    }

    #[test]
    fn unbalanced_exit_is_tolerated() {
        let mut r = SpanRecorder::new(2);
        r.exit(5);
        assert!(r.is_empty());
        assert_eq!(r.open_depth(), 0);
    }
}
