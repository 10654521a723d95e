//! A minimal discrete-event simulation (DES) core.
//!
//! The fleet-serving runtime (and, through it, the single-robot
//! [`crate::simulate_pipeline`]) advances time by popping events off a queue
//! keyed by `(time, sequence-number)`.  The sequence number is a
//! monotonically increasing tie-breaker, so events scheduled at the same
//! instant fire in scheduling order and every run of the same configuration
//! pops events in exactly the same order — determinism is structural, not
//! accidental.
//!
//! The queue has two lanes behind one interface: a FIFO lane that takes
//! every event scheduled no earlier than the lane's current tail, and a
//! 4-ary heap for the rest.  Fleet runs schedule long monotone runs of
//! far-future events (the uplink's FIFO arbiter grants uploads in
//! non-decreasing time order, so a saturated link's completions arrive
//! sorted); those append and pop in O(1) instead of sifting through a heap
//! that would otherwise hold thousands of them.  Both lanes are sorted on
//! the same `(time, seq)` key, so popping the earlier of the two fronts
//! yields exactly the single-heap total order.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// An event scheduled at a point in simulated time.
///
/// Events fire in `(time_ms, seq)` order; `seq` is unique per queue, so the
/// order is total.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled<E> {
    /// Absolute simulated time of the event, in milliseconds.
    pub time_ms: f64,
    /// Scheduling sequence number — the deterministic tie-breaker for events
    /// at the same instant.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// `true` when `a` fires strictly before `b` (earlier `(time_ms, seq)`):
/// `total_cmp` on time, lower sequence number first.
fn fires_before<E>(a: &Scheduled<E>, b: &Scheduled<E>) -> bool {
    a.time_ms.total_cmp(&b.time_ms).then_with(|| a.seq.cmp(&b.seq)) == Ordering::Less
}

/// Children per node of the event min-heaps.
///
/// A 4-ary flat heap halves the level count of a binary heap, so the
/// hot-loop sift walks half the cache lines per pop; with the up-to-4-way
/// min-child scan running over adjacent elements, it is measurably faster
/// than `std::collections::BinaryHeap` on the event-loop access pattern
/// (many interleaved push/pop at similar keys).
const HEAP_ARITY: usize = 4;

/// A flat 4-ary min-heap on the `(time_ms, seq)` key.
///
/// The backing `Vec` is the *event arena*: it is never shrunk, so once a
/// run's queue has reached its resident size push/pop recycle the same
/// allocation and the steady-state event loop allocates nothing (see the
/// `event_arena` allocation-counting test of the fleet engine).
#[derive(Debug, Clone, Default)]
struct MinHeap<E> {
    items: Vec<Scheduled<E>>,
}

impl<E> MinHeap<E> {
    fn new() -> Self {
        MinHeap { items: Vec::new() }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        self.items.first()
    }

    fn push(&mut self, scheduled: Scheduled<E>) {
        self.items.push(scheduled);
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.items.pop()?;
        if self.items.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.items[0], last);
        self.sift_down(0);
        Some(top)
    }

    fn sift_up(&mut self, mut index: usize) {
        while index > 0 {
            let parent = (index - 1) / HEAP_ARITY;
            if fires_before(&self.items[index], &self.items[parent]) {
                self.items.swap(index, parent);
                index = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize) {
        loop {
            let first_child = index * HEAP_ARITY + 1;
            if first_child >= self.items.len() {
                break;
            }
            let last_child = (first_child + HEAP_ARITY).min(self.items.len());
            let mut min_child = first_child;
            for child in first_child + 1..last_child {
                if fires_before(&self.items[child], &self.items[min_child]) {
                    min_child = child;
                }
            }
            if fires_before(&self.items[min_child], &self.items[index]) {
                self.items.swap(index, min_child);
                index = min_child;
            } else {
                break;
            }
        }
    }
}

/// A deterministic future-event queue.
///
/// Events are totally ordered by `(time_ms, seq)`; `seq` is assigned at
/// scheduling time.  Popping an event advances the queue's clock, and
/// scheduling into the past is a logic error (checked in debug builds).
///
/// Internally the queue keeps two lanes.  An event whose time is not before
/// the FIFO lane's tail (or that finds the lane empty) is appended to the
/// lane; any other event goes to the 4-ary heap.  A new event's `seq`
/// exceeds every pending `seq`, so each append keeps the lane sorted by
/// `(time_ms, seq)`, and the heap's root is its own minimum.  The earliest
/// pending event is therefore the earlier of the two fronts under the one
/// comparator both lanes use, and the pop order is exactly that of a
/// single heap holding every event.  Both backing buffers are arenas that
/// never shrink, so a warm queue schedules and pops without allocating.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E> {
    heap: MinHeap<E>,
    lane: VecDeque<Scheduled<E>>,
    next_seq: u64,
    now_ms: f64,
}

impl<E> EventQueue<E> {
    /// An empty queue with its clock at time zero.
    pub fn new() -> Self {
        EventQueue { heap: MinHeap::new(), lane: VecDeque::new(), next_seq: 0, now_ms: 0.0 }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Schedules `event` at absolute time `time_ms` and returns its sequence
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if `time_ms` is NaN, and (in debug builds) if it lies before
    /// the current clock.
    pub fn schedule(&mut self, time_ms: f64, event: E) -> u64 {
        assert!(!time_ms.is_nan(), "cannot schedule an event at NaN");
        debug_assert!(
            time_ms >= self.now_ms,
            "scheduling into the past: {time_ms} < {}",
            self.now_ms
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let scheduled = Scheduled { time_ms, seq, event };
        match self.lane.back() {
            Some(tail) if fires_before(&scheduled, tail) => self.heap.push(scheduled),
            _ => self.lane.push_back(scheduled),
        }
        seq
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let scheduled =
            if self.lane_fires_first() { self.lane.pop_front() } else { self.heap.pop() }?;
        self.now_ms = scheduled.time_ms;
        Some(scheduled)
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time_ms(&self) -> Option<f64> {
        let next = if self.lane_fires_first() { self.lane.front() } else { self.heap.peek() };
        next.map(|s| s.time_ms)
    }

    /// Whether the earliest pending event is the FIFO lane's front rather
    /// than the heap's root (`false` when both lanes are empty).
    fn lane_fires_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) => fires_before(lane, heap),
            (lane, _) => lane.is_some(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(2.0, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, ["first", "second", "third"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_advances_the_clock() {
        let mut q = EventQueue::new();
        assert_eq!(q.now_ms(), 0.0);
        q.schedule(4.5, ());
        q.schedule(7.25, ());
        assert_eq!(q.peek_time_ms(), Some(4.5));
        q.pop();
        assert_eq!(q.now_ms(), 4.5);
        q.pop();
        assert_eq!(q.now_ms(), 7.25);
        assert!(q.pop().is_none());
        assert_eq!(q.now_ms(), 7.25);
    }

    #[test]
    fn sequence_numbers_are_stable_across_identical_runs() {
        let run = || {
            let mut q = EventQueue::new();
            q.schedule(1.0, 10u32);
            q.schedule(1.0, 11u32);
            q.schedule(0.5, 12u32);
            let mut log = Vec::new();
            while let Some(s) = q.pop() {
                log.push((s.time_ms.to_bits(), s.seq, s.event));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn nan_times_are_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    // The two-lane queue must pop in exactly the `(time_ms, seq)` order of
    // a reference that sorts every pending event, under random
    // interleavings of schedule and pop that mix a monotone far-future
    // stream (the lane's traffic), near-term times (the heap's traffic) and
    // exactly equal timestamps (the `seq` tie-break), and its `len`,
    // `is_empty` and `peek_time_ms` must agree with the reference after
    // every operation.
    proptest! {
        #[test]
        fn two_lane_pops_match_a_reference_sort(
            kinds in proptest::collection::vec(0u8..6, 256),
            draws in proptest::collection::vec(0u32..64, 256)
        ) {
            let mut queue = EventQueue::new();
            let mut reference: Vec<(f64, u64, usize)> = Vec::new();
            let mut far_ms: f64 = 1.0e6;
            let mut last_ms: f64 = 0.0;
            let first = |pending: &[(f64, u64, usize)]| {
                (0..pending.len()).min_by(|&a, &b| {
                    pending[a].0.total_cmp(&pending[b].0).then(pending[a].1.cmp(&pending[b].1))
                })
            };
            for (op, (&kind, &draw)) in kinds.iter().zip(&draws).enumerate() {
                let now = queue.now_ms();
                let time_ms = match kind {
                    0 | 1 => None,
                    2 => {
                        // Monotone far future; a zero step repeats the tail.
                        far_ms = far_ms.max(now) + f64::from(draw % 4) * 125.0;
                        Some(far_ms)
                    }
                    3 => Some(now + f64::from(draw) * 0.5),
                    4 => Some(now),
                    _ => Some(last_ms.max(now)),
                };
                match time_ms {
                    Some(time_ms) => {
                        let seq = queue.schedule(time_ms, op);
                        reference.push((time_ms, seq, op));
                        last_ms = time_ms;
                    }
                    None => {
                        let expected = first(&reference).map(|i| reference.remove(i));
                        let popped = queue.pop().map(|s| (s.time_ms, s.seq, s.event));
                        prop_assert_eq!(popped, expected);
                    }
                }
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.is_empty(), reference.is_empty());
                prop_assert_eq!(queue.peek_time_ms(), first(&reference).map(|i| reference[i].0));
            }
            while let Some(i) = first(&reference) {
                let expected = reference.remove(i);
                let popped = queue.pop().map(|s| (s.time_ms, s.seq, s.event));
                prop_assert_eq!(popped, Some(expected));
            }
            prop_assert!(queue.pop().is_none());
        }
    }
}
