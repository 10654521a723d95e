//! Batch scheduling of inference requests — transport- and clock-agnostic.
//!
//! A [`BatchScheduler`] is a pure `event in → actions out` core: requests go
//! in via [`push`](BatchScheduler::push), batches come out via
//! [`pop_batch_into`](BatchScheduler::pop_batch_into), and the *caller* owns
//! the clock (`now_ms` is a parameter, never read from a timer).  The
//! server pool ([`crate::fleet::ServerPool`]) builds one queue per server
//! from [`SchedulerKind::build`], and both fleet drivers reach the queues
//! only through it: the deterministic DES engine feeding simulated
//! milliseconds, and the live `corki-serve` coordinator feeding wall-clock
//! milliseconds measured since the run epoch.
//!
//! There are two queues behind the three disciplines: the max-batch/timeout
//! batcher (Clipper-style dynamic batching), which also serves `fifo` as the
//! batcher of one, and the shortest-trajectory-first heap.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How requests waiting at one inference server are released as batches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum SchedulerKind {
    /// Serve one request at a time, in arrival order.
    Fifo,
    /// Dynamic batching: release as soon as `max_batch` requests are queued,
    /// or when the oldest request has waited `timeout_ms`.
    DynamicBatch {
        /// Largest batch the server will form.
        max_batch: usize,
        /// Longest a request may wait for co-batched requests.
        timeout_ms: f64,
    },
    /// Serve one request at a time, shortest planned trajectory first
    /// (shortest-job-first arbitration for mixed fleets).
    ShortestTrajectoryFirst,
}

impl SchedulerKind {
    /// Builds the scheduler implementation.  FIFO service is the dynamic
    /// batcher with a batch size of one: it releases each request the
    /// moment it is queued, in arrival order.
    pub fn build(&self) -> Box<dyn BatchScheduler> {
        match *self {
            SchedulerKind::Fifo => Box::new(DynamicBatchScheduler::new(1, 0.0)),
            SchedulerKind::DynamicBatch { max_batch, timeout_ms } => {
                Box::new(DynamicBatchScheduler::new(max_batch, timeout_ms))
            }
            SchedulerKind::ShortestTrajectoryFirst => {
                Box::new(ShortestTrajectoryFirstScheduler::default())
            }
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    /// The stable short name used in result tables: `fifo`,
    /// `batch<max>-<timeout>ms` or `stf`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Fifo => f.write_str("fifo"),
            SchedulerKind::DynamicBatch { max_batch, timeout_ms } => {
                // Integral timeouts keep the historical `batch8-15ms` form;
                // fractional ones print exactly so two distinct schedulers
                // never share a label.
                if timeout_ms.fract() == 0.0 {
                    write!(f, "batch{max_batch}-{timeout_ms:.0}ms")
                } else {
                    write!(f, "batch{max_batch}-{timeout_ms}ms")
                }
            }
            SchedulerKind::ShortestTrajectoryFirst => f.write_str("stf"),
        }
    }
}

/// One inference request waiting at (or being served by) a server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingRequest {
    /// Index of the requesting robot.
    pub robot: usize,
    /// When the request reached the server (upload complete), ms.
    pub arrival_ms: f64,
    /// Unbatched service time of this request *on the server it was routed
    /// to*, ms.
    pub service_ms: f64,
    /// Control steps the returned trajectory will execute.
    pub planned_steps: usize,
    /// Arrival sequence number (deterministic tie-breaker).
    pub seq: u64,
    /// The robot-local attempt that produced this request.  A robot that
    /// times out abandons the attempt; a response carrying a stale attempt
    /// id is ignored (the server still paid the service time).
    pub attempt: u64,
}

/// Decides when queued inference requests are released as a batch.
///
/// The driver calls [`push`](BatchScheduler::push) on every arrival and
/// [`pop_batch_into`](BatchScheduler::pop_batch_into) whenever the server
/// goes idle; a scheduler that holds requests back (e.g. waiting for a batch
/// to fill) reports the release deadline via
/// [`next_release_ms`](BatchScheduler::next_release_ms) so the driver can
/// schedule a wake-up (a DES event, or a poll deadline in the live path).
pub trait BatchScheduler: std::fmt::Debug {
    /// Accepts a newly arrived request.
    fn push(&mut self, request: PendingRequest);
    /// Fills `out` (cleared first) with the batch to serve now, or leaves it
    /// empty to keep waiting.  The caller owns `out`, so the engine's
    /// dispatch loop recycles batch allocations.
    fn pop_batch_into(&mut self, now_ms: f64, out: &mut Vec<PendingRequest>);
    /// The earliest time a held-back batch would be released without new
    /// arrivals (None when the scheduler never holds requests back).
    fn next_release_ms(&self) -> Option<f64>;
    /// Number of queued requests.
    fn pending(&self) -> usize;
    /// Forgets every queued request but keeps the queue's storage (a crashed
    /// server drops its queue; the abandoned robots recover via their
    /// timeouts).
    fn clear(&mut self);
}

/// Max-batch / timeout dynamic batching (the classic serving trade-off:
/// larger batches amortise the forward pass, the timeout bounds how long a
/// lone request waits for company).  With `max_batch` 1 it is FIFO
/// service: the size check comes first, so every queued request is
/// released at once and the timeout is never consulted.
#[derive(Debug)]
struct DynamicBatchScheduler {
    max_batch: usize,
    timeout_ms: f64,
    queue: VecDeque<PendingRequest>,
}

impl DynamicBatchScheduler {
    /// Creates a scheduler with the given knobs (`max_batch` is clamped to
    /// at least 1).
    fn new(max_batch: usize, timeout_ms: f64) -> Self {
        DynamicBatchScheduler { max_batch: max_batch.max(1), timeout_ms, queue: VecDeque::new() }
    }
}

impl BatchScheduler for DynamicBatchScheduler {
    fn push(&mut self, request: PendingRequest) {
        self.queue.push_back(request);
    }

    fn pop_batch_into(&mut self, now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        let Some(oldest) = self.queue.front() else { return };
        if self.queue.len() >= self.max_batch || oldest.arrival_ms + self.timeout_ms <= now_ms {
            let take = self.queue.len().min(self.max_batch);
            out.extend(self.queue.drain(..take));
        }
    }

    fn next_release_ms(&self) -> Option<f64> {
        self.queue.front().map(|oldest| oldest.arrival_ms + self.timeout_ms)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

/// Shortest-trajectory-first arbitration: requests whose plans cover fewer
/// control steps (robots that will be back soonest) are served first, one
/// at a time.
///
/// The queue is a binary heap keyed on `(planned_steps, seq, push index)`,
/// so a push and a pop each cost O(log n) in the queue depth.  Ties on
/// `(planned_steps, seq)` go to the earliest-pushed request, even when a
/// caller repeats `seq`.
#[derive(Debug, Default)]
struct ShortestTrajectoryFirstScheduler {
    heap: BinaryHeap<Queued>,
    pushes: u64,
}

/// A request waiting in the STF heap, with the push index that breaks ties.
#[derive(Debug)]
struct Queued {
    request: PendingRequest,
    index: u64,
}

impl Queued {
    fn key(&self) -> (usize, u64, u64) {
        (self.request.planned_steps, self.request.seq, self.index)
    }
}

/// Reversed, so `BinaryHeap` (a max-heap) pops the smallest key first.
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

impl BatchScheduler for ShortestTrajectoryFirstScheduler {
    fn push(&mut self, request: PendingRequest) {
        self.heap.push(Queued { request, index: self.pushes });
        self.pushes += 1;
    }

    fn pop_batch_into(&mut self, _now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        out.extend(self.heap.pop().map(|queued| queued.request));
    }

    fn next_release_ms(&self) -> Option<f64> {
        None
    }

    fn pending(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn request(robot: usize, planned_steps: usize, seq: u64) -> PendingRequest {
        PendingRequest { robot, arrival_ms: 0.0, service_ms: 1.0, planned_steps, seq, attempt: 0 }
    }

    #[test]
    fn a_crashed_server_forgets_its_queue() {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 5.0 },
            SchedulerKind::ShortestTrajectoryFirst,
        ] {
            let mut scheduler = kind.build();
            for robot in 0..6 {
                scheduler.push(request(robot, 5 - robot % 3, robot as u64));
            }
            assert_eq!(scheduler.pending(), 6, "{kind}");
            scheduler.clear();
            assert_eq!(scheduler.pending(), 0, "{kind}");
            assert_eq!(scheduler.next_release_ms(), None, "{kind}");
            let mut batch = vec![request(99, 1, 99)];
            scheduler.pop_batch_into(1.0e9, &mut batch);
            assert!(batch.is_empty(), "{kind}: a cleared queue releases nothing");
        }
    }

    // FIFO is the batcher of one, checked against a plain `VecDeque`: each
    // pop releases at most the oldest request.  Every pop happens before
    // the popped request's arrival stamp, so only the size check (never the
    // timeout) can release it.
    proptest! {
        #[test]
        fn fifo_pops_match_a_vecdeque(
            ops in proptest::collection::vec((0u8..32, 0usize..3), 256)
        ) {
            let mut scheduler = SchedulerKind::Fifo.build();
            let mut reference: VecDeque<PendingRequest> = VecDeque::new();
            let mut batch = Vec::new();
            for (robot, &(op, steps)) in ops.iter().enumerate() {
                match op {
                    0..=15 => {
                        let pushed = PendingRequest {
                            arrival_ms: 1.0e6 + robot as f64,
                            ..request(robot, [1, 5, 9][steps], robot as u64)
                        };
                        scheduler.push(pushed);
                        reference.push_back(pushed);
                    }
                    31 => {
                        scheduler.clear();
                        reference.clear();
                    }
                    _ => {
                        scheduler.pop_batch_into(robot as f64, &mut batch);
                        prop_assert!(batch.len() <= 1);
                        prop_assert_eq!(batch.first().copied(), reference.pop_front());
                    }
                }
                prop_assert_eq!(scheduler.pending(), reference.len());
                if reference.is_empty() {
                    prop_assert_eq!(scheduler.next_release_ms(), None);
                }
            }
        }
    }

    // The heap pops exactly what the old linear scan did:
    // `min_by_key((planned_steps, seq))` over the queue in push order (the
    // earliest-pushed minimum wins), then `Vec::remove`.
    proptest! {
        #[test]
        fn stf_pops_match_the_linear_scan_rule(
            ops in proptest::collection::vec((0u8..32, 0usize..3, 0u8..8), 256)
        ) {
            let mut scheduler = ShortestTrajectoryFirstScheduler::default();
            let mut reference: Vec<PendingRequest> = Vec::new();
            let mut seq = 0u64;
            let mut batch = Vec::new();
            for (robot, &(op, steps, seq_draw)) in ops.iter().enumerate() {
                match op {
                    // Push: few distinct step counts (many ties), and a
                    // repeated `seq` one time in eight.
                    0..=17 => {
                        if seq_draw != 0 {
                            seq += 1;
                        }
                        let pushed = request(robot, [1, 5, 9][steps], seq);
                        scheduler.push(pushed);
                        reference.push(pushed);
                    }
                    31 => {
                        scheduler.clear();
                        reference.clear();
                    }
                    _ => {
                        scheduler.pop_batch_into(robot as f64, &mut batch);
                        let expected = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, r)| (r.planned_steps, r.seq))
                            .map(|(i, _)| i)
                            .map(|best| reference.remove(best));
                        prop_assert_eq!(batch.first().copied(), expected);
                        prop_assert!(batch.len() <= 1);
                    }
                }
                prop_assert_eq!(scheduler.pending(), reference.len());
            }
        }
    }
}
