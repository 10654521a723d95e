//! Batch scheduling of inference requests — transport- and clock-agnostic.
//!
//! A [`BatchScheduler`] is a pure `event in → actions out` core: requests go
//! in via [`push`](BatchScheduler::push), batches come out via
//! [`pop_batch_into`](BatchScheduler::pop_batch_into), and the *caller* owns
//! the clock (`now_ms` is a parameter, never read from a timer).  The same
//! scheduler objects therefore serve two drivers: the deterministic DES
//! engine of [`crate::fleet::FleetSimulator`], which feeds simulated
//! milliseconds, and the live `corki-serve` coordinator, which feeds
//! wall-clock milliseconds measured since the run epoch.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use super::server::ServerConfig;

/// How requests waiting at one inference server are released as batches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// A stable short name used in result tables (same as
    /// [`Display`](std::fmt::Display)): `fifo`, `batch<max>-<timeout>ms` or
    /// `stf`.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Builds the scheduler implementation.
    pub fn build(&self) -> Box<dyn BatchScheduler> {
        match *self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::default()),
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
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Fifo => f.write_str("fifo"),
            SchedulerKind::DynamicBatch { max_batch, timeout_ms } => {
                // Integral timeouts keep the historical `batch8-15ms` form;
                // fractional ones print exactly so two distinct schedulers
                // never share a label (and the label parses back losslessly).
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

/// Error produced when parsing an unknown batch-scheduler label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchedulerKindError(pub(crate) String);

impl std::fmt::Display for ParseSchedulerKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown batch scheduler `{}` (expected fifo, stf or batch<max>-<timeout>ms)",
            self.0
        )
    }
}

impl std::error::Error for ParseSchedulerKindError {}

impl std::str::FromStr for SchedulerKind {
    type Err = ParseSchedulerKindError;

    /// Parses the canonical table labels case-insensitively: `fifo`, `stf`
    /// (or `shortest-trajectory-first`) and `batch<max>-<timeout>ms`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase();
        match normalized.as_str() {
            "fifo" => return Ok(SchedulerKind::Fifo),
            "stf" | "shortest-trajectory-first" | "shortesttrajectoryfirst" => {
                return Ok(SchedulerKind::ShortestTrajectoryFirst)
            }
            _ => {}
        }
        let parse_batch = || {
            let body = normalized.strip_prefix("batch")?.strip_suffix("ms")?;
            let (max_batch, timeout) = body.split_once('-')?;
            let max_batch: usize = max_batch.parse().ok()?;
            let timeout_ms: f64 = timeout.parse().ok()?;
            (max_batch >= 1 && timeout_ms.is_finite() && timeout_ms >= 0.0)
                .then_some(SchedulerKind::DynamicBatch { max_batch, timeout_ms })
        };
        parse_batch().ok_or_else(|| ParseSchedulerKindError(s.to_owned()))
    }
}

/// The batching disciplines of a whole server pool, with the canonical
/// label grammar used by every summary table: a uniform pool prints the
/// single shared [`SchedulerKind`] name, a mixed pool prints the `+`-joined
/// per-server names (`fifo+stf`).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSchedule(Vec<SchedulerKind>);

impl PoolSchedule {
    /// Wraps per-server disciplines into a pool schedule.
    ///
    /// # Panics
    ///
    /// Panics on an empty list — a pool always has at least one server.
    pub fn new(schedulers: Vec<SchedulerKind>) -> Self {
        assert!(!schedulers.is_empty(), "a pool schedule needs at least one scheduler");
        PoolSchedule(schedulers)
    }

    /// The schedule of an existing server pool.
    pub fn of_servers(servers: &[ServerConfig]) -> Self {
        PoolSchedule::new(servers.iter().map(|s| s.scheduler).collect())
    }

    /// Whether every server runs the same discipline.
    pub fn is_uniform(&self) -> bool {
        self.0.iter().all(|s| *s == self.0[0])
    }
}

impl std::fmt::Display for PoolSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_uniform() {
            return write!(f, "{}", self.0[0]);
        }
        for (index, scheduler) in self.0.iter().enumerate() {
            if index > 0 {
                f.write_str("+")?;
            }
            write!(f, "{scheduler}")?;
        }
        Ok(())
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

/// One-at-a-time FIFO service.
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<PendingRequest>,
}

impl BatchScheduler for FifoScheduler {
    fn push(&mut self, request: PendingRequest) {
        self.queue.push_back(request);
    }

    fn pop_batch_into(&mut self, _now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        out.extend(self.queue.pop_front());
    }

    fn next_release_ms(&self) -> Option<f64> {
        None
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

/// Max-batch / timeout dynamic batching (the classic serving trade-off:
/// larger batches amortise the forward pass, the timeout bounds how long a
/// lone request waits for company).
#[derive(Debug)]
pub struct DynamicBatchScheduler {
    max_batch: usize,
    timeout_ms: f64,
    queue: VecDeque<PendingRequest>,
}

impl DynamicBatchScheduler {
    /// Creates a scheduler with the given knobs (`max_batch` is clamped to
    /// at least 1).
    pub fn new(max_batch: usize, timeout_ms: f64) -> Self {
        DynamicBatchScheduler { max_batch: max_batch.max(1), timeout_ms, queue: VecDeque::new() }
    }
}

impl BatchScheduler for DynamicBatchScheduler {
    fn push(&mut self, request: PendingRequest) {
        self.queue.push_back(request);
    }

    fn pop_batch_into(&mut self, now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        let ready_by_size = self.queue.len() >= self.max_batch;
        let ready_by_timeout =
            self.queue.front().is_some_and(|oldest| oldest.arrival_ms + self.timeout_ms <= now_ms);
        if ready_by_size || ready_by_timeout {
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
pub struct ShortestTrajectoryFirstScheduler {
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
