//! Batch scheduling of inference requests — transport- and clock-agnostic.
//!
//! A [`BatchScheduler`] is a pure `event in → actions out` core: requests go
//! in via [`push`](BatchScheduler::push), batches come out via
//! [`pop_batch`](BatchScheduler::pop_batch), and the *caller* owns the clock
//! (`now_ms` is a parameter, never read from a timer).  The same scheduler
//! objects therefore serve two drivers: the deterministic DES engine of
//! [`crate::fleet::FleetSimulator`], which feeds simulated milliseconds, and
//! the live `corki-serve` coordinator, which feeds wall-clock milliseconds
//! measured since the run epoch.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
/// [`pop_batch`](BatchScheduler::pop_batch) whenever the server goes idle;
/// a scheduler that holds requests back (e.g. waiting for a batch to fill)
/// reports the release deadline via
/// [`next_release_ms`](BatchScheduler::next_release_ms) so the driver can
/// schedule a wake-up (a DES event, or a poll deadline in the live path).
pub trait BatchScheduler: std::fmt::Debug {
    /// Accepts a newly arrived request.
    fn push(&mut self, request: PendingRequest);
    /// Releases the batch to serve now, or an empty vector to keep waiting.
    fn pop_batch(&mut self, now_ms: f64) -> Vec<PendingRequest>;
    /// Like [`pop_batch`](BatchScheduler::pop_batch), but fills a
    /// caller-provided buffer (cleared first) so the engine's dispatch loop
    /// can recycle batch allocations.  The default delegates to
    /// `pop_batch`; the built-in schedulers override it to fill `out`
    /// directly.
    fn pop_batch_into(&mut self, now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        out.append(&mut self.pop_batch(now_ms));
    }
    /// The earliest time a held-back batch would be released without new
    /// arrivals (None when the scheduler never holds requests back).
    fn next_release_ms(&self) -> Option<f64>;
    /// Number of queued requests.
    fn pending(&self) -> usize;
    /// Removes and returns every queued request (a crashed server drops its
    /// queue; the abandoned robots recover via their timeouts).
    fn drain(&mut self) -> Vec<PendingRequest>;
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

    fn pop_batch(&mut self, _now_ms: f64) -> Vec<PendingRequest> {
        self.queue.pop_front().into_iter().collect()
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

    fn drain(&mut self) -> Vec<PendingRequest> {
        self.queue.drain(..).collect()
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

    fn pop_batch(&mut self, now_ms: f64) -> Vec<PendingRequest> {
        let ready_by_size = self.queue.len() >= self.max_batch;
        let ready_by_timeout =
            self.queue.front().is_some_and(|oldest| oldest.arrival_ms + self.timeout_ms <= now_ms);
        if ready_by_size || ready_by_timeout {
            let take = self.queue.len().min(self.max_batch);
            self.queue.drain(..take).collect()
        } else {
            Vec::new()
        }
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

    fn drain(&mut self) -> Vec<PendingRequest> {
        self.queue.drain(..).collect()
    }
}

/// Shortest-trajectory-first arbitration: requests whose plans cover fewer
/// control steps (robots that will be back soonest) are served first.
#[derive(Debug, Default)]
pub struct ShortestTrajectoryFirstScheduler {
    queue: Vec<PendingRequest>,
}

impl BatchScheduler for ShortestTrajectoryFirstScheduler {
    fn push(&mut self, request: PendingRequest) {
        self.queue.push(request);
    }

    fn pop_batch(&mut self, _now_ms: f64) -> Vec<PendingRequest> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.planned_steps, r.seq))
            .map(|(i, _)| i)
            .expect("queue is non-empty");
        vec![self.queue.remove(best)]
    }

    fn pop_batch_into(&mut self, _now_ms: f64, out: &mut Vec<PendingRequest>) {
        out.clear();
        if let Some(best) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.planned_steps, r.seq))
            .map(|(i, _)| i)
        {
            out.push(self.queue.remove(best));
        }
    }

    fn next_release_ms(&self) -> Option<f64> {
        None
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn drain(&mut self) -> Vec<PendingRequest> {
        std::mem::take(&mut self.queue)
    }
}
