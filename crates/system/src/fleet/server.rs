//! Inference-server state: pool configuration, the batch service-time
//! model and the per-server runtime bookkeeping.
//!
//! Like the session core, the server core is clock-agnostic: the batching
//! decision lives in [`super::scheduler`], the service-time model is the
//! pure [`batch_service_ms`] function, and the runtime `ServerState` only
//! records what the driver (DES engine or live coordinator) tells it.

use crate::devices::InferenceModel;
use serde::{Deserialize, Serialize};

use super::scheduler::{BatchScheduler, PendingRequest, SchedulerKind};

/// One inference server of the pool: its own device/precision model and its
/// own batching discipline in front of its own queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerConfig {
    /// Device/precision model this server runs inference on.
    pub inference: InferenceModel,
    /// How this server batches queued requests.
    pub scheduler: SchedulerKind,
}

impl ServerConfig {
    /// Creates a server.
    pub fn new(inference: InferenceModel, scheduler: SchedulerKind) -> Self {
        ServerConfig { inference, scheduler }
    }

    /// Unbatched service time of one request on this server, ms.
    pub fn service_ms(&self, wants_trajectory: bool) -> f64 {
        if wants_trajectory {
            self.inference.trajectory_latency_ms()
        } else {
            self.inference.action_latency_ms()
        }
    }

    /// Energy of serving one request on this server, joules.
    pub fn inference_energy_j(&self, wants_trajectory: bool) -> f64 {
        if wants_trajectory {
            self.inference.trajectory_energy_j()
        } else {
            self.inference.action_energy_j()
        }
    }
}

/// Fractional extra service time per additional request in a batch.
const BATCH_OVERHEAD: f64 = 0.15;

/// Service time of a batch whose slowest member costs `base_ms` unbatched,
/// ms: a batch of n costs `1 + BATCH_OVERHEAD·(n−1)` times its slowest
/// request.  Shared by the DES dispatch path and the live coordinator so
/// both model the same batching economics.
pub fn batch_service_ms(base_ms: f64, batch_len: usize) -> f64 {
    base_ms * (1.0 + BATCH_OVERHEAD * (batch_len as f64 - 1.0))
}

/// Per-server runtime state.
pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) scheduler: Box<dyn BatchScheduler>,
    /// The batch in service; empty while the server is idle.
    pub(crate) batch: Vec<PendingRequest>,
    pub(crate) busy_since_ms: f64,
    pub(crate) busy_ms: f64,
    /// Timestamp of the latest busy-time accrual.  Under a timeout storm the
    /// pool keeps burning abandoned requests after the last robot finishes,
    /// so the utilization denominator must extend past the robot makespan.
    pub(crate) busy_until_ms: f64,
    pub(crate) next_wake_ms: Option<f64>,
    /// Health flag: crashed servers take no arrivals and dispatch nothing.
    pub(crate) up: bool,
    /// Incarnation counter, bumped on every crash; in-flight completions
    /// from an earlier incarnation are discarded.
    pub(crate) epoch: u64,
}

impl ServerState {
    pub(crate) fn new(config: ServerConfig) -> Self {
        ServerState {
            config,
            scheduler: config.scheduler.build(),
            batch: Vec::new(),
            busy_since_ms: 0.0,
            busy_ms: 0.0,
            busy_until_ms: 0.0,
            next_wake_ms: None,
            up: true,
            epoch: 0,
        }
    }

    /// Whether a batch is in service.
    pub(crate) fn busy(&self) -> bool {
        !self.batch.is_empty()
    }

    /// Queued plus in-flight requests, as seen by the router.
    pub(crate) fn depth(&self) -> usize {
        self.scheduler.pending() + self.batch.len()
    }
}
