//! The inference-server pool: pool configuration, the batch service-time
//! model, and [`ServerPool`], the one clock-agnostic serving core both
//! fleet drivers run.

use crate::devices::InferenceModel;
use crate::routing::{Router, RoutingPolicy, ServerSnapshot};
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
/// request.
fn batch_service_ms(base_ms: f64, batch_len: usize) -> f64 {
    base_ms * (1.0 + BATCH_OVERHEAD * (batch_len as f64 - 1.0))
}

/// Per-server runtime state.
struct ServerState {
    config: ServerConfig,
    scheduler: Box<dyn BatchScheduler>,
    /// The batch in service; empty while the server is idle.
    batch: Vec<PendingRequest>,
    busy_since_ms: f64,
    busy_ms: f64,
    /// Timestamp of the latest busy-time accrual.
    busy_until_ms: f64,
    /// Health flag: crashed servers take no arrivals and dispatch nothing.
    up: bool,
    /// Incarnation counter, bumped on every crash.
    epoch: u64,
}

impl ServerState {
    /// Whether a batch is in service.
    fn busy(&self) -> bool {
        !self.batch.is_empty()
    }

    /// Queued plus in-service requests, as seen by the router.
    fn depth(&self) -> usize {
        self.scheduler.pending() + self.batch.len()
    }
}

/// The server pool both fleet drivers serve from, with the caller owning
/// the clock: a driver [`admit`](Self::admit)s each request, lets idle
/// servers [`dispatch`](Self::dispatch) (form and price a batch), and ends
/// a batch with [`complete`](Self::complete) and [`recycle`](Self::recycle),
/// which reuses its buffer, so the steady state allocates nothing.
pub struct ServerPool {
    servers: Vec<ServerState>,
    router: Router,
    /// Servers currently down; routing reads no server state while zero.
    down: usize,
    /// Sequence number of the next arrival (the STF tie-breaker).
    seq: u64,
    /// Recycled batch buffers, at most one per server.
    spare: Vec<Vec<PendingRequest>>,
}

impl ServerPool {
    /// An idle, healthy pool of `servers` routed by `routing`.
    pub fn new(servers: &[ServerConfig], routing: RoutingPolicy) -> Self {
        let servers = servers
            .iter()
            .map(|&config| ServerState {
                config,
                scheduler: config.scheduler.build(),
                batch: Vec::new(),
                busy_since_ms: 0.0,
                busy_ms: 0.0,
                busy_until_ms: 0.0,
                up: true,
                epoch: 0,
            })
            .collect();
        ServerPool { servers, router: Router::new(routing), down: 0, seq: 0, spare: Vec::new() }
    }

    /// Routes a request that reached the pool at `now_ms` and queues it;
    /// returns its server, or `None` when every server is down.  A healthy
    /// pool routes blind where the policy allows it; otherwise every
    /// policy routes around the dead servers.
    pub fn admit(
        &mut self,
        now_ms: f64,
        robot: usize,
        attempt: u64,
        planned_steps: usize,
        wants_trajectory: bool,
    ) -> Option<usize> {
        let pool_size = self.servers.len();
        let blind = if self.down == 0 { self.router.try_route_blind(pool_size) } else { None };
        let target = match blind {
            Some(target) => target,
            None if self.down == pool_size => return None,
            None => {
                let servers = &self.servers;
                self.router.route_by(pool_size, |i| ServerSnapshot {
                    queue_depth: servers[i].depth(),
                    service_ms: servers[i].config.service_ms(wants_trajectory),
                    up: servers[i].up,
                })
            }
        };
        let server = &mut self.servers[target];
        server.scheduler.push(PendingRequest {
            robot,
            arrival_ms: now_ms,
            service_ms: server.config.service_ms(wants_trajectory),
            planned_steps,
            seq: self.seq,
            attempt,
        });
        self.seq += 1;
        Some(target)
    }

    /// Starts a batch on an idle, healthy `server` if its scheduler
    /// releases one at `now_ms`; returns the batch and its service time,
    /// ms: the batched cost of its slowest member.  `None` leaves the
    /// server as it was (busy, down, or holding its queue).
    pub fn dispatch(&mut self, server: usize, now_ms: f64) -> Option<(f64, &[PendingRequest])> {
        let state = &mut self.servers[server];
        if state.busy() || !state.up {
            return None;
        }
        let mut batch = self.spare.pop().unwrap_or_default();
        state.scheduler.pop_batch_into(now_ms, &mut batch);
        if batch.is_empty() {
            self.spare.push(batch);
            return None;
        }
        let base_ms = batch.iter().map(|r| r.service_ms).fold(0.0_f64, f64::max);
        let service_ms = batch_service_ms(base_ms, batch.len());
        state.batch = batch;
        state.busy_since_ms = now_ms;
        Some((service_ms, &state.batch))
    }

    /// Ends and returns the batch in service on `server` at `now_ms`, busy
    /// since `started_ms` if the driver measured it (a live worker's pop),
    /// else since the dispatch.  Hand it back through `recycle`.
    pub fn complete(
        &mut self,
        server: usize,
        started_ms: Option<f64>,
        now_ms: f64,
    ) -> Vec<PendingRequest> {
        let state = &mut self.servers[server];
        state.busy_ms += now_ms - started_ms.unwrap_or(state.busy_since_ms);
        state.busy_until_ms = now_ms;
        std::mem::take(&mut state.batch)
    }

    /// Returns a completed batch's buffer for reuse.
    pub fn recycle(&mut self, mut batch: Vec<PendingRequest>) {
        batch.clear();
        self.spare.push(batch);
    }

    /// When an idle, healthy `server`'s held-back batch is released
    /// without new arrivals, ms.
    pub fn next_release_ms(&self, server: usize) -> Option<f64> {
        let state = &self.servers[server];
        if state.busy() || !state.up {
            return None;
        }
        state.scheduler.next_release_ms()
    }

    /// Whether no request is queued or in service anywhere in the pool.
    pub fn is_idle(&self) -> bool {
        self.servers.iter().all(|s| s.depth() == 0)
    }

    /// Busy fraction of the whole pool and of each server, over the longer
    /// of `makespan_ms` and the last busy-time accrual (a pool can burn
    /// abandoned work after the last robot finishes).
    pub fn utilization(&self, makespan_ms: f64) -> (f64, Vec<f64>) {
        let horizon_ms = self.servers.iter().map(|s| s.busy_until_ms).fold(makespan_ms, f64::max);
        if horizon_ms <= 0.0 {
            return (0.0, vec![0.0; self.servers.len()]);
        }
        let busy_ms: f64 = self.servers.iter().map(|s| s.busy_ms).sum();
        (
            busy_ms / (horizon_ms * self.servers.len() as f64),
            self.servers.iter().map(|s| s.busy_ms / horizon_ms).collect(),
        )
    }

    /// Requests queued or in service across the pool.
    pub(crate) fn depth(&self) -> usize {
        self.servers.iter().map(ServerState::depth).sum()
    }

    /// The incarnation of `server`, which a crash bumps.
    pub(crate) fn epoch(&self, server: usize) -> u64 {
        self.servers[server].epoch
    }

    /// An injected crash at `now_ms`: the batch in service is aborted, the
    /// queue dropped and the epoch bumped.
    pub(crate) fn crash(&mut self, server: usize, now_ms: f64) {
        if self.servers[server].busy() {
            let aborted = self.complete(server, None, now_ms);
            self.recycle(aborted);
        }
        let state = &mut self.servers[server];
        state.scheduler.clear();
        state.epoch += 1;
        self.set_up(server, false);
    }

    /// The crashed `server` comes back empty and healthy.
    pub(crate) fn recover(&mut self, server: usize) {
        self.set_up(server, true);
    }

    fn set_up(&mut self, server: usize, up: bool) {
        self.servers[server].up = up;
        self.down = self.servers.iter().filter(|s| !s.up).count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DataRepresentation, InferenceDevice};

    fn v100() -> InferenceModel {
        InferenceModel::new(InferenceDevice::V100, DataRepresentation::Float32)
    }

    fn pool(servers: usize, scheduler: SchedulerKind, routing: RoutingPolicy) -> ServerPool {
        ServerPool::new(&vec![ServerConfig::new(v100(), scheduler); servers], routing)
    }

    fn service(pool: &mut ServerPool, server: usize, now_ms: f64) -> Option<(f64, usize)> {
        pool.dispatch(server, now_ms).map(|(service_ms, batch)| (service_ms, batch.len()))
    }

    const BATCH2: SchedulerKind = SchedulerKind::DynamicBatch { max_batch: 2, timeout_ms: 100.0 };

    #[test]
    fn depth_counts_queued_plus_in_service_requests() {
        let mut pool = pool(1, BATCH2, RoutingPolicy::RoundRobin);
        for robot in 0..3 {
            assert_eq!(pool.admit(0.0, robot, 1, 5, true), Some(0));
        }
        assert_eq!(pool.depth(), 3);
        assert_eq!(service(&mut pool, 0, 0.0).map(|(_, len)| len), Some(2));
        assert_eq!(pool.depth(), 3, "two in service plus one queued");
        assert!(!pool.is_idle());
    }

    #[test]
    fn dispatch_prices_the_batch_from_its_slowest_member() {
        let mut pool = pool(1, BATCH2, RoutingPolicy::RoundRobin);
        pool.admit(0.0, 0, 1, 1, false);
        pool.admit(0.0, 1, 1, 5, true);
        let config = ServerConfig::new(v100(), BATCH2);
        let slowest = config.service_ms(true).max(config.service_ms(false));
        assert!(config.service_ms(true) != config.service_ms(false));
        assert_eq!(service(&mut pool, 0, 3.0), Some((slowest * (1.0 + BATCH_OVERHEAD), 2)));
        assert_eq!(service(&mut pool, 0, 4.0), None, "a busy server starts nothing");
    }

    #[test]
    fn complete_returns_the_batch_and_adds_to_the_busy_time() {
        let mut pool = pool(1, SchedulerKind::Fifo, RoutingPolicy::RoundRobin);
        pool.admit(0.0, 7, 3, 5, true);
        assert!(service(&mut pool, 0, 10.0).is_some());
        let batch = pool.complete(0, None, 40.0);
        assert_eq!((batch.len(), batch[0].robot, batch[0].attempt), (1, 7, 3));
        pool.recycle(batch);
        assert!(pool.is_idle());
        assert_eq!(pool.utilization(40.0), (0.75, vec![0.75]), "busy from dispatch at 10");
        // A measured start (a live worker's pop) replaces the dispatch.
        pool.admit(40.0, 7, 4, 5, true);
        assert!(service(&mut pool, 0, 40.0).is_some());
        pool.complete(0, Some(70.0), 80.0);
        assert_eq!(pool.utilization(80.0).0, 40.0 / 80.0);
    }

    #[test]
    fn a_crashed_pool_routes_nowhere() {
        let mut pool = pool(2, SchedulerKind::Fifo, RoutingPolicy::LeastQueueDepth);
        pool.crash(0, 5.0);
        assert_eq!(pool.admit(5.0, 0, 1, 5, true), Some(1), "route around the dead server");
        pool.crash(1, 6.0);
        assert_eq!(pool.depth(), 0, "a crash drops the queue");
        assert_eq!(pool.admit(6.0, 1, 1, 5, true), None);
        assert_eq!(service(&mut pool, 1, 7.0), None, "a down server dispatches nothing");
        pool.recover(0);
        assert_eq!(pool.admit(8.0, 1, 2, 5, true), Some(0));
    }
}
