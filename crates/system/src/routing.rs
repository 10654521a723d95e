//! Request routing across a pool of inference servers.
//!
//! With more than one [`crate::fleet::ServerConfig`] in a fleet, every
//! offloaded request must be placed on exactly one server the moment its
//! upload completes.  The [`Router`] makes that decision from an indexed
//! view of the pool (a [`ServerSnapshot`] per server index, produced on
//! demand by [`crate::fleet::ServerPool`]) under one of three policies:
//!
//! * [`RoutingPolicy::RoundRobin`] — cycle through the servers in arrival
//!   order.  Stateless with respect to the pool (the decision depends only
//!   on how many requests were routed before), so it is trivially
//!   independent of seeds, queue contents and device mixes.
//! * [`RoutingPolicy::LeastQueueDepth`] — place the request on the server
//!   with the fewest queued-or-in-flight requests (ties break towards the
//!   lower index).  The classic join-shortest-queue heuristic.
//! * [`RoutingPolicy::DeviceAffinity`] — place the request where its
//!   *estimated completion cost* is lowest: the request's unbatched service
//!   time on that server's device, scaled by how much work is already
//!   stacked there.  Because service times differ per request class
//!   (single-action baseline vs trajectory inference) and per device,
//!   request classes develop an affinity to the devices that serve them
//!   cheapest — a V100 soaks up latency-critical work while a slow Jetson
//!   class server only attracts requests once the fast queues grow deep.
//!
//! Routing is fully deterministic: no randomness, ties broken by server
//! index, so fleet runs stay byte-identical across repeats and worker
//! counts.  It is also allocation-free: [`Router::route_by`] scans the view
//! in place, and the server pool both fleet drivers share routes every
//! request through it (after [`Router::try_route_blind`], which needs no
//! view at all).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// How offloaded inference requests are spread over the server pool.
///
/// Serializes as its canonical table name (`"round-robin"`, …) and
/// deserializes through [`FromStr`], aliases included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Cycle through servers in arrival order.
    RoundRobin,
    /// Join the server with the fewest queued-or-in-flight requests.
    LeastQueueDepth,
    /// Join the server with the lowest estimated completion cost for this
    /// request (service time on that device × stacked work).
    DeviceAffinity,
}

impl RoutingPolicy {
    /// Every policy, in documentation order.
    pub const ALL: [RoutingPolicy; 3] =
        [RoutingPolicy::RoundRobin, RoutingPolicy::LeastQueueDepth, RoutingPolicy::DeviceAffinity];

    /// A stable short name used in result tables and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastQueueDepth => "least-queue-depth",
            RoutingPolicy::DeviceAffinity => "device-affinity",
        }
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing an unknown routing policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRoutingPolicyError(String);

impl fmt::Display for ParseRoutingPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown routing policy `{}` (expected round-robin, least-queue-depth or device-affinity)",
            self.0
        )
    }
}

impl std::error::Error for ParseRoutingPolicyError {}

impl FromStr for RoutingPolicy {
    type Err = ParseRoutingPolicyError;

    /// Parses a policy name case-insensitively; separators (`-`, `_`,
    /// spaces) are ignored and the short aliases `rr`, `lqd` and `affinity`
    /// are accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match crate::devices::normalize(s).as_str() {
            "roundrobin" | "rr" => Ok(RoutingPolicy::RoundRobin),
            "leastqueuedepth" | "lqd" => Ok(RoutingPolicy::LeastQueueDepth),
            "deviceaffinity" | "affinity" => Ok(RoutingPolicy::DeviceAffinity),
            _ => Err(ParseRoutingPolicyError(s.to_owned())),
        }
    }
}

impl Serialize for RoutingPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_owned())
    }
}

impl Deserialize for RoutingPolicy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name =
            value.as_str().ok_or_else(|| serde::Error::custom("expected routing policy name"))?;
        name.parse().map_err(serde::Error::custom)
    }
}

/// What the router sees of one server when placing a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServerSnapshot {
    /// Requests queued at the scheduler plus those in the batch currently
    /// being served.
    pub(crate) queue_depth: usize,
    /// Unbatched service time of the request being routed on *this* server's
    /// device (ms).
    pub(crate) service_ms: f64,
    /// Whether the server is currently up.  Crashed servers (injected by a
    /// [`crate::fleet::FaultPlan`]) advertise `up: false` and every policy
    /// routes around them as long as at least one healthy server remains.
    pub(crate) up: bool,
}

/// The routing decision engine: a policy plus the small amount of state the
/// policy needs (the round-robin cursor).
///
/// Two entry points share that state: [`Router::try_route_blind`] answers
/// without looking at the pool when the policy allows it, and
/// [`Router::route_by`] decides over an indexed view of the pool.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    policy: RoutingPolicy,
    round_robin_next: usize,
}

impl Router {
    /// Creates a router for the given policy.
    pub(crate) fn new(policy: RoutingPolicy) -> Self {
        Router { policy, round_robin_next: 0 }
    }

    /// Routes without looking at the pool, when the policy allows it:
    /// round-robin depends only on how many requests were routed before,
    /// and any single-server pool has exactly one answer.  Returns `None`
    /// when the policy needs to see the pool; callers then fall back to
    /// [`Router::route_by`], so the common cases never read server state.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero.
    pub(crate) fn try_route_blind(&mut self, pool_size: usize) -> Option<usize> {
        assert!(pool_size > 0, "cannot route across an empty server pool");
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let index = self.round_robin_next % pool_size;
                self.round_robin_next = (self.round_robin_next + 1) % pool_size;
                Some(index)
            }
            _ if pool_size == 1 => Some(0),
            _ => None,
        }
    }

    /// Picks the server for one request from an indexed view of the pool:
    /// `snapshot(i)` describes server `i` for `i in 0..pool_size`.
    ///
    /// Routing builds nothing on the heap: it filters health and scans the
    /// pool in place, so a caller passes a closure over its own server
    /// state instead of materialising a snapshot slice per request.
    /// `snapshot` may be called more than once per server.
    ///
    /// Crashed servers (`up: false`) are excluded from the decision as long
    /// as at least one healthy server remains; an all-down pool falls back
    /// to ignoring health (the engine never routes into an all-down pool —
    /// it lets the request time out instead — but the function stays total).
    /// Round-robin advances its cursor over the *healthy* subset, which
    /// degenerates to the classic full-pool cycle when nothing is down.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero — a fleet always has at least one
    /// server.
    pub(crate) fn route_by(
        &mut self,
        pool_size: usize,
        snapshot: impl Fn(usize) -> ServerSnapshot,
    ) -> usize {
        assert!(pool_size > 0, "cannot route across an empty server pool");
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let healthy = (0..pool_size).filter(|&i| snapshot(i).up).count();
                let candidates = if healthy == 0 { pool_size } else { healthy };
                let rank = self.round_robin_next % candidates;
                self.round_robin_next = (self.round_robin_next + 1) % candidates;
                (0..pool_size)
                    .filter(|&i| healthy == 0 || snapshot(i).up)
                    .nth(rank)
                    .expect("rank is below the candidate count")
            }
            RoutingPolicy::LeastQueueDepth => {
                lowest(pool_size, snapshot, |a, b| a.queue_depth < b.queue_depth)
            }
            RoutingPolicy::DeviceAffinity => lowest(pool_size, snapshot, |a, b| {
                affinity_cost(a).total_cmp(&affinity_cost(b)) == Ordering::Less
            }),
        }
    }
}

/// The index of the candidate server no other candidate is `better` than,
/// found in one pass over the pool.  The candidates are the healthy
/// servers, or the whole pool when none is up.  Only a strictly better
/// server displaces the incumbent, so ties go to the lower index.
fn lowest(
    pool_size: usize,
    snapshot: impl Fn(usize) -> ServerSnapshot,
    better: impl Fn(&ServerSnapshot, &ServerSnapshot) -> bool,
) -> usize {
    let mut best_up: Option<(usize, ServerSnapshot)> = None;
    let mut best_any: Option<(usize, ServerSnapshot)> = None;
    for index in 0..pool_size {
        let server = snapshot(index);
        if server.up && best_up.is_none_or(|(_, best)| better(&server, &best)) {
            best_up = Some((index, server));
        }
        if best_any.is_none_or(|(_, best)| better(&server, &best)) {
            best_any = Some((index, server));
        }
    }
    best_up.or(best_any).expect("pool is non-empty").0
}

/// Estimated completion cost of a request on one server: its service time on
/// that device scaled by the work already stacked there (queue plus the
/// request itself).
fn affinity_cost(snapshot: &ServerSnapshot) -> f64 {
    snapshot.service_ms * (snapshot.queue_depth + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snapshot(queue_depth: usize, service_ms: f64) -> ServerSnapshot {
        ServerSnapshot { queue_depth, service_ms, up: true }
    }

    fn down(queue_depth: usize, service_ms: f64) -> ServerSnapshot {
        ServerSnapshot { queue_depth, service_ms, up: false }
    }

    /// Routes one request over a pool held in a slice, through the indexed
    /// view the fleet engine and the live coordinator use.
    fn route(router: &mut Router, pool: &[ServerSnapshot]) -> usize {
        router.route_by(pool.len(), |i| pool[i])
    }

    #[test]
    fn blind_routing_matches_snapshot_routing() {
        // Round-robin routes blind and must advance the same cursor either
        // way; stateful policies route blind only for single-server pools.
        let pool: Vec<ServerSnapshot> = (0..3).map(|i| snapshot(i, 100.0)).collect();
        let mut blind = Router::new(RoutingPolicy::RoundRobin);
        let mut full = Router::new(RoutingPolicy::RoundRobin);
        for _ in 0..7 {
            assert_eq!(blind.try_route_blind(pool.len()), Some(route(&mut full, &pool)));
        }
        for policy in [RoutingPolicy::LeastQueueDepth, RoutingPolicy::DeviceAffinity] {
            let mut router = Router::new(policy);
            assert_eq!(router.try_route_blind(1), Some(0));
            assert_eq!(router.try_route_blind(2), None);
        }
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut router = Router::new(RoutingPolicy::RoundRobin);
        let pool = vec![snapshot(9, 1.0), snapshot(0, 1.0), snapshot(3, 1.0)];
        let picks: Vec<usize> = (0..7).map(|_| route(&mut router, &pool)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_queue_depth_prefers_the_shallow_queue_and_low_index_ties() {
        let mut router = Router::new(RoutingPolicy::LeastQueueDepth);
        assert_eq!(route(&mut router, &[snapshot(4, 1.0), snapshot(1, 1.0), snapshot(2, 1.0)]), 1);
        assert_eq!(route(&mut router, &[snapshot(2, 1.0), snapshot(2, 1.0), snapshot(5, 1.0)]), 0);
    }

    #[test]
    fn device_affinity_weighs_service_time_against_stacked_work() {
        let mut router = Router::new(RoutingPolicy::DeviceAffinity);
        // An idle slow server loses to a lightly loaded fast one …
        assert_eq!(route(&mut router, &[snapshot(1, 100.0), snapshot(0, 1000.0)]), 0);
        // … until the fast queue grows deep enough.
        assert_eq!(route(&mut router, &[snapshot(12, 100.0), snapshot(0, 1000.0)]), 1);
    }

    #[test]
    fn every_policy_routes_around_down_servers() {
        // LQD: the shallowest queue is on a dead server — skip it.
        let mut lqd = Router::new(RoutingPolicy::LeastQueueDepth);
        assert_eq!(route(&mut lqd, &[down(0, 1.0), snapshot(5, 1.0), snapshot(2, 1.0)]), 2);
        // Affinity: the cheapest device is down — pay for the live one.
        let mut affinity = Router::new(RoutingPolicy::DeviceAffinity);
        assert_eq!(route(&mut affinity, &[down(0, 100.0), snapshot(0, 1000.0)]), 1);
        // Round-robin cycles over the healthy subset only.
        let mut rr = Router::new(RoutingPolicy::RoundRobin);
        let pool = vec![snapshot(0, 1.0), down(0, 1.0), snapshot(0, 1.0)];
        let picks: Vec<usize> = (0..4).map(|_| route(&mut rr, &pool)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
    }

    #[test]
    fn an_all_down_pool_falls_back_to_health_blind_routing() {
        // The engine never routes into an all-down pool, but the router
        // itself stays total rather than panicking.
        let mut router = Router::new(RoutingPolicy::LeastQueueDepth);
        assert_eq!(route(&mut router, &[down(4, 1.0), down(1, 1.0)]), 1);
    }

    #[test]
    fn policy_names_round_trip_through_parsing() {
        for policy in RoutingPolicy::ALL {
            let parsed: RoutingPolicy = policy.name().parse().expect("name parses");
            assert_eq!(parsed, policy);
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!("RR".parse::<RoutingPolicy>().unwrap(), RoutingPolicy::RoundRobin);
        assert_eq!(
            "Least_Queue Depth".parse::<RoutingPolicy>().unwrap(),
            RoutingPolicy::LeastQueueDepth
        );
        assert_eq!("AFFINITY".parse::<RoutingPolicy>().unwrap(), RoutingPolicy::DeviceAffinity);
        assert!("best-effort".parse::<RoutingPolicy>().is_err());
    }

    /// Builds an arbitrary pool from fixed-size sampled vectors, keeping the
    /// first `1 + (len_pick % 8)` servers so pool sizes vary too.
    fn arbitrary_pool(depths: &[usize], services: &[f64], len_pick: usize) -> Vec<ServerSnapshot> {
        let n = 1 + len_pick % depths.len().min(services.len());
        (0..n).map(|i| snapshot(depths[i], services[i])).collect()
    }

    /// The candidate-list routing rule spelled out with `Vec`s: the healthy
    /// subset (or the whole pool when none is up), then round-robin rank,
    /// `(depth, index)` minimum or `(cost, index)` minimum over it.
    fn reference_pick(policy: RoutingPolicy, cursor: &mut usize, pool: &[ServerSnapshot]) -> usize {
        let healthy: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].up).collect();
        let candidates = if healthy.is_empty() { (0..pool.len()).collect() } else { healthy };
        match policy {
            RoutingPolicy::RoundRobin => {
                let pick = candidates[*cursor % candidates.len()];
                *cursor = (*cursor + 1) % candidates.len();
                pick
            }
            RoutingPolicy::LeastQueueDepth => {
                candidates.into_iter().min_by_key(|&i| (pool[i].queue_depth, i)).unwrap()
            }
            RoutingPolicy::DeviceAffinity => candidates
                .into_iter()
                .min_by(|&a, &b| {
                    affinity_cost(&pool[a]).total_cmp(&affinity_cost(&pool[b])).then(a.cmp(&b))
                })
                .unwrap(),
        }
    }

    // Least-queue-depth must never route to a strictly deeper queue than
    // some other server offers; round-robin must depend on nothing but the
    // number of requests routed so far; and every policy must return a
    // valid index for arbitrary pools.
    proptest! {
        #[test]
        fn least_queue_depth_never_picks_a_strictly_deeper_queue(
            depths in proptest::collection::vec(0usize..64, 8),
            services in proptest::collection::vec(1.0f64..5000.0, 8),
            len_pick in 0usize..64
        ) {
            let pool = arbitrary_pool(&depths, &services, len_pick);
            let pick = route(&mut Router::new(RoutingPolicy::LeastQueueDepth), &pool);
            let best = pool.iter().map(|s| s.queue_depth).min().expect("non-empty");
            prop_assert_eq!(pool[pick].queue_depth, best);
        }

        #[test]
        fn round_robin_is_independent_of_pool_state(
            depths in proptest::collection::vec(0usize..64, 8),
            services in proptest::collection::vec(1.0f64..5000.0, 8),
            len_pick in 0usize..64,
            requests in 1usize..40
        ) {
            let pool = arbitrary_pool(&depths, &services, len_pick);
            let mut router = Router::new(RoutingPolicy::RoundRobin);
            for k in 0..requests {
                prop_assert_eq!(route(&mut router, &pool), k % pool.len());
            }
        }

        #[test]
        fn every_policy_returns_a_valid_index(
            depths in proptest::collection::vec(0usize..64, 8),
            services in proptest::collection::vec(1.0f64..5000.0, 8),
            len_pick in 0usize..64
        ) {
            let pool = arbitrary_pool(&depths, &services, len_pick);
            for policy in RoutingPolicy::ALL {
                let pick = route(&mut Router::new(policy), &pool);
                prop_assert!(pick < pool.len());
            }
        }

        #[test]
        fn no_policy_picks_a_down_server_while_any_is_up(
            depths in proptest::collection::vec(0usize..64, 8),
            services in proptest::collection::vec(1.0f64..5000.0, 8),
            up_picks in proptest::collection::vec(0usize..2, 8),
            len_pick in 0usize..64
        ) {
            let mut pool = arbitrary_pool(&depths, &services, len_pick);
            for (index, server) in pool.iter_mut().enumerate() {
                server.up = up_picks[index] == 1;
            }
            if pool.iter().any(|s| s.up) {
                for policy in RoutingPolicy::ALL {
                    let pick = route(&mut Router::new(policy), &pool);
                    prop_assert!(pool[pick].up, "{policy:?} routed to a down server");
                }
            }
        }

        // The in-place scan must agree with the candidate-list rule request
        // by request: ties to the lower index, the round-robin cursor over
        // the healthy subset, and the health-blind all-down fallback.  Few
        // distinct depths and services make ties common.
        #[test]
        fn route_by_matches_the_candidate_list_rule(
            depths in proptest::collection::vec(0usize..3, 8),
            service_picks in proptest::collection::vec(0usize..3, 8),
            up_picks in proptest::collection::vec(0usize..3, 8),
            len_pick in 0usize..64,
            requests in 1usize..12
        ) {
            let services: Vec<f64> = service_picks.iter().map(|&k| [50.0, 100.0, 200.0][k]).collect();
            let mut pool = arbitrary_pool(&depths, &services, len_pick);
            for (index, server) in pool.iter_mut().enumerate() {
                server.up = up_picks[index] != 0;
            }
            for policy in RoutingPolicy::ALL {
                let mut router = Router::new(policy);
                let mut cursor = 0;
                for _ in 0..requests {
                    prop_assert_eq!(
                        route(&mut router, &pool),
                        reference_pick(policy, &mut cursor, &pool)
                    );
                }
            }
        }
    }
}
