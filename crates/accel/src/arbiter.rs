//! Time-domain arbitration of a shared, serially reusable resource.
//!
//! A fleet of robots contends for shared hardware: the Wi-Fi uplink carries
//! one frame at a time.  (Control does not contend: every robot carries its
//! own TS-CTC accelerator.)  [`Arbiter`] models such a resource as a single
//! server with non-preemptive FIFO service: a grant starts at the later of
//! the request time and the instant the resource frees up.  It is the hook
//! the system layer uses to attach contention to any latency produced by
//! the device models in this crate.

use serde::{Deserialize, Serialize};

/// The outcome of one arbitration request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Grant {
    /// When the resource starts serving the request (ms).
    pub start_ms: f64,
    /// When the resource is released again (ms).
    pub end_ms: f64,
    /// Time the request spent waiting for the resource (ms).
    pub wait_ms: f64,
}

/// A serially reusable resource granted in request order.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Arbiter {
    free_at_ms: f64,
    busy_ms: f64,
    grants: u64,
}

impl Arbiter {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Arbiter::default()
    }

    /// Requests the resource at `now_ms` for `duration_ms`.
    ///
    /// Callers must issue requests in non-decreasing `now_ms` order (the
    /// discrete-event loop guarantees this); the grant then models a FIFO
    /// queue in front of the resource.
    ///
    /// # Panics
    ///
    /// Panics if `duration_ms` is negative or NaN.
    pub fn acquire(&mut self, now_ms: f64, duration_ms: f64) -> Grant {
        assert!(duration_ms >= 0.0, "durations must be non-negative, got {duration_ms}");
        let start_ms = if self.free_at_ms > now_ms { self.free_at_ms } else { now_ms };
        let end_ms = start_ms + duration_ms;
        self.free_at_ms = end_ms;
        self.busy_ms += duration_ms;
        self.grants += 1;
        Grant { start_ms, end_ms, wait_ms: start_ms - now_ms }
    }

    /// Total time the resource has been granted for (ms).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Number of grants issued so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Utilisation of the resource over an observation window of
    /// `horizon_ms` (0 when the window is empty).
    pub fn utilization(&self, horizon_ms: f64) -> f64 {
        if horizon_ms <= 0.0 {
            0.0
        } else {
            self.busy_ms / horizon_ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_requests_start_immediately() {
        let mut arbiter = Arbiter::new();
        let grant = arbiter.acquire(10.0, 5.0);
        assert_eq!(grant.start_ms, 10.0);
        assert_eq!(grant.end_ms, 15.0);
        assert_eq!(grant.wait_ms, 0.0);
        // The resource sat idle until 10.0, then a later request at 20.0
        // again starts immediately.
        let grant = arbiter.acquire(20.0, 2.0);
        assert_eq!(grant.wait_ms, 0.0);
        assert_eq!(arbiter.busy_ms(), 7.0);
        assert_eq!(arbiter.grants(), 2);
    }

    #[test]
    fn contended_requests_queue_fifo() {
        let mut arbiter = Arbiter::new();
        arbiter.acquire(0.0, 10.0);
        let second = arbiter.acquire(2.0, 10.0);
        assert_eq!(second.start_ms, 10.0);
        assert_eq!(second.wait_ms, 8.0);
        let third = arbiter.acquire(2.0, 1.0);
        assert_eq!(third.start_ms, 20.0);
        assert_eq!(third.end_ms, 21.0);
    }

    #[test]
    fn zero_duration_grants_are_exact() {
        // The N=1 pipeline relies on uncontended grants adding exactly zero
        // wait, so the arbitration hook must not perturb the float stream.
        let mut arbiter = Arbiter::new();
        let grant = arbiter.acquire(3.25, 0.0);
        assert_eq!(grant.wait_ms, 0.0);
        assert_eq!(grant.end_ms, 3.25);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut arbiter = Arbiter::new();
        arbiter.acquire(0.0, 25.0);
        assert!((arbiter.utilization(100.0) - 0.25).abs() < 1e-12);
        assert_eq!(arbiter.utilization(0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_durations_are_rejected() {
        Arbiter::new().acquire(0.0, -1.0);
    }
}
