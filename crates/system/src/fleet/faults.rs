//! Deterministic fault-injection plans: server crash windows, uplink
//! degradation, per-request timeout/retry budgets and robot churn.
//!
//! A plan is pure data — the DES engine lowers it into ordinary events (so
//! injected runs stay byte-identical across reruns), and
//! scenario validation rejects plans the live path cannot honour.

use crate::devices::InferenceModel;
use serde::{Deserialize, Serialize};

/// One injected server outage: the server goes down at `at_ms` (its
/// in-flight batch is aborted and its queue dropped) and comes back
/// `down_ms` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CrashSpec {
    /// Index of the crashing server in the pool.
    pub server: usize,
    /// Crash onset, ms.
    pub at_ms: f64,
    /// Outage duration, ms (the server recovers at `at_ms + down_ms`).
    pub down_ms: f64,
}

/// One shared-link degradation window `[from_ms, until_ms)`: uploads that
/// start inside the window take `latency_factor` times longer, and each
/// completed upload is lost with probability `loss` (drawn from a dedicated
/// per-robot fault RNG, so jitter streams — and fault-free runs — are
/// untouched).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LinkDegradationSpec {
    /// Window start, ms (inclusive).
    pub from_ms: f64,
    /// Window end, ms (exclusive).
    pub until_ms: f64,
    /// Multiplier on upload durations started inside the window (≥ 1).
    pub latency_factor: f64,
    /// Probability that an upload completing inside the window is lost
    /// (`[0, 1]`; a lost upload never reaches a server and the robot
    /// recovers via its timeout).
    pub loss: f64,
}

/// Per-request timeout and bounded-retry policy of offloaded robots.
///
/// The timeout clock starts when an upload completes (the robot has sent
/// the frame and waits for a plan); a request that has not been answered
/// `timeout_ms` later is abandoned and retried — re-uploading after an
/// exponential backoff of `backoff_ms · 2^(retry-1)` — at most
/// `max_retries` times before the robot gives up on the plan (falling back
/// to its on-robot model when the fault plan provides one, or dropping the
/// plan and executing one blind step otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TimeoutSpec {
    /// How long a robot waits for a plan after its upload completes, ms.
    pub timeout_ms: f64,
    /// Upload retries before the robot gives up on the plan.
    pub max_retries: usize,
    /// Base backoff before a retry upload, ms (doubled per retry).
    pub backoff_ms: f64,
}

/// One churn entry: a robot that joins the fleet late and/or leaves early.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChurnSpec {
    /// Index of the churning robot.
    pub robot: usize,
    /// When the robot captures its first frame, ms (`0` = from the start;
    /// the deterministic start stagger still applies if it is later).
    pub join_at_ms: f64,
    /// When the robot leaves, ms (`null` = never): it stops at the first
    /// capture at or after this instant, leaving its remaining frames
    /// unexecuted.
    pub leave_at_ms: Option<f64>,
}

/// A deterministic fault-injection plan: server crash/recovery windows,
/// uplink degradation, per-request timeout/retry, robot churn and
/// degraded-mode on-robot fallback.
///
/// Faults are ordinary DES events (crash/recover pairs are scheduled
/// upfront in plan order; timeouts and retries are scheduled by the
/// handlers that need them), so injected runs stay byte-identical across
/// reruns.  A config without a fault plan schedules no
/// fault events and draws nothing from the fault RNGs — the fault-free
/// golden traces are bit-for-bit unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Server outage windows, applied in order.
    pub crashes: Vec<CrashSpec>,
    /// Shared-uplink degradation windows (first matching window wins).
    pub link_degradations: Vec<LinkDegradationSpec>,
    /// Timeout/retry policy.  Required (by scenario validation) whenever
    /// crashes or lossy link windows are present — without it a lost
    /// request would strand its robot forever.
    pub timeout: Option<TimeoutSpec>,
    /// Robots that join late or leave early (at most one entry per robot).
    pub churn: Vec<ChurnSpec>,
    /// On-robot model an offloaded robot falls back to once its retries are
    /// exhausted (e.g. while every server is down).  `null` drops the plan
    /// instead: the robot executes one blind step and recaptures.
    pub fallback: Option<InferenceModel>,
}

impl FaultPlan {
    /// An empty plan (no faults).  Useful as a starting point for builders.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            link_degradations: Vec::new(),
            timeout: None,
            churn: Vec::new(),
            fallback: None,
        }
    }

    /// Whether any crash window is declared.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Whether any link window can lose uploads.
    pub fn has_loss(&self) -> bool {
        self.link_degradations.iter().any(|w| w.loss > 0.0)
    }

    /// Upload latency multiplier in effect at `t_ms` (first matching
    /// window wins; `1.0` outside every window).
    pub fn link_factor_at(&self, t_ms: f64) -> f64 {
        self.link_degradations
            .iter()
            .find(|w| w.from_ms <= t_ms && t_ms < w.until_ms)
            .map_or(1.0, |w| w.latency_factor)
    }

    /// Upload loss probability in effect at `t_ms` (first matching window
    /// wins; `0.0` outside every window).
    pub fn link_loss_at(&self, t_ms: f64) -> f64 {
        self.link_degradations
            .iter()
            .find(|w| w.from_ms <= t_ms && t_ms < w.until_ms)
            .map_or(0.0, |w| w.loss)
    }

    /// The churn entry of `robot`, if any.
    pub fn churn_of(&self, robot: usize) -> Option<&ChurnSpec> {
        self.churn.iter().find(|c| c.robot == robot)
    }
}
