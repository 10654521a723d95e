//! What a live run reports: the simulator-shaped summary row plus the
//! cross-process measurements only a live run can make.
//!
//! The IPC-transit methodology follows the Lithos decomposition: the
//! cross-process end-to-end latency of a plan minus the sum of its modelled
//! per-stage totals (link wait + upload + queue + service) is the transit
//! overhead the shared-memory transport itself adds.  The live path also
//! measures each hop directly — request ring, work-ring dispatch, done-ring
//! completion and response-seqlock delivery — so the residual and the sum
//! of hops can be cross-checked.

use corki::fleet::FleetSweepRow;
use corki_telemetry::{mean, percentile, TelemetryReport};
use serde::{Deserialize, Serialize};

/// Distribution summary of one measured transit hop, nanoseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageStats {
    /// Samples measured.
    pub samples: usize,
    /// Mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
}

impl StageStats {
    /// Summarises raw nanosecond samples (all-zero when none were taken).
    pub fn of(samples: &[f64]) -> Self {
        StageStats {
            samples: samples.len(),
            mean_ns: mean(samples),
            p50_ns: percentile(samples, 0.50),
            p99_ns: percentile(samples, 0.99),
        }
    }
}

/// The four measured shared-memory hops of one offloaded plan, plus their
/// per-plan sum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitStats {
    /// Robot `try_push` → coordinator `try_pop` of the request ring.
    pub request: StageStats,
    /// Coordinator work-ring push → worker pop.
    pub dispatch: StageStats,
    /// Worker done-ring push → coordinator pop.
    pub completion: StageStats,
    /// Coordinator seqlock publish → robot snapshot.
    pub response: StageStats,
    /// Per-plan sum of the four hops.
    pub round_trip: StageStats,
}

/// The full result of one live cell: the same [`FleetSweepRow`] shape the
/// simulator sweep prints, plus the live-only transit breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveReport {
    /// Scenario name the cell came from.
    pub scenario: String,
    /// Fingerprint of the executed cell, for
    /// matching live rows against simulator rows in bench history.
    pub fingerprint: String,
    /// The simulator-shaped summary row (fault counters are structurally
    /// zero: live runs reject fault plans).
    pub row: FleetSweepRow,
    /// Wall-clock duration of the serving phase, seconds.
    pub wall_s: f64,
    /// Warm-up trimmed from the latency statistics, ms.
    pub warmup_ms: f64,
    /// Measured shared-memory hop latencies.
    pub transit: TransitStats,
    /// Mean time each request's plan spent waiting for the shared uplink,
    /// ms (from the robots' own accounting).
    pub mean_link_wait_ms: f64,
    /// Mean modelled per-stage total per offloaded plan: link wait + upload
    /// + queue + batched service, ms.
    pub mean_stage_total_ms: f64,
    /// Mean end-to-end latency minus [`mean_stage_total_ms`]: the transit +
    /// scheduling overhead the live transport adds per plan, ms (the Lithos
    /// residual; compare against `transit.round_trip.mean_ns`).
    ///
    /// [`mean_stage_total_ms`]: Self::mean_stage_total_ms
    pub ipc_overhead_ms: f64,
    /// Robots that completed all their frames.
    pub robots_completed: usize,
    /// Control steps executed fleet-wide.
    pub total_frames: usize,
    /// Plans served by the pool (excludes on-robot plans).
    pub offloaded_plans: usize,
    /// The always-on in-path recorder's view: per-stage p50/p99/p99.9
    /// histograms and per-robot timelines, drained from the shared
    /// segment's telemetry pages — the same six-stage taxonomy (and report
    /// shape) the DES produces, so stages compare one-to-one.
    pub telemetry: TelemetryReport,
    /// How many times the coordinator drained the telemetry pages while
    /// the run was still serving (at least one mid-run drain plus the
    /// final authoritative one).
    pub telemetry_drains: usize,
}
