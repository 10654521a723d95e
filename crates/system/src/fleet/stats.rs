//! Run outputs and statistics: per-robot outcomes, the aggregate
//! [`FleetSummary`], the warm-up choice ([`WarmupSpec`]) and the warm-up
//! trimming/detection helpers.
//!
//! These types are driver-independent: the DES engine fills them from
//! simulated timestamps, the live `corki-serve` coordinator from wall-clock
//! samples — both trim their warm-up windows with the same
//! [`trim_warmup`], so the oracle comparison compares like with like.

use crate::pipeline::FrameTrace;
use corki_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};

/// Per-robot results of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobotOutcome {
    /// Robot index.
    pub robot: usize,
    /// Variant name.
    pub variant: String,
    /// Frames executed.
    pub frames: usize,
    /// LLM inferences issued.
    pub inferences: usize,
    /// When the robot finished its last frame, ms.
    pub completed_ms: f64,
    /// Mean end-to-end plan latency (capture → trajectory received), ms.
    pub mean_plan_latency_ms: f64,
    /// Per-frame latency/energy traces (legacy-compatible attribution plus
    /// any link/queue/arbitration waits absorbed by inference frames).
    pub frame_traces: Vec<FrameTrace>,
}

/// Aggregate serving metrics of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Number of robots.
    pub robots: usize,
    /// Number of inference servers in the pool.
    pub servers: usize,
    /// Frames executed per robot.
    pub frames_per_robot: usize,
    /// Scheduler name (per-server names joined when they differ).
    pub scheduler: String,
    /// Routing policy name.
    pub routing: String,
    /// Warm-up window excluded from plan/queue/link statistics (ms).
    pub warmup_ms: f64,
    /// Time until the last robot finished, ms.
    pub makespan_ms: f64,
    /// Executed control steps per second across the fleet.
    pub throughput_steps_per_s: f64,
    /// Mean per-frame latency over all robots (ms, includes waits).
    pub mean_frame_latency_ms: f64,
    /// 99th-percentile per-frame latency (ms).
    pub p99_frame_latency_ms: f64,
    /// Mean end-to-end plan latency: frame capture → trajectory received (ms).
    pub mean_plan_latency_ms: f64,
    /// 99th-percentile end-to-end plan latency (ms).
    pub p99_plan_latency_ms: f64,
    /// Mean time requests queued at their server (ms).
    pub mean_queue_delay_ms: f64,
    /// 99th-percentile server queueing delay (ms).
    pub p99_queue_delay_ms: f64,
    /// Mean wait for the shared uplink (ms).
    pub mean_link_wait_ms: f64,
    /// Fraction of the pool's capacity (makespan × servers) spent busy.
    pub server_utilization: f64,
    /// Busy fraction of each server of the pool over the makespan.
    pub per_server_utilization: Vec<f64>,
    /// Fraction of the makespan the uplink was busy.
    pub link_utilization: f64,
    /// Total inference requests served by the pool.
    pub inferences: usize,
    /// Inferences run on on-robot devices (bypassing the pool).
    pub on_robot_inferences: usize,
    /// Mean formed batch size.
    pub mean_batch_size: f64,
    /// Fraction of steady-state plan latencies exceeding
    /// [`FleetConfig::slo_budget_ms`](super::FleetConfig::slo_budget_ms)
    /// (0 when no plan completed after the warm-up window).
    pub slo_violation_fraction: f64,
    /// Requests abandoned by their robot after waiting past the fault
    /// plan's timeout.
    pub timed_out_requests: usize,
    /// Upload retries issued after timeouts.
    pub retries: usize,
    /// Plans given up entirely after exhausting retries with no fallback
    /// model configured (the robot executed one blind step instead).
    pub dropped_requests: usize,
    /// Plans served by the degraded-mode on-robot fallback model after
    /// retries were exhausted.
    pub fallback_inferences: usize,
    /// Mean time from a crashed server's scheduled recovery instant to its
    /// first completed inference afterwards, ms (0 when no crash window
    /// recovered within the run).
    pub mean_recovery_ms: f64,
}

/// Everything a fleet run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Aggregate serving metrics.
    pub summary: FleetSummary,
    /// Per-robot results.
    pub robots: Vec<RobotOutcome>,
    /// Always-on per-stage latency histograms and bounded per-robot
    /// timelines — the same six-stage taxonomy the live path records, so
    /// a DES run and a live run of one scenario compare stage by stage.
    pub telemetry: TelemetryReport,
}

/// The warm-up handling of a fleet run: either a fixed start-up window in
/// milliseconds, or adaptive MSER-5 steady-state detection.
///
/// In JSON a fixed window is spelled as a plain number (`"warmup_ms": 250`)
/// and adaptive detection as the string `"warmup_ms": "auto"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmupSpec {
    /// Exclude a fixed start-up window (ms) from the aggregate latency
    /// statistics.
    Fixed(f64),
    /// Detect the truncation point adaptively with MSER-5 over the pool's
    /// queue-depth time series.
    Auto,
}

impl std::fmt::Display for WarmupSpec {
    /// `auto (MSER-5)` for adaptive detection, otherwise the fixed window
    /// with its unit (`250 ms`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmupSpec::Fixed(ms) => write!(f, "{ms} ms"),
            WarmupSpec::Auto => f.write_str("auto (MSER-5)"),
        }
    }
}

impl Serialize for WarmupSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            WarmupSpec::Fixed(ms) => serde::Value::Number(*ms),
            WarmupSpec::Auto => serde::Value::String("auto".to_owned()),
        }
    }
}

impl Deserialize for WarmupSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Number(ms) => Ok(WarmupSpec::Fixed(*ms)),
            serde::Value::String(s) if s == "auto" => Ok(WarmupSpec::Auto),
            other => Err(serde::Error::custom(format!(
                "warmup_ms must be a number of milliseconds or the string \"auto\", \
                 found {other:?}"
            ))),
        }
    }
}

/// Keeps the samples completed at or after the warm-up window: each sample
/// is a `(completion timestamp, value)` pair, and the returned vector holds
/// the values whose timestamps reach `warmup_ms`.
pub fn trim_warmup(samples: &[(f64, f64)], warmup_ms: f64) -> Vec<f64> {
    samples.iter().filter(|(t, _)| *t >= warmup_ms).map(|(_, v)| *v).collect()
}

/// MSER-5 steady-state detection over a `(time, value)` series.
///
/// The series is condensed into batch means of five consecutive samples;
/// for every truncation point `d` up to half the batches, the MSER
/// statistic — the variance of the retained batch means divided by the
/// square of their count — is evaluated, and the earliest minimiser wins.
/// The returned warm-up is the timestamp of the first retained sample
/// (`0` when the series is too short to batch meaningfully, so short runs
/// degrade to the keep-everything behaviour instead of guessing).
pub(crate) fn mser5_warmup(series: &[(f64, f64)]) -> f64 {
    const BATCH: usize = 5;
    let batches: Vec<f64> = series
        .chunks_exact(BATCH)
        .map(|chunk| chunk.iter().map(|(_, value)| value).sum::<f64>() / BATCH as f64)
        .collect();
    if batches.len() < 4 {
        return 0.0;
    }
    let mut best = (0_usize, f64::INFINITY);
    for d in 0..=batches.len() / 2 {
        let kept = &batches[d..];
        let n = kept.len() as f64;
        let mean_kept = kept.iter().sum::<f64>() / n;
        let statistic =
            kept.iter().map(|b| (b - mean_kept) * (b - mean_kept)).sum::<f64>() / (n * n);
        if statistic < best.1 {
            best = (d, statistic);
        }
    }
    series[best.0 * BATCH].0
}
