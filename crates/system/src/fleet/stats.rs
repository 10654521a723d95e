//! Run outputs and statistics: per-robot outcomes, the aggregate
//! [`FleetSummary`], the serving samples and their estimators
//! ([`ServingSamples`]), the warm-up choice ([`WarmupSpec`]) and the
//! warm-up trimming/detection helpers.
//!
//! The serving statistics are driver-independent: the DES engine stamps
//! its samples with simulated time, the live `corki-serve` coordinator
//! with wall-clock time, and both reduce them with the one
//! [`ServingSamples::summarize`], so the oracle comparison compares like
//! with like.

use crate::pipeline::{mean, percentile_in_place, FrameTrace};
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
    /// any link and queue waits absorbed by inference frames).  Rows exist
    /// only for robots below [`corki_telemetry::MAX_TIMELINES`], the robots
    /// that keep a telemetry timeline; other robots carry none.  The
    /// summary's frame statistics still cover every executed frame.
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

/// The serving samples both fleet drivers record: plan latencies stamped
/// with their delivery, queue waits stamped with their batch's dispatch,
/// and the size of every dispatched batch.
#[derive(Debug, Default)]
pub struct ServingSamples {
    plan_latencies_ms: Vec<(f64, f64)>,
    queue_waits_ms: Vec<(f64, f64)>,
    batch_sizes: Vec<usize>,
}

/// The serving statistics of one run, after warm-up trimming.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingStats {
    /// Mean end-to-end plan latency, ms.
    pub mean_plan_latency_ms: f64,
    /// 99th-percentile end-to-end plan latency, ms.
    pub p99_plan_latency_ms: f64,
    /// Mean server queueing delay, ms.
    pub mean_queue_delay_ms: f64,
    /// 99th-percentile server queueing delay, ms.
    pub p99_queue_delay_ms: f64,
    /// Fraction of plan latencies strictly above the budget (0 if none).
    pub slo_violation_fraction: f64,
    /// Requests served by the pool (every batch, warm-up included).
    pub inferences: usize,
    /// Mean formed batch size (0 when no batch ran).
    pub mean_batch_size: f64,
}

impl ServingSamples {
    /// Records a plan that reached its robot at `done_ms`.
    pub fn plan(&mut self, done_ms: f64, latency_ms: f64) {
        self.plan_latencies_ms.push((done_ms, latency_ms));
    }

    /// Records a request that waited `wait_ms` for a dispatch at `dispatch_ms`.
    pub fn queue_wait(&mut self, dispatch_ms: f64, wait_ms: f64) {
        self.queue_waits_ms.push((dispatch_ms, wait_ms));
    }

    /// Records a dispatched batch of `len` requests.
    pub fn batch(&mut self, len: usize) {
        self.batch_sizes.push(len);
    }

    /// Reduces the samples stamped at or after `warmup_ms` to the run's
    /// serving statistics; a plan violates the SLO when its latency is
    /// strictly above `slo_budget_ms`.  Empty sample sets yield zeros.
    pub fn summarize(&self, warmup_ms: f64, slo_budget_ms: f64) -> ServingStats {
        let mut plans = trim_warmup(&self.plan_latencies_ms, warmup_ms);
        let mut waits = trim_warmup(&self.queue_waits_ms, warmup_ms);
        let inferences: usize = self.batch_sizes.iter().sum();
        // The means sum in recording order, before the in-place percentiles
        // reorder the trimmed copies.
        ServingStats {
            mean_plan_latency_ms: mean(&plans),
            mean_queue_delay_ms: mean(&waits),
            slo_violation_fraction: plans.iter().filter(|&&ms| ms > slo_budget_ms).count() as f64
                / plans.len().max(1) as f64,
            p99_plan_latency_ms: percentile_in_place(&mut plans, 0.99),
            p99_queue_delay_ms: percentile_in_place(&mut waits, 0.99),
            inferences,
            mean_batch_size: inferences as f64 / self.batch_sizes.len().max(1) as f64,
        }
    }
}

/// The values of the `(completion timestamp, value)` samples whose
/// timestamps reach the end of the warm-up window, `warmup_ms`.
pub(crate) fn trim_warmup(samples: &[(f64, f64)], warmup_ms: f64) -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_trims_by_completion_stamp() {
        let mut samples = ServingSamples::default();
        samples.plan(5.0, 1000.0);
        samples.plan(10.0, 1.0);
        samples.plan(20.0, 3.0);
        samples.queue_wait(9.0, 50.0);
        samples.queue_wait(12.0, 4.0);
        samples.batch(2);
        samples.batch(1);
        let stats = samples.summarize(10.0, 400.0);
        assert_eq!((stats.mean_plan_latency_ms, stats.p99_plan_latency_ms), (2.0, 3.0));
        assert_eq!((stats.mean_queue_delay_ms, stats.p99_queue_delay_ms), (4.0, 4.0));
        // Batches are counted whole, warm-up included.
        assert_eq!((stats.inferences, stats.mean_batch_size), (3, 1.5));
        assert_eq!(samples.summarize(0.0, 400.0).mean_plan_latency_ms, 1004.0 / 3.0);
    }

    #[test]
    fn the_slo_check_is_strictly_above_the_budget() {
        let mut samples = ServingSamples::default();
        samples.plan(1.0, 400.0);
        samples.plan(2.0, 400.5);
        assert_eq!(samples.summarize(0.0, 400.0).slo_violation_fraction, 0.5);
        assert_eq!(samples.summarize(0.0, 400.5).slo_violation_fraction, 0.0);
    }

    #[test]
    fn empty_samples_give_finite_zeros_that_survive_json() {
        let mut samples = ServingSamples::default();
        samples.plan(1.0, 5.0);
        for stats in
            [ServingSamples::default().summarize(0.0, 400.0), samples.summarize(2.0, 400.0)]
        {
            assert_eq!(
                stats,
                ServingStats {
                    mean_plan_latency_ms: 0.0,
                    p99_plan_latency_ms: 0.0,
                    mean_queue_delay_ms: 0.0,
                    p99_queue_delay_ms: 0.0,
                    slo_violation_fraction: 0.0,
                    inferences: 0,
                    mean_batch_size: 0.0,
                }
            );
            let json = serde_json::to_string(&stats).expect("serialises");
            assert_eq!(serde_json::from_str::<ServingStats>(&json).expect("parses"), stats);
        }
    }
}
