//! The registry-free micro-bench runner behind the `bench` binary.
//!
//! Times the hot paths of the reproduction (policy inference, trajectory
//! fitting, the TS-CTC control kernel, the full pipeline simulation and the
//! multi-robot fleet-serving runtime), the first three always side by side
//! with the pre-optimisation reference implementations from
//! [`crate::reference`], and emits a canonical JSON report (`BENCH_*.json`)
//! so every future PR has a baseline to compare against.

use crate::reference::{
    bench_controller, bench_rng, reference_fit_waypoints, reference_task_space_torque, RefCorkiHead,
};
use corki::scenario::{scenario_fingerprint, ConcreteScenario, ScenarioSpec};
use corki_math::Vec3;
use corki_policy::{
    BaselineFramePolicy, CorkiTrajectoryPolicy, ManipulationPolicy, Observation, PlanRequest,
};
use corki_robot::panda::{panda_model, PANDA_HOME};
use corki_robot::{JointState, TaskReference};
use corki_system::fleet::FleetSimulator;
use corki_system::{PipelineConfig, PipelineSimulator, Variant};
use corki_trajectory::{EePose, GripperState, Trajectory, CONTROL_STEP};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The schema version stamped into every report; bump when the JSON layout
/// changes incompatibly.
///
/// Version history: 1 — benches + comparisons; 2 — adds the `fleet_rows`
/// section (deterministic fleet-serving metrics, warm-up-trimmed p99s);
/// 3 — fleet rows carry the canonical variant(-mix) label and the fleet
/// cases are defined by the committed scenario files under
/// `crates/bench/scenarios/`; 4 — fleet rows carry a `scenario_hash`
/// provenance fingerprint of the expanded cells (so `--compare` can tell
/// "engine regressed" from "scenario edited"), and scenarios with
/// `shards > 1` time both the single-shard and the sharded engine plus a
/// sharding-speedup comparison; 5 — fleet rows carry the fault-injection
/// columns (SLO-violation fraction, timed-out/retry/dropped/fallback
/// counters, mean recovery time) and the suite includes the committed
/// fault scenarios (server crashes, degraded uplinks, churn); 6 — threaded
/// scenarios time a worker-thread sweep (`/threads{t}` cases plus a
/// `/threading` comparison), the report carries an `e2e` section of
/// hyperfine-style wall-clock rows (min/mean seconds over N full
/// `experiments fleet --scenario` runs; full mode only), and the
/// `des_queue` group pins K=1 sharded-queue parity with the plain event
/// queue; 7 — adds the `ipc_transit` group (shared-memory SPSC ring
/// push+pop, seqlock publish+read, cross-thread ring round-trip, with a
/// `scheduling_overhead` comparison of the cross-thread RTT against the
/// same-thread hop cost), the committed live scenario joins the fleet
/// suite, the report carries a `live` section of live fleet-serving rows
/// (full mode only: the sibling `experiments serve` binary lowers the
/// committed live scenario onto real processes over shared memory and the
/// row records its throughput, plan/queue latencies and measured IPC
/// transit), and `--only` accepts comma-separated prefixes; 8 — adds the
/// `telemetry` section (deterministic per-stage rows from the always-on
/// in-path recorder: sample/dropped counts, exact means and log2-bucket
/// p50/p99/p99.9 quantiles for each of the six serving stages of every
/// committed fleet scenario, fingerprint-matched to their `fleet_serving`
/// rows) plus the `telemetry/record` and `telemetry/shm_record` micro
/// cases pinning the recorder's in-path cost in both of its homes, with a
/// `telemetry/shm_overhead` comparison of the shared-memory atomics
/// against plain memory.  The sharding/threading cases of versions 4 and 6
/// and the K=1 parity pair left with the sharded engine itself; the
/// layout of version 8 is unchanged.
pub const SCHEMA_VERSION: u32 = 8;

/// Timing-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Warm-up duration per benchmark (also calibrates iterations/sample).
    pub warmup: Duration,
    /// Number of timed samples; the report records their median.
    pub samples: usize,
    /// Target wall-clock duration of one sample.
    pub target_sample: Duration,
}

impl RunnerConfig {
    /// The configuration behind committed baselines: many short samples so
    /// the median shrugs off scheduler noise and stolen time on shared
    /// hosts, rather than few long samples that smear it into every
    /// measurement.
    pub fn full() -> Self {
        RunnerConfig {
            warmup: Duration::from_millis(40),
            samples: 41,
            target_sample: Duration::from_millis(3),
        }
    }

    /// A tiny-iteration-count configuration for CI smoke runs.
    pub fn quick() -> Self {
        RunnerConfig {
            warmup: Duration::from_millis(5),
            samples: 3,
            target_sample: Duration::from_millis(2),
        }
    }
}

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median nanoseconds per operation across the samples.
    pub median_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations folded into each sample.
    pub iters_per_sample: u64,
}

/// A fast-vs-reference pairing recorded alongside the raw measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Comparison {
    /// The hot path being compared.
    pub name: String,
    /// Median ns/op of the pre-optimisation allocating path.
    pub reference_ns: f64,
    /// Median ns/op of the zero-allocation fast path.
    pub fast_ns: f64,
    /// `reference_ns / fast_ns`.
    pub speedup: f64,
}

/// One deterministic fleet-serving metric row recorded alongside the timing
/// medians: unlike `median_ns`, these numbers are simulation outputs and are
/// byte-stable across machines and runs, so `--compare` and the committed
/// `BENCH_fleet.json` can track serving regressions exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetServingRow {
    /// Configuration name (`fleet_serving/<scenario>`).
    pub name: String,
    /// Robots in the fleet.
    pub robots: usize,
    /// Inference servers in the pool.
    pub servers: usize,
    /// Canonical variant(-mix) label of the fleet (`Corki-5`,
    /// `Corki-3+Corki-9`, …).
    pub variant: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Routing policy name.
    pub routing: String,
    /// Content fingerprint of the expanded scenario cell (16 lowercase hex
    /// chars): `--compare` uses it to distinguish an
    /// engine regression (same hash, different metrics) from an edited
    /// scenario (different hash).
    pub scenario_hash: String,
    /// Device composition label (`offloaded`, or the mixed on-robot mix).
    pub composition: String,
    /// Warm-up window trimmed from the latency percentiles (ms).
    pub warmup_ms: f64,
    /// Executed control steps per second across the fleet.
    pub throughput_steps_per_s: f64,
    /// 99th-percentile end-to-end plan latency (ms, warm-up-trimmed).
    pub p99_plan_latency_ms: f64,
    /// 99th-percentile server queueing delay (ms, warm-up-trimmed).
    pub p99_queue_delay_ms: f64,
    /// Fraction of the pool's capacity spent busy.
    pub server_utilization: f64,
    /// Fraction of warm-up-trimmed plans over the scenario's latency budget.
    pub slo_violation_fraction: f64,
    /// Requests whose reply missed the fault plan's timeout.
    pub timed_out_requests: usize,
    /// Re-uploads after a timeout (bounded by the plan's retry policy).
    pub retries: usize,
    /// Plans abandoned after exhausting retries with no fallback model.
    pub dropped_requests: usize,
    /// Plans served by the degraded-mode on-robot fallback model.
    pub fallback_inferences: usize,
    /// Mean time from a crashed server's recovery to its next completed
    /// batch (ms; 0 when no crash recovered in-run).
    pub mean_recovery_ms: f64,
}

/// One end-to-end wall-clock measurement: the full `experiments fleet
/// --scenario <file>` process (spawn, parse, expand, simulate, print) timed
/// hyperfine-style over several runs.  Unlike the in-process `median_ns`
/// benches these include process start-up and I/O, so they answer "what
/// does a user actually wait for"; only the **minimum** is robust across
/// machines, the mean is recorded for context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct E2eWallClockRow {
    /// Row name (`e2e/<scenario>`).
    pub name: String,
    /// Content fingerprint of the expanded scenario cells (16 lowercase hex
    /// chars) — lets `--compare` pair rows with
    /// their baseline by content.
    pub scenario_hash: String,
    /// Number of timed process runs folded into the row.
    pub runs: usize,
    /// Fastest run (seconds) — the robust statistic.
    pub min_s: f64,
    /// Mean across the runs (seconds).
    pub mean_s: f64,
}

/// One live fleet-serving measurement: the committed live scenario lowered
/// onto real processes over a shared-memory segment by `experiments serve`
/// (full mode only).  The latency columns are dominated by modelled sleeps
/// and agree with the DES oracle within host-scheduling tolerance; the
/// transit columns are live-only measurements of the shared-memory hops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LiveServingRow {
    /// Row name (`live_e2e/<scenario>`).
    pub name: String,
    /// Content fingerprint of the executed cell (16 lowercase hex chars) —
    /// pairs the live row with its baseline
    /// and with the simulator's `fleet_serving` row for the same cell.
    pub scenario_hash: String,
    /// Robots in the live fleet (one client process each).
    pub robots: usize,
    /// Inference servers (one worker process each).
    pub servers: usize,
    /// Executed control steps per second across the fleet.
    pub throughput_steps_per_s: f64,
    /// Mean end-to-end plan latency (ms, warm-up-trimmed).
    pub mean_plan_latency_ms: f64,
    /// 99th-percentile end-to-end plan latency (ms, warm-up-trimmed).
    pub p99_plan_latency_ms: f64,
    /// 99th-percentile server queueing delay (ms, warm-up-trimmed).
    pub p99_queue_delay_ms: f64,
    /// Median measured per-plan shared-memory round trip (request +
    /// dispatch + completion + response hops), nanoseconds.
    pub transit_round_trip_p50_ns: f64,
    /// 99th-percentile measured per-plan round trip, nanoseconds.
    pub transit_round_trip_p99_ns: f64,
    /// Lithos-style residual: mean offloaded e2e latency minus the summed
    /// modelled stage totals (ms) — the overhead the live transport adds.
    pub ipc_overhead_ms: f64,
    /// Wall-clock duration of the serving phase, seconds.
    pub wall_s: f64,
}

/// One deterministic per-stage telemetry row from the always-on in-path
/// recorder: extracted from the same DES runs as the `fleet_serving`
/// metric rows, so like them these numbers are simulation outputs —
/// byte-stable across machines — and `--compare` can track a drift in any
/// serving stage's latency distribution exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TelemetryStageRow {
    /// Row name (`telemetry/<scenario>/<stage>`).
    pub name: String,
    /// Content fingerprint of the expanded cell (16 lowercase hex chars) —
    /// pairs the row with its `fleet_serving` sibling and its baseline.
    pub scenario_hash: String,
    /// Stage label (`encode`, `uplink_queue`, `pool_queue`,
    /// `batch_service`, `downlink`, `control_step`).
    pub stage: String,
    /// Values recorded into the stage histogram.
    pub samples: u64,
    /// Values beyond the histogram range (counted, never recorded).
    pub dropped: u64,
    /// Exact mean of the recorded values, ns.
    pub mean_ns: f64,
    /// Median, ns (log2-bucket ceiling: conservative within one power of
    /// two of the exact nearest-rank value).
    pub p50_ns: u64,
    /// 99th percentile, ns (log2-bucket ceiling).
    pub p99_ns: u64,
    /// 99.9th percentile, ns (log2-bucket ceiling).
    pub p999_ns: u64,
}

/// The canonical report emitted as `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BenchReport {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Human-readable provenance string.
    pub generator: String,
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Raw per-benchmark medians.
    pub benches: Vec<BenchResult>,
    /// Fast-vs-reference speedups derived from `benches`.
    pub comparisons: Vec<Comparison>,
    /// Deterministic fleet-serving metrics (identical in every mode).
    pub fleet_rows: Vec<FleetServingRow>,
    /// Deterministic per-stage telemetry rows from the same DES runs as
    /// `fleet_rows` (identical in every mode).
    pub telemetry: Vec<TelemetryStageRow>,
    /// End-to-end wall-clock rows (full mode only; empty when the
    /// `experiments` binary is not built alongside the runner).
    pub e2e: Vec<E2eWallClockRow>,
    /// Live fleet-serving rows over shared memory (full mode only; empty
    /// when the `experiments` binary is not built alongside the runner).
    pub live: Vec<LiveServingRow>,
}

impl BenchReport {
    /// Serialises the report as pretty-printed canonical JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serialisable")
    }

    /// Parses and schema-validates a report.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the JSON does not parse into
    /// the report schema or violates its invariants.
    pub fn from_json(json: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("not a bench report: {e}"))?;
        report.validate()?;
        Ok(report)
    }

    /// Checks the report invariants (version, non-empty suite, positive
    /// medians, consistent comparisons).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {} (runner understands {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.benches.is_empty() {
            return Err("empty benchmark suite".to_owned());
        }
        for bench in &self.benches {
            let positive = bench.median_ns.is_finite() && bench.median_ns > 0.0;
            if !positive || bench.samples == 0 || bench.iters_per_sample == 0 {
                return Err(format!("degenerate measurement for `{}`", bench.name));
            }
        }
        for cmp in &self.comparisons {
            let all_positive = [cmp.reference_ns, cmp.fast_ns, cmp.speedup]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0);
            if !all_positive {
                return Err(format!("degenerate comparison for `{}`", cmp.name));
            }
            let expected = cmp.reference_ns / cmp.fast_ns;
            if (cmp.speedup - expected).abs() > 1e-6 * expected {
                return Err(format!("inconsistent speedup for `{}`", cmp.name));
            }
        }
        for row in &self.fleet_rows {
            let finite_latencies = [row.p99_plan_latency_ms, row.p99_queue_delay_ms, row.warmup_ms]
                .iter()
                .all(|v| v.is_finite() && *v >= 0.0);
            let plausible = row.throughput_steps_per_s.is_finite()
                && row.throughput_steps_per_s > 0.0
                && row.server_utilization.is_finite()
                && (0.0..=1.0 + 1e-9).contains(&row.server_utilization)
                && row.robots > 0
                && row.servers > 0;
            if !finite_latencies || !plausible {
                return Err(format!("degenerate fleet metrics for `{}`", row.name));
            }
            let hash_ok = row.scenario_hash.len() == 16
                && row
                    .scenario_hash
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
            if !hash_ok {
                return Err(format!("malformed scenario hash for `{}`", row.name));
            }
            let faults_ok = row.slo_violation_fraction.is_finite()
                && (0.0..=1.0).contains(&row.slo_violation_fraction)
                && row.mean_recovery_ms.is_finite()
                && row.mean_recovery_ms >= 0.0;
            if !faults_ok {
                return Err(format!("degenerate fault metrics for `{}`", row.name));
            }
        }
        for row in &self.telemetry {
            let quantiles_ok = row.mean_ns.is_finite()
                && row.mean_ns >= 0.0
                && row.p50_ns <= row.p99_ns
                && row.p99_ns <= row.p999_ns;
            if !quantiles_ok {
                return Err(format!("degenerate telemetry row `{}`", row.name));
            }
            let hash_ok = row.scenario_hash.len() == 16
                && row
                    .scenario_hash
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
            if !hash_ok {
                return Err(format!("malformed scenario hash for `{}`", row.name));
            }
        }
        for row in &self.e2e {
            let timings_ok = row.runs >= 1
                && row.min_s.is_finite()
                && row.min_s > 0.0
                && row.mean_s.is_finite()
                && row.mean_s >= row.min_s;
            if !timings_ok {
                return Err(format!("degenerate e2e wall-clock row `{}`", row.name));
            }
            let hash_ok = row.scenario_hash.len() == 16
                && row
                    .scenario_hash
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
            if !hash_ok {
                return Err(format!("malformed scenario hash for `{}`", row.name));
            }
        }
        for row in &self.live {
            let finite_latencies = [
                row.mean_plan_latency_ms,
                row.p99_plan_latency_ms,
                row.p99_queue_delay_ms,
                row.transit_round_trip_p50_ns,
                row.transit_round_trip_p99_ns,
            ]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0);
            let plausible = row.throughput_steps_per_s.is_finite()
                && row.throughput_steps_per_s > 0.0
                && row.wall_s.is_finite()
                && row.wall_s > 0.0
                && row.ipc_overhead_ms.is_finite()
                && row.robots > 0
                && row.servers > 0;
            if !finite_latencies || !plausible {
                return Err(format!("degenerate live serving row `{}`", row.name));
            }
            let hash_ok = row.scenario_hash.len() == 16
                && row
                    .scenario_hash
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
            if !hash_ok {
                return Err(format!("malformed scenario hash for `{}`", row.name));
            }
        }
        Ok(())
    }

    /// Formats the report as an aligned console table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("micro-bench report ({} mode)\n", self.mode));
        for bench in &self.benches {
            out.push_str(&format!("  {:<44} {:>14.1} ns/op\n", bench.name, bench.median_ns));
        }
        for cmp in &self.comparisons {
            out.push_str(&format!(
                "  {:<44} {:>12.2}x  ({:.0} ns -> {:.0} ns)\n",
                format!("speedup: {}", cmp.name),
                cmp.speedup,
                cmp.reference_ns,
                cmp.fast_ns
            ));
        }
        for row in &self.fleet_rows {
            out.push_str(&format!(
                "  {:<44} {:>7.1} st/s  p99 plan {:>7.1} ms  p99 queue {:>7.1} ms  util {:>4.2}\n",
                format!("metrics: {}", row.name),
                row.throughput_steps_per_s,
                row.p99_plan_latency_ms,
                row.p99_queue_delay_ms,
                row.server_utilization
            ));
        }
        for row in &self.telemetry {
            out.push_str(&format!(
                "  {:<44} {:>8} samples  p50/p99/p99.9 {:>9.3}/{:>9.3}/{:>9.3} ms\n",
                format!("telemetry: {}", row.name),
                row.samples,
                row.p50_ns as f64 / 1e6,
                row.p99_ns as f64 / 1e6,
                row.p999_ns as f64 / 1e6,
            ));
        }
        for row in &self.e2e {
            out.push_str(&format!(
                "  {:<44} min {:>7.3} s  mean {:>7.3} s  ({} runs)\n",
                format!("wall-clock: {}", row.name),
                row.min_s,
                row.mean_s,
                row.runs
            ));
        }
        for row in &self.live {
            out.push_str(&format!(
                "  {:<44} {:>7.1} st/s  p99 plan {:>7.1} ms  transit p50 {:>8.1} us  wall {:>6.2} s\n",
                format!("live: {}", row.name),
                row.throughput_steps_per_s,
                row.p99_plan_latency_ms,
                row.transit_round_trip_p50_ns / 1_000.0,
                row.wall_s
            ));
        }
        out
    }
}

/// One named routine in the suite.
struct BenchCase<'a> {
    name: String,
    routine: Box<dyn FnMut() + 'a>,
}

/// Whether a benchmark name survives the `--only` filter: `None` keeps
/// everything, otherwise a comma-separated list of name prefixes.
fn filter_keeps(filter: Option<&str>, name: &str) -> bool {
    filter.is_none_or(|f| f.split(',').any(|prefix| name.starts_with(prefix.trim())))
}

/// Whether a report section (`e2e`, `live_e2e`, `ipc_transit`, …) should
/// run at all under the filter — matched prefix-against-prefix in both
/// directions so `--only live` and `--only live_e2e/live_fifo` both keep
/// the live section.
fn filter_wants_section(filter: Option<&str>, section: &str) -> bool {
    filter.is_none_or(|f| {
        f.split(',').any(|prefix| {
            let prefix = prefix.trim();
            section.starts_with(prefix) || prefix.starts_with(section)
        })
    })
}

/// Shared-memory fixtures behind the `ipc_transit` bench group: a loopback
/// ring and a seqlock slot exercised on one thread, plus an echo thread
/// bouncing messages back over a request/response ring pair for the
/// cross-thread round trip.  The segment is leaked (a few kilobytes, once
/// per suite run) so the handles and the echo thread can borrow it
/// `'static`; the echo thread parks while idle — instead of stealing the
/// timing loops' cycles — and is stopped and joined on drop.
struct IpcTransitFixture {
    local_ring: corki_ipc::SpscRing<'static>,
    slot: corki_ipc::SeqlockSlot<'static>,
    req: corki_ipc::SpscRing<'static>,
    resp: corki_ipc::SpscRing<'static>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    echo: Option<std::thread::JoinHandle<()>>,
}

impl IpcTransitFixture {
    /// Slot payload: one live-protocol message (64 bytes).
    const MSG: usize = 64;

    fn new() -> Self {
        let seg: &'static corki_ipc::ShmSegment = Box::leak(Box::new(
            corki_ipc::ShmSegment::anonymous(16 * 1024).expect("anonymous ipc bench segment"),
        ));
        let local_ring = seg.init_ring(0, 8, Self::MSG);
        let slot = seg.init_seqlock(1024, Self::MSG);
        let req = seg.init_ring(2048, 8, Self::MSG);
        let resp = seg.init_ring(4096, 8, Self::MSG);
        let echo_req = seg.ring(2048).expect("attach echo request ring");
        let echo_resp = seg.ring(4096).expect("attach echo response ring");
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let echo_stop = std::sync::Arc::clone(&stop);
        let echo = std::thread::spawn(move || {
            let mut buf = [0_u8; Self::MSG];
            loop {
                if echo_req.try_pop(&mut buf) {
                    while !echo_resp.try_push(&buf) {
                        std::thread::yield_now();
                    }
                } else if echo_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                } else {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
        });
        IpcTransitFixture { local_ring, slot, req, resp, stop, echo: Some(echo) }
    }

    /// One cross-thread round trip: push a request, wake the echo thread,
    /// spin-pop the response (yielding, so a single-core host can run the
    /// echo thread at all).
    fn round_trip(&self, msg: &[u8; Self::MSG], out: &mut [u8; Self::MSG]) {
        assert!(self.req.try_push(msg), "echo thread drains every request");
        if let Some(echo) = &self.echo {
            echo.thread().unpark();
        }
        while !self.resp.try_pop(out) {
            std::thread::yield_now();
        }
    }
}

impl Drop for IpcTransitFixture {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(echo) = self.echo.take() {
            echo.thread().unpark();
            let _ = echo.join();
        }
    }
}

/// Warm a routine up and pick the iteration count that fills one sample.
fn calibrate(config: &RunnerConfig, routine: &mut dyn FnMut()) -> u64 {
    let warmup_start = Instant::now();
    let mut warmup_iters: u64 = 0;
    while warmup_start.elapsed() < config.warmup {
        routine();
        warmup_iters += 1;
    }
    let per_iter = warmup_start.elapsed().as_nanos() / u128::from(warmup_iters.max(1));
    (config.target_sample.as_nanos() / per_iter.max(1)).clamp(1, 1_000_000) as u64
}

/// Times every case with interleaved sample rounds — all benchmarks see the
/// same thermal/frequency environment instead of later cases paying for the
/// turbo budget the earlier ones spent — and reports per-case medians.
fn measure_interleaved(config: &RunnerConfig, cases: &mut [BenchCase<'_>]) -> Vec<BenchResult> {
    let iters: Vec<u64> =
        cases.iter_mut().map(|case| calibrate(config, &mut case.routine)).collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(config.samples); cases.len()];
    for _ in 0..config.samples {
        for (case_index, case) in cases.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..iters[case_index] {
                (case.routine)();
            }
            samples[case_index].push(start.elapsed().as_nanos() as f64 / iters[case_index] as f64);
        }
    }
    cases
        .iter()
        .zip(samples.iter_mut())
        .zip(&iters)
        .map(|((case, case_samples), &iters_per_sample)| {
            case_samples.sort_by(f64::total_cmp);
            BenchResult {
                name: case.name.clone(),
                median_ns: case_samples[case_samples.len() / 2],
                samples: config.samples,
                iters_per_sample,
            }
        })
        .collect()
}

fn bench_observation() -> Observation {
    Observation {
        end_effector: EePose::new(Vec3::new(0.35, 0.0, 0.3), Vec3::ZERO, GripperState::Open),
        object_position: Vec3::new(0.45, -0.1, 0.02),
        goal_position: Vec3::new(0.5, 0.1, 0.02),
        ..Observation::default()
    }
}

fn bench_waypoints(n: usize) -> Vec<EePose> {
    (0..n)
        .map(|i| {
            EePose::new(
                Vec3::new(0.3 + 0.012 * i as f64, -0.015 * i as f64, 0.25 + 0.004 * i as f64),
                Vec3::new(0.0, 0.0, 0.02 * i as f64),
                if i >= n / 2 { GripperState::Closed } else { GripperState::Open },
            )
        })
        .collect()
}

/// Runs the whole micro-bench suite and assembles the report.
pub fn run_suite(config: &RunnerConfig, mode: &str) -> BenchReport {
    run_suite_filtered(config, mode, None)
}

/// [`run_suite`] restricted to benchmarks whose name starts with one of
/// the comma-separated prefixes in `filter` (e.g. `fleet_serving` or
/// `ipc_transit,des_queue`); comparisons whose members were filtered out
/// are dropped.
pub fn run_suite_filtered(config: &RunnerConfig, mode: &str, filter: Option<&str>) -> BenchReport {
    // The echo thread only exists when the ipc_transit group runs at all.
    let ipc = filter_wants_section(filter, "ipc_transit").then(IpcTransitFixture::new);
    let observation = bench_observation();

    // Policy inference: pre-optimisation allocating path vs the live
    // zero-allocation fast path, identical network shapes and identical
    // steady state: Corki-9 executes 9 control steps per plan, so each plan
    // pushes 8 mask embeddings plus the freshly captured frame (Fig. 4).
    const HORIZON: usize = 9;
    let mut reference_head = RefCorkiHead::new(HORIZON, &mut bench_rng());
    let mut policy = CorkiTrajectoryPolicy::new(HORIZON, &mut bench_rng());
    let mut request = PlanRequest::from_observation(observation);
    request.steps_since_last_plan = HORIZON;
    let mut out = Trajectory::hold(&observation.end_effector, 1);
    let mut baseline = BaselineFramePolicy::new(&mut bench_rng());
    let baseline_request = PlanRequest::from_observation(observation);

    // Trajectory fitting: sample-buffer fit vs in-place refit.
    let waypoints = bench_waypoints(10);
    let mut trajectory = Trajectory::fit_waypoints(&waypoints, CONTROL_STEP).expect("valid fit");

    // Control kernel: per-solve refactorisation vs the shared factorisation.
    let robot = panda_model();
    let state = JointState::at_rest(PANDA_HOME.to_vec());
    let fk = robot.forward_kinematics(&state.positions);
    let mut target = fk.end_effector;
    target.translation.x += 0.05;
    let task_reference = TaskReference::hold(target);
    let controller = bench_controller();

    // Full pipeline simulation (Corki-5, 120 frames).
    let mut pipeline_config = PipelineConfig::paper_defaults(Variant::CorkiFixed(5));
    pipeline_config.num_frames = 120;

    // Fleet serving: one timing case per committed scenario file under
    // `crates/bench/scenarios/` — the single-server FIFO/batching shapes,
    // the routed pools and the mixed-variant/mixed-device fleets all come
    // from the same declarative specs the metric rows run.
    let fleet_cases = fleet_scenario_cells();

    let mut cases: Vec<BenchCase<'_>> = vec![
        BenchCase {
            name: "policy_inference/corki_reference_alloc".to_owned(),
            routine: Box::new(|| {
                black_box(reference_head.plan(black_box(&observation), HORIZON - 1));
            }),
        },
        BenchCase {
            name: "policy_inference/corki_fast".to_owned(),
            routine: Box::new(|| {
                policy.plan_into(black_box(&request), &mut out);
            }),
        },
        BenchCase {
            name: "policy_inference/baseline_fast".to_owned(),
            routine: Box::new(|| {
                black_box(baseline.plan(black_box(&baseline_request)));
            }),
        },
        BenchCase {
            name: "trajectory_fit/reference_alloc".to_owned(),
            routine: Box::new(|| {
                black_box(reference_fit_waypoints(black_box(&waypoints), CONTROL_STEP));
            }),
        },
        BenchCase {
            name: "trajectory_fit/refit_fast".to_owned(),
            routine: Box::new(|| {
                trajectory.refit_waypoints(black_box(&waypoints), CONTROL_STEP).expect("valid fit");
            }),
        },
        BenchCase {
            name: "control_kernel/reference_refactor".to_owned(),
            routine: Box::new(|| {
                black_box(reference_task_space_torque(
                    black_box(&robot),
                    &state,
                    &task_reference,
                    1e-6,
                    &controller,
                ));
            }),
        },
        BenchCase {
            name: "control_kernel/ts_ctc_fast".to_owned(),
            routine: Box::new(|| {
                black_box(controller.compute_torque(black_box(&robot), &state, &task_reference));
            }),
        },
        BenchCase {
            name: "pipeline_sim/corki5_120_frames".to_owned(),
            routine: Box::new(|| {
                black_box(PipelineSimulator::new(pipeline_config.clone()).simulate());
            }),
        },
    ];
    for (name, cell) in &fleet_cases {
        cases.push(BenchCase {
            name: name.clone(),
            routine: Box::new(move || {
                black_box(FleetSimulator::new(cell.config.clone()).run());
            }),
        });
    }

    // Steady-state schedule/pop traffic through the event queue that backs
    // every fleet run.
    let mut queue = corki_system::des::EventQueue::new();
    let mut queue_state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..512 {
        queue_state = lcg(queue_state);
        queue.schedule(1.0 + (queue_state >> 40) as f64 / 64.0, queue_state);
    }
    cases.push(BenchCase {
        name: "des_queue/event_queue".to_owned(),
        routine: Box::new(move || {
            queue_state = lcg(queue_state);
            queue.schedule(queue.now_ms() + 1.0 + (queue_state >> 40) as f64 / 64.0, queue_state);
            black_box(queue.pop());
        }),
    });
    // Shared-memory transit: the per-hop costs of the live serving path —
    // one SPSC ring hop and one seqlock publish/snapshot on a single
    // thread, and the cross-thread ring round trip whose ratio against the
    // same-thread hop is the scheduling/wakeup overhead a live process
    // pays on top of the copy itself.
    if let Some(ipc) = ipc.as_ref() {
        let mut ring_buf = [0_u8; IpcTransitFixture::MSG];
        cases.push(BenchCase {
            name: "ipc_transit/ring_push_pop".to_owned(),
            routine: Box::new(move || {
                black_box(ipc.local_ring.try_push(&[0x5A; IpcTransitFixture::MSG]));
                black_box(ipc.local_ring.try_pop(&mut ring_buf));
            }),
        });
        let mut seq_out = [0_u8; IpcTransitFixture::MSG];
        let mut seq_payload = [0_u8; IpcTransitFixture::MSG];
        let mut seq_counter = 0_u64;
        cases.push(BenchCase {
            name: "ipc_transit/seqlock_publish_read".to_owned(),
            routine: Box::new(move || {
                seq_counter = seq_counter.wrapping_add(1);
                seq_payload[..8].copy_from_slice(&seq_counter.to_le_bytes());
                ipc.slot.write(&seq_payload);
                black_box(ipc.slot.read(&mut seq_out));
            }),
        });
        let mut rtt_out = [0_u8; IpcTransitFixture::MSG];
        cases.push(BenchCase {
            name: "ipc_transit/cross_thread_rtt".to_owned(),
            routine: Box::new(move || {
                ipc.round_trip(&[0x7E; IpcTransitFixture::MSG], &mut rtt_out);
                black_box(&rtt_out);
            }),
        });
    }
    // The always-on recorder lives in the serving hot path, so its per-
    // record cost is pinned in both homes: plain memory (the DES engine's
    // `Recorder`) and a shm-layout page of atomics (the live processes'
    // `ShmTelemetry`).  The page is leaked like the ipc fixture's segment —
    // a few kilobytes once per suite run — so the handle can live `'static`
    // inside the timing closure.
    let mut recorder = corki_telemetry::Recorder::new(8);
    let mut record_state = 0x9e37_79b9_7f4a_7c15u64;
    cases.push(BenchCase {
        name: "telemetry/record".to_owned(),
        routine: Box::new(move || {
            record_state = lcg(record_state);
            recorder.record(corki_telemetry::Stage::PoolQueue, black_box(record_state >> 40));
        }),
    });
    let page: &'static [std::sync::atomic::AtomicU64] = Box::leak(
        (0..corki_telemetry::PAGE_WORDS)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    );
    let shm_recorder = corki_telemetry::ShmTelemetry::new(page);
    let mut shm_state = 0x853c_49e6_748f_ea9bu64;
    cases.push(BenchCase {
        name: "telemetry/shm_record".to_owned(),
        routine: Box::new(move || {
            shm_state = lcg(shm_state);
            shm_recorder.record(corki_telemetry::Stage::PoolQueue, black_box(shm_state >> 40));
        }),
    });
    cases.retain(|case| filter_keeps(filter, &case.name));
    // The deterministic fleet metric rows only matter when the report
    // covers fleet benches at all — a `--only trajectory` run should not
    // pay for fleet simulations it will not record.
    let (fleet_rows, telemetry_rows) = if fleet_cases.iter().any(|(n, _)| filter_keeps(filter, n)) {
        fleet_metric_rows(&fleet_cases)
    } else {
        (Vec::new(), Vec::new())
    };
    // End-to-end wall-clock rows are full-mode only (a quick CI run should
    // not spawn multi-second child processes) and need the sibling
    // `experiments` binary.
    let e2e = if mode == "full" && filter_wants_section(filter, "e2e") {
        e2e_wall_clock_rows(E2E_RUNS)
    } else {
        Vec::new()
    };
    // Live fleet-serving rows are full-mode only too: each one spawns a
    // whole robot/worker/coordinator process fleet over shared memory.
    let live = if mode == "full" && filter_wants_section(filter, "live_e2e") {
        live_serving_rows()
    } else {
        Vec::new()
    };
    let benches = measure_interleaved(config, &mut cases);
    drop(cases);

    let comparison_specs = [
        (
            "policy_inference",
            "policy_inference/corki_reference_alloc",
            "policy_inference/corki_fast",
        ),
        ("trajectory_fit", "trajectory_fit/reference_alloc", "trajectory_fit/refit_fast"),
        ("control_kernel", "control_kernel/reference_refactor", "control_kernel/ts_ctc_fast"),
        // Cross-thread RTT over the same-thread hop: how much the wakeup and
        // scheduling cost on top of the shared-memory copy itself (the live
        // path's per-hop floor).
        (
            "ipc_transit/scheduling_overhead",
            "ipc_transit/cross_thread_rtt",
            "ipc_transit/ring_push_pop",
        ),
        // What the shared-memory home of the recorder costs over plain
        // memory (fetch_add atomics vs ordinary adds on the same
        // log2-bucket layout).
        ("telemetry/shm_overhead", "telemetry/shm_record", "telemetry/record"),
    ];
    let comparisons = comparison_specs
        .into_iter()
        .filter_map(|(name, reference, fast)| {
            let find = |n: &str| benches.iter().find(|b| b.name == n).map(|b| b.median_ns);
            let reference_ns = find(reference)?;
            let fast_ns = find(fast)?;
            Some(Comparison {
                name: name.to_owned(),
                reference_ns,
                fast_ns,
                speedup: reference_ns / fast_ns,
            })
        })
        .collect();

    BenchReport {
        schema_version: SCHEMA_VERSION,
        generator: "corki-bench micro runner".to_owned(),
        mode: mode.to_owned(),
        benches,
        comparisons,
        fleet_rows,
        telemetry: telemetry_rows,
        e2e,
        live,
    }
}

/// Timed process runs folded into each e2e wall-clock row.
const E2E_RUNS: usize = 5;

/// The committed scenarios timed end-to-end: the 10k-robot pool (the scale
/// story) and a small routed pool (the latency floor of a short run).
const E2E_SCENARIO_FILES: [&str; 2] = ["fleet_10k_pool.json", "pool2_lqd_8robots_60frames.json"];

/// A splitmix-flavoured LCG step shared by the queue-parity benches.
#[inline]
fn lcg(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// The committed fleet-serving scenario files — the single source of truth
/// for the canonical bench cases recorded in `BENCH_fleet.json`.  Baked in
/// at compile time so the `bench` binary works from any directory; a bench
/// integration test additionally verifies the on-disk files stay canonical.
pub const FLEET_SCENARIO_SOURCES: [&str; 11] = [
    include_str!("../scenarios/fifo_8robots_60frames.json"),
    include_str!("../scenarios/batch4_8robots_60frames.json"),
    include_str!("../scenarios/pool2_lqd_8robots_60frames.json"),
    include_str!("../scenarios/mixed_jetson_v100_8robots_60frames.json"),
    include_str!("../scenarios/mixed_variant_stf_pool2_8robots_60frames.json"),
    include_str!("../scenarios/adap_onrobot_batch_pool2_8robots_60frames.json"),
    include_str!("../scenarios/fleet_10k_pool.json"),
    include_str!("../scenarios/crash_pool2_lqd_8robots_60frames.json"),
    include_str!("../scenarios/degraded_uplink_retry_8robots_60frames.json"),
    include_str!("../scenarios/churn_fallback_8robots_60frames.json"),
    include_str!("../scenarios/live_fifo_8robots_48frames.json"),
];

/// The committed scenarios additionally lowered onto real processes for
/// the `live` report section (full mode only): the DES runs them as
/// ordinary `fleet_serving` rows — the oracle — and `experiments serve`
/// runs them over shared memory, fingerprint-matched by `scenario_hash`.
const LIVE_SCENARIO_FILES: [&str; 1] = ["live_fifo_8robots_48frames.json"];

/// Parses the committed scenarios and expands each into its bench cells
/// (`fleet_serving/<scenario>` per cell; multi-cell scenarios get an index
/// suffix).  Shared by the timing benches and the metric rows so both
/// measure the same fleets.
pub fn fleet_scenario_cells() -> Vec<(String, ConcreteScenario)> {
    FLEET_SCENARIO_SOURCES
        .iter()
        .flat_map(|json| {
            let spec = ScenarioSpec::from_json(json)
                .unwrap_or_else(|e| panic!("committed bench scenario is invalid: {e}"));
            let cells = spec.expand().expect("validated scenarios expand");
            let single = cells.len() == 1;
            cells.into_iter().enumerate().map(move |(index, cell)| {
                let name = if single {
                    format!("fleet_serving/{}", cell.scenario)
                } else {
                    format!("fleet_serving/{}/{index}", cell.scenario)
                };
                (name, cell)
            })
        })
        .collect()
}

/// Runs the canonical fleet cells once and extracts their deterministic
/// serving metrics plus the per-stage telemetry rows the engine's always-on
/// recorder produced alongside (both are simulation outputs: byte-stable
/// across machines, unlike the timing medians).  Takes the cells the timing
/// benches already expanded so all three measure the same fleets by
/// construction.
fn fleet_metric_rows(
    cases: &[(String, ConcreteScenario)],
) -> (Vec<FleetServingRow>, Vec<TelemetryStageRow>) {
    let mut fleet_rows = Vec::with_capacity(cases.len());
    let mut telemetry_rows = Vec::new();
    for (name, cell) in cases {
        let outcome = FleetSimulator::new(cell.config.clone()).run();
        let summary = &outcome.summary;
        let scenario_hash = scenario_fingerprint(std::slice::from_ref(cell));
        fleet_rows.push(FleetServingRow {
            name: name.clone(),
            robots: summary.robots,
            servers: summary.servers,
            variant: cell.variant_label.clone(),
            scheduler: cell.scheduler_label.clone(),
            routing: cell.routing_label.clone(),
            scenario_hash: scenario_hash.clone(),
            composition: cell.composition_label.clone(),
            warmup_ms: summary.warmup_ms,
            throughput_steps_per_s: summary.throughput_steps_per_s,
            p99_plan_latency_ms: summary.p99_plan_latency_ms,
            p99_queue_delay_ms: summary.p99_queue_delay_ms,
            server_utilization: summary.server_utilization,
            slo_violation_fraction: summary.slo_violation_fraction,
            timed_out_requests: summary.timed_out_requests,
            retries: summary.retries,
            dropped_requests: summary.dropped_requests,
            fallback_inferences: summary.fallback_inferences,
            mean_recovery_ms: summary.mean_recovery_ms,
        });
        let stage_prefix = name.replacen("fleet_serving/", "telemetry/", 1);
        for stage in &outcome.telemetry.stages {
            telemetry_rows.push(TelemetryStageRow {
                name: format!("{stage_prefix}/{}", stage.stage),
                scenario_hash: scenario_hash.clone(),
                stage: stage.stage.clone(),
                samples: stage.samples,
                dropped: stage.dropped,
                mean_ns: stage.mean_ns,
                p50_ns: stage.p50_ns,
                p99_ns: stage.p99_ns,
                p999_ns: stage.p999_ns,
            });
        }
    }
    (fleet_rows, telemetry_rows)
}

/// Times `experiments fleet --scenario <file>` end-to-end, hyperfine-style:
/// one warm-up run, then `runs` timed process invocations per committed
/// scenario in [`E2E_SCENARIO_FILES`], recording the minimum (robust) and
/// the mean (context).  Returns no rows when the sibling `experiments`
/// binary is missing (e.g. under `cargo test`, where `current_exe` is a
/// test harness deep in `target/*/deps`).
fn e2e_wall_clock_rows(runs: usize) -> Vec<E2eWallClockRow> {
    let Some(experiments) = sibling_experiments_binary() else {
        return Vec::new();
    };
    let scenario_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    E2E_SCENARIO_FILES
        .iter()
        .filter_map(|file| {
            let path = scenario_dir.join(file);
            let json = std::fs::read_to_string(&path).ok()?;
            let spec = ScenarioSpec::from_json(&json).ok()?;
            let cells = spec.expand().ok()?;
            let time_one = || -> Option<f64> {
                let start = Instant::now();
                let status = std::process::Command::new(&experiments)
                    .arg("fleet")
                    .arg("--scenario")
                    .arg(&path)
                    .stdout(std::process::Stdio::null())
                    .stderr(std::process::Stdio::null())
                    .status()
                    .ok()?;
                status.success().then(|| start.elapsed().as_secs_f64())
            };
            time_one()?; // warm-up (page cache, frequency governor)
            let timings: Vec<f64> = (0..runs).map(|_| time_one()).collect::<Option<_>>()?;
            let min_s = timings.iter().copied().fold(f64::INFINITY, f64::min);
            let mean_s = timings.iter().sum::<f64>() / timings.len() as f64;
            Some(E2eWallClockRow {
                name: format!("e2e/{}", spec.name),
                scenario_hash: scenario_fingerprint(&cells),
                runs,
                min_s,
                mean_s,
            })
        })
        .collect()
}

/// Lowers each committed live scenario onto real processes via the sibling
/// `experiments serve` binary and extracts one [`LiveServingRow`] per cell
/// from its JSON report.  Returns no rows when the binary is missing
/// (e.g. under `cargo test`) or a live run fails — the `live` section is
/// best-effort context, not a gate on the machine's process budget.
fn live_serving_rows() -> Vec<LiveServingRow> {
    let Some(experiments) = sibling_experiments_binary() else {
        return Vec::new();
    };
    let scenario_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    LIVE_SCENARIO_FILES
        .iter()
        .filter_map(|file| {
            let path = scenario_dir.join(file);
            let json_out = std::env::temp_dir()
                .join(format!("corki-live-bench-{}-{file}", std::process::id()));
            let status = std::process::Command::new(&experiments)
                .arg("serve")
                .arg("--scenario")
                .arg(&path)
                .arg("--json")
                .arg(&json_out)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .ok()?;
            let raw = std::fs::read_to_string(&json_out).ok();
            let _ = std::fs::remove_file(&json_out);
            if !status.success() {
                return None;
            }
            let value: serde_json::Value = serde_json::from_str(&raw?).ok()?;
            let reports =
                Vec::<corki_serve::LiveReport>::from_value(value.as_object()?.get("serve")?)
                    .ok()?;
            let single = reports.len() == 1;
            Some(reports.into_iter().enumerate().map(move |(index, report)| {
                let name = if single {
                    format!("live_e2e/{}", report.scenario)
                } else {
                    format!("live_e2e/{}/{index}", report.scenario)
                };
                LiveServingRow {
                    name,
                    scenario_hash: report.fingerprint,
                    robots: report.row.robots,
                    servers: report.row.servers,
                    throughput_steps_per_s: report.row.throughput_steps_per_s,
                    mean_plan_latency_ms: report.row.mean_plan_latency_ms,
                    p99_plan_latency_ms: report.row.p99_plan_latency_ms,
                    p99_queue_delay_ms: report.row.p99_queue_delay_ms,
                    transit_round_trip_p50_ns: report.transit.round_trip.p50_ns,
                    transit_round_trip_p99_ns: report.transit.round_trip.p99_ns,
                    ipc_overhead_ms: report.ipc_overhead_ms,
                    wall_s: report.wall_s,
                }
            }))
        })
        .flatten()
        .collect()
}

/// Locates the `experiments` binary next to the running one, if any.
fn sibling_experiments_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("experiments{}", std::env::consts::EXE_SUFFIX);
    let sibling = exe.parent()?.join(&name);
    sibling.is_file().then_some(sibling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_a_valid_report_that_round_trips() {
        let report = run_suite(&RunnerConfig::quick(), "quick");
        report.validate().expect("fresh report must validate");
        let json = report.to_json();
        let parsed = BenchReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(
            report.comparisons.len(),
            5,
            "3 fast-path + ipc-transit + telemetry comparisons"
        );
        assert!(report.benches.len() >= 16);
        assert!(report.benches.iter().any(|b| b.name.starts_with("fleet_serving/")));
        assert_eq!(report.fleet_rows.len(), FLEET_SCENARIO_SOURCES.len());
        assert!(report.e2e.is_empty(), "e2e wall-clock rows are full-mode only");
        assert!(!report.to_table().is_empty());
        // The 10k scenario is one case like every other committed scenario.
        assert!(report.benches.iter().any(|b| b.name == "fleet_serving/fleet_10k_pool"));
        assert!(report.benches.iter().any(|b| b.name == "des_queue/event_queue"));
        // The shared-memory transit group and its scheduling comparison.
        assert!(report.benches.iter().any(|b| b.name == "ipc_transit/ring_push_pop"));
        assert!(report.benches.iter().any(|b| b.name == "ipc_transit/seqlock_publish_read"));
        assert!(report.benches.iter().any(|b| b.name == "ipc_transit/cross_thread_rtt"));
        assert!(report.comparisons.iter().any(|c| c.name == "ipc_transit/scheduling_overhead"));
        // The in-path recorder cases and their shared-memory-cost pairing.
        assert!(report.benches.iter().any(|b| b.name == "telemetry/record"));
        assert!(report.benches.iter().any(|b| b.name == "telemetry/shm_record"));
        assert!(report.comparisons.iter().any(|c| c.name == "telemetry/shm_overhead"));
        // Six stage rows per fleet cell, paired by fingerprint.
        assert_eq!(report.telemetry.len(), report.fleet_rows.len() * 6);
        assert!(report
            .telemetry
            .iter()
            .any(|r| r.name == "telemetry/pool2_lqd_8robots_60frames/pool_queue" && r.samples > 0));
        assert!(report.live.is_empty(), "live serving rows are full-mode only");
    }

    #[test]
    fn the_only_filter_accepts_comma_separated_prefixes() {
        let report = run_suite_filtered(
            &RunnerConfig::quick(),
            "quick",
            Some("ipc_transit,des_queue/event"),
        );
        report.validate().expect("filtered report must validate");
        assert_eq!(report.benches.len(), 4, "3 ipc_transit cases + des_queue/event_queue");
        assert!(report
            .benches
            .iter()
            .all(|b| b.name.starts_with("ipc_transit") || b.name == "des_queue/event_queue"));
        assert_eq!(report.comparisons.len(), 1, "only the ipc pair survives whole");
        assert!(report.fleet_rows.is_empty(), "no fleet benches -> no fleet metric rows");
        assert!(report.telemetry.is_empty(), "no fleet benches -> no telemetry rows");
    }

    #[test]
    fn filtered_suite_keeps_only_the_prefix_and_drops_broken_comparisons() {
        let report = run_suite_filtered(&RunnerConfig::quick(), "quick", Some("fleet_serving"));
        report.validate().expect("filtered report must validate");
        // One case per committed scenario.
        assert_eq!(report.benches.len(), FLEET_SCENARIO_SOURCES.len());
        assert!(report.benches.iter().all(|b| b.name.starts_with("fleet_serving/")));
        // Every comparison loses its members to the filter.
        assert!(report.comparisons.is_empty());
        // The deterministic metric rows ride along in every mode, each
        // fleet cell contributing its six telemetry stage rows.
        assert_eq!(report.fleet_rows.len(), FLEET_SCENARIO_SOURCES.len());
        assert_eq!(report.telemetry.len(), FLEET_SCENARIO_SOURCES.len() * 6);
    }

    #[test]
    fn non_fleet_filters_skip_the_fleet_metric_rows() {
        let report = run_suite_filtered(&RunnerConfig::quick(), "quick", Some("trajectory_fit"));
        report.validate().expect("filtered report must validate");
        assert!(report.benches.iter().all(|b| b.name.starts_with("trajectory_fit")));
        assert!(report.fleet_rows.is_empty(), "no fleet benches -> no fleet metric rows");
    }

    #[test]
    fn fleet_metric_rows_are_deterministic_and_heterogeneous() {
        let (a, telemetry_a) = fleet_metric_rows(&fleet_scenario_cells());
        let (b, telemetry_b) = fleet_metric_rows(&fleet_scenario_cells());
        assert_eq!(a, b, "fleet metrics are simulation outputs and must be byte-stable");
        assert_eq!(telemetry_a, telemetry_b, "telemetry rows must be byte-stable too");
        let mixed = a
            .iter()
            .find(|r| r.name.contains("mixed_jetson_v100"))
            .expect("mixed Jetson+V100 row present");
        assert!(mixed.composition.contains("Jetson"));
        assert!(mixed.warmup_ms > 0.0, "mixed row must report warm-up-trimmed percentiles");
        let pool = a.iter().find(|r| r.name.contains("pool2_lqd")).expect("pool row present");
        assert_eq!(pool.servers, 2);
        assert_eq!(pool.routing, "least-queue-depth");
        // The scenario-only shapes: a mixed-variant fleet on a heterogeneous
        // STF pool, and an adaptive fleet with an on-robot Jetson group
        // behind a batched pool.
        let stf = a
            .iter()
            .find(|r| r.name.contains("mixed_variant_stf"))
            .expect("mixed-variant row present");
        assert_eq!(stf.variant, "Corki-3+Corki-9");
        assert_eq!(stf.scheduler, "stf");
        assert_eq!((stf.servers, stf.routing.as_str()), (2, "device-affinity"));
        let adap = a
            .iter()
            .find(|r| r.name.contains("adap_onrobot"))
            .expect("adaptive on-robot row present");
        assert_eq!(adap.variant, "3xCorki-ADAP+Corki-5");
        assert!(adap.composition.starts_with("mix("), "{}", adap.composition);
        // The 10k-robot scenario rides along as a metric row too.
        let big = a.iter().find(|r| r.name.contains("fleet_10k_pool")).expect("10k row present");
        assert_eq!((big.robots, big.servers), (10_000, 32));
        // Fault-free scenarios report all-zero fault counters.
        assert!(
            (pool.timed_out_requests, pool.retries, pool.fallback_inferences) == (0, 0, 0)
                && pool.dropped_requests == 0
                && pool.mean_recovery_ms == 0.0,
            "fault-free rows must not report fault activity"
        );
        // The committed server-crash scenario exercises the whole fault
        // stack: timeouts fire while the pool is down, the bounded retries
        // fail too, the fallback model serves the stranded plans, and each
        // server's recovery time is finite.
        let crash = a.iter().find(|r| r.name.contains("crash_pool2")).expect("crash row present");
        assert!(crash.timed_out_requests > 0, "crash scenario must time requests out");
        assert!(crash.retries > 0, "crash scenario must retry");
        assert!(crash.fallback_inferences > 0, "crash scenario must fall back on-robot");
        assert_eq!(crash.dropped_requests, 0, "the fallback model catches exhausted retries");
        assert!(
            crash.mean_recovery_ms > 0.0 && crash.mean_recovery_ms.is_finite(),
            "both crashed servers recover in-run"
        );
        // The degraded-uplink scenario loses uploads and retries them; its
        // warm-up window is MSER-5-detected rather than hand-picked.
        let lossy = a
            .iter()
            .find(|r| r.name.contains("degraded_uplink"))
            .expect("degraded-uplink row present");
        assert!(lossy.timed_out_requests > 0 && lossy.retries > 0);
        assert_eq!(lossy.fallback_inferences, 0, "no fallback model configured");
        // The churn scenario joins one robot late, leaves one early, and
        // serves the crash window with the on-robot fallback.
        let churn =
            a.iter().find(|r| r.name.contains("churn_fallback")).expect("churn row present");
        assert!(churn.fallback_inferences > 0);
        // Every row carries a well-formed, content-keyed provenance hash.
        for row in &a {
            assert_eq!(row.scenario_hash.len(), 16, "{}", row.name);
            assert!(row.scenario_hash.bytes().all(|b| b.is_ascii_hexdigit()), "{}", row.name);
        }
        let distinct: std::collections::BTreeSet<&str> =
            a.iter().map(|r| r.scenario_hash.as_str()).collect();
        assert_eq!(distinct.len(), a.len(), "distinct scenarios hash distinctly");
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let mut report = run_suite(&RunnerConfig::quick(), "quick");
        report.comparisons[0].speedup *= 2.0;
        assert!(report.validate().is_err());
        report.comparisons.clear();
        let mut broken_fleet = report.clone();
        broken_fleet.fleet_rows[0].throughput_steps_per_s = f64::NAN;
        assert!(broken_fleet.validate().is_err());
        let mut broken_hash = report.clone();
        broken_hash.fleet_rows[0].scenario_hash = "NOT-A-FNV1A-HASH".to_owned();
        assert!(broken_hash.validate().is_err());
        report.benches.clear();
        assert!(report.validate().is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn validation_bounds_the_live_serving_rows() {
        let mut report = run_suite_filtered(&RunnerConfig::quick(), "quick", Some("des_queue"));
        let good = LiveServingRow {
            name: "live_e2e/live_fifo_8robots_48frames".to_owned(),
            scenario_hash: "0123456789abcdef".to_owned(),
            robots: 8,
            servers: 2,
            throughput_steps_per_s: 109.0,
            mean_plan_latency_ms: 170.0,
            p99_plan_latency_ms: 180.8,
            p99_queue_delay_ms: 0.0,
            transit_round_trip_p50_ns: 650_000.0,
            transit_round_trip_p99_ns: 900_000.0,
            ipc_overhead_ms: 0.8,
            wall_s: 3.5,
        };
        report.live = vec![good.clone()];
        report.validate().expect("well-formed live rows validate");
        let broken = |mutate: fn(&mut LiveServingRow)| {
            let mut row = good.clone();
            mutate(&mut row);
            let mut report = report.clone();
            report.live = vec![row];
            report.validate()
        };
        assert!(broken(|r| r.robots = 0).is_err(), "an empty fleet");
        assert!(broken(|r| r.throughput_steps_per_s = 0.0).is_err(), "zero throughput");
        assert!(broken(|r| r.p99_plan_latency_ms = f64::NAN).is_err(), "non-finite latency");
        assert!(broken(|r| r.wall_s = 0.0).is_err(), "zero wall clock");
        assert!(broken(|r| r.scenario_hash = "XYZ".to_owned()).is_err(), "malformed hash");
    }

    #[test]
    fn validation_bounds_the_e2e_wall_clock_rows() {
        let mut report = run_suite_filtered(&RunnerConfig::quick(), "quick", Some("des_queue"));
        let good = E2eWallClockRow {
            name: "e2e/fleet_10k_pool".to_owned(),
            scenario_hash: "0123456789abcdef".to_owned(),
            runs: 5,
            min_s: 0.25,
            mean_s: 0.30,
        };
        report.e2e = vec![good.clone()];
        report.validate().expect("well-formed e2e rows validate");
        let broken = |mutate: fn(&mut E2eWallClockRow)| {
            let mut row = good.clone();
            mutate(&mut row);
            let mut report = report.clone();
            report.e2e = vec![row];
            report.validate()
        };
        assert!(broken(|r| r.runs = 0).is_err(), "zero runs");
        assert!(broken(|r| r.min_s = 0.0).is_err(), "non-positive minimum");
        assert!(broken(|r| r.mean_s = 0.1).is_err(), "mean below minimum");
        assert!(broken(|r| r.scenario_hash = "XYZ".to_owned()).is_err(), "malformed hash");
    }
}
