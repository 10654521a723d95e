//! Golden-trace regression tests for the fleet engine.
//!
//! The fixtures under `tests/fixtures/` were generated by the PR 3
//! single-server fleet engine (before the multi-server pool refactor) and
//! pin the homogeneous single-server configurations float-for-float: per
//! robot the full jittered frame traces, inference counts and completion
//! times, plus the aggregate serving metrics that do not depend on the
//! summary's (extensible) shape.  The four fixtures cover a FIFO Corki-5
//! fleet, a batched Corki-ADAP fleet, a mixed Corki-1/Corki-9 fleet under
//! shortest-trajectory-first and a FIFO baseline fleet; in all of them
//! every robot computes its control on its own accelerator.
//!
//! Since the `ScenarioSpec` redesign the pinned configurations are written
//! as declarative scenarios instead of inline config literals — so these
//! tests double as the proof that spec expansion reproduces the historical
//! engine configurations bit for bit.
//!
//! Regenerate with `FLEET_GOLDEN_REGEN=1 cargo test -p corki_system --test
//! fleet_golden` — only ever on purpose, alongside a reviewed engine change.

use corki_system::fleet::{FleetConfig, FleetSimulator, RobotOutcome, SchedulerKind};
use corki_system::{ScenarioBuilder, Variant};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The pinned slice of a fleet run: everything PR 3 produced that must stay
/// bit-identical for homogeneous single-server configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenRecord {
    makespan_ms: f64,
    throughput_steps_per_s: f64,
    mean_plan_latency_ms: f64,
    p99_plan_latency_ms: f64,
    mean_queue_delay_ms: f64,
    p99_queue_delay_ms: f64,
    mean_link_wait_ms: f64,
    server_utilization: f64,
    link_utilization: f64,
    inferences: usize,
    mean_batch_size: f64,
    robots: Vec<RobotOutcome>,
}

fn record(config: FleetConfig) -> GoldenRecord {
    let outcome = FleetSimulator::new(config).run();
    let s = outcome.summary;
    GoldenRecord {
        makespan_ms: s.makespan_ms,
        throughput_steps_per_s: s.throughput_steps_per_s,
        mean_plan_latency_ms: s.mean_plan_latency_ms,
        p99_plan_latency_ms: s.p99_plan_latency_ms,
        mean_queue_delay_ms: s.mean_queue_delay_ms,
        p99_queue_delay_ms: s.p99_queue_delay_ms,
        mean_link_wait_ms: s.mean_link_wait_ms,
        server_utilization: s.server_utilization,
        link_utilization: s.link_utilization,
        inferences: s.inferences,
        mean_batch_size: s.mean_batch_size,
        robots: outcome.robots,
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn assert_matches_golden(name: &str, config: FleetConfig) {
    let json = serde_json::to_string_pretty(&record(config)).expect("record serialises");
    let path = fixture_path(name);
    if std::env::var_os("FLEET_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e}); regenerate on purpose only", name));
    assert_eq!(
        json.trim_end(),
        expected.trim_end(),
        "{name}: the engine no longer reproduces the PR 3 single-server fleet traces"
    );
}

/// Expands an axis-free scenario into its single engine configuration.
fn expand_single(builder: ScenarioBuilder) -> FleetConfig {
    let spec = builder.build().expect("golden scenarios are valid");
    let cells = spec.expand().expect("golden scenarios expand");
    assert_eq!(cells.len(), 1, "golden scenarios are axis-free");
    cells.into_iter().next().expect("one cell").config
}

#[test]
fn corki5_fifo_fleet_matches_pr3_traces() {
    let cfg = expand_single(
        ScenarioBuilder::new("golden-corki5-fifo")
            .seed(11)
            .frames_per_robot(60)
            .group(Variant::CorkiFixed(5), 4)
            .default_servers(1, SchedulerKind::Fifo),
    );
    assert_matches_golden("fleet_corki5_fifo_n4.json", cfg);
}

#[test]
fn adaptive_batched_fleet_matches_pr3_traces() {
    let cfg = expand_single(
        ScenarioBuilder::new("golden-adap-batch3")
            .seed(2024)
            .frames_per_robot(75)
            .group(Variant::CorkiAdaptive, 5)
            .default_servers(1, SchedulerKind::DynamicBatch { max_batch: 3, timeout_ms: 15.0 }),
    );
    assert_matches_golden("fleet_adap_batch3_n5.json", cfg);
}

#[test]
fn mixed_variant_stf_fleet_matches_pr3_traces() {
    // One short-trajectory robot ahead of five Corki-9 robots: group order
    // fixes the robot indices (and thereby the derived seeds) exactly like
    // the historical `robots[0].variant = Corki-1` mutation did.
    let cfg = expand_single(
        ScenarioBuilder::new("golden-mixed-stf")
            .seed(7)
            .frames_per_robot(90)
            .group(Variant::CorkiFixed(1), 1)
            .group(Variant::CorkiFixed(9), 5)
            .default_servers(1, SchedulerKind::ShortestTrajectoryFirst),
    );
    assert_matches_golden("fleet_mixed_stf_n6.json", cfg);
}

#[test]
fn baseline_fleet_matches_pr3_traces() {
    let cfg = expand_single(
        ScenarioBuilder::new("golden-baseline")
            .seed(1)
            .frames_per_robot(45)
            .group(Variant::RoboFlamingo, 3)
            .default_servers(1, SchedulerKind::Fifo),
    );
    assert_matches_golden("fleet_baseline_fifo_n3.json", cfg);
}
