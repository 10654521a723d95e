//! Serde round trip of the fleet outcome JSON.

use corki_system::fleet::{FleetConfig, FleetOutcome, FleetSimulator, SchedulerKind};
use corki_system::Variant;

#[test]
fn fleet_outcome_json_round_trips() {
    let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 4, 7);
    config.frames_per_robot = 40;
    config.set_scheduler(SchedulerKind::DynamicBatch { max_batch: 2, timeout_ms: 10.0 });
    let outcome = FleetSimulator::new(config).run();
    let json = serde_json::to_string_pretty(&outcome).expect("outcome serialises");
    let parsed: FleetOutcome = serde_json::from_str(&json).expect("outcome parses back");
    assert_eq!(parsed, outcome, "fleet outcome must survive a serde round trip");
    assert_eq!(parsed.summary.robots, 4);
    assert!(parsed.telemetry.stages.iter().any(|stage| stage.samples > 0));
}
