//! Serde round trip of the fleet outcome JSON, and the canonical labels the
//! committed scenarios produce.

use corki::scenario::ScenarioSpec;
use corki_system::fleet::{FleetConfig, FleetOutcome, FleetSimulator, SchedulerKind};
use corki_system::Variant;
use std::path::PathBuf;

#[test]
fn fleet_outcome_json_round_trips() {
    let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 4, 7);
    config.frames_per_robot = 40;
    config.set_scheduler(SchedulerKind::DynamicBatch { max_batch: 2, timeout_ms: 10.0 });
    config.record_event_log = true;
    let outcome = FleetSimulator::new(config).run();
    let json = serde_json::to_string_pretty(&outcome).expect("outcome serialises");
    let parsed: FleetOutcome = serde_json::from_str(&json).expect("outcome parses back");
    assert_eq!(parsed, outcome, "fleet outcome must survive a serde round trip");
    assert_eq!(parsed.summary.robots, 4);
    assert!(!parsed.event_log.is_empty());
}

/// Every label the committed scenarios' cells carry must parse back through
/// the canonical `FromStr` implementation of its axis type and re-display
/// identically — labels cannot drift from the enum definitions because they
/// *are* the enum definitions.
#[test]
fn bench_fleet_labels_round_trip_through_canonical_parsers() {
    use corki_system::fleet::PoolSchedule;
    use corki_system::scenario::CompositionLabel;
    use corki_system::scenario::VariantMix;
    use corki_system::RoutingPolicy;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut cells = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("scenarios directory exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let json = std::fs::read_to_string(&path).expect("read scenario");
            let spec = ScenarioSpec::from_json(&json).expect("committed scenario parses");
            cells.extend(spec.expand().expect("committed scenario expands"));
        }
    }
    assert!(!cells.is_empty());
    for cell in &cells {
        let name = &cell.scenario;
        // `PoolSchedule` covers uniform pools ("fifo") and mixed pools
        // ("fifo+stf") with one grammar, so every label the engine can
        // print reparses here.
        let scheduler: PoolSchedule =
            cell.scheduler_label.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scheduler.to_string(), cell.scheduler_label, "{name}");
        let routing: RoutingPolicy =
            cell.routing_label.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(routing.to_string(), cell.routing_label, "{name}");
        let composition: CompositionLabel =
            cell.composition_label.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(composition.to_string(), cell.composition_label, "{name}");
        let variant: VariantMix =
            cell.variant_label.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(variant.to_string(), cell.variant_label, "{name}");
    }
}
