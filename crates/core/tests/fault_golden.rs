//! Golden pin for a committed fault scenario: the server-crash scenario
//! under `crates/bench/scenarios/` must reproduce its sweep rows
//! byte-for-byte, across reruns — the acceptance bar of the fault layer.
//!
//! Regenerate with `FLEET_FAULT_GOLDEN_REGEN=1 cargo test -p corki --test
//! fault_golden` — only ever alongside a reviewed engine change.

use corki::fleet::scenario_sweep_detailed_with_jobs;
use corki_system::ScenarioSpec;
use std::path::PathBuf;

#[test]
fn committed_crash_scenario_matches_golden_rows() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let scenario = manifest.join("../bench/scenarios/crash_pool2_lqd_8robots_60frames.json");
    let json = std::fs::read_to_string(&scenario)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", scenario.display()));
    let spec = ScenarioSpec::from_json(&json).expect("the committed crash scenario parses");
    let run = || {
        let cells = spec.expand().expect("the committed crash scenario expands");
        let rows: Vec<_> =
            scenario_sweep_detailed_with_jobs(&cells, 1).into_iter().map(|cell| cell.row).collect();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.fallback_inferences > 0, "the full-pool outage must force fallbacks");
        assert!(row.retries > 0, "the crash windows must force retries");
        assert!(
            row.mean_recovery_ms.is_finite() && row.mean_recovery_ms > 0.0,
            "both servers must recover within the horizon: {}",
            row.mean_recovery_ms
        );
        serde_json::to_string_pretty(&rows).expect("rows serialise")
    };
    let rows = run();
    assert_eq!(rows, run(), "rows must be identical across reruns");
    let fixture = manifest.join("tests/fixtures/fault_crash_pool2_rows.json");
    if std::env::var_os("FLEET_FAULT_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(fixture.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&fixture, &rows).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); regenerate on purpose only", fixture.display())
    });
    assert_eq!(
        rows.trim_end(),
        expected.trim_end(),
        "the fault engine no longer reproduces the committed crash scenario's sweep rows"
    );
}
