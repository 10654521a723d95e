//! Guard rails for the committed scenario files under
//! `crates/bench/scenarios/`: every file must parse (strictly), validate,
//! expand, smoke-run and stay in canonical serialization, and every cell's
//! deterministic outputs — the whole `FleetSummary` plus the six telemetry
//! stage summaries — must match `tests/fixtures/scenario_golden.json` byte
//! for byte, so committed specs can never rot and the engine can never
//! drift unnoticed. The cells also have to be deterministic across reruns,
//! satisfy the row invariants in `check_rows`, and keep the shapes each
//! committed scenario exists to exercise.
//!
//! Regenerate the golden with `SCENARIO_GOLDEN_REGEN=1 cargo test -p
//! corki-bench --test scenarios` — only ever alongside a reviewed engine or
//! scenario change.

use corki::scenario::{scenario_fingerprint, ScenarioSpec};
use corki_system::fleet::{FleetSimulator, FleetSummary};
use corki_telemetry::{Stage, StageSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The deterministic outputs of one committed scenario cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct GoldenCell {
    /// The scenario name, with an `/<index>` suffix for multi-cell specs.
    name: String,
    /// `scenario_fingerprint` of the cell: tells an edited scenario from
    /// engine drift.
    scenario_hash: String,
    /// Canonical variant(-mix) label of the cell.
    variant: String,
    /// Canonical device-composition label of the cell.
    composition: String,
    summary: FleetSummary,
    stages: Vec<StageSummary>,
}

impl GoldenCell {
    /// The scenario the cell was expanded from.
    fn scenario(&self) -> &str {
        self.name.split('/').next().expect("split yields at least one piece")
    }
}

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenario_golden.json")
}

fn committed_scenarios() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios directory exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem").to_string_lossy().into_owned();
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (stem, json)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no committed scenarios found");
    files
}

fn committed_golden() -> Vec<GoldenCell> {
    let path = golden_path();
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); regenerate on purpose only", path.display())
    });
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs every cell of every committed scenario once, checking each run's
/// robot count and horizon, and returns the cells' deterministic outputs.
fn run_committed_cells() -> Vec<GoldenCell> {
    let mut produced = Vec::new();
    for (stem, json) in committed_scenarios() {
        let spec = ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert_eq!(spec.name, stem, "scenario name must match its file stem");
        let cells = spec.expand().unwrap_or_else(|e| panic!("{stem}.json does not expand: {e}"));
        assert!(!cells.is_empty(), "{stem}.json expands to no cells");
        let single = cells.len() == 1;
        for (cell_index, cell) in cells.iter().enumerate() {
            let outcome = FleetSimulator::new(cell.config.clone()).run();
            assert_eq!(outcome.summary.robots, cell.robots, "{stem}.json");
            for (index, robot) in outcome.robots.iter().enumerate() {
                // A robot churned out of the run mid-horizon completes fewer
                // frames; everyone else must finish the full horizon.
                let leaves_early = spec
                    .faults
                    .as_ref()
                    .and_then(|faults| faults.churn_of(index))
                    .is_some_and(|churn| churn.leave_at_ms.is_some());
                if leaves_early {
                    assert!(robot.frames <= spec.frames_per_robot, "{stem}.json");
                } else {
                    assert_eq!(robot.frames, spec.frames_per_robot, "{stem}.json");
                }
            }
            produced.push(GoldenCell {
                name: if single { stem.clone() } else { format!("{stem}/{cell_index}") },
                scenario_hash: scenario_fingerprint(std::slice::from_ref(cell)),
                variant: cell.variant_label.clone(),
                composition: cell.composition_label.clone(),
                summary: outcome.summary,
                stages: outcome.telemetry.stages,
            });
        }
    }
    produced
}

/// The committed cells' outputs, run once per test binary and shared by
/// the tests below.
fn committed_cells() -> &'static [GoldenCell] {
    static CELLS: OnceLock<Vec<GoldenCell>> = OnceLock::new();
    CELLS.get_or_init(run_committed_cells)
}

/// The committed scenarios that inject no faults.
fn fault_free_scenarios() -> BTreeSet<String> {
    committed_scenarios()
        .into_iter()
        .filter(|(stem, json)| {
            let spec = ScenarioSpec::from_json(json).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
            spec.faults.is_none()
        })
        .map(|(stem, _)| stem)
        .collect()
}

#[test]
fn every_committed_scenario_parses_expands_and_smoke_runs() {
    let produced = committed_cells();
    check_rows(produced).unwrap_or_else(|e| panic!("{e}"));
    assert_matches_golden(produced);
}

#[test]
fn fleet_metric_rows_are_deterministic_and_heterogeneous() {
    let first = committed_cells();
    let second = run_committed_cells();
    assert_eq!(first, &second[..], "cell outputs are simulation outputs and must be byte-stable");
    check_rows(first).unwrap_or_else(|e| panic!("{e}"));
    assert_committed_shapes(first, &fault_free_scenarios());
}

/// The row invariants every cell must satisfy, whatever its scenario; the
/// first violation is the error.
fn check_rows(cells: &[GoldenCell]) -> Result<(), String> {
    fn ensure(ok: bool, problem: impl FnOnce() -> String) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(problem())
        }
    }
    for cell in cells {
        let name = &cell.name;
        let s = &cell.summary;
        ensure(s.robots > 0 && s.servers > 0, || format!("{name}: empty fleet or pool"))?;
        let latencies = [
            s.warmup_ms,
            s.makespan_ms,
            s.mean_frame_latency_ms,
            s.p99_frame_latency_ms,
            s.mean_plan_latency_ms,
            s.p99_plan_latency_ms,
            s.mean_queue_delay_ms,
            s.p99_queue_delay_ms,
            s.mean_link_wait_ms,
            s.mean_recovery_ms,
        ];
        ensure(latencies.iter().all(|v| v.is_finite() && *v >= 0.0), || {
            format!("{name}: latencies must be finite and non-negative: {latencies:?}")
        })?;
        ensure(s.throughput_steps_per_s.is_finite() && s.throughput_steps_per_s > 0.0, || {
            format!("{name}: throughput {}", s.throughput_steps_per_s)
        })?;
        for fraction in [s.server_utilization, s.slo_violation_fraction] {
            ensure((0.0..=1.0).contains(&fraction), || {
                format!("{name}: fraction {fraction} outside [0, 1]")
            })?;
        }
        let hash = &cell.scenario_hash;
        ensure(
            hash.len() == 16
                && hash.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
            || format!("{name}: scenario hash {hash} is not 16 lowercase hex chars"),
        )?;
        ensure(cell.stages.len() == Stage::COUNT, || {
            format!("{name}: {} stage summaries, want one per serving stage", cell.stages.len())
        })?;
        for stage in &cell.stages {
            ensure(stage.mean_ns.is_finite() && stage.mean_ns >= 0.0, || {
                format!("{name}/{}: mean {}", stage.stage, stage.mean_ns)
            })?;
            ensure(stage.p50_ns <= stage.p99_ns && stage.p99_ns <= stage.p999_ns, || {
                format!("{name}/{}: quantiles out of order", stage.stage)
            })?;
        }
    }
    let distinct: BTreeSet<&str> = cells.iter().map(|c| c.scenario_hash.as_str()).collect();
    ensure(distinct.len() == cells.len(), || "distinct cells must hash distinctly".to_owned())
}

#[test]
fn validation_rejects_broken_cells() {
    let good = committed_golden();
    check_rows(&good).expect("the committed golden satisfies the row invariants");
    let broken = |mutate: fn(&mut GoldenCell)| {
        let mut cells = good.clone();
        mutate(&mut cells[0]);
        check_rows(&cells)
    };
    assert!(broken(|c| c.summary.robots = 0).is_err(), "an empty fleet");
    assert!(broken(|c| c.summary.servers = 0).is_err(), "an empty pool");
    assert!(broken(|c| c.summary.throughput_steps_per_s = f64::NAN).is_err(), "NaN throughput");
    assert!(broken(|c| c.summary.throughput_steps_per_s = 0.0).is_err(), "zero throughput");
    assert!(broken(|c| c.summary.p99_plan_latency_ms = f64::NAN).is_err(), "non-finite latency");
    assert!(broken(|c| c.summary.mean_queue_delay_ms = -1.0).is_err(), "negative latency");
    assert!(broken(|c| c.summary.server_utilization = 1.5).is_err(), "utilisation above 1");
    assert!(broken(|c| c.summary.slo_violation_fraction = -0.1).is_err(), "fraction below 0");
    assert!(broken(|c| c.scenario_hash = "NOT-A-FNV1A-HASH".to_owned()).is_err(), "malformed hash");
    assert!(broken(|c| c.scenario_hash = c.scenario_hash.to_uppercase()).is_err(), "upper hex");
    assert!(broken(|c| c.stages.clear()).is_err(), "missing stage summaries");
    assert!(broken(|c| c.stages[0].mean_ns = f64::INFINITY).is_err(), "non-finite stage mean");
    assert!(
        broken(|c| c.stages[0].p50_ns = c.stages[0].p99_ns + 1).is_err(),
        "quantiles out of order"
    );
    let mut duplicated = good.clone();
    duplicated[1].scenario_hash = duplicated[0].scenario_hash.clone();
    assert!(check_rows(&duplicated).is_err(), "two cells with one hash");
    assert!(serde_json::from_str::<Vec<GoldenCell>>("{}").is_err());
    assert!(serde_json::from_str::<Vec<GoldenCell>>("not json").is_err());
}

/// The committed golden parses strictly, satisfies the row invariants and
/// re-serialises to its own bytes, so regeneration is the only way to
/// write it.
#[test]
fn scenario_golden_round_trips_through_the_schema() {
    let json = std::fs::read_to_string(golden_path()).expect("read golden");
    let cells = committed_golden();
    assert!(!cells.is_empty(), "the golden pins no cells");
    check_rows(&cells).unwrap_or_else(|e| panic!("{e}"));
    let reserialized = serde_json::to_string_pretty(&cells).expect("golden cells serialise");
    let reparsed: Vec<GoldenCell> =
        serde_json::from_str(&reserialized).expect("re-serialised golden parses");
    assert_eq!(reparsed, cells, "serde round trip changed the golden");
    assert_eq!(
        reserialized.trim_end(),
        json.trim_end(),
        "re-serialisation must reproduce the committed golden"
    );
}

/// A misspelt key in a golden cell or one of its stage summaries is an
/// error, not a silently defaulted field.
#[test]
fn typod_golden_keys_fail_loudly() {
    let json = std::fs::read_to_string(golden_path()).expect("read golden");
    for (key, typo) in [("\"scenario_hash\"", "\"scenario_hsah\""), ("\"p999_ns\"", "\"p999_nss\"")]
    {
        assert!(json.contains(key), "the golden has no {key} key");
        let typod = json.replacen(key, typo, 1);
        let err = serde_json::from_str::<Vec<GoldenCell>>(&typod)
            .expect_err("a misspelt key must not parse");
        assert!(err.to_string().contains("unknown field"), "{typo}: {err}");
    }
}

/// What each committed scenario is there to exercise.
fn assert_committed_shapes(cells: &[GoldenCell], fault_free: &BTreeSet<String>) {
    let find = |name: &str| {
        cells.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no {name} cell"))
    };
    let mixed = find("mixed_jetson_v100_8robots_60frames");
    assert!(mixed.composition.contains("Jetson"), "{}", mixed.composition);
    assert!(mixed.summary.warmup_ms > 0.0, "mixed cell must trim a warm-up window");
    let pool = find("pool2_lqd_8robots_60frames");
    assert_eq!(pool.summary.servers, 2);
    assert_eq!(pool.summary.routing, "least-queue-depth");
    assert!(pool.stages.iter().any(|s| s.stage == "pool_queue" && s.samples > 0));
    // The scenario-only shapes: a mixed-variant fleet on a heterogeneous
    // STF pool, and an adaptive fleet with an on-robot Jetson group behind
    // a batched pool.
    let stf = find("mixed_variant_stf_pool2_8robots_60frames");
    assert_eq!(stf.variant, "Corki-3+Corki-9");
    assert_eq!(stf.summary.scheduler, "stf");
    assert_eq!((stf.summary.servers, stf.summary.routing.as_str()), (2, "device-affinity"));
    let adap = find("adap_onrobot_batch_pool2_8robots_60frames");
    assert_eq!(adap.variant, "3xCorki-ADAP+Corki-5");
    assert!(adap.composition.starts_with("mix("), "{}", adap.composition);
    let big = find("fleet_10k_pool");
    assert_eq!((big.summary.robots, big.summary.servers), (10_000, 32));
    // Fault-free cells report no fault activity at all.
    for cell in cells.iter().filter(|c| fault_free.contains(c.scenario())) {
        let s = &cell.summary;
        assert_eq!(
            (s.timed_out_requests, s.retries, s.dropped_requests, s.fallback_inferences),
            (0, 0, 0, 0),
            "{}: fault-free cells must not report fault activity",
            cell.name
        );
        assert_eq!(s.mean_recovery_ms, 0.0, "{}", cell.name);
    }
    // The server-crash scenario exercises the whole fault stack: timeouts
    // fire while the pool is down, the bounded retries fail too, the
    // fallback model serves the stranded plans, and each server's recovery
    // time is finite.
    let crash = &find("crash_pool2_lqd_8robots_60frames").summary;
    assert!(crash.timed_out_requests > 0, "crash scenario must time requests out");
    assert!(crash.retries > 0, "crash scenario must retry");
    assert!(crash.fallback_inferences > 0, "crash scenario must fall back on-robot");
    assert_eq!(crash.dropped_requests, 0, "the fallback model catches exhausted retries");
    assert!(
        crash.mean_recovery_ms > 0.0 && crash.mean_recovery_ms.is_finite(),
        "both crashed servers recover in-run"
    );
    // The degraded uplink loses uploads and retries them, with no fallback
    // model to degrade to.
    let lossy = &find("degraded_uplink_retry_8robots_60frames").summary;
    assert!(lossy.timed_out_requests > 0 && lossy.retries > 0);
    assert_eq!(lossy.fallback_inferences, 0, "no fallback model configured");
    // Churn serves its outage with the on-robot fallback.
    assert!(find("churn_fallback_8robots_60frames").summary.fallback_inferences > 0);
}

/// Compares the produced cells with the committed golden, telling an edited
/// scenario (its fingerprint moved) from engine drift (same fingerprint,
/// different outputs), then byte for byte.
fn assert_matches_golden(produced: &[GoldenCell]) {
    let json = serde_json::to_string_pretty(produced).expect("golden cells serialise");
    let path = golden_path();
    if std::env::var_os("SCENARIO_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, format!("{json}\n")).expect("write golden");
        return;
    }
    let committed = committed_golden();
    let mut problems = Vec::new();
    for cell in produced {
        match committed.iter().find(|c| c.name == cell.name) {
            None => problems.push(format!("{}: not in the golden (new scenario?)", cell.name)),
            Some(pinned) if pinned.scenario_hash != cell.scenario_hash => problems.push(format!(
                "{}: scenario edited ({} -> {}); regenerate the golden on purpose",
                cell.name, pinned.scenario_hash, cell.scenario_hash
            )),
            Some(pinned) if pinned != cell => problems.push(format!(
                "{}: engine drift — same scenario hash {}, different outputs\n  golden:   \
                 {pinned:?}\n  produced: {cell:?}",
                cell.name, cell.scenario_hash
            )),
            Some(_) => {}
        }
    }
    assert!(
        problems.is_empty(),
        "{} does not match the committed scenarios:\n{}\n(regenerate with \
         SCENARIO_GOLDEN_REGEN=1 cargo test -p corki-bench --test scenarios)",
        path.display(),
        problems.join("\n")
    );
    let expected = std::fs::read_to_string(&path).expect("golden was readable a moment ago");
    assert_eq!(
        json.trim_end(),
        expected.trim_end(),
        "the golden pins cells no scenario produces, or is not in canonical form"
    );
}

#[test]
fn committed_scenarios_are_canonical_json() {
    for (stem, json) in committed_scenarios() {
        let spec = ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert_eq!(
            spec.to_json().trim_end(),
            json.trim_end(),
            "{stem}.json is not in canonical form; rewrite it with ScenarioSpec::to_json"
        );
    }
}

/// Every scenario file on disk has cells in the golden and every golden
/// cell still has its file, so a new scenario cannot skip the pin.
#[test]
fn every_committed_scenario_is_wired_into_the_bench_suite() {
    let on_disk: BTreeSet<String> =
        committed_scenarios().into_iter().map(|(stem, _)| stem).collect();
    let pinned: BTreeSet<String> =
        committed_golden().iter().map(|cell| cell.scenario().to_owned()).collect();
    assert_eq!(
        on_disk, pinned,
        "crates/bench/scenarios/*.json and tests/fixtures/scenario_golden.json must list the same \
         scenarios; regenerate with SCENARIO_GOLDEN_REGEN=1 cargo test -p corki-bench --test \
         scenarios"
    );
}
