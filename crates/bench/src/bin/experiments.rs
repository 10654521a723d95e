//! Regenerates every table and figure of the DaDu-Corki evaluation section.
//!
//! Usage:
//!
//! ```text
//! experiments [--full | --smoke] [--json <path>] [--scenario <file.json>]
//!             [--robots <n>] [--frames <n>] [--telemetry] [name ...]
//! ```
//!
//! Experiment names: `fig2`, `table1`, `table2`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `table3`, `table4`, `resources`, `fig9`, `ablation`, `approx`,
//! `fig15`, `bottleneck`, `fleet`, `serve`. With no names, everything except
//! `serve` runs.
//!
//! Both `fleet` and `serve` carry the always-on in-path telemetry recorder
//! (`corki_telemetry`): per-stage latency histograms over the shared
//! six-stage taxonomy (encode, uplink queue, pool queue, batch service,
//! downlink, control step) plus bounded per-robot timelines.  The reports
//! are always written to `--json` output (`fleet_telemetry`, and inside
//! every `serve` report); `--telemetry` additionally renders the per-stage
//! p50/p99/p99.9 tables on stdout.
//!
//! The fleet sweep is a declarative `ScenarioSpec` (`corki::scenario`):
//!
//! * `--scenario <file.json>` runs a spec file (e.g. one of the committed
//!   examples under `crates/bench/scenarios/`) — robot groups, server pool,
//!   routing and sweep axes all come from the file; the flag selects the
//!   `fleet` experiment by itself when no names are given.  Combined with
//!   `--smoke`, the expanded cells are scaled down to a CI footprint (at
//!   most 64 robots and 30 frames each) while keeping the pool and routing
//!   — so a committed 10k-robot scenario smoke-tests the exact code paths
//!   of the full run;
//! * without it, `fleet` runs the paper's default sweep
//!   (`corki::fleet::paper_sweep`): its smoke shape under `--smoke`, and
//!   otherwise its full shape (1 vs 2 servers, all-offloaded vs a Jetson
//!   board in every second robot) on Corki-ADAP lengths measured in the
//!   simulator.
//!
//! `serve` is the live counterpart of `fleet`: it lowers the `--scenario`
//! cells into real processes — one robot client per robot, one inference
//! worker per server, a coordinator serving from the simulator's own server
//! pool — communicating over a shared-memory segment, and prints the same
//! sweep-row shape plus the measured IPC transit breakdown (`corki_serve`).
//! It exits 1 unless every live report is complete: samples in all six
//! telemetry stages, one round-trip transit sample per offloaded plan, and
//! at least one telemetry drain.  It must be selected explicitly, always needs
//! `--scenario`, and honours `--robots <n>` / `--frames <n>` clamps (and
//! `--smoke`, which clamps to 8 robots x 24 frames) so committed scenarios
//! can be shrunk to a CI footprint.  The binary also hosts the hidden
//! `__live-robot` / `__live-worker` child roles the live coordinator
//! re-executes itself with.

use corki::experiments::{self, ExperimentScale};
use corki::fleet::{
    measured_adaptive_lengths, paper_sweep, robots_within_budget, scenario_sweep_detailed,
    smoke_scale_cells, FleetSweepRow,
};
use corki::scenario::{ConcreteScenario, ScenarioSpec};
use corki_system::FrameKind;
use std::collections::BTreeMap;

/// Parses and runs one hidden live-fleet child role (`__live-robot` /
/// `__live-worker`), returning the process exit code.  The coordinator
/// re-executes this very binary with these argument shapes; they are not
/// part of the public CLI.
fn live_child_role(args: &[String]) -> i32 {
    let role = args[1].as_str();
    let mut shm = None;
    let mut robot = None;
    let mut server = None;
    let mut config = None;
    let mut robots = None;
    let mut servers = None;
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shm" => shm = it.next().cloned(),
            "--robot" => robot = it.next().and_then(|n| n.parse::<usize>().ok()),
            "--server" => server = it.next().and_then(|n| n.parse::<usize>().ok()),
            "--config" => config = it.next().cloned(),
            "--robots" => robots = it.next().and_then(|n| n.parse::<usize>().ok()),
            "--servers" => servers = it.next().and_then(|n| n.parse::<usize>().ok()),
            _ => {}
        }
    }
    let result = match role {
        "__live-robot" => match (&shm, robot, &config) {
            (Some(shm), Some(robot), Some(config)) => corki_serve::run_robot(shm, robot, config),
            _ => Err(corki_serve::LiveError::Protocol(
                "__live-robot needs --shm, --robot and --config".into(),
            )),
        },
        _ => match (&shm, server, robots, servers) {
            (Some(shm), Some(server), Some(robots), Some(servers)) => {
                corki_serve::run_worker(shm, server, robots, servers)
            }
            _ => Err(corki_serve::LiveError::Protocol(
                "__live-worker needs --shm, --server, --robots and --servers".into(),
            )),
        },
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{role}: {e}");
            1
        }
    }
}

/// What a live report must hold to count as a complete run: samples in
/// each of the six telemetry stages, one round-trip transit sample per
/// offloaded plan, and at least one telemetry drain.
fn live_report_problems(report: &corki_serve::LiveReport) -> Vec<String> {
    let stages = &report.telemetry.stages;
    let mut problems: Vec<String> = stages
        .iter()
        .filter(|stage| stage.samples == 0)
        .map(|stage| format!("telemetry stage `{}` has no samples", stage.stage))
        .collect();
    if stages.len() != corki_telemetry::Stage::COUNT {
        problems.push(format!(
            "{} telemetry stages, expected {}",
            stages.len(),
            corki_telemetry::Stage::COUNT
        ));
    }
    if report.transit.round_trip.samples != report.offloaded_plans {
        problems.push(format!(
            "{} round-trip transit samples for {} offloaded plans",
            report.transit.round_trip.samples, report.offloaded_plans
        ));
    }
    if report.telemetry_drains == 0 {
        problems.push("the telemetry pages were never drained".to_owned());
    }
    problems
}

/// Renders one telemetry report as a per-stage latency table plus a
/// one-line timeline summary, indented under its cell's sweep row.
/// Quantiles are log2-bucket ceilings, so they are conservative within one
/// power of two of the exact nearest-rank value.
fn print_telemetry(report: &corki_telemetry::TelemetryReport) {
    println!(
        "    {:<14} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "samples", "dropped", "mean[ms]", "p50[ms]", "p99[ms]", "p99.9[ms]"
    );
    for stage in &report.stages {
        println!(
            "    {:<14} {:>9} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            stage.stage,
            stage.samples,
            stage.dropped,
            stage.mean_ns / 1e6,
            stage.p50_ns as f64 / 1e6,
            stage.p99_ns as f64 / 1e6,
            stage.p999_ns as f64 / 1e6,
        );
    }
    let events: usize = report.timelines.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = report.timelines.iter().map(|t| t.dropped).sum();
    println!(
        "    timelines: {} robot(s), {} event(s) kept, {} beyond capacity",
        report.timelines.len(),
        events,
        dropped,
    );
}

/// Reads, parses and expands a scenario file; any failure exits with
/// status 2.
fn load_scenario(path: &str) -> (ScenarioSpec, Vec<ConcreteScenario>) {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read scenario {path}: {e}");
        std::process::exit(2);
    });
    let spec = ScenarioSpec::from_json(&json).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let cells = spec.expand().unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    (spec, cells)
}

/// Prints the one-line description of a scenario about to run.
fn print_scenario(spec: &ScenarioSpec, cells: &[ConcreteScenario]) {
    println!(
        "scenario `{}`: {} cell(s), {} frames/robot, seed {}, {} routing, {} warm-up",
        spec.name,
        cells.len(),
        cells.first().map_or(spec.frames_per_robot, |c| c.config.frames_per_robot),
        spec.seed,
        spec.routing,
        spec.warmup_ms,
    );
}

/// Prints the sweep-row table shared by the simulated and the live fleet.
fn print_sweep_rows<'a>(rows: impl IntoIterator<Item = &'a FleetSweepRow>) {
    println!(
        "  {:<12} {:<13} {:<26} {:>4} {:>4} {:>10} {:>9} {:>20} {:>20} {:>6} {:>6}",
        "variant",
        "scheduler",
        "composition",
        "N",
        "srv",
        "thr[st/s]",
        "Hz/robot",
        "plan mean/p99 [ms]",
        "queue mean/p99 [ms]",
        "util",
        "batch"
    );
    for row in rows {
        println!(
            "  {:<12} {:<13} {:<26} {:>4} {:>4} {:>10.1} {:>9.1} {:>9.1} /{:>9.1} {:>9.1} /{:>9.1} {:>6.2} {:>6.2}",
            row.variant,
            row.scheduler,
            row.composition,
            row.robots,
            row.servers,
            row.throughput_steps_per_s,
            row.per_robot_rate_hz,
            row.mean_plan_latency_ms,
            row.p99_plan_latency_ms,
            row.mean_queue_delay_ms,
            row.p99_queue_delay_ms,
            row.server_utilization,
            row.mean_batch_size,
        );
    }
}

fn main() {
    // The live coordinator re-executes this binary as its robot and worker
    // processes; those hidden roles bypass the experiment CLI entirely.
    let raw_args: Vec<String> = std::env::args().collect();
    if raw_args.len() > 1 && (raw_args[1] == "__live-robot" || raw_args[1] == "__live-worker") {
        std::process::exit(live_child_role(&raw_args));
    }
    // Flags may appear anywhere; the remaining positional arguments select
    // experiments (`experiments fleet …`).
    let mut scale = ExperimentScale::default();
    let mut smoke = false;
    let mut json_path = None;
    let mut scenario_path: Option<String> = None;
    let mut robots_clamp: Option<usize> = None;
    let mut frames_clamp: Option<usize> = None;
    let mut telemetry_tables = false;
    let mut selected: Vec<String> = Vec::new();
    let mut raw = raw_args.into_iter().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--full" => {
                scale = ExperimentScale::full();
                smoke = false;
            }
            "--smoke" => {
                scale = ExperimentScale::smoke();
                smoke = true;
            }
            "--json" => match raw.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("error: --json requires a path argument");
                    std::process::exit(2);
                }
            },
            "--scenario" => match raw.next() {
                Some(path) => scenario_path = Some(path),
                None => {
                    eprintln!("error: --scenario requires a path argument");
                    std::process::exit(2);
                }
            },
            "--robots" => match raw.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => robots_clamp = Some(n),
                _ => {
                    eprintln!("error: --robots requires a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--frames" => match raw.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => frames_clamp = Some(n),
                _ => {
                    eprintln!("error: --frames requires a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--telemetry" => telemetry_tables = true,
            _ => selected.push(arg),
        }
    }
    if scenario_path.is_some() {
        // The flag only means something to the fleet sweep and its live
        // counterpart: select the simulator by default, and refuse a
        // selection that would never consult it.
        if selected.is_empty() {
            selected.push("fleet".to_owned());
        } else if !selected.iter().any(|name| name == "fleet" || name == "serve") {
            eprintln!("error: --scenario only applies to the fleet/serve experiments; add `fleet` or `serve` to the selected names");
            std::process::exit(2);
        }
    }
    let serve_selected = selected.iter().any(|name| name == "serve");
    if serve_selected && scenario_path.is_none() {
        eprintln!("error: the serve experiment needs a --scenario file to lower into a live run");
        std::process::exit(2);
    }
    if (robots_clamp.is_some() || frames_clamp.is_some()) && !serve_selected {
        eprintln!("error: --robots/--frames clamp the live serve experiment; add `serve` to the selected names");
        std::process::exit(2);
    }
    // Keep in sync with the wants() sites below and the doc comment above.
    const KNOWN: [&str; 17] = [
        "fig2",
        "table1",
        "table2",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "table3",
        "table4",
        "resources",
        "fig9",
        "ablation",
        "approx",
        "fig15",
        "bottleneck",
        "fleet",
        "serve",
    ];
    for name in &selected {
        if !KNOWN.contains(&name.as_str()) {
            eprintln!("error: unknown experiment name `{name}` (known: {})", KNOWN.join(", "));
            std::process::exit(2);
        }
    }
    let wants = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    let mut json = BTreeMap::new();
    println!("DaDu-Corki paper reproduction — experiment harness");
    println!("scale: {} jobs, {} frames, seed {}\n", scale.jobs, scale.frames, scale.seed);

    if wants("fig2") {
        println!("== Fig. 2: per-frame latency & energy breakdown of RoboFlamingo (V100 + i7-6770HQ + Wi-Fi) ==");
        let rows = experiments::fig2_breakdown();
        let total_ms: f64 = rows.iter().map(|r| r.1).sum();
        let total_j: f64 = rows.iter().map(|r| r.2).sum();
        for (stage, ms, joules) in &rows {
            println!(
                "  {:<20} {:>8.1} ms ({:>4.1} %)   {:>7.2} J ({:>4.1} %)",
                stage,
                ms,
                100.0 * ms / total_ms,
                joules,
                100.0 * joules / total_j
            );
        }
        println!("  {:<20} {:>8.1} ms            {:>7.2} J\n", "total", total_ms, total_j);
        json.insert("fig2".to_owned(), serde_json::to_value(&rows).unwrap());
    }

    let mut seen_table = None;
    if wants("table1") || wants("fig11") {
        println!("== Table 1: accuracy on seen tasks (success rate per chain position, avg job length) ==");
        let seen = experiments::accuracy_table(false, &scale);
        println!(
            "  {:<16} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>6}",
            "variant", "1", "2", "3", "4", "5", "AvgLen"
        );
        for row in &seen {
            println!("  {}", row.to_table_row());
        }
        println!();
        json.insert("table1".to_owned(), serde_json::to_value(&seen).unwrap());
        seen_table = Some(seen);
    }

    if wants("fig11") {
        if let Some(seen) = &seen_table {
            println!(
                "== Fig. 11: trajectory comparison metrics (reference vs expert ground truth) =="
            );
            println!(
                "  {:<16} {:>12} {:>10} {:>10} {:>10}",
                "variant", "RMSE [m]", "maxX [m]", "maxY [m]", "maxZ [m]"
            );
            for (variant, rmse, max_xyz) in experiments::trajectory_error_series(seen) {
                println!(
                    "  {:<16} {:>12.4} {:>10.4} {:>10.4} {:>10.4}",
                    variant, rmse, max_xyz[0], max_xyz[1], max_xyz[2]
                );
            }
            println!();
        }
    }

    if wants("table2") {
        println!("== Table 2: accuracy on unseen tasks ==");
        let unseen = experiments::accuracy_table(true, &scale);
        println!(
            "  {:<16} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>6}",
            "variant", "1", "2", "3", "4", "5", "AvgLen"
        );
        for row in &unseen {
            println!("  {}", row.to_table_row());
        }
        println!();
        json.insert("table2".to_owned(), serde_json::to_value(&unseen).unwrap());
    }

    if wants("fig12") {
        println!("== Fig. 12: X/Y/Z trajectory of one randomly picked sequence (first and last 5 steps shown) ==");
        let traces = experiments::fig12_traces(&scale);
        for (variant, t) in &traces {
            let n = t.reference.len();
            let show: Vec<usize> = (0..n).filter(|i| *i < 5 || *i + 5 >= n).collect();
            println!("  {variant}: {n} steps");
            for i in show {
                println!(
                    "    step {:>3}  gt=({:+.3},{:+.3},{:+.3})  ref=({:+.3},{:+.3},{:+.3})",
                    i,
                    t.ground_truth.x[i],
                    t.ground_truth.y[i],
                    t.ground_truth.z[i],
                    t.reference.x[i],
                    t.reference.y[i],
                    t.reference.z[i],
                );
            }
        }
        println!();
        json.insert("fig12".to_owned(), serde_json::to_value(&traces).unwrap());
    }

    if wants("fig13") || wants("fig14") {
        println!("== Fig. 13: runtime latency and energy per variant ==");
        let rows = experiments::pipeline_comparison(&scale);
        let baseline = rows[0].clone();
        println!(
            "  {:<14} {:>12} {:>10} {:>10} {:>12} {:>12}",
            "variant", "latency[ms]", "rate[Hz]", "energy[J]", "speedup", "energy red."
        );
        for row in &rows {
            println!(
                "  {:<14} {:>12.1} {:>10.1} {:>10.2} {:>11.1}x {:>11.1}x",
                row.variant,
                row.mean_frame_latency_ms,
                row.frame_rate_hz,
                row.mean_frame_energy_j,
                row.speedup_over(&baseline),
                row.energy_reduction_over(&baseline),
            );
        }
        println!();
        if wants("fig14") {
            println!(
                "== Fig. 14: per-frame latency trace (first 30 frames) and long-tail statistics =="
            );
            let fig14_variants: Vec<String> = [
                corki::Variant::RoboFlamingo,
                corki::Variant::CorkiFixed(5),
                corki::Variant::CorkiAdaptive,
            ]
            .iter()
            .map(corki::Variant::name)
            .collect();
            for row in &rows {
                if !fig14_variants.contains(&row.variant) {
                    continue;
                }
                let preview: Vec<String> = row
                    .frame_traces
                    .iter()
                    .take(30)
                    .map(|f| {
                        let marker = if f.kind == FrameKind::Inference { "^" } else { "." };
                        format!("{marker}{:.0}", f.latency_ms)
                    })
                    .collect();
                println!("  {:<14} {}", row.variant, preview.join(" "));
                println!(
                    "  {:<14} mean {:>7.1} ms   p99 {:>7.1} ms   max {:>7.1} ms   rel. variation {:>5.2}",
                    "",
                    row.stats.mean_ms,
                    row.stats.p99_ms,
                    row.stats.max_ms,
                    row.stats.relative_variation
                );
            }
            println!();
        }
        json.insert("fig13".to_owned(), serde_json::to_value(&rows).unwrap());
    }

    if wants("table3") {
        println!(
            "== Table 3: performance under different GPU/CPU inference baselines (Corki-ADAP) =="
        );
        println!("  {:<18} {:>22} {:>10}", "device", "norm. inference lat.", "speedup");
        for (device, norm, speedup) in experiments::device_table(&scale) {
            println!("  {:<18} {:>21.1}x {:>9.1}x", device, norm, speedup);
        }
        println!();
    }

    if wants("table4") {
        println!("== Table 4: performance under different data representations (Corki-ADAP) ==");
        println!("  {:<18} {:>22} {:>10}", "representation", "norm. inference lat.", "speedup");
        for (repr, norm, speedup) in experiments::precision_table(&scale) {
            println!("  {:<18} {:>21.1}x {:>9.1}x", repr, norm, speedup);
        }
        println!();
    }

    if wants("resources") {
        println!("== §6.1: FPGA resource consumption on the ZC706 ==");
        let report = experiments::resource_report();
        let (dsp, ff, lut, bram) = report.utilization_percent();
        let total = report.total();
        println!("  DSP  {:>6} used  ({:>5.1} % of {})", total.dsp, dsp, report.device.dsp);
        println!("  FF   {:>6} used  ({:>5.1} % of {})", total.ff, ff, report.device.ff);
        println!("  LUT  {:>6} used  ({:>5.1} % of {})", total.lut, lut, report.device.lut);
        println!("  BRAM {:>6} used  ({:>5.1} % of {})", total.bram36, bram, report.device.bram36);
        println!(
            "  off-chip DRAM traffic during control: {}\n",
            if report.requires_dram() { "yes" } else { "none" }
        );
    }

    if wants("fig9") {
        println!("== Fig. 9: mass-matrix change when a single joint moves by 6°/17°/29° ==");
        println!("  {:<8} {:>10} {:>16} {:>16}", "joint", "angle", "max |dM|", "max rel. [%]");
        for row in experiments::fig9_sensitivity() {
            println!(
                "  joint {:<2} {:>9.0}° {:>16.3} {:>16.1}",
                row.joint + 1,
                row.delta_rad.to_degrees(),
                row.max_absolute_change,
                row.max_relative_change_percent
            );
        }
        println!();
    }

    if wants("ablation") {
        println!("== §4.2 ablation: accelerator latency per design point ==");
        let rows = experiments::accelerator_ablation();
        let base = rows[0].1;
        for (name, latency) in &rows {
            println!(
                "  {:<28} {:>8.3} ms   (-{:>4.1} % vs unoptimised)",
                name,
                latency,
                100.0 * (1.0 - latency / base)
            );
        }
        println!();
    }

    if wants("approx") || wants("fig15") {
        println!("== §4.3 / Fig. 15: approximate computing ==");
        let (skip, sweep) = experiments::approximation_study();
        println!("  matrix updates skipped at the 40 % threshold: {:.1} %", skip * 100.0);
        println!(
            "  {:<12} {:>12} {:>10} {:>18}",
            "threshold", "skipped [%]", "speedup", "traj. error [cm]"
        );
        for point in &sweep {
            println!(
                "  {:<12.0} {:>12.1} {:>9.2}x {:>18.3}",
                point.threshold * 100.0,
                point.skip_fraction * 100.0,
                point.speedup,
                point.trajectory_error_cm
            );
        }
        println!();
    }

    if wants("bottleneck") {
        println!("== §2.2 bottleneck analysis ==");
        let (cpu_hz, control_share, accel_hz) = experiments::bottleneck_analysis();
        println!("  control loop on the robot CPU (zero inference latency): {cpu_hz:.1} Hz");
        println!("  control share of that loop: {:.1} %", control_share * 100.0);
        println!("  control rate on the Corki accelerator: {accel_hz:.0} Hz\n");
    }

    if wants("fleet") {
        println!("== Fleet serving: robots × variant × scheduler × pool × composition sweep ==");
        let (spec, cells) = match &scenario_path {
            Some(path) => {
                let (spec, mut cells) = load_scenario(path);
                if smoke {
                    // CI footprint: keep the pool/routing shape of the
                    // committed scenario, shrink the fleet and the horizon.
                    cells = smoke_scale_cells(cells, 64, 30);
                    println!("(smoke: cells scaled down to at most 64 robots x 30 frames)");
                }
                (spec, cells)
            }
            None => {
                let mut spec = paper_sweep(smoke);
                if !smoke {
                    // Feed the serving sweep the executed lengths that
                    // Corki-ADAP actually produced in the simulator rollouts.
                    spec.adaptive_lengths = Some(measured_adaptive_lengths(3, scale.seed));
                }
                let cells = spec.expand().expect("the paper's fleet sweep expands");
                (spec, cells)
            }
        };
        print_scenario(&spec, &cells);
        let detailed = scenario_sweep_detailed(&cells);
        let rows: Vec<FleetSweepRow> = detailed.iter().map(|cell| cell.row.clone()).collect();
        print_sweep_rows(&rows);
        // Fault-injected cells get a second table with the robustness
        // counters; fault-free sweeps keep the historical output shape.
        let any_faults = rows.iter().any(|row| {
            row.timed_out_requests > 0
                || row.retries > 0
                || row.dropped_requests > 0
                || row.fallback_inferences > 0
                || row.mean_recovery_ms > 0.0
        });
        if any_faults {
            println!("\n  fault injection (per cell, warm-up included):");
            println!(
                "  {:<12} {:<13} {:<26} {:>8} {:>7} {:>7} {:>9} {:>13} {:>9}",
                "variant",
                "scheduler",
                "composition",
                "timeout",
                "retry",
                "drop",
                "fallback",
                "recovery[ms]",
                "SLO-viol"
            );
            for row in &rows {
                println!(
                    "  {:<12} {:<13} {:<26} {:>8} {:>7} {:>7} {:>9} {:>13.1} {:>8.1}%",
                    row.variant,
                    row.scheduler,
                    row.composition,
                    row.timed_out_requests,
                    row.retries,
                    row.dropped_requests,
                    row.fallback_inferences,
                    row.mean_recovery_ms,
                    row.slo_violation_fraction * 100.0,
                );
            }
        }
        let budget = robots_within_budget(&rows, spec.latency_budget_ms);
        println!(
            "\n  robots-per-pool within a {:.0} ms p99 plan-latency budget (warm-up-trimmed):",
            spec.latency_budget_ms
        );
        println!(
            "  {:<12} {:<13} {:<26} {:>4} {:>11}",
            "variant", "scheduler", "composition", "srv", "max robots"
        );
        for row in &budget {
            println!(
                "  {:<12} {:<13} {:<26} {:>4} {:>11}",
                row.variant, row.scheduler, row.composition, row.servers, row.max_robots
            );
        }
        if telemetry_tables {
            println!("\n  in-path telemetry (always-on recorder, warm-up included):");
            for cell in &detailed {
                println!(
                    "  {} / {} / {} ({} robots, {} srv):",
                    cell.row.variant,
                    cell.row.scheduler,
                    cell.row.composition,
                    cell.row.robots,
                    cell.row.servers
                );
                print_telemetry(&cell.telemetry);
            }
        }
        println!();
        json.insert("fleet".to_owned(), serde_json::to_value(&rows).unwrap());
        json.insert("fleet_budget".to_owned(), serde_json::to_value(&budget).unwrap());
        let telemetry: Vec<_> = detailed.iter().map(|cell| &cell.telemetry).collect();
        json.insert("fleet_telemetry".to_owned(), serde_json::to_value(&telemetry).unwrap());
    }

    if serve_selected {
        println!("== Live fleet serving: scenario cells lowered onto real processes over shared memory ==");
        let path = scenario_path.as_ref().expect("serve always carries --scenario");
        let (spec, mut cells) = load_scenario(path);
        if smoke {
            cells = smoke_scale_cells(cells, 8, 24);
            println!("(smoke: live cells scaled down to at most 8 robots x 24 frames)");
        }
        if robots_clamp.is_some() || frames_clamp.is_some() {
            cells = smoke_scale_cells(
                cells,
                robots_clamp.unwrap_or(usize::MAX),
                frames_clamp.unwrap_or(usize::MAX),
            );
        }
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("error: cannot locate the experiments binary for child roles: {e}");
            std::process::exit(1);
        });
        print_scenario(&spec, &cells);
        let mut reports = Vec::new();
        for cell in &cells {
            match corki_serve::run_live(cell, &exe) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    eprintln!(
                        "error: live run of `{}` ({} x{}, {} srv) failed: {e}",
                        cell.scenario, cell.variant_label, cell.robots, cell.servers
                    );
                    std::process::exit(1);
                }
            }
        }
        print_sweep_rows(reports.iter().map(|report| &report.row));
        println!("\n  measured shared-memory transit per offloaded plan (mean / p99, µs):");
        for report in &reports {
            let t = &report.transit;
            let us = |ns: f64| ns / 1_000.0;
            println!(
                "  {:<12} request {:>7.1} /{:>8.1}   dispatch {:>7.1} /{:>8.1}   completion {:>7.1} /{:>8.1}   response {:>7.1} /{:>8.1}   round-trip {:>7.1}",
                report.row.variant,
                us(t.request.mean_ns),
                us(t.request.p99_ns),
                us(t.dispatch.mean_ns),
                us(t.dispatch.p99_ns),
                us(t.completion.mean_ns),
                us(t.completion.p99_ns),
                us(t.response.mean_ns),
                us(t.response.p99_ns),
                us(t.round_trip.mean_ns),
            );
            println!(
                "  {:<12} wall {:>6.2} s   {} robots done, {} frames, {} offloaded plans   link wait {:>6.2} ms   stage total {:>7.2} ms   IPC residual {:>6.2} ms",
                "",
                report.wall_s,
                report.robots_completed,
                report.total_frames,
                report.offloaded_plans,
                report.mean_link_wait_ms,
                report.mean_stage_total_ms,
                report.ipc_overhead_ms,
            );
        }
        if telemetry_tables {
            println!("\n  in-path telemetry (drained live from the shared segment):");
            for report in &reports {
                println!(
                    "  {} ({} robots, {} srv, {} drain(s)):",
                    report.row.variant,
                    report.row.robots,
                    report.row.servers,
                    report.telemetry_drains
                );
                print_telemetry(&report.telemetry);
            }
        }
        println!();
        for report in &reports {
            let problems = live_report_problems(report);
            if !problems.is_empty() {
                eprintln!(
                    "error: live report of `{}` is incomplete: {}",
                    report.scenario,
                    problems.join("; ")
                );
                std::process::exit(1);
            }
        }
        json.insert("serve".to_owned(), serde_json::to_value(&reports).unwrap());
    }

    if let Some(path) = json_path {
        let blob = serde_json::to_string_pretty(&json).expect("results are serialisable");
        match std::fs::write(&path, blob) {
            Ok(()) => println!("(wrote JSON results to {path})"),
            Err(e) => {
                eprintln!("error: cannot write JSON results to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
