//! Fleet-serving experiments: how many robots can one inference server
//! (or a routed pool of servers) sustain, and how do trajectory length,
//! batch scheduling and device composition move that number?
//!
//! This is the experiment layer on top of the discrete-event fleet runtime
//! in `corki_system::fleet`.  Every sweep is a declarative [`ScenarioSpec`]
//! ([`corki_system::scenario`], re-exported as [`crate::scenario`]) — a
//! committed scenario file, a [`ScenarioBuilder`] chain, or the paper's
//! default sweep ([`paper_sweep`]) — whose expanded cells
//! [`scenario_sweep_detailed`] runs.  Per cell it reports fleet throughput,
//! end-to-end plan latency (mean/p99), server queueing delay (mean/p99) and
//! pool utilisation.  [`robots_within_budget`] then condenses the sweep into
//! the paper's serving claim: because one Corki inference buys a multi-step
//! trajectory, longer trajectories lower the per-robot request rate and
//! raise the number of robots a server sustains within a latency budget.
//!
//! Sweeps enable the engine's warm-up window, so the reported p99s measure
//! the stationary regime of the closed queueing loop instead of its
//! start-up transient.

use corki_sim::evaluation::{parallel_map, run_job, session_seed, EvalConfig};
use corki_system::fleet::{FleetSimulator, SchedulerKind};
use corki_system::scenario::{CompositionSpec, ConcreteScenario, ScenarioBuilder, ScenarioSpec};
use corki_system::{RoutingPolicy, Variant};
use corki_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};

use crate::variants::VariantSetup;

/// The paper's default fleet sweep, named `fleet-experiment`: RoboFlamingo,
/// Corki-3, Corki-9 and Corki-ADAP under FIFO and an 8-wide dynamic batcher
/// on V100 servers, with a 400 ms p99 plan-latency budget.
///
/// The smoke shape sweeps fleets of 1 and 8 robots for 60 frames (250 ms
/// warm-up) on one server — 16 cells.  The full shape sweeps fleets of 1 to
/// 16 robots for 240 frames (2 s warm-up) and adds the heterogeneous axes:
/// one server vs a pool of two behind least-queue-depth routing, and an
/// all-offloaded fleet vs one with a Jetson board in every second robot —
/// 256 cells.  Corki-ADAP runs the pipeline's default executed lengths; set
/// [`ScenarioSpec::adaptive_lengths`] (e.g. from
/// [`measured_adaptive_lengths`]) to feed it measured ones.
pub fn paper_sweep(smoke: bool) -> ScenarioSpec {
    let variants = [
        Variant::RoboFlamingo,
        Variant::CorkiFixed(3),
        Variant::CorkiFixed(9),
        Variant::CorkiAdaptive,
    ];
    let builder = ScenarioBuilder::new("fleet-experiment")
        .seed(2024)
        .default_servers(1, SchedulerKind::Fifo)
        .variant_axis(variants.to_vec())
        .scheduler_axis(vec![
            SchedulerKind::Fifo,
            SchedulerKind::DynamicBatch { max_batch: 8, timeout_ms: 15.0 },
        ])
        .latency_budget_ms(400.0);
    let builder = if smoke {
        builder.robot_counts(vec![1, 8]).frames_per_robot(60).warmup_ms(250.0)
    } else {
        builder
            .robot_counts(vec![1, 2, 3, 4, 6, 8, 12, 16])
            .frames_per_robot(240)
            .warmup_ms(2000.0)
            .routing(RoutingPolicy::LeastQueueDepth)
            .server_count_axis(vec![1, 2])
            .composition_axis(vec![
                CompositionSpec::Homogeneous,
                CompositionSpec::jetson_every_second(),
            ])
    };
    builder.build().expect("the paper's fleet sweep is a valid scenario")
}

/// One cell of the fleet sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepRow {
    /// Robots in the fleet.
    pub robots: usize,
    /// Inference servers in the pool.
    pub servers: usize,
    /// Variant name.
    pub variant: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Routing policy name.
    pub routing: String,
    /// Device composition label.
    pub composition: String,
    /// Executed control steps per second across the fleet.
    pub throughput_steps_per_s: f64,
    /// Effective per-robot step rate (Hz).
    pub per_robot_rate_hz: f64,
    /// Mean end-to-end plan latency: capture → trajectory received (ms).
    pub mean_plan_latency_ms: f64,
    /// 99th-percentile end-to-end plan latency (ms, warm-up-trimmed).
    pub p99_plan_latency_ms: f64,
    /// Mean server queueing delay (ms).
    pub mean_queue_delay_ms: f64,
    /// 99th-percentile server queueing delay (ms, warm-up-trimmed).
    pub p99_queue_delay_ms: f64,
    /// Fraction of the pool's capacity spent busy.
    pub server_utilization: f64,
    /// Mean formed batch size.
    pub mean_batch_size: f64,
    /// Fraction of warm-up-trimmed plans whose end-to-end latency exceeded
    /// the scenario's latency budget.
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

/// One cell's full result: the sweep row plus the always-on in-path
/// telemetry the engine recorded while producing it (per-stage latency
/// histograms and per-robot timelines, the same six-stage taxonomy the
/// live path reports).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetailedSweepCell {
    /// The summary row.
    pub row: FleetSweepRow,
    /// The engine's telemetry report for this cell.
    pub telemetry: TelemetryReport,
}

/// Runs expanded scenario cells, fanning them out over all cores.
pub fn scenario_sweep_detailed(cells: &[ConcreteScenario]) -> Vec<DetailedSweepCell> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    scenario_sweep_detailed_with_jobs(cells, cores)
}

/// [`scenario_sweep_detailed`] with an explicit worker count (`1` runs
/// sequentially).
///
/// Cells are assembled in cell order and are byte-identical for every job
/// count: each cell is an independent deterministic simulation, and its row
/// labels come from the cell, which derives them from the one canonical
/// `Display` implementation per axis type.
pub fn scenario_sweep_detailed_with_jobs(
    cells: &[ConcreteScenario],
    jobs: usize,
) -> Vec<DetailedSweepCell> {
    let run_cell = |cell: &ConcreteScenario| {
        let outcome = FleetSimulator::new(cell.config.clone()).run();
        let summary = &outcome.summary;
        let row = FleetSweepRow {
            robots: cell.robots,
            servers: cell.servers,
            variant: cell.variant_label.clone(),
            scheduler: cell.scheduler_label.clone(),
            routing: cell.routing_label.clone(),
            composition: cell.composition_label.clone(),
            throughput_steps_per_s: summary.throughput_steps_per_s,
            per_robot_rate_hz: summary.throughput_steps_per_s / cell.robots as f64,
            mean_plan_latency_ms: summary.mean_plan_latency_ms,
            p99_plan_latency_ms: summary.p99_plan_latency_ms,
            mean_queue_delay_ms: summary.mean_queue_delay_ms,
            p99_queue_delay_ms: summary.p99_queue_delay_ms,
            server_utilization: summary.server_utilization,
            mean_batch_size: summary.mean_batch_size,
            slo_violation_fraction: summary.slo_violation_fraction,
            timed_out_requests: summary.timed_out_requests,
            retries: summary.retries,
            dropped_requests: summary.dropped_requests,
            fallback_inferences: summary.fallback_inferences,
            mean_recovery_ms: summary.mean_recovery_ms,
        };
        DetailedSweepCell { row, telemetry: outcome.telemetry }
    };
    parallel_map(cells, |_, cell| run_cell(cell), jobs)
}

/// Scales expanded cells down to a smoke footprint (the CI path for
/// full-scale committed scenarios): each fleet keeps at most `max_robots`
/// robots — the leading ones, preserving group order and derived seeds —
/// and runs at most `max_frames` frames per robot.  The pool, routing and
/// labels are untouched, so a smoke run exercises exactly
/// the code paths of the full-scale scenario, just smaller.
pub fn smoke_scale_cells(
    cells: Vec<ConcreteScenario>,
    max_robots: usize,
    max_frames: usize,
) -> Vec<ConcreteScenario> {
    cells
        .into_iter()
        .map(|mut cell| {
            cell.config.robots.truncate(max_robots.max(1));
            cell.robots = cell.config.robots.len();
            cell.config.frames_per_robot = cell.config.frames_per_robot.min(max_frames.max(1));
            cell
        })
        .collect()
}

/// Robots-per-pool at a latency budget: for one variant × scheduler × pool
/// shape, the largest swept fleet whose p99 end-to-end plan latency stays
/// within budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetRow {
    /// Variant name.
    pub variant: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Inference servers in the pool.
    pub servers: usize,
    /// Device composition label.
    pub composition: String,
    /// p99 plan-latency budget applied (ms).
    pub budget_ms: f64,
    /// Largest swept fleet size within budget (0 when even one robot
    /// overruns it).
    pub max_robots: usize,
}

/// Condenses sweep rows into the robots-per-server-at-budget table, in the
/// rows' variant × scheduler × pool-shape order.
pub fn robots_within_budget(rows: &[FleetSweepRow], budget_ms: f64) -> Vec<BudgetRow> {
    let mut out: Vec<BudgetRow> = Vec::new();
    for row in rows {
        let within = row.p99_plan_latency_ms <= budget_ms;
        match out.iter_mut().find(|b| {
            b.variant == row.variant
                && b.scheduler == row.scheduler
                && b.servers == row.servers
                && b.composition == row.composition
        }) {
            Some(budget_row) => {
                if within && row.robots > budget_row.max_robots {
                    budget_row.max_robots = row.robots;
                }
            }
            None => out.push(BudgetRow {
                variant: row.variant.clone(),
                scheduler: row.scheduler.clone(),
                servers: row.servers,
                composition: row.composition.clone(),
                budget_ms,
                max_robots: if within { row.robots } else { 0 },
            }),
        }
    }
    out
}

/// Measures the executed-length distribution of Corki-ADAP rollouts in the
/// simulator (the closed loop between the accuracy layer and the serving
/// layer: the fleet sweep can run on lengths the policy actually produced).
///
/// Reuses one policy instance across jobs via the
/// [`reseed`](corki_policy::ManipulationPolicy::reseed) session seeding
/// hook; returns the pipeline's default distribution when the rollouts
/// produce no lengths.
pub fn measured_adaptive_lengths(jobs: usize, seed: u64) -> Vec<usize> {
    let setup = VariantSetup::new(Variant::CorkiAdaptive);
    let env = setup.build_environment(seed);
    let mut policy = setup.build_policy(session_seed(seed, 0));
    let config = EvalConfig { num_jobs: 1, unseen: false, seed };
    let mut lengths = Vec::new();
    for job in 0..jobs {
        policy.reseed(session_seed(seed, job as u64));
        let result = run_job(&env, policy.as_mut(), &config, job);
        for episode in &result.episodes {
            lengths.extend(episode.executed_lengths.iter().copied());
        }
    }
    if lengths.is_empty() {
        corki_system::fleet::DEFAULT_ADAPTIVE_LENGTHS.to_vec()
    } else {
        lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corki_system::fleet::{FleetConfig, RobotCompute};
    use corki_system::scenario::{scenario_fingerprint, WarmupSpec};

    fn sweep_rows(spec: &ScenarioSpec, jobs: usize) -> Vec<FleetSweepRow> {
        let cells = spec.expand().expect("valid scenario");
        scenario_sweep_detailed_with_jobs(&cells, jobs).into_iter().map(|cell| cell.row).collect()
    }

    /// The default sweep's cells are pinned by content: both shapes expand
    /// to exactly the cells the historical axis-list sweep built.
    #[test]
    fn paper_sweep_expands_to_the_pinned_cells() {
        let smoke = paper_sweep(true).expand().expect("smoke shape expands");
        assert_eq!(smoke.len(), 16);
        assert_eq!(scenario_fingerprint(&smoke), "9e121eb2b39aaab9");
        let full = paper_sweep(false).expand().expect("full shape expands");
        assert_eq!(full.len(), 256);
        assert_eq!(scenario_fingerprint(&full), "51f7236b314e89a5");
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let rows = sweep_rows(&paper_sweep(true), 1);
        // schedulers × variants × fleet sizes.
        assert_eq!(rows.len(), 2 * 4 * 2);
        assert_eq!(rows[0].variant, "RoboFlamingo");
        assert_eq!(rows[0].robots, 1);
        assert_eq!(rows[0].servers, 1);
        assert_eq!(rows[0].composition, "offloaded");
        for row in &rows {
            assert!(row.throughput_steps_per_s > 0.0);
            assert!(row.p99_plan_latency_ms.is_finite() && row.p99_plan_latency_ms >= 0.0);
            assert!(row.server_utilization > 0.0 && row.server_utilization <= 1.0 + 1e-9);
        }
    }

    /// 64-bit FNV-1a of `bytes` as 16 lowercase hex characters.
    fn fnv1a_hex(bytes: &[u8]) -> String {
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let spec = paper_sweep(true);
        let sequential = sweep_rows(&spec, 1);
        for jobs in [2, 5, 16] {
            let parallel = sweep_rows(&spec, jobs);
            assert_eq!(
                serde_json::to_string(&sequential).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "jobs={jobs} changed the sweep"
            );
        }
        // The default smoke sweep end to end, rows and telemetry: any change
        // to an output of the engine moves this hash.
        let cells = spec.expand().expect("valid scenario");
        let detailed =
            serde_json::to_string(&scenario_sweep_detailed_with_jobs(&cells, 1)).unwrap();
        assert_eq!(fnv1a_hex(detailed.as_bytes()), "2730685c20c960d3");
    }

    #[test]
    fn heterogeneous_axes_add_pool_and_mixed_rows() {
        // The full shape's axes at the smoke footprint.
        let mut spec = paper_sweep(false);
        spec.axes.robot_counts = vec![1, 8];
        spec.frames_per_robot = 60;
        spec.warmup_ms = WarmupSpec::Fixed(250.0);
        let rows = sweep_rows(&spec, 1);
        assert!(rows.iter().any(|r| r.servers == 2));
        assert!(rows.iter().any(|r| r.composition.starts_with("mix(")));
        assert!(rows.iter().all(|r| r.routing == "least-queue-depth"));
        // A second server must not hurt a saturated single-variant fleet.
        let single = rows
            .iter()
            .find(|r| {
                r.servers == 1
                    && r.robots == 8
                    && r.variant == "Corki-3"
                    && r.composition == "offloaded"
                    && r.scheduler == "fifo"
            })
            .expect("single-server cell swept");
        let pooled = rows
            .iter()
            .find(|r| {
                r.servers == 2
                    && r.robots == 8
                    && r.variant == "Corki-3"
                    && r.composition == "offloaded"
                    && r.scheduler == "fifo"
            })
            .expect("two-server cell swept");
        assert!(pooled.throughput_steps_per_s >= single.throughput_steps_per_s * 0.999);
        assert!(pooled.mean_queue_delay_ms <= single.mean_queue_delay_ms);
        // Budget table keys on the pool shape, so both shapes appear.
        let budget = robots_within_budget(&rows, spec.latency_budget_ms);
        assert!(budget.iter().any(|b| b.servers == 2));
        assert!(budget.iter().any(|b| b.composition.starts_with("mix(")));
    }

    #[test]
    fn mixed_composition_marks_every_second_robot_on_robot() {
        let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 6, 1);
        CompositionSpec::jetson_every_second().apply(&mut config);
        let on_robot: Vec<usize> = config
            .robots
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.compute, RobotCompute::OnRobot(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(on_robot, vec![1, 3, 5]);
        assert_eq!(
            CompositionSpec::jetson_every_second().label(),
            "mix(Jetson Orin 32GB fp16 1/2)"
        );
        assert_eq!(CompositionSpec::Homogeneous.label(), "offloaded");
    }

    #[test]
    fn longer_trajectories_raise_robots_per_server_at_fixed_budget() {
        // Long enough that p99 measures the steady state, not the start-up
        // transient of the closed queueing loop (the sweep additionally
        // trims the warm-up window).
        let mut spec = paper_sweep(true);
        spec.axes.robot_counts = vec![1, 2, 3, 4, 6, 8];
        spec.frames_per_robot = 240;
        spec.warmup_ms = WarmupSpec::Fixed(2000.0);
        spec.axes.variants =
            vec![Variant::RoboFlamingo, Variant::CorkiFixed(3), Variant::CorkiFixed(9)];
        spec.axes.schedulers = vec![SchedulerKind::Fifo];
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rows = sweep_rows(&spec, cores);
        let budget = robots_within_budget(&rows, spec.latency_budget_ms);
        let max = |variant: &str| {
            budget.iter().find(|b| b.variant == variant).expect("variant swept").max_robots
        };
        let baseline = max("RoboFlamingo");
        let corki3 = max("Corki-3");
        let corki9 = max("Corki-9");
        assert!(
            baseline <= corki3 && corki3 <= corki9,
            "robots-per-server must not fall as trajectories lengthen: \
             baseline {baseline}, Corki-3 {corki3}, Corki-9 {corki9}"
        );
        assert!(corki9 > baseline, "Corki-9 ({corki9}) must beat the frame baseline ({baseline})");
        // At a saturated fleet size the throughput separation is large:
        // every extra trajectory step is a served control step the baseline
        // would spend on another full inference.
        let throughput = |variant: &str| {
            rows.iter()
                .find(|r| r.variant == variant && r.robots == 8)
                .expect("N=8 swept")
                .throughput_steps_per_s
        };
        assert!(throughput("Corki-9") > 2.0 * throughput("Corki-3"));
        assert!(throughput("Corki-3") > 2.0 * throughput("RoboFlamingo"));
    }

    #[test]
    fn sweep_rows_round_trip_through_serde() {
        let rows = sweep_rows(&paper_sweep(true), 1);
        let json = serde_json::to_string(&rows).unwrap();
        let parsed: Vec<FleetSweepRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, rows);
    }

    /// Cell labels are derived once in the scenario layer; the engine's own
    /// summary labels must agree with them.
    #[test]
    fn cell_labels_agree_with_engine_summaries() {
        let cells = paper_sweep(true).expand().expect("valid scenario");
        for cell in &cells {
            let summary = FleetSimulator::new(cell.config.clone()).run().summary;
            assert_eq!(summary.scheduler, cell.scheduler_label);
            assert_eq!(summary.routing, cell.routing_label);
            assert_eq!(summary.robots, cell.robots);
            assert_eq!(summary.servers, cell.servers);
        }
    }

    /// The ROADMAP's mixed-variant item: a Corki-3 + Corki-9 fleet expressed
    /// purely as a scenario appears in sweep rows and the budget table,
    /// keyed by its own variant-mix label.
    #[test]
    fn mixed_variant_scenario_reaches_rows_and_budget_table() {
        let spec = ScenarioBuilder::new("mixed-variant")
            .seed(2024)
            .frames_per_robot(60)
            .warmup_ms(250.0)
            .group(Variant::CorkiFixed(3), 1)
            .group(Variant::CorkiFixed(9), 1)
            .default_servers(1, SchedulerKind::Fifo)
            .robot_counts(vec![2, 8])
            .build()
            .expect("mixed-variant spec is valid");
        let cells = spec.expand().expect("expands");
        let rows = sweep_rows(&spec, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.variant, "Corki-3+Corki-9");
            assert!(row.throughput_steps_per_s > 0.0);
        }
        // Half the fleet runs each variant.
        let robots = &cells[1].config.robots;
        let corki3 = robots.iter().filter(|r| r.variant == Variant::CorkiFixed(3)).count();
        assert_eq!((corki3, robots.len()), (4, 8));
        let budget = robots_within_budget(&rows, spec.latency_budget_ms);
        assert_eq!(budget.len(), 1);
        assert_eq!(budget[0].variant, "Corki-3+Corki-9");
        assert!(
            budget[0].max_robots >= 2,
            "a small mixed Corki-3/9 fleet must fit a 400 ms p99, got {}",
            budget[0].max_robots
        );
    }

    #[test]
    fn measured_adaptive_lengths_are_plausible() {
        let lengths = measured_adaptive_lengths(2, 5);
        assert!(!lengths.is_empty());
        assert!(lengths.iter().all(|&l| (1..=9).contains(&l)));
    }
}
