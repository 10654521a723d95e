//! Fleet-serving experiments: how many robots can one inference server
//! (or a routed pool of servers) sustain, and how do trajectory length,
//! batch scheduling and device composition move that number?
//!
//! This is the experiment layer on top of the discrete-event fleet runtime
//! in `corki_system::fleet`.  A sweep runs robots-per-server × variant ×
//! scheduler × pool-size × device-composition cells and reports, per cell,
//! fleet throughput, end-to-end plan latency (mean/p99), server queueing
//! delay (mean/p99) and pool utilisation.  [`robots_within_budget`] then
//! condenses the sweep into the paper's serving claim: because one Corki
//! inference buys a multi-step trajectory, longer trajectories lower the
//! per-robot request rate and raise the number of robots a server sustains
//! within a latency budget.
//!
//! Since the `ScenarioSpec` redesign every sweep path runs through the
//! declarative scenario layer ([`corki_system::scenario`], re-exported as
//! [`crate::scenario`]): [`FleetExperiment`] is now a convenience *shim*
//! that [builds a spec](FleetExperiment::to_scenario), and the sweep itself
//! runs the spec's expanded cells ([`scenario_sweep`]).  That makes every
//! shape a spec can describe — mixed-*variant* fleets, per-group on-robot
//! devices, heterogeneous pools — first-class in [`FleetSweepRow`]s and the
//! budget table, whether it came from the legacy axis lists, a committed
//! scenario file or the `--scenario` CLI flag.
//!
//! Two additions beyond PR 3:
//!
//! * **heterogeneous axes** — [`FleetExperiment::server_counts`] sweeps the
//!   pool size under a [`RoutingPolicy`], and [`FleetComposition`] mixes
//!   on-robot devices (Jetson-class boards that bypass the uplink) into an
//!   otherwise offloaded fleet;
//! * **steady-state metrics** — sweeps enable the engine's warm-up window
//!   ([`FleetScale::warmup_ms`]), so the reported p99s measure the
//!   stationary regime of the closed queueing loop instead of its start-up
//!   transient.

use corki_sim::evaluation::{parallel_map, run_job, session_seed, EvalConfig};
use corki_system::fleet::{fleet_robot_seed, FleetSimulator, SchedulerKind, ServerConfig};
use corki_system::scenario::{
    ConcreteScenario, ScenarioAxes, ScenarioSpec, VariantMix, WarmupSpec,
};
use corki_system::{ControlBackend, InferenceModel, RoutingPolicy, Variant};
use corki_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};

use crate::variants::VariantSetup;

/// The device-composition axis entry, now defined once in the scenario
/// layer (kept under its historical name for the experiment shim).
pub use corki_system::scenario::CompositionSpec as FleetComposition;

/// Scale of a fleet sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScale {
    /// Fleet sizes to sweep (robots per cell).
    pub robot_counts: Vec<usize>,
    /// Camera frames each robot executes per cell.
    pub frames_per_robot: usize,
    /// Base seed; robots derive their jitter seeds from it.
    pub seed: u64,
    /// Warm-up window excluded from each cell's plan/queue latency
    /// statistics (ms), so short sweep runs report steady-state p99s.
    pub warmup_ms: f64,
}

impl Default for FleetScale {
    fn default() -> Self {
        FleetScale {
            robot_counts: vec![1, 2, 3, 4, 6, 8, 12, 16],
            frames_per_robot: 240,
            seed: 2024,
            warmup_ms: 2000.0,
        }
    }
}

impl FleetScale {
    /// A minimal configuration for CI and integration tests.
    pub fn smoke() -> Self {
        FleetScale { robot_counts: vec![1, 8], frames_per_robot: 60, seed: 2024, warmup_ms: 250.0 }
    }
}

/// A full fleet experiment: scale × variants × schedulers × pool sizes ×
/// compositions plus the latency budget used for the robots-per-server
/// summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetExperiment {
    /// Sweep scale.
    pub scale: FleetScale,
    /// Variants to sweep (one fleet-wide variant per cell).
    pub variants: Vec<Variant>,
    /// Schedulers to sweep (applied to every server of the pool).
    pub schedulers: Vec<SchedulerKind>,
    /// Pool sizes to sweep (replicas of the default V100 server).
    pub server_counts: Vec<usize>,
    /// How offloaded requests are spread over multi-server pools.
    pub routing: RoutingPolicy,
    /// Device compositions to sweep.
    pub compositions: Vec<FleetComposition>,
    /// Executed-length distribution for Corki-ADAP fleets; `None` uses the
    /// pipeline defaults, `Some` typically carries lengths measured by
    /// [`measured_adaptive_lengths`].
    pub adaptive_lengths: Option<Vec<usize>>,
    /// End-to-end plan-latency budget (p99, ms) for [`robots_within_budget`].
    pub latency_budget_ms: f64,
}

impl FleetExperiment {
    /// The default sweep: four variants spanning the trajectory-length axis
    /// and both serving disciplines, on the PR 3 single-server homogeneous
    /// pool.
    pub fn paper_defaults(scale: FleetScale) -> Self {
        FleetExperiment {
            scale,
            variants: vec![
                Variant::RoboFlamingo,
                Variant::CorkiFixed(3),
                Variant::CorkiFixed(9),
                Variant::CorkiAdaptive,
            ],
            schedulers: vec![
                SchedulerKind::Fifo,
                SchedulerKind::DynamicBatch { max_batch: 8, timeout_ms: 15.0 },
            ],
            server_counts: vec![1],
            routing: RoutingPolicy::RoundRobin,
            compositions: vec![FleetComposition::Homogeneous],
            adaptive_lengths: None,
            latency_budget_ms: 400.0,
        }
    }

    /// [`paper_defaults`](FleetExperiment::paper_defaults) widened by the
    /// heterogeneous axes: single server vs a pool of two behind
    /// least-queue-depth routing, and an all-offloaded fleet vs one with a
    /// Jetson board in every second robot.
    pub fn heterogeneous(scale: FleetScale) -> Self {
        let mut experiment = FleetExperiment::paper_defaults(scale);
        experiment.server_counts = vec![1, 2];
        experiment.routing = RoutingPolicy::LeastQueueDepth;
        experiment.compositions =
            vec![FleetComposition::Homogeneous, FleetComposition::jetson_every_second()];
        experiment
    }

    /// Lowers the experiment's axis lists into one declarative
    /// [`ScenarioSpec`] — the shim behind the legacy sweep API and the
    /// legacy CLI flags.  The spec expands into the exact cells (and the
    /// exact [`corki_system::FleetConfig`]s) the pre-scenario sweep built,
    /// so rows are byte-identical to the old code path.
    pub fn to_scenario(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: "fleet-experiment".to_owned(),
            seed: self.scale.seed,
            frames_per_robot: self.scale.frames_per_robot,
            warmup_ms: WarmupSpec::Fixed(self.scale.warmup_ms),
            routing: self.routing,
            control_backend: ControlBackend::PerRobot,
            robots: Vec::new(),
            servers: vec![ServerConfig::new(InferenceModel::default(), SchedulerKind::Fifo)],
            adaptive_lengths: self.adaptive_lengths.clone().filter(|lengths| !lengths.is_empty()),
            latency_budget_ms: self.latency_budget_ms,
            axes: ScenarioAxes {
                robot_counts: self.scale.robot_counts.clone(),
                variants: self.variants.iter().cloned().map(VariantMix::uniform).collect(),
                schedulers: self.schedulers.clone(),
                server_counts: self.server_counts.clone(),
                compositions: self.compositions.clone(),
            },
            faults: None,
        }
    }
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

/// Runs the fleet sweep, fanning independent cells out over all cores.
///
/// Results are **byte-identical for every job count** — each cell is an
/// independent deterministic simulation and rows are assembled in sweep
/// order (pool-size-major, then composition, then scheduler, then variant,
/// then fleet size).
pub fn fleet_sweep(experiment: &FleetExperiment) -> Vec<FleetSweepRow> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    fleet_sweep_with_jobs(experiment, cores)
}

/// [`fleet_sweep`] with an explicit worker count (`1` runs sequentially).
///
/// The experiment is lowered to a [`ScenarioSpec`] first
/// ([`FleetExperiment::to_scenario`]) and its expanded cells are run by
/// [`scenario_sweep_with_jobs`] — the legacy axis lists are a shim over the
/// declarative scenario layer.
pub fn fleet_sweep_with_jobs(experiment: &FleetExperiment, jobs: usize) -> Vec<FleetSweepRow> {
    // The legacy API multiplies its axis lists, so any empty list means an
    // empty sweep (a spec would instead fall back to its base value).
    if experiment.scale.robot_counts.is_empty()
        || experiment.variants.is_empty()
        || experiment.schedulers.is_empty()
        || experiment.server_counts.is_empty()
        || experiment.compositions.is_empty()
    {
        return Vec::new();
    }
    let cells = experiment
        .to_scenario()
        .expand()
        .expect("FleetExperiment axis lists always lower to a valid scenario");
    scenario_sweep_with_jobs(&cells, jobs)
}

/// Runs expanded scenario cells, fanning them out over all cores.
pub fn scenario_sweep(cells: &[ConcreteScenario]) -> Vec<FleetSweepRow> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    scenario_sweep_with_jobs(cells, cores)
}

/// [`scenario_sweep`] with an explicit worker count (`1` runs sequentially).
///
/// Rows are assembled in cell order and are byte-identical for every job
/// count; their labels come from the cells, which derive them from the one
/// canonical `Display` implementation per axis type.
pub fn scenario_sweep_with_jobs(cells: &[ConcreteScenario], jobs: usize) -> Vec<FleetSweepRow> {
    scenario_sweep_detailed_with_jobs(cells, jobs).into_iter().map(|cell| cell.row).collect()
}

/// One cell's full result: the sweep row plus the always-on in-path
/// telemetry the engine recorded while producing it (per-stage latency
/// histograms and per-robot timelines, the same six-stage taxonomy the
/// live path reports).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetailedSweepCell {
    /// The summary row, exactly as [`scenario_sweep`] reports it.
    pub row: FleetSweepRow,
    /// The engine's telemetry report for this cell.
    pub telemetry: TelemetryReport,
}

/// [`scenario_sweep`] keeping each cell's telemetry report alongside its
/// row.
pub fn scenario_sweep_detailed(cells: &[ConcreteScenario]) -> Vec<DetailedSweepCell> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    scenario_sweep_detailed_with_jobs(cells, cores)
}

/// [`scenario_sweep_detailed`] with an explicit worker count (`1` runs
/// sequentially).  This is the primary sweep implementation; the row-only
/// entry points project their rows out of it.
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
        corki_system::PipelineConfig::paper_defaults(Variant::CorkiAdaptive).adaptive_lengths
    } else {
        lengths
    }
}

/// Seeds of the robots of one fleet cell (exposed for tests and tooling;
/// must match what `FleetConfig::paper_defaults` assigns).
pub fn robot_seeds(seed: u64, robots: usize) -> Vec<u64> {
    (0..robots).map(|r| fleet_robot_seed(seed, r as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corki_system::fleet::{FleetConfig, RobotCompute};
    use corki_system::ScenarioBuilder;

    fn smoke_experiment() -> FleetExperiment {
        FleetExperiment::paper_defaults(FleetScale::smoke())
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let experiment = smoke_experiment();
        let rows = fleet_sweep_with_jobs(&experiment, 1);
        assert_eq!(
            rows.len(),
            experiment.server_counts.len()
                * experiment.compositions.len()
                * experiment.schedulers.len()
                * experiment.variants.len()
                * experiment.scale.robot_counts.len()
        );
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

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let experiment = smoke_experiment();
        let sequential = fleet_sweep_with_jobs(&experiment, 1);
        for jobs in [2, 5, 16] {
            let parallel = fleet_sweep_with_jobs(&experiment, jobs);
            assert_eq!(
                serde_json::to_string(&sequential).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "jobs={jobs} changed the sweep"
            );
        }
    }

    #[test]
    fn heterogeneous_axes_add_pool_and_mixed_rows() {
        let experiment = FleetExperiment::heterogeneous(FleetScale::smoke());
        let rows = fleet_sweep_with_jobs(&experiment, 1);
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
        let budget = robots_within_budget(&rows, experiment.latency_budget_ms);
        assert!(budget.iter().any(|b| b.servers == 2));
        assert!(budget.iter().any(|b| b.composition.starts_with("mix(")));
    }

    #[test]
    fn mixed_composition_marks_every_second_robot_on_robot() {
        let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 6, 1);
        FleetComposition::jetson_every_second().apply(&mut config);
        let on_robot: Vec<usize> = config
            .robots
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.compute, RobotCompute::OnRobot(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(on_robot, vec![1, 3, 5]);
        assert!(FleetComposition::jetson_every_second().label().contains("Jetson"));
        assert_eq!(FleetComposition::Homogeneous.label(), "offloaded");
    }

    #[test]
    fn longer_trajectories_raise_robots_per_server_at_fixed_budget() {
        // Long enough that p99 measures the steady state, not the start-up
        // transient of the closed queueing loop (the sweep additionally
        // trims the warm-up window).
        let mut experiment = FleetExperiment::paper_defaults(FleetScale {
            robot_counts: vec![1, 2, 3, 4, 6, 8],
            frames_per_robot: 240,
            seed: 2024,
            warmup_ms: 2000.0,
        });
        experiment.variants =
            vec![Variant::RoboFlamingo, Variant::CorkiFixed(3), Variant::CorkiFixed(9)];
        experiment.schedulers = vec![SchedulerKind::Fifo];
        let rows = fleet_sweep(&experiment);
        let budget = robots_within_budget(&rows, experiment.latency_budget_ms);
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
        let rows = fleet_sweep_with_jobs(&smoke_experiment(), 1);
        let json = serde_json::to_string(&rows).unwrap();
        let parsed: Vec<FleetSweepRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, rows);
    }

    /// The scenario shim must reproduce the pre-redesign sweep exactly: this
    /// re-implements the historical cell construction inline and compares
    /// the rows byte for byte, heterogeneous axes included.
    #[test]
    fn scenario_shim_rows_are_byte_identical_to_the_legacy_sweep() {
        let experiment = FleetExperiment::heterogeneous(FleetScale::smoke());
        let mut legacy: Vec<FleetSweepRow> = Vec::new();
        for &servers in &experiment.server_counts {
            for composition in &experiment.compositions {
                for scheduler in &experiment.schedulers {
                    for variant in &experiment.variants {
                        for &robots in &experiment.scale.robot_counts {
                            let mut config = FleetConfig::paper_defaults(
                                variant.clone(),
                                robots,
                                experiment.scale.seed,
                            )
                            .with_pool(servers);
                            config.frames_per_robot = experiment.scale.frames_per_robot;
                            config.set_scheduler(*scheduler);
                            config.routing = experiment.routing;
                            config.warmup_ms = experiment.scale.warmup_ms;
                            composition.apply(&mut config);
                            let summary = FleetSimulator::new(config).run().summary;
                            legacy.push(FleetSweepRow {
                                robots,
                                servers,
                                variant: variant.name(),
                                scheduler: summary.scheduler.clone(),
                                routing: summary.routing.clone(),
                                composition: composition.label(),
                                throughput_steps_per_s: summary.throughput_steps_per_s,
                                per_robot_rate_hz: summary.throughput_steps_per_s / robots as f64,
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
                            });
                        }
                    }
                }
            }
        }
        let rows = fleet_sweep_with_jobs(&experiment, 1);
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&legacy).unwrap(),
            "the scenario shim changed the sweep"
        );
    }

    /// Cell labels are derived once in the scenario layer; the engine's own
    /// summary labels must agree with them.
    #[test]
    fn cell_labels_agree_with_engine_summaries() {
        let cells = smoke_experiment().to_scenario().expand().expect("valid scenario");
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
        let rows = scenario_sweep_with_jobs(&cells, 1);
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
    fn empty_axis_lists_keep_producing_an_empty_legacy_sweep() {
        let mut experiment = smoke_experiment();
        experiment.variants.clear();
        assert!(fleet_sweep_with_jobs(&experiment, 1).is_empty());
        let mut experiment = smoke_experiment();
        experiment.scale.robot_counts.clear();
        assert!(fleet_sweep_with_jobs(&experiment, 1).is_empty());
    }

    #[test]
    fn measured_adaptive_lengths_are_plausible() {
        let lengths = measured_adaptive_lengths(2, 5);
        assert!(!lengths.is_empty());
        assert!(lengths.iter().all(|&l| (1..=9).contains(&l)));
    }

    #[test]
    fn robot_seeds_are_distinct_per_fleet() {
        let seeds = robot_seeds(2024, 16);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16);
    }
}
