//! One entry point per table and figure of the paper's evaluation section.
//!
//! Every function returns plain data structures; the `experiments` binary in
//! `corki-bench` formats them as the rows/series the paper reports, and
//! `EXPERIMENTS.md` records paper-vs-measured values.

use crate::variants::VariantSetup;
use corki_accel::ace::{
    mass_matrix_sensitivity, representative_joint_trace, sweep_thresholds, AceConfig, AceState,
    JointImpactFactors, MassMatrixSensitivity, ThresholdSweepPoint,
};
use corki_accel::{AcceleratorConfig, AcceleratorModel, CpuControlModel, OpCounts, ResourceReport};
use corki_robot::panda::{panda_model, PANDA_HOME};
use corki_sim::evaluation::{
    evaluate_parallel, run_job, session_seed, EpisodeTraces, EvalConfig, EvaluationSummary,
};
use corki_system::{
    simulate_pipeline, DataRepresentation, FleetConfig, InferenceDevice, InferenceModel,
    PipelineSummary, Variant,
};
use serde::Serialize;

/// Controls the scale (and therefore runtime) of the simulation-backed
/// experiments.  The paper evaluates 1 000 jobs; the default here is smaller
/// so that the whole suite completes in seconds — pass `--full` to the
/// `experiments` binary for a paper-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExperimentScale {
    /// Number of long-horizon jobs per variant and split.
    pub jobs: usize,
    /// Number of camera frames simulated per pipeline variant.
    pub frames: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { jobs: 60, frames: 300, seed: 2024 }
    }
}

impl ExperimentScale {
    /// The paper-scale configuration (1 000 jobs).
    pub fn full() -> Self {
        ExperimentScale { jobs: 1000, frames: 300, seed: 2024 }
    }

    /// A minimal configuration for CI and integration tests.
    pub fn smoke() -> Self {
        ExperimentScale { jobs: 8, frames: 120, seed: 2024 }
    }
}

/// Tables 1 and 2: success rate per chain position and average job length for
/// every variant, on the seen or unseen split. Runs the eight variants (and
/// their jobs) across all available cores; see [`accuracy_table_with`].
pub fn accuracy_table(unseen: bool, scale: &ExperimentScale) -> Vec<EvaluationSummary> {
    accuracy_table_with(unseen, scale, true)
}

/// [`accuracy_table`] with explicit control over parallelism.
///
/// With `parallel = true` the eight variants of the paper lineup run on one
/// scoped thread each, and every variant fans its jobs out over the
/// remaining cores. Policies are seeded deterministically per job, so the
/// result is **byte-identical** between the parallel and sequential runs —
/// the sweep is reproducible regardless of core count.
pub fn accuracy_table_with(
    unseen: bool,
    scale: &ExperimentScale,
    parallel: bool,
) -> Vec<EvaluationSummary> {
    let setups = VariantSetup::paper_lineup();
    let job_threads = if parallel {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.div_ceil(setups.len()).max(1)
    } else {
        1
    };
    let run_one = |setup: &VariantSetup| {
        // Per-job session seeds (see `corki_sim::evaluation::session_seed`)
        // keep the policy noise stream decorrelated from the
        // scene-randomisation stream and independent of the thread count.
        let make = |job: usize| setup.build_policy(session_seed(scale.seed, job as u64));
        let env = setup.build_environment(scale.seed);
        let config = EvalConfig { num_jobs: scale.jobs, unseen, seed: scale.seed };
        let mut summary = evaluate_parallel(&env, &make, &config, job_threads);
        summary.variant = setup.variant.name();
        summary
    };
    if parallel {
        let mut rows: Vec<Option<EvaluationSummary>> = setups.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let run_one = &run_one;
            for (slot, setup) in rows.iter_mut().zip(&setups) {
                scope.spawn(move || *slot = Some(run_one(setup)));
            }
        });
        rows.into_iter().map(|row| row.expect("every variant ran")).collect()
    } else {
        setups.iter().map(run_one).collect()
    }
}

/// Figure 11: the trajectory-error statistics are part of the
/// [`EvaluationSummary`] returned by [`accuracy_table`]; this helper extracts
/// the `(variant, rmse, max_distance_xyz)` series.
pub fn trajectory_error_series(summaries: &[EvaluationSummary]) -> Vec<(String, f64, [f64; 3])> {
    summaries
        .iter()
        .map(|s| {
            (
                s.variant.clone(),
                s.trajectory_error.rmse,
                [
                    s.trajectory_error.max_distance.x,
                    s.trajectory_error.max_distance.y,
                    s.trajectory_error.max_distance.z,
                ],
            )
        })
        .collect()
}

/// Figure 12: X/Y/Z traces of one randomly picked test sequence for the
/// baseline and Corki-5.
pub fn fig12_traces(scale: &ExperimentScale) -> Vec<(String, EpisodeTraces)> {
    [Variant::RoboFlamingo, Variant::CorkiFixed(5)]
        .into_iter()
        .map(|variant| {
            let setup = VariantSetup::new(variant.clone());
            let mut policy = setup.build_policy(scale.seed);
            let env = setup.build_environment(scale.seed);
            let config = EvalConfig { num_jobs: 1, unseen: false, seed: scale.seed + 3 };
            let job = run_job(&env, policy.as_mut(), &config, 0);
            let episode = job.episodes.first().expect("job has at least one episode");
            (variant.name(), EpisodeTraces::from_outcome(episode))
        })
        .collect()
}

/// Figure 2: the per-frame latency and energy breakdown of the baseline
/// pipeline `(stage, latency_ms, energy_j)`.
pub fn fig2_breakdown() -> Vec<(String, f64, f64)> {
    let inference = InferenceModel::default();
    let comm = corki_system::CommunicationModel::default();
    let cpu = CpuControlModel::i7_6770hq();
    let control_ms = corki_system::BASELINE_FRAME_MS * 0.099;
    vec![
        ("LLM inference".to_owned(), inference.action_latency_ms(), inference.action_energy_j()),
        ("Robot control".to_owned(), control_ms, control_ms / 1000.0 * cpu.power_w),
        ("Data communication".to_owned(), comm.per_frame_ms, comm.energy_per_frame_j()),
    ]
}

/// Figures 13/14: pipeline simulation of every variant, returning the
/// per-variant summary (which includes the per-frame traces).
pub fn pipeline_comparison(scale: &ExperimentScale) -> Vec<PipelineSummary> {
    Variant::paper_lineup()
        .into_iter()
        .map(|variant| {
            let mut config = FleetConfig::single_robot(variant);
            config.frames_per_robot = scale.frames;
            simulate_pipeline(&config)
        })
        .collect()
}

/// Speed-up of Corki-ADAP over the RoboFlamingo baseline when both run
/// `scale.frames` frames on the same `inference` device (Tables 3 and 4).
fn adaptive_speedup(inference: InferenceModel, scale: &ExperimentScale) -> f64 {
    let mut config = FleetConfig::single_robot(Variant::CorkiAdaptive);
    config.servers[0].inference = inference;
    config.frames_per_robot = scale.frames;
    let corki = simulate_pipeline(&config);
    config.robots[0].variant = Variant::RoboFlamingo;
    corki.speedup_over(&simulate_pipeline(&config))
}

/// Table 3: end-to-end speed-up of Corki-ADAP under different inference
/// devices. Returns `(device, normalized inference latency, speedup)`.
pub fn device_table(scale: &ExperimentScale) -> Vec<(String, f64, f64)> {
    InferenceDevice::ALL
        .iter()
        .map(|device| {
            let inference = InferenceModel::new(*device, DataRepresentation::Float32);
            (
                device.name().to_owned(),
                device.normalized_latency(),
                adaptive_speedup(inference, scale),
            )
        })
        .collect()
}

/// Table 4: end-to-end speed-up of Corki-ADAP under different data
/// representations. Returns `(representation, normalized latency, speedup)`.
pub fn precision_table(scale: &ExperimentScale) -> Vec<(String, f64, f64)> {
    DataRepresentation::ALL
        .iter()
        .map(|representation| {
            let inference = InferenceModel::new(InferenceDevice::V100, *representation);
            (
                representation.name().to_owned(),
                representation.latency_scale(),
                adaptive_speedup(inference, scale),
            )
        })
        .collect()
}

/// Section 6.1: FPGA resource consumption of the accelerator.
pub fn resource_report() -> ResourceReport {
    ResourceReport::corki_on_zc706()
}

/// Figure 9: mass-matrix sensitivity to individual joint motions of 6°, 17°
/// and 29°.
pub fn fig9_sensitivity() -> Vec<MassMatrixSensitivity> {
    let robot = panda_model();
    mass_matrix_sensitivity(&robot, &PANDA_HOME, &[0.1, 0.3, 0.5])
}

/// Section 4.2 ablation: latency of the unoptimised, reuse-only and fully
/// optimised accelerator design points. Returns `(name, latency_ms)`.
pub fn accelerator_ablation() -> Vec<(String, f64)> {
    let ops = OpCounts::default();
    vec![
        (
            "no reuse, no pipelining".to_owned(),
            AcceleratorModel::new(AcceleratorConfig::unoptimized(), ops)
                .control_latency()
                .latency_ms,
        ),
        (
            "data reuse".to_owned(),
            AcceleratorModel::new(AcceleratorConfig::reuse_only(), ops)
                .control_latency()
                .latency_ms,
        ),
        (
            "data reuse + pipelining".to_owned(),
            AcceleratorModel::new(AcceleratorConfig::default(), ops).control_latency().latency_ms,
        ),
    ]
}

/// Section 4.3 / Figure 15: the ACE skip statistics at the design threshold
/// and the full threshold sweep.
pub fn approximation_study() -> (f64, Vec<ThresholdSweepPoint>) {
    let trace = representative_joint_trace(300);
    let mut ace = AceState::new(AceConfig::default());
    let stats = ace.run_trace(&trace);
    let model = AcceleratorModel::default();
    let thresholds: Vec<f64> = (0..=8).map(|i| i as f64 * 0.1).collect();
    let sweep =
        sweep_thresholds(&model, &JointImpactFactors::panda_defaults(), &trace, &thresholds);
    (stats.skip_fraction(), sweep)
}

/// Section 2.2 bottleneck analysis: the control-only loop rate on the robot
/// CPU and the accelerator, plus the share of the loop spent on control.
/// Returns `(cpu_loop_hz, cpu_control_share, accelerator_control_hz)`.
pub fn bottleneck_analysis() -> (f64, f64, f64) {
    let cpu = CpuControlModel::i7_6770hq();
    let accel = AcceleratorModel::default();
    let loop_ms = cpu.control_latency_ms + CpuControlModel::loop_communication_ms();
    (
        cpu.control_loop_frequency_hz(),
        cpu.control_latency_ms / loop_ms,
        accel.control_frequency_hz(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_accuracy_table_has_all_variants() {
        let scale = ExperimentScale::smoke();
        let table = accuracy_table(false, &scale);
        assert_eq!(table.len(), 8);
        assert_eq!(table[0].variant, "RoboFlamingo");
        for row in &table {
            for k in 1..5 {
                assert!(row.success_rates[k] <= row.success_rates[k - 1] + 1e-12);
            }
        }
        let errors = trajectory_error_series(&table);
        assert_eq!(errors.len(), 8);
    }

    #[test]
    fn parallel_variant_sweep_is_byte_identical_to_sequential() {
        let scale = ExperimentScale { jobs: 6, frames: 120, seed: 2024 };
        let parallel = accuracy_table_with(false, &scale, true);
        let sequential = accuracy_table_with(false, &scale, false);
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "the parallel sweep must reproduce the sequential one exactly"
        );
    }

    #[test]
    fn fig2_breakdown_sums_to_the_measured_frame_latency() {
        let rows = fig2_breakdown();
        let total: f64 = rows.iter().map(|(_, ms, _)| ms).sum();
        assert!((total - corki_system::BASELINE_FRAME_MS).abs() < 1e-6);
        let energy: f64 = rows.iter().map(|(_, _, j)| j).sum();
        assert!(energy > 20.0 && energy < 30.0);
    }

    #[test]
    fn pipeline_comparison_covers_the_lineup() {
        let scale = ExperimentScale::smoke();
        let rows = pipeline_comparison(&scale);
        assert_eq!(rows.len(), 8);
        let baseline = &rows[0];
        let corki9 = rows.iter().find(|r| r.variant == "Corki-9").unwrap();
        assert!(corki9.speedup_over(baseline) > 5.0);
    }

    #[test]
    fn device_and_precision_tables_have_expected_shapes() {
        let scale = ExperimentScale::smoke();
        let devices = device_table(&scale);
        assert_eq!(devices.len(), 4);
        let precisions = precision_table(&scale);
        assert_eq!(precisions.len(), 3);
        for (_, _, speedup) in devices.iter().chain(precisions.iter()) {
            assert!(*speedup > 3.0, "speed-up {speedup} suspiciously low");
        }
    }

    #[test]
    fn standalone_studies_run() {
        let report = resource_report();
        assert!(report.utilization_percent().0 > 10.0);
        assert_eq!(fig9_sensitivity().len(), 21);
        let ablation = accelerator_ablation();
        assert_eq!(ablation.len(), 3);
        assert!(ablation[0].1 > ablation[2].1);
        let (skip, sweep) = approximation_study();
        assert!(skip > 0.5);
        assert_eq!(sweep.len(), 9);
        let (cpu_hz, control_share, accel_hz) = bottleneck_analysis();
        assert!((cpu_hz - 22.1).abs() < 0.2);
        assert!((control_share - 0.397).abs() < 0.01);
        assert!(accel_hz > 100.0);
    }

    #[test]
    fn fig12_traces_cover_baseline_and_corki5() {
        let traces = fig12_traces(&ExperimentScale::smoke());
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|(_, t)| !t.ground_truth.is_empty()));
    }
}
