//! Regression tests pinning the discrete-event N=1 pipeline to the legacy
//! hand-rolled frame loop, and the determinism guarantees of the fleet
//! engine.
//!
//! `legacy_simulate` below is a line-for-line port of the pre-refactor
//! single-robot simulation loop (the specification the DES engine must
//! reproduce *exactly*, float-for-float, including the jitter RNG stream).

use corki_accel::{AcceleratorModel, CpuControlModel};
use corki_system::{
    fleet::{fleet_robot_seed, FleetConfig, FleetSimulator, SchedulerKind},
    simulate_pipeline, CommunicationModel, DataRepresentation, FrameKind, FrameTrace,
    InferenceDevice, InferenceModel, StepsTakenModel, Variant,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The legacy single-robot configuration the reference loop reads, with
/// the paper's literal device values.
struct PipelineConfig {
    variant: Variant,
    inference: InferenceModel,
    communication: CommunicationModel,
    accelerator: AcceleratorModel,
    cpu: CpuControlModel,
    ace_skip_fraction: f64,
    adaptive_lengths: Vec<usize>,
    unhidden_comm_fraction: f64,
    num_frames: usize,
    seed: u64,
    jitter: f64,
    accelerator_power_w: f64,
}

impl PipelineConfig {
    fn paper_defaults(variant: Variant) -> Self {
        PipelineConfig {
            variant,
            inference: InferenceModel::default(),
            communication: CommunicationModel::default(),
            accelerator: AcceleratorModel::default(),
            cpu: CpuControlModel::i7_6770hq(),
            ace_skip_fraction: 0.51,
            adaptive_lengths: vec![5, 4, 3, 5, 6, 4, 5, 3, 5, 4],
            unhidden_comm_fraction: 0.3,
            num_frames: 300,
            seed: 7,
            jitter: 0.04,
            accelerator_power_w: 2.5,
        }
    }

    /// The same run as a one-robot fleet configuration.
    fn fleet(&self) -> FleetConfig {
        let mut fleet = FleetConfig::single_robot(self.variant.clone());
        fleet.robots[0].seed = self.seed;
        fleet.servers[0].inference = self.inference;
        fleet.adaptive_lengths = self.adaptive_lengths.clone();
        fleet.frames_per_robot = self.num_frames;
        fleet
    }
}

/// The original per-frame simulation loop, kept verbatim as the reference
/// semantics for the N=1 special case of the fleet engine.
fn legacy_simulate(cfg: &PipelineConfig) -> (Vec<FrameTrace>, usize) {
    fn baseline_control_ms() -> f64 {
        corki_system::BASELINE_FRAME_MS * 0.099
    }
    let jittered = |index: usize,
                    kind: FrameKind,
                    latency: f64,
                    energy: f64,
                    rng: &mut StdRng|
     -> FrameTrace {
        let j = cfg.jitter;
        let scale = 1.0 + rng.gen_range(-j..=j);
        FrameTrace { index, kind, latency_ms: latency * scale, energy_j: energy * scale }
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut traces = Vec::with_capacity(cfg.num_frames);
    let mut inference_count = 0usize;

    match &cfg.variant {
        Variant::RoboFlamingo => {
            for index in 0..cfg.num_frames {
                let latency = cfg.inference.action_latency_ms()
                    + baseline_control_ms()
                    + cfg.communication.per_frame_ms;
                let energy = cfg.inference.action_energy_j()
                    + baseline_control_ms() / 1000.0 * cfg.cpu.power_w
                    + cfg.communication.energy_per_frame_j();
                inference_count += 1;
                traces.push(jittered(index, FrameKind::Inference, latency, energy, &mut rng));
            }
        }
        variant => {
            let steps_model = match variant {
                Variant::CorkiFixed(n) => StepsTakenModel::Fixed(*n),
                Variant::CorkiAdaptive => {
                    StepsTakenModel::Distribution(cfg.adaptive_lengths.clone())
                }
                Variant::CorkiSoftware => StepsTakenModel::Fixed(5),
                Variant::RoboFlamingo => unreachable!("handled above"),
            };
            let control_latency_ms = match cfg.variant {
                Variant::CorkiSoftware => {
                    cfg.cpu.control_latency_ms * (1.0 - cfg.ace_skip_fraction * 0.42)
                }
                _ => cfg.accelerator.control_latency_with_skips(cfg.ace_skip_fraction).latency_ms,
            };
            let power = match cfg.variant {
                Variant::CorkiSoftware => cfg.cpu.power_w,
                _ => cfg.accelerator_power_w,
            };
            let control_energy_j = control_latency_ms / 1000.0 * power;

            let mut index = 0usize;
            while index < cfg.num_frames {
                let steps = steps_model.steps_for(inference_count);
                inference_count += 1;
                for step in 0..steps {
                    if index >= cfg.num_frames {
                        break;
                    }
                    let (kind, mut latency, mut energy) = if step == 0 {
                        let unhidden = if steps == 1 {
                            cfg.communication.per_frame_ms
                        } else {
                            cfg.communication.per_frame_ms * cfg.unhidden_comm_fraction
                        };
                        (
                            FrameKind::Inference,
                            unhidden + cfg.inference.trajectory_latency_ms() + control_latency_ms,
                            cfg.inference.trajectory_energy_j()
                                + cfg.communication.energy_per_frame_j()
                                + control_energy_j,
                        )
                    } else {
                        let hidden_comm_energy =
                            if step == 1 { cfg.communication.energy_per_frame_j() } else { 0.0 };
                        (
                            FrameKind::Execution,
                            control_latency_ms,
                            control_energy_j + hidden_comm_energy,
                        )
                    };
                    latency = latency.max(0.0);
                    energy = energy.max(0.0);
                    traces.push(jittered(index, kind, latency, energy, &mut rng));
                    index += 1;
                }
            }
        }
    }
    (traces, inference_count)
}

fn assert_traces_identical(cfg: &PipelineConfig) {
    let (expected_traces, expected_inferences) = legacy_simulate(cfg);
    let summary = simulate_pipeline(&cfg.fleet());
    assert_eq!(summary.inference_count, expected_inferences, "{}", cfg.variant);
    // Byte-identical: compare the serialized traces, which captures every
    // f64 bit pattern via the shortest-round-trip float formatting.
    assert_eq!(
        serde_json::to_string(&summary.frame_traces).unwrap(),
        serde_json::to_string(&expected_traces).unwrap(),
        "{}: the DES N=1 pipeline must reproduce the legacy traces exactly",
        cfg.variant
    );
}

#[test]
fn n1_des_pipeline_reproduces_legacy_traces_for_the_paper_lineup() {
    for variant in Variant::paper_lineup() {
        assert_traces_identical(&PipelineConfig::paper_defaults(variant));
    }
}

#[test]
fn n1_des_pipeline_reproduces_legacy_traces_across_devices_and_precisions() {
    for device in InferenceDevice::ALL {
        for representation in DataRepresentation::ALL {
            let mut cfg = PipelineConfig::paper_defaults(Variant::CorkiAdaptive);
            cfg.inference = InferenceModel::new(device, representation);
            cfg.num_frames = 120;
            assert_traces_identical(&cfg);
            cfg.variant = Variant::RoboFlamingo;
            assert_traces_identical(&cfg);
        }
    }
}

#[test]
fn n1_des_pipeline_reproduces_legacy_traces_for_odd_configurations() {
    // Truncated final plan, steps==1 distribution entries, custom seeds.
    let mut cfg = PipelineConfig::paper_defaults(Variant::CorkiAdaptive);
    cfg.adaptive_lengths = vec![1, 9, 2, 1, 7];
    cfg.num_frames = 47;
    cfg.seed = 99;
    assert_traces_identical(&cfg);

    let mut cfg = PipelineConfig::paper_defaults(Variant::CorkiFixed(7));
    cfg.num_frames = 10; // ends mid-trajectory
    cfg.seed = 1234;
    assert_traces_identical(&cfg);

    let mut cfg = PipelineConfig::paper_defaults(Variant::CorkiSoftware);
    cfg.num_frames = 33;
    assert_traces_identical(&cfg);
}

#[test]
fn fleet_event_log_is_byte_identical_across_runs() {
    let mut cfg = FleetConfig::paper_defaults(Variant::CorkiAdaptive, 6, 2024);
    cfg.frames_per_robot = 90;
    cfg.set_scheduler(SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 20.0 });
    let runs: Vec<String> = (0..3)
        .map(|_| serde_json::to_string(&FleetSimulator::new(cfg.clone()).run()).unwrap())
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn fleet_seeds_change_the_jitter_but_not_the_event_structure() {
    let outcome = |seed: u64| {
        let mut cfg = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 3, seed);
        cfg.frames_per_robot = 30;
        // Keep the robot composition fixed; only jitter seeds change.
        for (r, robot) in cfg.robots.iter_mut().enumerate() {
            robot.seed = fleet_robot_seed(seed, r as u64);
        }
        FleetSimulator::new(cfg).run()
    };
    let a = outcome(1);
    let b = outcome(2);
    // Jitter is observational: the event timeline (unjittered, and
    // recorded stage by stage in the telemetry) is identical, the traced
    // latencies differ.
    assert_eq!(
        serde_json::to_string(&a.telemetry).unwrap(),
        serde_json::to_string(&b.telemetry).unwrap()
    );
    assert_ne!(
        serde_json::to_string(&a.robots[0].frame_traces).unwrap(),
        serde_json::to_string(&b.robots[0].frame_traces).unwrap()
    );
}
