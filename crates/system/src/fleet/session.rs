//! Robot-session state: per-robot configuration, the calibrated constants a
//! session runs on ([`RobotProfile`]) and the per-robot runtime bookkeeping
//! of the serving loop.
//!
//! The profile is the clock-agnostic core of a robot session: every latency
//! and energy constant a driver needs — control step time, upload hiding,
//! on-robot service times — is computed here once, from the same float
//! expressions, whether the session is driven by the DES engine or by a
//! wall-clock robot process of the live `corki-serve` path.  Keeping both
//! drivers on [`RobotProfile::of`], [`plan_upload_ms`] and
//! [`on_robot_inference_cost`] is what makes the DES a usable oracle for
//! live runs: the modelled quantities cannot drift apart.

use crate::devices::{baseline_control_ms, CommunicationModel, InferenceModel};
use crate::pipeline::{FrameKind, FrameTrace, StepsTakenModel};
use crate::variant::Variant;
use corki_accel::{AcceleratorModel, CpuControlModel};
use corki_telemetry::MAX_TIMELINES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use super::FleetConfig;

/// Where a robot's LLM inference runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RobotCompute {
    /// Offload inference to the shared server pool over the uplink (the
    /// paper's deployment and the PR 3 default).
    Offloaded,
    /// Run inference on the robot itself (e.g. a Jetson Orin board): no
    /// frame upload, no queueing — but the on-board device is typically an
    /// order of magnitude slower per inference.
    OnRobot(InferenceModel),
}

/// One robot of the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobotConfig {
    /// The policy/execution variant this robot runs.
    pub variant: Variant,
    /// Seed of the robot's private jitter stream.
    pub seed: u64,
    /// Where this robot's inference runs (offloaded to the pool or on an
    /// on-robot device).
    pub compute: RobotCompute,
}

/// Real-time duration of one executed control step under the paper's 30 Hz
/// camera rate, ms — the [`FleetConfig::execution_step_ms`] default and the
/// lower bound on a robot's per-frame pacing (used by scenario validation to
/// bound the run horizon from below).
pub const DEFAULT_EXECUTION_STEP_MS: f64 = 1000.0 / 30.0;

/// Executed-length distribution of [`Variant::CorkiAdaptive`] robots when
/// no measured one is supplied (mean 4.4 steps per inference).
pub const DEFAULT_ADAPTIVE_LENGTHS: &[usize] = &[5, 4, 3, 5, 6, 4, 5, 3, 5, 4];

// The paper's device constants, the same for every experiment.  The three
// device models are `CommunicationModel::default()` (Wi-Fi),
// `AcceleratorModel::default()` (ZC706) and `CpuControlModel::i7_6770hq()`.

/// Fraction of matrix updates skipped by the ACE units (paper: >51 % at the
/// 40 % threshold).
const ACE_SKIP_FRACTION: f64 = 0.51;
/// Fraction of a multi-step plan's frame upload that cannot be hidden under
/// robot execution.
const UNHIDDEN_COMM_FRACTION: f64 = 0.3;
/// Relative magnitude of the per-frame measurement jitter (the noise
/// visible in Fig. 2/14).
const JITTER: f64 = 0.04;
/// Average power of the accelerator while computing, watts.
const ACCELERATOR_POWER_W: f64 = 2.5;

/// Mixes a fleet seed with a robot index so per-robot jitter streams are
/// decorrelated (robot 0 of a fleet seeded `s` does **not** reuse `s`
/// verbatim; [`FleetConfig::single_robot`] sets its seed explicitly).
pub fn fleet_robot_seed(seed: u64, robot: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(robot.wrapping_mul(0xD129_0286_4DB6_4AA7))
}

/// Salt xored into a robot's seed for its loss-draw fault RNG, keeping the
/// stream decorrelated from the jitter stream seeded by the raw seed.
pub(crate) const FAULT_RNG_SALT: u64 = 0xFA17_C0DE_D15C_0BE5;

/// Unbatched service time and per-inference energy of running one plan on
/// an on-robot (or fallback) `model`: the baseline predicts a single
/// action, every Corki variant predicts a trajectory.
pub fn on_robot_inference_cost(model: &InferenceModel, is_baseline: bool) -> (f64, f64) {
    if is_baseline {
        (model.action_latency_ms(), model.action_energy_j())
    } else {
        (model.trajectory_latency_ms(), model.trajectory_energy_j())
    }
}

/// Undegraded duration of the frame upload opening a plan, ms: baseline
/// robots (and single-step plans) pay the full per-frame transfer, while a
/// multi-step plan hides all but 30 % of the next frame's upload under
/// robot execution.  Shared by the DES engine and the live robot clients so
/// the two paths model the same uplink cost.
pub fn plan_upload_ms(is_baseline: bool, full_steps: usize) -> f64 {
    let per_frame_ms = CommunicationModel::default().per_frame_ms;
    if is_baseline || full_steps == 1 {
        per_frame_ms
    } else {
        per_frame_ms * UNHIDDEN_COMM_FRACTION
    }
}

/// The hidden remainder of a frame upload whose foreground part took
/// `paid_ms`, ms: the share that streams under robot execution after a
/// multi-step plan's first step, still occupying the shared uplink.
pub fn hidden_upload_ms(paid_ms: f64) -> f64 {
    (CommunicationModel::default().per_frame_ms - paid_ms).max(0.0)
}

/// The calibrated, clock-agnostic constants of one robot session, computed
/// once per robot from its [`RobotConfig`] and the fleet-wide models.
///
/// Both drivers build sessions from this profile: the DES engine embeds it
/// in its per-robot `Session` state, and the live `corki-serve` robot
/// processes replay the same constants against the wall clock — so a plan's
/// modelled control/upload/service times are bit-identical across the two
/// paths.
#[derive(Debug, Clone)]
pub struct RobotProfile {
    /// Trajectory-length model of the robot's variant.
    pub steps_model: StepsTakenModel,
    /// Whether the robot runs the single-action baseline variant.
    pub is_baseline: bool,
    /// Display name of the robot's variant.
    pub variant_name: String,
    /// Duration of one control computation, ms.
    pub control_ms: f64,
    /// Energy of one control computation, joules.
    pub control_energy_j: f64,
    /// Communication energy attributed per uploaded frame, joules (zero for
    /// on-robot sessions, which never touch the radio).
    pub comm_energy_j: f64,
    /// Unbatched local service time and per-inference energy for
    /// [`RobotCompute::OnRobot`] sessions; `None` when offloaded.
    pub local: Option<(f64, f64)>,
}

impl RobotProfile {
    /// Computes the profile of `robot` under the fleet-wide models of `cfg`.
    pub fn of(robot: &RobotConfig, cfg: &FleetConfig) -> Self {
        let variant = &robot.variant;
        let is_baseline = *variant == Variant::RoboFlamingo;
        let steps_model = match variant {
            Variant::RoboFlamingo => StepsTakenModel::Fixed(1),
            Variant::CorkiFixed(n) => StepsTakenModel::Fixed(*n),
            Variant::CorkiAdaptive => StepsTakenModel::Distribution(cfg.adaptive_lengths.clone()),
            Variant::CorkiSoftware => StepsTakenModel::Fixed(5),
        };
        let cpu = CpuControlModel::i7_6770hq();
        let control_ms = match variant {
            Variant::RoboFlamingo => baseline_control_ms(),
            Variant::CorkiSoftware => cpu.control_latency_ms * (1.0 - ACE_SKIP_FRACTION * 0.42),
            _ => {
                AcceleratorModel::default().control_latency_with_skips(ACE_SKIP_FRACTION).latency_ms
            }
        };
        let control_power_w = match variant {
            Variant::RoboFlamingo | Variant::CorkiSoftware => cpu.power_w,
            _ => ACCELERATOR_POWER_W,
        };
        // On-robot sessions never use the radio: no upload, no per-frame
        // communication energy.
        let (local, comm_energy_j) = match &robot.compute {
            RobotCompute::Offloaded => (None, CommunicationModel::default().energy_per_frame_j()),
            RobotCompute::OnRobot(model) => {
                (Some(on_robot_inference_cost(model, is_baseline)), 0.0)
            }
        };
        RobotProfile {
            steps_model,
            is_baseline,
            variant_name: variant.name(),
            control_ms,
            control_energy_j: control_ms / 1000.0 * control_power_w,
            comm_energy_j,
            local,
        }
    }
}

/// Per-robot runtime state.
pub(crate) struct Session {
    /// The robot's calibrated constants.
    pub(crate) profile: RobotProfile,
    pub(crate) rng: StdRng,
    // Progress.
    pub(crate) frame_index: usize,
    pub(crate) inference_count: usize,
    pub(crate) plan_steps: usize,
    pub(crate) step_in_plan: usize,
    // Bookkeeping for the in-flight plan.
    pub(crate) capture_ms: f64,
    pub(crate) link_wait_ms: f64,
    pub(crate) upload_ms: f64,
    /// Undegraded duration of this plan's frame upload (the quantity a
    /// retry re-sends; `upload_ms` accumulates what was actually paid).
    pub(crate) base_upload_ms: f64,
    pub(crate) queue_wait_ms: f64,
    pub(crate) batch_service_ms: f64,
    pub(crate) inference_energy_j: f64,
    // Fault state.
    /// Monotone attempt counter; each capture (and each retry) claims a
    /// fresh id so stale deliveries and timeouts can be recognised.
    pub(crate) attempt: u64,
    /// The attempt currently awaiting a plan (None once answered, dropped
    /// or handed to the fallback model).
    pub(crate) active_attempt: Option<u64>,
    pub(crate) retries_this_plan: usize,
    /// When the robot leaves the fleet (from the churn plan).
    pub(crate) leave_at_ms: Option<f64>,
    /// Dedicated loss-draw RNG (only built when a fault plan exists), kept
    /// apart from the jitter stream so fault-free traces never move.
    pub(crate) fault_rng: Option<StdRng>,
    /// Service time and energy of a fallback inference in flight.
    pub(crate) fallback_pending: Option<(f64, f64)>,
    // Outputs.
    /// Per-frame trace rows; only robots below [`MAX_TIMELINES`] keep them.
    pub(crate) traces: Vec<FrameTrace>,
    pub(crate) plan_latency_sum_ms: f64,
    pub(crate) finished_ms: f64,
}

impl Session {
    pub(crate) fn new(index: usize, robot: &RobotConfig, cfg: &FleetConfig) -> Self {
        Session {
            profile: RobotProfile::of(robot, cfg),
            rng: StdRng::seed_from_u64(robot.seed),
            frame_index: 0,
            inference_count: 0,
            plan_steps: 0,
            step_in_plan: 0,
            capture_ms: 0.0,
            link_wait_ms: 0.0,
            upload_ms: 0.0,
            base_upload_ms: 0.0,
            queue_wait_ms: 0.0,
            batch_service_ms: 0.0,
            inference_energy_j: 0.0,
            attempt: 0,
            active_attempt: None,
            retries_this_plan: 0,
            leave_at_ms: cfg
                .faults
                .as_ref()
                .and_then(|f| f.churn_of(index))
                .and_then(|c| c.leave_at_ms),
            fault_rng: cfg
                .faults
                .as_ref()
                .map(|_| StdRng::seed_from_u64(robot.seed ^ FAULT_RNG_SALT)),
            fallback_pending: None,
            traces: Vec::with_capacity(if keeps_traces(index) { cfg.frames_per_robot } else { 0 }),
            plan_latency_sum_ms: 0.0,
            finished_ms: 0.0,
        }
    }

    /// Decorates one observed frame of robot `robot` and returns its
    /// latency: one jitter draw from the session's private stream scales
    /// latency and energy alike.  Every robot draws, so each jitter stream
    /// is the same whether or not its robot keeps a trace row.
    pub(crate) fn record_frame(
        &mut self,
        robot: usize,
        kind: FrameKind,
        latency_ms: f64,
        energy_j: f64,
    ) -> f64 {
        let scale = 1.0 + self.rng.gen_range(-JITTER..=JITTER);
        let latency_ms = latency_ms * scale;
        if keeps_traces(robot) {
            self.traces.push(FrameTrace {
                index: self.frame_index,
                kind,
                latency_ms,
                energy_j: energy_j * scale,
            });
        }
        latency_ms
    }
}

/// Whether robot `robot` keeps per-frame trace rows: the robots that keep
/// a telemetry timeline, so both per-robot records cover the same robots.
fn keeps_traces(robot: usize) -> bool {
    robot < MAX_TIMELINES
}
