//! The episode rollout engine: closes the loop policy → plan → execution →
//! scene update → success check, under either execution model of the paper
//! (frame-by-frame baseline or Corki trajectories with early termination /
//! adaptive length).

use crate::expert::ExpertPlanner;
use crate::scene::Scene;
use crate::tasks::TaskInstance;
use corki_policy::{ManipulationPolicy, Observation, PlanRequest, PolicyPlan, TaskDescriptor};
use corki_robot::{
    panda, ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference,
    TaskSpaceController, MAX_BODIES,
};
use corki_trajectory::waypoints::{adaptive_length_for_trajectory, AdaptiveLengthConfig};
use corki_trajectory::{EePose, GripperState, Trajectory, CONTROL_STEP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How many steps of a predicted trajectory the robot executes before the
/// next inference (the paper's Corki-T / Corki-ADAP variants).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StepsPolicy {
    /// Execute the whole predicted trajectory.
    All,
    /// Execute exactly `n` steps (early termination after `n`).
    Fixed(usize),
    /// Let Algorithm 1 decide (Corki-ADAP).
    Adaptive(AdaptiveLengthConfig),
}

/// Which execution backend tracks the reference trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionBackend {
    /// Fast kinematic tracking with a configurable tracking-error model; used
    /// for the large evaluation sweeps.
    Kinematic,
    /// Full TS-CTC control of the rigid-body Panda model from `corki-robot`
    /// (positions only; orientation is held). Slower, used by examples and
    /// integration tests.
    Dynamic,
}

/// Configuration of an episode rollout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvironmentConfig {
    /// Maximum number of control steps per task episode before it is declared
    /// a failure.
    pub max_steps: usize,
    /// How many steps of each predicted trajectory are executed.
    pub steps_policy: StepsPolicy,
    /// Whether mid-trajectory frames are sent back as close-loop features
    /// (paper §3.4).
    pub close_loop_feedback: bool,
    /// Standard deviation (metres) of the execution tracking error of the
    /// kinematic backend. A higher control rate yields a lower value; the
    /// accelerator-backed configuration uses [`EnvironmentConfig::ACCELERATOR_TRACKING_ERROR`].
    pub tracking_error: f64,
    /// Execution backend.
    pub backend: ExecutionBackend,
    /// RNG seed for execution noise and close-loop sampling times.
    pub seed: u64,
}

impl EnvironmentConfig {
    /// Tracking error when control runs at 100 Hz on the Corki accelerator.
    pub const ACCELERATOR_TRACKING_ERROR: f64 = 0.0015;
    /// Tracking error when control runs at ~20 Hz on the robot's CPU
    /// (Corki-SW / the baseline), cf. §2.2: the CPU only reaches 22.1 Hz.
    pub const CPU_TRACKING_ERROR: f64 = 0.0040;
}

impl Default for EnvironmentConfig {
    fn default() -> Self {
        EnvironmentConfig {
            max_steps: 120,
            steps_policy: StepsPolicy::All,
            close_loop_feedback: true,
            tracking_error: Self::ACCELERATOR_TRACKING_ERROR,
            backend: ExecutionBackend::Kinematic,
            seed: 0,
        }
    }
}

/// The outcome of a single task episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeOutcome {
    /// Whether the task's success predicate was satisfied within the step
    /// budget.
    pub success: bool,
    /// Number of control steps executed.
    pub steps: usize,
    /// Number of policy (LLM) inferences performed.
    pub inferences: usize,
    /// Number of control steps executed after each inference.
    pub executed_lengths: Vec<usize>,
    /// The reference pose commanded at every control step.
    pub reference_poses: Vec<EePose>,
    /// The pose actually reached at every control step.
    pub achieved_poses: Vec<EePose>,
    /// The expert's pose at every control step (ground truth for the
    /// trajectory-error metrics of Fig. 11/12).
    pub expert_poses: Vec<EePose>,
}

impl EpisodeOutcome {
    /// Average number of control steps executed per inference.
    pub fn mean_steps_per_inference(&self) -> f64 {
        if self.inferences == 0 {
            0.0
        } else {
            self.steps as f64 / self.inferences as f64
        }
    }
}

/// The rollout engine.
#[derive(Debug, Clone)]
pub struct Environment {
    config: EnvironmentConfig,
    expert: ExpertPlanner,
}

/// The nominal starting pose of the end-effector above the table.
pub(crate) fn home_pose() -> EePose {
    EePose::new(corki_math::Vec3::new(0.35, 0.0, 0.3), corki_math::Vec3::ZERO, GripperState::Open)
}

impl Environment {
    /// Creates a rollout engine.
    pub fn new(config: EnvironmentConfig) -> Self {
        Environment { config, expert: ExpertPlanner::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnvironmentConfig {
        &self.config
    }

    /// Builds the policy observation for the current scene state.
    pub fn observation(
        scene: &Scene,
        task: &TaskInstance,
        end_effector: &EePose,
        unseen: bool,
    ) -> Observation {
        let object = task.target_object();
        Observation {
            end_effector: *end_effector,
            object_position: scene.object_position(object),
            object_yaw: match object {
                crate::scene::SceneObject::Block(c) => scene.block(c).yaw,
                _ => 0.0,
            },
            goal_position: task.goal_position(scene),
            articulation_state: scene.articulation_state(object),
            object_grasped: scene.grasped_block.is_some(),
            task: TaskDescriptor { task_id: task.id, category_id: task.category.index(), unseen },
        }
    }

    /// Runs one task episode with the given policy, mutating the scene.
    pub fn run_episode(
        &self,
        scene: &mut Scene,
        task: &TaskInstance,
        policy: &mut dyn ManipulationPolicy,
        unseen: bool,
    ) -> EpisodeOutcome {
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ (task.id as u64).wrapping_mul(0x9e37_79b9));
        let initial_scene = scene.clone();
        let mut outcome = EpisodeOutcome {
            success: false,
            steps: 0,
            inferences: 0,
            executed_lengths: Vec::new(),
            reference_poses: Vec::new(),
            achieved_poses: Vec::new(),
            expert_poses: Vec::new(),
        };
        policy.reset();

        let mut dynamic_backend = match self.config.backend {
            ExecutionBackend::Dynamic => Some(DynamicBackend::new()),
            ExecutionBackend::Kinematic => None,
        };
        let mut current = match &dynamic_backend {
            Some(backend) => backend.end_effector(),
            None => home_pose(),
        };
        let mut steps_since_last_plan = 1usize;
        let mut close_loop_observations: Vec<Observation> = Vec::new();

        // The expert plan is computed once from the episode start and consumed
        // step by step; it is re-planned from the current situation only when
        // exhausted (e.g. after a missed grasp), which gives the oracle
        // policies the same "retry" ability a learned policy has.
        let mut expert_plan = self.expert.plan(scene, task, &current);
        let mut expert_cursor = 0usize;

        while outcome.steps < self.config.max_steps {
            if expert_cursor >= expert_plan.len() {
                expert_plan = self.expert.plan(scene, task, &current);
                expert_cursor = 0;
            }
            let expert_future: Vec<EePose> = expert_plan[expert_cursor..].to_vec();
            let observation = Self::observation(scene, task, &current, unseen);
            let request = PlanRequest {
                observation,
                expert_future: expert_future.clone(),
                close_loop_observations: std::mem::take(&mut close_loop_observations),
                steps_since_last_plan,
            };
            let plan = policy.plan(&request);
            outcome.inferences += 1;

            // Decide how many steps of the plan to execute.
            let (references, executed) = match &plan {
                PolicyPlan::SingleStep(action) => (vec![current.apply_delta(action)], 1usize),
                PolicyPlan::Trajectory(trajectory) => {
                    let steps = self.executed_steps(trajectory);
                    let refs =
                        (1..=steps).map(|i| trajectory.sample(i as f64 * CONTROL_STEP)).collect();
                    (refs, steps)
                }
            };
            steps_since_last_plan = executed;

            // Pick a random mid-trajectory step whose frame is sent back as a
            // close-loop feature (paper §4.4: "at random time steps before the
            // trajectory ends, images will be sent back").
            let feedback_step = if self.config.close_loop_feedback && executed > 1 {
                Some(rng.gen_range(0..executed - 1))
            } else {
                None
            };

            let mut actually_executed = 0usize;
            for (i, reference) in references.iter().enumerate() {
                let achieved = match (&mut dynamic_backend, &plan) {
                    (Some(backend), PolicyPlan::Trajectory(trajectory)) => {
                        backend.track_trajectory_step(trajectory, i, reference.gripper)
                    }
                    (Some(backend), PolicyPlan::SingleStep(_)) => backend.track_pose(reference),
                    (None, _) => self.kinematic_track(reference, &mut rng),
                };
                let expert_pose = expert_future
                    .get(i)
                    .copied()
                    .unwrap_or(*expert_future.last().unwrap_or(&current));
                scene.step(&achieved, &current);
                current = achieved;
                outcome.reference_poses.push(*reference);
                outcome.achieved_poses.push(achieved);
                outcome.expert_poses.push(expert_pose);
                outcome.steps += 1;
                actually_executed += 1;

                if Some(i) == feedback_step {
                    close_loop_observations.push(Self::observation(scene, task, &current, unseen));
                }
                if task.is_success(scene, &initial_scene) {
                    outcome.success = true;
                    outcome.executed_lengths.push(actually_executed);
                    return outcome;
                }
                if outcome.steps >= self.config.max_steps {
                    break;
                }
            }
            outcome.executed_lengths.push(actually_executed);
            expert_cursor += actually_executed;
        }
        outcome
    }

    /// Number of steps of a predicted trajectory to execute under the
    /// configured policy.
    fn executed_steps(&self, trajectory: &Trajectory) -> usize {
        match &self.config.steps_policy {
            StepsPolicy::All => trajectory.num_steps(),
            StepsPolicy::Fixed(n) => (*n).clamp(1, trajectory.num_steps()),
            StepsPolicy::Adaptive(cfg) => {
                adaptive_length_for_trajectory(trajectory, cfg).steps.min(trajectory.num_steps())
            }
        }
    }

    /// The kinematic execution model: the robot reaches the reference pose up
    /// to a Gaussian tracking error whose magnitude reflects the control rate.
    fn kinematic_track(&self, reference: &EePose, rng: &mut StdRng) -> EePose {
        let sigma = self.config.tracking_error;
        let noise =
            corki_math::Vec3::new(gaussian(rng, sigma), gaussian(rng, sigma), gaussian(rng, sigma));
        EePose {
            position: reference.position + noise,
            euler: reference.euler,
            gripper: reference.gripper,
        }
    }
}

fn gaussian(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The dynamic execution backend: a Panda rigid-body simulation tracked by the
/// TS-CTC controller at 100 Hz. Only the Cartesian position is tracked; the
/// orientation reference is held at the arm's current orientation (the
/// tabletop tasks are position-dominated).
#[derive(Debug, Clone)]
struct DynamicBackend {
    sim: ArmSimulator,
    controller: TaskSpaceController,
}

impl DynamicBackend {
    fn new() -> Self {
        let robot = panda::panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
        DynamicBackend { sim, controller: TaskSpaceController::new(ControllerGains::default()) }
    }

    fn end_effector(&self) -> EePose {
        let pose = self.sim.robot().forward_kinematics(&self.sim.state().positions);
        EePose::from_se3(&pose, GripperState::Open)
    }

    /// One TS-CTC cycle towards `reference`, then `dt` of simulated physics;
    /// the torque lives on the stack.
    fn control_cycle(&mut self, reference: &TaskReference, dt: f64) {
        let mut tau = [0.0; MAX_BODIES];
        let tau = &mut tau[..self.sim.robot().dof()];
        self.controller.compute_torque(self.sim.robot(), self.sim.state(), reference, tau);
        self.sim.step(tau, dt);
    }

    /// Tracks one control step (33 ms) of a trajectory with 100 Hz TS-CTC.
    fn track_trajectory_step(
        &mut self,
        trajectory: &Trajectory,
        step_index: usize,
        gripper: GripperState,
    ) -> EePose {
        let t_start = step_index as f64 * CONTROL_STEP;
        let control_dt = 0.01;
        let mut t = 0.0;
        while t < CONTROL_STEP - 1e-9 {
            let sample = trajectory.sample_full(t_start + t);
            let mut target = self.sim.robot().forward_kinematics(&self.sim.state().positions);
            target.translation = sample.pose.position;
            let reference = TaskReference {
                pose: target,
                linear_velocity: sample.linear_velocity,
                angular_velocity: corki_math::Vec3::ZERO,
                linear_acceleration: sample.linear_acceleration,
                angular_acceleration: corki_math::Vec3::ZERO,
            };
            self.control_cycle(&reference, control_dt);
            t += control_dt;
        }
        let mut achieved = self.end_effector();
        achieved.gripper = gripper;
        achieved
    }

    /// Tracks a single target pose for one control step (baseline execution).
    fn track_pose(&mut self, reference: &EePose) -> EePose {
        let control_dt = 0.01;
        let mut target = self.sim.robot().forward_kinematics(&self.sim.state().positions);
        target.translation = reference.position;
        let task_ref = TaskReference::hold(target);
        let mut t = 0.0;
        while t < CONTROL_STEP - 1e-9 {
            self.control_cycle(&task_ref, control_dt);
            t += control_dt;
        }
        let mut achieved = self.end_effector();
        achieved.gripper = reference.gripper;
        achieved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::task_catalog;
    use corki_policy::{NoiseModel, OracleFramePolicy, OracleTrajectoryPolicy};

    fn quiet_noise() -> NoiseModel {
        NoiseModel {
            position_sigma: 0.001,
            orientation_sigma: 0.002,
            gripper_error_probability: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn oracle_baseline_solves_simple_tasks_kinematically() {
        let env = Environment::new(EnvironmentConfig::default());
        let catalog = task_catalog();
        let mut solved = 0;
        let mut total = 0;
        for task in catalog.iter().take(12) {
            let mut scene = Scene::randomized(100 + task.id as u64, false);
            task.prepare(&mut scene);
            let mut policy = OracleFramePolicy::new(quiet_noise(), 1);
            let outcome = env.run_episode(&mut scene, task, &mut policy, false);
            total += 1;
            if outcome.success {
                solved += 1;
            }
        }
        assert!(solved * 10 >= total * 8, "oracle baseline solved only {solved}/{total} tasks");
    }

    #[test]
    fn oracle_corki_reduces_inference_count() {
        let env_base = Environment::new(EnvironmentConfig::default());
        let env_corki = Environment::new(EnvironmentConfig {
            steps_policy: StepsPolicy::Fixed(5),
            ..Default::default()
        });
        let task = task_catalog()[0];
        let mut scene_a = Scene::randomized(7, false);
        task.prepare(&mut scene_a);
        let mut scene_b = scene_a.clone();

        let mut frame_policy = OracleFramePolicy::new(quiet_noise(), 2);
        let base = env_base.run_episode(&mut scene_a, &task, &mut frame_policy, false);
        let mut corki_policy = OracleTrajectoryPolicy::new(9, quiet_noise(), 2);
        let corki = env_corki.run_episode(&mut scene_b, &task, &mut corki_policy, false);

        assert!(base.success && corki.success, "both variants should solve the task");
        assert!(
            corki.mean_steps_per_inference() > 3.0,
            "Corki-5 should execute several steps per inference, got {}",
            corki.mean_steps_per_inference()
        );
        assert!(
            corki.inferences < base.inferences,
            "Corki must infer less often: {} vs {}",
            corki.inferences,
            base.inferences
        );
    }

    #[test]
    fn adaptive_policy_executes_variable_lengths() {
        let env = Environment::new(EnvironmentConfig {
            steps_policy: StepsPolicy::Adaptive(AdaptiveLengthConfig::default()),
            ..Default::default()
        });
        // A lift task includes a gripper change, which should trigger early
        // termination at least once.
        let task = task_catalog().into_iter().find(|t| t.name() == "lift_red_block_table").unwrap();
        let mut scene = Scene::randomized(11, false);
        task.prepare(&mut scene);
        let mut policy = OracleTrajectoryPolicy::new(9, quiet_noise(), 5);
        let outcome = env.run_episode(&mut scene, &task, &mut policy, false);
        assert!(outcome.success);
        let lengths = &outcome.executed_lengths;
        assert!(
            lengths.iter().any(|&l| l < 9),
            "adaptive execution should cut at least one trajectory: {lengths:?}"
        );
    }

    #[test]
    fn episode_outcome_traces_are_aligned() {
        let env = Environment::new(EnvironmentConfig::default());
        let task = task_catalog()[8]; // turn_on_lightbulb
        let mut scene = Scene::randomized(3, false);
        task.prepare(&mut scene);
        let mut policy = OracleTrajectoryPolicy::new(5, quiet_noise(), 9);
        let outcome = env.run_episode(&mut scene, &task, &mut policy, false);
        assert_eq!(outcome.reference_poses.len(), outcome.steps);
        assert_eq!(outcome.achieved_poses.len(), outcome.steps);
        assert_eq!(outcome.expert_poses.len(), outcome.steps);
        assert_eq!(outcome.executed_lengths.iter().sum::<usize>(), outcome.steps);
    }

    #[test]
    fn failure_is_reported_when_noise_is_huge() {
        let env = Environment::new(EnvironmentConfig { max_steps: 40, ..Default::default() });
        let task = task_catalog()[0];
        let mut scene = Scene::randomized(5, false);
        task.prepare(&mut scene);
        let mut policy =
            OracleFramePolicy::new(NoiseModel { position_sigma: 0.15, ..Default::default() }, 3);
        let outcome = env.run_episode(&mut scene, &task, &mut policy, false);
        assert_eq!(outcome.steps, 40);
        assert!(!outcome.success);
    }

    #[test]
    fn dynamic_backend_tracks_a_lift_task() {
        let env = Environment::new(EnvironmentConfig {
            backend: ExecutionBackend::Dynamic,
            steps_policy: StepsPolicy::Fixed(5),
            max_steps: 90,
            ..Default::default()
        });
        let task = task_catalog().into_iter().find(|t| t.name() == "turn_on_lightbulb").unwrap();
        let mut scene = Scene::randomized(21, false);
        task.prepare(&mut scene);
        let mut policy = OracleTrajectoryPolicy::new(9, quiet_noise(), 4);
        let outcome = env.run_episode(&mut scene, &task, &mut policy, false);
        // The dynamic arm starts from the Panda home configuration, which is
        // different from the kinematic home pose; reaching the switch may
        // legitimately take longer, but the rollout must stay consistent.
        assert_eq!(outcome.achieved_poses.len(), outcome.steps);
        assert!(outcome.steps > 0);
    }
}
