//! Quickstart: predict a Corki trajectory, convert it to torques with the
//! task-space computed torque controller and execute it on the rigid-body
//! Panda simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use corki::policy::{
    ManipulationPolicy, NoiseModel, Observation, OracleTrajectoryPolicy, PlanRequest, PolicyPlan,
};
use corki::robot::{
    panda, ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference,
    TaskSpaceController,
};
use corki::trajectory::{EePose, GripperState, CONTROL_STEP};
use corki_math::Vec3;

fn main() {
    // 1. A Franka Emika Panda and its TS-CTC controller.
    let robot = panda::panda_model();
    let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
    sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
    let controller = TaskSpaceController::new(ControllerGains::default());

    let start_pose = sim.robot().forward_kinematics(&sim.state().positions);
    let start = EePose::from_se3(&start_pose, GripperState::Open);
    println!("start pose: {}", start_pose.translation);

    // 2. A Corki-style policy predicts a 9-step trajectory towards a target.
    //    (The oracle policy stands in for the fine-tuned VLM head; see
    //    DESIGN.md for the substitution rationale.)
    let mut policy = OracleTrajectoryPolicy::new(9, NoiseModel::default(), 42);
    let target = start.position + Vec3::new(0.06, -0.08, -0.05);
    let expert_future: Vec<EePose> = (1..=9)
        .map(|k| {
            let alpha = k as f64 / 9.0;
            EePose::new(start.position.lerp(target, alpha), start.euler, GripperState::Open)
        })
        .collect();
    let request = PlanRequest {
        observation: Observation { end_effector: start, ..Default::default() },
        expert_future,
        close_loop_observations: Vec::new(),
        steps_since_last_plan: 1,
    };
    let PolicyPlan::Trajectory(trajectory) = policy.plan(&request) else {
        unreachable!("the Corki policy always predicts trajectories");
    };
    println!(
        "predicted a {}-step trajectory covering {:.0} ms",
        trajectory.num_steps(),
        trajectory.duration() * 1000.0
    );

    // 3. Track the trajectory with 100 Hz TS-CTC on the rigid-body arm.
    let control_dt = 0.01;
    let mut torque = [0.0; 7];
    let mut t = 0.0;
    while t < trajectory.duration() {
        let sample = trajectory.sample_full(t);
        let mut desired = sim.robot().forward_kinematics(&sim.state().positions);
        desired.translation = sample.pose.position;
        let reference = TaskReference {
            pose: desired,
            linear_velocity: sample.linear_velocity,
            angular_velocity: Vec3::ZERO,
            linear_acceleration: sample.linear_acceleration,
            angular_acceleration: Vec3::ZERO,
        };
        controller.compute_torque(sim.robot(), sim.state(), &reference, &mut torque);
        sim.step(&torque, control_dt);
        t += control_dt;
    }

    let reached = sim.robot().forward_kinematics(&sim.state().positions).translation;
    let error = (reached - target).norm();
    println!("reached pose: {reached}");
    println!(
        "target error after {:.0} ms of execution: {:.1} mm",
        trajectory.duration() * 1000.0,
        error * 1000.0
    );
    println!(
        "(one LLM inference covered {} control steps instead of {} — that is the Corki idea)",
        trajectory.num_steps(),
        1
    );
    let _ = CONTROL_STEP;
}
