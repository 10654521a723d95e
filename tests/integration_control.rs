//! Integration tests across the math → robot → trajectory → accelerator
//! stack: the TS-CTC controller tracks Corki trajectories on the rigid-body
//! Panda, and the accelerator model agrees with the paper-level claims when
//! driven by real joint traces.

use corki::accel::ace::{AceConfig, AceState, JointImpactFactors};
use corki::accel::{AcceleratorModel, CpuControlModel};
use corki::robot::{
    panda, ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference,
    TaskSpaceController,
};
use corki::trajectory::{EePose, GripperState, Trajectory, CONTROL_STEP};
use corki_math::Vec3;

/// Tracks a point-to-point Corki trajectory with the full TS-CTC + rigid-body
/// dynamics loop and checks the tracking error stays at millimetre level.
#[test]
fn ts_ctc_tracks_a_corki_trajectory_on_the_dynamic_arm() {
    let robot = panda::panda_model();
    let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
    sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
    let controller = TaskSpaceController::new(ControllerGains::default());

    let start_fk = sim.robot().forward_kinematics(&sim.state().positions);
    let start = EePose::from_se3(&start_fk, GripperState::Open);
    let mut goal = start;
    goal.position += Vec3::new(0.05, -0.06, -0.04);
    let trajectory = Trajectory::point_to_point(&start, &goal, 9, CONTROL_STEP).unwrap();

    let control_dt = 0.01;
    let mut t: f64 = 0.0;
    let mut worst_error: f64 = 0.0;
    while t < trajectory.duration() {
        let sample = trajectory.sample_full(t);
        let fk = sim.robot().forward_kinematics(&sim.state().positions);
        let mut desired = fk;
        desired.translation = sample.pose.position;
        let reference = TaskReference {
            pose: desired,
            linear_velocity: sample.linear_velocity,
            angular_velocity: Vec3::ZERO,
            linear_acceleration: sample.linear_acceleration,
            angular_acceleration: Vec3::ZERO,
        };
        let mut tau = [0.0; 7];
        controller.compute_torque(sim.robot(), sim.state(), &reference, &mut tau);
        sim.step(&tau, control_dt);
        t += control_dt;
        let achieved = sim.robot().forward_kinematics(&sim.state().positions);
        worst_error = worst_error.max((achieved.translation - sample.pose.position).norm());
    }
    let final_fk = sim.robot().forward_kinematics(&sim.state().positions);
    let final_error = (final_fk.translation - goal.position).norm();
    assert!(final_error < 0.01, "final tracking error {final_error:.4} m");
    assert!(worst_error < 0.03, "worst tracking error {worst_error:.4} m");
}

/// The ACE decision driven by a *real* closed-loop joint trace (not the
/// synthetic one) still skips a majority of matrix updates, and the
/// accelerator remains ≈29× faster than the robot's CPU while doing so.
#[test]
fn ace_on_a_real_control_trace_matches_the_papers_savings() {
    let robot = panda::panda_model();
    let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
    sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
    let controller = TaskSpaceController::new(ControllerGains::default());
    let start_fk = sim.robot().forward_kinematics(&sim.state().positions);
    let mut goal = start_fk;
    goal.translation += Vec3::new(0.06, 0.05, -0.03);
    let reference = TaskReference::hold(goal);

    let mut trace = Vec::new();
    let mut tau = [0.0; 7];
    for _ in 0..120 {
        controller.compute_torque(sim.robot(), sim.state(), &reference, &mut tau);
        sim.step(&tau, 0.01);
        trace.push(sim.state().positions.clone());
    }

    let factors = JointImpactFactors::measure(sim.robot(), &panda::PANDA_HOME, 0.1);
    let mut ace = AceState::new(AceConfig { impact_factors: factors, threshold: 0.40 });
    let stats = ace.run_trace(&trace);
    assert!(
        stats.skip_fraction() > 0.4,
        "expected a large fraction of skipped updates, got {:.2}",
        stats.skip_fraction()
    );

    let accel = AcceleratorModel::default();
    let cpu = CpuControlModel::i7_6770hq();
    let speedup =
        cpu.control_latency_ms / accel.control_latency_with_skips(stats.skip_fraction()).latency_ms;
    assert!(speedup > 25.0, "control speed-up {speedup:.1}× is below the paper's ≈29×");
}
