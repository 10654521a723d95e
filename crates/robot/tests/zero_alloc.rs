//! Proof that a warm physics step and a warm TS-CTC control cycle perform
//! **zero heap allocations**: the frame pass, CRBA, RNEA and the Cholesky
//! solve of every substep run on stack buffers, the effort, velocity and
//! position limits are applied in place, and the task-space model and the
//! torque live in fixed-size buffers.

use corki_math::Vec3;
use corki_robot::{
    panda, ArmSimulator, ControllerGains, JointState, SimulatorConfig, TaskReference,
    TaskSpaceController,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocation_count;

#[test]
fn warm_simulator_step_performs_zero_allocations() {
    let mut sim = ArmSimulator::new(panda::panda_model(), SimulatorConfig::default());
    sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
    // A torque past the effort limits of the wrist joints and a long enough
    // run for joint 2 to reach its position limit exercise every clamp.
    let tau = [5.0, -120.0, 3.0, 10.0, -20.0, 15.0, -15.0];
    sim.step(&tau, 0.01);

    let before = allocation_count();
    for _ in 0..100 {
        sim.step(&tau, 0.01);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "a warm ArmSimulator::step must not touch the allocator");
    let lower_limit = sim.robot().joints()[1].position_min;
    assert_eq!(sim.state().positions[1], lower_limit, "joint 2 should end on its limit");
}

#[test]
fn warm_ts_ctc_cycle_performs_zero_allocations() {
    let robot = panda::panda_model();
    let controller = TaskSpaceController::new(ControllerGains::default());
    let state =
        JointState::new(panda::PANDA_HOME.to_vec(), vec![0.3, -0.2, 0.1, 0.4, -0.1, 0.2, 0.5]);
    let mut target = robot.forward_kinematics(&state.positions);
    target.translation += Vec3::new(0.05, -0.03, 0.02);
    let reference = TaskReference::hold(target);
    let mut tau = [0.0; 7];
    controller.compute_torque(&robot, &state, &reference, &mut tau);

    let before = allocation_count();
    for _ in 0..100 {
        controller.compute_torque(&robot, &state, &reference, &mut tau);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "a warm TS-CTC cycle must not touch the allocator");
    assert!(tau.iter().any(|t| t.abs() > 0.1), "the off-target reference should need torque");
}

#[test]
fn warm_forward_kinematics_performs_zero_allocations() {
    let robot = panda::panda_model();
    let q = panda::PANDA_HOME;
    let home = robot.forward_kinematics(&q);

    let before = allocation_count();
    for _ in 0..100 {
        assert_eq!(robot.forward_kinematics(&q), home);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "a warm forward_kinematics must not touch the allocator");
}
