//! Proof that a warm physics step performs **zero heap allocations**: the
//! frame pass, CRBA, RNEA and the Cholesky solve of every substep run on
//! stack buffers, and the effort, velocity and position limits are applied
//! in place.

use corki_robot::{panda, ArmSimulator, JointState, SimulatorConfig};

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
