//! A small joint-space dynamics simulator used to execute torque commands.
//!
//! The simulator integrates the manipulator's rigid-body dynamics with a
//! semi-implicit Euler scheme at a configurable physics step, which is how
//! `corki-sim` closes the loop policy → trajectory → TS-CTC → robot motion.

use crate::model::{RobotModel, MAX_BODIES};
use crate::state::JointState;
use serde::{Deserialize, Serialize};

/// Configuration of the joint-space simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulatorConfig {
    /// Physics integration step in seconds (default 1 ms).
    pub physics_dt: f64,
    /// Viscous joint friction coefficient (N·m·s/rad), applied per joint.
    pub joint_friction: f64,
    /// Whether to clamp joint positions to the model's limits after each step.
    pub enforce_position_limits: bool,
    /// Whether to clamp applied torques to the model's effort limits.
    pub enforce_effort_limits: bool,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            physics_dt: 1e-3,
            joint_friction: 0.5,
            enforce_position_limits: true,
            enforce_effort_limits: true,
        }
    }
}

/// A forward-dynamics simulator for a serial manipulator.
///
/// ```
/// use corki_robot::{panda, ArmSimulator, SimulatorConfig, JointState};
///
/// let robot = panda::panda_model();
/// let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
/// sim.reset(JointState::at_rest(panda::PANDA_HOME.to_vec()));
/// let gravity_comp = sim.robot().gravity_torques(&sim.state().positions);
/// sim.step(&gravity_comp, 0.01);
/// assert!(sim.state().velocities.iter().all(|v| v.abs() < 0.05));
/// ```
#[derive(Debug, Clone)]
pub struct ArmSimulator {
    robot: RobotModel,
    state: JointState,
    config: SimulatorConfig,
    elapsed: f64,
}

impl ArmSimulator {
    /// Creates a simulator with the robot at the all-zero configuration.
    pub fn new(robot: RobotModel, config: SimulatorConfig) -> Self {
        let state = JointState::zeros(robot.dof());
        ArmSimulator { robot, state, config, elapsed: 0.0 }
    }

    /// The simulated robot model.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// The current joint state.
    pub fn state(&self) -> &JointState {
        &self.state
    }

    /// Total simulated time in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Resets the simulator to the given joint state and zero elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if the state's DoF differs from the robot's.
    pub fn reset(&mut self, state: JointState) {
        assert_eq!(state.dof(), self.robot.dof(), "reset: wrong DoF");
        self.state = state;
        self.elapsed = 0.0;
    }

    /// Applies a constant torque for `duration` seconds, sub-stepping at the
    /// configured physics step. Returns the state after integration.
    ///
    /// # Panics
    ///
    /// Panics if `torque.len()` differs from the robot's DoF or `duration` is
    /// negative.
    pub fn step(&mut self, torque: &[f64], duration: f64) -> &JointState {
        assert_eq!(torque.len(), self.robot.dof(), "step: wrong torque length");
        assert!(duration >= 0.0, "step: negative duration");
        let mut remaining = duration;
        while remaining > 1e-12 {
            let dt = remaining.min(self.config.physics_dt);
            self.substep(torque, dt);
            remaining -= dt;
        }
        self.elapsed += duration;
        &self.state
    }

    /// One semi-implicit Euler step; allocation-free, so a warm
    /// [`ArmSimulator::step`] never touches the heap.
    fn substep(&mut self, torque: &[f64], dt: f64) {
        let mut applied = [0.0; MAX_BODIES];
        let applied = &mut applied[..torque.len()];
        applied.copy_from_slice(torque);
        if self.config.enforce_effort_limits {
            for (t, joint) in applied.iter_mut().zip(self.robot.actuated_joints()) {
                *t = t.clamp(-joint.effort_limit, joint.effort_limit);
            }
        }
        // Viscous friction.
        for (t, qd) in applied.iter_mut().zip(&self.state.velocities) {
            *t -= self.config.joint_friction * qd;
        }
        let mut qdd = [0.0; MAX_BODIES];
        self.robot.forward_dynamics_into(
            &self.state.positions,
            &self.state.velocities,
            applied,
            &mut qdd,
        );
        // Semi-implicit Euler: update velocity first, then position.
        for (v, a) in self.state.velocities.iter_mut().zip(&qdd) {
            *v += a * dt;
        }
        for (v, joint) in self.state.velocities.iter_mut().zip(self.robot.actuated_joints()) {
            let limit = joint.velocity_limit;
            if limit > 0.0 {
                *v = v.clamp(-limit, limit);
            }
        }
        for (p, v) in self.state.positions.iter_mut().zip(&self.state.velocities) {
            *p += v * dt;
        }
        if self.config.enforce_position_limits {
            let joints = self.state.positions.iter_mut().zip(self.state.velocities.iter_mut());
            for ((p, v), joint) in joints.zip(self.robot.actuated_joints()) {
                let clamped = joint.clamp_position(*p);
                if (clamped - *p).abs() > 1e-12 {
                    // Hit a joint limit: stop the joint.
                    *p = clamped;
                    *v = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControllerGains, TaskReference, TaskSpaceController};
    use crate::panda::{panda_model, PANDA_HOME};

    #[test]
    fn gravity_compensation_keeps_arm_still() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
        for _ in 0..20 {
            let tau = sim.robot().gravity_torques(&sim.state().positions);
            sim.step(&tau, 0.005);
        }
        for (p, home) in sim.state().positions.iter().zip(PANDA_HOME.iter()) {
            assert!((p - home).abs() < 0.01, "joint drifted: {p} vs {home}");
        }
    }

    #[test]
    fn unpowered_arm_falls_under_gravity() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
        let zero = vec![0.0; 7];
        sim.step(&zero, 0.2);
        let moved: f64 =
            sim.state().positions.iter().zip(PANDA_HOME.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved > 0.05, "arm should sag without torque, moved {moved}");
    }

    #[test]
    fn ts_ctc_closed_loop_converges_to_target() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.reset(JointState::at_rest(PANDA_HOME.to_vec()));
        let start = sim.robot().forward_kinematics(&sim.state().positions);
        let mut target = start;
        target.translation.x += 0.05;
        target.translation.z -= 0.03;
        let controller = TaskSpaceController::new(ControllerGains::default());
        let reference = TaskReference::hold(target);
        // 1 s of closed-loop control at 100 Hz.
        let mut tau = [0.0; 7];
        for _ in 0..100 {
            controller.compute_torque(sim.robot(), sim.state(), &reference, &mut tau);
            sim.step(&tau, 0.01);
        }
        let reached = sim.robot().forward_kinematics(&sim.state().positions);
        let err = (reached.translation - target.translation).norm();
        assert!(err < 0.01, "closed-loop position error too large: {err}");
    }

    #[test]
    fn position_limits_are_enforced() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.reset(JointState::at_rest(vec![0.0, -1.7, 0.0, -3.0, 0.0, 0.0, 0.0]));
        // Push joint 2 hard past its limit.
        let mut torque = vec![0.0; 7];
        torque[1] = -500.0;
        sim.step(&torque, 0.5);
        let limits_low = -1.7628;
        assert!(sim.state().positions[1] >= limits_low - 1e-9);
    }

    #[test]
    fn elapsed_time_accumulates() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        let tau = vec![0.0; 7];
        sim.step(&tau, 0.033);
        sim.step(&tau, 0.033);
        assert!((sim.elapsed() - 0.066).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn wrong_torque_length_panics() {
        let robot = panda_model();
        let mut sim = ArmSimulator::new(robot, SimulatorConfig::default());
        sim.step(&[0.0; 3], 0.01);
    }
}
