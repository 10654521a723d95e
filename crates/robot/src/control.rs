//! Task-space computed torque control (TS-CTC), paper Equation 6:
//!
//! ```text
//! τ = Jᵀ(θ) [ Mx(θ) (ẍd + Kp e + Kv ė) + hx(θ, θ̇) ]
//! e = xd − x,   ė = ẋd − ẋ
//! ```
//!
//! plus a joint-space computed-torque controller used as a cross-check in
//! tests and by the CPU-baseline latency model.

use crate::dynamics::TaskSpaceDynamics;
use crate::model::RobotModel;
use crate::state::{EndEffectorState, JointState};
use corki_math::{dense, UnitQuaternion, Vec3, SE3};
use serde::{Deserialize, Serialize};

/// Proportional/derivative gains of the TS-CTC controller, split between the
/// translational and rotational subspaces, plus a small null-space damping
/// that keeps the redundant 7th degree of freedom from drifting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerGains {
    /// Proportional gain on the position error (1/s²).
    pub kp_linear: f64,
    /// Derivative gain on the linear-velocity error (1/s).
    pub kv_linear: f64,
    /// Proportional gain on the orientation error (1/s²).
    pub kp_angular: f64,
    /// Derivative gain on the angular-velocity error (1/s).
    pub kv_angular: f64,
    /// Joint-space damping applied to the whole torque command (N·m·s/rad).
    pub null_space_damping: f64,
}

impl Default for ControllerGains {
    fn default() -> Self {
        // Critically damped at ~10 rad/s task-space bandwidth, matching the
        // 100 Hz control rate targeted by the paper.
        ControllerGains {
            kp_linear: 400.0,
            kv_linear: 40.0,
            kp_angular: 100.0,
            kv_angular: 20.0,
            null_space_damping: 1.0,
        }
    }
}

impl ControllerGains {
    /// Gains with the derivative terms set for critical damping
    /// (`kv = 2·sqrt(kp)`).
    pub fn critically_damped(kp_linear: f64, kp_angular: f64, null_space_damping: f64) -> Self {
        ControllerGains {
            kp_linear,
            kv_linear: 2.0 * kp_linear.sqrt(),
            kp_angular,
            kv_angular: 2.0 * kp_angular.sqrt(),
            null_space_damping,
        }
    }
}

/// The task-space reference handed to the controller for one control cycle:
/// desired pose, velocity and feed-forward acceleration of the end-effector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskReference {
    /// Desired end-effector pose `xd`.
    pub pose: SE3,
    /// Desired linear velocity `ẋd` (m/s).
    pub linear_velocity: Vec3,
    /// Desired angular velocity (rad/s).
    pub angular_velocity: Vec3,
    /// Feed-forward linear acceleration `ẍd` (m/s²).
    pub linear_acceleration: Vec3,
    /// Feed-forward angular acceleration (rad/s²).
    pub angular_acceleration: Vec3,
}

impl TaskReference {
    /// A reference that holds a pose with zero velocity and acceleration.
    pub fn hold(pose: SE3) -> Self {
        TaskReference {
            pose,
            linear_velocity: Vec3::ZERO,
            angular_velocity: Vec3::ZERO,
            linear_acceleration: Vec3::ZERO,
            angular_acceleration: Vec3::ZERO,
        }
    }

    /// Convenience constructor from pose and velocities.
    pub fn moving(pose: SE3, linear_velocity: Vec3, angular_velocity: Vec3) -> Self {
        TaskReference {
            pose,
            linear_velocity,
            angular_velocity,
            linear_acceleration: Vec3::ZERO,
            angular_acceleration: Vec3::ZERO,
        }
    }
}

/// Orientation error as a rotation vector (axis · angle) taking the current
/// orientation to the desired one, expressed in the base frame.
pub(crate) fn orientation_error(desired: &SE3, actual: &SE3) -> Vec3 {
    let q_desired = desired.quaternion();
    let q_actual = actual.quaternion();
    let q_err = q_desired * q_actual.conjugate();
    // Convert to rotation vector; guard the small-angle case.
    let w = q_err.w.clamp(-1.0, 1.0);
    let angle = 2.0 * w.acos();
    let sin_half = (1.0 - w * w).sqrt();
    let axis =
        if sin_half < 1e-9 { Vec3::ZERO } else { Vec3::new(q_err.x, q_err.y, q_err.z) / sin_half };
    // Map the angle into (-pi, pi] so the error is the short way around.
    let angle = corki_math::wrap_angle(angle);
    axis * angle
}

/// The task-space computed torque controller of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpaceController {
    gains: ControllerGains,
    dynamics: TaskSpaceDynamics,
    clamp_to_effort_limits: bool,
}

impl Default for TaskSpaceController {
    fn default() -> Self {
        TaskSpaceController::new(ControllerGains::default())
    }
}

impl TaskSpaceController {
    /// Creates a controller with the given gains and default singularity
    /// damping.
    pub fn new(gains: ControllerGains) -> Self {
        TaskSpaceController {
            gains,
            dynamics: TaskSpaceDynamics::default(),
            clamp_to_effort_limits: true,
        }
    }

    /// The controller gains.
    pub fn gains(&self) -> &ControllerGains {
        &self.gains
    }

    /// Disables clamping of the output to the robot's effort limits (useful
    /// for analysing the unconstrained control law).
    pub fn without_effort_clamping(mut self) -> Self {
        self.clamp_to_effort_limits = false;
        self
    }

    /// Runs one TS-CTC cycle, returning the joint torques.
    ///
    /// # Panics
    ///
    /// Panics if the joint state does not match the robot's DoF.
    pub fn compute_torque(
        &self,
        robot: &RobotModel,
        state: &JointState,
        reference: &TaskReference,
    ) -> Vec<f64> {
        let model = self.dynamics.compute(robot, &state.positions, &state.velocities);
        self.compute_torque_with_model(robot, state, reference, &model.end_effector, &model)
    }

    /// Runs one TS-CTC cycle reusing an already-computed [`crate::TaskSpaceModel`]
    /// (the accelerator model uses this entry point so that the functional
    /// result and the timing model share the same inputs).
    pub fn compute_torque_with_model(
        &self,
        robot: &RobotModel,
        state: &JointState,
        reference: &TaskReference,
        end_effector: &EndEffectorState,
        model: &crate::TaskSpaceModel,
    ) -> Vec<f64> {
        let g = &self.gains;
        // Errors (Equation 6): e = xd − x, ė = ẋd − ẋ.
        let e_pos = reference.pose.translation - end_effector.pose.translation;
        let e_rot = orientation_error(&reference.pose, &end_effector.pose);
        let e_vel_lin = reference.linear_velocity - end_effector.linear_velocity;
        let e_vel_ang = reference.angular_velocity - end_effector.angular_velocity;

        // Commanded task-space acceleration: ẍd + Kp e + Kv ė.
        let acc_lin = reference.linear_acceleration + e_pos * g.kp_linear + e_vel_lin * g.kv_linear;
        let acc_ang =
            reference.angular_acceleration + e_rot * g.kp_angular + e_vel_ang * g.kv_angular;
        let acc_ref = [acc_lin.x, acc_lin.y, acc_lin.z, acc_ang.x, acc_ang.y, acc_ang.z];

        // F = Mx·acc_ref + hx
        let mut wrench = [0.0; 6];
        dense::mul_vec(model.task_mass_matrix.as_slice(), 6, 6, &acc_ref, &mut wrench);
        for (w, hx) in wrench.iter_mut().zip(&model.task_bias) {
            *w += hx;
        }

        // τ = Jᵀ F, plus null-space damping.
        let mut tau = model.jacobian.transpose_mul_wrench(&wrench);
        for (t, qd) in tau.iter_mut().zip(&state.velocities) {
            *t -= g.null_space_damping * qd;
        }

        if self.clamp_to_effort_limits {
            for (t, joint) in tau.iter_mut().zip(robot.actuated_joints()) {
                *t = t.clamp(-joint.effort_limit, joint.effort_limit);
            }
        }
        tau
    }
}

/// A joint-space computed-torque controller:
/// `τ = M(θ)(q̈d + Kp e + Kv ė) + h(θ, θ̇)`.
///
/// Used by tests as an independent cross-check of the dynamics and by the
/// baseline CPU-control latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointSpaceController {
    /// Proportional gain (1/s²).
    pub kp: f64,
    /// Derivative gain (1/s).
    pub kv: f64,
}

impl Default for JointSpaceController {
    fn default() -> Self {
        JointSpaceController { kp: 100.0, kv: 20.0 }
    }
}

impl JointSpaceController {
    /// Creates a joint-space computed-torque controller.
    pub fn new(kp: f64, kv: f64) -> Self {
        JointSpaceController { kp, kv }
    }

    /// Computes the joint torques tracking the desired joint trajectory point
    /// `(qd, qdotd, qddotd)`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the robot's DoF.
    pub fn compute_torque(
        &self,
        robot: &RobotModel,
        state: &JointState,
        q_desired: &[f64],
        qd_desired: &[f64],
        qdd_desired: &[f64],
    ) -> Vec<f64> {
        assert_eq!(q_desired.len(), robot.dof(), "q_desired length");
        assert_eq!(qd_desired.len(), robot.dof(), "qd_desired length");
        assert_eq!(qdd_desired.len(), robot.dof(), "qdd_desired length");
        let n = robot.dof();
        let mut acc_cmd = vec![0.0; n];
        for i in 0..n {
            acc_cmd[i] = qdd_desired[i]
                + self.kp * (q_desired[i] - state.positions[i])
                + self.kv * (qd_desired[i] - state.velocities[i]);
        }
        robot.inverse_dynamics(&state.positions, &state.velocities, &acc_cmd)
    }
}

/// Helper exposing the orientation error for other crates (the trajectory
/// metrics use it to compare rotational tracking).
pub fn rotation_error_vector(desired: &SE3, actual: &SE3) -> Vec3 {
    orientation_error(desired, actual)
}

/// Returns the quaternion geodesic distance between two poses' orientations.
pub fn rotation_angle_between(a: &SE3, b: &SE3) -> f64 {
    let qa: UnitQuaternion = a.quaternion();
    let qb: UnitQuaternion = b.quaternion();
    qa.angle_to(&qb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panda::{panda_model, PANDA_HOME};
    use corki_math::Mat3;

    #[test]
    fn holding_reference_at_equilibrium_produces_gravity_compensation() {
        let robot = panda_model();
        let state = JointState::at_rest(PANDA_HOME.to_vec());
        let fk = robot.forward_kinematics(&state.positions);
        let controller = TaskSpaceController::new(ControllerGains::default());
        let reference = TaskReference::hold(fk.end_effector);
        let tau = controller.compute_torque(&robot, &state, &reference);
        // With zero error, τ = Jᵀ hx ≈ gravity compensation projected through
        // the task space; it should be close to the gravity torques for the
        // wrist joints and certainly bounded by the effort limits.
        let limits = robot.effort_limits();
        for (t, l) in tau.iter().zip(limits) {
            assert!(t.abs() <= l + 1e-9);
        }
        assert!(tau.iter().any(|t| t.abs() > 0.1), "expected non-trivial torques");
    }

    #[test]
    fn torque_pushes_towards_target() {
        // Displace the target along +x; the resulting end-effector force
        // should accelerate the end-effector towards +x.
        let robot = panda_model();
        let state = JointState::at_rest(PANDA_HOME.to_vec());
        let fk = robot.forward_kinematics(&state.positions);
        let mut target = fk.end_effector;
        target.translation.x += 0.05;
        let controller = TaskSpaceController::new(ControllerGains::default());
        let tau = controller.compute_torque(&robot, &state, &TaskReference::hold(target));
        let qdd = robot.forward_dynamics(&state.positions, &state.velocities, &tau);
        // Map the joint acceleration to task space: ẍ = J q̈ + J̇ q̇ (q̇ = 0).
        let j = robot.jacobian(&state.positions);
        let (lin, _) = j.mul_qdot(&qdd);
        assert!(lin.x > 0.0, "end-effector should accelerate towards the target, got {lin}");
    }

    #[test]
    fn orientation_error_is_zero_for_identical_poses() {
        let pose = SE3::new(Mat3::from_euler_xyz(0.3, -0.2, 0.9), Vec3::new(0.4, 0.0, 0.5));
        assert!(orientation_error(&pose, &pose).norm() < 1e-12);
    }

    #[test]
    fn orientation_error_matches_small_rotation() {
        let actual = SE3::identity();
        let angle = 0.01;
        let desired = SE3::from_rotation(Mat3::rotation_z(angle));
        let err = orientation_error(&desired, &actual);
        assert!((err - Vec3::new(0.0, 0.0, angle)).norm() < 1e-6);
    }

    #[test]
    fn effort_clamping_respects_limits() {
        let robot = panda_model();
        let state = JointState::at_rest(PANDA_HOME.to_vec());
        let fk = robot.forward_kinematics(&state.positions);
        let mut target = fk.end_effector;
        target.translation.x += 10.0; // absurdly far target
        let controller = TaskSpaceController::new(ControllerGains::default());
        let tau = controller.compute_torque(&robot, &state, &TaskReference::hold(target));
        for (t, l) in tau.iter().zip(robot.effort_limits()) {
            assert!(t.abs() <= l + 1e-9);
        }
        let unclamped = TaskSpaceController::new(ControllerGains::default())
            .without_effort_clamping()
            .compute_torque(&robot, &state, &TaskReference::hold(target));
        assert!(unclamped.iter().zip(robot.effort_limits()).any(|(t, l)| t.abs() > l));
    }

    #[test]
    fn joint_space_controller_tracks_reference_acceleration() {
        let robot = panda_model();
        let state = JointState::at_rest(PANDA_HOME.to_vec());
        let ctrl = JointSpaceController::new(0.0, 0.0);
        let qdd_desired: Vec<f64> = (0..7).map(|i| 0.1 * i as f64).collect();
        let tau =
            ctrl.compute_torque(&robot, &state, &state.positions, &state.velocities, &qdd_desired);
        let qdd = robot.forward_dynamics(&state.positions, &state.velocities, &tau);
        for i in 0..7 {
            assert!((qdd[i] - qdd_desired[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn critically_damped_gains() {
        let g = ControllerGains::critically_damped(400.0, 100.0, 0.5);
        assert!((g.kv_linear - 40.0).abs() < 1e-12);
        assert!((g.kv_angular - 20.0).abs() < 1e-12);
        assert_eq!(g.null_space_damping, 0.5);
    }

    #[test]
    fn rotation_helpers_are_consistent() {
        let a = SE3::from_rotation(Mat3::rotation_y(0.4));
        let b = SE3::from_rotation(Mat3::rotation_y(-0.1));
        let v = rotation_error_vector(&a, &b);
        let angle = rotation_angle_between(&a, &b);
        assert!((v.norm() - angle).abs() < 1e-9);
    }
}
