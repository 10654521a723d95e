//! Task-space computed torque control (TS-CTC), paper Equation 6:
//!
//! ```text
//! τ = Jᵀ(θ) [ Mx(θ) (ẍd + Kp e + Kv ė) + hx(θ, θ̇) ]
//! e = xd − x,   ė = ẋd − ẋ
//! ```
//!
//! with the torque clamped to the robot's effort limits.

use crate::dynamics::{TaskSpaceDynamics, TaskSpaceModel};
use crate::model::RobotModel;
use crate::state::JointState;
use corki_math::{dense, Vec3, SE3};
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
        TaskSpaceController { gains, dynamics: TaskSpaceDynamics::default() }
    }

    /// Runs one TS-CTC cycle, writing the joint torques into `tau`. The
    /// cycle runs on the stack and never touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if the joint state or `tau` does not match the robot's DoF.
    pub fn compute_torque(
        &self,
        robot: &RobotModel,
        state: &JointState,
        reference: &TaskReference,
        tau: &mut [f64],
    ) {
        let model = self.dynamics.compute(robot, &state.positions, &state.velocities);
        self.compute_torque_with_model(robot, state, reference, &model, tau);
    }

    /// The control law of [`TaskSpaceController::compute_torque`] on a given
    /// [`TaskSpaceModel`] instead of one computed from `state`. Its caller is
    /// the bit-identity test of the dynamics, where a model built by a
    /// reference implementation drives this live control law.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or the state's velocities do not match the model's
    /// DoF.
    pub fn compute_torque_with_model(
        &self,
        robot: &RobotModel,
        state: &JointState,
        reference: &TaskReference,
        model: &TaskSpaceModel,
        tau: &mut [f64],
    ) {
        let g = &self.gains;
        let end_effector = &model.end_effector;
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
        dense::mul_vec(&model.task_mass_matrix, 6, 6, &acc_ref, &mut wrench);
        for (w, hx) in wrench.iter_mut().zip(&model.task_bias) {
            *w += hx;
        }

        // τ = Jᵀ F, plus null-space damping, clamped to the effort limits.
        model.jacobian.transpose_mul_wrench(&wrench, tau);
        for (t, qd) in tau.iter_mut().zip(&state.velocities) {
            *t -= g.null_space_damping * qd;
        }
        for (t, joint) in tau.iter_mut().zip(robot.actuated_joints()) {
            *t = t.clamp(-joint.effort_limit, joint.effort_limit);
        }
    }
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
        let reference = TaskReference::hold(fk);
        let mut tau = [0.0; 7];
        controller.compute_torque(&robot, &state, &reference, &mut tau);
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
        let mut target = fk;
        target.translation.x += 0.05;
        let controller = TaskSpaceController::new(ControllerGains::default());
        let mut tau = [0.0; 7];
        controller.compute_torque(&robot, &state, &TaskReference::hold(target), &mut tau);
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
        let mut target = fk;
        target.translation.x += 10.0; // absurdly far target
        let controller = TaskSpaceController::new(ControllerGains::default());
        let mut tau = [0.0; 7];
        controller.compute_torque(&robot, &state, &TaskReference::hold(target), &mut tau);
        for (t, l) in tau.iter().zip(robot.effort_limits()) {
            assert!(t.abs() <= l + 1e-9);
        }
    }

    #[test]
    fn rotation_helpers_are_consistent() {
        // The norm of the orientation error is the geodesic angle.
        let a = SE3::from_rotation(Mat3::rotation_y(0.4));
        let b = SE3::from_rotation(Mat3::rotation_y(-0.1));
        let v = orientation_error(&a, &b);
        let angle = a.quaternion().angle_to(&b.quaternion());
        assert!((v.norm() - angle).abs() < 1e-9);
    }
}
