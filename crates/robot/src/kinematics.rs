//! Forward kinematics and the geometric Jacobian.
//!
//! These correspond to the *Forward Kinematics* and *Jacobian* blocks of the
//! TS-CTC data flow (paper Fig. 6/7): the pose block consumes joint angles,
//! the Jacobian block reuses the link poses computed by the pose block — the
//! data-reuse opportunity that the Corki accelerator exploits.

use crate::dynamics::Frames;
use crate::model::{JointKind, RobotModel, MAX_BODIES};
use corki_math::{dense, Vec3, SE3};

/// The 6×n geometric Jacobian of the end-effector, with the **linear** rows
/// on top and the **angular** rows below, expressed in the base frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jacobian {
    /// The matrix, row-major `6 × dof` (stride `dof`) in the first `6·dof`
    /// entries; the rest are zero.
    pub matrix: [f64; 6 * MAX_BODIES],
    /// Number of joint columns.
    pub dof: usize,
}

impl Jacobian {
    /// Maps joint velocities to the end-effector spatial velocity
    /// `(linear, angular)`.
    ///
    /// # Panics
    ///
    /// Panics if `qd` is shorter than the number of columns.
    pub fn mul_qdot(&self, qd: &[f64]) -> (Vec3, Vec3) {
        let mut v = [0.0; 6];
        dense::mul_vec(&self.matrix, 6, self.dof, qd, &mut v);
        (Vec3::new(v[0], v[1], v[2]), Vec3::new(v[3], v[4], v[5]))
    }

    /// Maps a task-space wrench (linear force on top, moment below, matching
    /// the row layout) to joint torques `τ = Jᵀ F`, written into `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau.len()` differs from the number of columns.
    pub fn transpose_mul_wrench(&self, wrench: &[f64; 6], tau: &mut [f64]) {
        assert_eq!(tau.len(), self.dof, "transpose_mul_wrench: wrong tau length");
        for (j, tau_j) in tau.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, w) in wrench.iter().enumerate() {
                acc += self.matrix[i * self.dof + j] * w;
            }
            *tau_j = acc;
        }
    }
}

impl RobotModel {
    /// The base-frame pose of the end-effector (the final frame in the
    /// chain) at joint positions `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` does not equal [`RobotModel::dof`].
    pub fn forward_kinematics(&self, q: &[f64]) -> SE3 {
        assert_eq!(q.len(), self.dof(), "forward_kinematics: wrong DoF");
        self.frames(q).link_poses().last().expect("model has at least one body")
    }

    /// Computes the geometric Jacobian of the end-effector at configuration
    /// `q` (linear rows on top, angular rows below, base frame).
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` does not equal [`RobotModel::dof`].
    pub fn jacobian(&self, q: &[f64]) -> Jacobian {
        assert_eq!(q.len(), self.dof(), "jacobian: wrong DoF");
        let mut jacobian = Jacobian { matrix: [0.0; 6 * MAX_BODIES], dof: self.dof() };
        self.jacobian_from_frames(&self.frames(q), &mut jacobian.matrix);
        jacobian
    }

    /// Forward kinematics and the Jacobian from one frame pass, on the
    /// stack: writes `J` into `jacobian` (row-major `6 × dof`, stride `dof`)
    /// and returns the end-effector pose.
    pub(crate) fn jacobian_from_frames(&self, frames: &Frames, jacobian: &mut [f64]) -> SE3 {
        let mut link_poses = [SE3::identity(); MAX_BODIES];
        let mut end_effector = SE3::identity();
        for (slot, pose) in link_poses.iter_mut().zip(frames.link_poses()) {
            *slot = pose;
            end_effector = pose;
        }
        let p_ee = end_effector.translation;
        let dof = self.dof();
        let columns = self.joints().iter().zip(link_poses).filter(|(j, _)| j.kind.is_actuated());
        for (col, (joint, pose)) in columns.enumerate() {
            let axis = pose.rotation.col(2); // local Z in base frame
            let (linear, angular) = match joint.kind {
                JointKind::RevoluteZ => (axis.cross(p_ee - pose.translation), axis),
                JointKind::PrismaticZ => (axis, Vec3::ZERO),
                JointKind::Fixed => unreachable!("filtered above"),
            };
            for i in 0..3 {
                jacobian[i * dof + col] = linear[i];
                jacobian[(i + 3) * dof + col] = angular[i];
            }
        }
        end_effector
    }

    /// The end-effector twist `J(q) q̇` (linear rows first), on the stack.
    fn end_effector_twist(&self, q: &[f64], qd: &[f64]) -> [f64; 6] {
        let mut twist = [0.0; 6];
        dense::mul_vec(&self.jacobian(q).matrix, 6, self.dof(), qd, &mut twist);
        twist
    }

    /// The product `J̇(θ, θ̇)·θ̇` — the acceleration bias of the end-effector —
    /// evaluated by central finite differences along the joint motion.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `qd` have the wrong length.
    pub fn jacobian_dot_qdot(&self, q: &[f64], qd: &[f64]) -> [f64; 6] {
        assert_eq!(q.len(), self.dof(), "jacobian_dot_qdot: wrong DoF");
        assert_eq!(qd.len(), self.dof(), "jacobian_dot_qdot: wrong DoF");
        let eps = 1e-6;
        let mut q_plus = [0.0; MAX_BODIES];
        let mut q_minus = [0.0; MAX_BODIES];
        for (i, (qi, di)) in q.iter().zip(qd).enumerate() {
            q_plus[i] = qi + eps * di;
            q_minus[i] = qi - eps * di;
        }
        let v_plus = self.end_effector_twist(&q_plus[..q.len()], qd);
        let v_minus = self.end_effector_twist(&q_minus[..q.len()], qd);
        let mut out = [0.0; 6];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (v_plus[i] - v_minus[i]) / (2.0 * eps);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JointModel, Link};
    use crate::panda;
    use corki_math::{Mat3, SpatialInertia};
    use proptest::prelude::*;

    /// A planar two-link arm with unit-length links in the XY plane, whose
    /// kinematics have a simple closed form for cross-checking.
    fn planar_two_link() -> RobotModel {
        let joints = vec![
            JointModel::revolute("j1", 0.0, 0.0, 0.0, -3.1, 3.1, 10.0, 100.0),
            JointModel::revolute("j2", 1.0, 0.0, 0.0, -3.1, 3.1, 10.0, 100.0),
            JointModel::fixed("tip", 1.0, 0.0, 0.0, 0.0),
        ];
        let links = vec![
            Link::new(
                "l1",
                SpatialInertia::new(
                    1.0,
                    corki_math::Vec3::new(0.5, 0.0, 0.0),
                    Mat3::identity() * 0.01,
                ),
            ),
            Link::new(
                "l2",
                SpatialInertia::new(
                    1.0,
                    corki_math::Vec3::new(0.5, 0.0, 0.0),
                    Mat3::identity() * 0.01,
                ),
            ),
            Link::new("tip", SpatialInertia::zero()),
        ];
        RobotModel::new("planar2", joints, links).unwrap()
    }

    #[test]
    fn planar_fk_matches_closed_form() {
        let robot = planar_two_link();
        for &(q1, q2) in &[(0.0, 0.0), (0.3, -0.5), (1.2, 0.7), (-2.0, 1.5)] {
            let fk = robot.forward_kinematics(&[q1, q2]);
            let expected_x = q1.cos() + (q1 + q2).cos();
            let expected_y = q1.sin() + (q1 + q2).sin();
            let p = fk.translation;
            assert!((p.x - expected_x).abs() < 1e-12, "x mismatch at ({q1},{q2})");
            assert!((p.y - expected_y).abs() < 1e-12, "y mismatch at ({q1},{q2})");
            assert!(p.z.abs() < 1e-12);
        }
    }

    #[test]
    fn planar_jacobian_matches_closed_form() {
        let robot = planar_two_link();
        let (q1, q2) = (0.4, -0.9);
        let j = robot.jacobian(&[q1, q2]);
        let m = |row: usize, col: usize| j.matrix[row * j.dof + col];
        // dx/dq1 = -sin(q1) - sin(q1+q2), dx/dq2 = -sin(q1+q2)
        assert!((m(0, 0) - (-q1.sin() - (q1 + q2).sin())).abs() < 1e-12);
        assert!((m(0, 1) - (-(q1 + q2).sin())).abs() < 1e-12);
        // dy/dq1 = cos(q1) + cos(q1+q2), dy/dq2 = cos(q1+q2)
        assert!((m(1, 0) - (q1.cos() + (q1 + q2).cos())).abs() < 1e-12);
        assert!((m(1, 1) - (q1 + q2).cos()).abs() < 1e-12);
        // Angular rows: both joints rotate about base Z.
        assert!((m(5, 0) - 1.0).abs() < 1e-12);
        assert!((m(5, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jacobian_matches_numeric_differentiation_on_panda() {
        let robot = panda::panda_model();
        let q = [0.3, -0.6, 0.2, -1.8, 0.1, 1.9, 0.5];
        let j = robot.jacobian(&q);
        let eps = 1e-7;
        for col in 0..robot.dof() {
            let mut qp = q;
            qp[col] += eps;
            let mut qm = q;
            qm[col] -= eps;
            let fp = robot.forward_kinematics(&qp).translation;
            let fm = robot.forward_kinematics(&qm).translation;
            let numeric = (fp - fm) / (2.0 * eps);
            for row in 0..3 {
                assert!(
                    (j.matrix[row * j.dof + col] - numeric[row]).abs() < 1e-5,
                    "jacobian mismatch at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn velocity_from_jacobian_matches_finite_difference() {
        let robot = panda::panda_model();
        let q = [0.1, -0.4, 0.3, -2.0, 0.0, 1.6, 0.2];
        let qd = [0.2, -0.1, 0.3, 0.1, -0.2, 0.15, 0.05];
        let (lin, _ang) = robot.jacobian(&q).mul_qdot(&qd);
        let dt = 1e-7;
        let q_next: Vec<f64> = q.iter().zip(&qd).map(|(a, b)| a + b * dt).collect();
        let p0 = robot.forward_kinematics(&q).translation;
        let p1 = robot.forward_kinematics(&q_next).translation;
        let lin_fd = (p1 - p0) / dt;
        assert!((lin - lin_fd).norm() < 1e-5);
    }

    #[test]
    fn transpose_mul_wrench_matches_manual() {
        let robot = planar_two_link();
        let j = robot.jacobian(&[0.2, 0.3]);
        let wrench = [1.0, -2.0, 0.5, 0.1, 0.0, -0.3];
        let mut tau = [0.0; 2];
        j.transpose_mul_wrench(&wrench, &mut tau);
        for (col, tau_c) in tau.iter().enumerate() {
            let mut expected = 0.0;
            for (row, w) in wrench.iter().enumerate() {
                expected += j.matrix[row * 2 + col] * w;
            }
            assert!((tau_c - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobian_dot_qdot_zero_when_stationary() {
        let robot = panda::panda_model();
        let q = [0.0, -0.3, 0.0, -1.5, 0.0, 1.2, 0.0];
        let qd = [0.0; 7];
        let jdqd = robot.jacobian_dot_qdot(&q, &qd);
        assert!(jdqd.iter().all(|x| x.abs() < 1e-9));
    }

    #[test]
    #[should_panic]
    fn wrong_dof_panics() {
        let robot = panda::panda_model();
        let _ = robot.forward_kinematics(&[0.0; 3]);
    }

    proptest! {
        #[test]
        fn panda_end_effector_stays_within_reach(
            q in proptest::collection::vec(-1.5..1.5f64, 7)) {
            let robot = panda::panda_model();
            let fk = robot.forward_kinematics(&q);
            // The Panda's reach is roughly 0.855 m plus flange/gripper length.
            prop_assert!(fk.translation.norm() < 1.4);
            prop_assert!(fk.rotation.is_rotation(1e-9));
        }

        #[test]
        fn jacobian_linear_velocity_consistency(
            q in proptest::collection::vec(-1.2..1.2f64, 7),
            qd in proptest::collection::vec(-0.5..0.5f64, 7)) {
            let robot = panda::panda_model();
            let (lin, _) = robot.jacobian(&q).mul_qdot(&qd);
            let dt = 1e-7;
            let q_next: Vec<f64> = q.iter().zip(&qd).map(|(a, b)| a + b * dt).collect();
            let p0 = robot.forward_kinematics(&q).translation;
            let p1 = robot.forward_kinematics(&q_next).translation;
            let fd = (p1 - p0) / dt;
            prop_assert!((lin - fd).norm() < 1e-4);
        }
    }
}
