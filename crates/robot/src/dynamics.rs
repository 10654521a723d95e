//! Joint-space and task-space dynamics: RNEA, CRBA and the quantities used by
//! task-space computed torque control.
//!
//! The five "key computing blocks" of the paper (Fig. 6/7) map onto this
//! module as follows:
//!
//! | Paper block              | Function                                          |
//! |--------------------------|---------------------------------------------------|
//! | Forward kinematics       | [`crate::RobotModel::forward_kinematics`]         |
//! | Jacobian (and transpose) | [`crate::RobotModel::jacobian`]                   |
//! | Task-space mass matrix   | [`TaskSpaceDynamics::compute`] (`Mx`)             |
//! | Task-space bias force    | [`TaskSpaceDynamics::compute`] (`hx`)             |
//! | Joint torque             | [`crate::TaskSpaceController::compute_torque`]    |
//!
//! As in the accelerator, link poses are computed once and reused: each call
//! runs one frame pass whose per-body transforms feed forward kinematics, the
//! Jacobian, CRBA and RNEA, and every intermediate and every result lives in
//! fixed-size buffers of [`MAX_BODIES`] entries, so neither the physics loop
//! nor a control cycle touches the heap.

use crate::kinematics::Jacobian;
use crate::model::{JointKind, RobotModel, MAX_BODIES};
use crate::state::EndEffectorState;
use corki_math::{dense, SpatialForce, SpatialInertia, SpatialMotion, SpatialTransform, Vec3, SE3};
use serde::{Deserialize, Serialize};

/// A row-major `dof × dof` joint-space matrix (stride `dof`), on the stack.
type JointMatrix = [f64; MAX_BODIES * MAX_BODIES];

/// What one body contributes to the frame pass: everything CRBA, RNEA and
/// forward kinematics need from its joint variable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BodyFrame {
    /// `joint.transform(q_i)`: the body frame's pose in its parent's frame.
    pose: SE3,
    /// The same placement as the Plücker transform `^i X_{i-1}`.
    xform: SpatialTransform,
    /// The joint kind, which fixes the motion subspace `S`.
    kind: JointKind,
    /// The joint's column in joint-space quantities, if it is actuated.
    column: Option<usize>,
}

impl BodyFrame {
    /// The joint's motion subspace `S`, dense.
    fn subspace(&self) -> SpatialMotion {
        match self.kind {
            JointKind::RevoluteZ => SpatialMotion::revolute_z(),
            JointKind::PrismaticZ => SpatialMotion::prismatic_z(),
            JointKind::Fixed => SpatialMotion::ZERO,
        }
    }

    /// `Sᵀ f`, the projection of a force onto the joint axis. For a revolute
    /// joint `S = e_z` picks the moment's z component.
    fn project(&self, f: &SpatialForce) -> f64 {
        match self.kind {
            JointKind::RevoluteZ => f.moment.z,
            JointKind::PrismaticZ | JointKind::Fixed => self.subspace().dot_force(f),
        }
    }
}

/// The frame pass: one [`BodyFrame`] per body, computed once per call and
/// shared by forward kinematics, the Jacobian, CRBA and RNEA (the data reuse
/// of the paper's Fig. 7).
pub(crate) struct Frames {
    bodies: [BodyFrame; MAX_BODIES],
    len: usize,
}

impl Frames {
    /// The bodies in chain order.
    fn bodies(&self) -> &[BodyFrame] {
        &self.bodies[..self.len]
    }

    /// Forward kinematics: the base-frame pose of every body, in chain order.
    pub(crate) fn link_poses(&self) -> impl Iterator<Item = SE3> + '_ {
        self.bodies().iter().scan(SE3::identity(), |current, body| {
            *current = *current * body.pose;
            Some(*current)
        })
    }
}

impl RobotModel {
    /// The frame pass at joint positions `q` (`q.len()` must be the DoF).
    pub(crate) fn frames(&self, q: &[f64]) -> Frames {
        let placeholder = BodyFrame {
            pose: SE3::identity(),
            xform: SpatialTransform::identity(),
            kind: JointKind::Fixed,
            column: None,
        };
        let mut frames = Frames { bodies: [placeholder; MAX_BODIES], len: self.num_bodies() };
        let mut next_column = 0;
        for (body, joint) in frames.bodies.iter_mut().zip(self.joints()) {
            let column = joint.kind.is_actuated().then(|| {
                next_column += 1;
                next_column - 1
            });
            let pose = joint.transform(column.map_or(0.0, |c| q[c]));
            *body = BodyFrame {
                pose,
                xform: SpatialTransform::from_pose(&pose),
                kind: joint.kind,
                column,
            };
        }
        frames
    }

    /// RNEA over a frame pass: writes into `tau[..dof]` the joint torques
    /// that realise accelerations `qdd` at velocities `qd` under gravity.
    fn rnea(&self, frames: &Frames, qd: &[f64], qdd: &[f64], tau: &mut [f64]) {
        let mut forces = [SpatialForce::ZERO; MAX_BODIES];
        // Gravity trick: give the base an upward acceleration of -g so that
        // gravitational forces appear automatically in the recursion.
        let mut v_parent = SpatialMotion::ZERO;
        let mut a_parent = SpatialMotion::new(Vec3::ZERO, -self.gravity());
        for ((body, link), force) in frames.bodies().iter().zip(self.links()).zip(&mut forces) {
            let (qdi, qddi) = body.column.map_or((0.0, 0.0), |c| (qd[c], qdd[c]));
            let mut v = body.xform.apply_motion(&v_parent);
            let mut a = body.xform.apply_motion(&a_parent);
            if body.kind == JointKind::RevoluteZ {
                // v += S q̇ and a += S q̈ + v × (S q̇) with S = e_z, the
                // structural zeros of S dropped.
                v.ang.z += qdi;
                a.ang.z += qddi;
                a.ang.x += v.ang.y * qdi;
                a.ang.y -= v.ang.x * qdi;
                a.lin.x += v.lin.y * qdi;
                a.lin.y -= v.lin.x * qdi;
            } else {
                let s = body.subspace();
                let v_joint = s * qdi;
                v += v_joint;
                a = a + s * qddi + v.cross_motion(&v_joint);
            }
            let inertia = &link.inertia;
            let momentum = inertia.apply(&v);
            *force = inertia.apply(&a) + v.cross_force(&momentum);
            v_parent = v;
            a_parent = a;
        }

        // Backward pass: project forces onto joint axes and propagate to
        // parents.
        for i in (0..frames.len).rev() {
            let body = &frames.bodies[i];
            if let Some(c) = body.column {
                tau[c] = body.project(&forces[i]);
            }
            if i > 0 {
                let to_parent = body.xform.inv_apply_force(&forces[i]);
                forces[i - 1] += to_parent;
            }
        }
    }

    /// CRBA over a frame pass: writes the joint-space mass matrix into `m`
    /// (row-major, stride `dof`).
    fn crba(&self, frames: &Frames, m: &mut [f64]) {
        let dof = self.dof();
        let bodies = frames.bodies();

        // Composite inertias, accumulated tip-to-base.
        let mut composite = [SpatialInertia::zero(); MAX_BODIES];
        for (c, link) in composite.iter_mut().zip(self.links()) {
            *c = link.inertia;
        }
        for i in (1..bodies.len()).rev() {
            let in_parent = composite[i].expressed_in_parent(&bodies[i].pose);
            composite[i - 1] = composite[i - 1].combine(&in_parent);
        }

        for (i, body) in bodies.iter().enumerate() {
            let Some(col_i) = body.column else { continue };
            // Force produced by unit acceleration of joint i on the composite
            // body rooted at i, expressed in frame i.
            let mut f = composite[i].apply(&body.subspace());
            m[col_i * dof + col_i] = body.project(&f);
            // Walk towards the base, projecting onto each ancestor joint.
            for j in (0..i).rev() {
                f = bodies[j + 1].xform.inv_apply_force(&f);
                if let Some(col_j) = bodies[j].column {
                    let value = bodies[j].project(&f);
                    m[col_i * dof + col_j] = value;
                    m[col_j * dof + col_i] = value;
                }
            }
        }
    }

    /// Forward dynamics into `qdd[..dof]`: one frame pass feeds CRBA and
    /// RNEA, and the mass matrix is factored and solved on the stack.
    pub(crate) fn forward_dynamics_into(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        qdd: &mut [f64],
    ) {
        let dof = self.dof();
        assert_eq!(q.len(), dof, "forward_dynamics: wrong q length");
        assert_eq!(qd.len(), dof, "forward_dynamics: wrong qd length");
        assert_eq!(tau.len(), dof, "forward_dynamics: wrong tau length");
        let frames = self.frames(q);
        let mut m: JointMatrix = [0.0; MAX_BODIES * MAX_BODIES];
        self.crba(&frames, &mut m);
        let mut rhs = [0.0; MAX_BODIES];
        self.rnea(&frames, qd, &[0.0; MAX_BODIES], &mut rhs);
        for (r, t) in rhs.iter_mut().zip(tau) {
            *r = t - *r;
        }
        let mut l: JointMatrix = [0.0; MAX_BODIES * MAX_BODIES];
        dense::cholesky_factor(&m, dof, &mut l).expect("mass matrix must be positive definite");
        dense::cholesky_solve(&l, dof, &rhs, qdd);
    }

    /// Inverse dynamics via the recursive Newton-Euler algorithm (RNEA):
    /// the joint torques required to realise accelerations `qdd` at state
    /// `(q, qd)` under gravity.
    ///
    /// # Panics
    ///
    /// Panics if any input length differs from the robot's DoF.
    pub fn inverse_dynamics(&self, q: &[f64], qd: &[f64], qdd: &[f64]) -> Vec<f64> {
        let dof = self.dof();
        assert_eq!(q.len(), dof, "inverse_dynamics: wrong q length");
        assert_eq!(qd.len(), dof, "inverse_dynamics: wrong qd length");
        assert_eq!(qdd.len(), dof, "inverse_dynamics: wrong qdd length");
        let mut tau = vec![0.0; dof];
        self.rnea(&self.frames(q), qd, qdd, &mut tau);
        tau
    }

    /// Gravity torques `g(θ)`.
    pub fn gravity_torques(&self, q: &[f64]) -> Vec<f64> {
        let zeros = &[0.0; MAX_BODIES][..self.dof()];
        self.inverse_dynamics(q, zeros, zeros)
    }

    /// Joint-space mass matrix `M(θ)` via the composite rigid-body algorithm
    /// (CRBA), row-major `dof × dof` (stride `dof`) in the first `dof²`
    /// entries; the rest are zero.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the robot's DoF.
    pub fn mass_matrix(&self, q: &[f64]) -> [f64; MAX_BODIES * MAX_BODIES] {
        assert_eq!(q.len(), self.dof(), "mass_matrix: wrong q length");
        let mut m: JointMatrix = [0.0; MAX_BODIES * MAX_BODIES];
        self.crba(&self.frames(q), &mut m);
        m
    }

    /// Forward dynamics: the joint accelerations produced by torques `tau` at
    /// state `(q, qd)`, i.e. `qdd = M(θ)⁻¹ (τ − h(θ, θ̇))`.
    ///
    /// # Panics
    ///
    /// Panics if any input length differs from the robot's DoF.
    pub fn forward_dynamics(&self, q: &[f64], qd: &[f64], tau: &[f64]) -> Vec<f64> {
        let mut qdd = vec![0.0; self.dof()];
        self.forward_dynamics_into(q, qd, tau, &mut qdd);
        qdd
    }
}

/// All task-space quantities needed by one TS-CTC control cycle (paper Equ. 6
/// and Fig. 6): the Jacobian, the task-space mass matrix `Mx`, the task-space
/// bias force `hx`, and the current end-effector state. Every matrix is
/// row-major in a fixed-size buffer; `n` is `jacobian.dof` and the entries
/// past the first `n²` (or `n`) are zero.
#[derive(Debug, Clone)]
pub struct TaskSpaceModel {
    /// Geometric Jacobian `J(θ)` (6×n, linear rows first).
    pub jacobian: Jacobian,
    /// Joint-space mass matrix `M(θ)` (n×n, stride n).
    pub joint_mass_matrix: [f64; MAX_BODIES * MAX_BODIES],
    /// Joint-space bias forces `h(θ, θ̇)` (length n).
    pub joint_bias: [f64; MAX_BODIES],
    /// Task-space mass matrix `Mx(θ)` (6×6).
    pub task_mass_matrix: [f64; 36],
    /// Task-space bias force `hx(θ, θ̇)` (length 6, linear rows first).
    pub task_bias: [f64; 6],
    /// The acceleration bias `J̇ θ̇` (length 6).
    pub jdot_qdot: [f64; 6],
    /// Current end-effector pose and velocity.
    pub end_effector: EndEffectorState,
}

/// Computes [`TaskSpaceModel`]s, with a configurable damping term that keeps
/// the task-space mass matrix invertible near kinematic singularities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpaceDynamics {
    /// Damping added to the diagonal of `J M⁻¹ Jᵀ` before inversion
    /// (damped least squares). Default `1e-6`.
    pub damping: f64,
}

impl Default for TaskSpaceDynamics {
    fn default() -> Self {
        TaskSpaceDynamics { damping: 1e-6 }
    }
}

impl TaskSpaceDynamics {
    /// Computes every task-space quantity required by one control cycle.
    ///
    /// One frame pass at `q` feeds forward kinematics, the Jacobian, CRBA and
    /// RNEA (the finite-difference `J̇ θ̇` runs its own two at `q ± ε q̇`).
    /// Every intermediate and the returned model live on the stack: the call
    /// never touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `qd` have the wrong length.
    pub fn compute(&self, robot: &RobotModel, q: &[f64], qd: &[f64]) -> TaskSpaceModel {
        let n = robot.dof();
        assert_eq!(q.len(), n, "compute: wrong q length");
        assert_eq!(qd.len(), n, "compute: wrong qd length");
        let frames = robot.frames(q);
        let mut jacobian = Jacobian { matrix: [0.0; 6 * MAX_BODIES], dof: n };
        let end_effector = robot.jacobian_from_frames(&frames, &mut jacobian.matrix);
        let mut mass: JointMatrix = [0.0; MAX_BODIES * MAX_BODIES];
        robot.crba(&frames, &mut mass);
        let mut bias = [0.0; MAX_BODIES];
        robot.rnea(&frames, qd, &[0.0; MAX_BODIES], &mut bias);
        let jdot_qdot = robot.jacobian_dot_qdot(q, qd);

        // The seven solves below (M⁻¹ Jᵀ column by column, then M⁻¹ h) share
        // one Cholesky factorisation of the mass matrix.
        let mut factor: JointMatrix = [0.0; MAX_BODIES * MAX_BODIES];
        dense::cholesky_factor(&mass, n, &mut factor)
            .expect("mass matrix must be positive definite");
        let mut minv_jt = [0.0; MAX_BODIES * 6]; // n×6, stride 6
        let mut rhs = [0.0; MAX_BODIES];
        let mut x = [0.0; MAX_BODIES];
        for col in 0..6 {
            rhs[..n].copy_from_slice(&jacobian.matrix[col * n..(col + 1) * n]);
            dense::cholesky_solve(&factor, n, &rhs, &mut x);
            for row in 0..n {
                minv_jt[row * 6 + col] = x[row];
            }
        }
        // Λ⁻¹ = J M⁻¹ Jᵀ  (6×6), then damped inversion.
        let mut lu = [0.0; 36];
        dense::mul_mat(&jacobian.matrix, 6, n, &minv_jt, 6, &mut lu);
        for i in 0..6 {
            lu[i * 6 + i] += self.damping;
        }
        let mut perm = [0usize; 6];
        dense::lu_factor(&mut lu, &mut perm, 6).expect("damped task-space inertia is invertible");
        let mut task_mass = [0.0; 36];
        dense::lu_inverse(&lu, &perm, 6, &mut task_mass);

        // hx = Λ (J M⁻¹ h − J̇ q̇)
        let mut minv_h = [0.0; MAX_BODIES];
        dense::cholesky_solve(&factor, n, &bias, &mut minv_h);
        let mut residual = [0.0; 6];
        dense::mul_vec(&jacobian.matrix, 6, n, &minv_h, &mut residual);
        for (r, jd) in residual.iter_mut().zip(&jdot_qdot) {
            *r -= jd;
        }
        let mut task_bias = [0.0; 6];
        dense::mul_vec(&task_mass, 6, 6, &residual, &mut task_bias);

        let mut twist = [0.0; 6];
        dense::mul_vec(&jacobian.matrix, 6, n, qd, &mut twist);
        TaskSpaceModel {
            jacobian,
            joint_mass_matrix: mass,
            joint_bias: bias,
            task_mass_matrix: task_mass,
            task_bias,
            jdot_qdot,
            end_effector: EndEffectorState {
                pose: end_effector,
                linear_velocity: Vec3::new(twist[0], twist[1], twist[2]),
                angular_velocity: Vec3::new(twist[3], twist[4], twist[5]),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panda::{panda_model, PANDA_HOME};
    use proptest::prelude::*;

    fn is_symmetric(m: &[f64], n: usize, tol: f64) -> bool {
        (0..n).all(|i| (0..i).all(|j| (m[i * n + j] - m[j * n + i]).abs() <= tol))
    }

    fn is_positive_definite(m: &[f64], n: usize) -> bool {
        dense::cholesky_factor(m, n, &mut [0.0; MAX_BODIES * MAX_BODIES]).is_ok()
    }

    fn mul_vec(m: &[f64], n: usize, x: &[f64]) -> [f64; MAX_BODIES] {
        let mut out = [0.0; MAX_BODIES];
        dense::mul_vec(m, n, n, x, &mut out);
        out
    }

    fn random_like_config(seed: usize) -> Vec<f64> {
        // Deterministic, limit-respecting configurations for tests.
        let base = [0.3, -0.5, 0.4, -1.7, 0.2, 1.4, 0.6];
        base.iter().enumerate().map(|(i, b)| b + 0.1 * ((seed + i) as f64).sin()).collect()
    }

    #[test]
    fn mass_matrix_is_symmetric_positive_definite() {
        let robot = panda_model();
        for seed in 0..5 {
            let q = random_like_config(seed);
            let m = robot.mass_matrix(&q);
            assert!(is_symmetric(&m, 7, 1e-9), "mass matrix not symmetric");
            assert!(is_positive_definite(&m, 7), "mass matrix not positive definite");
        }
    }

    #[test]
    fn rnea_and_crba_are_consistent() {
        // τ = M(q)·qdd + h(q, qd) must match RNEA exactly.
        let robot = panda_model();
        let q = random_like_config(1);
        let qd: Vec<f64> = (0..7).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        let qdd: Vec<f64> = (0..7).map(|i| 0.2 * (i as f64 - 3.0)).collect();
        let tau_rnea = robot.inverse_dynamics(&q, &qd, &qdd);
        let m = robot.mass_matrix(&q);
        let h = robot.inverse_dynamics(&q, &qd, &[0.0; 7]);
        let m_qdd = mul_vec(&m, 7, &qdd);
        for i in 0..7 {
            let tau_crba = m_qdd[i] + h[i];
            assert!(
                (tau_rnea[i] - tau_crba).abs() < 1e-8,
                "joint {i}: RNEA {} vs CRBA {}",
                tau_rnea[i],
                tau_crba
            );
        }
    }

    #[test]
    fn gravity_torques_vanish_without_gravity() {
        let mut robot = panda_model();
        robot.set_gravity(corki_math::Vec3::ZERO);
        let g = robot.gravity_torques(&PANDA_HOME);
        assert!(g.iter().all(|t| t.abs() < 1e-10));
    }

    #[test]
    fn gravity_torques_are_nonzero_under_gravity() {
        let robot = panda_model();
        let g = robot.gravity_torques(&PANDA_HOME);
        assert!(g.iter().any(|t| t.abs() > 1.0), "gravity torques suspiciously small");
    }

    #[test]
    fn forward_and_inverse_dynamics_roundtrip() {
        let robot = panda_model();
        let q = random_like_config(2);
        let qd: Vec<f64> = (0..7).map(|i| -0.05 * (i as f64 + 1.0)).collect();
        let qdd_target: Vec<f64> = (0..7).map(|i| 0.3 * ((i as f64) - 2.0)).collect();
        let tau = robot.inverse_dynamics(&q, &qd, &qdd_target);
        let qdd = robot.forward_dynamics(&q, &qd, &tau);
        for i in 0..7 {
            assert!((qdd[i] - qdd_target[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn task_space_mass_matrix_is_symmetric_positive_definite() {
        let robot = panda_model();
        let tsd = TaskSpaceDynamics::default();
        let q = random_like_config(3);
        let qd = vec![0.05; 7];
        let model = tsd.compute(&robot, &q, &qd);
        assert!(is_symmetric(&model.task_mass_matrix, 6, 1e-6));
        assert!(is_positive_definite(&model.task_mass_matrix, 6));
    }

    #[test]
    fn task_bias_matches_gravity_projection_at_rest() {
        // At rest, hx = Λ J M⁻¹ g; verify against a direct computation.
        let robot = panda_model();
        let tsd = TaskSpaceDynamics::default();
        let q = random_like_config(4);
        let qd = vec![0.0; 7];
        let model = tsd.compute(&robot, &q, &qd);
        let g = robot.gravity_torques(&q);
        let mut factor = [0.0; MAX_BODIES * MAX_BODIES];
        dense::cholesky_factor(&model.joint_mass_matrix, 7, &mut factor).unwrap();
        let mut minv_g = [0.0; 7];
        dense::cholesky_solve(&factor, 7, &g, &mut minv_g);
        let mut j_minv_g = [0.0; 6];
        dense::mul_vec(&model.jacobian.matrix, 6, 7, &minv_g, &mut j_minv_g);
        let expected = mul_vec(&model.task_mass_matrix, 6, &j_minv_g);
        for (hx, e) in model.task_bias.iter().zip(&expected) {
            assert!((hx - e).abs() < 1e-6);
        }
    }

    #[test]
    fn kinetic_energy_is_nonnegative() {
        let robot = panda_model();
        let q = random_like_config(5);
        let qd: Vec<f64> = (0..7).map(|i| 0.4 * ((i * 7 % 3) as f64 - 1.0)).collect();
        let m = robot.mass_matrix(&q);
        let m_qd = mul_vec(&m, 7, &qd);
        let ke: f64 = 0.5 * qd.iter().zip(&m_qd).map(|(a, b)| a * b).sum::<f64>();
        assert!(ke >= 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mass_matrix_spd_across_workspace(
            q in proptest::collection::vec(-1.5..1.5f64, 7)) {
            let robot = panda_model();
            let m = robot.mass_matrix(&q);
            prop_assert!(is_symmetric(&m, 7, 1e-9));
            prop_assert!(is_positive_definite(&m, 7));
        }

        #[test]
        fn rnea_linear_in_acceleration(
            q in proptest::collection::vec(-1.2..1.2f64, 7),
            qdd in proptest::collection::vec(-1.0..1.0f64, 7)) {
            // τ(q, 0, a+b) - τ(q, 0, b) == M(q)·a, exercised with b = 0.
            let robot = panda_model();
            let qd = vec![0.0; 7];
            let tau_a = robot.inverse_dynamics(&q, &qd, &qdd);
            let tau_0 = robot.inverse_dynamics(&q, &qd, &[0.0; 7]);
            let m = robot.mass_matrix(&q);
            let m_qdd = mul_vec(&m, 7, &qdd);
            for i in 0..7 {
                prop_assert!((tau_a[i] - tau_0[i] - m_qdd[i]).abs() < 1e-7);
            }
        }
    }
}
