//! Bit-identity of the one-pass, stack-buffer dynamics kernels against a
//! frozen copy of the dense kernels they replaced.
//!
//! `frozen` below is the earlier implementation, kept verbatim in structure:
//! a separate transform pass inside each of forward kinematics, CRBA and RNEA,
//! dense motion subspaces (`S·q̇`, `Sᵀ f` and `v × S q̇` evaluated in full),
//! heap-allocated matrix and vector temporaries, and its own copies of the
//! Cholesky, LU and matrix-product loops. The live kernels may only drop
//! products with structural zeros, so every output must match to the bit.
//! Both sides call the same libm, so the comparison holds on any host.

use corki_math::{SpatialInertia, Vec3};
use corki_robot::{
    panda, ArmSimulator, ControllerGains, EndEffectorState, JointKind, JointModel, JointState,
    Link, RobotModel, SimulatorConfig, TaskReference, TaskSpaceController, TaskSpaceDynamics,
    TaskSpaceModel,
};
use proptest::prelude::*;

mod frozen {
    use corki_math::{SpatialForce, SpatialInertia, SpatialMotion, SpatialTransform, Vec3, SE3};
    use corki_robot::{
        EndEffectorState, Jacobian, JointKind, JointState, RobotModel, SimulatorConfig,
        TaskSpaceModel, MAX_BODIES,
    };
    use std::ops::{Index, IndexMut};

    /// A heap-allocated row-major matrix, the storage of the frozen kernels.
    pub struct DMat {
        rows: usize,
        cols: usize,
        pub data: Vec<f64>,
    }

    impl DMat {
        fn zeros(rows: usize, cols: usize) -> Self {
            DMat { rows, cols, data: vec![0.0; rows * cols] }
        }
    }

    impl Index<(usize, usize)> for DMat {
        type Output = f64;
        fn index(&self, (i, j): (usize, usize)) -> &f64 {
            &self.data[i * self.cols + j]
        }
    }

    impl IndexMut<(usize, usize)> for DMat {
        fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
            &mut self.data[i * self.cols + j]
        }
    }

    /// `values` in a zero-padded fixed-size buffer.
    fn padded<const N: usize>(values: &[f64]) -> [f64; N] {
        let mut out = [0.0; N];
        out[..values.len()].copy_from_slice(values);
        out
    }

    fn subspace(kind: JointKind) -> SpatialMotion {
        match kind {
            JointKind::RevoluteZ => SpatialMotion::revolute_z(),
            JointKind::PrismaticZ => SpatialMotion::prismatic_z(),
            JointKind::Fixed => SpatialMotion::ZERO,
        }
    }

    pub fn mul_vec(m: &DMat, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m.rows];
        for i in 0..m.rows {
            let mut acc = 0.0;
            for j in 0..m.cols {
                acc += m[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    fn mul_mat(a: &DMat, b: &DMat) -> DMat {
        let mut out = DMat::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    fn cholesky_factor(m: &DMat) -> DMat {
        let n = m.rows;
        let mut l = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = m[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    assert!(sum > 0.0, "mass matrix must be positive definite");
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        l
    }

    fn cholesky_solve(l: &DMat, b: &[f64]) -> Vec<f64> {
        let n = l.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= l[(i, j)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= l[(j, i)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        x
    }

    fn inverse(m: &DMat) -> DMat {
        let n = m.rows;
        let mut a: Vec<f64> = (0..n * n).map(|idx| m[(idx / n, idx % n)]).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = a[perm[k] * n + k].abs();
            for (idx, &p) in perm.iter().enumerate().skip(k + 1) {
                let val = a[p * n + k].abs();
                if val > pivot_val {
                    pivot_val = val;
                    pivot_row = idx;
                }
            }
            assert!(pivot_val >= 1e-13, "damped task-space inertia is invertible");
            perm.swap(k, pivot_row);
            let pk = perm[k];
            for &pi in perm.iter().skip(k + 1) {
                let factor = a[pi * n + k] / a[pk * n + k];
                a[pi * n + k] = factor;
                for j in (k + 1)..n {
                    a[pi * n + j] -= factor * a[pk * n + j];
                }
            }
        }
        let mut out = DMat::zeros(n, n);
        for col in 0..n {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let mut x = vec![0.0; n];
            for i in 0..n {
                let pi = perm[i];
                let mut acc = e[pi];
                for j in 0..i {
                    acc -= a[pi * n + j] * x[j];
                }
                x[i] = acc;
            }
            for i in (0..n).rev() {
                let pi = perm[i];
                let mut acc = x[i];
                for j in (i + 1)..n {
                    acc -= a[pi * n + j] * x[j];
                }
                x[i] = acc / a[pi * n + i];
            }
            for i in 0..n {
                out[(i, col)] = x[i];
            }
        }
        out
    }

    fn forward_kinematics(robot: &RobotModel, q: &[f64]) -> Vec<SE3> {
        let mut link_poses = Vec::new();
        let mut current = SE3::identity();
        let mut qi = q.iter();
        for joint in robot.joints() {
            let value = if joint.kind.is_actuated() { *qi.next().unwrap() } else { 0.0 };
            current = current * joint.transform(value);
            link_poses.push(current);
        }
        link_poses
    }

    fn jacobian(robot: &RobotModel, q: &[f64]) -> DMat {
        let link_poses = forward_kinematics(robot, q);
        let p_ee = link_poses.last().unwrap().translation;
        let mut matrix = DMat::zeros(6, robot.dof());
        let mut col = 0usize;
        for (body, joint) in robot.joints().iter().enumerate() {
            if !joint.kind.is_actuated() {
                continue;
            }
            let pose = &link_poses[body];
            let axis = pose.rotation.col(2);
            match joint.kind {
                JointKind::RevoluteZ => {
                    let linear = axis.cross(p_ee - pose.translation);
                    for i in 0..3 {
                        matrix[(i, col)] = linear[i];
                        matrix[(i + 3, col)] = axis[i];
                    }
                }
                JointKind::PrismaticZ => {
                    for i in 0..3 {
                        matrix[(i, col)] = axis[i];
                        matrix[(i + 3, col)] = 0.0;
                    }
                }
                JointKind::Fixed => unreachable!(),
            }
            col += 1;
        }
        matrix
    }

    fn jacobian_dot_qdot(robot: &RobotModel, q: &[f64], qd: &[f64]) -> [f64; 6] {
        let eps = 1e-6;
        let q_plus: Vec<f64> = q.iter().zip(qd).map(|(qi, di)| qi + eps * di).collect();
        let q_minus: Vec<f64> = q.iter().zip(qd).map(|(qi, di)| qi - eps * di).collect();
        let v_plus = mul_vec(&jacobian(robot, &q_plus), qd);
        let v_minus = mul_vec(&jacobian(robot, &q_minus), qd);
        let mut out = [0.0; 6];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (v_plus[i] - v_minus[i]) / (2.0 * eps);
        }
        out
    }

    pub fn inverse_dynamics(robot: &RobotModel, q: &[f64], qd: &[f64], qdd: &[f64]) -> Vec<f64> {
        let n = robot.num_bodies();
        let mut xforms = Vec::new();
        let mut subspaces = Vec::new();
        let mut velocities = vec![SpatialMotion::ZERO; n];
        let mut accelerations = vec![SpatialMotion::ZERO; n];
        let mut forces = vec![SpatialForce::ZERO; n];
        let base_acceleration = SpatialMotion::new(Vec3::ZERO, -robot.gravity());
        let mut dof_idx = 0usize;
        for (i, joint) in robot.joints().iter().enumerate() {
            let (qi, qdi, qddi) = if joint.kind.is_actuated() {
                dof_idx += 1;
                (q[dof_idx - 1], qd[dof_idx - 1], qdd[dof_idx - 1])
            } else {
                (0.0, 0.0, 0.0)
            };
            let x = SpatialTransform::from_pose(&joint.transform(qi));
            let s = subspace(joint.kind);
            let v_joint = s * qdi;
            let (v_parent, a_parent) = if i == 0 {
                (SpatialMotion::ZERO, base_acceleration)
            } else {
                (velocities[i - 1], accelerations[i - 1])
            };
            let v = x.apply_motion(&v_parent) + v_joint;
            let a = x.apply_motion(&a_parent) + s * qddi + v.cross_motion(&v_joint);
            let inertia = &robot.links()[i].inertia;
            let momentum = inertia.apply(&v);
            forces[i] = inertia.apply(&a) + v.cross_force(&momentum);
            velocities[i] = v;
            accelerations[i] = a;
            xforms.push(x);
            subspaces.push(s);
        }
        let mut tau = vec![0.0; robot.dof()];
        let mut dof_idx = robot.dof();
        for i in (0..n).rev() {
            if robot.joints()[i].kind.is_actuated() {
                dof_idx -= 1;
                tau[dof_idx] = subspaces[i].dot_force(&forces[i]);
            }
            if i > 0 {
                let to_parent = xforms[i].inv_apply_force(&forces[i]);
                forces[i - 1] += to_parent;
            }
        }
        tau
    }

    pub fn mass_matrix(robot: &RobotModel, q: &[f64]) -> DMat {
        let dof = robot.dof();
        let n = robot.num_bodies();
        let mut poses_in_parent = Vec::new();
        let mut xforms = Vec::new();
        let mut subspaces = Vec::new();
        let mut column_of_body = vec![None; n];
        let mut dof_idx = 0usize;
        for (i, joint) in robot.joints().iter().enumerate() {
            let qi = if joint.kind.is_actuated() {
                column_of_body[i] = Some(dof_idx);
                dof_idx += 1;
                q[dof_idx - 1]
            } else {
                0.0
            };
            let pose = joint.transform(qi);
            xforms.push(SpatialTransform::from_pose(&pose));
            poses_in_parent.push(pose);
            subspaces.push(subspace(joint.kind));
        }
        let mut composite: Vec<SpatialInertia> = robot.links().iter().map(|l| l.inertia).collect();
        for i in (1..n).rev() {
            let in_parent = composite[i].expressed_in_parent(&poses_in_parent[i]);
            composite[i - 1] = composite[i - 1].combine(&in_parent);
        }
        let mut m = DMat::zeros(dof, dof);
        for i in 0..n {
            let Some(col_i) = column_of_body[i] else { continue };
            let mut f = composite[i].apply(&subspaces[i]);
            m[(col_i, col_i)] = subspaces[i].dot_force(&f);
            let mut j = i;
            while j > 0 {
                f = xforms[j].inv_apply_force(&f);
                j -= 1;
                if let Some(col_j) = column_of_body[j] {
                    let value = subspaces[j].dot_force(&f);
                    m[(col_i, col_j)] = value;
                    m[(col_j, col_i)] = value;
                }
            }
        }
        m
    }

    pub fn forward_dynamics(robot: &RobotModel, q: &[f64], qd: &[f64], tau: &[f64]) -> Vec<f64> {
        let m = mass_matrix(robot, q);
        let h = inverse_dynamics(robot, q, qd, &vec![0.0; robot.dof()]);
        let rhs: Vec<f64> = tau.iter().zip(&h).map(|(t, hi)| t - hi).collect();
        cholesky_solve(&cholesky_factor(&m), &rhs)
    }

    pub fn compute(damping: f64, robot: &RobotModel, q: &[f64], qd: &[f64]) -> TaskSpaceModel {
        let link_poses = forward_kinematics(robot, q);
        let end_effector = *link_poses.last().unwrap();
        let jac = jacobian(robot, q);
        let joint_mass_matrix = mass_matrix(robot, q);
        let joint_bias = inverse_dynamics(robot, q, qd, &vec![0.0; robot.dof()]);
        let jdot_qdot = jacobian_dot_qdot(robot, q, qd);

        let factor = cholesky_factor(&joint_mass_matrix);
        let n = robot.dof();
        let mut minv_jt = DMat::zeros(n, 6);
        for col in 0..6 {
            let rhs: Vec<f64> = (0..n).map(|row| jac[(col, row)]).collect();
            let x = cholesky_solve(&factor, &rhs);
            for row in 0..n {
                minv_jt[(row, col)] = x[row];
            }
        }
        let mut lambda_inv = mul_mat(&jac, &minv_jt);
        for i in 0..6 {
            lambda_inv[(i, i)] += damping;
        }
        let task_mass_matrix = inverse(&lambda_inv);

        let minv_h = cholesky_solve(&factor, &joint_bias);
        let mut residual = mul_vec(&jac, &minv_h);
        for (r, jd) in residual.iter_mut().zip(&jdot_qdot) {
            *r -= jd;
        }
        let hx = mul_vec(&task_mass_matrix, &residual);
        let mut task_bias = [0.0; 6];
        for (i, t) in task_bias.iter_mut().enumerate() {
            *t = hx[i];
        }
        let v = mul_vec(&jac, qd);
        TaskSpaceModel {
            jacobian: Jacobian { matrix: padded(&jac.data), dof: n },
            joint_mass_matrix: padded(&joint_mass_matrix.data),
            joint_bias: padded::<MAX_BODIES>(&joint_bias),
            task_mass_matrix: padded(&task_mass_matrix.data),
            task_bias,
            jdot_qdot,
            end_effector: EndEffectorState {
                pose: end_effector,
                linear_velocity: Vec3::new(v[0], v[1], v[2]),
                angular_velocity: Vec3::new(v[3], v[4], v[5]),
            },
        }
    }

    /// `ArmSimulator::step` as it was: semi-implicit Euler substeps with the
    /// effort, velocity and position limits applied through allocated copies.
    pub fn step(
        robot: &RobotModel,
        config: &SimulatorConfig,
        state: &mut JointState,
        torque: &[f64],
        duration: f64,
    ) {
        let mut remaining = duration;
        while remaining > 1e-12 {
            let dt = remaining.min(config.physics_dt);
            let mut applied = torque.to_vec();
            if config.enforce_effort_limits {
                for (t, limit) in applied.iter_mut().zip(robot.effort_limits()) {
                    *t = t.clamp(-limit, limit);
                }
            }
            for (t, qd) in applied.iter_mut().zip(&state.velocities) {
                *t -= config.joint_friction * qd;
            }
            let qdd = forward_dynamics(robot, &state.positions, &state.velocities, &applied);
            for (v, a) in state.velocities.iter_mut().zip(&qdd) {
                *v += a * dt;
            }
            for (v, limit) in state.velocities.iter_mut().zip(robot.velocity_limits()) {
                if limit > 0.0 {
                    *v = v.clamp(-limit, limit);
                }
            }
            for (p, v) in state.positions.iter_mut().zip(&state.velocities) {
                *p += v * dt;
            }
            if config.enforce_position_limits {
                let clamped = robot.clamp_positions(&state.positions);
                let joints = state.positions.iter_mut().zip(state.velocities.iter_mut());
                for ((p, v), c) in joints.zip(&clamped) {
                    if (c - *p).abs() > 1e-12 {
                        *p = *c;
                        *v = 0.0;
                    }
                }
            }
            remaining -= dt;
        }
    }
}

/// A five-DoF chain that keeps the dense branch covered: a prismatic joint,
/// an interior fixed joint between two revolute ones, and a fixed tip.
fn mixed_chain() -> RobotModel {
    let body = |mass: f64, com: Vec3| {
        SpatialInertia::new(mass, com, corki_math::Mat3::diagonal(Vec3::new(0.02, 0.03, 0.01)))
    };
    let prismatic = JointModel {
        kind: JointKind::PrismaticZ,
        position_min: -0.5,
        position_max: 0.5,
        velocity_limit: 1.0,
        effort_limit: 200.0,
        ..JointModel::fixed("lift", 0.0, 0.1, 0.0, 0.0)
    };
    let joints = vec![
        JointModel::revolute("j1", 0.0, 0.3, 0.0, -2.9, 2.9, 2.0, 80.0),
        prismatic,
        JointModel::revolute("j3", 0.1, 0.0, -std::f64::consts::FRAC_PI_2, -2.0, 2.0, 2.0, 60.0),
        JointModel::fixed("spacer", 0.05, 0.12, 0.3, 0.2),
        JointModel::revolute("j4", 0.2, 0.05, std::f64::consts::FRAC_PI_2, -2.5, 2.5, 2.5, 40.0),
        JointModel::revolute("j5", 0.0, 0.15, -0.4, -2.5, 2.5, 2.5, 20.0),
        JointModel::fixed("tip", 0.0, 0.1, 0.0, 0.0),
    ];
    let links = vec![
        Link::new("l1", body(3.0, Vec3::new(0.0, 0.02, -0.1))),
        Link::new("l2", body(2.0, Vec3::new(0.01, 0.0, 0.05))),
        Link::new("l3", body(1.5, Vec3::new(0.05, -0.02, 0.0))),
        Link::new("spacer", body(0.4, Vec3::new(0.0, 0.0, 0.03))),
        Link::new("l4", body(1.0, Vec3::new(0.08, 0.01, 0.02))),
        Link::new("l5", body(0.6, Vec3::new(0.0, 0.0, 0.06))),
        Link::new("tip", body(0.2, Vec3::new(0.0, 0.01, 0.02))),
    ];
    RobotModel::new("mixed", joints, links).unwrap()
}

fn assert_bits(what: &str, live: &[f64], frozen: &[f64]) {
    assert_eq!(live.len(), frozen.len(), "{what}: length");
    for (i, (a, b)) in live.iter().zip(frozen).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: live {a:e} vs frozen {b:e}");
    }
}

fn vec3_bits(v: Vec3) -> [f64; 3] {
    [v.x, v.y, v.z]
}

fn end_effector_bits(e: &EndEffectorState) -> Vec<f64> {
    let mut out: Vec<f64> = e.pose.rotation.m.iter().flatten().copied().collect();
    out.extend(vec3_bits(e.pose.translation));
    out.extend(vec3_bits(e.linear_velocity));
    out.extend(vec3_bits(e.angular_velocity));
    out
}

fn assert_models_match(live: &TaskSpaceModel, frozen: &TaskSpaceModel) {
    assert_eq!(live.jacobian.dof, frozen.jacobian.dof);
    assert_bits("jacobian", &live.jacobian.matrix, &frozen.jacobian.matrix);
    assert_bits("joint_mass_matrix", &live.joint_mass_matrix, &frozen.joint_mass_matrix);
    assert_bits("joint_bias", &live.joint_bias, &frozen.joint_bias);
    assert_bits("task_mass_matrix", &live.task_mass_matrix, &frozen.task_mass_matrix);
    assert_bits("task_bias", &live.task_bias, &frozen.task_bias);
    assert_bits("jdot_qdot", &live.jdot_qdot, &frozen.jdot_qdot);
    assert_bits(
        "end_effector",
        &end_effector_bits(&live.end_effector),
        &end_effector_bits(&frozen.end_effector),
    );
}

fn check_state(robot: &RobotModel, q: &[f64], qd: &[f64], tau: &[f64]) {
    assert_bits(
        "qdd",
        &robot.forward_dynamics(q, qd, tau),
        &frozen::forward_dynamics(robot, q, qd, tau),
    );
    let dof = robot.dof();
    assert_bits(
        "mass_matrix",
        &robot.mass_matrix(q)[..dof * dof],
        &frozen::mass_matrix(robot, q).data,
    );
    assert_bits(
        "inverse_dynamics",
        &robot.inverse_dynamics(q, qd, tau),
        &frozen::inverse_dynamics(robot, q, qd, tau),
    );
    let tsd = TaskSpaceDynamics::default();
    assert_models_match(&tsd.compute(robot, q, qd), &frozen::compute(tsd.damping, robot, q, qd));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn panda_kernels_match_the_frozen_dense_kernels(
        q in proptest::collection::vec(-1.5..1.5f64, 7),
        qd in proptest::collection::vec(-2.0..2.0f64, 7),
        tau in proptest::collection::vec(-60.0..60.0f64, 7)) {
        check_state(&panda::panda_model(), &q, &qd, &tau);
    }

    #[test]
    fn mixed_chain_kernels_match_the_frozen_dense_kernels(
        q in proptest::collection::vec(-1.5..1.5f64, 5),
        qd in proptest::collection::vec(-2.0..2.0f64, 5),
        tau in proptest::collection::vec(-60.0..60.0f64, 5)) {
        check_state(&mixed_chain(), &q, &qd, &tau);
    }
}

#[test]
fn kernels_match_at_rest_and_without_gravity() {
    // Exact zeros in q̇ (and in g) are where dropped products could differ
    // in the sign of a zero.
    let mut robot = panda::panda_model();
    let q = panda::PANDA_HOME;
    check_state(&robot, &q, &[0.0; 7], &[0.0; 7]);
    robot.set_gravity(Vec3::ZERO);
    check_state(&robot, &q, &[0.0; 7], &[1.0; 7]);
    check_state(&mixed_chain(), &[0.0; 5], &[0.0; 5], &[0.0; 5]);
}

/// One second of closed-loop TS-CTC at 100 Hz: a live `ArmSimulator` driven
/// by the live controller against the frozen integrator driven by the frozen
/// `compute`. Every state must match bit for bit.
fn closed_loop_matches(robot: RobotModel, start: Vec<f64>, offset: Vec3) {
    let config = SimulatorConfig::default();
    let controller = TaskSpaceController::new(ControllerGains::default());
    let mut live = ArmSimulator::new(robot.clone(), config);
    live.reset(JointState::at_rest(start.clone()));
    let frozen_start = start.clone();
    let mut frozen_state = JointState::at_rest(start);
    let mut target = robot.forward_kinematics(live.state().positions.as_slice());
    target.translation += offset;
    let reference = TaskReference::hold(target);
    let mut tau = vec![0.0; robot.dof()];
    let mut frozen_tau = vec![0.0; robot.dof()];
    for cycle in 0..100 {
        controller.compute_torque(live.robot(), live.state(), &reference, &mut tau);
        live.step(&tau, 0.01);

        let model =
            frozen::compute(1e-6, &robot, &frozen_state.positions, &frozen_state.velocities);
        controller.compute_torque_with_model(
            &robot,
            &frozen_state,
            &reference,
            &model,
            &mut frozen_tau,
        );
        assert_bits(&format!("tau at cycle {cycle}"), &tau, &frozen_tau);
        frozen::step(&robot, &config, &mut frozen_state, &frozen_tau, 0.01);
        assert_bits(
            &format!("q at cycle {cycle}"),
            &live.state().positions,
            &frozen_state.positions,
        );
        assert_bits(
            &format!("qd at cycle {cycle}"),
            &live.state().velocities,
            &frozen_state.velocities,
        );
    }
    let moved = live.state().positions.iter().zip(&frozen_start).any(|(p, s)| p != s);
    assert!(moved, "the controller should have moved the arm");
    assert!(live.state().positions.iter().chain(&live.state().velocities).all(|x| x.is_finite()));
}

#[test]
fn closed_loop_panda_matches_bit_for_bit() {
    closed_loop_matches(
        panda::panda_model(),
        panda::PANDA_HOME.to_vec(),
        Vec3::new(0.08, -0.05, -0.04),
    );
}

#[test]
fn closed_loop_mixed_chain_matches_bit_for_bit() {
    closed_loop_matches(
        mixed_chain(),
        vec![0.2, 0.1, -0.6, 0.9, 0.3],
        Vec3::new(0.03, 0.02, -0.03),
    );
}

#[test]
fn frozen_forward_dynamics_inverts_frozen_rnea() {
    // The reference is physics, not a copy of whatever the live code does:
    // M q̈ + h must give back the applied torque.
    let robot = panda::panda_model();
    let (q, qd, tau) = (panda::PANDA_HOME, [0.1; 7], [2.0; 7]);
    let qdd = frozen::forward_dynamics(&robot, &q, &qd, &tau);
    let m_qdd = frozen::mul_vec(&frozen::mass_matrix(&robot, &q), &qdd);
    let h = frozen::inverse_dynamics(&robot, &q, &qd, &[0.0; 7]);
    for i in 0..7 {
        assert!((m_qdd[i] + h[i] - tau[i]).abs() < 1e-9, "joint {i}");
    }
}
