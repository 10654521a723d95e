//! Pre-optimisation reference implementations of the hot paths.
//!
//! These reproduce, operation for operation, the allocating code paths the
//! zero-allocation fast path replaced: the naive sequential-sum matvec (one
//! latency-bound accumulator chain per row), the `forward_cached`-style
//! LSTM/MLP forwards that `to_vec()` and clone their intermediates on every
//! step, the per-dimension sample-buffer trajectory fit, and the
//! per-solve refactorisation of the task-space dynamics (over the live
//! dynamics kernels). The micro-bench suite times
//! them against the live implementations so every `BENCH_*.json` records the
//! speedup over the code that shipped before the fast path existed.

use corki_math::{CubicPoly, DMat, DVec};
use corki_nn::{Activation, Tensor};
use corki_policy::{Observation, OBSERVATION_DIM, TOKEN_DIM, TOKEN_WINDOW};
use corki_robot::{
    ControllerGains, EndEffectorState, JointState, RobotModel, TaskReference, TaskSpaceController,
    TaskSpaceModel,
};
use corki_trajectory::{EePose, GripperState, Trajectory, CONTROL_STEP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Hidden size of the LSTM policy head (mirrors the private constant in
/// `corki-policy`).
const HIDDEN_DIM: usize = 48;
/// Close-loop feature width (mirrors the private constant in `corki-policy`).
const CLOSE_LOOP_DIM: usize = 8;

/// The pre-optimisation logistic sigmoid (scalar libm exponential).
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The pre-optimisation matrix-vector product: one sequential accumulator
/// chain per row (`iter().zip().map().sum()`), exactly as `Tensor::matvec`
/// was written before the unrolled kernel.
pub fn naive_matvec(t: &Tensor, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), t.cols(), "naive_matvec: dimension mismatch");
    let mut out = vec![0.0; t.rows()];
    for (r, o) in out.iter_mut().enumerate() {
        let row = &t.data()[r * t.cols()..(r + 1) * t.cols()];
        *o = row.iter().zip(x).map(|(w, xi)| w * xi).sum();
    }
    out
}

/// A fully-connected layer running the naive matvec.
struct RefLinear {
    weight: Tensor,
    bias: Tensor,
}

impl RefLinear {
    fn new(input: usize, output: usize, rng: &mut impl Rng) -> Self {
        RefLinear { weight: Tensor::xavier(output, input, rng), bias: Tensor::zeros(output, 1) }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = naive_matvec(&self.weight, x);
        for (yi, b) in y.iter_mut().zip(self.bias.data()) {
            *yi += b;
        }
        y
    }
}

/// An MLP whose forward pass replicates the pre-optimisation
/// `Mlp::forward` → `forward_cached` chain: the input is `to_vec()`-ed, every
/// layer's input is cached, and every activation vector is cloned.
pub struct RefMlp {
    layers: Vec<RefLinear>,
    activation: Activation,
}

impl RefMlp {
    /// Builds an MLP with the given layer sizes.
    pub fn new(sizes: &[usize], activation: Activation, rng: &mut impl Rng) -> Self {
        let layers = sizes.windows(2).map(|w| RefLinear::new(w[0], w[1], rng)).collect();
        RefMlp { layers, activation }
    }

    /// The allocating forward pass, caches and all.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut current = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(&current);
            layer_caches.push(current.clone());
            let is_last = i + 1 == self.layers.len();
            if !is_last {
                // Pre-optimisation hidden activation: scalar libm tanh.
                for v in y.iter_mut() {
                    *v = match self.activation {
                        Activation::Tanh => v.tanh(),
                        _ => sigmoid(*v),
                    };
                }
            }
            activations.push(y.clone());
            current = y;
        }
        std::hint::black_box(&layer_caches);
        std::hint::black_box(&activations);
        current
    }
}

/// An LSTM cell whose forward step replicates the pre-optimisation
/// `forward` → `forward_cached` chain: fresh gate vectors and a cache holding
/// copies of the input and both previous states, every step.
pub struct RefLstm {
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    hidden: usize,
}

/// The (h, c) state pair of [`RefLstm`].
pub struct RefState {
    /// Hidden state.
    pub h: Vec<f64>,
    /// Cell state.
    pub c: Vec<f64>,
}

impl RefLstm {
    /// Builds a cell with the standard Xavier/forget-bias initialisation.
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let w_ih = Tensor::xavier(4 * hidden, input, rng);
        let w_hh = Tensor::xavier(4 * hidden, hidden, rng);
        let mut bias = Tensor::zeros(4 * hidden, 1);
        for i in hidden..2 * hidden {
            bias.set(i, 0, 1.0);
        }
        RefLstm { w_ih, w_hh, bias, hidden }
    }

    /// One allocating forward step, cache clones included.
    pub fn forward(&self, x: &[f64], state: &RefState) -> RefState {
        let h = self.hidden;
        let mut pre = naive_matvec(&self.w_ih, x);
        let rec = naive_matvec(&self.w_hh, &state.h);
        for (p, (r, b)) in pre.iter_mut().zip(rec.iter().zip(self.bias.data())) {
            *p += r + b;
        }
        let mut gate_i = vec![0.0; h];
        let mut gate_f = vec![0.0; h];
        let mut gate_g = vec![0.0; h];
        let mut gate_o = vec![0.0; h];
        for k in 0..h {
            gate_i[k] = sigmoid(pre[k]);
            gate_f[k] = sigmoid(pre[h + k]);
            gate_g[k] = pre[2 * h + k].tanh();
            gate_o[k] = sigmoid(pre[3 * h + k]);
        }
        let mut c_new = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for k in 0..h {
            c_new[k] = gate_f[k] * state.c[k] + gate_i[k] * gate_g[k];
            h_new[k] = gate_o[k] * c_new[k].tanh();
        }
        // The pre-optimisation cache copied the input and both previous
        // states on every step.
        let cache = (
            x.to_vec(),
            state.h.clone(),
            state.c.clone(),
            gate_i,
            gate_f,
            gate_o,
            gate_g,
            c_new.clone(),
        );
        std::hint::black_box(&cache);
        RefState { h: h_new, c: c_new }
    }
}

/// The pre-optimisation Corki policy-head inference: same network shapes as
/// the live `CorkiTrajectoryPolicy`, driven through the allocating reference
/// layers.
pub struct RefCorkiHead {
    encoder: RefMlp,
    lstm: RefLstm,
    waypoint_head: RefMlp,
    gripper_head: RefMlp,
    mask_embedding: Vec<f64>,
    token_window: VecDeque<Vec<f64>>,
    horizon: usize,
    action_scale: f64,
}

impl RefCorkiHead {
    /// Builds the reference head for the given prediction horizon.
    pub fn new(horizon: usize, rng: &mut StdRng) -> Self {
        RefCorkiHead {
            encoder: RefMlp::new(&[OBSERVATION_DIM + 1, 64, TOKEN_DIM], Activation::Tanh, rng),
            lstm: RefLstm::new(TOKEN_DIM, HIDDEN_DIM, rng),
            waypoint_head: RefMlp::new(
                &[HIDDEN_DIM + CLOSE_LOOP_DIM, 96, 6 * horizon],
                Activation::Tanh,
                rng,
            ),
            gripper_head: RefMlp::new(
                &[HIDDEN_DIM + CLOSE_LOOP_DIM, 32, horizon],
                Activation::Tanh,
                rng,
            ),
            mask_embedding: (0..TOKEN_DIM).map(|_| rng.gen_range(-0.1..0.1)).collect(),
            token_window: VecDeque::new(),
            horizon,
            action_scale: 0.02,
        }
    }

    fn push_token(&mut self, token: Vec<f64>) {
        if self.token_window.len() == TOKEN_WINDOW {
            self.token_window.pop_front();
        }
        self.token_window.push_back(token);
    }

    /// One full allocating plan: push `skipped` mask embeddings (the frames
    /// dropped while the previous trajectory executed), encode the fresh
    /// frame, run the LSTM over the window, decode the heads and fit the
    /// output trajectory with per-dimension sample buffers.
    pub fn plan(&mut self, observation: &Observation, skipped: usize) -> Trajectory {
        // Pre-optimisation mask handling: one fresh `to_vec()` per frame.
        for _ in 0..skipped {
            let mask = self.mask_embedding.to_vec();
            self.push_token(mask);
        }
        // Encode (old-style input assembly into a fresh Vec).
        let f = observation.to_features();
        let mut input = Vec::with_capacity(OBSERVATION_DIM + 1);
        input.extend_from_slice(&f);
        input.push(observation.instruction_embedding());
        let token = self.encoder.forward(&input);
        self.push_token(token);

        // LSTM over the window, one fresh state per step.
        let mut state = RefState { h: vec![0.0; HIDDEN_DIM], c: vec![0.0; HIDDEN_DIM] };
        for token in &self.token_window {
            state = self.lstm.forward(token, &state);
        }

        // Decode (fresh concat buffer, allocating head forwards).
        let close_loop_feature = vec![0.0; CLOSE_LOOP_DIM];
        let mut head_input = Vec::with_capacity(HIDDEN_DIM + CLOSE_LOOP_DIM);
        head_input.extend_from_slice(&state.h);
        head_input.extend_from_slice(&close_loop_feature);
        let raw = self.waypoint_head.forward(&head_input);
        let gripper_logits = self.gripper_head.forward(&head_input);
        let mut offsets = Vec::with_capacity(self.horizon);
        let mut cumulative = [0.0; 6];
        for step in 0..self.horizon {
            for d in 0..6 {
                cumulative[d] += raw[step * 6 + d] * self.action_scale;
            }
            offsets.push(cumulative);
        }

        // Assemble waypoints and fit with per-dimension sample buffers.
        let current = &observation.end_effector;
        let base = current.to_array6();
        let mut waypoints = Vec::with_capacity(offsets.len() + 1);
        waypoints.push(*current);
        for (offset, logit) in offsets.iter().zip(&gripper_logits) {
            let mut values = [0.0; 6];
            for d in 0..6 {
                values[d] = base[d] + offset[d];
            }
            let gripper =
                if sigmoid(*logit) >= 0.5 { GripperState::Closed } else { GripperState::Open };
            waypoints.push(EePose::from_array6(values, gripper));
        }
        reference_fit_waypoints(&waypoints, CONTROL_STEP)
    }
}

/// The pre-optimisation trajectory fit: one `Vec<(f64, f64)>` sample buffer
/// per dimension plus a freshly collected gripper schedule.
pub fn reference_fit_waypoints(waypoints: &[EePose], step: f64) -> Trajectory {
    assert!(waypoints.len() >= 2 && step > 0.0, "reference fit needs a valid waypoint sequence");
    let mut dims = [CubicPoly::zero(); 6];
    for (dim, poly) in dims.iter_mut().enumerate() {
        let samples: Vec<(f64, f64)> = waypoints
            .iter()
            .enumerate()
            .map(|(i, w)| (i as f64 * step, w.to_array6()[dim]))
            .collect();
        *poly = CubicPoly::fit_least_squares(&samples);
    }
    let gripper_schedule = waypoints[1..].iter().map(|w| w.gripper).collect();
    Trajectory::from_parts(dims, gripper_schedule, step).expect("valid by construction")
}

/// The per-column-refactorising task-space dynamics: every one of the seven
/// mass-matrix solves refactorises the matrix from scratch
/// (`solve_cholesky` per column), as `TaskSpaceDynamics::compute` did before
/// the shared factorisation.
///
/// Only that refactorisation is frozen here. The kinematics, `mass_matrix`,
/// `bias_forces` and `jacobian_dot_qdot` it calls are the live one-pass,
/// stack-buffer kernels, so this row measures what sharing the Cholesky
/// factor saves on top of today's kernels, not the speed of the code that
/// shipped before either optimisation.
pub fn reference_task_space_torque(
    robot: &RobotModel,
    state: &JointState,
    reference: &TaskReference,
    damping: f64,
    controller: &TaskSpaceController,
) -> Vec<f64> {
    let fk = robot.forward_kinematics(&state.positions);
    let jacobian = robot.jacobian_from_fk(&fk);
    let joint_mass_matrix = robot.mass_matrix(&state.positions);
    let joint_bias = robot.bias_forces(&state.positions, &state.velocities);
    let jdot_qdot = robot.jacobian_dot_qdot(&state.positions, &state.velocities);

    let jt = jacobian.transpose();
    let n = robot.dof();
    let mut minv_jt = DMat::zeros(n, 6);
    for col in 0..6 {
        let rhs: DVec = (0..n).map(|row| jt[(row, col)]).collect();
        let x = joint_mass_matrix.solve_cholesky(&rhs).expect("mass matrix is positive definite");
        for row in 0..n {
            minv_jt[(row, col)] = x[row];
        }
    }
    let mut lambda_inv = jacobian.matrix().mul_mat(&minv_jt);
    for i in 0..6 {
        lambda_inv[(i, i)] += damping;
    }
    let task_mass_matrix = lambda_inv.inverse().expect("damped inertia is invertible");

    let minv_h = joint_mass_matrix
        .solve_cholesky(&DVec::from_slice(&joint_bias))
        .expect("mass matrix is positive definite");
    let j_minv_h = jacobian.matrix().mul_vec(&minv_h);
    let mut residual = DVec::zeros(6);
    for i in 0..6 {
        residual[i] = j_minv_h[i] - jdot_qdot[i];
    }
    let hx_vec = task_mass_matrix.mul_vec(&residual);
    let mut task_bias = [0.0; 6];
    for (i, t) in task_bias.iter_mut().enumerate() {
        *t = hx_vec[i];
    }

    let (linear_velocity, angular_velocity) = jacobian.mul_qdot(&state.velocities);
    let end_effector =
        EndEffectorState { pose: fk.end_effector, linear_velocity, angular_velocity };
    let model = TaskSpaceModel {
        jacobian,
        joint_mass_matrix,
        joint_bias,
        task_mass_matrix,
        task_bias,
        jdot_qdot,
        end_effector: end_effector.clone(),
    };
    controller.compute_torque_with_model(robot, state, reference, &end_effector, &model)
}

/// Default gains used by the control-kernel benchmarks.
pub fn bench_controller() -> TaskSpaceController {
    TaskSpaceController::new(ControllerGains::default())
}

/// Deterministic RNG for building reference networks.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xC0121)
}
