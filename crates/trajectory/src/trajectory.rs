//! The cubic trajectory predicted by the Corki policy (paper §3.2).

use crate::action::{EePose, GripperState};
use crate::CONTROL_STEP;
use corki_math::{CubicPoly, Vec3};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced while constructing a [`Trajectory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrajectoryError {
    /// Fewer than two waypoints were supplied to a fit.
    TooFewWaypoints {
        /// Number of waypoints provided.
        provided: usize,
    },
    /// A non-positive duration or step was supplied.
    InvalidDuration,
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::TooFewWaypoints { provided } => {
                write!(f, "trajectory fit needs at least 2 waypoints, got {provided}")
            }
            TrajectoryError::InvalidDuration => write!(f, "trajectory duration must be positive"),
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A sample of a trajectory at a particular time: pose, velocity and
/// acceleration of the six continuous dimensions plus the gripper command.
///
/// The velocity and acceleration are exactly what the TS-CTC controller needs
/// as `ẋd` and `ẍd` (paper Equation 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySample {
    /// Pose (position + Euler orientation + gripper).
    pub pose: EePose,
    /// Linear velocity of the reference (m/s).
    pub linear_velocity: Vec3,
    /// Euler-angle rates of the reference (rad/s).
    pub euler_rates: Vec3,
    /// Linear acceleration of the reference (m/s²).
    pub linear_acceleration: Vec3,
    /// Euler-angle accelerations (rad/s²).
    pub euler_accelerations: Vec3,
}

/// A continuous near-future trajectory: one cubic polynomial per controlled
/// dimension (`x, y, z, α, β, γ`) plus a gripper schedule with one entry per
/// control step (paper Equation 4 and Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    dims: [CubicPoly; 6],
    gripper_schedule: Vec<GripperState>,
    step: f64,
    duration: f64,
}

impl Trajectory {
    /// Fits a trajectory to a sequence of waypoints spaced `step` seconds
    /// apart, starting at `waypoints[0]` (time 0).
    ///
    /// This is the supervision path of the Corki loss (Equation 5): the
    /// ground-truth trajectory is known at the camera rate and each dimension
    /// is fitted with a least-squares cubic.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::TooFewWaypoints`] with fewer than two
    /// waypoints, or [`TrajectoryError::InvalidDuration`] for a non-positive
    /// step.
    pub fn fit_waypoints(waypoints: &[EePose], step: f64) -> Result<Self, TrajectoryError> {
        let mut trajectory = Trajectory {
            dims: [CubicPoly::zero(); 6],
            gripper_schedule: Vec::with_capacity(waypoints.len().saturating_sub(1)),
            step: CONTROL_STEP,
            duration: CONTROL_STEP,
        };
        trajectory.refit_waypoints(waypoints, step)?;
        Ok(trajectory)
    }

    /// Re-fits this trajectory to a new waypoint sequence in place, reusing
    /// the gripper-schedule storage — the allocation-free fast path behind
    /// [`Trajectory::fit_waypoints`] used by the Corki inference scratch
    /// workspace. On error the trajectory is left unchanged.
    ///
    /// Bit-identical to [`Trajectory::fit_waypoints`] (the per-dimension
    /// cubics are streamed through the same normal-equation accumulation).
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::TooFewWaypoints`] with fewer than two
    /// waypoints, or [`TrajectoryError::InvalidDuration`] for a non-positive
    /// step.
    pub fn refit_waypoints(
        &mut self,
        waypoints: &[EePose],
        step: f64,
    ) -> Result<(), TrajectoryError> {
        if waypoints.len() < 2 {
            return Err(TrajectoryError::TooFewWaypoints { provided: waypoints.len() });
        }
        if step <= 0.0 {
            return Err(TrajectoryError::InvalidDuration);
        }
        for (dim, poly) in self.dims.iter_mut().enumerate() {
            *poly = CubicPoly::fit_least_squares_iter(
                waypoints.iter().enumerate().map(|(i, w)| (i as f64 * step, w.to_array6()[dim])),
            );
        }
        // The gripper schedule covers the steps *after* the starting pose.
        self.gripper_schedule.clear();
        self.gripper_schedule.extend(waypoints[1..].iter().map(|w| w.gripper));
        self.step = step;
        self.duration = step * (waypoints.len() - 1) as f64;
        Ok(())
    }

    /// Builds a smooth point-to-point trajectory from boundary conditions
    /// (start/end pose with zero end velocities), `steps` control steps long.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InvalidDuration`] if `steps` is zero or
    /// `step` is not positive.
    pub fn point_to_point(
        start: &EePose,
        end: &EePose,
        steps: usize,
        step: f64,
    ) -> Result<Self, TrajectoryError> {
        if steps == 0 || step <= 0.0 {
            return Err(TrajectoryError::InvalidDuration);
        }
        let duration = steps as f64 * step;
        let s = start.to_array6();
        let e = end.to_array6();
        let mut dims = [CubicPoly::zero(); 6];
        for i in 0..6 {
            dims[i] = CubicPoly::from_boundary_conditions(s[i], 0.0, e[i], 0.0, duration);
        }
        let gripper_schedule = vec![end.gripper; steps];
        Ok(Trajectory { dims, gripper_schedule, step, duration })
    }

    /// The per-dimension cubic polynomials, ordered `[x, y, z, α, β, γ]`.
    pub fn coefficients(&self) -> &[CubicPoly; 6] {
        &self.dims
    }

    /// Total trajectory duration (seconds).
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of control steps covered by the trajectory.
    pub fn num_steps(&self) -> usize {
        self.gripper_schedule.len()
    }

    /// The gripper schedule, one command per control step.
    pub fn gripper_schedule(&self) -> &[GripperState] {
        &self.gripper_schedule
    }

    /// The gripper command in force at time `t` (clamped to the schedule).
    pub fn gripper_at(&self, t: f64) -> GripperState {
        if self.gripper_schedule.is_empty() {
            return GripperState::Open;
        }
        let idx = (t / self.step).floor() as isize;
        let idx = idx.clamp(0, self.gripper_schedule.len() as isize - 1) as usize;
        self.gripper_schedule[idx]
    }

    /// Samples the trajectory pose at time `t` (clamped to `[0, duration]`).
    pub fn sample(&self, t: f64) -> EePose {
        let t = t.clamp(0.0, self.duration);
        let mut values = [0.0; 6];
        for (v, poly) in values.iter_mut().zip(&self.dims) {
            *v = poly.eval(t);
        }
        EePose::from_array6(values, self.gripper_at(t))
    }

    /// Samples pose, velocity and acceleration at time `t` — the full
    /// reference needed by one TS-CTC control cycle.
    pub fn sample_full(&self, t: f64) -> TrajectorySample {
        let t = t.clamp(0.0, self.duration);
        let mut pos = [0.0; 6];
        let mut vel = [0.0; 6];
        let mut acc = [0.0; 6];
        for i in 0..6 {
            pos[i] = self.dims[i].eval(t);
            vel[i] = self.dims[i].eval_derivative(t);
            acc[i] = self.dims[i].eval_second_derivative(t);
        }
        TrajectorySample {
            pose: EePose::from_array6(pos, self.gripper_at(t)),
            linear_velocity: Vec3::new(vel[0], vel[1], vel[2]),
            euler_rates: Vec3::new(vel[3], vel[4], vel[5]),
            linear_acceleration: Vec3::new(acc[0], acc[1], acc[2]),
            euler_accelerations: Vec3::new(acc[3], acc[4], acc[5]),
        }
    }

    /// The waypoints of the trajectory: one pose per control step, starting
    /// one step after `t = 0` and ending at the endpoint (paper Fig. 5:
    /// points `B..F`).
    pub fn waypoints(&self) -> Vec<EePose> {
        (1..=self.num_steps()).map(|i| self.sample(i as f64 * self.step)).collect()
    }

    /// Truncates the trajectory to the first `steps` control steps (early
    /// termination, paper §3.3). The polynomials are unchanged; only the
    /// executed horizon shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or exceeds the current number of steps.
    pub fn truncated(&self, steps: usize) -> Trajectory {
        assert!(
            steps >= 1 && steps <= self.num_steps(),
            "truncated: steps must be in 1..={}",
            self.num_steps()
        );
        Trajectory {
            dims: self.dims,
            gripper_schedule: self.gripper_schedule[..steps].to_vec(),
            step: self.step,
            duration: self.step * steps as f64,
        }
    }

    /// Convenience constructor: a trajectory that holds a single pose for
    /// `steps` control steps (used when the policy is warming up).
    pub fn hold(pose: &EePose, steps: usize) -> Trajectory {
        let values = pose.to_array6();
        let mut dims = [CubicPoly::zero(); 6];
        for (d, v) in dims.iter_mut().zip(values) {
            *d = CubicPoly::constant(v);
        }
        Trajectory {
            dims,
            gripper_schedule: vec![pose.gripper; steps.max(1)],
            step: CONTROL_STEP,
            duration: CONTROL_STEP * steps.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line_waypoints(n: usize) -> Vec<EePose> {
        (0..n)
            .map(|i| {
                EePose::new(
                    Vec3::new(0.3 + 0.01 * i as f64, -0.02 * i as f64, 0.25),
                    Vec3::new(0.0, 0.0, 0.02 * i as f64),
                    if i >= 3 { GripperState::Closed } else { GripperState::Open },
                )
            })
            .collect()
    }

    #[test]
    fn fit_interpolates_linear_waypoints_exactly() {
        let wps = line_waypoints(6);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        for (i, wp) in wps.iter().enumerate() {
            let s = traj.sample(i as f64 * CONTROL_STEP);
            assert!(s.position_distance(wp) < 1e-6, "waypoint {i} mismatch");
        }
        assert_eq!(traj.num_steps(), 5);
        assert!((traj.duration() - 5.0 * CONTROL_STEP).abs() < 1e-12);
    }

    #[test]
    fn refit_matches_fresh_fit_and_reuses_storage() {
        let first = line_waypoints(9);
        let second: Vec<EePose> = line_waypoints(6)
            .into_iter()
            .map(|mut w| {
                w.position.z += 0.05;
                w
            })
            .collect();
        let mut reused = Trajectory::fit_waypoints(&first, CONTROL_STEP).unwrap();
        let capacity_probe = reused.gripper_schedule.capacity();
        reused.refit_waypoints(&second, CONTROL_STEP).unwrap();
        let fresh = Trajectory::fit_waypoints(&second, CONTROL_STEP).unwrap();
        assert_eq!(reused, fresh);
        // Refitting to a shorter waypoint list must not shrink the buffer.
        assert_eq!(reused.gripper_schedule.capacity(), capacity_probe);
        // A failed refit leaves the trajectory untouched.
        let before = reused.clone();
        assert!(reused.refit_waypoints(&second[..1], CONTROL_STEP).is_err());
        assert!(reused.refit_waypoints(&second, -1.0).is_err());
        assert_eq!(reused, before);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        let wps = line_waypoints(1);
        assert_eq!(
            Trajectory::fit_waypoints(&wps, CONTROL_STEP),
            Err(TrajectoryError::TooFewWaypoints { provided: 1 })
        );
        let wps = line_waypoints(3);
        assert_eq!(Trajectory::fit_waypoints(&wps, 0.0), Err(TrajectoryError::InvalidDuration));
    }

    #[test]
    fn gripper_schedule_follows_waypoints() {
        let wps = line_waypoints(6);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        assert_eq!(traj.gripper_schedule().len(), 5);
        // Steps 3, 4, 5 are closed in the source waypoints.
        assert_eq!(traj.gripper_at(0.5 * CONTROL_STEP), GripperState::Open);
        assert_eq!(traj.gripper_at(4.5 * CONTROL_STEP), GripperState::Closed);
        // Clamping beyond the end keeps the last command.
        assert_eq!(traj.gripper_at(100.0), GripperState::Closed);
    }

    #[test]
    fn sample_full_derivatives_match_finite_differences() {
        let wps = line_waypoints(8);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        let t = 0.1;
        let eps = 1e-6;
        let s = traj.sample_full(t);
        let before = traj.sample(t - eps);
        let after = traj.sample(t + eps);
        let fd_vel = (after.position - before.position) / (2.0 * eps);
        assert!((s.linear_velocity - fd_vel).norm() < 1e-4);
    }

    #[test]
    fn point_to_point_hits_both_ends_with_zero_velocity() {
        let start = EePose::new(Vec3::new(0.3, 0.0, 0.3), Vec3::ZERO, GripperState::Open);
        let end =
            EePose::new(Vec3::new(0.45, -0.1, 0.2), Vec3::new(0.0, 0.0, 0.3), GripperState::Closed);
        let traj = Trajectory::point_to_point(&start, &end, 5, CONTROL_STEP).unwrap();
        assert!(traj.sample(0.0).position_distance(&start) < 1e-9);
        assert!(traj.sample(traj.duration()).position_distance(&end) < 1e-9);
        let s0 = traj.sample_full(0.0);
        let s1 = traj.sample_full(traj.duration());
        assert!(s0.linear_velocity.norm() < 1e-9);
        assert!(s1.linear_velocity.norm() < 1e-9);
        assert_eq!(traj.sample(traj.duration()).gripper, GripperState::Closed);
    }

    #[test]
    fn truncation_shortens_horizon_only() {
        let wps = line_waypoints(9);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        let short = traj.truncated(3);
        assert_eq!(short.num_steps(), 3);
        assert!((short.duration() - 3.0 * CONTROL_STEP).abs() < 1e-12);
        // Samples inside the shortened horizon agree with the original.
        let t = 2.5 * CONTROL_STEP;
        assert!(short.sample(t).position_distance(&traj.sample(t)) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn truncation_to_zero_panics() {
        let wps = line_waypoints(5);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        let _ = traj.truncated(0);
    }

    #[test]
    fn hold_trajectory_is_constant() {
        let pose =
            EePose::new(Vec3::new(0.4, 0.1, 0.3), Vec3::new(0.1, 0.0, 0.0), GripperState::Open);
        let traj = Trajectory::hold(&pose, 4);
        for i in 0..=4 {
            let t = i as f64 * CONTROL_STEP;
            assert!(traj.sample(t).position_distance(&pose) < 1e-12);
        }
        assert_eq!(traj.num_steps(), 4);
    }

    #[test]
    fn waypoints_match_sampling() {
        let wps = line_waypoints(6);
        let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
        let extracted = traj.waypoints();
        assert_eq!(extracted.len(), 5);
        for (i, w) in extracted.iter().enumerate() {
            let t = (i + 1) as f64 * CONTROL_STEP;
            assert!(w.position_distance(&traj.sample(t)) < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn fit_waypoints_is_bit_identical_to_sample_buffer_fit(
            amplitude in -0.05..0.05f64,
            n in 2usize..11) {
            // The streamed normal-equation fit must reproduce the
            // pre-optimisation path (collect per-dimension sample buffers,
            // then the slice-based least-squares fit) bit for bit.
            let wps: Vec<EePose> = (0..n)
                .map(|i| {
                    let t = i as f64;
                    EePose::new(
                        Vec3::new(0.3 + 0.01 * t, amplitude * (t * 0.9).sin(), 0.25 + amplitude * t),
                        Vec3::new(0.0, amplitude, 0.01 * t),
                        if i % 3 == 0 { GripperState::Closed } else { GripperState::Open },
                    )
                })
                .collect();
            let fast = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
            let mut reference_dims = [CubicPoly::zero(); 6];
            for (dim, poly) in reference_dims.iter_mut().enumerate() {
                let samples: Vec<(f64, f64)> = wps
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i as f64 * CONTROL_STEP, w.to_array6()[dim]))
                    .collect();
                *poly = CubicPoly::fit_least_squares(&samples);
            }
            prop_assert_eq!(fast.coefficients(), &reference_dims);
            let schedule: Vec<GripperState> = wps[1..].iter().map(|w| w.gripper).collect();
            prop_assert_eq!(fast.gripper_schedule(), &schedule[..]);
        }

        #[test]
        fn fitted_trajectory_error_is_bounded_for_smooth_motions(
            amplitude in 0.0..0.05f64,
            steps in 3usize..9) {
            // Waypoints along a gentle sine arc — the cubic fit should stay
            // within a small bound of every waypoint.
            let wps: Vec<EePose> = (0..=steps)
                .map(|i| {
                    let t = i as f64 / steps as f64;
                    EePose::new(
                        Vec3::new(0.3 + 0.1 * t, amplitude * (std::f64::consts::PI * t).sin(), 0.3),
                        Vec3::ZERO,
                        GripperState::Open,
                    )
                })
                .collect();
            let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
            for (i, wp) in wps.iter().enumerate() {
                let s = traj.sample(i as f64 * CONTROL_STEP);
                prop_assert!(s.position_distance(wp) < 0.02);
            }
        }

        #[test]
        fn sampling_is_clamped_to_duration(t in -1.0..2.0f64) {
            let wps = line_waypoints(5);
            let traj = Trajectory::fit_waypoints(&wps, CONTROL_STEP).unwrap();
            let s = traj.sample(t);
            let clamped = traj.sample(t.clamp(0.0, traj.duration()));
            prop_assert!(s.position_distance(&clamped) < 1e-12);
        }
    }
}
