//! Waypoint extraction, identification and the adaptive-trajectory-length
//! selection of paper Algorithm 1 (§3.3, Fig. 5).
//!
//! Given a predicted trajectory spanning up to `N` control steps, the
//! adaptive variant (`Corki-ADAP`) walks the waypoints `B..F` and terminates
//! the executed portion early at the first waypoint exhibiting a *significant
//! movement*:
//!
//! * a **gripper change** at the waypoint or the next one, or
//! * **high curvature**, detected by checking, for every earlier waypoint
//!   `p`, the angles `∠(p, A→P)` / `∠(p, P→A)` against 90° and the distance
//!   from `p` to the chord `A–P` against a threshold `d`.

use crate::action::EePose;
use crate::trajectory::Trajectory;
use corki_math::Vec3;
use serde::{Deserialize, Serialize};

/// Why the adaptive-length algorithm terminated where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationReason {
    /// A gripper state change was found at (or right after) the waypoint.
    GripperChange,
    /// The curvature test failed: an intermediate waypoint subtends an angle
    /// greater than 90° or lies farther than `d` from the chord.
    HighCurvature,
    /// No significant movement was found; the full prediction is executed.
    FullTrajectory,
}

/// The decision returned by [`adaptive_trajectory_length`]: how many control
/// steps of the predicted trajectory to execute and why.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaypointDecision {
    /// Number of control steps to execute (1-based, ≤ the prediction length).
    pub steps: usize,
    /// The reason the trajectory was cut (or not).
    pub reason: TerminationReason,
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveLengthConfig {
    /// Angle threshold in radians (the paper uses 90°).
    pub angle_threshold: f64,
    /// Chord-distance threshold `d` in metres.
    pub distance_threshold: f64,
    /// Minimum number of steps to execute regardless of the tests.
    pub min_steps: usize,
}

impl Default for AdaptiveLengthConfig {
    fn default() -> Self {
        AdaptiveLengthConfig {
            angle_threshold: std::f64::consts::FRAC_PI_2,
            // Half a centimetre of deviation from the chord counts as a
            // significant direction change at tabletop-manipulation scale.
            distance_threshold: 0.005,
            min_steps: 1,
        }
    }
}

/// Runs Algorithm 1 on an explicit list of waypoints.
///
/// `start` is point `A`; `waypoints` are `B..F` (one per control step) with
/// their gripper states. Returns the number of steps to execute (between
/// `config.min_steps` and `waypoints.len()`).
///
/// The paper notes the total cost of this routine is below 500 FLOPs for a
/// nine-step trajectory; the implementation is a direct transliteration of
/// the pseudo-code and keeps that property.
///
/// # Panics
///
/// Panics if `waypoints` is empty.
pub fn adaptive_trajectory_length(
    start: &EePose,
    waypoints: &[EePose],
    config: &AdaptiveLengthConfig,
) -> WaypointDecision {
    assert!(!waypoints.is_empty(), "adaptive_trajectory_length: no waypoints");
    let a = start.position;
    let mut previous_gripper = start.gripper;

    for (idx, wp) in waypoints.iter().enumerate() {
        let steps = idx + 1;
        let p = wp.position;

        // Gripper test: a change at this waypoint or the next one terminates
        // the trajectory here (Algorithm 1, lines 3-5).
        let next_gripper = waypoints.get(idx + 1).map(|w| w.gripper);
        let gripper_change_here = wp.gripper.differs(previous_gripper);
        let gripper_change_next = next_gripper.is_some_and(|g| g.differs(wp.gripper));
        if (gripper_change_here || gripper_change_next) && steps >= config.min_steps {
            return WaypointDecision { steps, reason: TerminationReason::GripperChange };
        }
        previous_gripper = wp.gripper;

        // Curvature test over every earlier waypoint p ∈ (A, P]
        // (Algorithm 1, lines 6-9).
        if steps >= config.min_steps.max(2) {
            for earlier in &waypoints[..idx] {
                if violates_curvature(a, p, earlier.position, config) {
                    return WaypointDecision { steps, reason: TerminationReason::HighCurvature };
                }
            }
        }
    }

    WaypointDecision { steps: waypoints.len(), reason: TerminationReason::FullTrajectory }
}

/// Runs Algorithm 1 on a predicted [`Trajectory`], extracting the waypoints at
/// the trajectory's own control step.
pub fn adaptive_length_for_trajectory(
    trajectory: &Trajectory,
    config: &AdaptiveLengthConfig,
) -> WaypointDecision {
    let start = trajectory.sample(0.0);
    let waypoints = trajectory.waypoints();
    adaptive_trajectory_length(&start, &waypoints, config)
}

/// Returns `true` when intermediate point `p` indicates high curvature of the
/// chord `A → P`: either of the angles `∠(p, A, P)` / `∠(p, P, A)` exceeds the
/// angle threshold, or `p` lies farther than `d` from the segment `A-P`.
fn violates_curvature(a: Vec3, end: Vec3, p: Vec3, config: &AdaptiveLengthConfig) -> bool {
    let chord = end - a;
    let chord_len = chord.norm();
    if chord_len < 1e-9 {
        // Degenerate chord: judge purely by distance from A.
        return (p - a).norm() > config.distance_threshold;
    }
    // Angle at A between (p - a) and the chord.
    let angle_at_a = angle_between(p - a, chord);
    // Angle at the endpoint between (p - end) and the reversed chord.
    let angle_at_end = angle_between(p - end, -chord);
    if angle_at_a > config.angle_threshold || angle_at_end > config.angle_threshold {
        return true;
    }
    // Distance from p to the (infinite) line A-P; with both angles below 90°
    // the projection falls inside the segment, so this is the segment
    // distance too.
    let distance = (p - a).cross(chord).norm() / chord_len;
    distance > config.distance_threshold
}

/// The unsigned angle between two vectors, in `[0, π]`; zero-length vectors
/// yield an angle of zero.
fn angle_between(u: Vec3, v: Vec3) -> f64 {
    let nu = u.norm();
    let nv = v.norm();
    if nu < 1e-12 || nv < 1e-12 {
        return 0.0;
    }
    (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0).acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::GripperState;
    use crate::CONTROL_STEP;
    use proptest::prelude::*;

    fn straight_line(n: usize) -> (EePose, Vec<EePose>) {
        let start = EePose::new(Vec3::new(0.3, 0.0, 0.3), Vec3::ZERO, GripperState::Open);
        let wps = (1..=n)
            .map(|i| {
                EePose::new(
                    Vec3::new(0.3 + 0.01 * i as f64, 0.0, 0.3),
                    Vec3::ZERO,
                    GripperState::Open,
                )
            })
            .collect();
        (start, wps)
    }

    #[test]
    fn straight_line_executes_full_trajectory() {
        let (start, wps) = straight_line(5);
        let decision = adaptive_trajectory_length(&start, &wps, &AdaptiveLengthConfig::default());
        assert_eq!(decision.steps, 5);
        assert_eq!(decision.reason, TerminationReason::FullTrajectory);
    }

    #[test]
    fn gripper_change_terminates_early() {
        let (start, mut wps) = straight_line(5);
        wps[3].gripper = GripperState::Closed;
        wps[4].gripper = GripperState::Closed;
        let decision = adaptive_trajectory_length(&start, &wps, &AdaptiveLengthConfig::default());
        // The change happens at waypoint index 3 (step 4); checking waypoint 3
        // (step 3) sees the next waypoint change, so the trajectory ends at
        // step 3.
        assert_eq!(decision.reason, TerminationReason::GripperChange);
        assert_eq!(decision.steps, 3);
    }

    #[test]
    fn sharp_turn_terminates_early() {
        // Go straight for three steps then double back: the doubled-back
        // waypoint makes earlier points subtend > 90° angles.
        let start = EePose::new(Vec3::new(0.0, 0.0, 0.0), Vec3::ZERO, GripperState::Open);
        let wps = vec![
            EePose::new(Vec3::new(0.02, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.04, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.06, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.01, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(-0.04, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
        ];
        let decision = adaptive_trajectory_length(&start, &wps, &AdaptiveLengthConfig::default());
        assert_eq!(decision.reason, TerminationReason::HighCurvature);
        assert!(decision.steps >= 2 && decision.steps <= 4, "steps = {}", decision.steps);
    }

    #[test]
    fn lateral_deviation_triggers_distance_test() {
        // A dog-leg: the path jumps sideways by more than the threshold but
        // angles stay below 90 degrees relative to a long chord.
        let start = EePose::new(Vec3::ZERO, Vec3::ZERO, GripperState::Open);
        let wps = vec![
            EePose::new(Vec3::new(0.03, 0.02, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.06, 0.02, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.09, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
            EePose::new(Vec3::new(0.20, 0.0, 0.0), Vec3::ZERO, GripperState::Open),
        ];
        let config = AdaptiveLengthConfig { distance_threshold: 0.005, ..Default::default() };
        let decision = adaptive_trajectory_length(&start, &wps, &config);
        assert_eq!(decision.reason, TerminationReason::HighCurvature);
    }

    #[test]
    fn min_steps_is_respected() {
        let (start, mut wps) = straight_line(5);
        wps[0].gripper = GripperState::Closed; // change immediately
        let config = AdaptiveLengthConfig { min_steps: 3, ..Default::default() };
        let decision = adaptive_trajectory_length(&start, &wps, &config);
        assert!(decision.steps >= 3);
    }

    #[test]
    fn trajectory_level_wrapper_matches_waypoint_level() {
        let (start, wps) = straight_line(6);
        let mut all = vec![start];
        all.extend(wps.iter().cloned());
        let traj = Trajectory::fit_waypoints(&all, CONTROL_STEP).unwrap();
        let d1 = adaptive_length_for_trajectory(&traj, &AdaptiveLengthConfig::default());
        let d2 =
            adaptive_trajectory_length(&start, &traj.waypoints(), &AdaptiveLengthConfig::default());
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic]
    fn empty_waypoints_panic() {
        let start = EePose::default();
        let _ = adaptive_trajectory_length(&start, &[], &AdaptiveLengthConfig::default());
    }

    proptest! {
        #[test]
        fn decision_steps_are_always_in_range(
            n in 1usize..9,
            dx in -0.02..0.02f64,
            dy in -0.02..0.02f64) {
            let start = EePose::new(Vec3::ZERO, Vec3::ZERO, GripperState::Open);
            let wps: Vec<EePose> = (1..=n)
                .map(|i| EePose::new(
                    Vec3::new(dx * i as f64, dy * (i as f64).powi(2), 0.0),
                    Vec3::ZERO,
                    GripperState::Open))
                .collect();
            let d = adaptive_trajectory_length(&start, &wps, &AdaptiveLengthConfig::default());
            prop_assert!(d.steps >= 1 && d.steps <= n);
        }

        #[test]
        fn straight_lines_never_trigger_curvature(
            n in 2usize..9, step in 0.001..0.05f64) {
            let start = EePose::new(Vec3::ZERO, Vec3::ZERO, GripperState::Open);
            let wps: Vec<EePose> = (1..=n)
                .map(|i| EePose::new(Vec3::new(step * i as f64, 0.0, 0.0), Vec3::ZERO, GripperState::Open))
                .collect();
            let d = adaptive_trajectory_length(&start, &wps, &AdaptiveLengthConfig::default());
            prop_assert_eq!(d.reason, TerminationReason::FullTrajectory);
            prop_assert_eq!(d.steps, n);
        }
    }
}
