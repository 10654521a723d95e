//! Trajectory comparison metrics (paper §5.1 "Trajectory Comparison" and
//! Fig. 11/12):
//!
//! * **Mean trajectory error** — the root-mean-square Euclidean distance
//!   between the predicted trajectory and the ground truth, sampled at the
//!   control step.
//! * **Maximum trajectory distance** — the largest per-axis deviation, which
//!   the paper reports separately for the X, Y and Z dimensions.

use crate::action::EePose;
use corki_math::Vec3;
use serde::{Deserialize, Serialize};

/// Summary statistics comparing a predicted trajectory against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrajectoryErrorStats {
    /// Root-mean-square Euclidean position error (metres).
    pub rmse: f64,
    /// Maximum absolute deviation along each axis (metres).
    pub max_distance: Vec3,
    /// Mean absolute gripper-command disagreement (fraction of steps).
    pub gripper_mismatch: f64,
    /// Number of samples compared.
    pub samples: usize,
}

impl TrajectoryErrorStats {
    /// Merges two statistics computed over disjoint sample sets.
    pub fn merge(&self, other: &TrajectoryErrorStats) -> TrajectoryErrorStats {
        let total = self.samples + other.samples;
        if total == 0 {
            return TrajectoryErrorStats::default();
        }
        let w1 = self.samples as f64;
        let w2 = other.samples as f64;
        TrajectoryErrorStats {
            rmse: (((self.rmse.powi(2) * w1) + (other.rmse.powi(2) * w2)) / (w1 + w2)).sqrt(),
            max_distance: Vec3::new(
                self.max_distance.x.max(other.max_distance.x),
                self.max_distance.y.max(other.max_distance.y),
                self.max_distance.z.max(other.max_distance.z),
            ),
            gripper_mismatch: (self.gripper_mismatch * w1 + other.gripper_mismatch * w2)
                / (w1 + w2),
            samples: total,
        }
    }
}

/// Compares two pose sequences sample-by-sample (they must have equal length).
///
/// # Panics
///
/// Panics if the sequences have different lengths or are empty.
pub fn compare_pose_sequences(
    predicted: &[EePose],
    ground_truth: &[EePose],
) -> TrajectoryErrorStats {
    assert_eq!(predicted.len(), ground_truth.len(), "compare_pose_sequences: length mismatch");
    assert!(!predicted.is_empty(), "compare_pose_sequences: empty input");
    let mut sum_sq = 0.0;
    let mut max_distance = Vec3::ZERO;
    let mut gripper_mismatches = 0usize;
    for (p, g) in predicted.iter().zip(ground_truth) {
        let diff = p.position - g.position;
        sum_sq += diff.norm_squared();
        max_distance = Vec3::new(
            max_distance.x.max(diff.x.abs()),
            max_distance.y.max(diff.y.abs()),
            max_distance.z.max(diff.z.abs()),
        );
        if p.gripper != g.gripper {
            gripper_mismatches += 1;
        }
    }
    let n = predicted.len() as f64;
    TrajectoryErrorStats {
        rmse: (sum_sq / n).sqrt(),
        max_distance,
        gripper_mismatch: gripper_mismatches as f64 / n,
        samples: predicted.len(),
    }
}

/// Per-axis traces of a rollout, used to regenerate the Fig. 12 style
/// trajectory plots (X/Y/Z value against time step).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AxisTraces {
    /// X position at each time step.
    pub x: Vec<f64>,
    /// Y position at each time step.
    pub y: Vec<f64>,
    /// Z position at each time step.
    pub z: Vec<f64>,
}

impl AxisTraces {
    /// Builds per-axis traces from a pose sequence.
    pub fn from_poses(poses: &[EePose]) -> Self {
        AxisTraces {
            x: poses.iter().map(|p| p.position.x).collect(),
            y: poses.iter().map(|p| p.position.y).collect(),
            z: poses.iter().map(|p| p.position.z).collect(),
        }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::GripperState;

    fn poses_along_x(n: usize, offset: f64) -> Vec<EePose> {
        (0..n)
            .map(|i| {
                EePose::new(
                    Vec3::new(0.3 + 0.01 * i as f64 + offset, 0.0, 0.25),
                    Vec3::ZERO,
                    GripperState::Open,
                )
            })
            .collect()
    }

    #[test]
    fn identical_sequences_have_zero_error() {
        let poses = poses_along_x(10, 0.0);
        let stats = compare_pose_sequences(&poses, &poses);
        assert_eq!(stats.rmse, 0.0);
        assert_eq!(stats.max_distance, Vec3::ZERO);
        assert_eq!(stats.gripper_mismatch, 0.0);
        assert_eq!(stats.samples, 10);
    }

    #[test]
    fn constant_offset_gives_that_rmse() {
        let a = poses_along_x(10, 0.0);
        let b = poses_along_x(10, 0.02);
        let stats = compare_pose_sequences(&a, &b);
        assert!((stats.rmse - 0.02).abs() < 1e-12);
        assert!((stats.max_distance.x - 0.02).abs() < 1e-12);
        assert_eq!(stats.max_distance.y, 0.0);
    }

    #[test]
    fn gripper_mismatch_fraction() {
        let a = poses_along_x(4, 0.0);
        let mut b = poses_along_x(4, 0.0);
        b[0].gripper = GripperState::Closed;
        b[3].gripper = GripperState::Closed;
        let stats = compare_pose_sequences(&a, &b);
        assert!((stats.gripper_mismatch - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let a = poses_along_x(3, 0.0);
        let b = poses_along_x(4, 0.0);
        let _ = compare_pose_sequences(&a, &b);
    }

    #[test]
    fn merge_combines_sample_counts_and_maxima() {
        let a = TrajectoryErrorStats {
            rmse: 0.01,
            max_distance: Vec3::new(0.02, 0.0, 0.01),
            gripper_mismatch: 0.0,
            samples: 10,
        };
        let b = TrajectoryErrorStats {
            rmse: 0.03,
            max_distance: Vec3::new(0.01, 0.05, 0.0),
            gripper_mismatch: 0.2,
            samples: 30,
        };
        let merged = a.merge(&b);
        assert_eq!(merged.samples, 40);
        assert_eq!(merged.max_distance, Vec3::new(0.02, 0.05, 0.01));
        assert!(merged.rmse > 0.01 && merged.rmse < 0.03);
        assert!((merged.gripper_mismatch - 0.15).abs() < 1e-12);
        // Merging with an empty stat is a no-op on the non-empty side.
        let empty = TrajectoryErrorStats::default();
        let same = a.merge(&empty);
        assert!((same.rmse - a.rmse).abs() < 1e-12);
    }

    #[test]
    fn axis_traces_extract_columns() {
        let poses = poses_along_x(5, 0.0);
        let traces = AxisTraces::from_poses(&poses);
        assert_eq!(traces.len(), 5);
        assert!(!traces.is_empty());
        assert!((traces.x[4] - 0.34).abs() < 1e-12);
        assert_eq!(traces.z[0], 0.25);
    }
}
