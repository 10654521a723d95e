//! The 7-dimensional end-effector action space shared by the baseline
//! (per-frame delta actions) and Corki (trajectory endpoints).

use corki_math::{Mat3, Vec3, SE3};
use serde::{Deserialize, Serialize};

/// The binary gripper command (paper Equation 1: `g` is open or closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum GripperState {
    /// Fingers open.
    #[default]
    Open,
    /// Fingers closed (grasping).
    Closed,
}

impl GripperState {
    /// Converts from the scalar convention used by the policy head
    /// (sigmoid output ≥ 0.5 means closed).
    pub fn from_logit(value: f64) -> Self {
        if value >= 0.5 {
            GripperState::Closed
        } else {
            GripperState::Open
        }
    }

    /// The scalar training target for this state (1.0 = closed, 0.0 = open).
    pub fn to_target(self) -> f64 {
        match self {
            GripperState::Closed => 1.0,
            GripperState::Open => 0.0,
        }
    }

    /// Returns `true` when the two states differ (a gripper *change*, which
    /// Algorithm 1 treats as a significant movement).
    pub fn differs(self, other: GripperState) -> bool {
        self != other
    }
}

/// A full end-effector pose sample in the 7-dimensional action space:
/// Cartesian position, XYZ Euler orientation and the gripper state.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EePose {
    /// Cartesian position (metres, robot base frame).
    pub position: Vec3,
    /// Orientation as XYZ (roll, pitch, yaw) Euler angles (radians).
    pub euler: Vec3,
    /// Gripper state.
    pub gripper: GripperState,
}

impl EePose {
    /// Creates a pose sample.
    pub fn new(position: Vec3, euler: Vec3, gripper: GripperState) -> Self {
        EePose { position, euler, gripper }
    }

    /// Converts to an [`SE3`] rigid transform (dropping the gripper bit).
    pub fn to_se3(&self) -> SE3 {
        SE3::new(Mat3::from_euler_xyz(self.euler.x, self.euler.y, self.euler.z), self.position)
    }

    /// Builds a pose sample from an [`SE3`] transform and gripper state.
    pub fn from_se3(pose: &SE3, gripper: GripperState) -> Self {
        let (roll, pitch, yaw) = pose.euler_xyz();
        EePose { position: pose.translation, euler: Vec3::new(roll, pitch, yaw), gripper }
    }

    /// The six continuous components as an array
    /// `[x, y, z, roll, pitch, yaw]`.
    pub fn to_array6(&self) -> [f64; 6] {
        [
            self.position.x,
            self.position.y,
            self.position.z,
            self.euler.x,
            self.euler.y,
            self.euler.z,
        ]
    }

    /// Builds a pose from the six continuous components and a gripper state.
    pub fn from_array6(values: [f64; 6], gripper: GripperState) -> Self {
        EePose {
            position: Vec3::new(values[0], values[1], values[2]),
            euler: Vec3::new(values[3], values[4], values[5]),
            gripper,
        }
    }

    /// Applies a per-frame delta action (the RoboFlamingo execution model,
    /// paper Equation 1) to this pose, producing the next pose.
    pub fn apply_delta(&self, delta: &DeltaAction) -> EePose {
        EePose {
            position: self.position + delta.delta_position,
            euler: self.euler + delta.delta_euler,
            gripper: delta.gripper,
        }
    }

    /// The delta action that takes `self` to `next` in one step.
    pub fn delta_to(&self, next: &EePose) -> DeltaAction {
        DeltaAction {
            delta_position: next.position - self.position,
            delta_euler: next.euler - self.euler,
            gripper: next.gripper,
        }
    }

    /// Euclidean distance between the positions of two pose samples.
    pub fn position_distance(&self, other: &EePose) -> f64 {
        self.position.distance(other.position)
    }
}

/// A single-step action in the baseline execution model
/// `(Δx, Δy, Δz, Δα, Δβ, Δγ, g)` — paper Equation 1.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaAction {
    /// Position change (metres).
    pub delta_position: Vec3,
    /// Orientation change as XYZ Euler deltas (radians).
    pub delta_euler: Vec3,
    /// Gripper command for the next step.
    pub gripper: GripperState,
}

impl DeltaAction {
    /// The identity action (no movement, gripper open).
    pub fn zero() -> Self {
        DeltaAction::default()
    }

    /// Creates a delta action.
    pub fn new(delta_position: Vec3, delta_euler: Vec3, gripper: GripperState) -> Self {
        DeltaAction { delta_position, delta_euler, gripper }
    }

    /// Builds a delta action from the seven raw policy outputs.
    pub fn from_array7(values: [f64; 7]) -> Self {
        DeltaAction {
            delta_position: Vec3::new(values[0], values[1], values[2]),
            delta_euler: Vec3::new(values[3], values[4], values[5]),
            gripper: GripperState::from_logit(values[6]),
        }
    }

    /// Magnitude of the positional part.
    pub fn position_norm(&self) -> f64 {
        self.delta_position.norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gripper_logit_roundtrip() {
        assert_eq!(GripperState::from_logit(0.9), GripperState::Closed);
        assert_eq!(GripperState::from_logit(0.1), GripperState::Open);
        assert_eq!(GripperState::Closed.to_target(), 1.0);
        assert_eq!(GripperState::Open.to_target(), 0.0);
        assert!(GripperState::Open.differs(GripperState::Closed));
        assert!(!GripperState::Open.differs(GripperState::Open));
    }

    #[test]
    fn se3_roundtrip_preserves_pose() {
        let pose =
            EePose::new(Vec3::new(0.4, -0.1, 0.3), Vec3::new(0.2, -0.5, 1.0), GripperState::Closed);
        let back = EePose::from_se3(&pose.to_se3(), pose.gripper);
        assert!((back.position - pose.position).norm() < 1e-9);
        let orig = pose.to_se3();
        let again = back.to_se3();
        assert!((orig.rotation - again.rotation).max_abs() < 1e-9);
        assert_eq!(back.gripper, GripperState::Closed);
    }

    #[test]
    fn array6_roundtrip() {
        let pose = EePose::from_array6([1.0, 2.0, 3.0, 0.1, 0.2, 0.3], GripperState::Open);
        assert_eq!(pose.to_array6(), [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]);
    }

    #[test]
    fn delta_application_and_inverse() {
        let start = EePose::new(Vec3::new(0.3, 0.0, 0.2), Vec3::ZERO, GripperState::Open);
        let delta = DeltaAction::new(
            Vec3::new(0.01, -0.02, 0.005),
            Vec3::new(0.0, 0.0, 0.05),
            GripperState::Closed,
        );
        let next = start.apply_delta(&delta);
        let recovered = start.delta_to(&next);
        assert!((recovered.delta_position - delta.delta_position).norm() < 1e-12);
        assert!((recovered.delta_euler - delta.delta_euler).norm() < 1e-12);
        assert_eq!(recovered.gripper, GripperState::Closed);
    }

    #[test]
    fn delta_array7_roundtrip() {
        let delta = DeltaAction::new(
            Vec3::new(0.01, 0.02, -0.03),
            Vec3::new(0.1, 0.0, -0.2),
            GripperState::Closed,
        );
        let back = DeltaAction::from_array7([0.01, 0.02, -0.03, 0.1, 0.0, -0.2, 0.9]);
        assert_eq!(back, delta);
        assert!(
            (delta.position_norm() - (0.01f64.powi(2) + 0.02f64.powi(2) + 0.03f64.powi(2)).sqrt())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn position_distance() {
        let a = EePose::new(Vec3::new(0.0, 0.0, 0.0), Vec3::ZERO, GripperState::Open);
        let b = EePose::new(Vec3::new(3.0, 4.0, 0.0), Vec3::ZERO, GripperState::Open);
        assert_eq!(a.position_distance(&b), 5.0);
    }
}
