//! Robot model description: joints, links and the kinematic chain.

use corki_math::{SpatialInertia, SE3};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The most bodies (actuated and fixed) a [`RobotModel`] may have: the
/// dynamics kernels keep every per-body and per-joint quantity in stack
/// buffers of this length, so a control cycle never touches the heap. The
/// Panda has nine.
pub const MAX_BODIES: usize = 12;

/// The kind of a joint in the kinematic chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JointKind {
    /// Rotation about the local Z axis (all seven Panda joints).
    RevoluteZ,
    /// Translation along the local Z axis.
    PrismaticZ,
    /// A rigid connection contributing no degree of freedom (e.g. the flange
    /// and the gripper body).
    Fixed,
}

impl JointKind {
    /// Returns `true` for joints that contribute a degree of freedom.
    pub fn is_actuated(self) -> bool {
        !matches!(self, JointKind::Fixed)
    }
}

/// A single joint: its kind, limits and the modified-DH frame placement of the
/// link it drives (relative to the previous link frame, before the joint
/// variable is applied).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointModel {
    /// Human-readable joint name.
    pub name: String,
    /// Joint kind.
    pub kind: JointKind,
    /// Modified-DH link length `a_{i-1}` in metres.
    pub a: f64,
    /// Modified-DH link offset `d_i` in metres.
    pub d: f64,
    /// Modified-DH link twist `α_{i-1}` in radians.
    pub alpha: f64,
    /// Fixed joint-angle offset `θ_offset` added to the joint variable.
    pub theta_offset: f64,
    /// Lower position limit (radians or metres).
    pub position_min: f64,
    /// Upper position limit (radians or metres).
    pub position_max: f64,
    /// Velocity limit magnitude (rad/s or m/s).
    pub velocity_limit: f64,
    /// Torque/force limit magnitude (N·m or N).
    pub effort_limit: f64,
}

impl JointModel {
    /// Convenience constructor for a revolute modified-DH joint.
    #[allow(clippy::too_many_arguments)]
    pub fn revolute(
        name: &str,
        a: f64,
        d: f64,
        alpha: f64,
        position_min: f64,
        position_max: f64,
        velocity_limit: f64,
        effort_limit: f64,
    ) -> Self {
        JointModel {
            name: name.to_owned(),
            kind: JointKind::RevoluteZ,
            a,
            d,
            alpha,
            theta_offset: 0.0,
            position_min,
            position_max,
            velocity_limit,
            effort_limit,
        }
    }

    /// Convenience constructor for a fixed (0-DoF) joint.
    pub fn fixed(name: &str, a: f64, d: f64, alpha: f64, theta_offset: f64) -> Self {
        JointModel {
            name: name.to_owned(),
            kind: JointKind::Fixed,
            a,
            d,
            alpha,
            theta_offset,
            position_min: 0.0,
            position_max: 0.0,
            velocity_limit: 0.0,
            effort_limit: 0.0,
        }
    }

    /// The pose of the driven link frame in the parent link frame for joint
    /// variable `q` (ignored for fixed joints).
    pub fn transform(&self, q: f64) -> SE3 {
        let theta = match self.kind {
            JointKind::RevoluteZ => self.theta_offset + q,
            JointKind::PrismaticZ | JointKind::Fixed => self.theta_offset,
        };
        let d = match self.kind {
            JointKind::PrismaticZ => self.d + q,
            JointKind::RevoluteZ | JointKind::Fixed => self.d,
        };
        SE3::from_mdh(self.a, d, self.alpha, theta)
    }

    /// Clamps a joint position into its limits.
    pub fn clamp_position(&self, q: f64) -> f64 {
        if self.kind == JointKind::Fixed {
            return q;
        }
        q.max(self.position_min).min(self.position_max)
    }
}

/// A rigid link with its inertial parameters expressed in the link frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Human-readable link name.
    pub name: String,
    /// Spatial inertia of the link expressed in the link frame.
    pub inertia: SpatialInertia,
}

impl Link {
    /// Creates a link from a name and inertia.
    pub fn new(name: &str, inertia: SpatialInertia) -> Self {
        Link { name: name.to_owned(), inertia }
    }
}

/// Errors produced by [`RobotModel`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RobotError {
    /// The model definition is inconsistent (e.g. no actuated joints).
    InvalidModel(String),
}

impl fmt::Display for RobotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobotError::InvalidModel(msg) => write!(f, "invalid robot model: {msg}"),
        }
    }
}

impl std::error::Error for RobotError {}

/// A serial-chain robot model: an alternating sequence of joints and the links
/// they drive, rooted at a fixed base.
///
/// The Franka Emika Panda model used throughout the paper reproduction is
/// constructed by [`crate::panda::panda_model`]. Deserialisation goes through
/// the same checks as [`RobotModel::new`].
#[derive(Debug, Clone, Serialize)]
pub struct RobotModel {
    name: String,
    joints: Vec<JointModel>,
    links: Vec<Link>,
    gravity: corki_math::Vec3,
}

impl RobotModel {
    /// Builds a robot model from joints and links.
    ///
    /// # Errors
    ///
    /// Returns [`RobotError::InvalidModel`] if the numbers of joints and links
    /// differ, the chain has more than [`MAX_BODIES`] bodies or no joint is
    /// actuated.
    pub fn new(name: &str, joints: Vec<JointModel>, links: Vec<Link>) -> Result<Self, RobotError> {
        if joints.len() != links.len() {
            return Err(RobotError::InvalidModel(format!(
                "{} joints but {} links",
                joints.len(),
                links.len()
            )));
        }
        if joints.len() > MAX_BODIES {
            return Err(RobotError::InvalidModel(format!(
                "{} bodies, at most {MAX_BODIES} supported",
                joints.len()
            )));
        }
        if !joints.iter().any(|j| j.kind.is_actuated()) {
            return Err(RobotError::InvalidModel("model has no actuated joints".to_owned()));
        }
        Ok(RobotModel {
            name: name.to_owned(),
            joints,
            links,
            gravity: corki_math::Vec3::new(0.0, 0.0, -9.81),
        })
    }

    /// The robot's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actuated degrees of freedom.
    pub fn dof(&self) -> usize {
        self.joints.iter().filter(|j| j.kind.is_actuated()).count()
    }

    /// Total number of bodies (actuated and fixed) in the chain.
    pub fn num_bodies(&self) -> usize {
        self.joints.len()
    }

    /// All joints in chain order (including fixed ones).
    pub fn joints(&self) -> &[JointModel] {
        &self.joints
    }

    /// All links in chain order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Gravity vector in the base frame (default `(0, 0, -9.81)` m/s²).
    pub fn gravity(&self) -> corki_math::Vec3 {
        self.gravity
    }

    /// Overrides the gravity vector (used in tests for zero-gravity checks).
    pub fn set_gravity(&mut self, gravity: corki_math::Vec3) {
        self.gravity = gravity;
    }

    /// The actuated joints, in order (one per degree of freedom).
    pub(crate) fn actuated_joints(&self) -> impl Iterator<Item = &JointModel> {
        self.joints.iter().filter(|j| j.kind.is_actuated())
    }

    /// Clamps a joint-position vector into the joint limits.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` does not match the robot's DoF.
    pub fn clamp_positions(&self, q: &[f64]) -> Vec<f64> {
        assert_eq!(q.len(), self.dof(), "clamp_positions: wrong DoF");
        self.actuated_joints().zip(q).map(|(joint, qi)| joint.clamp_position(*qi)).collect()
    }

    /// Returns per-joint effort (torque) limits for the actuated joints.
    pub fn effort_limits(&self) -> Vec<f64> {
        self.actuated_joints().map(|j| j.effort_limit).collect()
    }

    /// Returns per-joint velocity limits for the actuated joints.
    pub fn velocity_limits(&self) -> Vec<f64> {
        self.actuated_joints().map(|j| j.velocity_limit).collect()
    }
}

impl Deserialize for RobotModel {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        /// The serialised fields, validated by [`RobotModel::new`] before
        /// they become a model.
        #[derive(Deserialize)]
        struct Fields {
            name: String,
            joints: Vec<JointModel>,
            links: Vec<Link>,
            gravity: corki_math::Vec3,
        }
        let fields = Fields::from_value(value)?;
        let mut robot = RobotModel::new(&fields.name, fields.joints, fields.links)
            .map_err(serde::Error::custom)?;
        robot.gravity = fields.gravity;
        Ok(robot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corki_math::{Mat3, SpatialInertia, Vec3};

    fn two_link() -> RobotModel {
        let joints = vec![
            JointModel::revolute("j1", 0.0, 0.0, 0.0, -3.0, 3.0, 2.0, 50.0),
            JointModel::revolute("j2", 0.3, 0.0, 0.0, -2.0, 2.0, 2.0, 50.0),
        ];
        let links = vec![
            Link::new(
                "l1",
                SpatialInertia::new(1.0, Vec3::new(0.15, 0.0, 0.0), Mat3::identity() * 0.01),
            ),
            Link::new(
                "l2",
                SpatialInertia::new(0.5, Vec3::new(0.1, 0.0, 0.0), Mat3::identity() * 0.005),
            ),
        ];
        RobotModel::new("two-link", joints, links).unwrap()
    }

    #[test]
    fn dof_counts_actuated_joints_only() {
        let mut joints = two_link().joints().to_vec();
        joints.push(JointModel::fixed("flange", 0.0, 0.1, 0.0, 0.0));
        let mut links = two_link().links().to_vec();
        links.push(Link::new("flange", SpatialInertia::zero()));
        let robot = RobotModel::new("with-flange", joints, links).unwrap();
        assert_eq!(robot.dof(), 2);
        assert_eq!(robot.num_bodies(), 3);
    }

    #[test]
    fn mismatched_joints_and_links_rejected() {
        let joints = vec![JointModel::revolute("j1", 0.0, 0.0, 0.0, -1.0, 1.0, 1.0, 1.0)];
        let links = vec![];
        assert!(matches!(RobotModel::new("bad", joints, links), Err(RobotError::InvalidModel(_))));
    }

    #[test]
    fn oversized_chain_rejected() {
        let joints = vec![JointModel::revolute("j", 0.0, 0.1, 0.0, -1.0, 1.0, 1.0, 1.0); 13];
        let links = vec![Link::new("l", SpatialInertia::zero()); 13];
        let err = RobotModel::new("long", joints, links).unwrap_err();
        assert!(err.to_string().contains("13 bodies"), "{err}");
    }

    #[test]
    fn deserialisation_round_trips_and_validates() {
        let robot = two_link();
        let back = RobotModel::from_value(&robot.to_value()).unwrap();
        assert_eq!(back.joints().len(), 2);
        assert_eq!(back.gravity(), robot.gravity());
        assert_eq!(back.name(), "two-link");

        let mut value = robot.to_value();
        if let serde::Value::Object(map) = &mut value {
            map.insert("links".to_owned(), serde::Value::Array(Vec::new()));
        }
        let err = RobotModel::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("2 joints but 0 links"), "{err}");
    }

    #[test]
    fn all_fixed_joints_rejected() {
        let joints = vec![JointModel::fixed("f", 0.0, 0.0, 0.0, 0.0)];
        let links = vec![Link::new("l", SpatialInertia::zero())];
        assert!(RobotModel::new("bad", joints, links).is_err());
    }

    #[test]
    fn clamp_positions_respects_limits() {
        let robot = two_link();
        let clamped = robot.clamp_positions(&[10.0, -10.0]);
        assert_eq!(clamped, vec![3.0, -2.0]);
    }

    #[test]
    fn revolute_transform_rotates_about_z() {
        let joint = JointModel::revolute("j", 0.0, 0.0, 0.0, -3.0, 3.0, 1.0, 1.0);
        let t = joint.transform(0.5);
        let expected = corki_math::Mat3::rotation_z(0.5);
        assert!((t.rotation - expected).max_abs() < 1e-12);
    }

    #[test]
    fn fixed_transform_ignores_q() {
        let joint = JointModel::fixed("f", 0.1, 0.2, 0.0, 0.3);
        assert_eq!(joint.transform(123.0), joint.transform(0.0));
    }

    #[test]
    fn effort_and_velocity_limits_exposed() {
        let robot = two_link();
        assert_eq!(robot.effort_limits(), vec![50.0, 50.0]);
        assert_eq!(robot.velocity_limits(), vec![2.0, 2.0]);
    }

    #[test]
    fn gravity_default_and_override() {
        let mut robot = two_link();
        assert_eq!(robot.gravity(), Vec3::new(0.0, 0.0, -9.81));
        robot.set_gravity(Vec3::ZERO);
        assert_eq!(robot.gravity(), Vec3::ZERO);
    }
}
