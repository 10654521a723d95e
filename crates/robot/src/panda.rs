//! The Franka Emika Panda 7-DoF manipulator model used throughout the paper.
//!
//! Kinematic parameters follow the official modified-DH table of the Panda;
//! inertial parameters follow the identified dynamic model of Gaz et al.,
//! *"Dynamic identification of the Franka Emika Panda robot with retrieval of
//! feasible parameters using penalty-based optimization"* (RA-L 2019), which
//! is the same source the paper cites for its mass-matrix sensitivity study
//! (Fig. 9/10).

use crate::model::{JointModel, Link, RobotModel};
use corki_math::{Mat3, SpatialInertia, Vec3};
use std::f64::consts::FRAC_PI_2;

/// Number of actuated joints of the Panda arm.
pub const PANDA_DOF: usize = 7;

/// A comfortable "home" configuration (radians) away from joint limits and
/// singularities, used as the reset configuration by the simulator.
pub const PANDA_HOME: [f64; PANDA_DOF] = [0.0, -0.3, 0.0, -1.8, 0.0, 1.5, 0.785];

/// Builds the Franka Emika Panda model (7 revolute joints, flange and a
/// parallel-gripper body as fixed links).
///
/// ```
/// let robot = corki_robot::panda::panda_model();
/// assert_eq!(robot.dof(), 7);
/// ```
pub fn panda_model() -> RobotModel {
    // Modified-DH parameters (a_{i-1} [m], d_i [m], alpha_{i-1} [rad]).
    // Joint limits and effort/velocity limits from the Panda datasheet.
    let joints = vec![
        JointModel::revolute("panda_joint1", 0.0, 0.333, 0.0, -2.8973, 2.8973, 2.1750, 87.0),
        JointModel::revolute("panda_joint2", 0.0, 0.0, -FRAC_PI_2, -1.7628, 1.7628, 2.1750, 87.0),
        JointModel::revolute("panda_joint3", 0.0, 0.316, FRAC_PI_2, -2.8973, 2.8973, 2.1750, 87.0),
        JointModel::revolute(
            "panda_joint4",
            0.0825,
            0.0,
            FRAC_PI_2,
            -3.0718,
            -0.0698,
            2.1750,
            87.0,
        ),
        JointModel::revolute(
            "panda_joint5",
            -0.0825,
            0.384,
            -FRAC_PI_2,
            -2.8973,
            2.8973,
            2.6100,
            12.0,
        ),
        JointModel::revolute("panda_joint6", 0.0, 0.0, FRAC_PI_2, -0.0175, 3.7525, 2.6100, 12.0),
        JointModel::revolute("panda_joint7", 0.088, 0.0, FRAC_PI_2, -2.8973, 2.8973, 2.6100, 12.0),
        // Flange (fixed) and gripper body (fixed).
        JointModel::fixed("panda_flange", 0.0, 0.107, 0.0, 0.0),
        JointModel::fixed("panda_hand", 0.0, 0.1034, 0.0, -std::f64::consts::FRAC_PI_4),
    ];

    let links = vec![
        link(
            "panda_link1",
            4.970684,
            Vec3::new(0.003875, 0.002081, -0.04762),
            [0.70337, 0.70661, 0.009117, -0.000139, 0.006772, 0.019169],
        ),
        link(
            "panda_link2",
            0.646926,
            Vec3::new(-0.003141, -0.02872, 0.003495),
            [0.007962, 0.02811, 0.025995, -0.003925, 0.000704, 0.010254],
        ),
        link(
            "panda_link3",
            3.228604,
            Vec3::new(0.027518, 0.039252, -0.066502),
            [0.037242, 0.036155, 0.01083, -0.004761, -0.011396, -0.012805],
        ),
        link(
            "panda_link4",
            3.587895,
            Vec3::new(-0.05317, 0.104419, 0.027454),
            [0.025853, 0.019552, 0.028323, 0.007796, 0.008641, -0.001332],
        ),
        link(
            "panda_link5",
            1.225946,
            Vec3::new(-0.011953, 0.041065, -0.038437),
            [0.035549, 0.029474, 0.008627, -0.002117, 0.000229, -0.004037],
        ),
        link(
            "panda_link6",
            1.666555,
            Vec3::new(0.060149, -0.014117, -0.010517),
            [0.001964, 0.004354, 0.005433, 0.000109, -0.001158, 0.000341],
        ),
        link(
            "panda_link7",
            0.735522,
            Vec3::new(0.010517, -0.004252, 0.061597),
            [0.012516, 0.010027, 0.004815, -0.000428, -0.001196, -0.000741],
        ),
        // Flange: essentially massless adapter plate.
        link("panda_flange", 0.1, Vec3::new(0.0, 0.0, 0.01), [1e-4, 1e-4, 1e-4, 0.0, 0.0, 0.0]),
        // Hand with two fingers (combined), per the Franka hand datasheet.
        link(
            "panda_hand",
            0.73,
            Vec3::new(-0.01, 0.0, 0.03),
            [0.001, 0.0025, 0.0017, 0.0, 0.0, 0.0],
        ),
    ];

    RobotModel::new("franka_emika_panda", joints, links)
        .expect("the built-in Panda description is consistent")
}

/// Builds a link from mass, centre of mass and the six independent entries
/// `[Ixx, Iyy, Izz, Ixy, Ixz, Iyz]` of its rotational inertia about the CoM.
fn link(name: &str, mass: f64, com: Vec3, i: [f64; 6]) -> Link {
    let inertia_com = Mat3::from_rows([i[0], i[3], i[4]], [i[3], i[1], i[5]], [i[4], i[5], i[2]]);
    Link::new(name, SpatialInertia::new(mass, com, inertia_com))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_dimensions() {
        let robot = panda_model();
        assert_eq!(robot.dof(), PANDA_DOF);
        assert_eq!(robot.num_bodies(), 9);
        assert_eq!(robot.name(), "franka_emika_panda");
    }

    #[test]
    fn total_mass_is_plausible() {
        let robot = panda_model();
        let total: f64 = robot.links().iter().map(|l| l.inertia.mass).sum();
        // The Panda arm weighs roughly 18 kg plus ~0.8 kg hand.
        assert!(total > 15.0 && total < 20.0, "total mass {total} out of range");
    }

    #[test]
    fn home_configuration_is_within_limits() {
        let robot = panda_model();
        let clamped = robot.clamp_positions(&PANDA_HOME);
        for (a, b) in clamped.iter().zip(PANDA_HOME.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn home_end_effector_pose_is_in_front_of_robot() {
        let robot = panda_model();
        let fk = robot.forward_kinematics(&PANDA_HOME);
        let p = fk.translation;
        // At the home configuration the TCP sits in front of the base (+x),
        // roughly half a metre up.
        assert!(p.x > 0.2, "x = {}", p.x);
        assert!(p.z > 0.2 && p.z < 1.0, "z = {}", p.z);
    }

    #[test]
    fn zero_configuration_matches_kinematic_structure() {
        // At the (mechanically infeasible but kinematically well-defined)
        // all-zero configuration the arm extends upward with the flange
        // pointing down, so the TCP height is the sum of the link offsets
        // minus the flange and hand lengths, and the lateral offset is the
        // joint-7 link length a7 = 0.088 m.
        let robot = panda_model();
        let fk = robot.forward_kinematics(&[0.0; 7]);
        let expected_z = 0.333 + 0.316 + 0.384 - 0.107 - 0.1034;
        assert!((fk.translation.z - expected_z).abs() < 1e-9);
        assert!((fk.translation.x - 0.088).abs() < 1e-9);
        assert!(fk.translation.y.abs() < 1e-9);
    }

    #[test]
    fn ready_pose_is_in_front_of_and_above_the_table() {
        // The standard Panda "ready" configuration puts the TCP roughly 0.3 m
        // in front of the base and about half a metre above it.
        let robot = panda_model();
        let ready = [
            0.0,
            -std::f64::consts::FRAC_PI_4,
            0.0,
            -3.0 * std::f64::consts::FRAC_PI_4,
            0.0,
            std::f64::consts::FRAC_PI_2,
            std::f64::consts::FRAC_PI_4,
        ];
        let fk = robot.forward_kinematics(&ready);
        let p = fk.translation;
        assert!(p.x > 0.2 && p.x < 0.45, "x = {}", p.x);
        assert!(p.y.abs() < 0.05, "y = {}", p.y);
        assert!(p.z > 0.35 && p.z < 0.75, "z = {}", p.z);
    }

    #[test]
    fn effort_limits_match_datasheet_groups() {
        let robot = panda_model();
        let limits = robot.effort_limits();
        assert_eq!(&limits[..4], &[87.0, 87.0, 87.0, 87.0]);
        assert_eq!(&limits[4..], &[12.0, 12.0, 12.0]);
    }
}
