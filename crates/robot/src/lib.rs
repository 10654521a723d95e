//! Rigid-body kinematics, dynamics and task-space computed torque control
//! (TS-CTC) for a 7-DoF manipulator — the control substrate of the DaDu-Corki
//! reproduction.
//!
//! The crate provides exactly the computations that the Corki accelerator
//! (`corki-accel`) is designed around (paper §4.1, Fig. 6):
//!
//! * **Forward kinematics** — the pose `x` of the end-effector from joint
//!   angles `θ`,
//! * **Jacobian** — the geometric Jacobian `J(θ)` and end-effector velocity,
//! * **Task-space mass matrix** — `Mx(θ) = (J M⁻¹ Jᵀ)⁻¹`,
//! * **Task-space bias force** — `hx(θ, θ̇)`,
//! * **Joint torque** — `τ = Jᵀ[Mx(ẍd + Kp e + Kv ė) + hx]` (Equation 6).
//!
//! The underlying joint-space quantities (mass matrix via CRBA, bias via
//! RNEA) use the spatial-algebra primitives from [`corki_math`].
//!
//! # Example
//!
//! ```
//! use corki_robot::{panda, JointState, TaskSpaceController, ControllerGains, TaskReference};
//!
//! let robot = panda::panda_model();
//! let state = JointState::zeros(robot.dof());
//! let end_effector = robot.forward_kinematics(&state.positions);
//! let controller = TaskSpaceController::new(ControllerGains::default());
//! let reference = TaskReference::hold(end_effector);
//! let mut torque = [0.0; 7];
//! controller.compute_torque(&robot, &state, &reference, &mut torque);
//! assert!(torque.iter().zip(robot.effort_limits()).all(|(t, limit)| t.abs() <= limit));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod dynamics;
mod kinematics;
mod model;
pub mod panda;
mod simulate;
mod state;

pub use self::simulate::{ArmSimulator, SimulatorConfig};
pub use control::{ControllerGains, TaskReference, TaskSpaceController};
pub use dynamics::{TaskSpaceDynamics, TaskSpaceModel};
pub use kinematics::Jacobian;
pub use model::{JointKind, JointModel, Link, RobotError, RobotModel, MAX_BODIES};
pub use state::{EndEffectorState, JointState};
