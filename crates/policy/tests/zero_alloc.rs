//! Proof that a steady-state control step performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator,
//! the policies are warmed until every scratch buffer has reached its
//! high-water mark, and then a burst of plans must leave the allocation
//! counter untouched.

use corki_math::Vec3;
use corki_policy::{
    BaselineFramePolicy, CorkiTrajectoryPolicy, ManipulationPolicy, Observation, PlanRequest,
};
use corki_trajectory::{EePose, GripperState, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocation_count;

fn observation() -> Observation {
    Observation {
        end_effector: EePose::new(Vec3::new(0.35, 0.0, 0.3), Vec3::ZERO, GripperState::Open),
        object_position: Vec3::new(0.45, -0.1, 0.02),
        goal_position: Vec3::new(0.5, 0.1, 0.02),
        ..Observation::default()
    }
}

#[test]
fn steady_state_baseline_plan_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut policy = BaselineFramePolicy::new(&mut rng);
    let request = PlanRequest::from_observation(observation());
    // Warm-up: fill the token window and grow every scratch buffer.
    for _ in 0..32 {
        let _ = policy.plan(&request);
    }
    let before = allocation_count();
    for _ in 0..64 {
        let _ = policy.plan(&request);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "baseline steady-state control step must not touch the allocator"
    );
}

#[test]
fn steady_state_corki_plan_into_performs_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut policy = CorkiTrajectoryPolicy::new(9, &mut rng);
    let mut request = PlanRequest::from_observation(observation());
    // The Corki steady state: nine control steps executed per plan, so every
    // plan also inserts eight mask embeddings.
    request.steps_since_last_plan = 9;
    let mut out = Trajectory::hold(&request.observation.end_effector, 1);
    for _ in 0..32 {
        policy.plan_into(&request, &mut out);
    }
    let before = allocation_count();
    for _ in 0..64 {
        policy.plan_into(&request, &mut out);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "Corki steady-state control step must not touch the allocator");
}
