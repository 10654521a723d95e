//! Allocator-counted proof that the event loop's hot paths reuse their
//! arenas (in the style of `zero_alloc.rs` in the policy crate): a counting
//! global allocator wraps the system allocator, the event queue is warmed
//! until every backing buffer has reached its high-water mark, and then a
//! steady-state burst of schedule/pop traffic must leave the allocation
//! counter untouched.  A fleet-level bound pins the per-frame allocation
//! budget of the full engine so per-event `Box`/`Vec` churn cannot sneak
//! back in.

use corki_system::des::EventQueue;
use corki_system::fleet::{FleetConfig, FleetSimulator};
use corki_system::Variant;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocation_count;

/// Steady-state schedule/pop traffic on the event queue must be
/// allocation-free: the 4-ary heap is a flat arena that reaches its
/// high-water mark during warm-up and is reused forever after.
#[test]
fn event_queue_steady_state_performs_zero_allocations() {
    let mut queue = EventQueue::new();
    let mut state = 7u64;
    for _ in 0..4096 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
        queue.pop();
    }
    let before = allocation_count();
    for _ in 0..4096 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
        queue.pop();
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "steady-state EventQueue traffic must not touch the allocator");
}

/// Fleet-level arena bound: doubling the horizon must cost only a small,
/// pinned number of allocations per robot-frame.  Batches are recycled
/// through the engine's batch pool, events live inline in the flat heaps,
/// and sessions/servers are allocated once up front — so the marginal cost
/// of a frame is a handful of trace pushes (amortized `Vec` doubling), not
/// per-event boxing.  The bound is ~4x the measured steady state so it only
/// trips on real regressions (e.g. a fresh `Vec` per formed batch).
#[test]
fn fleet_event_loop_allocations_grow_sublinearly_with_the_horizon() {
    let run = |frames: usize| {
        let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 24, 2024);
        config.frames_per_robot = frames;
        let before = allocation_count();
        let outcome = FleetSimulator::new(config).run();
        let after = allocation_count();
        assert!(outcome.summary.throughput_steps_per_s > 0.0);
        after - before
    };
    // Warm the binary (lazy statics, first-touch buffers), then measure.
    let _ = run(30);
    let short = run(60);
    let long = run(120);
    let marginal = long.saturating_sub(short);
    // 24 robots x 60 extra frames; each frame may push a few trace samples.
    let per_robot_frame = marginal as f64 / (24.0 * 60.0);
    assert!(
        per_robot_frame < 8.0,
        "the marginal horizon cost must stay a few trace pushes per robot-frame, \
         measured {per_robot_frame:.2} allocations ({marginal} over 60 frames x 24 robots)"
    );
}
