//! Allocator-counted proof that the event loop's hot paths reuse their
//! arenas (in the style of `zero_alloc.rs` in the policy crate): a counting
//! global allocator wraps the system allocator, the event queue is warmed
//! until every backing buffer has reached its high-water mark, and then a
//! steady-state burst of schedule/pop traffic must leave the allocation
//! counter untouched, on either lane of the queue.  A fleet-level bound
//! pins the per-frame allocation budget of the full engine, on every
//! routing path, so per-event `Box`/`Vec` churn cannot sneak back in, and
//! a byte bound pins what a fleet larger than the trace cap stores per
//! frame.

use corki_system::des::EventQueue;
use corki_system::fleet::{FleetConfig, FleetSimulator};
use corki_system::{
    CrashSpec, DataRepresentation, FaultPlan, InferenceDevice, InferenceModel, RoutingPolicy,
    SchedulerKind, ServerConfig, TimeoutSpec, Variant,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocation_count, byte_count};

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

/// The same guarantee under the traffic the FIFO lane exists for: a
/// monotone far-future stream (a saturated uplink's FIFO grants, appended
/// to the lane) interleaved with near-term events (routed to the heap), a
/// thousand events deep.  Both lanes recycle their buffers once warm.
#[test]
fn lane_heavy_event_queue_steady_state_performs_zero_allocations() {
    let mut queue = EventQueue::new();
    let mut far_ms = 1.0e6;
    let mut state = 11u64;
    for k in 0..1024 {
        far_ms += 10.0;
        queue.schedule(far_ms, k);
    }
    let mut traffic = |queue: &mut EventQueue<u64>| {
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            far_ms += 10.0;
            queue.schedule(far_ms, state);
            queue.schedule(queue.now_ms() + 1.0 + (state >> 58) as f64, state);
            queue.schedule(queue.now_ms() + 1.0, state);
            for _ in 0..3 {
                queue.pop();
            }
        }
    };
    traffic(&mut queue);
    let before = allocation_count();
    traffic(&mut queue);
    let after = allocation_count();
    assert_eq!(after - before, 0, "steady-state two-lane traffic must not touch the allocator");
    assert_eq!(queue.len(), 1024);
}

/// The marginal `counter` reading per robot-frame of one fleet cell: the
/// reading for a 480-frame run minus that of a 240-frame run, over the 240
/// extra frames of every robot.  Bounded buffers (the per-robot telemetry
/// timelines, the event queue's arenas) are still growing in runs of up to
/// ~200 frames, so the shorter horizon already has to be past them.
fn marginal_per_robot_frame(config: &FleetConfig, counter: fn() -> usize) -> f64 {
    let run = |frames: usize| {
        let mut config = config.clone();
        config.frames_per_robot = frames;
        let before = counter();
        let outcome = FleetSimulator::new(config).run();
        let after = counter();
        assert!(outcome.summary.throughput_steps_per_s > 0.0);
        after - before
    };
    // Warm the binary (lazy statics, first-touch buffers), then measure.
    let _ = run(30);
    let short = run(240);
    let long = run(480);
    long.saturating_sub(short) as f64 / (config.robots.len() as f64 * 240.0)
}

/// Fleet-level arena bound: doubling the horizon must cost only the
/// amortized growth of the per-run sample `Vec`s, on every routing path.  Batches are recycled
/// through the engine's batch pool, events live inline in the queue's two
/// lanes, routing scans the pool in place, and sessions/servers are
/// allocated once up front — so the marginal cost of a longer run is one
/// more doubling of each per-run sample `Vec`, not per-event boxing or a
/// snapshot per routed request.  The cells cover blind single-server
/// routing, least-queue-depth and device-affinity routing over a pool, a
/// crash plan (which routes every request over the indexed view), and an
/// overloaded shortest-trajectory-first server whose crash and timeouts
/// keep its heap thousands of requests deep (the heap's backing `Vec` is
/// kept across the crash).  Measured on x86-64 Linux: 7 allocations over
/// the 5,760 extra robot-frames (0.0012 per robot-frame) in the first four
/// cells, 4 (0.0007) in the STF cell.  One allocation per
/// plan would read 0.2 here (Corki-5 plans every fifth frame), so the bound
/// of 0.02 trips on any per-plan or per-request allocation.
#[test]
fn fleet_event_loop_allocations_grow_sublinearly_with_the_horizon() {
    let blind = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 24, 2024);
    let mut least_queue_depth = blind.clone().with_pool(4);
    least_queue_depth.routing = RoutingPolicy::LeastQueueDepth;
    let mut affinity = blind.clone();
    affinity.servers =
        [InferenceDevice::V100, InferenceDevice::H100, InferenceDevice::JetsonOrin32Gb]
            .into_iter()
            .map(|device| {
                ServerConfig::new(
                    InferenceModel::new(device, DataRepresentation::Float32),
                    SchedulerKind::Fifo,
                )
            })
            .collect();
    affinity.routing = RoutingPolicy::DeviceAffinity;
    let mut crash = blind.clone().with_pool(4);
    crash.faults = Some(FaultPlan {
        crashes: vec![CrashSpec { server: 1, at_ms: 500.0, down_ms: 400.0 }],
        ..FaultPlan::none()
    });
    let mut overloaded_stf = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 24, 2024);
    let mix = [Variant::CorkiFixed(1), Variant::CorkiFixed(5), Variant::CorkiFixed(9)];
    for (robot, variant) in overloaded_stf.robots.iter_mut().zip(mix.iter().cycle()) {
        robot.variant = variant.clone();
    }
    overloaded_stf.set_scheduler(SchedulerKind::ShortestTrajectoryFirst);
    overloaded_stf.faults = Some(FaultPlan {
        crashes: vec![CrashSpec { server: 0, at_ms: 500.0, down_ms: 400.0 }],
        timeout: Some(TimeoutSpec { timeout_ms: 600.0, max_retries: 2, backoff_ms: 50.0 }),
        ..FaultPlan::none()
    });
    for (name, config) in [
        ("blind", &blind),
        ("least-queue-depth", &least_queue_depth),
        ("device-affinity", &affinity),
        ("crash", &crash),
        ("overloaded-stf", &overloaded_stf),
    ] {
        let per_robot_frame = marginal_per_robot_frame(config, allocation_count);
        assert!(
            per_robot_frame < 0.02,
            "{name}: the marginal horizon cost must stay amortized sample-vector growth, \
             measured {per_robot_frame:.4} allocations per robot-frame"
        );
    }
}

/// Byte bound for a fleet larger than the trace cap: 256 robots, of which
/// only the first `MAX_TIMELINES` (64) keep `FrameTrace` rows.  Every frame
/// still costs its 8-byte slot in the engine's robot-major latency store,
/// the traced quarter of the fleet adds its 32-byte rows (8 B per
/// robot-frame on average), and the per-plan plan, queue-wait and
/// link-wait samples, their warm-up-trimmed copies and their doubling
/// growth add the rest.  The count is of bytes requested, so it is
/// deterministic for one toolchain.  Measured on x86-64 Linux: 101.8 B per
/// robot-frame when every robot kept its 32-byte rows and the summary
/// collected every latency into a growing `Vec` and copied it again for the
/// percentile; 58.7 B with the rows capped and the latencies selected in
/// place.  The bound of 64 B also trips if the percentile copy (8 B per
/// robot-frame) comes back.
#[test]
fn fleet_bytes_per_robot_frame_stay_below_uncapped_trace_rows() {
    let mut config = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 256, 2024).with_pool(8);
    config.routing = RoutingPolicy::LeastQueueDepth;
    let per_robot_frame = marginal_per_robot_frame(&config, byte_count);
    assert!(
        per_robot_frame < 64.0,
        "a 256-robot fleet must store trace rows for the capped robots only, \
         measured {per_robot_frame:.1} bytes per robot-frame"
    );
}
