//! The robot-client process of a live run.
//!
//! One robot process replays exactly the per-robot timeline of the DES
//! engine — capture, modelled uplink, offloaded inference (or an on-robot
//! one), paced plan execution, hidden background upload — against the wall
//! clock, with every modelled constant taken from the same
//! [`RobotProfile`] the simulator uses.  Where the DES *schedules* an event
//! `d` ms ahead, the live robot *sleeps* `d` ms; where the DES acquires the
//! simulated uplink arbiter, the live robot reserves the shared link clock
//! and sleeps out its grant.

use std::time::{Duration, Instant};

use corki_ipc::{monotonic_ns, Doorbell, ShmSegment};
use corki_system::fleet::{hidden_upload_ms, plan_upload_ms, RobotProfile};
use corki_system::FleetConfig;
use corki_telemetry::{EventKind, ShmTelemetry, Stage, PAGE_WORDS};

use crate::proto::{
    RespMsg, RobotMsg, SegmentLayout, LINK_FREE_OFF, LIVE_MAGIC, MAGIC_OFF, MSG_SIZE, READY_OFF,
    START_NS_OFF, STATE_OFF,
};
use crate::sync::{
    announce_ready, ns_of_ms, sleep_ms, sleep_until_ns, wait_for_running, ABORT_CHECK,
    FULL_RING_BACKOFF,
};
use crate::{link::LiveLink, LiveError};

/// How long the robot waits for one inference response before declaring
/// the run wedged.  Generous: the host may time-slice a dozen processes
/// on one core.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// Entry point of the hidden `__live-robot` role: runs robot `robot` of
/// the fleet described by the JSON [`FleetConfig`] at `config_path`
/// against the shared segment `shm`.
pub fn run_robot(shm: &str, robot: usize, config_path: &str) -> Result<(), LiveError> {
    let raw = std::fs::read_to_string(config_path)
        .map_err(|e| LiveError::Protocol(format!("cannot read live config {config_path}: {e}")))?;
    let cfg: FleetConfig = serde_json::from_str(&raw)
        .map_err(|e| LiveError::Protocol(format!("cannot parse live config: {e}")))?;
    if robot >= cfg.robots.len() {
        return Err(LiveError::Protocol(format!(
            "robot index {robot} out of range for a fleet of {}",
            cfg.robots.len()
        )));
    }
    let layout = SegmentLayout::new(cfg.robots.len(), cfg.servers.len());
    let seg = ShmSegment::open(shm, layout.total_size()).map_err(LiveError::Io)?;
    if seg.atomic_u64(MAGIC_OFF).load(std::sync::atomic::Ordering::Acquire) != LIVE_MAGIC {
        return Err(LiveError::Protocol(format!("segment {shm} carries no live-run magic")));
    }
    let ring = seg.ring(layout.req_ring(robot)).map_err(LiveError::Io)?;
    let resp = seg.seqlock(layout.resp_slot(robot)).map_err(LiveError::Io)?;
    // In-path telemetry: this process is the page's only writer; the
    // coordinator drains it concurrently without stopping the run.
    let telemetry =
        ShmTelemetry::new(seg.atomic_u64_array(layout.robot_telemetry(robot), PAGE_WORDS));
    let link = LiveLink::new(seg.atomic_u64(LINK_FREE_OFF));
    let run_state = seg.atomic_u64(STATE_OFF);
    let bell = seg.doorbell(layout.robot_bell(robot));
    let coordinator = seg.doorbell(layout.coordinator_bell());
    let profile = RobotProfile::of(&cfg.robots[robot], &cfg);

    announce_ready(seg.atomic_u64(READY_OFF), coordinator);
    let start_ns = wait_for_running(run_state, seg.atomic_u64(START_NS_OFF), bell)?;
    // Deterministic start stagger, exactly as the DES schedules the first
    // capture of robot r at `r · execution_step_ms`.
    sleep_until_ns(start_ns + ns_of_ms(robot as f64 * cfg.execution_step_ms));

    let step_ns = ns_of_ms(if cfg.execution_step_ms > 0.0 {
        profile.control_ms.max(cfg.execution_step_ms)
    } else {
        profile.control_ms
    });
    let mut frame_index = 0_usize;
    let mut plans = 0_u64;
    let mut attempt = 0_u64;
    let mut link_wait_ns = 0_u64;
    let mut upload_ns_total = 0_u64;
    // End-to-end fields of the previous offloaded plan, piggybacked onto
    // the next request so the coordinator can close its latency sample.
    let mut prev_resp_recv_ns = 0_u64;
    let mut resp_buf = [0_u8; MSG_SIZE];

    while frame_index < cfg.frames_per_robot {
        let capture_ns = monotonic_ns();
        let full_steps = profile.steps_model.steps_for(plans as usize).max(1);
        let plan_steps = full_steps.min(cfg.frames_per_robot - frame_index);
        let mut upload_paid_ms = 0.0;

        if let Some((service_ms, _energy)) = profile.local {
            // On-robot inference: no uplink, no pool — just the modelled
            // local service time.
            sleep_ms(service_ms);
            let done_ns = monotonic_ns();
            telemetry.event(
                done_ns.saturating_sub(start_ns),
                EventKind::LocalPlan,
                done_ns - capture_ns,
            );
            push_with_retry(
                &ring,
                coordinator,
                &RobotMsg::LocalPlan { latency_ns: done_ns - capture_ns, done_ns }
                    .encode(robot as u64),
                run_state,
            )?;
        } else {
            // Foreground upload: reserve the shared link, sleep out the
            // grant (wait + transfer), then hand the request to the pool.
            let upload_ms = plan_upload_ms(profile.is_baseline, full_steps);
            upload_paid_ms = upload_ms;
            let now = monotonic_ns();
            let (grant_start, grant_end) = link.acquire(now, ns_of_ms(upload_ms));
            link_wait_ns += grant_start - now;
            upload_ns_total += grant_end - grant_start;
            telemetry.record(Stage::UplinkQueue, grant_start - now);
            telemetry.record(Stage::Encode, grant_end - grant_start);
            sleep_until_ns(grant_end);
            attempt += 1;
            push_with_retry(
                &ring,
                coordinator,
                &RobotMsg::Request {
                    attempt,
                    planned_steps: plan_steps as u64,
                    capture_ns,
                    send_ns: monotonic_ns(),
                    prev_resp_recv_ns,
                }
                .encode(robot as u64),
                run_state,
            )?;
            let response = wait_for_response(&resp, bell, attempt, &mut resp_buf, run_state)?;
            prev_resp_recv_ns = monotonic_ns();
            // The pool-side waits were measured by the coordinator and the
            // worker; the downlink is the one hop only the robot can close
            // (publish → observed: the wake-up latency of the robot's bell).
            telemetry.record(Stage::PoolQueue, response.queue_wait_ns);
            telemetry
                .record(Stage::Downlink, prev_resp_recv_ns.saturating_sub(response.publish_ns));
            telemetry.event(
                prev_resp_recv_ns.saturating_sub(start_ns),
                EventKind::Plan,
                prev_resp_recv_ns - capture_ns,
            );
        }
        plans += 1;

        // Execute the plan, paced by the slower of control compute and the
        // physical step period.  Each step ends at an absolute deadline on
        // the plan's own clock, so sleep overshoot does not accumulate
        // across a multi-step plan.
        let exec_start_ns = monotonic_ns();
        for step in 0..plan_steps {
            let step_start_ns = monotonic_ns();
            sleep_until_ns(exec_start_ns + (step as u64 + 1) * step_ns);
            telemetry.record(Stage::ControlStep, monotonic_ns() - step_start_ns);
            frame_index += 1;
            // After the first executed step of a multi-step plan, the next
            // frame streams up in the background: reserve (but do not wait
            // out) the hidden portion of its upload, so it consumes real
            // shared-link bandwidth exactly as in the DES (which has no
            // background upload in the unpaced legacy model).
            if step == 0 && plan_steps > 1 && cfg.execution_step_ms > 0.0 && profile.local.is_none()
            {
                let hidden_ms = hidden_upload_ms(upload_paid_ms);
                if hidden_ms > 0.0 {
                    link.acquire(monotonic_ns(), ns_of_ms(hidden_ms));
                }
            }
            if crate::sync::aborted(run_state) {
                return Err(LiveError::Aborted);
            }
        }
    }

    push_with_retry(
        &ring,
        coordinator,
        &RobotMsg::Finished {
            frames: frame_index as u64,
            last_resp_recv_ns: prev_resp_recv_ns,
            finish_ns: monotonic_ns(),
            link_wait_ns,
            upload_ns: upload_ns_total,
        }
        .encode(robot as u64),
        run_state,
    )
}

/// Pushes one message and rings the coordinator, backing off briefly
/// while the ring is full (the coordinator drains a ring on every wake-up,
/// so sustained backpressure means the run is aborting or wedged).
fn push_with_retry(
    ring: &corki_ipc::SpscRing<'_>,
    coordinator: Doorbell<'_>,
    msg: &[u8; MSG_SIZE],
    run_state: &std::sync::atomic::AtomicU64,
) -> Result<(), LiveError> {
    let deadline = Instant::now() + RESPONSE_TIMEOUT;
    while !ring.try_push(msg) {
        if crate::sync::aborted(run_state) {
            return Err(LiveError::Aborted);
        }
        if Instant::now() > deadline {
            return Err(LiveError::Protocol("request ring stayed full".into()));
        }
        std::thread::sleep(FULL_RING_BACKOFF);
    }
    coordinator.ring();
    Ok(())
}

/// Sleeps on the robot's doorbell until the response seqlock holds a
/// snapshot answering `attempt`.  Stale snapshots (earlier attempts) are
/// skipped; a read torn by a concurrent publish is retried after that
/// publish rings the bell.
fn wait_for_response(
    resp: &corki_ipc::SeqlockSlot<'_>,
    bell: Doorbell<'_>,
    attempt: u64,
    buf: &mut [u8; MSG_SIZE],
    run_state: &std::sync::atomic::AtomicU64,
) -> Result<RespMsg, LiveError> {
    let deadline = Instant::now() + RESPONSE_TIMEOUT;
    loop {
        let seen = bell.seen();
        if resp.try_read(buf).is_some() {
            let msg = RespMsg::decode(buf).map_err(LiveError::Protocol)?;
            if msg.attempt == attempt {
                return Ok(msg);
            }
        }
        if crate::sync::aborted(run_state) {
            return Err(LiveError::Aborted);
        }
        if Instant::now() > deadline {
            return Err(LiveError::Protocol(format!("no response to attempt {attempt}")));
        }
        bell.wait(seen, ABORT_CHECK);
    }
}
