//! The inference-server worker process of a live run.
//!
//! A worker owns one server of the pool.  Routing, batching and batch
//! pricing stay with the coordinator, which drives the DES's own
//! [`ServerPool`]; the worker's only job is to *be busy* for the modelled
//! service time of each batch it is handed, and to report when it popped
//! the batch and when the service ended, so queueing, batching and
//! utilization emerge from real cross-process timing.
//!
//! [`ServerPool`]: corki_system::fleet::ServerPool

use std::time::Duration;

use corki_ipc::{monotonic_ns, ShmSegment};
use corki_telemetry::{ShmTelemetry, Stage, PAGE_WORDS};

use crate::proto::{
    DoneMsg, SegmentLayout, WorkMsg, LIVE_MAGIC, MAGIC_OFF, MSG_SIZE, READY_OFF, SHUTDOWN_BATCH,
    START_NS_OFF, STATE_OFF,
};
use crate::sync::{announce_ready, wait_for_running, ABORT_CHECK, FULL_RING_BACKOFF};
use crate::LiveError;

/// Entry point of the hidden `__live-worker` role: serves server `server`
/// of a pool of `servers` in a fleet of `robots`, against the shared
/// segment `shm`.
pub fn run_worker(
    shm: &str,
    server: usize,
    robots: usize,
    servers: usize,
) -> Result<(), LiveError> {
    if server >= servers {
        return Err(LiveError::Protocol(format!(
            "server index {server} out of range for a pool of {servers}"
        )));
    }
    let layout = SegmentLayout::new(robots, servers);
    let seg = ShmSegment::open(shm, layout.total_size()).map_err(LiveError::Io)?;
    if seg.atomic_u64(MAGIC_OFF).load(std::sync::atomic::Ordering::Acquire) != LIVE_MAGIC {
        return Err(LiveError::Protocol(format!("segment {shm} carries no live-run magic")));
    }
    let work = seg.ring(layout.work_ring(server)).map_err(LiveError::Io)?;
    let done = seg.ring(layout.done_ring(server)).map_err(LiveError::Io)?;
    // The worker is the only writer of its telemetry page: one
    // batch-service sample per batch, drained live by the coordinator.
    let telemetry =
        ShmTelemetry::new(seg.atomic_u64_array(layout.server_telemetry(server), PAGE_WORDS));
    let run_state = seg.atomic_u64(STATE_OFF);
    let bell = seg.doorbell(layout.server_bell(server));
    let coordinator = seg.doorbell(layout.coordinator_bell());

    announce_ready(seg.atomic_u64(READY_OFF), coordinator);
    wait_for_running(run_state, seg.atomic_u64(START_NS_OFF), bell)?;

    let mut buf = [0_u8; MSG_SIZE];
    loop {
        let seen = bell.seen();
        if !work.try_pop(&mut buf) {
            if crate::sync::aborted(run_state) {
                return Err(LiveError::Aborted);
            }
            bell.wait(seen, ABORT_CHECK);
            continue;
        }
        let msg = WorkMsg::decode(&buf).map_err(LiveError::Protocol)?;
        if msg.batch_id == SHUTDOWN_BATCH {
            return Ok(());
        }
        let pop_ns = monotonic_ns();
        // The modelled forward pass: the worker is simply busy for the
        // batched service time the server pool priced.
        std::thread::sleep(Duration::from_nanos(msg.service_ns));
        let notice = DoneMsg { batch_id: msg.batch_id, pop_ns, done_ns: monotonic_ns() };
        telemetry.record(Stage::BatchService, notice.done_ns - pop_ns);
        while !done.try_push(&notice.encode()) {
            if crate::sync::aborted(run_state) {
                return Err(LiveError::Aborted);
            }
            std::thread::sleep(FULL_RING_BACKOFF);
        }
        coordinator.ring();
    }
}
