//! Start/abort synchronisation shared by every process of a live run, and
//! the wall-clock sleep helpers the loops are paced with.
//!
//! No process of a live run polls.  Each one owns a [`Doorbell`] in the
//! segment and sleeps on it; whoever hands it work — a ring push, a
//! response snapshot, a run-state change — rings that bell after
//! publishing.  A waiter reads its bell *before* checking for work, so a
//! ring that lands between the check and the sleep is never lost, and
//! every sleep is capped at [`ABORT_CHECK`] so the abort flag and the
//! deadlines are still looked at even if a ringer died.  The only sleeps
//! left are the modelled durations ([`sleep_ms`], [`sleep_until_ns`]) and
//! the backoff on a full ring, which a healthy run never hits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use corki_ipc::{monotonic_ns, Doorbell};
pub use corki_telemetry::ns_of_ms;

use crate::proto::state;
use crate::LiveError;

/// How long a child waits for the coordinator to publish the run epoch
/// before giving up.
pub const START_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest a process sleeps on its doorbell before it re-checks the
/// abort flag, its deadlines and (the coordinator) the children's health.
/// Normal progress never waits this long — every hand-off rings — so it
/// only bounds how late a process notices a failure nobody rang about.
pub const ABORT_CHECK: Duration = Duration::from_millis(10);

/// The pause between attempts to push into a full ring.  Rings hold eight
/// messages and a peer has at most two in flight, so this only runs when
/// the consumer is wedged or gone.
pub const FULL_RING_BACKOFF: Duration = Duration::from_micros(200);

/// Increments the segment's ready counter and rings the coordinator: this
/// process is attached and waiting for the epoch.
pub fn announce_ready(ready: &AtomicU64, coordinator: Doorbell<'_>) {
    ready.fetch_add(1, Ordering::AcqRel);
    coordinator.ring();
}

/// Blocks on this process's doorbell until the coordinator flips the run
/// state to [`state::RUNNING`], then returns the published epoch.
pub fn wait_for_running(
    run_state: &AtomicU64,
    start_ns: &AtomicU64,
    bell: Doorbell<'_>,
) -> Result<u64, LiveError> {
    let deadline = std::time::Instant::now() + START_TIMEOUT;
    loop {
        let seen = bell.seen();
        match run_state.load(Ordering::Acquire) {
            state::RUNNING => return Ok(start_ns.load(Ordering::Acquire)),
            state::ABORT => return Err(LiveError::Aborted),
            _ => {}
        }
        if std::time::Instant::now() > deadline {
            return Err(LiveError::Protocol("timed out waiting for the run epoch".into()));
        }
        bell.wait(seen, ABORT_CHECK);
    }
}

/// Whether the coordinator has raised the abort flag.
pub fn aborted(run_state: &AtomicU64) -> bool {
    run_state.load(Ordering::Acquire) == state::ABORT
}

/// Sleeps until the monotonic clock reaches `target_ns` (no-op if it
/// already has).
pub fn sleep_until_ns(target_ns: u64) {
    let now = monotonic_ns();
    if target_ns > now {
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// Sleeps for `ms` milliseconds of modelled time.
pub fn sleep_ms(ms: f64) {
    if ms > 0.0 {
        std::thread::sleep(Duration::from_nanos(ns_of_ms(ms)));
    }
}

/// Milliseconds since the run epoch (clamped at zero for the instants just
/// before the barrier releases).
pub fn rel_ms(now_ns: u64, start_ns: u64) -> f64 {
    now_ns.saturating_sub(start_ns) as f64 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::time::Instant;

    use corki_ipc::ShmSegment;

    use super::*;

    #[test]
    fn an_abort_ring_releases_a_child_blocked_on_the_start_barrier() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let (run_state, start_ns, bell) =
            (seg.atomic_u64(0), seg.atomic_u64(64), seg.doorbell(128));
        // Without the ring the child would only notice the abort at its
        // next ABORT_CHECK wake-up.  Take the fastest of a few tries so one
        // descheduled wake on a busy host cannot fail the test, while a
        // missing ring fails every try.
        let fastest = (0..5)
            .map(|_| {
                run_state.store(0, Ordering::Release);
                let armed = Barrier::new(2);
                std::thread::scope(|scope| {
                    let child = scope.spawn(|| {
                        armed.wait();
                        let result = wait_for_running(run_state, start_ns, bell);
                        (result, Instant::now())
                    });
                    armed.wait();
                    // Give the child time to block; the check below holds
                    // whether or not it got there.
                    std::thread::sleep(Duration::from_millis(2));
                    let aborted_at = Instant::now();
                    run_state.store(state::ABORT, Ordering::Release);
                    bell.ring();
                    let (result, returned_at) = child.join().expect("child thread");
                    assert!(matches!(result, Err(LiveError::Aborted)), "got {result:?}");
                    returned_at.saturating_duration_since(aborted_at)
                })
            })
            .min()
            .expect("five tries");
        assert!(fastest < ABORT_CHECK / 4, "abort took {fastest:?} to release the child");
    }
}
