//! Doorbells: a blocking "something changed" signal between processes that
//! share a segment.
//!
//! A doorbell is one 32-bit counter in shared memory.  A producer publishes
//! its data (ring push, seqlock write, state store) and then
//! [`ring`](Doorbell::ring)s the consumer's bell: the counter is bumped
//! and the kernel wakes whoever sleeps on it.  A consumer reads the
//! counter *before* it checks for work and hands that value to
//! [`wait`](Doorbell::wait), which sleeps only while the counter still
//! holds it — so a ring that lands between the check and the sleep makes
//! the sleep return at once instead of being lost.  The sleep is
//! `futex(2)` on the counter's page, keyed on the shared mapping (not the
//! process), so a ring in one process wakes a waiter in another.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use crate::sys;

/// A futex-backed wake-up counter in a [`ShmSegment`](crate::ShmSegment).
/// Obtain one with [`ShmSegment::doorbell`](crate::ShmSegment::doorbell);
/// the borrow keeps the mapping alive for the bell's lifetime.
///
/// Any number of processes may ring a bell and wait on it.  The counter
/// wraps at 2³²; a waiter that misses exactly 2³² rings between
/// [`seen`](Self::seen) and [`wait`](Self::wait) sleeps until its timeout.
#[derive(Debug, Clone, Copy)]
pub struct Doorbell<'a> {
    word: &'a AtomicU32,
}

impl<'a> Doorbell<'a> {
    /// Bytes a doorbell occupies (the futex word).
    pub(crate) const SIZE: usize = 4;

    pub(crate) fn new(word: &'a AtomicU32) -> Doorbell<'a> {
        Doorbell { word }
    }

    /// The current ring count.  Read it *before* checking for work and pass
    /// it to [`wait`](Self::wait).  The acquire load pairs with the release
    /// increment in [`ring`](Self::ring): a consumer that sees a ring also
    /// sees everything the ringer published before it.
    pub fn seen(&self) -> u32 {
        self.word.load(Ordering::Acquire)
    }

    /// Counts one ring and wakes every process sleeping on the bell.
    pub fn ring(&self) {
        self.word.fetch_add(1, Ordering::Release);
        // SAFETY: `word` is a live, 4-byte-aligned `AtomicU32` inside the
        // mapping this bell borrows; FUTEX_WAKE only reads the address to
        // find waiters and ignores the timeout, uaddr2 and val3 arguments.
        unsafe {
            sys::syscall(
                sys::SYS_FUTEX,
                self.word.as_ptr(),
                sys::FUTEX_WAKE,
                i32::MAX,
                std::ptr::null::<sys::Timespec>(),
                std::ptr::null::<u32>(),
                0_u32,
            );
        }
    }

    /// Sleeps until the bell rings past `seen`, `timeout` elapses, or a
    /// signal interrupts the sleep; returns at once if the count already
    /// moved.  Returns whether the count differs from `seen` — `false`
    /// after a timeout.  Callers re-check their condition either way.
    pub fn wait(&self, seen: u32, timeout: Duration) -> bool {
        if self.seen() != seen {
            return true;
        }
        let ts = sys::Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `word` is a live, 4-byte-aligned `AtomicU32` inside the
        // mapping this bell borrows, and `ts` outlives the call.  The
        // kernel compares the word with `seen` atomically with queueing
        // the waiter, so a concurrent `ring` either changes the word first
        // (EAGAIN) or finds this waiter queued (woken).
        let rc = unsafe {
            sys::syscall(
                sys::SYS_FUTEX,
                self.word.as_ptr(),
                sys::FUTEX_WAIT,
                seen,
                &ts as *const sys::Timespec,
                std::ptr::null::<u32>(),
                0_u32,
            )
        };
        if rc != 0 {
            let err = std::io::Error::last_os_error();
            assert!(
                matches!(err.raw_os_error(), Some(sys::EAGAIN | sys::EINTR | sys::ETIMEDOUT)),
                "futex wait failed: {err}"
            );
        }
        self.seen() != seen
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    use crate::ShmSegment;

    #[test]
    fn a_ring_between_seen_and_wait_is_not_lost() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let bell = seg.doorbell(64);
        let seen = bell.seen();
        bell.ring();
        let t0 = Instant::now();
        assert!(bell.wait(seen, Duration::from_secs(5)), "the ring must be observed");
        assert!(t0.elapsed() < Duration::from_secs(1), "waited {:?} on a rung bell", t0.elapsed());
        assert_eq!(bell.seen(), seen.wrapping_add(1));
    }

    #[test]
    fn a_quiet_bell_returns_after_its_timeout() {
        let seg = ShmSegment::anonymous(4096).expect("map");
        let bell = seg.doorbell(0);
        let timeout = Duration::from_millis(20);
        let t0 = Instant::now();
        assert!(!bell.wait(bell.seen(), timeout), "nobody rang");
        let waited = t0.elapsed();
        assert!(waited >= timeout, "returned after {waited:?}, before the {timeout:?} timeout");
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
    }

    #[test]
    fn a_ring_through_another_mapping_wakes_a_blocked_waiter() {
        // Two mappings of one named segment sit at different addresses, as
        // in two processes: only a shared (non-private) futex connects them.
        let name = format!("corki-test-doorbell-{}", std::process::id());
        let _ = ShmSegment::unlink(&name);
        let creator = ShmSegment::create(&name, 4096).expect("create");
        let opener = ShmSegment::open(&name, 4096).expect("open");
        let armed = Barrier::new(2);
        let waited = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let bell = opener.doorbell(128);
                let seen = bell.seen();
                armed.wait();
                let t0 = Instant::now();
                let rung = bell.wait(seen, Duration::from_secs(5));
                (rung, t0.elapsed())
            });
            armed.wait();
            creator.doorbell(128).ring();
            waiter.join().expect("waiter thread")
        });
        assert!(waited.0, "the waiter must see the ring");
        assert!(
            waited.1 < Duration::from_secs(1),
            "the ring took {:?} to wake the waiter",
            waited.1
        );
    }
}
