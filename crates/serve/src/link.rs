//! The live counterpart of the DES uplink arbiter: a single shared
//! `AtomicU64` holding the monotonic-ns timestamp at which the uplink next
//! becomes free.
//!
//! The DES models the shared camera-frame uplink as a FIFO resource
//! (`corki_accel::Arbiter`): a transfer starting at `now` begins at
//! `max(now, free)` and occupies the link until `start + duration`.  The
//! live path replicates exactly that algebra with a compare-and-swap loop —
//! each robot process reserves its slice of link time, then *sleeps* until
//! the reservation ends, so concurrent robots serialise on the modelled
//! link just as simulated robots do on the simulated one.

use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to the shared uplink clock of a live run.
#[derive(Debug)]
pub struct LiveLink<'a> {
    free_ns: &'a AtomicU64,
}

impl<'a> LiveLink<'a> {
    /// Wraps the segment's link-clock atomic.
    pub fn new(free_ns: &'a AtomicU64) -> Self {
        LiveLink { free_ns }
    }

    /// Reserves `duration_ns` of link time starting no earlier than
    /// `now_ns`; returns `(start_ns, end_ns)` of the granted slice.  The
    /// caller sleeps until `end_ns` for a foreground transfer, or walks
    /// away for a fire-and-forget background one (the reservation still
    /// delays later acquirers, which is the point: hidden uploads consume
    /// real bandwidth).
    pub fn acquire(&self, now_ns: u64, duration_ns: u64) -> (u64, u64) {
        loop {
            let free = self.free_ns.load(Ordering::Acquire);
            let start = now_ns.max(free);
            let end = start + duration_ns;
            if self
                .free_ns
                .compare_exchange_weak(free, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return (start, end);
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_fifo_and_non_overlapping() {
        let clock = AtomicU64::new(0);
        let link = LiveLink::new(&clock);
        let (s1, e1) = link.acquire(100, 50);
        assert_eq!((s1, e1), (100, 150), "an idle link grants immediately");
        let (s2, e2) = link.acquire(120, 30);
        assert_eq!((s2, e2), (150, 180), "a busy link queues the transfer");
        let (s3, _) = link.acquire(500, 10);
        assert_eq!(s3, 500, "an idle link never delays");
    }

    #[test]
    fn concurrent_acquirers_never_overlap() {
        let clock = AtomicU64::new(0);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let link = LiveLink::new(&clock);
                    for _ in 0..1000 {
                        let (start, end) = link.acquire(0, 7);
                        assert_eq!(end - start, 7);
                        total.fetch_add(end - start, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            clock.load(Ordering::Relaxed),
            total.load(Ordering::Relaxed),
            "the link clock must advance by exactly the granted time (no overlap, no gaps)"
        );
    }
}
