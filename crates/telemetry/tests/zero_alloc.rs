//! Proof that the in-path recorder is allocation-free: a counting global
//! allocator wraps the system allocator, and a burst of `record()` and
//! timeline `event()` calls — against both the plain-memory recorder and
//! the shared-memory page view — must leave the allocation counter
//! untouched. This is the property that makes "always-on" honest: the
//! hot serving path never pays an allocator visit for telemetry.

use std::sync::atomic::AtomicU64;

use corki_telemetry::{EventKind, Recorder, ShmTelemetry, Stage, PAGE_WORDS};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocation_count;

#[test]
fn recorder_record_performs_zero_allocations() {
    // Construction allocates (the timeline vector); recording must not.
    let mut recorder = Recorder::new(8);
    let before = allocation_count();
    for i in 0..4096_u64 {
        for stage in Stage::ALL {
            recorder.record(stage, i * 1_000);
        }
        recorder.record_ms(Stage::ControlStep, 33.3);
        recorder.event(
            (i % 8) as usize,
            i * 1_000_000,
            if i % 2 == 0 { EventKind::Plan } else { EventKind::LocalPlan },
            i * 500,
        );
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "in-path record()/event() must not touch the allocator");
}

#[test]
fn shm_record_performs_zero_allocations() {
    let words: Vec<AtomicU64> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    let page = ShmTelemetry::new(&words);
    let before = allocation_count();
    for i in 0..4096_u64 {
        for stage in Stage::ALL {
            page.record(stage, i * 1_000);
        }
        page.event(i * 1_000_000, EventKind::Plan, i * 500);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "shared-memory record()/event() must not touch the allocator");
}
