//! Benchmarks of the small kernels on the fleet-serving hot paths: the DES
//! event queue behind every fleet run, the shared-memory hops of the live
//! path, and the always-on telemetry recorder in both of its homes.
//!
//! Timings are host-bound and never committed; `python3 benchmark/run.py`
//! measures the serving paths end to end.

use corki_ipc::ShmSegment;
use corki_system::des::EventQueue;
use corki_telemetry::{Recorder, ShmTelemetry, Stage, PAGE_WORDS};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One live-protocol message (64 bytes).
const MSG: usize = 64;

/// A linear congruential step: cheap, deterministic pseudo-random inputs.
fn lcg(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Steady-state schedule/pop traffic through a warm 512-event queue.
fn bench_des_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_queue");
    let mut queue = EventQueue::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..512 {
        state = lcg(state);
        queue.schedule(1.0 + (state >> 40) as f64 / 64.0, state);
    }
    group.bench_function("event_queue", |b| {
        b.iter(|| {
            state = lcg(state);
            queue.schedule(queue.now_ms() + 1.0 + (state >> 40) as f64 / 64.0, state);
            black_box(queue.pop())
        })
    });
    group.finish();
}

/// The per-hop costs of the live serving path: one SPSC ring hop and one
/// seqlock publish/snapshot on a single thread, and a cross-thread ring
/// round trip through an echo thread — its excess over the same-thread hop
/// is the wake-up and scheduling cost a live process pays on top of the
/// copy itself.
fn bench_ipc_transit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_transit");
    let seg = ShmSegment::anonymous(16 * 1024).expect("anonymous shared-memory segment");
    let local_ring = seg.init_ring(0, 8, MSG);
    let slot = seg.init_seqlock(1024, MSG);
    let req = seg.init_ring(2048, 8, MSG);
    let resp = seg.init_ring(4096, 8, MSG);
    let echo_req = seg.ring(2048).expect("attach echo request ring");
    let echo_resp = seg.ring(4096).expect("attach echo response ring");

    let mut buf = [0_u8; MSG];
    group.bench_function("ring_push_pop", |b| {
        b.iter(|| {
            black_box(local_ring.try_push(&[0x5A; MSG]));
            black_box(local_ring.try_pop(&mut buf))
        })
    });
    let mut payload = [0_u8; MSG];
    let mut counter = 0_u64;
    group.bench_function("seqlock_publish_read", |b| {
        b.iter(|| {
            counter = counter.wrapping_add(1);
            payload[..8].copy_from_slice(&counter.to_le_bytes());
            slot.write(&payload);
            black_box(slot.read(&mut buf))
        })
    });

    // The echo thread parks while idle instead of stealing the timing
    // loop's cycles.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            let mut msg = [0_u8; MSG];
            loop {
                if echo_req.try_pop(&mut msg) {
                    while !echo_resp.try_push(&msg) {
                        std::thread::yield_now();
                    }
                } else if stop.load(Ordering::Relaxed) {
                    return;
                } else {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
        });
        group.bench_function("cross_thread_rtt", |b| {
            b.iter(|| {
                assert!(req.try_push(&[0x7E; MSG]), "the echo thread drains every request");
                echo.thread().unpark();
                // Yield while spinning so a single-core host can run the
                // echo thread at all.
                while !resp.try_pop(&mut buf) {
                    std::thread::yield_now();
                }
                black_box(&buf);
            })
        });
        stop.store(true, Ordering::Relaxed);
        echo.thread().unpark();
    });
    group.finish();
}

/// The recorder's per-record cost in plain memory (the DES engine's
/// `Recorder`) and in a shared-memory page of atomics (the live processes'
/// `ShmTelemetry`).
fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    let mut recorder = Recorder::new(8);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    group.bench_function("record", |b| {
        b.iter(|| {
            state = lcg(state);
            recorder.record(Stage::PoolQueue, black_box(state >> 40));
        })
    });
    let page: Vec<AtomicU64> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    let shm_recorder = ShmTelemetry::new(&page);
    let mut state = 0x853c_49e6_748f_ea9bu64;
    group.bench_function("shm_record", |b| {
        b.iter(|| {
            state = lcg(state);
            shm_recorder.record(Stage::PoolQueue, black_box(state >> 40));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_des_queue, bench_ipc_transit, bench_telemetry);
criterion_main!(benches);
