//! Shared-memory IPC primitives for the live fleet-serving path.
//!
//! The live runtime (`corki-serve`) moves fixed-size messages between a
//! coordinator, robot-client processes and inference-worker processes over
//! one mmap'd `/dev/shm` segment per run:
//!
//! - [`ShmSegment`] — creates/opens the segment and hands out
//!   bounds-checked views of it;
//! - [`SpscRing`] — single-producer/single-consumer rings of fixed-size
//!   slots (request and completion queues), with backpressure instead of
//!   overwrites;
//! - [`SeqlockSlot`] — single-writer broadcast snapshots readers copy
//!   tear-free without blocking the writer (plan responses);
//! - [`Doorbell`] — a futex wake-up counter: producers ring the
//!   consumer's bell after publishing, consumers sleep on it instead of
//!   polling;
//! - [`monotonic_ns`] — the shared `CLOCK_MONOTONIC` timebase that makes
//!   timestamps comparable across the processes of a run.
//!
//! This is the only crate of the workspace that contains `unsafe` — the
//! system crate `forbid`s it — and it keeps the surface small: a handful
//! of `extern "C"` declarations ([`sys`]) against the C library `std`
//! already links (the environment has no registry access, so no `libc`
//! crate), and the pointer arithmetic and futex calls behind the
//! primitives.  Callers get a safe API: all offsets are bounds- and
//! alignment-checked against the mapping, and rings/slots/bells borrow the
//! segment so they cannot outlive it.

#![warn(missing_docs)]

mod doorbell;
mod ring;
mod seqlock;
mod shm;
pub mod sys;
mod time;

pub use doorbell::Doorbell;
pub use ring::SpscRing;
pub use seqlock::SeqlockSlot;
pub use shm::ShmSegment;
pub use time::monotonic_ns;
