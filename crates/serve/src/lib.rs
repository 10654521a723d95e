//! Live fleet serving over shared memory: the wall-clock counterpart of
//! the deterministic fleet simulator.
//!
//! A live run lowers one committed scenario cell into real processes — one
//! robot client per robot, one inference worker per server, and a
//! coordinator that serves from the *same* `ServerPool` (routing, batching,
//! batch pricing, busy time) and reduces the *same* `ServingSamples` as
//! the DES engine — all communicating through one mmap'd `/dev/shm`
//! segment of [`corki_ipc`] SPSC rings and seqlock snapshot slots:
//!
//! ```text
//!            DES (oracle)                       live path
//!   ScenarioSpec ──► FleetSimulator    ScenarioSpec ──► coordinator
//!        │   simulated clock                │   wall clock, robots/workers
//!        │                                  │   as processes
//!        ├──── ServerPool, ServingSamples ──┤
//!        │     RobotProfile (shared cores)  │
//!        ▼                                  ▼
//!    FleetSummary  ◄── agree within ──► LiveReport (FleetSweepRow-shaped
//!                      tolerance          + measured IPC transit)
//! ```
//!
//! Every modelled constant — control step time, upload hiding, batched
//! service time, link arbitration — comes from the clock-agnostic cores in
//! `corki_system::fleet`, so the DES remains a usable oracle: a live run
//! of a fault-free cell must agree with the simulator within the
//! tolerance of a time-shared host.  On top of the modelled quantities,
//! the live path *measures* what simulation cannot: the per-hop
//! shared-memory transit latencies and the end-to-end residual (the
//! Lithos-style `cross-process e2e − Σ per-stage totals` decomposition).
//!
//! The crate contains no `unsafe`: all shared-memory access goes through
//! the bounds-checked safe API of [`corki_ipc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod link;
mod proto;
mod report;
mod robot;
mod sync;
mod worker;

pub use coordinator::run_live;
pub use report::{LiveReport, StageStats, TransitStats};
pub use robot::run_robot;
pub use worker::run_worker;

/// Why a live run could not start or finish.
#[derive(Debug)]
pub enum LiveError {
    /// The cell uses features the live path does not express (faults,
    /// adaptive warm-up, oversized fleets).
    Unsupported(String),
    /// A system call failed (segment mapping, process spawning, …).
    Io(std::io::Error),
    /// A child process exited abnormally.
    ChildFailed(String),
    /// The coordinator raised the abort flag while this process waited.
    Aborted,
    /// The shared-memory protocol was violated or timed out.
    Protocol(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Unsupported(why) => write!(f, "scenario not live-runnable: {why}"),
            LiveError::Io(err) => write!(f, "live run I/O failure: {err}"),
            LiveError::ChildFailed(who) => write!(f, "live run child failed: {who}"),
            LiveError::Aborted => f.write_str("live run aborted"),
            LiveError::Protocol(why) => write!(f, "live protocol violation: {why}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(err) => Some(err),
            _ => None,
        }
    }
}
