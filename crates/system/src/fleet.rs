//! The event-driven multi-robot fleet-serving runtime.
//!
//! N independent robot sessions share a *pool* of LLM inference servers and
//! one communication link; everything is driven by the deterministic event
//! queue of [`crate::des`].  Each session cycles through the Corki serving
//! loop:
//!
//! 1. **capture** — the robot finishes its current plan and captures a frame;
//!    robots that offload inference contend for the shared link, robots that
//!    carry their own inference device ([`RobotCompute::OnRobot`], e.g. a
//!    Jetson-class board) bypass the uplink entirely;
//! 2. **route + queue** — an offloaded request is placed on one server of the
//!    [`ServerConfig`] pool by the configured
//!    [`RoutingPolicy`], then joins that
//!    server's [`BatchScheduler`], which decides when to release which
//!    requests as one inference batch;
//! 3. **inference** — the chosen server runs the batch on *its own* device
//!    model (service time grows mildly with batch size) and returns a plan
//!    per robot; on-robot sessions run the inference locally instead;
//! 4. **execute** — the robot executes its trajectory step by step on its
//!    own control hardware (every robot carries its own TS-CTC accelerator,
//!    as in the paper's Fig. 1b), paced by
//!    [`FleetConfig::execution_step_ms`].
//!
//! The single-robot pipeline ([`FleetConfig::single_robot`], run by
//! [`crate::simulate_pipeline`]) is the N=1 case of this engine
//! (uncontended link, one FIFO server, no execution pacing) and reproduces
//! the legacy per-frame traces exactly — see `tests/des_regression.rs`.
//! The homogeneous single-server fleets are likewise pinned
//! float-for-float by `tests/fleet_golden.rs`.
//! With N>1 the engine turns the paper's per-robot claim (one inference buys
//! a multi-step trajectory) into a serving claim: longer trajectories lower
//! the per-robot request rate, which raises the number of robots one server
//! sustains within a latency budget — and heterogeneous pools show how many
//! datacenter GPUs a mixed Jetson/V100 deployment actually needs.
//!
//! Steady-state metrics: aggregate latency percentiles optionally exclude a
//! [`FleetConfig::warmup_ms`] start-up window, because the closed queueing
//! loop needs a few cycles to reach its stationary regime and short runs
//! otherwise fold the transient into p99.
//!
//! Per-robot records are bounded the way telemetry bounds its timelines:
//! only robots below [`corki_telemetry::MAX_TIMELINES`] keep per-frame
//! [`RobotOutcome::frame_traces`] rows.  The engine keeps every frame's
//! latency in one preallocated robot-major store instead, so the summary's
//! frame statistics still cover the whole fleet while the rows of a run
//! stay bounded by 64 robots, whatever the fleet size.
//!
//! # Module layout
//!
//! The state machines are split into transport- and clock-agnostic cores
//! in private submodules — `scheduler` (the two server queues: the
//! max-batch/timeout batcher, which also serves `fifo` as the batcher of
//! one, and the shortest-trajectory-first heap, both built only through
//! [`SchedulerKind::build`]), `session` (robot profiles and per-robot
//! state), `server` (pool configuration and [`ServerPool`], the one
//! serving core: routing, batching, batch pricing and busy time),
//! `faults` (injection plans) and `stats` (run outputs, the
//! [`ServingSamples`] estimators and the warm-up choice, trimming and
//! detection) — whose public items are re-exported here, so each has the
//! one path `corki_system::fleet::*`.  This module keeps what is genuinely
//! DES-specific: the event enum, the engine that lowers session and server
//! transitions onto the event queue, and the simulator front-end.  The
//! live `corki-serve` coordinator drives the same [`ServerPool`] and
//! [`ServingSamples`] from wall-clock time, which is why a live run can be
//! checked against the DES as an oracle.
//!
//! The engine is one sequential loop over one [`crate::des::EventQueue`] in
//! global `(time, seq)` order; a sweep parallelises across cells, not
//! within one.  The queue's FIFO lane absorbs the monotone stream of
//! far-future upload completions that a saturated uplink grants in time
//! order, so its heap holds only the near-term events; routing reads the
//! server pool in place.  Neither allocates in the steady state (see the
//! `event_arena` allocation-counting test).

mod faults;
mod scheduler;
mod server;
mod session;
mod stats;

pub use faults::{ChurnSpec, CrashSpec, FaultPlan, LinkDegradationSpec, TimeoutSpec};
pub use scheduler::{BatchScheduler, PendingRequest, SchedulerKind};
pub use server::{ServerConfig, ServerPool};
pub use session::{
    fleet_robot_seed, hidden_upload_ms, on_robot_inference_cost, plan_upload_ms, RobotCompute,
    RobotConfig, RobotProfile, DEFAULT_ADAPTIVE_LENGTHS, DEFAULT_EXECUTION_STEP_MS,
};
pub use stats::{
    FleetOutcome, FleetSummary, RobotOutcome, ServingSamples, ServingStats, WarmupSpec,
};

use crate::des::{EventQueue, Scheduled};
use crate::devices::InferenceModel;
use crate::pipeline::{mean, percentile_in_place, FrameKind};
use crate::routing::RoutingPolicy;
use crate::variant::Variant;
use corki_accel::Arbiter;
use corki_telemetry::{ns_of_ms, EventKind, Recorder, Stage};
use rand::Rng;
use serde::{Deserialize, Serialize};
use session::Session;
use stats::{mser5_warmup, trim_warmup};

/// Configuration of a fleet-serving simulation — the one configuration of
/// the engine, single-robot pipeline included.  The device constants every
/// experiment shares (Wi-Fi link, ZC706 accelerator, i7-6770HQ CPU, ACE
/// skip fraction, upload hiding, jitter) are fixed in the session model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The robots of the fleet (variant + seed + compute placement each).
    pub robots: Vec<RobotConfig>,
    /// The inference server pool (device + scheduler per server).
    pub servers: Vec<ServerConfig>,
    /// How offloaded requests are spread over the pool.
    pub routing: RoutingPolicy,
    /// Executed-length distribution for [`Variant::CorkiAdaptive`] robots.
    pub adaptive_lengths: Vec<usize>,
    /// Camera frames (control steps) each robot executes.
    pub frames_per_robot: usize,
    /// Real-time duration of one executed control step — the robot's motion
    /// paces the loop at e.g. the 30 Hz camera rate.  It also staggers the
    /// starts (robot `r` captures its first frame at `r · execution_step_ms`,
    /// avoiding the artificial time-zero convoy of a phase-locked fleet) and
    /// turns on background uploads (the hidden portion of each multi-step
    /// plan's frame upload occupies the shared uplink).  `0` is the legacy
    /// latency-only model of the single-robot pipeline: no pacing, no
    /// stagger and no background upload.
    pub execution_step_ms: f64,
    /// Start-up window excluded from the aggregate plan/queue/link latency
    /// statistics.  A fixed `0` ms (the default) keeps every sample — the
    /// PR 3 behaviour; fleet sweeps enable a warm-up so short runs report
    /// steady-state percentiles instead of the closed-loop transient.
    /// [`WarmupSpec::Auto`] detects the truncation point with MSER-5 over
    /// the pool queue-depth time series, and the reported
    /// [`FleetSummary::warmup_ms`] is the detected value.
    pub warmup_ms: WarmupSpec,
    /// Per-plan latency budget behind
    /// [`FleetSummary::slo_violation_fraction`], ms.
    pub slo_budget_ms: f64,
    /// Optional deterministic fault-injection plan.  `None` (the default)
    /// injects nothing and leaves the fault-free event stream — and every
    /// golden trace — bit-for-bit unchanged.
    pub faults: Option<FaultPlan>,
}

impl FleetConfig {
    /// A fleet with the paper's default devices: `robots` homogeneous
    /// offloaded robots running `variant`, seeded deterministically from
    /// `seed`, served by a single V100 FIFO server and paced at 30 Hz.
    pub fn paper_defaults(variant: Variant, robots: usize, seed: u64) -> Self {
        FleetConfig {
            robots: (0..robots)
                .map(|r| RobotConfig {
                    variant: variant.clone(),
                    seed: fleet_robot_seed(seed, r as u64),
                    compute: RobotCompute::Offloaded,
                })
                .collect(),
            execution_step_ms: DEFAULT_EXECUTION_STEP_MS,
            ..FleetConfig::single_robot(variant)
        }
    }

    /// The single-robot pipeline of Fig. 13/14 and Tables 3/4 (run it with
    /// [`crate::simulate_pipeline`]): one robot with jitter seed 7, 300
    /// frames, one V100 FIFO server and no execution pacing — the exact
    /// legacy latency model.
    pub fn single_robot(variant: Variant) -> Self {
        FleetConfig {
            robots: vec![RobotConfig { variant, seed: 7, compute: RobotCompute::Offloaded }],
            servers: vec![ServerConfig::new(InferenceModel::default(), SchedulerKind::Fifo)],
            routing: RoutingPolicy::RoundRobin,
            adaptive_lengths: DEFAULT_ADAPTIVE_LENGTHS.to_vec(),
            frames_per_robot: 300,
            execution_step_ms: 0.0,
            warmup_ms: WarmupSpec::Fixed(0.0),
            slo_budget_ms: 400.0,
            faults: None,
        }
    }

    /// Grows the pool to `servers` replicas of the first server (device and
    /// scheduler included).
    pub fn with_pool(mut self, servers: usize) -> Self {
        let template = *self.servers.first().expect("the fleet has at least one server");
        self.servers = vec![template; servers.max(1)];
        self
    }

    /// Applies one batching discipline to every server of the pool.
    pub fn set_scheduler(&mut self, scheduler: SchedulerKind) {
        for server in &mut self.servers {
            server.scheduler = scheduler;
        }
    }

    /// The scheduler label reported in summaries: the shared name when every
    /// server agrees, otherwise the `+`-joined per-server names (`fifo+stf`).
    pub fn scheduler_label(&self) -> String {
        let Some(first) = self.servers.first() else { return "none".to_owned() };
        if self.servers.iter().all(|server| server.scheduler == first.scheduler) {
            return first.scheduler.to_string();
        }
        self.servers.iter().map(|server| server.scheduler.to_string()).collect::<Vec<_>>().join("+")
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetEvent {
    Capture {
        robot: usize,
    },
    UploadDone {
        robot: usize,
    },
    SchedulerWake {
        server: usize,
    },
    /// `epoch` pins the server incarnation that dispatched the batch: a
    /// crash bumps the epoch, so the completion of an aborted batch is
    /// recognised as stale and ignored.
    InferenceDone {
        server: usize,
        epoch: u64,
    },
    LocalInferenceDone {
        robot: usize,
    },
    StepDone {
        robot: usize,
    },
    /// The robot abandons `attempt` unless a plan arrived in the meantime
    /// (stale timeouts carry a superseded attempt id and are no-ops).
    RequestTimeout {
        robot: usize,
        attempt: u64,
    },
    /// A backed-off re-upload of the frame for a fresh attempt.
    RetryUpload {
        robot: usize,
        attempt: u64,
    },
    ServerCrash {
        server: usize,
    },
    ServerRecover {
        server: usize,
    },
}

/// Simulates a fleet of robots sharing an inference server pool.
#[derive(Debug, Clone)]
pub struct FleetSimulator {
    config: FleetConfig,
}

struct Engine<'a> {
    cfg: &'a FleetConfig,
    queue: EventQueue<FleetEvent>,
    sessions: Vec<Session>,
    link: Arbiter,
    pool: ServerPool,
    /// The pending `SchedulerWake` of each server, so a held-back batch
    /// schedules one wake-up rather than one per arrival.
    next_wake_ms: Vec<Option<f64>>,
    // Aggregate metric samples, stamped with their completion time so the
    // warm-up window can be trimmed at aggregation time.
    samples: ServingSamples,
    link_waits_ms: Vec<(f64, f64)>,
    /// The jittered latency of every executed frame, robot-major: frame
    /// `f` of robot `r` at `r * frames_per_robot + f`.  Covers the robots
    /// without trace rows too, so the summary's frame statistics see every
    /// frame.
    frame_latencies: Vec<f64>,
    on_robot_inferences: usize,
    // Fault bookkeeping (all zero / empty on fault-free runs).
    fallback_inferences: usize,
    timed_out_requests: usize,
    retries: usize,
    dropped_requests: usize,
    recovery: Vec<RecoveryTracker>,
    /// `(time, total pool queue depth)` samples for MSER-5 warm-up
    /// detection; only recorded under [`WarmupSpec::Auto`].
    queue_depth_series: Vec<(f64, f64)>,
    /// Always-on stage histograms + bounded per-robot timelines, recorded
    /// with the same six-stage taxonomy as the live path.  Records only
    /// already-computed values (no RNG draws, no scheduling), so it cannot
    /// perturb determinism.
    telemetry: Recorder,
}

/// How long a crashed server took to complete its first inference after
/// its scheduled recovery instant (one tracker per crash window).
struct RecoveryTracker {
    server: usize,
    recover_at_ms: f64,
    first_done_ms: Option<f64>,
}

impl FleetSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no servers (even an all-on-robot
    /// fleet keeps a pool definition for its labels).
    pub fn new(config: FleetConfig) -> Self {
        assert!(!config.servers.is_empty(), "a fleet needs at least one inference server");
        FleetSimulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the fleet to completion and aggregates the serving metrics.
    pub fn run(&self) -> FleetOutcome {
        let cfg = &self.config;
        let mut engine = Engine {
            cfg,
            queue: EventQueue::new(),
            sessions: cfg
                .robots
                .iter()
                .enumerate()
                .map(|(index, robot)| Session::new(index, robot, cfg))
                .collect(),
            link: Arbiter::new(),
            pool: ServerPool::new(&cfg.servers, cfg.routing),
            next_wake_ms: vec![None; cfg.servers.len()],
            samples: ServingSamples::default(),
            link_waits_ms: Vec::new(),
            frame_latencies: vec![0.0; cfg.robots.len() * cfg.frames_per_robot],
            on_robot_inferences: 0,
            fallback_inferences: 0,
            timed_out_requests: 0,
            retries: 0,
            dropped_requests: 0,
            recovery: Vec::new(),
            queue_depth_series: Vec::new(),
            telemetry: Recorder::new(cfg.robots.len()),
        };
        for robot in 0..cfg.robots.len() {
            let mut start = robot as f64 * cfg.execution_step_ms;
            // Churned robots join late: their first capture waits for the
            // later of the deterministic stagger and the join instant.
            if let Some(churn) = cfg.faults.as_ref().and_then(|f| f.churn_of(robot)) {
                start = start.max(churn.join_at_ms);
            }
            engine.queue.schedule(start, FleetEvent::Capture { robot });
        }
        // Crash/recovery pairs are ordinary events scheduled upfront, after
        // the capture loop — a fault-free run schedules nothing here, so its
        // sequence-number stream (and every golden trace) is unchanged.
        if let Some(faults) = cfg.faults.as_ref() {
            for crash in &faults.crashes {
                let recover_at_ms = crash.at_ms + crash.down_ms;
                engine
                    .queue
                    .schedule(crash.at_ms, FleetEvent::ServerCrash { server: crash.server });
                engine
                    .queue
                    .schedule(recover_at_ms, FleetEvent::ServerRecover { server: crash.server });
                engine.recovery.push(RecoveryTracker {
                    server: crash.server,
                    recover_at_ms,
                    first_done_ms: None,
                });
            }
        }
        while let Some(scheduled) = engine.queue.pop() {
            engine.handle(scheduled);
        }
        engine.finish()
    }
}

impl Engine<'_> {
    fn handle(&mut self, scheduled: Scheduled<FleetEvent>) {
        let now = scheduled.time_ms;
        match scheduled.event {
            FleetEvent::Capture { robot } => self.on_capture(robot, now),
            FleetEvent::UploadDone { robot } => self.on_upload_done(robot, now),
            FleetEvent::SchedulerWake { server } => {
                self.next_wake_ms[server] = None;
                self.try_dispatch(server, now);
            }
            FleetEvent::InferenceDone { server, epoch } => {
                self.on_inference_done(server, epoch, now)
            }
            FleetEvent::LocalInferenceDone { robot } => self.on_local_inference_done(robot, now),
            FleetEvent::StepDone { robot } => self.on_step_done(robot, now),
            FleetEvent::RequestTimeout { robot, attempt } => {
                self.on_request_timeout(robot, attempt, now)
            }
            FleetEvent::RetryUpload { robot, attempt } => self.on_retry_upload(robot, attempt, now),
            // A crash aborts the batch in service and drops the queue (the
            // robots recover via their timeouts); the server returns empty.
            FleetEvent::ServerCrash { server } => self.pool.crash(server, now),
            FleetEvent::ServerRecover { server } => {
                self.pool.recover(server);
                self.try_dispatch(server, now);
            }
        }
    }

    fn on_capture(&mut self, robot: usize, now: f64) {
        let frames = self.cfg.frames_per_robot;
        let session = &mut self.sessions[robot];
        if session.frame_index >= frames {
            session.finished_ms = now;
            return;
        }
        if session.leave_at_ms.is_some_and(|leave| now >= leave) {
            // The robot churns out of the fleet: its remaining frames stay
            // unexecuted and it never captures again.
            session.finished_ms = now;
            return;
        }
        let plan_index = session.inference_count;
        session.inference_count += 1;
        // The untruncated length decides how much of the upload is hidden
        // (mirrors the legacy per-plan `steps == 1` check); execution is
        // truncated to the remaining frames.
        let full_steps = session.profile.steps_model.steps_for(plan_index);
        session.plan_steps = full_steps.min(frames - session.frame_index);
        session.step_in_plan = 0;
        session.capture_ms = now;
        session.upload_ms = 0.0;
        session.link_wait_ms = 0.0;
        if let Some((local_service_ms, _)) = session.profile.local {
            // On-robot inference: no upload, no routing, no queueing — the
            // robot's own device runs the plan back to back with capture.
            self.queue.schedule(now + local_service_ms, FleetEvent::LocalInferenceDone { robot });
            return;
        }
        session.base_upload_ms = plan_upload_ms(session.profile.is_baseline, full_steps);
        // Each plan opens a fresh attempt; retries claim further ids.
        session.attempt += 1;
        session.active_attempt = Some(session.attempt);
        session.retries_this_plan = 0;
        self.upload(robot, now);
    }

    /// Puts `robot`'s frame on the shared uplink at `now`: the plan's
    /// undegraded upload, scaled by any link degradation in force.  A
    /// retry pays the uplink again, so the plan's totals accumulate.
    fn upload(&mut self, robot: usize, now: f64) {
        let session = &mut self.sessions[robot];
        let upload_ms = match self.cfg.faults.as_ref() {
            Some(faults) => session.base_upload_ms * faults.link_factor_at(now),
            None => session.base_upload_ms,
        };
        session.upload_ms += upload_ms;
        let grant = self.link.acquire(now, upload_ms);
        session.link_wait_ms += grant.wait_ms;
        self.link_waits_ms.push((grant.end_ms, grant.wait_ms));
        self.telemetry.record_ms(Stage::Encode, upload_ms);
        self.telemetry.record_ms(Stage::UplinkQueue, grant.wait_ms);
        self.queue.schedule(grant.end_ms, FleetEvent::UploadDone { robot });
    }

    fn on_upload_done(&mut self, robot: usize, now: f64) {
        // Fault layer: the timeout clock starts the moment the upload
        // completes, and a lossy link window may eat the frame outright.
        if let Some(faults) = self.cfg.faults.as_ref() {
            let attempt = self.sessions[robot]
                .active_attempt
                .expect("an upload in flight always has an active attempt");
            if let Some(policy) = faults.timeout {
                self.queue.schedule(
                    now + policy.timeout_ms,
                    FleetEvent::RequestTimeout { robot, attempt },
                );
            }
            let loss = faults.link_loss_at(now);
            if loss > 0.0 {
                let rng = self.sessions[robot]
                    .fault_rng
                    .as_mut()
                    .expect("fault RNGs exist whenever a fault plan is set");
                if rng.gen_bool(loss) {
                    // The frame never reaches a server; the robot recovers
                    // via its timeout.
                    return;
                }
            }
        }
        let session = &self.sessions[robot];
        let admitted = self.pool.admit(
            now,
            robot,
            session.attempt,
            session.plan_steps,
            !session.profile.is_baseline,
        );
        // With the whole pool down the request is lost in flight and the
        // robot recovers via its timeout.
        let Some(target) = admitted else { return };
        if self.cfg.warmup_ms == WarmupSpec::Auto {
            self.queue_depth_series.push((now, self.pool.depth() as f64));
        }
        self.try_dispatch(target, now);
    }

    /// A timed-out attempt: retry with backoff while the budget lasts, then
    /// degrade (fallback model or a dropped plan with one blind step).
    fn on_request_timeout(&mut self, robot: usize, attempt: u64, now: f64) {
        if self.sessions[robot].active_attempt != Some(attempt) {
            return; // The plan arrived (or a retry superseded the attempt).
        }
        let cfg = self.cfg;
        let faults = cfg.faults.as_ref().expect("timeouts only fire with a fault plan");
        let policy = faults.timeout.expect("a scheduled timeout implies a timeout policy");
        self.timed_out_requests += 1;
        let session = &mut self.sessions[robot];
        if session.retries_this_plan < policy.max_retries {
            session.retries_this_plan += 1;
            self.retries += 1;
            session.attempt += 1;
            session.active_attempt = Some(session.attempt);
            let backoff = policy.backoff_ms * 2.0_f64.powi(session.retries_this_plan as i32 - 1);
            self.queue.schedule(
                now + backoff,
                FleetEvent::RetryUpload { robot, attempt: session.attempt },
            );
            return;
        }
        // Retries exhausted: the robot gives up on the pool for this plan.
        session.active_attempt = None;
        if let Some(model) = faults.fallback.as_ref() {
            let (service_ms, energy_j) =
                on_robot_inference_cost(model, session.profile.is_baseline);
            session.fallback_pending = Some((service_ms, energy_j));
            self.queue.schedule(now + service_ms, FleetEvent::LocalInferenceDone { robot });
        } else {
            // No fallback model: drop the plan and execute one blind step so
            // the robot keeps making (degraded) progress.
            self.dropped_requests += 1;
            session.plan_steps = 1;
            session.step_in_plan = 0;
            session.queue_wait_ms = 0.0;
            session.batch_service_ms = 0.0;
            session.inference_energy_j = 0.0;
            self.start_step(robot, now);
        }
    }

    /// Re-uploads the frame for a fresh attempt after its backoff expired.
    fn on_retry_upload(&mut self, robot: usize, attempt: u64, now: f64) {
        if self.sessions[robot].active_attempt == Some(attempt) {
            self.upload(robot, now);
        }
    }

    fn try_dispatch(&mut self, server: usize, now: f64) {
        let Some((service, batch)) = self.pool.dispatch(server, now) else {
            if let Some(release) = self.pool.next_release_ms(server) {
                let release = if release > now { release } else { now };
                let wake = &mut self.next_wake_ms[server];
                if wake.is_none_or(|wake| release < wake) {
                    self.queue.schedule(release, FleetEvent::SchedulerWake { server });
                    *wake = Some(release);
                }
            }
            return;
        };
        let config = &self.cfg.servers[server];
        for request in batch {
            let session = &mut self.sessions[request.robot];
            if session.active_attempt != Some(request.attempt) {
                // The robot abandoned this attempt: the server still burns
                // the service time, but the robot's bookkeeping is not
                // touched and the wait is not a delivered-work sample.
                continue;
            }
            let wait = now - request.arrival_ms;
            session.queue_wait_ms = wait;
            session.batch_service_ms = service;
            session.inference_energy_j = config.inference_energy_j(!session.profile.is_baseline);
            self.samples.queue_wait(now, wait);
            self.telemetry.record_ms(Stage::PoolQueue, wait);
        }
        self.samples.batch(batch.len());
        self.telemetry.record_ms(Stage::BatchService, service);
        let epoch = self.pool.epoch(server);
        self.queue.schedule(now + service, FleetEvent::InferenceDone { server, epoch });
    }

    fn on_inference_done(&mut self, server: usize, epoch: u64, now: f64) {
        if self.pool.epoch(server) != epoch {
            // The batch was aborted by a crash between dispatch and
            // completion; its robots recover via their timeouts.
            return;
        }
        let batch = self.pool.complete(server, None, now);
        for request in &batch {
            let session = &mut self.sessions[request.robot];
            if session.active_attempt != Some(request.attempt) {
                continue; // The robot gave up on this request meanwhile.
            }
            session.active_attempt = None;
            // The DES models the plan downlink as instantaneous; recording
            // the zero keeps the stage present so the live path's (small,
            // polling-bound) downlink has an explicit oracle to beat.
            self.telemetry.record(Stage::Downlink, 0);
            self.deliver_plan(request.robot, now, EventKind::Plan);
        }
        self.pool.recycle(batch);
        // A completion at/after a crash window's recovery instant marks the
        // server as back in service for the recovery-time metric.
        for tracker in &mut self.recovery {
            if tracker.server == server
                && tracker.first_done_ms.is_none()
                && now >= tracker.recover_at_ms
            {
                tracker.first_done_ms = Some(now);
            }
        }
        self.try_dispatch(server, now);
    }

    fn on_local_inference_done(&mut self, robot: usize, now: f64) {
        let session = &mut self.sessions[robot];
        let fallback = session.fallback_pending.take();
        let (local_service_ms, local_energy_j) = fallback
            .or(session.profile.local)
            .expect("local inference implies an on-robot device or a fallback inference in flight");
        session.queue_wait_ms = 0.0;
        session.batch_service_ms = local_service_ms;
        session.inference_energy_j = local_energy_j;
        if fallback.is_some() {
            self.fallback_inferences += 1;
        } else {
            self.on_robot_inferences += 1;
        }
        self.deliver_plan(robot, now, EventKind::LocalPlan);
    }

    /// A plan reached `robot` at `now`: a plan-latency sample and a
    /// timeline event of `kind`, then the robot starts executing it.
    fn deliver_plan(&mut self, robot: usize, now: f64, kind: EventKind) {
        let session = &mut self.sessions[robot];
        let plan_latency = now - session.capture_ms;
        session.plan_latency_sum_ms += plan_latency;
        self.samples.plan(now, plan_latency);
        self.telemetry.event(robot, ns_of_ms(now), kind, ns_of_ms(plan_latency));
        self.start_step(robot, now);
    }

    fn start_step(&mut self, robot: usize, now: f64) {
        // Every robot computes its control on its own hardware, so the step
        // never waits for it to free up.  The robot's physical motion paces
        // the step; compute must fit inside the step period or it becomes
        // the bottleneck.
        let compute_end = now + self.sessions[robot].profile.control_ms;
        let paced_end = now + self.cfg.execution_step_ms;
        let step_end = if compute_end > paced_end { compute_end } else { paced_end };
        self.telemetry.record_ms(Stage::ControlStep, step_end - now);
        self.queue.schedule(step_end, FleetEvent::StepDone { robot });
    }

    fn on_step_done(&mut self, robot: usize, now: f64) {
        let frames = self.cfg.frames_per_robot;
        let session = &mut self.sessions[robot];
        let comm_energy_j = session.profile.comm_energy_j;
        // Per-frame latency/energy attribution, term-for-term identical to
        // the legacy single-robot pipeline (fleet-only waits are folded in
        // as exact zeros when uncontended).
        let (kind, latency, energy) = if session.step_in_plan == 0 {
            let fleet_extra = session.link_wait_ms + session.queue_wait_ms;
            let (base_latency, base_energy) = if session.profile.is_baseline {
                (
                    session.batch_service_ms + session.profile.control_ms + session.upload_ms,
                    session.inference_energy_j + session.profile.control_energy_j + comm_energy_j,
                )
            } else {
                (
                    session.upload_ms + session.batch_service_ms + session.profile.control_ms,
                    session.inference_energy_j + comm_energy_j + session.profile.control_energy_j,
                )
            };
            (FrameKind::Inference, base_latency + fleet_extra, base_energy)
        } else {
            let hidden_comm_energy = if session.step_in_plan == 1 { comm_energy_j } else { 0.0 };
            (
                FrameKind::Execution,
                session.profile.control_ms,
                session.profile.control_energy_j + hidden_comm_energy,
            )
        };
        self.frame_latencies[robot * frames + session.frame_index] =
            session.record_frame(robot, kind, latency.max(0.0), energy.max(0.0));
        session.frame_index += 1;
        session.step_in_plan += 1;
        // The frame that will trigger the next plan streams in the
        // background while the robot executes: the hidden portion of that
        // upload still occupies the shared uplink (its energy is charged on
        // the step-1 frame above).  The robot does not block on this grant,
        // but other robots' uploads queue behind it.  On-robot sessions
        // never touch the uplink, and the unpaced legacy model has no
        // background upload.
        if self.cfg.execution_step_ms > 0.0
            && session.profile.local.is_none()
            && session.step_in_plan == 1
            && session.plan_steps > 1
        {
            self.link.acquire(now, hidden_upload_ms(session.upload_ms));
        }
        if session.frame_index >= frames {
            session.finished_ms = now;
        } else if session.step_in_plan < session.plan_steps {
            self.start_step(robot, now);
        } else {
            self.queue.schedule(now, FleetEvent::Capture { robot });
        }
    }

    fn finish(self) -> FleetOutcome {
        let cfg = self.cfg;
        let warmup = match cfg.warmup_ms {
            WarmupSpec::Fixed(ms) => ms,
            WarmupSpec::Auto => mser5_warmup(&self.queue_depth_series),
        };
        let makespan_ms = self.sessions.iter().map(|s| s.finished_ms).fold(0.0_f64, f64::max);
        // Compact each robot's executed prefix in place, robot-major, so the
        // mean sums the frames in robot-then-frame order; the slots of frames
        // a churned-out robot never ran are closed up.
        let mut frame_latencies = self.frame_latencies;
        let mut total_frames = 0;
        for (robot, session) in self.sessions.iter().enumerate() {
            let start = robot * cfg.frames_per_robot;
            frame_latencies.copy_within(start..start + session.frame_index, total_frames);
            total_frames += session.frame_index;
        }
        frame_latencies.truncate(total_frames);
        let mean_frame_latency_ms = mean(&frame_latencies);
        let serving = self.samples.summarize(warmup, cfg.slo_budget_ms);
        let link_waits = trim_warmup(&self.link_waits_ms, warmup);
        let (server_utilization, per_server_utilization) = self.pool.utilization(makespan_ms);
        let summary = FleetSummary {
            robots: cfg.robots.len(),
            servers: cfg.servers.len(),
            frames_per_robot: cfg.frames_per_robot,
            scheduler: cfg.scheduler_label(),
            routing: cfg.routing.name().to_owned(),
            warmup_ms: warmup,
            makespan_ms,
            throughput_steps_per_s: if makespan_ms > 0.0 {
                total_frames as f64 / makespan_ms * 1000.0
            } else {
                0.0
            },
            mean_frame_latency_ms,
            p99_frame_latency_ms: percentile_in_place(&mut frame_latencies, 0.99),
            mean_plan_latency_ms: serving.mean_plan_latency_ms,
            p99_plan_latency_ms: serving.p99_plan_latency_ms,
            mean_queue_delay_ms: serving.mean_queue_delay_ms,
            p99_queue_delay_ms: serving.p99_queue_delay_ms,
            mean_link_wait_ms: mean(&link_waits),
            server_utilization,
            per_server_utilization,
            link_utilization: self.link.utilization(makespan_ms),
            inferences: serving.inferences,
            on_robot_inferences: self.on_robot_inferences,
            mean_batch_size: serving.mean_batch_size,
            slo_violation_fraction: serving.slo_violation_fraction,
            timed_out_requests: self.timed_out_requests,
            retries: self.retries,
            dropped_requests: self.dropped_requests,
            fallback_inferences: self.fallback_inferences,
            mean_recovery_ms: mean(
                &self
                    .recovery
                    .iter()
                    .filter_map(|t| t.first_done_ms.map(|done| done - t.recover_at_ms))
                    .collect::<Vec<f64>>(),
            ),
        };
        let robots = self
            .sessions
            .into_iter()
            .enumerate()
            .map(|(index, session)| RobotOutcome {
                robot: index,
                variant: session.profile.variant_name,
                frames: session.frame_index,
                inferences: session.inference_count,
                completed_ms: session.finished_ms,
                mean_plan_latency_ms: if session.inference_count > 0 {
                    session.plan_latency_sum_ms / session.inference_count as f64
                } else {
                    0.0
                },
                frame_traces: session.traces,
            })
            .collect();
        FleetOutcome { summary, robots, telemetry: self.telemetry.report() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DataRepresentation, InferenceDevice, InferenceModel};

    fn quick_fleet(variant: Variant, robots: usize, scheduler: SchedulerKind) -> FleetConfig {
        let mut cfg = FleetConfig::paper_defaults(variant, robots, 11);
        cfg.frames_per_robot = 60;
        cfg.set_scheduler(scheduler);
        cfg
    }

    #[test]
    fn every_robot_completes_its_frames() {
        for scheduler in [
            SchedulerKind::Fifo,
            SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 25.0 },
            SchedulerKind::ShortestTrajectoryFirst,
        ] {
            let outcome =
                FleetSimulator::new(quick_fleet(Variant::CorkiFixed(5), 4, scheduler)).run();
            assert_eq!(outcome.robots.len(), 4);
            for robot in &outcome.robots {
                assert_eq!(robot.frames, 60, "{}", outcome.summary.scheduler);
                assert_eq!(robot.frame_traces.len(), 60);
                assert!(robot.inferences >= 60 / 5);
            }
            assert!(outcome.summary.makespan_ms > 0.0);
            assert!(outcome.summary.server_utilization > 0.0);
            assert!(outcome.summary.server_utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn contention_grows_with_fleet_size() {
        let small =
            FleetSimulator::new(quick_fleet(Variant::CorkiFixed(5), 1, SchedulerKind::Fifo))
                .run()
                .summary;
        let large =
            FleetSimulator::new(quick_fleet(Variant::CorkiFixed(5), 8, SchedulerKind::Fifo))
                .run()
                .summary;
        assert!(large.mean_queue_delay_ms > small.mean_queue_delay_ms);
        assert!(large.server_utilization > small.server_utilization);
        assert!(large.p99_plan_latency_ms >= small.p99_plan_latency_ms);
    }

    #[test]
    fn longer_trajectories_unload_the_server() {
        let corki1 =
            FleetSimulator::new(quick_fleet(Variant::CorkiFixed(1), 6, SchedulerKind::Fifo))
                .run()
                .summary;
        let corki9 =
            FleetSimulator::new(quick_fleet(Variant::CorkiFixed(9), 6, SchedulerKind::Fifo))
                .run()
                .summary;
        assert!(
            corki9.server_utilization < corki1.server_utilization,
            "Corki-9 fleet should keep the server freer: {:.3} vs {:.3}",
            corki9.server_utilization,
            corki1.server_utilization
        );
        assert!(corki9.mean_queue_delay_ms < corki1.mean_queue_delay_ms);
    }

    #[test]
    fn dynamic_batching_forms_batches_under_load() {
        let fifo = FleetSimulator::new(quick_fleet(Variant::CorkiFixed(3), 8, SchedulerKind::Fifo))
            .run()
            .summary;
        let batched = FleetSimulator::new(quick_fleet(
            Variant::CorkiFixed(3),
            8,
            SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 30.0 },
        ))
        .run()
        .summary;
        assert!(batched.mean_batch_size > 1.0, "batches should form under load");
        assert!((fifo.mean_batch_size - 1.0).abs() < 1e-12);
        assert!(
            batched.throughput_steps_per_s > fifo.throughput_steps_per_s,
            "batching should raise saturated throughput: {:.1} vs {:.1}",
            batched.throughput_steps_per_s,
            fifo.throughput_steps_per_s
        );
    }

    #[test]
    fn shortest_trajectory_first_prefers_short_plans() {
        // A mixed fleet: one Corki-1 robot among Corki-9 robots. Under STF
        // the short-trajectory robot should queue no longer than its peers.
        let mut cfg =
            quick_fleet(Variant::CorkiFixed(9), 6, SchedulerKind::ShortestTrajectoryFirst);
        cfg.robots[0].variant = Variant::CorkiFixed(1);
        let stf = FleetSimulator::new(cfg.clone()).run();
        cfg.set_scheduler(SchedulerKind::Fifo);
        let fifo = FleetSimulator::new(cfg).run();
        let stf_short = stf.robots[0].mean_plan_latency_ms;
        let fifo_short = fifo.robots[0].mean_plan_latency_ms;
        assert!(
            stf_short <= fifo_short * 1.05,
            "STF should not slow the short-trajectory robot: {stf_short:.1} vs {fifo_short:.1}"
        );
    }

    #[test]
    fn event_log_is_identical_across_runs() {
        let cfg = quick_fleet(
            Variant::CorkiAdaptive,
            5,
            SchedulerKind::DynamicBatch { max_batch: 3, timeout_ms: 15.0 },
        );
        let a = FleetSimulator::new(cfg.clone()).run();
        let b = FleetSimulator::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "identical configs must replay identical outcomes"
        );
        assert!(a.robots.iter().all(|robot| robot.frame_traces.len() == 60));
    }

    #[test]
    fn fleet_robot_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|r| fleet_robot_seed(2024, r)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    // ---- multi-server pool ------------------------------------------------

    #[test]
    fn a_second_server_relieves_a_saturated_pool() {
        let base = quick_fleet(Variant::CorkiFixed(1), 8, SchedulerKind::Fifo);
        let one = FleetSimulator::new(base.clone()).run().summary;
        let two = FleetSimulator::new(base.with_pool(2)).run().summary;
        assert_eq!(two.servers, 2);
        assert_eq!(two.per_server_utilization.len(), 2);
        assert!(
            two.mean_queue_delay_ms < one.mean_queue_delay_ms,
            "a second server must cut queueing: {:.1} vs {:.1}",
            two.mean_queue_delay_ms,
            one.mean_queue_delay_ms
        );
        assert!(two.throughput_steps_per_s >= one.throughput_steps_per_s);
        // Pool utilisation is capacity-normalised, so it drops per server.
        assert!(two.server_utilization < one.server_utilization);
        // Both servers actually served work under round-robin.
        assert!(two.per_server_utilization.iter().all(|&u| u > 0.0));
    }

    #[test]
    fn routing_policies_spread_load_differently_but_complete_everything() {
        for routing in RoutingPolicy::ALL {
            let mut cfg = quick_fleet(Variant::CorkiFixed(3), 8, SchedulerKind::Fifo).with_pool(3);
            cfg.routing = routing;
            let outcome = FleetSimulator::new(cfg).run();
            assert_eq!(outcome.summary.routing, routing.name());
            for robot in &outcome.robots {
                assert_eq!(robot.frames, 60, "{}", routing.name());
            }
            let issued: usize = outcome.robots.iter().map(|r| r.inferences).sum();
            assert_eq!(outcome.summary.inferences + outcome.summary.on_robot_inferences, issued);
        }
    }

    #[test]
    fn affinity_routing_keeps_work_on_the_fast_device_of_a_mixed_pool() {
        // One V100 plus one slow Jetson-class server: affinity routing must
        // still finish everything, and the fast server should shoulder more
        // of the served time than the slow one.
        let mut cfg = quick_fleet(Variant::CorkiFixed(3), 8, SchedulerKind::Fifo).with_pool(2);
        cfg.servers[1].inference =
            InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float32);
        cfg.routing = RoutingPolicy::DeviceAffinity;
        let outcome = FleetSimulator::new(cfg).run();
        let util = &outcome.summary.per_server_utilization;
        assert!(
            util[0] > util[1],
            "the V100 must shoulder more load than the Jetson-class server: {util:?}"
        );
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60);
        }
    }

    #[test]
    fn on_robot_compute_bypasses_link_and_pool() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 4, SchedulerKind::Fifo);
        for robot in &mut cfg.robots {
            robot.compute = RobotCompute::OnRobot(InferenceModel::new(
                InferenceDevice::JetsonOrin32Gb,
                DataRepresentation::Int8,
            ));
        }
        let outcome = FleetSimulator::new(cfg).run();
        assert_eq!(outcome.summary.inferences, 0, "pool must stay idle");
        assert!(outcome.summary.on_robot_inferences > 0);
        assert_eq!(outcome.summary.link_utilization, 0.0, "uplink must stay idle");
        assert_eq!(outcome.summary.server_utilization, 0.0);
        assert_eq!(outcome.summary.mean_queue_delay_ms, 0.0);
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60);
            // Jetson inference is slow: plan latency is dominated by it.
            assert!(robot.mean_plan_latency_ms > 300.0);
        }
    }

    #[test]
    fn mixed_jetson_v100_fleet_offloads_only_the_offloaded_half() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 6, SchedulerKind::Fifo);
        let jetson =
            InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float16);
        for (index, robot) in cfg.robots.iter_mut().enumerate() {
            if index % 2 == 1 {
                robot.compute = RobotCompute::OnRobot(jetson);
            }
        }
        let outcome = FleetSimulator::new(cfg).run();
        let offloaded: usize = outcome
            .robots
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, r)| r.inferences)
            .sum();
        let on_robot: usize = outcome
            .robots
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, r)| r.inferences)
            .sum();
        assert_eq!(outcome.summary.inferences, offloaded);
        assert_eq!(outcome.summary.on_robot_inferences, on_robot);
        assert!(outcome.summary.link_utilization > 0.0);
        // On-robot Jetson robots pay latency but no queueing; offloaded
        // robots enjoy the V100 and a halved queue.
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60);
        }
    }

    #[test]
    fn warmup_trimming_shifts_short_run_percentiles() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(1), 8, SchedulerKind::Fifo);
        cfg.frames_per_robot = 40;
        let cold = FleetSimulator::new(cfg.clone()).run().summary;
        cfg.warmup_ms = WarmupSpec::Fixed(cold.makespan_ms * 0.5);
        let warm = FleetSimulator::new(cfg).run().summary;
        assert!(warm.warmup_ms > 0.0);
        // The event timeline is untouched — only the aggregation window
        // changes — so the traces and makespan agree …
        assert_eq!(warm.makespan_ms, cold.makespan_ms);
        // … but the steady-state percentiles move once the start-up
        // transient is excluded.
        assert_ne!(warm.p99_plan_latency_ms, cold.p99_plan_latency_ms);
        assert!(warm.p99_plan_latency_ms.is_finite() && warm.p99_plan_latency_ms >= 0.0);
    }

    #[test]
    fn scheduler_label_joins_mixed_disciplines() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 2, SchedulerKind::Fifo).with_pool(2);
        assert_eq!(cfg.scheduler_label(), "fifo");
        cfg.servers[1].scheduler = SchedulerKind::ShortestTrajectoryFirst;
        assert_eq!(cfg.scheduler_label(), "fifo+stf");
        // Integral timeouts keep the `batch8-15ms` form; fractional ones
        // print exactly, so distinct schedulers never share a label.
        for (kind, label) in [
            (SchedulerKind::DynamicBatch { max_batch: 8, timeout_ms: 15.0 }, "batch8-15ms"),
            (SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 15.4 }, "batch4-15.4ms"),
        ] {
            cfg.set_scheduler(kind);
            assert_eq!(cfg.scheduler_label(), label);
        }
    }

    // ---- fault injection --------------------------------------------------

    fn jetson_fp16() -> InferenceModel {
        InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float16)
    }

    #[test]
    fn fault_free_runs_report_zero_fault_counters() {
        let summary =
            FleetSimulator::new(quick_fleet(Variant::CorkiFixed(5), 4, SchedulerKind::Fifo))
                .run()
                .summary;
        assert_eq!(summary.timed_out_requests, 0);
        assert_eq!(summary.retries, 0);
        assert_eq!(summary.dropped_requests, 0);
        assert_eq!(summary.fallback_inferences, 0);
        assert_eq!(summary.mean_recovery_ms, 0.0);
        assert!((0.0..=1.0).contains(&summary.slo_violation_fraction));
    }

    #[test]
    fn a_mid_run_crash_recovers_and_forces_timeouts_and_retries() {
        // Overlapping crashes take the whole 2-server LQD pool down for
        // 650–1150 ms: requests in flight are abandoned, retried and served
        // once the pool recovers.
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 8, SchedulerKind::Fifo).with_pool(2);
        cfg.routing = RoutingPolicy::LeastQueueDepth;
        cfg.faults = Some(FaultPlan {
            crashes: vec![
                CrashSpec { server: 0, at_ms: 600.0, down_ms: 900.0 },
                CrashSpec { server: 1, at_ms: 650.0, down_ms: 500.0 },
            ],
            link_degradations: Vec::new(),
            timeout: Some(TimeoutSpec { timeout_ms: 250.0, max_retries: 2, backoff_ms: 50.0 }),
            churn: Vec::new(),
            fallback: None,
        });
        let outcome = FleetSimulator::new(cfg).run();
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60, "faulted robots still complete all frames");
        }
        let summary = &outcome.summary;
        assert!(summary.timed_out_requests > 0, "the all-down window must strand requests");
        assert!(summary.retries > 0);
        assert!(
            summary.mean_recovery_ms > 0.0 && summary.mean_recovery_ms.is_finite(),
            "a recovered pool reports a finite recovery time: {}",
            summary.mean_recovery_ms
        );
    }

    #[test]
    fn exhausted_retries_fall_back_to_the_on_robot_model() {
        // The only server dies early and never comes back within the run:
        // every later plan is served by the degraded-mode fallback model.
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 4, SchedulerKind::Fifo);
        cfg.faults = Some(FaultPlan {
            crashes: vec![CrashSpec { server: 0, at_ms: 300.0, down_ms: 100_000.0 }],
            link_degradations: Vec::new(),
            timeout: Some(TimeoutSpec { timeout_ms: 100.0, max_retries: 1, backoff_ms: 50.0 }),
            churn: Vec::new(),
            fallback: Some(jetson_fp16()),
        });
        let outcome = FleetSimulator::new(cfg).run();
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60);
        }
        assert!(outcome.summary.inferences > 0, "pre-crash requests were pool-served");
        assert!(outcome.summary.fallback_inferences > 0);
        assert_eq!(outcome.summary.on_robot_inferences, 0);
        assert_eq!(outcome.summary.dropped_requests, 0, "a fallback model never drops plans");
    }

    #[test]
    fn exhausted_retries_without_a_fallback_drop_the_plan() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 4, SchedulerKind::Fifo);
        cfg.faults = Some(FaultPlan {
            crashes: vec![CrashSpec { server: 0, at_ms: 300.0, down_ms: 100_000.0 }],
            link_degradations: Vec::new(),
            timeout: Some(TimeoutSpec { timeout_ms: 100.0, max_retries: 1, backoff_ms: 50.0 }),
            churn: Vec::new(),
            fallback: None,
        });
        let outcome = FleetSimulator::new(cfg).run();
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60, "dropped plans degrade to blind steps, not deadlock");
        }
        assert!(outcome.summary.dropped_requests > 0);
        assert_eq!(outcome.summary.fallback_inferences, 0);
    }

    #[test]
    fn a_fully_lossy_link_window_starves_the_pool() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 3, SchedulerKind::Fifo);
        cfg.faults = Some(FaultPlan {
            crashes: Vec::new(),
            link_degradations: vec![LinkDegradationSpec {
                from_ms: 0.0,
                until_ms: 1e12,
                latency_factor: 2.0,
                loss: 1.0,
            }],
            timeout: Some(TimeoutSpec { timeout_ms: 100.0, max_retries: 1, backoff_ms: 10.0 }),
            churn: Vec::new(),
            fallback: None,
        });
        let outcome = FleetSimulator::new(cfg).run();
        for robot in &outcome.robots {
            assert_eq!(robot.frames, 60);
        }
        assert_eq!(outcome.summary.inferences, 0, "no upload ever reaches the pool");
        assert!(outcome.summary.timed_out_requests > 0);
        assert!(outcome.summary.retries > 0);
        assert!(outcome.summary.dropped_requests > 0);
    }

    #[test]
    fn churned_robots_join_late_and_leave_early() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(5), 3, SchedulerKind::Fifo);
        cfg.faults = Some(FaultPlan {
            crashes: Vec::new(),
            link_degradations: Vec::new(),
            timeout: None,
            churn: vec![
                ChurnSpec { robot: 1, join_at_ms: 500.0, leave_at_ms: None },
                ChurnSpec { robot: 2, join_at_ms: 0.0, leave_at_ms: Some(300.0) },
            ],
            fallback: None,
        });
        let outcome = FleetSimulator::new(cfg).run();
        assert_eq!(outcome.robots[0].frames, 60, "unchurned robots are untouched");
        assert_eq!(outcome.robots[1].frames, 60, "a late joiner still runs to completion");
        assert!(outcome.robots[1].completed_ms > 500.0, "robot 1 cannot finish before it joined");
        assert!(
            outcome.robots[2].frames < 60,
            "a leaver abandons its remaining frames: {}",
            outcome.robots[2].frames
        );
    }

    #[test]
    fn frame_statistics_cover_robots_without_trace_rows() {
        // 150 robots, so 86 of them keep no trace rows; two of those leave
        // early (gaps in the robot-major latency store), one traced robot
        // leaves early and one untraced robot joins late.
        let mut cfg = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 150, 2024).with_pool(4);
        cfg.frames_per_robot = 40;
        cfg.routing = RoutingPolicy::LeastQueueDepth;
        cfg.faults = Some(FaultPlan {
            churn: vec![
                ChurnSpec { robot: 10, join_at_ms: 0.0, leave_at_ms: Some(700.0) },
                ChurnSpec { robot: 70, join_at_ms: 0.0, leave_at_ms: Some(4000.0) },
                ChurnSpec { robot: 121, join_at_ms: 0.0, leave_at_ms: Some(6000.0) },
                ChurnSpec { robot: 149, join_at_ms: 8000.0, leave_at_ms: None },
            ],
            ..FaultPlan::none()
        });
        let outcome = FleetSimulator::new(cfg).run();
        for leaver in [10, 70, 121] {
            assert!(outcome.robots[leaver].frames < 40, "robot {leaver} leaves early");
        }
        assert_eq!(outcome.robots[149].frames, 40);
        for robot in &outcome.robots {
            let rows = if robot.robot < corki_telemetry::MAX_TIMELINES { robot.frames } else { 0 };
            assert_eq!(robot.frame_traces.len(), rows, "robot {}", robot.robot);
        }
        // Recorded when every robot kept its rows and the statistics were
        // taken over them: the store and its compaction change no bit.
        let summary = &outcome.summary;
        assert_eq!(summary.mean_frame_latency_ms.to_bits(), 0x4092_5014_c790_125d);
        assert_eq!(summary.p99_frame_latency_ms.to_bits(), 0x40bb_81eb_0bd5_59f4);
    }

    #[test]
    fn fault_injected_runs_are_byte_identical_across_reruns() {
        let mut cfg = quick_fleet(Variant::CorkiAdaptive, 6, SchedulerKind::Fifo).with_pool(2);
        cfg.routing = RoutingPolicy::LeastQueueDepth;
        cfg.faults = Some(FaultPlan {
            crashes: vec![CrashSpec { server: 0, at_ms: 400.0, down_ms: 700.0 }],
            link_degradations: vec![LinkDegradationSpec {
                from_ms: 200.0,
                until_ms: 900.0,
                latency_factor: 3.0,
                loss: 0.4,
            }],
            timeout: Some(TimeoutSpec { timeout_ms: 150.0, max_retries: 2, backoff_ms: 40.0 }),
            churn: vec![ChurnSpec { robot: 5, join_at_ms: 350.0, leave_at_ms: Some(1500.0) }],
            fallback: Some(jetson_fp16()),
        });
        let reference =
            serde_json::to_string(&FleetSimulator::new(cfg.clone()).run()).expect("serialises");
        let rerun = serde_json::to_string(&FleetSimulator::new(cfg).run()).expect("serialises");
        assert_eq!(rerun, reference, "fault runs must be rerun-deterministic");
    }

    #[test]
    fn auto_warmup_detects_a_deterministic_truncation() {
        let mut cfg = quick_fleet(Variant::CorkiFixed(1), 8, SchedulerKind::Fifo);
        cfg.warmup_ms = WarmupSpec::Auto;
        let first = FleetSimulator::new(cfg.clone()).run().summary;
        let second = FleetSimulator::new(cfg).run().summary;
        assert!(first.warmup_ms.is_finite() && first.warmup_ms >= 0.0);
        assert!(first.warmup_ms < first.makespan_ms);
        assert_eq!(first.warmup_ms, second.warmup_ms, "detection must be deterministic");
    }

    #[test]
    fn mser5_cuts_an_obvious_transient() {
        // 20 samples of a loaded start-up transient, then 80 stationary
        // samples: the detected warm-up must land at the regime change.
        let series: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64, if i < 20 { 10.0 } else { 1.0 })).collect();
        assert_eq!(mser5_warmup(&series), 20.0);
        assert_eq!(mser5_warmup(&series[..12]), 0.0, "short series keep everything");
    }
}
