//! The coordinator of a live run: creates the shared segment, spawns the
//! robot-client and inference-worker processes, serves requests from the
//! DES's own [`ServerPool`] (routing, batching, batch pricing and busy
//! time), records into the DES's own [`ServingSamples`], and adds what
//! only a live run measures — the per-hop transit and the stage-total
//! residual — to a simulator-shaped report.
//!
//! Cleanup is unconditional: the segment owner unlinks on drop, the child
//! guard kills whatever is still running on any exit path, and stale
//! segments of dead runs are swept on startup.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use corki::fleet::FleetSweepRow;
use corki_ipc::{monotonic_ns, Doorbell, ShmSegment, SpscRing};
use corki_system::fleet::{RobotProfile, ServerPool, ServingSamples, WarmupSpec};
use corki_system::{scenario_fingerprint, ConcreteScenario};
use corki_telemetry::{Recorder, ShmTelemetry, Stage, PAGE_WORDS};

use crate::proto::{
    state, DoneMsg, RespMsg, RobotMsg, SegmentLayout, WorkMsg, LIVE_MAGIC, MAGIC_OFF, MSG_SIZE,
    SHUTDOWN_BATCH, START_NS_OFF, STATE_OFF,
};
use crate::report::{LiveReport, StageStats, TransitStats};
use crate::sync::{ns_of_ms, rel_ms, ABORT_CHECK, FULL_RING_BACKOFF};
use crate::LiveError;

/// Most robot processes a live run will spawn: beyond this, a single-host
/// run measures scheduler thrash, not serving behaviour.
const MAX_LIVE_ROBOTS: usize = 64;

/// Most inference-worker processes a live run will spawn.
const MAX_LIVE_SERVERS: usize = 16;

/// Prefix of every live-run segment name (`corki-live-<pid>`).
const SEGMENT_PREFIX: &str = "corki-live-";

/// Head-start the coordinator gives the epoch so every attached child has
/// left its ready-wait before time zero.  The children sleep on their
/// doorbells and are rung the moment the epoch is published, so this only
/// has to cover one wake-up per child on a time-shared host.
const EPOCH_HEADROOM: Duration = Duration::from_millis(10);

/// How often the serving loop drains the telemetry pages mid-run.  Every
/// page word is a monotonic counter written by exactly one process, so a
/// drain is a plain snapshot — no pause, no coordination — and each drain
/// *replaces* the previous view rather than accumulating into it.
const TELEMETRY_DRAIN_INTERVAL: Duration = Duration::from_millis(100);

/// Checks that a cell is expressible as a live run.  The live path covers
/// the fault-free serving model; fault injection remains DES-only, and so
/// does adaptive warm-up detection, which `run_live` refuses when it reads
/// the fixed window.
fn ensure_live_supported(cell: &ConcreteScenario) -> Result<(), LiveError> {
    let cfg = &cell.config;
    if cfg.faults.is_some() {
        return Err(LiveError::Unsupported("fault plans are DES-only".into()));
    }
    if cfg.robots.len() > MAX_LIVE_ROBOTS {
        return Err(LiveError::Unsupported(format!(
            "live runs spawn one process per robot; {} exceeds the cap of {MAX_LIVE_ROBOTS}",
            cfg.robots.len()
        )));
    }
    if cfg.servers.len() > MAX_LIVE_SERVERS {
        return Err(LiveError::Unsupported(format!(
            "live runs spawn one process per server; {} exceeds the cap of {MAX_LIVE_SERVERS}",
            cfg.servers.len()
        )));
    }
    Ok(())
}

/// Unlinks `/dev/shm/corki-live-*` segments whose owning process is gone
/// (a previous run died before its owner unlink ran).  Returns how many
/// were removed.
fn cleanup_stale_segments() -> usize {
    let Ok(entries) = std::fs::read_dir("/dev/shm") else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = name.strip_prefix(SEGMENT_PREFIX) else { continue };
        let alive = pid
            .parse::<u32>()
            .is_ok_and(|pid| std::path::Path::new(&format!("/proc/{pid}")).exists());
        if !alive && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Kills every still-running child on drop — the "any exit path" half of
/// the cleanup contract (the segment itself unlinks via its own owner
/// drop).
struct ChildGuard {
    children: Vec<(String, Option<Child>)>,
}

impl ChildGuard {
    fn push(&mut self, label: String, child: Child) {
        self.children.push((label, Some(child)));
    }

    /// Non-blocking reap: returns a description — exit status plus captured
    /// stderr — of every child that exited with a failure status.
    fn poll_failures(&mut self) -> Vec<String> {
        let mut failed = Vec::new();
        for (label, slot) in &mut self.children {
            if let Some(child) = slot {
                if let Ok(Some(status)) = child.try_wait() {
                    if !status.success() {
                        failed.push(describe_failure(label, status, child.stderr.take()));
                    }
                    *slot = None;
                }
            }
        }
        failed
    }

    /// Waits for every child to exit by `deadline`; returns the failures.
    fn join_all(&mut self, deadline: Instant) -> Vec<String> {
        let mut failures = Vec::new();
        loop {
            failures.extend(self.poll_failures());
            if self.children.iter().all(|(_, slot)| slot.is_none()) {
                return failures;
            }
            if Instant::now() > deadline {
                let running = self.children.iter().filter(|(_, slot)| slot.is_some());
                failures.extend(running.map(|(label, _)| format!("{label} did not exit in time")));
                return failures;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Formats a failed child's exit status, appending whatever it wrote to
/// its captured stderr (trimmed and bounded) so the coordinator's error
/// says *why* the child died, not merely that it did.  Safe to read here:
/// the child has already exited, so the pipe's write end is closed.
fn describe_failure(
    label: &str,
    status: std::process::ExitStatus,
    stderr: Option<std::process::ChildStderr>,
) -> String {
    let mut text = String::new();
    if let Some(mut pipe) = stderr {
        use std::io::Read;
        let _ = pipe.read_to_string(&mut text);
    }
    let text = text.trim();
    if text.is_empty() {
        return format!("{label} exited with {status}");
    }
    const STDERR_CAP: usize = 2048;
    let snippet: String = text.chars().take(STDERR_CAP).collect();
    format!("{label} exited with {status}: {snippet}")
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for (_, slot) in &mut self.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Removes the temp config file on drop.
struct TempConfig(std::path::PathBuf);

impl Drop for TempConfig {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A request the pool has accepted but whose plan the robot has not yet
/// acknowledged; accumulates the measured hop latencies as they happen.
#[derive(Debug, Clone, Copy, Default)]
struct PlanTrace {
    capture_ns: u64,
    publish_ns: u64,
    request_transit_ns: f64,
    dispatch_transit_ns: f64,
    completion_transit_ns: f64,
}

/// The live-only samples: each offloaded plan's four measured hops and
/// their sum, and its end-to-end latency.
#[derive(Default)]
struct Hops {
    request: Vec<f64>,
    dispatch: Vec<f64>,
    completion: Vec<f64>,
    response: Vec<f64>,
    round_trip: Vec<f64>,
    e2e_total_ms: f64,
}

impl Hops {
    /// Closes an offloaded plan whose response the robot observed at
    /// `resp_recv_ns`: records its hops, and its end-to-end latency as a
    /// plan sample stamped like the DES stamps a delivered plan.
    fn close(
        &mut self,
        trace: PlanTrace,
        resp_recv_ns: u64,
        start_ns: u64,
        samples: &mut ServingSamples,
    ) {
        let latency_ms = resp_recv_ns.saturating_sub(trace.capture_ns) as f64 / 1e6;
        samples.plan(rel_ms(resp_recv_ns, start_ns), latency_ms);
        self.e2e_total_ms += latency_ms;
        let response_ns = resp_recv_ns.saturating_sub(trace.publish_ns) as f64;
        self.request.push(trace.request_transit_ns);
        self.dispatch.push(trace.dispatch_transit_ns);
        self.completion.push(trace.completion_transit_ns);
        self.response.push(response_ns);
        self.round_trip.push(
            trace.request_transit_ns
                + trace.dispatch_transit_ns
                + trace.completion_transit_ns
                + response_ns,
        );
    }
}

/// Per-robot completion summary from its `Finished` message.
#[derive(Debug, Clone, Copy)]
struct RobotFin {
    frames: u64,
    finish_ns: u64,
    link_wait_ns: u64,
    upload_ns: u64,
}

/// Runs one concrete scenario cell live: spawns the fleet, serves it over
/// shared memory, and aggregates the report.  `exe` is the binary hosting
/// the hidden `__live-robot`/`__live-worker` roles (normally
/// `std::env::current_exe()`).
pub fn run_live(cell: &ConcreteScenario, exe: &std::path::Path) -> Result<LiveReport, LiveError> {
    ensure_live_supported(cell)?;
    cleanup_stale_segments();

    let cfg = &cell.config;
    let WarmupSpec::Fixed(warmup_ms) = cfg.warmup_ms else {
        return Err(LiveError::Unsupported(
            "adaptive (MSER-5) warm-up detection is DES-only; use a fixed warmup_ms".into(),
        ));
    };
    let robots = cfg.robots.len();
    let servers = cfg.servers.len();
    let layout = SegmentLayout::new(robots, servers);
    let shm_name = format!("{SEGMENT_PREFIX}{}", std::process::id());
    // A same-pid leftover (crashed previous run of a recycled pid) would
    // make the exclusive create fail; it is stale by construction.
    let _ = ShmSegment::unlink(&shm_name);
    let seg = ShmSegment::create(&shm_name, layout.total_size()).map_err(LiveError::Io)?;

    // Initialise every ring and slot before any child can attach.
    let req_rings: Vec<SpscRing<'_>> = (0..robots)
        .map(|r| seg.init_ring(layout.req_ring(r), crate::proto::REQ_RING_CAPACITY, MSG_SIZE))
        .collect();
    let resp_slots: Vec<_> =
        (0..robots).map(|r| seg.init_seqlock(layout.resp_slot(r), MSG_SIZE)).collect();
    let work_rings: Vec<SpscRing<'_>> = (0..servers)
        .map(|s| seg.init_ring(layout.work_ring(s), crate::proto::WORK_RING_CAPACITY, MSG_SIZE))
        .collect();
    let done_rings: Vec<SpscRing<'_>> = (0..servers)
        .map(|s| seg.init_ring(layout.done_ring(s), crate::proto::WORK_RING_CAPACITY, MSG_SIZE))
        .collect();
    let run_state = seg.atomic_u64(STATE_OFF);
    // Telemetry pages: one per child process, single-writer, freshly
    // zeroed by the segment creation; the coordinator only reads them.
    let robot_telemetry: Vec<ShmTelemetry<'_>> = (0..robots)
        .map(|r| ShmTelemetry::new(seg.atomic_u64_array(layout.robot_telemetry(r), PAGE_WORDS)))
        .collect();
    let server_telemetry: Vec<ShmTelemetry<'_>> = (0..servers)
        .map(|s| ShmTelemetry::new(seg.atomic_u64_array(layout.server_telemetry(s), PAGE_WORDS)))
        .collect();
    // Doorbells: the coordinator sleeps on its own and rings a child's
    // after handing it anything (a response, a batch, a run-state change).
    let bell = seg.doorbell(layout.coordinator_bell());
    let robot_bells: Vec<Doorbell<'_>> =
        (0..robots).map(|r| seg.doorbell(layout.robot_bell(r))).collect();
    let server_bells: Vec<Doorbell<'_>> =
        (0..servers).map(|s| seg.doorbell(layout.server_bell(s))).collect();
    let ring_children = || robot_bells.iter().chain(&server_bells).for_each(Doorbell::ring);
    seg.atomic_u64(MAGIC_OFF).store(LIVE_MAGIC, std::sync::atomic::Ordering::Release);

    // Hand the children the resolved FleetConfig through a temp file.
    let config_path =
        std::env::temp_dir().join(format!("corki-live-{}-config.json", std::process::id()));
    let config_json = serde_json::to_string(cfg)
        .map_err(|e| LiveError::Protocol(format!("cannot serialise live config: {e}")))?;
    std::fs::write(&config_path, config_json).map_err(LiveError::Io)?;
    let _config_guard = TempConfig(config_path.clone());
    let config_arg = config_path.to_str().ok_or_else(|| {
        LiveError::Protocol(format!("config path {} is not UTF-8", config_path.display()))
    })?;

    let mut guard = ChildGuard { children: Vec::new() };
    let abort = |err: LiveError| -> LiveError {
        run_state.store(state::ABORT, std::sync::atomic::Ordering::Release);
        // Wake every blocked child so it sees the flag and exits now; any
        // that do not are killed by the guard's drop.
        ring_children();
        err
    };

    // Every child is `<exe> <role> --shm <segment> <role arguments>`.
    let spawn = |role: &str, args: &[&str]| {
        Command::new(exe)
            .args([role, "--shm", &shm_name])
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(LiveError::Io)
    };
    let (robots_arg, servers_arg) = (robots.to_string(), servers.to_string());
    for s in 0..servers {
        let server = s.to_string();
        let args = ["--server", &server, "--robots", &robots_arg, "--servers", &servers_arg];
        guard.push(format!("worker {s}"), spawn("__live-worker", &args)?);
    }
    for r in 0..robots {
        let robot = r.to_string();
        guard.push(
            format!("robot {r}"),
            spawn("__live-robot", &["--robot", &robot, "--config", config_arg])?,
        );
    }

    // Wait for the whole fleet to attach, then publish the epoch.
    let ready = seg.atomic_u64(crate::proto::READY_OFF);
    let ready_deadline = Instant::now() + crate::sync::START_TIMEOUT;
    loop {
        let seen = bell.seen();
        if ready.load(std::sync::atomic::Ordering::Acquire) as usize >= robots + servers {
            break;
        }
        if let Some(failure) = guard.poll_failures().into_iter().next() {
            return Err(abort(LiveError::ChildFailed(failure)));
        }
        if Instant::now() > ready_deadline {
            return Err(abort(LiveError::Protocol(
                "fleet did not attach before the deadline".into(),
            )));
        }
        bell.wait(seen, ABORT_CHECK);
    }
    let start_ns = monotonic_ns() + EPOCH_HEADROOM.as_nanos() as u64;
    seg.atomic_u64(START_NS_OFF).store(start_ns, std::sync::atomic::Ordering::Release);
    run_state.store(state::RUNNING, std::sync::atomic::Ordering::Release);
    ring_children();

    // ---- The serving loop: the DES's server pool and samples, driven by
    // wall-clock milliseconds since the epoch. -----------------------------
    let wants_trajectory: Vec<bool> =
        cfg.robots.iter().map(|robot| !RobotProfile::of(robot, cfg).is_baseline).collect();
    let mut pool = ServerPool::new(&cfg.servers, cfg.routing);
    // What the pool has no counterpart for: the id and push instant of the
    // batch each worker holds.
    let mut on_worker: Vec<Option<(u64, u64)>> = vec![None; servers];
    let mut open: Vec<Option<PlanTrace>> = vec![None; robots];
    let mut awaiting: Vec<Option<PlanTrace>> = vec![None; robots];
    let mut fins: Vec<Option<RobotFin>> = vec![None; robots];
    let mut next_batch_id = 0_u64;
    let mut samples = ServingSamples::default();
    let mut hops = Hops::default();
    let mut service_total_ms = 0.0;

    let watchdog =
        Instant::now() + Duration::from_secs(120 + (cfg.frames_per_robot as u64).saturating_mul(1));
    let mut buf = [0_u8; MSG_SIZE];

    // Every page word is cumulative, so a drain rebuilds the fleet view
    // from scratch instead of merging into the previous one (merging two
    // drains of the same page would double-count).
    let drain_telemetry = |drains: &mut usize| -> Recorder {
        *drains += 1;
        let mut recorder = Recorder::new(robots);
        for (robot, page) in robot_telemetry.iter().enumerate() {
            for stage in Stage::ALL {
                recorder.merge_stage(stage, &page.snapshot_stage(stage));
            }
            recorder.merge_timeline(robot, &page.snapshot_timeline());
        }
        for page in &server_telemetry {
            recorder.merge_stage(Stage::BatchService, &page.snapshot_stage(Stage::BatchService));
        }
        recorder
    };
    let mut telemetry_drains = 0_usize;
    let mut last_drain = Instant::now();

    loop {
        // Read the bell before looking for work: a ring that lands after
        // the rings and queues are checked then cuts the wait below short.
        let seen = bell.seen();
        let mut progressed = false;

        // Robot messages.
        for robot in 0..robots {
            while req_rings[robot].try_pop(&mut buf) {
                progressed = true;
                let recv_ns = monotonic_ns();
                let (from, msg) =
                    RobotMsg::decode(&buf).map_err(|e| abort(LiveError::Protocol(e)))?;
                if from as usize != robot {
                    return Err(abort(LiveError::Protocol(format!(
                        "robot {from} wrote into ring {robot}"
                    ))));
                }
                match msg {
                    RobotMsg::Request {
                        attempt,
                        planned_steps,
                        capture_ns,
                        send_ns,
                        prev_resp_recv_ns,
                    } => {
                        if let Some(trace) = awaiting[robot].take() {
                            if prev_resp_recv_ns > 0 {
                                hops.close(trace, prev_resp_recv_ns, start_ns, &mut samples);
                            }
                        }
                        // A live pool never crashes, so some server always
                        // takes the request.
                        pool.admit(
                            rel_ms(recv_ns, start_ns),
                            robot,
                            attempt,
                            planned_steps as usize,
                            wants_trajectory[robot],
                        )
                        .ok_or_else(|| abort(LiveError::Protocol("no server is up".into())))?;
                        open[robot] = Some(PlanTrace {
                            capture_ns,
                            request_transit_ns: recv_ns.saturating_sub(send_ns) as f64,
                            ..PlanTrace::default()
                        });
                    }
                    RobotMsg::LocalPlan { latency_ns, done_ns } => {
                        samples.plan(rel_ms(done_ns, start_ns), latency_ns as f64 / 1e6);
                    }
                    RobotMsg::Finished {
                        frames,
                        last_resp_recv_ns,
                        finish_ns,
                        link_wait_ns,
                        upload_ns,
                    } => {
                        if let Some(trace) = awaiting[robot].take() {
                            if last_resp_recv_ns > 0 {
                                hops.close(trace, last_resp_recv_ns, start_ns, &mut samples);
                            }
                        }
                        fins[robot] = Some(RobotFin { frames, finish_ns, link_wait_ns, upload_ns });
                    }
                }
            }
        }

        // Worker completions.
        for (server, done_ring) in done_rings.iter().enumerate() {
            while done_ring.try_pop(&mut buf) {
                progressed = true;
                let done_recv_ns = monotonic_ns();
                let done = DoneMsg::decode(&buf).map_err(|e| abort(LiveError::Protocol(e)))?;
                let held = on_worker[server].take();
                let Some((_, dispatch_ns)) = held.filter(|&(id, _)| id == done.batch_id) else {
                    return Err(abort(LiveError::Protocol(format!(
                        "server {server} completed batch {} while holding {held:?}",
                        done.batch_id
                    ))));
                };
                // Busy time is the worker's own pop → done interval.
                let batch = pool.complete(
                    server,
                    Some(rel_ms(done.pop_ns, start_ns)),
                    rel_ms(done.done_ns, start_ns),
                );
                let dispatch_ms = rel_ms(dispatch_ns, start_ns);
                let publish_ns = monotonic_ns();
                for request in &batch {
                    let Some(mut trace) = open[request.robot].take() else {
                        return Err(abort(LiveError::Protocol(format!(
                            "robot {} has no open plan for batch {}",
                            request.robot, done.batch_id
                        ))));
                    };
                    trace.dispatch_transit_ns = done.pop_ns.saturating_sub(dispatch_ns) as f64;
                    trace.completion_transit_ns = done_recv_ns.saturating_sub(done.done_ns) as f64;
                    trace.publish_ns = publish_ns;
                    let queue_wait_ms = (dispatch_ms - request.arrival_ms).max(0.0);
                    resp_slots[request.robot].write(
                        &RespMsg {
                            attempt: request.attempt,
                            queue_wait_ns: ns_of_ms(queue_wait_ms),
                            publish_ns,
                        }
                        .encode(),
                    );
                    robot_bells[request.robot].ring();
                    awaiting[request.robot] = Some(trace);
                }
                pool.recycle(batch);
            }
        }

        // Dispatch: any idle server with a releasable batch gets one.
        for server in 0..servers {
            let dispatch_ns = monotonic_ns();
            let dispatch_ms = rel_ms(dispatch_ns, start_ns);
            let Some((service_ms, batch)) = pool.dispatch(server, dispatch_ms) else { continue };
            progressed = true;
            for request in batch {
                samples.queue_wait(dispatch_ms, (dispatch_ms - request.arrival_ms).max(0.0));
            }
            samples.batch(batch.len());
            service_total_ms += service_ms * batch.len() as f64;
            next_batch_id += 1;
            let work =
                WorkMsg { batch_id: next_batch_id, service_ns: ns_of_ms(service_ms), dispatch_ns };
            if !work_rings[server].try_push(&work.encode()) {
                return Err(abort(LiveError::Protocol(format!(
                    "work ring of server {server} is full"
                ))));
            }
            server_bells[server].ring();
            on_worker[server] = Some((next_batch_id, dispatch_ns));
        }

        // Done?
        if fins.iter().all(Option::is_some) && pool.is_idle() {
            break;
        }

        // Mid-run telemetry drain: exercises reading the pages while the
        // fleet is still writing them.  Each drain is a complete snapshot,
        // so the intermediate views are discarded — the final post-join
        // drain below supersedes them all.
        if last_drain.elapsed() >= TELEMETRY_DRAIN_INTERVAL {
            drain_telemetry(&mut telemetry_drains);
            last_drain = Instant::now();
        }

        // Child health: a robot may exit cleanly once its Finished message
        // is in; anything else ending early wedges the run.
        if let Some(failure) = guard.poll_failures().into_iter().next() {
            return Err(abort(LiveError::ChildFailed(failure)));
        }
        if Instant::now() > watchdog {
            return Err(abort(LiveError::Protocol(
                "live run exceeded its watchdog deadline".into(),
            )));
        }
        if !progressed {
            // Sleep until a child rings, the next health check or telemetry
            // drain is due, or an idle server's held-back batch is released.
            let mut timeout =
                ABORT_CHECK.min(TELEMETRY_DRAIN_INTERVAL.saturating_sub(last_drain.elapsed()));
            let now_ms = rel_ms(monotonic_ns(), start_ns);
            for release_ms in (0..servers).filter_map(|server| pool.next_release_ms(server)) {
                timeout = timeout.min(Duration::from_nanos(ns_of_ms(release_ms - now_ms)));
            }
            bell.wait(seen, timeout);
        }
    }

    // Shut the workers down and reap everything.
    for (server, ring) in work_rings.iter().enumerate() {
        let sentinel = WorkMsg { batch_id: SHUTDOWN_BATCH, service_ns: 0, dispatch_ns: 0 }.encode();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ring.try_push(&sentinel) {
            if Instant::now() > deadline {
                return Err(abort(LiveError::Protocol(format!(
                    "cannot deliver shutdown to server {server}"
                ))));
            }
            std::thread::sleep(FULL_RING_BACKOFF);
        }
        server_bells[server].ring();
    }
    let failures = guard.join_all(Instant::now() + Duration::from_secs(30));
    if let Some(failure) = failures.into_iter().next() {
        return Err(abort(LiveError::ChildFailed(failure)));
    }
    let end_ns = monotonic_ns();
    // The authoritative drain: every child has exited, so the pages are
    // quiescent and this snapshot is exact, superseding the mid-run views.
    let telemetry = drain_telemetry(&mut telemetry_drains);

    // ---- Aggregation: the DES's estimators, plus the live-only stage
    // totals and residual. -------------------------------------------------
    let Some(fins) = fins.into_iter().collect::<Option<Vec<RobotFin>>>() else {
        return Err(LiveError::Protocol("a robot exited without its summary".into()));
    };
    let total_frames: u64 = fins.iter().map(|f| f.frames).sum();
    let offloaded_plans = hops.round_trip.len();
    let makespan_ms = fins.iter().map(|f| rel_ms(f.finish_ns, start_ns)).fold(0.0, f64::max);
    let serving = samples.summarize(warmup_ms, cfg.slo_budget_ms);
    let (server_utilization, _) = pool.utilization(makespan_ms);
    let total_link_wait_ms: f64 = fins.iter().map(|f| f.link_wait_ns as f64 / 1e6).sum();
    let total_upload_ms: f64 = fins.iter().map(|f| f.upload_ns as f64 / 1e6).sum();
    let throughput_steps_per_s =
        if makespan_ms > 0.0 { total_frames as f64 / makespan_ms * 1000.0 } else { 0.0 };

    // The stage totals and the end-to-end mean they are subtracted from
    // both cover every offloaded plan, warm-up included.
    let per_plan = |total_ms: f64| total_ms / offloaded_plans.max(1) as f64;
    let mean_link_wait_ms = per_plan(total_link_wait_ms);
    let mean_stage_total_ms = if offloaded_plans > 0 {
        mean_link_wait_ms
            + per_plan(total_upload_ms)
            + samples.summarize(0.0, cfg.slo_budget_ms).mean_queue_delay_ms
            + service_total_ms / serving.inferences as f64
    } else {
        0.0
    };
    let ipc_overhead_ms = per_plan(hops.e2e_total_ms) - mean_stage_total_ms;

    let row = FleetSweepRow {
        robots,
        servers,
        variant: cell.variant_label.clone(),
        scheduler: cell.scheduler_label.clone(),
        routing: cell.routing_label.clone(),
        composition: cell.composition_label.clone(),
        throughput_steps_per_s,
        per_robot_rate_hz: throughput_steps_per_s / robots as f64,
        mean_plan_latency_ms: serving.mean_plan_latency_ms,
        p99_plan_latency_ms: serving.p99_plan_latency_ms,
        mean_queue_delay_ms: serving.mean_queue_delay_ms,
        p99_queue_delay_ms: serving.p99_queue_delay_ms,
        server_utilization,
        mean_batch_size: serving.mean_batch_size,
        slo_violation_fraction: serving.slo_violation_fraction,
        timed_out_requests: 0,
        retries: 0,
        dropped_requests: 0,
        fallback_inferences: 0,
        mean_recovery_ms: 0.0,
    };

    Ok(LiveReport {
        scenario: cell.scenario.clone(),
        fingerprint: scenario_fingerprint(std::slice::from_ref(cell)),
        row,
        wall_s: end_ns.saturating_sub(start_ns) as f64 / 1e9,
        warmup_ms,
        transit: TransitStats {
            request: StageStats::of(&hops.request),
            dispatch: StageStats::of(&hops.dispatch),
            completion: StageStats::of(&hops.completion),
            response: StageStats::of(&hops.response),
            round_trip: StageStats::of(&hops.round_trip),
        },
        mean_link_wait_ms,
        mean_stage_total_ms,
        ipc_overhead_ms,
        robots_completed: fins.iter().filter(|f| f.frames > 0).count(),
        total_frames: total_frames as usize,
        offloaded_plans,
        telemetry: telemetry.report(),
        telemetry_drains,
    })
}
