//! The shared-memory wire protocol of the live path: fixed 64-byte
//! messages, their codecs, and the layout of the one segment every process
//! of a run maps.
//!
//! Every message is eight little-endian `u64` words — one cache line — so
//! a ring slot transfers in a single copy and a response snapshot fits one
//! seqlock payload.  Codecs are plain `u64::to_le_bytes` shuffles: the
//! segment is shared between processes built from the same binary, but
//! fixing the byte order keeps the format well-defined (and testable)
//! rather than "whatever repr the compiler picked".

use corki_ipc::{SeqlockSlot, SpscRing};

/// Bytes per message: eight words, one cache line.
pub const MSG_SIZE: usize = 64;

/// Words per message.
const WORDS: usize = MSG_SIZE / 8;

/// Identifies a live-run segment header (`"CORKLIVE"`).
pub const LIVE_MAGIC: u64 = 0x434f_524b_4c49_5645;

/// Run states published in the segment header.  A fresh segment reads 0:
/// children attach and report ready.
pub mod state {
    /// The epoch is published; everyone runs.
    pub const RUNNING: u64 = 1;
    /// A participant failed; everyone exits as fast as possible.
    pub const ABORT: u64 = 2;
}

/// `batch_id` of the shutdown sentinel the coordinator pushes into each
/// work ring once the run is complete.
pub const SHUTDOWN_BATCH: u64 = u64::MAX;

/// Slots in each robot → coordinator request ring.  A robot has at most
/// one request in flight plus its final summary, so even a shallow ring
/// never back-pressures in practice.
pub const REQ_RING_CAPACITY: usize = 8;

/// Slots in each coordinator ↔ worker ring.  A server has at most one
/// batch in flight plus the shutdown sentinel.
pub const WORK_RING_CAPACITY: usize = 8;

fn words_of(buf: &[u8; MSG_SIZE]) -> [u64; WORDS] {
    let mut words = [0_u64; WORDS];
    for (word, chunk) in words.iter_mut().zip(buf.chunks_exact(8)) {
        let mut bytes = [0_u8; 8];
        bytes.copy_from_slice(chunk);
        *word = u64::from_le_bytes(bytes);
    }
    words
}

fn bytes_of(words: [u64; WORDS]) -> [u8; MSG_SIZE] {
    let mut buf = [0_u8; MSG_SIZE];
    for (index, word) in words.iter().enumerate() {
        buf[index * 8..index * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
    buf
}

/// Accepts a decoded `msg` only if its encoding reproduces the frame
/// exactly: a reserved word carries nothing, so a non-zero one marks a
/// corrupt or foreign frame.
fn exact<T>(
    what: &str,
    frame: &[u8; MSG_SIZE],
    msg: T,
    encoded: [u8; MSG_SIZE],
) -> Result<T, String> {
    match frame.chunks_exact(8).zip(encoded.chunks_exact(8)).position(|(a, b)| a != b) {
        Some(word) => Err(format!("{what}: reserved word {word} is not zero")),
        None => Ok(msg),
    }
}

/// A message a robot client pushes into its request ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobotMsg {
    /// An inference request: the robot captured a frame, paid the modelled
    /// uplink, and now asks the pool for a plan.
    Request {
        /// Robot-local attempt id (matches the response snapshot).
        attempt: u64,
        /// Control steps the requested plan will execute (after clamping to
        /// the frames the robot has left).
        planned_steps: u64,
        /// When the frame was captured, monotonic ns.
        capture_ns: u64,
        /// When the message was pushed (upload complete), monotonic ns.
        send_ns: u64,
        /// When the *previous* response snapshot was observed by the robot,
        /// monotonic ns (0 on the first request).  Piggybacking this lets
        /// the coordinator close the previous plan's end-to-end latency and
        /// response-transit samples without another channel.
        prev_resp_recv_ns: u64,
    },
    /// An on-robot inference finished locally — no pool involved, but the
    /// plan latency still belongs in the fleet statistics.
    LocalPlan {
        /// Measured capture → plan latency, ns.
        latency_ns: u64,
        /// When the plan became available, monotonic ns.
        done_ns: u64,
    },
    /// The robot executed its last frame and is about to exit.
    Finished {
        /// Frames actually executed.
        frames: u64,
        /// Receive timestamp of the final response snapshot, monotonic ns
        /// (0 for a purely local robot).
        last_resp_recv_ns: u64,
        /// When the final frame finished executing, monotonic ns.
        finish_ns: u64,
        /// Total time spent waiting for the shared uplink, ns.
        link_wait_ns: u64,
        /// Total time spent transmitting on the uplink, ns.
        upload_ns: u64,
    },
}

const ROBOT_REQUEST: u64 = 0;
const ROBOT_LOCAL: u64 = 1;
const ROBOT_FINISHED: u64 = 2;

impl RobotMsg {
    /// Encodes the message into one ring slot.
    pub fn encode(&self, robot: u64) -> [u8; MSG_SIZE] {
        let words = match *self {
            RobotMsg::Request {
                attempt,
                planned_steps,
                capture_ns,
                send_ns,
                prev_resp_recv_ns,
            } => [
                ROBOT_REQUEST,
                robot,
                attempt,
                planned_steps,
                capture_ns,
                send_ns,
                prev_resp_recv_ns,
                0,
            ],
            RobotMsg::LocalPlan { latency_ns, done_ns } => {
                [ROBOT_LOCAL, robot, 0, 0, 0, 0, latency_ns, done_ns]
            }
            RobotMsg::Finished {
                frames,
                last_resp_recv_ns,
                finish_ns,
                link_wait_ns,
                upload_ns,
            } => [
                ROBOT_FINISHED,
                robot,
                frames,
                0,
                last_resp_recv_ns,
                finish_ns,
                link_wait_ns,
                upload_ns,
            ],
        };
        bytes_of(words)
    }

    /// Decodes one ring slot into `(robot, message)`; unknown kinds and
    /// non-zero reserved words are errors.
    pub fn decode(buf: &[u8; MSG_SIZE]) -> Result<(u64, RobotMsg), String> {
        let w = words_of(buf);
        let msg = match w[0] {
            ROBOT_REQUEST => RobotMsg::Request {
                attempt: w[2],
                planned_steps: w[3],
                capture_ns: w[4],
                send_ns: w[5],
                prev_resp_recv_ns: w[6],
            },
            ROBOT_LOCAL => RobotMsg::LocalPlan { latency_ns: w[6], done_ns: w[7] },
            ROBOT_FINISHED => RobotMsg::Finished {
                frames: w[2],
                last_resp_recv_ns: w[4],
                finish_ns: w[5],
                link_wait_ns: w[6],
                upload_ns: w[7],
            },
            kind => return Err(format!("unknown robot message kind {kind}")),
        };
        exact("robot message", buf, (w[1], msg), msg.encode(w[1]))
    }
}

/// A batch the coordinator hands to an inference-server worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkMsg {
    /// Coordinator-assigned batch id ([`SHUTDOWN_BATCH`] ends the worker).
    pub batch_id: u64,
    /// Modelled service time of the whole batch, ns.
    pub service_ns: u64,
    /// When the coordinator pushed the batch, monotonic ns.
    pub dispatch_ns: u64,
}

impl WorkMsg {
    /// Encodes the batch into one ring slot.
    pub fn encode(&self) -> [u8; MSG_SIZE] {
        bytes_of([self.batch_id, 0, self.service_ns, self.dispatch_ns, 0, 0, 0, 0])
    }

    /// Decodes one ring slot; non-zero reserved words are errors.
    pub fn decode(buf: &[u8; MSG_SIZE]) -> Result<WorkMsg, String> {
        let w = words_of(buf);
        let msg = WorkMsg { batch_id: w[0], service_ns: w[2], dispatch_ns: w[3] };
        exact("work message", buf, msg, msg.encode())
    }
}

/// A worker's completion notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneMsg {
    /// The batch that finished.
    pub batch_id: u64,
    /// When the worker popped the batch, monotonic ns.
    pub pop_ns: u64,
    /// When the modelled service time elapsed, monotonic ns.
    pub done_ns: u64,
}

impl DoneMsg {
    /// Encodes the notice into one ring slot.
    pub fn encode(&self) -> [u8; MSG_SIZE] {
        bytes_of([self.batch_id, self.pop_ns, self.done_ns, 0, 0, 0, 0, 0])
    }

    /// Decodes one ring slot; non-zero reserved words are errors.
    pub fn decode(buf: &[u8; MSG_SIZE]) -> Result<DoneMsg, String> {
        let w = words_of(buf);
        let msg = DoneMsg { batch_id: w[0], pop_ns: w[1], done_ns: w[2] };
        exact("done message", buf, msg, msg.encode())
    }
}

/// The response snapshot the coordinator publishes into a robot's seqlock
/// slot.  The robot accepts it once `attempt` matches its outstanding
/// request; earlier snapshots are stale and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespMsg {
    /// The attempt this plan answers.
    pub attempt: u64,
    /// Time the request queued before dispatch, ns.
    pub queue_wait_ns: u64,
    /// When the coordinator published this snapshot, monotonic ns.
    pub publish_ns: u64,
}

impl RespMsg {
    /// Encodes the snapshot into one seqlock payload.
    pub fn encode(&self) -> [u8; MSG_SIZE] {
        bytes_of([self.attempt, 0, self.queue_wait_ns, 0, 0, self.publish_ns, 0, 0])
    }

    /// Decodes one seqlock payload; non-zero reserved words are errors.
    pub fn decode(buf: &[u8; MSG_SIZE]) -> Result<RespMsg, String> {
        let w = words_of(buf);
        let msg = RespMsg { attempt: w[0], queue_wait_ns: w[2], publish_ns: w[5] };
        exact("response", buf, msg, msg.encode())
    }
}

/// Byte offsets of everything in a live-run segment.
///
/// The header is a handful of bare atomics, each on its own cache line so
/// the hot link-arbiter CAS loop never false-shares with state reads:
///
/// ```text
/// 0    magic                       320  per-robot regions  (request ring + response seqlock each)
/// 64   state (init/running/abort)  ...  per-server regions (work ring + done ring each)
/// 128  start_ns (run epoch)        ...  per-robot telemetry pages
/// 192  link_free_ns (uplink        ...  per-server telemetry pages
///      arbiter clock)              ...  doorbells (coordinator, robots,
/// 256  ready_count                      servers; one cache line each)
/// ```
///
/// The telemetry pages sit after every ring/slot region so their addition
/// moved no existing offset; each is one [`corki_telemetry::PAGE_BYTES`]
/// block of monotonic `AtomicU64` counters, written by exactly one
/// process and drained by the coordinator while the run is live.
///
/// After the telemetry pages come the doorbells, one cache line per
/// process (the coordinator, then each robot, then each server): every
/// producer rings its consumer's bell after a push or publish, and every
/// process sleeps on its own bell instead of polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    robots: usize,
    servers: usize,
    robot_region: usize,
    server_region: usize,
    req_ring_size: usize,
    work_ring_size: usize,
    resp_slot_size: usize,
}

/// Offset of the magic word.
pub const MAGIC_OFF: usize = 0;
/// Offset of the run-state word (see [`state`]).
pub const STATE_OFF: usize = 64;
/// Offset of the published run epoch, monotonic ns.
pub const START_NS_OFF: usize = 128;
/// Offset of the shared uplink arbiter clock, monotonic ns.
pub const LINK_FREE_OFF: usize = 192;
/// Offset of the attached-children counter.
pub const READY_OFF: usize = 256;

const HEADER_SIZE: usize = 320;

/// Bytes per doorbell: a whole cache line, so ringing one process never
/// false-shares with another's bell.
const DOORBELL_STRIDE: usize = 64;

impl SegmentLayout {
    /// Computes the layout of a run with `robots` robot clients and
    /// `servers` inference workers.
    pub fn new(robots: usize, servers: usize) -> Self {
        assert!(robots > 0 && servers > 0, "a live run needs at least one robot and one server");
        let req_ring_size = SpscRing::required_size(REQ_RING_CAPACITY, MSG_SIZE);
        let work_ring_size = SpscRing::required_size(WORK_RING_CAPACITY, MSG_SIZE);
        let resp_slot_size = SeqlockSlot::required_size(MSG_SIZE);
        SegmentLayout {
            robots,
            servers,
            robot_region: req_ring_size + resp_slot_size,
            server_region: 2 * work_ring_size,
            req_ring_size,
            work_ring_size,
            resp_slot_size,
        }
    }

    /// Total bytes the segment needs.
    pub fn total_size(&self) -> usize {
        self.doorbell_base() + (1 + self.robots + self.servers) * DOORBELL_STRIDE
    }

    /// Offset of robot `r`'s request ring (robot pushes, coordinator pops).
    pub fn req_ring(&self, robot: usize) -> usize {
        assert!(robot < self.robots);
        HEADER_SIZE + robot * self.robot_region
    }

    /// Offset of robot `r`'s response seqlock slot (coordinator writes,
    /// robot reads).
    pub fn resp_slot(&self, robot: usize) -> usize {
        self.req_ring(robot) + self.req_ring_size
    }

    /// Offset of server `s`'s work ring (coordinator pushes, worker pops).
    pub fn work_ring(&self, server: usize) -> usize {
        assert!(server < self.servers);
        HEADER_SIZE + self.robots * self.robot_region + server * self.server_region
    }

    /// Offset of server `s`'s done ring (worker pushes, coordinator pops).
    pub fn done_ring(&self, server: usize) -> usize {
        self.work_ring(server) + self.work_ring_size
    }

    /// Where the telemetry pages start: after every ring/slot region.
    fn telemetry_base(&self) -> usize {
        HEADER_SIZE + self.robots * self.robot_region + self.servers * self.server_region
    }

    /// Offset of robot `r`'s telemetry page (robot records, coordinator
    /// drains).
    pub fn robot_telemetry(&self, robot: usize) -> usize {
        assert!(robot < self.robots, "robot {robot} out of range");
        self.telemetry_base() + robot * corki_telemetry::PAGE_BYTES
    }

    /// Offset of server `s`'s telemetry page (worker records, coordinator
    /// drains).
    pub fn server_telemetry(&self, server: usize) -> usize {
        assert!(server < self.servers, "server {server} out of range");
        self.telemetry_base() + (self.robots + server) * corki_telemetry::PAGE_BYTES
    }

    /// Where the doorbells start: after every telemetry page.
    fn doorbell_base(&self) -> usize {
        self.telemetry_base() + (self.robots + self.servers) * corki_telemetry::PAGE_BYTES
    }

    /// Offset of the coordinator's doorbell (children ring it after every
    /// request, completion and ready announcement).
    pub fn coordinator_bell(&self) -> usize {
        self.doorbell_base()
    }

    /// Offset of robot `r`'s doorbell (the coordinator rings it after every
    /// response it publishes and on every run-state change).
    pub fn robot_bell(&self, robot: usize) -> usize {
        assert!(robot < self.robots, "robot {robot} out of range");
        self.doorbell_base() + (1 + robot) * DOORBELL_STRIDE
    }

    /// Offset of server `s`'s doorbell (the coordinator rings it after every
    /// batch it dispatches and on every run-state change).
    pub fn server_bell(&self, server: usize) -> usize {
        assert!(server < self.servers, "server {server} out of range");
        self.doorbell_base() + (1 + self.robots + server) * DOORBELL_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn robot_messages_round_trip() {
        let cases = [
            RobotMsg::Request {
                attempt: 7,
                planned_steps: 5,
                capture_ns: 1_000,
                send_ns: 2_000,
                prev_resp_recv_ns: 900,
            },
            RobotMsg::LocalPlan { latency_ns: 123, done_ns: 456 },
            RobotMsg::Finished {
                frames: 48,
                last_resp_recv_ns: 5,
                finish_ns: 6,
                link_wait_ns: 7,
                upload_ns: 8,
            },
        ];
        for msg in cases {
            let buf = msg.encode(3);
            assert_eq!(RobotMsg::decode(&buf), Ok((3, msg)));
        }
        let mut bad = [0_u8; MSG_SIZE];
        bad[0] = 99;
        assert!(RobotMsg::decode(&bad).is_err(), "unknown kinds must be rejected");
    }

    #[test]
    fn work_done_resp_messages_round_trip() {
        let work = WorkMsg { batch_id: 9, service_ns: 30_000_000, dispatch_ns: 77 };
        assert_eq!(WorkMsg::decode(&work.encode()), Ok(work));
        let done = DoneMsg { batch_id: 9, pop_ns: 80, done_ns: 30_000_080 };
        assert_eq!(DoneMsg::decode(&done.encode()), Ok(done));
        let resp = RespMsg { attempt: 2, queue_wait_ns: 11, publish_ns: 33 };
        assert_eq!(RespMsg::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn a_set_reserved_word_is_rejected_by_every_decoder() {
        let with_word = |frame: [u8; MSG_SIZE], index: usize| {
            let mut frame = frame;
            frame[index * 8] = 1;
            frame
        };
        let zero = [0_u8; MSG_SIZE];
        // The deleted fields' words: `WorkMsg.batch_len`, the three
        // `RespMsg` words, `Finished.plans`.
        assert!(WorkMsg::decode(&with_word(zero, 1)).is_err());
        assert!(DoneMsg::decode(&with_word(zero, 3)).is_err());
        for index in [1, 3, 4] {
            assert!(RespMsg::decode(&with_word(zero, index)).is_err(), "word {index}");
        }
        let finished = RobotMsg::Finished {
            frames: 1,
            last_resp_recv_ns: 0,
            finish_ns: 0,
            link_wait_ns: 0,
            upload_ns: 0,
        };
        assert!(RobotMsg::decode(&with_word(finished.encode(0), 3)).is_err());
        assert!(RobotMsg::decode(&with_word(zero, 7)).is_err(), "request word 7");
    }

    // Untrusted frames: whatever 64 bytes land in a ring slot or a seqlock
    // payload, every decoder returns instead of panicking; and every
    // message survives encode → decode with arbitrary field values.  Small
    // words make valid kinds and zero reserved words common, so the field
    // checks run, not just the kind check.
    proptest! {
        #[test]
        fn arbitrary_frames_never_panic_a_decoder(
            bytes in proptest::collection::vec(0u8..=255, MSG_SIZE),
            small in proptest::collection::vec(0u64..3, WORDS)
        ) {
            let mut frames = [[0_u8; MSG_SIZE]; 2];
            frames[0].copy_from_slice(&bytes);
            frames[1] = bytes_of(small.as_slice().try_into().expect("eight words"));
            for frame in &frames {
                let _ = RobotMsg::decode(frame);
                let _ = WorkMsg::decode(frame);
                let _ = DoneMsg::decode(frame);
                let _ = RespMsg::decode(frame);
            }
        }

        #[test]
        fn every_message_round_trips(
            v in proptest::collection::vec(0u64..=u64::MAX, WORDS)
        ) {
            let robot_msgs = [
                RobotMsg::Request {
                    attempt: v[0],
                    planned_steps: v[1],
                    capture_ns: v[2],
                    send_ns: v[3],
                    prev_resp_recv_ns: v[4],
                },
                RobotMsg::LocalPlan { latency_ns: v[5], done_ns: v[6] },
                RobotMsg::Finished {
                    frames: v[0],
                    last_resp_recv_ns: v[1],
                    finish_ns: v[2],
                    link_wait_ns: v[3],
                    upload_ns: v[4],
                },
            ];
            for msg in robot_msgs {
                prop_assert_eq!(RobotMsg::decode(&msg.encode(v[7])), Ok((v[7], msg)));
            }
            let work = WorkMsg { batch_id: v[0], service_ns: v[1], dispatch_ns: v[2] };
            prop_assert_eq!(WorkMsg::decode(&work.encode()), Ok(work));
            let done = DoneMsg { batch_id: v[3], pop_ns: v[4], done_ns: v[5] };
            prop_assert_eq!(DoneMsg::decode(&done.encode()), Ok(done));
            let resp = RespMsg { attempt: v[6], queue_wait_ns: v[7], publish_ns: v[0] };
            prop_assert_eq!(RespMsg::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn layout_regions_are_disjoint_and_within_bounds() {
        let layout = SegmentLayout::new(8, 2);
        let mut regions: Vec<(usize, usize)> = vec![(0, HEADER_SIZE)];
        for r in 0..8 {
            regions.push((layout.req_ring(r), layout.req_ring_size));
            regions.push((layout.resp_slot(r), layout.resp_slot_size));
        }
        for s in 0..2 {
            regions.push((layout.work_ring(s), layout.work_ring_size));
            regions.push((layout.done_ring(s), layout.work_ring_size));
        }
        for r in 0..8 {
            regions.push((layout.robot_telemetry(r), corki_telemetry::PAGE_BYTES));
        }
        for s in 0..2 {
            regions.push((layout.server_telemetry(s), corki_telemetry::PAGE_BYTES));
        }
        regions.push((layout.coordinator_bell(), DOORBELL_STRIDE));
        for r in 0..8 {
            regions.push((layout.robot_bell(r), DOORBELL_STRIDE));
        }
        for s in 0..2 {
            regions.push((layout.server_bell(s), DOORBELL_STRIDE));
        }
        regions.sort();
        for pair in regions.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "regions {pair:?} overlap");
        }
        let (last_off, last_size) = *regions.last().unwrap();
        assert_eq!(last_off + last_size, layout.total_size(), "layout must be dense");
        for (off, _) in regions {
            assert_eq!(off % 64, 0, "every region must be cache-line aligned");
        }
    }
}
