//! Always-on in-path performance recorder for the Corki fleet runtimes.
//!
//! Both drivers of a scenario — the deterministic DES engine and the live
//! shared-memory path — instrument the *same* six-stage taxonomy of a
//! served plan:
//!
//! 1. **encode** — frame upload transfer time on the shared uplink,
//! 2. **uplink queue** — wait for the shared-link arbiter grant,
//! 3. **pool queue** — wait in the pool scheduler before dispatch,
//! 4. **batch service** — the batched forward pass on a server,
//! 5. **downlink** — plan publish until the robot observes it,
//! 6. **control step** — one executed step of the returned plan.
//!
//! Each stage feeds a fixed-size log2-bucketed [`Histogram`]: recording is
//! allocation-free and O(1), merging is associative and commutative (so
//! per-robot and per-worker recordings fold into one fleet-wide view in
//! any order), and values too large for the bucket range land in an
//! explicit dropped counter instead of silently saturating the top bucket.
//! A bounded per-robot [`Timeline`] keeps the first few plan events of each
//! robot so a single robot's experience stays inspectable at fleet scale.
//!
//! The same layout exists in two homes: [`Recorder`] owns plain memory for
//! the single-process DES, and [`ShmTelemetry`] views a page of
//! `AtomicU64` words inside the mmap'd live segment, written lock-free by
//! robot/worker processes and drained by the coordinator mid-run (every
//! word is a monotonic counter, so a racy snapshot is merely *slightly
//! stale*, never torn). Rendering both into one [`TelemetryReport`] is what
//! makes the live-vs-DES per-stage agreement check possible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod shm;
mod stats;

pub use report::{RobotTimeline, StageSummary, TelemetryReport, TimelineEventRow};
pub use shm::{ShmTelemetry, PAGE_BYTES, PAGE_WORDS, STAGE_WORDS, TIMELINE_WORDS};
pub use stats::{mean, ns_of_ms, percentile, percentile_in_place, quantile_index};

/// Number of log2 buckets per stage histogram. Bucket 0 holds exact
/// zeros; bucket `b ≥ 1` holds `[2^(b-1), 2^b)` nanoseconds, so the top
/// bucket ends at 2^47 ns ≈ 39 hours — far beyond any latency a run can
/// produce without being wedged. Larger values are *dropped* (counted,
/// not recorded).
pub const BUCKETS: usize = 48;

/// Capacity of one per-robot timeline: the first `TIMELINE_CAP` plan
/// events are kept, later ones only counted. Append-only first-N keeps
/// the shared-memory variant tearing-free without a ring discipline.
pub const TIMELINE_CAP: usize = 32;

/// How many robots keep a timeline in a [`Recorder`]. Matches the live
/// path's per-segment robot cap; a 10k-robot DES run keeps timelines for
/// the first 64 robots and drops (counts) nothing — robots beyond the cap
/// simply have no timeline.  The same cap bounds the per-frame trace rows
/// of a DES fleet run (`RobotOutcome::frame_traces` in `corki-system`),
/// so a change to which robots are sampled moves both records together.
pub const MAX_TIMELINES: usize = 64;

/// One stage of the served-plan taxonomy shared by the DES and the live
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Frame upload transfer time on the shared uplink.
    Encode,
    /// Wait for the shared-link arbiter grant.
    UplinkQueue,
    /// Wait in the pool scheduler before batch dispatch.
    PoolQueue,
    /// Batched forward pass on an inference server.
    BatchService,
    /// Plan publish until the robot observes it (the DES models this as
    /// instantaneous and records zeros).
    Downlink,
    /// One executed control step of the returned plan.
    ControlStep,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 6;

    /// Every stage, in canonical report order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Encode,
        Stage::UplinkQueue,
        Stage::PoolQueue,
        Stage::BatchService,
        Stage::Downlink,
        Stage::ControlStep,
    ];

    /// Stable index of the stage inside per-stage arrays and shm pages.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake_case label used in reports, JSON and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::UplinkQueue => "uplink_queue",
            Stage::PoolQueue => "pool_queue",
            Stage::BatchService => "batch_service",
            Stage::Downlink => "downlink",
            Stage::ControlStep => "control_step",
        }
    }
}

/// Bucket index of a nanosecond value, or `None` when the value exceeds
/// the histogram range and must be dropped.
pub fn bucket_of(ns: u64) -> Option<usize> {
    // bit_width: 0 → bucket 0, [2^(b-1), 2^b) → bucket b.
    let bucket = (u64::BITS - ns.leading_zeros()) as usize;
    (bucket < BUCKETS).then_some(bucket)
}

/// Largest value a bucket can hold — the conservative (upper-bound)
/// representative used for quantiles.
pub fn bucket_ceil_ns(bucket: usize) -> u64 {
    debug_assert!(bucket < BUCKETS);
    if bucket == 0 {
        0
    } else {
        (1_u64 << bucket) - 1
    }
}

/// A fixed-size log2-bucketed latency histogram over nanoseconds.
///
/// `record` is allocation-free and O(1); `merge` is associative and
/// commutative; the exact sum of recorded values is kept alongside the
/// buckets so means stay exact even though quantiles are bucketed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    sum_ns: u64,
    dropped: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { counts: [0; BUCKETS], sum_ns: 0, dropped: 0 }
    }

    /// Rebuilds a histogram from raw words — the drain path out of a
    /// shared-memory telemetry page.
    pub fn from_raw(counts: [u64; BUCKETS], sum_ns: u64, dropped: u64) -> Self {
        Histogram { counts, sum_ns, dropped }
    }

    /// Records one value, or counts it as dropped when it exceeds the
    /// bucket range.
    pub fn record(&mut self, ns: u64) {
        match bucket_of(ns) {
            Some(bucket) => {
                self.counts[bucket] += 1;
                self.sum_ns += ns;
            }
            None => self.dropped += 1,
        }
    }

    /// Folds another histogram into this one. Associative and
    /// commutative: bucket counts, sums and dropped counters all add.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum_ns += other.sum_ns;
        self.dropped += other.dropped;
    }

    /// Number of recorded (non-dropped) samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of samples outside the bucket range.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact sum of all recorded values.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / count as f64
        }
    }

    /// Nearest-rank quantile, resolved to the upper bound of the bucket
    /// holding that rank — within one log2 bucket of the exact
    /// nearest-rank value by construction, and conservative (never an
    /// underestimate of the bucket the sample landed in).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let index = quantile_index(total as usize, q) as u64;
        let mut seen = 0_u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > index {
                return bucket_ceil_ns(bucket);
            }
        }
        bucket_ceil_ns(BUCKETS - 1)
    }
}

/// What a timeline event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An offloaded plan completed end-to-end (value: e2e latency).
    Plan,
    /// An on-robot plan completed (value: local inference latency).
    LocalPlan,
}

impl EventKind {
    /// Wire code of the kind inside shm pages (0 is reserved as "empty").
    pub fn code(self) -> u64 {
        match self {
            EventKind::Plan => 1,
            EventKind::LocalPlan => 2,
        }
    }

    /// Decodes a wire code back into a kind.
    pub fn from_code(code: u64) -> Option<EventKind> {
        match code {
            1 => Some(EventKind::Plan),
            2 => Some(EventKind::LocalPlan),
            _ => None,
        }
    }

    /// The snake_case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Plan => "plan",
            EventKind::LocalPlan => "local_plan",
        }
    }
}

/// One entry of a per-robot timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineEvent {
    /// When the event happened (ns since the run start / process clock).
    pub at_ns: u64,
    /// What the event marks.
    pub kind: EventKind,
    /// The latency the event carries.
    pub value_ns: u64,
}

/// A bounded, append-only per-robot event timeline: the first
/// [`TIMELINE_CAP`] events are kept verbatim, later ones are counted as
/// dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    events: [TimelineEvent; TIMELINE_CAP],
    len: usize,
    dropped: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl Timeline {
    /// An empty timeline.
    pub const fn new() -> Self {
        const EMPTY: TimelineEvent = TimelineEvent { at_ns: 0, kind: EventKind::Plan, value_ns: 0 };
        Timeline { events: [EMPTY; TIMELINE_CAP], len: 0, dropped: 0 }
    }

    /// Rebuilds a timeline from drained events plus a dropped count (the
    /// drain path out of a shared-memory page). Events beyond the
    /// capacity are folded into the dropped counter.
    pub fn from_parts(events: &[TimelineEvent], dropped: u64) -> Self {
        let mut timeline = Timeline::new();
        timeline.dropped = dropped;
        for event in events {
            timeline.push(event.at_ns, event.kind, event.value_ns);
        }
        timeline
    }

    /// Appends one event, or counts it as dropped once full.
    pub fn push(&mut self, at_ns: u64, kind: EventKind, value_ns: u64) {
        if self.len < TIMELINE_CAP {
            self.events[self.len] = TimelineEvent { at_ns, kind, value_ns };
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events[..self.len]
    }

    /// Number of events that arrived after the timeline filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds another timeline in: keeps events while room remains (merge
    /// order decides which survive), counts the rest as dropped.
    pub fn merge(&mut self, other: &Timeline) {
        self.dropped += other.dropped;
        for event in other.events() {
            self.push(event.at_ns, event.kind, event.value_ns);
        }
    }
}

/// The plain-memory recorder used by the single-process DES driver: one
/// histogram per stage plus bounded timelines for the first
/// [`MAX_TIMELINES`] robots.
#[derive(Clone, Debug)]
pub struct Recorder {
    stages: [Histogram; Stage::COUNT],
    timelines: Vec<Timeline>,
}

impl Recorder {
    /// A recorder for a fleet of `robots` robots (timelines are kept for
    /// the first [`MAX_TIMELINES`] of them).
    pub fn new(robots: usize) -> Self {
        Recorder {
            stages: [Histogram::new(); Stage::COUNT],
            timelines: vec![Timeline::new(); robots.min(MAX_TIMELINES)],
        }
    }

    /// Records one nanosecond sample into a stage. Allocation-free.
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    /// Records one millisecond sample (the DES clock unit) into a stage.
    pub fn record_ms(&mut self, stage: Stage, ms: f64) {
        self.record(stage, ns_of_ms(ms));
    }

    /// Appends a timeline event for `robot` (silently skipped for robots
    /// beyond the timeline cap — their plans still feed the histograms).
    pub fn event(&mut self, robot: usize, at_ns: u64, kind: EventKind, value_ns: u64) {
        if let Some(timeline) = self.timelines.get_mut(robot) {
            timeline.push(at_ns, kind, value_ns);
        }
    }

    /// The histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Folds a drained stage histogram in (the coordinator's merge path).
    pub fn merge_stage(&mut self, stage: Stage, histogram: &Histogram) {
        self.stages[stage.index()].merge(histogram);
    }

    /// Folds a drained per-robot timeline in, replacing the robot's
    /// (necessarily empty on the coordinator side) local timeline.
    pub fn merge_timeline(&mut self, robot: usize, timeline: &Timeline) {
        if let Some(mine) = self.timelines.get_mut(robot) {
            mine.merge(timeline);
        }
    }

    /// Folds a whole other recorder in. Associative and commutative on
    /// the stage histograms; timelines keep first-comers per robot.
    pub fn merge(&mut self, other: &Recorder) {
        for stage in Stage::ALL {
            self.merge_stage(stage, other.stage(stage));
        }
        for (robot, timeline) in other.timelines.iter().enumerate() {
            self.merge_timeline(robot, timeline);
        }
    }

    /// Renders the recorder into the serializable report shared by
    /// `experiments fleet` and `experiments serve`.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::of(&self.stages, &self.timelines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_edges() {
        assert_eq!(bucket_of(0), Some(0));
        assert_eq!(bucket_of(1), Some(1));
        assert_eq!(bucket_of(2), Some(2));
        assert_eq!(bucket_of(3), Some(2));
        assert_eq!(bucket_of((1 << 46) - 1), Some(46));
        assert_eq!(bucket_of(1 << 46), Some(47));
        assert_eq!(bucket_of((1 << 47) - 1), Some(47));
        assert_eq!(bucket_of(1 << 47), None, "out-of-range values are dropped, not saturated");
        assert_eq!(bucket_of(u64::MAX), None);
    }

    #[test]
    fn record_and_quantiles() {
        let mut hist = Histogram::new();
        assert_eq!(hist.quantile_ns(0.5), 0, "empty histogram quantile is 0");
        for ns in [100, 200, 400, 800, 100_000] {
            hist.record(ns);
        }
        hist.record(u64::MAX);
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.dropped(), 1);
        assert_eq!(hist.sum_ns(), 101_500);
        assert!((hist.mean_ns() - 20_300.0).abs() < 1e-9);
        // p50 of [100, 200, 400, 800, 100000] is 400 → bucket 9 ceil 511.
        assert_eq!(hist.quantile_ns(0.5), 511);
        // p100 lands in the bucket of 100000 (bucket 17, ceil 131071).
        assert_eq!(hist.quantile_ns(1.0), (1 << 17) - 1);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(u64::MAX);
        b.record(10_000);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.dropped(), 1);
        assert_eq!(merged.sum_ns(), 10_010);
    }

    #[test]
    fn timeline_caps_and_counts() {
        let mut timeline = Timeline::new();
        for i in 0..(TIMELINE_CAP as u64 + 5) {
            timeline.push(i, EventKind::Plan, i * 2);
        }
        assert_eq!(timeline.events().len(), TIMELINE_CAP);
        assert_eq!(timeline.dropped(), 5);
        assert_eq!(
            timeline.events()[3],
            TimelineEvent { at_ns: 3, kind: EventKind::Plan, value_ns: 6 }
        );
    }

    #[test]
    fn recorder_report_has_all_stages_in_order() {
        let mut recorder = Recorder::new(2);
        recorder.record(Stage::Encode, 1_000);
        recorder.record_ms(Stage::ControlStep, 33.0);
        recorder.event(0, 5_000_000, EventKind::Plan, 40_000_000);
        recorder.event(9, 1, EventKind::Plan, 1); // beyond the fleet: ignored
        let report = recorder.report();
        let labels: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "encode",
                "uplink_queue",
                "pool_queue",
                "batch_service",
                "downlink",
                "control_step"
            ]
        );
        assert_eq!(report.stages[0].samples, 1);
        assert_eq!(report.timelines.len(), 2);
        assert_eq!(report.timelines[0].events.len(), 1);
        assert_eq!(report.timelines[0].events[0].kind, "plan");
        assert!((report.timelines[0].events[0].value_ms - 40.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_merge_is_stagewise() {
        let mut a = Recorder::new(1);
        let mut b = Recorder::new(1);
        a.record(Stage::PoolQueue, 100);
        b.record(Stage::PoolQueue, 200);
        b.event(0, 7, EventKind::LocalPlan, 9);
        a.merge(&b);
        assert_eq!(a.stage(Stage::PoolQueue).count(), 2);
        assert_eq!(a.report().timelines[0].events.len(), 1);
    }
}
