//! Declarative scenario specifications: one serializable description for
//! every fleet experiment.
//!
//! Before this module the scenario space of the fleet-serving engine was
//! described four different ways — [`FleetConfig`] mutation helpers, the
//! experiment axis lists in `corki::fleet`, ad-hoc CLI flags and hand-rolled
//! bench cases.  A [`ScenarioSpec`] replaces all of them: it is a plain,
//! serde-serializable value that fully describes a fleet experiment —
//!
//! * **robot groups** ([`RobotGroupSpec`]): count, [`Variant`],
//!   [`RobotCompute`] placement and (optionally) explicit per-robot seeds;
//! * **server pool** ([`ServerConfig`] per server: its own device model and
//!   its own batch scheduler);
//! * **routing**, **warm-up window**, **duration** (frames per robot) and
//!   the **latency budget** of the robots-per-server summary;
//! * **sweep axes** ([`ScenarioAxes`]): fleet sizes, variant mixes
//!   ([`VariantMix`] — mixed-variant fleets are first-class), schedulers,
//!   pool sizes and device compositions ([`CompositionSpec`]).
//!
//! [`ScenarioSpec::expand`] deterministically lowers a spec with axes into
//! concrete, runnable cells ([`ConcreteScenario`], each carrying a full
//! [`FleetConfig`] plus the canonical row labels), nesting the axes
//! pool-size-major exactly like the historical sweep: servers → composition
//! → scheduler → variant mix → fleet size.  A spec without axes expands to
//! exactly one cell.  Validation never panics: every way a spec can be
//! malformed is a [`ScenarioError`] variant.
//!
//! Specs written by hand (or committed under `crates/bench/scenarios/`)
//! parse strictly: unknown keys are rejected loudly instead of silently
//! falling back to defaults, and every label that appears in result rows
//! round-trips through the canonical `Display`/`FromStr` implementations of
//! the underlying types ([`Variant`], [`crate::SchedulerKind`],
//! [`RoutingPolicy`], [`CompositionLabel`]).

use crate::devices::{DataRepresentation, InferenceDevice, InferenceModel};
use crate::fleet::{
    ControlBackend, FaultPlan, FleetConfig, RobotCompute, SchedulerKind, ServerConfig,
    DEFAULT_EXECUTION_STEP_MS,
};
use crate::routing::RoutingPolicy;
use crate::variant::Variant;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// A group of identical robots within a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RobotGroupSpec {
    /// The policy/execution variant every robot of the group runs.
    pub variant: Variant,
    /// Robots in the group (at the spec's base fleet size; the
    /// [`ScenarioAxes::robot_counts`] axis rescales groups pro rata).
    pub count: usize,
    /// Where the group's inference runs (offloaded to the pool, or on an
    /// on-robot device that bypasses the uplink).
    pub compute: RobotCompute,
    /// Explicit per-robot jitter seeds (`count` entries).  `None` derives
    /// seeds deterministically from the scenario seed and the robot's global
    /// index, which is what every paper experiment uses.
    pub seeds: Option<Vec<u64>>,
}

impl RobotGroupSpec {
    /// An offloaded group with derived seeds.
    pub fn offloaded(variant: Variant, count: usize) -> Self {
        RobotGroupSpec { variant, count, compute: RobotCompute::Offloaded, seeds: None }
    }

    /// An on-robot group (each robot carries `model`) with derived seeds.
    pub fn on_robot(variant: Variant, count: usize, model: InferenceModel) -> Self {
        RobotGroupSpec { variant, count, compute: RobotCompute::OnRobot(model), seeds: None }
    }
}

/// One share of a [`VariantMix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VariantShare {
    /// The variant of this share.
    pub variant: Variant,
    /// Relative weight: robots are allocated to shares pro rata (weights
    /// `[1, 1]` split a fleet of 8 into 4 + 4).
    pub weight: usize,
}

/// One entry of the variant axis: a fleet-wide variant composition.  A
/// uniform mix reproduces the classic one-variant-per-cell sweep; a mix with
/// several shares puts e.g. Corki-3 robots next to Corki-9 ones in the same
/// fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VariantMix {
    /// The weighted shares of the mix.
    pub groups: Vec<VariantShare>,
}

impl VariantMix {
    /// The classic single-variant fleet.
    pub fn uniform(variant: Variant) -> Self {
        VariantMix { groups: vec![VariantShare { variant, weight: 1 }] }
    }

    /// A weighted mixed-variant fleet.
    pub fn mixed(parts: impl IntoIterator<Item = (Variant, usize)>) -> Self {
        VariantMix {
            groups: parts
                .into_iter()
                .map(|(variant, weight)| VariantShare { variant, weight })
                .collect(),
        }
    }

    /// The shares in canonical, fleet-size-independent form (behind
    /// [`fmt::Display`]): shares of the same variant merged (a fleet split
    /// into several groups of one variant is still uniform), then weights
    /// reduced by their greatest common divisor.
    fn reduced(&self) -> Vec<(String, usize)> {
        let mut merged: Vec<(String, usize)> = Vec::new();
        for share in &self.groups {
            let name = share.variant.name();
            match merged.iter_mut().find(|(existing, _)| *existing == name) {
                Some((_, weight)) => *weight += share.weight,
                None => merged.push((name, share.weight)),
            }
        }
        let divisor = merged.iter().fold(0, |d, (_, weight)| gcd(d, *weight)).max(1);
        for (_, weight) in &mut merged {
            *weight /= divisor;
        }
        merged
    }
}

impl fmt::Display for VariantMix {
    /// The canonical mix label: the variant name for uniform mixes (so
    /// classic sweep rows keep their historical labels), otherwise the
    /// gcd-reduced shares joined with `+` (`Corki-3+Corki-9`,
    /// `2xCorki-3+Corki-9`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reduced = self.reduced();
        if reduced.len() == 1 {
            return f.write_str(&reduced[0].0);
        }
        let parts: Vec<String> = reduced
            .iter()
            .map(
                |(name, weight)| {
                    if *weight == 1 {
                        name.clone()
                    } else {
                        format!("{weight}x{name}")
                    }
                },
            )
            .collect();
        f.write_str(&parts.join("+"))
    }
}

/// Error produced when parsing an unknown variant-mix label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVariantMixError(String);

impl fmt::Display for ParseVariantMixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown variant mix `{}` (expected `+`-joined variant names, each optionally \
             prefixed `<weight>x`)",
            self.0
        )
    }
}

impl std::error::Error for ParseVariantMixError {}

impl FromStr for VariantMix {
    type Err = ParseVariantMixError;

    /// Parses the canonical mix labels: `Corki-3`, `Corki-3+Corki-9`,
    /// `2xCorki-3+Corki-9`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut groups = Vec::new();
        for part in s.split('+') {
            let part = part.trim();
            let (weight, name) = match part.split_once('x') {
                Some((prefix, rest))
                    if !prefix.is_empty() && prefix.chars().all(|c| c.is_ascii_digit()) =>
                {
                    (prefix.parse().map_err(|_| ParseVariantMixError(s.to_owned()))?, rest)
                }
                _ => (1, part),
            };
            let variant: Variant = name.parse().map_err(|_| ParseVariantMixError(s.to_owned()))?;
            if weight == 0 {
                return Err(ParseVariantMixError(s.to_owned()));
            }
            groups.push(VariantShare { variant, weight });
        }
        if groups.is_empty() {
            return Err(ParseVariantMixError(s.to_owned()));
        }
        Ok(VariantMix { groups })
    }
}

/// One entry of the device-composition axis: how [`RobotCompute`] placements
/// are overlaid on a swept fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompositionSpec {
    /// Keep every robot's compute as the groups declare it (for fleets whose
    /// groups are all offloaded this is the classic homogeneous shape).
    Homogeneous,
    /// Every `period`-th robot (indices where `index % period == period-1`)
    /// carries its own on-robot inference device and bypasses the uplink and
    /// the pool; the rest keep their declared compute.
    MixedOnRobot {
        /// Device/precision model of the on-robot boards.
        on_robot: InferenceModel,
        /// One robot in `period` runs on-robot (clamped to at least 2).
        period: usize,
    },
}

impl CompositionSpec {
    /// The paper-flavoured mixed fleet: every second robot is a Jetson Orin
    /// 32GB board running fp16 on-robot, the rest offload to the pool.
    pub fn jetson_every_second() -> Self {
        CompositionSpec::MixedOnRobot {
            on_robot: InferenceModel::new(
                InferenceDevice::JetsonOrin32Gb,
                DataRepresentation::Float16,
            ),
            period: 2,
        }
    }

    /// The stable, fleet-size-independent label of this axis entry (the
    /// [`CompositionLabel`] grammar).
    pub fn label(&self) -> String {
        match self {
            CompositionSpec::Homogeneous => CompositionLabel::Offloaded.to_string(),
            CompositionSpec::MixedOnRobot { on_robot, period } => CompositionLabel::Mixed {
                device: on_robot.device,
                representation: on_robot.representation,
                on_robot: 1,
                fleet: (*period).max(2),
            }
            .to_string(),
        }
    }

    /// Applies the composition to a fleet configuration.
    pub fn apply(&self, config: &mut FleetConfig) {
        if let CompositionSpec::MixedOnRobot { on_robot, period } = self {
            let period = (*period).max(2);
            for (index, robot) in config.robots.iter_mut().enumerate() {
                if index % period == period - 1 {
                    robot.compute = RobotCompute::OnRobot(*on_robot);
                }
            }
        }
    }
}

/// The sweep axes of a scenario.  Every axis is optional (an empty vector
/// keeps the spec's base value); non-empty axes multiply into cells nested
/// pool-size-major: servers → composition → scheduler → variant mix → fleet
/// size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioAxes {
    /// Total fleet sizes to sweep; robot groups are rescaled pro rata.
    pub robot_counts: Vec<usize>,
    /// Fleet-wide variant compositions to sweep (replacing the base groups'
    /// variants; every mix robot offloads unless a composition entry says
    /// otherwise).
    pub variants: Vec<VariantMix>,
    /// Batch disciplines to sweep (applied to every server of the pool).
    pub schedulers: Vec<SchedulerKind>,
    /// Pool sizes to sweep (replicas of the spec's first server).
    pub server_counts: Vec<usize>,
    /// Device compositions to sweep.
    pub compositions: Vec<CompositionSpec>,
}

impl ScenarioAxes {
    /// No axes: the spec expands to exactly one cell.
    pub fn none() -> Self {
        ScenarioAxes {
            robot_counts: Vec::new(),
            variants: Vec::new(),
            schedulers: Vec::new(),
            server_counts: Vec::new(),
            compositions: Vec::new(),
        }
    }
}

/// The warm-up handling of a scenario: either a fixed start-up window in
/// milliseconds, or adaptive MSER-5 steady-state detection.
///
/// In spec JSON a fixed window is spelled as a plain number
/// (`"warmup_ms": 250`) and adaptive detection as the string
/// `"warmup_ms": "auto"`, which lowers to
/// [`FleetConfig::auto_warmup`](crate::fleet::FleetConfig::auto_warmup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmupSpec {
    /// Exclude a fixed start-up window (ms) from the aggregate latency
    /// statistics.
    Fixed(f64),
    /// Detect the truncation point adaptively with MSER-5 over the pool's
    /// queue-depth time series.
    Auto,
}

impl WarmupSpec {
    /// The fixed window in milliseconds, or `None` for adaptive detection.
    pub fn fixed_ms(&self) -> Option<f64> {
        match self {
            WarmupSpec::Fixed(ms) => Some(*ms),
            WarmupSpec::Auto => None,
        }
    }

    /// Whether adaptive MSER-5 detection is requested.
    pub fn is_auto(&self) -> bool {
        matches!(self, WarmupSpec::Auto)
    }
}

impl fmt::Display for WarmupSpec {
    /// `auto (MSER-5)` for adaptive detection, otherwise the fixed window
    /// with its unit (`250 ms`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmupSpec::Fixed(ms) => write!(f, "{ms} ms"),
            WarmupSpec::Auto => f.write_str("auto (MSER-5)"),
        }
    }
}

impl Serialize for WarmupSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            WarmupSpec::Fixed(ms) => serde::Value::Number(*ms),
            WarmupSpec::Auto => serde::Value::String("auto".to_owned()),
        }
    }
}

impl Deserialize for WarmupSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Number(ms) => Ok(WarmupSpec::Fixed(*ms)),
            serde::Value::String(s) if s == "auto" => Ok(WarmupSpec::Auto),
            other => Err(serde::Error::custom(format!(
                "warmup_ms must be a number of milliseconds or the string \"auto\", \
                 found {other:?}"
            ))),
        }
    }
}

/// A full, serializable description of one fleet experiment.
///
/// Build one with [`ScenarioBuilder`], parse one from JSON with
/// [`ScenarioSpec::from_json`], and lower it to runnable cells with
/// [`ScenarioSpec::expand`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Scenario name (used in bench case names and logs).
    pub name: String,
    /// Base seed; robots derive their jitter seeds from it (unless a group
    /// pins explicit seeds).
    pub seed: u64,
    /// Camera frames (control steps) each robot executes — the scenario's
    /// duration.
    pub frames_per_robot: usize,
    /// Start-up handling: a fixed window excluded from the aggregate
    /// latency statistics (ms), or `"auto"` for adaptive MSER-5 detection.
    pub warmup_ms: WarmupSpec,
    /// How offloaded requests are spread over the pool.
    pub routing: RoutingPolicy,
    /// Control back-end topology.
    pub control_backend: ControlBackend,
    /// The robot groups of the base fleet (may be empty when the variant
    /// axis generates the fleets instead).
    pub robots: Vec<RobotGroupSpec>,
    /// The inference server pool (device + scheduler per server).
    pub servers: Vec<ServerConfig>,
    /// Executed-length distribution override for Corki-ADAP robots (`null`
    /// keeps the pipeline defaults).
    pub adaptive_lengths: Option<Vec<usize>>,
    /// End-to-end p99 plan-latency budget of the robots-per-server summary
    /// (ms).
    pub latency_budget_ms: f64,
    /// Sweep axes.
    pub axes: ScenarioAxes,
    /// Deterministic fault plan (server crashes, link degradation, timeouts
    /// and retries, robot churn, degraded-mode fallback).  Fault plans pin
    /// concrete robot and server indices, so they cannot be combined with
    /// sweep axes.
    pub faults: Option<FaultPlan>,
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Every way a [`ScenarioSpec`] can be malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec declares no robot groups and no variant axis.
    NoRobots,
    /// The spec declares no inference servers.
    NoServers,
    /// A robot group has `count == 0`.
    EmptyGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// `frames_per_robot` is zero.
    ZeroFrames,
    /// The warm-up window is negative or not finite.
    InvalidWarmup {
        /// The offending value.
        value: f64,
    },
    /// The latency budget is not a positive finite number.
    InvalidBudget {
        /// The offending value.
        value: f64,
    },
    /// A sweep axis contains a zero entry.
    ZeroAxisEntry {
        /// `"robot_counts"` or `"server_counts"`.
        axis: &'static str,
    },
    /// A variant mix has no shares, or a share with zero weight.
    InvalidVariantMix {
        /// Index of the offending mix on the variant axis.
        index: usize,
    },
    /// A group pins explicit seeds whose length does not match its count.
    SeedCountMismatch {
        /// Index of the offending group.
        group: usize,
        /// Seeds provided.
        seeds: usize,
        /// Robots in the group.
        robots: usize,
    },
    /// A group pins explicit seeds while the fleet-size axis rescales groups
    /// (the two cannot be reconciled deterministically).
    SeedsWithScaledCounts {
        /// Index of the offending group.
        group: usize,
    },
    /// A base group pins explicit seeds or on-robot compute while a variant
    /// axis is set — the axis replaces the base groups wholesale, so the
    /// pinned details would be silently discarded.
    GroupsShadowedByVariantAxis {
        /// Index of the offending group.
        group: usize,
    },
    /// A fixed warm-up window exceeds the scenario horizon, which would
    /// silently trim every steady-state sample.
    WarmupExceedsHorizon {
        /// The configured warm-up window (ms).
        warmup_ms: f64,
        /// The scenario horizon: `frames_per_robot` camera frames (ms).
        horizon_ms: f64,
    },
    /// An adaptive-length override is present but empty.
    EmptyAdaptiveLengths,
    /// A fault plan is combined with sweep axes (fault plans pin concrete
    /// robot and server indices, which axes rescale).
    FaultsWithAxes,
    /// A crash entry names a server outside the pool.
    CrashServerOutOfRange {
        /// Index of the offending crash entry.
        crash: usize,
        /// The named server.
        server: usize,
        /// Servers in the pool.
        servers: usize,
    },
    /// A crash entry has a non-finite or negative start time, or a
    /// non-positive outage duration.
    InvalidCrashWindow {
        /// Index of the offending crash entry.
        crash: usize,
    },
    /// A link-degradation window is malformed: a bad interval, a latency
    /// factor below 1, or a loss probability outside `[0, 1]`.
    InvalidLinkDegradation {
        /// Index of the offending degradation window.
        window: usize,
    },
    /// The timeout policy has a non-positive timeout or a negative backoff.
    InvalidTimeoutPolicy,
    /// A churn entry is malformed: a negative join time, a leave time at or
    /// before the join, a robot outside the fleet, or a robot churned twice.
    InvalidChurnEvent {
        /// Index of the offending churn entry.
        event: usize,
    },
    /// The fault plan injects crashes or upload loss without a timeout
    /// policy, so affected requests would hang forever.
    FaultNeedsTimeout,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoRobots => {
                write!(f, "scenario declares no robot groups and no variant axis")
            }
            ScenarioError::NoServers => write!(f, "scenario declares no inference servers"),
            ScenarioError::EmptyGroup { group } => {
                write!(f, "robot group {group} has a count of zero")
            }
            ScenarioError::ZeroFrames => write!(f, "frames_per_robot must be at least 1"),
            ScenarioError::InvalidWarmup { value } => {
                write!(f, "warmup_ms must be finite and non-negative, got {value}")
            }
            ScenarioError::InvalidBudget { value } => {
                write!(f, "latency_budget_ms must be finite and positive, got {value}")
            }
            ScenarioError::ZeroAxisEntry { axis } => {
                write!(f, "the {axis} axis contains a zero entry")
            }
            ScenarioError::InvalidVariantMix { index } => {
                write!(f, "variant mix {index} needs at least one share, all with positive weight")
            }
            ScenarioError::SeedCountMismatch { group, seeds, robots } => {
                write!(f, "robot group {group} pins {seeds} explicit seeds for {robots} robots")
            }
            ScenarioError::SeedsWithScaledCounts { group } => write!(
                f,
                "robot group {group} pins explicit seeds, which cannot be combined with a \
                 fleet-size axis"
            ),
            ScenarioError::GroupsShadowedByVariantAxis { group } => write!(
                f,
                "robot group {group} pins explicit seeds or on-robot compute, which a variant \
                 axis would silently discard (the axis replaces the base groups)"
            ),
            ScenarioError::WarmupExceedsHorizon { warmup_ms, horizon_ms } => write!(
                f,
                "warmup_ms of {warmup_ms} exceeds the scenario horizon of {horizon_ms} ms, \
                 which would trim every steady-state sample"
            ),
            ScenarioError::EmptyAdaptiveLengths => {
                write!(f, "adaptive_lengths override must not be empty (use null to keep defaults)")
            }
            ScenarioError::FaultsWithAxes => write!(
                f,
                "a fault plan pins concrete robot and server indices, which cannot be \
                 combined with sweep axes"
            ),
            ScenarioError::CrashServerOutOfRange { crash, server, servers } => write!(
                f,
                "crash entry {crash} names server {server}, but the pool has {servers} servers"
            ),
            ScenarioError::InvalidCrashWindow { crash } => write!(
                f,
                "crash entry {crash} needs a finite non-negative start and a positive duration"
            ),
            ScenarioError::InvalidLinkDegradation { window } => write!(
                f,
                "link-degradation window {window} needs from_ms < until_ms (both finite and \
                 non-negative), a latency factor of at least 1, and a loss probability in [0, 1]"
            ),
            ScenarioError::InvalidTimeoutPolicy => write!(
                f,
                "the timeout policy needs a finite positive timeout_ms and a finite \
                 non-negative backoff_ms"
            ),
            ScenarioError::InvalidChurnEvent { event } => write!(
                f,
                "churn entry {event} needs a finite non-negative join time, a leave time after \
                 the join, a robot inside the fleet, and at most one entry per robot"
            ),
            ScenarioError::FaultNeedsTimeout => write!(
                f,
                "the fault plan injects crashes or upload loss, which requires a timeout \
                 policy so affected requests can recover"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioSpec {
    /// Checks every structural invariant of the spec.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.robots.is_empty() && self.axes.variants.is_empty() {
            return Err(ScenarioError::NoRobots);
        }
        if self.servers.is_empty() {
            return Err(ScenarioError::NoServers);
        }
        for (group, spec) in self.robots.iter().enumerate() {
            if spec.count == 0 {
                return Err(ScenarioError::EmptyGroup { group });
            }
            if let Some(seeds) = &spec.seeds {
                if seeds.len() != spec.count {
                    return Err(ScenarioError::SeedCountMismatch {
                        group,
                        seeds: seeds.len(),
                        robots: spec.count,
                    });
                }
                if !self.axes.robot_counts.is_empty() && self.axes.variants.is_empty() {
                    return Err(ScenarioError::SeedsWithScaledCounts { group });
                }
            }
            // A variant axis replaces the base groups wholesale; refuse to
            // silently drop anything the groups explicitly pinned.
            let pins_details =
                spec.seeds.is_some() || matches!(spec.compute, RobotCompute::OnRobot(_));
            if pins_details && !self.axes.variants.is_empty() {
                return Err(ScenarioError::GroupsShadowedByVariantAxis { group });
            }
        }
        if self.frames_per_robot == 0 {
            return Err(ScenarioError::ZeroFrames);
        }
        if let Some(warmup) = self.warmup_ms.fixed_ms() {
            if !warmup.is_finite() || warmup < 0.0 {
                return Err(ScenarioError::InvalidWarmup { value: warmup });
            }
            let horizon_ms = self.frames_per_robot as f64 * DEFAULT_EXECUTION_STEP_MS;
            if warmup > horizon_ms {
                return Err(ScenarioError::WarmupExceedsHorizon { warmup_ms: warmup, horizon_ms });
            }
        }
        if !self.latency_budget_ms.is_finite() || self.latency_budget_ms <= 0.0 {
            return Err(ScenarioError::InvalidBudget { value: self.latency_budget_ms });
        }
        if self.axes.robot_counts.contains(&0) {
            return Err(ScenarioError::ZeroAxisEntry { axis: "robot_counts" });
        }
        if self.axes.server_counts.contains(&0) {
            return Err(ScenarioError::ZeroAxisEntry { axis: "server_counts" });
        }
        for (index, mix) in self.axes.variants.iter().enumerate() {
            if mix.groups.is_empty() || mix.groups.iter().any(|share| share.weight == 0) {
                return Err(ScenarioError::InvalidVariantMix { index });
            }
        }
        if matches!(&self.adaptive_lengths, Some(lengths) if lengths.is_empty()) {
            return Err(ScenarioError::EmptyAdaptiveLengths);
        }
        if let Some(faults) = &self.faults {
            self.validate_faults(faults)?;
        }
        Ok(())
    }

    /// Checks the structural invariants of a fault plan against the spec's
    /// concrete fleet and pool.
    fn validate_faults(&self, faults: &FaultPlan) -> Result<(), ScenarioError> {
        let no_axes = self.axes.robot_counts.is_empty()
            && self.axes.variants.is_empty()
            && self.axes.schedulers.is_empty()
            && self.axes.server_counts.is_empty()
            && self.axes.compositions.is_empty();
        if !no_axes {
            return Err(ScenarioError::FaultsWithAxes);
        }
        for (index, crash) in faults.crashes.iter().enumerate() {
            if crash.server >= self.servers.len() {
                return Err(ScenarioError::CrashServerOutOfRange {
                    crash: index,
                    server: crash.server,
                    servers: self.servers.len(),
                });
            }
            if !crash.at_ms.is_finite()
                || crash.at_ms < 0.0
                || !crash.down_ms.is_finite()
                || crash.down_ms <= 0.0
            {
                return Err(ScenarioError::InvalidCrashWindow { crash: index });
            }
        }
        for (index, window) in faults.link_degradations.iter().enumerate() {
            if !window.from_ms.is_finite()
                || window.from_ms < 0.0
                || !window.until_ms.is_finite()
                || window.until_ms <= window.from_ms
                || !window.latency_factor.is_finite()
                || window.latency_factor < 1.0
                || !window.loss.is_finite()
                || !(0.0..=1.0).contains(&window.loss)
            {
                return Err(ScenarioError::InvalidLinkDegradation { window: index });
            }
        }
        if let Some(timeout) = &faults.timeout {
            if !timeout.timeout_ms.is_finite()
                || timeout.timeout_ms <= 0.0
                || !timeout.backoff_ms.is_finite()
                || timeout.backoff_ms < 0.0
            {
                return Err(ScenarioError::InvalidTimeoutPolicy);
            }
        }
        let fleet: usize = self.robots.iter().map(|group| group.count).sum();
        for (index, churn) in faults.churn.iter().enumerate() {
            let bad_window = !churn.join_at_ms.is_finite()
                || churn.join_at_ms < 0.0
                || churn
                    .leave_at_ms
                    .is_some_and(|leave| !leave.is_finite() || leave <= churn.join_at_ms);
            let duplicate = faults.churn[..index].iter().any(|prior| prior.robot == churn.robot);
            if bad_window || churn.robot >= fleet || duplicate {
                return Err(ScenarioError::InvalidChurnEvent { event: index });
            }
        }
        if (faults.has_crashes() || faults.has_loss()) && faults.timeout.is_none() {
            return Err(ScenarioError::FaultNeedsTimeout);
        }
        Ok(())
    }

    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the JSON does not parse into
    /// the (strict) spec schema or fails [`validate`](ScenarioSpec::validate).
    pub fn from_json(json: &str) -> Result<ScenarioSpec, String> {
        let spec: ScenarioSpec =
            serde_json::from_str(json).map_err(|e| format!("not a scenario spec: {e}"))?;
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// Serialises the spec as canonical pretty-printed JSON (sorted keys —
    /// re-serialising a committed spec file reproduces it byte for byte).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario specs are serialisable")
    }
}

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

/// One runnable cell of an expanded scenario: a full [`FleetConfig`] plus
/// the canonical labels result rows report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcreteScenario {
    /// Name of the spec this cell came from.
    pub scenario: String,
    /// Canonical variant(-mix) label of the fleet.
    pub variant_label: String,
    /// Canonical scheduler label of the pool.
    pub scheduler_label: String,
    /// Canonical routing-policy label.
    pub routing_label: String,
    /// Canonical device-composition label.
    pub composition_label: String,
    /// Robots in the fleet.
    pub robots: usize,
    /// Inference servers in the pool.
    pub servers: usize,
    /// p99 plan-latency budget inherited from the spec (ms).
    pub latency_budget_ms: f64,
    /// The fully resolved engine configuration.
    pub config: FleetConfig,
}

/// One fleet template of the variant dimension: resolved groups plus the
/// fleet-size-independent labels.
struct FleetTemplate {
    variant_label: String,
    declared_composition: String,
    groups: Vec<TemplateGroup>,
}

struct TemplateGroup {
    variant: Variant,
    weight: usize,
    compute: RobotCompute,
    seeds: Option<Vec<u64>>,
}

impl ScenarioSpec {
    /// Deterministically lowers the spec into concrete cells, nesting any
    /// axes pool-size-major (servers → composition → scheduler → variant mix
    /// → fleet size).  Two calls on equal specs produce equal cells.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ScenarioError`] (expansion always
    /// validates first).
    pub fn expand(&self) -> Result<Vec<ConcreteScenario>, ScenarioError> {
        self.validate()?;
        let server_counts = optional_axis(&self.axes.server_counts);
        let compositions = if self.axes.compositions.is_empty() {
            vec![CompositionSpec::Homogeneous]
        } else {
            self.axes.compositions.clone()
        };
        let schedulers = optional_axis(&self.axes.schedulers);
        let templates = self.fleet_templates();
        let robot_counts = optional_axis(&self.axes.robot_counts);
        let mut cells = Vec::new();
        for servers in &server_counts {
            for composition in &compositions {
                for scheduler in &schedulers {
                    for template in &templates {
                        for count in &robot_counts {
                            cells.push(self.cell(
                                servers.as_ref().copied(),
                                composition,
                                scheduler.as_ref().copied(),
                                template,
                                count.as_ref().copied(),
                            ));
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// The fleet templates of the variant dimension: the base groups when no
    /// variant axis is set, one all-offloaded template per mix otherwise.
    fn fleet_templates(&self) -> Vec<FleetTemplate> {
        if self.axes.variants.is_empty() {
            let groups: Vec<TemplateGroup> = self
                .robots
                .iter()
                .map(|spec| TemplateGroup {
                    variant: spec.variant.clone(),
                    weight: spec.count,
                    compute: spec.compute,
                    seeds: spec.seeds.clone(),
                })
                .collect();
            let mix =
                VariantMix::mixed(groups.iter().map(|group| (group.variant.clone(), group.weight)));
            vec![FleetTemplate {
                variant_label: mix.to_string(),
                declared_composition: declared_composition_label(&groups),
                groups,
            }]
        } else {
            self.axes
                .variants
                .iter()
                .map(|mix| {
                    let groups: Vec<TemplateGroup> = mix
                        .groups
                        .iter()
                        .map(|share| TemplateGroup {
                            variant: share.variant.clone(),
                            weight: share.weight,
                            compute: RobotCompute::Offloaded,
                            seeds: None,
                        })
                        .collect();
                    FleetTemplate {
                        variant_label: mix.to_string(),
                        declared_composition: declared_composition_label(&groups),
                        groups,
                    }
                })
                .collect()
        }
    }

    /// Builds one concrete cell.
    fn cell(
        &self,
        server_count: Option<usize>,
        composition: &CompositionSpec,
        scheduler: Option<SchedulerKind>,
        template: &FleetTemplate,
        robot_count: Option<usize>,
    ) -> ConcreteScenario {
        let weights: Vec<usize> = template.groups.iter().map(|group| group.weight).collect();
        let counts = match robot_count {
            Some(total) => allocate_pro_rata(&weights, total),
            None => weights,
        };
        let total: usize = counts.iter().sum();
        let first_variant = template
            .groups
            .first()
            .map(|g| g.variant.clone())
            .expect("validated: a fleet has groups");
        let mut config = FleetConfig::paper_defaults(first_variant, total, self.seed);
        let mut index = 0;
        for (group, &count) in template.groups.iter().zip(&counts) {
            for slot in 0..count {
                config.robots[index].variant = group.variant.clone();
                config.robots[index].compute = group.compute;
                if let Some(seeds) = &group.seeds {
                    config.robots[index].seed = seeds[slot];
                }
                index += 1;
            }
        }
        config.servers = match server_count {
            Some(count) => vec![self.servers[0]; count],
            None => self.servers.clone(),
        };
        if let Some(kind) = scheduler {
            config.set_scheduler(kind);
        }
        config.routing = self.routing;
        config.frames_per_robot = self.frames_per_robot;
        config.warmup_ms = self.warmup_ms.fixed_ms().unwrap_or(0.0);
        config.auto_warmup = self.warmup_ms.is_auto();
        config.slo_budget_ms = self.latency_budget_ms;
        config.faults = self.faults.clone();
        config.control_backend = self.control_backend;
        composition.apply(&mut config);
        if let Some(lengths) = &self.adaptive_lengths {
            config.adaptive_lengths = lengths.clone();
        }
        let composition_label = match composition {
            CompositionSpec::MixedOnRobot { .. } => composition.label(),
            CompositionSpec::Homogeneous => template.declared_composition.clone(),
        };
        ConcreteScenario {
            scenario: self.name.clone(),
            variant_label: template.variant_label.clone(),
            scheduler_label: config.scheduler_label(),
            routing_label: self.routing.name().to_owned(),
            composition_label,
            robots: total,
            servers: config.servers.len(),
            latency_budget_ms: self.latency_budget_ms,
            config,
        }
    }
}

/// A 64-bit FNV-1a content fingerprint of expanded cells, rendered as 16
/// lowercase hex characters — the provenance hash stamped into every cell of
/// the committed scenario golden (`crates/bench/tests/scenarios.rs`) so a
/// mismatch reads as "scenario edited" rather than "engine drift".
///
/// The fingerprint hashes the canonical serialization of each cell.
pub fn scenario_fingerprint(cells: &[ConcreteScenario]) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for cell in cells {
        let canonical = serde_json::to_string(cell).expect("concrete scenarios are serialisable");
        for byte in canonical.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        // Separate cells so concatenation ambiguities cannot collide.
        hash ^= 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    format!("{hash:016x}")
}

/// `None` (keep the spec's base value) when the axis is empty, `Some(entry)`
/// per axis entry otherwise.
fn optional_axis<T: Clone>(axis: &[T]) -> Vec<Option<T>> {
    if axis.is_empty() {
        vec![None]
    } else {
        axis.iter().cloned().map(Some).collect()
    }
}

/// Allocates `total` robots over weighted groups: floors of the pro-rata
/// shares, with the remainder distributed one robot at a time to the
/// earliest groups.  Deterministic, and exact (`Σ counts == total`).
fn allocate_pro_rata(weights: &[usize], total: usize) -> Vec<usize> {
    let weight_sum: usize = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| total * w / weight_sum).collect();
    let mut remainder = total - counts.iter().sum::<usize>();
    let groups = counts.len();
    let mut index = 0;
    while remainder > 0 {
        counts[index % groups] += 1;
        remainder -= 1;
        index += 1;
    }
    counts
}

/// The fleet-size-independent composition label of declared groups:
/// `offloaded` when every group offloads, otherwise the gcd-reduced share
/// of the *dominant* on-robot device model (highest aggregate weight, ties
/// to the first declared).  A fleet mixing several distinct on-robot
/// models is labeled by that dominant model with its exact share — the
/// label understates the variety but never misattributes robots.
fn declared_composition_label(groups: &[TemplateGroup]) -> String {
    let total: usize = groups.iter().map(|group| group.weight).sum();
    let mut models: Vec<(InferenceModel, usize)> = Vec::new();
    for group in groups {
        if let RobotCompute::OnRobot(model) = group.compute {
            match models.iter_mut().find(|(existing, _)| *existing == model) {
                Some((_, weight)) => *weight += group.weight,
                None => models.push((model, group.weight)),
            }
        }
    }
    let mut dominant: Option<(InferenceModel, usize)> = None;
    for &(model, weight) in &models {
        if dominant.is_none_or(|(_, best)| weight > best) {
            dominant = Some((model, weight));
        }
    }
    match dominant {
        None => CompositionLabel::Offloaded.to_string(),
        Some((model, weight)) => {
            let divisor = gcd(weight, total).max(1);
            CompositionLabel::Mixed {
                device: model.device,
                representation: model.representation,
                on_robot: weight / divisor,
                fleet: total / divisor,
            }
            .to_string()
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------------------------------------------------------------------
// Composition labels
// ---------------------------------------------------------------------------

/// The canonical device-composition label grammar reported in result rows:
/// `offloaded`, or `mix(<device> <precision> <on-robot>/<fleet>)` with the
/// device's table name, the precision's short token and the gcd-reduced
/// on-robot share (e.g. `mix(Jetson Orin 32GB fp16 1/2)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionLabel {
    /// Every robot offloads inference to the pool.
    Offloaded,
    /// Part of the fleet carries on-robot inference devices.
    Mixed {
        /// Device of the on-robot boards.
        device: InferenceDevice,
        /// Precision of the on-robot boards.
        representation: DataRepresentation,
        /// On-robot share numerator.
        on_robot: usize,
        /// On-robot share denominator (the whole fleet).
        fleet: usize,
    },
}

impl fmt::Display for CompositionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompositionLabel::Offloaded => f.write_str("offloaded"),
            CompositionLabel::Mixed { device, representation, on_robot, fleet } => {
                write!(f, "mix({device} {} {on_robot}/{fleet})", representation.short_name())
            }
        }
    }
}

/// Error produced when parsing an unknown composition label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCompositionLabelError(String);

impl fmt::Display for ParseCompositionLabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown composition label `{}` (expected `offloaded` or \
             `mix(<device> <precision> <on-robot>/<fleet>)`)",
            self.0
        )
    }
}

impl std::error::Error for ParseCompositionLabelError {}

impl FromStr for CompositionLabel {
    type Err = ParseCompositionLabelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if trimmed.eq_ignore_ascii_case("offloaded") {
            return Ok(CompositionLabel::Offloaded);
        }
        let err = || ParseCompositionLabelError(s.to_owned());
        let body =
            trimmed.strip_prefix("mix(").and_then(|rest| rest.strip_suffix(')')).ok_or_else(err)?;
        let (head, share) = body.rsplit_once(' ').ok_or_else(err)?;
        let (on_robot, fleet) = share.split_once('/').ok_or_else(err)?;
        let on_robot: usize = on_robot.parse().map_err(|_| err())?;
        let fleet: usize = fleet.parse().map_err(|_| err())?;
        let (device, representation) = head.rsplit_once(' ').ok_or_else(err)?;
        let device: InferenceDevice = device.parse().map_err(|_| err())?;
        let representation: DataRepresentation = representation.parse().map_err(|_| err())?;
        if fleet == 0 || on_robot > fleet {
            return Err(err());
        }
        Ok(CompositionLabel::Mixed { device, representation, on_robot, fleet })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// A typed, chainable constructor for [`ScenarioSpec`] — the programmatic
/// twin of a scenario file.  [`build`](ScenarioBuilder::build) validates and
/// never panics.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Starts a scenario with the paper's defaults: seed 2024, 240 frames
    /// per robot, no warm-up, round-robin routing, per-robot control, a
    /// 400 ms latency budget, no servers, no groups, no axes.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                seed: 2024,
                frames_per_robot: 240,
                warmup_ms: WarmupSpec::Fixed(0.0),
                routing: RoutingPolicy::RoundRobin,
                control_backend: ControlBackend::PerRobot,
                robots: Vec::new(),
                servers: Vec::new(),
                adaptive_lengths: None,
                latency_budget_ms: 400.0,
                axes: ScenarioAxes::none(),
                faults: None,
            },
        }
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the per-robot frame count.
    pub fn frames_per_robot(mut self, frames: usize) -> Self {
        self.spec.frames_per_robot = frames;
        self
    }

    /// Sets a fixed warm-up window (ms).
    pub fn warmup_ms(mut self, warmup_ms: f64) -> Self {
        self.spec.warmup_ms = WarmupSpec::Fixed(warmup_ms);
        self
    }

    /// Requests adaptive MSER-5 warm-up detection instead of a fixed window.
    pub fn auto_warmup(mut self) -> Self {
        self.spec.warmup_ms = WarmupSpec::Auto;
        self
    }

    /// Sets the deterministic fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.spec.faults = Some(faults);
        self
    }

    /// Sets the routing policy.
    pub fn routing(mut self, routing: RoutingPolicy) -> Self {
        self.spec.routing = routing;
        self
    }

    /// Sets the control back-end topology.
    pub fn control_backend(mut self, backend: ControlBackend) -> Self {
        self.spec.control_backend = backend;
        self
    }

    /// Appends an offloaded robot group.
    pub fn group(mut self, variant: Variant, count: usize) -> Self {
        self.spec.robots.push(RobotGroupSpec::offloaded(variant, count));
        self
    }

    /// Appends an on-robot group (each robot carries `model`).
    pub fn on_robot_group(mut self, variant: Variant, count: usize, model: InferenceModel) -> Self {
        self.spec.robots.push(RobotGroupSpec::on_robot(variant, count, model));
        self
    }

    /// Appends an offloaded group with explicit per-robot seeds.
    pub fn seeded_group(mut self, variant: Variant, seeds: Vec<u64>) -> Self {
        self.spec.robots.push(RobotGroupSpec {
            variant,
            count: seeds.len(),
            compute: RobotCompute::Offloaded,
            seeds: Some(seeds),
        });
        self
    }

    /// Appends one server to the pool.
    pub fn server(mut self, inference: InferenceModel, scheduler: SchedulerKind) -> Self {
        self.spec.servers.push(ServerConfig::new(inference, scheduler));
        self
    }

    /// Appends `count` default servers (V100 at fp32) running `scheduler`.
    pub fn default_servers(mut self, count: usize, scheduler: SchedulerKind) -> Self {
        for _ in 0..count {
            self.spec.servers.push(ServerConfig::new(InferenceModel::default(), scheduler));
        }
        self
    }

    /// Overrides the Corki-ADAP executed-length distribution.
    pub fn adaptive_lengths(mut self, lengths: Vec<usize>) -> Self {
        self.spec.adaptive_lengths = Some(lengths);
        self
    }

    /// Sets the p99 plan-latency budget (ms).
    pub fn latency_budget_ms(mut self, budget_ms: f64) -> Self {
        self.spec.latency_budget_ms = budget_ms;
        self
    }

    /// Sets the fleet-size axis.
    pub fn robot_counts(mut self, counts: Vec<usize>) -> Self {
        self.spec.axes.robot_counts = counts;
        self
    }

    /// Sets the variant-mix axis.
    pub fn variant_axis(mut self, mixes: Vec<VariantMix>) -> Self {
        self.spec.axes.variants = mixes;
        self
    }

    /// Sets the scheduler axis.
    pub fn scheduler_axis(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.spec.axes.schedulers = schedulers;
        self
    }

    /// Sets the pool-size axis.
    pub fn server_count_axis(mut self, counts: Vec<usize>) -> Self {
        self.spec.axes.server_counts = counts;
        self
    }

    /// Sets the device-composition axis.
    pub fn composition_axis(mut self, compositions: Vec<CompositionSpec>) -> Self {
        self.spec.axes.compositions = compositions;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ScenarioError`].
    pub fn build(self) -> Result<ScenarioSpec, ScenarioError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{ChurnSpec, CrashSpec, LinkDegradationSpec, TimeoutSpec};

    fn test_timeout() -> TimeoutSpec {
        TimeoutSpec { timeout_ms: 250.0, max_retries: 2, backoff_ms: 50.0 }
    }

    fn smoke_spec() -> ScenarioSpec {
        ScenarioBuilder::new("smoke")
            .seed(11)
            .frames_per_robot(60)
            .group(Variant::CorkiFixed(5), 4)
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect("smoke spec is valid")
    }

    #[test]
    fn axis_free_spec_expands_to_the_equivalent_legacy_config() {
        let cells = smoke_spec().expand().expect("expands");
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        let mut legacy = FleetConfig::paper_defaults(Variant::CorkiFixed(5), 4, 11);
        legacy.frames_per_robot = 60;
        assert_eq!(cell.config, legacy, "spec expansion must reproduce the legacy construction");
        assert_eq!(cell.variant_label, "Corki-5");
        assert_eq!(cell.scheduler_label, "fifo");
        assert_eq!(cell.routing_label, "round-robin");
        assert_eq!(cell.composition_label, "offloaded");
        assert_eq!((cell.robots, cell.servers), (4, 1));
    }

    #[test]
    fn axes_nest_pool_size_major_like_the_historical_sweep() {
        let spec = ScenarioBuilder::new("axes")
            .frames_per_robot(30)
            .default_servers(1, SchedulerKind::Fifo)
            .variant_axis(vec![
                VariantMix::uniform(Variant::RoboFlamingo),
                VariantMix::uniform(Variant::CorkiFixed(3)),
            ])
            .scheduler_axis(vec![
                SchedulerKind::Fifo,
                SchedulerKind::DynamicBatch { max_batch: 8, timeout_ms: 15.0 },
            ])
            .server_count_axis(vec![1, 2])
            .composition_axis(vec![
                CompositionSpec::Homogeneous,
                CompositionSpec::jetson_every_second(),
            ])
            .robot_counts(vec![1, 8])
            .build()
            .expect("axes spec is valid");
        let cells = spec.expand().expect("expands");
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2);
        // Innermost axis first: fleet size, then variant, scheduler,
        // composition, pool size.
        assert_eq!((cells[0].robots, cells[1].robots), (1, 8));
        assert_eq!(cells[0].variant_label, "RoboFlamingo");
        assert_eq!(cells[2].variant_label, "Corki-3");
        assert_eq!(cells[0].scheduler_label, "fifo");
        assert_eq!(cells[4].scheduler_label, "batch8-15ms");
        assert_eq!(cells[0].composition_label, "offloaded");
        assert_eq!(cells[8].composition_label, "mix(Jetson Orin 32GB fp16 1/2)");
        assert_eq!(cells[0].servers, 1);
        assert_eq!(cells[16].servers, 2);
        // Expansion is deterministic.
        assert_eq!(spec.expand().unwrap(), cells);
    }

    #[test]
    fn mixed_variant_groups_allocate_pro_rata_and_label_reduced() {
        let spec = ScenarioBuilder::new("mixed")
            .frames_per_robot(30)
            .group(Variant::CorkiFixed(3), 2)
            .group(Variant::CorkiFixed(9), 2)
            .default_servers(1, SchedulerKind::Fifo)
            .robot_counts(vec![3, 8])
            .build()
            .expect("mixed spec is valid");
        let cells = spec.expand().expect("expands");
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.variant_label, "Corki-3+Corki-9");
        }
        // N=3: floors give 1+1, the remainder goes to the first group.
        let variants: Vec<String> =
            cells[0].config.robots.iter().map(|r| r.variant.name()).collect();
        assert_eq!(variants, ["Corki-3", "Corki-3", "Corki-9"]);
        // N=8: an exact 4+4 split, seeds derived by global index.
        let variants: Vec<String> =
            cells[1].config.robots.iter().map(|r| r.variant.name()).collect();
        assert_eq!(variants[..4], ["Corki-3", "Corki-3", "Corki-3", "Corki-3"]);
        assert_eq!(variants[4..], ["Corki-9", "Corki-9", "Corki-9", "Corki-9"]);
        let seeds: Vec<u64> = cells[1].config.robots.iter().map(|r| r.seed).collect();
        let expected: Vec<u64> = (0..8).map(|r| crate::fleet::fleet_robot_seed(2024, r)).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn declared_on_robot_groups_carry_a_reduced_mix_label() {
        let jetson = InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Int8);
        let spec = ScenarioBuilder::new("onrobot")
            .frames_per_robot(30)
            .group(Variant::CorkiAdaptive, 6)
            .on_robot_group(Variant::CorkiFixed(5), 2, jetson)
            .default_servers(2, SchedulerKind::Fifo)
            .build()
            .expect("on-robot spec is valid");
        let cells = spec.expand().expect("expands");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].composition_label, "mix(Jetson Orin 32GB int8 1/4)");
        assert_eq!(cells[0].variant_label, "3xCorki-ADAP+Corki-5");
        let on_robot = cells[0]
            .config
            .robots
            .iter()
            .filter(|r| matches!(r.compute, RobotCompute::OnRobot(_)))
            .count();
        assert_eq!(on_robot, 2);
    }

    #[test]
    fn multi_device_on_robot_fleets_are_labeled_by_the_dominant_model() {
        let jetson =
            InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float16);
        let xeon = InferenceModel::new(InferenceDevice::Xeon8260, DataRepresentation::Float32);
        let spec = ScenarioBuilder::new("multi-device")
            .frames_per_robot(30)
            .group(Variant::CorkiFixed(5), 4)
            .on_robot_group(Variant::CorkiFixed(5), 3, jetson)
            .on_robot_group(Variant::CorkiFixed(5), 1, xeon)
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect("multi-device spec is valid");
        let cells = spec.expand().expect("expands");
        // The Jetson share dominates; the label reports its exact share
        // (3 of 8) instead of attributing every on-robot robot to it.
        assert_eq!(cells[0].composition_label, "mix(Jetson Orin 32GB fp16 3/8)");
        // Same variant throughout, so the fleet is uniform despite the
        // three groups.
        assert_eq!(cells[0].variant_label, "Corki-5");
    }

    /// The vendored derive must key strict parsing off the real
    /// `#[serde(deny_unknown_fields)]` attribute, not off documentation
    /// that merely mentions it (doc comments lower to `#[doc = "..."]`).
    #[test]
    fn doc_comments_mentioning_serde_attributes_do_not_enable_them() {
        /// Not strict: parses leniently even though this doc comment spells
        /// out `#[serde(deny_unknown_fields)]` and `#[serde(skip)]`.
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Lenient {
            value: u32,
        }
        let mut object = serde::Map::new();
        object.insert("value".to_owned(), serde::Value::Number(7.0));
        object.insert("extra".to_owned(), serde::Value::Bool(true));
        let parsed: Lenient = serde::Deserialize::from_value(&serde::Value::Object(object))
            .expect("unknown keys stay tolerated without the attribute");
        assert_eq!(parsed, Lenient { value: 7 });
    }

    #[test]
    fn explicit_seeds_are_honoured() {
        let spec = ScenarioBuilder::new("seeded")
            .frames_per_robot(30)
            .seeded_group(Variant::CorkiFixed(5), vec![7, 9, 11])
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect("seeded spec is valid");
        let cells = spec.expand().expect("expands");
        let seeds: Vec<u64> = cells[0].config.robots.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [7, 9, 11]);
    }

    #[test]
    fn spec_json_round_trips_byte_stable() {
        let spec = ScenarioBuilder::new("roundtrip")
            .seed(3)
            .frames_per_robot(60)
            .warmup_ms(250.0)
            .routing(RoutingPolicy::LeastQueueDepth)
            .group(Variant::CorkiFixed(3), 4)
            .on_robot_group(
                Variant::CorkiFixed(9),
                4,
                InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float16),
            )
            .server(InferenceModel::default(), SchedulerKind::ShortestTrajectoryFirst)
            .adaptive_lengths(vec![5, 4, 3])
            .scheduler_axis(vec![SchedulerKind::DynamicBatch { max_batch: 4, timeout_ms: 15.0 }])
            .build()
            .expect("round-trip spec is valid");
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("canonical JSON parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json, "re-serialisation must be byte-stable");
    }

    #[test]
    fn unknown_spec_keys_fail_loudly() {
        let json = smoke_spec().to_json().replace("\"warmup_ms\"", "\"warmupMs\"");
        let err = ScenarioSpec::from_json(&json).expect_err("typo'd key must not parse");
        assert!(err.contains("unknown field") || err.contains("missing field"), "{err}");
        // An extra unknown key is rejected even when every real key is set.
        // The retired engine knobs count as unknown too: an old scenario
        // file that still sets them fails instead of being half-honoured.
        for key in ["warmupms", "shards", "threads"] {
            let json = smoke_spec().to_json().replacen('{', &format!("{{\n  \"{key}\": 1,"), 1);
            let err = ScenarioSpec::from_json(&json).expect_err("extra key must not parse");
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
        }
    }

    #[test]
    fn every_scenario_error_variant_is_reachable() {
        let valid = || {
            ScenarioBuilder::new("invalid")
                .frames_per_robot(30)
                .group(Variant::CorkiFixed(5), 2)
                .default_servers(1, SchedulerKind::Fifo)
        };
        let cases: Vec<(ScenarioError, ScenarioSpec)> = vec![
            (ScenarioError::NoRobots, {
                let mut s = valid().build().unwrap();
                s.robots.clear();
                s
            }),
            (ScenarioError::NoServers, {
                let mut s = valid().build().unwrap();
                s.servers.clear();
                s
            }),
            (ScenarioError::EmptyGroup { group: 0 }, {
                let mut s = valid().build().unwrap();
                s.robots[0].count = 0;
                s
            }),
            (ScenarioError::ZeroFrames, {
                let mut s = valid().build().unwrap();
                s.frames_per_robot = 0;
                s
            }),
            (ScenarioError::InvalidWarmup { value: -1.0 }, {
                let mut s = valid().build().unwrap();
                s.warmup_ms = WarmupSpec::Fixed(-1.0);
                s
            }),
            (
                ScenarioError::WarmupExceedsHorizon {
                    warmup_ms: 5000.0,
                    horizon_ms: 30.0 * DEFAULT_EXECUTION_STEP_MS,
                },
                {
                    let mut s = valid().build().unwrap();
                    s.warmup_ms = WarmupSpec::Fixed(5000.0);
                    s
                },
            ),
            (ScenarioError::InvalidBudget { value: 0.0 }, {
                let mut s = valid().build().unwrap();
                s.latency_budget_ms = 0.0;
                s
            }),
            (ScenarioError::ZeroAxisEntry { axis: "robot_counts" }, {
                let mut s = valid().build().unwrap();
                s.axes.robot_counts = vec![1, 0];
                s
            }),
            (ScenarioError::ZeroAxisEntry { axis: "server_counts" }, {
                let mut s = valid().build().unwrap();
                s.axes.server_counts = vec![0];
                s
            }),
            (ScenarioError::InvalidVariantMix { index: 0 }, {
                let mut s = valid().build().unwrap();
                s.axes.variants = vec![VariantMix { groups: Vec::new() }];
                s
            }),
            (ScenarioError::SeedCountMismatch { group: 0, seeds: 1, robots: 2 }, {
                let mut s = valid().build().unwrap();
                s.robots[0].seeds = Some(vec![1]);
                s
            }),
            (ScenarioError::SeedsWithScaledCounts { group: 0 }, {
                let mut s = valid().build().unwrap();
                s.robots[0].seeds = Some(vec![1, 2]);
                s.axes.robot_counts = vec![4];
                s
            }),
            (ScenarioError::GroupsShadowedByVariantAxis { group: 0 }, {
                let mut s = valid().build().unwrap();
                s.robots[0].compute = RobotCompute::OnRobot(InferenceModel::default());
                s.axes.variants = vec![VariantMix::uniform(Variant::CorkiFixed(3))];
                s
            }),
            (ScenarioError::EmptyAdaptiveLengths, {
                let mut s = valid().build().unwrap();
                s.adaptive_lengths = Some(Vec::new());
                s
            }),
            (ScenarioError::FaultsWithAxes, {
                let mut s = valid().robot_counts(vec![4]).build().unwrap();
                s.faults = Some(FaultPlan::none());
                s
            }),
            (ScenarioError::CrashServerOutOfRange { crash: 0, server: 3, servers: 1 }, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    crashes: vec![CrashSpec { server: 3, at_ms: 100.0, down_ms: 100.0 }],
                    timeout: Some(test_timeout()),
                    ..FaultPlan::none()
                });
                s
            }),
            (ScenarioError::InvalidCrashWindow { crash: 0 }, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    crashes: vec![CrashSpec { server: 0, at_ms: 100.0, down_ms: 0.0 }],
                    timeout: Some(test_timeout()),
                    ..FaultPlan::none()
                });
                s
            }),
            (ScenarioError::InvalidLinkDegradation { window: 0 }, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    link_degradations: vec![LinkDegradationSpec {
                        from_ms: 200.0,
                        until_ms: 100.0,
                        latency_factor: 2.0,
                        loss: 0.0,
                    }],
                    ..FaultPlan::none()
                });
                s
            }),
            (ScenarioError::InvalidTimeoutPolicy, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    timeout: Some(TimeoutSpec { timeout_ms: 0.0, max_retries: 1, backoff_ms: 0.0 }),
                    ..FaultPlan::none()
                });
                s
            }),
            (ScenarioError::InvalidChurnEvent { event: 1 }, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    churn: vec![
                        ChurnSpec { robot: 0, join_at_ms: 0.0, leave_at_ms: None },
                        ChurnSpec { robot: 0, join_at_ms: 100.0, leave_at_ms: None },
                    ],
                    ..FaultPlan::none()
                });
                s
            }),
            (ScenarioError::FaultNeedsTimeout, {
                let mut s = valid().build().unwrap();
                s.faults = Some(FaultPlan {
                    crashes: vec![CrashSpec { server: 0, at_ms: 100.0, down_ms: 100.0 }],
                    ..FaultPlan::none()
                });
                s
            }),
        ];
        for (expected, spec) in cases {
            assert_eq!(spec.validate(), Err(expected.clone()), "{expected:?}");
            assert_eq!(spec.expand(), Err(expected.clone()), "expand must validate: {expected:?}");
            assert!(!expected.to_string().is_empty());
        }
    }

    /// Satellite: `expand()` used to accept a warm-up window longer than the
    /// scenario itself, silently producing empty steady-state sample sets.
    #[test]
    fn warmup_longer_than_the_horizon_is_rejected() {
        // 60 frames at the paper's 30 Hz control rate span 2000 ms.
        let err = ScenarioBuilder::new("overlong-warmup")
            .frames_per_robot(60)
            .warmup_ms(2500.0)
            .group(Variant::CorkiFixed(5), 2)
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect_err("a warm-up longer than the run must not validate");
        assert_eq!(
            err,
            ScenarioError::WarmupExceedsHorizon {
                warmup_ms: 2500.0,
                horizon_ms: 60.0 * DEFAULT_EXECUTION_STEP_MS,
            }
        );
        // The full horizon itself is still allowed (a degenerate but
        // explicit request), as is anything below it.
        let ok = ScenarioBuilder::new("exact-warmup")
            .frames_per_robot(60)
            .warmup_ms(60.0 * DEFAULT_EXECUTION_STEP_MS)
            .group(Variant::CorkiFixed(5), 2)
            .default_servers(1, SchedulerKind::Fifo)
            .build();
        assert!(ok.is_ok());
        // Adaptive detection has no fixed window to range-check.
        let auto = ScenarioBuilder::new("auto-warmup")
            .frames_per_robot(60)
            .auto_warmup()
            .group(Variant::CorkiFixed(5), 2)
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect("auto warm-up validates");
        assert!(auto.warmup_ms.is_auto());
    }

    #[test]
    fn auto_warmup_spells_itself_as_the_string_auto_in_json() {
        let spec = ScenarioBuilder::new("auto")
            .frames_per_robot(60)
            .auto_warmup()
            .group(Variant::CorkiFixed(5), 2)
            .default_servers(1, SchedulerKind::Fifo)
            .build()
            .expect("auto warm-up spec is valid");
        let json = spec.to_json();
        assert!(json.contains("\"warmup_ms\": \"auto\""), "{json}");
        let parsed = ScenarioSpec::from_json(&json).expect("auto spelling parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json, "re-serialisation must be byte-stable");
        // The lowered cell asks the engine for adaptive detection.
        let cells = spec.expand().expect("expands");
        assert!(cells[0].config.auto_warmup);
        assert_eq!(cells[0].config.warmup_ms, 0.0);
        // Anything other than a number or "auto" is rejected loudly.
        let broken = json.replace("\"auto\"", "\"adaptive\"");
        let err = ScenarioSpec::from_json(&broken).expect_err("unknown spelling must not parse");
        assert!(err.contains("warmup_ms"), "{err}");
    }

    #[test]
    fn fault_plans_round_trip_and_lower_into_the_engine_config() {
        let plan = FaultPlan {
            crashes: vec![CrashSpec { server: 0, at_ms: 600.0, down_ms: 900.0 }],
            link_degradations: vec![LinkDegradationSpec {
                from_ms: 500.0,
                until_ms: 1500.0,
                latency_factor: 3.0,
                loss: 0.25,
            }],
            timeout: Some(test_timeout()),
            churn: vec![ChurnSpec { robot: 1, join_at_ms: 500.0, leave_at_ms: Some(1500.0) }],
            fallback: Some(InferenceModel::new(
                InferenceDevice::JetsonOrin32Gb,
                DataRepresentation::Float16,
            )),
        };
        let spec = ScenarioBuilder::new("faulty")
            .frames_per_robot(60)
            .routing(RoutingPolicy::LeastQueueDepth)
            .group(Variant::CorkiFixed(5), 4)
            .default_servers(2, SchedulerKind::Fifo)
            .faults(plan.clone())
            .build()
            .expect("fault spec is valid");
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("fault spec parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json, "re-serialisation must be byte-stable");
        let cells = spec.expand().expect("expands");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].config.faults.as_ref(), Some(&plan));
        assert_eq!(cells[0].config.slo_budget_ms, 400.0);
        // Unknown keys inside the nested fault plan are rejected loudly.
        let broken = json.replace("\"crashes\"", "\"crashs\"");
        let err = ScenarioSpec::from_json(&broken).expect_err("typo'd fault key must not parse");
        assert!(err.contains("unknown field") || err.contains("missing field"), "{err}");
    }

    #[test]
    fn scenario_fingerprints_track_content() {
        let cells = smoke_spec().expand().expect("smoke spec expands");
        let base = scenario_fingerprint(&cells);
        assert_eq!(base.len(), 16);
        assert!(base.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(scenario_fingerprint(&smoke_spec().expand().unwrap()), base, "deterministic");

        // Any real content edit moves the fingerprint.
        let mut edited = smoke_spec();
        edited.frames_per_robot += 1;
        assert_ne!(scenario_fingerprint(&edited.expand().unwrap()), base);
        let mut edited = smoke_spec();
        edited.seed += 1;
        assert_ne!(scenario_fingerprint(&edited.expand().unwrap()), base);
        assert_ne!(scenario_fingerprint(&[]), base);
    }

    #[test]
    fn variant_mix_labels_round_trip() {
        for mix in [
            VariantMix::uniform(Variant::CorkiFixed(3)),
            VariantMix::mixed([(Variant::CorkiFixed(3), 1), (Variant::CorkiFixed(9), 1)]),
            VariantMix::mixed([(Variant::CorkiFixed(3), 2), (Variant::CorkiFixed(9), 1)]),
            VariantMix::mixed([(Variant::RoboFlamingo, 4), (Variant::CorkiAdaptive, 4)]),
        ] {
            let label = mix.to_string();
            let parsed: VariantMix = label.parse().expect("canonical mix label parses");
            assert_eq!(parsed.to_string(), label, "label `{label}`");
        }
        assert_eq!(VariantMix::uniform(Variant::CorkiFixed(3)).to_string(), "Corki-3");
        assert_eq!(
            VariantMix::mixed([(Variant::CorkiFixed(3), 4), (Variant::CorkiFixed(9), 4)])
                .to_string(),
            "Corki-3+Corki-9",
            "weights reduce by their gcd"
        );
        // Shares of the same variant merge: a fleet split across groups of
        // one variant (e.g. an offloaded and an on-robot Corki-5 group) is
        // still uniform and must group with other Corki-5 rows.
        assert_eq!(
            VariantMix::mixed([(Variant::CorkiFixed(5), 6), (Variant::CorkiFixed(5), 2)])
                .to_string(),
            "Corki-5"
        );
        assert_eq!(
            VariantMix::mixed([
                (Variant::CorkiFixed(5), 2),
                (Variant::CorkiFixed(9), 2),
                (Variant::CorkiFixed(5), 2),
            ])
            .to_string(),
            "2xCorki-5+Corki-9"
        );
        for broken in ["", "Corki-3+", "0xCorki-3", "what+ever"] {
            assert!(broken.parse::<VariantMix>().is_err(), "`{broken}` must not parse");
        }
    }

    #[test]
    fn composition_labels_round_trip() {
        for label in [
            CompositionLabel::Offloaded,
            CompositionLabel::Mixed {
                device: InferenceDevice::JetsonOrin32Gb,
                representation: DataRepresentation::Float16,
                on_robot: 1,
                fleet: 2,
            },
            CompositionLabel::Mixed {
                device: InferenceDevice::Xeon8260,
                representation: DataRepresentation::Int8,
                on_robot: 3,
                fleet: 8,
            },
        ] {
            let text = label.to_string();
            let parsed: CompositionLabel = text.parse().expect("canonical label parses");
            assert_eq!(parsed, label, "label `{text}`");
        }
        assert_eq!(
            CompositionSpec::jetson_every_second().label(),
            "mix(Jetson Orin 32GB fp16 1/2)"
        );
        assert_eq!(CompositionSpec::Homogeneous.label(), "offloaded");
        for broken in ["", "mix()", "mix(V100 fp32)", "mix(V100 fp32 3/2)", "mix(TPU fp32 1/2)"] {
            assert!(broken.parse::<CompositionLabel>().is_err(), "`{broken}` must not parse");
        }
    }

    #[test]
    fn pro_rata_allocation_is_exact_and_deterministic() {
        assert_eq!(allocate_pro_rata(&[1, 1], 8), vec![4, 4]);
        assert_eq!(allocate_pro_rata(&[1, 1], 3), vec![2, 1]);
        assert_eq!(allocate_pro_rata(&[2, 1], 4), vec![3, 1]);
        assert_eq!(allocate_pro_rata(&[1, 1, 1], 1), vec![1, 0, 0]);
        for (weights, total) in [(vec![3, 2, 1], 17), (vec![1, 9], 5), (vec![5], 12)] {
            let counts = allocate_pro_rata(&weights, total);
            assert_eq!(counts.iter().sum::<usize>(), total, "{weights:?} × {total}");
        }
    }
}
