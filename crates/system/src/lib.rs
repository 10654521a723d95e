//! End-to-end pipeline simulation of the embodied-AI system (paper §2.2,
//! §4.4 and §6.3): LLM inference on a server, communication over Wi-Fi, and
//! robot control either on the on-board CPU or on the Corki accelerator.
//!
//! Two execution pipelines are modelled:
//!
//! * the **baseline discrete pipeline** (Fig. 1a): every camera frame goes
//!   through inference → communication → control sequentially, and all three
//!   stages repeat every frame;
//! * the **Corki continuous pipeline** (Fig. 1b): one inference predicts a
//!   trajectory of up to nine control steps, control runs on the accelerator,
//!   and the transmission of newly captured frames is overlapped with robot
//!   execution, so only the final frame's upload sits on the critical path.
//!
//! The device latency/energy constants are calibrated to the paper's
//! measurements (Fig. 2: 249.4 ms per baseline frame, 72.7 % inference /
//! 9.9 % control / 17.4 % communication; Tables 3 and 4 for other GPUs and
//! data representations).
//!
//! Since the fleet refactor both pipelines run on a **discrete-event
//! simulation core** ([`des`]): N robot sessions, each with its own control
//! accelerator, contend for a shared communication link and a pool of
//! inference servers, each behind a pluggable [`BatchScheduler`]
//! ([`fleet`]).  The single-robot pipeline ([`FleetConfig::single_robot`],
//! run by [`simulate_pipeline`]) is the N=1 case of the one configuration
//! and reproduces the original frame-loop traces exactly; fleets of
//! N>1 robots expose the serving-scale trade-offs (batching, link
//! contention, queueing delay, tail latency) that the `corki` crate's fleet experiments
//! sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
mod devices;
pub mod fleet;
mod pipeline;
mod routing;
pub mod scenario;
mod variant;

pub use devices::{
    CommunicationModel, DataRepresentation, InferenceDevice, InferenceModel,
    ParseDataRepresentationError, ParseInferenceDeviceError, BASELINE_FRAME_MS,
};
pub use fleet::{
    BatchScheduler, ChurnSpec, CrashSpec, FaultPlan, FleetConfig, FleetOutcome, FleetSimulator,
    FleetSummary, LinkDegradationSpec, PendingRequest, RobotCompute, RobotConfig, RobotOutcome,
    SchedulerKind, ServerConfig, TimeoutSpec, DEFAULT_EXECUTION_STEP_MS,
};
pub use pipeline::{
    mean, percentile, simulate_pipeline, ExecutionStats, FrameKind, FrameTrace, PipelineSummary,
    StepsTakenModel,
};
pub use routing::{ParseRoutingPolicyError, RoutingPolicy};
pub use scenario::{
    scenario_fingerprint, CompositionLabel, CompositionSpec, ConcreteScenario, ScenarioAxes,
    ScenarioBuilder, ScenarioError, ScenarioSpec, WarmupSpec,
};
pub use variant::{ParseVariantError, Variant};
