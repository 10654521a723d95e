//! Device latency and energy models: LLM inference hardware, data
//! representations and the robot↔server communication link.
//!
//! [`InferenceDevice`] and [`DataRepresentation`] carry canonical
//! [`fmt::Display`]/[`FromStr`] implementations (mirroring
//! [`crate::Variant`]): the display names are the paper's table headers,
//! parsing is case-insensitive and separator-tolerant, and both round-trip —
//! so CLI flags and bench labels cannot drift from the enum definitions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The per-frame latency of the baseline RoboFlamingo pipeline measured by
/// the paper (Fig. 2a), in milliseconds.
pub const BASELINE_FRAME_MS: f64 = 249.4;

/// Share of the baseline frame spent in LLM inference (Fig. 2a).
const INFERENCE_SHARE: f64 = 0.727;
/// Share of the baseline frame spent in robot control (Fig. 2a).
const CONTROL_SHARE: f64 = 0.099;
/// Share of the baseline frame spent in data communication (Fig. 2a).
const COMMUNICATION_SHARE: f64 = 0.174;
/// Relative latency overhead of predicting a full trajectory (extra output
/// tokens) compared with a single action.  The paper's Corki-1 showing
/// slightly *higher* energy than the baseline pins this at a few percent.
const TRAJECTORY_HEAD_OVERHEAD: f64 = 0.05;

/// The GPUs/CPUs the paper evaluates LLM inference on (Table 3).
///
/// Serializes as its canonical table name (`"Jetson Orin 32GB"`, …) and
/// deserializes through [`FromStr`], aliases included — scenario files use
/// the same names the result tables print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InferenceDevice {
    /// NVIDIA V100 — the device used for the main results.
    V100,
    /// NVIDIA H100.
    H100,
    /// NVIDIA Jetson Orin 32 GB (embedded).
    JetsonOrin32Gb,
    /// Intel Xeon Platinum 8260 (CPU inference).
    Xeon8260,
}

impl InferenceDevice {
    /// All devices of Table 3, in the paper's column order.
    pub const ALL: [InferenceDevice; 4] = [
        InferenceDevice::V100,
        InferenceDevice::H100,
        InferenceDevice::JetsonOrin32Gb,
        InferenceDevice::Xeon8260,
    ];

    /// Inference latency normalised to the V100 (Table 3, first row).
    pub fn normalized_latency(self) -> f64 {
        match self {
            InferenceDevice::V100 => 1.0,
            InferenceDevice::H100 => 0.4,
            InferenceDevice::JetsonOrin32Gb => 10.0,
            InferenceDevice::Xeon8260 => 8.9,
        }
    }

    /// Average board/package power draw during inference (watts), used for
    /// the energy model.
    pub fn inference_power_w(self) -> f64 {
        match self {
            InferenceDevice::V100 => 130.0,
            InferenceDevice::H100 => 310.0,
            InferenceDevice::JetsonOrin32Gb => 40.0,
            InferenceDevice::Xeon8260 => 165.0,
        }
    }

    /// Human-readable name matching the paper's table headers (same as
    /// [`fmt::Display`]).
    pub fn name(self) -> &'static str {
        match self {
            InferenceDevice::V100 => "V100",
            InferenceDevice::H100 => "H100",
            InferenceDevice::JetsonOrin32Gb => "Jetson Orin 32GB",
            InferenceDevice::Xeon8260 => "Xeon 8260",
        }
    }
}

impl fmt::Display for InferenceDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing an unknown inference device name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInferenceDeviceError(String);

impl fmt::Display for ParseInferenceDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown inference device `{}` (expected V100, H100, Jetson Orin 32GB or Xeon 8260)",
            self.0
        )
    }
}

impl std::error::Error for ParseInferenceDeviceError {}

impl FromStr for InferenceDevice {
    type Err = ParseInferenceDeviceError;

    /// Parses the paper's table names case-insensitively; separators (`-`,
    /// `_`, spaces) are ignored and the short aliases `jetson` and `xeon`
    /// are accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize(s).as_str() {
            "v100" => Ok(InferenceDevice::V100),
            "h100" => Ok(InferenceDevice::H100),
            "jetsonorin32gb" | "jetson" | "orin" => Ok(InferenceDevice::JetsonOrin32Gb),
            "xeon8260" | "xeon" => Ok(InferenceDevice::Xeon8260),
            _ => Err(ParseInferenceDeviceError(s.to_owned())),
        }
    }
}

impl Serialize for InferenceDevice {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_owned())
    }
}

impl Deserialize for InferenceDevice {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name =
            value.as_str().ok_or_else(|| serde::Error::custom("expected inference device name"))?;
        name.parse().map_err(serde::Error::custom)
    }
}

/// Lower-cases and strips the separators tolerated by this crate's name
/// parsers (devices, representations and routing policies).
pub(crate) fn normalize(s: &str) -> String {
    s.trim()
        .chars()
        .filter(|c| !matches!(c, '-' | '_' | ' '))
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// The numeric precision of the deployed model (Table 4).
///
/// Serializes as its canonical table name (`"16-bit Float"`, …) and
/// deserializes through [`FromStr`], so the usual `fp16`/`int8` aliases are
/// accepted in scenario files too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRepresentation {
    /// 32-bit floating point (the paper's default).
    Float32,
    /// 16-bit floating point.
    Float16,
    /// 8-bit integer quantisation.
    Int8,
}

impl DataRepresentation {
    /// All representations of Table 4.
    pub const ALL: [DataRepresentation; 3] =
        [DataRepresentation::Float32, DataRepresentation::Float16, DataRepresentation::Int8];

    /// Inference latency normalised to 32-bit floats (Table 4).
    pub fn latency_scale(self) -> f64 {
        match self {
            DataRepresentation::Float32 => 1.0,
            DataRepresentation::Float16 => 0.8,
            DataRepresentation::Int8 => 0.4,
        }
    }

    /// Name used in the result tables (same as [`fmt::Display`]).
    pub fn name(self) -> &'static str {
        match self {
            DataRepresentation::Float32 => "32-bit Float",
            DataRepresentation::Float16 => "16-bit Float",
            DataRepresentation::Int8 => "8-bit Int",
        }
    }

    /// The canonical short token used inside compact labels (e.g. the fleet
    /// composition label `mix(Jetson Orin 32GB fp16 1/2)`); every token is
    /// accepted back by [`FromStr`].
    pub fn short_name(self) -> &'static str {
        match self {
            DataRepresentation::Float32 => "fp32",
            DataRepresentation::Float16 => "fp16",
            DataRepresentation::Int8 => "int8",
        }
    }
}

impl fmt::Display for DataRepresentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing an unknown data representation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataRepresentationError(String);

impl fmt::Display for ParseDataRepresentationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown data representation `{}` (expected 32-bit Float, 16-bit Float or 8-bit Int)",
            self.0
        )
    }
}

impl std::error::Error for ParseDataRepresentationError {}

impl FromStr for DataRepresentation {
    type Err = ParseDataRepresentationError;

    /// Parses the paper's table names case-insensitively; separators are
    /// ignored and the usual numeric aliases (`fp32`, `float32`, `f32`,
    /// `fp16`, `float16`, `f16`, `int8`, `i8`) are accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize(s).as_str() {
            "32bitfloat" | "fp32" | "float32" | "f32" => Ok(DataRepresentation::Float32),
            "16bitfloat" | "fp16" | "float16" | "f16" => Ok(DataRepresentation::Float16),
            "8bitint" | "int8" | "i8" => Ok(DataRepresentation::Int8),
            _ => Err(ParseDataRepresentationError(s.to_owned())),
        }
    }
}

impl Serialize for DataRepresentation {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_owned())
    }
}

impl Deserialize for DataRepresentation {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected data representation name"))?;
        name.parse().map_err(serde::Error::custom)
    }
}

/// The LLM inference latency/energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct InferenceModel {
    /// Device the model runs on.
    pub device: InferenceDevice,
    /// Numeric precision.
    pub representation: DataRepresentation,
}

impl Default for InferenceModel {
    fn default() -> Self {
        InferenceModel::new(InferenceDevice::V100, DataRepresentation::Float32)
    }
}

impl InferenceModel {
    /// Creates an inference model for a device at a precision.
    pub fn new(device: InferenceDevice, representation: DataRepresentation) -> Self {
        InferenceModel { device, representation }
    }

    /// Latency of one baseline (single-action) inference, milliseconds.
    pub fn action_latency_ms(&self) -> f64 {
        BASELINE_FRAME_MS
            * INFERENCE_SHARE
            * self.device.normalized_latency()
            * self.representation.latency_scale()
    }

    /// Latency of one Corki (trajectory) inference, milliseconds.
    pub fn trajectory_latency_ms(&self) -> f64 {
        self.action_latency_ms() * (1.0 + TRAJECTORY_HEAD_OVERHEAD)
    }

    /// Energy of one baseline inference, joules.
    pub fn action_energy_j(&self) -> f64 {
        self.action_latency_ms() / 1000.0 * self.device.inference_power_w()
    }

    /// Energy of one Corki inference, joules.
    pub fn trajectory_energy_j(&self) -> f64 {
        self.trajectory_latency_ms() / 1000.0 * self.device.inference_power_w()
    }
}

/// The robot↔server communication model (Wi-Fi link sending camera frames up
/// and actions/trajectories down).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommunicationModel {
    /// Mean time to ship one camera frame and receive the reply (ms).
    pub per_frame_ms: f64,
    /// Average radio/network power draw while transmitting (W).
    pub power_w: f64,
}

impl Default for CommunicationModel {
    fn default() -> Self {
        CommunicationModel { per_frame_ms: BASELINE_FRAME_MS * COMMUNICATION_SHARE, power_w: 5.0 }
    }
}

impl CommunicationModel {
    /// Energy of transmitting one frame, joules.
    pub fn energy_per_frame_j(&self) -> f64 {
        self.per_frame_ms / 1000.0 * self.power_w
    }
}

/// The control latency of the baseline pipeline (control matched to the
/// 30 Hz camera rate on the robot's CPU), milliseconds.
pub fn baseline_control_ms() -> f64 {
    BASELINE_FRAME_MS * CONTROL_SHARE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_breakdown_matches_fig2() {
        let inference = InferenceModel::default();
        let comm = CommunicationModel::default();
        let total = inference.action_latency_ms() + baseline_control_ms() + comm.per_frame_ms;
        assert!((total - BASELINE_FRAME_MS).abs() < 1e-9);
        // Inference dominates at 72.7 %.
        assert!((inference.action_latency_ms() / total - 0.727).abs() < 1e-9);
    }

    #[test]
    fn energy_breakdown_is_dominated_by_inference() {
        // Fig. 2b: LLM inference is 95.8 % of the per-frame energy.
        let inference = InferenceModel::default();
        let comm = CommunicationModel::default();
        let control_energy = baseline_control_ms() / 1000.0 * 35.0;
        let total = inference.action_energy_j() + comm.energy_per_frame_j() + control_energy;
        let share = inference.action_energy_j() / total;
        assert!((0.93..0.98).contains(&share), "inference energy share {share:.3}");
        assert!(total > 15.0 && total < 35.0, "total per-frame energy {total:.1} J");
    }

    #[test]
    fn table3_device_ordering() {
        // H100 is the fastest, Jetson Orin the slowest (>0.9 s per frame).
        assert!(InferenceDevice::H100.normalized_latency() < 1.0);
        let orin =
            InferenceModel::new(InferenceDevice::JetsonOrin32Gb, DataRepresentation::Float32);
        assert!(orin.action_latency_ms() > 900.0);
    }

    #[test]
    fn table4_quantisation_scales_latency() {
        let fp32 = InferenceModel::new(InferenceDevice::V100, DataRepresentation::Float32);
        let int8 = InferenceModel::new(InferenceDevice::V100, DataRepresentation::Int8);
        assert!((int8.action_latency_ms() / fp32.action_latency_ms() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn device_names_round_trip_through_parsing() {
        for device in InferenceDevice::ALL {
            let parsed: InferenceDevice = device.name().parse().expect("table name parses");
            assert_eq!(parsed, device);
            assert_eq!(device.to_string(), device.name());
            // Case-insensitive.
            let parsed: InferenceDevice =
                device.name().to_ascii_uppercase().parse().expect("upper-case parses");
            assert_eq!(parsed, device);
        }
        assert_eq!("jetson".parse::<InferenceDevice>().unwrap(), InferenceDevice::JetsonOrin32Gb);
        assert_eq!(
            "jetson-orin-32gb".parse::<InferenceDevice>().unwrap(),
            InferenceDevice::JetsonOrin32Gb
        );
        assert_eq!(" xeon ".parse::<InferenceDevice>().unwrap(), InferenceDevice::Xeon8260);
        let err = "TPUv4".parse::<InferenceDevice>().unwrap_err();
        assert!(err.to_string().contains("TPUv4"));
    }

    #[test]
    fn representation_names_round_trip_through_parsing() {
        for representation in DataRepresentation::ALL {
            let parsed: DataRepresentation =
                representation.name().parse().expect("table name parses");
            assert_eq!(parsed, representation);
            assert_eq!(representation.to_string(), representation.name());
            let parsed: DataRepresentation =
                representation.name().to_ascii_lowercase().parse().expect("lower-case parses");
            assert_eq!(parsed, representation);
        }
        assert_eq!("fp16".parse::<DataRepresentation>().unwrap(), DataRepresentation::Float16);
        assert_eq!("INT8".parse::<DataRepresentation>().unwrap(), DataRepresentation::Int8);
        assert_eq!("f32".parse::<DataRepresentation>().unwrap(), DataRepresentation::Float32);
        assert!("4-bit Int".parse::<DataRepresentation>().is_err());
    }

    #[test]
    fn device_and_representation_serde_use_canonical_names() {
        use serde::{Deserialize, Serialize, Value};
        for device in InferenceDevice::ALL {
            assert_eq!(device.to_value(), Value::String(device.name().to_owned()));
            assert_eq!(InferenceDevice::from_value(&device.to_value()).unwrap(), device);
        }
        for representation in DataRepresentation::ALL {
            assert_eq!(representation.to_value(), Value::String(representation.name().to_owned()));
            assert_eq!(
                DataRepresentation::from_value(&representation.to_value()).unwrap(),
                representation
            );
            // The compact label token parses back to the same representation.
            assert_eq!(
                representation.short_name().parse::<DataRepresentation>().unwrap(),
                representation
            );
        }
        assert!(InferenceDevice::from_value(&Value::String("TPUv4".into())).is_err());
        assert!(DataRepresentation::from_value(&Value::Number(8.0)).is_err());
    }

    #[test]
    fn trajectory_inference_costs_slightly_more() {
        let m = InferenceModel::default();
        assert!(m.trajectory_latency_ms() > m.action_latency_ms());
        assert!(m.trajectory_energy_j() > m.action_energy_j());
        assert!(m.trajectory_latency_ms() < m.action_latency_ms() * 1.2);
    }
}
