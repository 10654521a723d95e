//! The CPU baseline for the control computation (paper §2.2 and §6.3):
//! running TS-CTC on the robot's on-board processor.

use serde::{Deserialize, Serialize};

/// The CPUs the paper measures the control algorithm on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuKind {
    /// The Intel Core i7-6770HQ that ships inside the Franka control box —
    /// the processor used by the baseline and by Corki-SW.
    IntelI7_6770HQ,
}

/// An analytical latency/energy model of the control computation on a CPU,
/// calibrated to the paper's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuControlModel {
    /// Which CPU this models.
    pub kind: CpuKind,
    /// Latency of one full TS-CTC control computation (milliseconds).
    pub control_latency_ms: f64,
    /// Average package power while running the control computation (watts).
    pub power_w: f64,
}

impl CpuControlModel {
    /// The robot's on-board Intel i7-6770HQ.
    ///
    /// Calibration: §2.2 states that with zero LLM inference latency the
    /// control loop would still only reach 22.1 Hz, and that control
    /// operations account for 39.7 % of that loop (the rest being
    /// communication), i.e. ≈18 ms per control computation.
    pub fn i7_6770hq() -> Self {
        CpuControlModel {
            kind: CpuKind::IntelI7_6770HQ,
            control_latency_ms: (1000.0 / 22.1) * 0.397,
            power_w: 35.0,
        }
    }

    /// The communication share of the CPU control loop (per cycle,
    /// milliseconds): sensor/actuator traffic that accompanies every control
    /// computation on the baseline platform (§2.2: 60.3 % of the loop).
    pub fn loop_communication_ms() -> f64 {
        (1000.0 / 22.1) * (1.0 - 0.397)
    }

    /// The frequency of the full control loop (control + per-cycle
    /// communication) on this CPU.
    pub fn control_loop_frequency_hz(&self) -> f64 {
        1000.0 / (self.control_latency_ms + Self::loop_communication_ms())
    }

    /// The control frequency this CPU can sustain (Hz).
    pub fn control_frequency_hz(&self) -> f64 {
        1000.0 / self.control_latency_ms
    }

    /// Whether the CPU meets a given control-rate requirement.
    pub fn meets_rate(&self, required_hz: f64) -> bool {
        self.control_frequency_hz() >= required_hz
    }

    /// Energy of one control computation in joules.
    pub fn control_energy_j(&self) -> f64 {
        self.power_w * self.control_latency_ms / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::AcceleratorModel;

    #[test]
    fn onboard_cpu_control_loop_matches_the_papers_22hz() {
        let cpu = CpuControlModel::i7_6770hq();
        assert!((cpu.control_loop_frequency_hz() - 22.1).abs() < 0.1);
        // The bare control computation cannot reach the preferred 100 Hz.
        assert!(!cpu.meets_rate(100.0));
    }

    #[test]
    fn accelerator_speedup_over_cpu_matches_the_paper() {
        // §6.3: "Corki hardware successfully accelerates the control process
        // by up to 29.0×".
        let cpu = CpuControlModel::i7_6770hq();
        let accel = AcceleratorModel::default();
        let speedup = cpu.control_latency_ms / accel.control_latency().latency_ms;
        assert!(
            (20.0..40.0).contains(&speedup),
            "accelerator speed-up over the CPU is {speedup:.1}×, expected ≈29×"
        );
    }

    #[test]
    fn energy_per_control_cycle_is_positive_and_small() {
        let cpu = CpuControlModel::i7_6770hq();
        let e = cpu.control_energy_j();
        assert!(e > 0.1 && e < 5.0, "energy {e} J out of range");
    }
}
