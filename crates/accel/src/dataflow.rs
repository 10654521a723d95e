//! The dataflow-accelerator latency model (Fig. 8).

use crate::ops::{OpCounts, QuantityKind};
use serde::{Deserialize, Serialize};

/// Configuration of the accelerator model: which of the paper's optimisations
/// are enabled plus the calibration constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Enable the data-reuse strategy across the key blocks (§4.2).
    pub data_reuse: bool,
    /// Enable link-level pipelining of the dataflow units (§4.2).
    pub pipelining: bool,
    /// Accelerator clock in MHz (the ZC706 fabric design runs at 100 MHz).
    pub clock_mhz: f64,
    /// Calibrated effective cycles per multiply-accumulate, capturing the
    /// latency of double-precision floating-point operators, loop initiation
    /// intervals and control overhead of the HLS implementation.  The default
    /// is calibrated so that the fully-optimised design reproduces the
    /// paper's measured ≈29× control speed-up over the robot's CPU.
    pub cycles_per_op: f64,
    /// Fraction of the customised-circuit work (Jacobian, mass matrix, bias
    /// force, torque) that overlaps with the dataflow pipeline when
    /// pipelining is enabled: those circuits consume per-link results as they
    /// stream out of the FIFOs.
    pub custom_circuit_overlap: f64,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            data_reuse: true,
            pipelining: true,
            clock_mhz: 100.0,
            cycles_per_op: 34.0,
            custom_circuit_overlap: 0.75,
        }
    }
}

impl AcceleratorConfig {
    /// The unoptimised design point of the §4.2 ablation (no reuse, no
    /// pipelining).
    pub fn unoptimized() -> Self {
        AcceleratorConfig { data_reuse: false, pipelining: false, ..Default::default() }
    }

    /// The reuse-only design point of the ablation.
    pub fn reuse_only() -> Self {
        AcceleratorConfig { data_reuse: true, pipelining: false, ..Default::default() }
    }
}

/// The latency of one TS-CTC control computation, broken down by where the
/// cycles go.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlLatencyBreakdown {
    /// Cycles spent in the pose/velocity/acceleration/force dataflow units.
    pub dataflow_cycles: f64,
    /// Cycles spent in the customised circuits (Jacobian, Jacobianᵀ,
    /// task-space mass matrix, bias force, joint torque) that are *not*
    /// hidden under the dataflow pipeline.
    pub custom_circuit_cycles: f64,
    /// Total cycles of the control computation.
    pub total_cycles: f64,
    /// Wall-clock latency in milliseconds at the configured clock.
    pub latency_ms: f64,
}

/// The Corki accelerator latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorModel {
    config: AcceleratorConfig,
    ops: OpCounts,
}

impl Default for AcceleratorModel {
    fn default() -> Self {
        AcceleratorModel::new(AcceleratorConfig::default(), OpCounts::default())
    }
}

impl AcceleratorModel {
    /// Creates a model for the given configuration and robot size.
    pub fn new(config: AcceleratorConfig, ops: OpCounts) -> Self {
        AcceleratorModel { config, ops }
    }

    /// Latency of one control computation with every matrix recomputed.
    pub fn control_latency(&self) -> ControlLatencyBreakdown {
        self.control_latency_with_skips(0.0)
    }

    /// Latency of one control computation when a fraction `skip_fraction` of
    /// the configuration-dependent matrix updates (Jacobian, Jacobianᵀ and the
    /// task-space mass matrix) is skipped by the ACE units and the previous
    /// cycle's values are reused (§4.3). The bias force is never skipped: it
    /// depends on the joint velocities, which change every cycle.
    ///
    /// # Panics
    ///
    /// Panics if `skip_fraction` is outside `[0, 1]`.
    pub fn control_latency_with_skips(&self, skip_fraction: f64) -> ControlLatencyBreakdown {
        assert!((0.0..=1.0).contains(&skip_fraction), "skip_fraction must be in [0, 1]");
        let keep = 1.0 - skip_fraction;
        let dataflow_quantities = [
            QuantityKind::Pose,
            QuantityKind::Velocity,
            QuantityKind::Acceleration,
            QuantityKind::Force,
        ];
        let skippable =
            [QuantityKind::Jacobian, QuantityKind::JacobianTranspose, QuantityKind::TaskMassMatrix];

        // Operations in the streaming dataflow portion.
        let dataflow_ops: f64 = if self.config.pipelining {
            // Pipeline fill (one link through pose/velocity/acceleration)
            // plus one slot per link at the slowest unit's rate.
            let fill = (self.ops.ops_per_link(QuantityKind::Pose)
                + self.ops.ops_per_link(QuantityKind::Velocity)
                + self.ops.ops_per_link(QuantityKind::Acceleration)) as f64;
            let slowest =
                dataflow_quantities.iter().map(|q| self.ops.ops_per_link(*q)).max().unwrap_or(0)
                    as f64;
            fill + slowest * self.ops.num_links as f64
        } else {
            dataflow_quantities.iter().map(|q| self.ops.ops(*q) as f64).sum()
        };

        // Operations in the customised circuits. Without data reuse every key
        // block recomputes its prerequisites, so the skippable/derived work is
        // the difference between the no-reuse and reuse totals plus the
        // derived quantities themselves.
        let always_recomputed = self.ops.ops(QuantityKind::TaskBiasForce) as f64
            + self.ops.ops(QuantityKind::JointTorque) as f64;
        let skippable_ops = skippable.iter().map(|q| self.ops.ops(*q) as f64).sum::<f64>() * keep;
        let derived_ops: f64 = if self.config.data_reuse {
            skippable_ops + always_recomputed
        } else {
            let redundant = (self.ops.total_without_reuse() - self.ops.total_with_reuse()) as f64;
            skippable_ops + always_recomputed + redundant
        };
        // Pipelining also hides most of the customised-circuit work behind
        // the streaming dataflow.
        let visible_derived = if self.config.pipelining {
            derived_ops * (1.0 - self.config.custom_circuit_overlap)
        } else {
            derived_ops
        };

        let dataflow_cycles = dataflow_ops * self.config.cycles_per_op;
        let custom_circuit_cycles = visible_derived * self.config.cycles_per_op;
        let total_cycles = dataflow_cycles + custom_circuit_cycles;
        ControlLatencyBreakdown {
            dataflow_cycles,
            custom_circuit_cycles,
            total_cycles,
            latency_ms: total_cycles / (self.config.clock_mhz * 1e3),
        }
    }

    /// The control frequency (Hz) achievable with the given skip fraction.
    pub fn control_frequency_hz(&self, skip_fraction: f64) -> f64 {
        1e3 / self.control_latency_with_skips(skip_fraction).latency_ms
    }

    /// Latency speed-up of this design over another design point.
    pub fn speedup_over(&self, other: &AcceleratorModel) -> f64 {
        other.control_latency().latency_ms / self.control_latency().latency_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(config: AcceleratorConfig) -> AcceleratorModel {
        AcceleratorModel::new(config, OpCounts::default())
    }

    #[test]
    fn ablation_matches_the_papers_shape() {
        let unopt = model(AcceleratorConfig::unoptimized());
        let reuse = model(AcceleratorConfig::reuse_only());
        let full = model(AcceleratorConfig::default());

        let l0 = unopt.control_latency().latency_ms;
        let l1 = reuse.control_latency().latency_ms;
        let l2 = full.control_latency().latency_ms;
        assert!(l0 > l1 && l1 > l2, "each optimisation must reduce latency");

        // Paper: reuse −54.0 %, pipelining a further −69.6 %, total −86.0 %.
        let reuse_reduction = 1.0 - l1 / l0;
        let pipeline_reduction = 1.0 - l2 / l1;
        let total_reduction = 1.0 - l2 / l0;
        assert!((0.40..0.65).contains(&reuse_reduction), "reuse: {reuse_reduction:.3}");
        assert!((0.55..0.80).contains(&pipeline_reduction), "pipeline: {pipeline_reduction:.3}");
        assert!((0.78..0.92).contains(&total_reduction), "total: {total_reduction:.3}");
    }

    #[test]
    fn full_design_meets_the_100hz_control_target() {
        let full = model(AcceleratorConfig::default());
        let freq = full.control_frequency_hz(0.0);
        assert!(freq > 100.0, "accelerator must exceed 100 Hz, got {freq:.1}");
    }

    #[test]
    fn skipping_matrix_updates_reduces_latency_monotonically() {
        let full = model(AcceleratorConfig::default());
        let mut previous = f64::MAX;
        for i in 0..=10 {
            let skip = i as f64 / 10.0;
            let latency = full.control_latency_with_skips(skip).latency_ms;
            assert!(latency <= previous + 1e-12, "latency must not increase with skipping");
            previous = latency;
        }
        // Skipping ~51 % of updates (the paper's observation at the 40 %
        // threshold) must give a tangible speed-up.
        let speedup =
            full.control_latency().latency_ms / full.control_latency_with_skips(0.51).latency_ms;
        assert!(speedup > 1.1 && speedup < 2.0, "speed-up {speedup:.2} out of range");
    }

    #[test]
    #[should_panic]
    fn invalid_skip_fraction_panics() {
        let full = model(AcceleratorConfig::default());
        let _ = full.control_latency_with_skips(1.5);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let full = model(AcceleratorConfig::default());
        let b = full.control_latency();
        assert!((b.dataflow_cycles + b.custom_circuit_cycles - b.total_cycles).abs() < 1e-9);
        assert!(b.latency_ms > 0.0);
    }

    #[test]
    fn speedup_over_unoptimized_is_consistent() {
        let unopt = model(AcceleratorConfig::unoptimized());
        let full = model(AcceleratorConfig::default());
        let speedup = full.speedup_over(&unopt);
        assert!(speedup > 4.0, "expected a large speed-up, got {speedup:.2}");
        assert!((full.speedup_over(&full) - 1.0).abs() < 1e-12);
    }
}
