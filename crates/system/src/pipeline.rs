//! The single-robot pipeline view (Fig. 1, §4.4): per-frame latency/energy
//! traces and summary statistics for the Fig. 13/14 and Table 3/4
//! experiments.
//!
//! The pipeline is a fleet of one on the discrete-event engine in
//! [`crate::fleet`] ([`FleetConfig::single_robot`]): one robot, an
//! uncontended link, FIFO service and a private control back-end.  The
//! per-frame traces are identical to the original hand-rolled frame loop
//! (pinned by `tests/des_regression.rs`).

use crate::fleet::{FleetConfig, FleetSimulator};
use serde::{Deserialize, Serialize};

/// How many control steps are executed per inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepsTakenModel {
    /// Always the same number of steps.
    Fixed(usize),
    /// A cyclic empirical distribution (e.g. the executed lengths measured by
    /// the `corki-sim` rollouts for Corki-ADAP).
    Distribution(Vec<usize>),
}

impl StepsTakenModel {
    /// The number of steps executed by inference number `inference_index`.
    pub fn steps_for(&self, inference_index: usize) -> usize {
        match self {
            StepsTakenModel::Fixed(n) => (*n).max(1),
            StepsTakenModel::Distribution(d) => {
                if d.is_empty() {
                    1
                } else {
                    d[inference_index % d.len()].max(1)
                }
            }
        }
    }
}

/// Whether a frame runs an LLM inference or only executes a previously
/// predicted trajectory step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// A frame on which the LLM predicts (crest in Fig. 14).
    Inference,
    /// A frame that only executes the current trajectory (trough in Fig. 14).
    Execution,
}

/// The latency and energy of one camera frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameTrace {
    /// Frame index.
    pub index: usize,
    /// Inference or execution frame.
    pub kind: FrameKind,
    /// Compute latency attributed to the frame (ms).
    pub latency_ms: f64,
    /// Energy consumed by the computing system for the frame (J).
    pub energy_j: f64,
}

/// Latency distribution statistics (for the long-tail analysis of Fig. 14c).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Mean frame latency (ms).
    pub mean_ms: f64,
    /// Maximum frame latency (ms).
    pub max_ms: f64,
    /// 99th-percentile frame latency (ms).
    pub p99_ms: f64,
    /// Coefficient of variation (standard deviation / mean).
    pub relative_variation: f64,
}

/// Aggregated result of a pipeline simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSummary {
    /// Variant name.
    pub variant: String,
    /// Mean per-frame latency (ms).
    pub mean_frame_latency_ms: f64,
    /// Mean per-frame energy (J).
    pub mean_frame_energy_j: f64,
    /// Effective frame rate (Hz) = 1000 / mean latency.
    pub frame_rate_hz: f64,
    /// Number of LLM inferences over the simulated sequence.
    pub inference_count: usize,
    /// Number of simulated frames.
    pub frames: usize,
    /// Latency statistics.
    pub stats: ExecutionStats,
    /// Per-frame traces (Fig. 14a/14b).
    pub frame_traces: Vec<FrameTrace>,
}

impl PipelineSummary {
    /// Speed-up of this variant over a baseline summary.
    pub fn speedup_over(&self, baseline: &PipelineSummary) -> f64 {
        baseline.mean_frame_latency_ms / self.mean_frame_latency_ms
    }

    /// Energy reduction factor relative to a baseline summary.
    pub fn energy_reduction_over(&self, baseline: &PipelineSummary) -> f64 {
        baseline.mean_frame_energy_j / self.mean_frame_energy_j
    }

    /// Reduction in LLM inference count relative to a baseline summary.
    pub fn inference_reduction_over(&self, baseline: &PipelineSummary) -> f64 {
        baseline.inference_count as f64 / self.inference_count.max(1) as f64
    }
}

/// Runs the single-robot pipeline `config` (typically
/// [`FleetConfig::single_robot`]) on the discrete-event engine and
/// aggregates its per-frame traces.
///
/// # Panics
///
/// Panics unless the configuration has exactly one robot.
pub fn simulate_pipeline(config: &FleetConfig) -> PipelineSummary {
    assert_eq!(config.robots.len(), 1, "the pipeline view simulates exactly one robot");
    let outcome = FleetSimulator::new(config.clone()).run();
    let robot = outcome.robots.into_iter().next().expect("the fleet has exactly one robot");
    let traces = robot.frame_traces;
    let latencies: Vec<f64> = traces.iter().map(|t| t.latency_ms).collect();
    let energies: Vec<f64> = traces.iter().map(|t| t.energy_j).collect();
    let mean_latency = mean(&latencies);
    let mean_energy = mean(&energies);
    PipelineSummary {
        variant: robot.variant,
        mean_frame_latency_ms: mean_latency,
        mean_frame_energy_j: mean_energy,
        // Keep the summary finite (and JSON round-trippable) for an empty
        // simulation instead of emitting 1000/0 = inf.
        frame_rate_hz: if mean_latency > 0.0 { 1000.0 / mean_latency } else { 0.0 },
        inference_count: robot.inferences,
        frames: traces.len(),
        stats: stats(&latencies),
        frame_traces: traces,
    }
}

// The one nearest-rank estimator shared by pipeline, fleet, live-report
// and telemetry-histogram statistics lives in `corki-telemetry`; the
// re-exports keep this module the statistics home of the simulation side.
pub use corki_telemetry::{mean, percentile, percentile_in_place, quantile_index};

fn stats(latencies: &[f64]) -> ExecutionStats {
    if latencies.is_empty() {
        return ExecutionStats::default();
    }
    let m = mean(latencies);
    let variance = latencies.iter().map(|x| (x - m).powi(2)).sum::<f64>() / latencies.len() as f64;
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    ExecutionStats {
        mean_ms: m,
        max_ms: *sorted.last().unwrap(),
        p99_ms: sorted[quantile_index(sorted.len(), 0.99)],
        // An all-zero-latency sample would divide 0 by 0; report zero
        // variation instead of NaN.
        relative_variation: if m > 0.0 { variance.sqrt() / m } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DataRepresentation, InferenceDevice, InferenceModel, BASELINE_FRAME_MS};
    use crate::variant::Variant;

    fn summary(variant: Variant) -> PipelineSummary {
        simulate_pipeline(&FleetConfig::single_robot(variant))
    }

    /// Corki-ADAP's speed-up over the baseline on the same `inference`
    /// device.
    fn adaptive_speedup(inference: InferenceModel) -> f64 {
        let mut cfg = FleetConfig::single_robot(Variant::CorkiAdaptive);
        cfg.servers[0].inference = inference;
        let s = simulate_pipeline(&cfg);
        cfg.robots[0].variant = Variant::RoboFlamingo;
        s.speedup_over(&simulate_pipeline(&cfg))
    }

    #[test]
    fn baseline_frame_latency_matches_fig2() {
        let s = summary(Variant::RoboFlamingo);
        assert!((s.mean_frame_latency_ms - BASELINE_FRAME_MS).abs() < 10.0);
        assert_eq!(s.inference_count, s.frames);
        assert!(s.mean_frame_energy_j > 20.0 && s.mean_frame_energy_j < 30.0);
    }

    #[test]
    fn speedup_grows_with_executed_steps() {
        let baseline = summary(Variant::RoboFlamingo);
        let mut previous = 0.0;
        for steps in [1usize, 3, 5, 7, 9] {
            let s = summary(Variant::CorkiFixed(steps));
            let speedup = s.speedup_over(&baseline);
            assert!(
                speedup > previous,
                "speed-up must grow with steps: Corki-{steps} gives {speedup:.2}"
            );
            previous = speedup;
        }
        // Paper: Corki-9 reaches ≈9.1× speed-up, Corki-1 ≈1.2×.
        let corki9 = summary(Variant::CorkiFixed(9)).speedup_over(&baseline);
        assert!((7.5..11.5).contains(&corki9), "Corki-9 speed-up {corki9:.2}");
        let corki1 = summary(Variant::CorkiFixed(1)).speedup_over(&baseline);
        assert!((1.0..1.6).contains(&corki1), "Corki-1 speed-up {corki1:.2}");
    }

    #[test]
    fn adaptive_variant_sits_between_corki3_and_corki7() {
        let baseline = summary(Variant::RoboFlamingo);
        let adap = summary(Variant::CorkiAdaptive).speedup_over(&baseline);
        let c3 = summary(Variant::CorkiFixed(3)).speedup_over(&baseline);
        let c7 = summary(Variant::CorkiFixed(7)).speedup_over(&baseline);
        assert!(adap > c3 && adap < c7, "ADAP speed-up {adap:.2} not between Corki-3 and Corki-7");
        // Paper reports ≈5.9× for Corki-ADAP.
        assert!((4.5..7.5).contains(&adap), "Corki-ADAP speed-up {adap:.2}");
    }

    #[test]
    fn corki_sw_is_slower_than_corki_5_but_faster_than_baseline() {
        let baseline = summary(Variant::RoboFlamingo);
        let c5 = summary(Variant::CorkiFixed(5));
        let sw = summary(Variant::CorkiSoftware);
        assert!(sw.mean_frame_latency_ms > c5.mean_frame_latency_ms);
        assert!(sw.mean_frame_latency_ms < baseline.mean_frame_latency_ms);
        let overhead = sw.mean_frame_latency_ms / c5.mean_frame_latency_ms - 1.0;
        // Paper: Corki-SW is 43.6 % slower than Corki-5 (26.9 Hz → 18.7 Hz).
        assert!((0.2..0.7).contains(&overhead), "Corki-SW overhead over Corki-5 is {overhead:.2}");
        // Frame rates should bracket the paper's 26.9 Hz / 18.7 Hz figures.
        assert!(c5.frame_rate_hz > 20.0 && c5.frame_rate_hz < 32.0);
        assert!(sw.frame_rate_hz > 14.0 && sw.frame_rate_hz < c5.frame_rate_hz);
    }

    #[test]
    fn energy_savings_grow_with_steps_and_corki1_costs_slightly_more() {
        let baseline = summary(Variant::RoboFlamingo);
        let corki1 = summary(Variant::CorkiFixed(1));
        assert!(
            corki1.mean_frame_energy_j > baseline.mean_frame_energy_j * 0.98,
            "Corki-1 should not save energy: {} vs {}",
            corki1.mean_frame_energy_j,
            baseline.mean_frame_energy_j
        );
        let corki9 = summary(Variant::CorkiFixed(9));
        let reduction = corki9.energy_reduction_over(&baseline);
        // Paper: 9.2× energy reduction for Corki-9.
        assert!((7.0..11.0).contains(&reduction), "Corki-9 energy reduction {reduction:.2}");
    }

    #[test]
    fn inference_frequency_reduction_matches_steps_taken() {
        let baseline = summary(Variant::RoboFlamingo);
        let corki5 = summary(Variant::CorkiFixed(5));
        let reduction = corki5.inference_reduction_over(&baseline);
        assert!((4.5..5.5).contains(&reduction), "inference reduction {reduction:.2}");
    }

    #[test]
    fn corki_exhibits_a_longer_latency_tail_than_the_baseline() {
        // Fig. 14c: the baseline's relative latency variation is much lower.
        let baseline = summary(Variant::RoboFlamingo);
        let corki5 = summary(Variant::CorkiFixed(5));
        assert!(corki5.stats.relative_variation > 1.5 * baseline.stats.relative_variation);
        assert!(corki5.stats.max_ms > 3.0 * corki5.stats.mean_ms);
    }

    #[test]
    fn frame_traces_alternate_crests_and_troughs() {
        let corki5 = summary(Variant::CorkiFixed(5));
        let crests: Vec<&FrameTrace> =
            corki5.frame_traces.iter().filter(|t| t.kind == FrameKind::Inference).collect();
        let troughs: Vec<&FrameTrace> =
            corki5.frame_traces.iter().filter(|t| t.kind == FrameKind::Execution).collect();
        assert_eq!(crests.len() * 4, troughs.len());
        let crest_mean = mean(&crests.iter().map(|t| t.latency_ms).collect::<Vec<_>>());
        let trough_mean = mean(&troughs.iter().map(|t| t.latency_ms).collect::<Vec<_>>());
        assert!(
            crest_mean > 20.0 * trough_mean,
            "crest {crest_mean:.1} vs trough {trough_mean:.3}"
        );
    }

    #[test]
    fn table3_speedups_hold_across_devices() {
        for device in InferenceDevice::ALL {
            let speedup =
                adaptive_speedup(InferenceModel::new(device, DataRepresentation::Float32));
            // Paper Table 3: speed-ups between 5.3× and 6.4× across devices.
            assert!(
                (4.0..8.0).contains(&speedup),
                "{}: speed-up {speedup:.2} out of range",
                device.name()
            );
        }
    }

    #[test]
    fn table4_speedups_hold_across_precisions() {
        for representation in DataRepresentation::ALL {
            let speedup =
                adaptive_speedup(InferenceModel::new(InferenceDevice::V100, representation));
            assert!(
                (4.5..8.0).contains(&speedup),
                "{}: speed-up {speedup:.2} out of range",
                representation.name()
            );
        }
    }

    #[test]
    fn steps_taken_model_statistics() {
        // Fixed lengths execute at least one step; a distribution cycles by
        // inference index, and an empty one executes single steps.
        assert_eq!(StepsTakenModel::Fixed(5).steps_for(3), 5);
        assert_eq!(StepsTakenModel::Fixed(0).steps_for(0), 1);
        let dist = StepsTakenModel::Distribution(vec![3, 0, 7]);
        assert_eq!((0..4).map(|i| dist.steps_for(i)).collect::<Vec<_>>(), [3, 1, 7, 3]);
        assert_eq!(StepsTakenModel::Distribution(vec![]).steps_for(2), 1);
    }

    #[test]
    fn nearest_rank_percentile_is_pinned_for_tiny_samples() {
        // n = 0: finite zero, not NaN — this is what keeps trimmed fleet
        // summaries serialisable.
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
        // n = 1: the single sample, whatever the quantile.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.5], q), 42.5);
        }
        assert_eq!(mean(&[42.5]), 42.5);
        // n = 2: nearest rank rounds (len-1)·q — the lower sample up to
        // q = 0.5 exclusive of the round-half-up boundary, the upper one
        // from there on.
        let two = [10.0, 20.0];
        assert_eq!(percentile(&two, 0.0), 10.0);
        assert_eq!(percentile(&two, 0.49), 10.0);
        assert_eq!(percentile(&two, 0.5), 20.0); // round(0.5) = 1 (half away from zero)
        assert_eq!(percentile(&two, 0.99), 20.0);
        assert_eq!(percentile(&two, 1.0), 20.0);
        assert_eq!(mean(&two), 15.0);
        // Out-of-range and NaN quantiles clamp instead of panicking or
        // indexing out of bounds.
        assert_eq!(percentile(&two, -0.5), 10.0);
        assert_eq!(percentile(&two, 1.5), 20.0);
        assert_eq!(percentile(&two, f64::NAN), 10.0);
        // Unsorted input is handled (the estimator sorts a copy).
        assert_eq!(percentile(&[30.0, 10.0, 20.0], 1.0), 30.0);
    }

    #[test]
    fn stats_of_constant_zero_latencies_stay_finite() {
        let s = stats(&[0.0, 0.0, 0.0]);
        assert_eq!(s.mean_ms, 0.0);
        assert_eq!(s.relative_variation, 0.0);
        assert!(serde_json::to_string(&s).is_ok());
    }

    #[test]
    fn zero_frame_simulations_are_well_formed() {
        let mut cfg = FleetConfig::single_robot(Variant::CorkiFixed(5));
        cfg.frames_per_robot = 0;
        let s = simulate_pipeline(&cfg);
        assert_eq!(s.frames, 0);
        assert_eq!(s.inference_count, 0);
        assert_eq!(s.mean_frame_latency_ms, 0.0);
        // Every field stays finite, so the summary survives a JSON round
        // trip (inf would serialise as null and fail to parse back).
        assert_eq!(s.frame_rate_hz, 0.0);
        let json = serde_json::to_string(&s).unwrap();
        let parsed: PipelineSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, s);
    }
}
