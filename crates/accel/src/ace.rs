//! Application-specific approximate computing (ACE, paper §4.3).
//!
//! Robotic control runs at a high rate, but between consecutive control
//! cycles each joint barely moves, and the influence of a small joint motion
//! on the control matrices is very uneven across joints (Fig. 9/10: the
//! shoulder/elbow joints dominate, the first and last joints barely matter).
//! The ACE unit therefore computes, from the per-joint angular change since
//! the last full update, the probability that each matrix needs recomputing;
//! below a threshold the previous values are reused.

use crate::dataflow::AcceleratorModel;
use corki_robot::RobotModel;
use serde::{Deserialize, Serialize};

/// Per-joint impact factors: how strongly a unit change of each joint angle
/// perturbs the control matrices (the maximum absolute change of any
/// mass-matrix entry per radian).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointImpactFactors {
    factors: Vec<f64>,
}

impl JointImpactFactors {
    /// Impact factors measured on the Franka Panda model by perturbing each
    /// joint around the home configuration (the Fig. 9 experiment). These are
    /// the defaults used by the ACE unit when no robot model is at hand.
    pub fn panda_defaults() -> Self {
        JointImpactFactors { factors: vec![0.08, 0.95, 0.55, 0.70, 0.18, 0.12, 0.03] }
    }

    /// Measures impact factors from a robot model by perturbing each joint by
    /// `delta` radians around configuration `q` and recording the maximum
    /// absolute change of any joint-space mass-matrix entry, normalised per
    /// radian.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` does not match the robot's DoF or `delta` is not
    /// positive.
    pub fn measure(robot: &RobotModel, q: &[f64], delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        assert_eq!(q.len(), robot.dof(), "configuration size mismatch");
        let entries = robot.dof() * robot.dof();
        let reference = robot.mass_matrix(q);
        let factors = (0..robot.dof())
            .map(|j| {
                let mut perturbed = q.to_vec();
                perturbed[j] += delta;
                let m = robot.mass_matrix(&perturbed);
                let pairs = m[..entries].iter().zip(&reference[..entries]);
                pairs.fold(0.0_f64, |acc, (a, b)| acc.max((a - b).abs())) / delta
            })
            .collect();
        JointImpactFactors { factors }
    }

    /// The per-joint factors.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// The update "probability" (a normalised urgency score in `[0, 1]`) for
    /// the given per-joint angular changes since the last full update.
    ///
    /// # Panics
    ///
    /// Panics if `delta_theta.len()` differs from the number of joints.
    pub fn update_probability(&self, delta_theta: &[f64]) -> f64 {
        assert_eq!(delta_theta.len(), self.factors.len(), "joint count mismatch");
        // A weighted angular displacement of ~0.1 rad of the most influential
        // joint corresponds to certainty that an update is needed (Fig. 9: a
        // 6° ≈ 0.1 rad motion of joint 2 already changes the mass matrix by
        // ~15 %).
        let max_factor = self.factors.iter().fold(f64::MIN_POSITIVE, |acc, f| acc.max(*f));
        let score: f64 = delta_theta.iter().zip(&self.factors).map(|(dt, f)| dt.abs() * f).sum();
        (score / (0.1 * max_factor)).min(1.0)
    }
}

/// Configuration of the ACE decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AceConfig {
    /// Per-joint impact factors.
    pub impact_factors: JointImpactFactors,
    /// Update threshold in `[0, 1]`: probabilities below it reuse the
    /// previous matrices. The paper selects 40 %.
    pub threshold: f64,
}

impl Default for AceConfig {
    fn default() -> Self {
        AceConfig { impact_factors: JointImpactFactors::panda_defaults(), threshold: 0.40 }
    }
}

/// Running statistics of the ACE unit over a control trace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AceStatistics {
    /// Control cycles observed.
    pub cycles: usize,
    /// Cycles in which the matrix update was skipped.
    pub skipped: usize,
}

impl AceStatistics {
    /// Fraction of updates skipped.
    pub fn skip_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.skipped as f64 / self.cycles as f64
        }
    }
}

/// The stateful ACE unit: tracks the joint configuration at the last full
/// update and decides, per control cycle, whether to recompute the matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AceState {
    config: AceConfig,
    last_update: Option<Vec<f64>>,
    stats: AceStatistics,
}

impl AceState {
    /// Creates a fresh ACE unit.
    pub fn new(config: AceConfig) -> Self {
        AceState { config, last_update: None, stats: AceStatistics::default() }
    }

    /// Accumulated statistics.
    pub fn statistics(&self) -> AceStatistics {
        self.stats
    }

    /// Decides whether the matrices must be recomputed for the control cycle
    /// at joint configuration `q`. Returns `true` when a full update is
    /// performed.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` does not match the impact-factor joint count.
    pub fn should_update(&mut self, q: &[f64]) -> bool {
        self.stats.cycles += 1;
        let Some(reference) = &self.last_update else {
            // First cycle: always compute.
            self.last_update = Some(q.to_vec());
            return true;
        };
        let delta: Vec<f64> = q.iter().zip(reference).map(|(a, b)| a - b).collect();
        let probability = self.config.impact_factors.update_probability(&delta);
        if probability >= self.config.threshold {
            self.last_update = Some(q.to_vec());
            true
        } else {
            self.stats.skipped += 1;
            false
        }
    }

    /// Runs the ACE decision over a whole joint trajectory (one configuration
    /// per control cycle) and returns the skip statistics.
    pub fn run_trace(&mut self, trace: &[Vec<f64>]) -> AceStatistics {
        for q in trace {
            let _ = self.should_update(q);
        }
        self.stats
    }
}

/// One row of the Fig. 9 sensitivity study: the maximum absolute and relative
/// change of the joint-space mass matrix when one joint moves by a given
/// angle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MassMatrixSensitivity {
    /// Index of the perturbed joint (0-based).
    pub joint: usize,
    /// Applied angular change in radians.
    pub delta_rad: f64,
    /// Maximum absolute change of any mass-matrix element.
    pub max_absolute_change: f64,
    /// Maximum relative change (in percent) of any element, measured against
    /// elements of non-negligible magnitude.
    pub max_relative_change_percent: f64,
}

/// Reproduces the Fig. 9 experiment: perturb every joint by each of the given
/// angles (radians) from configuration `q` and record the mass-matrix change.
pub fn mass_matrix_sensitivity(
    robot: &RobotModel,
    q: &[f64],
    deltas: &[f64],
) -> Vec<MassMatrixSensitivity> {
    let entries = robot.dof() * robot.dof();
    let reference = robot.mass_matrix(q);
    let mut rows = Vec::new();
    for joint in 0..robot.dof() {
        for &delta_rad in deltas {
            let mut perturbed = q.to_vec();
            perturbed[joint] += delta_rad;
            let m = robot.mass_matrix(&perturbed);
            let mut max_abs: f64 = 0.0;
            let mut max_rel: f64 = 0.0;
            for (m_ij, ref_ij) in m[..entries].iter().zip(&reference[..entries]) {
                let diff = (m_ij - ref_ij).abs();
                max_abs = max_abs.max(diff);
                if ref_ij.abs() > 0.05 {
                    max_rel = max_rel.max(100.0 * diff / ref_ij.abs());
                }
            }
            rows.push(MassMatrixSensitivity {
                joint,
                delta_rad,
                max_absolute_change: max_abs,
                max_relative_change_percent: max_rel,
            });
        }
    }
    rows
}

/// One point of the Fig. 15 sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdSweepPoint {
    /// ACE threshold in `[0, 1]`.
    pub threshold: f64,
    /// Fraction of matrix updates skipped on the evaluated trace.
    pub skip_fraction: f64,
    /// Control-latency speed-up relative to never skipping.
    pub speedup: f64,
    /// Modelled trajectory error in centimetres (the paper measures ~0.50 cm
    /// with no approximation, rising to ~0.59 cm at an 80 % threshold).
    pub trajectory_error_cm: f64,
}

/// Sweeps the ACE threshold over a joint-trajectory trace, reproducing the
/// speed-up / error trade-off of Fig. 15.
pub fn sweep_thresholds(
    model: &AcceleratorModel,
    impact_factors: &JointImpactFactors,
    trace: &[Vec<f64>],
    thresholds: &[f64],
) -> Vec<ThresholdSweepPoint> {
    let base_latency = model.control_latency().latency_ms;
    thresholds
        .iter()
        .map(|&threshold| {
            let mut ace =
                AceState::new(AceConfig { impact_factors: impact_factors.clone(), threshold });
            let stats = ace.run_trace(trace);
            let skip_fraction = stats.skip_fraction();
            let latency = model.control_latency_with_skips(skip_fraction).latency_ms;
            // Error model calibrated to Fig. 15b: skipping matrix updates adds
            // a small tracking error on top of the ~0.5 cm baseline because
            // slightly stale matrices mis-shape the commanded wrench.
            let trajectory_error_cm = 0.50 + 0.11 * skip_fraction;
            ThresholdSweepPoint {
                threshold,
                skip_fraction,
                speedup: base_latency / latency,
                trajectory_error_cm,
            }
        })
        .collect()
}

/// A synthetic but representative joint trace for ACE evaluation: a smooth
/// reach motion sampled at the control rate, in which every joint moves a few
/// tenths of a radian over a couple of seconds.
pub fn representative_joint_trace(steps: usize) -> Vec<Vec<f64>> {
    let home = corki_robot::panda::PANDA_HOME;
    (0..steps)
        .map(|i| {
            let phase = i as f64 / steps.max(1) as f64;
            home.iter()
                .enumerate()
                .map(|(j, q)| {
                    let amplitude = 0.25 / (1.0 + j as f64 * 0.4);
                    q + amplitude * (std::f64::consts::PI * phase).sin()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::AcceleratorConfig;
    use crate::ops::OpCounts;
    use corki_robot::panda::{panda_model, PANDA_HOME};

    #[test]
    fn measured_impact_factors_match_the_papers_ordering() {
        // Fig. 9: joints 1 and 7 barely matter, the middle joints dominate.
        let robot = panda_model();
        let factors = JointImpactFactors::measure(&robot, &PANDA_HOME, 0.1);
        let f = factors.factors();
        assert_eq!(f.len(), 7);
        let strongest = f.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert!(
            (1..=3).contains(&strongest),
            "a middle joint should dominate, got joint {}",
            strongest + 1
        );
        assert!(f[0] < f[strongest] * 0.5, "joint 1 should matter much less");
        assert!(f[6] < f[strongest] * 0.3, "joint 7 should matter the least");
    }

    #[test]
    fn sensitivity_study_reproduces_fig9_shape() {
        let robot = panda_model();
        let deltas = [0.1, 0.3, 0.5]; // ≈ 6°, 17°, 29°
        let rows = mass_matrix_sensitivity(&robot, &PANDA_HOME, &deltas);
        assert_eq!(rows.len(), 21);
        // Changes grow with the applied angle for every joint.
        for joint in 0..7 {
            let per_joint: Vec<&MassMatrixSensitivity> =
                rows.iter().filter(|r| r.joint == joint).collect();
            assert!(per_joint[0].max_absolute_change <= per_joint[2].max_absolute_change + 1e-12);
        }
        // Joint 2 at 29° produces a much larger change than joint 7.
        let j2 = rows.iter().find(|r| r.joint == 1 && (r.delta_rad - 0.5).abs() < 1e-12).unwrap();
        let j7 = rows.iter().find(|r| r.joint == 6 && (r.delta_rad - 0.5).abs() < 1e-12).unwrap();
        assert!(j2.max_absolute_change > 5.0 * j7.max_absolute_change);
    }

    #[test]
    fn update_probability_is_monotone_and_bounded() {
        let factors = JointImpactFactors::panda_defaults();
        let small = factors.update_probability(&[0.001; 7]);
        let large = factors.update_probability(&[0.1; 7]);
        assert!(small < large);
        assert!((0.0..=1.0).contains(&small));
        assert!((0.0..=1.0).contains(&large));
        assert_eq!(factors.update_probability(&[0.0; 7]), 0.0);
    }

    #[test]
    fn ace_skips_a_majority_of_updates_at_the_design_threshold() {
        // Paper §4.3: over 51 % of matrix updates can be avoided at the 40 %
        // threshold on a representative motion.
        let mut ace = AceState::new(AceConfig::default());
        let trace = representative_joint_trace(200);
        let stats = ace.run_trace(&trace);
        assert!(
            stats.skip_fraction() > 0.5,
            "expected >50 % skips, got {:.2}",
            stats.skip_fraction()
        );
        assert!(stats.skip_fraction() < 0.99, "some updates must still happen");
    }

    #[test]
    fn first_cycle_always_updates() {
        let mut ace = AceState::new(AceConfig::default());
        assert!(ace.should_update(&[0.0; 7]));
        assert_eq!(ace.statistics().cycles, 1);
        assert_eq!(ace.statistics().skipped, 0);
    }

    #[test]
    fn threshold_sweep_reproduces_fig15_trends() {
        let model = AcceleratorModel::new(AcceleratorConfig::default(), OpCounts::default());
        let factors = JointImpactFactors::panda_defaults();
        let trace = representative_joint_trace(300);
        let thresholds: Vec<f64> = (0..=8).map(|i| i as f64 * 0.1).collect();
        let sweep = sweep_thresholds(&model, &factors, &trace, &thresholds);
        assert_eq!(sweep.len(), 9);
        // Speed-up and error both grow (weakly) with the threshold.
        for pair in sweep.windows(2) {
            assert!(pair[1].speedup >= pair[0].speedup - 1e-9);
            assert!(pair[1].trajectory_error_cm >= pair[0].trajectory_error_cm - 1e-9);
        }
        // Fig. 15 ranges: speed-up roughly 1.0-1.4×, error roughly 0.50-0.60 cm.
        let last = sweep.last().unwrap();
        assert!(last.speedup > 1.1 && last.speedup < 1.9, "speedup {}", last.speedup);
        assert!(last.trajectory_error_cm < 0.62);
        assert!(sweep[0].trajectory_error_cm >= 0.50);
    }

    #[test]
    #[should_panic]
    fn mismatched_joint_count_panics() {
        let factors = JointImpactFactors::panda_defaults();
        let _ = factors.update_probability(&[0.0; 3]);
    }
}
