//! Mapping from the paper's variant names to concrete policy + environment
//! configurations.

use corki_policy::{ManipulationPolicy, NoiseModel, OracleFramePolicy, OracleTrajectoryPolicy};
use corki_sim::{Environment, EnvironmentConfig, StepsPolicy};
use corki_system::Variant;
use corki_trajectory::waypoints::AdaptiveLengthConfig;
use corki_trajectory::MAX_PREDICTION_STEPS;

/// Everything needed to evaluate one paper variant: which policy to run and
/// how the environment executes its plans.
#[derive(Debug, Clone)]
pub struct VariantSetup {
    /// The variant being configured.
    pub variant: Variant,
    /// The prediction-error model used by the oracle policies.
    pub noise: NoiseModel,
    /// Maximum number of control steps per task episode.
    pub max_steps: usize,
}

impl VariantSetup {
    /// Default setup for a variant (paper-calibrated noise model).
    pub fn new(variant: Variant) -> Self {
        VariantSetup { variant, noise: NoiseModel::default(), max_steps: 100 }
    }

    /// Builds the oracle policy implementing this variant.
    pub fn build_policy(&self, seed: u64) -> Box<dyn ManipulationPolicy> {
        match self.variant {
            Variant::RoboFlamingo => Box::new(OracleFramePolicy::new(self.noise, seed)),
            Variant::CorkiFixed(_) | Variant::CorkiAdaptive | Variant::CorkiSoftware => {
                Box::new(OracleTrajectoryPolicy::new(MAX_PREDICTION_STEPS, self.noise, seed))
            }
        }
    }

    /// Builds the rollout environment implementing this variant's execution
    /// model (steps taken per prediction, control backend tracking quality).
    pub fn build_environment(&self, seed: u64) -> Environment {
        let steps_policy = match self.variant {
            Variant::RoboFlamingo => StepsPolicy::All,
            Variant::CorkiFixed(n) => StepsPolicy::Fixed(n),
            Variant::CorkiAdaptive => StepsPolicy::Adaptive(AdaptiveLengthConfig::default()),
            // Corki-SW executes like Corki-5; only the control substrate
            // changes, which the paper notes does not affect accuracy.
            Variant::CorkiSoftware => StepsPolicy::Fixed(5),
        };
        let tracking_error = match self.variant {
            // The baseline's control runs on the robot CPU below the target
            // rate, so it tracks references less tightly.
            Variant::RoboFlamingo => EnvironmentConfig::CPU_TRACKING_ERROR,
            // Corki-SW matches Corki-5 accuracy by construction (§6.2).
            _ => EnvironmentConfig::ACCELERATOR_TRACKING_ERROR,
        };
        Environment::new(EnvironmentConfig {
            max_steps: self.max_steps,
            steps_policy,
            close_loop_feedback: self.variant != Variant::RoboFlamingo,
            tracking_error,
            seed,
            ..Default::default()
        })
    }

    /// The variants evaluated in Tables 1/2 and Fig. 13, in the paper's order.
    pub fn paper_lineup() -> Vec<VariantSetup> {
        Variant::paper_lineup().into_iter().map(VariantSetup::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corki_policy::PolicyKind;

    #[test]
    fn lineup_matches_the_paper() {
        let lineup = VariantSetup::paper_lineup();
        assert_eq!(lineup.len(), 8);
        assert_eq!(lineup[0].variant, Variant::RoboFlamingo);
        assert_eq!(lineup[7].variant, Variant::CorkiSoftware);
    }

    #[test]
    fn baseline_builds_a_frame_policy_and_corki_a_trajectory_policy() {
        let base = VariantSetup::new(Variant::RoboFlamingo).build_policy(0);
        assert_eq!(base.kind(), PolicyKind::FramePrediction);
        let corki = VariantSetup::new(Variant::CorkiFixed(5)).build_policy(0);
        assert_eq!(corki.kind(), PolicyKind::TrajectoryPrediction);
    }

    #[test]
    fn environments_reflect_the_execution_model() {
        let base_env = VariantSetup::new(Variant::RoboFlamingo).build_environment(0);
        assert_eq!(base_env.config().tracking_error, EnvironmentConfig::CPU_TRACKING_ERROR);
        let corki_env = VariantSetup::new(Variant::CorkiFixed(5)).build_environment(0);
        assert_eq!(
            corki_env.config().tracking_error,
            EnvironmentConfig::ACCELERATOR_TRACKING_ERROR
        );
        assert!(matches!(corki_env.config().steps_policy, StepsPolicy::Fixed(5)));
        let adap_env = VariantSetup::new(Variant::CorkiAdaptive).build_environment(0);
        assert!(matches!(adap_env.config().steps_policy, StepsPolicy::Adaptive(_)));
    }
}
