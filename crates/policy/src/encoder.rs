//! The surrogate vision-language token encoder and the close-loop feature
//! encoder (paper §3.4, ViT features).

use crate::observation::{Observation, OBSERVATION_DIM};
use corki_nn::{Activation, InferenceScratch, Mlp, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Dimensionality of the vision-language tokens produced by the encoder.
pub const TOKEN_DIM: usize = 32;

/// The surrogate for the frozen VLM: turns a scene observation plus the
/// instruction embedding into a "vision-language token".
///
/// In RoboFlamingo this is an OpenFlamingo VLM; here it is a small two-layer
/// perceptron over the state-based observation.  The encoder also owns the
/// *mask embedding* used by the Corki masked policy head (paper Fig. 4) for
/// time steps whose camera frame is intentionally dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenEncoder {
    backbone: Mlp,
    mask_embedding: Vec<f64>,
}

impl TokenEncoder {
    /// Creates an encoder with random (frozen) weights.
    pub fn new(rng: &mut impl Rng) -> Self {
        // +1 input for the instruction embedding.
        let backbone = Mlp::new(&[OBSERVATION_DIM + 1, 64, TOKEN_DIM], Activation::Tanh, rng);
        let mask_embedding = (0..TOKEN_DIM).map(|_| rng.gen_range(-0.1..0.1)).collect();
        TokenEncoder { backbone, mask_embedding }
    }

    /// Encodes an observation into a vision-language token.
    pub fn encode(&self, observation: &Observation) -> Vec<f64> {
        let mut scratch = InferenceScratch::new();
        let mut out = Vec::new();
        self.encode_into(observation, &mut scratch, &mut out);
        out
    }

    /// Allocation-free encoding: the feature vector is assembled on the stack
    /// and the backbone runs through the scratch workspace into `out`.
    /// Bit-identical to [`TokenEncoder::encode`].
    pub fn encode_into(
        &self,
        observation: &Observation,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        let mut input = [0.0; OBSERVATION_DIM + 1];
        input[..OBSERVATION_DIM].copy_from_slice(&observation.to_features());
        input[OBSERVATION_DIM] = observation.instruction_embedding();
        self.backbone.forward_into(&input, scratch, out);
    }

    /// The mask embedding substituted for tokens whose frame was not captured
    /// (Fig. 4, dotted tokens).
    pub fn mask_token(&self) -> &[f64] {
        &self.mask_embedding
    }

    /// Number of parameters in the (frozen) encoder.
    pub fn num_parameters(&self) -> usize {
        self.backbone.num_parameters() + self.mask_embedding.len()
    }
}

/// The close-loop feature encoder (paper §3.4): images sent back mid-trajectory
/// are encoded with a small network (standing in for the ViT) and concatenated
/// with the LLM tokens for the next trajectory prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloseLoopEncoder {
    projection: Mlp,
    /// Output dimensionality of the close-loop feature.
    pub feature_dim: usize,
}

impl CloseLoopEncoder {
    /// Creates a close-loop feature encoder with the given output size.
    pub fn new(feature_dim: usize, rng: &mut impl Rng) -> Self {
        CloseLoopEncoder {
            projection: Mlp::new(&[OBSERVATION_DIM, 32, feature_dim], Activation::Tanh, rng),
            feature_dim,
        }
    }

    /// Encodes a mid-trajectory observation into `out` without allocating;
    /// when no observation was sent back, callers should use
    /// [`CloseLoopEncoder::empty_feature`].
    pub fn encode_into(
        &self,
        observation: &Observation,
        scratch: &mut InferenceScratch,
        out: &mut Vec<f64>,
    ) {
        self.projection.forward_into(&observation.to_features(), scratch, out);
    }

    /// The all-zeros feature used when no close-loop image was available.
    pub fn empty_feature(&self) -> Vec<f64> {
        vec![0.0; self.feature_dim]
    }

    /// Mutable parameter tensors (the close-loop encoder is trained jointly
    /// with the Corki head).
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        self.projection.parameters_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tokens_have_fixed_dimension_and_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TokenEncoder::new(&mut rng);
        let obs = Observation::default();
        let t1 = enc.encode(&obs);
        let t2 = enc.encode(&obs);
        assert_eq!(t1.len(), TOKEN_DIM);
        assert_eq!(t1, t2);
        assert_eq!(enc.mask_token().len(), TOKEN_DIM);
        assert!(enc.num_parameters() > 1000);
    }

    #[test]
    fn different_observations_give_different_tokens() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TokenEncoder::new(&mut rng);
        let a = Observation::default();
        let mut b = Observation::default();
        b.object_position.x = 0.5;
        let ta = enc.encode(&a);
        let tb = enc.encode(&b);
        let diff: f64 = ta.iter().zip(&tb).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6);
    }
}
