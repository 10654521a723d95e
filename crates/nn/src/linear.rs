//! Fully-connected (affine) layers.

use crate::activation::Activation;
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = W x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

/// The forward-pass cache of a [`Linear`] layer (the input), needed by the
/// backward pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinearCache {
    input: Vec<f64>,
}

impl LinearCache {
    /// Overwrites the cached input, reusing the existing buffer (the pooled
    /// alternative to the `to_vec()` of [`Linear::forward_cached`]).
    pub(crate) fn store_input(&mut self, x: &[f64]) {
        self.input.clear();
        self.input.extend_from_slice(x);
    }
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(input_dim: usize, output_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Tensor::xavier(output_dim, input_dim, rng),
            bias: Tensor::zeros(output_dim, 1),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Forward pass without caching (inference).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimensionality.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.output_dim()];
        self.forward_into(x, &mut y);
        y
    }

    /// Allocation-free forward pass: writes `W x + b` into `out`.
    ///
    /// Bit-identical to [`Linear::forward`] (both run the same kernel).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong length.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        self.weight.matvec_into(x, out);
        for (yi, b) in out.iter_mut().zip(self.bias.data()) {
            *yi += b;
        }
    }

    /// Fused affine + activation: writes `f(W x + b)` into `out` in a single
    /// pass over the output, avoiding the separate activation sweep of the
    /// allocating path.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong length.
    pub fn forward_activated_into(&self, x: &[f64], activation: Activation, out: &mut [f64]) {
        self.weight.matvec_into(x, out);
        for (yi, b) in out.iter_mut().zip(self.bias.data()) {
            *yi = activation.apply(*yi + b);
        }
    }

    /// Forward pass returning the cache required by [`Linear::backward`].
    pub fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, LinearCache) {
        (self.forward(x), LinearCache { input: x.to_vec() })
    }

    /// Backward pass: accumulates parameter gradients and returns the gradient
    /// with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len()` differs from the output dimensionality.
    pub fn backward(&mut self, cache: &LinearCache, grad_output: &[f64]) -> Vec<f64> {
        assert_eq!(grad_output.len(), self.output_dim(), "Linear::backward: wrong gradient length");
        self.weight.accumulate_outer(grad_output, &cache.input);
        for (i, g) in grad_output.iter().enumerate() {
            self.bias.accumulate_grad(i, 0, *g);
        }
        self.weight.matvec_transposed(grad_output)
    }

    /// Resets the gradients of both parameter tensors.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }

    /// Mutable references to the layer's parameter tensors (for optimisers).
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Immutable access to the weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        for p in layer.parameters_mut() {
            for v in p.data_mut() {
                *v = 0.0;
            }
        }
        layer.weight_mut_for_tests(|w| {
            w.set(0, 0, 1.0);
            w.set(0, 1, 2.0);
            w.set(1, 0, -1.0);
            w.set(1, 1, 0.5);
        });
        let y = layer.forward(&[1.0, 2.0]);
        assert_eq!(y, vec![5.0, 0.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = [0.3, -0.8, 0.5];
        let target = [0.2, -0.4];

        layer.zero_grad();
        let (y, cache) = layer.forward_cached(&x);
        let (_, grad) = losses::mse(&y, &target);
        let grad_x = layer.backward(&cache, &grad);

        // Finite-difference check of dLoss/dW[0][1] and dLoss/dx[2].
        let eps = 1e-6;
        let loss_at = |l: &Linear, xv: &[f64]| {
            let (y, _) = l.forward_cached(xv);
            losses::mse(&y, &target).0
        };
        let mut perturbed = layer.clone();
        let orig = perturbed.weight().get(0, 1);
        perturbed.weight_mut_for_tests(|w| w.set(0, 1, orig + eps));
        let up = loss_at(&perturbed, &x);
        perturbed.weight_mut_for_tests(|w| w.set(0, 1, orig - eps));
        let down = loss_at(&perturbed, &x);
        let fd = (up - down) / (2.0 * eps);
        assert!((layer.weight().grad()[1] - fd).abs() < 1e-6);

        let mut x_up = x;
        x_up[2] += eps;
        let mut x_down = x;
        x_down[2] -= eps;
        let fd_x = (loss_at(&layer, &x_up) - loss_at(&layer, &x_down)) / (2.0 * eps);
        assert!((grad_x[2] - fd_x).abs() < 1e-6);
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(10, 4, &mut rng);
        assert_eq!(layer.num_parameters(), 44);
        assert_eq!(layer.input_dim(), 10);
        assert_eq!(layer.output_dim(), 4);
    }

    impl Linear {
        /// Test-only helper to edit weights in place.
        fn weight_mut_for_tests(&mut self, f: impl FnOnce(&mut Tensor)) {
            f(&mut self.weight);
        }
    }
}
