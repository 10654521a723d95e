//! Gradient-descent optimisers operating on a model's parameter tensors.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The Adam optimiser (Kingma & Ba), the standard choice for training the
/// LSTM policy head.
///
/// The moment buffers are keyed by parameter position, so the same optimiser
/// instance must always be called with the tensors of the same model in the
/// same order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay of the first moment (default 0.9).
    pub beta1: f64,
    /// Exponential decay of the second moment (default 0.999).
    pub beta2: f64,
    /// Numerical-stability constant (default 1e-8).
    pub epsilon: f64,
    /// Global gradient-norm clip (disabled when `None`).
    pub clip_norm: Option<f64>,
    step_count: u64,
    first_moments: Vec<Vec<f64>>,
    second_moments: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an Adam optimiser with standard betas.
    pub fn new(learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip_norm: Some(5.0),
            step_count: 0,
            first_moments: Vec::new(),
            second_moments: Vec::new(),
        }
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// Applies one Adam update to the given parameter tensors.
    ///
    /// # Panics
    ///
    /// Panics if the number or sizes of the tensors change between calls.
    pub fn step(&mut self, params: &mut [&mut Tensor]) {
        if self.first_moments.is_empty() {
            self.first_moments = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.second_moments = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(
            self.first_moments.len(),
            params.len(),
            "Adam::step called with a different number of tensors"
        );
        clip_global_norm(params, self.clip_norm);
        self.step_count += 1;
        let t = self.step_count as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (idx, p) in params.iter_mut().enumerate() {
            assert_eq!(
                self.first_moments[idx].len(),
                p.len(),
                "Adam::step called with a tensor of different size"
            );
            let m = &mut self.first_moments[idx];
            let v = &mut self.second_moments[idx];
            let grads: Vec<f64> = p.grad().to_vec();
            let data = p.data_mut();
            for i in 0..data.len() {
                let g = grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                data[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }
}

/// Scales all gradients so that their combined L2 norm does not exceed
/// `clip_norm` (no-op when `clip_norm` is `None`).
fn clip_global_norm(params: &mut [&mut Tensor], clip_norm: Option<f64>) {
    let Some(max_norm) = clip_norm else { return };
    let total: f64 = params.iter().map(|p| p.grad_norm_squared()).sum::<f64>().sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            p.scale_grad(scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(t: &mut Tensor) {
        // loss = sum(x^2) → grad = 2x
        t.zero_grad();
        let values: Vec<f64> = t.data().to_vec();
        for (i, v) in values.iter().enumerate() {
            t.accumulate_grad(i / t.cols(), i % t.cols(), 2.0 * v);
        }
    }

    #[test]
    fn adam_minimises_quadratic_faster_than_tiny_sgd() {
        let mut t_adam = Tensor::from_vec(1, 2, vec![3.0, -4.0]);
        let mut adam = Adam::new(0.2);
        for _ in 0..200 {
            quadratic_grad(&mut t_adam);
            adam.step(&mut [&mut t_adam]);
        }
        assert!(t_adam.data().iter().all(|v| v.abs() < 1e-3), "{:?}", t_adam.data());
        assert_eq!(adam.steps_taken(), 200);
    }

    #[test]
    fn gradient_clipping_bounds_update_size() {
        let mut t = Tensor::from_vec(1, 1, vec![0.0]);
        t.accumulate_grad(0, 0, 1000.0);
        clip_global_norm(&mut [&mut t], Some(1.0));
        assert!(t.grad()[0].abs() <= 1.0 + 1e-9);
    }

    #[test]
    #[should_panic]
    fn adam_rejects_changing_parameter_sets() {
        let mut a = Tensor::zeros(2, 2);
        let mut b = Tensor::zeros(3, 3);
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut a]);
        adam.step(&mut [&mut a, &mut b]);
    }
}
