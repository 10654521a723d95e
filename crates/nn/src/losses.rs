//! Loss functions with their gradients.
//!
//! The Corki training objective (paper Equations 3 and 5) combines a
//! mean-squared-error term on the pose/trajectory outputs with a binary
//! cross-entropy term on the gripper logit, weighted by `λ`.

/// Mean-squared-error loss `mean((pred - target)²)` and its gradient with
/// respect to `pred`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(pred: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(pred.len(), target.len(), "mse: length mismatch");
    assert!(!pred.is_empty(), "mse: empty inputs");
    let n = pred.len() as f64;
    let mut loss = 0.0;
    let mut grad = vec![0.0; pred.len()];
    for (i, (p, t)) in pred.iter().zip(target).enumerate() {
        let diff = p - t;
        loss += diff * diff;
        grad[i] = 2.0 * diff / n;
    }
    (loss / n, grad)
}

/// Binary cross-entropy with logits (numerically stable) for scalar
/// predictions, returning the loss and the gradient with respect to the
/// logit.
///
/// `target` must be 0.0 (open) or 1.0 (closed).
pub fn bce_with_logits(logit: f64, target: f64) -> (f64, f64) {
    // loss = max(z, 0) - z*t + ln(1 + exp(-|z|))
    let z = logit;
    let loss = z.max(0.0) - z * target + (1.0 + (-z.abs()).exp()).ln();
    let sigmoid = if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    };
    (loss, sigmoid - target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_exact_prediction() {
        let (loss, grad) = mse(&[1.0, -2.0, 0.5], &[1.0, -2.0, 0.5]);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|g| *g == 0.0));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let pred = [0.3, -0.7, 1.2];
        let target = [0.0, 0.1, 1.0];
        let (_, grad) = mse(&pred, &target);
        let eps = 1e-6;
        for i in 0..3 {
            let mut up = pred;
            up[i] += eps;
            let mut down = pred;
            down[i] -= eps;
            let fd = (mse(&up, &target).0 - mse(&down, &target).0) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic]
    fn mse_length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn bce_is_low_for_confident_correct_predictions() {
        let (loss_correct, _) = bce_with_logits(6.0, 1.0);
        let (loss_wrong, _) = bce_with_logits(6.0, 0.0);
        assert!(loss_correct < 0.01);
        assert!(loss_wrong > 5.0);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let eps = 1e-6;
        for &(z, t) in &[(0.3, 1.0), (-1.5, 0.0), (2.0, 0.0), (0.0, 1.0)] {
            let (_, grad) = bce_with_logits(z, t);
            let fd = (bce_with_logits(z + eps, t).0 - bce_with_logits(z - eps, t).0) / (2.0 * eps);
            assert!((grad - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let (loss, grad) = bce_with_logits(500.0, 0.0);
        assert!(loss.is_finite() && grad.is_finite());
        let (loss, grad) = bce_with_logits(-500.0, 1.0);
        assert!(loss.is_finite() && grad.is_finite());
    }
}
