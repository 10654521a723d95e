//! A minimal, dependency-free neural-network library for the Corki policy.
//!
//! The paper's policy head (Fig. 3/4) is an LSTM over vision-language tokens
//! followed by MLP heads producing either per-frame actions (baseline) or a
//! near-future trajectory (Corki).  This crate provides exactly the layers
//! needed to train and run those heads in pure Rust:
//!
//! * [`Tensor`] — a flat parameter matrix with its gradient buffer,
//! * [`Linear`], [`Mlp`], [`LstmCell`] — layers with explicit
//!   forward-with-cache / backward passes (no autograd, no hidden state),
//! * [`losses`] — MSE (pose supervision) and binary cross-entropy with logits
//!   (gripper supervision), matching Equation 3/5,
//! * [`Adam`] — the optimiser over a model's parameter tensors.
//!
//! # Example
//!
//! ```
//! use corki_nn::{Linear, Adam, losses};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Fit y = 2x with a single linear neuron.
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut layer = Linear::new(1, 1, &mut rng);
//! let mut adam = Adam::new(0.05);
//! for _ in 0..500 {
//!     layer.zero_grad();
//!     let x = [0.5];
//!     let (y, cache) = layer.forward_cached(&x);
//!     let (_, grad) = losses::mse(&y, &[1.0]);
//!     layer.backward(&cache, &grad);
//!     adam.step(&mut layer.parameters_mut());
//! }
//! let (y, _) = layer.forward_cached(&[0.5]);
//! assert!((y[0] - 1.0).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod linear;
pub mod losses;
mod lstm;
mod mlp;
mod optim;
mod scratch;
mod tensor;

pub use activation::{sigmoid, sigmoid_slice, tanh, tanh_slice, Activation};
pub use linear::{Linear, LinearCache};
pub use lstm::{LstmCache, LstmCell, LstmState};
pub use mlp::{Mlp, MlpCache};
pub use optim::Adam;
pub use scratch::InferenceScratch;
pub use tensor::{matvec_colmajor, Tensor};
