//! The per-policy inference workspace behind the zero-allocation control
//! step.
//!
//! A steady-state policy inference (encode the new frame, slide the token
//! window, run the LSTM, decode the heads, assemble the plan) touches the
//! allocator only through temporaries. [`PolicyScratch`] owns every one of
//! those temporaries so they are allocated once (growing to their high-water
//! mark on the first few calls) and reused forever after; combined with the
//! `*_into` kernels of `corki-nn` and the token-window buffer recycling in
//! [`recycled_slot`], a warm control step performs zero heap allocations.

use crate::TOKEN_WINDOW;
use corki_nn::{InferenceScratch, LstmCell, LstmState};
use corki_trajectory::EePose;
use std::collections::VecDeque;

/// Reusable buffers for one policy's inference fast path.
///
/// The scratch is transient execution state, not part of the policy's
/// identity: it is skipped by serde and compares equal to any other scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct PolicyScratch {
    /// Layer-level workspace threaded through every `*_into` forward pass.
    pub nn: InferenceScratch,
    /// Encoder output for the freshly captured frame.
    pub token: Vec<f64>,
    /// LSTM state (ping of the window rollout double-buffer).
    pub state: LstmState,
    /// LSTM state (pong of the window rollout double-buffer).
    pub state_next: LstmState,
    /// Concatenated head input (hidden state + close-loop feature).
    pub head_input: Vec<f64>,
    /// Raw waypoint/pose head output.
    pub raw: Vec<f64>,
    /// Gripper head output (logits).
    pub logits: Vec<f64>,
    /// Averaged close-loop feature.
    pub close_loop: Vec<f64>,
    /// Per-observation close-loop encoding before averaging.
    pub close_loop_tmp: Vec<f64>,
    /// Cumulative waypoint offsets decoded from the raw head output.
    pub offsets: Vec<[f64; 6]>,
    /// Waypoint poses handed to the trajectory fit.
    pub waypoints: Vec<EePose>,
    /// `W_ih · mask` — the LSTM input projection of the mask embedding,
    /// computed once (and after weight updates) and replayed for every
    /// masked window slot.
    pub mask_pre: Vec<f64>,
    /// Projection buffer for the freshly encoded token before it is stored
    /// in its window slot.
    pub token_pre: Vec<f64>,
    /// Column-major copy of the LSTM recurrent weights for the fast
    /// [`corki_nn::LstmCell::forward_premixed_transposed`] kernel, refreshed
    /// together with the cached projections.
    pub w_hh_t: Vec<f64>,
}

impl PartialEq for PolicyScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One sliding-window slot: the raw token, its cached LSTM input projection
/// (`W_ih · token`, so a steady-state plan never re-projects old frames) and
/// whether the slot holds the shared mask embedding (whose projection lives
/// once in the scratch instead of per slot).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct WindowSlot {
    /// The raw token (kept so stale projections can be recomputed after
    /// training touches the weights).
    pub token: Vec<f64>,
    /// Cached `W_ih · token` input projection.
    pub projection: Vec<f64>,
    /// Whether this slot holds the shared mask embedding.
    pub is_mask: bool,
}

/// Appends a recycled slot to the window, evicting (and reusing the buffers
/// of) the oldest slot once the window is full — the steady-state path never
/// allocates.
pub(crate) fn recycled_slot(window: &mut VecDeque<WindowSlot>, is_mask: bool) -> &mut WindowSlot {
    let mut slot = if window.len() == TOKEN_WINDOW {
        window.pop_front().expect("full window is non-empty")
    } else {
        WindowSlot::default()
    };
    slot.token.clear();
    slot.projection.clear();
    slot.is_mask = is_mask;
    window.push_back(slot);
    window.back_mut().expect("slot was just pushed")
}

/// Runs the LSTM over a window of cached input projections via the
/// transposed recurrent kernel, double-buffering the state through the
/// scratch; the final hidden state is left in `scratch.state.h`.
pub(crate) fn run_window_premixed(
    lstm: &LstmCell,
    hidden_dim: usize,
    window: &VecDeque<WindowSlot>,
    scratch: &mut PolicyScratch,
) {
    scratch.state.h.clear();
    scratch.state.h.resize(hidden_dim, 0.0);
    scratch.state.c.clear();
    scratch.state.c.resize(hidden_dim, 0.0);
    for slot in window {
        let projection = if slot.is_mask { &scratch.mask_pre } else { &slot.projection };
        lstm.forward_premixed_transposed(
            projection,
            &scratch.w_hh_t,
            &scratch.state,
            &mut scratch.state_next,
            &mut scratch.nn,
        );
        std::mem::swap(&mut scratch.state, &mut scratch.state_next);
    }
}
