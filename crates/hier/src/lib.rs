//! CATHY and CATHYHIN — recursive hierarchical topic and community
//! discovery (dissertation Chapter 3).
//!
//! The construction is top-down: every topic node owns an edge-weighted
//! (typed) network; a Poisson link-generation model is fitted by EM to
//! softly partition the link weights into `k` subtopics (plus an optional
//! background topic), each subtopic's expected-weight subnetwork is
//! extracted, and the procedure recurses. Only the root's network is a
//! [`lesm_net::TypedNetwork`]: it is flattened once into an
//! [`EdgeState`], and each subtopic's subnetwork is expanded from its
//! parent's flat links ([`EdgeState::children`]) in the one frontier loop
//! that [`TopicHierarchy::construct`] and [`TopicHierarchy::update`]
//! share.
//!
//! * [`em`] — the unified generative model and its EM inference
//!   (eqs. 3.5–3.7 for text-only CATHY; eqs. 3.24–3.28 with a background
//!   topic for CATHYHIN, whose `φ_0` is pinned to the parent-topic
//!   importance rather than re-estimated by eq. 3.29), including
//!   link-type weight learning (eqs. 3.37–3.38 under the Theorem 3.2
//!   normalization).
//! * [`select`] — BIC model selection for the number of subtopics
//!   (§3.2.3).
//! * [`hierarchy`] — the recursive constructor and the resulting
//!   [`TopicHierarchy`].

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Index-based loops are kept where they mirror the paper's equations.
#![allow(clippy::needless_range_loop)]

pub mod em;
pub mod hierarchy;
pub mod select;

pub use em::{CathyHinEm, EdgeState, EmConfig, EmFit, WeightMode};
pub use hierarchy::{CathyConfig, HierTopic, TopicHierarchy, UpdateBudget};
pub use select::{bic_score, select_k, select_k_prepared};

/// Errors produced by hierarchy construction.
#[derive(Debug, Clone, PartialEq)]
pub enum HierError {
    /// The input network has no links.
    EmptyNetwork,
    /// An invalid configuration value.
    InvalidConfig(String),
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::EmptyNetwork => write!(f, "network has no links"),
            HierError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for HierError {}
