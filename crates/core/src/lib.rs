//! The integrated latent entity structure mining framework (§1.4).
//!
//! [`LatentStructureMiner`] chains the dissertation's modules end to end:
//!
//! 1. collapse a text-attached heterogeneous network ([`lesm_net`]),
//! 2. construct a multi-typed topical hierarchy (CATHYHIN, Chapter 3),
//! 3. mine and attach ranked topical phrases (ToPMine machinery, Chapter 4)
//!    so every topic is phrase-represented,
//! 4. attach ranked entity lists per topic (entity-embedded topics), and
//! 5. answer Type-A / Type-B role queries (Chapter 5).
//!
//! Hierarchical relation mining (Chapter 6) and the STROD backend
//! (Chapter 7) are exposed through the re-exported crates; see
//! `examples/` for end-to-end usage.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

// Index-based loops are kept where they mirror the paper's equations.
#![allow(clippy::needless_range_loop)]

pub mod export;
pub mod hash;
pub mod pipeline;
pub mod search;
pub mod synthmodel;
pub mod update;
pub mod view;

pub use export::{hierarchy_to_json, render_topic};
pub use hash::{fnv1a64, Fnv1a};
pub use lesm_hier::UpdateBudget;
pub use search::{search, SearchHit, SearchIndex};
pub use pipeline::{MinedStructure, MinerConfig, LatentStructureMiner};
pub use synthmodel::model_from_truth;
pub use view::{MinedView, ModelView};

/// Errors surfaced by the integrated pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// Hierarchy construction failed.
    Hier(lesm_hier::HierError),
    /// Phrase mining failed.
    Phrase(lesm_phrases::PhraseError),
    /// An incremental update was inconsistent with its base structure.
    Update(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Hier(e) => write!(f, "hierarchy construction: {e}"),
            CoreError::Phrase(e) => write!(f, "phrase mining: {e}"),
            CoreError::Update(m) => write!(f, "incremental update: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<lesm_hier::HierError> for CoreError {
    fn from(e: lesm_hier::HierError) -> Self {
        CoreError::Hier(e)
    }
}

impl From<lesm_phrases::PhraseError> for CoreError {
    fn from(e: lesm_phrases::PhraseError) -> Self {
        CoreError::Phrase(e)
    }
}
