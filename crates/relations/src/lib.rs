//! Mining hierarchical relations (dissertation Chapter 6).
//!
//! The case study is advisor–advisee discovery from temporal collaboration
//! networks:
//!
//! * [`preprocess`] — Stage 1 (§6.1.3): project papers onto a coauthor
//!   network with per-year publication vectors, compute the Kulczynski and
//!   imbalance-ratio sequences (eqs. 6.1–6.2), apply filter rules R1–R4,
//!   estimate advising intervals (YEAR1/YEAR2/YEAR) and local likelihoods,
//!   and emit the candidate DAG.
//! * [`tpfg`] — Stage 2 (§6.1.4–6.1.5): the Time-constrained Probabilistic
//!   Factor Graph and its two-phase message-passing inference, producing
//!   ranked advisor probabilities `r_ij` and P@(k, θ) predictions.
//! * [`baselines`] — RULE, IndMAX and a linear-SVM pairwise classifier
//!   (the comparators of §6.1.6).
//! * [`crf`] — the supervised conditional-random-field variant (§6.2) with
//!   log-linear potentials trained by regularized pseudo-likelihood.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod baselines;
pub mod crf;
pub mod preprocess;
pub mod render;
pub mod tpfg;

pub use preprocess::{CandidateGraph, Candidate, PreprocessConfig, LocalLikelihood, YearRule};
pub use render::AdvisingForest;
pub use tpfg::{Tpfg, TpfgConfig, TpfgResult};

use lesm_corpus::synth::GenPaper;

/// The advisor prediction both `lesm advisors` and the query engine's
/// `advisees`/`advisors` edges use: P@(k, θ) with k = 1, θ = 0.3.
const PREDICT_K: usize = 1;
const PREDICT_THETA: f64 = 0.3;

/// Mines the advising forest of `papers` (author ids below `n_authors`):
/// the candidate graph with default filters, TPFG inference, and the
/// P@(1, 0.3) prediction. Fails with [`RelError::NoCandidates`] when no
/// pair passes the filters.
pub fn advising_forest(papers: &[GenPaper], n_authors: usize) -> Result<AdvisingForest, RelError> {
    let graph = CandidateGraph::build(papers, n_authors, &PreprocessConfig::default())?;
    let result = Tpfg::infer(&graph, &TpfgConfig::default())?;
    Ok(AdvisingForest::from_result(&result, PREDICT_K, PREDICT_THETA))
}

/// Errors produced by relation mining.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// Invalid configuration value.
    InvalidConfig(String),
    /// The candidate graph is empty (no pair passed the filters).
    NoCandidates,
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            RelError::NoCandidates => write!(f, "no candidate relations after filtering"),
        }
    }
}

impl std::error::Error for RelError {}
