//! Pins the bytes mining produces. A cold `mine` and one warm +1%
//! `update` of a small DBLP-like corpus are saved as v2 artifacts, and each
//! artifact's FNV-1a 64 digest must equal the recorded value.
//!
//! The determinism tests compare two runs of the same build; this test
//! compares a build against the recorded bytes, so a refactor or speed-up
//! that moves a single mined float fails here. A change that means to move
//! the bytes (a new EM default, a new artifact section) regenerates both
//! digests and says why in CHANGES.md.

use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::core::{fnv1a64, UpdateBudget};
use lesm::corpus::synth::{PapersConfig, SyntheticPapers};
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};
use lesm_serve::save_snapshot_v2;

/// Digest of the base artifact (`mine` over the first 198 documents).
const MINE_DIGEST: u64 = 0x74aa_3812_bc99_a3a6;
/// Digest of the artifact after one `update` appending 2 documents.
const UPDATE_DIGEST: u64 = 0x48fc_c3fd_6913_920d;

fn miner() -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(3),
            max_depth: 2,
            em: EmConfig {
                iters: 20,
                restarts: 1,
                seed: 7,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 20,
            subnet_threshold: 0.5,
        },
        phrase_min_support: 3,
        threads: 1,
        ..MinerConfig::default()
    }
}

#[test]
fn mine_and_update_artifacts_match_recorded_digests() {
    let full = SyntheticPapers::generate(&PapersConfig::dblp(200, 11)).expect("valid config").corpus;
    // The base is an append-only prefix: same vocabulary and entity ids,
    // the last 1% of documents held back for the update.
    let base_docs = full.num_docs() - 2;
    let mut base_corpus = full.clone();
    base_corpus.docs.truncate(base_docs);

    let cfg = miner();
    let base = LatentStructureMiner::mine(&base_corpus, &cfg).unwrap();
    let mined_bytes = save_snapshot_v2(&base_corpus, &base).unwrap();
    let up = LatentStructureMiner::update(&full, &base, base_docs, &cfg, &UpdateBudget::default())
        .unwrap();
    let updated_bytes = save_snapshot_v2(&full, &up).unwrap();

    assert_eq!(
        (fnv1a64(&mined_bytes), fnv1a64(&updated_bytes)),
        (MINE_DIGEST, UPDATE_DIGEST),
        "mined artifact bytes moved: got (mine {:#018x}, update {:#018x})",
        fnv1a64(&mined_bytes),
        fnv1a64(&updated_bytes)
    );
}
