//! Pins the bytes mining produces. A cold `mine` and one warm +1%
//! `update` of a small DBLP-like corpus are saved as v2 artifacts, and each
//! artifact's FNV-1a 64 digest must equal the recorded value.
//!
//! The determinism tests compare two runs of the same build; this test
//! compares a build against the recorded bytes, so a refactor or speed-up
//! that moves a single mined float fails here. A change that means to move
//! the bytes (a new EM default, a new artifact section) regenerates both
//! digests and says why in CHANGES.md.
//!
//! The hot sections (everything the server reads) are pinned one by one
//! as well, so a change that means to move only the `cold` section shows
//! that it did: their digests were recorded before the cold section
//! dropped the child networks and the fits' log-likelihood, and kept
//! them through that change and through the one that dropped the fits'
//! objective trace and `φ0` rows.

use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::core::{fnv1a64, UpdateBudget};
use lesm::corpus::synth::{PapersConfig, SyntheticPapers};
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};
use lesm_serve::{save_snapshot_v2, MappedSnapshot};

/// Digest of the base artifact (`mine` over the first 198 documents).
const MINE_DIGEST: u64 = 0x50e9_0aee_dff8_2fef;
/// Digest of the artifact after one `update` appending 2 documents.
const UPDATE_DIGEST: u64 = 0xe893_484f_2898_711b;

/// Per-section digests of the base artifact's hot sections (ids 1–9 and
/// 12), in table order.
const MINE_HOT: [(u32, u64); 10] = [
    (1, 0x9dea_b06e_82bd_72ca),
    (2, 0x5fb9_b8a9_72d3_6471),
    (3, 0x31fa_2938_b2f8_4718),
    (4, 0x15b6_dbf1_f6c1_74c9),
    (5, 0x5291_af9f_b10d_b04d),
    (6, 0xd7d3_18ec_807b_e60e),
    (7, 0xedb9_c8f1_272b_a85a),
    (8, 0x42cf_13c8_e842_a263),
    (9, 0x736c_a1f4_1c56_c262),
    (12, 0x5920_161f_cb45_3366),
];
/// The same for the updated artifact.
const UPDATE_HOT: [(u32, u64); 10] = [
    (1, 0x9dea_b06e_82bd_72ca),
    (2, 0x5fb9_b8a9_72d3_6471),
    (3, 0x6b65_6deb_d228_74e7),
    (4, 0x5083_b56c_f86d_e656),
    (5, 0xb2e9_02f0_2e23_a4bc),
    (6, 0xa96b_8de2_f947_78b4),
    (7, 0x1b30_ddb9_0f64_582f),
    (8, 0xfcb4_b8ba_2cfa_6253),
    (9, 0x52f4_fa05_a1aa_ca8d),
    (12, 0x8019_ad7f_5a24_7efe),
];

/// `(id, digest)` of every section of `bytes` but `cold` (id 10), in
/// table order.
fn hot_section_digests(bytes: &[u8]) -> Vec<(u32, u64)> {
    let mapped = MappedSnapshot::from_bytes(bytes).expect("artifact loads");
    let hot = mapped.sections().iter().filter(|s| s.id != 10);
    hot.map(|s| (s.id, fnv1a64(&bytes[s.offset as usize..(s.offset + s.len) as usize]))).collect()
}

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

    assert_eq!(hot_section_digests(&mined_bytes), MINE_HOT, "a hot section of the mine moved");
    assert_eq!(hot_section_digests(&updated_bytes), UPDATE_HOT, "a hot section of the update moved");

    assert_eq!(
        (fnv1a64(&mined_bytes), fnv1a64(&updated_bytes)),
        (MINE_DIGEST, UPDATE_DIGEST),
        "mined artifact bytes moved: got (mine {:#018x}, update {:#018x})",
        fnv1a64(&mined_bytes),
        fnv1a64(&updated_bytes)
    );
}
