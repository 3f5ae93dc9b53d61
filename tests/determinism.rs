//! End-to-end determinism: every pipeline in the workspace is seeded, so
//! running twice must produce byte-identical output. This is the
//! reproducibility property Chapter 7 motivates (and the reason the
//! recorded `results/` files regenerate exactly).

use lesm::core::export::hierarchy_to_json;
use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::corpus::synth::{GenealogyConfig, Genealogy, PapersConfig, SyntheticPapers};
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};
use lesm::phrases::topmine::{ToPMine, ToPMineConfig};
use lesm::relations::preprocess::{CandidateGraph, PreprocessConfig};
use lesm::relations::tpfg::{Tpfg, TpfgConfig};
use lesm::strod::{Strod, StrodConfig};
use lesm::topicmodel::phrase_lda::PhraseLdaConfig;

fn corpus() -> SyntheticPapers {
    let mut cfg = PapersConfig::dblp(500, 123);
    cfg.hierarchy.branching = vec![2];
    cfg.entity_specs[0].level = 1;
    cfg.entity_specs[0].pool_per_node = 5;
    cfg.entity_specs[1].pool_per_node = 2;
    SyntheticPapers::generate(&cfg).expect("valid config")
}

fn miner() -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(2),
            max_depth: 1,
            em: EmConfig {
                iters: 80,
                restarts: 2,
                seed: 5,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 10,
            subnet_threshold: 0.5,
        },
        phrase_min_support: 3,
        ..MinerConfig::default()
    }
}

#[test]
fn mining_pipeline_is_byte_deterministic() {
    let papers_a = corpus();
    let papers_b = corpus();
    // Generator determinism first.
    assert_eq!(papers_a.corpus.docs[17].tokens, papers_b.corpus.docs[17].tokens);
    let a = LatentStructureMiner::mine(&papers_a.corpus, &miner()).unwrap();
    let b = LatentStructureMiner::mine(&papers_b.corpus, &miner()).unwrap();
    let json_a = hierarchy_to_json(&a.view(&papers_a.corpus), 10);
    let json_b = hierarchy_to_json(&b.view(&papers_b.corpus), 10);
    assert_eq!(json_a, json_b, "full pipeline output must be byte-identical");
}

#[test]
fn topmine_is_deterministic() {
    let papers = corpus();
    let docs: Vec<Vec<u32>> = papers.corpus.docs.iter().map(|d| d.tokens.clone()).collect();
    let cfg = ToPMineConfig {
        min_support: 3,
        max_len: 4,
        seg_alpha: 2.0,
        lda: PhraseLdaConfig { k: 2, iters: 40, seed: 9, ..Default::default() },
        omega: 0.3,
        top_n: 15,
        ..Default::default()
    };
    let a = ToPMine::run(&docs, papers.corpus.num_words(), &cfg).unwrap();
    let b = ToPMine::run(&docs, papers.corpus.num_words(), &cfg).unwrap();
    for (ta, tb) in a.topical_phrases.iter().zip(&b.topical_phrases) {
        let pa: Vec<&Vec<u32>> = ta.iter().map(|p| &p.tokens).collect();
        let pb: Vec<&Vec<u32>> = tb.iter().map(|p| &p.tokens).collect();
        assert_eq!(pa, pb);
    }
}

#[test]
fn tpfg_is_deterministic() {
    let gen_a = Genealogy::generate(&GenealogyConfig {
        n_authors: 100,
        seed: 77,
        ..GenealogyConfig::default()
    })
    .unwrap();
    let gen_b = Genealogy::generate(&GenealogyConfig {
        n_authors: 100,
        seed: 77,
        ..GenealogyConfig::default()
    })
    .unwrap();
    assert_eq!(gen_a.papers, gen_b.papers);
    let run = |gen: &Genealogy| {
        let g = CandidateGraph::build(&gen.papers, gen.n_authors, &PreprocessConfig::default())
            .unwrap();
        Tpfg::infer(&g, &TpfgConfig::default()).unwrap().predict(1, 0.3)
    };
    assert_eq!(run(&gen_a), run(&gen_b));
}

#[test]
fn strod_is_deterministic() {
    let papers = corpus();
    let docs: Vec<Vec<u32>> = papers.corpus.docs.iter().map(|d| d.tokens.clone()).collect();
    let cfg = StrodConfig { k: 2, alpha0: Some(0.5), ..Default::default() };
    let a = Strod::fit(&docs, papers.corpus.num_words(), &cfg).unwrap();
    let b = Strod::fit(&docs, papers.corpus.num_words(), &cfg).unwrap();
    assert_eq!(a.topic_word, b.topic_word);
    assert_eq!(a.alpha, b.alpha);
}
