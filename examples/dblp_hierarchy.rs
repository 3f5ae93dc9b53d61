//! Construct a multi-typed topical hierarchy from a DBLP-like corpus and
//! answer Type-A / Type-B role questions about its authors and venues
//! (the Chapter 3 + Chapter 5 workflow).
//!
//! ```sh
//! cargo run --release --example dblp_hierarchy
//! ```

use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::corpus::synth::{PapersConfig, SyntheticPapers};
use lesm::corpus::EntityRef;
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};
use lesm::roles::type_a::{entity_phrase_rank, entity_subtopic_distribution};
use lesm::roles::type_b::erank_pop_pur;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-area, 4-subarea bibliography with authors and venues.
    let mut cfg = PapersConfig::dblp(1500, 99);
    cfg.hierarchy.branching = vec![2, 2];
    let papers = SyntheticPapers::generate(&cfg)?;
    let corpus = &papers.corpus;

    let miner = MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::PerLevel(vec![2, 2]),
            max_depth: 2,
            em: EmConfig {
                iters: 250,
                restarts: 6,
                seed: 3,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 20,
            subnet_threshold: 0.5,
        },
        ..MinerConfig::default()
    };
    let mined = LatentStructureMiner::mine(corpus, &miner)?;

    println!("== the hierarchy ==");
    for t in 0..mined.hierarchy.len() {
        println!("{}", lesm::core::render_topic(&mined.view(corpus), t, 4));
    }

    // Type-B: who are the champions of each leaf topic?
    let leaves = mined.hierarchy.leaves();
    let doc_leaf: Vec<Vec<f64>> = (0..corpus.num_docs())
        .map(|d| leaves.iter().map(|&t| mined.doc_topic[d][t]).collect())
        .collect();
    let n_authors = corpus.entities.count(0);
    let mut freq = vec![vec![0.0f64; n_authors]; leaves.len()];
    for id in 0..n_authors as u32 {
        let dist = entity_subtopic_distribution(corpus, &doc_leaf, EntityRef::new(0, id));
        for (z, &f) in dist.iter().enumerate() {
            freq[z][id as usize] = f;
        }
    }
    println!("\n== Type-B: top authors per leaf (popularity x purity) ==");
    for (z, &leaf) in leaves.iter().enumerate() {
        let names: Vec<String> = erank_pop_pur(&freq, z, 3)
            .into_iter()
            .map(|(e, _)| corpus.entities.name(EntityRef::new(0, e)).to_string())
            .collect();
        println!("{}: {}", mined.hierarchy.topics[leaf].path, names.join(", "));
    }

    // Type-A: what does the top author of leaf 0 actually work on?
    if let Some(&(star, _)) = erank_pop_pur(&freq, 0, 1).first() {
        let entity = EntityRef::new(0, star);
        let t = leaves[0];
        let w: Vec<f64> = (0..corpus.num_docs()).map(|d| mined.doc_topic[d][t]).collect();
        let phrases = entity_phrase_rank(corpus, &mined.segments, &w, entity);
        println!(
            "\n== Type-A: {}'s phrases in {} ==",
            corpus.entities.name(entity),
            mined.hierarchy.topics[t].path
        );
        for (p, score) in phrases.iter().take(5) {
            println!("  {:<30} ({score:.4})", corpus.vocab.render(p));
        }
    }
    Ok(())
}
