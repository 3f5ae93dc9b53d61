//! The Chapter-8 applications: topical influence analysis (opinion
//! leaders per community, §8.1.1) and relevance targeting (topic-aware
//! search, §8.1.2) on top of a mined hierarchy.
//!
//! ```sh
//! cargo run --release --example influence_and_search
//! ```

use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::core::search::{search, SearchIndex};
use lesm::corpus::synth::{PapersConfig, SyntheticPapers};
use lesm::corpus::EntityRef;
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};
use lesm::roles::influence::{topical_influence, InfluenceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = PapersConfig::dblp(1200, 77);
    cfg.hierarchy.branching = vec![2, 2];
    let papers = SyntheticPapers::generate(&cfg)?;
    let corpus = &papers.corpus;
    let mined = LatentStructureMiner::mine(
        corpus,
        &MinerConfig {
            hierarchy: CathyConfig {
                children: ChildCount::PerLevel(vec![2, 2]),
                max_depth: 2,
                em: EmConfig {
                    iters: 200,
                    restarts: 5,
                    seed: 3,
                    background: true,
                    weights: WeightMode::Learned,
                    ..EmConfig::default()
                },
                min_links: 20,
                subnet_threshold: 0.5,
            },
            ..MinerConfig::default()
        },
    )?;

    // Opinion leaders per level-1 community: same network, different
    // leaders once conditioned on the topic.
    println!("== topical influence (top-3 authors per community) ==");
    for &t in &mined.hierarchy.topics[0].children {
        let w: Vec<f64> = (0..corpus.num_docs()).map(|d| mined.doc_topic[d][t]).collect();
        let leaders = topical_influence(corpus, &w, 0, &InfluenceConfig::default());
        let names: Vec<String> = leaders
            .iter()
            .take(3)
            .map(|&(id, s)| format!("{} ({s:.3})", corpus.entities.name(EntityRef::new(0, id))))
            .collect();
        println!("{}: {}", mined.hierarchy.topics[t].path, names.join(", "));
    }

    // Relevance targeting: query with a topical word; hits come back
    // ranked by literal overlap plus topical affinity.
    let leaf = papers.truth.hierarchy.leaves[0];
    let query = corpus.vocab.name_or_unk(papers.truth.hierarchy.own_words[leaf][0]).to_string();
    println!("\n== search: \"{query}\" ==");
    let view = mined.view(corpus);
    for hit in search(&view, &SearchIndex::build(&view), &query, 5) {
        println!(
            "doc {:>4} (score {:.3}, topic {}): {}",
            hit.doc,
            hit.score,
            mined.hierarchy.topics[hit.topic].path,
            corpus.render_doc(hit.doc)
        );
    }
    Ok(())
}
