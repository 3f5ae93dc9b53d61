//! Quickstart: mine a phrase-represented, entity-enriched topical
//! hierarchy from a small corpus with hand-written documents.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lesm::core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm::corpus::Corpus;
use lesm::hier::em::{EmConfig, WeightMode};
use lesm::hier::hierarchy::{CathyConfig, ChildCount};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a corpus: short "paper titles" with author and venue links.
    //    (Real usage would load your own data; the synthetic generators in
    //    `lesm::corpus::synth` produce larger corpora with ground truth.)
    let mut corpus = Corpus::new();
    let author = corpus.entities.add_type("author");
    let venue = corpus.entities.add_type("venue");
    let db_titles = [
        "query processing in relational database systems",
        "query optimization for distributed database systems",
        "concurrency control in database transaction processing",
        "efficient query processing with learned indexes",
        "transaction concurrency control protocols",
        "query optimization using cost models",
    ];
    let ir_titles = [
        "ranking models for web search engines",
        "relevance feedback in information retrieval",
        "web search ranking with click models",
        "information retrieval evaluation measures",
        "learning to rank for web search",
        "query expansion for information retrieval",
    ];
    for (i, t) in db_titles.iter().enumerate() {
        let d = corpus.push_text(t);
        corpus.link_entity(d, author, if i % 2 == 0 { "alice" } else { "adam" })?;
        corpus.link_entity(d, venue, "SIGMOD-like")?;
    }
    for (i, t) in ir_titles.iter().enumerate() {
        let d = corpus.push_text(t);
        corpus.link_entity(d, author, if i % 2 == 0 { "bob" } else { "bella" })?;
        corpus.link_entity(d, venue, "SIGIR-like")?;
    }

    // 2. Configure the miner: a one-level split into 2 topics, small
    //    thresholds because the corpus is tiny.
    let config = MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(2),
            max_depth: 1,
            em: EmConfig {
                k: 2,
                iters: 200,
                restarts: 5,
                seed: 7,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 5,
            subnet_threshold: 0.2,
        },
        phrase_min_support: 2,
        phrase_max_len: 3,
        min_topic_freq: 0.5,
        ..MinerConfig::default()
    };

    // 3. Mine and inspect.
    let mined = LatentStructureMiner::mine(&corpus, &config)?;
    println!("mined {} topics:", mined.hierarchy.len());
    for t in 1..mined.hierarchy.len() {
        println!("  {}", lesm::core::render_topic(&mined.view(&corpus), t, 4));
    }

    // 4. Where does each document land?
    for d in [0usize, 6] {
        println!(
            "doc \"{}\" -> topic {}",
            corpus.render_doc(d),
            mined.hierarchy.topics[mined.doc_leaf(d)].path
        );
    }
    Ok(())
}
