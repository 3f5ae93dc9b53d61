//! Deterministic adversarial input generators.
//!
//! Every case is addressed by a plain integer id: `case(id)` maps it to a
//! (corpus shape, miner config) pair via `id = shape * NUM_CONFIGS + cfg`.
//! Nothing here draws randomness — the same id always produces the same
//! hostile input, so a failing case number is a complete reproducer.

use lesm_core::pipeline::MinerConfig;
use lesm_corpus::Corpus;
use lesm_hier::em::{EmConfig, WeightMode};
use lesm_hier::hierarchy::{CathyConfig, ChildCount};

/// Number of adversarial corpus shapes.
pub const NUM_SHAPES: usize = 16;
/// Number of adversarial config mutations.
pub const NUM_CONFIGS: usize = 18;
/// Total distinct `(shape, config)` cases.
pub const NUM_CASES: usize = NUM_SHAPES * NUM_CONFIGS;

/// One fully specified adversarial case.
pub struct Case {
    /// Human-readable reproducer label, e.g. `one-word-vocab/k-exceeds-nodes`.
    pub label: String,
    /// The hostile corpus.
    pub corpus: Corpus,
    /// The (possibly hostile) miner configuration.
    pub config: MinerConfig,
}

/// Builds the adversarial case for `id` (wraps modulo [`NUM_CASES`]).
pub fn case(id: usize) -> Case {
    let id = id % NUM_CASES;
    let (shape, cfg) = (id / NUM_CONFIGS, id % NUM_CONFIGS);
    let (corpus_label, corpus) = corpus_shape(shape);
    let (config_label, config) = config_mutation(cfg);
    Case { label: format!("{corpus_label}/{config_label}"), corpus, config }
}

/// The adversarial corpus shapes. Each targets an assumption somewhere in
/// the chain: non-empty corpora, multi-word vocabularies, distinct
/// documents, segmentable text, present entity types, sane years.
pub fn corpus_shape(shape: usize) -> (&'static str, Corpus) {
    let mut c = Corpus::new();
    match shape % NUM_SHAPES {
        0 => ("empty-corpus", c),
        1 => {
            c.push_text("");
            ("single-empty-doc", c)
        }
        2 => {
            c.push_text("solitary");
            ("single-one-word-doc", c)
        }
        3 => {
            for _ in 0..8 {
                c.push_text("word word word");
            }
            ("one-word-vocab", c)
        }
        4 => {
            for _ in 0..10 {
                c.push_text("alpha beta gamma");
            }
            ("all-duplicate-docs", c)
        }
        5 => {
            c.push_text("left side tokens");
            c.push_text("right half words");
            ("two-disjoint-docs", c)
        }
        6 => {
            let long: String = (0..40).map(|i| format!("tok{} ", i % 7)).collect();
            c.push_text(&long);
            ("single-long-doc", c)
        }
        7 => {
            for i in 0..6 {
                c.push_text(&format!("pair{} tail{}", i, i));
            }
            ("two-token-docs", c)
        }
        8 => {
            let author = c.entities.add_type("author");
            for i in 0..6 {
                let d = c.push_text("");
                let _ = c.link_entity(d, author, &format!("auth{}", i % 2));
            }
            ("entities-without-text", c)
        }
        9 => {
            let author = c.entities.add_type("author");
            let venue = c.entities.add_type("venue");
            for i in 0..10 {
                let d = c.push_text(if i % 2 == 0 {
                    "query database index"
                } else {
                    "ranking retrieval search"
                });
                let _ = c.link_entity(d, author, if i % 2 == 0 { "alice" } else { "bob" });
                let _ = c.link_entity(d, venue, "vldb");
                c.docs[d].year = Some(2000 + i);
            }
            ("two-type-entities", c)
        }
        10 => {
            let author = c.entities.add_type("author");
            for _ in 0..4 {
                let d = c.push_text("brace { quote \" backslash \\ tab \t");
                let _ = c.link_entity(d, author, "{\"}\\\u{1}");
            }
            ("hostile-strings", c)
        }
        11 => {
            let author = c.entities.add_type("author");
            for i in 0..12 {
                let d = c.push_text(if i < 6 { "data mining graphs" } else { "neural nets layers" });
                let _ = c.link_entity(d, author, "hub");
                c.docs[d].year = Some(1990 + i);
            }
            ("single-author-hub", c)
        }
        12 => {
            // Extreme years on a *collaborating* pair, so TPFG's year
            // arithmetic (spans, head starts) actually runs over them.
            let author = c.entities.add_type("author");
            for (i, year) in
                [i32::MIN, i32::MIN + 1, -1, 0, 9999, i32::MAX - 1, i32::MAX].into_iter().enumerate()
            {
                let d = c.push_text("chrono stamp words");
                let _ = c.link_entity(d, author, "elder");
                let _ = c.link_entity(d, author, &format!("pupil{}", i % 2));
                c.docs[d].year = Some(year);
            }
            ("extreme-years", c)
        }
        13 => {
            for i in 0..30 {
                c.push_text(if i % 2 == 0 { "ping" } else { "pong" });
            }
            ("many-docs-two-words", c)
        }
        14 => {
            let author = c.entities.add_type("author");
            for i in 0..20 {
                let d = c.push_text(if i % 2 == 0 {
                    "storage engine commit log buffer"
                } else {
                    "relevance feedback ranking query terms"
                });
                let _ = c.link_entity(d, author, if i % 2 == 0 { "sys" } else { "ir" });
                c.docs[d].year = Some(2005 + (i % 4));
            }
            ("two-communities", c)
        }
        _ => {
            c.push_text("echo echo echo echo echo echo echo echo");
            ("one-doc-repeated-token", c)
        }
    }
}

/// A fast base config the mutations perturb: tiny EM budgets keep 250+
/// cases cheap while still exercising every stage.
fn base_config() -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(2),
            max_depth: 2,
            em: EmConfig {
                iters: 12,
                restarts: 2,
                seed: 7,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 4,
            subnet_threshold: 0.5,
        },
        phrase_min_support: 2,
        phrase_max_len: 4,
        seg_alpha: 2.0,
        phrases_per_topic: 10,
        entities_per_topic: 10,
        min_topic_freq: 1.0,
        threads: 1,
        em_tol: 0.0,
    }
}

/// The adversarial config mutations. Each targets a user-controlled knob
/// the CLI exposes (`--k`, `--depth`, `--em-tol`, `--threads`) or an
/// internal bound the paper's algorithms assume.
pub fn config_mutation(cfg: usize) -> (&'static str, MinerConfig) {
    let mut m = base_config();
    match cfg % NUM_CONFIGS {
        0 => ("default", m),
        1 => {
            m.hierarchy.children = ChildCount::Fixed(1);
            ("k-one", m)
        }
        2 => {
            m.hierarchy.children = ChildCount::Fixed(9);
            m.hierarchy.min_links = 0;
            ("k-exceeds-nodes", m)
        }
        3 => {
            m.hierarchy.children = ChildCount::Fixed(33);
            m.hierarchy.min_links = 1;
            ("k-far-exceeds-nodes", m)
        }
        4 => {
            m.hierarchy.max_depth = 1;
            m.phrases_per_topic = 0;
            m.entities_per_topic = 0;
            ("depth-one-zero-top-n", m)
        }
        5 => {
            m.hierarchy.max_depth = 6;
            ("depth-exceeds-splittable", m)
        }
        6 => {
            m.hierarchy.min_links = 0;
            m.hierarchy.max_depth = 3;
            ("min-links-zero", m)
        }
        7 => {
            m.phrase_min_support = 0;
            ("zero-min-support", m)
        }
        8 => {
            m.phrase_max_len = 1;
            ("phrase-max-len-one", m)
        }
        9 => {
            m.phrase_max_len = 64;
            m.phrase_min_support = 1;
            ("phrase-longer-than-docs", m)
        }
        10 => {
            m.min_topic_freq = 0.0;
            ("zero-min-topic-freq", m)
        }
        11 => {
            m.seg_alpha = -5.0;
            ("negative-seg-alpha", m)
        }
        12 => {
            m.seg_alpha = f64::MAX;
            ("huge-seg-alpha", m)
        }
        13 => {
            m.em_tol = 1e30;
            ("immediate-em-exit", m)
        }
        14 => {
            m.threads = 3;
            ("three-threads", m)
        }
        15 => {
            m.hierarchy.em.iters = 0;
            m.hierarchy.em.restarts = 0;
            ("zero-em-budget", m)
        }
        16 => {
            m.hierarchy.children = ChildCount::Auto { min: 3, max: 2 };
            ("auto-k-empty-range", m)
        }
        _ => {
            m.hierarchy.em.background = false;
            m.hierarchy.em.weights = WeightMode::Equal;
            m.hierarchy.em.weight_rounds = 0;
            m.hierarchy.subnet_threshold = -1.0;
            ("no-background-negative-subnet", m)
        }
    }
}
