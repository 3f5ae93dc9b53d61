//! Property-based tests for network construction.

use lesm_corpus::Corpus;
use lesm_net::{co_occurrence_network, collapsed_network, NetworkBuilder};
use proptest::prelude::*;

fn random_corpus() -> impl Strategy<Value = Corpus> {
    proptest::collection::vec(
        (proptest::collection::vec(0u8..12, 1..8), 0u8..3, 0u8..2),
        1..20,
    )
    .prop_map(|docs| {
        let mut c = Corpus::new();
        let author = c.entities.add_type("author");
        let venue = c.entities.add_type("venue");
        for (words, a, v) in docs {
            let text: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
            let d = c.push_text(&text.join(" "));
            c.link_entity(d, author, &format!("a{a}")).unwrap();
            c.link_entity(d, venue, &format!("v{v}")).unwrap();
        }
        c
    })
}

proptest! {
    #[test]
    fn builder_preserves_total_weight(adds in proptest::collection::vec((0u32..5, 0u32..5, 0.1f64..4.0), 1..40)) {
        let mut b = NetworkBuilder::new(vec!["t".into()], vec![5]);
        let mut total = 0.0;
        for &(i, j, w) in &adds {
            b.add(0, i, 0, j, w);
            total += w;
        }
        let g = b.build();
        prop_assert!((g.total_weight() - total).abs() < 1e-9);
        g.validate().unwrap();
        // Edges stored canonically (i <= j) and deduplicated.
        let blk = g.block(0, 0).unwrap();
        for &(i, j, w) in &blk.edges {
            prop_assert!(i <= j);
            prop_assert!(w > 0.0);
        }
        let mut seen = std::collections::HashSet::new();
        for &(i, j, _) in &blk.edges {
            prop_assert!(seen.insert((i, j)), "duplicate edge ({i},{j})");
        }
    }

    #[test]
    fn co_occurrence_weight_bounded_by_doc_count(c in random_corpus()) {
        let g = co_occurrence_network(&c);
        g.validate().unwrap();
        if let Some(blk) = g.block(0, 0) {
            for &(_, _, w) in &blk.edges {
                prop_assert!(w <= c.num_docs() as f64, "presence-based weights are per-doc");
            }
        }
    }

    #[test]
    fn collapsed_network_is_valid_and_typed(c in random_corpus()) {
        let g = collapsed_network(&c);
        prop_assert_eq!(g.num_types(), 3);
        g.validate().unwrap();
        // Degrees are non-negative and sum consistently with weights:
        // every non-self link contributes to two endpoints.
        let deg = g.weighted_degrees();
        let deg_total: f64 = deg.iter().flat_map(|v| v.iter()).sum();
        let mut expect = 0.0;
        for blk in &g.blocks {
            for &(i, j, w) in &blk.edges {
                expect += if blk.tx == blk.ty && i == j { w } else { 2.0 * w };
            }
        }
        prop_assert!((deg_total - expect).abs() < 1e-9);
    }

    #[test]
    fn entity_term_weight_matches_shared_docs(c in random_corpus()) {
        // The author-term link weight must equal the number of docs where
        // the author and the word co-occur.
        let g = collapsed_network(&c);
        if let Some(blk) = g.block(0, 2) {
            for &(a, w, weight) in blk.edges.iter().take(10) {
                let count = c
                    .docs
                    .iter()
                    .filter(|d| {
                        d.entities_of(0).any(|id| id == a) && d.tokens.contains(&w)
                    })
                    .count();
                prop_assert!((weight - count as f64).abs() < 1e-9);
            }
        }
    }
}
