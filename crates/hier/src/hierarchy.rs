//! Recursive top-down hierarchy construction (the CATHY/CATHYHIN outer
//! loop: Steps 1–3 of §3.1/§3.2).

use crate::em::{parent_importance, CathyHinEm, EdgeState, EmConfig, EmFit};
use crate::select::select_k_prepared;
use crate::HierError;
use lesm_net::TypedNetwork;

/// How the number of children per topic is chosen.
#[derive(Debug, Clone)]
pub enum ChildCount {
    /// Fixed `k` at every node.
    Fixed(usize),
    /// Per-level `k` (last entry reused below).
    PerLevel(Vec<usize>),
    /// BIC selection over an inclusive range (§3.2.3).
    Auto {
        /// Minimum candidate `k`.
        min: usize,
        /// Maximum candidate `k`.
        max: usize,
    },
}

/// Configuration for [`TopicHierarchy::construct`].
#[derive(Debug, Clone)]
pub struct CathyConfig {
    /// Children per topic.
    pub children: ChildCount,
    /// Maximum depth (root = level 0; depth 2 gives two expansion rounds).
    pub max_depth: usize,
    /// EM settings applied at every node.
    pub em: EmConfig,
    /// A topic with fewer links than this, or with none, is a leaf.
    pub min_links: usize,
    /// Expected-weight threshold for subnetwork extraction (§3.2.1 uses 1).
    pub subnet_threshold: f64,
}

impl Default for CathyConfig {
    fn default() -> Self {
        Self {
            children: ChildCount::Fixed(4),
            max_depth: 2,
            em: EmConfig::default(),
            min_links: 30,
            subnet_threshold: 1.0,
        }
    }
}

/// One topic in a constructed hierarchy.
#[derive(Debug, Clone)]
pub struct HierTopic {
    /// Parent topic index (`None` for the root).
    pub parent: Option<usize>,
    /// Child topic indices.
    pub children: Vec<usize>,
    /// Depth (root = 0).
    pub level: usize,
    /// Path notation `o/1/2`.
    pub path: String,
    /// Ranking distribution per node type (`phi[x][i]`; empty at the root,
    /// where global importance is the parent distribution).
    pub phi: Vec<Vec<f64>>,
    /// The topic's share of its parent's links (`ρ`; 1.0 at the root).
    pub rho: f64,
}

/// A constructed multi-typed topical hierarchy. It owns one network, the
/// root's: a child's expected-weight subnetwork (§3.2.1) exists only as
/// the flattened links ([`EdgeState`]) the recursion expands it from,
/// dropped once it is expanded.
#[derive(Debug, Clone)]
pub struct TopicHierarchy {
    /// The root's input network; its `type_names` are the hierarchy's.
    pub network: TypedNetwork,
    /// Topics; index 0 is the root.
    pub topics: Vec<HierTopic>,
    /// Per-topic fitted EM models for internal nodes (index-aligned with
    /// `topics`; `None` for leaves and unexpanded nodes). A fit's `alpha`
    /// holds the link-type weights its topic was expanded with.
    pub fits: Vec<Option<EmFit>>,
}

/// Convergence budget for an incremental update refit ([`TopicHierarchy::update`]).
/// Warm starts converge in far fewer iterations than cold fits, so the
/// budget is deliberately separate from [`EmConfig::iters`]/[`EmConfig::tol`]
/// (the CLI surfaces it as `--update-iters` / `--update-tol`).
#[derive(Debug, Clone, Copy)]
pub struct UpdateBudget {
    /// Upper bound on warm EM iterations per topic.
    pub iters: usize,
    /// Relative-improvement early-exit tolerance (0 disables).
    pub tol: f64,
}

impl Default for UpdateBudget {
    fn default() -> Self {
        Self {
            iters: 30,
            tol: 1e-5,
        }
    }
}

/// Concatenates `base`'s blocks with `delta`'s over `delta`'s (enlarged)
/// node space; [`EdgeState::append_delta`] refuses a delta that shrinks
/// it. Duplicate `(i, j)` pairs across the two networks are kept
/// as separate links — the Poisson objective treats `w1·ln s + w2·ln s`
/// and `(w1+w2)·ln s` identically, and keeping them separate preserves
/// the append-only edge order the determinism contract relies on.
fn merge_networks(base: &TypedNetwork, delta: &TypedNetwork) -> Result<TypedNetwork, HierError> {
    if base.type_names != delta.type_names {
        return Err(HierError::InvalidConfig(format!(
            "delta network types {:?} do not match base types {:?}",
            delta.type_names, base.type_names
        )));
    }
    let mut merged = TypedNetwork::new(delta.type_names.clone(), delta.node_counts.clone());
    merged.blocks.extend(base.blocks.iter().cloned());
    merged.blocks.extend(delta.blocks.iter().cloned());
    Ok(merged)
}

impl TopicHierarchy {
    /// Recursively constructs a hierarchy from a root network.
    pub fn construct(root_net: TypedNetwork, config: &CathyConfig) -> Result<Self, HierError> {
        if config.max_depth == 0 {
            return Err(HierError::InvalidConfig("max_depth must be >= 1".into()));
        }
        let root = EdgeState::new(&root_net);
        TopicHierarchy::rooted(root_net).grow(root, config, |h, node, state| {
            let k = match &config.children {
                ChildCount::Fixed(k) => *k,
                ChildCount::PerLevel(v) => *v.get(h.topics[node].level).or(v.last()).unwrap_or(&2),
                // The BIC sweep and the final fit share the topic's state.
                ChildCount::Auto { min, max } => {
                    select_k_prepared(state, *min..=*max, &config.em)?.0
                }
            };
            if k < 1 {
                return Ok(None);
            }
            let em_cfg = EmConfig {
                k,
                ..config.em.clone()
            };
            CathyHinEm::fit_prepared(state, &em_cfg).map(Some)
        })
    }

    /// Incrementally refits a hierarchy after documents were appended:
    /// the delta network's edges are folded into the base root's flatten
    /// via [`EdgeState::append_delta`] (no rebuild) and every expanded
    /// topic is re-fit with [`CathyHinEm::fit_warm`] under `budget`,
    /// seeded from the base fit.
    ///
    /// The tree *shape* follows the base: each topic keeps its base `k`
    /// (no BIC re-selection — [`ChildCount::Auto`] is resolved by the base
    /// fit), and a base-expanded topic whose refreshed links fall under
    /// `min_links` becomes a leaf. Children are re-extracted from the
    /// updated parent's links by expected weight, exactly as
    /// [`TopicHierarchy::construct`] does. Of `base` this reads the
    /// network, the fits and the tree shape, all of which a `.lesm`
    /// artifact stores, so a decoded base updates to the same bits as
    /// the in-memory base it was saved from.
    ///
    /// Determinism: no RNG is consumed anywhere on this path (warm fits
    /// are single continuations), and the root edge order is the base
    /// flatten followed by the delta edges — a pure function of the
    /// (base hierarchy, delta network) pair. The same base + the same
    /// update sequence therefore produces bit-identical hierarchies,
    /// regardless of thread count or process restarts.
    pub fn update(
        base: &TopicHierarchy,
        root_delta: &TypedNetwork,
        config: &CathyConfig,
        budget: &UpdateBudget,
    ) -> Result<Self, HierError> {
        if base.topics.is_empty() {
            return Err(HierError::InvalidConfig("base hierarchy is empty".into()));
        }
        let merged = merge_networks(&base.network, root_delta)?;
        // The root extends the base flatten with the delta edges instead
        // of re-flattening the merged network.
        let mut root = EdgeState::new(&base.network);
        root.append_delta(root_delta)?;
        TopicHierarchy::rooted(merged).grow(root, config, |h, node, state| {
            // Only topics the base expanded are re-expanded; their k is
            // pinned by the base fit.
            let prev = h.same_place(node, base);
            let Some(prev) = prev.and_then(|b| base.fits.get(b)?.as_ref()) else {
                return Ok(None);
            };
            let em_cfg = EmConfig {
                k: prev.k,
                iters: budget.iters,
                tol: budget.tol,
                ..config.em.clone()
            };
            CathyHinEm::fit_warm(state, &em_cfg, prev).map(Some)
        })
    }

    /// Expands the hierarchy level by level from the root, whose links are
    /// `root`: `fit_topic(self, topic, links)` fits one topic, or returns
    /// `None` to leave it a leaf. A topic with fewer than
    /// `max(min_links, 1)` links is a leaf, and so is every topic at
    /// `max_depth`. Each child's links are its expected-weight share of
    /// its parent's ([`EdgeState::children`]), held only until the child
    /// is expanded.
    fn grow(
        mut self,
        root: EdgeState,
        config: &CathyConfig,
        mut fit_topic: impl FnMut(&Self, usize, &EdgeState) -> Result<Option<EmFit>, HierError>,
    ) -> Result<Self, HierError> {
        let mut frontier = vec![(0, root)];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (node, state) in frontier {
                if state.num_links() < config.min_links.max(1) {
                    continue;
                }
                let Some(fit) = fit_topic(&self, node, &state)? else {
                    continue;
                };
                let children = if self.topics[node].level + 1 < config.max_depth {
                    state.children(&fit, config.subnet_threshold)
                } else {
                    Vec::new()
                };
                next.extend(self.attach_children(node, fit).zip(children));
            }
            frontier = next;
        }
        Ok(self)
    }

    /// The topic of `other` at the place topic `t` has in this hierarchy:
    /// the same child position at every level below the root.
    fn same_place(&self, t: usize, other: &TopicHierarchy) -> Option<usize> {
        let Some(parent) = self.topics[t].parent else {
            return Some(0);
        };
        let z = self.topics[parent].children.iter().position(|&c| c == t)?;
        let at = self.same_place(parent, other)?;
        other.topics[at].children.get(z).copied()
    }

    /// A one-topic hierarchy over `root_net`, with the network's
    /// normalized weighted degrees as the root's global importance.
    fn rooted(root_net: TypedNetwork) -> Self {
        TopicHierarchy {
            topics: vec![HierTopic {
                parent: None,
                children: vec![],
                level: 0,
                path: "o".into(),
                phi: parent_importance(root_net.weighted_degrees()),
                rho: 1.0,
            }],
            network: root_net,
            fits: vec![None],
        }
    }

    /// Expands `node` with `fit`: appends one child per subtopic, owning
    /// the subtopic's ranking distributions and share, then stores the fit
    /// on `node`. Returns the new children's indices in subtopic order.
    fn attach_children(&mut self, node: usize, fit: EmFit) -> std::ops::Range<usize> {
        let first = self.topics.len();
        let level = self.topics[node].level + 1;
        for z in 0..fit.k {
            let child_idx = self.topics.len();
            self.topics.push(HierTopic {
                parent: Some(node),
                children: vec![],
                level,
                path: format!("{}/{}", self.topics[node].path, z + 1),
                phi: fit.phi.iter().map(|by_z| by_z[z].clone()).collect(),
                rho: fit.rho[z + 1],
            });
            self.fits.push(None);
            self.topics[node].children.push(child_idx);
        }
        self.fits[node] = Some(fit);
        first..self.topics.len()
    }

    /// Number of topics (including the root).
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Whether the hierarchy is empty (never true after `construct`).
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Indices of leaf topics.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.topics.len())
            .filter(|&t| self.topics[t].children.is_empty())
            .collect()
    }

    /// Top `n` nodes of type `x` in topic `t`. `total_cmp` keeps the sort
    /// panic-free even for NaN scores (DESIGN.md §10); non-NaN inputs
    /// order exactly as before.
    pub fn top_nodes(&self, t: usize, x: usize, n: usize) -> Vec<(u32, f64)> {
        let mut idx: Vec<(u32, f64)> = self.topics[t].phi[x]
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, p))
            .collect();
        idx.sort_by(|a, b| b.1.total_cmp(&a.1));
        idx.truncate(n);
        idx
    }

    /// Root-to-node path indices (root first).
    pub fn path_nodes(&self, t: usize) -> Vec<usize> {
        let mut out = vec![t];
        let mut cur = t;
        while let Some(p) = self.topics[cur].parent {
            out.push(p);
            cur = p;
        }
        out.reverse();
        out
    }

    /// Siblings of `t` (children of its parent excluding `t`).
    pub fn siblings(&self, t: usize) -> Vec<usize> {
        match self.topics[t].parent {
            None => vec![],
            Some(p) => self.topics[p]
                .children
                .iter()
                .copied()
                .filter(|&c| c != t)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::WeightMode;
    use lesm_net::NetworkBuilder;

    /// 2x2 nested communities: terms 0-7 and 8-15; within each, two
    /// sub-blocks of 4.
    fn nested_network() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["term".into()], vec![16]);
        for blk in [0u32, 4, 8, 12] {
            for i in blk..blk + 4 {
                for j in (i + 1)..blk + 4 {
                    b.add(0, i, 0, j, 20.0);
                }
            }
        }
        // Weak intra-supergroup ties.
        for (a, bnode) in [(0u32, 4u32), (1, 5), (8, 12), (9, 13)] {
            b.add(0, a, 0, bnode, 6.0);
        }
        // Very weak cross-supergroup tie.
        b.add(0, 7, 0, 8, 1.0);
        b.build()
    }

    fn config() -> CathyConfig {
        CathyConfig {
            children: ChildCount::Fixed(2),
            max_depth: 2,
            em: EmConfig {
                iters: 150,
                restarts: 4,
                seed: 3,
                background: false,
                weights: WeightMode::Equal,
                ..EmConfig::default()
            },
            min_links: 4,
            subnet_threshold: 0.5,
        }
    }

    #[test]
    fn constructs_two_levels() {
        let h = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        assert_eq!(h.topics[0].children.len(), 2);
        assert!(h.len() >= 3);
        // Level-1 topics should separate the supergroups.
        let c0 = h.topics[0].children[0];
        let c1 = h.topics[0].children[1];
        let mass_low_c0: f64 = h.topics[c0].phi[0][..8].iter().sum();
        let mass_low_c1: f64 = h.topics[c1].phi[0][..8].iter().sum();
        assert!(
            (mass_low_c0 > 0.85) != (mass_low_c1 > 0.85),
            "level-1 split failed: {mass_low_c0:.2} vs {mass_low_c1:.2}"
        );
        // Paths follow the o/i/j convention.
        assert_eq!(h.topics[c0].path, "o/1");
        for &g in &h.topics[c0].children {
            assert!(h.topics[g].path.starts_with("o/1/"));
            assert_eq!(h.topics[g].level, 2);
        }
    }

    #[test]
    fn path_and_siblings() {
        let h = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        let c0 = h.topics[0].children[0];
        if let Some(&g) = h.topics[c0].children.first() {
            assert_eq!(h.path_nodes(g), vec![0, c0, g]);
            assert_eq!(h.siblings(g).len(), h.topics[c0].children.len() - 1);
        }
        assert!(h.siblings(0).is_empty());
    }

    #[test]
    fn rho_shares_sum_to_at_most_one() {
        let h = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        let s: f64 = h.topics[0].children.iter().map(|&c| h.topics[c].rho).sum();
        assert!(s <= 1.0 + 1e-9);
        assert!(s > 0.5, "children should own most links, got {s}");
    }

    #[test]
    fn min_links_stops_recursion() {
        let mut cfg = config();
        cfg.min_links = 10_000;
        let h = TopicHierarchy::construct(nested_network(), &cfg).unwrap();
        assert_eq!(h.len(), 1, "root too small to expand");
    }

    #[test]
    fn zero_depth_rejected() {
        let mut cfg = config();
        cfg.max_depth = 0;
        assert!(TopicHierarchy::construct(nested_network(), &cfg).is_err());
    }

    /// A small delta for [`nested_network`]: one new term (id 16) joining
    /// the first sub-block plus a reinforcing edge among existing nodes.
    fn nested_delta() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["term".into()], vec![17]);
        b.add(0, 16, 0, 0, 15.0);
        b.add(0, 16, 0, 1, 15.0);
        b.add(0, 16, 0, 2, 10.0);
        b.add(0, 0, 0, 1, 5.0);
        b.build()
    }

    #[test]
    fn update_follows_base_shape_and_covers_new_nodes() {
        let base = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        let budget = UpdateBudget {
            iters: 25,
            tol: 1e-6,
        };
        let up = TopicHierarchy::update(&base, &nested_delta(), &config(), &budget).unwrap();
        // Same tree shape: k is pinned per topic by the base fits.
        assert_eq!(up.len(), base.len());
        for (t, bt) in up.topics.iter().zip(&base.topics) {
            assert_eq!(
                t.children.len(),
                bt.children.len(),
                "shape drifted at {}",
                t.path
            );
            assert_eq!(t.path, bt.path);
        }
        // The enlarged node space is visible at every updated topic.
        assert_eq!(up.topics[0].phi[0].len(), 17);
        let c0 = up.topics[0].children[0];
        assert_eq!(up.topics[c0].phi[0].len(), 17);
        // The new term carries meaningful mass in whichever level-1 topic
        // owns the low supergroup.
        let c1 = up.topics[0].children[1];
        let low = if up.topics[c0].phi[0][..8].iter().sum::<f64>()
            > up.topics[c1].phi[0][..8].iter().sum::<f64>()
        {
            c0
        } else {
            c1
        };
        assert!(
            up.topics[low].phi[0][16] > 1e-4,
            "new node got no mass: {}",
            up.topics[low].phi[0][16]
        );
    }

    #[test]
    fn update_is_bit_deterministic() {
        let base = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        let budget = UpdateBudget::default();
        let a = TopicHierarchy::update(&base, &nested_delta(), &config(), &budget).unwrap();
        let b = TopicHierarchy::update(&base, &nested_delta(), &config(), &budget).unwrap();
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.topics.iter().zip(&b.topics) {
            assert_eq!(ta.phi, tb.phi);
            assert_eq!(ta.rho.to_bits(), tb.rho.to_bits());
        }
        // Thread count must not change the bits either (lesm-par contract).
        let mut cfg4 = config();
        cfg4.em.threads = 4;
        let c = TopicHierarchy::update(&base, &nested_delta(), &cfg4, &budget).unwrap();
        for (ta, tc) in a.topics.iter().zip(&c.topics) {
            assert_eq!(ta.phi, tc.phi);
        }
    }

    #[test]
    fn update_rejects_mismatched_delta() {
        let base = TopicHierarchy::construct(nested_network(), &config()).unwrap();
        let budget = UpdateBudget::default();
        let wrong_type = NetworkBuilder::new(vec!["author".into()], vec![17]).build();
        assert!(TopicHierarchy::update(&base, &wrong_type, &config(), &budget).is_err());
        let shrunk = NetworkBuilder::new(vec!["term".into()], vec![4]).build();
        assert!(TopicHierarchy::update(&base, &shrunk, &config(), &budget).is_err());
    }

    /// Two 3-cliques joined by a bridge: split nine ways, some children
    /// receive no link above the threshold.
    fn bridged_cliques() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["term".into()], vec![6]);
        for group in [0u32, 3] {
            for i in group..group + 3 {
                for j in (i + 1)..group + 3 {
                    b.add(0, i, 0, j, 8.0);
                }
            }
        }
        b.add(0, 2, 0, 3, 1.0);
        b.build()
    }

    #[test]
    fn a_topic_without_links_is_a_leaf_in_construct_and_update() {
        let cfg = CathyConfig {
            children: ChildCount::Fixed(9),
            min_links: 0,
            subnet_threshold: 0.5,
            ..config()
        };
        let net = bridged_cliques();
        let h = TopicHierarchy::construct(net.clone(), &cfg).unwrap();
        let Some(root_fit) = &h.fits[0] else {
            panic!("the root was not expanded");
        };
        let children = EdgeState::new(&net).children(root_fit, cfg.subnet_threshold);
        assert!(children.iter().any(|c| c.num_links() == 0));
        assert!(children.iter().any(|c| c.num_links() > 0));
        for (&c, state) in h.topics[0].children.iter().zip(&children) {
            let path = &h.topics[c].path;
            assert_eq!(h.fits[c].is_some(), state.num_links() > 0, "{path}");
        }
        let no_delta = NetworkBuilder::new(vec!["term".into()], vec![6]).build();
        let up = TopicHierarchy::update(&h, &no_delta, &cfg, &UpdateBudget::default()).unwrap();
        assert_eq!(up.len(), h.len());
        for (a, b) in up.fits.iter().zip(&h.fits) {
            assert_eq!(a.is_some(), b.is_some());
        }
    }

    /// The update root is the base flatten with the delta appended, not a
    /// flatten of the merged network, yet its children are the merged
    /// network's, field for field (`{:?}` prints each `f64` in its
    /// shortest round-trip form, so equal text means equal bits).
    #[test]
    fn children_of_an_appended_root_equal_the_merged_networks() {
        let mut root = EdgeState::new(&nested_network());
        root.append_delta(&nested_delta()).unwrap();
        let merged = merge_networks(&nested_network(), &nested_delta()).unwrap();
        let merged = EdgeState::new(&merged);
        for background in [false, true] {
            let em = EmConfig {
                k: 3,
                background,
                ..config().em
            };
            let fit = CathyHinEm::fit_prepared(&root, &em).unwrap();
            for threshold in [0.0, 0.5, 1.0] {
                let got = root.children(&fit, threshold);
                let want = merged.children(&fit, threshold);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{threshold}");
            }
        }
    }

    /// One construct (k 4, depth 3) and one update each flatten exactly
    /// one network, the root's; every other topic's links are expanded
    /// from its parent's.
    #[test]
    fn construct_and_update_flatten_only_the_root() {
        let cfg = CathyConfig {
            children: ChildCount::Fixed(4),
            max_depth: 3,
            min_links: 1,
            subnet_threshold: 0.1,
            ..config()
        };
        let before = EdgeState::flattens_on_this_thread();
        let h = TopicHierarchy::construct(nested_network(), &cfg).unwrap();
        assert_eq!(EdgeState::flattens_on_this_thread() - before, 1);
        assert!(h.topics.iter().any(|t| t.level == 3), "depth 3 not reached");
        let before = EdgeState::flattens_on_this_thread();
        let budget = UpdateBudget::default();
        let up = TopicHierarchy::update(&h, &nested_delta(), &cfg, &budget).unwrap();
        assert_eq!(EdgeState::flattens_on_this_thread() - before, 1);
        assert!(
            up.topics.iter().any(|t| t.level == 3),
            "depth 3 not reached"
        );
    }

    #[test]
    fn corpus_constructors_work() {
        let mut corpus = lesm_corpus::Corpus::new();
        let author = corpus.entities.add_type("author");
        for i in 0..40 {
            let d = if i % 2 == 0 {
                corpus.push_text("query database index storage engine")
            } else {
                corpus.push_text("ranking retrieval search relevance feedback")
            };
            corpus
                .link_entity(d, author, if i % 2 == 0 { "alice" } else { "bob" })
                .unwrap();
        }
        let mut cfg = config();
        cfg.max_depth = 1;
        cfg.min_links = 4;
        let text =
            TopicHierarchy::construct(lesm_net::co_occurrence_network(&corpus), &cfg).unwrap();
        assert_eq!(text.network.type_names, vec!["term"]);
        assert_eq!(text.topics[0].children.len(), 2);
        let hin = TopicHierarchy::construct(lesm_net::collapsed_network(&corpus), &cfg).unwrap();
        assert_eq!(hin.network.type_names, vec!["author", "term"]);
        assert_eq!(hin.topics[0].children.len(), 2);
        // The HIN variant ranks authors: each child topic's top author is
        // the theme's dedicated author.
        let c0 = hin.topics[0].children[0];
        let top_author = hin.top_nodes(c0, 0, 1)[0].0;
        assert!(top_author <= 1);
    }
}
