//! Model selection for the number of subtopics (§3.2.3).
//!
//! The dissertation recommends cross-validation, with BIC as the
//! small-network fallback. Every hierarchy here selects by BIC over the
//! full Poisson likelihood ([`crate::em::EmFit::loglik`]): `select_k` scans
//! a candidate range and returns the `k` minimizing the score.
//! Cross-validation is not implemented.

use crate::em::{CathyHinEm, EdgeState, EmConfig};
use crate::HierError;
use lesm_net::TypedNetwork;

/// The BIC score of a fit: `-2 ln L + |V| k ln |E|` (lower is better).
///
/// As in §3.2.3 only the `k`-dependent `|V| * k` part of the parameter
/// count enters.
pub fn bic_score(loglik: f64, total_nodes: usize, k: usize, n_links: usize) -> f64 {
    -2.0 * loglik + (total_nodes * k) as f64 * (n_links.max(2) as f64).ln()
}

/// Fits the model for every `k` in `k_range` and returns
/// `(best_k, scores)`, where `scores[i]` is the [`bic_score`] paired with
/// `k_range` in order.
///
/// Lower scores win. Ties break toward smaller `k` (cheaper browsing).
///
/// The network is flattened into an [`EdgeState`] exactly once; every
/// candidate `k` reuses it.
pub fn select_k(
    net: &TypedNetwork,
    k_range: std::ops::RangeInclusive<usize>,
    base: &EmConfig,
) -> Result<(usize, Vec<(usize, f64)>), HierError> {
    select_k_prepared(&EdgeState::new(net), k_range, base)
}

/// [`select_k`] against a pre-flattened [`EdgeState`] — lets callers that
/// already hold one (the hierarchy recursion) share it with the final fit.
pub fn select_k_prepared(
    state: &EdgeState,
    k_range: std::ops::RangeInclusive<usize>,
    base: &EmConfig,
) -> Result<(usize, Vec<(usize, f64)>), HierError> {
    let total_nodes = state.total_nodes();
    let n_links = state.num_links();
    let mut scores = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for k in k_range {
        if k == 0 {
            continue;
        }
        let cfg = EmConfig { k, ..base.clone() };
        let loglik = CathyHinEm::fit_prepared(state, &cfg)?.loglik(state, &cfg);
        let score = bic_score(loglik, total_nodes, k, n_links);
        scores.push((k, score));
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((k, score));
        }
    }
    let (best_k, _) = best.ok_or_else(|| HierError::InvalidConfig("empty k range".into()))?;
    Ok((best_k, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::WeightMode;
    use lesm_net::NetworkBuilder;

    /// Three clean communities.
    fn three_communities() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["term".into()], vec![12]);
        for grp in [0u32, 4, 8] {
            for i in grp..grp + 4 {
                for j in (i + 1)..grp + 4 {
                    b.add(0, i, 0, j, 12.0);
                }
            }
        }
        b.add(0, 3, 0, 4, 1.0);
        b.add(0, 7, 0, 8, 1.0);
        b.build()
    }

    #[test]
    fn bic_prefers_true_k() {
        let net = three_communities();
        let base = EmConfig {
            iters: 120,
            restarts: 3,
            seed: 11,
            background: false,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let (k, scores) = select_k(&net, 2..=5, &base).unwrap();
        assert_eq!(scores.len(), 4);
        assert!(
            (2..=4).contains(&k),
            "BIC should land near the true 3 communities, chose {k}: {scores:?}"
        );
    }

    /// Acceptance criterion: the whole k-sweep flattens the network
    /// exactly once (the counter is thread-local, so concurrent tests
    /// cannot perturb it).
    #[test]
    fn select_k_flattens_exactly_once() {
        let net = three_communities();
        let base = EmConfig {
            iters: 40,
            restarts: 1,
            background: false,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let before = EdgeState::flattens_on_this_thread();
        let _ = select_k(&net, 2..=5, &base).unwrap();
        assert_eq!(
            EdgeState::flattens_on_this_thread() - before,
            1,
            "select_k must flatten the network exactly once for the whole sweep"
        );
    }

    /// [`three_communities`] with an author pair attached to each
    /// community (unequal weights, one stray link).
    fn three_communities_hin() -> TypedNetwork {
        let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![6, 12]);
        for grp in [0u32, 4, 8] {
            for i in grp..grp + 4 {
                for j in (i + 1)..grp + 4 {
                    b.add(1, i, 1, j, 12.0);
                }
                b.add(0, grp / 2, 1, i, 6.0);
                b.add(0, grp / 2 + 1, 1, i, 3.0);
            }
        }
        b.add(1, 3, 1, 4, 1.0);
        b.add(1, 7, 1, 8, 2.0);
        b.add(0, 0, 1, 9, 1.0);
        b.build()
    }

    /// The selected k and every score, bit for bit, as recorded when the
    /// fit still carried its log-likelihood from the EM run: computing it
    /// only here moved none of them, for any thread count.
    #[test]
    fn selection_keeps_its_recorded_k_and_score_bits() {
        let text = EmConfig {
            iters: 60,
            restarts: 2,
            seed: 11,
            background: false,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let hin = EmConfig {
            iters: 60,
            restarts: 2,
            seed: 5,
            background: true,
            weights: WeightMode::Learned,
            weight_rounds: 2,
            ..EmConfig::default()
        };
        let recorded: [(TypedNetwork, &EmConfig, [u64; 5]); 2] = [
            (
                three_communities(),
                &text,
                [
                    0x408f94e9a6947acf,
                    0x40884e383931e02a,
                    0x40836f5337d02b23,
                    0x408488c0625e0f04,
                    0x4085ac18631c91c0,
                ],
            ),
            (
                three_communities_hin(),
                &hin,
                [
                    0x4090cfea9c56f485,
                    0x408792087e814403,
                    0x4079bb53246b67a9,
                    0x407d30c0e7c557f4,
                    0x4080ea281328f9c4,
                ],
            ),
        ];
        for (net, base, bits) in recorded {
            for threads in [1, 3] {
                let cfg = EmConfig {
                    threads,
                    ..base.clone()
                };
                let (k, scores) = select_k(&net, 1..=5, &cfg).unwrap();
                let got: Vec<(usize, u64)> =
                    scores.iter().map(|&(k, s)| (k, s.to_bits())).collect();
                let want: Vec<(usize, u64)> = (1..=5).zip(bits).collect();
                assert_eq!(
                    (k, got),
                    (3, want),
                    "BIC over {:?}, {threads} threads",
                    net.type_names
                );
            }
        }
    }

    #[test]
    fn bic_penalty_grows_with_k() {
        let b1 = bic_score(-100.0, 10, 2, 50);
        let b2 = bic_score(-100.0, 10, 4, 50);
        assert!(b2 > b1);
    }

    #[test]
    fn empty_range_is_error() {
        let net = three_communities();
        let base = EmConfig {
            background: false,
            ..EmConfig::default()
        };
        #[allow(clippy::reversed_empty_ranges)]
        let r = select_k(&net, 3..=2, &base);
        assert!(r.is_err());
    }
}
