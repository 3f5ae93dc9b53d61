//! Property-based tests for CATHY/CATHYHIN inference invariants.

use lesm_hier::em::{ln_gamma, CathyHinEm, EdgeState, EmConfig, EmFit, WeightMode};
use lesm_net::{LinkBlock, NetworkBuilder, TypedNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random small two-type network guaranteed non-empty.
fn random_network() -> impl Strategy<Value = lesm_net::TypedNetwork> {
    (
        proptest::collection::vec((0u32..6, 0u32..6, 1.0f64..8.0), 1..30),
        proptest::collection::vec((0u32..4, 0u32..6, 1.0f64..5.0), 0..20),
    )
        .prop_map(|(tt, at)| {
            let mut b = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![4, 6]);
            for (i, j, w) in tt {
                b.add(1, i, 1, j, w);
            }
            for (a, t, w) in at {
                b.add(0, a, 1, t, w);
            }
            b.build()
        })
}

/// Like [`random_network`], but built block by block instead of through
/// `NetworkBuilder`, so it keeps duplicate links and self-loops as given
/// and always links term 5 (the node [`random_fit`] gives no mass).
fn raw_network() -> impl Strategy<Value = TypedNetwork> {
    (
        proptest::collection::vec((0u32..6, 0u32..6, 0.1f64..8.0), 0..30),
        proptest::collection::vec((0u32..4, 0u32..6, 0.1f64..5.0), 0..20),
        proptest::collection::vec((0u32..6, 0.1f64..3.0), 1..4),
    )
        .prop_map(|(tt, at, loops)| {
            let mut net = TypedNetwork::new(vec!["author".into(), "term".into()], vec![4, 6]);
            let mut at: Vec<(u32, u32, f64)> = at;
            at.push((0, 5, 2.0));
            let mut tt: Vec<(u32, u32, f64)> = tt;
            tt.push((5, 1, 3.0));
            tt.extend(loops.into_iter().map(|(i, w)| (i, i, w)));
            net.blocks.push(LinkBlock {
                tx: 0,
                ty: 1,
                edges: at,
            });
            net.blocks.push(LinkBlock {
                tx: 1,
                ty: 1,
                edges: tt,
            });
            net
        })
}

/// A value for one fit parameter: exactly 0 when `zero` is set or with
/// probability 1/4, otherwise uniform in (0, 1).
fn draw(rng: &mut StdRng, zero: bool) -> f64 {
    if zero || rng.gen_range(0u32..4) == 0 {
        0.0
    } else {
        rng.gen_range(0.0f64..1.0)
    }
}

/// A fit over [`raw_network`]'s node space with arbitrary parameters.
/// Term 5 has no mass in any subtopic, the background, or the parent
/// importance, so every link touching it has a posterior total of 0.
/// Without `background`, `rho[0]` is 0.
fn random_fit(k: usize, background: bool, seed: u64) -> EmFit {
    let mut rng = StdRng::seed_from_u64(seed);
    let counts = [4usize, 6];
    let per_node = |rng: &mut StdRng, on: bool| -> Vec<Vec<f64>> {
        (0..2)
            .map(|x| {
                (0..counts[x])
                    .map(|i| draw(rng, !on || (x == 1 && i == 5)))
                    .collect()
            })
            .collect()
    };
    let phi_t = (0..k).map(|_| per_node(&mut rng, true)).collect::<Vec<_>>();
    let phi = (0..2)
        .map(|x| phi_t.iter().map(|by_x| by_x[x].clone()).collect())
        .collect();
    let parent_phi = Arc::new(per_node(&mut rng, true));
    let mut rho = vec![if background {
        draw(&mut rng, false)
    } else {
        0.0
    }];
    rho.extend((0..k).map(|_| draw(&mut rng, false)));
    EmFit {
        k,
        phi,
        background,
        rho,
        alpha: vec![1.0; 4],
        theta: vec![0.25; 4],
        objective: 0.0,
        parent_phi,
    }
}

/// The per-subtopic subnetwork extraction the one-pass child expansion
/// replaced, kept as its oracle: the posterior of every link is recomputed
/// (into a fresh `Vec`) for each subtopic `z`.
fn subnetwork_per_z(fit: &EmFit, net: &TypedNetwork, z: usize, threshold: f64) -> TypedNetwork {
    let mut out = TypedNetwork::new(net.type_names.clone(), net.node_counts.clone());
    for blk in &net.blocks {
        let mut edges = Vec::new();
        for &(i, j, w) in &blk.edges {
            let (tx, ty, i, j) = (blk.tx, blk.ty, i as usize, j as usize);
            let mut q = vec![0.0; fit.k + 1];
            let mut total = 0.0;
            for z in 0..fit.k {
                let v = fit.rho[z + 1] * fit.phi[tx][z][i] * fit.phi[ty][z][j];
                q[z + 1] = v;
                total += v;
            }
            if fit.background {
                // The background `φ0` is the parent importance.
                let (pi, pj) = (fit.parent_phi[tx][i], fit.parent_phi[ty][j]);
                let v = 0.5 * fit.rho[0] * (pi * pj + pj * pi);
                q[0] = v;
                total += v;
            }
            if total > 0.0 {
                for v in &mut q {
                    *v /= total;
                }
            }
            let ew = w * q[z + 1];
            if ew >= threshold {
                edges.push((i as u32, j as u32, ew));
            }
        }
        if !edges.is_empty() {
            out.blocks.push(LinkBlock {
                tx: blk.tx,
                ty: blk.ty,
                edges,
            });
        }
    }
    out
}

/// The Poisson log-likelihood pass `run_em` ran after every EM run until
/// [`EmFit::loglik`] replaced it, kept as its oracle: the same per-link
/// arithmetic over the same flattened edge order (blocks in order, edges
/// in block order), summed in the same 16 fixed chunks.
fn loglik_inline_pass(net: &TypedNetwork, fit: &EmFit, background: bool) -> f64 {
    let t = net.num_types();
    let k = fit.k;
    let edges: Vec<(usize, usize, u32, u32, f64)> = net
        .blocks
        .iter()
        .flat_map(|b| b.edges.iter().map(move |&(i, j, w)| (b.tx, b.ty, i, j, w)))
        .collect();
    let n_edges = edges.len();
    let scaled: Vec<f64> = edges
        .iter()
        .map(|&(tx, ty, _, _, w)| fit.alpha[tx * t + ty] * w)
        .collect();
    let m_total: f64 = scaled.iter().sum();
    let ln_gamma_table: Vec<f64> = (0..64).map(|i| ln_gamma(i as f64 + 1.0)).collect();
    let ln_gamma_memo = |w: f64| {
        let wi = w as usize;
        if wi < 63 && wi as f64 == w {
            ln_gamma_table[wi]
        } else {
            ln_gamma(w + 1.0)
        }
    };
    // The background `φ0` is the parent importance.
    let (rho, phi, parent) = (&fit.rho, &fit.phi, &fit.parent_phi);
    let mut ll = [0.0f64];
    lesm_par::par_buffer_reduce_with(
        &mut lesm_par::ReduceScratch::new(),
        n_edges,
        lesm_par::grain_for_pieces(n_edges, 16),
        1,
        lesm_par::WorkHint::items(n_edges, 2 * k + 8),
        &mut ll,
        |range, buf| {
            for e in range {
                let (tx, ty, i, j, _) = edges[e];
                let (i, j) = (i as usize, j as usize);
                let w = scaled[e];
                let mut s = 0.0;
                for z in 0..k {
                    s += rho[z + 1] * phi[tx][z][i] * phi[ty][z][j];
                }
                if background {
                    s += 0.5
                        * rho[0]
                        * (parent[tx][i] * parent[ty][j] + parent[ty][j] * parent[tx][i]);
                }
                let lambda = m_total * fit.theta[tx * t + ty] * s;
                if lambda > 0.0 {
                    buf[0] += w * lambda.ln() - ln_gamma_memo(w);
                }
            }
        },
    );
    -m_total + ll[0]
}

/// Checks the child states [`EdgeState::children`] expands from `net`'s
/// flatten against the flatten of each per-`z` oracle network, at
/// thresholds 0, 0.5 and 1, field for field: `{:?}` prints every field of
/// a state, each `f64` in its shortest round-trip form, so equal text
/// means equal bits.
fn check_children(fit: &EmFit, net: &TypedNetwork) -> Result<(), String> {
    let parent = EdgeState::new(net);
    for threshold in [0.0, 0.5, 1.0] {
        let children = parent.children(fit, threshold);
        if children.len() != fit.k {
            return Err(format!("{} children for k = {}", children.len(), fit.k));
        }
        for (z, child) in children.iter().enumerate() {
            let oracle = EdgeState::new(&subnetwork_per_z(fit, net, z, threshold));
            if format!("{child:?}") != format!("{oracle:?}") {
                return Err(format!("child {z} at threshold {threshold} differs"));
            }
        }
    }
    Ok(())
}

/// The two networks of `em.rs`'s `golden_matches_seed_implementation`:
/// two 4-cliques of terms joined by a weak bridge, then the same with two
/// authors attached to each clique.
fn golden_networks() -> [TypedNetwork; 2] {
    let mut text = NetworkBuilder::new(vec!["term".into()], vec![8]);
    let mut hin = NetworkBuilder::new(vec!["author".into(), "term".into()], vec![4, 8]);
    for grp in [0u32, 4] {
        for i in grp..grp + 4 {
            for j in (i + 1)..grp + 4 {
                text.add(0, i, 0, j, 10.0);
                hin.add(1, i, 1, j, 10.0);
            }
        }
    }
    text.add(0, 3, 0, 4, 1.0);
    for t in 0..4u32 {
        hin.add(0, 0, 1, t, 6.0);
        hin.add(0, 1, 1, t, 6.0);
        hin.add(0, 2, 1, t + 4, 6.0);
        hin.add(0, 3, 1, t + 4, 6.0);
    }
    hin.add(1, 3, 1, 4, 1.0);
    [text.build(), hin.build()]
}

#[test]
fn loglik_matches_the_inline_pass_on_the_golden_networks() {
    for (net, bg) in golden_networks().into_iter().zip([false, true]) {
        let cfg = EmConfig {
            k: 2,
            iters: 150,
            restarts: 3,
            seed: 7,
            background: bg,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let got = fit.loglik(&EdgeState::new(&net), &cfg);
        assert_eq!(
            got.to_bits(),
            loglik_inline_pass(&net, &fit, bg).to_bits(),
            "background {bg}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn subnetworks_match_per_subtopic_extraction_on_arbitrary_fits(
        net in raw_network(),
        k in 1usize..6,
        bg in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let fit = random_fit(k, bg, seed);
        let checked = check_children(&fit, &net);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn subnetworks_match_per_subtopic_extraction_on_em_fits(
        net in raw_network(),
        k in 1usize..6,
        bg in proptest::bool::ANY,
    ) {
        // k = 4 and 5 run the monomorphized E-step, the others the generic one.
        let cfg = EmConfig {
            k, iters: 15, restarts: 1, seed: 5,
            background: bg, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let checked = check_children(&fit, &net);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn em_outputs_are_distributions(net in random_network(), k in 1usize..4, bg in proptest::bool::ANY) {
        let cfg = EmConfig {
            k,
            iters: 40,
            restarts: 1,
            seed: 9,
            background: bg,
            weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let rho_sum: f64 = fit.rho.iter().sum();
        prop_assert!((rho_sum - 1.0).abs() < 1e-8, "rho sums to {rho_sum}");
        prop_assert!(fit.rho.iter().all(|&r| r >= 0.0));
        if !bg {
            prop_assert!(fit.rho[0] < 1e-12);
        }
        for x in 0..2 {
            for z in 0..k {
                let s: f64 = fit.phi[x][z].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8 || s.abs() < 1e-8, "phi[{x}][{z}] = {s}");
                prop_assert!(fit.phi[x][z].iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn link_posteriors_sum_to_one_on_observed_links(net in random_network(), k in 1usize..4) {
        let cfg = EmConfig {
            k, iters: 30, restarts: 1, seed: 4,
            background: true, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        for blk in &net.blocks {
            for &(i, j, _) in blk.edges.iter().take(5) {
                let q = fit.link_posterior(blk.tx, i, blk.ty, j);
                let s: f64 = q.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8, "posterior sums to {s}");
                prop_assert!(q.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn subnetworks_never_exceed_parent_weight(net in random_network(), k in 2usize..4) {
        let cfg = EmConfig {
            k, iters: 30, restarts: 1, seed: 2,
            background: false, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let parent_w = net.total_weight();
        let mut child_total = 0.0;
        for sub in EdgeState::new(&net).children(&fit, 0.0) {
            let w = sub.total_weight();
            prop_assert!(w <= parent_w + 1e-6);
            child_total += w;
        }
        // With threshold 0 and no background, children partition the weight.
        prop_assert!((child_total - parent_w).abs() < 1e-6, "{child_total} vs {parent_w}");
    }

    #[test]
    fn learned_weights_respect_geometric_mean_constraint(net in random_network()) {
        let cfg = EmConfig {
            k: 2, iters: 30, restarts: 1, seed: 6,
            background: true, weights: WeightMode::Learned, weight_rounds: 2,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let t = net.num_types();
        let mut log_sum = 0.0;
        for blk in &net.blocks {
            let tp = blk.tx * t + blk.ty;
            log_sum += blk.len() as f64 * fit.alpha[tp].max(1e-300).ln();
        }
        prop_assert!(log_sum.abs() < 1e-6, "Π α^n != 1: log sum {log_sum}");
        prop_assert!(fit.alpha.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn em_objective_is_nondecreasing(net in random_network(), k in 1usize..4, bg in proptest::bool::ANY) {
        // The auxiliary-function argument after eq. 3.17: every EM
        // iteration can only improve the surrogate objective. With one
        // restart and equal weights the run of budget n is a prefix of the
        // run of budget n + 1, so the final objectives over budgets 1..=25
        // are one run's per-iteration objectives.
        let state = EdgeState::new(&net);
        let trace: Vec<f64> = (1..=25)
            .map(|iters| {
                let cfg = EmConfig {
                    k, iters, restarts: 1, seed: 8,
                    background: bg, weights: WeightMode::Equal, tol: 0.0,
                    ..EmConfig::default()
                };
                CathyHinEm::fit_prepared(&state, &cfg).unwrap().objective
            })
            .collect();
        for w in trace.windows(2) {
            prop_assert!(
                w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "objective decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn parallel_em_is_bit_identical_to_serial(
        net in random_network(),
        k in 1usize..4,
        bg in proptest::bool::ANY,
        threads in 2usize..9,
    ) {
        // The tentpole determinism contract: for any thread count, the EM
        // fit (every learned distribution, the weights, and the exact
        // objective/likelihood floats) matches `threads: 1` bit for bit.
        let base = EmConfig {
            k, iters: 20, restarts: 2, seed: 11,
            background: bg, weights: WeightMode::Learned, weight_rounds: 2,
            ..EmConfig::default()
        };
        let serial = CathyHinEm::fit(&net, &base).unwrap();
        let par_cfg = EmConfig { threads, ..base.clone() };
        let par = CathyHinEm::fit(&net, &par_cfg).unwrap();
        prop_assert_eq!(&serial.rho, &par.rho);
        prop_assert_eq!(&serial.phi, &par.phi);
        prop_assert_eq!(&serial.alpha, &par.alpha);
        prop_assert_eq!(&serial.theta, &par.theta);
        prop_assert_eq!(serial.objective.to_bits(), par.objective.to_bits());
        // The likelihood pass splits its links over `threads` workers in
        // the same fixed chunks, so the thread count moves no bit either.
        let state = EdgeState::new(&net);
        let ll = serial.loglik(&state, &base);
        prop_assert_eq!(ll.to_bits(), par.loglik(&state, &par_cfg).to_bits());
        prop_assert_eq!(ll.to_bits(), serial.loglik(&state, &par_cfg).to_bits());
    }

    #[test]
    fn loglik_matches_the_inline_pass_it_replaced(
        net in random_network(),
        k in 1usize..6,
        bg in proptest::bool::ANY,
        learned in proptest::bool::ANY,
        threads in 1usize..5,
    ) {
        let cfg = EmConfig {
            k, iters: 12, restarts: 2, seed: 13,
            background: bg,
            weights: if learned { WeightMode::Learned } else { WeightMode::Normalized },
            weight_rounds: 2,
            threads,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let got = fit.loglik(&EdgeState::new(&net), &cfg);
        prop_assert_eq!(got.to_bits(), loglik_inline_pass(&net, &fit, bg).to_bits());
    }

    #[test]
    fn theta_is_a_distribution_over_type_pairs(net in random_network()) {
        let cfg = EmConfig {
            k: 2, iters: 10, restarts: 1, seed: 3,
            background: false, weights: WeightMode::Equal,
            ..EmConfig::default()
        };
        let fit = CathyHinEm::fit(&net, &cfg).unwrap();
        let s: f64 = fit.theta.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9, "theta sums to {s}");
    }
}
