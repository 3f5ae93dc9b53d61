//! Criterion micro-benches for the CATHYHIN EM (the Chapter-3 kernel):
//! per-fit cost across network sizes and weight modes, plus the learned-
//! weight ablation called out in DESIGN.md §5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lesm_bench::datasets::dblp_small;
use lesm_hier::em::{CathyHinEm, EdgeState, EmConfig, WeightMode};
use lesm_net::collapsed_network;

fn em_config(weights: WeightMode) -> EmConfig {
    EmConfig {
        k: 2,
        iters: 30,
        restarts: 1,
        seed: 5,
        background: true,
        weights,
        ..EmConfig::default()
    }
}

fn bench_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("cathyhin_em");
    group.sample_size(10);
    for &n_docs in &[200usize, 400, 800] {
        let papers = dblp_small(n_docs, 7);
        let net = collapsed_network(&papers.corpus);
        group.bench_with_input(BenchmarkId::new("fit_equal_30it", n_docs), &net, |b, net| {
            b.iter(|| CathyHinEm::fit(net, &em_config(WeightMode::Equal)).unwrap());
        });
    }
    let papers = dblp_small(400, 7);
    let net = collapsed_network(&papers.corpus);
    for (name, mode) in [
        ("equal", WeightMode::Equal),
        ("normalized", WeightMode::Normalized),
        ("learned", WeightMode::Learned),
    ] {
        group.bench_function(BenchmarkId::new("weight_mode", name), |b| {
            b.iter(|| CathyHinEm::fit(&net, &em_config(mode.clone())).unwrap());
        });
    }
    // 1-vs-N-thread scaling on the largest network (the perf-PR headline
    // number; outputs are bit-identical across the variants).
    let papers = dblp_small(800, 7);
    let net = collapsed_network(&papers.corpus);
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("fit_threads", threads), &threads, |b, &t| {
            b.iter(|| {
                CathyHinEm::fit(&net, &EmConfig { threads: t, ..em_config(WeightMode::Equal) })
                    .unwrap()
            });
        });
    }
    // BIC-sweep access pattern: repeated fits of the same network at
    // growing k against one shared EdgeState (what `select_k` does).
    let state = EdgeState::new(&net);
    for &k in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("fit_k", k), &k, |b, &k| {
            b.iter(|| {
                CathyHinEm::fit_prepared(&state, &EmConfig { k, ..em_config(WeightMode::Equal) })
                    .unwrap()
            });
        });
    }
    // Restarts at the CLI's k = 4: the restarts of a fit share one edge
    // pass, one lane each, so 4 restarts cost less than 4 fits of 1.
    for &restarts in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("restarts", restarts), &restarts, |b, &r| {
            b.iter(|| {
                CathyHinEm::fit_prepared(
                    &state,
                    &EmConfig { k: 4, restarts: r, ..em_config(WeightMode::Equal) },
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_em);
criterion_main!(benches);
