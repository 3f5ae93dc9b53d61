//! Criterion micro-benches for the serving subsystem: cold snapshot-load
//! time of a v2 artifact (zero-copy map) at serving scale, and
//! end-to-end query latency over HTTP, cached vs uncached (the
//! DESIGN.md §9 numbers collected by `scripts/bench_smoke.sh` into
//! `BENCH_serve.json`).
//!
//! The cached-vs-uncached pairs double as correctness gates, for
//! `/search`, `/hierarchy`, and `POST /query` (the typed query engine,
//! cached under its target + body key) — a cache that is slower than
//! recomputing is a bug, not a tuning problem. The gate is two checks:
//!
//! - the cached server answered every timed request but the first per
//!   endpoint from its response cache (its `/metrics` counters);
//! - in-process, a hit through the response cache's `get_or_compute` takes
//!   at most half the median time of computing the response.
//!
//! The timing half runs in-process because a loopback round trip costs
//! about 60 µs on this model and differs by only a few µs of compute
//! between a hit and a miss, so host noise flipped the HTTP medians.

use criterion::{criterion_group, criterion_main, Criterion};
use lesm_bench::datasets::{dblp_small, replay_model};
use lesm_core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm_serve::client::{http_get, http_post, FetchedResponse};
use lesm_serve::http::Response;
use lesm_serve::metrics::Endpoint;
use lesm_serve::server::{Server, ServerConfig};
use lesm_serve::{save_snapshot_v2, MappedSnapshot, Model, ServerHandle, ShardedLruCache};
use std::net::SocketAddr;
use std::time::Duration;

fn snapshot_bytes() -> Vec<u8> {
    let papers = dblp_small(400, 7);
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    save_snapshot_v2(&papers.corpus, &mined).expect("save")
}

fn load(bytes: &[u8]) -> Model {
    Model::Mapped(Box::new(MappedSnapshot::from_bytes(bytes).expect("load")))
}

fn start_server(bytes: &[u8], cache_capacity: usize) -> ServerHandle {
    let model = load(bytes);
    let config = ServerConfig { workers: 2, cache_capacity, ..ServerConfig::default() };
    Server::start_model(model, config).expect("bind")
}

const TIMEOUT: Duration = Duration::from_secs(10);

/// The timed search: words the synthetic vocabulary holds (`bg{i}`,
/// `t{t}w{i}`), so the search scores and renders real hits.
const SEARCH_QUERY: &str = "bg0 t1w0";
const SEARCH: &str = "/search?q=bg0+t1w0&top=10";

fn get(addr: SocketAddr, target: &str) -> FetchedResponse {
    http_get(&addr.to_string(), target, TIMEOUT).expect("GET")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> FetchedResponse {
    http_post(&addr.to_string(), target, body, TIMEOUT).expect("POST")
}

/// `cargo test` runs bench targets with `--test`; setup must stay small
/// there (the timings are discarded anyway — `LESM_BENCH_JSON` is unset).
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Median request latency over `n` sequential requests.
fn median_latency_ns(addr: SocketAddr, target: &str, n: usize) -> u128 {
    let mut times: Vec<u128> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(get(addr, target));
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Median `POST /query` latency over `n` sequential requests.
fn median_post_latency_ns(addr: SocketAddr, target: &str, body: &str, n: usize) -> u128 {
    let mut times: Vec<u128> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(post(addr, target, body));
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn bench_serve(c: &mut Criterion) {
    let bytes = snapshot_bytes();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // Uncached query latency: cache disabled, every request re-renders.
    // `/hierarchy` is the heaviest endpoint (full JSON export), so the
    // cached-vs-uncached gap is visible above the TCP round-trip cost;
    // `/search` is also measured as the common-case cheap query.
    // The /query body: a traverse program heavy enough that a cache hit
    // (one LRU lookup keyed on target + body) measurably beats re-running
    // the engine pipeline.
    let query_body = r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"topics"}}],"page":100}"#;
    let (uncached_search, uncached_hier, uncached_query);
    {
        let handle = start_server(&bytes, 0);
        let addr = handle.addr();
        group.bench_function("query_hierarchy_uncached", |b| {
            b.iter(|| get(addr, "/hierarchy"));
        });
        group.bench_function("query_search_uncached", |b| {
            b.iter(|| get(addr, SEARCH));
        });
        group.bench_function("post_query_uncached", |b| {
            b.iter(|| post(addr, "/query", query_body));
        });
        uncached_search = median_latency_ns(addr, SEARCH, 300);
        uncached_hier = median_latency_ns(addr, "/hierarchy", 300);
        uncached_query = median_post_latency_ns(addr, "/query", query_body, 300);
        handle.shutdown();
    }

    // Cached query latency: same requests, answered from the LRU shard.
    {
        let handle = start_server(&bytes, 1024);
        let addr = handle.addr();
        let _warm = (
            get(addr, "/hierarchy"),
            get(addr, SEARCH),
            post(addr, "/query", query_body),
        );
        group.bench_function("query_hierarchy_cached", |b| {
            b.iter(|| get(addr, "/hierarchy"));
        });
        group.bench_function("query_search_cached", |b| {
            b.iter(|| get(addr, SEARCH));
        });
        group.bench_function("post_query_cached", |b| {
            b.iter(|| post(addr, "/query", query_body));
        });
        let cached_search = median_latency_ns(addr, SEARCH, 300);
        let cached_hier = median_latency_ns(addr, "/hierarchy", 300);
        let cached_query = median_post_latency_ns(addr, "/query", query_body, 300);
        let metrics = handle.metrics();
        for endpoint in [Endpoint::Search, Endpoint::Hierarchy, Endpoint::Query] {
            let (requests, misses) = (metrics.requests(endpoint), metrics.cache_misses(endpoint));
            assert!(
                misses == 1 && metrics.cache_hits(endpoint) == requests - 1,
                "the cached server must answer all but its first /{} request from the \
                 cache: {misses} misses in {requests} requests",
                endpoint.name()
            );
        }
        handle.shutdown();
        eprintln!(
            "serve over HTTP, median ns cached/uncached: \
             /search {cached_search}/{uncached_search}, /hierarchy {cached_hier}/{uncached_hier}, \
             POST /query {cached_query}/{uncached_query}"
        );
    }
    cache_gate(&bytes, query_body);

    group.finish();
}

/// Median time of `n` calls of `f`, in ns.
fn median_call_ns<T>(n: usize, mut f: impl FnMut() -> T) -> u128 {
    let mut times: Vec<u128> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The timed half of the gate: per endpoint, a hit through a warm
/// response cache against computing the response the way the server does.
fn cache_gate(bytes: &[u8], query_body: &str) {
    let model = load(bytes);
    let index = lesm_query::QueryIndex::build(model.query_parts().expect("query parts"))
        .expect("query index");
    let config = ServerConfig::default();
    let top = config.top_n;
    let search = || {
        let lines = model.search_lines(SEARCH_QUERY, top);
        Response::ok(lines.iter().map(|l| format!("{l}\n")).collect::<String>())
    };
    let hierarchy = || Response::json(model.hierarchy_json(top));
    let query = || Response::json(lesm_query::run_query(&index, query_body).expect("query"));
    let query_key = format!("/query\n{query_body}");
    let cases: [(&str, &str, &dyn Fn() -> Response); 3] = [
        ("/search", SEARCH, &search),
        ("/hierarchy", "/hierarchy", &hierarchy),
        ("POST /query", &query_key, &query),
    ];
    let cache = ShardedLruCache::new(config.cache_capacity, config.cache_shards);
    for (name, key, compute) in cases {
        let uncached = median_call_ns(300, compute);
        cache.get_or_compute(key, compute, |r| r.status == 200);
        let cached = median_call_ns(300, || cache.get_or_compute(key, compute, |_| true));
        eprintln!("serve in-process {name}: cache hit {cached} ns, compute {uncached} ns");
        assert!(
            cached * 2 <= uncached,
            "a cache hit must cost at most half of recomputing {name}: {cached} ns cached vs \
             {uncached} ns uncached"
        );
    }
}

/// Cold load at serving scale: a 50k-document v2 artifact is mapped and
/// validated, never deserialized.
fn bench_cold_load_50k(c: &mut Criterion) {
    let docs = if test_mode() { 1_000 } else { 50_000 };
    let (corpus, mined) = replay_model(docs, 42);
    let dir = std::env::temp_dir().join(format!("lesm-bench-coldload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let v2_path = dir.join("model-v2.lesm");
    std::fs::write(&v2_path, lesm_serve::save_snapshot_v2(&corpus, &mined).expect("save v2"))
        .expect("write v2");

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("snapshot_load_cold_v2_50k", |b| {
        b.iter(|| lesm_serve::load_model_file(v2_path.to_str().unwrap()).expect("load v2"));
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_serve, bench_cold_load_50k);
criterion_main!(benches);
