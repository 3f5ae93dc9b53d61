//! Traffic-replay benchmark for the sharded serve tier.
//!
//! Replays a deterministic endpoint mix (~70% `/search`, ~20%
//! `/topics/{id}`, ~10% `/hierarchy`) against the same 50k-document
//! model served by 1, 2, and 4 shards, and reports the p50 and p99
//! request latency per shard count. Records land in the standard bench
//! JSON schema (`{"id","samples","mean_ns","median_ns"}`, with
//! `median_ns` carrying the percentile named in the id) so
//! `scripts/bench_check.sh` can diff them across PRs; collected into
//! `BENCH_replay.json` by `scripts/bench_smoke.sh`.
//!
//! Every tier runs on this one machine, so shard counts measure fan-out
//! and merge overhead — not capacity. The useful signals are (a) the
//! front tier's added latency staying small and flat as shards grow, and
//! (b) the replayed responses staying byte-identical across shard counts
//! (asserted on every request; the merge protocol of DESIGN.md §13).
//!
//! Knobs: `LESM_REPLAY_RATE=<N>` multiplies the request count (default
//! 1x = 600 requests per shard count); `LESM_BENCH_FAST=1` and `--test`
//! (as passed by `cargo test`) shrink the model and the mix for smoke
//! runs.

use lesm_bench::datasets::replay_model;
use lesm_serve::server::{Server, ServerConfig};
use lesm_serve::ShardBy;
use lesm_serve::client::{http_get, FetchedResponse};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn get(addr: SocketAddr, target: &str) -> FetchedResponse {
    http_get(&addr.to_string(), target, Duration::from_secs(10)).expect("GET")
}

/// xorshift64* — a tiny deterministic generator for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The deterministic replay mix: ~70/20/10 search/topics/hierarchy.
fn build_mix(
    corpus: &lesm_corpus::Corpus,
    n_topics: usize,
    requests: usize,
) -> Vec<String> {
    // Query pool: a spread of vocabulary words (every 97th id), so
    // searches hit different topics and different cache keys.
    let vocab_len = corpus.vocab.len().max(1);
    let words: Vec<String> = (0..64)
        .map(|i| corpus.vocab.name_or_unk(((i * 97) % vocab_len) as u32).to_string())
        .collect();
    let mut rng = Rng(0x5eed_0d15_ea5e_0001);
    let mut mix = Vec::with_capacity(requests);
    for _ in 0..requests {
        let roll = rng.below(10);
        mix.push(if roll < 7 {
            let w = &words[rng.below(words.len())];
            format!("/search?q={w}&top=10")
        } else if roll < 9 {
            format!("/topics/{}", rng.below(n_topics))
        } else {
            "/hierarchy".to_string()
        });
    }
    mix
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn emit_record(id: &str, times: &[u128], value_ns: u128) {
    let mean = times.iter().sum::<u128>() / times.len() as u128;
    println!("{id:<48} {:.1} us  ({} samples)", value_ns as f64 / 1000.0, times.len());
    if let Ok(path) = std::env::var("LESM_BENCH_JSON") {
        if !path.is_empty() {
            let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
            let line = format!(
                "{{\"id\":\"{id}\",\"samples\":{},\"mean_ns\":{mean},\"median_ns\":{value_ns},\"nproc\":{nproc}}}\n",
                times.len()
            );
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .expect("open LESM_BENCH_JSON");
            file.write_all(line.as_bytes()).expect("append bench record");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if args.iter().any(|a| a == "--list") {
        println!("replay: bench");
        return;
    }
    let fast = test_mode || std::env::var("LESM_BENCH_FAST").is_ok_and(|v| v != "0");
    let rate: usize = std::env::var("LESM_REPLAY_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(1);
    let docs = if fast { 2_000 } else { 50_000 };
    let requests = if fast { 60 } else { 600 * rate };

    let (corpus, mined) = replay_model(docs, 42);
    let n_topics = mined.hierarchy.len();
    let mix = build_mix(&corpus, n_topics, requests);

    let base: PathBuf =
        std::env::temp_dir().join(format!("lesm-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Reference responses from the 1-shard tier, for the byte-identity
    // assertion against every other shard count.
    let mut reference: Vec<FetchedResponse> = Vec::new();
    for &shards in &SHARD_COUNTS {
        let dir = base.join(format!("shards-{shards}"));
        lesm_serve::write_shards(&corpus, &mined, ShardBy::EntityRange, shards, &dir)
            .expect("write shards");
        let handle = Server::start_sharded(
            &dir.join("manifest.json"),
            ServerConfig { workers: 2, ..ServerConfig::default() },
        )
        .expect("boot sharded tier");
        let addr = handle.addr();
        // One warmup pass over a slice of the mix (fills OS socket state;
        // the cache is per-request-key so the replay itself stays mixed).
        for target in mix.iter().take(8) {
            std::hint::black_box(get(addr, target));
        }
        let mut times: Vec<u128> = Vec::with_capacity(mix.len());
        for (i, target) in mix.iter().enumerate() {
            let start = Instant::now();
            let response = get(addr, target);
            times.push(start.elapsed().as_nanos());
            if shards == SHARD_COUNTS[0] {
                reference.push(response);
            } else {
                assert_eq!(
                    response, reference[i],
                    "{target}: {shards}-shard response differs from 1-shard"
                );
            }
        }
        handle.shutdown();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        emit_record(&format!("replay/shards_{shards}/p50"), &times, percentile(&sorted, 0.50));
        emit_record(&format!("replay/shards_{shards}/p99"), &times, percentile(&sorted, 0.99));
    }
    std::fs::remove_dir_all(&base).ok();
}
