//! Incremental-mining benchmark (DESIGN.md §15): `lesm update` economics.
//!
//! Measures the two ways to fold +1% new documents into an existing
//! model over the replay corpus:
//!
//! * `update/remine_full` — mine the merged corpus from scratch (cold
//!   EM with restarts, phrase mining, segmentation over every doc);
//! * `update/incremental_1pct` — `LatentStructureMiner::update`: delta
//!   collapse, warm-started EM under the default convergence budget,
//!   segmentation of the appended tail only.
//!
//! The acceptance target for the incremental path is >= 10x under the
//! full re-mine; the measured ratio is printed with each run. Records
//! land in the standard bench JSON schema
//! (`{"id","samples","mean_ns","median_ns","nproc"}`) so `scripts/bench_check.sh`
//! can diff them across PRs; collected into `BENCH_update.json` by
//! `scripts/bench_smoke.sh`.
//!
//! Every iteration also asserts the published v2 artifact is
//! byte-identical to the first — the §15 determinism contract measured
//! at benchmark scale, for both paths.
//!
//! Knobs: `LESM_BENCH_FAST=1` and `--test` (as passed by `cargo test`)
//! shrink the corpus and the re-mine's sample count for smoke runs; the
//! incremental path always takes 15 samples.

use lesm_bench::datasets::replay_corpus;
use lesm_core::pipeline::{LatentStructureMiner, MinerConfig};
use lesm_core::UpdateBudget;
use std::io::Write;
use std::time::Instant;

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn emit_record(id: &str, times: &[u128], value_ns: u128) {
    let mean = times.iter().sum::<u128>() / times.len() as u128;
    println!("{id:<48} {:.1} ms  ({} samples)", value_ns as f64 / 1e6, times.len());
    if let Ok(path) = std::env::var("LESM_BENCH_JSON") {
        if !path.is_empty() {
            // A timing is read against the host's core count.
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
        println!("update: bench");
        return;
    }
    let fast = test_mode || std::env::var("LESM_BENCH_FAST").is_ok_and(|v| v != "0");
    let base_docs = if fast { 2_000 } else { 50_000 };
    let delta_docs = base_docs / 100; // the +1% tail
    let remine_iters = if fast { 3 } else { 5 };
    // The incremental path is short and noisy next to the re-mine: 15
    // samples resolve a 20% change where 3 do not.
    let update_iters = 15;

    // One corpus covering base + delta; the base view truncates the doc
    // list, which matches the append-only contract `update` requires
    // (token and entity ids are interned corpus-wide).
    let full = replay_corpus(base_docs + delta_docs, 42);
    let mut base_corpus = full.clone();
    base_corpus.docs.truncate(base_docs);

    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 2;
    let budget = UpdateBudget::default();

    // The base model is mined once, outside both timed loops: it is the
    // shared starting state, not part of either path's cost.
    let base = LatentStructureMiner::mine(&base_corpus, &config).expect("mine base");

    // Path A: full re-mine of the merged corpus.
    let mut remine_times: Vec<u128> = Vec::with_capacity(remine_iters);
    let mut remine_reference: Option<Vec<u8>> = None;
    for _ in 0..remine_iters {
        let start = Instant::now();
        let mined = LatentStructureMiner::mine(&full, &config).expect("re-mine");
        remine_times.push(start.elapsed().as_nanos());
        let bytes = lesm_serve::save_snapshot_v2(&full, &mined).expect("save");
        match &remine_reference {
            None => remine_reference = Some(bytes),
            Some(first) => {
                assert_eq!(&bytes, first, "full re-mine drifted across iterations")
            }
        }
    }

    // Path B: warm-started incremental update over the +1% tail.
    let mut update_times: Vec<u128> = Vec::with_capacity(update_iters);
    let mut update_reference: Option<Vec<u8>> = None;
    for _ in 0..update_iters {
        let start = Instant::now();
        let updated = LatentStructureMiner::update(&full, &base, base_docs, &config, &budget)
            .expect("incremental update");
        update_times.push(start.elapsed().as_nanos());
        let bytes = lesm_serve::save_snapshot_v2(&full, &updated).expect("save");
        match &update_reference {
            None => update_reference = Some(bytes),
            Some(first) => {
                assert_eq!(&bytes, first, "incremental update drifted across iterations")
            }
        }
    }

    let mut sorted = remine_times.clone();
    sorted.sort_unstable();
    let remine_median = percentile(&sorted, 0.50);
    emit_record("update/remine_full", &remine_times, remine_median);

    let mut sorted = update_times.clone();
    sorted.sort_unstable();
    let update_median = percentile(&sorted, 0.50);
    emit_record("update/incremental_1pct", &update_times, update_median);

    let speedup = remine_median as f64 / update_median.max(1) as f64;
    println!(
        "update/speedup ({base_docs} base + {delta_docs} delta docs): \
         incremental is {speedup:.1}x the full re-mine (target >= 10x)"
    );
}
