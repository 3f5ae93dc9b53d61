//! Query-engine benchmark: the four program families of DESIGN.md §14
//! (filter-only, 2-hop traverse, path enumeration, rank + cursor
//! pagination) executed in-process against the 50k-document replay model.
//!
//! Each family runs through `lesm_query::run_query` — the same entry
//! point `POST /query` and `lesm query` use — so these medians are the
//! engine cost with no HTTP framing on top (the served cached-vs-uncached
//! pair lives in `bench_serve`). Records land in the standard bench JSON
//! schema (`{"id","samples","mean_ns","median_ns"}`) so
//! `scripts/bench_check.sh` can diff them across PRs; collected into
//! `BENCH_query.json` by `scripts/bench_smoke.sh`.
//!
//! Every iteration also asserts the response is byte-identical to the
//! first — a free determinism tripwire at benchmark scale (the e2e tests
//! assert the same across backends and shard counts).
//!
//! Knobs: `LESM_BENCH_FAST=1` and `--test` (as passed by `cargo test`)
//! shrink the model and the sample count for smoke runs.

use lesm_bench::datasets::replay_model;
use lesm_query::{run_query, IndexParts, QueryIndex};
use std::io::Write;
use std::time::Instant;

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn emit_record(id: &str, times: &[u128], value_ns: u128) {
    let mean = times.iter().sum::<u128>() / times.len() as u128;
    println!("{id:<48} {:.1} us  ({} samples)", value_ns as f64 / 1000.0, times.len());
    if let Ok(path) = std::env::var("LESM_BENCH_JSON") {
        if !path.is_empty() {
            let line = format!(
                "{{\"id\":\"{id}\",\"samples\":{},\"mean_ns\":{mean},\"median_ns\":{value_ns}}}\n",
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

/// Pulls the `next_cursor` value out of a response body.
fn extract_cursor(response: &str) -> Option<String> {
    let tail = response.split("\"next_cursor\":\"").nth(1)?;
    Some(tail.split('"').next()?.to_string())
}

/// The name of the first author occurrence in the given document — a node
/// guaranteed to exist and to carry coauthor edges.
fn author_in(parts: &IndexParts, doc: usize) -> String {
    let record = &parts.docs[doc];
    let (_, id) = record
        .entities
        .iter()
        .find(|(etype, _)| *etype == 0)
        .expect("replay docs always carry at least one author");
    parts.entity_names[0][*id as usize].clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    if args.iter().any(|a| a == "--list") {
        println!("query: bench");
        return;
    }
    let fast = test_mode || std::env::var("LESM_BENCH_FAST").is_ok_and(|v| v != "0");
    let docs = if fast { 2_000 } else { 50_000 };
    let iters = if fast { 10 } else { 50 };

    let (corpus, mined) = replay_model(docs, 42);
    let parts = IndexParts::from_view(&mined.view(&corpus)).expect("extract parts");
    let source = author_in(&parts, 0);
    let target = author_in(&parts, parts.docs.len() / 2);
    let leaf = parts.docs[0].leaf;
    let index = QueryIndex::build(parts).expect("build index");

    let families: Vec<(&str, String)> = vec![
        (
            "query/filter_only",
            r#"{"steps":[{"filter":{"type":"doc","years":{"min":2004,"max":2012}}}],"page":100}"#
                .to_string(),
        ),
        (
            "query/traverse_2hop",
            format!(
                r#"{{"steps":[{{"filter":{{"type":"author","name":"{source}"}}}},{{"traverse":{{"edge":"coauthor"}}}},{{"traverse":{{"edge":"coauthor"}}}}],"page":100}}"#
            ),
        ),
        (
            "query/path",
            format!(
                r#"{{"steps":[{{"filter":{{"type":"author","name":"{source}"}}}},{{"path":{{"to":{{"type":"author","name":"{target}"}},"edges":["coauthor"],"max_depth":4,"mode":"paths","limit":100}}}}]}}"#
            ),
        ),
        (
            "query/rank_paginate",
            format!(
                r#"{{"steps":[{{"filter":{{"type":"author"}}}},{{"rank":{{"by":"combined","topic":{leaf},"limit":1000}}}}],"page":100}}"#
            ),
        ),
    ];

    for (id, body) in &families {
        // The pagination family times a full page-1 + cursor-resume pair;
        // everything else times a single request.
        let cursor_body = if *id == "query/rank_paginate" {
            let first = run_query(&index, body).expect("valid program");
            extract_cursor(&first)
                .map(|c| format!(r#"{{"steps":[{{"filter":{{"type":"author"}}}},{{"rank":{{"by":"combined","topic":{leaf},"limit":1000}}}}],"cursor":"{c}"}}"#))
        } else {
            None
        };
        let reference = run_query(&index, body).expect("valid program");
        for _ in 0..3 {
            std::hint::black_box(run_query(&index, body).expect("valid program"));
        }
        let mut times: Vec<u128> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let response = run_query(&index, body).expect("valid program");
            if let Some(cb) = &cursor_body {
                std::hint::black_box(run_query(&index, cb).expect("valid cursor resume"));
            }
            times.push(start.elapsed().as_nanos());
            assert_eq!(response, reference, "{id}: response drifted across iterations");
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        emit_record(id, &times, percentile(&sorted, 0.50));
    }
}
