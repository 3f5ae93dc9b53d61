//! End-to-end tests for `POST /query` (DESIGN.md §14).
//!
//! The determinism contract under test: the same query body — including
//! cursor resumptions — answers byte-identically on an artifact mapped
//! from memory and one mapped from a file, 1 vs 4 workers, a front tier
//! over 1/2/4 shards, each shard served on its own, and across two
//! restarts of the same server. Error paths (malformed bodies, wrong
//! method, oversized payloads) are part of the contract and compared the
//! same way.

mod common;

use common::{fixture, get, mapped_model, post, tmp_dir};
use lesm_core::pipeline::MinedStructure;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;
use lesm_serve::metrics::Endpoint;
use lesm_serve::server::{Server, ServerConfig, ServerHandle};
use lesm_serve::{save_snapshot_v2, MappedSnapshot, Model, ShardBy};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// The query mix: success and error paths alike. Programs use type-only
/// seeds so they are valid against any mined fixture.
const BODIES: &[&str] = &[
    // Valid programs.
    r#"{"steps":[{"filter":{"type":"author"}}],"page":7}"#,
    r#"{"steps":[{"filter":{"type":"doc","years":{"min":2003,"max":2010}}}],"page":5}"#,
    r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"topics"}}]}"#,
    r#"{"steps":[{"filter":{"type":"topic"}},{"traverse":{"edge":"children"}},{"traverse":{"edge":"entities","type":"venue"}}],"page":9}"#,
    r#"{"steps":[{"filter":{"type":"author"}},{"rank":{"by":"combined","topic":0,"limit":10}}]}"#,
    r#"{"steps":[{"filter":{"type":"venue"}},{"traverse":{"edge":"docs"}}],"page":11}"#,
    r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"topic"},"edges":["topics","parent"],"max_depth":3}}],"page":13}"#,
    // Typed request errors (all must be 400, byte-identical everywhere).
    r#"{"#,
    r#"{"steps":[]}"#,
    r#"{"steps":[{"warp":{}}]}"#,
    r#"{"steps":[{"filter":{"type":"no-such-type"}}]}"#,
    r#"{"steps":[{"filter":{"type":"author","topic":"zzz/9"}}]}"#,
    r#"{"steps":[{"filter":{"type":"author"}}],"cursor":"q1.zzzz.0.5"}"#,
    r#"{"steps":[{"filter":{"type":"author"}}],"page":0}"#,
];

/// Collects `(status, body)` for the full mix plus a two-page cursor walk.
fn collect(addr: SocketAddr) -> Vec<(u16, Vec<u8>)> {
    let mut out: Vec<(u16, Vec<u8>)> = BODIES.iter().map(|b| post(addr, "/query", b)).collect();
    // Cursor walk: page 1 of the author scan, then resume from its cursor.
    let (status, first) = out[0].clone();
    assert_eq!(status, 200, "author scan must succeed: {}", String::from_utf8_lossy(&first));
    let text = String::from_utf8(first).expect("utf-8 response");
    let cursor = text
        .split("\"next_cursor\":\"")
        .nth(1)
        .and_then(|t| t.split('"').next())
        .expect("page 7 over 80 docs of authors must leave a next page");
    let resume = format!(r#"{{"steps":[{{"filter":{{"type":"author"}}}}],"cursor":"{cursor}"}}"#);
    out.push(post(addr, "/query", &resume));
    out
}

fn start_in_memory(corpus: &Corpus, mined: &MinedStructure, workers: usize) -> ServerHandle {
    Server::start_model(
        mapped_model(corpus, mined),
        ServerConfig { workers, ..ServerConfig::default() },
    )
    .expect("bind in-memory")
}

#[test]
fn query_responses_byte_identical_across_backends_workers_and_shards() {
    let (corpus, mined) = fixture(9);

    // Baseline: one unsharded server over the in-memory artifact, 2 workers.
    let baseline_handle = start_in_memory(&corpus, &mined, 2);
    let baseline = collect(baseline_handle.addr());
    baseline_handle.shutdown();
    assert!(baseline.iter().any(|(s, _)| *s == 200));
    assert!(baseline.iter().any(|(s, _)| *s == 400));

    let mut variants: Vec<(String, ServerHandle, Option<PathBuf>)> = Vec::new();

    // Worker-count variants over the in-memory artifact.
    for workers in [1usize, 4] {
        variants.push((format!("memory-{workers}w"), start_in_memory(&corpus, &mined, workers), None));
    }

    // The same artifact mapped from a file.
    let dir = tmp_dir("v2");
    let v2_path = dir.join("model.lesm");
    std::fs::write(&v2_path, lesm_serve::save_snapshot_v2(&corpus, &mined).expect("save v2"))
        .expect("write v2");
    let mapped = lesm_serve::load_model_file(v2_path.to_str().expect("utf-8 path")).expect("map");
    variants.push((
        "file-mapped".into(),
        Server::start_model(mapped, ServerConfig { workers: 2, ..ServerConfig::default() })
            .expect("bind mapped"),
        Some(dir),
    ));

    // Front tier over 1/2/4 shards: the front forwards each /query to
    // one ring-picked shard. Each shard of the 2-shard set also answers
    // on its own: it holds every document's query facts.
    for shards in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("shards-{shards}"));
        let manifest = lesm_serve::write_shards(&corpus, &mined, ShardBy::EntityRange, shards, &dir)
            .expect("write shards");
        for file in manifest.files.iter().filter(|_| shards == 2) {
            let shard = lesm_serve::load_model_file(dir.join(file).to_str().expect("utf-8 path"))
                .expect("map shard");
            let config = ServerConfig { workers: 2, ..ServerConfig::default() };
            let handle = Server::start_model(shard, config).expect("bind shard");
            variants.push((format!("alone-{file}"), handle, None));
        }
        let handle = Server::start_sharded(
            &dir.join("manifest.json"),
            ServerConfig { workers: 2, ..ServerConfig::default() },
        )
        .expect("boot sharded tier");
        variants.push((format!("front-{shards}shards"), handle, Some(dir)));
    }

    for (name, handle, dir) in variants {
        let got = collect(handle.addr());
        for (i, (g, want)) in got.iter().zip(&baseline).enumerate() {
            assert_eq!(
                g,
                want,
                "{name}: query {i} differs, got {:?}, want {:?}",
                String::from_utf8_lossy(&g.1),
                String::from_utf8_lossy(&want.1),
            );
        }
        handle.shutdown();
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn query_pages_are_byte_identical_across_restarts() {
    let (corpus, mined) = fixture(23);
    let bytes = save_snapshot_v2(&corpus, &mined).expect("save");

    let run = || {
        let handle = Server::start_model(
            Model::Mapped(Box::new(MappedSnapshot::from_bytes(&bytes).expect("load"))),
            ServerConfig { workers: 2, ..ServerConfig::default() },
        )
        .expect("bind");
        let pages = collect(handle.addr());
        handle.shutdown();
        pages
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "restarting the server changed some /query response");
}

#[test]
fn stale_cursor_after_hot_swap_is_a_typed_error_never_an_interleave() {
    // Regression: a paginated /query stream that spans a store hot-swap
    // must either complete against the model it started on or fail with
    // the typed cursor error — pages from two model versions must never
    // interleave. The cursor's stamp binds the model content, and the
    // swap replaces the model together with its response cache and
    // query index, so the stale resume recomputes against the new index
    // and is rejected.
    let (corpus_a, mined_a) = fixture(9);
    let (corpus_b, mined_b) = fixture(23);
    let dir = tmp_dir("cursor-swap");
    lesm_serve::store::publish(&dir, &lesm_serve::save_snapshot_v2(&corpus_a, &mined_a).expect("save"))
        .expect("publish v1");
    let handle = Server::start_store(
        &dir,
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("serve store");
    let addr = handle.addr();

    // Page 1 against model A, and one successful same-model resume.
    let scan = r#"{"steps":[{"filter":{"type":"author"}}],"page":7}"#;
    let (status, first) = post(addr, "/query", scan);
    assert_eq!(status, 200);
    let text = String::from_utf8(first).expect("utf-8 response");
    let cursor = text
        .split("\"next_cursor\":\"")
        .nth(1)
        .and_then(|t| t.split('"').next())
        .expect("author scan must leave a next page");
    let resume = format!(r#"{{"steps":[{{"filter":{{"type":"author"}}}}],"cursor":"{cursor}"}}"#);
    let (status, page2_a) = post(addr, "/query", &resume);
    assert_eq!(status, 200, "same-model resume must succeed");

    // Hot-swap to model B and wait for the watcher to pick it up.
    lesm_serve::store::publish(&dir, &lesm_serve::save_snapshot_v2(&corpus_b, &mined_b).expect("save"))
        .expect("publish v2");
    let expected_b = lesm_core::export::hierarchy_to_json(&mined_b.view(&corpus_b), 10).into_bytes();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while get(addr, "/hierarchy").1 != expected_b {
        assert!(std::time::Instant::now() < deadline, "hot swap never happened");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The pre-swap cursor must now be a typed 400 — not page 2 of model
    // A (a stale cache hit) and not page 2 of model B (an interleave).
    let (status, body) = post(addr, "/query", &resume);
    let body_text = String::from_utf8_lossy(&body).to_string();
    assert_eq!(status, 400, "stale cursor must be rejected, got: {body_text}");
    assert!(body_text.contains("bad cursor"), "unexpected body: {body_text}");
    assert!(body_text.contains("model version"), "unexpected body: {body_text}");
    assert_ne!(body, page2_a, "must not serve the old model's page after the swap");

    // A fresh stream against the new model pages normally.
    let (status, fresh) = post(addr, "/query", scan);
    assert_eq!(status, 200);
    let fresh = String::from_utf8(fresh).expect("utf-8 response");
    let new_cursor = fresh
        .split("\"next_cursor\":\"")
        .nth(1)
        .and_then(|t| t.split('"').next())
        .expect("new model's scan must page");
    assert_ne!(new_cursor, cursor, "stamp must differ across model versions");
    let resume_b =
        format!(r#"{{"steps":[{{"filter":{{"type":"author"}}}}],"cursor":"{new_cursor}"}}"#);
    assert_eq!(post(addr, "/query", &resume_b).0, 200, "new-model resume must succeed");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_query_index_built_across_a_hot_swap_is_never_served() {
    // Regression: a /query that starts building model A's query index
    // just before a hot-swap to model B must not leave A's index behind.
    // Every later /query answers from B. A is large so its index build
    // spans the swap by a wide margin.
    let papers_a =
        SyntheticPapers::generate(&PapersConfig::dblp_large(50_000, 1)).expect("synth corpus");
    let mined_a = lesm_core::model_from_truth(&papers_a);
    let bytes_a = save_snapshot_v2(&papers_a.corpus, &mined_a).expect("save A");
    drop((papers_a, mined_a));
    let (corpus_b, mined_b) = fixture(23);
    let bytes_b = save_snapshot_v2(&corpus_b, &mined_b).expect("save B");
    let dir = tmp_dir("index-swap");
    lesm_serve::store::publish(&dir, &bytes_a).expect("publish A");
    let handle = Server::start_store(&dir, ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("serve store");
    let addr = handle.addr();

    let scan = r#"{"steps":[{"filter":{"type":"author"}}],"page":7}"#;
    let expected_b = lesm_core::export::hierarchy_to_json(&mined_b.view(&corpus_b), 10).into_bytes();
    std::thread::scope(|scope| {
        let first = scope.spawn(|| post(addr, "/query", scan));
        std::thread::sleep(Duration::from_millis(10));
        lesm_serve::store::publish(&dir, &bytes_b).expect("publish B");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while get(addr, "/hierarchy").1 != expected_b {
            assert!(std::time::Instant::now() < deadline, "hot swap never happened");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(first.join().expect("first query").0, 200);
    });

    let parts_b = lesm_query::IndexParts::from_view(&mined_b.view(&corpus_b)).expect("parts B");
    let index_b = lesm_query::QueryIndex::build(parts_b).expect("index B");
    let want = lesm_query::run_query(&index_b, scan).expect("query B");
    let (status, got) = post(addr, "/query", scan);
    assert_eq!(
        (status, String::from_utf8_lossy(&got)),
        (200, want.as_str().into()),
        "/query after the swap must answer from model B"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_method_and_size_limits() {
    let (corpus, mined) = fixture(9);
    let handle = start_in_memory(&corpus, &mined, 2);
    let addr = handle.addr();

    // /query is POST-only.
    let (status, body) = get(addr, "/query");
    assert_eq!(status, 405);
    assert_eq!(body, b"use POST for /query\n");

    // Other endpoints still reject POST.
    let (status, _) = post(addr, "/hierarchy", "{}");
    assert_eq!(status, 405);

    // A body over MAX_BODY_BYTES is a typed 400, not a hang or a panic.
    // The server answers from the headers alone, so the client's body
    // write can race the close — tolerate a failed write and still read
    // whatever response made it out.
    let huge = format!(
        r#"{{"steps":[{{"filter":{{"type":"author","name":"{}"}}}}]}}"#,
        "x".repeat(lesm_serve::http::MAX_BODY_BYTES)
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = write!(
        stream,
        "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{huge}",
        huge.len()
    );
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 400 "), "oversized body must get a 400, got {head:?}");

    handle.shutdown();
}

#[test]
fn query_endpoint_records_cache_and_request_metrics() {
    let (corpus, mined) = fixture(9);
    let handle = start_in_memory(&corpus, &mined, 2);
    let addr = handle.addr();
    let body = r#"{"steps":[{"filter":{"type":"author"}}],"page":3}"#;

    let (s1, b1) = post(addr, "/query", body);
    let (s2, b2) = post(addr, "/query", body);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "cached response must be byte-identical to the computed one");

    let m = handle.metrics();
    assert_eq!(m.requests(Endpoint::Query), 2);
    assert_eq!(m.cache_misses(Endpoint::Query), 1, "first request must miss");
    assert_eq!(m.cache_hits(Endpoint::Query), 1, "second request must hit");

    // A different body is a different cache key.
    let other = r#"{"steps":[{"filter":{"type":"venue"}}],"page":3}"#;
    let (s3, _) = post(addr, "/query", other);
    assert_eq!(s3, 200);
    assert_eq!(m.cache_misses(Endpoint::Query), 2);

    // The exposition format carries the query row.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(text).expect("utf-8 metrics");
    assert!(text.contains("lesm_requests_total{endpoint=\"query\"} 3"), "{text}");
    handle.shutdown();
}
