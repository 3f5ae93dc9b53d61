//! End-to-end tests for the query server: mine a synthetic corpus once,
//! snapshot it, serve it on an ephemeral port, and check that concurrent
//! clients get responses byte-identical to the offline CLI/export output —
//! for any worker count.

mod common;

use common::{fixture, get, mapped_model, tmp_dir};
use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;
use lesm_serve::metrics::Endpoint;
use lesm_serve::server::{Server, ServerConfig};
use lesm_serve::ServerHandle;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(corpus: &Corpus, mined: &MinedStructure, workers: usize) -> ServerHandle {
    let config = ServerConfig { workers, ..ServerConfig::default() };
    Server::start_model(mapped_model(corpus, mined), config).expect("bind ephemeral port")
}

/// The offline rendering `/search` must match byte-for-byte: one CLI hit
/// line per result, each newline-terminated.
fn offline_search_body(corpus: &Corpus, mined: &MinedStructure, query: &str, top: usize) -> Vec<u8> {
    let view = mined.view(corpus);
    let hits = lesm_core::search::search(&view, &lesm_core::SearchIndex::build(&view), query, top);
    let mut body = String::new();
    for line in lesm_core::search::render_hits(&view, &hits) {
        body.push_str(&line);
        body.push('\n');
    }
    body.into_bytes()
}

#[test]
fn responses_are_byte_identical_to_offline_output() {
    let (corpus, mined) = fixture(9);
    let handle = start(&corpus, &mined, 4);
    let addr = handle.addr();

    let (status, body) = get(addr, "/search?q=mining&top=5");
    assert_eq!(status, 200);
    assert_eq!(body, offline_search_body(&corpus, &mined, "mining", 5));

    // Default top matches the CLI's fixed 10.
    let (status, body) = get(addr, "/search?q=data+mining");
    assert_eq!(status, 200);
    assert_eq!(body, offline_search_body(&corpus, &mined, "data mining", 10));

    let (status, body) = get(addr, "/hierarchy");
    assert_eq!(status, 200);
    assert_eq!(body, lesm_core::export::hierarchy_to_json(&mined.view(&corpus), 10).into_bytes());

    for t in 0..mined.hierarchy.len() {
        let (status, body) = get(addr, &format!("/topics/{t}"));
        assert_eq!(status, 200, "topic {t}");
        let mut expected = lesm_core::render_topic(&mined.view(&corpus), t, 10);
        expected.push('\n');
        assert_eq!(body, expected.into_bytes(), "topic {t}");
    }

    handle.shutdown();
}

#[test]
fn worker_count_does_not_change_any_response() {
    let (corpus, mined) = fixture(9);
    let targets = [
        "/search?q=mining&top=3",
        "/search?q=database+systems",
        "/hierarchy",
        "/topics/0",
        "/topics/999999",
        "/search?q=",
        "/nope",
    ];
    let collect = |workers: usize| -> Vec<(u16, Vec<u8>)> {
        let handle = start(&corpus, &mined, workers);
        let out = targets.iter().map(|t| get(handle.addr(), t)).collect();
        handle.shutdown();
        out
    };
    assert_eq!(collect(1), collect(4));
}

#[test]
fn concurrent_clients_all_get_identical_correct_bodies() {
    let (corpus, mined) = fixture(9);
    let handle = start(&corpus, &mined, 4);
    let addr = handle.addr();
    let expected = offline_search_body(&corpus, &mined, "mining", 10);

    let clients: Vec<_> = (0..16)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..4 {
                    let (status, body) = get(addr, "/search?q=mining");
                    assert_eq!(status, 200);
                    assert_eq!(body, expected);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // 64 identical requests: exactly one cache miss, the rest hits.
    let m = handle.metrics();
    assert_eq!(m.requests(lesm_serve::metrics::Endpoint::Search), 64);
    assert_eq!(m.cache_misses(lesm_serve::metrics::Endpoint::Search), 1);
    assert_eq!(m.cache_hits(lesm_serve::metrics::Endpoint::Search), 63);
    assert_eq!(handle.cached_responses(), 1);
    handle.shutdown();
}

#[test]
fn health_metrics_and_errors_are_served() {
    let (corpus, mined) = fixture(9);
    let handle = start(&corpus, &mined, 2);
    let addr = handle.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let (status, _) = get(addr, "/search?top=3"); // missing q
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/search?q=x&top=zero");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/topics/notanumber");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/topics/123456");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/unknown");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8 metrics");
    assert!(text.contains("lesm_requests_total{endpoint=\"healthz\"} 1"), "{text}");
    assert!(text.contains("lesm_requests_total{endpoint=\"search\"} 2"), "{text}");
    assert!(text.contains("lesm_request_errors_total{endpoint=\"topics\"} 2"), "{text}");
    handle.shutdown();
}

/// Reads one response off `stream` up to exactly its `Content-Length`
/// body bytes, without waiting for the server to close the connection.
fn read_to_content_length(stream: &mut TcpStream) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    (head, body)
}

#[test]
fn a_request_is_counted_once_its_response_is_read() {
    let (corpus, mined) = fixture(9);
    let handle = start(&corpus, &mined, 2);
    let addr = handle.addr();
    let body = r#"{"steps":[{"filter":{"type":"author"}}],"page":3}"#;
    for n in 1..=100 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        write!(
            stream,
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let (head, _) = read_to_content_length(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        // The connection is still open: only the bytes read so far tell
        // the client its request was served.
        assert_eq!(handle.metrics().requests(Endpoint::Query), n, "request {n} not counted");
        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(text).expect("utf-8 metrics");
        let counted = format!("lesm_requests_total{{endpoint=\"query\"}} {n}\n");
        assert!(text.contains(&counted), "request {n} not counted:\n{text}");
    }
    handle.shutdown();
}

#[test]
fn shutdown_answers_a_request_queued_behind_an_idle_connection() {
    let (corpus, mined) = fixture(9);
    let config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let handle = Server::start_model(mapped_model(&corpus, &mined), config).expect("bind");
    let addr = handle.addr();
    // The idle connection holds the only worker until its read timeout.
    let mut idle = TcpStream::connect(addr).expect("idle");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = TcpStream::connect(addr).expect("queued");
    write!(queued, "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    // Give the acceptor time to queue it before the stop flag is set.
    std::thread::sleep(Duration::from_millis(150));

    // Joins every thread: the worker times the idle connection out, then
    // answers the queued request, then exits.
    handle.shutdown();
    for stream in [&mut idle, &mut queued] {
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    }
    let mut response = Vec::new();
    queued.read_to_end(&mut response).expect("queued response");
    let response = String::from_utf8(response).expect("utf-8 response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
    let mut timed_out = Vec::new();
    idle.read_to_end(&mut timed_out).expect("idle response");
    assert!(timed_out.starts_with(b"HTTP/1.1 408 "), "{}", String::from_utf8_lossy(&timed_out));
}

#[test]
fn shutdown_file_stops_the_server() {
    let (corpus, mined) = fixture(9);
    let dir = tmp_dir("shutdown-file");
    let stop_file = dir.join("stop");
    let config = ServerConfig {
        workers: 2,
        shutdown_file: Some(stop_file.clone()),
        ..ServerConfig::default()
    };
    let handle = Server::start_model(mapped_model(&corpus, &mined), config).expect("bind");
    let addr = handle.addr();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    std::fs::write(&stop_file, b"").unwrap();
    // join() returns once the acceptor notices the file and the workers
    // drain; a hang here fails the test via the harness timeout.
    handle.join();
    assert!(TcpStream::connect(addr).is_err() || {
        // Some platforms accept briefly in the TCP backlog even after the
        // listener closes; an actual request must fail either way.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).map(|_| buf.is_empty()).unwrap_or(true)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_pointer_outside_the_store_is_refused_and_the_old_model_kept() {
    let (corpus_a, mined_a) = fixture(9);
    let (corpus_b, mined_b) = fixture(23);
    let bytes_b = lesm_serve::save_snapshot_v2(&corpus_b, &mined_b).expect("save B");
    let dir = tmp_dir("pointer-store");
    let outside = tmp_dir("pointer-outside").join("v0002.lesm");
    std::fs::write(&outside, &bytes_b).expect("write B outside the store");
    lesm_serve::store::publish(&dir, &lesm_serve::save_snapshot_v2(&corpus_a, &mined_a).expect("save A"))
        .expect("publish A");
    let handle = Server::start_store(&dir, ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("serve store");
    let addr = handle.addr();
    let hierarchy_a = lesm_core::export::hierarchy_to_json(&mined_a.view(&corpus_a), 10).into_bytes();
    let hierarchy_b = lesm_core::export::hierarchy_to_json(&mined_b.view(&corpus_b), 10).into_bytes();
    assert_ne!(hierarchy_a, hierarchy_b);
    assert!(get(addr, "/hierarchy").1 == hierarchy_a, "the server does not answer from A");

    // CURRENT names a valid artifact, but by an absolute path.
    let pointer = outside.to_str().expect("utf-8 path");
    lesm_serve::store::replace_file(&dir.join(lesm_serve::store::CURRENT), pointer.as_bytes())
        .expect("repoint");
    assert!(matches!(
        lesm_serve::store::load_current(&dir),
        Err(lesm_serve::SnapshotError::BadPointer { .. })
    ));
    // The watcher polls every 20 ms; give it many polls.
    std::thread::sleep(Duration::from_millis(400));
    assert!(get(addr, "/hierarchy").1 == hierarchy_a, "the server left its old model");

    // The watcher is still running: a real publish swaps in B.
    lesm_serve::store::publish(&dir, &bytes_b).expect("publish B");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while get(addr, "/hierarchy").1 != hierarchy_b {
        assert!(std::time::Instant::now() < deadline, "hot swap never happened");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(outside.parent().expect("parent")).ok();
}
