//! End-to-end tests for the sharded serve tier, the hot-swap store, and
//! accept-queue backpressure.
//!
//! The determinism contract under test (DESIGN.md §11, §13): a front
//! tier over N shards answers every endpoint byte-identically to one
//! unsharded server over the full model, for N ∈ {1, 2, 4} and both
//! document-assignment strategies — including every error path.

mod common;

use common::{fixture, get, mapped_model, post, tmp_dir};
use lesm_serve::client::http_get;
use lesm_serve::server::{Server, ServerConfig, ServerHandle};
use lesm_serve::{save_snapshot_v2, ShardBy};
use std::net::TcpStream;
use std::time::Duration;

/// The full endpoint mix, success and error paths alike.
const TARGETS: &[&str] = &[
    "/search?q=mining",
    "/search?q=mining&top=3",
    "/search?q=data+mining",
    "/search?q=database+systems&top=25",
    "/search?q=zzz-no-such-word",
    "/search?q=",
    "/search?top=3",         // 400: missing q
    "/search?q=x&top=zero",  // 400: bad top
    "/search?q=x&top=0",     // 400: bad top
    "/topics/0",
    "/topics/1",
    "/topics/999999",        // 404
    "/topics/notanumber",    // 400
    "/hierarchy",
    "/healthz",
    "/nope",                 // 404
];

#[test]
fn sharded_responses_are_byte_identical_to_a_single_server() {
    let (corpus, mined) = fixture(9);

    // Baseline: one unsharded server over the whole artifact.
    let baseline_handle = Server::start_model(
        mapped_model(&corpus, &mined),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("bind baseline");
    let baseline: Vec<(u16, Vec<u8>)> =
        TARGETS.iter().map(|t| get(baseline_handle.addr(), t)).collect();
    baseline_handle.shutdown();

    for by in [ShardBy::EntityRange, ShardBy::TopicSubtree] {
        for shards in [1usize, 2, 4] {
            let dir = tmp_dir(&format!("{}-{shards}", by.name()));
            let manifest =
                lesm_serve::write_shards(&corpus, &mined, by, shards, &dir).expect("write shards");
            assert_eq!(manifest.files.len(), shards);
            assert_eq!(manifest.docs.iter().sum::<usize>(), corpus.num_docs());

            let handle = Server::start_sharded(
                &dir.join("manifest.json"),
                ServerConfig { workers: 2, ..ServerConfig::default() },
            )
            .expect("boot sharded tier");
            assert_eq!(handle.shard_addrs().len(), shards);
            for (target, expected) in TARGETS.iter().zip(&baseline) {
                let got = get(handle.addr(), target);
                assert_eq!(
                    &got, expected,
                    "{target} differs: {} shards by {}, got {:?}, want {:?}",
                    shards,
                    by.name(),
                    String::from_utf8_lossy(&got.1),
                    String::from_utf8_lossy(&expected.1),
                );
            }
            handle.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn hot_swap_serves_the_new_version_without_restart() {
    let (corpus_a, mined_a) = fixture(9);
    let (corpus_b, mined_b) = fixture(23);
    let dir = tmp_dir("store");

    lesm_serve::store::publish(&dir, &save_snapshot_v2(&corpus_a, &mined_a).expect("save")).expect("publish v1");
    let handle = Server::start_store(
        &dir,
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("serve store");
    let addr = handle.addr();

    let before = get(addr, "/hierarchy");
    assert_eq!(before.0, 200);
    assert_eq!(
        before.1,
        lesm_core::export::hierarchy_to_json(&mined_a.view(&corpus_a), 10).into_bytes()
    );
    // Prime the cache so the swap also proves cache invalidation.
    assert_eq!(get(addr, "/hierarchy"), before);

    // A corrupt publish must not take down serving or swap anything.
    lesm_serve::store::publish(&dir, b"garbage, not a snapshot").expect("publish garbage");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(get(addr, "/hierarchy"), before, "corrupt publish must be ignored");

    // A good publish swaps within the watcher's poll interval.
    lesm_serve::store::publish(&dir, &save_snapshot_v2(&corpus_b, &mined_b).expect("save")).expect("publish v3");
    let expected_b = lesm_core::export::hierarchy_to_json(&mined_b.view(&corpus_b), 10).into_bytes();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = get(addr, "/hierarchy");
        assert_eq!(status, 200);
        if body == expected_b {
            break;
        }
        assert_eq!(body, before.1, "mid-swap response is neither version");
        assert!(std::time::Instant::now() < deadline, "hot swap never happened");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_accept_queue_sheds_with_503_and_recovers() {
    let (corpus, mined) = fixture(9);
    let handle = Server::start_model(
        mapped_model(&corpus, &mined),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    // Two idle connections: one occupies the single worker (blocked in
    // read until the 2s read timeout), one fills the depth-1 queue.
    let idle1 = TcpStream::connect(addr).expect("idle1");
    std::thread::sleep(Duration::from_millis(150));
    let idle2 = TcpStream::connect(addr).expect("idle2");
    std::thread::sleep(Duration::from_millis(100));

    // Further traffic must now be shed by the acceptor with 503. The
    // acceptor answers-and-closes before reading the request, so the
    // client's write can race a TCP reset; tolerate that and use the
    // shed counter as ground truth, checking the body when it survives.
    for _ in 0..5 {
        if let Ok(got) = http_get(&addr.to_string(), "/healthz", Duration::from_secs(10)) {
            if got.status == 503 {
                assert_eq!(got.body, b"server overloaded, retry later\n");
                break;
            }
        }
    }
    assert!(
        handle.metrics().shed() >= 1,
        "expected the acceptor to shed at least one connection"
    );

    // After the idle connections time out the server recovers fully.
    drop(idle1);
    drop(idle2);
    std::thread::sleep(Duration::from_millis(300));
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    handle.shutdown();
}

#[test]
fn front_composes_over_fronts() {
    // /internal/search on a front returns merged prefixed lines and
    // /query is forwarded, so a front can sit on another front and still
    // be byte-identical.
    let (corpus, mined) = fixture(9);
    let dir = tmp_dir("nested");
    lesm_serve::write_shards(&corpus, &mined, ShardBy::EntityRange, 2, &dir)
        .expect("write shards");
    let inner = Server::start_sharded(
        &dir.join("manifest.json"),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("inner tier");
    let outer = Server::start_front(
        vec![inner.addr().to_string()],
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("outer front");

    let baseline = Server::start_model(
        mapped_model(&corpus, &mined),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("baseline");
    for target in ["/search?q=mining", "/search?q=data+mining&top=4", "/hierarchy", "/topics/1"] {
        assert_eq!(get(outer.addr(), target), get(baseline.addr(), target), "{target}");
    }
    let query = r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"coauthor"}}],"page":5}"#;
    assert_eq!(post(outer.addr(), "/query", query), post(baseline.addr(), "/query", query));
    baseline.shutdown();
    outer.shutdown();
    inner.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_query_whose_shard_is_down_is_a_typed_503() {
    // The front forwards each /query to one ring-picked shard. When that
    // shard is gone the answer is a typed 503, not a 500 or a hang, and
    // programs routed to the live shard are still answered.
    let (corpus, mined) = fixture(9);
    let dir = tmp_dir("dead-shard");
    let manifest = lesm_serve::write_shards(&corpus, &mined, ShardBy::EntityRange, 2, &dir)
        .expect("write shards");
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let mut shards: Vec<Option<ServerHandle>> = manifest
        .files
        .iter()
        .map(|file| {
            let path = dir.join(file);
            let model = lesm_serve::load_model_file(path.to_str().expect("utf-8 path"))
                .expect("map shard");
            Some(Server::start_model(model, config.clone()).expect("bind shard"))
        })
        .collect();
    let addrs: Vec<String> = shards.iter().flatten().map(|h| h.addr().to_string()).collect();
    let front = Server::start_front(addrs.clone(), config).expect("front");

    // The front's ring, rebuilt here to see where each program goes.
    let ring = lesm_serve::Front::new(addrs.clone(), Duration::from_secs(1)).expect("ring");
    let shard_of = |body: &str| {
        let raw = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let req = lesm_serve::http::parse_request(&mut raw.as_bytes()).expect("parse");
        addrs.iter().position(|a| a == ring.pick(&req.cache_key())).expect("a shard")
    };
    let bodies: Vec<String> = (1..=40)
        .map(|page| format!(r#"{{"steps":[{{"filter":{{"type":"author"}}}}],"page":{page}}}"#))
        .collect();
    let dead = shard_of(&bodies[0]);
    let live = bodies.iter().find(|b| shard_of(b) != dead).expect("a program for the live shard");
    shards[dead].take().expect("running shard").shutdown();

    let (status, body) = post(front.addr(), "/query", &bodies[0]);
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{text}");
    assert!(text.starts_with("shard unavailable"), "{text}");
    let (status, body) = post(front.addr(), "/query", live);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    front.shutdown();
    for shard in shards.into_iter().flatten() {
        shard.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}
