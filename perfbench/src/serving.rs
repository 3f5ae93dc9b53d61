//! The serve workload: `serve_cold`.
//!
//! One in-process `lesm_serve::Server` (2 workers, default 1024-entry
//! response cache) serves the v2 artifact of the 50k-document replay
//! model. A single client on the benchmark's main thread runs a closed
//! loop: it sends the next request only after the previous response has
//! been read in full, one connection per request (the server answers
//! `Connection: close`). The timed requests are two-word searches over the
//! whole vocabulary and parameter-varied query programs, far more keys
//! than the cache holds, so the workload times search and query execution.
//! There is no traffic data to copy a mix from; the blend is an assumption
//! stated in `Fixture::session` and README.md.
//!
//! After the timed phase, traced requests are replayed in-process in the
//! order they were sent, through the same public functions the server
//! calls (parse, cache, search/render/query, write), each in a span; the
//! replayed wire bytes must equal the served ones.

use crate::report::{fnv64, quantile, timed, Op, Outcome};
use crate::trace::Tracer;
use crate::{Opts, SETUP_REPS};
use lesm_core::export::json_string;
use lesm_serve::http::{parse_request, Response};
use lesm_serve::{Model, ServerConfig, ShardedLruCache};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads and closed-loop client connections.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 1;
/// Top-N of `/search`, `/topics/{id}` and `/hierarchy` (the server default).
const TOP: usize = 10;
/// One operation is a client session of sequential requests with a fixed
/// blend: `SEARCHES` searches and `PER_FAMILY` programs of each of the four
/// query families. Hypervisor steal stalls single requests for
/// milliseconds; summed over a session those stalls average out, where per
/// request they made the 90th percentile swing by a third between runs.
/// A fixed blend keeps the session's cost from depending on how many
/// heavy requests the draw happened to put in it.
const SEARCHES: usize = 8;
const PER_FAMILY: usize = 2;
const FAMILIES: [&str; 4] = ["query.filter", "query.traverse", "query.path", "query.rank"];
const SESSION: usize = SEARCHES + FAMILIES.len() * PER_FAMILY;
/// `/hierarchy` requests sent before the timed phase, so its render is
/// timed more than once in the traced run.
const HIERARCHY_REPS: usize = 5;
/// Set-up loads and index builds of the traced run's in-process replay.
const REPLAY_BUILDS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Search,
    Topic,
    Hierarchy,
    Query,
}

/// One request: what it exercises, its family for the per-kind report,
/// and its exact bytes.
#[derive(Debug)]
struct Key {
    kind: Kind,
    label: &'static str,
    request: Vec<u8>,
}

fn get(kind: Kind, label: &'static str, target: &str) -> Key {
    let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
    Key {
        kind,
        label,
        request: request.into_bytes(),
    }
}

fn post_query(label: &'static str, body: &str) -> Key {
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    Key {
        kind: Kind::Query,
        label,
        request: request.into_bytes(),
    }
}

/// xorshift64*: the deterministic request generator, seeded by `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Percent-encodes a query-string value.
fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// What the request generators draw from, taken from the generated model.
struct Fixture {
    words: Vec<String>,
    authors: Vec<String>,
    leaves: Vec<usize>,
    topics: usize,
    years: (i32, i32),
}

impl Fixture {
    fn new(
        corpus: &lesm_corpus::Corpus,
        mined: &lesm_core::MinedStructure,
    ) -> Result<Self, String> {
        let author = (0..corpus.entities.num_types())
            .find(|&t| corpus.entities.type_name(t) == Some("author"))
            .ok_or("replay model has no author type")?;
        let authors: Vec<String> = corpus
            .entities
            .table(author)
            .ok_or("no author table")?
            .iter()
            .map(|(_, name)| name.to_string())
            .collect();
        if authors.len() < 2 {
            return Err("replay model has fewer than two authors".into());
        }
        let years = corpus.docs.iter().filter_map(|d| d.year);
        let years = (
            years.clone().min().unwrap_or(2000),
            years.max().unwrap_or(2013),
        );
        Ok(Self {
            words: corpus.vocab.iter().map(|(_, w)| w.to_string()).collect(),
            authors,
            leaves: mined.hierarchy.leaves(),
            topics: mined.hierarchy.len(),
            years,
        })
    }

    fn search(&self, rng: &mut Rng) -> Key {
        let q = format!("{} {}", rng.pick(&self.words), rng.pick(&self.words));
        get(Kind::Search, "search", &format!("/search?q={}", encode(&q)))
    }

    /// A program of `bench_query` family `family` (filter-only, 2-hop
    /// traverse, path, rank + paginate), parameters drawn from `rng`.
    fn query(&self, family: usize, rng: &mut Rng) -> Key {
        let body = match family {
            0 => {
                let span = (self.years.1 - self.years.0 + 1) as usize;
                let min = self.years.0 + rng.below(span) as i32;
                let max = min + rng.below((self.years.1 - min + 1) as usize) as i32;
                let page = 10 + rng.below(91);
                format!(
                    r#"{{"steps":[{{"filter":{{"type":"doc","years":{{"min":{min},"max":{max}}}}}}}],"page":{page}}}"#
                )
            }
            1 => format!(
                r#"{{"steps":[{{"filter":{{"type":"author","name":{}}}}},{{"traverse":{{"edge":"coauthor"}}}},{{"traverse":{{"edge":"coauthor"}}}}],"page":100}}"#,
                json_string(rng.pick::<String>(&self.authors))
            ),
            2 => {
                // Distinct endpoints: enumerating the cycles from an author
                // back to itself exhausts the engine's path budget (a typed
                // 400 by design, DESIGN.md §14), which is not this family.
                let from = rng.below(self.authors.len());
                let to = (from + 1 + rng.below(self.authors.len() - 1)) % self.authors.len();
                format!(
                    r#"{{"steps":[{{"filter":{{"type":"author","name":{}}}}},{{"path":{{"to":{{"type":"author","name":{}}},"edges":["coauthor"],"max_depth":3,"mode":"paths","limit":100}}}}]}}"#,
                    json_string(&self.authors[from]),
                    json_string(&self.authors[to])
                )
            }
            _ => {
                let by = rng.pick(&["pop", "pur", "combined"]);
                let topic = rng.pick(&self.leaves);
                let limit = 100 + rng.below(901);
                let page = 10 + rng.below(91);
                format!(
                    r#"{{"steps":[{{"filter":{{"type":"author"}}}},{{"rank":{{"by":"{by}","topic":{topic},"limit":{limit}}}}}],"page":{page}}}"#
                )
            }
        };
        post_query(FAMILIES[family], &body)
    }

    /// One session's requests in a seeded order. The blend is an
    /// assumption, not measured traffic: the workload exists to time
    /// execution on cache misses, and only `/search` and `/query` have more
    /// keys than the cache holds, so they get equal shares, and the four
    /// query families split the `/query` half evenly.
    fn session(&self, rng: &mut Rng) -> Vec<Key> {
        let mut keys: Vec<Key> = (0..SEARCHES).map(|_| self.search(rng)).collect();
        for family in 0..FAMILIES.len() {
            keys.extend((0..PER_FAMILY).map(|_| self.query(family, rng)));
        }
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        keys
    }

    /// The render endpoints, sent once before the timed phase (the
    /// hierarchy `HIERARCHY_REPS` times): they have a few dozen keys, which
    /// the cache answers after first use, so they stay out of the timed
    /// blend but are checked on every run and timed in the traced one.
    fn render_keys(&self) -> Vec<Key> {
        (0..HIERARCHY_REPS)
            .map(|_| get(Kind::Hierarchy, "hierarchy", "/hierarchy"))
            .chain((0..self.topics).map(|id| get(Kind::Topic, "topic", &format!("/topics/{id}"))))
            .collect()
    }
}

/// Sends one request on a fresh connection and reads the whole response.
fn send(addr: SocketAddr, request: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(raw)
}

/// The body of a 200 response; any other status is an error.
fn body_of(raw: &[u8]) -> Result<&[u8], String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no head")?;
    let status = String::from_utf8_lossy(
        &raw[..raw[..split]
            .iter()
            .position(|&b| b == b'\r')
            .unwrap_or(split)],
    );
    if !status.starts_with("HTTP/1.1 200 ") {
        let body = String::from_utf8_lossy(&raw[split + 4..]);
        return Err(format!("{status}: {}", body.trim_end()));
    }
    Ok(&raw[split + 4..])
}

/// Server counters scraped from `/metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    errors: f64,
    shed: f64,
}

fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let raw = send(addr, &get(Kind::Search, "metrics", "/metrics").request)?;
    let body = String::from_utf8_lossy(body_of(&raw)?).into_owned();
    let mut c = Counters::default();
    for line in body.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        let slot = match name.split('{').next().unwrap_or("") {
            "lesm_cache_hits_total" => &mut c.hits,
            "lesm_cache_misses_total" => &mut c.misses,
            "lesm_request_errors_total" => &mut c.errors,
            "lesm_connections_shed_total" => &mut c.shed,
            _ => continue,
        };
        *slot += value;
    }
    Ok(c)
}

/// A timed request, kept for the replay after the timed phase.
struct Sent {
    op: u64,
    key: Key,
    digest: u64,
    traced: bool,
}

/// The benchmark's own copies of what the server holds, for the replays.
struct Replay {
    model: Model,
    index: lesm_query::QueryIndex,
    /// Mirrors the server's response cache: same capacity and shards, fed
    /// the same keys in the same order, so it hits exactly where the
    /// server's cache did.
    cache: ShardedLruCache<Response>,
    /// Traced operations whose replayed cache lookup missed.
    misses: BTreeSet<u64>,
}

impl Replay {
    /// Runs the server's request path in-process, one span per layer, and
    /// checks the replayed wire bytes against the served ones' digest.
    fn run(&mut self, tr: &mut Tracer, sent: &Sent) -> Result<(), String> {
        let key = &sent.key;
        tr.span("replay", |tr| {
            let req = tr
                .span("serve.parse", |_| parse_request(&mut &key.request[..]))
                .map_err(|e| e.to_string())?;
            let hit = tr
                .span("serve.cache_get", |_| self.cache.get(&req.cache_key()))
                .is_some();
            let response = match key.kind {
                Kind::Search => {
                    let q = req.query_param("q").unwrap_or_default();
                    let lines = tr.span("serve.search", |_| self.model.search_lines(&q, TOP));
                    Response::ok(lines.iter().map(|l| format!("{l}\n")).collect::<String>())
                }
                Kind::Topic => {
                    let id = req
                        .path
                        .trim_start_matches("/topics/")
                        .parse()
                        .unwrap_or(usize::MAX);
                    let body = tr.span("serve.topic", |_| self.model.render_topic(id, TOP));
                    Response::ok(format!("{}\n", body.ok_or("no such topic")?))
                }
                Kind::Hierarchy => {
                    Response::json(tr.span("serve.hierarchy", |_| self.model.hierarchy_json(TOP)))
                }
                Kind::Query => Response::json(
                    tr.span("query.run", |_| {
                        lesm_query::run_query(&self.index, &req.body)
                    })
                    .map_err(|e| e.to_string())?,
                ),
            };
            let mut wire = Vec::new();
            tr.span("serve.write", |_| response.write_to(&mut wire))
                .map_err(|e| e.to_string())?;
            if !hit {
                self.misses.insert(sent.op);
                self.cache.put(req.cache_key(), Arc::new(response));
            }
            if fnv64(&wire) != sent.digest {
                return Err(format!(
                    "op {}: in-process replay differs from the served bytes",
                    sent.op
                ));
            }
            Ok(())
        })
    }

    /// Feeds an untraced request's key to the cache mirror.
    fn observe(&mut self, key: &Key) -> Result<(), String> {
        let req = parse_request(&mut &key.request[..]).map_err(|e| e.to_string())?;
        if self.cache.get(&req.cache_key()).is_none() {
            self.cache
                .put(req.cache_key(), Arc::new(Response::ok(Vec::new())));
        }
        Ok(())
    }

    /// Sets the serve per-layer metrics from the spans.
    fn report(&self, out: &mut Outcome, tracer: &Tracer) {
        crate::set_layers(
            out,
            tracer,
            &[
                "serve.parse_us",
                "serve.cache_get_us",
                "serve.write_us",
                "serve.rtt_ms",
                "serve.search_ms",
                "serve.topic_ms",
                "serve.hierarchy_ms",
                "query.run_ms",
                "serve.load_ms",
                "query.index_build_ms",
            ],
        );
        let per_op = tracer.self_ns_per_op();
        // Round trip minus the in-process parts the server ran for it, over
        // the replayed requests; execution counts only where the cache missed.
        let (Some(rtt), Some(replayed)) = (per_op.get("serve.rtt"), per_op.get("replay")) else {
            return;
        };
        let at = |name: &str, op: &u64| {
            per_op
                .get(name)
                .and_then(|m| m.get(op))
                .copied()
                .unwrap_or(0.0)
        };
        let residual: Vec<f64> = replayed
            .keys()
            .filter_map(|op| Some((op, rtt.get(op)?)))
            .map(|(op, ns)| {
                let mut inside =
                    at("serve.parse", op) + at("serve.cache_get", op) + at("serve.write", op);
                if self.misses.contains(op) {
                    inside += [
                        "serve.search",
                        "serve.topic",
                        "serve.hierarchy",
                        "query.run",
                    ]
                    .iter()
                    .map(|s| at(s, op))
                    .sum::<f64>();
                }
                ns - inside
            })
            .collect();
        out.set(
            "serve.transport_residual_ms",
            quantile(&residual, 0.5) / 1e6,
        );
    }
}

/// Checks one served response: a 200, and byte-identical to the first
/// response to the same request within this run.
fn check_response(seen: &mut HashMap<Vec<u8>, u64>, key: &Key, raw: &[u8]) -> Result<(), String> {
    body_of(raw).map_err(|e| {
        let request = String::from_utf8_lossy(&key.request);
        let body = request.split("\r\n\r\n").nth(1).unwrap_or("");
        format!("{} {body} -> {e}", request.lines().next().unwrap_or(""))
    })?;
    let digest = fnv64(raw);
    let first = *seen.entry(key.request.clone()).or_insert(digest);
    if first != digest {
        return Err(format!(
            "repeated request {:?} returned different bytes",
            String::from_utf8_lossy(&key.request)
                .lines()
                .next()
                .unwrap_or("")
        ));
    }
    Ok(())
}

/// A started server and what its set-up produced.
struct Started {
    server: lesm_serve::ServerHandle,
    fixture: Fixture,
    artifact: String,
    digest: u64,
    artifact_mb: f64,
    time: Op,
}

/// One set-up repetition: generate the model and write its v2 artifact,
/// then load it, start the server, and build its query index with a first
/// /query. The generated corpus and structure are gone before the load, as
/// they would be for a server started on the artifact.
fn set_up(
    opts: &Opts,
    rep: usize,
    config: &ServerConfig,
    first_query: &Key,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Started, String> {
    let docs = if opts.tiny { 2_000 } else { 50_000 };
    let artifact = opts.work.join(format!("model-{rep}.lesm"));
    let artifact = artifact.to_str().ok_or("non-UTF-8 work path")?.to_string();
    tracer.begin_op();
    let cpu = crate::host::process_cpu_secs()?;
    let start = Instant::now();
    let (fixture, bytes) = {
        let (corpus, mined) = lesm_bench::datasets::replay_model(docs, opts.seed);
        let bytes = lesm_serve::save_snapshot_v2(&corpus, &mined).map_err(|e| e.to_string())?;
        (Fixture::new(&corpus, &mined)?, bytes)
    };
    std::fs::write(&artifact, &bytes).map_err(|e| e.to_string())?;
    let (digest, artifact_mb) = (fnv64(&bytes), bytes.len() as f64 / 1e6);
    drop(bytes);
    let model = tracer
        .span("serve.load", |_| lesm_serve::load_model_file(&artifact))
        .map_err(|e| e.to_string())?;
    let server =
        lesm_serve::Server::start_model(model, config.clone()).map_err(|e| e.to_string())?;
    let first = send(server.addr(), &first_query.request);
    let time = Op {
        window: 0,
        secs: start.elapsed().as_secs_f64(),
        cpu: crate::host::process_cpu_secs()? - cpu,
    };
    out.record(first.and_then(|raw| body_of(&raw).map(drop)));
    Ok(Started {
        server,
        fixture,
        artifact,
        digest,
        artifact_mb,
        time,
    })
}

pub fn serve_cold(opts: &Opts) -> Result<Outcome, String> {
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let first_query = post_query(
        "query.filter",
        r#"{"steps":[{"filter":{"type":"author"}}],"page":1}"#,
    );
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    tracer.set_enabled(opts.trace);

    // The timed phase follows the first set-up; the other repetitions run
    // after it, so the serving memory peak is that of a process that set
    // up once (repeated set-ups leave the heap fragmented by a varying
    // amount).
    let Started {
        server,
        fixture,
        artifact,
        digest,
        artifact_mb,
        time,
    } = set_up(opts, 0, &config, &first_query, &mut tracer, &mut out)?;
    let mut setup = vec![time];
    let addr = server.addr();
    out.set("serve.artifact_mb", artifact_mb);
    out.set("hier.topics", fixture.topics as f64);
    out.note(format!("digest: model artifact {digest:016x}"));

    let mut replay = if opts.trace {
        // The replay's own model and index, loaded and built as the server
        // does, several times so that their rows are medians.
        let mut built = None;
        for _ in 0..REPLAY_BUILDS {
            tracer.begin_op();
            let model = tracer
                .span("serve.load", |_| lesm_serve::load_model_file(&artifact))
                .map_err(|e| e.to_string())?;
            let index = tracer.span("query.index_build", |_| {
                let parts = model.query_parts()?;
                lesm_query::QueryIndex::build(parts).map_err(|e| e.to_string())
            })?;
            built = Some((model, index));
        }
        let (model, index) = built.ok_or("no index built")?;
        let cache = ShardedLruCache::new(config.cache_capacity, config.cache_shards);
        let mut replay = Replay {
            model,
            index,
            cache,
            misses: BTreeSet::new(),
        };
        // The server's cache already holds the set-up's first /query.
        replay.observe(&first_query)?;
        Some(replay)
    } else {
        None
    };

    // Untimed: every render endpoint and one session. In the traced run all
    // of them are replayed in-process, which times the topic and
    // hierarchy renders.
    let mut rng = Rng::new(opts.seed);
    let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut sent = Vec::new();
    let warmup = fixture
        .render_keys()
        .into_iter()
        .chain(fixture.session(&mut rng));
    for key in warmup {
        tracer.begin_op();
        let result = send(addr, &key.request).and_then(|raw| {
            check_response(&mut seen, &key, &raw)?;
            if opts.trace {
                let digest = fnv64(&raw);
                sent.push(Sent {
                    op: tracer.op(),
                    key,
                    digest,
                    traced: true,
                });
            }
            Ok(())
        });
        out.record(result);
    }

    // `peak_rss_mb` is the serving peak: the high-water mark restarts here,
    // at the loaded model, its index and the running server.
    match crate::host::reset_peak_rss() {
        Ok(()) => out.note(format!(
            "peak RSS mark restarted at {:.1} MB before the timed phase",
            crate::host::rss_mb()?
        )),
        Err(e) => out.note(format!("{e}; peak_rss_mb includes set-up")),
    }

    // The timed phase only sends, checks and records round trips; traced
    // requests differ from untraced ones by their span alone, so the two
    // stay comparable. The in-process replays run after it.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut corrupted = false;
    let before = scrape(addr)?;
    let cpu = crate::host::cpu_sample();
    let start = Instant::now();
    for session in 0u64.. {
        if session > 0 && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        tracer.set_enabled(opts.trace && session % 2 == 1);
        let window = start.elapsed().as_secs();
        let mut session_time = Op {
            window,
            secs: 0.0,
            cpu: 0.0,
        };
        let mut all_ok = true;
        for key in fixture.session(&mut rng) {
            tracer.begin_op();
            let (raw, rtt) = timed(window, || {
                tracer.span("serve.rtt", |_| send(addr, &key.request))
            })?;
            session_time.secs += rtt.secs;
            session_time.cpu += rtt.cpu;
            per_kind.entry(key.label).or_default().push(rtt.secs);
            let result = raw.and_then(|mut raw| {
                // Self-test fault: corrupt the first response that a check
                // can compare, a repeated request or a traced (replayed) one.
                let comparable = seen.contains_key(&key.request) || tracer.enabled();
                if opts.fault && !corrupted && comparable {
                    corrupted = true;
                    let last = raw.len() - 1;
                    raw[last] ^= 0x20;
                }
                check_response(&mut seen, &key, &raw)?;
                if opts.trace {
                    let digest = fnv64(&raw);
                    sent.push(Sent {
                        op: tracer.op(),
                        key,
                        digest,
                        traced: tracer.enabled(),
                    });
                }
                Ok(())
            });
            all_ok &= result.is_ok();
            out.record(result);
        }
        if all_ok {
            if tracer.enabled() {
                traced.push(session_time.secs);
            } else {
                untraced.push(session_time);
            }
        }
    }
    let steal = crate::host::steal_pct(cpu, crate::host::cpu_sample());
    out.set("peak_rss_mb", crate::host::peak_rss_mb()?);
    let after = scrape(addr)?;
    server.shutdown();
    for rep in 1..SETUP_REPS {
        let again = set_up(opts, rep, &config, &first_query, &mut tracer, &mut out)?;
        again.server.shutdown();
        setup.push(again.time);
        if again.digest != digest {
            out.record(Err(
                "model artifact differs between set-up repetitions".into()
            ));
        }
    }
    crate::set_setup(&mut out, &setup);

    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_ratio = hits / (hits + misses).max(1.0);
    out.set("serve.cache_hit_ratio", hit_ratio);
    out.set("serve.shed", after.shed);
    out.set("serve.errors", after.errors);
    out.set("host.steal_pct", steal);
    out.note(format!(
        "server: {hits} cache hits, {misses} misses (hit ratio {hit_ratio:.4}), {} errors, {} shed",
        after.errors, after.shed
    ));
    out.note(format!(
        "timed requests by family: {}",
        per_kind
            .iter()
            .map(|(label, secs)| format!(
                "{label} {} (p50 {:.3} ms)",
                secs.len(),
                quantile(secs, 0.5) * 1e3
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if after.errors > 0.0 || after.shed > 0.0 {
        out.record(Err(format!(
            "server counted {} errors and {} shed connections",
            after.errors, after.shed
        )));
    }
    out.set_op_metrics(&untraced, SESSION as f64);
    if let Some(replay) = replay.as_mut() {
        // Replay the sent requests in order, so the cache mirror sees the
        // server's key sequence; traced ones run the full request path
        // until the replay has used as long as the timed phase.
        let replay_start = Instant::now();
        let mut replayed = 0;
        for request in &sent {
            if request.traced && replay_start.elapsed().as_secs_f64() < opts.seconds {
                tracer.set_enabled(true);
                tracer.set_op(request.op);
                replayed += 1;
                out.record(replay.run(&mut tracer, request));
            } else {
                replay.observe(&request.key)?;
            }
        }
        out.note(format!(
            "replayed {replayed} of {} traced requests in-process",
            sent.iter().filter(|s| s.traced).count()
        ));
        replay.report(&mut out, &tracer);
        crate::finish_trace(&mut out, &tracer, &untraced, &traced, opts)?;
    }
    Ok(out)
}
