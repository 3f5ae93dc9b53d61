//! The threaded query server.
//!
//! Architecture (DESIGN.md §9, §13): one acceptor thread plus a fixed
//! pool of `workers` handler threads. The acceptor pushes accepted
//! connections onto a **bounded** queue (a `Mutex<VecDeque>` of at most
//! `queue_depth` connections beside a `Condvar`) and wakes exactly one
//! idle worker per connection; workers sleep on the condvar, never poll.
//! A worker parses the request, consults the sharded LRU response cache,
//! runs the query against the current model and sends the response in one
//! write. When the queue is full the acceptor sheds the connection with
//! `503 Service Unavailable` instead of letting latency grow without
//! bound — backpressure is explicit and typed, and shed connections are
//! counted in `/metrics`. Shutdown closes the queue and wakes every
//! worker; each answers what is still queued before it exits.
//!
//! A server runs one of two backends:
//!
//! * **Local**: a zero-copy mapped v2 artifact behind [`Model`].
//! * **Front**: no model and no query index; `/search` fans out over
//!   the shards of a manifest and every other endpoint is forwarded to
//!   one of them ([`crate::front::Front`]), byte-identical to a single
//!   server over the unsharded model.
//!
//! The backend, its response cache and its memoized query index (a local
//! backend's; a front forwards `/query` and builds none) form one swap
//! unit, `Served`, behind an `RwLock<Arc<..>>`. Each request clones
//! the `Arc` once and answers, caches and builds against that one value
//! for its whole lifetime. A store watcher hot-swaps by storing a fresh
//! `Served`; nothing is cleared or reset, and a request still running on
//! the old model writes only into the old value, which is dropped with
//! its last request.
//!
//! Handlers are pure functions of the model, so responses are
//! byte-identical to offline CLI output for any worker count, cache
//! state, or shard count.

use crate::cache::{Fetched, ShardedLruCache};
use crate::front::Front;
use crate::http::{parse_request, HttpParseError, Request, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::query::Model;
use crate::ServeError;
use lesm_query::QueryIndex;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// Fixed worker-thread count (≥ 1).
    pub workers: usize,
    /// Accepted connections queued ahead of the workers before the
    /// acceptor sheds new arrivals with 503 (≥ 1).
    pub queue_depth: usize,
    /// Response-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Number of cache lock shards.
    pub cache_shards: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// When set, the acceptor polls for this file and shuts down
    /// gracefully once it exists (operator signal without in-process
    /// coordination).
    pub shutdown_file: Option<PathBuf>,
    /// Top-N used by `/search`, `/topics/{id}` and `/hierarchy` rendering
    /// (matches the CLI's fixed 10 so responses are byte-identical).
    pub top_n: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 128,
            cache_capacity: 1024,
            cache_shards: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            shutdown_file: None,
            top_n: 10,
        }
    }
}

enum Backend {
    Local(Model),
    Front(Front),
}

/// Everything derived from one model, swapped as one value: the backend,
/// the responses computed from it and, for a local backend, its query
/// index, built on the first `/query`.
struct Served {
    backend: Backend,
    cache: ShardedLruCache<Response>,
    query: OnceLock<QueryIndex>,
}

impl Served {
    fn new(backend: Backend, config: &ServerConfig) -> Arc<Self> {
        Arc::new(Self {
            backend,
            cache: ShardedLruCache::new(config.cache_capacity, config.cache_shards),
            query: OnceLock::new(),
        })
    }

    /// `model`'s query index, building and memoizing it on first use. A
    /// failed build is returned as the response to send and is not
    /// memoized. Two workers racing the first build both compute the
    /// identical index and the first to finish is kept.
    fn query_index(&self, model: &Model) -> Result<&QueryIndex, Response> {
        if let Some(index) = self.query.get() {
            return Ok(index);
        }
        let index = model
            .query_parts()
            .and_then(|parts| QueryIndex::build(parts).map_err(|e| e.to_string()))
            .map_err(|e| Response::error(500, &format!("query index build failed: {e}")))?;
        Ok(self.query.get_or_init(|| index))
    }
}

struct ServerState {
    current: RwLock<Arc<Served>>,
    metrics: Metrics,
    top_n: usize,
}

impl ServerState {
    /// The value serving this request. The `Arc` clone pins the version
    /// for the request's lifetime; a concurrent hot-swap affects only
    /// later requests.
    fn serving(&self) -> Arc<Served> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }
}

/// The query server. Construct with one of the `start_*` methods; the
/// returned [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Serves a loaded model.
    pub fn start_model(model: Model, config: ServerConfig) -> Result<ServerHandle, ServeError> {
        Self::start_backend(Backend::Local(model), config)
    }

    /// Serves a versioned snapshot store directory with hot-swap: loads
    /// the `CURRENT` version, then polls the pointer and swaps in the new
    /// model, with an empty response cache and no query index, whenever
    /// a new version is published.
    pub fn start_store(dir: &Path, config: ServerConfig) -> Result<ServerHandle, ServeError> {
        let (version, model) = crate::store::load_current(dir)
            .map_err(|e| ServeError::InvalidConfig(format!("store {}: {e}", dir.display())))?;
        let mut handle = Self::start_backend(Backend::Local(model), config.clone())?;
        let state = Arc::clone(&handle.state);
        let stop = Arc::clone(&handle.stop);
        let dir = dir.to_path_buf();
        handle.threads.push(std::thread::spawn(move || {
            let mut active = version;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                let Ok(Some(next)) = crate::store::current_version(&dir) else { continue };
                if next == active {
                    continue;
                }
                // A bad publish must not take down serving: keep the
                // active version until the new artifact loads cleanly.
                match crate::query::load_model_file(&dir.join(&next).to_string_lossy()) {
                    Ok(model) => {
                        let served = Served::new(Backend::Local(model), &config);
                        *state.current.write().unwrap_or_else(|p| p.into_inner()) = served;
                        active = next;
                    }
                    Err(_) => continue,
                }
            }
        }));
        Ok(handle)
    }

    /// Starts a front server over already-running shard servers.
    pub fn start_front(
        shards: Vec<String>,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let front = Front::new(shards, config.read_timeout)?;
        Self::start_backend(Backend::Front(front), config)
    }

    /// Boots a complete sharded deployment from a `manifest.json`: one
    /// local shard server per shard artifact (ephemeral ports, shard
    /// files resolved relative to the manifest), then a front over them
    /// bound at `config.addr`. Shutting down the returned handle shuts
    /// the whole tree down.
    pub fn start_sharded(
        manifest_path: &Path,
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        let manifest = crate::shard::load_manifest(manifest_path)?;
        let dir = manifest_path.parent().unwrap_or(Path::new("."));
        let mut children = Vec::with_capacity(manifest.files.len());
        let mut addrs = Vec::with_capacity(manifest.files.len());
        for file in &manifest.files {
            let path = dir.join(file);
            let model = crate::query::load_model_file(&path.to_string_lossy())
                .map_err(|e| ServeError::InvalidConfig(format!("shard {file}: {e}")))?;
            let shard_config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                shutdown_file: None,
                ..config.clone()
            };
            let child = Self::start_model(model, shard_config)?;
            addrs.push(child.addr().to_string());
            children.push(child);
        }
        let mut handle = Self::start_front(addrs, config)?;
        handle.children = children;
        Ok(handle)
    }

    fn start_backend(backend: Backend, config: ServerConfig) -> Result<ServerHandle, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if config.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be >= 1".into()));
        }
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;

        let state = Arc::new(ServerState {
            current: RwLock::new(Served::new(backend, &config)),
            metrics: Metrics::new(),
            top_n: config.top_n,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(config.queue_depth));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let cfg = config.clone();
            threads.push(std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    handle_connection(stream, &state, &cfg);
                }
            }));
        }
        // The acceptor blocks in `accept()` (no polling, so accepted
        // connections see zero added latency). Shutdown wakes it with a
        // throwaway connection to its own port after setting the flag.
        {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            let write_timeout = config.write_timeout;
            threads.push(std::thread::spawn(move || {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            // Queue full: shed with a typed 503 instead
                            // of queueing unbounded latency. Counted
                            // before the write, as requests are, so a
                            // client that has read its 503 finds it in
                            // `/metrics`.
                            if let Err(stream) = queue.push(stream) {
                                state.metrics.record_shed();
                                shed(stream, write_timeout);
                            }
                        }
                        Err(_) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                // Closing wakes every worker: they answer the queued
                // connections, then exit.
                queue.close();
            }));
        }
        // Optional operator-signal watcher: polls for the shutdown file
        // and triggers the same stop-and-wake path the handle uses.
        if let Some(path) = config.shutdown_file.clone() {
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if path.exists() {
                    stop.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(addr);
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }));
        }
        Ok(ServerHandle { addr, stop, threads, state, children: Vec::new() })
    }
}

/// The bounded hand-off from the acceptor to the workers: accepted
/// connections in arrival order, at most `depth` of them. Each push wakes
/// one waiting worker; a worker that is busy when a connection arrives
/// finds it on its next `pop`, because the check and the wait happen under
/// the one lock.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { conns: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Queues `stream` and wakes one worker, or hands `stream` back when
    /// `depth` connections are already waiting.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.conns.len() >= self.depth {
            return Err(stream);
        }
        state.conns.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Marks the queue closed and wakes every worker. What is queued is
    /// still handed out; `pop` returns `None` once it is gone.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// The oldest queued connection, waiting for one if the queue is empty
    /// and open; `None` once it is closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.conns.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The queue state. A poisoned lock means a thread panicked holding
    /// it; every critical section is one `VecDeque` or flag update, so the
    /// state is still whole and the pool keeps serving.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Writes the load-shedding 503 straight from the acceptor. The write is
/// one small buffer into a fresh socket's send buffer, so it effectively
/// never blocks; the timeout bounds the pathological case.
fn shed(stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = Response::error(503, "server overloaded, retry later").write_to(&mut &stream);
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>, config: &ServerConfig) {
    // A slow or silent client costs a worker at most read_timeout +
    // write_timeout. The listener is blocking, so the accepted socket is.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // lesm-lint: allow(D3, D4) — wall-clock guards the per-connection timeout; it never reaches a response body
    let started = Instant::now();
    let (endpoint, response) = match parse_request(&mut BufReader::new(&stream)) {
        Ok(req) => route(&req, state),
        Err(HttpParseError::TooLarge) => {
            (Endpoint::Other, Arc::new(Response::error(400, "request head too large")))
        }
        Err(HttpParseError::BodyTooLarge) => {
            (Endpoint::Other, Arc::new(Response::error(400, "request body too large")))
        }
        Err(HttpParseError::BadContentLength) => {
            (Endpoint::Other, Arc::new(Response::error(400, "bad content-length header")))
        }
        Err(HttpParseError::BadRequestLine(line)) => {
            (Endpoint::Other, Arc::new(Response::error(400, &format!("bad request line: {line}"))))
        }
        Err(HttpParseError::Incomplete) => {
            (Endpoint::Other, Arc::new(Response::error(408, "incomplete request")))
        }
    };
    // Counted before the write, so a client that has read its whole
    // response finds it in `/metrics`: the recorded latency ends when the
    // response is rendered, not when it is written.
    state
        .metrics
        .record_request(endpoint, response.status >= 400, started.elapsed());
    let _ = response.write_to(&mut &stream);
}

fn route(req: &Request, state: &Arc<ServerState>) -> (Endpoint, Arc<Response>) {
    let endpoint = match req.path.as_str() {
        "/search" => Endpoint::Search,
        "/hierarchy" => Endpoint::Hierarchy,
        "/healthz" => Endpoint::Healthz,
        "/metrics" => Endpoint::Metrics,
        "/internal/search" => Endpoint::Internal,
        "/query" => Endpoint::Query,
        p if p.starts_with("/topics/") => Endpoint::Topics,
        _ => Endpoint::Other,
    };
    // `/query` takes its program in the body, so it is the one POST
    // endpoint; everything else stays GET-only.
    let expected = if endpoint == Endpoint::Query { "POST" } else { "GET" };
    if req.method != expected {
        let message = if endpoint == Endpoint::Query {
            "use POST for /query"
        } else {
            "only GET is supported"
        };
        return (endpoint, Arc::new(Response::error(405, message)));
    }
    match endpoint {
        Endpoint::Healthz => (endpoint, Arc::new(Response::ok("ok\n"))),
        Endpoint::Metrics => (endpoint, Arc::new(Response::ok(state.metrics.render()))),
        Endpoint::Other => (endpoint, Arc::new(Response::error(404, "no such endpoint"))),
        _ => (endpoint, cached(endpoint, req, &state.serving(), state)),
    }
}

/// Serves a query endpoint through the response cache. Only successful
/// responses are cached; the key is the full request target — plus the
/// body for `POST /query` — so distinct queries never collide. Hits hand
/// back the cached `Arc` — no byte of the response is copied until it is
/// written to the socket. Concurrent misses on one key compute it once:
/// the others wait for that response (a non-200 one too) and count as
/// hits, because they were answered without computing.
fn cached(
    endpoint: Endpoint,
    req: &Request,
    served: &Served,
    state: &ServerState,
) -> Arc<Response> {
    let (response, fetched) = served.cache.get_or_compute(
        &req.cache_key(),
        || {
            // A body rendered by appending keeps up to twice its length
            // in capacity; a cached one holds that for its whole stay.
            let mut response = compute(endpoint, req, served, state.top_n);
            response.body.shrink_to_fit();
            response
        },
        |response| response.status == 200,
    );
    match fetched {
        Fetched::Computed => state.metrics.record_cache_miss(endpoint),
        Fetched::Hit | Fetched::Joined => state.metrics.record_cache_hit(endpoint),
    }
    response
}

fn compute(endpoint: Endpoint, req: &Request, served: &Served, top_n: usize) -> Response {
    let model = match &served.backend {
        Backend::Local(model) => model,
        Backend::Front(front) => {
            return match endpoint {
                Endpoint::Search => front.search(req, top_n, false),
                Endpoint::Internal => front.search(req, top_n, true),
                Endpoint::Topics | Endpoint::Hierarchy | Endpoint::Query => front.forward(req),
                // Non-query endpoints never reach here (route() answers
                // them directly); answer 404 instead of panicking if that
                // changes.
                _ => Response::error(404, "no such endpoint"),
            };
        }
    };
    match endpoint {
        Endpoint::Search => handle_search(req, model, top_n, false),
        Endpoint::Internal => handle_search(req, model, top_n, true),
        Endpoint::Topics => handle_topic(req, model, top_n),
        Endpoint::Hierarchy => Response::json(model.hierarchy_json(top_n)),
        Endpoint::Query => handle_query(req, model, served),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Executes `POST /query`: parse, run, render — all inside
/// `lesm_query::run_query`, which is a pure function of (index, body).
/// Malformed programs and cursors are the client's fault (400, typed
/// message); only an index that cannot be built is a server error.
fn handle_query(req: &Request, model: &Model, served: &Served) -> Response {
    let index = match served.query_index(model) {
        Ok(index) => index,
        Err(response) => return response,
    };
    match lesm_query::run_query(index, &req.body) {
        Ok(body) => Response::json(body),
        Err(e) if e.is_request_error() => Response::error(400, &e.to_string()),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// The `/search` query and hit count, or the 400 to answer with. The
/// front tier checks its requests with this too, so both reject the same
/// requests with the same bytes.
pub(crate) fn search_params(
    req: &Request,
    default_top: usize,
) -> Result<(String, usize), Response> {
    let Some(query) = req.query_param("q") else {
        return Err(Response::error(400, "missing query parameter q"));
    };
    let top = match req.query_param("top") {
        None => default_top,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return Err(Response::error(400, "top must be a positive integer")),
        },
    };
    Ok((query, top))
}

fn handle_search(req: &Request, model: &Model, default_top: usize, internal: bool) -> Response {
    let (query, top) = match search_params(req, default_top) {
        Ok(params) => params,
        Err(bad) => return bad,
    };
    let lines = if internal {
        model.internal_search_lines(&query, top)
    } else {
        model.search_lines(&query, top)
    };
    // Byte-identical to the CLI, which prints one line per hit.
    let mut body = String::new();
    for line in lines {
        body.push_str(&line);
        body.push('\n');
    }
    Response::ok(body)
}

fn handle_topic(req: &Request, model: &Model, top_n: usize) -> Response {
    let raw_id = req.path.strip_prefix("/topics/").unwrap_or("");
    let Ok(id) = raw_id.parse::<usize>() else {
        return Response::error(400, "topic id must be a non-negative integer");
    };
    match model.render_topic(id, top_n) {
        Some(mut body) => {
            body.push('\n');
            Response::ok(body)
        }
        None => Response::error(404, "no such topic"),
    }
}

/// Running-server handle: the bound address, the shutdown flag, the
/// spawned threads, and (for sharded deployments) the shard servers.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
    children: Vec<ServerHandle>,
}

impl ServerHandle {
    /// The actually bound socket address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters (shared with the handler threads).
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Number of responses cached for the model currently served.
    pub fn cached_responses(&self) -> usize {
        self.state.serving().cache.len()
    }

    /// Addresses of the shard servers owned by this handle (sharded
    /// deployments only; empty otherwise).
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.children.iter().map(ServerHandle::addr).collect()
    }

    /// Requests a graceful stop and joins every thread: the acceptor
    /// stops accepting, workers drain queued connections, then exit.
    /// Shard servers owned by this handle stop after the front.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking `accept()`.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for child in self.children.drain(..) {
            child.shutdown();
        }
    }

    /// Blocks until the server stops on its own (e.g. via the shutdown
    /// signal file).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for child in self.children.drain(..) {
            child.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` connected client sockets, and the listener that keeps them open.
    fn connections(n: usize) -> (TcpListener, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        let conns = (0..n).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        (listener, conns)
    }

    fn port(stream: &TcpStream) -> u16 {
        stream.local_addr().expect("local address").port()
    }

    #[test]
    fn the_queue_refuses_past_its_depth_and_drains_in_order_after_close() {
        let (_listener, conns) = connections(3);
        let ports: Vec<u16> = conns.iter().map(port).collect();
        let queue = ConnQueue::new(2);
        let mut conns = conns.into_iter();
        for _ in 0..2 {
            assert!(queue.push(conns.next().expect("a connection")).is_ok());
        }
        let refused = queue.push(conns.next().expect("a connection")).expect_err("queue is full");
        assert_eq!(port(&refused), ports[2]);
        queue.close();
        assert_eq!(queue.pop().as_ref().map(port), Some(ports[0]));
        assert_eq!(queue.pop().as_ref().map(port), Some(ports[1]));
        assert!(queue.pop().is_none());
        assert!(queue.pop().is_none(), "a closed, drained queue stays drained");
    }

    #[test]
    fn a_worker_takes_what_is_pushed_and_exits_on_close() {
        let (_listener, conns) = connections(2);
        let queue = ConnQueue::new(2);
        std::thread::scope(|s| {
            // Whether the worker is already waiting when a push lands or
            // arrives after it, it takes both connections, then stops.
            let worker = s.spawn(|| std::iter::from_fn(|| queue.pop()).count());
            for conn in conns {
                queue.push(conn).expect("room in the queue");
            }
            queue.close();
            assert_eq!(worker.join().expect("worker thread"), 2);
        });
    }
}
