//! The HTTP/1.1 frontend for the query engine — the stand-in for the
//! paper's Tornado web server, built for many concurrent dashboard
//! sessions rather than one thread per socket.
//!
//! # Architecture
//!
//! ```text
//! clients ──► kernel readiness set (epoll: listener + every parked socket, one-shot)
//!                     │ one event wakes one worker
//!                     ▼
//!              workers × N ── serve every buffered request ──► re-arm, park
//! ```
//!
//! `HttpConfig::workers` threads are the whole frontend. Each loops
//! `wait → take the connection → serve → re-arm`: it blocks in the
//! readiness set (the private `epoll` module beside this one), and an
//! event is either the listener (accept until the backlog is empty, park
//! each new socket with a header-read deadline, re-arm the listener) or a
//! parked connection with bytes to read (take it out of the parked map,
//! serve every request already buffered — HTTP/1.1 keep-alive with
//! pipelining — and park it again with the idle deadline when its buffer
//! drains). There is no acceptor thread, no poller thread and no queue
//! between the socket and the worker: a request that no worker is free
//! for waits in the kernel's socket buffer, its event pending in the set.
//!
//! * **One-shot registrations** mean an event wakes exactly one worker
//!   and the registration stays disabled until that worker re-arms it, so
//!   a connection is owned by one thread at a time. Re-arming re-checks
//!   readiness: bytes that arrived while the worker was writing the
//!   response raise a fresh event.
//! * **Tokens come from a counter, never from the fd number.** A worker
//!   can harvest an event for a connection the reaper dropped a
//!   microsecond earlier; its token then misses the map instead of
//!   hitting a freshly accepted connection that reuses the descriptor.
//! * **Deadlines** (header-read for fresh connections, keep-alive idle
//!   for parked ones — the slowloris defense) are enforced by a reap that
//!   runs only when the earliest parked deadline is due: workers bound
//!   their wait by it (and by 50 ms, to see the stop flag), and whichever
//!   comes out of the wait at or after it sweeps the map once. When every
//!   worker is busy the reap, like accepts, waits for one to finish.
//! * **Sockets stay blocking**, with `TCP_NODELAY` and the read/write
//!   timeouts set once at accept; the read timeout is the slowloris bound
//!   for a connection a worker is reading from.
//!
//! Thread count is `workers` no matter how many clients connect, and an
//! idle server makes one blocking wait per worker per 50 ms. The frontend
//! is Linux-only (`epoll`), with no portable fallback: DESIGN.md §12.
//!
//! # Admission control
//!
//! Before a request reaches the engine it passes two gates, shed with
//! typed v2 envelopes and a mirrored `Retry-After` header:
//!
//! * a per-client token bucket (keyed by `X-Client-Id`, else the peer
//!   IP) → `429` / `RATE_LIMITED` with `error.retry_after_ms` telling the
//!   client when a token will be available;
//! * a global in-flight cap → `503` / `OVERLOADED` when every permitted
//!   slot is busy.
//!
//! Sheds are cheap (no engine work, connection stays open), which is what
//! keeps goodput high under overload: see `BENCH_serving_concurrency.json`
//! and the `loadgen` bench. Liveness/health paths bypass admission so
//! probes and operators keep visibility while the server sheds.
//!
//! # Routes
//!
//! `POST /v1/query` is the query endpoint; `GET /v1/{metrics,trace,
//! slow_queries,storage,healthz,topology}` alias the corresponding ops.
//! The pre-v1 paths (`/query`, `/metrics`, `/trace`, `/slow_queries`,
//! `/healthz`, `/health`) were removed in the v2 envelope cut: they now
//! answer `404` with a typed `NOT_FOUND` envelope naming the `/v1/*`
//! replacement. Every failure produced by this layer — malformed JSON,
//! unknown path, wrong method, oversized body, header-read timeout, shed
//! load — is a v2 envelope with a typed `error.code`, a `trace_id`, and
//! the HTTP status from [`ErrorCode::http_status`].

use crate::server::engine::{EngineResponse, QueryEngine};
use crate::server::epoll::Poller;
use crate::server::request::{write_envelope, ApiError, ErrorCode};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::TraceContext;

/// Longest accepted request-line or header line, in bytes.
const MAX_HEADER_LINE: u64 = 16 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Retry hint attached to `OVERLOADED` sheds.
const OVERLOAD_RETRY_MS: u64 = 100;
/// Lock shards for the per-client token-bucket map.
const LIMITER_SHARDS: usize = 8;
/// Buckets per limiter shard before stale entries are swept.
const LIMITER_SWEEP_LEN: usize = 8 * 1024;
/// The listener's token in the readiness set; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;
/// Longest a worker blocks in the readiness set before it looks at the
/// stop flag again.
const STOP_POLL: Duration = Duration::from_millis(50);
/// Socket write timeout for responses.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables of the frontend. Worker-pool size and the in-flight cap are
/// also surfaced as `server.http.*` gauges so a running server's shape is
/// visible in `/v1/metrics`.
#[derive(Clone, Debug)]
pub struct HttpConfig {
    /// Worker threads: the only threads the frontend has, and the only
    /// ones that touch the engine.
    pub workers: usize,
    /// Global cap on requests inside the engine at once; excess sheds
    /// with `503` / `OVERLOADED`.
    pub max_inflight: usize,
    /// Byte cap on request bodies; larger bodies get `413` /
    /// `PAYLOAD_TOO_LARGE`.
    pub max_body_bytes: usize,
    /// How long a fresh connection may stay silent before it is dropped,
    /// and how long a connection a worker is reading from may take to
    /// deliver a full request (headers + body) before the worker answers
    /// `400` and closes.
    pub header_read_timeout: Duration,
    /// How long a parked keep-alive connection may stay idle before it is
    /// dropped.
    pub idle_timeout: Duration,
    /// Token-bucket refill rate per client, in requests/second; `<= 0`
    /// disables per-client rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst allowance) per client.
    pub rate_burst: f64,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            workers: 8,
            max_inflight: 64,
            max_body_bytes: 1 << 20,
            header_read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            rate_per_sec: 500.0,
            rate_burst: 250.0,
        }
    }
}

/// A running HTTP server; dropping it stops every thread.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (0 = ephemeral) with the default
    /// [`HttpConfig`].
    pub fn start(engine: Arc<QueryEngine>, port: u16) -> std::io::Result<HttpServer> {
        HttpServer::start_with(engine, port, HttpConfig::default())
    }

    /// Binds `127.0.0.1:port` (0 = ephemeral) and serves with `cfg` until
    /// dropped.
    pub fn start_with(
        engine: Arc<QueryEngine>,
        port: u16,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        // Nonblocking so the accept drain ends in `WouldBlock`.
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.arm(listener.as_raw_fd(), LISTENER_TOKEN, true)?;

        let reg = engine.framework().telemetry();
        let live_workers = reg.gauge("server.http.workers");
        reg.gauge("server.http.max_inflight")
            .set(cfg.max_inflight as i64);
        let stats = FrontendStats {
            requests: reg.counter("server.http.requests"),
            shed_rate_limited: reg.counter("server.http.shed.rate_limited"),
            shed_overloaded: reg.counter("server.http.shed.overloaded"),
            timeouts: reg.counter("server.http.timeouts"),
            accept_errors: reg.counter("server.http.accept_errors"),
            connections: reg.gauge("server.http.connections"),
            inflight: reg.gauge("server.http.inflight"),
        };

        let shared = Arc::new(Shared {
            engine,
            limiter: Limiter::new(cfg.rate_per_sec, cfg.rate_burst),
            poller,
            listener,
            parked: Mutex::new(Parked::default()),
            next_token: AtomicU64::new(LISTENER_TOKEN + 1),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            stats,
            cfg,
        });

        let mut handles = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            // Counted before the spawn: the gauge reads every worker once
            // `start_with` returns, and only live ones after.
            let (s, live) = (Arc::clone(&shared), Live::new(&live_workers));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&s, live))?,
            );
        }
        Ok(HttpServer {
            addr,
            shared,
            handles,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // The last reference to `shared` goes with `self`: parked
        // connections close (gauges settle as each `Conn` drops), then the
        // listener and the readiness set.
    }
}

/// State every worker shares.
struct Shared {
    engine: Arc<QueryEngine>,
    cfg: HttpConfig,
    limiter: Limiter,
    /// The readiness set: the listener and every parked connection.
    poller: Poller,
    listener: TcpListener,
    parked: Mutex<Parked>,
    next_token: AtomicU64,
    inflight: AtomicUsize,
    stop: AtomicBool,
    stats: FrontendStats,
}

/// Pre-resolved `server.http.*` instrument handles (resolving by name on
/// every request would reintroduce the registry lock on the hot path).
struct FrontendStats {
    requests: Arc<telemetry::Counter>,
    shed_rate_limited: Arc<telemetry::Counter>,
    shed_overloaded: Arc<telemetry::Counter>,
    timeouts: Arc<telemetry::Counter>,
    accept_errors: Arc<telemetry::Counter>,
    connections: Arc<telemetry::Gauge>,
    inflight: Arc<telemetry::Gauge>,
}

/// The connections no worker holds: each is armed in the readiness set
/// and waits here, by token, for its event or its deadline.
#[derive(Default)]
struct Parked {
    /// Token → the connection and when the reap gives up on it: the
    /// header-read deadline for a fresh connection, the idle deadline for
    /// a keep-alive one.
    conns: HashMap<u64, (Instant, Conn)>,
    /// When the next reap is due: never later than the earliest deadline
    /// in `conns` (it may be earlier — a connection that was served and
    /// parked again leaves its old deadline here until the reap that
    /// finds nothing to drop recomputes it). `None` when nothing is
    /// parked.
    earliest: Option<Instant>,
}

/// One client connection, owned by the parked map or by the one worker
/// serving it.
struct Conn {
    /// Its place in `server.http.connections`. First, so it drops first:
    /// a client that sees the close also sees the count.
    _open: Live,
    /// The socket — blocking, `TCP_NODELAY` and its timeouts set once at
    /// accept — behind the read buffer that is kept across parks so
    /// pipelined bytes already buffered are never lost. It is the
    /// connection's only descriptor (responses go out through
    /// `reader.get_ref()`): a dup would keep the readiness-set
    /// registration alive after this one closed.
    reader: BufReader<TcpStream>,
    /// Peer address, the default rate-limit key.
    peer: String,
    /// Key in the parked map and in the readiness set. From a counter,
    /// never the fd number, so a stale event cannot name a newer
    /// connection that reuses the descriptor.
    token: u64,
}

impl Conn {
    fn new(stream: TcpStream, peer: String, token: u64, open: &Arc<telemetry::Gauge>) -> Conn {
        Conn {
            _open: Live::new(open),
            reader: BufReader::new(stream),
            peer,
            token,
        }
    }
}

/// One unit of a gauge of live things (connections, workers): added when
/// made, taken off when dropped, however its owner ends.
struct Live(Arc<telemetry::Gauge>);

impl Live {
    fn new(gauge: &Arc<telemetry::Gauge>) -> Live {
        gauge.add(1);
        Live(Arc::clone(gauge))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

// --- workers -----------------------------------------------------------------

/// One worker: `_live` holds its place in `server.http.workers` until the
/// worker returns or unwinds.
fn worker_loop(shared: &Shared, _live: Live) {
    while !shared.stop.load(Ordering::SeqCst) {
        let Some(token) = shared.poller.wait(shared.reap()) else {
            continue;
        };
        if token == LISTENER_TOKEN {
            shared.accept_ready();
            continue;
        }
        // An event harvested for a connection the reap dropped a moment
        // ago misses the map.
        let Some((_, mut conn)) = lock(&shared.parked).conns.remove(&token) else {
            continue;
        };
        if let Disposition::Park = serve_ready(shared, &mut conn) {
            shared.park(conn, shared.cfg.idle_timeout, false);
        }
    }
}

/// Whether a failed `accept` is a fault worth counting. `WouldBlock` is
/// the drained backlog, the normal end of a pass; anything else — a
/// client that reset while queued (`ECONNABORTED`), the process out of
/// descriptors (`EMFILE`) — is transient and must never stop the server
/// accepting.
fn is_accept_fault(e: &std::io::Error) -> bool {
    e.kind() != std::io::ErrorKind::WouldBlock
}

impl Shared {
    /// Drops the parked connections whose deadline has passed (slowloris
    /// or idle) and returns how long a worker may now block: until the
    /// next deadline, capped at [`STOP_POLL`]. The O(parked) sweep runs
    /// only when the earliest deadline is due, so the request path pays a
    /// lock and a comparison.
    fn reap(&self) -> Duration {
        let now = Instant::now();
        let mut parked = lock(&self.parked);
        if parked.earliest.is_some_and(|due| now >= due) {
            // Counted before the drop closes the socket, so a client that
            // sees the close also sees the count.
            parked.conns.retain(|_, (deadline, _)| {
                let expired = now >= *deadline;
                self.stats.timeouts.incr(u64::from(expired));
                !expired
            });
            parked.earliest = parked.conns.values().map(|(deadline, _)| *deadline).min();
        }
        parked.earliest.map_or(STOP_POLL, |due| {
            due.saturating_duration_since(now).min(STOP_POLL)
        })
    }

    /// Accepts until the backlog is empty, parking each new connection
    /// with the header-read deadline, then re-arms the listener. Any
    /// `accept` error ends the pass, and every pass re-arms: a connection
    /// still queued behind a fault raises the listener's event again at
    /// once, and in between the worker is back in the set, where it can
    /// serve and close connections — the only cure for `EMFILE`.
    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(self.cfg.header_read_timeout));
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let conn = Conn::new(
                        stream,
                        peer.ip().to_string(),
                        self.next_token.fetch_add(1, Ordering::Relaxed),
                        &self.stats.connections,
                    );
                    self.park(conn, self.cfg.header_read_timeout, true);
                }
                Err(e) => {
                    if is_accept_fault(&e) {
                        self.stats.accept_errors.incr(1);
                    }
                    break;
                }
            }
        }
        let _ = self
            .poller
            .arm(self.listener.as_raw_fd(), LISTENER_TOKEN, false);
    }

    /// Parks `conn` until its next event or until `ttl` passes. It is
    /// armed under the map's lock: the reap cannot close the descriptor
    /// (and an accept reuse its number) between the insert and the arm,
    /// and the worker its event wakes finds it in the map.
    fn park(&self, conn: Conn, ttl: Duration, first: bool) {
        let deadline = Instant::now() + ttl;
        let fd = conn.reader.get_ref().as_raw_fd();
        let mut parked = lock(&self.parked);
        if self.poller.arm(fd, conn.token, first).is_ok() {
            parked.earliest = Some(parked.earliest.map_or(deadline, |e| e.min(deadline)));
            parked.conns.insert(conn.token, (deadline, conn));
        }
    }
}

enum Disposition {
    /// Keep-alive: back to the readiness set until more bytes arrive.
    Park,
    /// Drop the connection.
    Close,
}

/// Serves every request available on a readable connection: at least one
/// (its event fired), then any pipelined requests already sitting in the
/// read buffer. Parks only when the buffer is empty — bytes in the buffer
/// are invisible to the readiness set.
fn serve_ready(shared: &Shared, conn: &mut Conn) -> Disposition {
    loop {
        let req = match read_request(&mut conn.reader, shared.cfg.max_body_bytes) {
            Ok(Some(req)) => req,
            Ok(None) => return Disposition::Close, // clean EOF between requests
            Err(failure) => {
                let (code, message) = match failure {
                    ReadFailure::Timeout => {
                        shared.stats.timeouts.incr(1);
                        (ErrorCode::BadRequest, "request read timed out".to_owned())
                    }
                    ReadFailure::TooLarge => (
                        ErrorCode::PayloadTooLarge,
                        format!(
                            "request body exceeds the {}-byte cap",
                            shared.cfg.max_body_bytes
                        ),
                    ),
                    ReadFailure::Malformed(why) => (ErrorCode::BadRequest, why.to_owned()),
                    ReadFailure::Io => return Disposition::Close,
                };
                let trace = TraceContext::root();
                let reply = Reply::error(&ApiError::new(code, message), &trace);
                let _ = write_reply(conn.reader.get_ref(), &reply, false);
                return Disposition::Close;
            }
        };
        shared.stats.requests.incr(1);
        let keep_alive = !req.close;
        let reply = route(shared, &req, &conn.peer);
        if write_reply(conn.reader.get_ref(), &reply, keep_alive && !reply.close).is_err() {
            return Disposition::Close;
        }
        if !keep_alive || reply.close {
            return Disposition::Close;
        }
        if conn.reader.buffer().is_empty() {
            return Disposition::Park;
        }
    }
}

// --- request parsing --------------------------------------------------------

struct HttpRequest {
    method: String,
    path: String,
    body: String,
    /// Adopted `X-Trace-Id`, already parsed.
    trace: Option<u64>,
    /// `X-Client-Id`, the preferred rate-limit key.
    client_id: Option<String>,
    /// Client sent `Connection: close`.
    close: bool,
}

enum ReadFailure {
    /// The socket read timed out mid-request (slow headers or body).
    Timeout,
    /// `Content-Length` exceeds the configured body cap.
    TooLarge,
    /// Structurally invalid request.
    Malformed(&'static str),
    /// Any other socket error; not worth a response.
    Io,
}

fn classify(e: std::io::Error) -> ReadFailure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadFailure::Timeout,
        _ => ReadFailure::Io,
    }
}

/// Reads one line, bounded by [`MAX_HEADER_LINE`]. `Ok(None)` is EOF
/// before any byte.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> Result<Option<()>, ReadFailure> {
    match reader.by_ref().take(MAX_HEADER_LINE).read_line(line) {
        Ok(0) => Ok(None),
        Ok(_) if !line.ends_with('\n') && line.len() as u64 >= MAX_HEADER_LINE => {
            Err(ReadFailure::Malformed("header line too long"))
        }
        Ok(_) => Ok(Some(())),
        Err(e) => Err(classify(e)),
    }
}

/// Reads one full request (request line, headers, body). `Ok(None)` means
/// the client closed cleanly at a request boundary.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body_bytes: usize,
) -> Result<Option<HttpRequest>, ReadFailure> {
    let mut line = String::new();
    if read_line_capped(reader, &mut line)?.is_none() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(ReadFailure::Malformed("malformed request line"));
    }

    let mut content_length = 0usize;
    let mut trace = None;
    let mut client_id = None;
    let mut close = false;
    for n in 0.. {
        if n >= MAX_HEADERS {
            return Err(ReadFailure::Malformed("too many headers"));
        }
        let mut line = String::new();
        if read_line_capped(reader, &mut line)?.is_none() {
            return Err(ReadFailure::Malformed("connection closed mid-headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v
                .trim()
                .parse()
                .map_err(|_| ReadFailure::Malformed("unparseable Content-Length"))?;
        } else if let Some(v) = lower.strip_prefix("x-trace-id:") {
            let bad = ReadFailure::Malformed("x-trace-id must be 1 to 16 hex digits, not all 0");
            trace = Some(TraceContext::parse_hex(v.trim()).ok_or(bad)?);
        } else if let Some(v) = lower.strip_prefix("x-client-id:") {
            client_id = Some(v.trim().to_owned());
        } else if lower.strip_prefix("connection:").map(str::trim) == Some("close") {
            close = true;
        }
    }

    if content_length > max_body_bytes {
        return Err(ReadFailure::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(classify)?;
    Ok(Some(HttpRequest {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
        trace,
        client_id,
        close,
    }))
}

// --- routing + admission ----------------------------------------------------

/// A response ready to write.
struct Reply {
    status: u16,
    body: String,
    /// Mirrored into a `Retry-After` header (seconds, rounded up).
    retry_after_ms: Option<u64>,
    /// `Allow` header for 405s.
    allow: Option<&'static str>,
    /// Force `Connection: close` (e.g. unread body bytes on the socket).
    close: bool,
}

impl Reply {
    /// The engine's envelope and status, its retry hint mirrored.
    fn engine(resp: EngineResponse) -> Reply {
        Reply {
            status: resp.status,
            body: resp.body,
            retry_after_ms: resp.retry_after_ms,
            allow: None,
            close: false,
        }
    }

    /// A typed v2 error envelope with a `trace_id`, status from
    /// [`ErrorCode::http_status`], and the retry hint mirrored.
    fn error(err: &ApiError, trace: &TraceContext) -> Reply {
        let mut body = String::new();
        write_envelope(&mut body, Err(err), None, &trace.hex());
        Reply {
            status: err.code.http_status(),
            body,
            retry_after_ms: err.retry_after_ms,
            allow: None,
            close: false,
        }
    }
}

/// Decrements the in-flight count (and gauge) when a request leaves the
/// engine, however it leaves.
struct InflightGuard<'a>(&'a Shared);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
        self.0.stats.inflight.add(-1);
    }
}

fn route(shared: &Shared, req: &HttpRequest, peer: &str) -> Reply {
    let trace = match req.trace {
        Some(t) => TraceContext::adopt(t),
        None => TraceContext::root(),
    };
    let path = req.path.split('?').next().unwrap_or("");

    // Liveness and health stay reachable while the server sheds load, so
    // probes and operators can see *why* it is shedding.
    let exempt = path == "/v1/healthz";
    let _guard = if exempt {
        None
    } else {
        // Gate 1: per-client token bucket.
        let key = req.client_id.as_deref().unwrap_or(peer);
        if let Err(retry_ms) = shared.limiter.admit(key, Instant::now()) {
            shared.stats.shed_rate_limited.incr(1);
            let err = ApiError::new(
                ErrorCode::RateLimited,
                format!("client '{key}' exceeded its request rate"),
            )
            .with_retry_after(retry_ms);
            return Reply::error(&err, &trace);
        }
        // Gate 2: global in-flight cap.
        if shared.inflight.fetch_add(1, Ordering::SeqCst) >= shared.cfg.max_inflight {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.stats.shed_overloaded.incr(1);
            let err = ApiError::new(
                ErrorCode::Overloaded,
                format!(
                    "server is at its in-flight cap ({})",
                    shared.cfg.max_inflight
                ),
            )
            .with_retry_after(OVERLOAD_RETRY_MS);
            return Reply::error(&err, &trace);
        }
        shared.stats.inflight.add(1);
        Some(InflightGuard(shared))
    };

    let engine = &shared.engine;
    match (req.method.as_str(), path) {
        ("POST", "/v1/query") => Reply::engine(engine.handle_http(&req.body, req.trace)),
        (
            "GET",
            "/v1/metrics" | "/v1/trace" | "/v1/slow_queries" | "/v1/storage" | "/v1/topology",
        ) => {
            // Each path aliases the op it names.
            let op = format!(r#"{{"op":"{}"}}"#, &path["/v1/".len()..]);
            Reply::engine(engine.handle_http(&op, req.trace))
        }
        ("GET", "/v1/healthz") => {
            let mut reply = Reply::engine(engine.handle_http(r#"{"op":"health"}"#, req.trace));
            if engine.slo().overall() == "failing" {
                reply.status = 503;
            }
            reply
        }
        // The pre-v1 paths were removed in the v2 cut: answer 404 with a
        // typed pointer at the replacement so stale clients self-diagnose.
        (_, "/query" | "/metrics" | "/trace" | "/slow_queries" | "/healthz" | "/health") => {
            let replacement = match path {
                "/query" => "POST /v1/query",
                "/metrics" => "GET /v1/metrics",
                "/trace" => "GET /v1/trace",
                "/slow_queries" => "GET /v1/slow_queries",
                _ => "GET /v1/healthz",
            };
            let err = ApiError::new(
                ErrorCode::NotFound,
                format!("{path} was removed in the v2 API cut: use {replacement}"),
            );
            Reply::error(&err, &trace)
        }
        (
            _,
            "/v1/query" | "/v1/metrics" | "/v1/trace" | "/v1/slow_queries" | "/v1/storage"
            | "/v1/topology" | "/v1/healthz",
        ) => {
            let allow = if path == "/v1/query" { "POST" } else { "GET" };
            let err = ApiError::new(
                ErrorCode::MethodNotAllowed,
                format!("{} does not support {}", path, req.method),
            );
            let mut reply = Reply::error(&err, &trace);
            reply.allow = Some(allow);
            reply
        }
        _ => {
            let err = ApiError::new(
                ErrorCode::NotFound,
                "unknown path: use POST /v1/query or GET /v1/{metrics,trace,slow_queries,storage,healthz,topology}",
            );
            Reply::error(&err, &trace)
        }
    }
}

// --- per-client token-bucket rate limiter -----------------------------------

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Sharded per-client token buckets. One mutex per shard keeps concurrent
/// workers admitting different clients from serializing.
struct Limiter {
    shards: Vec<Mutex<HashMap<String, Bucket>>>,
    rate: f64,
    burst: f64,
}

impl Limiter {
    fn new(rate: f64, burst: f64) -> Limiter {
        Limiter {
            shards: (0..LIMITER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            rate,
            burst: burst.max(1.0),
        }
    }

    /// Takes one token for `key`, refilling by elapsed time first. `Err`
    /// carries the milliseconds until a token will be available.
    fn admit(&self, key: &str, now: Instant) -> Result<(), u64> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut shard = lock(&self.shards[(h % LIMITER_SHARDS as u64) as usize]);
        if shard.len() >= LIMITER_SWEEP_LEN && !shard.contains_key(key) {
            // Sweep buckets idle long enough to have refilled completely;
            // dropping one loses nothing but a full bucket.
            let horizon = Duration::from_secs_f64(self.burst / self.rate);
            shard.retain(|_, b| now.saturating_duration_since(b.last) < horizon);
        }
        let bucket = shard.entry(key.to_owned()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let ms = ((1.0 - bucket.tokens) / self.rate * 1000.0).ceil();
            Err(ms.max(1.0) as u64)
        }
    }
}

// --- response writing -------------------------------------------------------

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Writes head and body with one `write`: `TCP_NODELAY` is set, so two
/// writes would be two segments and two client wake-ups. The buffer is
/// sized for head and body once.
fn write_reply(mut stream: &TcpStream, reply: &Reply, keep_alive: bool) -> std::io::Result<()> {
    let mut out = String::with_capacity(256 + reply.body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reply.status,
        reason(reply.status),
        reply.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(ms) = reply.retry_after_ms {
        // HTTP Retry-After is whole seconds; round up so clients never
        // retry before the hint.
        let _ = write!(out, "Retry-After: {}\r\n", ms.div_ceil(1000).max(1));
    }
    if let Some(allow) = reply.allow {
        let _ = write!(out, "Allow: {allow}\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&reply.body);
    stream.write_all(out.as_bytes())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};
    use loggen::topology::Topology;

    fn server() -> HttpServer {
        server_with(HttpConfig::default())
    }

    fn server_with(cfg: HttpConfig) -> HttpServer {
        let fw = Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap();
        HttpServer::start_with(Arc::new(QueryEngine::new(Arc::new(fw))), 0, cfg).unwrap()
    }

    /// A keep-alive test client: sends raw requests on one connection and
    /// parses Content-Length-framed responses.
    struct TestClient {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    struct TestResponse {
        status: u16,
        headers: Vec<(String, String)>,
        body: String,
    }

    impl TestResponse {
        fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
    }

    impl TestClient {
        fn connect(addr: std::net::SocketAddr) -> TestClient {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            TestClient { stream, reader }
        }

        fn send(&mut self, raw: &str) {
            self.stream.write_all(raw.as_bytes()).unwrap();
        }

        fn read_response(&mut self) -> TestResponse {
            let mut status_line = String::new();
            self.reader.read_line(&mut status_line).unwrap();
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
            let mut headers = Vec::new();
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                self.reader.read_line(&mut line).unwrap();
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some((k, v)) = line.split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        content_length = v.trim().parse().unwrap();
                    }
                    headers.push((k.to_owned(), v.trim().to_owned()));
                }
            }
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body).unwrap();
            TestResponse {
                status,
                headers,
                body: String::from_utf8(body).unwrap(),
            }
        }

        fn request(&mut self, raw: &str) -> TestResponse {
            self.send(raw);
            self.read_response()
        }
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")
    }

    fn post_query(body: &str) -> String {
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    }

    fn request(addr: std::net::SocketAddr, raw: &str) -> TestResponse {
        TestClient::connect(addr).request(raw)
    }

    #[test]
    fn only_would_block_is_not_an_accept_fault() {
        use std::io::{Error, ErrorKind};
        // A client reset in the backlog, and EMFILE: counted, and the
        // listener is re-armed either way.
        assert!(is_accept_fault(&Error::from(ErrorKind::ConnectionAborted)));
        assert!(is_accept_fault(&Error::from_raw_os_error(24)));
        assert!(!is_accept_fault(&Error::from(ErrorKind::WouldBlock)));
    }

    #[test]
    fn health_endpoint_answers() {
        let server = server();
        let resp = request(server.addr(), &get("/v1/healthz"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""status":"ok""#), "{}", resp.body);
    }

    #[test]
    fn query_endpoint_runs_the_engine() {
        let server = server();
        let resp = request(
            server.addr(),
            &post_query(r#"{"op":"events","type":"MCE","from":0,"to":1000}"#),
        );
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""status":"ok""#), "{}", resp.body);
        assert!(resp.body.contains(r#""rows":[]"#), "{}", resp.body);
    }

    #[test]
    fn removed_legacy_paths_answer_404_with_a_v1_pointer() {
        let server = server();
        let body = r#"{"op":"events","type":"MCE","from":0,"to":1000}"#;
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = request(server.addr(), &raw);
        assert_eq!(resp.status, 404);
        let env = jsonlite::parse(&resp.body).unwrap();
        assert_eq!(env["error"]["code"].as_str(), Some("NOT_FOUND"));
        assert!(
            env["error"]["message"]
                .as_str()
                .unwrap()
                .contains("POST /v1/query"),
            "{}",
            resp.body
        );
        for (path, replacement) in [
            ("/metrics", "GET /v1/metrics"),
            ("/trace", "GET /v1/trace"),
            ("/slow_queries", "GET /v1/slow_queries"),
            ("/healthz", "GET /v1/healthz"),
            ("/health", "GET /v1/healthz"),
        ] {
            let resp = request(server.addr(), &get(path));
            assert_eq!(resp.status, 404, "{path}");
            let env = jsonlite::parse(&resp.body).unwrap();
            assert_eq!(env["error"]["code"].as_str(), Some("NOT_FOUND"), "{path}");
            assert!(
                env["error"]["message"]
                    .as_str()
                    .unwrap()
                    .contains(replacement),
                "{path}: {}",
                resp.body
            );
        }
    }

    #[test]
    fn metrics_and_trace_endpoints_serve_json() {
        let server = server();
        let raw = post_query(r#"{"op":"events","type":"MCE","from":0,"to":1000}"#);
        request(server.addr(), &raw);

        let resp = request(server.addr(), &get("/v1/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""histograms""#), "{}", resp.body);
        assert!(resp.body.contains(r#""v":2"#), "enveloped: {}", resp.body);

        // The trace ring is the server's framework's own: the query's span
        // is still in it.
        let resp = request(server.addr(), &get("/v1/trace"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("server.engine.request"), "{}", resp.body);
    }

    #[test]
    fn x_trace_id_header_is_adopted() {
        let server = server();
        let body = r#"{"op":"events","type":"MCE","from":0,"to":1000}"#;
        let raw = format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-Trace-Id: deadbeef\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = request(server.addr(), &raw);
        assert!(
            resp.body.contains(r#""trace_id":"00000000deadbeef""#),
            "header trace id should come back on the envelope: {}",
            resp.body
        );
    }

    #[test]
    fn slow_queries_healthz_and_topology_endpoints_serve_json() {
        let server = server();
        let resp = request(server.addr(), &get("/v1/slow_queries"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""threshold_ms":100"#), "{}", resp.body);

        let resp = request(server.addr(), &get("/v1/healthz"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""status":"ok""#), "{}", resp.body);

        let resp = request(server.addr(), &get("/v1/topology"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""state":"stable""#), "{}", resp.body);

        let resp = request(server.addr(), &get("/v1/storage"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(r#""blocks_built""#), "{}", resp.body);
        assert!(resp.body.contains(r#""zone_skips""#), "{}", resp.body);
    }

    #[test]
    fn unknown_paths_get_404_envelopes() {
        let server = server();
        let resp = request(server.addr(), &get("/nope"));
        assert_eq!(resp.status, 404);
        let env = jsonlite::parse(&resp.body).unwrap();
        assert_eq!(env["error"]["code"].as_str(), Some("NOT_FOUND"));
        assert!(env["trace_id"].as_str().is_some());
    }

    #[test]
    fn wrong_method_gets_405_with_allow_header() {
        let server = server();
        let resp = request(server.addr(), &get("/v1/query"));
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header("Allow"), Some("POST"));
        let env = jsonlite::parse(&resp.body).unwrap();
        assert_eq!(env["error"]["code"].as_str(), Some("METHOD_NOT_ALLOWED"));
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = server();
        let mut client = TestClient::connect(server.addr());
        for _ in 0..3 {
            let resp = client.request(&post_query(
                r#"{"op":"events","type":"MCE","from":0,"to":1000}"#,
            ));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("Connection"), Some("keep-alive"));
        }
        // `Connection: close` is honored.
        let body = r#"{"op":"events","type":"MCE","from":0,"to":1000}"#;
        let resp = client.request(&format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ));
        assert_eq!(resp.header("Connection"), Some("close"));
        let mut probe = [0u8; 1];
        assert_eq!(client.reader.read(&mut probe).unwrap(), 0, "socket closed");
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = TestClient::connect(addr);
                    for _ in 0..4 {
                        let resp = client.request(&get("/v1/healthz"));
                        assert_eq!(resp.status, 200);
                        assert!(resp.body.contains("ok"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn no_thread_is_spawned_per_connection() {
        // The worker pool is the concurrency bound: a server with one
        // worker still serves more simultaneous connections than workers,
        // because idle keep-alive connections park in the poller instead
        // of pinning a thread.
        let server = server_with(HttpConfig {
            workers: 1,
            ..HttpConfig::default()
        });
        let addr = server.addr();
        let mut clients: Vec<_> = (0..8).map(|_| TestClient::connect(addr)).collect();
        for c in &mut clients {
            let resp = c.request(&get("/v1/healthz"));
            assert_eq!(resp.status, 200);
        }
        // All eight connections are still alive and serviceable.
        for c in &mut clients {
            let resp = c.request(&get("/v1/healthz"));
            assert_eq!(resp.status, 200);
        }
    }
}
