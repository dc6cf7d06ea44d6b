//! Frontend contract suite: keep-alive reuse, pipelining, concurrent
//! correctness, deadline enforcement, admission control, and the golden
//! envelope rows for every HTTP-layer failure.
//!
//! The HTTP contract under test (see `hpclog_core::server::http`):
//! - every HTTP-layer failure is a v2 envelope with a typed `error.code`,
//!   a `trace_id`, and the real HTTP status from `ErrorCode::http_status`;
//! - sheds (`429` / `503`) carry `error.retry_after_ms` and mirror it in a
//!   `Retry-After` header (whole seconds, rounded up);
//! - the pre-v1 paths are gone: they answer `404` with a typed
//!   `NOT_FOUND` envelope naming the `/v1/*` replacement.

use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::topology::Topology;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// A server over a fresh framework, and that framework's registry: the
/// server's counters and gauges are its own, whatever else runs in the
/// process.
fn start(cfg: HttpConfig) -> (HttpServer, Arc<Registry>) {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 2,
        replication_factor: 1,
        vnodes: 4,
        topology: Topology::scaled(1, 1),
        ..Default::default()
    })
    .unwrap();
    let telemetry = Arc::clone(fw.telemetry());
    let engine = Arc::new(QueryEngine::new(Arc::new(fw)));
    (HttpServer::start_with(engine, 0, cfg).unwrap(), telemetry)
}

fn server_with(cfg: HttpConfig) -> HttpServer {
    start(cfg).0
}

fn server() -> HttpServer {
    server_with(HttpConfig::default())
}

/// A keep-alive client that parses Content-Length-framed responses, so
/// several requests can share one connection (`read_to_string` would wait
/// for EOF that keep-alive never sends).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> jsonlite::Value {
        jsonlite::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON ({e:?}): {}", self.body))
    }
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).unwrap();
    }

    fn read_response(&mut self) -> Response {
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
        Response {
            status,
            headers,
            body: String::from_utf8(body).unwrap(),
        }
    }

    fn request(&mut self, raw: &str) -> Response {
        self.send(raw);
        self.read_response()
    }

    /// True once the server has closed the connection.
    fn at_eof(&mut self) -> bool {
        let mut probe = [0u8; 1];
        matches!(self.reader.read(&mut probe), Ok(0))
    }

    /// What the server did with a hostile connection: `Some` typed reply
    /// followed by a close, or `None` for a silent close. A close that
    /// leaves unread bytes behind is a reset rather than an EOF; both count.
    /// Panics if the server does neither before the read timeout.
    fn reply_then_close(&mut self) -> Option<Response> {
        let closed = |r: std::io::Result<usize>| match r {
            Ok(n) => n == 0,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => true,
            Err(e) => panic!("the server neither answered nor closed: {e}"),
        };
        if closed(self.reader.fill_buf().map(<[u8]>::len)) {
            return None;
        }
        let resp = self.read_response();
        assert!(
            closed(self.reader.read(&mut [0u8; 1])),
            "the connection must close after {}",
            resp.body
        );
        Some(resp)
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

const EVENTS: &str = r#"{"op":"events","type":"MCE","from":0,"to":1000}"#;

/// Asserts the HTTP-error envelope contract shared by every failure row.
fn assert_error_envelope(resp: &Response, status: u16, code: &str) {
    assert_eq!(resp.status, status, "{}", resp.body);
    let env = resp.json();
    assert_eq!(env["v"].as_i64(), Some(2), "{}", resp.body);
    assert_eq!(env["status"].as_str(), Some("error"), "{}", resp.body);
    assert_eq!(env["error"]["code"].as_str(), Some(code), "{}", resp.body);
    assert!(
        env["error"]["message"]
            .as_str()
            .is_some_and(|m| !m.is_empty()),
        "error.message must explain the failure: {}",
        resp.body
    );
    assert_eq!(
        env["trace_id"].as_str().map(str::len),
        Some(16),
        "every HTTP-layer failure carries a trace_id: {}",
        resp.body
    );
}

/// One golden row per HTTP-layer failure class: the exact status and
/// typed code each must produce. Changing either is an API break and must
/// show up here.
#[test]
fn golden_http_error_rows() {
    let server = server();
    let addr = server.addr();

    // Malformed JSON body → 400 / BAD_JSON (engine-level parse failure).
    let resp = Client::connect(addr).request(&post_query("{not json"));
    assert_error_envelope(&resp, 400, "BAD_JSON");

    // Unknown path → 404 / NOT_FOUND.
    let resp = Client::connect(addr).request(&get("/v2/query"));
    assert_error_envelope(&resp, 404, "NOT_FOUND");

    // Known path, unsupported method → 405 / METHOD_NOT_ALLOWED + Allow.
    let resp = Client::connect(addr).request(&get("/v1/query"));
    assert_error_envelope(&resp, 405, "METHOD_NOT_ALLOWED");
    assert_eq!(resp.header("Allow"), Some("POST"));
    let resp = Client::connect(addr)
        .request("POST /v1/metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
    assert_error_envelope(&resp, 405, "METHOD_NOT_ALLOWED");
    assert_eq!(resp.header("Allow"), Some("GET"));

    // Malformed request line → 400 / BAD_REQUEST.
    let mut c = Client::connect(addr);
    c.send("NONSENSE\r\n\r\n");
    let resp = c.read_response();
    assert_error_envelope(&resp, 400, "BAD_REQUEST");

    // A trace id that is not hex → 400 / BAD_REQUEST, in the header as in
    // the body's `trace_id`.
    for raw in [
        format!("X-Trace-Id: xyz\r\nContent-Length: {}\r\n", EVENTS.len()),
        format!("Content-Length: {}\r\nX-Trace-Id: 0\r\n", EVENTS.len()),
    ] {
        let resp = Client::connect(addr).request(&String::from_utf8(with_headers(&raw)).unwrap());
        assert_error_envelope(&resp, 400, "BAD_REQUEST");
    }
    let body = r#"{"op":"events","type":"MCE","from":0,"to":1000,"trace_id":"xyz"}"#;
    let resp = Client::connect(addr).request(&post_query(body));
    assert_error_envelope(&resp, 400, "BAD_REQUEST");
}

#[test]
fn oversized_body_gets_413_and_the_connection_closes() {
    let server = server_with(HttpConfig {
        max_body_bytes: 64,
        ..HttpConfig::default()
    });
    let big = "x".repeat(256);
    let mut c = Client::connect(server.addr());
    let resp = c.request(&post_query(&big));
    assert_error_envelope(&resp, 413, "PAYLOAD_TOO_LARGE");
    // The unread body bytes poison the stream, so the server must close.
    assert_eq!(resp.header("Connection"), Some("close"));
    assert!(c.at_eof(), "connection must close after a 413");
}

#[test]
fn slow_header_client_gets_400_then_the_socket_closes() {
    let server = server_with(HttpConfig {
        header_read_timeout: Duration::from_millis(200),
        ..HttpConfig::default()
    });
    // A client that starts a request but never finishes the headers.
    let mut c = Client::connect(server.addr());
    c.send("GET /health HTTP/1.1\r\nHost: x\r\nX-Slow:");
    let resp = c.read_response();
    assert_error_envelope(&resp, 400, "BAD_REQUEST");
    assert!(
        resp.body.contains("timed out"),
        "the envelope should say why: {}",
        resp.body
    );
    assert!(c.at_eof(), "slowloris connection must be closed");

    // A client that never sends a byte is dropped silently at the deadline.
    let mut idle = Client::connect(server.addr());
    idle.stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(idle.at_eof(), "fully idle connection must be dropped");
}

#[test]
fn rate_limited_bursts_get_429_envelopes_with_retry_after() {
    let server = server_with(HttpConfig {
        rate_per_sec: 1.0,
        rate_burst: 2.0,
        ..HttpConfig::default()
    });
    let mut c = Client::connect(server.addr());
    // The burst allowance admits the first two; the third sheds.
    for _ in 0..2 {
        let resp = c.request(&post_query(EVENTS));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = c.request(&post_query(EVENTS));
    assert_error_envelope(&resp, 429, "RATE_LIMITED");
    let retry_ms = resp.json()["error"]["retry_after_ms"].as_i64().unwrap();
    assert!(retry_ms > 0, "retry hint must be positive: {}", resp.body);
    let retry_s: u64 = resp.header("Retry-After").unwrap().parse().unwrap();
    assert!(retry_s >= 1, "Retry-After mirrors the hint, rounded up");
    // A shed is cheap: the connection stays open and another client id
    // has its own bucket.
    let resp = c.request(&format!(
        "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-Client-Id: other\r\nContent-Length: {}\r\n\r\n{}",
        EVENTS.len(),
        EVENTS
    ));
    assert_eq!(resp.status, 200, "per-client buckets: {}", resp.body);
}

#[test]
fn overload_sheds_503_but_health_stays_reachable() {
    let server = server_with(HttpConfig {
        max_inflight: 0,
        ..HttpConfig::default()
    });
    let mut c = Client::connect(server.addr());
    let resp = c.request(&post_query(EVENTS));
    assert_error_envelope(&resp, 503, "OVERLOADED");
    let retry_ms = resp.json()["error"]["retry_after_ms"].as_i64().unwrap();
    assert!(retry_ms > 0);
    assert!(resp.header("Retry-After").is_some());
    // Liveness and health bypass admission so probes keep working while
    // the server sheds.
    let resp = c.request(&get("/v1/healthz"));
    assert_eq!(resp.status, 200, "{}", resp.body);
}

/// A window out to 2^53 once made the engine plan ~2.5e9 hour partitions,
/// and a 1-ms bin over it asked for a 9e15-slot vector, which aborts the
/// process. Both are typed 400s before any plan is built, and the server
/// keeps serving.
#[test]
fn unbounded_windows_and_bins_are_prompt_400s_and_the_server_survives() {
    let server = server();
    let mut c = Client::connect(server.addr());
    for (body, code) in [
        (
            r#"{"op":"histogram","type":"MCE","from":0,"to":9007199254740992,"bin_ms":1}"#,
            "BAD_WINDOW",
        ),
        (
            r#"{"op":"heatmap","type":"MCE","from":0,"to":9007199254740992}"#,
            "BAD_WINDOW",
        ),
        (
            r#"{"op":"histogram","type":"MCE","from":0,"to":86400000,"bin_ms":1}"#,
            "BAD_REQUEST",
        ),
    ] {
        let sent = Instant::now();
        let resp = c.request(&post_query(body));
        let took = sent.elapsed();
        assert_error_envelope(&resp, 400, code);
        assert!(took < Duration::from_millis(100), "{body} took {took:?}");
    }
    // Health answers (its HTTP status is the SLO's verdict, which three
    // failed histograms just spent), and a day at one-second bins runs.
    let resp = c.request(&get("/v1/healthz"));
    assert_eq!(resp.json()["status"].as_str(), Some("ok"), "{}", resp.body);
    let resp = c.request(&post_query(
        r#"{"op":"histogram","type":"MCE","from":0,"to":86400000,"bin_ms":1000}"#,
    ));
    assert_eq!(resp.status, 200, "{}", resp.body);
}

#[test]
fn keep_alive_reuses_one_connection_for_sequential_requests() {
    let server = server();
    let mut c = Client::connect(server.addr());
    let first = c.request(&post_query(EVENTS));
    assert_eq!(first.status, 200);
    assert_eq!(first.header("Connection"), Some("keep-alive"));
    let second = c.request(&get("/v1/slow_queries"));
    assert_eq!(second.status, 200);
    assert!(second.body.contains("threshold_ms"), "{}", second.body);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = server();
    let mut c = Client::connect(server.addr());
    // Two complete requests in one write; responses must come back in
    // request order, each under its own trace id.
    let mk = |trace: &str| {
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-Trace-Id: {}\r\nContent-Length: {}\r\n\r\n{}",
            trace,
            EVENTS.len(),
            EVENTS
        )
    };
    c.send(&format!("{}{}", mk("1111aaaa"), mk("2222bbbb")));
    let first = c.read_response();
    let second = c.read_response();
    assert_eq!(
        first.json()["trace_id"].as_str(),
        Some("000000001111aaaa"),
        "{}",
        first.body
    );
    assert_eq!(
        second.json()["trace_id"].as_str(),
        Some("000000002222bbbb"),
        "{}",
        second.body
    );
}

#[test]
fn concurrent_clients_get_their_own_uninterleaved_responses() {
    // More clients than workers, every request tagged with a unique trace
    // id that must come back on exactly its own response.
    let server = server_with(HttpConfig {
        workers: 4,
        ..HttpConfig::default()
    });
    let addr = server.addr();
    let handles: Vec<_> = (0..12)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for i in 0..6 {
                    let trace = format!("{:08x}", (t + 1) * 1000 + i);
                    let raw = format!(
                        "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-Trace-Id: {}\r\nContent-Length: {}\r\n\r\n{}",
                        trace,
                        EVENTS.len(),
                        EVENTS
                    );
                    let resp = c.request(&raw);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(
                        resp.json()["trace_id"].as_str(),
                        Some(format!("00000000{trace}").as_str()),
                        "response must belong to this client's request: {}",
                        resp.body
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn removed_legacy_paths_404_with_typed_pointers_v1_paths_serve() {
    let server = server();
    let addr = server.addr();
    for path in [
        "/query",
        "/metrics",
        "/trace",
        "/slow_queries",
        "/healthz",
        "/health",
    ] {
        let resp = Client::connect(addr).request(&get(path));
        assert_error_envelope(&resp, 404, "NOT_FOUND");
        assert!(
            resp.json()["error"]["message"]
                .as_str()
                .unwrap()
                .contains("/v1/"),
            "{path}: the 404 must point at the v1 replacement: {}",
            resp.body
        );
        assert_eq!(resp.header("Deprecation"), None, "{path}: header is gone");
    }
    for path in [
        "/v1/metrics",
        "/v1/trace",
        "/v1/slow_queries",
        "/v1/storage",
        "/v1/healthz",
        "/v1/topology",
    ] {
        let resp = Client::connect(addr).request(&get(path));
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(resp.header("Deprecation"), None, "{path}");
    }
}

#[test]
fn frontend_shape_is_surfaced_in_metrics() {
    let server = server();
    // The registry is this server's framework's own, so the values are
    // exact: the default shape, before and after a reset (a gauge is a
    // level, which a reset leaves alone).
    let defaults = HttpConfig::default();
    for _ in 0..2 {
        let resp =
            Client::connect(server.addr()).request(&post_query(r#"{"op":"metrics","reset":true}"#));
        assert_eq!(resp.status, 200);
        let env = resp.json();
        let gauges = &env["data"]["gauges"];
        assert_eq!(
            gauges["server.http.workers"].as_i64(),
            Some(defaults.workers as i64),
            "{}",
            resp.body
        );
        assert_eq!(
            gauges["server.http.max_inflight"].as_i64(),
            Some(defaults.max_inflight as i64),
            "{}",
            resp.body
        );
    }
}

// --- hostile bytes ------------------------------------------------------------

/// A well-formed request; every mutation below starts from it.
fn valid_request() -> Vec<u8> {
    post_query(EVENTS).into_bytes()
}

/// `POST /v1/query` with the given raw header lines and the `EVENTS` body.
fn with_headers(headers: &str) -> Vec<u8> {
    format!("POST /v1/query HTTP/1.1\r\nHost: x\r\n{headers}\r\n{EVENTS}").into_bytes()
}

/// Byte strings no well-behaved client sends, each broken at the HTTP layer
/// (a mutation that left the request valid would rightly be answered `200`).
fn hostile_bytes() -> BoxedStrategy<Vec<u8>> {
    let n = EVENTS.len();
    let head_len = valid_request().len() - n;
    prop_oneof![
        // Random bytes, and a line of printable garbage.
        prop::collection::vec(any::<u8>(), 1..400),
        "[ -~]{1,200}".prop_map(String::into_bytes),
        // A valid request cut short at any offset, 0 (silence) included.
        (0..valid_request().len()).prop_map(|k| valid_request()[..k].to_vec()),
        // A byte that cannot occur in UTF-8 text anywhere in the head.
        (0..head_len, 0x80u8..=0xff).prop_map(|(at, byte)| {
            let mut raw = valid_request();
            raw.insert(at, byte);
            raw
        }),
        // A NUL among the Content-Length digits.
        (0..=n.to_string().len()).prop_map(move |at| {
            let digits = n.to_string();
            with_headers(&format!(
                "Content-Length: {}\0{}\r\n",
                &digits[..at],
                &digits[at..]
            ))
        }),
        // One header line over the 16 KiB cap; more than 64 headers.
        (0usize..4096).prop_map(|extra| with_headers(&format!(
            "X-Long: {}\r\n",
            "a".repeat(16 * 1024 + 1 + extra)
        ))),
        (65usize..100).prop_map(|count| with_headers(&"X-Filler: 1\r\n".repeat(count))),
        // Content-Length out of range, negative, far over the body cap,
        // given twice with different values, or longer than the body.
        prop_oneof![
            Just("Content-Length: 18446744073709551616\r\n".to_owned()),
            Just("Content-Length: -1\r\n".to_owned()),
            Just(format!("Content-Length: {}\r\n", u64::MAX)),
            Just(format!(
                "Content-Length: {n}\r\nContent-Length: {}\r\n",
                n + 400
            )),
            (1usize..400).prop_map(move |more| format!("Content-Length: {}\r\n", n + more)),
        ]
        .prop_map(|headers| with_headers(&headers)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ROADMAP 3(d), the HTTP quarter: no byte sequence from a socket kills a
    /// worker, leaks a connection or goes unanswered past the header-read
    /// deadline. Each case either half-closes after writing (the server sees
    /// EOF where it expected more) or keeps the socket open (the server's
    /// deadline has to end it).
    #[test]
    fn hostile_bytes_get_a_typed_4xx_or_a_close_and_the_server_survives(
        batch in prop::collection::vec(
            (hostile_bytes(), prop_oneof![5 => Just(true), 1 => Just(false)]),
            40,
        ),
    ) {
        let header_read_timeout = Duration::from_millis(150);
        let (server, telemetry) = start(HttpConfig {
            workers: 4,
            header_read_timeout,
            ..HttpConfig::default()
        });
        let workers = telemetry.gauge("server.http.workers");
        let connections = telemetry.gauge("server.http.connections");

        // Every truncation of a valid request, then the sampled cases.
        let valid = valid_request();
        let truncated = (0..valid.len()).map(|k| (valid[..k].to_vec(), true));
        for (raw, half_close) in truncated.chain(batch) {
            let mut c = Client::connect(server.addr());
            // "Within the header timeout", with slack for a loaded machine.
            c.stream
                .set_read_timeout(Some(header_read_timeout + Duration::from_secs(5)))
                .unwrap();
            // The server may answer and close before a long payload is out.
            let _ = c.stream.write_all(&raw);
            if half_close {
                let _ = c.stream.shutdown(Shutdown::Write);
            }
            if let Some(resp) = c.reply_then_close() {
                let (status, code) = match resp.status {
                    413 => (413, "PAYLOAD_TOO_LARGE"),
                    _ => (400, "BAD_REQUEST"),
                };
                assert_error_envelope(&resp, status, code);
            }
        }

        let mut c = Client::connect(server.addr());
        let resp = c.request("GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        prop_assert_eq!(resp.status, 200, "{}", resp.body);
        prop_assert!(c.at_eof());
        // The server's own gauges: a worker that exits or unwinds takes
        // itself off `server.http.workers`.
        prop_assert_eq!(workers.get(), 4, "a worker died");
        prop_assert_eq!(connections.get(), 0, "a connection leaked");
    }
}
