//! What the HTTP frontend costs the process, read from `/proc/self`: wake-ups
//! while idle, descriptors per connection, the round trip of a cached panel,
//! and when a silent connection is dropped.
//!
//! Context switches and the descriptor table are process-wide, so this
//! binary has exactly **one** test function: nothing else runs in the
//! process while it measures.

use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::topology::Topology;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HEADER_TIMEOUT: Duration = Duration::from_millis(200);
/// A cacheable panel with a small response.
const PANEL: &str = r#"{"op":"histogram","type":"MCE","from":0,"to":3600000,"bin_ms":3600000}"#;

/// A keep-alive client on a single descriptor (no `try_clone`), so the
/// descriptor arithmetic below is the server's alone.
struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client(BufReader::new(stream))
    }

    /// One round trip; returns the status and the body.
    fn post_query(&mut self, body: &str) -> (u16, String) {
        let raw = format!(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        self.0.get_ref().write_all(raw.as_bytes()).unwrap();
        let mut line = String::new();
        self.0.read_line(&mut line).unwrap();
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.0.read_line(&mut line).unwrap();
            let Some((name, value)) = line.trim_end().split_once(':') else {
                break;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        self.0.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Sum of `voluntary_ctxt_switches` over this process's `http-*` threads:
/// one per blocking wait that actually slept.
fn frontend_wakeups() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("http-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

#[test]
fn an_idle_frontend_sleeps_and_a_cached_panel_costs_one_wake_up() {
    let fw = Arc::new(
        Framework::new(FrameworkConfig {
            db_nodes: 2,
            replication_factor: 1,
            vnodes: 4,
            topology: Topology::scaled(1, 1),
            ..Default::default()
        })
        .unwrap(),
    );
    let server = HttpServer::start_with(
        Arc::new(QueryEngine::new(Arc::clone(&fw))),
        0,
        HttpConfig {
            workers: 2,
            header_read_timeout: HEADER_TIMEOUT,
            rate_per_sec: 0.0,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let connections = fw.telemetry().gauge("server.http.connections");
    let timeouts = fw.telemetry().counter("server.http.timeouts");

    // (b) One descriptor per connection on each side: the client's and the
    // server's, no dup for the read buffer.
    let fds = open_fds();
    let mut clients: Vec<Client> = (0..8).map(|_| Client::connect(server.addr())).collect();
    for c in &mut clients {
        let (status, body) = c.post_query(PANEL);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(connections.get(), 8);
    assert_eq!(
        open_fds() - fds,
        16,
        "8 keep-alive connections are 8 client + 8 server descriptors"
    );

    // (a) Idle — eight parked keep-alive connections, nothing to read — the
    // frontend's only wake-ups are each worker's 50 ms look at the stop flag.
    let wakeups = frontend_wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let wakeups = frontend_wakeups() - wakeups;
    assert!(
        wakeups <= 40,
        "{wakeups} wake-ups in 300 ms idle (two workers x six 50 ms waits expected)"
    );

    // (c) A result-cache hit over HTTP is one wake-up away from the engine,
    // not a timer period away.
    let hits = fw.result_cache().stats().hits();
    let client = &mut clients[0];
    let mut trips: Vec<Duration> = (0..300)
        .map(|_| {
            let sent = Instant::now();
            let (status, body) = client.post_query(PANEL);
            assert_eq!(status, 200, "{body}");
            sent.elapsed()
        })
        .collect();
    assert_eq!(fw.result_cache().stats().hits(), hits + 300, "all hits");
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median <= Duration::from_micros(300),
        "median round trip of a cached panel is {median:?}"
    );

    // (d) A connection that never sends a byte is dropped at the header-read
    // deadline: not before it, and promptly after, with no timer thread.
    let dropped = timeouts.get();
    let connected = Instant::now();
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(silent.read(&mut [0u8; 1]).unwrap(), 0, "EOF, no response");
    let waited = connected.elapsed();
    assert!(
        waited >= HEADER_TIMEOUT && waited <= HEADER_TIMEOUT + Duration::from_millis(250),
        "silent connection dropped after {waited:?}"
    );
    assert_eq!(timeouts.get(), dropped + 1);
    assert_eq!(connections.get(), 8, "the eight keep-alive clients remain");
}
