//! Serving concurrency under a dashboard session mix: N keep-alive HTTP
//! clients (OS threads, one connection each) replay cache-warm pans, cold
//! zooms, a streaming tail, and profile requests against the thread-pool
//! frontend, first at a sustainable per-client rate and then at 2× that
//! rate to force admission-control shedding.
//!
//! What the artifact (`BENCH_serving_concurrency.json`) captures:
//! - p50/p95/p99 request latency per phase (send → full response);
//! - goodput (200s per second) per phase;
//! - the shed mix under overload (429 `RATE_LIMITED` / 503 `OVERLOADED`).
//!
//! The gate, asserted here in both modes: under 2× overload the server
//! sheds excess load with typed 429 envelopes carrying `Retry-After`
//! while goodput stays at ≥ 80% of the pre-overload baseline. That is the
//! point of cheap sheds — a token-bucket refusal costs no engine work, so
//! admitted requests are served at full speed while the excess bounces.
//!
//! `LOADGEN_SMOKE=1` runs the same phases and gates with 64 clients and
//! short phases, touching neither the committed artifact nor stdout noise;
//! the full run drives 1000 concurrent clients.

use hpclog_core::framework::{Framework, FrameworkConfig};
use hpclog_core::model::apprun::AppRun;
use hpclog_core::model::event::EventRecord;
use hpclog_core::server::{HttpConfig, HttpServer, QueryEngine};
use loggen::topology::Topology;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const T0: i64 = 1_500_000_000_000;
const HOURS: i64 = 6;
const HOUR_MS: i64 = 3_600_000;
const T_END: i64 = T0 + HOURS * HOUR_MS;

/// Per-client token-bucket rate the server is configured with.
const BUCKET_RATE: f64 = 6.0;
/// Baseline per-client request rate (below the bucket rate, so the
/// baseline phase sees no shedding).
const BASE_RATE: f64 = 5.0;

fn smoke() -> bool {
    std::env::var("LOADGEN_SMOKE").as_deref() == Ok("1")
}

fn seeded() -> Arc<QueryEngine> {
    let fw = Framework::new(FrameworkConfig {
        db_nodes: 4,
        replication_factor: 3,
        vnodes: 16,
        topology: Topology::scaled(2, 2),
        ..Default::default()
    })
    .unwrap();
    let topo = fw.topology().clone();
    let mut events = Vec::new();
    for hour in 0..HOURS {
        for i in 0..40i64 {
            let (etype, raw) = if i % 3 == 0 {
                ("MCE", "Machine Check Exception: bank 1: b2 addr 3f cpu 0")
            } else {
                (
                    "LUSTRE_ERR",
                    "LustreError: 11-0: atlas1-OST0041-osc: operation failed",
                )
            };
            events.push(EventRecord {
                ts_ms: T0 + hour * HOUR_MS + i * 90_000 % HOUR_MS,
                event_type: etype.into(),
                source: topo
                    .node(((hour * 40 + i) as usize) % topo.node_count())
                    .cname
                    .into(),
                amount: 1,
                raw: raw.into(),
            });
        }
    }
    fw.insert_events(&events).unwrap();
    fw.insert_app_run(&AppRun {
        apid: 1,
        user: "usr0001".into(),
        app: "VASP".into(),
        start_ms: T0,
        end_ms: T_END,
        node_first: 0,
        node_last: 3,
        exit_code: 0,
        other_info: Default::default(),
    })
    .unwrap();
    Arc::new(QueryEngine::new(Arc::new(fw)))
}

/// The repeated (result-cache-warm after priming) dashboard pans.
fn warm_panels() -> Vec<String> {
    vec![
        format!(r#"{{"op":"heatmap","type":"MCE","from":{T0},"to":{T_END}}}"#),
        format!(
            r#"{{"op":"distribution","type":"LUSTRE_ERR","from":{T0},"to":{T_END},"by":"cabinet"}}"#
        ),
        format!(r#"{{"op":"histogram","type":"MCE","from":{T0},"to":{T_END},"bin_ms":{HOUR_MS}}}"#),
        format!(r#"{{"op":"wordcount","type":"LUSTRE_ERR","from":{T0},"to":{T_END},"top":10}}"#),
    ]
}

/// One request body from the session mix: mostly warm pans, plus the
/// streaming tail, an app profile, and a cache-defeating cold zoom whose
/// window end is unique per (client, seq).
fn pick_query(warm: &[String], client: usize, seq: u64) -> String {
    match (seq as usize + client) % 10 {
        8 => {
            let to = T_END - (client as i64 * 100_000 + seq as i64) % 1_000_000 - 1;
            format!(r#"{{"op":"heatmap","type":"MCE","from":{T0},"to":{to}}}"#)
        }
        9 => format!(
            r#"{{"op":"events","type":"MCE","from":{},"to":{T_END},"limit":20}}"#,
            T_END - 10 * 60_000
        ),
        7 => r#"{"op":"profile","app":"VASP"}"#.to_owned(),
        other => warm[other % 4].clone(),
    }
}

#[derive(Default)]
struct PhaseOut {
    lat_us: Vec<u64>,
    ok: u64,
    shed_429: u64,
    shed_503: u64,
    other: u64,
    retry_after_on_429: u64,
}

impl PhaseOut {
    fn merge(&mut self, mut o: PhaseOut) {
        self.lat_us.append(&mut o.lat_us);
        self.ok += o.ok;
        self.shed_429 += o.shed_429;
        self.shed_503 += o.shed_503;
        self.other += o.other;
        self.retry_after_on_429 += o.retry_after_on_429;
    }

    fn total(&self) -> u64 {
        self.ok + self.shed_429 + self.shed_503 + self.other
    }

    fn percentile_ms(&mut self, p: f64) -> f64 {
        if self.lat_us.is_empty() {
            return 0.0;
        }
        self.lat_us.sort_unstable();
        let idx = ((self.lat_us.len() as f64 - 1.0) * p).round() as usize;
        self.lat_us[idx] as f64 / 1000.0
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    // The accept backlog can overflow while hundreds of clients dial in at
    // once; retry briefly instead of failing the run.
    for _ in 0..200 {
        if let Ok(s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let _ = s.set_nodelay(true);
            return s;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

/// Reads one Content-Length-framed response; returns (status, saw
/// Retry-After header).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, bool) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    let mut retry_after = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        } else if line.starts_with("retry-after:") {
            retry_after = true;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, retry_after)
}

/// Runs one phase: `clients` keep-alive connections each pacing requests
/// at `rate` per second for `dur`, all released together by a barrier.
fn run_phase(addr: std::net::SocketAddr, clients: usize, rate: f64, dur: Duration) -> PhaseOut {
    let warm = Arc::new(warm_panels());
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let warm = Arc::clone(&warm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let stream = connect(addr);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut out = PhaseOut::default();
                let interval = Duration::from_secs_f64(1.0 / rate);
                barrier.wait();
                let phase_end = Instant::now() + dur;
                let mut next = Instant::now();
                let mut seq = 0u64;
                while Instant::now() < phase_end {
                    let body = pick_query(&warm, client, seq);
                    seq += 1;
                    let raw = format!(
                        "POST /v1/query HTTP/1.1\r\nHost: x\r\nX-Client-Id: c{}\r\nContent-Length: {}\r\n\r\n{}",
                        client,
                        body.len(),
                        body
                    );
                    let t = Instant::now();
                    stream.write_all(raw.as_bytes()).expect("send");
                    let (status, retry_after) = read_response(&mut reader);
                    out.lat_us.push(t.elapsed().as_micros() as u64);
                    match status {
                        200 => out.ok += 1,
                        429 => {
                            out.shed_429 += 1;
                            out.retry_after_on_429 += u64::from(retry_after);
                        }
                        503 => out.shed_503 += 1,
                        _ => out.other += 1,
                    }
                    next += interval;
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    } else {
                        next = now; // don't bank a backlog we'd burst later
                    }
                }
                out
            })
        })
        .collect();
    barrier.wait();
    let mut merged = PhaseOut::default();
    for h in handles {
        merged.merge(h.join().expect("client thread"));
    }
    merged
}

fn main() {
    let clients: usize = if smoke() { 64 } else { 1000 };
    let phase = Duration::from_secs(if smoke() { 2 } else { 6 });

    let engine = seeded();
    // Prime the warm pans so phase one runs against a hot result cache,
    // like a dashboard that has been open for a while.
    for q in &warm_panels() {
        assert!(engine.handle(q).contains(r#""status":"ok""#), "{q}");
    }
    let server = HttpServer::start_with(
        Arc::clone(&engine),
        0,
        HttpConfig {
            workers: 8,
            max_inflight: 64,
            header_read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            rate_per_sec: BUCKET_RATE,
            rate_burst: BUCKET_RATE,
            ..HttpConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    println!("loadgen: {clients} clients, {}s phases", phase.as_secs());
    let mut baseline = run_phase(addr, clients, BASE_RATE, phase);
    let base_goodput = baseline.ok as f64 / phase.as_secs_f64();
    println!(
        "baseline  ({BASE_RATE}/s/client): {} reqs, goodput {base_goodput:.0}/s, \
         p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, shed {}",
        baseline.total(),
        baseline.percentile_ms(0.50),
        baseline.percentile_ms(0.95),
        baseline.percentile_ms(0.99),
        baseline.shed_429 + baseline.shed_503,
    );

    let mut overload = run_phase(addr, clients, BASE_RATE * 2.0, phase);
    let over_goodput = overload.ok as f64 / phase.as_secs_f64();
    println!(
        "overload  ({}/s/client): {} reqs, goodput {over_goodput:.0}/s, \
         p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, shed 429={} 503={}",
        BASE_RATE * 2.0,
        overload.total(),
        overload.percentile_ms(0.50),
        overload.percentile_ms(0.95),
        overload.percentile_ms(0.99),
        overload.shed_429,
        overload.shed_503,
    );

    // --- gates -------------------------------------------------------------
    let base_shed = (baseline.shed_429 + baseline.shed_503) as f64 / baseline.total() as f64;
    assert!(
        base_shed < 0.05,
        "baseline must run below the admission limits (shed {:.1}%)",
        base_shed * 100.0
    );
    assert!(
        overload.shed_429 > 0,
        "2x overload must trip the per-client rate limiter"
    );
    assert_eq!(
        overload.retry_after_on_429, overload.shed_429,
        "every 429 must carry a Retry-After header"
    );
    let retention = over_goodput / base_goodput * 100.0;
    println!("goodput retention under 2x overload: {retention:.1}%");
    assert!(
        retention >= 80.0,
        "goodput under overload must stay at >= 80% of baseline (got {retention:.1}%)"
    );

    if smoke() {
        println!("loadgen smoke: gates passed");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serving_concurrency\",\n",
            "  \"mix\": [\"warm_pans\", \"cold_zooms\", \"streaming_tail\", \"profile\"],\n",
            "  \"clients\": {},\n",
            "  \"phase_secs\": {},\n",
            "  \"workers\": 8,\n",
            "  \"max_inflight\": 64,\n",
            "  \"bucket_rate_per_client\": {:.1},\n",
            "  \"baseline\": {{\n",
            "    \"offered_rps_per_client\": {:.1},\n",
            "    \"goodput_rps\": {:.0},\n",
            "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3},\n",
            "    \"shed_429\": {}, \"shed_503\": {}\n",
            "  }},\n",
            "  \"overload_2x\": {{\n",
            "    \"offered_rps_per_client\": {:.1},\n",
            "    \"goodput_rps\": {:.0},\n",
            "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3},\n",
            "    \"shed_429\": {}, \"shed_503\": {}\n",
            "  }},\n",
            "  \"goodput_retention_pct\": {:.1},\n",
            "  \"gate\": \"retention >= 80% with typed 429 + Retry-After sheds\"\n",
            "}}\n"
        ),
        clients,
        phase.as_secs(),
        BUCKET_RATE,
        BASE_RATE,
        base_goodput,
        baseline.percentile_ms(0.50),
        baseline.percentile_ms(0.95),
        baseline.percentile_ms(0.99),
        baseline.shed_429,
        baseline.shed_503,
        BASE_RATE * 2.0,
        over_goodput,
        overload.percentile_ms(0.50),
        overload.percentile_ms(0.95),
        overload.percentile_ms(0.99),
        overload.shed_429,
        overload.shed_503,
        retention,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serving_concurrency.json"
    );
    std::fs::write(path, &json).expect("write BENCH_serving_concurrency.json");
    println!("wrote {path}");
}
