//! # proust-loadgen
//!
//! Multi-threaded load generator for `proust-server`. Each worker thread
//! owns one or more TCP connections and issues a configurable mix of map
//! (`GET`/`PUT`/`DEL`), counter (`INC`), queue (`ENQ`/`DEQ`), ordered-map
//! (`SCAN`/`OPUT`), and `MULTI … EXEC` batch requests, with uniform or
//! zipfian key skew. Requests ride either the text protocol or the
//! `proust-codec` binary framing (`--binary`) — both decode into the same
//! request model, so mixes and verification are wire-independent.
//!
//! `--connections N` holds N concurrent connections open (the high-
//! connection sweep): each thread owns its share and multiplexes requests
//! across them round-robin, so a 10k-connection run needs only a handful
//! of threads.
//!
//! Two pacing modes:
//!
//! * **closed-loop** — each thread issues the next request as soon as the
//!   previous response arrives; measures service latency under maximum
//!   pressure from `threads` outstanding requests;
//! * **open-loop** — requests arrive at a fixed aggregate rate on a
//!   pre-computed schedule. Latency is measured from the *scheduled*
//!   arrival time, never from the (possibly delayed) send time, and
//!   arrivals are never dropped when the client falls behind — the
//!   standard defence against coordinated omission.
//!
//! The run verifies protocol behaviour as it goes (every response line is
//! classified), and finishes with a **lost-update check**: every `INC`
//! acknowledged `OK` is tallied client-side, and the final committed
//! counter values must match the tally exactly. The report reuses the
//! bench crate's JSON envelope, with the server's `STATS` payload (abort
//! causes, serial escalations, server-side latency) spliced in.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod zipf;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use proust_bench::report::histogram_json;
use proust_codec::{op, resp, FrameView, Parsed};
use proust_stm::obs::{parse_exposition, Histogram, JsonValue, PromSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zipf::Zipf;

/// Request pacing discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Issue the next request when the previous response arrives.
    Closed,
    /// Fixed aggregate arrival rate (requests/second), coordinated-
    /// omission-safe.
    Open {
        /// Aggregate arrivals per second across all threads.
        rate: f64,
    },
}

impl Mode {
    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open { .. } => "open",
        }
    }
}

/// Key-skew distribution over the key range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given theta (see [`zipf::Zipf`]).
    Zipfian(f64),
}

/// Full description of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Worker threads (one connection each).
    pub threads: usize,
    /// Run length (closed loop) / schedule length (open loop).
    pub duration: Duration,
    /// Pacing mode.
    pub mode: Mode,
    /// Key range per map.
    pub keys: u64,
    /// Key-skew distribution.
    pub dist: KeyDist,
    /// Fraction of map requests that are reads (`GET`).
    pub read_frac: f64,
    /// Fraction of requests that are `MULTI … EXEC` batches of map ops.
    pub multi_frac: f64,
    /// Map ops per `MULTI` batch.
    pub multi_size: usize,
    /// Fraction of requests that are counter `INC`s.
    pub inc_frac: f64,
    /// Fraction of requests that are queue ops (`ENQ`/`DEQ` evenly).
    pub queue_frac: f64,
    /// Fraction of requests that are ordered-map ops: mostly `SCAN`
    /// range reads, with a quarter `OPUT` writes seeding the maps.
    pub scan_frac: f64,
    /// Width of each `SCAN` range (half-open, `[lo, lo + scan_span)`).
    pub scan_span: u64,
    /// Distinct maps / counters / queues touched (named `m0…`, `c0…`, `q0…`).
    pub structures: usize,
    /// RNG seed (workers derive per-thread seeds from it).
    pub seed: u64,
    /// Run the final counter lost-update check.
    pub check_counters: bool,
    /// Send `SHUTDOWN` after scraping stats (for smoke scripts).
    pub send_shutdown: bool,
    /// Suppress the once-per-second progress heartbeat on stderr.
    pub quiet: bool,
    /// Prometheus `/metrics` address of the server; when set, the run
    /// scrapes it before and after and reports the counter deltas.
    pub metrics_addr: Option<String>,
    /// Client-side ack journal path. Every `INC` writes a `SENT` line
    /// *before* the request goes on the wire and an `ACK` line once the
    /// server answers `OK`, so a post-crash verifier can bound what the
    /// recovered counters must show ([`verify_journal`]).
    pub ack_journal: Option<String>,
    /// Treat a dropped connection as the end of the run instead of a
    /// failure — the kill-recover chaos mode, where the server is
    /// SIGKILLed mid-load on purpose. The final counter check and STATS
    /// scrape turn best-effort.
    pub tolerate_disconnect: bool,
    /// Speak the binary wire protocol instead of the text protocol.
    pub binary: bool,
    /// Total concurrent connections to hold open (0 = one per thread).
    /// When larger than `threads`, each thread multiplexes its share
    /// round-robin — the open-loop connection sweep.
    pub connections: usize,
    /// Sample every Nth request for a server-side waterfall echo (0 =
    /// off). Binary wire only: the sampled request carries the codec
    /// `TRACE` flag and the server appends an `INFO` frame with the
    /// request's stage-attributed waterfall, which the run aggregates
    /// into client-side per-stage histograms.
    pub waterfall_sample: usize,
}

/// The eight request-lifecycle stage names, pipeline order — matches the
/// server's waterfall JSON and `proust_request_stage_ns{stage=…}`.
pub const STAGE_NAMES: [&str; 8] = [
    "sock_read",
    "parse",
    "batch_wait",
    "stm_exec",
    "wal_append",
    "fsync_wait",
    "resp_encode",
    "sock_flush",
];

impl LoadConfig {
    /// The connection count the run actually opens: `connections`,
    /// defaulted to one per thread and never below the thread count.
    pub fn effective_connections(&self) -> usize {
        let threads = self.threads.max(1);
        if self.connections == 0 {
            threads
        } else {
            self.connections.max(threads)
        }
    }
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 8,
            duration: Duration::from_secs(2),
            mode: Mode::Closed,
            keys: 1024,
            dist: KeyDist::Zipfian(0.99),
            read_frac: 0.8,
            multi_frac: 0.1,
            multi_size: 4,
            inc_frac: 0.1,
            queue_frac: 0.1,
            scan_frac: 0.05,
            scan_span: 16,
            structures: 4,
            seed: 0x5eed,
            check_counters: true,
            send_shutdown: false,
            quiet: false,
            metrics_addr: None,
            ack_journal: None,
            tolerate_disconnect: false,
            binary: false,
            connections: 0,
            waterfall_sample: 0,
        }
    }
}

/// Outcome of a run: counts, latency, verification results, and the
/// server's own accounting.
#[derive(Debug)]
pub struct LoadReport {
    /// Pacing mode name.
    pub mode: &'static str,
    /// Wall-clock run time, seconds.
    pub elapsed_s: f64,
    /// Request units completed (a `MULTI` block counts once).
    pub requests: u64,
    /// Units whose every response line committed (no `BUSY`, no `ERR`).
    pub committed: u64,
    /// Malformed/unexpected response lines.
    pub protocol_errors: u64,
    /// Units refused with `BUSY` (retry budget exhausted server-side).
    pub busy: u64,
    /// Client-side request latency, ns (open loop: from scheduled arrival).
    pub latency: Histogram,
    /// Committed units per second.
    pub throughput_rps: f64,
    /// Total `INC` delta acknowledged `OK` by the server.
    pub expected_incs: i64,
    /// Total counter movement actually observed on the server.
    pub observed_incs: i64,
    /// `|observed - expected|` summed across counters (0 = no lost updates).
    pub lost_updates: u64,
    /// Parsed `STATS` payload scraped after the run.
    pub server_stats: Option<JsonValue>,
    /// Counter movement observed on `/metrics` across the run, when a
    /// metrics address was configured.
    pub prom_delta: Option<JsonValue>,
    /// Waterfall echoes sampled (`--waterfall-sample`, binary wire).
    pub waterfalls: u64,
    /// Client-aggregated per-stage latency from the echoed waterfalls,
    /// indexed like [`STAGE_NAMES`]. Empty histograms when sampling was
    /// off.
    pub stage_ns: [Histogram; 8],
}

impl LoadReport {
    /// The stage contributing the most to the sampled p99, by echoed
    /// waterfall histograms. `None` when no waterfalls were sampled.
    pub fn top_stage(&self) -> Option<(&'static str, u64)> {
        if self.waterfalls == 0 {
            return None;
        }
        STAGE_NAMES
            .iter()
            .zip(self.stage_ns.iter())
            .map(|(name, hist)| (*name, hist.p99()))
            .max_by_key(|(_, p99)| *p99)
    }
}

impl LoadReport {
    /// This run as one cell of the shared bench report envelope.
    pub fn cell_json(&self, config: &LoadConfig) -> JsonValue {
        JsonValue::obj([
            ("mode", JsonValue::str(self.mode)),
            ("threads", JsonValue::u64(config.threads as u64)),
            ("elapsed_s", JsonValue::num(self.elapsed_s)),
            ("requests", JsonValue::u64(self.requests)),
            ("committed", JsonValue::u64(self.committed)),
            ("throughput_rps", JsonValue::num(self.throughput_rps)),
            ("protocol_errors", JsonValue::u64(self.protocol_errors)),
            ("busy", JsonValue::u64(self.busy)),
            ("expected_incs", JsonValue::num(self.expected_incs as f64)),
            ("observed_incs", JsonValue::num(self.observed_incs as f64)),
            ("lost_updates", JsonValue::u64(self.lost_updates)),
            ("latency", histogram_json(&self.latency)),
            ("server_stats", self.server_stats.clone().unwrap_or(JsonValue::Null)),
            ("prom_delta", self.prom_delta.clone().unwrap_or(JsonValue::Null)),
            ("waterfalls", JsonValue::u64(self.waterfalls)),
            (
                "client_stage_p99_ns",
                JsonValue::obj(
                    STAGE_NAMES
                        .iter()
                        .zip(self.stage_ns.iter())
                        .map(|(name, hist)| (*name, JsonValue::u64(hist.p99())))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

/// Scrape a Prometheus `/metrics` endpoint with a raw HTTP/1.1 `GET`
/// and parse the exposition payload.
///
/// # Errors
///
/// Returns a message when the endpoint is unreachable, answers anything
/// but `200 OK`, or serves a payload the exposition parser rejects.
pub fn scrape_metrics(addr: &str) -> Result<Vec<PromSample>, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|err| format!("connect metrics {addr}: {err}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|err| format!("metrics request: {err}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|err| format!("metrics response: {err}"))?;
    if !response.starts_with("HTTP/1.1 200") {
        let status = response.lines().next().unwrap_or("");
        return Err(format!("metrics endpoint answered {status:?}"));
    }
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or_else(|| "metrics response has no body".to_string())?;
    parse_exposition(body)
}

/// Sum of every sample of one family (histogram families have many).
fn family_value(samples: &[PromSample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

/// Key counter families whose before/after movement the report records.
const DELTA_FAMILIES: [&str; 5] = [
    "proust_requests_total",
    "proust_txn_starts_total",
    "proust_txn_commits_total",
    "proust_txn_conflicts_total",
    "proust_connections_total",
];

fn prom_delta_json(before: &[PromSample], after: &[PromSample]) -> JsonValue {
    JsonValue::obj(DELTA_FAMILIES.map(|family| {
        (family, JsonValue::num(family_value(after, family) - family_value(before, family)))
    }))
}

/// The run's configuration as the envelope `config` object.
pub fn config_json(config: &LoadConfig) -> JsonValue {
    JsonValue::obj([
        ("addr", JsonValue::str(&config.addr)),
        ("threads", JsonValue::u64(config.threads as u64)),
        ("duration_s", JsonValue::num(config.duration.as_secs_f64())),
        ("mode", JsonValue::str(config.mode.name())),
        (
            "rate",
            match config.mode {
                Mode::Open { rate } => JsonValue::num(rate),
                Mode::Closed => JsonValue::Null,
            },
        ),
        ("keys", JsonValue::u64(config.keys)),
        (
            "dist",
            match config.dist {
                KeyDist::Uniform => JsonValue::str("uniform"),
                KeyDist::Zipfian(theta) => JsonValue::obj([("zipfian", JsonValue::num(theta))]),
            },
        ),
        ("read_frac", JsonValue::num(config.read_frac)),
        ("multi_frac", JsonValue::num(config.multi_frac)),
        ("multi_size", JsonValue::u64(config.multi_size as u64)),
        ("inc_frac", JsonValue::num(config.inc_frac)),
        ("queue_frac", JsonValue::num(config.queue_frac)),
        ("scan_frac", JsonValue::num(config.scan_frac)),
        ("scan_span", JsonValue::u64(config.scan_span)),
        ("structures", JsonValue::u64(config.structures as u64)),
        ("seed", JsonValue::u64(config.seed)),
        ("wire", JsonValue::str(if config.binary { "binary" } else { "text" })),
        ("connections", JsonValue::u64(config.effective_connections() as u64)),
        ("waterfall_sample", JsonValue::u64(config.waterfall_sample as u64)),
    ])
}

#[derive(Debug)]
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
        stream.set_nodelay(true).ok();
        Ok(Client { reader: BufReader::new(stream) })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.reader.get_mut().write_all(text.as_bytes()).map_err(|err| format!("send: {err}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|err| format!("recv: {err}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        if !line.ends_with('\n') {
            // Responses are newline-terminated; a partial line means the
            // server died mid-write (e.g. a chaos SIGKILL). Surface it as
            // a connection error, not a protocol anomaly.
            return Err("server closed the connection mid-line".to_string());
        }
        Ok(line.trim_end().to_string())
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(&format!("{line}\n"))?;
        self.recv()
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Class {
    Committed,
    Busy,
    Protocol,
}

fn classify(line: &str) -> Class {
    if line == "BUSY" {
        Class::Busy
    } else if line == "OK" || line == "NIL" || line == "PONG" || line.starts_with("VALUE ") {
        Class::Committed
    } else {
        Class::Protocol
    }
}

/// Severity combiner: Protocol beats Busy beats Committed when one unit
/// produces several response frames/lines.
fn worse(a: Class, b: Class) -> Class {
    match (a, b) {
        (Class::Protocol, _) | (_, Class::Protocol) => Class::Protocol,
        (Class::Busy, _) | (_, Class::Busy) => Class::Busy,
        _ => Class::Committed,
    }
}

/// One request unit, wire-independent: the worker draws these from the
/// configured mix and each connection encodes them for its protocol.
#[derive(Debug, Clone)]
enum Req {
    Get {
        name: String,
        key: u64,
    },
    Put {
        name: String,
        key: u64,
        value: u64,
    },
    Del {
        name: String,
        key: u64,
    },
    Inc {
        name: String,
        delta: u64,
    },
    Enq {
        name: String,
        value: u64,
    },
    Deq {
        name: String,
    },
    Oput {
        name: String,
        key: u64,
        value: u64,
    },
    Scan {
        name: String,
        lo: u64,
        hi: u64,
    },
    /// `MULTI … EXEC` (text) / `BATCH` (binary): one atomic unit.
    Multi(Vec<Req>),
}

/// Render a non-`Multi` request as its text-protocol line.
fn text_line(req: &Req) -> String {
    match req {
        Req::Get { name, key } => format!("GET {name} {key}"),
        Req::Put { name, key, value } => format!("PUT {name} {key} {value}"),
        Req::Del { name, key } => format!("DEL {name} {key}"),
        Req::Inc { name, delta } => format!("INC {name} {delta}"),
        Req::Enq { name, value } => format!("ENQ {name} {value}"),
        Req::Deq { name } => format!("DEQ {name}"),
        Req::Oput { name, key, value } => format!("OPUT {name} {key} {value}"),
        Req::Scan { name, lo, hi } => format!("SCAN {name} {lo} {hi}"),
        Req::Multi(_) => unreachable!("MULTI blocks are framed, not single lines"),
    }
}

/// Encode a request as its binary frame with the given top-level header
/// flags (nested `BATCH` members never carry flags).
fn encode_req(frame: &mut Vec<u8>, req: &Req, flags: u8) {
    use proust_codec::{put_batch_request_flags, put_request_flags};
    match req {
        Req::Multi(inner) => {
            let mut body = Vec::new();
            for req in inner {
                encode_req(&mut body, req, 0);
            }
            put_batch_request_flags(frame, flags, inner.len() as u32, &body);
        }
        Req::Get { name, key } => put_request_flags(frame, op::MAP_GET, flags, name, &[*key]),
        Req::Put { name, key, value } => {
            put_request_flags(frame, op::MAP_PUT, flags, name, &[*key, *value])
        }
        Req::Del { name, key } => put_request_flags(frame, op::MAP_DEL, flags, name, &[*key]),
        Req::Inc { name, delta } => put_request_flags(frame, op::CTR_INC, flags, name, &[*delta]),
        Req::Enq { name, value } => put_request_flags(frame, op::Q_ENQ, flags, name, &[*value]),
        Req::Deq { name } => put_request_flags(frame, op::Q_DEQ, flags, name, &[]),
        Req::Oput { name, key, value } => {
            put_request_flags(frame, op::ORD_PUT, flags, name, &[*key, *value])
        }
        Req::Scan { name, lo, hi } => {
            put_request_flags(frame, op::ORD_SCAN, flags, name, &[*lo, *hi])
        }
    }
}

/// A decoded binary response frame, owned (no borrow of the read buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedBin {
    code: u8,
    value: Option<u64>,
    entries: Option<Vec<(u64, u64)>>,
    text: Option<String>,
    batch: Vec<OwnedBin>,
}

impl OwnedBin {
    fn from_view(view: &FrameView<'_>) -> OwnedBin {
        OwnedBin {
            code: view.code,
            value: if view.code == resp::VALUE { view.arg(0) } else { None },
            entries: if view.code == resp::ENTRIES { view.entries() } else { None },
            text: if view.code == resp::ERR || view.code == resp::INFO {
                view.text().map(str::to_string)
            } else {
                None
            },
            batch: if view.code == resp::BATCH {
                match view.batch(proust_codec::RESP_MAGIC) {
                    Ok(inner) => inner.iter().map(OwnedBin::from_view).collect(),
                    // An undecodable batch body must classify as a
                    // protocol anomaly, not an empty (committed) batch.
                    Err(_) => vec![OwnedBin {
                        code: 0,
                        value: None,
                        entries: None,
                        text: None,
                        batch: Vec::new(),
                    }],
                }
            } else {
                Vec::new()
            },
        }
    }

    fn classify(&self) -> Class {
        match self.code {
            resp::OK | resp::NIL | resp::PONG | resp::VALUE | resp::ENTRIES | resp::INFO => {
                Class::Committed
            }
            resp::BUSY => Class::Busy,
            resp::BATCH => {
                self.batch.iter().fold(Class::Committed, |acc, inner| worse(acc, inner.classify()))
            }
            _ => Class::Protocol,
        }
    }
}

/// A client speaking the binary protocol: frames out, frames in.
#[derive(Debug)]
struct BinClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BinClient {
    fn new(stream: TcpStream) -> BinClient {
        stream.set_nodelay(true).ok();
        BinClient { stream, buf: Vec::new() }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|err| format!("send: {err}"))
    }

    fn recv(&mut self) -> Result<OwnedBin, String> {
        loop {
            match proust_codec::parse_frame(&self.buf, proust_codec::RESP_MAGIC) {
                Ok(Parsed::Frame { view, consumed }) => {
                    let owned = OwnedBin::from_view(&view);
                    self.buf.drain(..consumed);
                    return Ok(owned);
                }
                Ok(Parsed::Incomplete) => {
                    let mut chunk = [0u8; 4096];
                    let n = self.stream.read(&mut chunk).map_err(|err| format!("recv: {err}"))?;
                    if n == 0 {
                        return Err("server closed the connection".to_string());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(err) => return Err(format!("binary response: {err}")),
            }
        }
    }

    fn request(&mut self, code: u8, name: &str, args: &[u64]) -> Result<OwnedBin, String> {
        let mut frame = Vec::new();
        proust_codec::put_request(&mut frame, code, name, args);
        self.send(&frame)?;
        self.recv()
    }
}

/// One worker-owned connection on either wire.
#[derive(Debug)]
enum WorkerConn {
    Text(Client),
    Binary(BinClient),
}

impl WorkerConn {
    /// Connect with retries: a 10k-connection storm can transiently
    /// overflow the listener backlog, which is the client's problem to
    /// absorb, not a run failure.
    fn connect(addr: &str, binary: bool) -> Result<WorkerConn, String> {
        let mut delay = Duration::from_millis(10);
        let mut last = String::new();
        for attempt in 0..5 {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay *= 4;
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Ok(if binary {
                        WorkerConn::Binary(BinClient::new(stream))
                    } else {
                        stream.set_nodelay(true).ok();
                        WorkerConn::Text(Client { reader: BufReader::new(stream) })
                    });
                }
                Err(err) => last = format!("connect {addr}: {err}"),
            }
        }
        Err(last)
    }

    /// Issue one request unit and classify the full response. With
    /// `trace` set (binary wire only), the request carries the codec
    /// `TRACE` flag and the server's echoed waterfall JSON rides back in
    /// the second slot.
    fn issue(&mut self, req: &Req, trace: bool) -> Result<(Class, Option<String>), String> {
        match self {
            WorkerConn::Text(client) => Ok((issue_text(client, req)?, None)),
            WorkerConn::Binary(client) => {
                let mut frame = Vec::new();
                let flags = if trace { proust_codec::flag::TRACE } else { 0 };
                encode_req(&mut frame, req, flags);
                client.send(&frame)?;
                let class = client.recv()?.classify();
                if !trace {
                    return Ok((class, None));
                }
                // The flagged request is answered, then echoed: the next
                // frame is the INFO waterfall.
                let echo = client.recv()?;
                if echo.code != resp::INFO {
                    return Ok((worse(class, Class::Protocol), None));
                }
                Ok((class, echo.text))
            }
        }
    }
}

fn issue_text(client: &mut Client, req: &Req) -> Result<Class, String> {
    let Req::Multi(inner) = req else {
        return Ok(classify(&client.roundtrip(&text_line(req))?));
    };
    // A MULTI batch of map ops: one atomic unit server-side.
    let mut block = String::from("MULTI\n");
    for req in inner {
        block.push_str(&text_line(req));
        block.push('\n');
    }
    block.push_str("EXEC\n");
    client.send(&block)?;
    let mut class = Class::Committed;
    if client.recv()? != "OK" {
        class = worse(class, Class::Protocol);
    }
    for _ in inner {
        if client.recv()? != "QUEUED" {
            class = worse(class, Class::Protocol);
        }
    }
    let results = client.recv()?;
    let lines = match results.strip_prefix("RESULTS ").and_then(|n| n.parse().ok()) {
        Some(n) => n,
        None => {
            class = worse(class, Class::Protocol);
            0usize
        }
    };
    for _ in 0..lines {
        class = worse(class, classify(&client.recv()?));
    }
    Ok(class)
}

struct Tallies {
    requests: AtomicU64,
    committed: AtomicU64,
    protocol_errors: AtomicU64,
    busy: AtomicU64,
    latency: Histogram,
    expected_incs: Vec<AtomicI64>,
    /// Shared ack journal; each line is flushed before the run proceeds
    /// so the journal never lags the wire.
    journal: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Waterfall echoes parsed so far and their per-stage spans,
    /// indexed like [`STAGE_NAMES`].
    waterfalls: AtomicU64,
    stage_ns: [Histogram; 8],
}

impl Tallies {
    /// Fold one echoed waterfall into the client-side stage histograms.
    fn record_waterfall(&self, text: &str) {
        let Ok(wf) = JsonValue::parse(text) else { return };
        let Some(stages) = wf.get("stages") else { return };
        for (name, hist) in STAGE_NAMES.iter().zip(self.stage_ns.iter()) {
            if let Some(ns) = stages.get(name).and_then(JsonValue::as_u64) {
                hist.record(ns);
            }
        }
        self.waterfalls.fetch_add(1, Ordering::Relaxed);
    }

    fn journal_line(&self, line: &str) -> Result<(), String> {
        if let Some(journal) = &self.journal {
            let mut writer = journal.lock().expect("ack journal poisoned");
            writeln!(writer, "{line}").map_err(|err| format!("ack journal write: {err}"))?;
            writer.flush().map_err(|err| format!("ack journal flush: {err}"))?;
        }
        Ok(())
    }
}

struct Worker<'a> {
    /// This thread's share of the run's connections; requests rotate
    /// round-robin across them.
    conns: Vec<WorkerConn>,
    rng: StdRng,
    zipf: Option<Zipf>,
    config: &'a LoadConfig,
    tallies: &'a Tallies,
    /// Requests issued by this worker — drives the every-Nth waterfall
    /// sampling cadence.
    seq: u64,
}

impl Worker<'_> {
    fn draw_key(&mut self) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.next(&mut self.rng),
            None => self.rng.gen_range(0..self.config.keys),
        }
    }

    fn map_req(&mut self) -> Req {
        let name = format!("m{}", self.rng.gen_range(0..self.config.structures as u64));
        let key = self.draw_key();
        let r: f64 = self.rng.gen();
        if r < self.config.read_frac {
            Req::Get { name, key }
        } else if r < self.config.read_frac + 0.8 * (1.0 - self.config.read_frac) {
            Req::Put { name, key, value: self.rng.gen_range(0..1_000_000u64) }
        } else {
            Req::Del { name, key }
        }
    }

    /// Draw one request unit from the configured mix; an `INC` also
    /// returns its `(counter, delta)` for ack accounting.
    fn draw_req(&mut self) -> (Req, Option<(u64, u64)>) {
        let pick: f64 = self.rng.gen();
        let config = self.config;
        if pick < config.multi_frac {
            let count = config.multi_size.max(1);
            (Req::Multi((0..count).map(|_| self.map_req()).collect()), None)
        } else if pick < config.multi_frac + config.inc_frac {
            let counter = self.rng.gen_range(0..config.structures as u64);
            let delta = self.rng.gen_range(1..4u64);
            (Req::Inc { name: format!("c{counter}"), delta }, Some((counter, delta)))
        } else if pick < config.multi_frac + config.inc_frac + config.queue_frac {
            let name = format!("q{}", self.rng.gen_range(0..config.structures as u64));
            if self.rng.gen::<f64>() < 0.5 {
                (Req::Enq { name, value: self.rng.gen_range(0..1_000_000u64) }, None)
            } else {
                (Req::Deq { name }, None)
            }
        } else if pick < config.multi_frac + config.inc_frac + config.queue_frac + config.scan_frac
        {
            let name = format!("o{}", self.rng.gen_range(0..config.structures as u64));
            let key = self.draw_key();
            if self.rng.gen::<f64>() < 0.25 {
                // Seed the ordered maps so scans have something to read.
                (Req::Oput { name, key, value: self.rng.gen_range(0..1_000_000u64) }, None)
            } else {
                let hi = key.saturating_add(config.scan_span.max(1));
                (Req::Scan { name, lo: key, hi }, None)
            }
        } else {
            (self.map_req(), None)
        }
    }

    /// Issue one request unit on connection `conn_idx`; latency is
    /// recorded from `sched`.
    fn issue_one(&mut self, conn_idx: usize, sched: Instant) -> Result<(), String> {
        let (req, inc) = self.draw_req();
        let trace = self.config.binary
            && self.config.waterfall_sample > 0
            && self.seq.is_multiple_of(self.config.waterfall_sample as u64);
        self.seq = self.seq.wrapping_add(1);
        if let Some((counter, delta)) = inc {
            // SENT before the request leaves: any increment the server might
            // commit is journaled first, so a crash can never leave an
            // acked-but-unjournaled update.
            self.tallies.journal_line(&format!("SENT c{counter} {delta}"))?;
        }
        let (unit_class, waterfall) = self.conns[conn_idx].issue(&req, trace)?;
        if let Some(text) = waterfall {
            self.tallies.record_waterfall(&text);
        }
        if let Some((counter, delta)) = inc {
            if unit_class == Class::Committed {
                // The server only answers OK after commit, so this tally is
                // exactly the committed counter movement we must observe.
                self.tallies.expected_incs[counter as usize]
                    .fetch_add(delta as i64, Ordering::Relaxed);
                self.tallies.journal_line(&format!("ACK c{counter} {delta}"))?;
            }
        }
        self.tallies.latency.record(sched.elapsed().as_nanos() as u64);
        self.tallies.requests.fetch_add(1, Ordering::Relaxed);
        match unit_class {
            Class::Committed => {
                self.tallies.committed.fetch_add(1, Ordering::Relaxed);
            }
            Class::Busy => {
                self.tallies.busy.fetch_add(1, Ordering::Relaxed);
            }
            Class::Protocol => {
                self.tallies.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn run(&mut self, tid: usize, start: Instant) -> Result<(), String> {
        let conns = self.conns.len().max(1);
        match self.config.mode {
            Mode::Closed => {
                let mut turn = 0usize;
                while start.elapsed() < self.config.duration {
                    self.issue_one(turn % conns, Instant::now())?;
                    turn = turn.wrapping_add(1);
                }
            }
            Mode::Open { rate } => {
                // Thread `tid` owns arrivals tid, tid+T, tid+2T, … of the
                // global schedule, rotating them across its connections. A
                // late arrival is sent immediately but its latency still
                // counts from the scheduled instant — falling behind
                // inflates the tail instead of hiding it.
                let total = (rate * self.config.duration.as_secs_f64()).ceil() as u64;
                let mut k = tid as u64;
                let mut turn = 0usize;
                while k < total {
                    let at = start + Duration::from_secs_f64(k as f64 / rate);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    self.issue_one(turn % conns, at)?;
                    turn = turn.wrapping_add(1);
                    k += self.config.threads as u64;
                }
            }
        }
        Ok(())
    }
}

/// Once-per-second single-line status on stderr: interval throughput,
/// p99 so far, error count, and — via a dedicated STATS connection — the
/// server-side contention counters (lock-wait time and serial-gate queue
/// depth), so a stall is attributable while the run is still going.
/// Polls the stop flag at 50ms so the scope join never waits a full
/// second. The STATS poll is best-effort: if the control connection dies
/// the heartbeat keeps printing client-side numbers.
fn heartbeat_loop(tallies: &Tallies, stop: &AtomicBool, start: Instant, addr: &str) {
    let mut last_committed = 0u64;
    let mut last_tick = Instant::now();
    let mut stats_client = Client::connect(addr).ok();
    let mut last_wait_ns = 0u64;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        if last_tick.elapsed() < Duration::from_secs(1) {
            continue;
        }
        let committed = tallies.committed.load(Ordering::Relaxed);
        let errors =
            tallies.protocol_errors.load(Ordering::Relaxed) + tallies.busy.load(Ordering::Relaxed);
        let contention = stats_client.as_mut().and_then(|client| {
            let line = client.roundtrip("STATS").ok()?;
            let stats = JsonValue::parse(line.strip_prefix("STATS ")?).ok()?;
            let wait_ns = stats.get("lock_wait_ns")?.as_u64()?;
            let depth = stats.get("serial_queue_depth").and_then(JsonValue::as_u64).unwrap_or(0);
            let conns = stats.get("connections").and_then(JsonValue::as_u64).unwrap_or(0);
            Some((wait_ns, depth, conns))
        });
        if contention.is_none() {
            // A failed roundtrip leaves the connection desynced; drop it
            // rather than reading stale responses next tick.
            stats_client = None;
        }
        let contention_txt = match contention {
            Some((wait_ns, depth, conns)) => {
                let delta_ms = wait_ns.saturating_sub(last_wait_ns) as f64 / 1e6;
                last_wait_ns = wait_ns;
                format!(", conns {conns}, lock-wait +{delta_ms:.1}ms, serial-q {depth}")
            }
            None => String::new(),
        };
        // With waterfall sampling on, name the stage currently
        // contributing the most to the sampled p99.
        let stage_txt = if tallies.waterfalls.load(Ordering::Relaxed) > 0 {
            let (name, p99) = STAGE_NAMES
                .iter()
                .zip(tallies.stage_ns.iter())
                .map(|(name, hist)| (*name, hist.p99()))
                .max_by_key(|(_, p99)| *p99)
                .expect("eight stages");
            format!(", top stage {name} p99 {:.1}us", p99 as f64 / 1e3)
        } else {
            String::new()
        };
        eprintln!(
            "[loadgen] t={:>4.0}s {:>8.0} committed/s, p99 so far {:.1}us, errors {}{}{}",
            start.elapsed().as_secs_f64(),
            (committed - last_committed) as f64 / last_tick.elapsed().as_secs_f64(),
            tallies.latency.p99() as f64 / 1e3,
            errors,
            contention_txt,
            stage_txt,
        );
        last_committed = committed;
        last_tick = Instant::now();
    }
}

fn counter_values(client: &mut Client, config: &LoadConfig) -> Result<Vec<i64>, String> {
    (0..config.structures)
        .map(|i| {
            let response = client.roundtrip(&format!("GET c{i}"))?;
            response
                .strip_prefix("VALUE ")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad counter response {response:?}"))
        })
        .collect()
}

/// Execute one load-generation run against a live server.
///
/// # Errors
///
/// Returns a message when the server is unreachable or a connection dies
/// mid-run. Protocol-level anomalies do *not* error — they are counted in
/// the report so the caller can assert on them.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    let mut control = Client::connect(&config.addr)?;
    if control.roundtrip("PING")? != "PONG" {
        return Err("server did not answer PING".to_string());
    }
    let initial = if config.check_counters {
        counter_values(&mut control, config)?
    } else {
        vec![0; config.structures]
    };
    let metrics_before = match &config.metrics_addr {
        Some(addr) => Some(scrape_metrics(addr)?),
        None => None,
    };
    let journal = match &config.ack_journal {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|err| format!("create ack journal {path}: {err}"))?;
            Some(Mutex::new(BufWriter::new(file)))
        }
        None => None,
    };
    let tallies = Tallies {
        requests: AtomicU64::new(0),
        committed: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        latency: Histogram::new(),
        expected_incs: (0..config.structures).map(|_| AtomicI64::new(0)).collect(),
        journal,
        waterfalls: AtomicU64::new(0),
        stage_ns: std::array::from_fn(|_| Histogram::new()),
    };
    let heartbeat_stop = AtomicBool::new(false);
    let threads = config.threads.max(1);
    let total_conns = config.effective_connections();
    // All connections are established before the clock starts: the
    // measured window contains request latency only, never the connect
    // storm. Every worker reaches the barrier even on connect failure so
    // the rendezvous can't deadlock.
    let barrier = std::sync::Barrier::new(threads + 1);
    let mut elapsed_s = 0.0f64;
    let worker_errors: Vec<String> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let tallies = &tallies;
                scope.spawn(move || -> Result<(), String> {
                    let share = total_conns / threads + usize::from(tid < total_conns % threads);
                    let connected: Result<Vec<WorkerConn>, String> = (0..share)
                        .map(|_| WorkerConn::connect(&config.addr, config.binary))
                        .collect();
                    barrier.wait();
                    let mut worker = Worker {
                        conns: connected?,
                        rng: StdRng::seed_from_u64(
                            config.seed ^ (tid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        ),
                        zipf: match config.dist {
                            KeyDist::Zipfian(theta) => Some(Zipf::new(config.keys, theta)),
                            KeyDist::Uniform => None,
                        },
                        config,
                        tallies,
                        seq: tid as u64,
                    };
                    // Each thread clocks its own start at the rendezvous;
                    // the skew between threads is microseconds against a
                    // schedule of milliseconds.
                    worker.run(tid, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        if !config.quiet {
            let tallies = &tallies;
            let stop = &heartbeat_stop;
            let addr = config.addr.as_str();
            scope.spawn(move || heartbeat_loop(tallies, stop, start, addr));
        }
        let errors: Vec<String> = handles
            .into_iter()
            .filter_map(|handle| match handle.join() {
                Ok(Ok(())) => None,
                Ok(Err(msg)) => Some(msg),
                Err(_) => Some("worker thread panicked".to_string()),
            })
            .collect();
        elapsed_s = start.elapsed().as_secs_f64();
        heartbeat_stop.store(true, Ordering::Release);
        errors
    });
    let disconnected = !worker_errors.is_empty();
    if disconnected {
        if config.tolerate_disconnect {
            // Kill-recover chaos mode: the server was SIGKILLed on purpose.
            // The journal (flushed line by line) is the artifact that
            // matters; report what the run got through before the cut.
            eprintln!(
                "[loadgen] tolerated {} dropped worker connection(s); first: {}",
                worker_errors.len(),
                worker_errors[0]
            );
        } else {
            return Err(format!(
                "{} worker(s) failed; first: {first}",
                worker_errors.len(),
                first = &worker_errors[0]
            ));
        }
    }

    // Lost-update check: every INC the server acknowledged must be visible
    // in the committed counter values, exactly. Skipped after a tolerated
    // disconnect — the server is gone; verify_journal takes over after
    // the restart.
    let (expected_incs, observed_incs, lost_updates) = if config.check_counters && !disconnected {
        let finals = counter_values(&mut control, config)?;
        let mut expected_total = 0i64;
        let mut observed_total = 0i64;
        let mut lost = 0u64;
        for (i, (initial, final_)) in initial.iter().zip(&finals).enumerate() {
            let expected = tallies.expected_incs[i].load(Ordering::Relaxed);
            let observed = final_ - initial;
            expected_total += expected;
            observed_total += observed;
            lost += expected.abs_diff(observed);
        }
        (expected_total, observed_total, lost)
    } else {
        (0, 0, 0)
    };

    let server_stats = match control.roundtrip("STATS") {
        Ok(stats_line) => {
            stats_line.strip_prefix("STATS ").and_then(|payload| JsonValue::parse(payload).ok())
        }
        Err(err) if disconnected => {
            eprintln!("[loadgen] STATS scrape skipped after disconnect: {err}");
            None
        }
        Err(err) => return Err(err),
    };
    let prom_delta = match (&config.metrics_addr, metrics_before) {
        (Some(addr), Some(before)) => match scrape_metrics(addr) {
            Ok(after) => Some(prom_delta_json(&before, &after)),
            Err(err) if disconnected => {
                eprintln!("[loadgen] metrics scrape skipped after disconnect: {err}");
                None
            }
            Err(err) => return Err(err),
        },
        _ => None,
    };
    if config.send_shutdown {
        let _ = control.roundtrip("SHUTDOWN");
    }

    let committed = tallies.committed.load(Ordering::Relaxed);
    if let Some(journal) = &tallies.journal {
        journal
            .lock()
            .expect("ack journal poisoned")
            .flush()
            .map_err(|err| format!("ack journal final flush: {err}"))?;
    }
    Ok(LoadReport {
        mode: config.mode.name(),
        elapsed_s,
        requests: tallies.requests.load(Ordering::Relaxed),
        committed,
        protocol_errors: tallies.protocol_errors.load(Ordering::Relaxed),
        busy: tallies.busy.load(Ordering::Relaxed),
        latency: tallies.latency,
        throughput_rps: committed as f64 / elapsed_s.max(1e-9),
        expected_incs,
        observed_incs,
        lost_updates,
        server_stats,
        prom_delta,
        waterfalls: tallies.waterfalls.load(Ordering::Relaxed),
        stage_ns: tallies.stage_ns,
    })
}

/// Outcome of a post-restart ack-journal verification ([`verify_journal`]).
#[derive(Debug)]
pub struct VerifySummary {
    /// Distinct counters the journal mentions.
    pub counters: usize,
    /// Total delta the server acknowledged `OK` (hard floor on recovery).
    pub acked_sum: i64,
    /// Total delta sent, acked or not (hard ceiling on recovery).
    pub sent_sum: i64,
    /// Total recovered counter value observed on the server.
    pub recovered_sum: i64,
    /// Human-readable invariant violations; empty means the recovery
    /// neither lost an acknowledged update nor surfaced an aborted one.
    pub violations: Vec<String>,
}

/// Verify a recovered server against a client-side ack journal written by
/// a previous run's `--ack-journal`: for every counter, the recovered
/// value must satisfy `acked <= recovered <= sent`. Below the floor, a
/// durably-acknowledged commit was lost; above the ceiling, state that was
/// never even requested (or was aborted) became visible.
///
/// Assumes the journaled run was the only writer against a fresh data
/// directory, which is how the kill-recover chaos harness drives it.
///
/// # Errors
///
/// Returns a message when the journal is unreadable or malformed, or the
/// server is unreachable. Invariant violations are *not* errors — they are
/// returned in the summary for the caller to assert on.
pub fn verify_journal(addr: &str, path: &str) -> Result<VerifySummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("read ack journal {path}: {err}"))?;
    let mut sent: BTreeMap<String, i64> = BTreeMap::new();
    let mut acked: BTreeMap<String, i64> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(tag), Some(name), Some(delta), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("{path}:{}: malformed journal line {line:?}", idx + 1));
        };
        let delta: i64 =
            delta.parse().map_err(|_| format!("{path}:{}: bad delta in {line:?}", idx + 1))?;
        match tag {
            "SENT" => *sent.entry(name.to_string()).or_insert(0) += delta,
            "ACK" => *acked.entry(name.to_string()).or_insert(0) += delta,
            _ => return Err(format!("{path}:{}: unknown journal tag {tag:?}", idx + 1)),
        }
    }
    let mut client = Client::connect(addr)?;
    let mut violations = Vec::new();
    let mut acked_sum = 0i64;
    let mut sent_sum = 0i64;
    let mut recovered_sum = 0i64;
    for (name, sent_total) in &sent {
        let acked_total = acked.get(name).copied().unwrap_or(0);
        let response = client.roundtrip(&format!("GET {name}"))?;
        let recovered: i64 = response
            .strip_prefix("VALUE ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad counter response for {name}: {response:?}"))?;
        acked_sum += acked_total;
        sent_sum += sent_total;
        recovered_sum += recovered;
        if recovered < acked_total {
            violations.push(format!(
                "{name}: recovered {recovered} < acked {acked_total} (lost committed updates)"
            ));
        }
        if recovered > *sent_total {
            violations.push(format!(
                "{name}: recovered {recovered} > sent {sent_total} (phantom updates visible)"
            ));
        }
    }
    Ok(VerifySummary { counters: sent.len(), acked_sum, sent_sum, recovered_sum, violations })
}

/// Scripted opcode round-trip against a live server: every data opcode,
/// an atomic `MULTI`/`BATCH` block, `STATS`, and the error paths, over
/// the chosen wire. The smoke script uses this as its binary-protocol
/// leg, since shell tooling can only speak the text protocol.
///
/// Structure names carry a time-derived nonce so the check is exact even
/// against a server that has already served other traffic.
///
/// # Errors
///
/// Returns a message naming the first request whose response deviated
/// from the protocol contract, or any transport failure.
pub fn selftest(addr: &str, binary: bool) -> Result<(), String> {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        % 1_000_000;
    if binary {
        selftest_binary(addr, nonce)
    } else {
        selftest_text(addr, nonce)
    }
}

fn expect(ctx: &str, got: &str, want: &str) -> Result<(), String> {
    if got != want {
        return Err(format!("{ctx}: got {got:?}, want {want:?}"));
    }
    Ok(())
}

fn selftest_text(addr: &str, nonce: u64) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    let (m, c, q, o) = (
        format!("stm{nonce}"),
        format!("stc{nonce}"),
        format!("stq{nonce}"),
        format!("sto{nonce}"),
    );
    expect("PING", &client.roundtrip("PING")?, "PONG")?;
    expect("PUT", &client.roundtrip(&format!("PUT {m} 1 10"))?, "OK")?;
    expect("GET hit", &client.roundtrip(&format!("GET {m} 1"))?, "VALUE 10")?;
    expect("DEL", &client.roundtrip(&format!("DEL {m} 1"))?, "VALUE 10")?;
    expect("GET miss", &client.roundtrip(&format!("GET {m} 1"))?, "NIL")?;
    expect("INC", &client.roundtrip(&format!("INC {c} 5"))?, "OK")?;
    expect("counter GET", &client.roundtrip(&format!("GET {c}"))?, "VALUE 5")?;
    expect("ENQ", &client.roundtrip(&format!("ENQ {q} 7"))?, "OK")?;
    expect("DEQ", &client.roundtrip(&format!("DEQ {q}"))?, "VALUE 7")?;
    expect("DEQ empty", &client.roundtrip(&format!("DEQ {q}"))?, "NIL")?;
    expect("OPUT", &client.roundtrip(&format!("OPUT {o} 5 50"))?, "OK")?;
    expect("OPUT", &client.roundtrip(&format!("OPUT {o} 2 20"))?, "OK")?;
    expect("OGET", &client.roundtrip(&format!("OGET {o} 5"))?, "VALUE 50")?;
    expect("SCAN", &client.roundtrip(&format!("SCAN {o} 0 10"))?, "VALUE 2 2=20 5=50")?;
    expect("ODEL", &client.roundtrip(&format!("ODEL {o} 2"))?, "VALUE 20")?;
    expect("MULTI", &client.roundtrip("MULTI")?, "OK")?;
    expect("queued PUT", &client.roundtrip(&format!("PUT {m} 2 22"))?, "QUEUED")?;
    expect("queued GET", &client.roundtrip(&format!("GET {m} 2"))?, "QUEUED")?;
    expect("EXEC", &client.roundtrip("EXEC")?, "RESULTS 2")?;
    expect("EXEC line 1", &client.recv()?, "OK")?;
    expect("EXEC line 2", &client.recv()?, "VALUE 22")?;
    let stats = client.roundtrip("STATS")?;
    let payload = stats.strip_prefix("STATS ").ok_or_else(|| format!("STATS: {stats:?}"))?;
    JsonValue::parse(payload).map_err(|err| format!("STATS payload: {err}"))?;
    // Malformed requests answer ERR and keep the connection.
    let bad = client.roundtrip(&format!("INC {c} 0"))?;
    if !bad.starts_with("ERR ") {
        return Err(format!("zero-delta INC: got {bad:?}, want an ERR line"));
    }
    expect("PING after ERR", &client.roundtrip("PING")?, "PONG")?;
    expect("QUIT", &client.roundtrip("QUIT")?, "OK")?;
    Ok(())
}

fn selftest_binary(addr: &str, nonce: u64) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    let mut client = BinClient::new(stream);
    let check = |ctx: &str, got: &OwnedBin, want: &OwnedBin| -> Result<(), String> {
        if got != want {
            return Err(format!("{ctx}: got {got:?}, want {want:?}"));
        }
        Ok(())
    };
    let status =
        |code: u8| OwnedBin { code, value: None, entries: None, text: None, batch: Vec::new() };
    let value = |v: u64| OwnedBin { value: Some(v), ..status(resp::VALUE) };
    let (m, c, q, o) = (
        format!("stm{nonce}"),
        format!("stc{nonce}"),
        format!("stq{nonce}"),
        format!("sto{nonce}"),
    );
    check("PING", &client.request(op::PING, "", &[])?, &status(resp::PONG))?;
    check("MAP_PUT", &client.request(op::MAP_PUT, &m, &[1, 10])?, &status(resp::OK))?;
    check("MAP_GET hit", &client.request(op::MAP_GET, &m, &[1])?, &value(10))?;
    check("MAP_DEL", &client.request(op::MAP_DEL, &m, &[1])?, &value(10))?;
    check("MAP_GET miss", &client.request(op::MAP_GET, &m, &[1])?, &status(resp::NIL))?;
    check("CTR_INC", &client.request(op::CTR_INC, &c, &[5])?, &status(resp::OK))?;
    check("CTR_GET", &client.request(op::CTR_GET, &c, &[])?, &value(5))?;
    check("Q_ENQ", &client.request(op::Q_ENQ, &q, &[7])?, &status(resp::OK))?;
    check("Q_DEQ", &client.request(op::Q_DEQ, &q, &[])?, &value(7))?;
    check("Q_DEQ empty", &client.request(op::Q_DEQ, &q, &[])?, &status(resp::NIL))?;
    check("ORD_PUT", &client.request(op::ORD_PUT, &o, &[5, 50])?, &status(resp::OK))?;
    check("ORD_PUT", &client.request(op::ORD_PUT, &o, &[2, 20])?, &status(resp::OK))?;
    check("ORD_GET", &client.request(op::ORD_GET, &o, &[5])?, &value(50))?;
    let scan = client.request(op::ORD_SCAN, &o, &[0, 10])?;
    if scan.code != resp::ENTRIES || scan.entries.as_deref() != Some(&[(2, 20), (5, 50)]) {
        return Err(format!("ORD_SCAN: got {scan:?}, want entries [(2,20),(5,50)]"));
    }
    check("ORD_DEL", &client.request(op::ORD_DEL, &o, &[2])?, &value(20))?;
    // BATCH: one atomic unit, one framed response.
    let mut frame = Vec::new();
    encode_req(
        &mut frame,
        &Req::Multi(vec![
            Req::Put { name: m.clone(), key: 2, value: 22 },
            Req::Get { name: m.clone(), key: 2 },
        ]),
        0,
    );
    client.send(&frame)?;
    let batch = client.recv()?;
    if batch.code != resp::BATCH
        || batch.batch.len() != 2
        || batch.batch[0] != status(resp::OK)
        || batch.batch[1] != value(22)
    {
        return Err(format!("BATCH: got {batch:?}, want [OK, VALUE 22]"));
    }
    // STATS: an INFO frame carrying the one-line JSON payload.
    let stats = client.request(op::STATS, "", &[])?;
    let payload = match (stats.code, &stats.text) {
        (code, Some(text)) if code == resp::INFO => text,
        _ => return Err(format!("STATS: got {stats:?}, want an INFO frame")),
    };
    JsonValue::parse(payload).map_err(|err| format!("STATS payload: {err}"))?;
    // Malformed requests answer ERR and keep the connection.
    let bad = client.request(op::CTR_INC, &c, &[0])?;
    if bad.code != resp::ERR {
        return Err(format!("zero-delta CTR_INC: got {bad:?}, want an ERR frame"));
    }
    check("PING after ERR", &client.request(op::PING, "", &[])?, &status(resp::PONG))?;
    check("QUIT", &client.request(op::QUIT, "", &[])?, &status(resp::OK))?;
    Ok(())
}
