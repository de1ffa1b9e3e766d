//! The served workloads, `kv-mem` and `kv-wal`: an in-process
//! `proust-server` at its default 2 reactor shards and optimistic/lazy
//! quadrant, driven closed-loop by `proust_loadgen::run` over the binary
//! wire with 2 threads and 2 connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proust_codec::{op, parse_frame, put_request, resp, Parsed, RESP_MAGIC};
use proust_loadgen::{KeyDist, LoadConfig, LoadReport, Mode};
use proust_server::{Server, ServerConfig, ServerHandle};
use proust_stm::obs::{Histogram, JsonValue};
use proust_wal::FsyncPolicy;

use crate::gen::derive;
use crate::measure::{hist_quantile, median, rss_mb, window_count, Metrics};
use crate::{Outcome, Traced};

pub const THREADS: usize = 2;
pub const CONNECTIONS: usize = 2;
pub const FSYNC_POLICY: FsyncPolicy = FsyncPolicy::Batch;
/// Server set-ups timed before each measured window; `setup_s` is their
/// median. A sub-millisecond set-up follows the machine's momentary load,
/// so set-ups spread over the whole run rather than bunched at its start.
const SETUPS_PER_WINDOW: usize = 3;
/// Every Nth request of a traced pass carries the `TRACE` flag.
const WATERFALL_SAMPLE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// No write-ahead log.
    Mem,
    /// WAL under the batch (group-commit) fsync policy.
    Wal,
}

/// The request mix of a served workload (address, seed and duration are
/// filled in per pass).
pub fn mix(kind: KvKind) -> LoadConfig {
    let base = LoadConfig {
        threads: THREADS,
        connections: CONNECTIONS,
        mode: Mode::Closed,
        keys: 4096,
        dist: KeyDist::Zipfian(0.99),
        binary: true,
        quiet: true,
        check_counters: true,
        ..LoadConfig::default()
    };
    match kind {
        KvKind::Mem => base,
        KvKind::Wal => LoadConfig { read_frac: 0.2, inc_frac: 0.2, ..base },
    }
}

fn load_config(
    kind: KvKind,
    addr: &str,
    seed: u64,
    duration: Duration,
    sample: usize,
) -> LoadConfig {
    LoadConfig { addr: addr.to_string(), seed, duration, waterfall_sample: sample, ..mix(kind) }
}

fn server_config(kind: KvKind, dir: &Path, fsync_delay: Option<Duration>) -> ServerConfig {
    ServerConfig {
        data_dir: (kind == KvKind::Wal).then(|| dir.to_path_buf()),
        fsync_policy: FSYNC_POLICY,
        chaos_fsync_delay: fsync_delay,
        ..ServerConfig::default()
    }
}

fn start(config: &ServerConfig) -> Result<ServerHandle, String> {
    Server::start(config.clone()).map_err(|err| format!("server start: {err}"))
}

fn stop(server: ServerHandle, violations: &mut Vec<String>) {
    if !server.shutdown() {
        violations.push("server shutdown did not drain in-flight transactions".to_string());
    }
}

/// Binary `PING` round trip on a fresh connection.
fn ping(stream: &mut TcpStream) -> Result<(), String> {
    let mut frame = Vec::new();
    put_request(&mut frame, op::PING, "", &[]);
    stream.write_all(&frame).map_err(|err| format!("ping send: {err}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match parse_frame(&buf, RESP_MAGIC) {
            Ok(Parsed::Frame { view, .. }) if view.code == resp::PONG => return Ok(()),
            Ok(Parsed::Frame { view, .. }) => return Err(format!("ping answered {}", view.code)),
            Ok(Parsed::Incomplete) => {
                let n = stream.read(&mut chunk).map_err(|err| format!("ping recv: {err}"))?;
                if n == 0 {
                    return Err("ping: server closed the connection".to_string());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(err) => return Err(format!("ping response: {err}")),
        }
    }
}

/// One set-up: server start (WAL open included) and both connections
/// established and answering.
fn setup_once(config: &ServerConfig) -> Result<f64, String> {
    let begun = Instant::now();
    let server = start(config)?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut stream =
            TcpStream::connect(server.addr()).map_err(|err| format!("connect: {err}"))?;
        stream.set_nodelay(true).map_err(|err| format!("nodelay: {err}"))?;
        ping(&mut stream)?;
        conns.push(stream);
    }
    let elapsed = begun.elapsed().as_secs_f64();
    drop(conns);
    let mut violations = Vec::new();
    stop(server, &mut violations);
    match violations.pop() {
        Some(violation) => Err(violation),
        None => Ok(elapsed),
    }
}

/// Committed values of the loadgen's counters `c0…`, over the text wire.
fn counters(addr: &str, structures: usize) -> Result<Vec<i64>, String> {
    let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    let mut reader = BufReader::new(stream);
    (0..structures)
        .map(|i| {
            reader
                .get_mut()
                .write_all(format!("GET c{i}\n").as_bytes())
                .map_err(|err| format!("counter send: {err}"))?;
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|err| format!("counter recv: {err}"))?;
            line.trim_end()
                .strip_prefix("VALUE ")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad counter response {line:?}"))
        })
        .collect()
}

/// Bytes of WAL segment files in `dir`.
fn segment_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|entry| {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("wal-") && name.ends_with(".seg")
                })
                .filter_map(|entry| entry.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Fold one loadgen report's failures into the run's tallies.
fn check(report: &LoadReport, attempted: &mut u64, failed: &mut u64, violations: &mut Vec<String>) {
    *attempted += report.requests;
    *failed += report.protocol_errors + report.busy + report.lost_updates;
    if report.protocol_errors > 0 {
        violations.push(format!("{} protocol errors", report.protocol_errors));
    }
    if report.busy > 0 {
        violations.push(format!("{} BUSY refusals", report.busy));
    }
    if report.lost_updates > 0 || report.expected_incs != report.observed_incs {
        violations.push(format!(
            "lost updates: {} INC acknowledged, {} observed",
            report.expected_incs, report.observed_incs
        ));
    }
}

fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    proust_loadgen::run(config).map_err(|err| format!("loadgen: {err}"))
}

/// The untraced measurement: `seconds` of closed-loop load in equal
/// windows, each preceded by timed set-ups of a separate server, then the
/// correctness checks (and, with a WAL, a restart that must recover every
/// acknowledged counter value).
pub fn measure(kind: KvKind, seed: u64, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data = scratch.join("data");
    let mut setups = Vec::new();
    let dir: PathBuf = data.join("live");
    let config = server_config(kind, &dir, None);
    let server = start(&config)?;
    let addr = server.addr().to_string();
    let windows = window_count(seconds);
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut committed, mut latency_samples) = (0u64, 0u64);
    for w in 0..windows {
        for _ in 0..SETUPS_PER_WINDOW {
            let dir = data.join(format!("setup-{}", setups.len()));
            setups.push(setup_once(&server_config(kind, &dir, None))?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let report = run_load(&load_config(kind, &addr, derive(seed, w as u64), window, 0))?;
        check(&report, &mut out.attempted, &mut out.failed, &mut out.violations);
        tput.push(report.throughput_rps);
        p50.push(hist_quantile(&report.latency, 0.50) / 1e3);
        p99.push(hist_quantile(&report.latency, 0.99) / 1e3);
        committed += report.committed;
        latency_samples += report.latency.count();
    }
    let rss = rss_mb();
    let wal_bytes = segment_bytes(&dir);
    let structures = mix(kind).structures;
    let acked = counters(&addr, structures)?;
    stop(server, &mut out.violations);
    if kind == KvKind::Wal {
        let restarted = start(&config)?;
        let recovered = counters(&restarted.addr().to_string(), structures)?;
        if recovered != acked {
            out.violations.push(format!(
                "restart lost acknowledged writes: counters {acked:?} before, {recovered:?} after"
            ));
        }
        stop(restarted, &mut out.violations);
    }
    let _ = std::fs::remove_dir_all(&data);

    let m = &mut out.metrics;
    m.set("throughput_ops_s", median(&tput), committed, "measured");
    m.set("latency_p50_us", median(&p50), latency_samples, "measured");
    m.set("latency_p99_us", median(&p99), latency_samples, "measured");
    m.set("setup_s", median(&setups), setups.len() as u64, "measured");
    m.set("rss_mb", rss, 1, "measured");
    m.set("wal_bytes_per_op", wal_bytes as f64 / committed.max(1) as f64, committed, "measured");
    Ok(out)
}

fn stats(server: &ServerHandle) -> Result<JsonValue, String> {
    JsonValue::parse(&server.stats_json()).map_err(|err| format!("STATS: {err}"))
}

fn field(stats: &JsonValue, name: &str) -> f64 {
    stats.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// STATS counters whose movement over the traced slices the ledger uses.
const STATS_DELTAS: [&str; 6] =
    ["reactor_wakeups", "batch_fallbacks", "starts", "commits", "wal_fsyncs", "wal_append_bytes"];
/// Untraced/traced slice pairs in a traced pass. Alternating short slices
/// keeps drift in the machine's load out of the tracing overhead.
const TRACE_SLICES: u64 = 4;

/// A traced served pass: untraced reference slices alternating with
/// slices that carry the binary `TRACE` echo on every
/// [`WATERFALL_SAMPLE`]th request, with STATS deltas taken around each
/// traced slice.
pub fn trace(
    kind: KvKind,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    fsync_delay: Option<Duration>,
    out: &mut Outcome,
) -> Result<Traced, String> {
    let dir = scratch.join(format!("trace-{}", if kind == KvKind::Wal { "wal" } else { "mem" }));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start(&server_config(kind, &dir, fsync_delay))?;
    let addr = server.addr().to_string();
    let slice = Duration::from_secs_f64(seconds / (2 * TRACE_SLICES) as f64);
    let (mut reference_units, mut reference_s) = (0u64, 0.0f64);
    let (mut traced_units, mut traced_s) = (0u64, 0.0f64);
    let (mut requests, mut echoes) = (0u64, 0u64);
    let latency = Histogram::new();
    let stage_ns: [Histogram; 8] = std::array::from_fn(|_| Histogram::new());
    let mut deltas = [0.0f64; STATS_DELTAS.len()];
    for index in 0..TRACE_SLICES {
        let seed = derive(seed, index);
        let reference = run_load(&load_config(kind, &addr, seed, slice, 0))?;
        check(&reference, &mut out.attempted, &mut out.failed, &mut out.violations);
        reference_units += reference.committed;
        reference_s += reference.elapsed_s;
        let before = stats(&server)?;
        let traced = run_load(&load_config(kind, &addr, seed, slice, WATERFALL_SAMPLE))?;
        let after = stats(&server)?;
        check(&traced, &mut out.attempted, &mut out.failed, &mut out.violations);
        traced_units += traced.committed;
        traced_s += traced.elapsed_s;
        requests += traced.requests;
        echoes += traced.waterfalls;
        latency.merge(&traced.latency);
        for (sum, hist) in stage_ns.iter().zip(&traced.stage_ns) {
            sum.merge(hist);
        }
        for (delta, name) in deltas.iter_mut().zip(STATS_DELTAS) {
            *delta += field(&after, name) - field(&before, name);
        }
    }
    let occupancy = field(&stats(&server)?, "batch_occupancy_p50");
    stop(server, &mut out.violations);
    let _ = std::fs::remove_dir_all(&dir);
    if echoes == 0 {
        return Err("traced pass returned no waterfall echoes".to_string());
    }

    let delta = |name: &str| deltas[STATS_DELTAS.iter().position(|n| *n == name).expect("tracked")];
    let units = requests.max(1) as f64;
    let stage = |index: usize, q: f64| hist_quantile(&stage_ns[index], q) / 1e3;
    let client_mean = latency.mean() / 1e3;
    let server_mean: f64 = stage_ns.iter().map(|hist| hist.mean() / 1e3).sum();

    let mut m = Metrics::default();
    let src = "echo";
    m.set("ledger.client_mean_us", client_mean, latency.count(), "client");
    m.set("ledger.server_mean_us", server_mean, echoes, src);
    m.set("ledger.unattributed_mean_us", client_mean - server_mean, echoes, src);
    m.set("reactor.sock_read_p50_us", stage(0, 0.50), echoes, src);
    m.set("reactor.sock_read_p99_us", stage(0, 0.99), echoes, src);
    m.set("reactor.wakeups_per_req", delta("reactor_wakeups") / units, requests, "stats");
    m.set("codec.parse_p50_us", stage(1, 0.50), echoes, src);
    m.set("engine.batch_wait_p50_us", stage(2, 0.50), echoes, src);
    m.set("engine.batch_wait_p99_us", stage(2, 0.99), echoes, src);
    m.set("engine.batch_occupancy_p50", occupancy, requests, "stats");
    m.set(
        "engine.batch_fallbacks_per_kreq",
        delta("batch_fallbacks") * 1e3 / units,
        requests,
        "stats",
    );
    m.set("stm.exec_p50_us", stage(3, 0.50), echoes, src);
    m.set("stm.exec_p99_us", stage(3, 0.99), echoes, src);
    let commits = delta("commits");
    m.set("stm.attempts_per_commit", delta("starts") / commits.max(1.0), commits as u64, "stats");
    m.set("wal.append_p50_us", stage(4, 0.50), echoes, src);
    m.set("wal.fsync_wait_p50_us", stage(5, 0.50), echoes, src);
    m.set("wal.fsync_wait_p99_us", stage(5, 0.99), echoes, src);
    m.set("wal.fsyncs_per_kop", delta("wal_fsyncs") * 1e3 / units, requests, "stats");
    m.set(
        "wal.bytes_per_op",
        delta("wal_append_bytes") / traced_units.max(1) as f64,
        traced_units,
        "stats",
    );
    Ok(Traced {
        metrics: m,
        reference_tput: reference_units as f64 / reference_s.max(1e-9),
        traced_tput: traced_units as f64 / traced_s.max(1e-9),
    })
}
