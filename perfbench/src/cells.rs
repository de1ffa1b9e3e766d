//! Layer cells: each times calls into one layer's public functions from
//! the benchmark's own code, on the workload's generated inputs, with no
//! other layer in the way.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use proust_codec::{op, parse_frame, put_batch_request, put_request, Parsed, REQ_MAGIC};
use proust_reactor::{Conn, ConnHandler, Directive, ReactorMetrics, Shard};
use proust_server::proto::Cmd;
use proust_server::{Engine, ServerConfig, Unit};
use proust_stm::{ConflictDetection, Stm, StmConfig, TVar};
use proust_wal::Wal;

use crate::measure::{median, sorted_quantile, Metrics};

/// Repetitions behind each per-operation cost; the median is reported.
const REPS: usize = 5;

/// Run every layer cell on `units` and record the results in `out`.
pub fn run_all(units: &[Vec<Cmd>], scratch: &Path, out: &mut Metrics) -> Result<(), String> {
    echo_rtt(out)?;
    codec(units, out);
    engine(units, out)?;
    stm_commit(out);
    wal(units, &scratch.join("wal-cell"), out)?;
    Ok(())
}

/// A reactor handler that writes every byte it reads straight back.
struct Echo;

impl ConnHandler for Echo {
    fn on_data(&mut self, conn: &mut Conn) -> Directive {
        let bytes = std::mem::take(&mut conn.inbuf);
        conn.queue(&bytes);
        Directive::Continue
    }
}

/// Loopback round trip through one `proust_reactor::Shard`, 1 connection.
fn echo_rtt(out: &mut Metrics) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("echo addr: {e}"))?;
    let (shard, inbox) = Shard::new(0).map_err(|e| format!("echo shard: {e}"))?;
    let metrics = ReactorMetrics::new(1);
    let stop = AtomicBool::new(false);
    let samples = std::thread::scope(|scope| {
        let loop_thread = scope.spawn(|| shard.run(|| Echo, &metrics, &stop));
        let result = (|| -> Result<Vec<f64>, String> {
            let mut client = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
            client.set_nodelay(true).map_err(|e| format!("echo nodelay: {e}"))?;
            let (served, _) = listener.accept().map_err(|e| format!("echo accept: {e}"))?;
            inbox.push(served);
            let message = [0x5au8; 16];
            let mut reply = [0u8; 16];
            let mut samples = Vec::new();
            let start = Instant::now();
            while samples.len() < 40_000 && start.elapsed() < Duration::from_millis(800) {
                let sent = Instant::now();
                client.write_all(&message).map_err(|e| format!("echo write: {e}"))?;
                client.read_exact(&mut reply).map_err(|e| format!("echo read: {e}"))?;
                samples.push(sent.elapsed().as_nanos() as f64 / 1e3);
            }
            Ok(samples)
        })();
        stop.store(true, Ordering::Release);
        inbox.notify();
        let joined = loop_thread.join();
        match joined {
            Ok(()) => result,
            Err(_) => Err("echo shard panicked".to_string()),
        }
    })?;
    let mut sorted = samples;
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    out.set("reactor.echo_rtt_p50_us", sorted_quantile(&sorted, 0.5), n, "cell");
    out.set("reactor.echo_rtt_p99_us", sorted_quantile(&sorted, 0.99), n, "cell");
    Ok(())
}

fn cmd_frame(out: &mut Vec<u8>, cmd: &Cmd) {
    match cmd {
        Cmd::MapGet { name, key } => put_request(out, op::MAP_GET, name, &[*key]),
        Cmd::MapPut { name, key, value } => put_request(out, op::MAP_PUT, name, &[*key, *value]),
        Cmd::MapDel { name, key } => put_request(out, op::MAP_DEL, name, &[*key]),
        Cmd::CounterGet { name } => put_request(out, op::CTR_GET, name, &[]),
        Cmd::CounterInc { name, delta } => put_request(out, op::CTR_INC, name, &[*delta]),
        Cmd::QueueEnq { name, value } => put_request(out, op::Q_ENQ, name, &[*value]),
        Cmd::QueueDeq { name } => put_request(out, op::Q_DEQ, name, &[]),
        Cmd::OrdPut { name, key, value } => put_request(out, op::ORD_PUT, name, &[*key, *value]),
        Cmd::OrdGet { name, key } => put_request(out, op::ORD_GET, name, &[*key]),
        Cmd::OrdDel { name, key } => put_request(out, op::ORD_DEL, name, &[*key]),
        Cmd::OrdScan { name, lo, hi } => put_request(out, op::ORD_SCAN, name, &[*lo, *hi]),
    }
}

/// Encode one request unit as the loadgen puts it on the wire: a plain
/// frame, or a `BATCH` frame around a `MULTI`'s members.
fn encode_unit(out: &mut Vec<u8>, unit: &[Cmd]) {
    match unit {
        [cmd] => cmd_frame(out, cmd),
        members => {
            let mut body = Vec::new();
            for cmd in members {
                cmd_frame(&mut body, cmd);
            }
            put_batch_request(out, members.len() as u32, &body);
        }
    }
}

/// Decode every frame of `buf`, descending into batches.
fn decode_all(buf: &[u8]) -> usize {
    let mut at = 0;
    let mut frames = 0;
    while let Ok(Parsed::Frame { view, consumed }) = parse_frame(&buf[at..], REQ_MAGIC) {
        if view.code == op::BATCH {
            frames += view.batch(REQ_MAGIC).map_or(0, |inner| inner.len());
        }
        black_box(view.arg(0));
        frames += 1;
        at += consumed;
    }
    frames
}

/// `put_request`/`put_batch_request` and `parse_frame` per top-level frame.
fn codec(units: &[Vec<Cmd>], out: &mut Metrics) {
    let mut buf = Vec::with_capacity(units.len() * 64);
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < 8 || start.elapsed() < Duration::from_millis(40) {
            buf.clear();
            for unit in units {
                encode_unit(&mut buf, unit);
            }
            black_box(&buf);
            rounds += 1;
        }
        encode.push(start.elapsed().as_nanos() as f64 / (rounds * units.len()) as f64);
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < 8 || start.elapsed() < Duration::from_millis(40) {
            black_box(decode_all(black_box(&buf)));
            rounds += 1;
        }
        decode.push(start.elapsed().as_nanos() as f64 / (rounds * units.len()) as f64);
    }
    let frames = (units.len() * REPS) as u64;
    out.set("codec.encode_ns", median(&encode), frames, "cell");
    out.set("codec.decode_ns", median(&decode), frames, "cell");
}

/// `Engine::resolve` + `Engine::execute_stages` per unit, in-process, on
/// an in-memory engine with the server's default quadrant.
fn engine(units: &[Vec<Cmd>], out: &mut Metrics) -> Result<(), String> {
    let engine = Engine::new(&ServerConfig::default());
    let mut per_unit = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        for unit in units {
            let ops = unit.iter().map(|cmd| engine.resolve(cmd)).collect::<Result<Vec<_>, _>>()?;
            let (responses, _) = engine.execute_stages(&[Unit { ops }]);
            black_box(responses);
        }
        per_unit.push(start.elapsed().as_nanos() as f64 / 1e3 / units.len() as f64);
    }
    out.set("engine.execute_us_per_unit", median(&per_unit), (units.len() * REPS) as u64, "cell");
    Ok(())
}

/// Single-thread `Stm::atomically` read-modify-writing 1 or 8 TVars, on
/// each detection backend.
fn stm_commit(out: &mut Metrics) {
    const COMMITS: usize = 20_000;
    for (detection, label) in [
        (ConflictDetection::Mixed, "mixed"),
        (ConflictDetection::EagerAll, "eager_all"),
        (ConflictDetection::LazyAll, "lazy_all"),
    ] {
        let stm = Stm::new(StmConfig::with_detection(detection));
        for width in [1usize, 8] {
            let tvars: Vec<TVar<u64>> = (0..width as u64).map(TVar::new).collect();
            let mut costs = Vec::new();
            for _ in 0..REPS {
                let start = Instant::now();
                for _ in 0..COMMITS {
                    let done = stm.atomically(|tx| {
                        for tvar in &tvars {
                            let value = tvar.read(tx)?;
                            tvar.write(tx, value.wrapping_add(1))?;
                        }
                        Ok(())
                    });
                    black_box(done.is_ok());
                }
                costs.push(start.elapsed().as_nanos() as f64 / COMMITS as f64);
            }
            let name = format!("stm.commit_ns.{label}.{width}tvar");
            out.set(&name, median(&costs), (COMMITS * REPS) as u64, "cell");
        }
    }
}

/// `Wal::append` and `Wal::sync` on a real directory, with records the
/// size of the workload's mean request frame. The fsync figure is the
/// sandbox's disk as the kernel presents it, not a device measurement.
fn wal(units: &[Vec<Cmd>], dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let mut frames = Vec::new();
    for unit in units {
        encode_unit(&mut frames, unit);
    }
    let record = vec![0xa5u8; (frames.len() / units.len().max(1)).max(1)];
    let _ = std::fs::remove_dir_all(dir);
    let io = |e: std::io::Error| format!("wal cell {}: {e}", dir.display());
    let (wal, _) = Wal::open(dir, Wal::DEFAULT_SEGMENT_BYTES).map_err(io)?;
    let mut append = Vec::new();
    let mut ts = 0u64;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..4_000 {
            ts += 1;
            wal.append(ts, &record).map_err(io)?;
        }
        append.push(start.elapsed().as_nanos() as f64 / 4_000.0);
        wal.sync().map_err(io)?;
    }
    let mut fsync = Vec::new();
    let start = Instant::now();
    while fsync.len() < 400 && start.elapsed() < Duration::from_millis(800) {
        ts += 1;
        wal.append(ts, &record).map_err(io)?;
        let synced = Instant::now();
        wal.sync().map_err(io)?;
        fsync.push(synced.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    std::fs::remove_dir_all(dir).map_err(io)?;
    fsync.sort_by(f64::total_cmp);
    out.set("wal.append_ns", median(&append), (4_000 * REPS) as u64, "cell");
    out.set("wal.fsync_p50_us", sorted_quantile(&fsync, 0.5), fsync.len() as u64, "cell");
    Ok(())
}
