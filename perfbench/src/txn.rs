//! The in-process `txn-map` workload: the paper's Figure 4 transaction
//! mix (1024 uniform keys, o=4, u=0.5, 2 threads) run back to back over
//! the four pinned Proust map quadrants, a fixed number of transactions
//! per quadrant per round, rounds repeated until the run time is spent.
//! The threads of a phase claim transactions from one shared list, so a
//! thread the machine preempts never leaves the other idle at the phase's
//! end.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proust_bench::maps::MapKind;
use proust_bench::workload::{ActionStream, MapAction};
use proust_core::TxMap;
use proust_stm::obs::{Histogram, JsonValue};
use proust_stm::{Stm, TxResult, Txn};

use crate::gen::{derive, txn_spec, TXN_OPS, TXN_THREADS};
use crate::measure::{hist_quantile, median, rss_mb, window_count, Metrics};
use crate::{Outcome, Traced};

/// The four Proust quadrants, in run order, with their metric labels.
pub const QUADRANTS: [(MapKind, &str); 4] = [
    (MapKind::ProustEagerOpt, "eager_opt"),
    (MapKind::ProustLazySnap, "lazy_snap"),
    (MapKind::ProustPessimistic, "pessimistic"),
    (MapKind::ProustLazyMemo, "lazy_memo"),
];
/// Transactions per quadrant per round, shared by the threads.
const TXNS_PER_PHASE: usize = 512;
const SETUP_REPS: usize = 3;
/// One transaction in this many keeps its spans for the trace file.
const SPAN_EVERY: u64 = 64;
const KEYS: u64 = 1024;

struct Quadrant {
    label: &'static str,
    stm: Stm,
    map: Arc<dyn TxMap<u64, u64>>,
}

fn apply(map: &dyn TxMap<u64, u64>, tx: &mut Txn, action: MapAction) -> TxResult<()> {
    match action {
        MapAction::Put(key, value) => map.put(tx, key, value).map(drop),
        MapAction::Remove(key) => map.remove(tx, &key).map(drop),
        MapAction::Get(key) => map.get(tx, &key).map(drop),
    }
}

/// Build the four maps, fill every other key, and run one warm-up phase
/// of the mix on each.
fn build(seed: u64) -> Result<Vec<Quadrant>, String> {
    let mut quads = Vec::with_capacity(QUADRANTS.len());
    for (kind, label) in QUADRANTS {
        let (stm, map) = kind.build();
        for chunk in (0..KEYS).step_by(2).collect::<Vec<_>>().chunks(16) {
            stm.atomically(|tx| chunk.iter().try_for_each(|&key| map.put(tx, key, key).map(drop)))
                .map_err(|err| format!("{label}: prefill gave up: {err:?}"))?;
        }
        let quad = Quadrant { label, stm, map };
        let mut stream = ActionStream::new(&txn_spec(derive(seed, 99)), 0);
        let warm = Histogram::new();
        let tally = phase(&quad, &mut stream, &warm, None);
        if tally.gave_up > 0 {
            return Err(format!("{label}: warm-up gave up {} transactions", tally.gave_up));
        }
        quads.push(quad);
    }
    Ok(quads)
}

/// One span of the traced pass: a transaction (`op` = "txn") or one map
/// operation inside an attempt of it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub attempt: u32,
    pub quadrant: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    pub fn to_json(self) -> String {
        JsonValue::obj([
            ("req", JsonValue::u64(self.req)),
            ("attempt", JsonValue::u64(u64::from(self.attempt))),
            ("quadrant", JsonValue::str(self.quadrant)),
            ("op", JsonValue::str(self.op)),
            ("start_ns", JsonValue::u64(self.start_ns)),
            ("dur_ns", JsonValue::u64(self.dur_ns)),
        ])
        .to_json()
    }
}

/// Span sinks of a traced pass, shared by the worker threads.
struct Tracer {
    origin: Instant,
    next_req: AtomicU64,
    mapop_ns: Histogram,
    self_ns: Histogram,
    kept: Mutex<Vec<Span>>,
}

struct Tally {
    txns: u64,
    gave_up: u64,
    wall: Duration,
}

/// Run the next [`TXNS_PER_PHASE`] transactions of `stream` on one
/// quadrant with [`TXN_THREADS`] threads, timing each `atomically` call
/// (retries included) into `latency`.
fn phase(
    quad: &Quadrant,
    stream: &mut ActionStream,
    latency: &Histogram,
    tracer: Option<&Tracer>,
) -> Tally {
    let txns: Vec<[MapAction; TXN_OPS]> =
        (0..TXNS_PER_PHASE).map(|_| std::array::from_fn(|_| stream.next_action())).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let gave_up: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..TXN_THREADS)
            .map(|_| scope.spawn(|| worker(quad, &txns, &next, latency, tracer)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("txn-map worker panicked")).sum()
    });
    Tally { txns: txns.len() as u64, gave_up, wall: start.elapsed() }
}

fn worker(
    quad: &Quadrant,
    txns: &[[MapAction; TXN_OPS]],
    next: &AtomicUsize,
    latency: &Histogram,
    tracer: Option<&Tracer>,
) -> u64 {
    let mut gave_up = 0;
    let mut children: Vec<Span> = Vec::with_capacity(TXN_OPS * 2);
    let mut kept: Vec<Span> = Vec::new();
    while let Some(actions) = txns.get(next.fetch_add(1, Ordering::Relaxed)) {
        let start = Instant::now();
        let result = match tracer {
            None => quad.stm.atomically(|tx| {
                actions.iter().try_for_each(|&action| apply(&*quad.map, tx, action))
            }),
            Some(tracer) => {
                children.clear();
                quad.stm.atomically(|tx| {
                    for &action in actions {
                        let begun = Instant::now();
                        let done = apply(&*quad.map, tx, action);
                        children.push(Span {
                            req: 0,
                            attempt: tx.attempt(),
                            quadrant: quad.label,
                            op: match action {
                                MapAction::Put(..) => "put",
                                MapAction::Remove(..) => "remove",
                                MapAction::Get(..) => "get",
                            },
                            start_ns: (begun - tracer.origin).as_nanos() as u64,
                            dur_ns: begun.elapsed().as_nanos() as u64,
                        });
                        done?;
                    }
                    Ok(())
                })
            }
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        latency.record(elapsed);
        if result.is_err() {
            gave_up += 1;
        }
        if let Some(tracer) = tracer {
            let req = tracer.next_req.fetch_add(1, Ordering::Relaxed);
            let child_ns: u64 = children.iter().map(|span| span.dur_ns).sum();
            for span in &children {
                tracer.mapop_ns.record(span.dur_ns);
            }
            tracer.self_ns.record(elapsed.saturating_sub(child_ns));
            if req % SPAN_EVERY == 0 {
                kept.push(Span {
                    req,
                    attempt: proust_stm::last_attempts(),
                    quadrant: quad.label,
                    op: "txn",
                    start_ns: (start - tracer.origin).as_nanos() as u64,
                    dur_ns: elapsed,
                });
                kept.extend(children.iter().map(|span| Span { req, ..*span }));
            }
        }
    }
    if let Some(tracer) = tracer {
        tracer.kept.lock().expect("span sink poisoned").extend(kept);
    }
    gave_up
}

/// Per-quadrant totals of one pass.
struct QuadTotals {
    label: &'static str,
    txns: u64,
    gave_up: u64,
    wall: Duration,
    starts: u64,
    commits: u64,
    exhausted: u64,
    lock_wait_ns: u64,
}

impl QuadTotals {
    fn ops(&self) -> u64 {
        (self.txns - self.gave_up) * TXN_OPS as u64
    }
}

/// Committed map ops/s of a round that gives every quadrant the same
/// number of transactions, whatever time split produced the totals.
fn round_tput(quads: &[QuadTotals]) -> f64 {
    let secs_per_op: f64 = quads.iter().map(|q| q.wall.as_secs_f64() / q.ops().max(1) as f64).sum();
    quads.len() as f64 / secs_per_op.max(1e-12)
}

/// Correctness: every issued transaction committed exactly once.
fn check(quads: &[QuadTotals], out: &mut Outcome) {
    for quad in quads {
        let label = quad.label;
        out.attempted += quad.txns;
        out.failed += quad.txns.abs_diff(quad.commits).max(quad.gave_up);
        if quad.gave_up > 0 || quad.exhausted > 0 {
            out.violations.push(format!("{label}: {} transactions gave up", quad.gave_up));
        }
        if quad.commits != quad.txns {
            out.violations.push(format!(
                "{label}: STM committed {} transactions, {} issued",
                quad.commits, quad.txns
            ));
        }
    }
}

struct Pass {
    quads: Vec<QuadTotals>,
    /// Per window: committed map ops/s, p50 and p99 µs.
    windows: Vec<(f64, f64, f64)>,
    latency_samples: u64,
}

/// Rounds over the four quadrants until `seconds` are spent, split into
/// `windows` equal windows.
fn pass(
    quads: &[Quadrant],
    seed: u64,
    seconds: f64,
    windows: usize,
    tracer: Option<&Tracer>,
) -> Pass {
    // Every quadrant sees the same transaction stream.
    let mut streams: Vec<ActionStream> =
        quads.iter().map(|_| ActionStream::new(&txn_spec(seed), 0)).collect();
    let mut totals: Vec<QuadTotals> = quads
        .iter()
        .map(|q| QuadTotals {
            label: q.label,
            txns: 0,
            gave_up: 0,
            wall: Duration::ZERO,
            starts: 0,
            commits: 0,
            exhausted: 0,
            lock_wait_ns: 0,
        })
        .collect();
    let before: Vec<_> = quads.iter().map(|q| q.stm.stats()).collect();
    let mut window_stats = Vec::with_capacity(windows);
    let mut latency_samples = 0;
    let window = Duration::from_secs_f64(seconds / windows as f64);
    for _ in 0..windows {
        let latency = Histogram::new();
        let (mut ops, mut wall) = (0u64, Duration::ZERO);
        let started = Instant::now();
        while started.elapsed() < window {
            for ((quad, stream), total) in quads.iter().zip(&mut streams).zip(&mut totals) {
                let tally = phase(quad, stream, &latency, tracer);
                ops += (tally.txns - tally.gave_up) * TXN_OPS as u64;
                wall += tally.wall;
                total.txns += tally.txns;
                total.gave_up += tally.gave_up;
                total.wall += tally.wall;
            }
        }
        latency_samples += latency.count();
        window_stats.push((
            ops as f64 / wall.as_secs_f64().max(1e-9),
            hist_quantile(&latency, 0.50) / 1e3,
            hist_quantile(&latency, 0.99) / 1e3,
        ));
    }
    for ((quad, total), before) in quads.iter().zip(&mut totals).zip(before) {
        let delta = quad.stm.stats().delta(&before);
        total.starts = delta.starts;
        total.commits = delta.commits;
        total.exhausted = delta.exhausted;
        total.lock_wait_ns = delta.lock_wait_ns;
    }
    Pass { quads: totals, windows: window_stats, latency_samples }
}

/// The untraced measurement.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut quads = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        quads = build(seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let result = pass(&quads, seed, seconds, window_count(seconds), None);
    let rss = rss_mb();
    check(&result.quads, &mut out);
    let column = |pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
        result.windows.iter().map(pick).collect()
    };
    let ops: u64 = result.quads.iter().map(QuadTotals::ops).sum();
    let m = &mut out.metrics;
    m.set("throughput_ops_s", median(&column(|w| w.0)), ops, "measured");
    m.set("latency_p50_us", median(&column(|w| w.1)), result.latency_samples, "measured");
    m.set("latency_p99_us", median(&column(|w| w.2)), result.latency_samples, "measured");
    m.set("setup_s", median(&setups), SETUP_REPS as u64, "measured");
    m.set("rss_mb", rss, 1, "measured");
    m.set("wal_bytes_per_op", 0.0, ops, "measured");
    Ok(out)
}

/// The traced pass: an untraced reference half (quadrant throughput,
/// commit ratio, lock wait) and a half with one span per transaction and
/// one child span per map operation. Returns the spans kept for the
/// trace file.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(Traced, Vec<Span>), String> {
    let quads = build(seed)?;
    let reference = pass(&quads, seed, seconds / 2.0, 1, None);
    check(&reference.quads, out);
    let tracer = Tracer {
        origin: Instant::now(),
        next_req: AtomicU64::new(0),
        mapop_ns: Histogram::new(),
        self_ns: Histogram::new(),
        kept: Mutex::new(Vec::new()),
    };
    // One quadrant at a time, so each quadrant's map-op spans land in its
    // own histogram.
    let mut mapop: Vec<Histogram> = Vec::new();
    let mut traced = Vec::new();
    for quad in &quads {
        tracer.mapop_ns.clear();
        let per_quad = seconds / 2.0 / quads.len() as f64;
        let one = pass(std::slice::from_ref(quad), seed, per_quad, 1, Some(&tracer));
        check(&one.quads, out);
        mapop.push(tracer.mapop_ns.clone());
        traced.extend(one.quads);
    }

    let mut m = Metrics::default();
    let (mut starts, mut commits) = (0u64, 0u64);
    for (quad, hist) in reference.quads.iter().zip(&mapop) {
        let (label, ops) = (quad.label, quad.ops());
        m.set(&format!("core.{label}.ops_s"), ops as f64 / quad.wall.as_secs_f64(), ops, "pass");
        let ratio = quad.commits as f64 / quad.starts.max(1) as f64;
        m.set(&format!("core.{label}.commit_ratio"), ratio, quad.starts, "pass");
        m.set(
            &format!("core.{label}.mapop_p50_ns"),
            hist_quantile(hist, 0.5),
            hist.count(),
            "spans",
        );
        starts += quad.starts;
        commits += quad.commits;
    }
    let pessimistic = &reference.quads[2];
    m.set(
        "core.pessimistic.lock_wait_ms",
        pessimistic.lock_wait_ns as f64 / 1e6 / (pessimistic.txns as f64 / 1e3),
        pessimistic.txns,
        "pass",
    );
    m.set("stm.attempts_per_commit", starts as f64 / commits.max(1) as f64, commits, "pass");
    m.set(
        "stm.txn_self_p50_us",
        hist_quantile(&tracer.self_ns, 0.5) / 1e3,
        tracer.self_ns.count(),
        "spans",
    );
    let spans = tracer.kept.into_inner().expect("span sink poisoned");
    let reference_tput = round_tput(&reference.quads);
    Ok((Traced { metrics: m, reference_tput, traced_tput: round_tput(&traced) }, spans))
}
