//! The transactional execution engine behind the wire protocol.
//!
//! One [`Engine`] owns one STM runtime plus four lazily-populated
//! registries (maps, counters, FIFO queues, ordered maps — separate
//! namespaces). Every
//! request executes inside a Proust transaction; pipelined requests are
//! *commit-batched*: a reactor burst of parsed requests runs as a single
//! transaction attempt, and if that batch aborts past a small patience
//! bound, the engine falls back to one transaction per request so a
//! single conflicting op cannot poison its neighbours.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use proust_baselines::{BoostedMap, CoarseMap, PredMap, StmHashMap};
use proust_bench::args::{LapChoice, UpdateChoice};
use proust_bench::report::{abort_causes_json, histogram_json};
use proust_core::op_site;
use proust_core::structures::{
    EagerMap, FifoState, OrderedMap, ProustCounter, ProustFifo, SnapTrieMap,
};
use proust_core::{DurableOp, OptimisticLap, PessimisticLap, TxMap, ORDERED_STRIPES};
use proust_reactor::ReactorMetrics;
use proust_stm::obs::{
    Histogram, JsonValue, Phase, PromWriter, Tracer, SHARED_NS_BUCKET_BOUNDS, STAGES,
};
use proust_stm::{CommitHook, ConflictDetection, SiteId, Stm, StmConfig, TxError, TxResult, Txn};
use proust_wal::{FsyncPolicy, Wal};

use crate::proto::{Cmd, TraceCmd};
use crate::ServerConfig;

/// Size of the lock-allocator region backing each server map.
const LAP_SIZE: usize = 1024;

/// Optimistic retry budget per transaction before the STM escalates it
/// to the serial-irrevocable mode.
const MAX_RETRIES: u32 = 128;

/// Batched attempts tolerated before falling back to per-request
/// transactions.
const BATCH_PATIENCE: u32 = 4;

/// Cap on structures per namespace, so a misbehaving client cannot grow
/// the registries without bound.
const MAX_STRUCTURES: usize = 1024;

/// User-abort reason that signals "stop retrying the batch, fall back to
/// per-request transactions".
const BATCH_FALLBACK: &str = "batch-fallback";

/// How many conflict-matrix cells `STATS` reports (the `/metrics`
/// endpoint always exports the full matrix).
const CONFLICT_TOP_K: usize = 8;

/// Worst-latency request waterfalls retained per shard between `STATS`
/// scrapes (the tail-exemplar ring).
const WATERFALL_EXEMPLARS: usize = 4;

/// Bucket boundaries for the batch-occupancy histogram: pending request
/// counts per commit-batch flush, not nanoseconds.
const OCCUPANCY_BUCKET_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Map a request-lifecycle stage to its index in [`STAGES`] order, or
/// `None` for STM transaction phases and the `Request` envelope.
fn stage_index(phase: Phase) -> Option<usize> {
    let index = (phase as u8).wrapping_sub(Phase::SockRead as u8) as usize;
    (index < STAGES.len()).then_some(index)
}

/// One request burst's end-to-end stage anatomy: how the wall-clock time
/// between the reactor reading the request bytes and the response being
/// encoded split across the pipeline stages. `wall_ns` is measured with
/// its own clock pair, independent of the per-stage timings, so the two
/// cross-check each other (the stage sum must land within the bookkeeping
/// gaps of the wall reading). `sock_flush` is always zero here — the
/// flush happens after the waterfall is sealed and is recorded into the
/// stage histograms by the reactor's flush hook instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waterfall {
    /// Reactor shard that served the burst.
    pub shard: u32,
    /// Parsed ops in the commit batch.
    pub batch_ops: u32,
    /// Commit records made durable by the burst's fsync window.
    pub fsync_cohort: u64,
    /// STM attempts consumed by the burst's last transaction.
    pub attempts: u32,
    /// Per-stage nanoseconds, indexed in [`STAGES`] order.
    pub stage_ns: [u64; 8],
    /// Independently measured wall time (socket read to response
    /// encoded), ns.
    pub wall_ns: u64,
}

impl Waterfall {
    /// Set one stage's duration (ignores non-stage phases).
    pub fn set_stage(&mut self, phase: Phase, ns: u64) {
        if let Some(index) = stage_index(phase) {
            self.stage_ns[index] = ns;
        }
    }

    /// One stage's duration (zero for non-stage phases).
    pub fn stage(&self, phase: Phase) -> u64 {
        stage_index(phase).map_or(0, |index| self.stage_ns[index])
    }

    /// Sum of the stage durations.
    pub fn total_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Name of the stage that contributed the most time.
    pub fn top_stage(&self) -> &'static str {
        let (index, _) = self
            .stage_ns
            .iter()
            .enumerate()
            .max_by_key(|(_, ns)| **ns)
            .expect("eight stages, never empty");
        STAGES[index].name()
    }

    /// The stage spans as one `{name: ns}` object.
    pub fn stages_json(&self) -> JsonValue {
        JsonValue::obj(
            STAGES
                .iter()
                .zip(self.stage_ns.iter())
                .map(|(stage, ns)| (stage.name(), JsonValue::u64(*ns)))
                .collect::<Vec<_>>(),
        )
    }

    /// Full waterfall as one JSON object (STATS exemplars, TRACE echo).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("shard", JsonValue::u64(self.shard as u64)),
            ("batch_ops", JsonValue::u64(self.batch_ops as u64)),
            ("fsync_cohort", JsonValue::u64(self.fsync_cohort)),
            ("stm_attempts", JsonValue::u64(self.attempts as u64)),
            ("total_ns", JsonValue::u64(self.total_ns())),
            ("wall_ns", JsonValue::u64(self.wall_ns)),
            ("top_stage", JsonValue::str(self.top_stage())),
            ("stages", self.stages_json()),
        ])
    }
}

/// The stage timings [`Engine::execute_stages`] measures around one
/// commit burst: STM execution with the WAL costs peeled out of it, so
/// the three numbers partition the burst's execution window.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBreakdown {
    /// STM execution (all attempts), excluding WAL appends and fsyncs.
    pub stm_exec_ns: u64,
    /// WAL append time on the committing thread.
    pub wal_append_ns: u64,
    /// Group-fsync wait (per-commit fsyncs under `always`, the burst
    /// fsync under `batch`).
    pub fsync_wait_ns: u64,
    /// Commit records made durable across the burst's fsync window.
    pub fsync_cohort: u64,
    /// STM attempts consumed by the burst's last transaction.
    pub attempts: u32,
}

thread_local! {
    // Stage accumulators bridging the WAL commit hook (which runs on the
    // committing thread, inside `atomically`) back to `execute_stages`:
    // reset before the burst, read after it.
    static WAL_APPEND_NS: Cell<u64> = const { Cell::new(0) };
    static WAL_HOOK_FSYNC_NS: Cell<u64> = const { Cell::new(0) };
}

/// Span site label for sampled request waterfalls.
fn request_site() -> SiteId {
    static SITE: OnceLock<SiteId> = OnceLock::new();
    *SITE.get_or_init(|| SiteId::intern("server.request"))
}

/// A baseline (non-Proustian) map implementation, selectable with
/// `--baseline` for comparison runs. Counters and queues stay Proustian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Traditional STM hash map (read/write-set conflicts).
    Stm,
    /// Transactional predication.
    Predication,
    /// Classic stand-alone boosting.
    Boosted,
    /// Single global exclusive lock.
    Coarse,
}

impl Baseline {
    /// Parse a `--baseline` value.
    pub fn parse(name: &str) -> Option<Baseline> {
        match name {
            "stm" => Some(Baseline::Stm),
            "predication" => Some(Baseline::Predication),
            "boosted" => Some(Baseline::Boosted),
            "coarse" => Some(Baseline::Coarse),
            _ => None,
        }
    }

    /// Stable name used in flags and STATS.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Stm => "stm",
            Baseline::Predication => "predication",
            Baseline::Boosted => "boosted",
            Baseline::Coarse => "coarse",
        }
    }
}

/// A request resolved against the registries: the structure handles are
/// looked up (or created) *before* the transaction starts, so registry
/// locking never nests inside `atomically`.
#[derive(Clone)]
pub enum Op {
    /// Map lookup.
    MapGet(Arc<dyn TxMap<u64, u64>>, u64),
    /// Map insert/overwrite. Mutating variants carry the structure's
    /// registry name so the commit's WAL record can be replayed by name
    /// after a restart.
    MapPut(Arc<dyn TxMap<u64, u64>>, String, u64, u64),
    /// Map remove.
    MapDel(Arc<dyn TxMap<u64, u64>>, String, u64),
    /// Committed counter value.
    CounterGet(Arc<ProustCounter>),
    /// Counter increment by delta.
    CounterInc(Arc<ProustCounter>, String, u64),
    /// Queue enqueue.
    QueueEnq(Arc<ProustFifo<u64>>, String, u64),
    /// Queue dequeue.
    QueueDeq(Arc<ProustFifo<u64>>, String),
    /// Ordered-map lookup.
    OrdGet(Arc<OrderedMap<u64>>, u64),
    /// Ordered-map insert/overwrite.
    OrdPut(Arc<OrderedMap<u64>>, String, u64, u64),
    /// Ordered-map remove.
    OrdDel(Arc<OrderedMap<u64>>, String, u64),
    /// Ordered-map range scan over `[lo, hi)`.
    OrdScan(Arc<OrderedMap<u64>>, u64, u64),
}

impl Op {
    /// Stable short label, matching [`Cmd::op_name`]; keys the per-op
    /// latency histograms and the slow-transaction log.
    pub fn name(&self) -> &'static str {
        match self {
            Op::MapGet(..) => "get",
            Op::MapPut(..) => "put",
            Op::MapDel(..) => "del",
            Op::CounterGet(..) => "cget",
            Op::CounterInc(..) => "inc",
            Op::QueueEnq(..) => "enq",
            Op::QueueDeq(..) => "deq",
            Op::OrdGet(..) => "oget",
            Op::OrdPut(..) => "oput",
            Op::OrdDel(..) => "odel",
            Op::OrdScan(..) => "scan",
        }
    }

    fn index(&self) -> usize {
        match self {
            Op::MapGet(..) => 0,
            Op::MapPut(..) => 1,
            Op::MapDel(..) => 2,
            Op::CounterGet(..) => 3,
            Op::CounterInc(..) => 4,
            Op::QueueEnq(..) => 5,
            Op::QueueDeq(..) => 6,
            Op::OrdGet(..) => 7,
            Op::OrdPut(..) => 8,
            Op::OrdDel(..) => 9,
            Op::OrdScan(..) => 10,
        }
    }
}

/// Per-op histogram labels, in [`Op::index`] order.
const OP_NAMES: [&str; 11] =
    ["get", "put", "del", "cget", "inc", "enq", "deq", "oget", "oput", "odel", "scan"];

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Op::MapGet(..) => "MapGet",
            Op::MapPut(..) => "MapPut",
            Op::MapDel(..) => "MapDel",
            Op::CounterGet(..) => "CounterGet",
            Op::CounterInc(..) => "CounterInc",
            Op::QueueEnq(..) => "QueueEnq",
            Op::QueueDeq(..) => "QueueDeq",
            Op::OrdGet(..) => "OrdGet",
            Op::OrdPut(..) => "OrdPut",
            Op::OrdDel(..) => "OrdDel",
            Op::OrdScan(..) => "OrdScan",
        };
        f.write_str(name)
    }
}

/// One atomic unit of execution: a single request, or a `MULTI … EXEC`
/// block. Units are all-or-nothing — a unit that cannot commit answers
/// `BUSY` on every line rather than splitting.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// The resolved operations, in request order.
    pub ops: Vec<Op>,
}

/// A typed per-op response. Both wire protocols encode from this — the
/// text encoder renders lines, the binary encoder renders frames — so
/// the two encodings of the same request are equal by construction
/// rather than by re-parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resp {
    /// Mutation applied.
    Ok,
    /// Lookup/removal found nothing.
    Nil,
    /// A scalar result (lookup hit, dequeued value, counter value).
    Value(u64),
    /// Range-scan results in key order.
    Entries(Vec<(u64, u64)>),
    /// The unit exhausted its retry budget; nothing was applied.
    Busy,
}

impl Resp {
    /// Render as a text-protocol response line (without the newline).
    pub fn to_line(&self) -> String {
        match self {
            Resp::Ok => "OK".to_string(),
            Resp::Nil => "NIL".to_string(),
            Resp::Value(value) => format!("VALUE {value}"),
            Resp::Entries(entries) => {
                // One line, `VALUE <count> k=v ...` — the VALUE prefix
                // keeps scans in the loadgen's committed classification.
                let mut line = format!("VALUE {}", entries.len());
                for (key, value) in entries {
                    line.push_str(&format!(" {key}={value}"));
                }
                line
            }
            Resp::Busy => "BUSY".to_string(),
        }
    }
}

/// The transactional engine: one STM runtime + the structure registries +
/// request accounting.
pub struct Engine {
    stm: Stm,
    lap: LapChoice,
    update: UpdateChoice,
    baseline: Option<Baseline>,
    maps: Mutex<HashMap<String, Arc<dyn TxMap<u64, u64>>>>,
    counters: Mutex<HashMap<String, Arc<ProustCounter>>>,
    queues: Mutex<HashMap<String, Arc<ProustFifo<u64>>>>,
    omaps: Mutex<HashMap<String, Arc<OrderedMap<u64>>>>,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    busy: AtomicU64,
    batch_fallbacks: AtomicU64,
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    slow_txns: AtomicU64,
    slow_requests: AtomicU64,
    /// Per-stage request-lifecycle latency, indexed in [`STAGES`] order.
    stage_ns: [Histogram; 8],
    /// Pending parsed ops per commit-batch flush.
    batch_occupancy: Histogram,
    /// Per-shard worst-K request waterfalls since the last STATS scrape.
    exemplars: Vec<Mutex<Vec<Waterfall>>>,
    /// Slow-transaction forensics threshold, ns; 0 disables the log.
    slow_threshold_ns: u64,
    /// `--trace-sample` value restored by `TRACE STOP`; 0 = sampling off.
    trace_sample_default: u64,
    /// Server-side request service latency (parse to response), ns.
    pub latency: Histogram,
    /// Same latency, broken out per op (indexed by [`Op::index`]).
    op_latency: [Histogram; 11],
    /// The write-ahead log, present when `--data-dir` is set.
    wal: Option<Arc<Wal>>,
    /// When to fsync appended commit records.
    fsync_policy: FsyncPolicy,
    /// fsync latency, ns (batch and always policies both record here).
    wal_fsync_ns: Arc<Histogram>,
    /// Commit records replayed during startup recovery.
    recovery_replayed: AtomicU64,
    /// Torn-tail bytes truncated during startup recovery.
    recovery_truncated_bytes: AtomicU64,
    /// Torn tails detected (0 or 1 per recovery; cumulative across
    /// in-process reopens only in tests).
    recovery_torn_tails: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("lap", &self.lap)
            .field("update", &self.update)
            .field("baseline", &self.baseline)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Build an engine for the given server configuration.
    pub fn new(config: &ServerConfig) -> Engine {
        // Theorem 5.2: the eager/optimistic quadrant is opaque only under
        // fully eager conflict detection; every other configuration is
        // safe on the mixed (CCSTM-like) backend.
        let detection = if config.baseline.is_none()
            && config.update == UpdateChoice::Eager
            && config.lap == LapChoice::Optimistic
        {
            ConflictDetection::EagerAll
        } else {
            ConflictDetection::Mixed
        };
        let stm = Stm::new(StmConfig {
            detection,
            max_retries: Some(MAX_RETRIES),
            ..StmConfig::default()
        });
        // The flight recorder is a runtime knob on the process-global
        // tracer: always-on 1-in-N sampling at the configured default
        // rate.
        let tracer = Tracer::global();
        tracer.set_sample_every(config.trace_sample);
        if config.trace_sample > 0 {
            tracer.enable();
        }
        Engine {
            stm,
            lap: config.lap,
            update: config.update,
            baseline: config.baseline,
            maps: Mutex::new(HashMap::new()),
            counters: Mutex::new(HashMap::new()),
            queues: Mutex::new(HashMap::new()),
            omaps: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            batch_fallbacks: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            slow_txns: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            stage_ns: std::array::from_fn(|_| Histogram::new()),
            batch_occupancy: Histogram::new(),
            exemplars: (0..config.shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            slow_threshold_ns: config
                .slow_threshold
                .map(|d| (d.as_nanos() as u64).max(1))
                .unwrap_or(0),
            trace_sample_default: config.trace_sample,
            latency: Histogram::new(),
            op_latency: std::array::from_fn(|_| Histogram::new()),
            wal: None,
            fsync_policy: config.fsync_policy,
            wal_fsync_ns: Arc::new(Histogram::new()),
            recovery_replayed: AtomicU64::new(0),
            recovery_truncated_bytes: AtomicU64::new(0),
            recovery_torn_tails: AtomicU64::new(0),
        }
    }

    /// Build an engine and, when the configuration names a data
    /// directory, open its write-ahead log: recover committed state
    /// (checkpoint first, then the commit records past it), then install
    /// the commit hook so new transactions start logging. Replay runs
    /// *before* the hook exists, so recovered history is never re-logged.
    ///
    /// With `chaos_torn_tail` set, a CRC-invalid partial record is
    /// appended to the existing log before opening it — a fault-injection
    /// hook proving the torn-tail truncation path actually bites.
    pub fn open(config: &ServerConfig) -> std::io::Result<Engine> {
        let mut engine = Engine::new(config);
        let Some(dir) = &config.data_dir else {
            return Ok(engine);
        };
        if config.chaos_torn_tail {
            proust_wal::inject_torn_tail(dir)?;
        }
        let (wal, recovery) = Wal::open(dir, Wal::DEFAULT_SEGMENT_BYTES)?;
        engine.recovery_truncated_bytes.store(recovery.truncated_bytes, Ordering::Relaxed);
        engine.recovery_torn_tails.store(u64::from(recovery.torn_tail), Ordering::Relaxed);

        let invalid = |err: String| std::io::Error::new(std::io::ErrorKind::InvalidData, err);
        // Counters are accumulated outside the STM and installed with
        // their recovered totals directly; replaying increments one
        // transactional `incr` at a time would be O(total) transactions.
        let mut counter_totals: HashMap<String, i64> = HashMap::new();
        if let Some(ckpt) = &recovery.checkpoint {
            let ops = DurableOp::decode_all(&ckpt.payload)
                .map_err(|e| invalid(format!("checkpoint: {e}")))?;
            engine.replay_ops(&ops, &mut counter_totals).map_err(invalid)?;
        }
        let mut replayed = 0u64;
        for record in &recovery.records {
            let ops = DurableOp::decode_all(&record.payload)
                .map_err(|e| invalid(format!("record lsn={}: {e}", record.lsn)))?;
            engine.replay_ops(&ops, &mut counter_totals).map_err(invalid)?;
            replayed += 1;
        }
        {
            let mut counters = engine.counters.lock().expect("counters registry poisoned");
            for (name, total) in counter_totals {
                counters.insert(name, Arc::new(ProustCounter::new(total)));
            }
        }
        engine.recovery_replayed.store(replayed, Ordering::Relaxed);

        if let Some(delay) = config.chaos_fsync_delay {
            // Chaos hook: every real fsync stalls like a dying disk, so
            // waterfall tests can prove fsync_wait attribution bites.
            wal.set_sync_delay_ms(delay.as_millis() as u64);
        }
        let wal = Arc::new(wal);
        let hook = Arc::new(WalHook {
            wal: Arc::clone(&wal),
            policy: config.fsync_policy,
            fsync_ns: Arc::clone(&engine.wal_fsync_ns),
        });
        assert!(engine.stm.set_commit_hook(hook), "commit hook installed twice");
        engine.wal = Some(wal);
        Ok(engine)
    }

    /// Replay decoded WAL operations against the registries. Counter adds
    /// accumulate into `counter_totals` (installed in one shot by the
    /// caller); structural ops run transactionally in chunks so recovery
    /// of a large log does not build one giant write set.
    fn replay_ops(
        &self,
        ops: &[DurableOp],
        counter_totals: &mut HashMap<String, i64>,
    ) -> Result<(), String> {
        const REPLAY_CHUNK: usize = 256;
        let mut structural: Vec<Op> = Vec::new();
        for op in ops {
            match op {
                DurableOp::CounterAdd { name, delta } => {
                    *counter_totals.entry(name.clone()).or_insert(0) += delta;
                }
                DurableOp::MapPut { name, key, value } => {
                    structural.push(Op::MapPut(self.map_for(name)?, name.clone(), *key, *value));
                }
                DurableOp::MapDel { name, key } => {
                    structural.push(Op::MapDel(self.map_for(name)?, name.clone(), *key));
                }
                DurableOp::QueueEnq { name, value } => {
                    structural.push(Op::QueueEnq(self.queue_for(name)?, name.clone(), *value));
                }
                DurableOp::QueueDeq { name } => {
                    structural.push(Op::QueueDeq(self.queue_for(name)?, name.clone()));
                }
                DurableOp::OrdPut { name, key, value } => {
                    structural.push(Op::OrdPut(self.omap_for(name)?, name.clone(), *key, *value));
                }
                DurableOp::OrdDel { name, key } => {
                    structural.push(Op::OrdDel(self.omap_for(name)?, name.clone(), *key));
                }
            }
        }
        for chunk in structural.chunks(REPLAY_CHUNK) {
            self.stm
                .atomically(|tx| {
                    for op in chunk {
                        apply_op(tx, op)?;
                    }
                    Ok(())
                })
                .map_err(|err| format!("replay transaction failed: {err:?}"))?;
        }
        Ok(())
    }

    /// Write a point-in-time checkpoint of all committed state and GC the
    /// log segments it covers, bounding the next restart's replay.
    /// Returns `Ok(None)` when the server is running without a WAL.
    ///
    /// # Errors
    ///
    /// Refuses while transactions are in flight — the caller must drain
    /// first ([`Stm::quiesce`] is the only drain primitive), because the
    /// registry dumps are only consistent at quiescence. Also errors when
    /// a baseline map cannot dump its committed entries (full-log replay
    /// still recovers it) or on I/O failure.
    pub fn checkpoint(&self) -> Result<Option<u64>, String> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let in_flight = self.stm.in_flight();
        if in_flight > 0 {
            return Err(format!("{in_flight} transactions in flight; drain before checkpointing"));
        }
        let mut ops: Vec<DurableOp> = Vec::new();
        {
            let maps = self.maps.lock().expect("maps registry poisoned");
            for (name, map) in maps.iter() {
                let Some(entries) = map.committed_entries() else {
                    return Err(format!(
                        "map {name} cannot dump committed entries (baseline implementation); \
                         relying on full-log replay"
                    ));
                };
                for (key, value) in entries {
                    ops.push(DurableOp::MapPut { name: name.clone(), key, value });
                }
            }
        }
        {
            let counters = self.counters.lock().expect("counters registry poisoned");
            for (name, counter) in counters.iter() {
                let total = counter.value_now();
                if total != 0 {
                    ops.push(DurableOp::CounterAdd { name: name.clone(), delta: total });
                }
            }
        }
        {
            let queues = self.queues.lock().expect("queues registry poisoned");
            for (name, queue) in queues.iter() {
                for value in queue.committed_items() {
                    ops.push(DurableOp::QueueEnq { name: name.clone(), value });
                }
            }
        }
        {
            let omaps = self.omaps.lock().expect("omaps registry poisoned");
            for (name, omap) in omaps.iter() {
                let entries =
                    omap.committed_entries().expect("ordered maps always dump committed entries");
                for (key, value) in entries {
                    ops.push(DurableOp::OrdPut { name: name.clone(), key, value });
                }
            }
        }
        let payload = DurableOp::encode_all(&ops);
        wal.checkpoint(&payload).map(Some).map_err(|err| err.to_string())
    }

    /// Group fsync for the commit batch that just executed: one fsync
    /// covers every record appended since the last one (absorbed syncs
    /// are counted, not repeated). No-op under `--fsync-policy always`
    /// (each commit already synced) and `off` (the OS decides).
    fn wal_sync_batch(&self) {
        let Some(wal) = &self.wal else {
            return;
        };
        if self.fsync_policy != FsyncPolicy::Batch {
            return;
        }
        let start = Instant::now();
        match wal.sync() {
            Ok(true) => self.wal_fsync_ns.record(start.elapsed().as_nanos() as u64),
            Ok(false) => {}
            Err(err) => eprintln!("wal batch fsync failed: {err}"),
        }
    }

    /// `(records replayed, torn-tail bytes truncated, torn tails seen)`
    /// from startup recovery — the numbers behind the boot-time
    /// `RECOVERY` line and the recovery metric families.
    pub fn recovery_stats(&self) -> (u64, u64, u64) {
        (
            self.recovery_replayed.load(Ordering::Relaxed),
            self.recovery_truncated_bytes.load(Ordering::Relaxed),
            self.recovery_torn_tails.load(Ordering::Relaxed),
        )
    }

    /// The engine's STM runtime (shutdown drain, tests).
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// Record one malformed request line.
    pub fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one accepted client connection.
    pub fn connection_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one closed client connection.
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one request's service latency, both overall and under the
    /// op's own histogram series.
    pub fn record_op_latency(&self, op: &Op, elapsed_ns: u64) {
        self.latency.record(elapsed_ns);
        self.op_latency[op.index()].record(elapsed_ns);
    }

    /// Record one request-lifecycle stage span into its histogram.
    /// Non-stage phases are ignored, so callers never need to pre-filter.
    pub fn record_stage(&self, phase: Phase, ns: u64) {
        if let Some(index) = stage_index(phase) {
            self.stage_ns[index].record(ns);
        }
    }

    /// Record one commit-batch flush's pending op count.
    pub fn record_batch_occupancy(&self, ops: u64) {
        self.batch_occupancy.record(ops);
    }

    /// Sink for a completed request waterfall: feeds the per-shard
    /// tail-exemplar ring (worst-K by wall time since the last STATS
    /// scrape), the slow-request forensics log, and — when the flight
    /// recorder samples this request — the Chrome trace as a nested
    /// `request` envelope with one child span per stage.
    pub fn note_waterfall(&self, wf: &Waterfall) {
        self.record_exemplar(wf);
        self.maybe_log_slow_request(wf);
        self.maybe_trace_waterfall(wf);
    }

    fn record_exemplar(&self, wf: &Waterfall) {
        let Some(slot) = self.exemplars.get(wf.shard as usize) else {
            return;
        };
        let mut ring = slot.lock().expect("exemplar ring poisoned");
        if ring.len() < WATERFALL_EXEMPLARS {
            ring.push(wf.clone());
            return;
        }
        let (weakest, min_wall) = ring
            .iter()
            .enumerate()
            .map(|(index, w)| (index, w.wall_ns))
            .min_by_key(|(_, wall)| *wall)
            .expect("ring is full, never empty");
        if wf.wall_ns > min_wall {
            ring[weakest] = wf.clone();
        }
    }

    /// Drain every shard's tail exemplars, worst first. Called by the
    /// STATS serializer, so each scrape sees the worst requests since
    /// the previous one.
    fn take_exemplars(&self) -> Vec<Waterfall> {
        let mut all: Vec<Waterfall> = Vec::new();
        for slot in &self.exemplars {
            all.append(&mut slot.lock().expect("exemplar ring poisoned"));
        }
        all.sort_by_key(|wf| std::cmp::Reverse(wf.wall_ns));
        all
    }

    /// The `slow_request` forensics record for a threshold-breaching
    /// waterfall (separate from the STM-level `slow_txn` line, which
    /// carries the transaction post-mortem rather than request anatomy).
    pub(crate) fn slow_request_json(&self, wf: &Waterfall) -> JsonValue {
        let mut fields = vec![
            ("event", JsonValue::str("slow_request")),
            ("elapsed_ns", JsonValue::u64(wf.wall_ns)),
            ("threshold_ns", JsonValue::u64(self.slow_threshold_ns)),
            ("shard", JsonValue::u64(wf.shard as u64)),
            ("batch_ops", JsonValue::u64(wf.batch_ops as u64)),
            ("fsync_cohort", JsonValue::u64(wf.fsync_cohort)),
            ("stm_attempts", JsonValue::u64(wf.attempts as u64)),
            ("top_stage", JsonValue::str(wf.top_stage())),
            ("stages", wf.stages_json()),
        ];
        // Best effort, same caveat as note_slow: the thread-local record
        // belongs to this worker's last transaction. note_slow usually
        // consumed it already for the same burst, so this only attaches
        // when the request was slow without the transaction being slow.
        if let Some(forensics) = proust_stm::take_forensics() {
            fields.push(("txn", forensics.to_json()));
        }
        JsonValue::obj(fields)
    }

    fn maybe_log_slow_request(&self, wf: &Waterfall) {
        if self.slow_threshold_ns == 0 || wf.wall_ns < self.slow_threshold_ns {
            return;
        }
        self.slow_requests.fetch_add(1, Ordering::Relaxed);
        eprintln!("{}", self.slow_request_json(wf).to_json());
    }

    fn maybe_trace_waterfall(&self, wf: &Waterfall) {
        let tracer = Tracer::global();
        if !tracer.sample() {
            return;
        }
        static REQ_SEQ: AtomicU64 = AtomicU64::new(1);
        let id = REQ_SEQ.fetch_add(1, Ordering::Relaxed);
        let site = request_site();
        // The waterfall is sealed after its last stage, so spans are
        // reconstructed backwards from one clock read: the envelope ends
        // now and each stage is laid end-to-start before it.
        let end = tracer.now_ns();
        let total = wf.total_ns();
        let start = end.saturating_sub(total);
        tracer.emit_span(id, Phase::Request, site, start, total);
        let mut cursor = start;
        for (stage, ns) in STAGES.iter().zip(wf.stage_ns.iter()) {
            tracer.emit_span(id, *stage, site, cursor, *ns);
            cursor += ns;
        }
    }

    /// Handle a `TRACE` control command; returns the full response line.
    pub fn trace_command(&self, cmd: TraceCmd) -> String {
        let tracer = Tracer::global();
        match cmd {
            TraceCmd::Start(every) => {
                tracer.clear();
                let n = every.unwrap_or_else(|| tracer.sample_every()).max(1);
                tracer.set_sample_every(n);
                tracer.enable();
                "OK".to_string()
            }
            TraceCmd::Stop => {
                tracer.set_sample_every(self.trace_sample_default);
                if self.trace_sample_default == 0 {
                    tracer.disable();
                }
                "OK".to_string()
            }
            TraceCmd::Dump => format!("TRACE {}", tracer.to_chrome_trace().to_json()),
        }
    }

    /// If the just-finished transactional unit blew through the slow
    /// threshold, log one structured JSON line to stderr with the
    /// request context and the STM's post-mortem record (retry count,
    /// abort causes, contending site pairs, and — when the flight
    /// recorder sampled the call — its span tree).
    fn note_slow(&self, start: Instant, units: &[Unit], outcome: &str) {
        if self.slow_threshold_ns == 0 {
            return;
        }
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        if elapsed_ns < self.slow_threshold_ns {
            return;
        }
        self.slow_txns.fetch_add(1, Ordering::Relaxed);
        let ops = units.iter().flat_map(|unit| &unit.ops);
        let mut fields = vec![
            ("event", JsonValue::str("slow_txn")),
            ("elapsed_ns", JsonValue::u64(elapsed_ns)),
            ("threshold_ns", JsonValue::u64(self.slow_threshold_ns)),
            ("outcome", JsonValue::str(outcome)),
            ("ops", JsonValue::Arr(ops.map(|op| JsonValue::str(op.name())).collect())),
        ];
        // Best effort: the thread-local record belongs to whatever
        // transaction this worker thread ran last, which is the one that
        // was slow.
        if let Some(forensics) = proust_stm::take_forensics() {
            fields.push(("txn", forensics.to_json()));
        }
        eprintln!("{}", JsonValue::obj(fields).to_json());
    }

    fn build_map(&self) -> Arc<dyn TxMap<u64, u64>> {
        if let Some(baseline) = self.baseline {
            return match baseline {
                Baseline::Stm => Arc::new(StmHashMap::new()),
                Baseline::Predication => Arc::new(PredMap::new()),
                Baseline::Boosted => Arc::new(BoostedMap::new(LAP_SIZE)),
                Baseline::Coarse => Arc::new(CoarseMap::new()),
            };
        }
        match (self.update, self.lap) {
            (UpdateChoice::Eager, LapChoice::Optimistic) => {
                Arc::new(EagerMap::new(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            (UpdateChoice::Eager, LapChoice::Pessimistic) => {
                Arc::new(EagerMap::new(Arc::new(PessimisticLap::new(LAP_SIZE))))
            }
            (UpdateChoice::Lazy, LapChoice::Optimistic) => {
                Arc::new(SnapTrieMap::new(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            (UpdateChoice::Lazy, LapChoice::Pessimistic) => {
                Arc::new(SnapTrieMap::new(Arc::new(PessimisticLap::new(LAP_SIZE))))
            }
        }
    }

    fn build_queue(&self) -> Arc<ProustFifo<u64>> {
        // Queues have no update-strategy axis (the FIFO wrapper is eager);
        // they follow the lock-allocator axis only.
        match self.lap {
            LapChoice::Optimistic => Arc::new(ProustFifo::new(Arc::new(
                OptimisticLap::with_slot_fn(2, |state: &FifoState| match state {
                    FifoState::Head => 0,
                    FifoState::Tail => 1,
                }),
            ))),
            LapChoice::Pessimistic => Arc::new(ProustFifo::new(Arc::new(PessimisticLap::new(2)))),
        }
    }

    fn build_omap(&self) -> Arc<OrderedMap<u64>> {
        // Ordered maps are always Proustian — no baseline implements
        // range scans — and always lazy (the wrapper replays a persistent
        // treap); only the lock-allocator axis applies. The LAP keys are
        // the stripe slots themselves, so the slot function is identity.
        match self.lap {
            LapChoice::Optimistic => Arc::new(OrderedMap::new(Arc::new(
                OptimisticLap::with_slot_fn(ORDERED_STRIPES, |slot: &usize| *slot),
            ))),
            LapChoice::Pessimistic => {
                Arc::new(OrderedMap::new(Arc::new(PessimisticLap::new(ORDERED_STRIPES))))
            }
        }
    }

    fn map_for(&self, name: &str) -> Result<Arc<dyn TxMap<u64, u64>>, String> {
        let mut maps = self.maps.lock().expect("maps registry poisoned");
        if let Some(map) = maps.get(name) {
            return Ok(Arc::clone(map));
        }
        if maps.len() >= MAX_STRUCTURES {
            return Err("too many maps".to_string());
        }
        let map = self.build_map();
        maps.insert(name.to_string(), Arc::clone(&map));
        Ok(map)
    }

    fn counter_for(&self, name: &str) -> Result<Arc<ProustCounter>, String> {
        let mut counters = self.counters.lock().expect("counters registry poisoned");
        if let Some(counter) = counters.get(name) {
            return Ok(Arc::clone(counter));
        }
        if counters.len() >= MAX_STRUCTURES {
            return Err("too many counters".to_string());
        }
        let counter = Arc::new(ProustCounter::new(0));
        counters.insert(name.to_string(), Arc::clone(&counter));
        Ok(counter)
    }

    fn queue_for(&self, name: &str) -> Result<Arc<ProustFifo<u64>>, String> {
        let mut queues = self.queues.lock().expect("queues registry poisoned");
        if let Some(queue) = queues.get(name) {
            return Ok(Arc::clone(queue));
        }
        if queues.len() >= MAX_STRUCTURES {
            return Err("too many queues".to_string());
        }
        let queue = self.build_queue();
        queues.insert(name.to_string(), Arc::clone(&queue));
        Ok(queue)
    }

    fn omap_for(&self, name: &str) -> Result<Arc<OrderedMap<u64>>, String> {
        let mut omaps = self.omaps.lock().expect("omaps registry poisoned");
        if let Some(omap) = omaps.get(name) {
            return Ok(Arc::clone(omap));
        }
        if omaps.len() >= MAX_STRUCTURES {
            return Err("too many ordered maps".to_string());
        }
        let omap = self.build_omap();
        omaps.insert(name.to_string(), Arc::clone(&omap));
        Ok(omap)
    }

    /// Resolve a parsed command against the registries (creating the named
    /// structure on first use).
    ///
    /// # Errors
    ///
    /// Returns the `ERR` reason when a registry is full.
    pub fn resolve(&self, cmd: &Cmd) -> Result<Op, String> {
        Ok(match cmd {
            Cmd::MapGet { name, key } => Op::MapGet(self.map_for(name)?, *key),
            Cmd::MapPut { name, key, value } => {
                Op::MapPut(self.map_for(name)?, name.clone(), *key, *value)
            }
            Cmd::MapDel { name, key } => Op::MapDel(self.map_for(name)?, name.clone(), *key),
            Cmd::CounterGet { name } => Op::CounterGet(self.counter_for(name)?),
            Cmd::CounterInc { name, delta } => {
                Op::CounterInc(self.counter_for(name)?, name.clone(), *delta)
            }
            Cmd::QueueEnq { name, value } => {
                Op::QueueEnq(self.queue_for(name)?, name.clone(), *value)
            }
            Cmd::QueueDeq { name } => Op::QueueDeq(self.queue_for(name)?, name.clone()),
            Cmd::OrdGet { name, key } => Op::OrdGet(self.omap_for(name)?, *key),
            Cmd::OrdPut { name, key, value } => {
                Op::OrdPut(self.omap_for(name)?, name.clone(), *key, *value)
            }
            Cmd::OrdDel { name, key } => Op::OrdDel(self.omap_for(name)?, name.clone(), *key),
            Cmd::OrdScan { name, lo, hi } => Op::OrdScan(self.omap_for(name)?, *lo, *hi),
        })
    }

    /// Execute a burst of units with commit-batching: one transaction for
    /// the whole burst first; if that aborts (patience exceeded, retry
    /// budget exhausted), one transaction per unit. Returns one response
    /// vector per unit, in order, plus the burst's stage anatomy: STM
    /// execution time with the committing thread's WAL appends peeled
    /// out, the group-fsync wait, the fsync cohort (records made durable
    /// across the burst's fsync window), and the retry count. The serving
    /// path feeds these into the per-stage histograms and the request
    /// waterfalls.
    pub fn execute_stages(&self, units: &[Unit]) -> (Vec<Vec<Resp>>, StageBreakdown) {
        WAL_APPEND_NS.with(|cell| cell.set(0));
        WAL_HOOK_FSYNC_NS.with(|cell| cell.set(0));
        let durable_before = self.wal.as_ref().map_or(0, |wal| wal.durable_lsn());
        let start = Instant::now();
        let responses = self.execute_burst(units);
        let stm_ns = start.elapsed().as_nanos() as u64;
        let attempts = proust_stm::last_attempts();
        // Group commit: the whole burst's WAL records ride one fsync, so
        // durability costs one disk flush per pipelined batch instead of
        // one per transaction.
        let fsync_start = Instant::now();
        self.wal_sync_batch();
        let batch_fsync_ns = match &self.wal {
            Some(_) if self.fsync_policy == FsyncPolicy::Batch => {
                fsync_start.elapsed().as_nanos() as u64
            }
            _ => 0,
        };
        let wal_append_ns = WAL_APPEND_NS.with(Cell::get);
        let hook_fsync_ns = WAL_HOOK_FSYNC_NS.with(Cell::get);
        let fsync_cohort =
            self.wal.as_ref().map_or(0, |wal| wal.durable_lsn().saturating_sub(durable_before));
        let breakdown = StageBreakdown {
            stm_exec_ns: stm_ns.saturating_sub(wal_append_ns + hook_fsync_ns),
            wal_append_ns,
            fsync_wait_ns: hook_fsync_ns + batch_fsync_ns,
            fsync_cohort,
            attempts,
        };
        (responses, breakdown)
    }

    fn execute_burst(&self, units: &[Unit]) -> Vec<Vec<Resp>> {
        let total: u64 = units.iter().map(|unit| unit.ops.len() as u64).sum();
        self.requests.fetch_add(total, Ordering::Relaxed);
        if units.len() > 1 {
            let start = Instant::now();
            let batched = self.stm.atomically(|tx| {
                if tx.attempt() > BATCH_PATIENCE {
                    // The batch is contended; stop poisoning every request
                    // in it and let each one commit on its own.
                    return Err(TxError::abort(BATCH_FALLBACK));
                }
                units
                    .iter()
                    .map(|unit| unit.ops.iter().map(|op| apply_op(tx, op)).collect())
                    .collect::<TxResult<Vec<Vec<Resp>>>>()
            });
            match batched {
                Ok(responses) => {
                    self.note_slow(start, units, "committed");
                    return responses;
                }
                Err(_) => {
                    self.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        units.iter().map(|unit| self.execute_unit(unit)).collect()
    }

    fn execute_unit(&self, unit: &Unit) -> Vec<Resp> {
        let start = Instant::now();
        let result = self.stm.atomically(|tx| unit.ops.iter().map(|op| apply_op(tx, op)).collect());
        match result {
            Ok(responses) => {
                self.note_slow(start, std::slice::from_ref(unit), "committed");
                responses
            }
            Err(_) => {
                // The unit failed even after escalating to the STM's
                // serial-irrevocable mode, which gives up once a body keeps
                // failing while running alone. The unit stays atomic, so
                // every line is BUSY.
                self.busy.fetch_add(1, Ordering::Relaxed);
                self.note_slow(start, std::slice::from_ref(unit), "busy");
                unit.ops.iter().map(|_| Resp::Busy).collect()
            }
        }
    }

    /// The one-line JSON snapshot served by `STATS`: request accounting,
    /// the STM commit/conflict counters with the abort-cause breakdown
    /// (same shape as the bench report cells), live gauges (in-flight
    /// transactions, open connections), the top conflict-matrix cells,
    /// and the server-side latency histograms. `reactor` carries the
    /// serving path's I/O counters when the engine runs inside the
    /// server (absent in embedded/test use, where the fields read zero).
    pub fn stats_json(&self, reactor: Option<&ReactorMetrics>) -> JsonValue {
        let stats = self.stm.stats();
        let wal_stats = self.wal.as_ref().map(|wal| wal.stats());
        let wal_field = |get: fn(&proust_wal::WalStats) -> &AtomicU64| {
            wal_stats.map_or(0, |s| get(s).load(Ordering::Relaxed))
        };
        let (recovery_replayed, recovery_truncated, recovery_torn) = self.recovery_stats();
        let top: Vec<JsonValue> = self
            .stm
            .metrics()
            .conflicts
            .cells()
            .into_iter()
            .take(CONFLICT_TOP_K)
            .map(|cell| {
                JsonValue::obj([
                    ("aborter", JsonValue::str(cell.aborter.name())),
                    ("victim", JsonValue::str(cell.victim.name())),
                    ("count", JsonValue::u64(cell.count)),
                    ("ns_lost", JsonValue::u64(cell.ns_lost)),
                ])
            })
            .collect();
        let op_p99: Vec<(&str, JsonValue)> = OP_NAMES
            .iter()
            .zip(self.op_latency.iter())
            .map(|(name, hist)| (*name, JsonValue::u64(hist.p99())))
            .collect();
        let stage_quantile = |quantile: fn(&Histogram) -> u64| -> JsonValue {
            JsonValue::obj(
                STAGES
                    .iter()
                    .zip(self.stage_ns.iter())
                    .map(|(stage, hist)| (stage.name(), JsonValue::u64(quantile(hist))))
                    .collect::<Vec<_>>(),
            )
        };
        // The stage whose tail costs the most: ranked by p99 contribution,
        // the same ordering the proust-top waterfall panel uses.
        let top_stage = STAGES
            .iter()
            .zip(self.stage_ns.iter())
            .max_by_key(|(_, hist)| hist.p99())
            .map(|(stage, _)| stage.name())
            .expect("eight stages, never empty");
        let exemplars: Vec<JsonValue> =
            self.take_exemplars().iter().map(Waterfall::to_json).collect();
        JsonValue::obj([
            ("lap", JsonValue::str(self.lap.name())),
            ("update", JsonValue::str(self.update.name())),
            (
                "baseline",
                match self.baseline {
                    Some(baseline) => JsonValue::str(baseline.name()),
                    None => JsonValue::Null,
                },
            ),
            ("requests", JsonValue::u64(self.requests.load(Ordering::Relaxed))),
            ("protocol_errors", JsonValue::u64(self.protocol_errors.load(Ordering::Relaxed))),
            ("busy", JsonValue::u64(self.busy.load(Ordering::Relaxed))),
            ("batch_fallbacks", JsonValue::u64(self.batch_fallbacks.load(Ordering::Relaxed))),
            ("connections", JsonValue::u64(self.connections_open.load(Ordering::Relaxed))),
            ("connections_total", JsonValue::u64(self.connections_total.load(Ordering::Relaxed))),
            ("in_flight", JsonValue::u64(self.stm.in_flight())),
            ("slow_txns", JsonValue::u64(self.slow_txns.load(Ordering::Relaxed))),
            ("trace_sample_every", JsonValue::u64(Tracer::global().sample_every())),
            ("starts", JsonValue::u64(stats.starts)),
            ("commits", JsonValue::u64(stats.commits)),
            ("conflicts", JsonValue::u64(stats.conflicts)),
            ("exhausted", JsonValue::u64(stats.exhausted)),
            ("serial_escalations", JsonValue::u64(stats.serial_escalations)),
            ("serial_queue_depth", JsonValue::u64(self.stm.serial_queue_depth())),
            ("serial_held_ns", JsonValue::u64(stats.serial_held_ns)),
            ("lock_waits", JsonValue::u64(stats.lock_waits)),
            ("lock_wait_ns", JsonValue::u64(stats.lock_wait_ns)),
            ("parks", JsonValue::u64(stats.parks)),
            ("park_ns", JsonValue::u64(stats.park_ns)),
            ("contention_ns_lost", JsonValue::u64(self.stm.metrics().conflicts.total_ns_lost())),
            ("wounds_issued", JsonValue::u64(stats.wounds_issued)),
            ("abort_causes", abort_causes_json(&stats)),
            ("conflict_matrix_top", JsonValue::Arr(top)),
            ("latency", histogram_json(&self.latency)),
            ("op_p99_ns", JsonValue::obj(op_p99)),
            // STATS v4: durability. All fields are present (zero) when the
            // server runs without --data-dir, so scrapers never branch.
            ("wal_enabled", JsonValue::u64(u64::from(self.wal.is_some()))),
            ("fsync_policy", JsonValue::str(self.fsync_policy.name())),
            ("wal_records", JsonValue::u64(wal_field(|s| &s.records))),
            ("wal_append_bytes", JsonValue::u64(wal_field(|s| &s.append_bytes))),
            ("wal_fsyncs", JsonValue::u64(wal_field(|s| &s.fsyncs))),
            ("wal_segments", JsonValue::u64(wal_field(|s| &s.segments))),
            ("wal_last_lsn", JsonValue::u64(self.wal.as_ref().map_or(0, |w| w.last_lsn()))),
            ("wal_durable_lsn", JsonValue::u64(self.wal.as_ref().map_or(0, |w| w.durable_lsn()))),
            (
                "wal_checkpoint_lsn",
                JsonValue::u64(self.wal.as_ref().map_or(0, |w| w.checkpoint_lsn())),
            ),
            ("wal_fsync_p99_ns", JsonValue::u64(self.wal_fsync_ns.p99())),
            ("recovery_replayed", JsonValue::u64(recovery_replayed)),
            ("recovery_truncated_bytes", JsonValue::u64(recovery_truncated)),
            ("recovery_torn_tails", JsonValue::u64(recovery_torn)),
            // STATS v5: the reactor serving path. Fields are present
            // (zero) when no reactor is attached, so scrapers never
            // branch on server mode.
            ("reactor_shards", JsonValue::u64(reactor.map_or(0, |r| r.shard_count() as u64))),
            ("reactor_wakeups", JsonValue::u64(reactor.map_or(0, |r| r.wakeups_total()))),
            ("reactor_backpressure", JsonValue::u64(reactor.map_or(0, |r| r.backpressure_total()))),
            (
                "connections_per_shard",
                JsonValue::Arr(
                    reactor
                        .map(|r| r.connections_per_shard())
                        .unwrap_or_default()
                        .into_iter()
                        .map(JsonValue::u64)
                        .collect(),
                ),
            ),
            // STATS v6: the request-lifecycle waterfall. Per-stage p50/p99
            // over the stage histograms, the stage dominating the p99 tail,
            // batch occupancy, and the worst-K tail exemplars drained per
            // scrape. All fields are present (zeroed/empty) before any
            // request flows, so scrapers never branch.
            ("slow_requests", JsonValue::u64(self.slow_requests.load(Ordering::Relaxed))),
            ("stage_p50_ns", stage_quantile(Histogram::p50)),
            ("stage_p99_ns", stage_quantile(Histogram::p99)),
            ("top_stage", JsonValue::str(top_stage)),
            ("batch_occupancy_p50", JsonValue::u64(self.batch_occupancy.p50())),
            ("batch_occupancy_p99", JsonValue::u64(self.batch_occupancy.p99())),
            ("stage_exemplars", JsonValue::Arr(exemplars)),
        ])
    }

    /// Encode the live metrics in Prometheus text exposition format —
    /// the payload behind `GET /metrics` on the dedicated listener.
    /// `reactor` attaches the serving path's I/O families; they are
    /// exported as zeros when absent so scrape assertions never branch.
    pub fn prometheus(&self, reactor: Option<&ReactorMetrics>) -> String {
        let stats = self.stm.stats();
        let metrics = self.stm.metrics();
        let mut w = PromWriter::new();

        w.counter(
            "proust_requests_total",
            "Data requests received (each op of a MULTI counts once).",
            self.requests.load(Ordering::Relaxed),
        );
        w.counter(
            "proust_protocol_errors_total",
            "Malformed request lines answered with ERR.",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        w.counter(
            "proust_busy_total",
            "Units answered BUSY after exhausting their retry budget.",
            self.busy.load(Ordering::Relaxed),
        );
        w.counter(
            "proust_batch_fallbacks_total",
            "Commit batches that fell back to per-request transactions.",
            self.batch_fallbacks.load(Ordering::Relaxed),
        );
        w.counter(
            "proust_connections_total",
            "Client connections accepted since startup.",
            self.connections_total.load(Ordering::Relaxed),
        );
        w.gauge(
            "proust_connections_open",
            "Client connections currently being served.",
            self.connections_open.load(Ordering::Relaxed) as f64,
        );
        w.counter(
            "proust_slow_txns_total",
            "Requests that exceeded the slow-transaction threshold.",
            self.slow_txns.load(Ordering::Relaxed),
        );

        // --- Reactor serving path --------------------------------------
        w.counter(
            "proust_reactor_wakeups_total",
            "epoll_wait returns across all reactor shards.",
            reactor.map_or(0, |r| r.wakeups_total()),
        );
        w.counter(
            "proust_conn_backpressure_total",
            "Connections paused for crossing the output high-water mark.",
            reactor.map_or(0, |r| r.backpressure_total()),
        );
        w.header("proust_connections", "Open connections per reactor shard.", "gauge");
        match reactor {
            Some(r) => {
                for (shard, count) in r.connections_per_shard().into_iter().enumerate() {
                    let label = shard.to_string();
                    w.sample("proust_connections", &[("shard", &label)], count as f64);
                }
            }
            None => w.sample("proust_connections", &[("shard", "0")], 0.0),
        }
        let empty_ready = Histogram::new();
        w.header(
            "proust_reactor_ready_events",
            "Ready-event batch size per epoll wakeup.",
            "histogram",
        );
        w.histogram(
            "proust_reactor_ready_events",
            &[],
            reactor.map_or(&empty_ready, |r| &r.ready_events),
        );

        w.counter(
            "proust_txn_starts_total",
            "Transaction attempts started, including retries.",
            stats.starts,
        );
        w.counter("proust_txn_commits_total", "Transactions committed.", stats.commits);
        w.header("proust_txn_aborts_total", "Permanent aborts by kind.", "counter");
        w.sample("proust_txn_aborts_total", &[("kind", "user")], stats.user_aborts as f64);
        w.sample("proust_txn_aborts_total", &[("kind", "exhausted")], stats.exhausted as f64);
        w.header("proust_txn_conflicts_total", "Transient conflict aborts by kind.", "counter");
        for (kind, count) in [
            ("read_invalid", stats.read_invalid),
            ("read_too_new", stats.read_too_new),
            ("write_locked", stats.write_locked),
            ("read_locked", stats.read_locked),
            ("visible_readers", stats.visible_readers),
            ("wounded", stats.wounded),
            ("abstract_lock", stats.abstract_lock),
            ("external", stats.external),
        ] {
            w.sample("proust_txn_conflicts_total", &[("kind", kind)], count as f64);
        }
        w.counter(
            "proust_retries_requested_total",
            "User-requested retries (Harris retry).",
            stats.retries_requested,
        );
        w.counter(
            "proust_wounds_issued_total",
            "Wounds issued by contention-management arbitration.",
            stats.wounds_issued,
        );
        w.counter(
            "proust_serial_escalations_total",
            "Escalations into serial-irrevocable mode.",
            stats.serial_escalations,
        );
        w.gauge(
            "proust_txn_in_flight",
            "Transactions currently running.",
            self.stm.in_flight() as f64,
        );
        w.gauge(
            "proust_serial_mode",
            "1 while the serial-irrevocable gate is held.",
            u64::from(self.stm.serial_mode_active()) as f64,
        );
        w.gauge(
            "proust_trace_sample_every",
            "Flight-recorder sampling period (1-in-N transactions; 0 = off).",
            Tracer::global().sample_every() as f64,
        );

        w.header(
            "proust_request_latency_ns",
            "Request service latency (parse to response) by op, ns.",
            "histogram",
        );
        for (name, hist) in OP_NAMES.iter().zip(self.op_latency.iter()) {
            if hist.count() > 0 {
                w.histogram("proust_request_latency_ns", &[("op", name)], hist);
            }
        }
        // --- Request-lifecycle waterfall -------------------------------
        // All eight stage series always emit their full shared-bound
        // bucket ladder (even empty), so dashboards can stack the stages
        // into a waterfall without branching on which stages have fired.
        w.counter(
            "proust_slow_requests_total",
            "Requests whose waterfall breached the slow threshold.",
            self.slow_requests.load(Ordering::Relaxed),
        );
        w.header(
            "proust_request_stage_ns",
            "Request-lifecycle stage latency by pipeline stage, ns.",
            "histogram",
        );
        for (stage, hist) in STAGES.iter().zip(self.stage_ns.iter()) {
            w.histogram_bounded(
                "proust_request_stage_ns",
                &[("stage", stage.name())],
                hist,
                &SHARED_NS_BUCKET_BOUNDS,
            );
        }
        w.header(
            "proust_batch_occupancy",
            "Pending parsed ops per commit-batch flush.",
            "histogram",
        );
        w.histogram_bounded(
            "proust_batch_occupancy",
            &[],
            &self.batch_occupancy,
            &OCCUPANCY_BUCKET_BOUNDS,
        );
        // Phase and contention histograms share one canonical bucket table
        // (`SHARED_NS_BUCKET_BOUNDS`), so dashboards can overlay any pair
        // of `le` series without re-bucketing.
        w.header("proust_txn_phase_ns", "Transaction phase latency, ns.", "histogram");
        for (phase, hist) in [
            ("txn", &metrics.txn_latency),
            ("validation", &metrics.validation),
            ("lock_writeback", &metrics.lock_writeback),
            ("replay", &metrics.replay),
        ] {
            if hist.count() > 0 {
                w.histogram_bounded(
                    "proust_txn_phase_ns",
                    &[("phase", phase)],
                    hist,
                    &SHARED_NS_BUCKET_BOUNDS,
                );
            }
        }

        // --- Contention observatory -----------------------------------
        w.header(
            "proust_lock_wait_ns",
            "Contended lock/ownership wait time by blocked op site, ns.",
            "histogram",
        );
        for (site, hist) in metrics.lock_wait.cells() {
            w.histogram_bounded(
                "proust_lock_wait_ns",
                &[("site", site.name())],
                &hist,
                &SHARED_NS_BUCKET_BOUNDS,
            );
        }
        w.histogram_family_bounded(
            "proust_lock_hold_ns",
            "Lock/ownership hold duration (sampled transactions), ns.",
            &metrics.lock_hold,
        );
        w.histogram_family_bounded(
            "proust_park_ns",
            "Condvar park latency of blocked retry and serial-gate waiters, ns.",
            &metrics.park,
        );
        w.counter(
            "proust_lock_waits_total",
            "Contended lock/ownership acquisitions that had to wait.",
            stats.lock_waits,
        );
        w.counter(
            "proust_lock_wait_ns_total",
            "Cumulative nanoseconds spent waiting on contended locks.",
            stats.lock_wait_ns,
        );
        w.counter(
            "proust_parks_total",
            "Threads parked on the commit-wakeup channel or serial gate.",
            stats.parks,
        );
        w.counter(
            "proust_serial_held_ns_total",
            "Cumulative nanoseconds the serial-irrevocable token was held.",
            stats.serial_held_ns,
        );
        w.gauge(
            "proust_serial_queue_depth",
            "Threads currently parked at the serial-irrevocable gate.",
            self.stm.serial_queue_depth() as f64,
        );

        // --- Durability ------------------------------------------------
        // Always exported (zeros without --data-dir) so dashboards and
        // the smoke test's family assertions never branch on config.
        let wal_stats = self.wal.as_ref().map(|wal| wal.stats());
        let wal_field = |get: fn(&proust_wal::WalStats) -> &AtomicU64| {
            wal_stats.map_or(0, |s| get(s).load(Ordering::Relaxed))
        };
        let (recovery_replayed, recovery_truncated, recovery_torn) = self.recovery_stats();
        w.gauge(
            "proust_wal_enabled",
            "1 when a write-ahead log is attached (--data-dir).",
            f64::from(u8::from(self.wal.is_some())),
        );
        w.counter(
            "proust_wal_append_bytes_total",
            "Framed bytes appended to the write-ahead log.",
            wal_field(|s| &s.append_bytes),
        );
        w.counter(
            "proust_wal_records_total",
            "Commit records appended to the write-ahead log.",
            wal_field(|s| &s.records),
        );
        w.counter(
            "proust_wal_fsyncs_total",
            "fsync calls that hit the log file (group-commit absorbed syncs excluded).",
            wal_field(|s| &s.fsyncs),
        );
        w.counter(
            "proust_wal_syncs_absorbed_total",
            "Sync requests satisfied by another commit's covering fsync.",
            wal_field(|s| &s.syncs_absorbed),
        );
        w.counter(
            "proust_wal_rotations_total",
            "Segment rotations since the log was opened.",
            wal_field(|s| &s.rotations),
        );
        w.gauge(
            "proust_wal_segments",
            "Live write-ahead-log segment files.",
            wal_field(|s| &s.segments) as f64,
        );
        w.gauge(
            "proust_wal_durable_lsn",
            "Highest log sequence number known durable on disk.",
            self.wal.as_ref().map_or(0, |w| w.durable_lsn()) as f64,
        );
        w.gauge(
            "proust_wal_checkpoint_lsn",
            "LSN covered by the most recent checkpoint (0 = none).",
            self.wal.as_ref().map_or(0, |w| w.checkpoint_lsn()) as f64,
        );
        w.counter(
            "proust_recovery_replayed_total",
            "Committed WAL records replayed during startup recovery.",
            recovery_replayed,
        );
        w.counter(
            "proust_recovery_truncated_bytes_total",
            "Torn-tail bytes truncated (never replayed) during recovery.",
            recovery_truncated,
        );
        w.counter(
            "proust_wal_torn_tails_total",
            "Torn tails detected and healed during recovery.",
            recovery_torn,
        );
        w.header("proust_wal_fsync_ns", "WAL fsync latency, ns.", "histogram");
        w.histogram_bounded(
            "proust_wal_fsync_ns",
            &[],
            &self.wal_fsync_ns,
            &SHARED_NS_BUCKET_BOUNDS,
        );

        w.header(
            "proust_conflict_pairs_total",
            "Conflict-driven aborts by (aborter op site, victim op site).",
            "counter",
        );
        for cell in metrics.conflicts.cells() {
            w.sample(
                "proust_conflict_pairs_total",
                &[("aborter_site", cell.aborter.name()), ("victim_site", cell.victim.name())],
                cell.count as f64,
            );
        }
        w.header(
            "proust_contention_ns_total",
            "Victim wall-clock nanoseconds lost, by (aborter, victim) op-site pair.",
            "counter",
        );
        for cell in metrics.conflicts.cells() {
            w.sample(
                "proust_contention_ns_total",
                &[("aborter_site", cell.aborter.name()), ("victim_site", cell.victim.name())],
                cell.ns_lost as f64,
            );
        }
        w.finish()
    }
}

/// The STM commit hook bridging commits to the WAL: called at the
/// serialization point (ownership still held), so append order is a
/// valid serialization order. Under `always` the fsync happens here,
/// per commit; under `batch` it is deferred to the burst boundary.
struct WalHook {
    wal: Arc<Wal>,
    policy: FsyncPolicy,
    fsync_ns: Arc<Histogram>,
}

impl CommitHook for WalHook {
    fn on_commit(&self, commit_ts: u64, payload: &[u8]) {
        // Timed into the committing thread's stage accumulator so
        // `execute_stages` can peel WAL costs out of the STM window.
        let append_start = Instant::now();
        let result = self.wal.append(commit_ts, payload);
        let append_ns = append_start.elapsed().as_nanos() as u64;
        WAL_APPEND_NS.with(|cell| cell.set(cell.get() + append_ns));
        if let Err(err) = result {
            // The transaction has already committed in memory; all we can
            // do is scream. The operator sees a durability gap, not a
            // wedged server.
            eprintln!("wal append failed (commit_ts={commit_ts}): {err}");
            return;
        }
        if self.policy == FsyncPolicy::Always {
            let start = Instant::now();
            let result = self.wal.sync();
            let fsync_ns = start.elapsed().as_nanos() as u64;
            WAL_HOOK_FSYNC_NS.with(|cell| cell.set(cell.get() + fsync_ns));
            match result {
                Ok(true) => self.fsync_ns.record(fsync_ns),
                Ok(false) => {}
                Err(err) => eprintln!("wal fsync failed: {err}"),
            }
        }
    }
}

/// Encode one replay record into the transaction's durable buffer. The
/// buffer only reaches the WAL if this attempt commits; aborted attempts
/// discard it, so replay logs never contain rolled-back updates.
fn log_durable(tx: &mut Txn, op: &DurableOp) {
    let mut buf = Vec::with_capacity(32);
    op.encode_into(&mut buf);
    tx.wal_log(&buf);
}

/// Apply one resolved operation inside a transaction, tagging the
/// server-side op site for conflict attribution. Mutating ops append
/// their replay record to the transaction's WAL buffer (a no-op unless a
/// commit hook — i.e. `--data-dir` — is installed).
fn apply_op(tx: &mut Txn, op: &Op) -> TxResult<Resp> {
    match op {
        Op::MapGet(map, key) => {
            op_site!(tx, "server.get");
            Ok(match map.get(tx, key)? {
                Some(value) => Resp::Value(value),
                None => Resp::Nil,
            })
        }
        Op::MapPut(map, name, key, value) => {
            op_site!(tx, "server.put");
            map.put(tx, *key, *value)?;
            if tx.wal_enabled() {
                log_durable(
                    tx,
                    &DurableOp::MapPut { name: name.clone(), key: *key, value: *value },
                );
            }
            Ok(Resp::Ok)
        }
        Op::MapDel(map, name, key) => {
            op_site!(tx, "server.del");
            Ok(match map.remove(tx, key)? {
                Some(old) => {
                    if tx.wal_enabled() {
                        log_durable(tx, &DurableOp::MapDel { name: name.clone(), key: *key });
                    }
                    Resp::Value(old)
                }
                None => Resp::Nil,
            })
        }
        Op::CounterGet(counter) => {
            // Committed value; deliberately touches no transactional state
            // so counter reads never conflict with increments.
            op_site!(tx, "server.cget");
            // Server counters only move by positive deltas, so the i64
            // STM counter always fits the unsigned wire value.
            Ok(Resp::Value(counter.value_now() as u64))
        }
        Op::CounterInc(counter, name, delta) => {
            op_site!(tx, "server.inc");
            for _ in 0..*delta {
                counter.incr(tx)?;
            }
            if *delta > 0 && tx.wal_enabled() {
                log_durable(
                    tx,
                    &DurableOp::CounterAdd { name: name.clone(), delta: *delta as i64 },
                );
            }
            Ok(Resp::Ok)
        }
        Op::QueueEnq(queue, name, value) => {
            op_site!(tx, "server.enq");
            queue.enqueue(tx, *value)?;
            if tx.wal_enabled() {
                log_durable(tx, &DurableOp::QueueEnq { name: name.clone(), value: *value });
            }
            Ok(Resp::Ok)
        }
        Op::QueueDeq(queue, name) => {
            op_site!(tx, "server.deq");
            Ok(match queue.dequeue(tx)? {
                Some(value) => {
                    // Logged only when something actually came off the
                    // queue; a DEQ that answered NIL replays as nothing.
                    if tx.wal_enabled() {
                        log_durable(tx, &DurableOp::QueueDeq { name: name.clone() });
                    }
                    Resp::Value(value)
                }
                None => Resp::Nil,
            })
        }
        Op::OrdGet(omap, key) => {
            op_site!(tx, "server.oget");
            Ok(match omap.get(tx, key)? {
                Some(value) => Resp::Value(value),
                None => Resp::Nil,
            })
        }
        Op::OrdPut(omap, name, key, value) => {
            op_site!(tx, "server.oput");
            omap.put(tx, *key, *value)?;
            if tx.wal_enabled() {
                log_durable(
                    tx,
                    &DurableOp::OrdPut { name: name.clone(), key: *key, value: *value },
                );
            }
            Ok(Resp::Ok)
        }
        Op::OrdDel(omap, name, key) => {
            op_site!(tx, "server.odel");
            Ok(match omap.remove(tx, key)? {
                Some(old) => {
                    if tx.wal_enabled() {
                        log_durable(tx, &DurableOp::OrdDel { name: name.clone(), key: *key });
                    }
                    Resp::Value(old)
                }
                None => Resp::Nil,
            })
        }
        Op::OrdScan(omap, lo, hi) => {
            op_site!(tx, "server.scan");
            Ok(Resp::Entries(omap.scan(tx, *lo, *hi)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(&ServerConfig::default())
    }

    fn single(engine: &Engine, line: &str) -> String {
        let parsed = match crate::proto::parse_line(line).unwrap() {
            crate::proto::Line::Data(cmd) => cmd,
            other => panic!("not a data command: {other:?}"),
        };
        let op = engine.resolve(&parsed).unwrap();
        let mut responses = engine.execute_stages(&[Unit { ops: vec![op] }]).0;
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].len(), 1);
        responses.pop().unwrap().pop().unwrap().to_line()
    }

    #[test]
    fn map_counter_queue_round_trip() {
        let engine = engine();
        assert_eq!(single(&engine, "GET m 1"), "NIL");
        assert_eq!(single(&engine, "PUT m 1 10"), "OK");
        assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
        assert_eq!(single(&engine, "DEL m 1"), "VALUE 10");
        assert_eq!(single(&engine, "DEL m 1"), "NIL");
        assert_eq!(single(&engine, "INC hits 3"), "OK");
        assert_eq!(single(&engine, "GET hits"), "VALUE 3");
        assert_eq!(single(&engine, "ENQ q 7"), "OK");
        assert_eq!(single(&engine, "ENQ q 8"), "OK");
        assert_eq!(single(&engine, "DEQ q"), "VALUE 7");
        assert_eq!(single(&engine, "DEQ q"), "VALUE 8");
        assert_eq!(single(&engine, "DEQ q"), "NIL");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let engine = engine();
        // Same name, four kinds, no interference.
        assert_eq!(single(&engine, "PUT x 1 5"), "OK");
        assert_eq!(single(&engine, "INC x"), "OK");
        assert_eq!(single(&engine, "ENQ x 9"), "OK");
        assert_eq!(single(&engine, "OPUT x 1 7"), "OK");
        assert_eq!(single(&engine, "GET x 1"), "VALUE 5");
        assert_eq!(single(&engine, "GET x"), "VALUE 1");
        assert_eq!(single(&engine, "DEQ x"), "VALUE 9");
        assert_eq!(single(&engine, "OGET x 1"), "VALUE 7");
    }

    #[test]
    fn ordered_map_round_trip_and_scan() {
        let engine = engine();
        assert_eq!(single(&engine, "OGET o 5"), "NIL");
        assert_eq!(single(&engine, "OPUT o 5 50"), "OK");
        assert_eq!(single(&engine, "OPUT o 2 20"), "OK");
        assert_eq!(single(&engine, "OPUT o 9 90"), "OK");
        assert_eq!(single(&engine, "OGET o 5"), "VALUE 50");
        // Scans are half-open, in key order, one line.
        assert_eq!(single(&engine, "SCAN o 0 10"), "VALUE 3 2=20 5=50 9=90");
        assert_eq!(single(&engine, "SCAN o 2 9"), "VALUE 2 2=20 5=50");
        assert_eq!(single(&engine, "SCAN o 3 3"), "VALUE 0");
        assert_eq!(single(&engine, "ODEL o 5"), "VALUE 50");
        assert_eq!(single(&engine, "SCAN o 0 10"), "VALUE 2 2=20 9=90");
        assert_eq!(single(&engine, "ODEL o 5"), "NIL");
    }

    #[test]
    fn ordered_map_is_proustian_under_every_config() {
        // No baseline implements range scans; the ordered namespace must
        // keep serving them even when `--baseline` swaps the hash maps.
        let mut configs = Vec::new();
        for lap in LapChoice::ALL {
            configs.push(ServerConfig { lap, ..ServerConfig::default() });
        }
        configs.push(ServerConfig { baseline: Some(Baseline::Coarse), ..ServerConfig::default() });
        for config in configs {
            let engine = Engine::new(&config);
            assert_eq!(single(&engine, "OPUT o 1 11"), "OK");
            assert_eq!(single(&engine, "SCAN o 0 64"), "VALUE 1 1=11");
        }
    }

    #[test]
    fn batched_units_all_commit_and_stay_ordered() {
        let engine = engine();
        let units: Vec<Unit> = (0..10)
            .map(|i| {
                let op = engine
                    .resolve(&Cmd::MapPut { name: "m".into(), key: i, value: i * 2 })
                    .unwrap();
                Unit { ops: vec![op] }
            })
            .collect();
        let responses = engine.execute_stages(&units).0;
        assert_eq!(responses.len(), 10);
        for unit in &responses {
            assert_eq!(unit.as_slice(), [Resp::Ok]);
        }
        for i in 0..10u64 {
            assert_eq!(single(&engine, &format!("GET m {i}")), format!("VALUE {}", i * 2));
        }
    }

    #[test]
    fn multi_unit_is_atomic() {
        let engine = engine();
        let ops = vec![
            engine.resolve(&Cmd::MapPut { name: "m".into(), key: 1, value: 1 }).unwrap(),
            engine.resolve(&Cmd::CounterInc { name: "c".into(), delta: 2 }).unwrap(),
            engine.resolve(&Cmd::MapGet { name: "m".into(), key: 1 }).unwrap(),
        ];
        let responses = engine.execute_stages(&[Unit { ops }]).0;
        assert_eq!(responses, vec![vec![Resp::Ok, Resp::Ok, Resp::Value(1)]]);
        assert_eq!(single(&engine, "GET c"), "VALUE 2");
    }

    #[test]
    fn every_quadrant_and_baseline_serves_requests() {
        let mut configs = Vec::new();
        for lap in LapChoice::ALL {
            for update in UpdateChoice::ALL {
                configs.push(ServerConfig { lap, update, ..ServerConfig::default() });
            }
        }
        for baseline in [Baseline::Stm, Baseline::Predication, Baseline::Boosted, Baseline::Coarse]
        {
            configs.push(ServerConfig { baseline: Some(baseline), ..ServerConfig::default() });
        }
        for config in configs {
            let engine = Engine::new(&config);
            assert_eq!(single(&engine, "PUT m 1 10"), "OK");
            assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
        }
    }

    #[test]
    fn stats_json_has_the_report_shape() {
        let engine = engine();
        single(&engine, "PUT m 1 10");
        let json = engine.stats_json(None).to_json();
        let parsed = JsonValue::parse(&json).unwrap();
        assert!(parsed.get("commits").and_then(JsonValue::as_u64).unwrap() >= 1);
        assert!(parsed.get("abort_causes").and_then(|c| c.get("wounded")).is_some());
        assert_eq!(parsed.get("protocol_errors").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(parsed.get("in_flight").and_then(JsonValue::as_u64), Some(0));
        assert!(parsed.get("conflict_matrix_top").and_then(JsonValue::as_array).is_some());
        assert!(parsed.get("op_p99_ns").and_then(|o| o.get("get")).is_some());
        // STATS v3: cumulative contention counters ride along.
        for field in [
            "lock_waits",
            "lock_wait_ns",
            "parks",
            "park_ns",
            "serial_queue_depth",
            "serial_held_ns",
            "contention_ns_lost",
        ] {
            assert!(parsed.get(field).and_then(JsonValue::as_u64).is_some(), "missing {field}");
        }
        // STATS v4: durability fields are always present, zeroed without
        // --data-dir.
        for field in [
            "wal_enabled",
            "wal_records",
            "wal_append_bytes",
            "wal_fsyncs",
            "wal_segments",
            "wal_last_lsn",
            "wal_durable_lsn",
            "wal_checkpoint_lsn",
            "wal_fsync_p99_ns",
            "recovery_replayed",
            "recovery_truncated_bytes",
            "recovery_torn_tails",
        ] {
            assert_eq!(parsed.get(field).and_then(JsonValue::as_u64), Some(0), "field {field}");
        }
        assert!(parsed.get("fsync_policy").is_some());
        // STATS v6: request-waterfall stage quantiles and tail exemplars.
        assert!(parsed.get("slow_requests").and_then(JsonValue::as_u64).is_some());
        for field in ["stage_p50_ns", "stage_p99_ns"] {
            let stages = parsed.get(field).expect(field);
            for stage in [
                "sock_read",
                "parse",
                "batch_wait",
                "stm_exec",
                "wal_append",
                "fsync_wait",
                "resp_encode",
                "sock_flush",
            ] {
                assert!(
                    stages.get(stage).and_then(JsonValue::as_u64).is_some(),
                    "{field} missing stage {stage}"
                );
            }
        }
        assert!(parsed.get("top_stage").is_some());
        assert!(parsed.get("batch_occupancy_p50").and_then(JsonValue::as_u64).is_some());
        assert!(parsed.get("batch_occupancy_p99").and_then(JsonValue::as_u64).is_some());
        assert!(parsed.get("stage_exemplars").and_then(JsonValue::as_array).is_some());
    }

    #[test]
    fn prometheus_exposition_covers_the_required_families() {
        let engine = engine();
        single(&engine, "PUT m 1 10");
        single(&engine, "GET m 1");
        let op = engine.resolve(&Cmd::MapPut { name: "m".into(), key: 2, value: 2 }).unwrap();
        engine.record_op_latency(&op, 12_345);
        let text = engine.prometheus(None);
        let samples = proust_stm::obs::parse_exposition(&text).expect("payload parses");
        for family in [
            "proust_requests_total",
            "proust_txn_starts_total",
            "proust_txn_commits_total",
            "proust_txn_in_flight",
            "proust_serial_mode",
            "proust_connections_open",
            "proust_slow_txns_total",
            "proust_trace_sample_every",
            "proust_lock_waits_total",
            "proust_lock_wait_ns_total",
            "proust_parks_total",
            "proust_serial_held_ns_total",
            "proust_serial_queue_depth",
            "proust_wal_enabled",
            "proust_wal_append_bytes_total",
            "proust_wal_records_total",
            "proust_wal_fsyncs_total",
            "proust_wal_segments",
            "proust_recovery_replayed_total",
            "proust_recovery_truncated_bytes_total",
            "proust_wal_torn_tails_total",
            "proust_slow_requests_total",
        ] {
            assert!(samples.iter().any(|s| s.name == family), "missing family {family}");
        }
        // The request-stage histogram family carries every pipeline stage
        // as a label, each with the full shared bucket ladder.
        for stage in [
            "sock_read",
            "parse",
            "batch_wait",
            "stm_exec",
            "wal_append",
            "fsync_wait",
            "resp_encode",
            "sock_flush",
        ] {
            let les: Vec<&str> = samples
                .iter()
                .filter(|s| {
                    s.name == "proust_request_stage_ns_bucket" && s.label("stage") == Some(stage)
                })
                .filter_map(|s| s.label("le"))
                .collect();
            assert!(les.contains(&"+Inf"), "stage {stage} must end in +Inf");
            assert_eq!(
                les.len(),
                proust_stm::obs::SHARED_NS_BUCKET_BOUNDS.len() + 1,
                "stage {stage} must emit the full shared bucket table"
            );
        }
        let occupancy_les: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_batch_occupancy_bucket")
            .filter_map(|s| s.label("le"))
            .collect();
        assert!(occupancy_les.contains(&"+Inf"));
        // The fsync histogram emits its full bucket ladder even when empty.
        let fsync_les: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_wal_fsync_ns_bucket")
            .filter_map(|s| s.label("le"))
            .collect();
        assert!(fsync_les.contains(&"+Inf"));
        // Contention histograms emit their full shared-bound bucket ladder
        // even when empty, so scrapers always see the families.
        for family in ["proust_lock_hold_ns", "proust_park_ns"] {
            let bucket_name = format!("{family}_bucket");
            let les: Vec<&str> = samples
                .iter()
                .filter(|s| s.name == bucket_name)
                .filter_map(|s| s.label("le"))
                .collect();
            assert!(les.contains(&"+Inf"), "{family} must end in +Inf");
            assert_eq!(
                les.len(),
                proust_stm::obs::SHARED_NS_BUCKET_BOUNDS.len() + 1,
                "{family} must emit the full shared bucket table"
            );
        }
        // Per-site wait and time-weighted pair families are declared even
        // before any contention has been observed.
        assert!(text.contains("# TYPE proust_lock_wait_ns histogram"));
        assert!(text.contains("# TYPE proust_contention_ns_total counter"));
        // Aborts and conflicts are labeled breakdowns.
        let abort_kinds: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_txn_aborts_total")
            .filter_map(|s| s.label("kind"))
            .collect();
        assert_eq!(abort_kinds, ["user", "exhausted"]);
        let conflict_kinds: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_txn_conflicts_total")
            .filter_map(|s| s.label("kind"))
            .collect();
        assert_eq!(conflict_kinds.len(), 8);
        // The recorded put latency shows up as cumulative buckets ending
        // in +Inf.
        let put_buckets: Vec<f64> = samples
            .iter()
            .filter(|s| {
                s.name == "proust_request_latency_ns_bucket" && s.label("op") == Some("put")
            })
            .map(|s| s.value)
            .collect();
        assert!(!put_buckets.is_empty());
        assert!(put_buckets.windows(2).all(|w| w[0] <= w[1]), "buckets not cumulative");
        let requests =
            samples.iter().find(|s| s.name == "proust_requests_total").expect("requests");
        assert!(requests.value >= 2.0);
    }

    /// Unique scratch directory removed on drop (no tempfile dependency).
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "proust-engine-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).expect("create scratch dir");
            ScratchDir(path)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_config(dir: &ScratchDir) -> ServerConfig {
        ServerConfig { data_dir: Some(dir.0.clone()), ..ServerConfig::default() }
    }

    #[test]
    fn wal_round_trip_across_restart() {
        let dir = ScratchDir::new("round-trip");
        let config = durable_config(&dir);
        {
            let engine = Engine::open(&config).unwrap();
            assert_eq!(single(&engine, "PUT m 1 10"), "OK");
            assert_eq!(single(&engine, "PUT m 2 20"), "OK");
            assert_eq!(single(&engine, "DEL m 2"), "VALUE 20");
            assert_eq!(single(&engine, "INC hits 3"), "OK");
            assert_eq!(single(&engine, "ENQ q 7"), "OK");
            assert_eq!(single(&engine, "ENQ q 8"), "OK");
            assert_eq!(single(&engine, "DEQ q"), "VALUE 7");
            assert_eq!(single(&engine, "OPUT o 5 50"), "OK");
            assert_eq!(single(&engine, "OPUT o 6 60"), "OK");
            assert_eq!(single(&engine, "ODEL o 6"), "VALUE 60");
            // No SHUTDOWN, no checkpoint — this models a crash with a
            // synced log (execute() group-fsyncs each burst).
        }
        let engine = Engine::open(&config).unwrap();
        let (replayed, truncated, torn) = engine.recovery_stats();
        assert!(replayed > 0, "recovery must replay the committed records");
        assert_eq!((truncated, torn), (0, 0), "clean log has no torn tail");
        assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
        assert_eq!(single(&engine, "GET m 2"), "NIL");
        assert_eq!(single(&engine, "GET hits"), "VALUE 3");
        assert_eq!(single(&engine, "DEQ q"), "VALUE 8");
        assert_eq!(single(&engine, "DEQ q"), "NIL");
        assert_eq!(single(&engine, "SCAN o 0 100"), "VALUE 1 5=50");
    }

    #[test]
    fn checkpoint_bounds_replay_after_restart() {
        let dir = ScratchDir::new("checkpoint");
        let config = durable_config(&dir);
        {
            let engine = Engine::open(&config).unwrap();
            for i in 0..20u64 {
                assert_eq!(single(&engine, &format!("PUT m {i} {}", i * 3)), "OK");
            }
            assert_eq!(single(&engine, "INC c 5"), "OK");
            assert_eq!(single(&engine, "ENQ q 1"), "OK");
            assert_eq!(single(&engine, "OPUT o 2 4"), "OK");
            let lsn = engine.checkpoint().expect("checkpoint").expect("wal attached");
            assert!(lsn > 0);
        }
        let engine = Engine::open(&config).unwrap();
        // Everything came from the checkpoint; no records to replay.
        assert_eq!(engine.recovery_stats().0, 0, "checkpoint must bound replay to zero");
        assert_eq!(single(&engine, "GET m 7"), "VALUE 21");
        assert_eq!(single(&engine, "GET c"), "VALUE 5");
        assert_eq!(single(&engine, "DEQ q"), "VALUE 1");
        assert_eq!(single(&engine, "OGET o 2"), "VALUE 4");
    }

    #[test]
    fn checkpoint_refuses_while_transactions_are_in_flight() {
        let dir = ScratchDir::new("in-flight");
        let engine = Arc::new(Engine::open(&durable_config(&dir)).unwrap());
        let op = engine.resolve(&Cmd::MapPut { name: "m".into(), key: 1, value: 1 }).unwrap();
        let (tx_entered, rx_entered) = std::sync::mpsc::channel();
        let (tx_release, rx_release) = std::sync::mpsc::channel::<()>();
        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine
                    .stm()
                    .atomically(|tx| {
                        apply_op(tx, &op)?;
                        if tx.attempt() == 1 {
                            // Hold the transaction open (first attempt only,
                            // so a conflict retry cannot double-signal).
                            tx_entered.send(()).unwrap();
                            rx_release.recv().unwrap();
                        }
                        Ok(())
                    })
                    .unwrap();
            })
        };
        rx_entered.recv().unwrap();
        // Drain-then-checkpoint ordering: with a transaction in flight the
        // checkpoint must refuse rather than dump a torn snapshot.
        let err = engine.checkpoint().expect_err("checkpoint must refuse mid-flight");
        assert!(err.contains("in flight"), "unexpected error: {err}");
        tx_release.send(()).unwrap();
        worker.join().unwrap();
        assert!(engine.stm().quiesce(std::time::Duration::from_secs(2)));
        engine.checkpoint().expect("quiesced checkpoint").expect("wal attached");
    }

    #[test]
    fn torn_tail_is_truncated_and_never_replayed() {
        let dir = ScratchDir::new("torn");
        let config = durable_config(&dir);
        {
            let engine = Engine::open(&config).unwrap();
            assert_eq!(single(&engine, "PUT m 1 10"), "OK");
            assert_eq!(single(&engine, "PUT m 2 20"), "OK");
        }
        // Restart with fault injection: a CRC-corrupt partial record is
        // appended before open, modeling a crash mid-append.
        let config_torn = ServerConfig { chaos_torn_tail: true, ..config.clone() };
        let engine = Engine::open(&config_torn).unwrap();
        let (replayed, truncated, torn) = engine.recovery_stats();
        assert_eq!(torn, 1, "injected torn tail must be detected");
        assert!(truncated > 0, "torn bytes must be truncated");
        assert!(replayed >= 2, "intact records before the tear still replay");
        assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
        assert_eq!(single(&engine, "GET m 2"), "VALUE 20");
        drop(engine);
        // The truncation healed the log on disk: a clean reopen sees no tear.
        let engine = Engine::open(&config).unwrap();
        assert_eq!(engine.recovery_stats().2, 0, "healed log must reopen clean");
        assert_eq!(single(&engine, "GET m 2"), "VALUE 20");
    }

    #[test]
    fn baseline_maps_recover_via_full_log_replay() {
        let dir = ScratchDir::new("baseline");
        let config = ServerConfig { baseline: Some(Baseline::Coarse), ..durable_config(&dir) };
        {
            let engine = Engine::open(&config).unwrap();
            assert_eq!(single(&engine, "PUT m 1 10"), "OK");
            // Baselines cannot dump committed entries, so the checkpoint
            // refuses — the log remains the source of truth.
            let err = engine.checkpoint().expect_err("baseline checkpoint must refuse");
            assert!(err.contains("full-log replay"), "unexpected error: {err}");
        }
        let engine = Engine::open(&config).unwrap();
        assert!(engine.recovery_stats().0 > 0);
        assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
    }

    #[test]
    fn aborted_transactions_leave_no_wal_records() {
        let dir = ScratchDir::new("aborted");
        let config = durable_config(&dir);
        {
            let engine = Engine::open(&config).unwrap();
            assert_eq!(single(&engine, "PUT m 1 10"), "OK");
            let op = engine.resolve(&Cmd::MapPut { name: "m".into(), key: 9, value: 99 }).unwrap();
            let result: Result<(), _> = engine.stm().atomically(|tx| {
                apply_op(tx, &op)?;
                Err(TxError::abort("client rollback"))
            });
            assert!(result.is_err());
        }
        let engine = Engine::open(&config).unwrap();
        assert_eq!(single(&engine, "GET m 9"), "NIL", "aborted update must not be replayed");
        assert_eq!(single(&engine, "GET m 1"), "VALUE 10");
    }

    #[test]
    fn waterfall_totals_stages_and_serializes_the_anatomy() {
        let mut wf = Waterfall {
            shard: 2,
            batch_ops: 5,
            fsync_cohort: 3,
            attempts: 2,
            ..Waterfall::default()
        };
        for (index, stage) in STAGES.iter().enumerate() {
            wf.set_stage(*stage, (index as u64 + 1) * 100);
        }
        // total == sum over the stage array, and the arg-max names the
        // heaviest stage.
        assert_eq!(wf.total_ns(), (1..=8).map(|i| i * 100).sum::<u64>());
        assert_eq!(wf.top_stage(), "sock_flush");
        wf.wall_ns = wf.total_ns() + 50; // wall is measured independently
        let json = wf.to_json().to_json();
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(parsed.get("shard").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(parsed.get("batch_ops").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(parsed.get("fsync_cohort").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(parsed.get("stm_attempts").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(parsed.get("total_ns").and_then(JsonValue::as_u64), Some(wf.total_ns()));
        assert_eq!(parsed.get("wall_ns").and_then(JsonValue::as_u64), Some(wf.wall_ns));
        assert_eq!(parsed.get("top_stage").and_then(JsonValue::as_str), Some("sock_flush"));
        let stages = parsed.get("stages").expect("stages object");
        assert_eq!(stages.get("parse").and_then(JsonValue::as_u64), Some(200));
        assert_eq!(stages.get("fsync_wait").and_then(JsonValue::as_u64), Some(600));
    }

    #[test]
    fn stage_histograms_feed_stats_and_exemplars_rank_by_wall_time() {
        let engine = engine();
        for stage in STAGES {
            engine.record_stage(stage, 1_000);
        }
        engine.record_batch_occupancy(4);
        for wall in [10_000u64, 30_000, 20_000, 5_000, 40_000, 1_000] {
            let mut wf = Waterfall { wall_ns: wall, ..Waterfall::default() };
            wf.set_stage(Phase::StmExec, wall / 2);
            engine.note_waterfall(&wf);
        }
        let json = engine.stats_json(None).to_json();
        let parsed = JsonValue::parse(&json).unwrap();
        for stage in ["sock_read", "parse", "sock_flush"] {
            assert!(
                parsed
                    .get("stage_p99_ns")
                    .and_then(|s| s.get(stage))
                    .and_then(JsonValue::as_u64)
                    .unwrap()
                    >= 1_000
            );
        }
        let exemplars = parsed.get("stage_exemplars").and_then(JsonValue::as_array).unwrap();
        // Worst-K only (K = WATERFALL_EXEMPLARS), ordered worst first.
        assert_eq!(exemplars.len(), WATERFALL_EXEMPLARS);
        let walls: Vec<u64> = exemplars
            .iter()
            .map(|e| e.get("wall_ns").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert_eq!(walls, vec![40_000, 30_000, 20_000, 10_000]);
        // The scrape drained the rings: the next STATS starts fresh.
        let again = JsonValue::parse(&engine.stats_json(None).to_json()).unwrap();
        assert_eq!(again.get("stage_exemplars").and_then(JsonValue::as_array).unwrap().len(), 0);
    }

    #[test]
    fn slow_fsync_dominates_the_waterfall() {
        let dir = ScratchDir::new("slow-fsync");
        let config = ServerConfig {
            chaos_fsync_delay: Some(std::time::Duration::from_millis(30)),
            slow_threshold: Some(std::time::Duration::from_millis(1)),
            ..durable_config(&dir)
        };
        let engine = Engine::open(&config).unwrap();
        let op = engine.resolve(&Cmd::MapPut { name: "m".into(), key: 1, value: 1 }).unwrap();
        let (responses, breakdown) = engine.execute_stages(&[Unit { ops: vec![op] }]);
        assert_eq!(responses, vec![vec![Resp::Ok]]);
        // The injected 30ms fsync stall lands in fsync_wait, not in the
        // STM or append stages.
        assert!(
            breakdown.fsync_wait_ns >= 25_000_000,
            "fsync_wait {} must absorb the injected delay",
            breakdown.fsync_wait_ns
        );
        assert!(breakdown.fsync_wait_ns > breakdown.stm_exec_ns + breakdown.wal_append_ns);
        assert!(breakdown.fsync_cohort >= 1, "the commit must become durable");
        assert!(breakdown.attempts >= 1);
        let mut wf = Waterfall {
            fsync_cohort: breakdown.fsync_cohort,
            attempts: breakdown.attempts,
            batch_ops: 1,
            ..Waterfall::default()
        };
        wf.set_stage(Phase::StmExec, breakdown.stm_exec_ns);
        wf.set_stage(Phase::WalAppend, breakdown.wal_append_ns);
        wf.set_stage(Phase::FsyncWait, breakdown.fsync_wait_ns);
        wf.wall_ns = wf.total_ns();
        assert_eq!(wf.top_stage(), "fsync_wait");
        // The forensics record names the culprit stage.
        let record = engine.slow_request_json(&wf);
        assert_eq!(record.get("event").and_then(JsonValue::as_str), Some("slow_request"));
        assert_eq!(record.get("top_stage").and_then(JsonValue::as_str), Some("fsync_wait"));
        let stages = record.get("stages").expect("stages object");
        let sum: u64 = [
            "sock_read",
            "parse",
            "batch_wait",
            "stm_exec",
            "wal_append",
            "fsync_wait",
            "resp_encode",
            "sock_flush",
        ]
        .iter()
        .map(|s| stages.get(s).and_then(JsonValue::as_u64).unwrap())
        .sum();
        let wall = record.get("elapsed_ns").and_then(JsonValue::as_u64).unwrap();
        // Acceptance shape: stage spans sum to the reported latency
        // (exact here, because this waterfall was built from the spans).
        assert_eq!(sum, wall);
    }

    #[test]
    fn trace_commands_round_trip() {
        // The tracer is process-global and other tests may touch it
        // concurrently, so assert only on the responses, not its state.
        let engine = engine();
        assert_eq!(engine.trace_command(TraceCmd::Start(Some(4))), "OK");
        let dump = engine.trace_command(TraceCmd::Dump);
        let payload = dump.strip_prefix("TRACE ").expect("TRACE prefix");
        let doc = JsonValue::parse(payload).expect("chrome trace parses");
        assert!(doc.get("traceEvents").and_then(JsonValue::as_array).is_some());
        assert_eq!(engine.trace_command(TraceCmd::Stop), "OK");
    }
}
