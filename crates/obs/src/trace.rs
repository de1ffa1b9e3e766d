//! Per-thread ring-buffer event tracing.
//!
//! Each worker thread owns a fixed-capacity ring of lifecycle events;
//! emitting an event is a handful of relaxed atomic stores into the
//! owner's ring with no shared-cache-line traffic between workers. A
//! drain walks every registered ring and returns the retained events in
//! timestamp order. Rings overwrite their oldest entries, so a trace
//! retains the *last* `capacity` events per thread.
//!
//! Callers (the STM substrate) always compile their hooks in; while the
//! tracer is disabled, emission is one relaxed load.
//!
//! Concurrency note: slots are per-field atomics. A drain that races a
//! live emitter can observe a torn event (fields from two writes) on
//! the ring's wrap boundary; drains are meant to run after workers
//! quiesce (end of a benchmark cell), where they are exact.

use crate::json::JsonValue;
use crate::site::SiteId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What happened. Discriminants are stable within a run (they appear in
/// drained events and JSON traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction attempt began (`aux` = attempt number).
    TxnStart = 0,
    /// A TVar was read (`aux` = TVar id).
    Read = 1,
    /// A TVar was written (`aux` = TVar id).
    Write = 2,
    /// An abstract lock was acquired (`site` = lock region).
    LockAcquire = 3,
    /// An abstract lock was released at transaction end.
    LockRelease = 4,
    /// A conflict aborted the attempt (`aux` = conflict-kind code,
    /// `site` = aborter's op site).
    Conflict = 5,
    /// Lazy replay of an update log began at the serialization point.
    ReplayBegin = 6,
    /// Lazy replay finished (`aux` = replayed entry count if known).
    ReplayEnd = 7,
    /// Commit-time read validation began.
    CommitValidate = 8,
    /// Write-back (ownership held, publishing buffered writes) began.
    CommitWriteback = 9,
    /// The transaction committed (`aux` = attempt number).
    Commit = 10,
    /// The transaction gave up or was explicitly aborted.
    Abort = 11,
    /// A sampled per-phase span (`aux` packs the [`Phase`] code in the
    /// high 8 bits and the duration in nanoseconds in the low 56;
    /// `at_ns` is the span's start time).
    Span = 12,
}

impl EventKind {
    fn from_u8(raw: u8) -> EventKind {
        match raw {
            0 => EventKind::TxnStart,
            1 => EventKind::Read,
            2 => EventKind::Write,
            3 => EventKind::LockAcquire,
            4 => EventKind::LockRelease,
            5 => EventKind::Conflict,
            6 => EventKind::ReplayBegin,
            7 => EventKind::ReplayEnd,
            8 => EventKind::CommitValidate,
            9 => EventKind::CommitWriteback,
            10 => EventKind::Commit,
            12 => EventKind::Span,
            _ => EventKind::Abort,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxnStart => "txn_start",
            EventKind::Read => "read",
            EventKind::Write => "write",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::Conflict => "conflict",
            EventKind::ReplayBegin => "replay_begin",
            EventKind::ReplayEnd => "replay_end",
            EventKind::CommitValidate => "commit_validate",
            EventKind::CommitWriteback => "commit_writeback",
            EventKind::Commit => "commit",
            EventKind::Abort => "abort",
            EventKind::Span => "span",
        }
    }
}

/// Transaction phase named by a sampled [`EventKind::Span`] event. The
/// taxonomy follows the TL2-style commit pipeline: the body builds the
/// read set, commit acquires write ownership, validates the read set,
/// replays a lazy update log if any, then writes buffered values back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Body execution: read-set build and write buffering.
    Body = 0,
    /// Blocking in a write-ownership acquisition loop.
    LockAcquire = 1,
    /// Commit-time read-set validation.
    Validate = 2,
    /// Lazy replay of the update log at the serialization point.
    Replay = 3,
    /// Publishing buffered writes while ownership is held.
    Writeback = 4,
    /// The whole transaction, first attempt start to final outcome.
    Txn = 5,
    /// Request stage: reading bytes off the socket (reactor `fill`).
    SockRead = 6,
    /// Request stage: wire parse/translate into executable units.
    Parse = 7,
    /// Request stage: waiting for the commit batch to flush.
    BatchWait = 8,
    /// Request stage: STM execution, all attempts included.
    StmExec = 9,
    /// Request stage: WAL append on the committing thread.
    WalAppend = 10,
    /// Request stage: waiting on (or performing) the group fsync.
    FsyncWait = 11,
    /// Request stage: encoding responses onto the outbound buffer.
    RespEncode = 12,
    /// Request stage: flushing the outbound buffer to the socket.
    SockFlush = 13,
    /// The whole request, reactor read to response flush.
    Request = 14,
}

/// The eight request-lifecycle stages in pipeline order. Indexes into
/// per-stage metric arrays follow this order everywhere.
pub const STAGES: [Phase; 8] = [
    Phase::SockRead,
    Phase::Parse,
    Phase::BatchWait,
    Phase::StmExec,
    Phase::WalAppend,
    Phase::FsyncWait,
    Phase::RespEncode,
    Phase::SockFlush,
];

impl Phase {
    /// Decode a phase code (inverse of `as u8`); unknown codes map to
    /// [`Phase::Txn`].
    pub fn from_u8(raw: u8) -> Phase {
        match raw {
            0 => Phase::Body,
            1 => Phase::LockAcquire,
            2 => Phase::Validate,
            3 => Phase::Replay,
            4 => Phase::Writeback,
            6 => Phase::SockRead,
            7 => Phase::Parse,
            8 => Phase::BatchWait,
            9 => Phase::StmExec,
            10 => Phase::WalAppend,
            11 => Phase::FsyncWait,
            12 => Phase::RespEncode,
            13 => Phase::SockFlush,
            14 => Phase::Request,
            _ => Phase::Txn,
        }
    }

    /// Stable snake_case name used in traces, forensics, and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Body => "read_set_build",
            Phase::LockAcquire => "lock_acquire",
            Phase::Validate => "validation",
            Phase::Replay => "replay",
            Phase::Writeback => "commit_writeback",
            Phase::Txn => "txn",
            Phase::SockRead => "sock_read",
            Phase::Parse => "parse",
            Phase::BatchWait => "batch_wait",
            Phase::StmExec => "stm_exec",
            Phase::WalAppend => "wal_append",
            Phase::FsyncWait => "fsync_wait",
            Phase::RespEncode => "resp_encode",
            Phase::SockFlush => "sock_flush",
            Phase::Request => "request",
        }
    }

    /// Whether this phase is a request-lifecycle stage (or the whole
    /// `Request` envelope) rather than an STM transaction phase. Trace
    /// viewers use the distinction to put server anatomy in its own
    /// category.
    pub fn is_stage(self) -> bool {
        self as u8 >= Phase::SockRead as u8
    }
}

/// Duration mask for span `aux` packing: low 56 bits hold nanoseconds
/// (enough for ~2 years), high 8 bits hold the phase code.
const SPAN_DUR_MASK: u64 = (1 << 56) - 1;

/// Pack a phase + duration into a span `aux` payload.
pub fn pack_span_aux(phase: Phase, dur_ns: u64) -> u64 {
    ((phase as u64) << 56) | (dur_ns & SPAN_DUR_MASK)
}

/// One drained lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch (process-wide, comparable
    /// across threads).
    pub at_ns: u64,
    /// Id of the transaction the event belongs to.
    pub txn: u64,
    /// What happened.
    pub kind: EventKind,
    /// Site label of the op (or lock region / aborter, per kind).
    pub site: SiteId,
    /// Kind-specific payload (TVar id, attempt, conflict code).
    pub aux: u64,
    /// Registration index of the emitting thread's ring — a stable
    /// per-thread lane id for trace viewers.
    pub tid: u32,
}

impl TraceEvent {
    /// Decode a [`EventKind::Span`] event's phase and duration, or
    /// `None` for other kinds.
    pub fn span(&self) -> Option<(Phase, u64)> {
        (self.kind == EventKind::Span)
            .then(|| (Phase::from_u8((self.aux >> 56) as u8), self.aux & SPAN_DUR_MASK))
    }
}

struct Slot {
    at_ns: AtomicU64,
    // kind in low 8 bits, site in high 32, "filled" flag in bit 8.
    kind_site: AtomicU64,
    txn: AtomicU64,
    aux: AtomicU64,
}

const FILLED: u64 = 1 << 8;

struct Ring {
    slots: Box<[Slot]>,
    head: AtomicUsize,
    tid: u32,
}

impl Ring {
    fn new(capacity: usize, tid: u32) -> Ring {
        Ring {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    at_ns: AtomicU64::new(0),
                    kind_site: AtomicU64::new(0),
                    txn: AtomicU64::new(0),
                    aux: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicUsize::new(0),
            tid,
        }
    }

    fn push(&self, at_ns: u64, txn: u64, kind: EventKind, site: SiteId, aux: u64) {
        let index = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[index];
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.txn.store(txn, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.kind_site
            .store((kind as u64) | FILLED | ((site.as_u32() as u64) << 32), Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        for slot in self.slots.iter() {
            let kind_site = slot.kind_site.load(Ordering::Acquire);
            if kind_site & FILLED == 0 {
                continue;
            }
            out.push(TraceEvent {
                at_ns: slot.at_ns.load(Ordering::Relaxed),
                txn: slot.txn.load(Ordering::Relaxed),
                kind: EventKind::from_u8(kind_site as u8),
                site: SiteId::from_u32((kind_site >> 32) as u32),
                aux: slot.aux.load(Ordering::Relaxed),
                tid: self.tid,
            });
        }
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.kind_site.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

/// Process-wide trace collector. Disabled (one relaxed load per hook)
/// until [`Tracer::enable`] is called.
pub struct Tracer {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    sample_every: AtomicU64,
    rings: Mutex<Vec<Arc<Ring>>>,
    epoch: Instant,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("threads", &self.rings.lock().len())
            .finish()
    }
}

/// Default per-thread ring capacity (events retained per thread).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Consecutive transactions recorded per sampling window (see
/// [`Tracer::sample`]).
pub const SAMPLE_BURST: u64 = 8;

thread_local! {
    static THREAD_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    // Per-thread sampling counter. A process-global atomic would be one
    // `fetch_add` per transaction on a single shared cache line — measured
    // at >20% throughput on small uncontended transactions. Counting per
    // thread keeps the same 1-in-N rate (each thread samples every Nth of
    // its own transactions) without any cross-core traffic.
    static SAMPLE_COUNTER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Tracer {
    /// The process-wide tracer instance.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| Tracer {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            sample_every: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        })
    }

    /// Begin retaining events. Threads that emitted before `enable`
    /// keep their ring; capacity changes only affect threads that
    /// register afterwards.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stop retaining events (hooks drop back to one relaxed load).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Whether emission is currently retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set the ring capacity used by threads that first emit after this
    /// call.
    pub fn set_ring_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::SeqCst);
    }

    /// Set the sampling rate: record spans for 1-in-`n` transactions.
    /// `0` disables sampling, `1` samples everything. This is a runtime
    /// knob: flipping it never requires a rebuild.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n, Ordering::SeqCst);
    }

    /// Current sampling rate (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Decide whether the next transaction is sampled. Cheap enough for
    /// the start of every transaction: one relaxed load when tracing or
    /// sampling is off, one thread-local counter bump when on.
    ///
    /// Sampling is bursty: each thread records [`SAMPLE_BURST`]
    /// consecutive transactions out of every `n * SAMPLE_BURST`, which
    /// averages to the requested 1-in-`n` rate. Bursts keep the recording
    /// path warm (a 1-in-`n` cold path pays icache/branch misses on every
    /// sampled transaction) and give traces runs of consecutive
    /// transactions instead of isolated ones.
    pub fn sample(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        match self.sample_every.load(Ordering::Relaxed) {
            0 => false,
            1 => true,
            n => SAMPLE_COUNTER.with(|counter| {
                let count = counter.get();
                counter.set(count.wrapping_add(1));
                count % n.saturating_mul(SAMPLE_BURST) < SAMPLE_BURST
            }),
        }
    }

    /// Nanoseconds since the tracer's epoch — the timebase span start
    /// times are expressed in.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Emit one event from the calling thread. No-op while disabled.
    pub fn emit(&'static self, txn: u64, kind: EventKind, site: SiteId, aux: u64) {
        if !self.is_enabled() {
            return;
        }
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push(at_ns, txn, kind, site, aux);
    }

    /// Emit one event with a caller-supplied timestamp (a
    /// [`Tracer::now_ns`] reading). Hot paths that already hold a fresh
    /// reading use this to avoid a second clock read — at ~30ns per read
    /// the clock dominates the cost of recording a sampled transaction.
    /// No-op while disabled.
    pub fn emit_at(&'static self, at_ns: u64, txn: u64, kind: EventKind, site: SiteId, aux: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(at_ns, txn, kind, site, aux);
    }

    /// Emit a sampled per-phase span: `start_ns` from [`Tracer::now_ns`]
    /// and a measured duration. No-op while disabled.
    pub fn emit_span(
        &'static self,
        txn: u64,
        phase: Phase,
        site: SiteId,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(start_ns, txn, EventKind::Span, site, pack_span_aux(phase, dur_ns));
    }

    fn push(&'static self, at_ns: u64, txn: u64, kind: EventKind, site: SiteId, aux: u64) {
        THREAD_RING.with(|cell| {
            let ring = cell.get_or_init(|| {
                let mut rings = self.rings.lock();
                let ring =
                    Arc::new(Ring::new(self.capacity.load(Ordering::SeqCst), rings.len() as u32));
                rings.push(ring.clone());
                ring
            });
            ring.push(at_ns, txn, kind, site, aux);
        });
    }

    /// Collect every retained event across all threads, sorted by
    /// timestamp. Exact once emitting threads have quiesced.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let rings = self.rings.lock();
        let mut out = Vec::new();
        for ring in rings.iter() {
            ring.drain_into(&mut out);
        }
        out.sort_by_key(|e| (e.at_ns, e.txn));
        out
    }

    /// Drop all retained events (rings stay registered).
    pub fn clear(&self) {
        for ring in self.rings.lock().iter() {
            ring.clear();
        }
    }

    /// Drain and encode the retained events as a Chrome trace-event
    /// JSON document, loadable in `chrome://tracing` and Perfetto.
    pub fn to_chrome_trace(&self) -> JsonValue {
        events_to_chrome_trace(&self.drain())
    }
}

/// Encode drained events as Chrome trace-event JSON: sampled spans
/// become `"X"` (complete) events with microsecond `ts`/`dur`, every
/// other lifecycle event becomes a thread-scoped `"i"` (instant) mark.
pub fn events_to_chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let trace_events: Vec<JsonValue> = events
        .iter()
        .map(|event| {
            let mut obj = vec![
                ("pid", JsonValue::u64(0)),
                ("tid", JsonValue::u64(event.tid as u64)),
                ("ts", JsonValue::num(event.at_ns as f64 / 1000.0)),
            ];
            let mut args = vec![
                ("txn", JsonValue::u64(event.txn)),
                ("site", JsonValue::str(event.site.name())),
            ];
            match event.span() {
                Some((phase, dur_ns)) => {
                    obj.push(("ph", JsonValue::str("X")));
                    obj.push(("name", JsonValue::str(phase.name())));
                    obj.push((
                        "cat",
                        JsonValue::str(if phase.is_stage() { "stage" } else { "phase" }),
                    ));
                    obj.push(("dur", JsonValue::num(dur_ns as f64 / 1000.0)));
                }
                None => {
                    obj.push(("ph", JsonValue::str("i")));
                    obj.push(("s", JsonValue::str("t")));
                    obj.push(("name", JsonValue::str(event.kind.name())));
                    obj.push(("cat", JsonValue::str("lifecycle")));
                    args.push(("aux", JsonValue::u64(event.aux)));
                }
            }
            obj.push(("args", JsonValue::obj(args)));
            JsonValue::obj(obj)
        })
        .collect();
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(trace_events)),
        ("displayTimeUnit", JsonValue::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> SiteId {
        SiteId::intern("trace-test.op")
    }

    /// The tracer is process-global; tests that toggle it must not
    /// overlap.
    fn exclusive() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_tracer_retains_nothing() {
        let _gate = exclusive();
        let tracer = Tracer::global();
        tracer.disable();
        tracer.clear();
        tracer.emit(1, EventKind::TxnStart, site(), 0);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn events_round_trip_and_sort() {
        let _gate = exclusive();
        let tracer = Tracer::global();
        tracer.clear();
        tracer.enable();
        tracer.emit(7, EventKind::TxnStart, site(), 1);
        tracer.emit(7, EventKind::Read, site(), 42);
        tracer.emit(7, EventKind::Commit, site(), 1);
        tracer.disable();
        let events = tracer.drain();
        tracer.clear();
        let mine: Vec<_> = events.iter().filter(|e| e.txn == 7).collect();
        assert!(mine.len() >= 3, "retained {} events", mine.len());
        assert_eq!(mine[0].kind, EventKind::TxnStart);
        assert_eq!(mine[1].kind, EventKind::Read);
        assert_eq!(mine[1].aux, 42);
        assert_eq!(mine[1].site, site());
        assert_eq!(mine[2].kind, EventKind::Commit);
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.at_ns, e.txn));
        assert_eq!(events, sorted);
    }

    #[test]
    fn rings_overwrite_oldest() {
        let ring = Ring::new(8, 0);
        for i in 0..20u64 {
            ring.push(i, i, EventKind::Read, SiteId::UNKNOWN, 0);
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|e| e.at_ns >= 12));
    }

    #[test]
    fn kind_codes_round_trip() {
        for raw in 0..=12u8 {
            let kind = EventKind::from_u8(raw);
            assert_eq!(kind as u8, raw);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn span_aux_packs_phase_and_duration() {
        for phase in [
            Phase::Body,
            Phase::LockAcquire,
            Phase::Validate,
            Phase::Replay,
            Phase::Writeback,
            Phase::Txn,
            Phase::SockRead,
            Phase::Parse,
            Phase::BatchWait,
            Phase::StmExec,
            Phase::WalAppend,
            Phase::FsyncWait,
            Phase::RespEncode,
            Phase::SockFlush,
            Phase::Request,
        ] {
            assert_eq!(Phase::from_u8(phase as u8), phase);
            assert!(!phase.name().is_empty());
            let aux = pack_span_aux(phase, 123_456_789);
            let event = TraceEvent {
                at_ns: 0,
                txn: 1,
                kind: EventKind::Span,
                site: SiteId::UNKNOWN,
                aux,
                tid: 0,
            };
            assert_eq!(event.span(), Some((phase, 123_456_789)));
        }
        // Durations saturate into 56 bits rather than corrupting the
        // phase code.
        let aux = pack_span_aux(Phase::Validate, u64::MAX);
        assert_eq!((aux >> 56) as u8, Phase::Validate as u8);
    }

    #[test]
    fn stages_enumerate_the_request_pipeline() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "sock_read",
                "parse",
                "batch_wait",
                "stm_exec",
                "wal_append",
                "fsync_wait",
                "resp_encode",
                "sock_flush",
            ]
        );
        assert!(STAGES.iter().all(|s| s.is_stage()));
        assert!(Phase::Request.is_stage());
        assert!(!Phase::Txn.is_stage());
        assert!(!Phase::Writeback.is_stage());
    }

    #[test]
    fn sampler_honors_rate() {
        let _gate = exclusive();
        let tracer = Tracer::global();
        tracer.enable();
        tracer.set_sample_every(0);
        assert!(!tracer.sample(), "rate 0 must never sample");
        tracer.set_sample_every(1);
        assert!(tracer.sample() && tracer.sample(), "rate 1 must always sample");
        tracer.set_sample_every(4);
        // Bursty sampling: over any whole number of windows the average
        // must be exactly the configured rate.
        let window = 4 * SAMPLE_BURST as usize;
        let draws = 100 * window;
        let hits = (0..draws).filter(|_| tracer.sample()).count();
        assert_eq!(hits, draws / 4, "1-in-4 sampling over {draws} draws");
        // And within one window the sampled draws are consecutive.
        let pattern: Vec<bool> = (0..window).map(|_| tracer.sample()).collect();
        let sampled_run = pattern.iter().take_while(|&&s| s).count();
        assert_eq!(sampled_run, SAMPLE_BURST as usize, "burst is consecutive: {pattern:?}");
        assert!(!pattern[SAMPLE_BURST as usize..].iter().any(|&s| s), "rest of window is quiet");
        tracer.disable();
        assert!(!tracer.sample(), "disabled tracer must never sample");
        tracer.set_sample_every(0);
    }

    #[test]
    fn chrome_trace_encodes_spans_and_instants() {
        let _gate = exclusive();
        let tracer = Tracer::global();
        tracer.clear();
        tracer.enable();
        let start = tracer.now_ns();
        tracer.emit(99, EventKind::TxnStart, site(), 1);
        tracer.emit_span(99, Phase::Validate, site(), start, 5_000);
        tracer.emit(99, EventKind::Commit, site(), 1);
        tracer.disable();
        let doc = tracer.to_chrome_trace();
        tracer.clear();
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
        assert!(!events.is_empty());
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(span.get("name").and_then(JsonValue::as_str), Some("validation"));
        assert_eq!(span.get("dur").and_then(JsonValue::as_f64), Some(5.0));
        assert_eq!(
            span.get("args").and_then(|a| a.get("txn")).and_then(JsonValue::as_u64),
            Some(99)
        );
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .expect("one instant event");
        assert!(instant.get("ts").and_then(JsonValue::as_f64).is_some());
        // The encoded document survives a serialize/parse round trip.
        let reparsed = JsonValue::parse(&doc.to_json()).expect("chrome trace parses");
        assert_eq!(reparsed, doc);
    }
}
