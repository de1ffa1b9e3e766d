//! Readiness-driven I/O core for the Proust server.
//!
//! The serving path needs tens of thousands of concurrent sockets on a
//! handful of threads, which rules out thread-per-connection blocking
//! I/O. This crate provides the three building blocks the server
//! composes, with zero external dependencies:
//!
//! * [`Poller`] / [`Wakeup`] — thin safe wrappers over raw
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait` and `eventfd` syscalls
//!   (declared directly against the system libc; see [`sys`]). The
//!   eventfd doubles as a cross-thread doorbell: shutdown and new-socket
//!   handoff both park on the *same* poller as the sockets, so no thread
//!   in the subsystem ever sleep-polls.
//! * [`Conn`] — a per-connection state machine over a nonblocking
//!   `TcpStream`: edge-triggered fill-until-`WouldBlock` reads into a
//!   growable input buffer, queued writes with partial-write cursors,
//!   and pause/resume backpressure against the [`HIGH_WATER`] /
//!   [`LOW_WATER`] marks.
//! * [`Shard`] — one event loop owning a slab of connections. Protocol
//!   logic stays out of this crate: the server hands the shard a
//!   [`ConnHandler`] factory, and the shard calls
//!   [`ConnHandler::on_data`] whenever a connection's input buffer may
//!   hold complete requests.
//!
//! Tokens carry a 32-bit generation so a slot recycled within one
//! `epoll_wait` batch cannot receive a stale event meant for the
//! connection that previously owned it.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proust_obs::hist::Histogram;

pub mod sys;

use sys::{
    EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD,
    EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};

/// Pause reading from a connection once this many response bytes are
/// queued and unsent — the peer is not draining its socket, so parsing
/// more of its pipeline would only buy unbounded memory growth.
pub const HIGH_WATER: usize = 256 * 1024;
/// Resume a paused connection once its queued output drains below this.
pub const LOW_WATER: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Wakeup
// ---------------------------------------------------------------------

/// A cross-thread doorbell: an `eventfd` registered with a [`Poller`].
/// `notify` is async-signal-light (one 8-byte write) and idempotent —
/// multiple notifies before a drain coalesce into one readable event.
pub struct Wakeup {
    file: File,
}

impl Wakeup {
    pub fn new() -> io::Result<Wakeup> {
        let fd = sys::sys_eventfd()?;
        // SAFETY: sys_eventfd returned a freshly created fd we uniquely own.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Wakeup { file: File::from(owned) })
    }

    /// Ring the doorbell. Never blocks; an `EAGAIN` (counter saturated)
    /// already implies a pending readable event, so it is ignored.
    pub fn notify(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Consume pending notifications so the next `notify` re-arms the
    /// edge-triggered readiness.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while matches!((&self.file).read(&mut buf), Ok(8)) {}
    }
}

impl AsRawFd for Wakeup {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

// ---------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------

/// Readiness bits for one token, decoded from an epoll event.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer closed or the socket errored; the connection is done for.
    pub hangup: bool,
}

/// Reusable event buffer for [`Poller::wait`].
pub struct Events {
    slots: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    pub fn with_capacity(capacity: usize) -> Events {
        Events { slots: vec![EpollEvent::new(0, 0); capacity.max(1)], len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = Ready> + '_ {
        self.slots[..self.len].iter().map(|event| {
            let bits = event.events();
            let token = event.data();
            Ready {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            }
        })
    }
}

/// Interest mask for a bidirectional edge-triggered connection.
pub const INTEREST_CONN: u32 = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
/// Interest mask for a level-triggered accept/listen socket.
pub const INTEREST_ACCEPT: u32 = EPOLLIN;
/// Interest mask for an edge-triggered wakeup eventfd.
pub const INTEREST_WAKEUP: u32 = EPOLLIN | EPOLLET;

/// Safe epoll instance.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let fd = sys::sys_epoll_create()?;
        // SAFETY: sys_epoll_create returned a freshly created fd we uniquely own.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd })
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let event = EpollEvent::new(interest, token);
        sys::sys_epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, Some(event))
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let event = EpollEvent::new(interest, token);
        sys::sys_epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_MOD, fd, Some(event))
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, None)
    }

    /// Block until readiness or `timeout_ms` (-1 = forever). Fills
    /// `events` and returns the ready count.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        let n = sys::sys_epoll_wait(self.epfd.as_raw_fd(), &mut events.slots, timeout_ms)?;
        events.len = n;
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

/// Result of draining a socket's readable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Bytes appended to the input buffer by this fill.
    pub bytes: usize,
    /// The peer sent FIN; no more input will ever arrive.
    pub eof: bool,
}

/// One nonblocking connection: input accumulation, output queue with a
/// partial-write cursor, and the pause flag the shard uses for
/// backpressure.
pub struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes. Handlers drain complete requests from
    /// the front and leave partial trailing data in place.
    pub inbuf: Vec<u8>,
    out: Vec<u8>,
    out_start: usize,
    /// Set by the shard when queued output crossed [`HIGH_WATER`];
    /// cleared when it drains below [`LOW_WATER`].
    pub paused: bool,
    /// Close once all queued output has been flushed.
    pub close_after_flush: bool,
    /// The peer half-closed; drain remaining requests, then close.
    pub eof: bool,
    /// Wall time the shard spent in the [`Conn::fill`] that preceded the
    /// current [`ConnHandler::on_data`] call — the `sock_read` stage of
    /// the request waterfall. One clock pair per readiness event,
    /// amortized over every request the fill buffered.
    pub last_fill_ns: u64,
}

impl Conn {
    /// Wrap an accepted stream: switches it to nonblocking and disables
    /// Nagle (responses are small and latency-sensitive).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            inbuf: Vec::new(),
            out: Vec::new(),
            out_start: 0,
            paused: false,
            close_after_flush: false,
            eof: false,
            last_fill_ns: 0,
        })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    pub fn peer_addr(&self) -> Option<std::net::SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// Read until `WouldBlock` or EOF (edge-triggered sockets must be
    /// drained completely or readiness is lost). Connection-level errors
    /// (reset, aborted) are reported as EOF rather than failures — the
    /// peer is gone either way.
    pub fn fill(&mut self) -> Fill {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Fill { bytes: total, eof: true };
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    return Fill { bytes: total, eof: false };
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    return Fill { bytes: total, eof: true };
                }
            }
        }
    }

    /// Queue response bytes for transmission.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet written to the socket.
    pub fn pending_out(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// Write queued output until done or `WouldBlock`. Returns `true`
    /// when the queue is fully drained. A connection-level write error
    /// marks the connection EOF and discards the queue (the responses
    /// can never be delivered, and keeping them would leave the shard
    /// waiting on a flush that cannot succeed).
    pub fn flush(&mut self) -> bool {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    self.eof = true;
                    self.out_start = self.out.len();
                    break;
                }
                Ok(n) => self.out_start += n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.eof = true;
                    self.out_start = self.out.len();
                    break;
                }
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
            return true;
        }
        // Reclaim the written prefix once it dominates the buffer, so a
        // slow reader can't pin the whole history of its responses.
        if self.out_start > 64 * 1024 && self.out_start * 2 > self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        false
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Shared reactor counters, exported through the server's Prometheus
/// endpoint and STATS v5.
pub struct ReactorMetrics {
    /// `epoll_wait` returns across all shards (each is one wakeup).
    pub wakeups: AtomicU64,
    /// Ready-event batch sizes per wakeup.
    pub ready_events: Histogram,
    /// Pause transitions: a connection crossed [`HIGH_WATER`].
    pub backpressure: AtomicU64,
    conns: Vec<AtomicU64>,
}

impl ReactorMetrics {
    pub fn new(shards: usize) -> ReactorMetrics {
        ReactorMetrics {
            wakeups: AtomicU64::new(0),
            ready_events: Histogram::new(),
            backpressure: AtomicU64::new(0),
            conns: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.conns.len()
    }

    /// Open connections currently owned by each shard.
    pub fn connections_per_shard(&self) -> Vec<u64> {
        self.conns.iter().map(|gauge| gauge.load(Ordering::Relaxed)).collect()
    }

    pub fn wakeups_total(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    pub fn backpressure_total(&self) -> u64 {
        self.backpressure.load(Ordering::Relaxed)
    }

    fn conn_opened(&self, shard: usize) {
        self.conns[shard].fetch_add(1, Ordering::Relaxed);
    }

    fn conn_closed(&self, shard: usize) {
        self.conns[shard].fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// What the handler wants done with the connection after `on_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep serving.
    Continue,
    /// Flush queued responses, then close (QUIT, protocol error).
    CloseAfterFlush,
    /// Close immediately, discarding queued output.
    Close,
}

/// Per-connection protocol logic, supplied by the server. Called with
/// the connection whenever its input buffer may contain complete
/// requests; the handler drains what it consumes from the front of
/// `conn.inbuf` and appends encoded responses with `conn.queue`.
pub trait ConnHandler {
    fn on_data(&mut self, conn: &mut Conn) -> Directive;

    /// Called after the shard's post-`on_data` flush with the wall time
    /// the write syscalls took — the `sock_flush` stage of the request
    /// waterfall. Only invoked when the flush had queued bytes to move.
    /// Default: ignore.
    fn on_flushed(&mut self, _conn: &mut Conn, _flush_ns: u64) {}
}

/// Sending half of a shard's new-connection channel; used by acceptor
/// threads. Cloneable and cheap.
#[derive(Clone)]
pub struct ShardInbox {
    queue: Arc<Mutex<VecDeque<TcpStream>>>,
    wakeup: Arc<Wakeup>,
}

impl ShardInbox {
    /// Hand a freshly accepted stream to the shard and wake its loop.
    pub fn push(&self, stream: TcpStream) {
        self.queue.lock().expect("shard inbox poisoned").push_back(stream);
        self.wakeup.notify();
    }

    /// Wake the shard without a new connection (shutdown broadcast).
    pub fn notify(&self) {
        self.wakeup.notify();
    }
}

const TOKEN_WAKEUP: u64 = 0;

fn token_for(index: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | (index as u64 + 1)
}

struct Slot<H> {
    conn: Conn,
    handler: H,
    generation: u32,
}

/// One reactor event loop: a poller, a wakeup doorbell, an inbox of
/// freshly accepted sockets, and a generation-tagged slab of
/// connections.
pub struct Shard {
    id: usize,
    poller: Poller,
    wakeup: Arc<Wakeup>,
    inbox: Arc<Mutex<VecDeque<TcpStream>>>,
}

impl Shard {
    pub fn new(id: usize) -> io::Result<(Shard, ShardInbox)> {
        let poller = Poller::new()?;
        let wakeup = Arc::new(Wakeup::new()?);
        poller.add(wakeup.as_raw_fd(), TOKEN_WAKEUP, INTEREST_WAKEUP)?;
        let inbox = Arc::new(Mutex::new(VecDeque::new()));
        let sender = ShardInbox { queue: Arc::clone(&inbox), wakeup: Arc::clone(&wakeup) };
        Ok((Shard { id, poller, wakeup, inbox }, sender))
    }

    /// Run the event loop until `stop` is observed true (the doorbell
    /// must be rung after setting it). On stop, every connection gets
    /// one final parse pass and a best-effort flush before closing, so
    /// responses to already-received requests (e.g. the `OK` for
    /// `SHUTDOWN`) are delivered.
    pub fn run<H, F>(mut self, mut factory: F, metrics: &ReactorMetrics, stop: &AtomicBool)
    where
        H: ConnHandler,
        F: FnMut() -> H,
    {
        let mut slots: Vec<Option<Slot<H>>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut generation: u32 = 0;
        let mut events = Events::with_capacity(1024);

        loop {
            if self.poller.wait(&mut events, -1).is_err() {
                break;
            }
            metrics.wakeups.fetch_add(1, Ordering::Relaxed);
            metrics.ready_events.record(events.len() as u64);

            for ready in events.iter().collect::<Vec<_>>() {
                if ready.token == TOKEN_WAKEUP {
                    self.wakeup.drain();
                    if !stop.load(Ordering::Acquire) {
                        self.adopt_new_conns(
                            &mut slots,
                            &mut free,
                            &mut generation,
                            &mut factory,
                            metrics,
                        );
                    }
                    continue;
                }
                let index = (ready.token & 0xFFFF_FFFF) as usize - 1;
                let event_generation = (ready.token >> 32) as u32;
                let stale = slots
                    .get(index)
                    .and_then(|slot| slot.as_ref())
                    .is_none_or(|slot| slot.generation != event_generation);
                if stale {
                    continue;
                }
                if self.pump(&mut slots, index, ready, metrics) {
                    self.close_slot(&mut slots, &mut free, index, metrics);
                }
            }

            if stop.load(Ordering::Acquire) {
                self.drain_and_close_all(&mut slots, metrics);
                return;
            }
        }
    }

    /// Move inbox arrivals into slots and register them with the poller.
    fn adopt_new_conns<H, F>(
        &mut self,
        slots: &mut Vec<Option<Slot<H>>>,
        free: &mut Vec<usize>,
        generation: &mut u32,
        factory: &mut F,
        metrics: &ReactorMetrics,
    ) where
        H: ConnHandler,
        F: FnMut() -> H,
    {
        loop {
            let stream = self.inbox.lock().expect("shard inbox poisoned").pop_front();
            let Some(stream) = stream else { return };
            let Ok(conn) = Conn::new(stream) else { continue };
            *generation = generation.wrapping_add(1);
            let slot = Slot { conn, handler: factory(), generation: *generation };
            let index = match free.pop() {
                Some(index) => {
                    slots[index] = Some(slot);
                    index
                }
                None => {
                    slots.push(Some(slot));
                    slots.len() - 1
                }
            };
            let slot_ref = slots[index].as_ref().expect("slot just filled");
            let token = token_for(index, *generation);
            if self.poller.add(slot_ref.conn.raw_fd(), token, INTEREST_CONN).is_err() {
                slots[index] = None;
                free.push(index);
                continue;
            }
            metrics.conn_opened(self.id);
            // A pipelined client may have sent requests before we
            // registered; with edge triggering the initial readable edge
            // may already have passed, so prime the connection once.
            let ready = Ready { token, readable: true, writable: false, hangup: false };
            if self.pump(slots, index, ready, metrics) {
                self.close_slot(slots, free, index, metrics);
            }
        }
    }

    /// Advance one connection's state machine for one readiness event.
    /// Returns `true` when the connection should be closed.
    fn pump<H: ConnHandler>(
        &self,
        slots: &mut [Option<Slot<H>>],
        index: usize,
        ready: Ready,
        metrics: &ReactorMetrics,
    ) -> bool {
        let slot = slots[index].as_mut().expect("pump on empty slot");
        let conn = &mut slot.conn;

        if ready.writable {
            conn.flush();
        }

        // Resume a paused connection once its output queue has drained.
        let resumed = conn.paused && conn.pending_out() < LOW_WATER;
        if resumed {
            conn.paused = false;
        }

        if (ready.readable || resumed) && !conn.paused {
            // One pass suffices: fill() drains the socket to EWOULDBLOCK,
            // so by the time on_data runs every readable byte is buffered.
            if !conn.eof {
                let fill_start = std::time::Instant::now();
                conn.fill();
                conn.last_fill_ns = fill_start.elapsed().as_nanos() as u64;
            } else {
                conn.last_fill_ns = 0;
            }
            match slot.handler.on_data(conn) {
                Directive::Continue => {}
                Directive::CloseAfterFlush => conn.close_after_flush = true,
                Directive::Close => return true,
            }
            if conn.pending_out() > 0 {
                let flush_start = std::time::Instant::now();
                conn.flush();
                let flush_ns = flush_start.elapsed().as_nanos() as u64;
                slot.handler.on_flushed(conn, flush_ns);
            }
            if conn.pending_out() >= HIGH_WATER {
                conn.paused = true;
                metrics.backpressure.fetch_add(1, Ordering::Relaxed);
            }
        }

        if conn.close_after_flush && conn.pending_out() == 0 {
            return true;
        }
        if conn.eof {
            // Peer is gone (or half-closed with nothing left to parse):
            // close once no complete requests remain unanswered. A
            // pipelining client that shut down its write side may still
            // be reading, so undelivered responses ride the normal
            // writable-edge flush path before the socket closes.
            if conn.pending_out() == 0 {
                return true;
            }
            conn.close_after_flush = true;
        }
        if ready.hangup && !ready.readable {
            return true;
        }
        false
    }

    fn close_slot<H>(
        &self,
        slots: &mut [Option<Slot<H>>],
        free: &mut Vec<usize>,
        index: usize,
        metrics: &ReactorMetrics,
    ) {
        if let Some(slot) = slots[index].take() {
            let _ = self.poller.delete(slot.conn.raw_fd());
            metrics.conn_closed(self.id);
            free.push(index);
        }
    }

    /// Shutdown path: give every connection one final parse pass (so
    /// requests already in the buffer get answered), flush best-effort,
    /// and close. Inbox stragglers are dropped unserved.
    fn drain_and_close_all<H: ConnHandler>(
        &mut self,
        slots: &mut [Option<Slot<H>>],
        metrics: &ReactorMetrics,
    ) {
        for maybe in slots.iter_mut() {
            if let Some(mut slot) = maybe.take() {
                if !slot.conn.inbuf.is_empty() {
                    let _ = slot.handler.on_data(&mut slot.conn);
                }
                slot.conn.flush();
                let _ = self.poller.delete(slot.conn.raw_fd());
                metrics.conn_closed(self.id);
            }
        }
        self.inbox.lock().expect("shard inbox poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn wakeup_rouses_a_parked_poller() {
        let poller = Poller::new().expect("epoll");
        let wakeup = Wakeup::new().expect("eventfd");
        poller.add(wakeup.as_raw_fd(), 7, INTEREST_WAKEUP).expect("add");
        let mut events = Events::with_capacity(4);
        // Nothing pending: a short wait times out empty.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
        wakeup.notify();
        assert_eq!(poller.wait(&mut events, 1000).expect("wait"), 1);
        let ready = events.iter().next().expect("one event");
        assert_eq!(ready.token, 7);
        assert!(ready.readable);
        // Drain re-arms the edge: with the counter consumed, no event.
        wakeup.drain();
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
        // Coalesced notifies produce a single event.
        wakeup.notify();
        wakeup.notify();
        assert_eq!(poller.wait(&mut events, 1000).expect("wait"), 1);
    }

    /// Uppercases complete lines; closes on a line saying "quit".
    struct UpcaseLines;

    impl ConnHandler for UpcaseLines {
        fn on_data(&mut self, conn: &mut Conn) -> Directive {
            // Drain every complete line in one pass — a per-line drain
            // from the buffer's front goes quadratic once a deep
            // pipeline accumulates megabytes of input.
            let Some(last) = conn.inbuf.iter().rposition(|&b| b == b'\n') else {
                return Directive::Continue;
            };
            let complete: Vec<u8> = conn.inbuf.drain(..=last).collect();
            for line in complete.split_inclusive(|&b| b == b'\n') {
                if line.starts_with(b"quit") {
                    conn.queue(b"bye\n");
                    return Directive::CloseAfterFlush;
                }
                let upper: Vec<u8> = line.iter().map(|b| b.to_ascii_uppercase()).collect();
                conn.queue(&upper);
            }
            Directive::Continue
        }
    }

    fn spawn_echo_shard() -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        ShardInbox,
        std::thread::JoinHandle<()>,
        Arc<ReactorMetrics>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (shard, inbox) = Shard::new(0).expect("shard");
        let metrics = Arc::new(ReactorMetrics::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || shard.run(|| UpcaseLines, &metrics, &stop))
        };
        // Acceptor inline: push the first few connections by hand.
        let acceptor_inbox = inbox.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                acceptor_inbox.push(stream);
            }
        });
        (addr, stop, inbox, thread, metrics)
    }

    #[test]
    fn shard_serves_pipelined_lines_and_counts_connections() {
        let (addr, stop, inbox, thread, metrics) = spawn_echo_shard();

        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // Deep pipeline in a single write.
        client.write_all(b"one\ntwo\nthree\n").expect("write");
        let mut got = Vec::new();
        while got.len() < 14 {
            let mut chunk = [0u8; 64];
            let n = client.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed early");
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(&got, b"ONE\nTWO\nTHREE\n");
        assert_eq!(metrics.connections_per_shard(), vec![1]);

        // Handler-driven close: "quit" answers then closes.
        client.write_all(b"quit\n").expect("write");
        let mut tail = Vec::new();
        client.read_to_end(&mut tail).expect("read to close");
        assert_eq!(&tail, b"bye\n");

        stop.store(true, Ordering::Release);
        inbox.notify();
        thread.join().expect("shard thread");
        assert_eq!(metrics.connections_per_shard(), vec![0]);
        assert!(metrics.wakeups_total() > 0);
        assert!(metrics.ready_events.count() > 0);
    }

    /// Echoes lines like [`UpcaseLines`] but records the waterfall
    /// hooks: the fill timing the shard stamped on the connection and
    /// every `on_flushed` callback.
    struct TimingProbe {
        fills_timed: Arc<AtomicU64>,
        flushes: Arc<AtomicU64>,
        flush_ns: Arc<AtomicU64>,
    }

    impl ConnHandler for TimingProbe {
        fn on_data(&mut self, conn: &mut Conn) -> Directive {
            // The shard must have timed the fill that buffered this data.
            if !conn.inbuf.is_empty() && conn.last_fill_ns > 0 {
                self.fills_timed.fetch_add(1, Ordering::Relaxed);
            }
            let Some(last) = conn.inbuf.iter().rposition(|&b| b == b'\n') else {
                return Directive::Continue;
            };
            let complete: Vec<u8> = conn.inbuf.drain(..=last).collect();
            conn.queue(&complete);
            Directive::Continue
        }

        fn on_flushed(&mut self, _conn: &mut Conn, flush_ns: u64) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.flush_ns.fetch_add(flush_ns, Ordering::Relaxed);
        }
    }

    #[test]
    fn shard_times_fills_and_reports_flushes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (shard, inbox) = Shard::new(0).expect("shard");
        let metrics = Arc::new(ReactorMetrics::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let fills_timed = Arc::new(AtomicU64::new(0));
        let flushes = Arc::new(AtomicU64::new(0));
        let flush_ns = Arc::new(AtomicU64::new(0));
        let thread = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let (fills_timed, flushes, flush_ns) =
                (Arc::clone(&fills_timed), Arc::clone(&flushes), Arc::clone(&flush_ns));
            std::thread::spawn(move || {
                shard.run(
                    || TimingProbe {
                        fills_timed: Arc::clone(&fills_timed),
                        flushes: Arc::clone(&flushes),
                        flush_ns: Arc::clone(&flush_ns),
                    },
                    &metrics,
                    &stop,
                )
            })
        };
        let acceptor_inbox = inbox.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                acceptor_inbox.push(stream);
            }
        });

        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        client.write_all(b"hello\n").expect("write");
        let mut reply = [0u8; 6];
        client.read_exact(&mut reply).expect("read");
        assert_eq!(&reply, b"hello\n");

        assert!(fills_timed.load(Ordering::Relaxed) > 0, "fill was not timed");
        // on_flushed fires only after write(2) returns, so the echo can
        // reach the client before the shard thread bumps the counter.
        let deadline = Instant::now() + Duration::from_secs(5);
        while flushes.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(flushes.load(Ordering::Relaxed) > 0, "on_flushed never fired");

        stop.store(true, Ordering::Release);
        inbox.notify();
        thread.join().expect("shard thread");
    }

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        // x86-64 packs epoll_event to 12 bytes; every other Linux arch
        // uses natural alignment (16 bytes, data at offset 8). A wrong
        // stride would misroute tokens and overrun the Events buffer.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
        let ev = EpollEvent::new(EPOLLIN, 0xdead_beef_cafe);
        assert_eq!(ev.events(), EPOLLIN);
        assert_eq!(ev.data(), 0xdead_beef_cafe);
    }

    #[test]
    fn half_closed_client_still_receives_pipelined_responses() {
        let (addr, stop, inbox, thread, _metrics) = spawn_echo_shard();
        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

        // Pipeline enough requests to overflow kernel socket buffers,
        // then half-close the write side. The shard sees EOF with output
        // still queued and must deliver every response through the
        // writable-edge path before closing. The write runs on its own
        // thread (it can block against backpressure until we drain), and
        // the reader is throttled so the shard stays backlogged when the
        // FIN arrives.
        // Kernel socket buffers auto-tune to several MB on loopback, so
        // the burst has to be well past that for the flush path to ever
        // see `WouldBlock` while the reader lags.
        let line = [b'x'; 63];
        let mut burst = Vec::new();
        let mut expected = 0usize;
        while expected < 64 * HIGH_WATER {
            burst.extend_from_slice(&line);
            burst.push(b'\n');
            expected += line.len() + 1;
        }
        let writer = client.try_clone().expect("clone");
        let writer_thread = std::thread::spawn(move || {
            let mut writer = writer;
            writer.write_all(&burst).expect("write burst");
            writer.shutdown(std::net::Shutdown::Write).expect("half-close");
        });

        let mut got = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let n = client.read(&mut chunk).expect("read");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
            std::thread::sleep(Duration::from_millis(1));
        }
        writer_thread.join().expect("writer thread");
        assert_eq!(got.len(), expected, "responses lost after half-close");
        assert!(got.iter().all(|&b| b == b'X' || b == b'\n'));

        stop.store(true, Ordering::Release);
        inbox.notify();
        thread.join().expect("shard thread");
    }

    #[test]
    fn shutdown_answers_buffered_requests_before_closing() {
        let (addr, stop, inbox, thread, _metrics) = spawn_echo_shard();
        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        client.write_all(b"ping\n").expect("write");
        // Wait for the reply so the request is definitely buffered server-side.
        let mut reply = [0u8; 5];
        client.read_exact(&mut reply).expect("read");
        assert_eq!(&reply, b"PING\n");

        stop.store(true, Ordering::Release);
        inbox.notify();
        thread.join().expect("shard thread");
        // The socket observes a clean close.
        let mut tail = Vec::new();
        client.read_to_end(&mut tail).expect("read close");
        assert!(tail.is_empty());
    }
}
