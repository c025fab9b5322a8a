//! The event loop: one thread owning every client socket.
//!
//! ```text
//!                 ┌───────────────────────────────────────────┐
//!                 │            reactor (one thread)           │
//!   accept ──────▶│  poller: listener + wake pipe + N conns   │
//!   TCP clients ─▶│  per-conn: read_buf → lines → admit/park  │
//!                 │  write_q → writev (zero-copy frames)      │
//!                 └───────┬───────────────────────▲───────────┘
//!                  submit │                       │ completions
//!                 ┌───────▼───────┐      ┌────────┴──────────┐
//!                 │   JobQueue    │ next │  scan workers     │
//!                 │  (bounded)    ├─────▶│  (self-healing)   │──▶ wake pipe
//!                 └───────────────┘      └───────────────────┘
//! ```
//!
//! Per-connection state machine: **reading** (bounded line
//! accumulation) → **parsing** (fast-path scan extraction, value-tree
//! fallback) → **queued** (admitted to the [`JobQueue`], or *parked*
//! under backpressure) → **responding** (frames drained by `writev`).
//!
//! Backpressure is the only answer to overload: when a connection's
//! in-flight window fills, or the job queue is at capacity, the
//! overflowing request is *parked* (one per connection) and the
//! connection's reads are suspended — the client's own TCP send buffer
//! backs up, which is the flow control. Reads resume when completions
//! drain the queue.
//!
//! Responses are serialized exactly once, worker-side, into the frame
//! the reactor writes from ([`Responder::send`]) — the zero-copy path:
//! no re-serialization, no intermediate copy, `writev` straight out of
//! the frame buffers.
//!
//! Request settlement is a single atomic: the worker's delivery, the
//! reactor's deadline expiry, and the crashed-worker drop guard all
//! race on [`Responder`]'s `settled` swap, and exactly one side wins —
//! so a request is answered exactly once, and late reports for
//! timed-out or disconnected requests are discarded, never misdelivered.

use std::collections::{BinaryHeap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_obs::Counter;
use saint_sync::Mutex;
use serde::Deserialize as _;

use crate::protocol::{self, error_code, Envelope, ErrorResponse, PROTOCOL_VERSION};
use crate::queue::{Admission, Job};
use crate::server::Shared;

/// Bytes appended to a connection's read buffer per `read` call.
const READ_CHUNK: usize = 128 * 1024;

/// Reads per readiness event before yielding back to the poller, so
/// one firehose connection cannot starve its peers.
const READS_PER_EVENT: usize = 4;

/// Frames handed to one `writev` call (IOV_MAX is far higher
/// everywhere; this bounds stack usage).
const FRAMES_PER_WRITEV: usize = 32;

/// Idle safety tick: the loop wakes at least this often even with no
/// events, deadlines, or completions pending.
const IDLE_TICK: Duration = Duration::from_millis(250);

/// How long a draining daemon waits for stalled clients to accept
/// their last frames before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Poller token of the TCP listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the wake-pipe read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------
// Worker → reactor hand-off
// ---------------------------------------------------------------------

/// A finished response frame addressed to one connection generation.
pub(crate) struct Completion {
    slot: usize,
    gen: u64,
    frame: Vec<u8>,
}

/// The mailbox scan workers drop finished frames into, plus the wake
/// pipe that gets the reactor's attention. Shared by every worker and
/// the drop guards of in-queue jobs.
pub(crate) struct CompletionSink {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl CompletionSink {
    pub(crate) fn new(wake_tx: UnixStream) -> Self {
        CompletionSink {
            completions: Mutex::new(Vec::new()),
            wake_tx,
        }
    }

    fn push(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.wake();
    }

    /// Pokes the reactor. A full pipe means a wake is already pending,
    /// so `WouldBlock` (and any other failure — the reactor polls on a
    /// safety tick regardless) is ignorable.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }
}

/// The response end of one admitted scan: whoever wins the `settled`
/// swap — worker delivery, reactor deadline, or this guard's drop —
/// answers the request, exactly once.
pub(crate) struct Responder {
    sink: Arc<CompletionSink>,
    slot: usize,
    gen: u64,
    id: Option<u64>,
    settled: Arc<AtomicBool>,
    state: ResponderState,
}

enum ResponderState {
    Fresh,
    Won,
    Done,
}

impl Responder {
    pub(crate) fn new(
        sink: Arc<CompletionSink>,
        slot: usize,
        gen: u64,
        id: Option<u64>,
        settled: Arc<AtomicBool>,
    ) -> Self {
        Responder {
            sink,
            slot,
            gen,
            id,
            settled,
            state: ResponderState::Fresh,
        }
    }

    /// The request id to echo on the response frame.
    pub(crate) fn id(&self) -> Option<u64> {
        self.id
    }

    /// Whether the request was already answered (deadline expiry);
    /// workers use this to skip stale queue entries without scanning.
    pub(crate) fn is_settled(&self) -> bool {
        self.settled.load(Ordering::Acquire)
    }

    /// Claims the right to answer. `true` at most once per request
    /// across all racing parties; after `true`, [`send`](Self::send)
    /// must follow (the drop guard covers the panic window between).
    pub(crate) fn begin(&mut self) -> bool {
        if self.settled.swap(true, Ordering::AcqRel) {
            self.state = ResponderState::Done;
            false
        } else {
            self.state = ResponderState::Won;
            true
        }
    }

    /// Defuses the drop guard: the request is being re-parked (queue
    /// rejection) and a fresh responder will be minted on readmission.
    pub(crate) fn disarm(mut self) {
        self.state = ResponderState::Done;
    }

    /// Ships the serialized response frame to the reactor.
    pub(crate) fn send(mut self, frame: Vec<u8>) {
        self.state = ResponderState::Done;
        self.sink.push(Completion {
            slot: self.slot,
            gen: self.gen,
            frame,
        });
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        let won = match self.state {
            ResponderState::Done => return,
            ResponderState::Won => true,
            ResponderState::Fresh => !self.settled.swap(true, Ordering::AcqRel),
        };
        if !won {
            return;
        }
        // The worker unwound between dequeue and delivery (injected
        // `queue_handoff` fault, or a real bug): the client gets the
        // same typed answer the thread-per-connection daemon gave.
        let err = ErrorResponse::new(
            error_code::INTERNAL,
            "scan worker crashed before completing the job; resubmit",
        )
        .with_phase("queue_handoff")
        .with_id(self.id);
        self.sink.push(Completion {
            slot: self.slot,
            gen: self.gen,
            frame: protocol::to_line(&err).into_bytes(),
        });
    }
}

/// Live reactor gauges read by `status`/`metrics` (counters live in
/// the [`MetricsRegistry`](saint_obs::MetricsRegistry)).
#[derive(Default)]
pub(crate) struct ReactorGauges {
    /// Connections currently owned by the reactor.
    pub(crate) open_conns: AtomicUsize,
    /// Scans received and not yet answered, across all connections.
    pub(crate) inflight: AtomicUsize,
    /// Connections whose reads are suspended for backpressure.
    pub(crate) suspended: AtomicUsize,
}

// ---------------------------------------------------------------------
// Reactor internals
// ---------------------------------------------------------------------

/// A scan request that exists but is not yet admitted to the queue —
/// the "parked" slot of the backpressure protocol.
struct PendingScan {
    package_b64: String,
    id: Option<u64>,
    settled: Arc<AtomicBool>,
    /// Routes the job through the incremental artifact store
    /// (`delta` verb) instead of a plain scan.
    delta: bool,
}

/// One deadline-armed request, ordered soonest-first in the heap.
struct DeadlineEntry {
    at: Instant,
    seq: u64,
    slot: usize,
    gen: u64,
    id: Option<u64>,
    settled: Arc<AtomicBool>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the soonest
        // deadline on top.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Unframed bytes; complete lines are consumed left to right and
    /// the partial tail is compacted to the front.
    read_buf: Vec<u8>,
    /// Response frames awaiting the socket, first frame partially
    /// written up to `write_off`.
    write_q: VecDeque<Vec<u8>>,
    write_off: usize,
    /// Scans received and unanswered (admitted + parked).
    inflight: usize,
    /// At most one request waiting for queue space or window room.
    parked: Option<PendingScan>,
    /// Reads suspended (backpressure); mirrored in the gauges.
    suspended: bool,
    /// Peer closed its write half; serve what's in flight, then close.
    read_closed: bool,
    /// Flush the write queue, then close (lost framing or drain).
    closing: bool,
    /// Interest set currently registered with the poller.
    registered: crate::sys::Interest,
}

impl Conn {
    /// The interest set this connection's state wants.
    fn desired_interest(&self) -> crate::sys::Interest {
        crate::sys::Interest {
            read: !self.suspended && !self.read_closed && !self.closing,
            write: !self.write_q.is_empty(),
        }
    }
}

/// What handling one request line did to the connection's read flow.
enum LineFlow {
    /// Keep consuming buffered lines.
    Continue,
    /// The line parked a scan; stop reading until backpressure lifts.
    Parked,
    /// The connection is closing; stop consuming.
    Stop,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: crate::sys::Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    /// Generation per slot, bumped on reuse so stale completions and
    /// deadline entries for a previous occupant are discarded.
    gens: Vec<u64>,
    free: Vec<usize>,
    deadlines: BinaryHeap<DeadlineEntry>,
    deadline_seq: u64,
    /// Set once the drain transition (close listener, quiesce conns)
    /// has run.
    draining: bool,
    drain_started: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        wake_rx: UnixStream,
    ) -> std::io::Result<Self> {
        let mut poller = crate::sys::Poller::new()?;
        poller.register(
            listener.as_raw_fd(),
            TOKEN_LISTENER,
            crate::sys::Interest {
                read: true,
                write: false,
            },
        )?;
        poller.register(
            wake_rx.as_raw_fd(),
            TOKEN_WAKE,
            crate::sys::Interest {
                read: true,
                write: false,
            },
        )?;
        Ok(Reactor {
            shared,
            poller,
            listener: Some(listener),
            wake_rx,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            deadlines: BinaryHeap::new(),
            deadline_seq: 0,
            draining: false,
            drain_started: None,
        })
    }

    /// The loop. Returns when the daemon has fully drained: listener
    /// closed, every connection flushed and gone.
    pub(crate) fn run(mut self) {
        let mut events: Vec<crate::sys::PollEvent> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            if self.poller.wait(Some(timeout), &mut events).is_err() {
                // A failing poller is unrecoverable; drop everything so
                // clients see closed connections rather than silence.
                return;
            }
            let mut accept_ready = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => {
                        self.on_conn_event(token as usize, ev.readable, ev.writable, ev.hangup)
                    }
                }
            }
            // Completions can arrive between the wake byte and the
            // poll; draining unconditionally is one cheap lock.
            self.process_completions();
            self.fire_deadlines();
            self.pump_parked();
            if accept_ready {
                self.accept_ready();
            }
            if self.shared.shutting_down.load(Ordering::Acquire) {
                self.enter_drain();
                if self.drain_finished() {
                    return;
                }
            }
        }
    }

    /// Sleep budget: the soonest of the next request deadline, the
    /// drain force-close point, and the idle safety tick.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = IDLE_TICK;
        if let Some(entry) = self.deadlines.peek() {
            timeout = timeout.min(entry.at.saturating_duration_since(now));
        }
        if let Some(started) = self.drain_started {
            let force_at = started + DRAIN_GRACE;
            timeout = timeout.min(force_at.saturating_duration_since(now));
        }
        timeout
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0_u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return, // all wake writers gone
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock or a real error: drained
            }
        }
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock, or transient (EMFILE):
                                  // retry on the next readiness event
            };
            if self.shared.shutting_down.load(Ordering::Acquire) {
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // One-line responses must leave immediately, not sit in
            // Nagle's buffer waiting for the client's delayed ACK.
            let _ = stream.set_nodelay(true);
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.conns.push(None);
                    self.gens.push(0);
                    self.conns.len() - 1
                }
            };
            self.gens[slot] += 1;
            let gen = self.gens[slot];
            let interest = crate::sys::Interest {
                read: true,
                write: false,
            };
            if self
                .poller
                .register(stream.as_raw_fd(), slot as u64, interest)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Conn {
                stream,
                gen,
                read_buf: Vec::new(),
                write_q: VecDeque::new(),
                write_off: 0,
                inflight: 0,
                parked: None,
                suspended: false,
                read_closed: false,
                closing: false,
                registered: interest,
            });
            self.shared
                .gauges
                .open_conns
                .fetch_add(1, Ordering::Relaxed);
            self.shared.registry.add(Counter::ConnectionsAccepted, 1);
        }
    }

    // -- connection events -------------------------------------------

    fn on_conn_event(&mut self, slot: usize, readable: bool, writable: bool, hangup: bool) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier in this batch
        }
        if writable {
            self.flush(slot);
        }
        if readable {
            self.on_readable(slot);
        }
        if hangup {
            if let Some(conn) = self.conn(slot) {
                // EPOLLHUP/ERR without readable data left: the socket
                // is dead in both directions.
                if !readable || conn.read_closed {
                    self.close(slot);
                }
            }
        }
    }

    fn conn(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    fn on_readable(&mut self, slot: usize) {
        let max_line = self.shared.max_line_bytes;
        let mut saw_eof = false;
        {
            let Some(conn) = self.conn(slot) else { return };
            if conn.suspended || conn.read_closed || conn.closing {
                return; // stale level-triggered event
            }
            for _ in 0..READS_PER_EVENT {
                let len = conn.read_buf.len();
                conn.read_buf.resize(len + READ_CHUNK, 0);
                match conn.stream.read(&mut conn.read_buf[len..]) {
                    Ok(0) => {
                        conn.read_buf.truncate(len);
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.truncate(len + n);
                        if n < READ_CHUNK {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        conn.read_buf.truncate(len);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.read_buf.truncate(len);
                        break;
                    }
                    Err(_) => {
                        conn.read_buf.truncate(len);
                        self.close(slot);
                        return;
                    }
                }
            }
        }
        self.process_lines(slot);
        if saw_eof {
            self.on_read_eof(slot);
            return;
        }
        // Oversized-line guard: after consuming complete lines, what
        // remains is one partial line from offset 0.
        let partial_over = self
            .conn(slot)
            .is_some_and(|conn| conn.read_buf.len() > max_line);
        if partial_over {
            self.answer_too_large(slot);
        }
    }

    /// Answers `too_large` and schedules a flush-then-close: an
    /// over-limit line costs the connection its framing, never the
    /// daemon.
    fn answer_too_large(&mut self, slot: usize) {
        let max_line = self.shared.max_line_bytes;
        let Some(conn) = self.conn(slot) else { return };
        conn.read_buf = Vec::new();
        conn.closing = true; // framing is lost — flush, then close
        let err = ErrorResponse::new(
            error_code::TOO_LARGE,
            format!("request line exceeds {max_line} bytes"),
        );
        self.push_frame(slot, protocol::to_line(&err).into_bytes());
    }

    /// Peer closed its write half: any unterminated tail still counts
    /// as a request (mirrors the bounded reader's EOF contract), then
    /// the connection closes once everything in flight is answered and
    /// flushed.
    fn on_read_eof(&mut self, slot: usize) {
        let tail = {
            let Some(conn) = self.conn(slot) else { return };
            conn.read_closed = true;
            std::mem::take(&mut conn.read_buf)
        };
        if !tail.is_empty() {
            let Some(conn) = self.conn(slot) else { return };
            if conn.parked.is_none() {
                let _ = self.handle_line(slot, &tail);
            }
            // A parked connection drops the tail: its reads were
            // already suspended, and the peer is gone anyway.
        }
        self.maybe_finish(slot);
    }

    /// Consumes complete lines from the read buffer until it runs dry,
    /// a request parks, or the connection closes.
    fn process_lines(&mut self, slot: usize) {
        let max_line = self.shared.max_line_bytes;
        loop {
            let line = {
                let Some(conn) = self.conn(slot) else { return };
                if conn.parked.is_some() || conn.closing {
                    return;
                }
                let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                    return;
                };
                let mut line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
                line.pop(); // the newline
                line
            };
            if line.len() > max_line {
                self.answer_too_large(slot);
                return;
            }
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            match self.handle_line(slot, &line) {
                LineFlow::Continue => {}
                LineFlow::Parked | LineFlow::Stop => return,
            }
        }
    }

    /// Parses and services one request line.
    fn handle_line(&mut self, slot: usize, line: &[u8]) -> LineFlow {
        let Ok(text) = std::str::from_utf8(line) else {
            let err = ErrorResponse::new(
                error_code::MALFORMED,
                "not a protocol message: invalid UTF-8",
            );
            self.push_frame(slot, protocol::to_line(&err).into_bytes());
            return LineFlow::Continue;
        };
        // Hot path: a scan request recognized without a value tree.
        if let Some(fast) = protocol::parse_scan_fast(text) {
            if fast.v != u64::from(PROTOCOL_VERSION) {
                let err = ErrorResponse::new(
                    error_code::UNSUPPORTED_VERSION,
                    format!(
                        "protocol v{} requested, server speaks v{PROTOCOL_VERSION}",
                        fast.v
                    ),
                )
                .with_id(fast.id);
                self.push_frame(slot, protocol::to_line(&err).into_bytes());
                return LineFlow::Continue;
            }
            if let Some(spec) = fast.detectors {
                if let Some(msg) = self.shared.detector_mismatch(spec) {
                    let err =
                        ErrorResponse::new(error_code::DETECTOR_MISMATCH, msg).with_id(fast.id);
                    self.push_frame(slot, protocol::to_line(&err).into_bytes());
                    return LineFlow::Continue;
                }
            }
            return self.begin_scan(
                slot,
                fast.package_b64.to_owned(),
                fast.id,
                fast.deadline_ms,
                false,
            );
        }
        // Slow path: full value-tree dispatch (non-scan verbs, and any
        // scan shape the fast parser deferred on).
        let value = match serde_json::from_str_value(text) {
            Ok(value) => value,
            Err(e) => {
                let err = ErrorResponse::new(
                    error_code::MALFORMED,
                    format!("not a protocol message: {e}"),
                );
                self.push_frame(slot, protocol::to_line(&err).into_bytes());
                return LineFlow::Continue;
            }
        };
        // Attribute errors to the request id whenever one is readable,
        // so pipelined clients can match rejections to requests.
        let id = value.get("id").and_then(serde::Value::as_u64);
        let envelope = match Envelope::from_value(&value) {
            Ok(env) => env,
            Err(e) => {
                let err = ErrorResponse::new(
                    error_code::MALFORMED,
                    format!("not a protocol message: {e}"),
                )
                .with_id(id);
                self.push_frame(slot, protocol::to_line(&err).into_bytes());
                return LineFlow::Continue;
            }
        };
        if envelope.v != PROTOCOL_VERSION {
            let err = ErrorResponse::new(
                error_code::UNSUPPORTED_VERSION,
                format!(
                    "protocol v{} requested, server speaks v{PROTOCOL_VERSION}",
                    envelope.v
                ),
            )
            .with_id(id);
            self.push_frame(slot, protocol::to_line(&err).into_bytes());
            return LineFlow::Continue;
        }
        match envelope.kind.as_deref() {
            // `delta` shares the scan request shape end to end; the
            // flag only changes which worker path serves the job.
            Some(kind @ ("scan" | "delta")) => {
                use crate::protocol::ScanRequest;
                match ScanRequest::from_value(&value) {
                    Ok(req) => {
                        if let Some(spec) = req.detectors.as_deref() {
                            if let Some(msg) = self.shared.detector_mismatch(spec) {
                                let err = ErrorResponse::new(error_code::DETECTOR_MISMATCH, msg)
                                    .with_id(req.id);
                                self.push_frame(slot, protocol::to_line(&err).into_bytes());
                                return LineFlow::Continue;
                            }
                        }
                        self.begin_scan(
                            slot,
                            req.package_b64,
                            req.id,
                            req.deadline_ms,
                            kind == "delta",
                        )
                    }
                    Err(e) => {
                        let err = ErrorResponse::new(
                            error_code::MALFORMED,
                            format!("bad {kind} request: {e}"),
                        )
                        .with_id(id);
                        self.push_frame(slot, protocol::to_line(&err).into_bytes());
                        LineFlow::Continue
                    }
                }
            }
            Some("status") => {
                let frame = protocol::to_line(&self.shared.status()).into_bytes();
                self.push_frame(slot, frame);
                LineFlow::Continue
            }
            Some("metrics") => {
                let frame = protocol::to_line(&self.shared.metrics()).into_bytes();
                self.push_frame(slot, frame);
                LineFlow::Continue
            }
            Some("shutdown") => {
                // Acknowledge with the final counters, then drain.
                let frame = protocol::to_line(&self.shared.status()).into_bytes();
                self.push_frame(slot, frame);
                self.shared.begin_shutdown();
                LineFlow::Stop
            }
            other => {
                let err = ErrorResponse::new(
                    error_code::MALFORMED,
                    format!("unknown request kind {other:?}"),
                )
                .with_id(id);
                self.push_frame(slot, protocol::to_line(&err).into_bytes());
                LineFlow::Continue
            }
        }
    }

    // -- scan admission & backpressure -------------------------------

    /// Registers a freshly received scan (in-flight accounting + its
    /// deadline), then tries to admit it.
    fn begin_scan(
        &mut self,
        slot: usize,
        package_b64: String,
        id: Option<u64>,
        deadline_ms: Option<u64>,
        delta: bool,
    ) -> LineFlow {
        let settled = Arc::new(AtomicBool::new(false));
        let gen = match self.conn(slot) {
            Some(conn) => {
                conn.inflight += 1;
                conn.gen
            }
            None => return LineFlow::Stop,
        };
        self.shared.gauges.inflight.fetch_add(1, Ordering::Relaxed);
        if let Some(ms) = deadline_ms {
            self.deadline_seq += 1;
            self.deadlines.push(DeadlineEntry {
                at: Instant::now() + Duration::from_millis(ms),
                seq: self.deadline_seq,
                slot,
                gen,
                id,
                settled: Arc::clone(&settled),
            });
        }
        self.admit(
            slot,
            PendingScan {
                package_b64,
                id,
                settled,
                delta,
            },
        )
    }

    /// Admits a pending scan to the job queue, parks it under
    /// backpressure, or answers it with a terminal rejection.
    fn admit(&mut self, slot: usize, pending: PendingScan) -> LineFlow {
        // A deadline may have fired while the request was parked; it
        // was already answered and accounted then.
        if pending.settled.load(Ordering::Acquire) {
            return LineFlow::Continue;
        }
        if self.shared.queue.is_draining() {
            return self.reject_draining(slot, &pending.settled, pending.id);
        }
        let window = self.shared.window;
        let window_full = self.conn(slot).is_some_and(|conn| conn.inflight > window);
        if window_full {
            return self.park(slot, pending);
        }
        let gen = match self.conn(slot) {
            Some(conn) => conn.gen,
            None => return LineFlow::Stop,
        };
        let PendingScan {
            package_b64,
            id,
            settled,
            delta,
        } = pending;
        let responder = Responder::new(
            Arc::clone(&self.shared.sink),
            slot,
            gen,
            id,
            Arc::clone(&settled),
        );
        let job = Job {
            package_b64,
            responder,
            enqueued_at: Instant::now(),
            delta,
        };
        match self.shared.queue.submit(job) {
            Ok(()) => LineFlow::Continue,
            Err((job, admission)) => {
                let Job {
                    package_b64,
                    responder,
                    ..
                } = job;
                responder.disarm();
                match admission {
                    Admission::Busy => self.park(
                        slot,
                        PendingScan {
                            package_b64,
                            id,
                            settled,
                            delta,
                        },
                    ),
                    Admission::Draining => self.reject_draining(slot, &settled, id),
                }
            }
        }
    }

    /// Answers a pending scan with `draining` (if nothing beat us to
    /// it) and releases its in-flight accounting.
    fn reject_draining(&mut self, slot: usize, settled: &AtomicBool, id: Option<u64>) -> LineFlow {
        if settled.swap(true, Ordering::AcqRel) {
            return LineFlow::Continue; // deadline answered it first
        }
        self.dec_inflight(slot);
        let err =
            ErrorResponse::new(error_code::DRAINING, "daemon is draining for shutdown").with_id(id);
        self.push_frame(slot, protocol::to_line(&err).into_bytes());
        LineFlow::Continue
    }

    /// Parks the scan and suspends the connection's reads
    /// (backpressure).
    fn park(&mut self, slot: usize, pending: PendingScan) -> LineFlow {
        let Some(conn) = self.conn(slot) else {
            return LineFlow::Stop;
        };
        debug_assert!(conn.parked.is_none(), "one parked request per connection");
        conn.parked = Some(pending);
        if !conn.suspended {
            conn.suspended = true;
            self.shared.gauges.suspended.fetch_add(1, Ordering::Relaxed);
            self.shared.registry.add(Counter::BackpressureSuspends, 1);
        }
        self.update_interest(slot);
        LineFlow::Parked
    }

    /// Retries every parked request; connections whose park clears get
    /// their buffered lines processed and reads resumed.
    fn pump_parked(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(pending) = self.conn(slot).and_then(|conn| conn.parked.take()) else {
                continue;
            };
            match self.admit(slot, pending) {
                LineFlow::Parked | LineFlow::Stop => continue,
                LineFlow::Continue => {}
            }
            // Unparked: lift the suspension, work through anything the
            // client pipelined behind the parked request, and resume
            // reading if no new park resulted.
            if let Some(conn) = self.conn(slot) {
                if conn.suspended {
                    conn.suspended = false;
                    self.shared.gauges.suspended.fetch_sub(1, Ordering::Relaxed);
                }
            }
            self.process_lines(slot);
            if self.conn(slot).is_some_and(|c| c.read_closed) {
                self.maybe_finish(slot);
            }
            self.update_interest(slot);
        }
    }

    // -- completions & deadlines -------------------------------------

    fn process_completions(&mut self) {
        let completions = self.shared.sink.drain();
        for completion in completions {
            let alive = self
                .conn(completion.slot)
                .is_some_and(|conn| conn.gen == completion.gen);
            if !alive {
                continue; // connection died mid-scan; drop the frame
            }
            self.dec_inflight(completion.slot);
            self.push_frame(completion.slot, completion.frame);
            if self.conn(completion.slot).is_some_and(|c| c.read_closed) {
                self.maybe_finish(completion.slot);
            }
        }
    }

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(entry) = self.deadlines.peek() {
            if entry.at > now {
                break;
            }
            let Some(entry) = self.deadlines.pop() else {
                break;
            };
            if entry.settled.swap(true, Ordering::AcqRel) {
                continue; // already answered; nothing expired
            }
            // The scan is abandoned: a worker that dequeues it later
            // skips it, a worker mid-scan will lose the settle race.
            self.shared.queue.mark_timed_out();
            let alive = self
                .conn(entry.slot)
                .is_some_and(|conn| conn.gen == entry.gen);
            if !alive {
                continue;
            }
            self.dec_inflight(entry.slot);
            let err = ErrorResponse::new(
                error_code::TIMEOUT,
                "deadline expired before the scan finished",
            )
            .with_id(entry.id);
            self.push_frame(entry.slot, protocol::to_line(&err).into_bytes());
            if self.conn(entry.slot).is_some_and(|c| c.read_closed) {
                self.maybe_finish(entry.slot);
            }
        }
    }

    fn dec_inflight(&mut self, slot: usize) {
        if let Some(conn) = self.conn(slot) {
            conn.inflight = conn.inflight.saturating_sub(1);
        }
        self.shared.gauges.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    // -- writing ------------------------------------------------------

    fn push_frame(&mut self, slot: usize, frame: Vec<u8>) {
        let Some(conn) = self.conn(slot) else { return };
        conn.write_q.push_back(frame);
        self.flush(slot);
    }

    /// Writes as much of the queue as the socket accepts, vectored
    /// across frames — the frames workers serialized are the buffers
    /// handed to the kernel, nothing is re-copied.
    fn flush(&mut self, slot: usize) {
        let mut closed = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let mut stalled = false;
            while !conn.write_q.is_empty() {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(FRAMES_PER_WRITEV);
                for (i, frame) in conn.write_q.iter().take(FRAMES_PER_WRITEV).enumerate() {
                    if i == 0 {
                        slices.push(IoSlice::new(&frame[conn.write_off..]));
                    } else {
                        slices.push(IoSlice::new(frame));
                    }
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(mut n) => {
                        while n > 0 {
                            let first_left = conn.write_q[0].len() - conn.write_off;
                            if n >= first_left {
                                n -= first_left;
                                conn.write_q.pop_front();
                                conn.write_off = 0;
                            } else {
                                conn.write_off += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        stalled = true;
                        break;
                    }
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if stalled && !conn.registered.write {
                // Count stall *transitions*, not every short write.
                self.shared.registry.add(Counter::WriteStalls, 1);
            }
        }
        if closed {
            self.close(slot);
            return;
        }
        let done = self
            .conn(slot)
            .is_some_and(|conn| conn.write_q.is_empty() && conn.closing);
        if done {
            self.close(slot);
            return;
        }
        if self
            .conn(slot)
            .is_some_and(|conn| conn.write_q.is_empty() && conn.read_closed)
        {
            self.maybe_finish(slot);
            if self.conns.get(slot).is_none_or(Option::is_none) {
                return;
            }
        }
        self.update_interest(slot);
    }

    /// Closes a half-closed connection once nothing remains to answer
    /// or flush.
    fn maybe_finish(&mut self, slot: usize) {
        let finished = self.conn(slot).is_some_and(|conn| {
            conn.read_closed
                && conn.inflight == 0
                && conn.parked.is_none()
                && conn.write_q.is_empty()
        });
        if finished {
            self.close(slot);
        }
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired == conn.registered {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        conn.registered = desired;
        if self.poller.reregister(fd, slot as u64, desired).is_err() {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.shared
            .gauges
            .open_conns
            .fetch_sub(1, Ordering::Relaxed);
        if conn.suspended {
            self.shared.gauges.suspended.fetch_sub(1, Ordering::Relaxed);
        }
        // In-flight scans die with the connection: their completions
        // will be dropped on the generation check. The parked request
        // (never admitted) is simply forgotten.
        let abandoned = conn.inflight + usize::from(conn.parked.is_some());
        if abandoned > 0 {
            self.shared
                .gauges
                .inflight
                .fetch_sub(abandoned, Ordering::Relaxed);
        }
        self.free.push(slot);
    }

    // -- drain --------------------------------------------------------

    /// One-time transition into drain mode, then per-iteration
    /// housekeeping: quiesce reads, answer parked requests with
    /// `draining`, close whatever has quiesced, force-close stragglers
    /// after the grace period.
    fn enter_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.drain_started = Some(Instant::now());
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            for slot in 0..self.conns.len() {
                // Parked requests cannot be admitted anymore — the
                // queue is draining. Answer them now.
                if let Some(pending) = self.conn(slot).and_then(|c| c.parked.take()) {
                    if !pending.settled.swap(true, Ordering::AcqRel) {
                        self.dec_inflight(slot);
                        let err = ErrorResponse::new(
                            error_code::DRAINING,
                            "daemon is draining for shutdown",
                        )
                        .with_id(pending.id);
                        self.push_frame(slot, protocol::to_line(&err).into_bytes());
                    }
                }
                if let Some(conn) = self.conn(slot) {
                    conn.closing = conn.inflight == 0 && conn.write_q.is_empty();
                }
            }
        }
        let force = self
            .drain_started
            .is_some_and(|started| started.elapsed() >= DRAIN_GRACE);
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conn(slot) else {
                continue;
            };
            if force || (conn.inflight == 0 && conn.parked.is_none() && conn.write_q.is_empty()) {
                self.close(slot);
            } else {
                self.update_interest(slot);
            }
        }
    }

    fn drain_finished(&self) -> bool {
        self.draining && self.conns.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> (Arc<CompletionSink>, UnixStream) {
        let (tx, rx) = UnixStream::pair().expect("socketpair");
        rx.set_nonblocking(true).expect("nonblocking");
        (Arc::new(CompletionSink::new(tx)), rx)
    }

    #[test]
    fn responder_settles_exactly_once() {
        let (sink, _rx) = sink();
        let settled = Arc::new(AtomicBool::new(false));
        let mut a = Responder::new(Arc::clone(&sink), 0, 1, Some(7), Arc::clone(&settled));
        let mut b = Responder::new(Arc::clone(&sink), 0, 1, Some(7), Arc::clone(&settled));
        assert!(a.begin(), "first claim wins");
        assert!(!b.begin(), "second claim loses");
        a.send(b"frame\n".to_vec());
        drop(b); // loser's drop must not synthesize an error frame
        let completions = sink.drain();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].frame, b"frame\n");
    }

    #[test]
    fn dropped_responder_answers_queue_handoff() {
        let (sink, _rx) = sink();
        let settled = Arc::new(AtomicBool::new(false));
        let responder = Responder::new(Arc::clone(&sink), 3, 9, Some(42), settled);
        drop(responder); // simulates the worker unwinding mid-job
        let completions = sink.drain();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].slot, 3);
        assert_eq!(completions[0].gen, 9);
        let line = String::from_utf8(completions[0].frame.clone()).expect("utf8");
        assert!(line.contains("queue_handoff"), "{line}");
        assert!(line.contains("\"id\":42"), "{line}");
    }

    #[test]
    fn settled_responder_drop_is_silent() {
        let (sink, _rx) = sink();
        let settled = Arc::new(AtomicBool::new(true)); // deadline won already
        let responder = Responder::new(Arc::clone(&sink), 0, 1, None, settled);
        drop(responder);
        assert!(sink.drain().is_empty(), "no frame for a settled request");
    }

    #[test]
    fn deadline_heap_orders_soonest_first() {
        let now = Instant::now();
        let mk = |offset_ms: u64, seq: u64| DeadlineEntry {
            at: now + Duration::from_millis(offset_ms),
            seq,
            slot: 0,
            gen: 0,
            id: None,
            settled: Arc::new(AtomicBool::new(false)),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(300, 1));
        heap.push(mk(100, 2));
        heap.push(mk(200, 3));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
