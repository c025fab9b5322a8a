//! The wire protocol of the scan service: newline-delimited JSON over
//! TCP, one request per line, one response line per request, in order.
//!
//! Every message carries a `v` protocol-version field and a `kind`
//! discriminator; the server dispatches on a small [`Envelope`] first
//! (unknown fields are ignored by the value-model deserializer), then
//! parses the full typed message. Package bytes travel base64-encoded
//! inside the JSON line so the protocol stays printable and
//! line-framed.
//!
//! Robustness contract: no input — malformed JSON, an unknown `kind`,
//! a wrong version, an oversized line, undecodable base64, or a
//! corrupt SAPK container — may kill the daemon. Each failure maps to
//! a typed [`ErrorResponse`] (and, for oversized lines, a closed
//! connection, since the framing is lost).

use saintdroid::Report;
use serde::{Deserialize, Serialize};

/// Current protocol version; bumped on incompatible wire changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on one request line (base64-encoded package included).
/// A line that exceeds it is answered with `too_large` and the
/// connection is closed — the remainder of the oversized line cannot
/// be re-framed.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Machine-readable rejection codes (the `429`-style vocabulary of the
/// service). Stable strings, mirrored in DESIGN.md §4.3.
pub mod error_code {
    /// Queue at capacity — resubmit later. This daemon parks overflow
    /// under backpressure and never sends it; clients still retry it as
    /// transient.
    pub const BUSY: &str = "busy";
    /// The daemon is draining for shutdown; no new work admitted.
    pub const DRAINING: &str = "draining";
    /// Per-request deadline expired before the scan finished.
    pub const TIMEOUT: &str = "timeout";
    /// The line was not valid JSON or not a known request shape.
    pub const MALFORMED: &str = "malformed";
    /// The request line exceeded the server's line limit.
    pub const TOO_LARGE: &str = "too_large";
    /// The request's `v` does not match [`super::PROTOCOL_VERSION`].
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// The base64 payload did not decode to a valid SAPK container.
    pub const BAD_PACKAGE: &str = "bad_package";
    /// The request's `detectors` assertion does not match the detector
    /// families the daemon's warm engine runs (or failed to parse).
    /// The daemon's set is fixed at startup (`serve --detectors`) —
    /// re-point the client at a daemon running the set it expects.
    pub const DETECTOR_MISMATCH: &str = "detector_mismatch";
    /// The scan (or the response path) panicked server-side; the panic
    /// was isolated and the daemon keeps serving. Transient from the
    /// client's perspective — a resubmission runs on a fresh worker.
    pub const INTERNAL: &str = "internal";
}

/// The `kind` discriminator + version, parsed before full dispatch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Envelope {
    /// Protocol version of the message.
    pub v: u32,
    /// Message kind: `scan`, `delta`, `status`, `metrics`, or
    /// `shutdown`.
    pub kind: Option<String>,
}

/// Submit one SAPK package for analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanRequest {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Always `"scan"`.
    pub kind: String,
    /// Optional client-chosen request id, echoed verbatim on the
    /// response (report or error). Pipelined clients use it to match
    /// out-of-order responses to in-flight requests; lockstep clients
    /// may omit it (the v1 wire shape without `id` stays valid — this
    /// field is additive, which is the protocol's versioning rule:
    /// `v` bumps only on *incompatible* changes).
    pub id: Option<u64>,
    /// The SAPK container bytes, base64-encoded (standard alphabet,
    /// padded).
    pub package_b64: String,
    /// Optional deadline in milliseconds: if the scan has not finished
    /// (queue wait included) within this budget, the server answers
    /// `timeout` instead of a report.
    pub deadline_ms: Option<u64>,
    /// Optional detector-set assertion, in `DetectorSet` spec syntax
    /// (`"amd"`, `"all"`, or a comma list of `api,apc,prm,dsd`). A
    /// daemon whose engine runs a different set answers
    /// [`error_code::DETECTOR_MISMATCH`] instead of silently serving a
    /// report computed by the wrong detector families. Omitted (the
    /// pre-DSD wire shape) means "whatever the daemon runs" — the
    /// field is additive, like `id`.
    pub detectors: Option<String>,
}

impl ScanRequest {
    /// Builds a request around raw SAPK bytes.
    #[must_use]
    pub fn new(sapk_bytes: &[u8], deadline_ms: Option<u64>) -> Self {
        ScanRequest {
            v: PROTOCOL_VERSION,
            kind: "scan".to_string(),
            id: None,
            package_b64: base64_encode(sapk_bytes),
            deadline_ms,
            detectors: None,
        }
    }

    /// Tags the request with a pipeline id (echoed on the response).
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Asserts the detector families the report must come from (see
    /// the `detectors` field).
    #[must_use]
    pub fn with_detectors(mut self, spec: impl Into<String>) -> Self {
        self.detectors = Some(spec.into());
        self
    }

    /// Turns the request into a `delta` submission: the daemon scans
    /// through its incremental artifact store (`serve --delta-dir`),
    /// reusing cached per-class-group results where content hashes
    /// match. The report is byte-identical to a plain `scan`; the
    /// response additionally carries [`DeltaStatus`] accounting. A
    /// daemon without a store answers with a plain full scan (and no
    /// `delta` block) — the verb is an optimization, never a different
    /// answer.
    #[must_use]
    pub fn into_delta(mut self) -> Self {
        self.kind = "delta".to_string();
        self
    }
}

/// What an incremental (`delta`) scan reused and recomputed — the wire
/// form of the delta layer's per-scan stats, attached to the
/// [`ScanResponse`] of a `delta` request served from a store.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeltaStatus {
    /// Bundled classes considered (`hits + misses`).
    pub classes_seen: u64,
    /// Classes whose cached artifacts were reused verbatim.
    pub hits: u64,
    /// Classes with no usable cached artifact.
    pub misses: u64,
    /// Classes pushed through a fresh analysis.
    pub reanalyzed: u64,
    /// Whether the whole-app fast path served the scan.
    pub app_hit: bool,
}

impl From<saint_delta::DeltaStats> for DeltaStatus {
    fn from(s: saint_delta::DeltaStats) -> Self {
        DeltaStatus {
            classes_seen: s.classes_seen,
            hits: s.hits,
            misses: s.misses,
            reanalyzed: s.reanalyzed,
            app_hit: s.app_hit,
        }
    }
}

/// A successful scan: the report plus the exit code `saintdroid scan`
/// would have returned for this package (0 clean / 2 mismatches — the
/// CLI contract; protocol-level failures map to typed errors instead
/// of an exit code).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanResponse {
    /// Protocol version.
    pub v: u32,
    /// Always `"scan"`.
    pub kind: String,
    /// Echo of the request's `id`, when one was given.
    pub id: Option<u64>,
    /// Mirror of the CLI exit-code contract: 0 clean, 2 mismatches.
    pub exit_code: u8,
    /// The full report — byte-identical mismatches and meter to what a
    /// local `saintdroid scan` produces for the same package.
    pub report: Report,
    /// Incremental-scan accounting, present only when a `delta`
    /// request was served through the daemon's artifact store.
    pub delta: Option<DeltaStatus>,
}

impl ScanResponse {
    /// Wraps a finished report.
    #[must_use]
    pub fn new(report: Report) -> Self {
        let exit_code = if report.is_clean() { 0 } else { 2 };
        ScanResponse {
            v: PROTOCOL_VERSION,
            kind: "scan".to_string(),
            id: None,
            exit_code,
            report,
            delta: None,
        }
    }

    /// Echoes the request id on the response.
    #[must_use]
    pub fn with_id(mut self, id: Option<u64>) -> Self {
        self.id = id;
        self
    }

    /// Attaches incremental-scan accounting (answers to `delta`
    /// requests served from a store; the kind echoes the verb).
    #[must_use]
    pub fn with_delta(mut self, stats: DeltaStatus) -> Self {
        self.kind = "delta".to_string();
        self.delta = Some(stats);
        self
    }
}

/// Activity counters of one shared cache, for [`StatusResponse`] and
/// [`MetricsResponse`]. Maintains `hits + misses == lookups`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheStatus {
    /// Total probes against the cache.
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the materializer.
    pub misses: u64,
    /// Distinct keys held.
    pub entries: usize,
    /// Hit fraction in `[0, 1]` (zero before any lookup).
    pub hit_rate: f64,
}

impl From<saint_obs::CacheSnapshot> for CacheStatus {
    fn from(s: saint_obs::CacheSnapshot) -> Self {
        CacheStatus {
            lookups: s.lookups,
            hits: s.hits,
            misses: s.misses,
            entries: s.entries as usize,
            hit_rate: s.hit_rate(),
        }
    }
}

/// Startup provenance of the engine's framework model: whether the
/// daemon booted from a frozen (mmap'd) image, and what that cost —
/// reported by both the `status` and `metrics` verbs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrozenStatus {
    /// `true`: the framework model is served from a frozen image
    /// (API database, permission map, and class bodies all come out of
    /// the mapping — nothing was mined at startup, unless `cached` is
    /// `false` and this boot compiled the image first).
    pub frozen: bool,
    /// `true` when the image pre-existed and was attached directly;
    /// `false` when this boot had to parse-and-freeze it first.
    pub cached: bool,
    /// Path of the image being served.
    pub image: String,
    /// Wall seconds the frozen attach took (map + verify + table
    /// decode; includes compile + write on a first run).
    pub startup_secs: f64,
    /// Image bytes made addressable.
    pub bytes_mapped: u64,
    /// Whether the bytes are an actual page mapping (`false` = the
    /// owned-buffer fallback).
    pub page_mapped: bool,
    /// Framework class bodies bulk-loaded into the warm class cache
    /// from the image at startup.
    pub classes_preloaded: u64,
}

impl From<saintdroid::FrozenBoot> for FrozenStatus {
    fn from(b: saintdroid::FrozenBoot) -> Self {
        FrozenStatus {
            frozen: true,
            cached: b.attached,
            image: b.image.display().to_string(),
            startup_secs: b.startup.as_secs_f64(),
            bytes_mapped: b.bytes_mapped,
            page_mapped: b.page_mapped,
            classes_preloaded: b.classes_preloaded as u64,
        }
    }
}

/// Live state of the daemon's event-loop reactor, for
/// [`StatusResponse`] and [`MetricsResponse`]: how many sockets it
/// owns, how much work is in flight, and how often it had to push
/// back on clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReactorStatus {
    /// Client connections currently owned by the reactor.
    pub open_connections: u64,
    /// Scans admitted but not yet answered, across all connections.
    pub inflight: u64,
    /// Connections whose reads are currently suspended (in-flight
    /// window full, or the job queue at capacity).
    pub suspended_connections: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections_accepted: u64,
    /// Times a connection's reads were suspended for backpressure,
    /// over the daemon's lifetime.
    pub backpressure_suspends: u64,
    /// Response writes that hit a full socket buffer and waited for
    /// writability, over the daemon's lifetime.
    pub write_stalls: u64,
}

/// Daemon health and accounting; also the acknowledgement of a
/// `shutdown` request (final counters before the drain).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Protocol version.
    pub v: u32,
    /// Always `"status"`.
    pub kind: String,
    /// Milliseconds since the daemon finished warming its engine.
    pub uptime_ms: u64,
    /// Scans completed over the daemon's lifetime.
    pub jobs_served: u64,
    /// Scans currently executing on job workers.
    pub jobs_active: usize,
    /// Live scan-worker threads (the supervisor respawns crashed ones,
    /// so this returns to the configured pool size after a fault).
    pub scan_workers: usize,
    /// Scans queued but not yet started.
    pub queue_depth: usize,
    /// Admission-control bound: requests beyond this depth park under
    /// backpressure.
    pub queue_capacity: usize,
    /// Requests that expired (`timeout`) so far.
    pub timed_out: u64,
    /// Whether the daemon is draining toward shutdown.
    pub draining: bool,
    /// Warm framework-class cache counters, if the engine carries one.
    pub class_cache: Option<CacheStatus>,
    /// Warm framework-artifact cache counters, if present.
    pub artifact_cache: Option<CacheStatus>,
    /// Warm framework-subtree scan cache counters, if present.
    pub scan_cache: Option<CacheStatus>,
    /// Frozen-image startup provenance; `None` when the engine booted
    /// on the classic parse path.
    pub frozen: Option<FrozenStatus>,
    /// Reactor state (always present when answered by the daemon;
    /// `None` only from pre-reactor peers).
    pub reactor: Option<ReactorStatus>,
    /// Operator-assigned daemon name (`serve --name`), echoed so fleet
    /// tooling can attribute results to the daemon that produced them;
    /// `None` for unnamed daemons and pre-campaign peers.
    pub daemon: Option<String>,
    /// The detector families the warm engine runs, in `DetectorSet`
    /// spec syntax (e.g. `"api,apc,prm"`), so clients can check before
    /// submitting instead of learning from a `detector_mismatch`
    /// rejection; `None` from pre-DSD peers.
    pub detectors: Option<String>,
}

/// One phase's span accounting, for [`MetricsResponse`]. Mirrors
/// [`saint_obs::PhaseSnapshot`] with owned strings for the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseStatus {
    /// Stable snake_case phase name (`clvm_load`, `explore`, …).
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Log2-µs latency buckets ([`saint_obs::HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

/// One monotone counter, for [`MetricsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterStatus {
    /// Stable snake_case counter name (`apps_scanned`, …).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Accumulated load-meter totals, for [`MetricsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeterStatus {
    /// Classes materialized across all scans.
    pub classes_loaded: u64,
    /// Bytes of class metadata loaded.
    pub class_bytes: u64,
    /// Method bodies analyzed.
    pub methods_analyzed: u64,
    /// Bytes of graph/artifact storage built.
    pub graph_bytes: u64,
    /// Lookups no provider could resolve.
    pub unresolved_lookups: u64,
}

/// Job-queue state, for [`MetricsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueStatus {
    /// Jobs waiting for a worker right now.
    pub depth: u64,
    /// Admission-control capacity.
    pub capacity: u64,
    /// Jobs currently being scanned.
    pub active: u64,
    /// Jobs completed since startup.
    pub served: u64,
    /// Jobs whose deadline expired while queued.
    pub timed_out: u64,
}

impl From<saint_obs::QueueSnapshot> for QueueStatus {
    fn from(q: saint_obs::QueueSnapshot) -> Self {
        QueueStatus {
            depth: q.depth,
            capacity: q.capacity,
            active: q.active,
            served: q.served,
            timed_out: q.timed_out,
        }
    }
}

/// The full observability view of the daemon: phase spans, monotone
/// counters, cache surfaces, meter totals, and queue state — the wire
/// form of [`saint_obs::MetricsSnapshot`], answering a `metrics`
/// request. Versioned like every other message: a wrong `v` gets
/// `unsupported_version`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Protocol version.
    pub v: u32,
    /// Always `"metrics"`.
    pub kind: String,
    /// Per-phase span accounting, in [`saint_obs::Phase::ALL`] order.
    pub phases: Vec<PhaseStatus>,
    /// Monotone counters, in [`saint_obs::Counter::ALL`] order.
    pub counters: Vec<CounterStatus>,
    /// Warm framework-class cache counters, if present.
    pub class_cache: Option<CacheStatus>,
    /// Warm framework-artifact cache counters, if present.
    pub artifact_cache: Option<CacheStatus>,
    /// Warm framework-subtree scan cache counters, if present.
    pub scan_cache: Option<CacheStatus>,
    /// Accumulated load-meter totals.
    pub meter: MeterStatus,
    /// Queue state (always present when answered by the daemon).
    pub queue: Option<QueueStatus>,
    /// Frozen-image startup provenance; `None` when the engine booted
    /// on the classic parse path.
    pub frozen: Option<FrozenStatus>,
    /// Reactor state (always present when answered by the daemon).
    pub reactor: Option<ReactorStatus>,
}

impl MetricsResponse {
    /// Converts the unified snapshot into its wire form.
    #[must_use]
    pub fn new(snap: saint_obs::MetricsSnapshot) -> Self {
        MetricsResponse {
            v: PROTOCOL_VERSION,
            kind: "metrics".to_string(),
            phases: snap
                .registry
                .phases
                .iter()
                .map(|p| PhaseStatus {
                    name: p.name.to_string(),
                    count: p.count,
                    total_ns: p.total_ns,
                    buckets: p.buckets.clone(),
                })
                .collect(),
            counters: snap
                .registry
                .counters
                .iter()
                .map(|c| CounterStatus {
                    name: c.name.to_string(),
                    value: c.value,
                })
                .collect(),
            class_cache: snap.class_cache.map(Into::into),
            artifact_cache: snap.artifact_cache.map(Into::into),
            scan_cache: snap.deep_scan_cache.map(Into::into),
            meter: MeterStatus {
                classes_loaded: snap.meter.classes_loaded,
                class_bytes: snap.meter.class_bytes,
                methods_analyzed: snap.meter.methods_analyzed,
                graph_bytes: snap.meter.graph_bytes,
                unresolved_lookups: snap.meter.unresolved_lookups,
            },
            queue: snap.queue.map(Into::into),
            frozen: None,
            reactor: None,
        }
    }

    /// Attaches frozen-boot provenance to the response.
    #[must_use]
    pub fn with_frozen(mut self, frozen: Option<FrozenStatus>) -> Self {
        self.frozen = frozen;
        self
    }

    /// Attaches live reactor state to the response.
    #[must_use]
    pub fn with_reactor(mut self, reactor: Option<ReactorStatus>) -> Self {
        self.reactor = reactor;
        self
    }

    /// Looks up a phase by its stable name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStatus> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Looks up a counter value by its stable name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// A typed rejection; the daemon stays alive after sending one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Protocol version.
    pub v: u32,
    /// Always `"error"`.
    pub kind: String,
    /// Echo of the request's `id`, when the failing request carried
    /// one and it was parseable — pipelined clients need errors
    /// attributed to the right in-flight request.
    pub id: Option<u64>,
    /// One of the [`error_code`] constants.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// For [`error_code::BAD_PACKAGE`] container failures: byte offset
    /// of the offending input, when the decoder can point at one.
    pub offset: Option<u64>,
    /// For [`error_code::INTERNAL`]: the pipeline phase that panicked
    /// (`decode`, `explore`, `detect_invocation`, …).
    pub phase: Option<String>,
}

impl ErrorResponse {
    /// Builds an error response with the current protocol version.
    #[must_use]
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ErrorResponse {
            v: PROTOCOL_VERSION,
            kind: "error".to_string(),
            id: None,
            code: code.to_string(),
            message: message.into(),
            offset: None,
            phase: None,
        }
    }

    /// Attributes the error to a pipelined request id.
    #[must_use]
    pub fn with_id(mut self, id: Option<u64>) -> Self {
        self.id = id;
        self
    }

    /// Attaches the offending byte offset (decode failures).
    #[must_use]
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = Some(offset);
        self
    }

    /// Attaches the panicking pipeline phase (internal errors).
    #[must_use]
    pub fn with_phase(mut self, phase: impl Into<String>) -> Self {
        self.phase = Some(phase.into());
        self
    }
}

// ---------------------------------------------------------------------
// Zero-copy scan-request fast path
// ---------------------------------------------------------------------

/// A scan request extracted straight from the wire line, borrowing the
/// base64 payload instead of copying it into a value tree — the
/// reactor's hot path. Produced by [`parse_scan_fast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastScanRequest<'a> {
    /// Protocol version claimed by the request.
    pub v: u64,
    /// Pipeline request id, if given.
    pub id: Option<u64>,
    /// Deadline in milliseconds, if given.
    pub deadline_ms: Option<u64>,
    /// Detector-set assertion, if given, borrowed from the line.
    pub detectors: Option<&'a str>,
    /// The base64 payload, borrowed from the request line.
    pub package_b64: &'a str,
}

/// Recognizes a well-formed `{"kind":"scan", …}` request line without
/// building a value tree: one strict left-to-right pass over the JSON
/// object, borrowing `package_b64` from the line (base64 never needs
/// string escapes, so the borrow is the common case by construction).
///
/// Returns `None` for anything else — other kinds, malformed input,
/// duplicate or escaped relevant fields, non-integer numbers — and the
/// caller falls back to the full value-tree parser, so the fast path
/// can only ever *match* the slow path's behavior, never diverge from
/// it. The equivalence is pinned by unit tests below.
#[must_use]
pub fn parse_scan_fast(line: &str) -> Option<FastScanRequest<'_>> {
    let mut cur = FastCursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    cur.skip_ws();
    if !cur.eat(b'{') {
        return None;
    }
    let mut v: Option<u64> = None;
    let mut id: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut detectors: Option<(usize, usize)> = None;
    let mut package: Option<(usize, usize)> = None;
    let mut kind_is_scan = false;
    let mut first = true;
    loop {
        cur.skip_ws();
        if cur.eat(b'}') {
            break;
        }
        if !first && !cur.eat(b',') {
            return None;
        }
        first = false;
        cur.skip_ws();
        let (key_start, key_end, key_escaped) = cur.raw_string()?;
        if key_escaped {
            // An escaped key could collide with a relevant field name
            // after unescaping; let the slow path sort it out.
            return None;
        }
        let key = &cur.bytes[key_start..key_end];
        cur.skip_ws();
        if !cur.eat(b':') {
            return None;
        }
        cur.skip_ws();
        match key {
            b"v" => {
                if v.replace(cur.integer()?).is_some() {
                    return None; // duplicate: defer to the slow path
                }
            }
            b"kind" => {
                let (s, e, escaped) = cur.raw_string()?;
                if escaped || kind_is_scan {
                    return None;
                }
                if &cur.bytes[s..e] != b"scan" {
                    return None; // not a scan request at all
                }
                kind_is_scan = true;
            }
            b"id" => {
                if cur.eat_null() {
                    continue;
                }
                if id.replace(cur.integer()?).is_some() {
                    return None;
                }
            }
            b"deadline_ms" => {
                if cur.eat_null() {
                    continue;
                }
                if deadline_ms.replace(cur.integer()?).is_some() {
                    return None;
                }
            }
            b"detectors" => {
                if cur.eat_null() {
                    continue;
                }
                let (s, e, escaped) = cur.raw_string()?;
                if escaped || detectors.replace((s, e)).is_some() {
                    return None;
                }
            }
            b"package_b64" => {
                let (s, e, escaped) = cur.raw_string()?;
                if escaped || package.replace((s, e)).is_some() {
                    return None;
                }
            }
            _ => {
                if !cur.skip_value() {
                    return None;
                }
            }
        }
    }
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return None; // trailing bytes: not one clean JSON object
    }
    let (s, e) = package?;
    if !kind_is_scan {
        return None;
    }
    Some(FastScanRequest {
        v: v?,
        id,
        deadline_ms,
        detectors: match detectors {
            Some((ds, de)) => Some(line.get(ds..de)?),
            None => None,
        },
        // The borrow starts and ends at `"` delimiters of a string
        // verified escape-free, so the slice sits on char boundaries.
        package_b64: line.get(s..e)?,
    })
}

/// Byte cursor for [`parse_scan_fast`]; every method is strict and
/// returns `None`/`false` on anything unexpected.
struct FastCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl FastCursor<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_null(&mut self) -> bool {
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            true
        } else {
            false
        }
    }

    /// Consumes a JSON string, returning the content byte range and
    /// whether it contained any escape sequence (the range then holds
    /// *raw* bytes, not the decoded string).
    fn raw_string(&mut self) -> Option<(usize, usize, bool)> {
        if !self.eat(b'"') {
            return None;
        }
        let start = self.pos;
        let mut escaped = false;
        loop {
            let b = *self.bytes.get(self.pos)?;
            match b {
                b'"' => {
                    let end = self.pos;
                    self.pos += 1;
                    return Some((start, end, escaped));
                }
                b'\\' => {
                    escaped = true;
                    // Skip the escape introducer and the escaped byte;
                    // \uXXXX needs no special casing because the four
                    // hex digits contain no quote or backslash.
                    self.pos += 2;
                    if self.pos > self.bytes.len() {
                        return None;
                    }
                }
                // Raw control characters are invalid JSON; defer.
                0x00..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
    }

    /// Consumes a plain non-negative integer (no sign, fraction, or
    /// exponent — anything else defers to the slow path).
    fn integer(&mut self) -> Option<u64> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        // A trailing '.', 'e', or digit overflow falls back.
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'.' || b == b'e' || b == b'E')
        {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// Skips one JSON number (strict grammar, so the fast path never
    /// accepts a line the value-tree parser would reject).
    fn skip_number(&mut self) -> bool {
        let _ = self.eat(b'-');
        let int_start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return false;
        }
        if self.eat(b'.') {
            let frac_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return false;
            }
        }
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'e' || b == b'E')
        {
            self.pos += 1;
            if self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b == b'+' || b == b'-')
            {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return false;
            }
        }
        true
    }

    /// Skips one JSON value of any shape (for irrelevant fields),
    /// validating structure as it goes — brackets must match, numbers
    /// must follow the JSON grammar, literals must be exact.
    fn skip_value(&mut self) -> bool {
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            Some(b'"') => self.raw_string().is_some(),
            Some(open @ (b'{' | b'[')) => {
                // Containers in unknown fields are rare; a small stack
                // keeps closers honest (`[}` must defer, not match).
                let mut stack = vec![open];
                self.pos += 1;
                loop {
                    self.skip_ws();
                    match self.bytes.get(self.pos).copied() {
                        Some(b @ (b'{' | b'[')) => {
                            stack.push(b);
                            self.pos += 1;
                        }
                        Some(close @ (b'}' | b']')) => {
                            let open = match stack.pop() {
                                Some(o) => o,
                                None => return false,
                            };
                            let matches =
                                (open == b'{' && close == b'}') || (open == b'[' && close == b']');
                            if !matches {
                                return false;
                            }
                            self.pos += 1;
                            if stack.is_empty() {
                                return true;
                            }
                        }
                        Some(b'"') => {
                            if self.raw_string().is_none() {
                                return false;
                            }
                        }
                        Some(b',') | Some(b':') => self.pos += 1,
                        Some(b) if b.is_ascii_digit() || b == b'-' => {
                            if !self.skip_number() {
                                return false;
                            }
                        }
                        Some(b't') | Some(b'f') | Some(b'n') => {
                            if !self.skip_literal() {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => self.skip_number(),
            Some(b't') | Some(b'f') | Some(b'n') => self.skip_literal(),
            _ => false,
        }
    }

    /// Consumes exactly `true`, `false`, or `null`.
    fn skip_literal(&mut self) -> bool {
        for lit in [&b"true"[..], &b"false"[..], &b"null"[..]] {
            if self.bytes[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// Base64 (standard alphabet, padded) — std-only, no external crate.
// ---------------------------------------------------------------------

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard padded base64.
#[must_use]
pub fn base64_encode(input: &[u8]) -> String {
    let mut out = String::with_capacity(input.len().div_ceil(3) * 4);
    for chunk in input.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(B64_ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[triple as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard padded base64; `None` on any malformed input
/// (bad characters, bad length, data after padding).
#[must_use]
pub fn base64_decode(input: &str) -> Option<Vec<u8>> {
    let bytes = input.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        // Padding is only legal as the final one or two characters.
        if pad > 2 || (pad > 0 && !last) || (pad >= 1 && chunk[3] != b'=') {
            return None;
        }
        if pad == 2 && chunk[2] != b'=' {
            return None;
        }
        let v0 = val(chunk[0])?;
        let v1 = val(chunk[1])?;
        let v2 = if pad == 2 { 0 } else { val(chunk[2])? };
        let v3 = if pad >= 1 { 0 } else { val(chunk[3])? };
        let triple = (v0 << 18) | (v1 << 12) | (v2 << 6) | v3;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Bounded line framing
// ---------------------------------------------------------------------

/// Outcome of reading one protocol line.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the trailing `\n`).
    Line(String),
    /// The peer closed the connection before any byte of a new line.
    Eof,
    /// The line exceeded the limit; the connection can no longer be
    /// framed and must be closed after an error response.
    TooLong,
}

/// Reads one `\n`-terminated line, never buffering more than `max`
/// bytes. Invalid UTF-8 is surfaced as a line that will fail JSON
/// parsing (lossy conversion), which maps to `malformed` — framing is
/// still intact in that case.
///
/// # Errors
/// Propagates transport errors (including read timeouts, which the
/// server loop uses as a drain poll) other than clean EOF.
pub fn read_line_bounded<R: std::io::BufRead>(
    reader: &mut R,
    max: usize,
) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    read_line_bounded_into(reader, max, &mut buf)
}

/// [`read_line_bounded`] with a caller-owned accumulator: bytes read
/// before a transport error (a read timeout above all) stay in `buf`,
/// so a server polling its drain flag between timeouts can resume the
/// partial line instead of silently dropping it. `buf` is emptied
/// whenever a [`LineRead`] is returned.
///
/// # Errors
/// Propagates transport errors other than clean EOF; `buf` keeps the
/// partial line.
pub fn read_line_bounded_into<R: std::io::BufRead>(
    reader: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return if buf.is_empty() {
                Ok(LineRead::Eof)
            } else {
                // A final unterminated line still parses as a request.
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                Ok(LineRead::Line(line))
            };
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                reader.consume(pos + 1);
                buf.clear();
                return Ok(LineRead::TooLong);
            }
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            let line = String::from_utf8_lossy(buf).into_owned();
            buf.clear();
            return Ok(LineRead::Line(line));
        }
        let n = available.len();
        if buf.len() + n > max {
            reader.consume(n);
            buf.clear();
            return Ok(LineRead::TooLong);
        }
        buf.extend_from_slice(available);
        reader.consume(n);
    }
}

/// Serializes a message and frames it as one protocol line.
///
/// All protocol types serialize infallibly in practice; if one ever
/// does not, the client still gets a well-formed `internal` error line
/// instead of a panicked handler and a dropped connection.
#[must_use]
pub fn to_line<T: Serialize>(msg: &T) -> String {
    match serde_json::to_string(msg) {
        Ok(mut line) => {
            line.push('\n');
            line
        }
        Err(_) => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"kind\":\"error\",\"id\":null,\"code\":\"{}\",\
             \"message\":\"response failed to serialize\",\"offset\":null,\
             \"phase\":null}}\n",
            error_code::INTERNAL
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_roundtrip_all_residues() {
        for len in 0..32usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(enc.len() % 4, 0);
            assert_eq!(base64_decode(&enc).expect("decodes"), data);
        }
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn base64_rejects_malformed() {
        for bad in ["Zg=", "Zg= =", "Z===", "Zg==Zg==x", "Z!==", "=Zg="] {
            assert!(base64_decode(bad).is_none(), "{bad:?} must not decode");
        }
        // Padding mid-stream is illegal even with valid length.
        assert!(base64_decode("Zg==Zm9v").is_none());
    }

    #[test]
    fn envelope_ignores_unknown_fields() {
        let env: Envelope =
            serde_json::from_str(r#"{"v":1,"kind":"scan","package_b64":"AAAA"}"#).unwrap();
        assert_eq!(env.v, 1);
        assert_eq!(env.kind.as_deref(), Some("scan"));
    }

    #[test]
    fn scan_request_roundtrip() {
        let req = ScanRequest::new(b"sapk-bytes", Some(1500));
        let line = to_line(&req);
        assert!(line.ends_with('\n'));
        let back: ScanRequest = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(back.v, PROTOCOL_VERSION);
        assert_eq!(back.deadline_ms, Some(1500));
        assert_eq!(
            base64_decode(&back.package_b64).unwrap(),
            b"sapk-bytes".to_vec()
        );
    }

    #[test]
    fn error_response_shape() {
        let err = ErrorResponse::new(error_code::BUSY, "queue full");
        let line = to_line(&err);
        let back: ErrorResponse = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(back.kind, "error");
        assert_eq!(back.code, "busy");
    }

    #[test]
    fn bounded_reader_frames_and_guards() {
        let data = b"short\nexactly10!\nway too long line\nafter\n";
        let mut r = std::io::BufReader::new(&data[..]);
        match read_line_bounded(&mut r, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "short"),
            other => panic!("{other:?}"),
        }
        match read_line_bounded(&mut r, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "exactly10!"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_line_bounded(&mut r, 10).unwrap(),
            LineRead::TooLong
        ));
        // Framing recovers at the next newline.
        match read_line_bounded(&mut r, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "after"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_line_bounded(&mut r, 10).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn bounded_reader_handles_unterminated_tail() {
        let mut r = std::io::BufReader::new(&b"tail-no-newline"[..]);
        match read_line_bounded(&mut r, 64).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "tail-no-newline"),
            other => panic!("{other:?}"),
        }
    }

    /// A `BufRead` replaying a fixed script of chunks and transport
    /// errors, for exercising the timeout path without sockets.
    struct Scripted {
        steps: std::collections::VecDeque<std::io::Result<&'static [u8]>>,
        cur: &'static [u8],
    }

    impl std::io::Read for Scripted {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("the bounded reader only uses fill_buf/consume")
        }
    }

    impl std::io::BufRead for Scripted {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.cur.is_empty() {
                match self.steps.pop_front() {
                    Some(Ok(bytes)) => self.cur = bytes,
                    Some(Err(e)) => return Err(e),
                    None => {}
                }
            }
            Ok(self.cur)
        }

        fn consume(&mut self, amt: usize) {
            self.cur = &self.cur[amt..];
        }
    }

    /// The slow path the fast parser must agree with.
    fn slow_parse(line: &str) -> Option<ScanRequest> {
        use serde::Deserialize as _;
        let value = serde_json::from_str_value(line).ok()?;
        let env = Envelope::from_value(&value).ok()?;
        if env.kind.as_deref() != Some("scan") {
            return None;
        }
        ScanRequest::from_value(&value).ok()
    }

    #[test]
    fn fast_parser_matches_slow_parser_on_real_requests() {
        let cases = [
            to_line(&ScanRequest::new(b"sapk bytes here", None)),
            to_line(&ScanRequest::new(b"sapk bytes here", Some(1500))),
            to_line(&ScanRequest::new(b"", Some(0)).with_id(7)),
            to_line(&ScanRequest::new(&[0xff; 300], Some(u64::MAX)).with_id(u64::MAX)),
            to_line(&ScanRequest::new(b"sapk", None).with_detectors("api,apc,prm,dsd")),
            // Field order is not fixed by JSON; unknown fields are legal.
            r#"{"kind":"scan","package_b64":"AAAA","v":1}"#.to_string(),
            r#" { "v" : 1 , "kind" : "scan" , "id" : 9 , "package_b64" : "Zm8=" } "#.to_string(),
            r#"{"v":1,"kind":"scan","future_field":{"a":[1,2,{"b":"}"}]},"package_b64":"AAAA","flag":true}"#
                .to_string(),
            r#"{"v":2,"kind":"scan","package_b64":"AAAA"}"#.to_string(),
            r#"{"v":1,"kind":"scan","detectors":"all","package_b64":"AAAA"}"#.to_string(),
            r#"{"v":1,"kind":"scan","detectors":null,"package_b64":"AAAA"}"#.to_string(),
        ];
        for line in &cases {
            let slow = slow_parse(line.trim_end()).expect("slow path parses");
            let fast = parse_scan_fast(line.trim_end()).expect("fast path parses");
            assert_eq!(fast.v, u64::from(slow.v), "{line}");
            assert_eq!(fast.id, slow.id, "{line}");
            assert_eq!(fast.deadline_ms, slow.deadline_ms, "{line}");
            assert_eq!(fast.detectors, slow.detectors.as_deref(), "{line}");
            assert_eq!(fast.package_b64, slow.package_b64, "{line}");
        }
    }

    #[test]
    fn fast_parser_defers_anything_surprising() {
        let defer = [
            // Not scan requests at all.
            r#"{"v":1,"kind":"status"}"#,
            r#"{"v":1}"#,
            "not json",
            "",
            // Scan-shaped but needing the slow path's full machinery.
            r#"{"v":1,"kind":"scan","package_b64":"AA\u0041A"}"#, // escaped payload
            r#"{"v":1.0,"kind":"scan","package_b64":"AAAA"}"#,    // float version
            r#"{"v":1,"kind":"scan","package_b64":"AAAA","id":-3}"#, // negative id
            r#"{"v":1,"v":2,"kind":"scan","package_b64":"AAAA"}"#, // duplicate key
            r#"{"v":1,"kind":"scan","detectors":"a\u0070i","package_b64":"AAAA"}"#, // escaped detectors
            r#"{"v":1,"kind":"scan","detectors":"amd","detectors":"all","package_b64":"AAAA"}"#, // duplicate detectors
            r#"{"v":1,"kind":"scan","package_b64":"AAAA"}trailing"#, // trailing bytes
            r#"{"v":1,"kind":"scan","junk":[}],"package_b64":"AAAA"}"#, // mismatched brackets
            r#"{"v":1,"kind":"scan","junk":truthy,"package_b64":"AAAA"}"#, // bad literal
        ];
        for line in defer {
            assert!(parse_scan_fast(line).is_none(), "{line:?} must defer");
        }
    }

    #[test]
    fn fast_parser_borrows_the_payload() {
        let line = r#"{"v":1,"kind":"scan","package_b64":"Zm9vYmFy"}"#;
        let fast = parse_scan_fast(line).expect("parses");
        // Same allocation: the payload is a slice of the input line.
        let line_range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
        assert!(line_range.contains(&(fast.package_b64.as_ptr() as usize)));
        assert_eq!(base64_decode(fast.package_b64).expect("decodes"), b"foobar");
    }

    #[test]
    fn partial_line_survives_a_read_timeout() {
        // A request split across a read-timeout poll: "par" arrives,
        // the socket times out (the server's drain poll), the rest
        // follows. The accumulator hands the timeout up but keeps the
        // received half, so the resumed call completes the line.
        let mut r = Scripted {
            steps: [
                Ok(&b"par"[..]),
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll")),
                Ok(&b"tial\nnext\n"[..]),
            ]
            .into_iter()
            .collect(),
            cur: b"",
        };
        let mut buf = Vec::new();
        let err = read_line_bounded_into(&mut r, 64, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(buf, b"par");
        match read_line_bounded_into(&mut r, 64, &mut buf).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "partial"),
            other => panic!("{other:?}"),
        }
        match read_line_bounded_into(&mut r, 64, &mut buf).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "next"),
            other => panic!("{other:?}"),
        }
    }
}
