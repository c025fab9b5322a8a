//! # saint-faults — deterministic fault injection for the scan pipeline
//!
//! Fault tolerance that is only exercised by real bugs is untested
//! fault tolerance. This crate plants named *injection points* at the
//! pipeline's isolation boundaries — SAPK decode, Algorithm-1
//! exploration (entry and per-task), each AMD detector, and the
//! daemon's queue hand-off — and lets tests and the CI smoke job arm
//! them with a **countdown**: the first `n` executions of an armed
//! point panic deterministically, every later one is a no-op. That
//! yields reproducible sequences like "the first decode and the second
//! scan's exploration panic, everything afterwards is clean", which is
//! exactly what the fault-injection e2e asserts byte-identical reports
//! against.
//!
//! Two ways to arm:
//!
//! * programmatically — [`arm`]`(point, n)` from a test;
//! * environment — `SAINT_FAULTS="decode:1,explore:2"` ([`ENV_VAR`]),
//!   parsed once on first use, which is how the CI smoke job injects
//!   panics into a stock `saintdroid serve` process.
//!
//! When nothing is armed (every production run), [`trip`] is a single
//! relaxed atomic load — cheap enough to sit on the decode and
//! exploration hot paths.
//!
//! The injected panic payload is a `String` of the form
//! `"saint-faults: injected panic at <point>"`, so the `ScanError`
//! surfaced to clients names the tripped point.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// Environment variable holding the arming spec, e.g.
/// `SAINT_FAULTS="decode:1,detect_invocation:2"`.
pub const ENV_VAR: &str = "SAINT_FAULTS";

/// The named injection points, one per isolation boundary of the scan
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultPoint {
    /// Entry of `codec::decode_apk` (exercises the handler-side decode
    /// isolation in the daemon).
    Decode = 0,
    /// Entry of an Algorithm-1 exploration (one trip per scan).
    Explore = 1,
    /// One task of the *parallel* exploration pool (per visited
    /// target — exercises the pool's panic containment).
    ExploreTask = 2,
    /// Entry of the API-invocation detector.
    DetectInvocation = 3,
    /// Entry of the callback detector.
    DetectCallback = 4,
    /// Entry of the permission detector.
    DetectPermission = 5,
    /// The daemon scan worker, after dequeue and *outside* the per-job
    /// isolation — kills the worker thread (exercises respawn).
    QueueHandoff = 6,
    /// The campaign driver's dispatch loop, before a work-unit chunk is
    /// put on the wire — crashes the whole campaign process mid-run
    /// (exercises `campaign resume` from the journal).
    CampaignDispatch = 7,
    /// Entry of the declared-SDK consistency (DSD) detector.
    DetectDeclaredSdk = 8,
}

impl FaultPoint {
    /// Every injection point, in wire order.
    pub const ALL: [FaultPoint; 9] = [
        FaultPoint::Decode,
        FaultPoint::Explore,
        FaultPoint::ExploreTask,
        FaultPoint::DetectInvocation,
        FaultPoint::DetectCallback,
        FaultPoint::DetectPermission,
        FaultPoint::QueueHandoff,
        FaultPoint::CampaignDispatch,
        FaultPoint::DetectDeclaredSdk,
    ];

    /// Stable snake_case name, used in the [`ENV_VAR`] spec and the
    /// injected panic payload.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultPoint::Decode => "decode",
            FaultPoint::Explore => "explore",
            FaultPoint::ExploreTask => "explore_task",
            FaultPoint::DetectInvocation => "detect_invocation",
            FaultPoint::DetectCallback => "detect_callback",
            FaultPoint::DetectPermission => "detect_permission",
            FaultPoint::QueueHandoff => "queue_handoff",
            FaultPoint::CampaignDispatch => "campaign_dispatch",
            FaultPoint::DetectDeclaredSdk => "detect_declared_sdk",
        }
    }

    /// Parses a stable name back to its point.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Remaining trip counts, one per point. `ANY_ARMED` is the disarmed
/// fast path: production runs never touch the per-point slots.
static REMAINING: [AtomicU64; FaultPoint::ALL.len()] =
    [const { AtomicU64::new(0) }; FaultPoint::ALL.len()];
static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn ensure_env_loaded() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var(ENV_VAR) else {
            return;
        };
        match parse_spec(&spec) {
            Ok(points) => {
                for (point, n) in points {
                    REMAINING[point as usize].store(n, Ordering::SeqCst);
                    if n > 0 {
                        ANY_ARMED.store(true, Ordering::SeqCst);
                    }
                }
            }
            Err(e) => eprintln!("saint-faults: ignoring malformed {ENV_VAR}: {e}"),
        }
    });
}

/// Parses an arming spec: comma-separated `point:count` pairs
/// (whitespace around entries ignored, empty entries skipped).
///
/// # Errors
/// A human-readable message naming the malformed entry.
pub fn parse_spec(spec: &str) -> Result<Vec<(FaultPoint, u64)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, count) = entry
            .split_once(':')
            .ok_or_else(|| format!("entry {entry:?} is not point:count"))?;
        let point = FaultPoint::from_name(name.trim())
            .ok_or_else(|| format!("unknown fault point {name:?}"))?;
        let n: u64 = count
            .trim()
            .parse()
            .map_err(|_| format!("count {count:?} is not a number"))?;
        out.push((point, n));
    }
    Ok(out)
}

/// Arms a point: the next `n` [`trip`]s of it panic. Overwrites any
/// previous (or environment-derived) count for the point.
pub fn arm(point: FaultPoint, n: u64) {
    ensure_env_loaded();
    REMAINING[point as usize].store(n, Ordering::SeqCst);
    if n > 0 {
        ANY_ARMED.store(true, Ordering::SeqCst);
    }
}

/// Disarms every point (environment arming included).
pub fn reset() {
    ensure_env_loaded();
    for slot in &REMAINING {
        slot.store(0, Ordering::SeqCst);
    }
    ANY_ARMED.store(false, Ordering::SeqCst);
}

/// Remaining injected panics for a point.
#[must_use]
pub fn remaining(point: FaultPoint) -> u64 {
    ensure_env_loaded();
    REMAINING[point as usize].load(Ordering::SeqCst)
}

/// An injection point. Disarmed (the only production state): one
/// relaxed load, no panic. Armed with a positive countdown: consumes
/// one count and panics with a payload naming the point.
///
/// # Panics
/// Deliberately — that is the injected fault.
pub fn trip(point: FaultPoint) {
    // The env load must precede the disarmed fast path: a process armed
    // *only* through `SAINT_FAULTS` (the CI smoke's stock daemon) calls
    // nothing but `trip`, so this is its one chance to parse the spec.
    // `Once` keeps the post-init cost at a single atomic load.
    ensure_env_loaded();
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let slot = &REMAINING[point as usize];
    let mut remaining = slot.load(Ordering::SeqCst);
    while remaining > 0 {
        match slot.compare_exchange(remaining, remaining - 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => panic!("saint-faults: injected panic at {}", point.name()),
            Err(actual) => remaining = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    // The armed state is process-global, so the tests in this file
    // serialize themselves on one lock (cargo's test harness runs them
    // on parallel threads otherwise).
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn names_roundtrip() {
        for point in FaultPoint::ALL {
            assert_eq!(FaultPoint::from_name(point.name()), Some(point));
        }
        assert_eq!(FaultPoint::from_name("nope"), None);
    }

    #[test]
    fn parse_spec_accepts_lists_and_rejects_garbage() {
        let parsed = parse_spec("decode:1, explore : 2 ,,queue_handoff:0").expect("valid spec");
        assert_eq!(
            parsed,
            vec![
                (FaultPoint::Decode, 1),
                (FaultPoint::Explore, 2),
                (FaultPoint::QueueHandoff, 0),
            ]
        );
        assert!(parse_spec("decode").is_err());
        assert!(parse_spec("warp_core:1").is_err());
        assert!(parse_spec("decode:lots").is_err());
        assert_eq!(parse_spec("").expect("empty is fine"), vec![]);
    }

    #[test]
    fn countdown_trips_exactly_n_times() {
        let _guard = serial();
        reset();
        arm(FaultPoint::Decode, 2);
        assert_eq!(remaining(FaultPoint::Decode), 2);
        for expected_remaining in [1, 0] {
            let caught = catch_unwind(|| trip(FaultPoint::Decode));
            let payload = caught.expect_err("armed trip panics");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("injected panic at decode"), "{msg}");
            assert_eq!(remaining(FaultPoint::Decode), expected_remaining);
        }
        // Spent: the point is a no-op again.
        trip(FaultPoint::Decode);
        // Other points were never armed.
        trip(FaultPoint::Explore);
        reset();
    }

    #[test]
    fn disarmed_trip_is_a_no_op() {
        let _guard = serial();
        reset();
        for point in FaultPoint::ALL {
            trip(point);
        }
    }

    #[test]
    fn concurrent_trips_never_overshoot() {
        let _guard = serial();
        reset();
        arm(FaultPoint::ExploreTask, 5);
        let panics: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..100)
                            .filter(|_| catch_unwind(|| trip(FaultPoint::ExploreTask)).is_err())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("counter thread"))
                .sum()
        });
        assert_eq!(panics, 5, "exactly the armed count fires");
        assert_eq!(remaining(FaultPoint::ExploreTask), 0);
        reset();
    }
}
