//! Typed scan failures and the panic-isolation plumbing behind them.
//!
//! A scan that panics — a detector bug on one pathological app, an
//! injected fault, a corrupted container — must cost exactly one
//! report, never a worker thread or a whole batch. The engine wraps
//! every scan in [`std::panic::catch_unwind`] and converts the payload
//! into a [`ScanError::Internal`] carrying two things a human (or a
//! regression test) needs to triage it: *which pipeline phase* was
//! executing when the unwind started, and the rendered panic message.
//!
//! The phase is tracked with a thread-local marker that each phase
//! scope sets on entry and restores **only on success** — an unwind
//! leaves the innermost phase name in place for the catch site to
//! read. Work that panics on a *different* thread (the scoped detector
//! workers) can't use the marker, because the thread-local dies with
//! the thread; those sites re-raise on the scanning thread as a
//! [`PhasePanic`] that carries the phase name alongside the original
//! payload.

use std::any::Any;
use std::cell::Cell;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A failure recorded in a [`Report`](crate::Report) instead of
/// crashing the scan that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ScanError {
    /// A pipeline phase panicked. The panic was caught at the engine's
    /// isolation boundary and demoted to this entry; the rest of the
    /// batch (and, in the daemon, every other request) is unaffected.
    Internal {
        /// Pipeline phase executing when the unwind started (`explore`,
        /// `arm_mine`, a detector family's phase such as
        /// `detect_invocation` or `detect_declared_sdk`), or else the
        /// phase the isolating caller named: `scan` for a plain scan,
        /// `decode` or `delta_scan` for a daemon request's other steps.
        phase: String,
        /// Rendered panic payload (the `panic!` message when it was a
        /// string, a placeholder otherwise).
        payload: String,
    },
}

impl ScanError {
    /// The phase name carried by this error.
    #[must_use]
    pub fn phase(&self) -> &str {
        match self {
            ScanError::Internal { phase, .. } => phase,
        }
    }
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Internal { phase, payload } => {
                write!(f, "internal error in phase `{phase}`: {payload}")
            }
        }
    }
}

impl std::error::Error for ScanError {}

/// Phase name used when a panic unwinds before any phase scope was
/// entered (or after the marker was reset).
pub(crate) const PHASE_UNKNOWN: &str = "scan";

thread_local! {
    static CURRENT_PHASE: Cell<&'static str> = const { Cell::new(PHASE_UNKNOWN) };
}

/// Runs `f` with the thread-local phase marker set to `phase`.
///
/// The previous marker is restored only when `f` returns normally: if
/// `f` unwinds, the marker keeps the innermost phase name so the
/// engine's catch site can attribute the panic.
pub(crate) fn in_phase<T>(phase: &'static str, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT_PHASE.with(|c| c.replace(phase));
    let out = f();
    CURRENT_PHASE.with(|c| c.set(prev));
    out
}

/// Resets the marker at scan entry, so a stale phase from an earlier
/// (caught) unwind on this thread can't leak into the next report.
pub(crate) fn reset_phase() {
    CURRENT_PHASE.with(|c| c.set(PHASE_UNKNOWN));
}

/// Panic payload wrapper that carries a phase name across threads.
///
/// Scoped detector workers panic on their own thread, where the
/// thread-local marker is useless to the join site; the joiner wraps
/// the original payload in one of these and re-raises with
/// [`std::panic::panic_any`] so the engine boundary sees both.
pub(crate) struct PhasePanic {
    /// Phase the panicking worker was running.
    pub phase: &'static str,
    /// The worker's original panic payload.
    pub payload: Box<dyn Any + Send>,
}

/// Renders a panic payload the way the default panic hook does:
/// `&str` and `String` payloads verbatim, anything else a placeholder.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Converts a caught panic payload into a typed error, preferring the
/// phase carried by a [`PhasePanic`] wrapper over the calling thread's
/// marker (the payload crossed a thread boundary in that case).
pub(crate) fn from_panic(payload: Box<dyn Any + Send>) -> ScanError {
    let (phase, message) = match payload.downcast::<PhasePanic>() {
        Ok(pp) => (pp.phase, panic_message(&*pp.payload)),
        Err(payload) => (CURRENT_PHASE.with(Cell::get), panic_message(&*payload)),
    };
    ScanError::Internal {
        phase: phase.to_string(),
        payload: message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

    #[test]
    fn marker_survives_unwind_and_restores_on_success() {
        reset_phase();
        let ok = in_phase("explore", || CURRENT_PHASE.with(Cell::get));
        assert_eq!(ok, "explore");
        assert_eq!(CURRENT_PHASE.with(Cell::get), PHASE_UNKNOWN);

        let payload = catch_unwind(AssertUnwindSafe(|| {
            in_phase("detect_invocation", || panic!("boom"));
        }))
        .unwrap_err();
        // The unwind left the innermost phase in place.
        let err = from_panic(payload);
        assert_eq!(err.phase(), "detect_invocation");
        assert!(err.to_string().contains("boom"));
        reset_phase();
    }

    #[test]
    fn nested_phases_attribute_to_the_innermost() {
        reset_phase();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            in_phase("explore", || in_phase("arm_mine", || panic!("inner")));
        }))
        .unwrap_err();
        assert_eq!(from_panic(payload).phase(), "arm_mine");
        reset_phase();
    }

    #[test]
    fn phase_panic_wrapper_wins_over_thread_local() {
        reset_phase();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            in_phase("explore", || {
                panic_any(PhasePanic {
                    phase: "detect_callback",
                    payload: Box::new("from a worker".to_string()),
                });
            });
        }))
        .unwrap_err();
        let err = from_panic(payload);
        assert_eq!(err.phase(), "detect_callback");
        assert!(err.to_string().contains("from a worker"));
        reset_phase();
    }

    #[test]
    fn panic_messages_render_strings_and_placeholders() {
        assert_eq!(panic_message(&"hi"), "hi");
        assert_eq!(panic_message(&"hi".to_string()), "hi");
        assert_eq!(panic_message(&42_u32), "non-string panic payload");
    }

    #[test]
    fn scan_error_round_trips_through_serde() {
        let err = ScanError::Internal {
            phase: "decode".into(),
            payload: "injected".into(),
        };
        let json = serde_json::to_string(&err).unwrap();
        let back: ScanError = serde_json::from_str(&json).unwrap();
        assert_eq!(err, back);
    }
}
