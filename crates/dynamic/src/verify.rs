//! Verifying static findings with dynamic execution — the paper's
//! stated future work (§VI): "it should be possible to utilize dynamic
//! analysis techniques to automatically verify incompatibilities
//! identified through our conservative, static analysis based,
//! incompatibility detection technique, further alleviating the burden
//! of manual analysis."
//!
//! For every finding the verifier simulates the implicated device
//! levels and drives every framework-invokable entry point:
//!
//! * a matching observed crash **confirms** the finding;
//! * a crash-free, *complete* closed-world run (no budget exhaustion,
//!   no unanalyzable external calls) **refutes** it — this is what
//!   clears the anonymous-class false alarms static analysis cannot;
//! * anything else stays **undetermined**.

use std::collections::HashMap;
use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_ir::{ApiLevel, Apk};
use saintdroid::{Mismatch, MismatchKind, Report};
use serde::Serialize;

use crate::device::Device;
use crate::entries::entry_points;
use crate::interp::{CrashKind, RunOutcome, Simulator};

/// The verdict on one static finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// A simulated device crashed exactly as predicted.
    Confirmed,
    /// Closed-world execution completed at the implicated levels with
    /// no matching crash.
    Refuted,
    /// Execution was incomplete (budget, external code): no verdict.
    Undetermined,
}

/// The verification result for a whole report.
#[derive(Debug, Default)]
pub struct Verification {
    /// Findings with a matching observed crash.
    pub confirmed: Vec<Mismatch>,
    /// Findings contradicted by complete crash-free execution.
    pub refuted: Vec<Mismatch>,
    /// Findings execution could not decide.
    pub undetermined: Vec<Mismatch>,
}

impl Verification {
    /// Total findings examined.
    #[must_use]
    pub fn total(&self) -> usize {
        self.confirmed.len() + self.refuted.len() + self.undetermined.len()
    }

    /// Confirmed / decided — the dynamic precision estimate.
    #[must_use]
    pub fn confirmation_rate(&self) -> f64 {
        let decided = self.confirmed.len() + self.refuted.len();
        if decided == 0 {
            1.0
        } else {
            self.confirmed.len() as f64 / decided as f64
        }
    }
}

/// The dynamic verifier.
pub struct Verifier {
    framework: Arc<AndroidFramework>,
}

impl Verifier {
    /// Creates a verifier over the framework model the static analysis
    /// used.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Verifier { framework }
    }

    /// Verifies every finding in `report` against simulated devices.
    #[must_use]
    pub fn verify(&self, apk: &Apk, report: &Report) -> Verification {
        let entries = entry_points(apk);
        // One simulated run per implicated (level, hostile) pairing,
        // shared across findings: collect the pairings first, then run.
        let mut pairings: Vec<(ApiLevel, bool)> = Vec::new();
        for m in &report.mismatches {
            let pairing = match m.kind {
                MismatchKind::ApiInvocation => test_level(m).map(|l| (l, false)),
                MismatchKind::ApiCallback => None,
                MismatchKind::PermissionRequest => Some((
                    test_level(m).unwrap_or(ApiLevel::RUNTIME_PERMISSIONS),
                    false,
                )),
                MismatchKind::PermissionRevocation => {
                    Some((test_level(m).unwrap_or(ApiLevel::RUNTIME_PERMISSIONS), true))
                }
                // A DSD overuse is observable exactly like an API
                // invocation mismatch: the API is absent on the
                // implicated device levels.
                MismatchKind::DsdOveruse => test_level(m).map(|l| (l, false)),
                // A DSD underuse is a manifest-level inconsistency —
                // nothing crashes on any device, so there is no run to
                // schedule.
                MismatchKind::DsdUnderuse => None,
            };
            if let Some(p) = pairing {
                if !pairings.contains(&p) {
                    pairings.push(p);
                }
            }
        }
        let mut runs: HashMap<(ApiLevel, bool), RunOutcome> = HashMap::new();
        for (level, hostile) in pairings {
            let device = if hostile {
                Device::hostile(level)
            } else {
                Device::at(level)
            };
            let mut sim = Simulator::new(apk, &self.framework, device);
            runs.insert((level, hostile), sim.run_entries(&entries));
        }
        let run_at = |level: ApiLevel, hostile: bool| -> &RunOutcome {
            runs.get(&(level, hostile)).expect("pairing precomputed")
        };

        let mut out = Verification::default();
        for m in &report.mismatches {
            let verdict = match m.kind {
                MismatchKind::ApiInvocation => {
                    let level = test_level(m);
                    match level {
                        Some(level) => api_verdict(run_at(level, false), m),
                        None => Verdict::Undetermined,
                    }
                }
                MismatchKind::ApiCallback => {
                    // A callback mismatch is "the platform at level L
                    // has nothing to dispatch": probe the database the
                    // same way the dispatcher would.
                    let db = self.framework.database();
                    let missing_somewhere =
                        m.missing_levels.iter().any(|l| !db.contains(&m.api, *l));
                    if missing_somewhere {
                        Verdict::Confirmed
                    } else {
                        Verdict::Refuted
                    }
                }
                MismatchKind::PermissionRequest => {
                    let level = test_level(m).unwrap_or(ApiLevel::RUNTIME_PERMISSIONS);
                    permission_verdict(run_at(level, false), m)
                }
                MismatchKind::PermissionRevocation => {
                    let level = test_level(m).unwrap_or(ApiLevel::RUNTIME_PERMISSIONS);
                    permission_verdict(run_at(level, true), m)
                }
                MismatchKind::DsdOveruse => match test_level(m) {
                    Some(level) => api_verdict(run_at(level, false), m),
                    None => Verdict::Undetermined,
                },
                // Declared-bound inconsistencies never manifest as a
                // runtime crash; the dynamic layer cannot decide them.
                MismatchKind::DsdUnderuse => Verdict::Undetermined,
            };
            match verdict {
                Verdict::Confirmed => out.confirmed.push(m.clone()),
                Verdict::Refuted => out.refuted.push(m.clone()),
                Verdict::Undetermined => out.undetermined.push(m.clone()),
            }
        }
        out
    }
}

fn test_level(m: &Mismatch) -> Option<ApiLevel> {
    m.missing_levels
        .first()
        .copied()
        .map(ApiLevel::clamp_modeled)
}

fn api_verdict(run: &RunOutcome, m: &Mismatch) -> Verdict {
    let crashed = run.crashes.iter().any(|c| {
        c.kind == CrashKind::NoSuchMethod && c.api == m.api && c.app_frame.as_ref() == Some(&m.site)
    });
    if crashed {
        Verdict::Confirmed
    } else if run.complete {
        Verdict::Refuted
    } else {
        Verdict::Undetermined
    }
}

fn permission_verdict(run: &RunOutcome, m: &Mismatch) -> Verdict {
    let crashed = run.crashes.iter().any(|c| {
        matches!(&c.kind, CrashKind::SecurityException { permission }
            if Some(permission) == m.permission.as_ref())
            && c.api == m.api
            && c.app_frame.as_ref() == Some(&m.site)
    });
    if crashed {
        Verdict::Confirmed
    } else if run.complete {
        Verdict::Refuted
    } else {
        Verdict::Undetermined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_corpus::cases;
    use saintdroid::{CompatDetector, SaintDroid};

    fn tools() -> (SaintDroid, Verifier) {
        let fw = Arc::new(AndroidFramework::curated());
        (SaintDroid::new(Arc::clone(&fw)), Verifier::new(fw))
    }

    #[test]
    fn offline_calendar_confirmed() {
        let (saint, verifier) = tools();
        let apk = cases::offline_calendar();
        let report = saint.analyze(&apk).unwrap();
        let v = verifier.verify(&apk, &report);
        assert_eq!(v.confirmed.len(), 1, "refuted={:?}", v.refuted);
        assert!(v.refuted.is_empty());
    }

    #[test]
    fn kolab_and_adaway_confirmed() {
        let (saint, verifier) = tools();
        for apk in [cases::kolab_notes(), cases::adaway()] {
            let report = saint.analyze(&apk).unwrap();
            assert_eq!(report.total(), 1);
            let v = verifier.verify(&apk, &report);
            assert_eq!(v.confirmed.len(), 1, "{:?}", v.undetermined);
        }
    }

    #[test]
    fn fosdem_callback_confirmed() {
        let (saint, verifier) = tools();
        let apk = cases::fosdem();
        let report = saint.analyze(&apk).unwrap();
        let v = verifier.verify(&apk, &report);
        assert_eq!(v.confirmed.len(), 1);
    }

    #[test]
    fn anonymous_guard_false_alarm_refuted() {
        // The §VI false-alarm mechanism: the only caller of the
        // flagged helper guards correctly inside an anonymous class.
        // Static analysis cannot see it; the interpreter can — and
        // clears the alarm.
        use saint_corpus::patterns::anon_guarded_helper;
        let inj = anon_guarded_helper(
            "p.Night",
            saint_adf::well_known::context_get_color_state_list(),
            23,
        );
        let mut builder = saint_ir::ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Night");
        for c in inj.classes {
            builder = builder.class(c).unwrap();
        }
        let apk = builder.build();
        let (saint, verifier) = tools();
        let report = saint.analyze(&apk).unwrap();
        assert_eq!(
            report.family_count(saintdroid::Family::Api),
            1,
            "static side must raise the alarm"
        );
        let v = verifier.verify(&apk, &report);
        assert_eq!(v.refuted.len(), 1, "dynamic side must clear it: {v:?}");
        assert!(v.confirmed.is_empty());
    }

    #[test]
    fn verification_over_benchmark_suite() {
        let (saint, verifier) = tools();
        let mut confirmed = 0usize;
        let mut refuted = 0usize;
        let mut undetermined = 0usize;
        for app in saint_corpus::benchmark_suite() {
            let report = saint.analyze(&app.apk).unwrap();
            let v = verifier.verify(&app.apk, &report);
            confirmed += v.confirmed.len();
            refuted += v.refuted.len();
            undetermined += v.undetermined.len();
        }
        assert!(confirmed >= 25, "confirmed {confirmed}");
        // Exactly the injected anonymous-guard bait gets cleared.
        assert!(refuted >= 1, "refuted {refuted}");
        assert!(
            refuted + undetermined <= 4,
            "refuted {refuted} undetermined {undetermined}"
        );
    }
}
