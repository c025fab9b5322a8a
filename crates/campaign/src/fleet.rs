//! A supervised local fleet: N in-process scan daemons on ephemeral
//! ports, for `campaign run --fleet N` and the fleet e2e tests.
//!
//! Each daemon is a full [`saint_service`] event-loop server over one
//! warm [`ScanEngine`] its caller built, so a fleet daemon serves
//! exactly what `saintdroid serve` would: the CLI builds both through
//! the same code (detector set, frozen image, prewarm). Engines may
//! share one framework model (it is reference-counted, not copied).
//! The fleet names daemons `campaign-0..N-1` so `status`/`metrics`
//! provenance and the campaign report's per-daemon attribution line
//! up.
//!
//! [`kill`](LocalFleet::kill) exists for the failover tests: it begins
//! a graceful drain on one daemon, which makes that daemon answer
//! `draining` and then drop connections — exactly the signal sequence
//! the campaign driver must classify as daemon loss, not as a bad
//! package. (Process-level SIGKILL coverage lives in the CI smoke job,
//! which runs real `saintdroid serve` children.)

use saint_service::{ServerConfig, ServerHandle};
use saintdroid::ScanEngine;

use crate::error::CampaignError;

/// N supervised in-process daemons. Dropping the fleet drains them.
pub struct LocalFleet {
    daemons: Vec<Option<ServerHandle>>,
    endpoints: Vec<String>,
}

impl LocalFleet {
    /// Starts one daemon per engine, each shaped by `cfg` except that
    /// it listens on an ephemeral loopback port and is named
    /// `campaign-<i>`.
    ///
    /// # Errors
    /// Socket errors from daemon startup.
    pub fn start(engines: Vec<ScanEngine>, cfg: &ServerConfig) -> Result<Self, CampaignError> {
        let mut daemons = Vec::with_capacity(engines.len());
        let mut endpoints = Vec::with_capacity(engines.len());
        for (i, engine) in engines.into_iter().enumerate() {
            let server_cfg = ServerConfig {
                listen: "127.0.0.1:0".to_string(),
                name: Some(format!("campaign-{i}")),
                ..cfg.clone()
            };
            let handle = saint_service::start(engine, &server_cfg)
                .map_err(|e| CampaignError::io(format!("cannot start fleet daemon {i}"), e))?;
            endpoints.push(handle.addr().to_string());
            daemons.push(Some(handle));
        }
        Ok(LocalFleet { daemons, endpoints })
    }

    /// The daemons' endpoints, index-aligned with the fleet.
    #[must_use]
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Number of daemons started (dead or alive).
    #[must_use]
    pub fn len(&self) -> usize {
        self.daemons.len()
    }

    /// Whether the fleet has no daemons.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.daemons.is_empty()
    }

    /// Takes daemon `idx` out of the fleet: it drains (answering
    /// `draining` to new work) and exits. Idempotent; out-of-range
    /// indices are ignored.
    pub fn kill(&mut self, idx: usize) {
        if let Some(slot) = self.daemons.get_mut(idx) {
            if let Some(handle) = slot.take() {
                handle.begin_shutdown();
                handle.wait();
            }
        }
    }

    /// Drains and joins every remaining daemon.
    pub fn shutdown(&mut self) {
        let handles: Vec<ServerHandle> = self.daemons.iter_mut().filter_map(Option::take).collect();
        for handle in &handles {
            handle.begin_shutdown();
        }
        for handle in handles {
            handle.wait();
        }
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
