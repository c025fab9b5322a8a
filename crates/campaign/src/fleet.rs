//! A supervised local fleet: N in-process scan daemons on ephemeral
//! ports, for `campaign run --fleet N` and the fleet e2e tests.
//!
//! Each daemon is a full [`saint_service`] event-loop server with its
//! own warm [`ScanEngine`] over one *shared* framework model (the
//! frozen/curated artifacts are reference-counted, not copied). The
//! fleet names daemons `campaign-0..N-1` so `status`/`metrics`
//! provenance and the campaign report's per-daemon attribution line
//! up.
//!
//! [`kill`](LocalFleet::kill) exists for the failover tests: it begins
//! a graceful drain on one daemon, which makes that daemon answer
//! `draining` and then drop connections — exactly the signal sequence
//! the campaign driver must classify as daemon loss, not as a bad
//! package. (Process-level SIGKILL coverage lives in the CI smoke job,
//! which runs real `saintdroid serve` children.)

use std::sync::Arc;
use std::time::Duration;

use saint_adf::AndroidFramework;
use saint_service::{ServerConfig, ServerHandle};
use saintdroid::ScanEngine;

use crate::error::CampaignError;

/// Per-daemon knobs for a local fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scan workers per daemon.
    pub jobs: usize,
    /// Queue slots beyond the workers, per daemon.
    pub queue_depth: usize,
    /// Artificial per-scan service time (capacity emulation on hosts
    /// with fewer cores than daemons); `None` runs at native speed.
    pub scan_pace: Option<Duration>,
    /// Whether to prewarm each engine before serving (pays the
    /// one-time framework cost up front; recommended outside tests
    /// that only care about wiring).
    pub prewarm: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            jobs: saintdroid::engine::default_jobs(),
            queue_depth: 64,
            scan_pace: None,
            prewarm: true,
        }
    }
}

/// N supervised in-process daemons. Dropping the fleet drains them.
pub struct LocalFleet {
    daemons: Vec<Option<ServerHandle>>,
    endpoints: Vec<String>,
}

impl LocalFleet {
    /// Starts `count` daemons over a shared framework model.
    ///
    /// # Errors
    /// Socket errors from daemon startup.
    pub fn start(
        framework: &Arc<AndroidFramework>,
        count: usize,
        cfg: &FleetConfig,
    ) -> Result<Self, CampaignError> {
        let mut daemons = Vec::with_capacity(count);
        let mut endpoints = Vec::with_capacity(count);
        for i in 0..count {
            let engine = ScanEngine::new(Arc::clone(framework));
            if cfg.prewarm {
                engine.prewarm();
            }
            let server_cfg = ServerConfig {
                listen: "127.0.0.1:0".to_string(),
                jobs: cfg.jobs.max(1),
                queue_depth: cfg.queue_depth,
                name: Some(format!("campaign-{i}")),
                scan_pace: cfg.scan_pace,
                ..ServerConfig::default()
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
