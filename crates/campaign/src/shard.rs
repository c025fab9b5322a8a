//! The shard planner: consistent hashing of campaign ids onto daemon
//! endpoints.
//!
//! Each endpoint contributes [`VNODES`] points to a hash ring (the
//! classic virtual-node construction); a unit goes to the endpoint
//! owning the first ring point at or after the hash of its campaign
//! id. Two properties make this the right planner for a fleet:
//!
//! 1. **Determinism** — the assignment is a pure function of the
//!    endpoint set and the id. Run the same campaign against the same
//!    fleet twice and every unit lands on the same daemon, which keeps
//!    per-daemon behaviour reproducible and makes the fleet e2e's
//!    baseline comparison meaningful.
//! 2. **Minimal disruption** — when a daemon dies, *only* its ring
//!    points disappear. Every unit that was assigned to a survivor
//!    stays exactly where it was; the dead daemon's residual shard is
//!    redistributed across the survivors. The driver leans on this for
//!    failover: no completed or in-flight work on healthy daemons is
//!    ever reshuffled.

use saint_frozen::{fnv1a, FNV_OFFSET};

/// The splitmix64 finalizer. FNV-1a avalanches poorly in the high
/// bits for near-identical inputs (endpoint strings differing in one
/// digit, sequential vnode counters), which visibly skews the ring;
/// one mixing round restores uniformity while staying a pure,
/// dependency-free function.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Virtual nodes per endpoint. 64 points per daemon keeps the ring
/// balanced within a few percent for small fleets without making ring
/// rebuilds measurable.
pub const VNODES: usize = 64;

/// Consistent-hash assignment of campaign ids to a (mutable) set of
/// daemon endpoints. Endpoint *indices* are stable for the planner's
/// lifetime — removal marks an endpoint dead and drops its ring
/// points, it never renumbers the others.
#[derive(Debug, Clone)]
pub struct ShardPlanner {
    endpoints: Vec<String>,
    alive: Vec<bool>,
    /// `(point, endpoint index)`, sorted by point. Rebuilt on removal.
    ring: Vec<(u64, usize)>,
}

impl ShardPlanner {
    /// Builds the ring over `endpoints`. Order does not influence the
    /// assignment (points are keyed on the endpoint string), only the
    /// indices handed back by [`assign`](Self::assign).
    #[must_use]
    pub fn new(endpoints: &[String]) -> Self {
        let mut planner = ShardPlanner {
            endpoints: endpoints.to_vec(),
            alive: vec![true; endpoints.len()],
            ring: Vec::new(),
        };
        planner.rebuild();
        planner
    }

    fn rebuild(&mut self) {
        self.ring.clear();
        for (idx, endpoint) in self.endpoints.iter().enumerate() {
            if !self.alive[idx] {
                continue;
            }
            for v in 0..VNODES {
                let mut h = fnv1a(endpoint.as_bytes(), FNV_OFFSET);
                h = fnv1a(b"#", h);
                h = fnv1a(&(v as u64).to_le_bytes(), h);
                self.ring.push((mix(h), idx));
            }
        }
        // Ties (astronomically unlikely) break on index so the ring
        // stays a deterministic function of the endpoint set.
        self.ring.sort_unstable();
    }

    /// The endpoint list as given at construction (dead ones included —
    /// indices returned by [`assign`](Self::assign) point in here).
    #[must_use]
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Whether an endpoint is still in the ring.
    #[must_use]
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive.get(idx).copied().unwrap_or(false)
    }

    /// Number of endpoints still in the ring.
    #[must_use]
    pub fn alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Drops an endpoint's ring points (its shard redistributes to the
    /// survivors; nobody else's assignment moves). Idempotent.
    pub fn remove(&mut self, idx: usize) {
        if idx < self.alive.len() && self.alive[idx] {
            self.alive[idx] = false;
            self.rebuild();
        }
    }

    /// The endpoint index owning a campaign id, or `None` when every
    /// endpoint has been removed.
    #[must_use]
    pub fn assign(&self, id: u64) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let h = mix(fnv1a(&id.to_le_bytes(), FNV_OFFSET));
        let at = self.ring.partition_point(|&(point, _)| point < h);
        let (_, idx) = self.ring[at % self.ring.len()];
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_order_independent() {
        let fwd = ShardPlanner::new(&endpoints(4));
        let mut rev_list = endpoints(4);
        rev_list.reverse();
        let rev = ShardPlanner::new(&rev_list);
        for id in 0..10_000_u64 {
            let a = fwd.assign(id).expect("assigned");
            let b = rev.assign(id).expect("assigned");
            // Same endpoint *string*, independent of construction order.
            assert_eq!(fwd.endpoints()[a], rev.endpoints()[b]);
        }
    }

    #[test]
    fn ring_is_reasonably_balanced() {
        let planner = ShardPlanner::new(&endpoints(4));
        let mut counts = [0_usize; 4];
        for id in 0..40_000_u64 {
            counts[planner.assign(id).expect("assigned")] += 1;
        }
        for &c in &counts {
            // Perfect balance is 10_000; virtual nodes keep every shard
            // within a loose 2x band (the driver's pipelining absorbs
            // the rest).
            assert!((5_000..=20_000).contains(&c), "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn removal_moves_only_the_dead_shard() {
        let mut planner = ShardPlanner::new(&endpoints(4));
        let before: Vec<usize> = (0..10_000_u64)
            .map(|id| planner.assign(id).expect("assigned"))
            .collect();
        planner.remove(2);
        assert_eq!(planner.alive(), 3);
        for (id, &owner_before) in before.iter().enumerate() {
            let owner_after = planner.assign(id as u64).expect("assigned");
            if owner_before != 2 {
                assert_eq!(
                    owner_after, owner_before,
                    "survivor shard moved for id {id}"
                );
            } else {
                assert_ne!(owner_after, 2, "dead endpoint still assigned id {id}");
            }
        }
        // Idempotent.
        planner.remove(2);
        assert_eq!(planner.alive(), 3);
    }

    #[test]
    fn empty_ring_assigns_nothing() {
        let mut planner = ShardPlanner::new(&endpoints(2));
        planner.remove(0);
        planner.remove(1);
        assert_eq!(planner.alive(), 0);
        assert_eq!(planner.assign(42), None);
    }
}
