//! Seeded open-loop arrival schedules.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Due times, relative to the start of the stream, of `count` Poisson
/// arrivals at `rate` per second. They are drawn as a Poisson process
/// conditioned on `count` arrivals in `count / rate` seconds (sorted
/// uniform times), so every seed offers the same amount of traffic over
/// the same window and only the burst pattern changes. The same seed
/// gives the same schedule.
///
/// # Panics
/// Panics unless `rate` is positive and finite.
#[must_use]
pub fn poisson_offsets(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    assert!(
        rate.is_finite() && rate > 0.0,
        "arrival rate must be positive"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0A77_1FA1_5EED_0001);
    let window = count as f64 / rate;
    let mut at: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * window).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}
