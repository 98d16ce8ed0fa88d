//! Message-loss models, applied on packet *reception* as in the paper
//! (§5.3: "each message is discarded upon reception with the specified
//! probability"), so that loss is independent at each receiver — the
//! property that makes random loss so damaging to stability detection.

use dbsm_sim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Decides whether an arriving packet is discarded.
///
/// Implementations are deterministic given their seed, so fault-injection
/// runs are reproducible.
pub trait LossModel {
    /// Returns `true` if the packet arriving at `now` with the given wire
    /// size must be dropped.
    fn should_drop(&mut self, now: SimTime, wire_bytes: usize) -> bool;
}

/// Drops each packet independently with probability `p` — the paper's
/// *Random loss* fault, modelling transmission errors.
#[derive(Debug, Clone)]
pub struct RandomLoss {
    p: f64,
    rng: SmallRng,
}

impl RandomLoss {
    /// Creates a random-loss model dropping with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range: {p}");
        RandomLoss { p, rng: SmallRng::seed_from_u64(seed) }
    }
}

impl LossModel for RandomLoss {
    fn should_drop(&mut self, _now: SimTime, _wire_bytes: usize) -> bool {
        self.rng.gen_bool(self.p)
    }
}

/// Alternates between *receive* and *discard* periods of random duration —
/// the paper's *Bursty loss* fault, modelling network congestion.
///
/// Period lengths are drawn uniformly in `[0, 2·mean)` (mean-preserving, as
/// the paper specifies "bursts of average length … uniformly distributed").
/// The discard-period mean is chosen so the *long-run loss fraction* equals
/// the requested rate; e.g. 5 % loss in bursts averaging 5 packets.
#[derive(Debug, Clone)]
pub struct BurstyLoss {
    dropping: bool,
    /// Packets remaining in the current period.
    remaining: u32,
    mean_burst: f64,
    mean_gap: f64,
    rng: SmallRng,
}

impl BurstyLoss {
    /// Creates a bursty-loss model with overall `loss_fraction` of packets
    /// dropped, in bursts averaging `mean_burst_len` packets.
    ///
    /// # Panics
    ///
    /// Panics if `loss_fraction` is not in `(0, 1)` or `mean_burst_len == 0`.
    pub fn new(loss_fraction: f64, mean_burst_len: u32, seed: u64) -> Self {
        assert!(loss_fraction > 0.0 && loss_fraction < 1.0, "loss fraction out of range");
        assert!(mean_burst_len > 0, "burst length must be positive");
        let mean_burst = f64::from(mean_burst_len);
        // loss = burst / (burst + gap)  =>  gap = burst * (1 - p) / p
        let mean_gap = mean_burst * (1.0 - loss_fraction) / loss_fraction;
        let mut m = BurstyLoss {
            dropping: false,
            remaining: 0,
            mean_burst,
            mean_gap,
            rng: SmallRng::seed_from_u64(seed),
        };
        m.next_period(false);
        m
    }

    fn next_period(&mut self, dropping: bool) {
        self.dropping = dropping;
        let mean = if dropping { self.mean_burst } else { self.mean_gap };
        // Uniform in [0, 2*mean): mean-preserving random period length.
        let len = self.rng.gen_range(0.0..2.0 * mean);
        self.remaining = len.round().max(1.0) as u32;
    }
}

impl LossModel for BurstyLoss {
    fn should_drop(&mut self, _now: SimTime, _wire_bytes: usize) -> bool {
        while self.remaining == 0 {
            let flip = !self.dropping;
            self.next_period(flip);
        }
        self.remaining -= 1;
        self.dropping
    }
}

/// Drops everything inside pseudo-randomly chosen *time windows* — the
/// building block of the correlated-burst fault: simulated time is sliced
/// into `window`-long slots and each slot independently becomes a blackout
/// with probability `p`, during which **every** arriving packet is dropped.
///
/// Unlike [`BurstyLoss`], whose burst schedule advances with each packet
/// (and therefore decorrelates across receivers), the blackout decision here
/// is a pure function of `(seed, slot index)`: two models constructed with
/// the *same seed* black out in the *same windows*, no matter how much
/// traffic each one sees. Installing same-seed clones on several hosts
/// yields loss bursts that hit all of them simultaneously — the correlated
/// congestion events that stall stability detection at every site at once.
///
/// # Examples
///
/// ```
/// use dbsm_net::{LossModel, WindowedBurst};
/// use dbsm_sim::SimTime;
/// use std::time::Duration;
///
/// let mut a = WindowedBurst::new(Duration::from_millis(10), 0.2, 7);
/// let mut b = WindowedBurst::new(Duration::from_millis(10), 0.2, 7);
/// for ms in 0..200 {
///     let now = SimTime::from_millis(ms);
///     // Same seed => identical blackout schedule at both receivers.
///     assert_eq!(a.should_drop(now, 100), b.should_drop(now, 100));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WindowedBurst {
    window_ns: u64,
    /// Blackout probability scaled to a 64-bit threshold.
    threshold: u64,
    seed: u64,
}

impl WindowedBurst {
    /// Creates a windowed-burst model: each `window`-long slot of simulated
    /// time is a total blackout with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `window` is zero.
    pub fn new(window: Duration, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "burst probability out of range: {p}");
        assert!(!window.is_zero(), "burst window must be positive");
        let threshold = if p >= 1.0 { u64::MAX } else { (p * u64::MAX as f64) as u64 };
        WindowedBurst { window_ns: window.as_nanos() as u64, threshold, seed }
    }

    /// True if the slot containing `now` is a blackout window.
    pub fn in_burst(&self, now: SimTime) -> bool {
        let slot = now.as_nanos() / self.window_ns;
        // SplitMix64 finalizer over (seed, slot): deterministic, stateless,
        // and identical for every same-seed clone.
        let mut z = self.seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z <= self.threshold && self.threshold > 0
    }
}

impl LossModel for WindowedBurst {
    fn should_drop(&mut self, now: SimTime, _wire_bytes: usize) -> bool {
        self.in_burst(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The long-run loss fraction of a model, estimated by driving it with
    /// `n` synthetic arrivals spaced `gap` apart.
    fn measure_loss_rate(model: &mut dyn LossModel, n: u32, gap: Duration) -> f64 {
        let mut now = SimTime::ZERO;
        let mut dropped = 0u32;
        for _ in 0..n {
            if model.should_drop(now, 1000) {
                dropped += 1;
            }
            now += gap;
        }
        f64::from(dropped) / f64::from(n)
    }

    #[test]
    fn random_loss_matches_probability() {
        let mut m = RandomLoss::new(0.05, 42);
        let rate = measure_loss_rate(&mut m, 100_000, Duration::from_micros(1));
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn random_loss_extremes() {
        let mut never = RandomLoss::new(0.0, 1);
        assert_eq!(measure_loss_rate(&mut never, 1000, Duration::from_micros(1)), 0.0);
        let mut always = RandomLoss::new(1.0, 1);
        assert_eq!(measure_loss_rate(&mut always, 1000, Duration::from_micros(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn random_loss_rejects_bad_probability() {
        let _ = RandomLoss::new(1.5, 0);
    }

    #[test]
    fn bursty_loss_matches_long_run_rate() {
        let mut m = BurstyLoss::new(0.05, 5, 7);
        let rate = measure_loss_rate(&mut m, 200_000, Duration::from_micros(1));
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bursty_loss_drops_in_runs() {
        // Consecutive drops should be far more likely than under independent
        // loss at the same rate: count drop->drop transitions.
        let mut m = BurstyLoss::new(0.05, 5, 11);
        let mut prev = false;
        let mut drops = 0u32;
        let mut pairs = 0u32;
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            let d = m.should_drop(now, 1000);
            if d {
                drops += 1;
                if prev {
                    pairs += 1;
                }
            }
            prev = d;
            now += Duration::from_micros(1);
        }
        let p_pair = f64::from(pairs) / f64::from(drops);
        // Under independent 5% loss p(drop | drop) ~= 0.05; bursts of mean 5
        // give ~0.8.
        assert!(p_pair > 0.5, "drop->drop fraction {p_pair}");
    }

    #[test]
    fn windowed_burst_long_run_rate_tracks_p() {
        let mut m = WindowedBurst::new(Duration::from_micros(100), 0.2, 3);
        let rate = measure_loss_rate(&mut m, 100_000, Duration::from_micros(7));
        assert!((rate - 0.2).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn windowed_burst_is_all_or_nothing_per_window() {
        let m = WindowedBurst::new(Duration::from_millis(1), 0.3, 11);
        for w in 0..200u64 {
            let burst = m.in_burst(SimTime::from_millis(w));
            // Every instant inside the same window agrees with its start.
            for off in [1u64, 499, 999] {
                let t = SimTime::from_nanos(w * 1_000_000 + off * 1_000);
                assert_eq!(m.clone().should_drop(t, 64), burst, "window {w} offset {off}");
            }
        }
    }

    #[test]
    fn windowed_burst_correlates_across_same_seed_clones() {
        let mut a = WindowedBurst::new(Duration::from_millis(5), 0.25, 9);
        let mut b = a;
        let mut differs_from_other_seed = false;
        let c = WindowedBurst::new(Duration::from_millis(5), 0.25, 10);
        for ms in 0..2000u64 {
            let now = SimTime::from_millis(ms);
            assert_eq!(a.should_drop(now, 1), b.should_drop(now, 1), "same seed, same fate");
            if a.in_burst(now) != c.in_burst(now) {
                differs_from_other_seed = true;
            }
        }
        assert!(differs_from_other_seed, "different seeds must give different schedules");
    }

    #[test]
    fn windowed_burst_extremes() {
        let mut never = WindowedBurst::new(Duration::from_millis(1), 0.0, 1);
        assert_eq!(measure_loss_rate(&mut never, 1000, Duration::from_micros(10)), 0.0);
        let mut always = WindowedBurst::new(Duration::from_millis(1), 1.0, 1);
        assert_eq!(measure_loss_rate(&mut always, 1000, Duration::from_micros(10)), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn windowed_burst_rejects_bad_probability() {
        let _ = WindowedBurst::new(Duration::from_millis(1), 1.1, 0);
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let mut a = RandomLoss::new(0.3, 9);
        let mut b = RandomLoss::new(0.3, 9);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            assert_eq!(a.should_drop(now, 1), b.should_drop(now, 1));
            now += Duration::from_micros(1);
        }
    }
}
