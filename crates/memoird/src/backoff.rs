//! Deterministic retry scheduling: the rung ladder and seeded
//! exponential backoff with jitter.
//!
//! Both functions here are pure: the rung for attempt `k` depends only
//! on the [`RetryPolicy`], and the backoff before attempt `k` of job `j`
//! depends only on `(policy, service seed, j, k)`. That purity is the
//! backbone of the determinism guarantee tested by the backoff proptest:
//! the same seed and fault plan yield the identical retry schedule and
//! final outcome across runs and across worker-thread counts.

use crate::job::Rung;
use passman::SplitMix64;

/// Mixes independent key parts into one decorrelated seed.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut g = SplitMix64::new(
        a ^ b.wrapping_mul(0xA24B_AED4_963E_E407) ^ c.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    g.next_u64()
}

/// How a job retries: attempt count, ladder shape, and backoff curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (1 = no retries).
    pub max_attempts: usize,
    /// Same-config retries before the ladder starts escalating (the
    /// transient-blip allowance).
    pub same_config_retries: usize,
    /// Base backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
    /// Whether to jitter each delay (deterministically, from the seed)
    /// into `[delay/2, delay]` to decorrelate retry herds.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            same_config_retries: 1,
            base_backoff_ms: 10,
            max_backoff_ms: 1000,
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// The degradation rung attempt `attempt` (0-based) runs on: the
    /// submitted config for attempt 0 plus `same_config_retries`, then
    /// one attempt each of [`Rung::Serial`] and [`Rung::NoCache`], then
    /// [`Rung::Baseline`] for whatever remains.
    pub fn rung_for_attempt(&self, attempt: usize) -> Rung {
        let r = self.same_config_retries;
        if attempt <= r {
            Rung::Full
        } else if attempt == r + 1 {
            Rung::Serial
        } else if attempt == r + 2 {
            Rung::NoCache
        } else {
            Rung::Baseline
        }
    }

    /// Deterministic backoff before `attempt` (0-based; attempt 0 never
    /// waits): exponential in the retry index, capped, with seeded
    /// jitter into `[delay/2, delay]`.
    pub fn backoff_ms(&self, seed: u64, job: u64, attempt: usize) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = (attempt - 1).min(20) as u32;
        let delay = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms);
        if !self.jitter || delay <= 1 {
            return delay;
        }
        let mut rng = SplitMix64::new(mix(seed, job, attempt as u64));
        delay / 2 + rng.below(delay - delay / 2 + 1)
    }

    /// The full worst-case schedule for a job: `(rung, backoff_ms)` for
    /// every attempt the policy allows.
    pub fn schedule(&self, seed: u64, job: u64) -> Vec<(Rung, u64)> {
        (0..self.max_attempts.max(1))
            .map(|a| (self.rung_for_attempt(a), self.backoff_ms(seed, job, a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_key_parts() {
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 1, 3));
        assert_eq!(mix(7, 8, 9), mix(7, 8, 9));
    }

    #[test]
    fn ladder_shape() {
        let p = RetryPolicy::default(); // 5 attempts, 1 same-config retry
        let rungs: Vec<Rung> = (0..5).map(|a| p.rung_for_attempt(a)).collect();
        assert_eq!(
            rungs,
            vec![
                Rung::Full,
                Rung::Full,
                Rung::Serial,
                Rung::NoCache,
                Rung::Baseline
            ]
        );
        // Extra attempts stay at the bottom of the ladder.
        assert_eq!(p.rung_for_attempt(9), Rung::Baseline);

        let eager = RetryPolicy {
            same_config_retries: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(eager.rung_for_attempt(1), Rung::Serial);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy {
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            jitter: false,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(1, 0, 0), 0);
        assert_eq!(p.backoff_ms(1, 0, 1), 10);
        assert_eq!(p.backoff_ms(1, 0, 2), 20);
        assert_eq!(p.backoff_ms(1, 0, 3), 40);
        assert_eq!(p.backoff_ms(1, 0, 5), 100, "capped");
        assert_eq!(p.backoff_ms(1, 0, 60), 100, "no shift overflow");

        let j = RetryPolicy { jitter: true, ..p };
        for attempt in 1..6 {
            let base = p.backoff_ms(7, 3, attempt);
            let a = j.backoff_ms(7, 3, attempt);
            let b = j.backoff_ms(7, 3, attempt);
            assert_eq!(a, b, "jitter is a pure function of (seed, job, attempt)");
            assert!(
                a >= base / 2 && a <= base,
                "{a} not in [{}, {base}]",
                base / 2
            );
        }
        // Different jobs and seeds draw different jitter (overwhelmingly).
        let draws: std::collections::HashSet<u64> =
            (0..32).map(|job| j.backoff_ms(7, job, 4)).collect();
        assert!(draws.len() > 4, "{draws:?}");
    }

    #[test]
    fn schedule_matches_pointwise_queries() {
        let p = RetryPolicy::default();
        let s = p.schedule(42, 3);
        assert_eq!(s.len(), 5);
        for (a, &(rung, ms)) in s.iter().enumerate() {
            assert_eq!(rung, p.rung_for_attempt(a));
            assert_eq!(ms, p.backoff_ms(42, 3, a));
        }
    }
}
