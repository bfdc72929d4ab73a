//! The workspace's one deterministic RNG (SplitMix64).
//!
//! The workspace is fully offline — no `rand` crate — and every consumer
//! must replay from a seed alone (fuzz campaigns and `.repro` files,
//! cross-validation probe synthesis, service backoff jitter), so a
//! 64-bit splittable mixer is exactly enough. It lives here, in the
//! lowest crate all of them depend on.

/// SplitMix64: one `u64` of state, full-period, excellent mixing.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift: negligible bias for the small bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// `next_u64() % bound` (`0` is treated as `1`): the reduction the
    /// probe-synthesis streams were fixed with. New callers want
    /// [`below`](SplitMix64::below).
    pub fn below_mod(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform `usize` in `0..bound`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli draw: true with probability `num/denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }

    /// A derived generator for sub-stream `n` (e.g. one per fuzz case),
    /// decorrelated from the parent by mixing.
    pub fn split(&self, n: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(self.state ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
        g.next_u64(); // discard one output to decouple nearby seeds
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // All distinct (astronomically likely for a good mixer).
        let set: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(set.len(), xs.len());
    }

    #[test]
    fn below_is_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(g.below(13) < 13);
        }
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[g.index(4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 600),
            "roughly uniform: {counts:?}"
        );
    }

    #[test]
    fn split_streams_differ() {
        let g = SplitMix64::new(1);
        let mut s0 = g.split(0);
        let mut s1 = g.split(1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }
}
