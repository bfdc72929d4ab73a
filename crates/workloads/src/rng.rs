//! The xorshift64 generator every workload draws its inputs from.

/// xorshift64 with the (13, 7, 17) shift triple. The state is the seed;
/// a zero seed stays zero forever, so seeds must be nonzero.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    /// The next 64-bit draw.
    pub(crate) fn next(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s
    }

    /// A draw reduced into `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
