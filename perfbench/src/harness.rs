//! What one workload episode hands back to the run loop.

/// Operation tally feeding `attempted`, `failed` and the error rate.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted: reads, steps and output checks.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Ops {
    /// Records one operation that succeeded when `ok`; `what` describes
    /// it if it did not.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// A digest of an episode's simulated outputs: equal digests mean every
/// value the workload observed was bit-identical. Mixes a 64-bit word at
/// a time (FNV-style multiply plus a shift) so that hashing every byte
/// read stays a small share of a step.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    /// Folds raw bytes in, length first.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        let mut words = b.chunks_exact(8);
        for w in &mut words {
            self.u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.u64(u64::from_le_bytes(tail));
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One episode: a fresh set-up followed by a fixed amount of simulated
/// work.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host time of the set-up (cloud construction, launches, faults).
    pub setup_s: f64,
    /// Host time of the measured phase after set-up.
    pub wall_s: f64,
    /// Host time of each timed piece of the measured phase after its
    /// control steps (such as a read-back), in order; part of `wall_s`.
    pub readback_s: Vec<f64>,
    /// Operation tally, checks included.
    pub ops: Ops,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Simulated seconds from each prober's arrival to its flag.
    pub flag_latency_s: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let d = |b: &[u8]| {
            let mut d = Digest::default();
            d.bytes(b);
            d.value()
        };
        assert_eq!(d(b"0123456789"), d(b"0123456789"));
        assert_ne!(d(b"0123456789"), d(b"0123456788"));
        assert_ne!(d(b"abc"), d(b"abc\0"));
    }

    #[test]
    fn ops_count_and_keep_a_few_failures() {
        let mut ops = Ops::default();
        for i in 0..20 {
            ops.check(i % 2 == 0, || format!("op {i}"));
        }
        assert_eq!((ops.attempted, ops.failed), (20, 10));
        assert_eq!(ops.failures.len(), 8);
        assert_eq!(ops.failures[0], "op 1");
    }
}
