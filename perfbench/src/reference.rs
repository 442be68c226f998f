//! A fixed reference workload that gauges how fast the machine runs.
//!
//! A shared machine's full speed moves from one run to the next (clock
//! frequency, load on the host's other cores and caches), and it moves
//! every timing of a run together. The run times this reference between
//! its episodes, never inside one, and the end-to-end timings are scaled
//! by how much slower or faster than nominal the reference ran. The
//! reference is the benchmark's own code, so a change to the program
//! cannot move it.
//!
//! It imitates what the simulator spends its time on: rendering integers
//! as decimal text, hashing the text, table lookups in a working set the
//! size of a core's private cache, and floating-point arithmetic. It
//! allocates nothing once built, so the heap an episode leaves behind
//! does not change its speed.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the lookup table (512 KiB of `u64`).
const TABLE: usize = 1 << 16;
/// Rounds of one unit, about 90 µs at full speed on a 2020s server core.
const ROUNDS: u64 = 2_000;
/// Units timed after each episode.
pub const UNITS_PER_EPISODE: usize = 32;

/// Host time of one unit, nanoseconds, at the nominal speed: the 5th
/// percentile of units on the 2-vCPU Xeon machine the benchmark was
/// tuned on. Scaled timings read as if the run had gone at this speed.
pub const NOMINAL_UNIT_NS: f64 = 90_000.0;

/// The reference workload's state.
pub struct Reference {
    table: Vec<u64>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            x: 0x2545_f491_4f6c_dd1d,
        }
    }
}

impl Reference {
    /// One unit of reference work; returns a value that depends on all of
    /// it.
    fn unit(&mut self) -> u64 {
        let mut digits = [0u8; 20];
        let mut acc = 0u64;
        let mut f = 1.0f64;
        for _ in 0..ROUNDS {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Decimal rendering, as a pseudo-file render does.
            let mut v = self.x >> 11;
            let mut n = 0;
            loop {
                digits[19 - n] = b'0' + (v % 10) as u8;
                v /= 10;
                n += 1;
                if v == 0 {
                    break;
                }
            }
            // FNV-1a over the text, then a dependent table lookup.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in &digits[20 - n..] {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let i = (h as usize) & (TABLE - 1);
            let j = (self.table[i] as usize ^ i) & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(h);
            acc = acc.wrapping_add(self.table[j]);
            f = f.mul_add(0.999_9, ((h >> 12) as f64).sqrt() * 1e-9);
        }
        acc ^ f.to_bits()
    }

    /// Times [`UNITS_PER_EPISODE`] units, appending each to `out`,
    /// nanoseconds.
    pub fn sample(&mut self, out: &mut Vec<u64>) {
        for _ in 0..UNITS_PER_EPISODE {
            let t = Instant::now();
            black_box(self.unit());
            out.push(t.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_deterministic_work() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        let xs: Vec<u64> = (0..3).map(|_| a.unit()).collect();
        let ys: Vec<u64> = (0..3).map(|_| b.unit()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn sample_times_every_unit() {
        let mut r = Reference::default();
        let mut out = Vec::new();
        r.sample(&mut out);
        assert_eq!(out.len(), UNITS_PER_EPISODE);
        assert!(out.iter().all(|&ns| ns > 0));
    }
}
