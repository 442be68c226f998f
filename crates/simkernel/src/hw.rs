//! Hardware model: RAPL energy counters, the ground-truth power model,
//! core temperature sensors (coretemp DTS), and cpuidle states.
//!
//! This is the "physics" the paper's power channels observe and its defense
//! calibrates against. The ground-truth model makes package/core energy an
//! affine function of retired instructions whose slope depends on the
//! workload's cache-miss/branch-miss/FP mix — exactly the structure the
//! paper measures in Fig. 6 — and DRAM energy linear in cache misses
//! (Fig. 7). A small multiplicative noise term keeps the defense's
//! regression honest (nonzero Fig. 8 error).

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::sched::CpuTickLoad;
use crate::time::NANOS_PER_SEC;

/// Intel's RAPL energy-counter wrap point (`max_energy_range_uj`).
pub const RAPL_WRAP_UJ: u64 = 262_143_328_850;

/// Ground-truth power model parameters.
///
/// Calibrated so that magnitudes match the paper's observations: an idle
/// cloud server draws ≈ 110 W at the wall, a 4-core Prime95 container adds
/// ≈ 40 W (Fig. 4), and 8 servers of mixed benign load span ≈ 900–1200 W
/// (Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModelParams {
    /// Platform baseline (fans, disks, VRs, PSU) in watts.
    pub platform_idle_w: f64,
    /// Per-package uncore constant, watts.
    pub pkg_uncore_w: f64,
    /// Per-core idle leakage, watts.
    pub core_idle_w: f64,
    /// Per-core additional power when fully busy, watts.
    pub core_active_w: f64,
    /// Core energy per retired instruction, picojoules.
    pub energy_per_instr_pj: f64,
    /// Extra core energy per cache miss (stall/replay), picojoules.
    pub energy_per_cache_miss_pj: f64,
    /// Extra core energy per branch miss (flush), picojoules.
    pub energy_per_branch_miss_pj: f64,
    /// Multiplier applied to instruction energy for the FP fraction
    /// (an FP-heavy instruction stream draws more per instruction).
    pub fp_energy_factor: f64,
    /// Per-package DRAM idle (refresh) power, watts.
    pub dram_idle_w: f64,
    /// DRAM energy per cache miss serviced, picojoules.
    pub energy_per_dram_access_pj: f64,
    /// PSU efficiency (wall power = DC power / efficiency).
    pub psu_efficiency: f64,
    /// Multiplicative measurement/model noise per tick (std-dev fraction).
    pub noise_frac: f64,
}

impl Default for PowerModelParams {
    fn default() -> Self {
        PowerModelParams {
            platform_idle_w: 58.0,
            pkg_uncore_w: 9.0,
            core_idle_w: 1.3,
            core_active_w: 4.6,
            energy_per_instr_pj: 420.0,
            energy_per_cache_miss_pj: 9_000.0,
            energy_per_branch_miss_pj: 2_500.0,
            fp_energy_factor: 0.55,
            dram_idle_w: 2.2,
            energy_per_dram_access_pj: 31_000.0,
            psu_efficiency: 0.90,
            noise_frac: 0.008,
        }
    }
}

/// Accumulated RAPL counters for one package.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PackageEnergy {
    /// Package-domain energy, microjoules (unwrapped).
    pub package_uj: f64,
    /// Core (PP0) domain energy, microjoules (unwrapped).
    pub core_uj: f64,
    /// DRAM domain energy, microjoules (unwrapped).
    pub dram_uj: f64,
}

/// The RAPL interface: per-package accumulated energy counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaplDomains {
    present: bool,
    packages: Vec<PackageEnergy>,
}

impl RaplDomains {
    /// Creates counters for `packages` packages; `present` mirrors whether
    /// the CPU generation exposes RAPL at all.
    pub fn new(packages: usize, present: bool) -> Self {
        RaplDomains {
            present,
            packages: vec![PackageEnergy::default(); packages],
        }
    }

    /// Whether the hardware exposes RAPL.
    pub fn is_present(&self) -> bool {
        self.present
    }

    /// Number of packages.
    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    /// The `energy_uj` value for a package domain, with hardware wrap
    /// semantics. Returns 0 for out-of-range packages.
    pub fn package_energy_uj(&self, pkg: usize) -> u64 {
        self.packages
            .get(pkg)
            .map(|p| p.package_uj as u64 % RAPL_WRAP_UJ)
            .unwrap_or(0)
    }

    /// The core (PP0) domain counter, wrapped.
    pub fn core_energy_uj(&self, pkg: usize) -> u64 {
        self.packages
            .get(pkg)
            .map(|p| p.core_uj as u64 % RAPL_WRAP_UJ)
            .unwrap_or(0)
    }

    /// The DRAM domain counter, wrapped.
    pub fn dram_energy_uj(&self, pkg: usize) -> u64 {
        self.packages
            .get(pkg)
            .map(|p| p.dram_uj as u64 % RAPL_WRAP_UJ)
            .unwrap_or(0)
    }

    /// Unwrapped counters (simulation-side ground truth for tests and the
    /// defense's calibration loop).
    pub fn raw(&self, pkg: usize) -> Option<&PackageEnergy> {
        self.packages.get(pkg)
    }

    fn add(&mut self, pkg: usize, core_uj: f64, dram_uj: f64, uncore_uj: f64) {
        if let Some(p) = self.packages.get_mut(pkg) {
            p.core_uj += core_uj;
            p.dram_uj += dram_uj;
            p.package_uj += core_uj + dram_uj + uncore_uj;
        }
    }

    /// Zeroes every package's accumulators, as firmware does on reboot.
    pub fn reset(&mut self) {
        for p in &mut self.packages {
            *p = PackageEnergy::default();
        }
    }
}

/// One cpuidle state's residency counters (`/sys/devices/system/cpu/
/// cpu*/cpuidle/state*/{usage,time}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleStateResidency {
    /// Number of entries into this state.
    pub usage: u64,
    /// Total microseconds spent in this state.
    pub time_us: u64,
}

/// cpuidle state names, shallow to deep.
pub const IDLE_STATE_NAMES: [&str; 5] = ["POLL", "C1", "C1E", "C3", "C6"];

/// Per-CPU hardware state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuHw {
    /// Core temperature in milli-degrees Celsius (coretemp format).
    pub temp_mc: f64,
    /// Idle-state residency, indexed like [`IDLE_STATE_NAMES`].
    pub idle_states: [IdleStateResidency; 5],
    /// Current operating frequency in kHz (cpufreq's `scaling_cur_freq`):
    /// races to turbo under load, parks near the floor when idle — another
    /// host-activity channel visible through sysfs.
    pub cur_freq_khz: u64,
}

/// Instantaneous power breakdown over the last tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerSnapshot {
    /// Wall (AC) power in watts.
    pub wall_w: f64,
    /// Per-package (package, core, dram) watts.
    pub per_package_w: Vec<(f64, f64, f64)>,
}

/// The machine's hardware: power, thermal, idle-state models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hardware {
    params: PowerModelParams,
    rapl: RaplDomains,
    cpus: Vec<CpuHw>,
    cpus_per_package: usize,
    freq_hz: u64,
    has_coretemp: bool,
    last_snapshot: PowerSnapshot,
}

const AMBIENT_MC: f64 = 35_000.0;
const MC_PER_W: f64 = 5_200.0;
const THERMAL_TAU_S: f64 = 9.0;

impl Hardware {
    /// Builds hardware for `ncpus` CPUs in `packages` packages.
    pub fn new(
        ncpus: usize,
        packages: usize,
        freq_hz: u64,
        has_rapl: bool,
        has_coretemp: bool,
        params: PowerModelParams,
    ) -> Self {
        Hardware {
            params,
            rapl: RaplDomains::new(packages, has_rapl),
            cpus: (0..ncpus)
                .map(|_| CpuHw {
                    temp_mc: AMBIENT_MC,
                    idle_states: [IdleStateResidency::default(); 5],
                    cur_freq_khz: freq_hz / 1_000 / 2,
                })
                .collect(),
            cpus_per_package: (ncpus / packages.max(1)).max(1),
            freq_hz,
            has_coretemp,
            last_snapshot: PowerSnapshot::default(),
        }
    }

    /// The RAPL counters.
    pub fn rapl(&self) -> &RaplDomains {
        &self.rapl
    }

    /// Zeroes the monotone hardware counters — RAPL energy and cpuidle
    /// residency — as a crash-reboot does. Thermal state and frequency are
    /// physical, not counters, and survive.
    pub fn reset_monotone_counters(&mut self) {
        self.rapl.reset();
        for cpu in &mut self.cpus {
            cpu.idle_states = [IdleStateResidency::default(); 5];
        }
    }

    /// Per-CPU hardware state.
    pub fn cpus(&self) -> &[CpuHw] {
        &self.cpus
    }

    /// Whether coretemp sensors exist.
    pub fn has_coretemp(&self) -> bool {
        self.has_coretemp
    }

    /// The power model parameters.
    pub fn params(&self) -> &PowerModelParams {
        &self.params
    }

    /// Power drawn over the most recent tick.
    pub fn last_power(&self) -> &PowerSnapshot {
        &self.last_snapshot
    }

    /// The package a CPU belongs to.
    pub fn package_of(&self, cpu: usize) -> usize {
        (cpu / self.cpus_per_package).min(self.rapl.package_count().saturating_sub(1))
    }

    /// Integrates one tick of load into energy counters, temperatures and
    /// idle-state residency. Allocation-free once the model has ticked:
    /// the last snapshot's per-package buffer first collects this tick's
    /// (_, core, dram) sums, then is rewritten in place.
    pub fn tick(&mut self, dt_ns: u64, load: &[CpuTickLoad], rng: &mut StdRng) {
        let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
        let p = self.params.clone();
        let npkg = self.rapl.package_count();
        let mut per_pkg = std::mem::take(&mut self.last_snapshot.per_package_w);
        per_pkg.clear();
        per_pkg.reserve_exact(npkg);
        per_pkg.resize(npkg, (0.0, 0.0, 0.0));
        // Loop-invariant pieces of the per-CPU thermal/governor models.
        let alpha = 1.0 - (-dt_s / THERMAL_TAU_S).exp();
        let base_khz = self.freq_hz as f64 / 1_000.0;

        for (cpu, l) in load.iter().enumerate().take(self.cpus.len()) {
            let busy_frac = (l.busy_ns as f64 / dt_ns as f64).min(1.0);
            let instr_rate = l.instructions as f64 / dt_s;
            let cm_rate = l.cache_misses as f64 / dt_s;
            let bm_rate = l.branch_misses as f64 / dt_s;
            let fp_frac = if l.instructions > 0 {
                l.fp_instructions as f64 / l.instructions as f64
            } else {
                0.0
            };

            // Core power: idle leakage + activity baseline + per-event
            // energies. The per-instruction term is scaled up for FP-heavy
            // streams — the workload-dependent slope of Fig. 6.
            let core_w = p.core_idle_w
                + busy_frac * p.core_active_w
                + instr_rate * p.energy_per_instr_pj * (1.0 + p.fp_energy_factor * fp_frac) * 1e-12
                + cm_rate * p.energy_per_cache_miss_pj * 1e-12
                + bm_rate * p.energy_per_branch_miss_pj * 1e-12;
            let dram_w = cm_rate * p.energy_per_dram_access_pj * 1e-12;

            let pkg = self.package_of(cpu);
            per_pkg[pkg].1 += core_w;
            per_pkg[pkg].2 += dram_w;

            // Thermal: first-order filter toward a power-dependent target.
            let target = AMBIENT_MC + core_w * MC_PER_W;
            let hw = &mut self.cpus[cpu];
            // DTS sensors carry ~±0.25 °C of readout noise.
            hw.temp_mc += (target - hw.temp_mc) * alpha + rng.random_range(-250.0..250.0);

            // cpufreq governor: floor at ~47% of nominal when parked,
            // turbo to ~112% under full load, with dither.
            let target_khz = base_khz * (0.47 + 0.65 * busy_frac);
            hw.cur_freq_khz = (target_khz * (1.0 + rng.random_range(-0.01..0.01))) as u64;

            // cpuidle residency for the idle fraction of the tick.
            let idle_ns = dt_ns - l.busy_ns.min(dt_ns);
            if idle_ns > 0 {
                let idle_us = idle_ns / 1_000;
                // Deep idle when mostly idle; shallow when fragmented.
                let split: [(usize, f64); 3] = if busy_frac < 0.05 {
                    [(4, 0.85), (2, 0.10), (1, 0.05)]
                } else if busy_frac < 0.6 {
                    [(3, 0.50), (2, 0.30), (1, 0.20)]
                } else {
                    [(1, 0.60), (0, 0.25), (2, 0.15)]
                };
                for (state, frac) in split {
                    let t = (idle_us as f64 * frac) as u64;
                    let st = &mut hw.idle_states[state];
                    st.time_us += t;
                    // Entry count: deep states have long residencies.
                    let avg_res_us = [50u64, 200, 600, 2_000, 20_000][state];
                    st.usage += (t / avg_res_us).max(u64::from(t > 0));
                }
            }
        }

        let mut dc_w = p.platform_idle_w;
        for (pkg, watts) in per_pkg.iter_mut().enumerate() {
            let noise = 1.0 + rng.random_range(-p.noise_frac..p.noise_frac);
            let core_w = watts.1 * noise;
            let dram_w = (p.dram_idle_w + watts.2) * noise;
            let uncore_w = p.pkg_uncore_w;
            let pkg_w = core_w + dram_w + uncore_w;
            self.rapl.add(
                pkg,
                core_w * dt_s * 1e6,
                dram_w * dt_s * 1e6,
                uncore_w * dt_s * 1e6,
            );
            *watts = (pkg_w, core_w, dram_w);
            dc_w += pkg_w;
        }
        self.last_snapshot = PowerSnapshot {
            wall_w: dc_w / p.psu_efficiency,
            per_package_w: per_pkg,
        };
    }

    /// Jumps the hardware to its quiescent-state value `rel_ns` after
    /// `anchor`: every core draws idle leakage only, temperatures relax
    /// exponentially toward the idle target, frequencies park at the
    /// governor floor, and the deep-idle residency split accumulates. Pure
    /// in (anchor, rel_ns) — no measurement noise is drawn, so any
    /// subdivision of a quiescent span lands on byte-identical counters.
    pub fn idle_eval(&mut self, anchor: &Hardware, rel_ns: u64) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        let p = self.params.clone();
        let npkg = self.rapl.package_count();
        let idle_target_mc = AMBIENT_MC + p.core_idle_w * MC_PER_W;
        let decay = (-rel_s / THERMAL_TAU_S).exp();
        let idle_khz = (self.freq_hz as f64 / 1_000.0 * 0.47) as u64;
        let idle_us = rel_ns / 1_000;
        let cpp = self.cpus_per_package;
        let mut pkg_cores = vec![0usize; npkg];
        for (cpu, (cur, base)) in self.cpus.iter_mut().zip(anchor.cpus.iter()).enumerate() {
            cur.temp_mc = idle_target_mc + (base.temp_mc - idle_target_mc) * decay;
            cur.cur_freq_khz = idle_khz;
            cur.idle_states = base.idle_states;
            // The mostly-idle residency split from `tick` (busy < 0.05).
            for (state, frac) in [(4usize, 0.85f64), (2, 0.10), (1, 0.05)] {
                let t = (idle_us as f64 * frac) as u64;
                let avg_res_us = [50u64, 200, 600, 2_000, 20_000][state];
                let st = &mut cur.idle_states[state];
                st.time_us = base.idle_states[state].time_us + t;
                st.usage = base.idle_states[state].usage + (t / avg_res_us).max(u64::from(t > 0));
            }
            pkg_cores[(cpu / cpp).min(npkg.saturating_sub(1))] += 1;
        }

        let mut snapshot = PowerSnapshot {
            wall_w: 0.0,
            per_package_w: Vec::with_capacity(npkg),
        };
        let mut dc_w = p.platform_idle_w;
        for (pkg, cores) in pkg_cores.iter().enumerate() {
            let core_w = p.core_idle_w * *cores as f64;
            let dram_w = p.dram_idle_w;
            let uncore_w = p.pkg_uncore_w;
            let pkg_w = core_w + dram_w + uncore_w;
            let base = anchor.rapl.packages[pkg];
            let dst = &mut self.rapl.packages[pkg];
            dst.core_uj = base.core_uj + core_w * rel_s * 1e6;
            dst.dram_uj = base.dram_uj + dram_w * rel_s * 1e6;
            dst.package_uj = base.package_uj + pkg_w * rel_s * 1e6;
            snapshot.per_package_w.push((pkg_w, core_w, dram_w));
            dc_w += pkg_w;
        }
        snapshot.wall_w = dc_w / p.psu_efficiency;
        self.last_snapshot = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn idle_load(ncpus: usize, dt_ns: u64) -> Vec<CpuTickLoad> {
        vec![
            CpuTickLoad {
                busy_ns: dt_ns / 100,
                instructions: 1_000_000,
                ..CpuTickLoad::default()
            };
            ncpus
        ]
    }

    fn busy_load(ncpus: usize, dt_ns: u64) -> Vec<CpuTickLoad> {
        // Prime-like: 3.4 GHz, IPC 2.4.
        vec![
            CpuTickLoad {
                busy_ns: dt_ns,
                instructions: 8_160_000_000,
                cache_misses: 408_000,
                branch_misses: 3_264_000,
                fp_instructions: 2_856_000_000,
                tasks_ran: 1,
                ..CpuTickLoad::default()
            };
            ncpus
        ]
    }

    fn hw(ncpus: usize, pkgs: usize) -> Hardware {
        Hardware::new(
            ncpus,
            pkgs,
            3_400_000_000,
            true,
            true,
            PowerModelParams::default(),
        )
    }

    #[test]
    fn energy_counters_grow_monotonically() {
        let mut h = hw(8, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let dt = NANOS_PER_SEC;
        let mut last = 0u64;
        for _ in 0..10 {
            h.tick(dt, &busy_load(8, dt), &mut rng);
            let e = h.rapl().raw(0).unwrap().package_uj as u64;
            assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn idle_server_wall_power_in_paper_range() {
        let mut h = hw(16, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let dt = NANOS_PER_SEC;
        h.tick(dt, &idle_load(16, dt), &mut rng);
        let w = h.last_power().wall_w;
        assert!((95.0..135.0).contains(&w), "idle wall power {w} W");
    }

    #[test]
    fn four_core_prime_adds_about_forty_watts() {
        // Fig. 4: one container running 4 Prime copies adds ≈ 40 W.
        let mut h1 = hw(16, 2);
        let mut h2 = hw(16, 2);
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let dt = NANOS_PER_SEC;

        let idle = idle_load(16, dt);
        let mut four_busy = idle_load(16, dt);
        for l in four_busy.iter_mut().take(4) {
            *l = busy_load(1, dt)[0];
        }
        h1.tick(dt, &idle, &mut rng1);
        h2.tick(dt, &four_busy, &mut rng2);
        let delta = h2.last_power().wall_w - h1.last_power().wall_w;
        assert!(
            (25.0..60.0).contains(&delta),
            "4-core prime delta {delta} W, expected ≈ 40"
        );
    }

    #[test]
    fn dram_energy_is_linear_in_cache_misses() {
        let dt = NANOS_PER_SEC;
        let mut rng = StdRng::seed_from_u64(4);
        let mut baseline = hw(4, 1);
        baseline.tick(dt, &idle_load(4, dt), &mut rng);
        let base_dram = baseline.rapl().raw(0).unwrap().dram_uj;

        let mut rates = Vec::new();
        for misses in [1e8 as u64, 2e8 as u64, 4e8 as u64] {
            let mut h = hw(4, 1);
            let mut rng = StdRng::seed_from_u64(4);
            let mut load = idle_load(4, dt);
            load[0].cache_misses = misses;
            load[0].busy_ns = dt;
            h.tick(dt, &load, &mut rng);
            rates.push(h.rapl().raw(0).unwrap().dram_uj - base_dram);
        }
        // Doubling misses should roughly double the extra DRAM energy.
        let r1 = rates[1] / rates[0];
        let r2 = rates[2] / rates[1];
        assert!((1.7..2.3).contains(&r1), "ratio {r1}");
        assert!((1.7..2.3).contains(&r2), "ratio {r2}");
    }

    #[test]
    fn temperature_rises_under_load_and_saturates() {
        let mut h = hw(4, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let dt = NANOS_PER_SEC;
        let t0 = h.cpus()[0].temp_mc;
        for _ in 0..60 {
            h.tick(dt, &busy_load(4, dt), &mut rng);
        }
        let t1 = h.cpus()[0].temp_mc;
        assert!(t1 > t0 + 10_000.0, "temp rose only {t0}→{t1}");
        for _ in 0..120 {
            h.tick(dt, &busy_load(4, dt), &mut rng);
        }
        let t2 = h.cpus()[0].temp_mc;
        assert!(
            (t2 - t1).abs() < 5_000.0,
            "temp did not saturate: {t1}→{t2}"
        );
        assert!(t2 < 100_000.0, "temp unphysical: {t2}");
    }

    #[test]
    fn idle_cpu_accumulates_deep_idle_residency() {
        let mut h = hw(2, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let dt = NANOS_PER_SEC;
        for _ in 0..5 {
            h.tick(dt, &idle_load(2, dt), &mut rng);
        }
        let c6 = h.cpus()[0].idle_states[4];
        assert!(c6.usage > 0);
        assert!(c6.time_us > 3_000_000, "C6 time {}", c6.time_us);
    }

    #[test]
    fn cpufreq_races_to_turbo_under_load() {
        let mut h = hw(2, 1);
        let mut rng = StdRng::seed_from_u64(21);
        let dt = NANOS_PER_SEC;
        let mut load = idle_load(2, dt);
        load[0] = busy_load(1, dt)[0];
        h.tick(dt, &load, &mut rng);
        let busy_khz = h.cpus()[0].cur_freq_khz;
        let idle_khz = h.cpus()[1].cur_freq_khz;
        assert!(
            busy_khz > idle_khz * 2,
            "busy {busy_khz} vs idle {idle_khz}"
        );
        assert!(
            busy_khz > 3_400_000,
            "turbo should exceed nominal: {busy_khz}"
        );
    }

    #[test]
    fn rapl_counters_wrap_like_hardware() {
        let mut r = RaplDomains::new(1, true);
        r.add(0, (RAPL_WRAP_UJ + 500) as f64, 0.0, 0.0);
        assert_eq!(r.core_energy_uj(0), 500);
        assert!(r.raw(0).unwrap().core_uj > RAPL_WRAP_UJ as f64);
    }

    #[test]
    fn absent_rapl_reports_absent() {
        let h = Hardware::new(4, 1, 2e9 as u64, false, false, PowerModelParams::default());
        assert!(!h.rapl().is_present());
        assert!(!h.has_coretemp());
    }

    #[test]
    fn fp_heavy_stream_draws_more_core_power() {
        let dt = NANOS_PER_SEC;
        let mk = |fp: u64| {
            let mut h = hw(1, 1);
            let mut rng = StdRng::seed_from_u64(7);
            let mut l = busy_load(1, dt);
            l[0].fp_instructions = fp;
            h.tick(dt, &l, &mut rng);
            h.rapl().raw(0).unwrap().core_uj
        };
        let int_only = mk(0);
        let fp_heavy = mk(6_000_000_000);
        assert!(
            fp_heavy > int_only * 1.05,
            "fp {fp_heavy} vs int {int_only}"
        );
    }
}
