//! `fleet_week`: a fresh faulted 10,000-host fleet stepped through a
//! simulated week and read back.
//!
//! A CC2 fleet with the standard fault plan and 32 instances across 4
//! tenants is advanced at a fixed one-minute control cadence (10,080
//! steps); then every host's power and one pseudo-file per instance are
//! read back and every tenant's bill is checked. The fleet calendar,
//! the closed-form idle advance, the fault layer, sync-on-access,
//! set-up and memory carry this workload; it makes almost no
//! pseudo-file reads.

use std::time::Instant;

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudProfile, HostId, InstanceId, InstanceSpec,
};
use containerleaks::simkernel::{FaultPlan, PowerModelParams};

use crate::harness::{Digest, Episode};
use crate::spans::Recorder;

const HOSTS: usize = 10_000;
const INSTANCES: usize = 32;
const TENANTS: usize = 4;
/// Control cadence, simulated seconds. Fine enough that the week's
/// steps weigh as much in `wall_s` as the one step where the fault plan
/// crash-reboots every host, a memory-bound step whose host time a busy
/// machine moves more than any other.
const CADENCE_S: u64 = 60;
const STEPS: u64 = 7 * 86_400 / CADENCE_S;
/// Hosts per timed piece of the power read-back: short pieces, like
/// steps, can each be caught at full speed.
const READBACK_CHUNK: usize = 500;
/// Upper allowance per cpu for the per-instruction, cache-miss and DRAM
/// energy terms, above idle leakage plus full activity. A power virus
/// core, the hungriest workload the model has, draws about 8 W of such
/// terms.
const EVENT_HEADROOM_W_PER_CPU: f64 = 15.0;

/// The wall power a host of the fleet's machine type can draw: all cores
/// idle, and all cores flat out, widened by the model's per-tick noise.
fn power_range_w(profile: CloudProfile) -> (f64, f64) {
    let m = profile.default_machine();
    let p = PowerModelParams::default();
    let (cpus, pkgs) = (f64::from(m.cpus), f64::from(m.packages));
    let fixed = p.platform_idle_w + pkgs * (p.pkg_uncore_w + p.dram_idle_w);
    let idle = (fixed + cpus * p.core_idle_w) / p.psu_efficiency;
    let max = (fixed + cpus * (p.core_idle_w + p.core_active_w + EVENT_HEADROOM_W_PER_CPU))
        / p.psu_efficiency;
    (idle * (1.0 - p.noise_frac), max * (1.0 + p.noise_frac))
}

/// Runs one episode from a fresh fleet.
pub fn episode(seed: u64, rec: &mut Recorder) -> Episode {
    let mut ep = Episode::default();
    let mut digest = Digest::default();
    let profile = CloudProfile::CC2;

    let setup = Instant::now();
    let cfg = CloudConfig::new(profile).hosts(HOSTS).without_background();
    let mut cloud = rec.call("cloudsim.new", || Cloud::new(cfg, seed));
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    let instances: Vec<InstanceId> = (0..INSTANCES)
        .map(|i| {
            let spec = InstanceSpec::new(format!("svc-{i}")).vcpus(1);
            rec.call("cloudsim.launch", || {
                cloud.launch(&tenants[i % TENANTS], spec)
            })
            .expect("a 10k-host fleet has room for 32 instances")
        })
        .collect();
    let plan = FaultPlan::standard(seed);
    rec.call("cloudsim.install_faults", || cloud.install_faults(&plan));
    ep.setup_s = setup.elapsed().as_secs_f64();

    let measured = Instant::now();
    for _ in 0..STEPS {
        rec.step(|rec| rec.call("cloudsim.advance", || cloud.advance_secs(CADENCE_S)));
        ep.ops.check(true, String::new);
    }
    let (lo, hi) = power_range_w(profile);
    for chunk in (0..HOSTS).collect::<Vec<_>>().chunks(READBACK_CHUNK) {
        let t = Instant::now();
        for &h in chunk {
            let w = rec.call("cloudsim.host_power", || {
                cloud.host_power_w(HostId(h as u32))
            });
            digest.f64(w);
            ep.ops.check(w.is_finite() && (lo..=hi).contains(&w), || {
                format!("host {h} draws {w} W, outside {lo:.1}..{hi:.1} W")
            });
        }
        ep.readback_s.push(t.elapsed().as_secs_f64());
    }
    for &inst in &instances {
        let r = rec.call("cloudsim.read_status", || {
            cloud.read_file(inst, "/proc/uptime")
        });
        let up = r
            .as_ref()
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
        ep.ops.check(up.is_some_and(|u| u > 0.0), || {
            format!("{inst}: /proc/uptime gave {r:?}")
        });
        digest.f64(up.unwrap_or(f64::NAN));
    }
    for t in &tenants {
        let usd = cloud.bill(t).total_usd();
        digest.f64(usd);
        ep.ops
            .check(usd > 0.0, || format!("{t} was billed {usd} USD"));
    }
    ep.wall_s = measured.elapsed().as_secs_f64();
    ep.digest = digest.value();
    ep
}
