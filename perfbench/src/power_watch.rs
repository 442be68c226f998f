//! `power_watch`: the Fig. 3 synergistic attack's control loop.
//!
//! An 8-host CC1 cloud in the day-2 surge of the paper week, one RAPL
//! observer per host sampling once per simulated second, and payload
//! instances toggling power-virus bursts on a fixed period. Every
//! pseudo-file read here is a powercap read just after an advance, so
//! the render cache can never serve it; the fleet calendar, the
//! detector and the fault layer are not involved.

use std::time::Instant;

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudProfile, HostId, InstanceId, InstanceSpec,
};
use containerleaks::powersim::{DiurnalTrace, RaplMonitor};
use containerleaks::simkernel::hw::RAPL_WRAP_UJ;
use containerleaks::simkernel::{HostPid, PowerModelParams};
use containerleaks::workloads::models;

use crate::harness::{Digest, Episode};
use crate::spans::Recorder;

const HOSTS: u32 = 8;
const PAYLOADS: usize = 2;
const VIRUSES_PER_PAYLOAD: usize = 4;
/// Control steps (simulated seconds) per episode.
const STEPS: u64 = 300;
/// Trace time of the first step: inside the day-2 surge, past its ramp.
const T0_S: u64 = 86_400 + 33_000;
/// The payloads fire for `BURST_S` out of every `PERIOD_S` seconds.
const PERIOD_S: u64 = 60;
const BURST_S: u64 = 15;
/// How far the wall power implied by an observer's package-energy
/// estimate may sit from the host's true wall power.
const TRACK_TOLERANCE: f64 = 0.02;
/// The core sub-domain counter of package 0. The benchmark parses it
/// itself each step; the monitor reads only package-level counters, so
/// this read is a fresh render too.
const CORE_ENERGY: &str = "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj";

/// Runs one episode from a fresh cloud.
pub fn episode(seed: u64, rec: &mut Recorder) -> Episode {
    let mut ep = Episode::default();
    let mut digest = Digest::default();

    let setup = Instant::now();
    let mut cloud = rec.call("cloudsim.new", || {
        Cloud::new(
            CloudConfig::new(CloudProfile::CC1).hosts(HOSTS as usize),
            seed,
        )
    });
    let observers: Vec<InstanceId> = (0..HOSTS)
        .map(|h| {
            let spec = InstanceSpec::new(format!("obs-{h}")).vcpus(1);
            rec.call("cloudsim.launch", || cloud.launch("watcher", spec))
                .expect("an 8-host cloud has room for one observer per host")
        })
        .collect();
    let mut payloads: Vec<(InstanceId, Vec<HostPid>)> = Vec::new();
    for p in 0..PAYLOADS {
        let spec = InstanceSpec::new(format!("payload-{p}")).vcpus(4);
        let inst = rec
            .call("cloudsim.launch", || cloud.launch("watcher", spec))
            .expect("an 8-host cloud has room for the payloads");
        let pids = (0..VIRUSES_PER_PAYLOAD)
            .map(|i| {
                rec.call("cloudsim.exec", || {
                    cloud.exec(inst, &format!("virus-{i}"), models::sleeper())
                })
                .expect("payload process starts")
            })
            .collect();
        payloads.push((inst, pids));
    }
    let host_of: Vec<HostId> = observers
        .iter()
        .map(|&o| cloud.instance(o).expect("observer is live").host())
        .collect();
    let mut trace = DiurnalTrace::paper_week(seed);
    let mut monitor = RaplMonitor::new();
    ep.setup_s = setup.elapsed().as_secs_f64();

    let params = PowerModelParams::default();
    let measured = Instant::now();
    let mut truth = vec![0.0f64; HOSTS as usize];
    for t in 0..STEPS {
        rec.step(|rec| {
            rec.call("powersim.trace_apply", || trace.apply(&mut cloud, T0_S + t));
            rec.call("cloudsim.advance", || cloud.advance_secs(1));
            ep.ops.check(true, String::new);
            for (h, w) in truth.iter_mut().enumerate() {
                *w = rec.call("cloudsim.host_power", || cloud.host_power_w(HostId(h as u32)));
                digest.f64(*w);
            }
            for (i, &obs) in observers.iter().enumerate() {
                let sample = rec.call("powersim.sample_watts", || {
                    monitor.sample_watts(&mut cloud, obs, t as f64)
                });
                let wall = truth[host_of[i].0 as usize];
                match sample {
                    Ok(Some(pkg_w)) => {
                        digest.f64(pkg_w);
                        let implied = (pkg_w + params.platform_idle_w) / params.psu_efficiency;
                        let err = (implied - wall).abs() / wall;
                        ep.ops.check(err <= TRACK_TOLERANCE, || {
                            format!("t={t} obs {i}: RAPL implies {implied:.1} W, host draws {wall:.1} W")
                        });
                    }
                    // The first sample only sets the baseline.
                    Ok(None) => ep.ops.check(t == 0, || format!("t={t} obs {i}: sample dropped")),
                    Err(e) => ep.ops.check(false, || format!("t={t} obs {i}: {e}")),
                }
                let raw = rec.call("cloudsim.read_rapl", || cloud.read_file(obs, CORE_ENERGY));
                let parsed = raw
                    .as_ref()
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .filter(|&uj| uj < RAPL_WRAP_UJ);
                ep.ops.check(parsed.is_some(), || {
                    format!("t={t} obs {i}: {CORE_ENERGY} read {raw:?}")
                });
                digest.u64(parsed.unwrap_or(u64::MAX));
            }
            let phase = t % PERIOD_S;
            if phase == 0 || phase == BURST_S {
                let w = if phase == 0 { models::power_virus() } else { models::sleeper() };
                for (inst, pids) in &payloads {
                    for &pid in pids {
                        let res = rec.call("cloudsim.set_workload", || {
                            cloud.set_process_workload(*inst, pid, w.clone())
                        });
                        ep.ops.check(res.is_ok(), || format!("t={t}: payload toggle {res:?}"));
                    }
                }
            }
        });
    }
    ep.wall_s = measured.elapsed().as_secs_f64();
    ep.digest = digest.value();
    ep
}
