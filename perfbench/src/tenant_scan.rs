//! `tenant_scan`: Table I channel probing of a defended multi-tenant cloud.
//!
//! A 32-host CC1 cloud with the online detector attached and no
//! background tenants, so advancing it is cheap and the read path carries
//! the step. Benign agent tenants scrape a node_exporter-style file set
//! every 15 s with staggered phases; a prober tenant arrives every
//! simulated second, checks co-residence, sweeps the 21 Table I probe
//! paths several times per second, drops each channel the cloud denies
//! it, and leaves after a fixed lifetime. Every step therefore carries
//! the same mix: one prober whose repeated sweeps the render cache
//! serves, one whose reads the detector's mask now denies, and the
//! agents due that second.

use std::time::Instant;

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudError, CloudProfile, DetectorConfig, InstanceId, InstanceSpec,
};
use containerleaks::container_runtime::RuntimeError;
use containerleaks::leakscan::{CoResDetector, DetectorKind, TABLE1_CHANNELS};
use containerleaks::pseudofs::FsError;

use crate::harness::{Digest, Episode, Ops};
use crate::spans::Recorder;

const HOSTS: usize = 32;
/// Benign agent tenants, one instance each (a tenant's reads are
/// scored together, so an agent fleet per tenant would look like a
/// scan). Twice the scrape period, so two agents scrape every second.
const AGENTS: usize = 30;
const SCRAPE_PERIOD_S: u64 = 15;
const SCRAPE_SET: [&str; 6] = [
    "/proc/stat",
    "/proc/meminfo",
    "/proc/loadavg",
    "/proc/net/dev",
    "/proc/diskstats",
    "/proc/uptime",
];
/// Simulated seconds (control steps) per episode.
const SECS: u64 = 60;
/// A prober wave arrives every second and leaves `LIFETIME_S` later.
const LIFETIME_S: u64 = 3;
/// Table I sweeps per prober instance per simulated second.
const SWEEPS: usize = 10;
/// Every prober must be flagged before it leaves and within this many
/// simulated seconds of arriving.
const FLAG_DEADLINE_S: u64 = 60;

struct Wave {
    tenant_name: String,
    tenant: u32,
    instances: [InstanceId; 2],
    arrived_s: u64,
    flagged_s: Option<u64>,
    channels: Vec<&'static str>,
}

fn is_denied(e: &CloudError) -> bool {
    matches!(
        e,
        CloudError::Runtime(RuntimeError::Fs(FsError::PermissionDenied(_)))
    )
}

/// Reads `path` from `inst`, recording the span by outcome: the served
/// bytes, `None` when the cloud denied the read, or any other failure.
fn read(
    rec: &mut Recorder,
    cloud: &mut Cloud,
    inst: InstanceId,
    path: &str,
) -> Result<Option<String>, CloudError> {
    let res = rec.call_as(
        || cloud.read_file(inst, path),
        |r| match r {
            Ok(_) => "cloudsim.read_status",
            Err(e) if is_denied(e) => "cloudsim.read_denied",
            Err(_) => "cloudsim.read_failed",
        },
    );
    match res {
        Ok(body) => Ok(Some(body)),
        Err(e) if is_denied(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

fn tenant_of(cloud: &Cloud, inst: InstanceId) -> u32 {
    cloud.instance(inst).expect("instance is live").tenant().0
}

fn arrive(rec: &mut Recorder, cloud: &mut Cloud, ops: &mut Ops, t: u64) -> Wave {
    let tenant_name = format!("prober-{t}");
    let instances = [0, 1].map(|i| {
        let spec = InstanceSpec::new(format!("scan-{t}-{i}")).vcpus(1);
        rec.call("cloudsim.launch", || cloud.launch(&tenant_name, spec))
            .expect("a 32-host cloud has room for every live wave")
    });
    let [a, b] = instances;
    let truth = cloud.coresident(a, b).expect("both probers are live");
    for kind in [DetectorKind::BootId, DetectorKind::UptimeDelta] {
        let mut det = CoResDetector::new(kind);
        let verdict = rec.call("leakscan.coresident", || det.coresident(cloud, a, b));
        ops.check(verdict.as_ref().ok() == Some(&truth), || {
            format!("{tenant_name}: {kind:?} says {verdict:?}, truth {truth}")
        });
    }
    Wave {
        tenant: tenant_of(cloud, a),
        tenant_name,
        instances,
        arrived_s: t,
        flagged_s: None,
        channels: TABLE1_CHANNELS.iter().map(|c| c.probe).collect(),
    }
}

/// Checks that a leaving prober was flagged in time and terminates it.
fn retire(rec: &mut Recorder, cloud: &mut Cloud, ep: &mut Episode, digest: &mut Digest, w: &Wave) {
    let latency = w.flagged_s.map(|f| f - w.arrived_s);
    ep.ops
        .check(latency.is_some_and(|l| l <= FLAG_DEADLINE_S), || {
            format!("{}: flagged after {latency:?} s", w.tenant_name)
        });
    if let Some(l) = latency {
        ep.flag_latency_s.push(l as f64);
        digest.u64(l);
    }
    let gone = rec.call("cloudsim.terminate", || {
        cloud.terminate_tenant(&w.tenant_name)
    });
    ep.ops.check(gone == Ok(2), || {
        format!("{}: terminate gave {gone:?}", w.tenant_name)
    });
}

/// Runs one episode from a fresh cloud.
pub fn episode(seed: u64, rec: &mut Recorder) -> Episode {
    let mut ep = Episode::default();
    let mut digest = Digest::default();

    let setup = Instant::now();
    let cfg = CloudConfig::new(CloudProfile::CC1)
        .hosts(HOSTS)
        .without_background()
        .detector(DetectorConfig::default());
    let mut cloud = rec.call("cloudsim.new", || Cloud::new(cfg, seed));
    let agents: Vec<(InstanceId, u32)> = (0..AGENTS)
        .map(|i| {
            let spec = InstanceSpec::new("node-exporter").vcpus(1);
            let inst = rec
                .call("cloudsim.launch", || {
                    cloud.launch(&format!("agent-{i}"), spec)
                })
                .expect("a 32-host cloud has room for the agents");
            (inst, tenant_of(&cloud, inst))
        })
        .collect();
    ep.setup_s = setup.elapsed().as_secs_f64();

    let measured = Instant::now();
    let mut waves: Vec<Wave> = Vec::new();
    for t in 0..SECS {
        rec.step(|rec| {
            waves.push(arrive(rec, &mut cloud, &mut ep.ops, t));
            for (i, &(inst, _)) in agents.iter().enumerate() {
                if (t + i as u64).is_multiple_of(SCRAPE_PERIOD_S) {
                    for path in SCRAPE_SET {
                        let r = read(rec, &mut cloud, inst, path);
                        if let Ok(Some(body)) = &r {
                            digest.bytes(body.as_bytes());
                        }
                        ep.ops.check(matches!(r, Ok(Some(_))), || {
                            format!("t={t} agent {i}: {path} gave {r:?}")
                        });
                    }
                }
            }
            for wave in &mut waves {
                let mut denied: Vec<&str> = Vec::new();
                for inst in wave.instances {
                    // The first sweep of the second is digested; nothing
                    // advances before the repeats, so they must match it.
                    let mut first: Vec<Option<String>> = Vec::with_capacity(wave.channels.len());
                    for sweep in 0..SWEEPS {
                        for (j, &path) in wave.channels.iter().enumerate() {
                            let r = read(rec, &mut cloud, inst, path);
                            let Ok(body) = r else {
                                ep.ops
                                    .check(false, || format!("t={t} prober: {path} gave {r:?}"));
                                if sweep == 0 {
                                    first.push(None);
                                }
                                continue;
                            };
                            if sweep == 0 {
                                match &body {
                                    Some(b) => digest.bytes(b.as_bytes()),
                                    None => denied.push(path),
                                }
                                first.push(body);
                            } else {
                                ep.ops.check(first.get(j) == Some(&body), || {
                                    format!("t={t} prober: {path} changed within one second")
                                });
                            }
                        }
                    }
                }
                digest.u64(denied.len() as u64);
                // A prober stops asking for what it has been refused.
                wave.channels.retain(|p| !denied.contains(p));
            }
            rec.call("cloudsim.advance", || cloud.advance_secs(1));
            ep.ops.check(true, String::new);
            let det = cloud.detector().expect("the detector is attached");
            for wave in waves.iter_mut().filter(|w| w.flagged_s.is_none()) {
                if rec.call("detector.level", || det.level(wave.tenant)) > 0 {
                    wave.flagged_s = Some(t + 1);
                }
            }
            let (leaving, staying) = waves
                .drain(..)
                .partition(|w| w.arrived_s + LIFETIME_S <= t + 1);
            waves = staying;
            for w in leaving {
                retire(rec, &mut cloud, &mut ep, &mut digest, &w);
            }
        });
    }
    // Probers still in the cloud leave with the episode, under the same checks.
    for w in std::mem::take(&mut waves) {
        retire(rec, &mut cloud, &mut ep, &mut digest, &w);
    }
    ep.wall_s = measured.elapsed().as_secs_f64();

    let det = cloud.detector().expect("the detector is attached");
    for (i, &(_, tenant)) in agents.iter().enumerate() {
        ep.ops.check(det.level(tenant) == 0, || {
            format!("benign agent-{i} was flagged")
        });
    }
    digest.bytes(det.report().as_bytes());
    ep.digest = digest.value();
    ep
}
