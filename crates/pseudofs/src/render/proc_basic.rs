//! `/proc/{cpuinfo,meminfo,stat,uptime,version,loadavg}`.

use std::fmt::Write as _;

use simkernel::{Kernel, NANOS_PER_SEC};

use super::{jiffies, kb};
use crate::view::{MaskAction, View};

/// `/proc/cpuinfo`. LEAK (Table I): CPU specification of the *host*.
/// Under a `Partial` mask (CC5), only the container's allotted CPUs are
/// rendered, renumbered from zero.
pub fn cpuinfo(k: &Kernel, view: &View) -> String {
    let partial = view.mask_action("/proc/cpuinfo") == Some(MaskAction::Partial);
    let cpus: Vec<u16> = match (&view.allotted_cpus, partial) {
        (Some(a), true) => a.clone(),
        // Partial masking with no recorded allotment: fail safe to the
        // minimum share (one CPU) rather than exposing the host topology.
        (None, true) => vec![0],
        _ => (0..k.config().cpus).collect(),
    };
    let mhz = k.config().freq_hz as f64 / 1e6;
    let mut out = String::new();
    for (idx, cpu) in cpus.iter().enumerate() {
        let shown = if partial { idx as u16 } else { *cpu };
        let _ = write!(
            out,
            "processor\t: {shown}\n\
             vendor_id\t: GenuineIntel\n\
             model name\t: {}\n\
             cpu MHz\t\t: {mhz:.3}\n\
             cache size\t: 8192 KB\n\
             physical id\t: {}\n\
             siblings\t: {}\n\
             core id\t\t: {}\n\
             cpu cores\t: {}\n\
             bogomips\t: {:.2}\n\n",
            k.config().cpu_model,
            k.hw().package_of(*cpu as usize),
            k.config().cpus_per_package(),
            cpu % k.config().cpus_per_package(),
            k.config().cpus_per_package(),
            mhz * 2.0,
        );
    }
    out
}

/// `/proc/meminfo`. LEAK (Table I): host memory totals and the MemFree
/// trace used by the variation metric. `Partial` restricts to the
/// container's limit and its own usage.
pub fn meminfo_into(k: &Kernel, view: &View, out: &mut String) {
    let partial = view.mask_action("/proc/meminfo") == Some(MaskAction::Partial);
    let m = k.mem();
    let (total, free, available, cached) = if partial {
        let limit = view.mem_limit_bytes.unwrap_or(m.total_bytes());
        let used = container_usage(k, view).min(limit);
        let free = limit - used;
        (limit, free, free, 0)
    } else {
        (
            m.total_bytes(),
            m.free_bytes(),
            m.available_bytes(),
            m.cached_bytes(),
        )
    };
    let (swap_total, swap_free) = m.swap();
    let active = m.rss_bytes() * 3 / 5 + cached / 2;
    let inactive = m.rss_bytes() * 2 / 5 + cached / 2;
    let _ = write!(
        out,
        "MemTotal:       {:>8} kB\n\
         MemFree:        {:>8} kB\n\
         MemAvailable:   {:>8} kB\n\
         Buffers:        {:>8} kB\n\
         Cached:         {:>8} kB\n\
         SwapCached:     {:>8} kB\n\
         Active:         {:>8} kB\n\
         Inactive:       {:>8} kB\n\
         SwapTotal:      {:>8} kB\n\
         SwapFree:       {:>8} kB\n\
         Dirty:          {:>8} kB\n\
         Writeback:      {:>8} kB\n\
         AnonPages:      {:>8} kB\n\
         Mapped:         {:>8} kB\n\
         Shmem:          {:>8} kB\n\
         Slab:           {:>8} kB\n\
         SReclaimable:   {:>8} kB\n\
         SUnreclaim:     {:>8} kB\n\
         KernelStack:    {:>8} kB\n\
         PageTables:     {:>8} kB\n\
         CommitLimit:    {:>8} kB\n\
         Committed_AS:   {:>8} kB\n\
         VmallocTotal:   34359738367 kB\n",
        kb(total),
        kb(free),
        kb(available),
        kb(m.buffers_bytes()),
        kb(cached),
        0,
        kb(active),
        kb(inactive),
        kb(swap_total),
        kb(swap_free),
        kb(m.dirty_bytes()),
        0,
        kb(m.rss_bytes()),
        kb(m.rss_bytes() / 3),
        kb(cached / 8),
        kb(m.total_bytes() / 64),
        kb(m.total_bytes() / 96),
        kb(m.total_bytes() / 192),
        kb((k.process_count() as u64 + 40) * 16 * 1024),
        kb(m.rss_bytes() / 50),
        kb(swap_total + total / 2),
        kb(m.rss_bytes() + (1 << 30)),
    );
}

fn container_usage(k: &Kernel, view: &View) -> u64 {
    match view.context {
        crate::view::Context::Container { cgroups, .. } => k
            .cgroups()
            .memory_usage(cgroups.memory)
            .map(|(u, _)| u)
            .unwrap_or(0),
        crate::view::Context::Host => k.mem().rss_bytes(),
    }
}

/// `/proc/stat`. LEAK (Table I): host-wide kernel activity — per-CPU time
/// breakdown, total interrupts, context switches, forks.
pub fn stat_into(k: &Kernel, _view: &View, out: &mut String) {
    let stats = k.sched().cpu_stats();
    let sum = |f: fn(&simkernel::sched::CpuSchedStats) -> u64| -> u64 { stats.iter().map(f).sum() };
    let _ = writeln!(
        out,
        "cpu  {} 0 {} {} {} 0 {} 0 0 0",
        jiffies(sum(|c| c.user_ns)),
        jiffies(sum(|c| c.system_ns)),
        jiffies(sum(|c| c.idle_ns)),
        jiffies(sum(|c| c.iowait_ns)),
        jiffies(sum(|c| c.system_ns) / 20),
    );
    for (i, c) in stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "cpu{i} {} 0 {} {} {} 0 {} 0 0 0",
            jiffies(c.user_ns),
            jiffies(c.system_ns),
            jiffies(c.idle_ns),
            jiffies(c.iowait_ns),
            jiffies(c.system_ns / 20),
        );
    }
    let _ = writeln!(out, "intr {} 0 0 0", k.irq().total_interrupts());
    let _ = writeln!(out, "ctxt {}", k.sched().total_switches());
    let _ = writeln!(out, "btime {}", k.clock().boot_wall_secs());
    let _ = writeln!(out, "processes {}", k.total_forks());
    let _ = writeln!(
        out,
        "procs_running {}",
        k.processes()
            .filter(|p| p.state() == simkernel::ProcState::Runnable)
            .count()
    );
    let _ = writeln!(out, "procs_blocked 0");
    let softirq_total: u64 = k.irq().softirqs().iter().flatten().sum();
    let _ = writeln!(out, "softirq {softirq_total} 0 0 0 0 0 0 0 0 0 0");
}

/// `/proc/uptime`. LEAK (Table I): host up time and accumulated idle time —
/// a unique dynamic identifier (§III-C group 3) also used in §IV-C to group
/// servers installed at the same time.
pub fn uptime_into(k: &Kernel, _view: &View, out: &mut String) {
    let up = k.clock().uptime_secs();
    let idle = k.total_idle_ns() as f64 / NANOS_PER_SEC as f64;
    let _ = writeln!(out, "{up:.2} {idle:.2}");
}

/// `/proc/version`. LEAK (Table I): kernel, gcc and distribution versions.
pub fn version(k: &Kernel, _view: &View) -> String {
    format!(
        "Linux version {} (buildd@host) (gcc version {} ({})) #1 SMP\n",
        k.config().kernel_release,
        k.config().gcc_version,
        k.config().distro,
    )
}

/// `/proc/loadavg`. LEAK (Table I): host CPU/IO utilization over time.
pub fn loadavg_into(k: &Kernel, _view: &View, out: &mut String) {
    let [l1, l5, l15] = k.sched().loadavg();
    let running = k
        .processes()
        .filter(|p| p.state() == simkernel::ProcState::Runnable)
        .count();
    let _ = writeln!(
        out,
        "{l1:.2} {l5:.2} {l15:.2} {running}/{} {}",
        k.process_count().max(1),
        k.last_pid(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use crate::view::MaskPolicy;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), 3);
        k.spawn_host_process("w", models::prime()).unwrap();
        k.advance_secs(3);
        k
    }

    #[test]
    fn cpuinfo_lists_all_host_cpus() {
        let k = kernel();
        let s = cpuinfo(&k, &View::host());
        assert_eq!(s.matches("processor").count(), 4);
        assert!(s.contains(&k.config().cpu_model));
    }

    #[test]
    fn cpuinfo_partial_restricts_and_renumbers() {
        let k = kernel();
        let env = {
            let mut k2 = Kernel::new(MachineConfig::small_server(), 3);
            k2.create_container_env("c").unwrap()
        };
        let v = View::container(env.ns, env.cgroups)
            .with_policy(MaskPolicy::none().partial("/proc/cpuinfo"))
            .with_allotted_cpus(vec![2, 3]);
        let s = cpuinfo(&k, &v);
        assert_eq!(s.matches("processor").count(), 2);
        assert!(s.contains("processor\t: 0"));
        assert!(!s.contains("processor\t: 2"));
    }

    #[test]
    fn meminfo_has_core_fields_in_kb() {
        let k = kernel();
        let s = rendered(meminfo_into, &k, &View::host());
        assert!(s.contains("MemTotal:"));
        assert!(s.contains("MemFree:"));
        let total_line = s.lines().next().unwrap();
        let total: u64 = total_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(total, (8u64 << 30) / 1024);
    }

    #[test]
    fn stat_has_percpu_and_counters() {
        let k = kernel();
        let s = rendered(stat_into, &k, &View::host());
        assert!(s.lines().next().unwrap().starts_with("cpu "));
        assert!(s.contains("cpu3 "));
        assert!(s.contains("ctxt "));
        assert!(s.contains("btime "));
        assert!(s.contains("processes "));
    }

    #[test]
    fn uptime_tracks_clock() {
        let k = kernel();
        let s = rendered(uptime_into, &k, &View::host());
        let up: f64 = s.split_whitespace().next().unwrap().parse().unwrap();
        assert!((up - 3.0).abs() < 0.01);
        let idle: f64 = s.split_whitespace().nth(1).unwrap().parse().unwrap();
        // 4 cpus, 1 busy → ~9 idle cpu-seconds.
        assert!(idle > 8.0 && idle < 12.5, "idle {idle}");
    }

    #[test]
    fn version_and_loadavg_format() {
        let k = kernel();
        assert!(version(&k, &View::host()).starts_with("Linux version 4.7.0"));
        let la = rendered(loadavg_into, &k, &View::host());
        assert_eq!(la.split_whitespace().count(), 5);
        assert!(la.contains('/'));
    }
}
