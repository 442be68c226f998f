//! The route table: every pseudo-file path the modeled tree serves.
//!
//! [`ROUTES`] is the only place a path is named. Each [`Route`] row
//! carries the glob it serves, a concrete probe path, its renderer (a
//! function pointer, plus the same function as a `module::function`
//! string relative to [`crate::render`]), and the subsystem dependency
//! mask the render cache keys freshness on. The `route!` macro builds the
//! call and the string from one mention of the renderer, so the two
//! cannot drift.
//!
//! Consumers:
//!
//! * [`PseudoFs`](crate::PseudoFs) resolves every read through
//!   [`route_for`] — one allocation-free, first-match-wins lookup — and
//!   the row found both renders the bytes and tags the cached entry with
//!   its `deps`; listings enumerate the exact rows;
//! * the `leakcheck` static auditor resolves each row's `handler` to its
//!   source, classifies the channel's namespace behavior, and checks that
//!   each row's declared `deps` cover every kernel accessor its renderer
//!   reaches;
//! * tests walk [`ROUTES`] to assert every probe renders and every listed
//!   path is routable.

use std::str::FromStr;

use simkernel::{dep, Kernel};

use crate::render;
use crate::view::View;

/// A row's renderer: writes the file for the matched path's `*`
/// captures into the (cleared) buffer; `None` when a capture does not
/// parse or names absent hardware or a pid invisible to the reader.
type Renderer = fn(&Kernel, &View, &Captures<'_>, &mut String) -> Option<()>;

/// One pseudo-file route: the paths it serves and how to render them.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Glob over absolute paths served by this route, in [`glob_match`](crate::glob_match)
    /// syntax, with at most one `*` per segment.
    pub pattern: &'static str,
    /// A concrete path matching `pattern` that renders on the default
    /// testbed machine (pid routes assume a container whose init is
    /// visible as pid 1).
    pub probe: &'static str,
    /// The renderer as `module::function`, relative to [`crate::render`].
    pub handler: &'static str,
    /// OR of [`simkernel::dep`] bits naming every kernel subsystem the
    /// renderer reads. Over-declaring is sound (costs a re-render);
    /// under-declaring would serve stale bytes and is what the leakcheck
    /// cache-coherence lint guards against.
    pub deps: u32,
    /// Byte offset of the first `*` in `pattern` (its length for an exact
    /// route).
    head: usize,
    renderer: Renderer,
}

impl Route {
    /// The `*` captures of `path` if this route serves it. Route patterns
    /// hold at most one `*` per segment, so each star runs to the end of
    /// its segment less the literal closing that segment: one forward
    /// pass, no backtracking, and the paths accepted are exactly those
    /// [`glob_match`](crate::glob_match) accepts.
    ///
    /// `rel` is `path` without its leading slashes, as [`glob_match`](crate::glob_match)
    /// compares it; route patterns start with exactly one.
    fn captures<'a>(&self, path: &str, rel: &'a str) -> Option<Captures<'a>> {
        let mut caps = Captures([""; 3]);
        if self.is_exact() {
            return (self.pattern == path).then_some(caps);
        }
        let mut rest = rel.strip_prefix(&self.pattern[1..self.head])?;
        for (n, piece) in self.pattern[self.head + 1..].split('*').enumerate() {
            let seg_end = segment_len(rest);
            let star = seg_end.checked_sub(segment_len(piece))?;
            *caps.0.get_mut(n)? = rest.get(..star)?;
            rest = rest.get(star..)?.strip_prefix(piece)?;
        }
        rest.is_empty().then_some(caps)
    }

    /// Whether the pattern names a single path (no `*`).
    pub(crate) fn is_exact(&self) -> bool {
        self.head == self.pattern.len()
    }
}

/// The `*` captures of a path its route matched, in pattern order (route
/// patterns hold at most three).
struct Captures<'a>([&'a str; 3]);

impl<'a> Captures<'a> {
    /// Capture `i` as text.
    fn text(&self, i: usize) -> &'a str {
        self.0[i]
    }

    /// Capture `i` parsed as a number (pid, cpu, package, zone, node).
    fn num<T: FromStr>(&self, i: usize) -> Option<T> {
        self.0[i].parse().ok()
    }

    /// The sub-domain index `d` of an `intel-rapl:<p>/intel-rapl:<p>:<d>`
    /// path; `None` unless the second `<p>` repeats the first.
    fn rapl_subdomain(&self) -> Option<usize> {
        let (p2, d) = self.0[1].split_once(':')?;
        if p2.parse::<usize>().ok()? != self.num::<usize>(0)? {
            return None;
        }
        d.parse().ok()
    }
}

/// Length of the first `/`-separated segment of `s`.
fn segment_len(s: &str) -> usize {
    s.bytes().position(|b| b == b'/').unwrap_or(s.len())
}

/// [`Route::head`] of `pattern`.
const fn first_star(pattern: &str) -> usize {
    let bytes = pattern.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b'*' {
        i += 1;
    }
    i
}

/// Builds one [`Route`] row. Exact rows omit the probe (the pattern is
/// its own probe). The renderer is named once, as `module::function`
/// under [`crate::render`], and its argument list picks its shape:
///
/// * `()` — returns the whole file as a `String`;
/// * `(out)` — writes into the read buffer;
/// * `(c => args..)` — takes trailing arguments computed from the path's
///   `*` captures `c` and returns `Option<String>`.
macro_rules! route {
    ($pattern:literal, $m:ident::$f:ident $args:tt, $deps:expr) => {
        route!($pattern, $pattern, $m::$f $args, $deps)
    };
    ($pattern:literal, $probe:literal, $m:ident::$f:ident(), $deps:expr) => {
        route!(@row $pattern, $probe, $m::$f, $deps, |k, view, _, out| {
            *out = render::$m::$f(k, view);
            Some(())
        })
    };
    ($pattern:literal, $probe:literal, $m:ident::$f:ident(out), $deps:expr) => {
        route!(@row $pattern, $probe, $m::$f, $deps, |k, view, _, out| {
            render::$m::$f(k, view, out);
            Some(())
        })
    };
    ($pattern:literal, $probe:literal, $m:ident::$f:ident($c:ident => $($arg:expr),+), $deps:expr) => {
        route!(@row $pattern, $probe, $m::$f, $deps, |k, view, $c, out| {
            *out = render::$m::$f(k, view, $($arg),+)?;
            Some(())
        })
    };
    (@row $pattern:literal, $probe:literal, $m:ident::$f:ident, $deps:expr, $renderer:expr) => {
        Route {
            pattern: $pattern,
            probe: $probe,
            handler: concat!(stringify!($m), "::", stringify!($f)),
            deps: $deps,
            head: first_star($pattern),
            renderer: $renderer,
        }
    };
}

/// Every route of the modeled tree, exact rows before globs (lookup is
/// first-match-wins, so `/proc/self/status` shadows `/proc/*/status`).
pub const ROUTES: &[Route] = &[
    // ---- exact /proc rows ----
    route!("/proc/cpuinfo", proc_basic::cpuinfo(), dep::HW),
    route!(
        "/proc/meminfo",
        proc_basic::meminfo_into(out),
        dep::MEM | dep::PROCESS | dep::CGROUP
    ),
    route!(
        "/proc/stat",
        proc_basic::stat_into(out),
        dep::CLOCK | dep::SCHED | dep::IRQ | dep::PROCESS
    ),
    route!(
        "/proc/uptime",
        proc_basic::uptime_into(out),
        dep::CLOCK | dep::SCHED
    ),
    route!("/proc/version", proc_basic::version(), 0),
    route!(
        "/proc/loadavg",
        proc_basic::loadavg_into(out),
        dep::SCHED | dep::PROCESS
    ),
    route!("/proc/interrupts", proc_irq::interrupts_into(out), dep::IRQ),
    route!("/proc/softirqs", proc_irq::softirqs_into(out), dep::IRQ),
    route!(
        "/proc/schedstat",
        proc_sched::schedstat_into(out),
        dep::SCHED
    ),
    route!(
        "/proc/sched_debug",
        proc_sched::sched_debug_into(out),
        dep::CLOCK | dep::SCHED | dep::PROCESS
    ),
    route!(
        "/proc/timer_list",
        proc_sched::timer_list_into(out),
        dep::CLOCK | dep::TIMERS
    ),
    route!("/proc/locks", proc_sched::locks(), dep::FS),
    route!("/proc/modules", proc_misc::modules(), 0),
    route!("/proc/zoneinfo", proc_misc::zoneinfo(), dep::MEM),
    route!("/proc/diskstats", proc_misc::diskstats(), dep::STATS),
    route!(
        "/proc/sys/fs/dentry-state",
        proc_kernel::dentry_state(),
        dep::FS
    ),
    route!("/proc/sys/fs/inode-nr", proc_kernel::inode_nr(), dep::FS),
    route!("/proc/sys/fs/file-nr", proc_kernel::file_nr(), dep::FS),
    route!(
        "/proc/sys/kernel/random/boot_id",
        proc_kernel::boot_id(),
        dep::FS
    ),
    route!(
        "/proc/sys/kernel/random/entropy_avail",
        proc_kernel::entropy_avail(),
        dep::FS
    ),
    route!(
        "/proc/sys/kernel/random/uuid",
        proc_kernel::uuid(),
        dep::CLOCK | dep::FS
    ),
    route!(
        "/proc/sys/kernel/hostname",
        proc_kernel::hostname(),
        dep::NS
    ),
    route!("/proc/sys/kernel/osrelease", proc_kernel::osrelease(), 0),
    route!("/proc/self/status", proc_pid::self_status(), dep::NS),
    route!(
        "/proc/self/cgroup",
        proc_pid::self_cgroup(),
        dep::NS | dep::CGROUP
    ),
    route!(
        "/proc/net/dev",
        proc_pid::net_dev(),
        dep::CLOCK | dep::NET | dep::NS
    ),
    route!("/proc/mounts", proc_pid::mounts(), dep::NS),
    route!(
        "/proc/net/snmp",
        proc_pid::net_snmp(),
        // Synthetic counters: scale with uptime and salt on the net
        // namespace *id* — no `k.net()` device state reaches the bytes.
        dep::CLOCK | dep::NS
    ),
    route!(
        "/proc/net/tcp",
        proc_pid::net_tcp(),
        // Rows are derived from the visible process table (ports hash
        // the pid); no `k.net()` device state reaches the bytes.
        dep::NS | dep::PROCESS
    ),
    route!("/proc/sys/kernel/pid_max", proc_kernel::pid_max(), 0),
    route!(
        "/proc/sys/kernel/threads-max",
        proc_kernel::threads_max(),
        dep::MEM
    ),
    route!(
        "/proc/sys/vm/overcommit_memory",
        proc_kernel::overcommit_memory(),
        0
    ),
    route!("/proc/sys/vm/swappiness", proc_kernel::swappiness(), 0),
    route!("/proc/vmstat", proc_vm::vmstat(), dep::MEM),
    route!(
        "/proc/slabinfo",
        proc_vm::slabinfo(),
        dep::MEM | dep::FS | dep::PROCESS
    ),
    route!("/proc/buddyinfo", proc_vm::buddyinfo(), dep::MEM),
    route!("/proc/swaps", proc_vm::swaps(), dep::MEM),
    route!("/proc/partitions", proc_vm::partitions(), 0),
    route!("/proc/filesystems", proc_vm::filesystems(), 0),
    route!("/proc/cgroups", proc_vm::cgroups(), dep::CGROUP),
    // ---- exact /sys rows ----
    route!("/sys/devices/system/cpu/online", sys_power::cpu_online(), 0),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        sys_cgroup::ifpriomap(),
        dep::NET | dep::CGROUP
    ),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        sys_cgroup::prioidx(),
        dep::CGROUP
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        sys_cgroup::cpuacct_usage(),
        dep::CGROUP
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        sys_cgroup::cpuacct_usage_percpu(),
        dep::CGROUP
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        sys_cgroup::memory_usage(),
        dep::CGROUP
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        sys_cgroup::memory_max_usage(),
        dep::CGROUP
    ),
    // ---- parameterized rows (segment globs) ----
    route!(
        "/proc/sys/kernel/sched_domain/cpu*/domain0/max_newidle_lb_cost",
        "/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
        proc_kernel::max_newidle_lb_cost(c => c.num(0)?),
        dep::SCHED
    ),
    route!(
        "/proc/fs/ext4/*/mb_groups",
        "/proc/fs/ext4/sda1/mb_groups",
        proc_misc::mb_groups(c => c.text(0)),
        dep::FS
    ),
    route!(
        "/proc/*/status",
        "/proc/1/status",
        proc_pid::pid_status(c => c.num(0)?),
        dep::NS | dep::PROCESS
    ),
    route!(
        "/proc/*/stat",
        "/proc/1/stat",
        proc_pid::pid_stat(c => c.num(0)?),
        dep::NS | dep::PROCESS
    ),
    route!(
        "/proc/*/cmdline",
        "/proc/1/cmdline",
        proc_pid::pid_cmdline(c => c.num(0)?),
        dep::NS | dep::PROCESS
    ),
    route!(
        "/proc/*/io",
        "/proc/1/io",
        proc_pid::pid_io(c => c.num(0)?),
        dep::NS | dep::PROCESS
    ),
    route!(
        "/proc/*/sched",
        "/proc/1/sched",
        proc_pid::pid_sched(c => c.num(0)?),
        // cpu_time/vruntime only move under mutations that bump
        // PROCESS; an idle clock advance leaves the bytes unchanged.
        dep::NS | dep::PROCESS
    ),
    route!(
        "/sys/block/*/stat",
        "/sys/block/sda/stat",
        sys_power::block_stat(c => c.text(0)),
        dep::STATS
    ),
    route!(
        "/sys/class/thermal/thermal_zone*/temp",
        "/sys/class/thermal/thermal_zone0/temp",
        sys_power::thermal_zone_temp(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq",
        sys_power::cpufreq_cur(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpufreq/cpuinfo_max_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq",
        sys_power::cpufreq_max(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/name",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/name",
        sys_power::cpuidle_name(c => c.num(0)?, c.num(1)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/usage",
        sys_power::cpuidle_usage(c => c.num(0)?, c.num(1)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/time",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/time",
        sys_power::cpuidle_time(c => c.num(0)?, c.num(1)?),
        dep::HW
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/name",
        sys_power::rapl_name(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        sys_power::rapl_package_energy(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/max_energy_range_uj",
        "/sys/class/powercap/intel-rapl:0/max_energy_range_uj",
        sys_power::rapl_max_range(c => c.num(0)?),
        dep::HW
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/name",
        sys_power::rapl_subdomain_name(c => c.num(0)?, c.rapl_subdomain()?),
        dep::HW
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        sys_power::rapl_subdomain_energy(c => c.num(0)?, c.rapl_subdomain()?),
        dep::HW
    ),
    route!(
        "/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input",
        "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp1_input",
        sys_power::coretemp(c => c.num(0)?, c.num(2)?),
        dep::HW
    ),
    route!(
        "/sys/devices/system/node/node*/numastat",
        "/sys/devices/system/node/node0/numastat",
        sys_node::numastat(c => c.num(0)?),
        dep::MEM
    ),
    route!(
        "/sys/devices/system/node/node*/vmstat",
        "/sys/devices/system/node/node0/vmstat",
        sys_node::vmstat(c => c.num(0)?),
        dep::MEM
    ),
    route!(
        "/sys/devices/system/node/node*/meminfo",
        "/sys/devices/system/node/node0/meminfo",
        sys_node::node_meminfo(c => c.num(0)?),
        dep::MEM
    ),
];

/// The route serving `path`, with its `*` captures (first match wins).
fn resolve(path: &str) -> Option<(&'static Route, Captures<'_>)> {
    let rel = path.trim_start_matches('/');
    ROUTES
        .iter()
        .find_map(|r| Some((r, r.captures(path, rel)?)))
}

/// The route serving `path`, if any (first match wins). Allocation-free,
/// like the lookup every read makes.
pub fn route_for(path: &str) -> Option<&'static Route> {
    resolve(path).map(|(r, _)| r)
}

/// Renders `path` into the cleared `out` through its route, returning the
/// route's dependency mask to tag a cached copy with; `None` when no route
/// serves the path or it does not resolve in this view.
pub(crate) fn render(k: &Kernel, view: &View, path: &str, out: &mut String) -> Option<u32> {
    let (route, caps) = resolve(path)?;
    (route.renderer)(k, view, &caps, out)?;
    Some(route.deps)
}

/// The OR of the dependency masks of every route whose mask treatment
/// differs between `old` and `new` — the subsystem epochs a *live*
/// policy swap must dirty so the render cache revalidates everything the
/// swap can have changed. Each route is probed through its concrete
/// representative path, matching how the masking layer evaluates rules.
pub fn changed_mask_deps(old: &crate::MaskPolicy, new: &crate::MaskPolicy) -> u32 {
    let mut deps = 0u32;
    for r in ROUTES {
        if old.action_for(r.probe) != new.action_for(r.probe) {
            deps |= r.deps;
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::glob_match;
    use crate::view::View;
    use crate::PseudoFs;
    use simkernel::kernel::ProcessSpec;
    use simkernel::{Kernel, MachineConfig};
    use workloads::models;

    fn kernel() -> (Kernel, View) {
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 11);
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(2);
        let view = View::container(env.ns, env.cgroups);
        (k, view)
    }

    #[test]
    fn every_probe_matches_its_own_pattern_and_renders() {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let host = View::host();
        for r in ROUTES {
            assert!(
                glob_match(r.pattern, r.probe),
                "probe {} does not match pattern {}",
                r.probe,
                r.pattern
            );
            assert_eq!(
                route_for(r.probe).map(|m| m.handler),
                Some(r.handler),
                "probe {} resolves to a different route",
                r.probe
            );
            // Numeric pid probes use ns pids, which only resolve inside the
            // container's pid namespace (host pids start at 300).
            let view = if r.pattern.starts_with("/proc/*/") {
                &container
            } else {
                &host
            };
            fs.read(&k, view, r.probe)
                .unwrap_or_else(|e| panic!("probe {} unreadable: {e}", r.probe));
        }
    }

    #[test]
    fn every_listed_path_is_routed() {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let odd = [
            "/proc//stat",
            "/proc/1/stat/",
            "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp_input1_input",
            "/sys/devices/platform/coretemp.0/hwmon/other/temp1_input",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/x/name",
        ];
        for view in [View::host(), container] {
            for path in fs.list(&k, &view) {
                assert!(route_for(&path).is_some(), "unrouted path {path}");
            }
            // The route matcher accepts exactly what the glob accepts.
            for path in fs.list(&k, &view).iter().map(String::as_str).chain(odd) {
                for r in ROUTES {
                    assert_eq!(
                        r.captures(path, path.trim_start_matches('/')).is_some(),
                        glob_match(r.pattern, path),
                        "{} vs {path}",
                        r.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn handlers_are_unique_and_patterns_do_not_duplicate() {
        let mut handlers: Vec<&str> = ROUTES.iter().map(|r| r.handler).collect();
        handlers.sort_unstable();
        let n = handlers.len();
        handlers.dedup();
        assert_eq!(n, handlers.len(), "duplicate handler entries");
        let mut patterns: Vec<&str> = ROUTES.iter().map(|r| r.pattern).collect();
        patterns.sort_unstable();
        let n = patterns.len();
        patterns.dedup();
        assert_eq!(n, patterns.len(), "duplicate patterns");
    }

    #[test]
    fn exact_rows_precede_globs_and_globs_capture_per_segment() {
        let first_glob = ROUTES.iter().position(|r| !r.is_exact()).unwrap();
        assert!(ROUTES[first_glob..].iter().all(|r| !r.is_exact()));
        for r in ROUTES {
            assert_eq!(r.is_exact(), !r.pattern.contains('*'), "{}", r.pattern);
            assert!(
                r.pattern.starts_with('/') && !r.pattern.starts_with("//"),
                "{} must start with exactly one slash",
                r.pattern
            );
            let stars = r.pattern.matches('*').count();
            assert!(
                stars <= 3,
                "{} has more captures than Captures holds",
                r.pattern
            );
            assert!(
                r.pattern
                    .split('/')
                    .all(|seg| seg.matches('*').count() <= 1),
                "{} has two captures in one segment",
                r.pattern
            );
        }
    }

    #[test]
    fn captures_slice_the_star_runs() {
        let caps = |pattern: &str, path: &'static str| {
            let route = ROUTES.iter().find(|r| r.pattern == pattern).unwrap();
            route.captures(path, path.trim_start_matches('/'))
        };
        let coretemp = "/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input";
        let c = caps(
            coretemp,
            "/sys/devices/platform/coretemp.1/hwmon/hwmon7/temp12_input",
        );
        let c = c.unwrap();
        assert_eq!((c.text(0), c.text(1), c.text(2)), ("1", "7", "12"));
        // The literal closing a segment is anchored at the segment's end.
        let c = caps(
            coretemp,
            "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp_input1_input",
        );
        assert_eq!(c.unwrap().text(2), "_input1");
        assert!(caps("/proc/*/stat", "/proc/1/2/stat").is_none());
        assert!(caps("/proc/*/stat", "/proc/1/status").is_none());
        let sub = |path| {
            caps("/sys/class/powercap/intel-rapl:*/intel-rapl:*/name", path)
                .and_then(|c| c.rapl_subdomain())
        };
        assert_eq!(
            sub("/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/name"),
            Some(1)
        );
        assert_eq!(
            sub("/sys/class/powercap/intel-rapl:0/intel-rapl:1:1/name"),
            None
        );
        assert_eq!(
            sub("/sys/class/powercap/intel-rapl:0/intel-rapl:01/name"),
            None
        );
    }

    #[test]
    fn self_paths_resolve_to_self_handlers_not_pid_globs() {
        assert_eq!(
            route_for("/proc/self/status").unwrap().handler,
            "proc_pid::self_status"
        );
        assert_eq!(
            route_for("/proc/7/status").unwrap().handler,
            "proc_pid::pid_status"
        );
        assert!(route_for("/proc/does_not_exist").is_none());
    }

    #[test]
    fn deps_are_within_the_subsystem_bit_range() {
        for r in ROUTES {
            assert_eq!(
                r.deps & !dep::ALL,
                0,
                "{} declares unknown dependency bits",
                r.pattern
            );
        }
    }
}
