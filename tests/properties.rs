//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;

use containerleaks::leakscan::metrics::joint_entropy;
use containerleaks::powersim::{BreakerState, CircuitBreaker};
use containerleaks::pseudofs::view::glob_match;
use containerleaks::simkernel::{Kernel, MachineConfig, NANOS_PER_SEC};
use containerleaks::workloads::{Phase, Repeat, WorkloadClass, WorkloadSpec};

fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        1_000_000u64..10_000_000_000,
        0.1f64..6.0,
        0.0f64..40.0,
        0.0f64..20.0,
        0.0f64..1.0,
        0.01f64..1.0,
    )
        .prop_map(|(dur, ipc, cm, bm, fp, demand)| Phase {
            duration_ns: dur,
            instructions_per_cycle: ipc,
            cache_miss_per_kilo_instr: cm,
            branch_miss_per_kilo_instr: bm,
            fp_ratio: fp,
            mem_bytes: 16 << 20,
            syscalls_per_sec: 100.0,
            io_bytes_per_sec: 0.0,
            cpu_demand: demand,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Energy counters never decrease and scale with elapsed time,
    /// whatever workload mix runs.
    #[test]
    fn rapl_counters_monotone_under_any_workload(
        phases in proptest::collection::vec(arb_phase(), 1..4),
        seed in 0u64..1_000,
    ) {
        let spec = WorkloadSpec::new("prop", WorkloadClass::Mixed, phases, Repeat::Forever);
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        k.spawn_host_process("w", spec).unwrap();
        let mut last = 0u64;
        for _ in 0..6 {
            k.advance_secs(1);
            let e = k.rapl().raw(0).unwrap().package_uj as u64;
            prop_assert!(e >= last, "energy decreased: {last} -> {e}");
            prop_assert!(e > last, "energy frozen");
            last = e;
        }
    }

    /// The scheduler conserves CPU time: total busy time across processes
    /// never exceeds machine capacity.
    #[test]
    fn scheduler_conserves_cpu_time(
        phases in proptest::collection::vec(arb_phase(), 1..3),
        nprocs in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let spec = WorkloadSpec::new("prop", WorkloadClass::Mixed, phases, Repeat::Forever);
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let pids: Vec<_> = (0..nprocs)
            .map(|i| k.spawn_host_process(&format!("w{i}"), spec.clone()).unwrap())
            .collect();
        let secs = 5u64;
        k.advance_secs(secs);
        let total: u64 = pids.iter().map(|p| k.process(*p).unwrap().cpu_time_ns()).sum();
        let capacity = secs * NANOS_PER_SEC * u64::from(k.config().cpus);
        prop_assert!(total <= capacity, "overcommitted: {total} > {capacity}");
        // And at least one process made progress.
        prop_assert!(total > 0);
    }

    /// Uptime and idle accounting stay consistent: idle time never exceeds
    /// cpus × uptime.
    #[test]
    fn idle_time_bounded_by_capacity(seed in 0u64..500, secs in 1u64..30) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        k.advance_secs(secs);
        let idle = k.total_idle_ns();
        let cap = secs * NANOS_PER_SEC * u64::from(k.config().cpus);
        prop_assert!(idle <= cap);
        prop_assert!(idle >= cap / 2, "idle machine should be mostly idle");
    }

    /// Joint entropy is non-negative and bounded by log2(samples) per field.
    #[test]
    fn entropy_bounds(
        data in proptest::collection::vec(
            proptest::collection::vec(0u8..16, 3),
            2..40,
        )
    ) {
        let snaps: Vec<Vec<f64>> = data
            .iter()
            .map(|row| row.iter().map(|v| f64::from(*v)).collect())
            .collect();
        let h = joint_entropy(&snaps);
        let n_fields = 3.0;
        let max = n_fields * (snaps.len() as f64).log2();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= max + 1e-9, "h = {h} > {max}");
    }

    /// Glob matching: a pattern always matches itself when it has no
    /// wildcards, and `**` extension matches any suffix.
    #[test]
    fn glob_reflexivity_and_suffix(
        segs in proptest::collection::vec("[a-z0-9_]{1,8}", 1..5),
        extra in proptest::collection::vec("[a-z0-9_]{1,8}", 0..3),
    ) {
        let path = format!("/{}", segs.join("/"));
        prop_assert!(glob_match(&path, &path));
        let pattern = format!("{path}/**");
        let longer = if extra.is_empty() {
            // `**` does not match the bare prefix without a further segment
            // unless the path equals the prefix-with-empty-suffix; check
            // with one synthetic segment instead.
            format!("{path}/x")
        } else {
            format!("{path}/{}", extra.join("/"))
        };
        prop_assert!(glob_match(&pattern, &longer), "{pattern} !~ {longer}");
    }

    /// A `*` stands for any run within a segment: replacing one in-segment
    /// run of a path (empty, whole, or repeating the segment's tail
    /// literal) with `*` yields a pattern that still matches the path.
    #[test]
    fn glob_star_matches_any_in_segment_run(
        segs in proptest::collection::vec("[ab_.]{1,8}", 1..5),
        pick in 0usize..64,
        lo in 0usize..16,
        hi in 0usize..16,
    ) {
        let path = format!("/{}", segs.join("/"));
        let i = pick % segs.len();
        let seg = &segs[i];
        let n = seg.len() + 1;
        let (lo, hi) = ((lo % n).min(hi % n), (lo % n).max(hi % n));
        let mut pat_segs = segs.clone();
        pat_segs[i] = format!("{}*{}", &seg[..lo], &seg[hi..]);
        let pattern = format!("/{}", pat_segs.join("/"));
        prop_assert!(glob_match(&pattern, &path), "{pattern} !~ {path}");
    }

    /// Breaker: never trips at or below rating; always trips at sustained
    /// gross overload; trip time decreases with load.
    #[test]
    fn breaker_inverse_time(rated in 100.0f64..5_000.0, over in 1.1f64..1.9) {
        let mut ok = CircuitBreaker::new(rated);
        for _ in 0..600 {
            prop_assert_eq!(ok.step(rated * 0.99, 1.0), BreakerState::Closed);
        }
        let trip_time = |factor: f64| -> u64 {
            let mut b = CircuitBreaker::new(rated);
            let mut t = 0;
            while b.step(rated * factor, 1.0) == BreakerState::Closed {
                t += 1;
                if t > 100_000 { break; }
            }
            t
        };
        let slow = trip_time(over);
        let fast = trip_time(over + 0.1);
        prop_assert!(slow < 100_000, "never tripped at {over}x");
        prop_assert!(fast <= slow, "higher load must trip no later");
    }

    /// The pseudo filesystem never panics, whatever path it's asked for.
    #[test]
    fn pseudofs_read_never_panics(path in "[/a-z0-9_.:*-]{0,60}", seed in 0u64..100) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        k.advance_secs(1);
        let fs = containerleaks::pseudofs::PseudoFs::new();
        let view = containerleaks::pseudofs::View::host();
        let _ = fs.read(&k, &view, &path); // must not panic
    }

    /// Masking soundness: under any deny policy, the set of readable
    /// container files is a subset of the unmasked set — a policy can only
    /// remove visibility, never add it.
    #[test]
    fn masking_only_removes_visibility(
        patterns in proptest::collection::vec("/(proc|sys)/[a-z_*]{1,12}(/[a-z_*]{1,12}){0,2}", 0..5),
        seed in 0u64..50,
    ) {
        use containerleaks::pseudofs::{MaskPolicy, PseudoFs};
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let env = k.create_container_env("c").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let open_view =
            containerleaks::pseudofs::View::container(env.ns, env.cgroups);
        let mut policy = MaskPolicy::none();
        for p in &patterns {
            policy = policy.deny(p.clone());
        }
        let masked_view = containerleaks::pseudofs::View::container(env.ns, env.cgroups)
            .with_policy(policy);
        let open: std::collections::HashSet<String> =
            fs.list(&k, &open_view).into_iter().collect();
        let masked = fs.list(&k, &masked_view);
        for p in &masked {
            prop_assert!(open.contains(p), "masking conjured {p}");
            // And everything listed stays readable under the policy.
            prop_assert!(fs.read(&k, &masked_view, p).is_ok(), "{p} unreadable");
        }
        prop_assert!(masked.len() <= open.len());
    }

    /// Leak monotonicity: a container never reads content the host context
    /// cannot also obtain (the host view is the information-theoretic
    /// upper bound the leaks approach).
    #[test]
    fn container_view_is_bounded_by_host_view(seed in 0u64..40) {
        use containerleaks::pseudofs::{PseudoFs, View};
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let env = k.create_container_env("c").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let cview = View::container(env.ns, env.cgroups);
        for path in fs.list(&k, &cview) {
            if path.starts_with("/proc/1/") || path.starts_with("/proc/2/") {
                continue; // pid numbering differs across namespaces
            }
            prop_assert!(
                fs.read(&k, &View::host(), &path).is_ok(),
                "container-only visibility on {path}"
            );
        }
    }

    /// Container pid namespaces are bijective: every container process has
    /// exactly one in-namespace pid, and host pids are globally unique.
    #[test]
    fn pid_mapping_bijective(n in 1usize..6, seed in 0u64..200) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let env = k.create_container_env("c").unwrap();
        let mut host_pids = std::collections::HashSet::new();
        let mut ns_pids = std::collections::HashSet::new();
        for i in 0..n {
            let pid = k
                .spawn(
                    containerleaks::simkernel::kernel::ProcessSpec::new(
                        format!("p{i}"),
                        containerleaks::workloads::models::sleeper(),
                    )
                    .in_container(&env),
                )
                .unwrap();
            prop_assert!(host_pids.insert(pid));
            prop_assert!(ns_pids.insert(k.process(pid).unwrap().ns_pid()));
        }
        prop_assert_eq!(ns_pids.len(), n);
        // In-namespace pids are dense from 1.
        prop_assert_eq!(*ns_pids.iter().max().unwrap(), n as u32);
    }

    /// Parallel fleet stepping is bitwise equal to serial: whatever the
    /// seed, host count and thread count, `Cloud::advance_secs_threads`
    /// produces the same per-host `PowerSnapshot` sequence and the same
    /// pseudofs reads. Determinism is per-host RNG ownership, not
    /// single-threadedness.
    #[test]
    fn parallel_fleet_stepping_matches_serial(
        hosts in 1usize..5,
        threads in 2usize..6,
        seed in 0u64..500,
    ) {
        use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
        let run = |threads: usize| {
            let mut cloud =
                Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(hosts), seed);
            let obs = cloud.launch("t", InstanceSpec::new("obs")).unwrap();
            let mut snaps = Vec::new();
            let mut reads = Vec::new();
            for _ in 0..3 {
                cloud.advance_secs_threads(5, threads);
                for h in cloud.hosts() {
                    snaps.push(h.kernel().last_power().clone());
                }
                reads.push(cloud.read_file(obs, "/proc/stat").unwrap());
                reads.push(cloud.read_file(obs, "/proc/interrupts").unwrap());
            }
            (snaps, reads)
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(&serial.0, &parallel.0, "power snapshots diverged");
        prop_assert_eq!(&serial.1, &parallel.1, "pseudofs reads diverged");
    }
}
