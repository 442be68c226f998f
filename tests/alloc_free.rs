//! Hot-path allocation gates: a counting global allocator asserts that
//! steady-state work on the per-tick and per-read paths allocates
//! nothing. Counts are kept per thread, so tests running side by side in
//! this binary cannot disturb one another.
#![allow(
    unsafe_code,
    reason = "a counting allocator implements the unsafe GlobalAlloc trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use containerleaks::detector::watched_index;
use containerleaks::pseudofs::{route_for, MaskAction, MaskPolicy};
use containerleaks::simkernel::hw::Hardware;
use containerleaks::simkernel::sched::CpuTickLoad;
use containerleaks::simkernel::PowerModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_hardware_tick_is_allocation_free() {
    let dt_ns = 10_000_000;
    let mut hw = Hardware::new(8, 2, 3_400_000_000, true, true, PowerModelParams::default());
    let load = vec![
        CpuTickLoad {
            busy_ns: dt_ns / 2,
            instructions: 5_000_000,
            cache_misses: 20_000,
            branch_misses: 4_000,
            fp_instructions: 1_000_000,
            ..CpuTickLoad::default()
        };
        8
    ];
    let mut rng = StdRng::seed_from_u64(7);
    hw.tick(dt_ns, &load, &mut rng);
    let n = allocations(|| {
        for _ in 0..100 {
            hw.tick(dt_ns, &load, &mut rng);
        }
    });
    assert_eq!(n, 0, "100 warm ticks allocated {n} times");
    assert_eq!(hw.last_power().per_package_w.len(), 2);
}

#[test]
fn route_lookup_is_allocation_free() {
    let rapl = "/sys/class/powercap/intel-rapl:1/intel-rapl:1:0/energy_uj";
    let pid = "/proc/42/stat";
    let mut found = (None, None);
    let n = allocations(|| found = (route_for(rapl), route_for(pid)));
    assert_eq!(n, 0, "route lookups allocated {n} times");
    assert_eq!(found.0.unwrap().handler, "sys_power::rapl_subdomain_energy");
    assert_eq!(found.1.unwrap().handler, "proc_pid::pid_stat");
}

#[test]
fn mask_policy_lookup_is_allocation_free() {
    let policy = MaskPolicy::none()
        .partial("/proc/cpuinfo")
        .deny("/proc/*/sched")
        .deny("/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input")
        .deny("/sys/class/powercap/**");
    let paths = [
        "/proc/cpuinfo",
        "/proc/7/sched",
        "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp2_input",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        "/proc/uptime",
    ];
    let mut actions = [None; 5];
    let n = allocations(|| {
        for (a, p) in actions.iter_mut().zip(paths) {
            *a = policy.action_for(p);
        }
    });
    assert_eq!(n, 0, "mask lookups allocated {n} times");
    use MaskAction::{Deny, Partial};
    assert_eq!(
        actions,
        [Some(Partial), Some(Deny), Some(Deny), Some(Deny), None]
    );
}

#[test]
fn detector_tap_lookup_is_allocation_free() {
    let paths = [
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        "/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
        "/proc/self/status",
    ];
    let mut hits = [None; 3];
    let n = allocations(|| {
        for (h, p) in hits.iter_mut().zip(paths) {
            *h = watched_index(p);
        }
    });
    assert_eq!(n, 0, "watched_index allocated {n} times");
    assert!(hits[0].is_some() && hits[1].is_some() && hits[2].is_none());
}
