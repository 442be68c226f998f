//! `/proc/interrupts` and `/proc/softirqs`.

use std::fmt::Write as _;

use simkernel::irq::SOFTIRQ_NAMES;
use simkernel::Kernel;

use crate::view::View;

/// `/proc/interrupts`. LEAK (Table I): per-IRQ per-CPU counts for the
/// whole host; the handler has no notion of namespaces.
pub fn interrupts_into(k: &Kernel, _view: &View, out: &mut String) {
    let ncpus = k.config().cpus as usize;
    out.push_str("     ");
    for c in 0..ncpus {
        let _ = write!(out, "{:>11}", format!("CPU{c}"));
    }
    out.push('\n');
    for line in k.irq().lines() {
        let _ = write!(out, "{:>4}:", line.label);
        for c in 0..ncpus {
            let _ = write!(out, "{:>11}", line.per_cpu.get(c).copied().unwrap_or(0));
        }
        let _ = writeln!(out, "   {}", line.description);
    }
}

/// `/proc/softirqs`. LEAK (Table I): per-kind per-CPU softirq counts;
/// flagged for both co-residence and DoS potential in the paper.
pub fn softirqs_into(k: &Kernel, _view: &View, out: &mut String) {
    let ncpus = k.config().cpus as usize;
    out.push_str("                ");
    for c in 0..ncpus {
        let _ = write!(out, "{:>11}", format!("CPU{c}"));
    }
    out.push('\n');
    for (name, counts) in SOFTIRQ_NAMES.iter().zip(k.irq().softirqs()) {
        let _ = write!(out, "{:>12}:   ", name);
        for c in 0..ncpus {
            let _ = write!(out, "{:>11}", counts.get(c).copied().unwrap_or(0));
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;
    use workloads::models;

    #[test]
    fn interrupts_table_shape() {
        let mut k = Kernel::new(MachineConfig::small_server(), 1);
        k.spawn_host_process("w", models::prime()).unwrap();
        k.advance_secs(2);
        let s = rendered(interrupts_into, &k, &View::host());
        assert!(s.lines().next().unwrap().contains("CPU3"));
        assert!(s.contains("LOC:"));
        assert!(s.contains("Local timer interrupts"));
    }

    #[test]
    fn softirqs_has_all_kinds() {
        let mut k = Kernel::new(MachineConfig::small_server(), 1);
        k.advance_secs(1);
        let s = rendered(softirqs_into, &k, &View::host());
        for name in SOFTIRQ_NAMES {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
