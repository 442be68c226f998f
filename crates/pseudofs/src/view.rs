//! Read contexts and masking policies.

use serde::{Deserialize, Serialize};
use simkernel::process::CgroupMembership;
use simkernel::NamespaceSet;

/// Who is performing the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// A process in the initial namespaces (the host).
    Host,
    /// A containerized process.
    Container {
        /// The container's namespace set.
        ns: NamespaceSet,
        /// The container's cgroup membership.
        cgroups: CgroupMembership,
    },
}

/// What a matching mask rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskAction {
    /// Read fails with permission denied; the path also disappears from
    /// directory listings (bind-mounted unreadable / AppArmor denial).
    Deny,
    /// The handler restricts output to the container's allotment
    /// (the `◐` cells of Table I: CC5 shows only the tenant's cores and
    /// memory). Which fields are restricted is handler-specific.
    Partial,
}

/// One masking rule: a glob pattern over absolute paths plus an action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskRule {
    /// Glob pattern (`*` matches within a segment, `**` as the final
    /// segment matches any suffix).
    pub pattern: String,
    /// What to do on match.
    pub action: MaskAction,
}

/// A cloud provider's channel-masking policy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskPolicy {
    rules: Vec<MaskRule>,
}

impl MaskPolicy {
    /// The empty policy (local Docker/LXC default: nothing masked).
    pub fn none() -> Self {
        MaskPolicy::default()
    }

    /// Builds a policy from rules.
    pub fn from_rules(rules: Vec<MaskRule>) -> Self {
        MaskPolicy { rules }
    }

    /// Adds a deny rule.
    pub fn deny(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(MaskRule {
            pattern: pattern.into(),
            action: MaskAction::Deny,
        });
        self
    }

    /// Adds a partial-filter rule.
    pub fn partial(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(MaskRule {
            pattern: pattern.into(),
            action: MaskAction::Partial,
        });
        self
    }

    /// The rules.
    pub fn rules(&self) -> &[MaskRule] {
        &self.rules
    }

    /// The action applying to `path`, if any rule matches (first match
    /// wins).
    pub fn action_for(&self, path: &str) -> Option<MaskAction> {
        self.rules
            .iter()
            .find(|r| glob_match(&r.pattern, path))
            .map(|r| r.action)
    }
}

/// Matches a glob `pattern` against an absolute `path`.
///
/// Semantics: both are split on `/`; a `**` segment (only meaningful as the
/// final segment) matches any remaining suffix including none; a `*` within
/// a segment matches any run of characters in that segment; a segment
/// without `*` matches only an equal segment (an empty one, only an empty
/// one). Allocation-free: masked reads, the detector tap and live policy
/// swaps run it per path.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let mut pat = Some(pattern.trim_start_matches('/'));
    let mut segs = Some(path.trim_start_matches('/'));
    while let Some((p, pat_rest)) = pat.map(first_segment) {
        if p == "**" {
            // `**` must be last; matches everything remaining.
            return pat_rest.is_none();
        }
        match segs.map(first_segment) {
            Some((s, segs_rest)) if segment_match(p, s) => segs = segs_rest,
            _ => return false,
        }
        pat = pat_rest;
    }
    segs.is_none()
}

/// Splits off the first `/`-separated segment; the rest is `None` when
/// there was no separator (so `"a/"` is `"a"` then `""`, like `split`).
fn first_segment(s: &str) -> (&str, Option<&str>) {
    match s.bytes().position(|b| b == b'/') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    }
}

/// Star matcher within one segment: the literal before the first `*` is
/// anchored at the start, the literal after the last `*` at the end, and
/// the literals between are found left to right in what remains.
fn segment_match(pat: &str, seg: &str) -> bool {
    let Some(first) = pat.bytes().position(|b| b == b'*') else {
        return pat == seg;
    };
    let last = pat.bytes().rposition(|b| b == b'*').unwrap_or(first);
    let (head, tail) = (&pat[..first], &pat[last + 1..]);
    let middle = if last > first {
        &pat[first + 1..last]
    } else {
        ""
    };
    let Some(rest) = seg.strip_prefix(head) else {
        return false;
    };
    let Some(mut rest) = rest.strip_suffix(tail) else {
        return false;
    };
    for part in middle.split('*').filter(|p| !p.is_empty()) {
        match rest.find(part) {
            Some(i) => rest = &rest[i + part.len()..],
            None => return false,
        }
    }
    true
}

/// A complete read context: who reads, under what policy, with what
/// resource allotment (used by `Partial` filters).
#[derive(Debug, Clone)]
pub struct View {
    /// The reading context.
    pub context: Context,
    /// The masking policy in force (empty for local testbeds).
    pub policy: MaskPolicy,
    /// CPUs allotted to the container (Partial `cpuinfo` shows only these).
    pub allotted_cpus: Option<Vec<u16>>,
    /// Memory limit of the container (Partial `meminfo` reports this).
    pub mem_limit_bytes: Option<u64>,
}

impl View {
    /// The host view: no masking, full visibility.
    pub fn host() -> Self {
        View {
            context: Context::Host,
            policy: MaskPolicy::none(),
            allotted_cpus: None,
            mem_limit_bytes: None,
        }
    }

    /// A container view with no cloud masking (local Docker default).
    pub fn container(ns: NamespaceSet, cgroups: CgroupMembership) -> Self {
        View {
            context: Context::Container { ns, cgroups },
            policy: MaskPolicy::none(),
            allotted_cpus: None,
            mem_limit_bytes: None,
        }
    }

    /// Applies a masking policy.
    #[must_use]
    pub fn with_policy(mut self, policy: MaskPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the CPU allotment consulted by Partial filters.
    #[must_use]
    pub fn with_allotted_cpus(mut self, cpus: Vec<u16>) -> Self {
        self.allotted_cpus = Some(cpus);
        self
    }

    /// Sets the memory limit consulted by Partial filters.
    #[must_use]
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit_bytes = Some(bytes);
        self
    }

    /// Whether this is the host context.
    pub fn is_host(&self) -> bool {
        matches!(self.context, Context::Host)
    }

    /// The action the policy prescribes for `path` (host views are never
    /// masked).
    pub fn mask_action(&self, path: &str) -> Option<MaskAction> {
        if self.is_host() {
            None
        } else {
            self.policy.action_for(path)
        }
    }

    /// A fingerprint over everything that can change what this view
    /// reads: context (with the full namespace and cgroup identity),
    /// policy rules, and resource allotments. The render cache keys
    /// entries on this, so two views alias only when every read through
    /// them is guaranteed byte-identical. Computed per call — the fields
    /// are public and mutable, so memoizing would be unsound.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over strings; whole-word rounds for integer fields.
        // This runs on every cached read, so the word mix folds a full
        // u64 per multiply instead of FNV's byte-at-a-time loop — the
        // xor-then-odd-multiply round is bijective on u64, so views
        // differing in any single field can never collide.
        fn mix(h: &mut u64, bytes: &[u8]) {
            for b in bytes {
                *h ^= u64::from(*b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        fn mix_u64(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        match &self.context {
            Context::Host => mix(&mut h, &[0]),
            Context::Container { ns, cgroups } => {
                mix(&mut h, &[1]);
                for id in [ns.mnt, ns.uts, ns.pid, ns.net, ns.ipc, ns.user, ns.cgroup] {
                    mix_u64(&mut h, u64::from(id.0));
                }
                for id in [
                    cgroups.cpuacct,
                    cgroups.perf_event,
                    cgroups.net_prio,
                    cgroups.memory,
                ] {
                    mix_u64(&mut h, u64::from(id.0));
                }
            }
        }
        match &self.allotted_cpus {
            None => mix_u64(&mut h, u64::MAX),
            Some(cpus) => {
                mix_u64(&mut h, cpus.len() as u64);
                for c in cpus {
                    mix_u64(&mut h, u64::from(*c));
                }
            }
        }
        mix_u64(&mut h, self.mem_limit_bytes.map_or(u64::MAX, |b| b ^ 1));
        mix_u64(&mut h, self.policy.rules.len() as u64);
        for rule in &self.policy.rules {
            mix(&mut h, rule.pattern.as_bytes());
            mix(
                &mut h,
                &[match rule.action {
                    MaskAction::Deny => 2,
                    MaskAction::Partial => 3,
                }],
            );
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_exact_and_star() {
        assert!(glob_match("/proc/stat", "/proc/stat"));
        assert!(!glob_match("/proc/stat", "/proc/statm"));
        assert!(glob_match("/proc/*", "/proc/stat"));
        assert!(!glob_match("/proc/*", "/proc/sys/kernel"));
        assert!(glob_match(
            "/proc/sys/**",
            "/proc/sys/kernel/random/boot_id"
        ));
        assert!(glob_match(
            "/sys/class/powercap/**",
            "/sys/class/powercap/intel-rapl:0/energy_uj"
        ));
        assert!(!glob_match("/sys/class/powercap/**", "/sys/class/net/eth0"));
        assert!(!glob_match("/proc/", "/proc/stat"));
    }

    #[test]
    fn glob_within_segment() {
        assert!(glob_match("/proc/timer*", "/proc/timer_list"));
        assert!(glob_match(
            "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
            "/sys/devices/system/cpu/cpu3/cpuidle/state2/usage"
        ));
        assert!(!glob_match("/proc/timer*", "/proc/uptime"));
        assert!(glob_match("veth*", "veth1a2b3c"));
        assert!(!glob_match("veth*x", "veth1a2b3c"));
        assert!(glob_match("*rapl*", "intel-rapl:0"));
        // The literal after the last `*` is anchored at the segment's end,
        // not at its first occurrence.
        assert!(glob_match("*.log", "a.log.log"));
        assert!(glob_match("/x/temp*_input", "/x/temp_input1_input"));
        assert!(!glob_match("/x/temp*_input", "/x/temp1_input2"));
        // Head and tail literals may not overlap.
        assert!(!glob_match("ab*ba", "aba"));
        assert!(glob_match("a*b*c*d", "axxbyyczzd"));
        assert!(!glob_match("a*c*b", "axxbyyc"));
    }

    #[test]
    fn policy_first_match_wins() {
        let p = MaskPolicy::none().partial("/proc/cpuinfo").deny("/proc/*");
        assert_eq!(p.action_for("/proc/cpuinfo"), Some(MaskAction::Partial));
        assert_eq!(p.action_for("/proc/stat"), Some(MaskAction::Deny));
        assert_eq!(p.action_for("/sys/foo"), None);
    }

    #[test]
    fn host_views_bypass_masking() {
        let mut v = View::host();
        v.policy = MaskPolicy::none().deny("/proc/**");
        assert_eq!(v.mask_action("/proc/stat"), None);
    }

    #[test]
    fn fingerprint_distinguishes_policy_and_allotment() {
        let a = View::host();
        assert_eq!(a.fingerprint(), View::host().fingerprint());
        let b = View::host().with_policy(MaskPolicy::none().deny("/proc/**"));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = View::host().with_mem_limit(1 << 30);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = View::host().with_allotted_cpus(vec![0, 1]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn builders_compose() {
        let v = View::host()
            .with_allotted_cpus(vec![0, 1])
            .with_mem_limit(1 << 30);
        assert_eq!(v.allotted_cpus.as_deref(), Some(&[0u16, 1][..]));
        assert_eq!(v.mem_limit_bytes, Some(1 << 30));
    }
}
