//! Per-layer metrics of a traced run: span medians from the benchmark's
//! own recorder plus exact counts from the program's `simtrace` counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use containerleaks::simtrace::{self, TimedEvent, TraceSink};

use crate::baseline::Baseline;
use crate::{scaled_wall_s, stats, Metric, Run};

/// Where a per-layer metric comes from.
enum Source {
    /// Median duration of the named span, microseconds.
    SpanUs(&'static str),
    /// Median duration of the named span, seconds.
    SpanS(&'static str),
    /// Median over episodes of the named span's summed duration, seconds.
    BusyS(&'static str),
    /// Sum of these counters over one traced episode.
    Count(&'static [&'static str]),
    /// Sum of every counter under this prefix over one traced episode.
    Prefix(&'static str),
    /// Render-cache hits over hits plus misses.
    HitRatio,
    /// Median simulated seconds from a prober's arrival to its flag.
    FlagLatency,
    /// The median step time of the untraced child runs.
    StepMedian,
    /// The step-time tail of the untraced child runs.
    StepTail,
    /// Median step time not covered by any call into the program.
    StepSelf,
    /// Traced `wall_s` over the untraced child runs' `wall_s`, both at
    /// nominal speed.
    Overhead,
}

use Source::*;

/// Every per-layer metric, in report order: name, unit, source. A layer
/// a workload bypasses reads 0, and so does a counter the program no
/// longer has.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("cloudsim.read_rapl_us", "us", SpanUs("cloudsim.read_rapl")),
    (
        "cloudsim.read_status_us",
        "us",
        SpanUs("cloudsim.read_status"),
    ),
    (
        "cloudsim.read_denied_us",
        "us",
        SpanUs("cloudsim.read_denied"),
    ),
    ("cloudsim.advance_us", "us", SpanUs("cloudsim.advance")),
    ("cloudsim.advance_busy_s", "s", BusyS("cloudsim.advance")),
    (
        "cloudsim.calendar_pops",
        "count",
        Count(&["cloud.calendar_pops"]),
    ),
    (
        "cloudsim.hosts_advanced",
        "count",
        Count(&["cloud.hosts_advanced"]),
    ),
    ("cloudsim.host_syncs", "count", Count(&["cloud.host_syncs"])),
    (
        "cloudsim.billing_charges",
        "count",
        Count(&["cloud.billing_charges"]),
    ),
    (
        "cloudsim.host_power_us",
        "us",
        SpanUs("cloudsim.host_power"),
    ),
    ("cloudsim.new_s", "s", SpanS("cloudsim.new")),
    ("cloudsim.launch_us", "us", SpanUs("cloudsim.launch")),
    ("simkernel.run_ticks", "count", Count(&["kernel.run_ticks"])),
    (
        "simkernel.epoch_bumps",
        "count",
        Count(&["kernel.epoch_bump"]),
    ),
    ("simkernel.switches", "count", Count(&["sched.switches"])),
    (
        "simkernel.policy_swaps",
        "count",
        Count(&["kernel.policy_swaps"]),
    ),
    ("faults.injected", "count", Prefix("faults.injected.")),
    ("faults.tolerated", "count", Prefix("faults.tolerated.")),
    ("faults.reboots", "count", Count(&["faults.reboots"])),
    ("pseudofs.reads", "count", Prefix("pseudofs.read.")),
    (
        "pseudofs.cache_hits",
        "count",
        Count(&["pseudofs.cache_hit"]),
    ),
    (
        "pseudofs.cache_misses",
        "count",
        Count(&["pseudofs.cache_miss"]),
    ),
    ("pseudofs.cache_hit_ratio", "ratio", HitRatio),
    ("pseudofs.denied", "count", Count(&["pseudofs.denied"])),
    (
        "powersim.sample_watts_us",
        "us",
        SpanUs("powersim.sample_watts"),
    ),
    (
        "powersim.trace_apply_us",
        "us",
        SpanUs("powersim.trace_apply"),
    ),
    (
        "powersim.rapl_samples",
        "count",
        Count(&["powersim.rapl_samples"]),
    ),
    (
        "detector.observations",
        "count",
        Count(&["detector.observations"]),
    ),
    ("detector.flags", "count", Count(&["detector.flags"])),
    (
        "detector.policies_applied",
        "count",
        Count(&["detector.policies_applied"]),
    ),
    ("detector.flag_latency_s", "sim_s", FlagLatency),
    (
        "leakscan.coresident_us",
        "us",
        SpanUs("leakscan.coresident"),
    ),
    ("step_p50_us", "us", StepMedian),
    ("step_p99_us", "us", StepTail),
    ("step.self_us", "us", StepSelf),
    ("trace.overhead_ratio", "ratio", Overhead),
];

/// Counter totals by name.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// The program's counter totals now.
    pub fn snapshot() -> Self {
        Counters(
            simtrace::counters::snapshot()
                .into_iter()
                .map(|e| (e.name, e.value))
                .collect(),
        )
    }

    /// The increments since `before`.
    pub fn since(mut self, before: &Counters) -> Self {
        for (name, v) in &mut self.0 {
            *v -= before.0.get(name).copied().unwrap_or(0);
        }
        self
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn prefixed(&self, prefix: &str) -> u64 {
        self.0
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Accepts kernel event buffers and drops them. Installing it switches
/// the program's counters on; kernels built outside a `simtrace` scope
/// (all of the benchmark's) buffer no events.
#[derive(Debug)]
struct CountersOnly;

impl TraceSink for CountersOnly {
    fn flush(&self, _scope: &str, _events: Vec<TimedEvent>) {}
}

/// Switches the program's `simtrace` counters on for the rest of the
/// process.
pub fn enable_counters() {
    simtrace::install(Arc::new(CountersOnly));
}

fn median_or_zero(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run. Also writes the first traced
/// episode's spans to `.bench_out/spans-<workload>.tsv`.
pub fn per_layer(
    untraced: &[Baseline],
    traced: &[Run],
    workload: &str,
) -> Result<Vec<Metric>, String> {
    let first = traced
        .first()
        .ok_or("a traced run with no traced episode")?;
    let spans = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| r.rec.durations(name))
            .map(|ns| ns as f64)
            .collect()
    };
    // Each untraced child run is one sample; their medians are reported.
    let of_untraced =
        |f: fn(&Baseline) -> f64| median_or_zero(&untraced.iter().map(f).collect::<Vec<_>>());
    let c = &first.counters;
    let untraced_wall = of_untraced(|b| b.wall_s);
    let traced_wall = scaled_wall_s(traced).ok_or("traced episodes differ in steps")?;
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, source) in PER_LAYER {
        let value = match source {
            SpanUs(s) => median_or_zero(&spans(s)) / 1e3,
            SpanS(s) => median_or_zero(&spans(s)) / 1e9,
            BusyS(s) => median_or_zero(
                &traced
                    .iter()
                    .map(|r| r.rec.durations(s).iter().sum::<u64>() as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
            Count(names) => names.iter().map(|n| c.get(n)).sum::<u64>() as f64,
            Prefix(p) => c.prefixed(p) as f64,
            HitRatio => {
                let (h, m) = (c.get("pseudofs.cache_hit"), c.get("pseudofs.cache_miss"));
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                }
            }
            FlagLatency => median_or_zero(
                &traced
                    .iter()
                    .flat_map(|r| r.ep.flag_latency_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            StepMedian => of_untraced(|b| b.step_p50_us),
            StepTail => of_untraced(|b| b.step_tail_us),
            StepSelf => median_or_zero(
                &traced
                    .iter()
                    .flat_map(|r| r.rec.step_self_ns())
                    .map(|ns| ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
            Overhead => traced_wall / untraced_wall,
        };
        out.push(Metric { name, value, unit });
    }
    let tails: Vec<String> = untraced
        .iter()
        .map(|b| format!("p{}", b.tail_pct))
        .collect();
    println!(
        "samples: step median and tail ({}) from {} untraced child runs; spans from {} traced \
         episodes; counts from one traced episode",
        tails.join(" "),
        untraced.len(),
        traced.len()
    );
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("creating .bench_out: {e}"))?;
    let path = format!(".bench_out/spans-{workload}.tsv");
    std::fs::write(&path, first.rec.render_tsv()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans of the first traced episode written to {path}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed: Vec<&str> = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("BENCHMARK.json has per_layer")
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn counters_diff_and_prefix_sum() {
        let before = Counters(BTreeMap::from([
            ("a.x".to_string(), 2),
            ("b".to_string(), 1),
        ]));
        let after = Counters(BTreeMap::from([
            ("a.x".to_string(), 5),
            ("a.y".to_string(), 4),
            ("ab".to_string(), 9),
            ("b".to_string(), 1),
        ]));
        let d = after.since(&before);
        assert_eq!(d.get("a.x"), 3);
        assert_eq!(d.get("b"), 0);
        assert_eq!(d.get("missing"), 0);
        assert_eq!(d.prefixed("a."), 7);
    }
}
