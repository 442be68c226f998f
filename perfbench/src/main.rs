//! The repository benchmark: one process per run, one workload per run.
//!
//! ```text
//! perfbench --workload <power_watch|tenant_scan|fleet_week> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats episodes — a fresh set-up followed by a fixed amount of
//! simulated work — until `--seconds` of host time have passed, checks
//! every episode's outputs, and prints the metrics, ending with one JSON
//! line. Between episodes it times a fixed reference workload of its own,
//! and reports every end-to-end timing scaled to the reference's nominal
//! speed. `--trace 0` reports the end-to-end metrics with tracing off,
//! after an untimed first episode that measures the program's peak heap.
//! `--trace 1` switches on the program's `simtrace` counters and records
//! a span around every call into the program, in rounds that each start
//! with an untraced child run of this benchmark (the overhead baseline);
//! it reports the per-layer metrics and writes the first traced
//! episode's spans to `.bench_out/spans-<workload>.tsv`.

mod baseline;
mod fleet_week;
mod harness;
mod heap;
mod layers;
mod power_watch;
mod reference;
mod spans;
mod stats;
mod tenant_scan;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use baseline::Baseline;
use harness::Episode;
use reference::Reference;
use spans::Recorder;

/// Counts heap bytes while [`heap::measure`] runs.
#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Runs one episode of a workload from its seed.
type EpisodeFn = fn(u64, &mut Recorder) -> Episode;

/// The episode function of each workload.
const WORKLOADS: &[(&str, EpisodeFn)] = &[
    ("power_watch", power_watch::episode),
    ("tenant_scan", tenant_scan::episode),
    ("fleet_week", fleet_week::episode),
];

/// Fewest episodes a run measures, however short `--seconds` is.
const MIN_EPISODES: usize = 3;

/// The command line of a run.
#[derive(Debug)]
pub struct Args {
    workload: &'static str,
    run: EpisodeFn,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let &(workload, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        run,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One measured episode with its recorder and, when traced, the
/// program's counter increments during it.
pub struct Run {
    ep: Episode,
    rec: Recorder,
    counters: layers::Counters,
    /// Host time of each reference unit timed after the episode,
    /// nanoseconds.
    ref_ns: Vec<u64>,
}

/// Runs episodes until `until`, and at least `min` of them.
fn run_episodes(args: &Args, tracing: bool, until: Instant, min: usize) -> Vec<Run> {
    let mut out = Vec::new();
    let mut reference = Reference::default();
    while out.len() < min || Instant::now() < until {
        let mut rec = Recorder::new(tracing);
        let before = layers::Counters::snapshot();
        let ep = (args.run)(args.seed, &mut rec);
        let counters = layers::Counters::snapshot().since(&before);
        let mut ref_ns = Vec::new();
        reference.sample(&mut ref_ns);
        out.push(Run {
            ep,
            rec,
            counters,
            ref_ns,
        });
    }
    out
}

/// Host time of every control step of `runs`, microseconds.
fn step_us(runs: &[Run]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.rec.step_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect()
}

/// One metric of the final JSON line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Rounds of a traced run, each an untraced child run followed by traced
/// episodes.
const TRACE_ROUNDS: u32 = 4;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut baselines = Vec::new();
    let mut warmup = None;
    let runs = if args.trace {
        // The untraced children take two fifths of the time; they only
        // give the overhead baseline and the untraced step times.
        let child_s = (args.seconds * 2 / 5 / u64::from(TRACE_ROUNDS)).max(1);
        layers::enable_counters();
        let mut traced = Vec::new();
        for k in 1..=TRACE_ROUNDS {
            match baseline::run_child(&args, child_s) {
                Ok(b) => baselines.push(b),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            traced.extend(run_episodes(
                &args,
                true,
                start + budget * k / TRACE_ROUNDS,
                1,
            ));
        }
        traced
    } else {
        // An untimed first episode warms the process up and measures the
        // heap.
        warmup = Some(heap::measure(|| {
            (args.run)(args.seed, &mut Recorder::new(false))
        }));
        run_episodes(&args, false, start + budget, MIN_EPISODES)
    };
    let mut all: Vec<&Episode> = runs.iter().map(|r| &r.ep).collect();
    all.extend(warmup.as_ref().map(|(ep, _)| ep));

    // Every episode replays the same seed, so every digest must agree:
    // tracing, warm allocators, repetition and the process must not
    // change a result.
    let digest = all[0].digest;
    let consistent =
        all.iter().all(|e| e.digest == digest) && baselines.iter().all(|b| b.digest == digest);
    let attempted: u64 = all.iter().map(|e| e.ops.attempted).sum::<u64>()
        + all.len() as u64
        + baselines.iter().map(|b| b.attempted).sum::<u64>();
    let failed: u64 = all.iter().map(|e| e.ops.failed).sum::<u64>()
        + baselines.iter().map(|b| b.failed).sum::<u64>()
        + u64::from(!consistent);
    for f in all.iter().flat_map(|e| &e.ops.failures).take(8) {
        eprintln!("perfbench: check failed: {f}");
    }
    if !consistent {
        eprintln!("perfbench: episodes of one seed produced different digests");
    }
    println!(
        "workload {} seed {} episodes {} ({}) digest {digest:016x}",
        args.workload,
        args.seed,
        all.len(),
        if args.trace {
            format!("traced, next to {} untraced child runs", baselines.len())
        } else {
            "untraced".to_string()
        }
    );
    println!(
        "operations attempted {attempted} failed {failed} error_rate {}",
        failed as f64 / attempted as f64
    );

    let metrics = if args.trace {
        layers::per_layer(&baselines, &runs, args.workload)
    } else {
        if let Some(b) = Baseline::of(&runs, digest, attempted, failed) {
            println!("{}", b.line());
        }
        end_to_end(&runs, warmup.map_or(0.0, |(_, mb)| mb))
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Percentile at which every timing enters the end-to-end metrics: of
/// all steps for `step_p5_us`, across the run's episodes for each
/// segment of `wall_s` and for `setup_s`, and of the reference units for
/// the speed scale. A machine whose cores are shared with other tenants
/// drifts in speed by up to 2x, within tens of milliseconds and for
/// seconds at a time, which moves a median with the share of slow time
/// in a run. A low percentile measures the work when it ran at full
/// speed, and a run needs only a twentieth of its time at full speed to
/// reach it. Timing noise only ever adds, so a low percentile of
/// identical work is not an outlier. What full speed is moves from run
/// to run too; the speed scale takes that out.
const FAST_PCT: f64 = 5.0;

/// `wall_s` of `runs`: the measured phase split into segments (every
/// step, every timed read-back piece, then whatever else it did), each at
/// its `FAST_PCT` percentile across episodes, summed. Episodes replay the
/// same work, so segment i is the same work in every episode.
fn wall_s(runs: &[Run]) -> Option<f64> {
    let segments: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let mut seg: Vec<f64> = r.rec.step_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
            seg.extend(&r.ep.readback_s);
            let timed: f64 = seg.iter().sum();
            seg.push(r.ep.wall_s - timed);
            seg
        })
        .collect();
    stats::segment_total(&segments, FAST_PCT)
}

/// How much faster the nominal machine is than this run's: the nominal
/// reference unit time over the run's reference units at `FAST_PCT`.
/// A timing of the run times this scale is the timing at nominal speed.
fn speed_scale(runs: &[Run]) -> Option<f64> {
    let units: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.ref_ns.iter().map(|&ns| ns as f64))
        .collect();
    Some(reference::NOMINAL_UNIT_NS / stats::percentile(&units, FAST_PCT)?)
}

/// `wall_s` of `runs` at nominal speed.
fn scaled_wall_s(runs: &[Run]) -> Option<f64> {
    Some(wall_s(runs)? * speed_scale(runs)?)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(runs: &[Run], peak_heap_mb: f64) -> Result<Vec<Metric>, String> {
    let steps = step_us(runs);
    let setups: Vec<f64> = runs.iter().map(|r| r.ep.setup_s).collect();
    println!(
        "samples: {} steps, {} episodes (steps, wall segments and set-up at p{FAST_PCT})",
        steps.len(),
        runs.len()
    );
    let none = || "a run with no steps".to_string();
    let scale = speed_scale(runs).ok_or_else(none)?;
    let step_p5 = stats::percentile(&steps, FAST_PCT).ok_or_else(none)?;
    let wall = wall_s(runs).ok_or_else(none)?;
    let setup = stats::percentile(&setups, FAST_PCT).ok_or_else(none)?;
    println!(
        "unscaled: step_p5_us {step_p5:?} wall_s {wall:?} setup_s {setup:?}; \
         speed scale {scale:?} (reference unit at p{FAST_PCT} {:.1} us, nominal {:.1} us)",
        reference::NOMINAL_UNIT_NS / scale / 1e3,
        reference::NOMINAL_UNIT_NS / 1e3
    );
    Ok(vec![
        Metric {
            name: "step_p5_us",
            value: step_p5 * scale,
            unit: "us",
        },
        Metric {
            name: "wall_s",
            value: wall * scale,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: setup * scale,
            unit: "s",
        },
        Metric {
            name: "peak_heap_mb",
            value: peak_heap_mb,
            unit: "MiB",
        },
    ])
}
