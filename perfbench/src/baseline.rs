//! The untraced baseline of a traced run, measured in a child process.
//!
//! Once a traced run has switched the program's `simtrace` counters on,
//! they stay on for the rest of the process, so untraced episodes need a
//! process of their own. A traced run alternates such child runs with
//! its traced episodes, keeping the two close together in time: a
//! shared machine's speed drifts for seconds at a time, and an untraced
//! phase run long before the traced one would measure the drift, not the
//! tracing.

use std::process::{Command, Stdio};

use crate::{scaled_wall_s, stats, step_us, Args, Run};

/// Prefix of the line an untraced run prints for a traced parent.
const LINE: &str = "untraced baseline:";

/// What an untraced run reports to a traced parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Digest every episode of the run agreed on.
    pub digest: u64,
    /// Operations attempted and failed, digest agreement included.
    pub attempted: u64,
    pub failed: u64,
    /// The run's `wall_s` at nominal speed.
    pub wall_s: f64,
    /// Median host time of one step, microseconds.
    pub step_p50_us: f64,
    /// The tail percentile chosen for the run's step count, and the step
    /// time at it, microseconds.
    pub tail_pct: f64,
    pub step_tail_us: f64,
}

impl Baseline {
    /// The baseline of an untraced run's episodes; `None` without steps
    /// or with too few of them for a tail percentile.
    pub fn of(runs: &[Run], digest: u64, attempted: u64, failed: u64) -> Option<Baseline> {
        let steps = step_us(runs);
        let tail_pct = stats::tail_percentile(steps.len())?;
        Some(Baseline {
            digest,
            attempted,
            failed,
            wall_s: scaled_wall_s(runs)?,
            step_p50_us: stats::median(&steps)?,
            tail_pct,
            step_tail_us: stats::percentile(&steps, tail_pct)?,
        })
    }

    /// The line the untraced run prints.
    pub fn line(&self) -> String {
        format!(
            "{LINE} digest {:016x} attempted {} failed {} wall_s {:?} step_p50_us {:?} \
             tail_pct {:?} step_tail_us {:?}",
            self.digest,
            self.attempted,
            self.failed,
            self.wall_s,
            self.step_p50_us,
            self.tail_pct,
            self.step_tail_us
        )
    }

    /// The baseline in a run's standard output, from its [`Baseline::line`].
    pub fn parse(stdout: &str) -> Option<Baseline> {
        let rest = stdout.lines().find_map(|l| l.strip_prefix(LINE))?;
        let words: Vec<&str> = rest.split_whitespace().collect();
        let field = |key: &str| -> Option<&str> {
            words
                .chunks_exact(2)
                .find(|kv| kv[0] == key)
                .map(|kv| kv[1])
        };
        Some(Baseline {
            digest: u64::from_str_radix(field("digest")?, 16).ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            wall_s: field("wall_s")?.parse().ok()?,
            step_p50_us: field("step_p50_us")?.parse().ok()?,
            tail_pct: field("tail_pct")?.parse().ok()?,
            step_tail_us: field("step_tail_us")?.parse().ok()?,
        })
    }
}

/// Runs this benchmark untraced for `seconds` in a child process, waits
/// for it and returns its baseline.
pub fn run_child(args: &Args, seconds: u64) -> Result<Baseline, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the untraced run exited with {}", out.status));
    }
    Baseline::parse(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| "the untraced run printed no baseline".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips() {
        let b = Baseline {
            digest: 0x00f0_64ef_a4c4_02ff,
            attempted: 607_475,
            failed: 0,
            wall_s: 0.200_558_763_999_999_83,
            step_p50_us: 17.737,
            tail_pct: 99.0,
            step_tail_us: 49.287,
        };
        let stdout = format!("workload x\n{}\n{{\"correct\": true}}\n", b.line());
        assert_eq!(Baseline::parse(&stdout), Some(b));
        assert_eq!(Baseline::parse("workload x\n"), None);
    }
}
