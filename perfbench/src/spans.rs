//! In-memory spans recorded around every call the benchmark makes into
//! the program, plus the per-step host-time samples.
//!
//! The program itself carries no wall-clock tracing: each span here
//! brackets one call from the benchmark's own code into a layer's public
//! function, so a layer's span covers everything it does on that call.

use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span recorded outside any control step (set-up, read-back).
pub const NO_STEP: u32 = u32::MAX;

/// The name of the span wrapping one whole control step.
pub const STEP: &str = "step";

/// One timed call: `[start_ns, end_ns)` relative to the recorder's
/// origin, and the control step that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cloudsim.advance`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing control step, or [`NO_STEP`].
    pub step: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records step durations always and call spans only when tracing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    step: u32,
    /// Host time of every control step, nanoseconds, in step order.
    pub step_ns: Vec<u64>,
    /// Every span recorded so far, in end order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `tracing` turns call spans on.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            tracing,
            step: NO_STEP,
            step_ns: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, a call into the program, under a span called `name`.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call_as(f, |_| name)
    }

    /// Like [`Recorder::call`], with the span named from the result (a
    /// read that was served and one that was denied are different work).
    #[inline]
    pub fn call_as<T>(
        &mut self,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.tracing {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name(&out),
            start_ns,
            end_ns,
            step: self.step,
        });
        out
    }

    /// Runs one control step, timing it; spans recorded inside are its
    /// children.
    pub fn step<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.step_ns.len() as u32;
        self.step = idx;
        let start = Instant::now();
        let start_ns = self.now_ns();
        let out = f(self);
        let ns = start.elapsed().as_nanos() as u64;
        self.step = NO_STEP;
        self.step_ns.push(ns);
        if self.tracing {
            self.spans.push(Span {
                name: STEP,
                start_ns,
                end_ns: start_ns + ns,
                step: idx,
            });
        }
        out
    }

    /// Durations of every span called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The self time of every step span: its duration minus the part of
    /// it that its child spans cover.
    pub fn step_self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.step_ns.len()];
        for s in &self.spans {
            if s.name != STEP && s.step != NO_STEP {
                children[s.step as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == STEP)
            .map(|s| self_time((s.start_ns, s.end_ns), &mut children[s.step as usize]))
            .collect()
    }

    /// Tab-separated spans, one per line: name, start, end, step (`-`
    /// outside a step).
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tstep\n");
        for s in &self.spans {
            let _ = write!(out, "{}\t{}\t{}\t", s.name, s.start_ns, s.end_ns);
            let _ = if s.step == NO_STEP {
                writeln!(out, "-")
            } else {
                writeln!(out, "{}", s.step)
            };
        }
        out
    }
}

/// `parent`'s duration minus the length of the union of `children`
/// clipped to it (children may overlap or nest; they are sorted here).
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.clamp(reach, hi), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &mut []), 100);
        assert_eq!(self_time((0, 100), &mut [(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        // Unsorted, overlapping, nested and out-of-parent children.
        let mut kids = [(50, 70), (10, 40), (20, 30), (35, 55), (90, 130), (0, 5)];
        // Union inside [0, 100): [0,5) + [10,70) + [90,100) = 75.
        assert_eq!(self_time((0, 100), &mut kids), 25);
    }

    #[test]
    fn recorder_attributes_children_to_their_step() {
        let mut rec = Recorder::new(true);
        rec.call("setup", || ());
        for _ in 0..3 {
            rec.step(|r| {
                r.call("a", || std::hint::black_box(1 + 1));
                r.call_as(|| 7, |v| if *v == 7 { "b" } else { "c" });
            });
        }
        assert_eq!(rec.step_ns.len(), 3);
        assert_eq!(rec.durations("a").len(), 3);
        assert_eq!(rec.durations("b").len(), 3);
        assert!(rec.durations("c").is_empty());
        let setup = rec.spans.iter().find(|s| s.name == "setup").unwrap();
        assert_eq!(setup.step, NO_STEP);
        let selfs = rec.step_self_ns();
        assert_eq!(selfs.len(), 3);
        for (i, s) in rec.spans.iter().filter(|s| s.name == STEP).enumerate() {
            assert!(selfs[i] <= s.duration_ns());
        }
        assert_eq!(rec.render_tsv().lines().count(), 1 + rec.spans.len());
    }

    #[test]
    fn untraced_recorder_keeps_only_step_times() {
        let mut rec = Recorder::new(false);
        rec.step(|r| r.call("a", || ()));
        assert_eq!(rec.step_ns.len(), 1);
        assert!(rec.spans.is_empty());
    }
}
