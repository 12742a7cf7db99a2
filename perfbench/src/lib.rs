//! Benchmark of the RUPAM simulator and `rupam-serve`, measured from
//! outside the program.
//!
//! Four workloads stress different layers: `sim_saturated` and
//! `sim_wide` run job streams through the simulated engine, and
//! `serve_burst` and `serve_paced` load the live service. An untraced
//! run reports the end-to-end metrics of [`report::END_TO_END`]; a
//! traced run wraps every scheduler callback in a span
//! ([`probe::Probe`]), counts engine events ([`probe::EventCounter`])
//! and reports the per-layer metrics of [`report::PER_LAYER`].

use std::time::{Duration, Instant};

use rupam::RupamScheduler;
use rupam_exec::scheduler::Scheduler;

pub mod probe;
pub mod report;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use probe::Recorder;
use report::{Failure, Outcome, Values};
use serve::ServeShape;
use sim::SimShape;
use spans::SpanLog;

/// Builds the scheduler under test.
pub type MakeScheduler = fn() -> Box<dyn Scheduler + Send>;

/// RUPAM at its defaults, the scheduler every workload runs.
pub fn rupam_default() -> Box<dyn Scheduler + Send> {
    Box::new(RupamScheduler::with_defaults())
}

/// Set-up is timed this many times per run and reported as the median.
pub const SETUP_SAMPLES: usize = 21;

/// Timed iterations a run makes however long they take, so that its
/// medians rest on more than one sample.
pub const MIN_ITERATIONS: usize = 3;

/// Workload names, in the order the benchmark documents them.
/// `BENCHMARK.json` lists `sim_saturated` and `serve_burst`; `sim_wide`
/// and `serve_paced` run with the same command but are left out of it,
/// because on a small shared machine their figures follow the host (see
/// the README).
pub const WORKLOADS: [&str; 4] = ["sim_saturated", "sim_wide", "serve_burst", "serve_paced"];

/// What one workload runs.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A simulated job stream.
    Sim(SimShape),
    /// A live serve load.
    Serve(ServeShape),
}

/// The full-size shape of workload `name`.
pub fn shape(name: &str) -> Option<Shape> {
    let serve = |jobs, mean_gap, max_wall_s| ServeShape {
        workers: 16,
        jobs,
        tasks: 16,
        mean_gap,
        max_wall: Duration::from_secs(max_wall_s),
    };
    Some(match name {
        "sim_saturated" => Shape::Sim(SimShape {
            mix: (6, 4, 2),
            jobs: 16,
            gap_s: 5.0,
        }),
        "sim_wide" => Shape::Sim(SimShape {
            mix: (384, 256, 128),
            jobs: 8,
            gap_s: 10.0,
        }),
        "serve_burst" => Shape::Serve(serve(500, None, 60)),
        "serve_paced" => Shape::Serve(serve(1000, Some(Duration::from_millis(4)), 30)),
        _ => return None,
    })
}

/// A seconds-scale version of workload `name`, for smoke tests.
pub fn tiny_shape(name: &str) -> Option<Shape> {
    Some(match shape(name)? {
        Shape::Sim(s) => Shape::Sim(SimShape {
            mix: (2, 1, 1),
            jobs: 3,
            ..s
        }),
        Shape::Serve(s) => Shape::Serve(ServeShape {
            workers: 8,
            jobs: 24,
            tasks: 4,
            ..s
        }),
    })
}

/// Run `shape` untraced for about `seconds`: end-to-end metrics.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    make: MakeScheduler,
) -> Result<Outcome, Failure> {
    match shape {
        Shape::Sim(s) => sim::run(s, seed, seconds, make),
        Shape::Serve(s) => serve::run(s, seed, seconds, make),
    }
}

/// Run `shape` traced: per-layer metrics, spans into `log`.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    make: MakeScheduler,
    log: &mut SpanLog,
) -> Result<Outcome, Failure> {
    match shape {
        Shape::Sim(s) => sim::run_traced(s, seed, make, log),
        Shape::Serve(s) => serve::run_traced(s, seed, make, log),
    }
}

/// The wall-clock time a run may spend on its timed iterations. The
/// iteration count follows from it, so a run lasts about `--seconds` on
/// a slow machine as on a fast one.
pub(crate) struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub(crate) fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to make another iteration after `done`: always below
    /// [`MIN_ITERATIONS`], then while one more of the mean length so far
    /// still fits.
    pub(crate) fn another(&self, done: usize) -> bool {
        if done < MIN_ITERATIONS {
            return true;
        }
        let spent = self.start.elapsed().as_secs_f64();
        spent + spent / done as f64 <= self.seconds
    }
}

/// Seed of iteration `i` of a run seeded `seed` (SplitMix64 of both).
pub(crate) fn iteration_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set `job_latency_p50_ms`, `e2e.job_latency_p99_ms` and the sample
/// counts from per-job latencies; the tail is p99, or the highest
/// percentile with at least ten samples beyond it. Returns a note.
pub(crate) fn latency_metrics(v: &mut Values, samples_ms: &[f64], what: &str) -> String {
    let tail = stats::tail_percentile(samples_ms.len(), 99.0, 10).unwrap_or(50.0);
    v.set("job_latency_p50_ms", stats::percentile(samples_ms, 50.0));
    v.set(
        "e2e.job_latency_p99_ms",
        stats::percentile(samples_ms, tail),
    );
    v.set("e2e.latency_samples", samples_ms.len() as f64);
    v.set("e2e.latency_tail_pct", tail);
    format!(
        "job latency: {} samples ({what}); e2e.job_latency_p99_ms holds p{tail}",
        samples_ms.len()
    )
}

/// The `core.*` rows both traced runs share.
pub(crate) fn layer_core(v: &mut Values, r: &Recorder, offer_us: &[f64], wall: f64) {
    v.set("core.offer_round.calls", r.offer_rounds as f64);
    v.set("core.offer_round.total_s", r.offer_total_ns() as f64 / 1e9);
    if !offer_us.is_empty() {
        v.set(
            "core.offer_round.mean_us",
            offer_us.iter().sum::<f64>() / offer_us.len() as f64,
        );
        v.set("core.offer_round.p50_us", stats::percentile(offer_us, 50.0));
        v.set("core.offer_round.p99_us", stats::percentile(offer_us, 99.0));
    }
    let rounds = r.offer_rounds.max(1) as f64;
    v.set("core.offer.pending_mean", r.pending_sum as f64 / rounds);
    v.set("core.offer.changed_mean", r.changed_sum as f64 / rounds);
    v.set(
        "core.offer.speculatable_mean",
        r.speculatable_sum as f64 / rounds,
    );
    v.set(
        "core.offer.empty_pending_rounds",
        r.empty_pending_rounds as f64,
    );
    v.set("core.share", r.core_total_ns() as f64 / 1e9 / wall);
    v.set("core.cmd.launch", r.cmd_launch as f64);
    v.set("core.cmd.spec_launch", r.cmd_spec_launch as f64);
    v.set("core.cmd.kill", r.cmd_kill as f64);
    v.set("core.task_finished.calls", r.task_finished_calls as f64);
    v.set(
        "core.task_finished.total_s",
        r.task_finished_ns as f64 / 1e9,
    );
    v.set(
        "core.task_finished.mean_us",
        r.task_finished_ns as f64 / 1e3 / r.task_finished_calls.max(1) as f64,
    );
    v.set("core.other_callbacks.total_s", r.other_ns as f64 / 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_makes_the_minimum_then_stops_when_time_is_up() {
        let spent = Budget::start(0.0);
        assert!((0..MIN_ITERATIONS).all(|done| spent.another(done)));
        std::thread::sleep(Duration::from_millis(1));
        assert!(!spent.another(MIN_ITERATIONS));
        assert!(Budget::start(60.0).another(MIN_ITERATIONS));
    }
}
