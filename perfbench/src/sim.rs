//! The simulated-engine workloads: a job stream on a fixed cluster,
//! driven through `simulate_stream_observed_with`.

use std::time::{Duration, Instant};

use rand::Rng;
use rupam_cluster::ClusterSpec;
use rupam_dag::{JobStream, MergedStream};
use rupam_exec::{simulate_stream_observed_with, SimConfig, SimOptions, StreamInput};
use rupam_metrics::report::RunReport;
use rupam_simcore::rng::RngFactory;
use rupam_simcore::time::SimTime;
use rupam_workloads::Workload as App;

use crate::probe::{EventCounter, EventTally, Probe, Recorder};
use crate::report::{Failure, Outcome, Values};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{iteration_seed, latency_metrics, layer_core, Budget, MakeScheduler, SETUP_SAMPLES};

/// A job stream on a Hydra-style cluster.
#[derive(Clone, Debug)]
pub struct SimShape {
    /// Thor, hulk and stack node counts.
    pub mix: (usize, usize, usize),
    /// Jobs in the stream, cycling the seven suite applications.
    pub jobs: usize,
    /// Mean exponential inter-arrival gap, simulated seconds.
    pub gap_s: f64,
}

/// Seed of the arrival schedule, fixed so that every stream offers the
/// same load over time. With seeded arrivals the span of 16 exponential
/// gaps alone spread `sim_wide`'s wall time over a 16 % interquartile
/// range across seeds.
const ARRIVAL_SEED: u64 = 0xA11;

impl SimShape {
    /// The cluster, and a stream of `jobs` suite applications whose data
    /// (task sizes, block placement) comes from `seed`.
    fn build(&self, seed: u64) -> (ClusterSpec, MergedStream) {
        let (t, h, s) = self.mix;
        let cluster = ClusterSpec::hydra_mix(t, h, s);
        let mut arrivals = RngFactory::new(ARRIVAL_SEED).stream("stream-arrivals");
        let mut stream = JobStream::new();
        let mut at = 0.0f64;
        for i in 0..self.jobs {
            let app = App::ALL[i % App::ALL.len()];
            let (spec, layout) = app.build(&cluster, &RngFactory::new(seed.wrapping_add(i as u64)));
            stream.push(
                format!("{}#{i}", app.short()),
                spec,
                layout,
                SimTime::from_secs_f64(at),
            );
            // exponential gap by inverse CDF; 1 - u keeps the log finite
            let u: f64 = arrivals.gen_range(0.0..1.0);
            at += -self.gap_s * (1.0 - u).ln();
        }
        (cluster, stream.merge())
    }
}

/// One simulation and what was observed of it.
struct Iter {
    wall: Duration,
    report: RunReport,
    tally: EventTally,
    rec: Recorder,
    digest: Option<u64>,
    trace_counts: (u64, u64),
}

impl Iter {
    /// Counts that must repeat exactly for the same seed.
    fn counts(&self) -> [u64; 4] {
        [
            self.rec.offer_rounds,
            self.report.records.len() as u64,
            self.report.speculative_launched as u64,
            self.report.speculative_wins as u64,
        ]
    }

    fn jobs_unfinished(&self) -> u64 {
        self.report
            .jobs
            .iter()
            .filter(|j| j.completed_at.is_none())
            .count() as u64
    }
}

fn simulate(
    cluster: &ClusterSpec,
    stream: &MergedStream,
    seed: u64,
    make: MakeScheduler,
    traced_probe: bool,
    opts: &SimOptions,
) -> Iter {
    let config = SimConfig::default();
    let input = StreamInput {
        cluster,
        stream,
        config: &config,
        seed,
    };
    let mut probe = Probe::new(make(), traced_probe);
    let (counter, tally) = EventCounter::new(stream.jobs.len());
    let start = Instant::now();
    let (report, obs) =
        simulate_stream_observed_with(&input, &mut probe, opts, vec![Box::new(counter)]);
    let wall = start.elapsed();
    let rec = std::mem::take(&mut probe.rec);
    let trace = obs.trace.as_ref();
    Iter {
        wall,
        report,
        tally: tally.take(),
        rec,
        digest: trace.map(|t| t.digest()),
        trace_counts: trace.map_or((0, 0), |t| (t.recorded(), t.dropped())),
    }
}

/// Fail unless the stream completed with every job finished.
fn check_complete(it: &Iter) -> Result<(), Failure> {
    let unfinished = it.jobs_unfinished();
    if it.report.completed && unfinished == 0 {
        return Ok(());
    }
    Err(Failure {
        attempted: it.report.jobs.len() as u64,
        failed: unfinished.max(1),
        reason: format!(
            "simulation did not complete: completed={} with {unfinished} of {} jobs unfinished",
            it.report.completed,
            it.report.jobs.len()
        ),
    })
}

fn check_same_counts(first: &Iter, it: &Iter, what: &str) -> Result<(), Failure> {
    if first.counts() == it.counts() {
        return Ok(());
    }
    Err(Failure {
        attempted: it.report.jobs.len() as u64,
        failed: 0,
        reason: format!(
            "{what}: deterministic counts [offer rounds, attempts, speculative launches, wins] \
             changed between runs of one seed: {:?} vs {:?}",
            first.counts(),
            it.counts()
        ),
    })
}

fn check_same_events(first: &Iter, it: &Iter) -> Result<(), Failure> {
    if first.tally.events == it.tally.events {
        return Ok(());
    }
    Err(Failure {
        attempted: it.report.jobs.len() as u64,
        failed: 0,
        reason: format!(
            "engine event count changed between runs of one seed: {} vs {}",
            first.tally.events, it.tally.events
        ),
    })
}

/// Untraced run: end-to-end metrics from the stream of `seed`,
/// simulated again and again for about `seconds`. Every repeat must give
/// the same deterministic counts; the reported wall time is their median.
pub fn run(
    shape: &SimShape,
    seed: u64,
    seconds: f64,
    make: MakeScheduler,
) -> Result<Outcome, Failure> {
    let seed = iteration_seed(seed, 0);
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let b = std::hint::black_box(shape.build(seed));
        setup.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (cluster, stream) = built.expect("at least one set-up sample");

    let budget = Budget::start(seconds);
    let mut first: Option<Iter> = None;
    let mut walls = Vec::new();
    let mut peak_rss = 0.0;
    while budget.another(walls.len()) {
        let it = simulate(&cluster, &stream, seed, make, false, &SimOptions::default());
        check_complete(&it)?;
        walls.push(it.wall.as_secs_f64());
        match &first {
            Some(f) => {
                check_same_counts(f, &it, "repeat")?;
                check_same_events(f, &it)?;
            }
            None => {
                // repeats only add allocator fragmentation a user
                // simulating the stream once never sees
                peak_rss = crate::stats::peak_rss_mib();
                first = Some(it);
            }
        }
    }
    let first = first.expect("a run makes at least one simulation");
    let n = walls.len();
    let wall = median(&walls);
    let successes = first
        .report
        .records
        .iter()
        .filter(|r| r.outcome.is_success())
        .count();
    let jcts_ms: Vec<f64> = first
        .report
        .jobs
        .iter()
        .filter_map(|j| j.jct())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let mut v = Values::default();
    v.set("setup_s", median(&setup));
    v.set("wall_s", wall);
    v.set("peak_rss_mib", peak_rss);
    v.set("tasks_per_s", successes as f64 / wall);
    v.set(
        "sim_jct_mean_s",
        jcts_ms.iter().sum::<f64>() / jcts_ms.len() as f64 / 1e3,
    );
    v.set("sim_makespan_s", first.report.makespan.as_secs_f64());
    let mut notes = vec![format!(
        "{n} simulations of one {}-job stream on {} nodes; wall_s is their median, setup_s the \
         median of {SETUP_SAMPLES} builds",
        shape.jobs,
        cluster.len()
    )];
    notes.push(latency_metrics(
        &mut v,
        &jcts_ms,
        "simulated job completion times",
    ));
    notes.push(format!("per simulation: wall_s {walls:.3?}"));
    Ok(Outcome {
        attempted: (n * shape.jobs) as u64,
        failed: 0,
        values: v,
        notes,
    })
}

/// Traced run: per-layer metrics from spans around every scheduler
/// callback, the decision-trace price, and the determinism checks.
pub fn run_traced(
    shape: &SimShape,
    seed: u64,
    make: MakeScheduler,
    log: &mut SpanLog,
) -> Result<Outcome, Failure> {
    // the stream the untraced run simulates
    let seed = iteration_seed(seed, 0);
    let t = Instant::now();
    let (cluster, stream) = shape.build(seed);
    let built = Instant::now();
    log.record("setup.stream_build", t, built, None, None);
    let jobs = stream.jobs.len() as u64;

    let plain = simulate(&cluster, &stream, seed, make, false, &SimOptions::default());
    check_complete(&plain)?;

    let run_start = Instant::now();
    let spanned = simulate(&cluster, &stream, seed, make, true, &SimOptions::default());
    check_complete(&spanned)?;
    check_same_counts(&plain, &spanned, "traced probe")?;
    check_same_events(&plain, &spanned)?;
    let run = log.record("exec.run", run_start, run_start + spanned.wall, None, None);
    log.adopt(&spanned.rec.spans, run);
    for (j, (s, c)) in spanned
        .tally
        .submitted_at
        .iter()
        .zip(&spanned.tally.completed_at)
        .enumerate()
    {
        if let (Some(s), Some(c)) = (s, c) {
            log.record("job", *s, *c, Some(run), Some(j));
        }
    }

    // decision-trace determinism: two digest-only runs, then a full
    // trace whose digest must agree with them
    let digest_only = SimOptions {
        trace_capacity: Some(0),
        audit: None,
    };
    let d1 = simulate(&cluster, &stream, seed, make, false, &digest_only);
    let d2 = simulate(&cluster, &stream, seed, make, false, &digest_only);
    let traced = simulate(&cluster, &stream, seed, make, false, &SimOptions::traced());
    for (it, what) in [
        (&d1, "digest run 1"),
        (&d2, "digest run 2"),
        (&traced, "traced run"),
    ] {
        check_complete(it)?;
        check_same_counts(&plain, it, what)?;
    }
    if d1.digest != d2.digest || d1.digest != traced.digest {
        return Err(Failure {
            attempted: jobs,
            failed: 0,
            reason: format!(
                "decision-trace digests differ for one seed: {:?} {:?} {:?}",
                d1.digest, d2.digest, traced.digest
            ),
        });
    }

    let mut v = Values::default();
    let r = &spanned.rec;
    let wall = spanned.wall.as_secs_f64();
    let core = log.child_total(run, "core.").as_secs_f64();
    let exec_self = wall - core;
    let rounds = r.offer_rounds.max(1) as f64;
    let offer_us: Vec<f64> = r.offer_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    layer_core(&mut v, r, &offer_us, wall);
    v.set("exec.self_s", exec_self);
    v.set("exec.share", exec_self / wall);
    v.set("exec.events", spanned.tally.events as f64);
    v.set(
        "exec.self_ns_per_event",
        exec_self * 1e9 / spanned.tally.events.max(1) as f64,
    );
    v.set(
        "exec.snapshot_rows_mean",
        r.snapshot_rows_sum as f64 / rounds,
    );
    let rep = &spanned.report;
    v.set("exec.attempts", rep.records.len() as f64);
    let issued = (r.cmd_launch + r.cmd_spec_launch).max(1) as f64;
    v.set(
        "exec.launch_accept_ratio",
        spanned.tally.launches as f64 / issued,
    );
    v.set(
        "exec.spec_win_ratio",
        rep.speculative_wins as f64 / rep.speculative_launched.max(1) as f64,
    );
    v.set("exec.oom_failures", rep.oom_failures as f64);
    v.set("exec.executor_losses", rep.executor_losses as f64);
    v.set("setup.stream_build_s", (built - t).as_secs_f64());
    let plain_wall = plain.wall.as_secs_f64();
    v.set(
        "metrics.decision_trace_ratio",
        traced.wall.as_secs_f64() / plain_wall,
    );
    v.set("metrics.trace_recorded", traced.trace_counts.0 as f64);
    v.set("metrics.trace_dropped", traced.trace_counts.1 as f64);
    v.set("bench.tracing_overhead_ratio", wall / plain_wall);
    v.set("bench.spans", log.spans.len() as f64);
    let mut notes = vec![
        format!(
            "traced: core {core:.3} s + exec self {exec_self:.3} s = simulate {wall:.3} s; \
             untraced {plain_wall:.3} s, so the probe's own overhead is {:.3} s",
            wall - plain_wall
        ),
        format!(
            "digest {:#018x} reproduced by two digest-only runs and a full trace",
            d1.digest.unwrap_or(0)
        ),
    ];
    let jcts_ms: Vec<f64> = plain
        .report
        .jobs
        .iter()
        .filter_map(|j| j.jct())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    notes.push(latency_metrics(
        &mut v,
        &jcts_ms,
        "simulated job completion times",
    ));
    Ok(Outcome {
        attempted: 5 * jobs,
        failed: 0,
        values: v,
        notes,
    })
}
