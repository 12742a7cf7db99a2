//! The live-service workloads: `rupam-serve` on a small fleet, fed a
//! catalog of tiny single-stage jobs by one client thread.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::Rng;
use rupam_cluster::ClusterSpec;
use rupam_dag::app::JobId;
use rupam_dag::MergedStream;
use rupam_faults::FaultScript;
use rupam_serve::testbed::{build_fleet, pressure_stream_sized};
use rupam_serve::{replay, server, ServeConfig, ServeReport};
use rupam_simcore::rng::RngFactory;
use rupam_simcore::units::ByteSize;

use crate::probe::{Probe, Recorder};
use crate::report::{Failure, Outcome, Values};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::{iteration_seed, latency_metrics, layer_core, Budget, MakeScheduler, SETUP_SAMPLES};

/// Compute per task, gigacycles: about 1 ms of agent time at the
/// default time scale, so the driver, not the fleet, is the bottleneck.
const TASK_GIGACYCLES: f64 = 2.0;
/// Peak memory per task, small enough that memory never limits
/// concurrency.
const TASK_MIB: u64 = 256;
/// The fixed p99 job-latency limit of the open-loop workload, ms. On a
/// 2-vCPU x86-64 VM its per-iteration p99 read 4.2 to 4.7 ms while the
/// host was quiet.
const SLO_MS: f64 = 5.0;

/// A serve fleet and the load one client offers it.
#[derive(Clone, Debug)]
pub struct ServeShape {
    /// Worker agents (one thread each).
    pub workers: usize,
    /// Catalog jobs, each submitted once.
    pub jobs: usize,
    /// Tasks per job.
    pub tasks: usize,
    /// Mean gap of the open-loop Poisson submissions; `None` submits
    /// everything at once. Exponential gaps give every job a random phase
    /// against the driver's 2 ms offer coalescing, which a fixed period
    /// would lock, per run, to one arbitrary value.
    pub mean_gap: Option<Duration>,
    /// The driver aborts a run still going after this long.
    pub max_wall: Duration,
}

impl ServeShape {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            max_wall: Some(self.max_wall),
            ..ServeConfig::default()
        }
    }

    fn build(&self) -> (Arc<ClusterSpec>, Arc<MergedStream>) {
        let cluster = build_fleet(self.workers);
        let catalog = pressure_stream_sized(
            self.jobs,
            self.tasks,
            TASK_GIGACYCLES,
            ByteSize::mib(TASK_MIB),
        );
        (Arc::new(cluster), Arc::new(catalog))
    }
}

/// One serve run from start to drain, and what was observed of it.
struct Iter {
    t0: Instant,
    built: Instant,
    run_start: Instant,
    wall: Duration,
    report: ServeReport,
    rec: Recorder,
    /// Per job (catalog order): due → last task finished, ms.
    latency_ms: Vec<f64>,
    /// (job, submit call start, submit call end).
    submits: Vec<(usize, Instant, Instant)>,
    due: Vec<Instant>,
    /// How late the generator itself sent each job, ms.
    gen_late_ms: Vec<f64>,
    submit_block: Duration,
}

/// Run the load once. `replay_check` certifies the run by replaying its
/// input log, which costs about as much scheduler time again.
fn serve_once(
    shape: &ServeShape,
    seed: u64,
    make: MakeScheduler,
    traced: bool,
    replay_check: bool,
) -> Result<Iter, Failure> {
    let t0 = Instant::now();
    let (cluster, catalog) = shape.build();
    let built = Instant::now();
    let cfg = shape.config();
    let slot = Arc::new(Mutex::new(None));
    let probe = Probe::new(make(), traced)
        .track_jobs(&catalog)
        .report_to(Arc::clone(&slot));
    let handle = server::start(
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        Box::new(probe),
        cfg.clone(),
        &FaultScript::empty(),
    );

    let rngs = RngFactory::new(seed);
    let mut order: Vec<usize> = (0..shape.jobs).collect();
    order.shuffle(&mut rngs.stream("perfbench/serve-order"));
    let mut gaps = rngs.stream("perfbench/serve-arrivals");
    let mut offset = 0.0f64;
    let mut client = handle.client.clone();
    let mut submits = Vec::with_capacity(shape.jobs);
    let mut gen_late_ms = Vec::with_capacity(shape.jobs);
    let mut submit_block = Duration::ZERO;
    let run_start = Instant::now();
    let mut due = vec![run_start; shape.jobs];
    let mut free_at = run_start;
    for (k, &job) in order.iter().enumerate() {
        if let (Some(gap), true) = (shape.mean_gap, k > 0) {
            // exponential gap by inverse CDF; 1 - u keeps the log finite
            let u: f64 = gaps.gen_range(0.0..1.0);
            offset += -gap.as_secs_f64() * (1.0 - u).ln();
        }
        let due_k = run_start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if now < due_k {
            std::thread::sleep(due_k - now);
        }
        let send = Instant::now();
        // lateness the generator itself caused: time past the moment it
        // was free to send, not time the server blocked a previous submit
        gen_late_ms.push(
            send.saturating_duration_since(due_k.max(free_at))
                .as_secs_f64()
                * 1e3,
        );
        client.submit(JobId(job)).map_err(|e| Failure {
            attempted: k as u64 + 1,
            failed: k as u64 + 1,
            reason: format!("submit of job {job} failed: {e}"),
        })?;
        free_at = Instant::now();
        submit_block += free_at - send;
        submits.push((job, send, free_at));
        due[job] = due_k;
    }
    let submitted = shape.jobs as u64;
    let lost_client = |e| Failure {
        attempted: submitted,
        failed: submitted,
        reason: format!("serve run failed: {e}"),
    };
    client.drain().map_err(lost_client)?;
    drop(client);
    let outcome = handle.wait().map_err(lost_client)?;
    let wall = run_start.elapsed();
    let report = outcome.report;
    let rec = slot
        .lock()
        .expect("probe slot is written once, by a drop that cannot panic")
        .take()
        .expect("the serve driver drops the probe before it returns");

    let failed = submitted.saturating_sub(report.jobs_completed as u64);
    if !report.clean || report.lost_tasks != 0 || failed != 0 {
        return Err(Failure {
            attempted: submitted,
            failed: failed.max(1),
            reason: format!(
                "unclean drain: clean={} lost_tasks={} completed {} of {submitted} jobs",
                report.clean, report.lost_tasks, report.jobs_completed
            ),
        });
    }
    if replay_check {
        let mut oracle = make();
        let replayed =
            replay(&cluster, &catalog, oracle.as_mut(), &cfg, &outcome.log).map_err(|e| {
                Failure {
                    attempted: submitted,
                    failed: 0,
                    reason: format!("replay failed: {e}"),
                }
            })?;
        if replayed.digest != report.digest {
            return Err(Failure {
                attempted: submitted,
                failed: 0,
                reason: format!(
                    "replay digest {:#018x} differs from live digest {:#018x}",
                    replayed.digest, report.digest
                ),
            });
        }
    }
    let latency_ms = rec
        .job_done_at
        .iter()
        .zip(&due)
        .map(|(done, due)| {
            let done = done.expect("a clean drain finished every job's tasks");
            done.saturating_duration_since(*due).as_secs_f64() * 1e3
        })
        .collect();
    Ok(Iter {
        t0,
        built,
        run_start,
        wall,
        report,
        rec,
        latency_ms,
        submits,
        due,
        gen_late_ms,
        submit_block,
    })
}

/// Time one setup: fleet and catalog built and the server started. The
/// idle server is then drained outside the timing.
fn setup_sample(shape: &ServeShape, make: MakeScheduler) -> f64 {
    let t = Instant::now();
    let (cluster, catalog) = shape.build();
    let mut handle = server::start(
        cluster,
        catalog,
        make(),
        shape.config(),
        &FaultScript::empty(),
    );
    let s = t.elapsed().as_secs_f64();
    let _ = handle.client.drain();
    let _ = handle.wait();
    s
}

/// Submissions the open-loop generator owed on average: by Little's law,
/// the mean of its own lateness divided by the mean gap.
fn owed_mean(gap: Duration, gen_late_ms: &[f64]) -> f64 {
    let mean = gen_late_ms.iter().sum::<f64>() / gen_late_ms.len().max(1) as f64;
    mean / (gap.as_secs_f64() * 1e3)
}

/// Fail when the open-loop generator, rather than the server, fell
/// behind its schedule: when it owed half a submission or more on
/// average. A generator that holds its rate owes almost none. A single
/// stall of a few ms, which CPU steal on a shared host deals every
/// thread alike, does not make it fall behind: it shows in
/// `loadgen.late_max_ms` and `loadgen.late_p99_ms`, and job latency,
/// charged from the due instant, includes it.
fn check_generator(shape: &ServeShape, gen_late_ms: &[f64]) -> Result<(), Failure> {
    let Some(gap) = shape.mean_gap else {
        return Ok(());
    };
    let owed = owed_mean(gap, gen_late_ms);
    if owed < 0.5 {
        return Ok(());
    }
    Err(Failure {
        attempted: shape.jobs as u64,
        failed: 0,
        reason: format!(
            "invalid open-loop run: the load generator owed {owed:.3} submissions on average \
             (its own lateness p99 {:.3} ms against a {:.3} ms mean gap)",
            percentile(gen_late_ms, 99.0),
            gap.as_secs_f64() * 1e3
        ),
    })
}

/// Untraced run: end-to-end metrics over iterations that fill about
/// `seconds`.
pub fn run(
    shape: &ServeShape,
    seed: u64,
    seconds: f64,
    make: MakeScheduler,
) -> Result<Outcome, Failure> {
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_sample(shape, make))
        .collect();
    let budget = Budget::start(seconds);
    let mut iters = Vec::new();
    let mut peak_rss = 0.0;
    while budget.another(iters.len()) {
        let i = iters.len();
        // the first run is certified by replay; the rest are checked for
        // a clean drain only, which keeps a run near --seconds
        let it = serve_once(shape, iteration_seed(seed, i), make, false, i == 0)?;
        check_generator(shape, &it.gen_late_ms)?;
        if i == 0 {
            // later runs only add allocator fragmentation a user running
            // the load once never sees
            peak_rss = crate::stats::peak_rss_mib();
        }
        iters.push(it);
    }
    let n = iters.len();
    let scale = shape.config().time_scale;
    let walls: Vec<f64> = iters.iter().map(|it| it.wall.as_secs_f64()).collect();
    let tps: Vec<f64> = iters
        .iter()
        .map(|it| it.report.completed as f64 / it.wall.as_secs_f64())
        .collect();
    let makespans: Vec<f64> = iters
        .iter()
        .map(|it| it.report.makespan.as_secs_f64() / scale)
        .collect();
    let mut v = Values::default();
    v.set("setup_s", median(&setup));
    v.set("wall_s", median(&walls));
    v.set("peak_rss_mib", peak_rss);
    v.set("tasks_per_s", median(&tps));
    let jct_means: Vec<f64> = iters
        .iter()
        .map(|it| it.latency_ms.iter().sum::<f64>() / it.latency_ms.len() as f64 / 1e3 / scale)
        .collect();
    v.set("sim_jct_mean_s", median(&jct_means));
    v.set("sim_makespan_s", median(&makespans));
    let mut notes = vec![format!(
        "{n} serve runs of {} jobs x {} tasks on {} workers ({}); wall_s is their median, \
         setup_s the median of {SETUP_SAMPLES} starts",
        shape.jobs,
        shape.tasks,
        shape.workers,
        shape
            .mean_gap
            .map_or("all submitted at once".to_string(), |g| format!(
                "open-loop Poisson submissions, mean gap {g:?}"
            ))
    )];
    // percentiles per run, then the median run: one slow run moves a
    // pooled tail far more than it moves the typical run's tail
    let tail = crate::stats::tail_percentile(shape.jobs, 99.0, 10).unwrap_or(50.0);
    let p50s: Vec<f64> = iters
        .iter()
        .map(|it| percentile(&it.latency_ms, 50.0))
        .collect();
    let tails: Vec<f64> = iters
        .iter()
        .map(|it| percentile(&it.latency_ms, tail))
        .collect();
    v.set("job_latency_p50_ms", median(&p50s));
    v.set("e2e.job_latency_p99_ms", median(&tails));
    v.set("e2e.latency_samples", shape.jobs as f64);
    v.set("e2e.latency_tail_pct", tail);
    notes.push(format!(
        "job latency: wall-clock due→last on_task_finished, {} jobs per run; p50 and p{tail} \
         taken per run, then the median over {n} runs: p50 {:.3} ms, p{tail} {:.3} ms",
        shape.jobs,
        median(&p50s),
        median(&tails)
    ));
    notes.push(load_notes(shape, &iters));
    notes.push(format!(
        "per run: wall_s {walls:.3?}, p50 {p50s:.3?} ms, p{tail} {tails:.3?} ms, offer rounds {:?}, max pending {:?}",
        iters.iter().map(|it| it.report.offer_rounds).collect::<Vec<_>>(),
        iters.iter().map(|it| it.report.max_pending).collect::<Vec<_>>()
    ));
    Ok(Outcome {
        attempted: (n * shape.jobs) as u64,
        failed: 0,
        values: v,
        notes,
    })
}

fn slo_miss_frac(iters: &[Iter]) -> f64 {
    let (miss, all) = iters.iter().fold((0, 0), |(m, a), it| {
        let over = it.latency_ms.iter().filter(|&&l| l > SLO_MS).count();
        (m + over, a + it.latency_ms.len())
    });
    miss as f64 / all.max(1) as f64
}

/// The open-loop figures: latency-limit misses and generator lateness.
fn load_notes(shape: &ServeShape, iters: &[Iter]) -> String {
    let blocked: f64 = iters.iter().map(|it| it.submit_block.as_secs_f64()).sum();
    if shape.mean_gap.is_none() {
        return format!("submit blocked {blocked:.3} s");
    }
    let late: Vec<f64> = iters
        .iter()
        .flat_map(|it| it.gen_late_ms.iter().copied())
        .collect();
    format!(
        "slo: {:.4} of jobs over {SLO_MS} ms; generator late max {:.3} ms, p99 {:.3} ms, \
         owed {:.4} submissions on average; submit blocked {blocked:.3} s",
        slo_miss_frac(iters),
        late.iter().copied().fold(0.0, f64::max),
        percentile(&late, 99.0),
        shape.mean_gap.map_or(0.0, |gap| owed_mean(gap, &late)),
    )
}

/// Traced run: per-layer metrics from spans around every scheduler
/// callback and every client call, against an untraced baseline.
pub fn run_traced(
    shape: &ServeShape,
    seed: u64,
    make: MakeScheduler,
    log: &mut SpanLog,
) -> Result<Outcome, Failure> {
    let seed = iteration_seed(seed, 0);
    let plain = serve_once(shape, seed, make, false, true)?;
    check_generator(shape, &plain.gen_late_ms)?;
    let it = serve_once(shape, seed, make, true, true)?;
    check_generator(shape, &it.gen_late_ms)?;

    log.record("setup.stream_build", it.t0, it.built, None, None);
    log.record("setup.server_start", it.built, it.run_start, None, None);
    let run = log.record(
        "serve.run",
        it.run_start,
        it.run_start + it.wall,
        None,
        None,
    );
    let core_spans: Vec<_> = it
        .rec
        .spans
        .iter()
        .filter(|s| s.start >= it.run_start)
        .copied()
        .collect();
    log.adopt(&core_spans, run);
    for &(job, s, e) in &it.submits {
        log.record("client.submit", s, e, Some(run), Some(job));
    }
    for (job, (due, done)) in it.due.iter().zip(&it.rec.job_done_at).enumerate() {
        if let Some(done) = done {
            log.record("job", *due, *done, Some(run), Some(job));
        }
    }

    let mut v = Values::default();
    let wall = it.wall.as_secs_f64();
    let core = log.child_total(run, "core.").as_secs_f64();
    let r = &it.rec;
    let offer_us: Vec<f64> = r.offer_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    layer_core(&mut v, r, &offer_us, wall);
    let rep = &it.report;
    v.set("serve.dispatch_p50_us", rep.dispatch_p50_us as f64);
    v.set("serve.dispatch_p99_us", rep.dispatch_p99_us as f64);
    v.set("serve.driver_offer_p50_us", rep.offer_p50_us as f64);
    v.set("serve.driver_offer_p95_us", rep.offer_p95_us as f64);
    v.set("serve.offer_rounds", rep.offer_rounds as f64);
    v.set("serve.max_pending", rep.max_pending as f64);
    v.set("serve.non_sched_s", wall - core);
    let drops = rep.stale_launch_drops
        + rep.dead_launch_drops
        + rep.autoscale_launch_drops
        + rep.preempt_launch_drops;
    v.set(
        "serve.launch_drop_ratio",
        drops as f64 / (r.cmd_launch + r.cmd_spec_launch).max(1) as f64,
    );
    v.set("serve.failed_attempts", rep.failed as f64);
    v.set("serve.submit_block_s", it.submit_block.as_secs_f64());
    if shape.mean_gap.is_some() {
        v.set(
            "serve.slo_miss_frac",
            slo_miss_frac(std::slice::from_ref(&plain)),
        );
        v.set(
            "loadgen.late_max_ms",
            plain.gen_late_ms.iter().copied().fold(0.0, f64::max),
        );
        v.set("loadgen.late_p99_ms", percentile(&plain.gen_late_ms, 99.0));
    }
    v.set("setup.stream_build_s", (it.built - it.t0).as_secs_f64());
    v.set(
        "setup.server_start_s",
        (it.run_start - it.built).as_secs_f64(),
    );
    v.set("metrics.trace_recorded", rep.events_recorded as f64);
    v.set(
        "bench.tracing_overhead_ratio",
        wall / plain.wall.as_secs_f64(),
    );
    v.set("bench.spans", log.spans.len() as f64);
    let mut notes = vec![format!(
        "traced: core {core:.3} s + non-scheduler {:.3} s = run {wall:.3} s; untraced {:.3} s, \
         so the probe's own overhead is {:.3} s",
        wall - core,
        plain.wall.as_secs_f64(),
        wall - plain.wall.as_secs_f64()
    )];
    notes.push(latency_metrics(
        &mut v,
        &plain.latency_ms,
        "untraced baseline run",
    ));
    notes.push(load_notes(shape, std::slice::from_ref(&plain)));
    Ok(Outcome {
        attempted: 2 * shape.jobs as u64,
        failed: 0,
        values: v,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paced() -> ServeShape {
        ServeShape {
            workers: 1,
            jobs: 1000,
            tasks: 1,
            mean_gap: Some(Duration::from_millis(2)),
            max_wall: Duration::from_secs(1),
        }
    }

    #[test]
    fn a_punctual_generator_with_a_few_long_stalls_keeps_its_rate() {
        let mut late = vec![0.07; 1000];
        late[..20].fill(20.0);
        assert!(percentile(&late, 99.0) > 2.0);
        check_generator(&paced(), &late)
            .expect("20 stalls of 20 ms owe about a quarter of a submission");
    }

    #[test]
    fn a_generator_late_by_a_gap_on_every_send_falls_behind() {
        let failure = check_generator(&paced(), &[2.0; 1000]).expect_err("owes one submission");
        assert!(
            failure.reason.contains("invalid open-loop run"),
            "{}",
            failure.reason
        );
        assert_eq!(failure.failed, 0);
    }
}
