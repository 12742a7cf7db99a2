//! Observation from outside the program: a pass-through [`Scheduler`]
//! wrapper that counts (and, when traced, times) every callback, and a
//! statistics-stage bus [`Subscriber`] that counts engine events.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_dag::app::{Application, JobId, Stage, StageId};
use rupam_dag::{MergedStream, TaskRef};
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_exec::{BusStage, EngineEvent, EventCtx, Subscriber};
use rupam_metrics::record::{AttemptOutcome, TaskRecord};
use rupam_simcore::time::{SimDuration, SimTime};
use rupam_simcore::units::ByteSize;

use crate::spans::RawSpan;

/// What the probe saw of the scheduler. Counters are always kept; the
/// per-call timers and spans only when the probe was built traced.
#[derive(Default)]
pub struct Recorder {
    traced: bool,
    /// `offer_round` calls.
    pub offer_rounds: u64,
    /// Σ pending tasks over offer rounds.
    pub pending_sum: u64,
    /// Σ changed nodes over offer rounds (an unknown delta counts every node).
    pub changed_sum: u64,
    /// Σ speculatable tasks over offer rounds.
    pub speculatable_sum: u64,
    /// Σ (nodes + pending + speculatable) rows of each offer snapshot.
    pub snapshot_rows_sum: u64,
    /// Offer rounds with nothing pending.
    pub empty_pending_rounds: u64,
    /// Regular launch commands returned.
    pub cmd_launch: u64,
    /// Speculative launch commands returned.
    pub cmd_spec_launch: u64,
    /// Kill-and-requeue commands returned.
    pub cmd_kill: u64,
    /// `on_task_finished` calls.
    pub task_finished_calls: u64,
    /// Per-call `offer_round` time, ns (traced only).
    pub offer_ns: Vec<u64>,
    /// Total `on_task_finished` time, ns (traced only).
    pub task_finished_ns: u64,
    /// Total time in every other callback, ns (traced only).
    pub other_ns: u64,
    /// One span per callback (traced only).
    pub spans: Vec<RawSpan>,
    /// Tasks each job still has to finish (only when jobs are tracked).
    job_remaining: Vec<usize>,
    finished: HashSet<TaskRef>,
    /// When each tracked job's last task finished.
    pub job_done_at: Vec<Option<Instant>>,
}

impl Recorder {
    /// Total `offer_round` time, ns.
    pub fn offer_total_ns(&self) -> u64 {
        self.offer_ns.iter().sum()
    }

    /// Total time inside the scheduler, ns.
    pub fn core_total_ns(&self) -> u64 {
        self.offer_total_ns() + self.task_finished_ns + self.other_ns
    }

    /// Count a finished task against its job; the clock is read only
    /// when the job's last task finishes.
    fn note_finished(&mut self, record: &TaskRecord) {
        let j = record.job.index();
        if j >= self.job_remaining.len() || !self.finished.insert(record.task) {
            return;
        }
        self.job_remaining[j] -= 1;
        if self.job_remaining[j] == 0 {
            self.job_done_at[j] = Some(Instant::now());
        }
    }
}

/// Slot a probe moves its [`Recorder`] into when it is dropped, so a
/// scheduler handed to another thread (the serve driver) can still report.
pub type RecorderSlot = Arc<Mutex<Option<Recorder>>>;

/// A pass-through scheduler wrapper.
pub struct Probe {
    inner: Box<dyn Scheduler + Send>,
    /// What has been observed so far.
    pub rec: Recorder,
    slot: Option<RecorderSlot>,
}

impl Probe {
    /// Wrap `inner`; `traced` turns on per-call timers and spans.
    pub fn new(inner: Box<dyn Scheduler + Send>, traced: bool) -> Self {
        Probe {
            inner,
            rec: Recorder {
                traced,
                ..Recorder::default()
            },
            slot: None,
        }
    }

    /// Record the instant each job of `catalog` finishes its last task.
    pub fn track_jobs(mut self, catalog: &MergedStream) -> Self {
        let mut remaining = vec![0; catalog.jobs.len()];
        for stage in &catalog.app.stages {
            remaining[catalog.stream_job(stage.id).index()] += stage.num_tasks();
        }
        self.rec.job_done_at = vec![None; remaining.len()];
        self.rec.job_remaining = remaining;
        self
    }

    /// Hand the recorder to `slot` when the probe is dropped.
    pub fn report_to(mut self, slot: RecorderSlot) -> Self {
        self.slot = Some(slot);
        self
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut dyn Scheduler) -> R,
    ) -> (R, u64) {
        if !self.rec.traced {
            return (f(self.inner.as_mut()), 0);
        }
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = Instant::now();
        self.rec.spans.push(RawSpan {
            name,
            start,
            end,
            job,
        });
        (out, end.duration_since(start).as_nanos() as u64)
    }

    fn other<R>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut dyn Scheduler) -> R,
    ) -> R {
        let (out, ns) = self.timed(name, job, f);
        self.rec.other_ns += ns;
        out
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            if let Ok(mut guard) = slot.lock() {
                *guard = Some(std::mem::take(&mut self.rec));
            }
        }
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        self.inner.executor_memory(cluster, node)
    }

    fn decision_cost(&self) -> SimDuration {
        self.inner.decision_cost()
    }

    fn on_app_start(&mut self, app: &Application, cluster: &ClusterSpec) {
        self.other("core.app_start", None, |s| s.on_app_start(app, cluster))
    }

    fn on_job_submitted(&mut self, job: JobId, stages: &[StageId], now: SimTime) {
        self.other("core.job_submitted", Some(job.index()), |s| {
            s.on_job_submitted(job, stages, now)
        })
    }

    fn on_stage_ready(&mut self, stage: &Stage, now: SimTime) {
        self.other("core.stage_ready", None, |s| s.on_stage_ready(stage, now))
    }

    fn on_task_finished(&mut self, record: &TaskRecord, now: SimTime) {
        let (_, ns) = self.timed("core.task_finished", Some(record.job.index()), |s| {
            s.on_task_finished(record, now)
        });
        self.rec.task_finished_calls += 1;
        self.rec.task_finished_ns += ns;
        self.rec.note_finished(record);
    }

    fn on_task_failed(
        &mut self,
        task: TaskRef,
        node: NodeId,
        outcome: AttemptOutcome,
        now: SimTime,
    ) {
        self.other("core.task_failed", None, |s| {
            s.on_task_failed(task, node, outcome, now)
        })
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let (commands, ns) = self.timed("core.offer_round", None, |s| s.offer_round(input));
        let r = &mut self.rec;
        r.offer_rounds += 1;
        r.pending_sum += input.pending.len() as u64;
        r.changed_sum += input.changed.as_ref().map_or(input.nodes.len(), Vec::len) as u64;
        r.speculatable_sum += input.speculatable.len() as u64;
        r.snapshot_rows_sum +=
            (input.nodes.len() + input.pending.len() + input.speculatable.len()) as u64;
        r.empty_pending_rounds += u64::from(input.pending.is_empty());
        for c in &commands {
            match c {
                Command::Launch {
                    speculative: false, ..
                } => r.cmd_launch += 1,
                Command::Launch { .. } => r.cmd_spec_launch += 1,
                Command::KillAndRequeue { .. } => r.cmd_kill += 1,
            }
        }
        if r.traced {
            r.offer_ns.push(ns);
        }
        commands
    }

    fn audit_round(&self, input: &OfferInput<'_>) -> Vec<String> {
        self.inner.audit_round(input)
    }

    fn on_heartbeat(&mut self, now: SimTime) {
        self.other("core.heartbeat", None, |s| s.on_heartbeat(now))
    }
}

/// Engine events as the statistics-stage subscriber counted them.
#[derive(Default)]
pub struct EventTally {
    /// Every event published on the bus.
    pub events: u64,
    /// `Launch` events (launch commands the engine accepted).
    pub launches: u64,
    /// Wall instant each stream job was submitted to the scheduler.
    pub submitted_at: Vec<Option<Instant>>,
    /// Wall instant each stream job completed.
    pub completed_at: Vec<Option<Instant>>,
}

/// Counts engine events; shares its tally with the benchmark.
pub struct EventCounter(pub Rc<RefCell<EventTally>>);

impl EventCounter {
    /// A counter for a stream of `jobs` jobs, plus the shared tally.
    pub fn new(jobs: usize) -> (Self, Rc<RefCell<EventTally>>) {
        let tally = Rc::new(RefCell::new(EventTally {
            submitted_at: vec![None; jobs],
            completed_at: vec![None; jobs],
            ..EventTally::default()
        }));
        (EventCounter(Rc::clone(&tally)), tally)
    }
}

impl Subscriber for EventCounter {
    fn name(&self) -> &'static str {
        "perfbench-event-counter"
    }

    fn stage(&self) -> BusStage {
        BusStage::Statistics
    }

    fn on_event(&mut self, _ctx: &EventCtx, event: &EngineEvent) {
        let mut t = self.0.borrow_mut();
        t.events += 1;
        match event {
            EngineEvent::Launch { .. } => t.launches += 1,
            EngineEvent::JobSubmitted { job, .. } => {
                t.submitted_at[job.index()] = Some(Instant::now())
            }
            EngineEvent::JobCompleted { job, .. } => {
                t.completed_at[job.index()] = Some(Instant::now())
            }
            _ => {}
        }
    }
}
