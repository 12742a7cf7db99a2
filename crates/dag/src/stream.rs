//! Multi-tenant job streams.
//!
//! The paper evaluates RUPAM on a shared cluster that serves many
//! applications, and `DB_task_char` is keyed so that *later* runs of a
//! job reuse the characterizations banked by earlier ones (Table I,
//! §III-B). A [`JobStream`] models that setting: a sequence of
//! applications submitted to one cluster at seeded arrival offsets,
//! scheduled by one long-lived scheduler.
//!
//! The engine consumes a [`MergedStream`]: all entries merged into a
//! single [`Application`] with globally renumbered stage/job/block ids
//! (so `TaskRef`s stay unique across tenants) plus per-entry metadata —
//! arrival time, display name, and which merged app-jobs belong to which
//! stream job. Stage `template_key`s are deliberately *not* renamed:
//! two tenants running the same workload share characterization keys,
//! which is exactly the cross-job reuse under study.

use rupam_simcore::define_id;
use rupam_simcore::time::SimTime;

use crate::app::{Application, Job, JobId, Stage, StageId};
use crate::data::{BlockId, DataLayout};
use crate::task::InputSource;

define_id!(
    /// Index of a tenant sharing the cluster. Several stream jobs may
    /// belong to one tenant (its submission queue); allocation policies
    /// arbitrate *between* tenants, never between a tenant's own jobs.
    TenantId,
    "tenant"
);

/// One entry of a [`JobStream`]: an application submitted at `arrival`
/// on behalf of `tenant`.
#[derive(Clone, Debug)]
pub struct StreamEntry {
    /// Display name (`"TeraSort#2"`).
    pub name: String,
    /// The application to run.
    pub app: Application,
    /// Its HDFS block placement.
    pub layout: DataLayout,
    /// Submission instant relative to the start of the run.
    pub arrival: SimTime,
    /// Owning tenant. [`JobStream::push`] assigns each entry its own
    /// tenant (the historical one-job-one-tenant reading); use
    /// [`JobStream::push_as`] to submit several jobs under one tenant.
    pub tenant: TenantId,
}

/// A stream of applications arriving at one shared cluster.
#[derive(Clone, Debug, Default)]
pub struct JobStream {
    entries: Vec<StreamEntry>,
}

impl JobStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry. Arrivals must be non-decreasing (stream jobs are
    /// numbered in submission order).
    ///
    /// # Panics
    /// Panics if `arrival` precedes the previous entry's arrival.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        app: Application,
        layout: DataLayout,
        arrival: SimTime,
    ) {
        let tenant = TenantId(self.entries.len());
        self.push_as(name, app, layout, arrival, tenant);
    }

    /// Append an entry on behalf of an explicit tenant. Arrivals must be
    /// non-decreasing; tenant ids may repeat (one tenant, many jobs) and
    /// need not be contiguous, but the merge renumbers nothing — callers
    /// should keep them dense so per-tenant tables stay small.
    ///
    /// # Panics
    /// Panics if `arrival` precedes the previous entry's arrival.
    pub fn push_as(
        &mut self,
        name: impl Into<String>,
        app: Application,
        layout: DataLayout,
        arrival: SimTime,
        tenant: TenantId,
    ) {
        if let Some(last) = self.entries.last() {
            assert!(
                arrival >= last.arrival,
                "stream arrivals must be non-decreasing ({arrival} < {})",
                last.arrival
            );
        }
        self.entries.push(StreamEntry {
            name: name.into(),
            app,
            layout,
            arrival,
            tenant,
        });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the stream has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge every entry into one engine-consumable bundle.
    ///
    /// # Panics
    /// Panics if the stream is empty.
    pub fn merge(self) -> MergedStream {
        assert!(!self.entries.is_empty(), "cannot merge an empty stream");
        let name = self
            .entries
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        let mut app = Application {
            name,
            jobs: Vec::new(),
            stages: Vec::new(),
        };
        let mut layout = DataLayout::new();
        let mut jobs = Vec::with_capacity(self.entries.len());
        let mut stage_jobs = Vec::new();
        for (idx, entry) in self.entries.into_iter().enumerate() {
            let stream_job = JobId(idx);
            let stage_off = app.stages.len();
            let job_off = app.jobs.len();
            let block_off = layout.absorb(entry.layout);
            for s in entry.app.stages {
                app.stages
                    .push(remap_stage(s, stage_off, job_off, block_off));
                stage_jobs.push(stream_job);
            }
            let first_app_job = app.jobs.len();
            for j in entry.app.jobs {
                app.jobs.push(Job {
                    id: JobId(job_off + j.id.index()),
                    stages: j
                        .stages
                        .into_iter()
                        .map(|s| StageId(s.index() + stage_off))
                        .collect(),
                });
            }
            jobs.push(StreamJobMeta {
                id: stream_job,
                name: entry.name,
                arrival: entry.arrival,
                app_jobs: first_app_job..app.jobs.len(),
                tenant: entry.tenant,
            });
        }
        MergedStream {
            app,
            layout,
            jobs,
            stage_jobs,
        }
    }
}

fn remap_stage(mut s: Stage, stage_off: usize, job_off: usize, block_off: usize) -> Stage {
    s.id = StageId(s.id.index() + stage_off);
    s.job = JobId(s.job.index() + job_off);
    for p in &mut s.parents {
        *p = StageId(p.index() + stage_off);
    }
    for t in &mut s.tasks {
        match &mut t.input {
            InputSource::Hdfs(b) => *b = BlockId(b.index() + block_off),
            InputSource::CachedOrHdfs { fallback, .. } => {
                *fallback = BlockId(fallback.index() + block_off);
            }
            InputSource::Shuffle | InputSource::Generated => {}
        }
    }
    s
}

/// Per-entry metadata surviving the merge.
#[derive(Clone, Debug)]
pub struct StreamJobMeta {
    /// Stream job id (entry index in submission order).
    pub id: JobId,
    /// Display name.
    pub name: String,
    /// Submission instant.
    pub arrival: SimTime,
    /// The merged application's job indices belonging to this entry.
    /// Those app-jobs still run sequentially *within* the entry; entries
    /// run concurrently once arrived.
    pub app_jobs: std::ops::Range<usize>,
    /// Owning tenant.
    pub tenant: TenantId,
}

/// A [`JobStream`] flattened for the engine: one merged application and
/// layout, plus which stream job each stage belongs to.
#[derive(Clone, Debug)]
pub struct MergedStream {
    /// All entries' stages and jobs, globally renumbered.
    pub app: Application,
    /// All entries' blocks, globally renumbered.
    pub layout: DataLayout,
    /// Per-entry metadata, indexed by stream [`JobId`].
    pub jobs: Vec<StreamJobMeta>,
    /// Stream job of each stage, indexed by [`StageId`].
    pub stage_jobs: Vec<JobId>,
}

impl MergedStream {
    /// The stream job owning `stage`.
    pub fn stream_job(&self, stage: StageId) -> JobId {
        self.stage_jobs[stage.index()]
    }

    /// The tenant owning stream job `job`.
    pub fn tenant_of(&self, job: JobId) -> TenantId {
        self.jobs[job.index()].tenant
    }

    /// Tenant of each stream job, indexed by [`JobId`] — the table
    /// offer-input builders hand to schedulers.
    pub fn job_tenants(&self) -> Vec<TenantId> {
        self.jobs.iter().map(|j| j.tenant).collect()
    }

    /// Number of distinct tenants (`max id + 1`; dense ids assumed).
    pub fn tenant_count(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.tenant.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, StageKind};
    use crate::task::{CacheKey, TaskDemand, TaskTemplate};
    use rupam_cluster::ClusterSpec;
    use rupam_simcore::units::ByteSize;
    use rupam_simcore::RngFactory;

    fn entry(cluster: &ClusterSpec, seed: u64) -> (Application, DataLayout) {
        let mut layout = DataLayout::new();
        let mut rng = RngFactory::new(seed).stream("place");
        let blocks = layout.place_blocks(cluster, &[ByteSize::mib(128); 2], 2, &mut rng);
        let mut b = AppBuilder::new("t");
        let j = b.begin_job();
        let maps = blocks
            .iter()
            .enumerate()
            .map(|(i, &bl)| TaskTemplate {
                index: i,
                input: InputSource::CachedOrHdfs {
                    key: CacheKey::new("t/data", i),
                    fallback: bl,
                },
                demand: TaskDemand::default(),
            })
            .collect();
        let m = b.add_stage(j, "m", "t/m", StageKind::ShuffleMap, vec![], maps);
        b.add_stage(
            j,
            "r",
            "t/r",
            StageKind::Result,
            vec![m],
            vec![TaskTemplate {
                index: 0,
                input: InputSource::Shuffle,
                demand: TaskDemand::default(),
            }],
        );
        (b.build(), layout)
    }

    fn two_entry_stream() -> MergedStream {
        let cluster = ClusterSpec::hydra();
        let mut stream = JobStream::new();
        let (a1, l1) = entry(&cluster, 1);
        let (a2, l2) = entry(&cluster, 2);
        stream.push("one", a1, l1, SimTime::ZERO);
        stream.push("two", a2, l2, SimTime::from_secs_f64(30.0));
        stream.merge()
    }

    #[test]
    fn merge_renumbers_stages_jobs_and_blocks() {
        let merged = two_entry_stream();
        assert_eq!(merged.app.name, "one+two");
        assert_eq!(merged.app.stages.len(), 4);
        assert_eq!(merged.app.jobs.len(), 2);
        assert_eq!(merged.layout.len(), 4);
        // ids are their own indices after renumbering
        for (i, s) in merged.app.stages.iter().enumerate() {
            assert_eq!(s.id, StageId(i));
        }
        for (i, j) in merged.app.jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i));
        }
        // entry 2's stages point at entry 2's job and blocks
        let s2 = &merged.app.stages[2];
        assert_eq!(s2.job, JobId(1));
        assert_eq!(s2.parents, Vec::<StageId>::new());
        match &s2.tasks[0].input {
            InputSource::CachedOrHdfs { fallback, .. } => {
                assert!(fallback.index() >= 2, "block not renumbered: {fallback}");
            }
            other => panic!("unexpected input {other:?}"),
        }
        assert_eq!(merged.app.stages[3].parents, vec![StageId(2)]);
        // template keys stay shared across tenants (warm-DB reuse)
        assert_eq!(merged.app.stages[0].template_key, "t/m");
        assert_eq!(merged.app.stages[2].template_key, "t/m");
    }

    #[test]
    fn merge_tracks_per_entry_metadata() {
        let merged = two_entry_stream();
        assert_eq!(merged.jobs.len(), 2);
        assert_eq!(merged.jobs[0].arrival, SimTime::ZERO);
        assert_eq!(merged.jobs[1].arrival, SimTime::from_secs_f64(30.0));
        assert_eq!(merged.jobs[0].app_jobs, 0..1);
        assert_eq!(merged.jobs[1].app_jobs, 1..2);
        assert_eq!(
            merged.stage_jobs,
            vec![JobId(0), JobId(0), JobId(1), JobId(1)]
        );
        assert_eq!(merged.stream_job(StageId(3)), JobId(1));
    }

    #[test]
    fn default_push_gives_each_entry_its_own_tenant() {
        let merged = two_entry_stream();
        assert_eq!(merged.jobs[0].tenant, TenantId(0));
        assert_eq!(merged.jobs[1].tenant, TenantId(1));
        assert_eq!(merged.tenant_of(JobId(1)), TenantId(1));
        assert_eq!(merged.job_tenants(), vec![TenantId(0), TenantId(1)]);
        assert_eq!(merged.tenant_count(), 2);
    }

    #[test]
    fn push_as_groups_jobs_under_one_tenant() {
        let cluster = ClusterSpec::hydra();
        let mut stream = JobStream::new();
        let (a1, l1) = entry(&cluster, 1);
        let (a2, l2) = entry(&cluster, 2);
        let (a3, l3) = entry(&cluster, 3);
        stream.push_as("a0", a1, l1, SimTime::ZERO, TenantId(0));
        stream.push_as("a1", a2, l2, SimTime::from_secs_f64(5.0), TenantId(0));
        stream.push_as("b0", a3, l3, SimTime::from_secs_f64(9.0), TenantId(1));
        let merged = stream.merge();
        assert_eq!(
            merged.job_tenants(),
            vec![TenantId(0), TenantId(0), TenantId(1)]
        );
        assert_eq!(merged.tenant_count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_arrivals_rejected() {
        let cluster = ClusterSpec::hydra();
        let mut stream = JobStream::new();
        let (a1, l1) = entry(&cluster, 1);
        let (a2, l2) = entry(&cluster, 2);
        stream.push("one", a1, l1, SimTime::from_secs_f64(10.0));
        stream.push("two", a2, l2, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_merge_rejected() {
        JobStream::new().merge();
    }
}
