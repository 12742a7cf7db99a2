//! `DB_task_char` — the task characteristics database (§III-B2).
//!
//! RUPAM stores per-task metrics keyed so that "future task iterations
//! and job runs" find them: we key by `(stage template key, partition)`,
//! which is stable across iterations of the same operation. Template
//! keys are interned [`Sym`]s, so a key is two machine words — no
//! `String` clone per lookup.
//!
//! The paper manages DB access cost with a *helper thread*: "all write
//! requests are queued and served by the helper thread", and reads check
//! that queue before the database. It needs one because RUPAM runs
//! inside Spark's multi-threaded driver. Our scheduler makes one offer
//! round at a time on one thread, so the database is a plain owned map:
//! a write is visible to the next read with no queue, lock or thread.

use std::collections::HashMap;

use rupam_simcore::units::ByteSize;
use rupam_simcore::Sym;

use rupam_cluster::resources::ResourceKind;
use rupam_cluster::NodeId;

/// Database key: stable task identity across iterations and job runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskKey {
    /// Stage template key (e.g. `"lr/gradient"`), interned.
    pub template: Sym,
    /// Partition index.
    pub partition: usize,
}

impl TaskKey {
    /// Convenience constructor.
    pub fn new(template: impl Into<Sym>, partition: usize) -> Self {
        TaskKey {
            template: template.into(),
            partition,
        }
    }
}

/// Recorded characteristics of one task (Table I, right side).
#[derive(Clone, Debug, Default)]
pub struct TaskChar {
    /// The most recent bottleneck classification (Algorithm 1).
    pub last_bottleneck: Option<ResourceKind>,
    /// `historyresource`: which bottlenecks have ever been observed.
    pub history: [bool; ResourceKind::COUNT],
    /// `optexecutor`: node with the lowest observed runtime, and that
    /// runtime in seconds.
    pub best: Option<(NodeId, f64)>,
    /// `peakmemory`: the largest memory footprint ever observed.
    pub peak_mem: ByteSize,
    /// Whether the task has ever used a GPU (`gpu`).
    pub used_gpu: bool,
    /// Number of recorded runs.
    pub runs: u32,
}

impl TaskChar {
    /// Number of distinct bottlenecks observed — the paper's
    /// `historyresource.size`, whose value 5 triggers best-executor
    /// locking in Algorithm 2.
    pub fn history_size(&self) -> usize {
        self.history.iter().filter(|b| **b).count()
    }

    /// Merge a new observation into the record.
    pub fn observe(
        &mut self,
        bottleneck: ResourceKind,
        node: NodeId,
        runtime_secs: f64,
        peak_mem: ByteSize,
        used_gpu: bool,
    ) {
        self.last_bottleneck = Some(bottleneck);
        self.history[bottleneck.index()] = true;
        self.peak_mem = self.peak_mem.max(peak_mem);
        self.used_gpu |= used_gpu;
        self.runs += 1;
        match self.best {
            Some((_, best_secs)) if best_secs <= runtime_secs => {}
            _ => self.best = Some((node, runtime_secs)),
        }
    }
}

/// The task-characteristics database: an owned map, read and written
/// by the scheduler's single thread.
#[derive(Default)]
pub struct TaskCharDb {
    store: HashMap<TaskKey, TaskChar>,
}

impl TaskCharDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest value for `key`.
    pub fn read(&self, key: &TaskKey) -> Option<TaskChar> {
        self.store.get(key).cloned()
    }

    /// Read-modify-write: apply `f` to the existing (or default) record.
    pub fn update(&mut self, key: TaskKey, f: impl FnOnce(&mut TaskChar)) {
        f(self.store.entry(key).or_default());
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_merges_observations() {
        let mut db = TaskCharDb::new();
        let key = TaskKey::new("pr/contrib", 0);
        db.update(key, |c| {
            c.observe(ResourceKind::Cpu, NodeId(0), 20.0, ByteSize::gib(1), false)
        });
        db.update(key, |c| {
            c.observe(ResourceKind::Net, NodeId(2), 10.0, ByteSize::gib(2), false)
        });
        let got = db.read(&key).unwrap();
        assert_eq!(got.runs, 2);
        assert_eq!(got.history_size(), 2);
        assert_eq!(got.best, Some((NodeId(2), 10.0)), "faster run wins");
        assert_eq!(got.peak_mem, ByteSize::gib(2), "peak is a running max");
        assert_eq!(got.last_bottleneck, Some(ResourceKind::Net));
    }

    #[test]
    fn best_executor_keeps_minimum() {
        let mut c = TaskChar::default();
        c.observe(ResourceKind::Cpu, NodeId(0), 10.0, ByteSize::ZERO, false);
        c.observe(ResourceKind::Cpu, NodeId(1), 30.0, ByteSize::ZERO, false);
        assert_eq!(c.best, Some((NodeId(0), 10.0)));
    }

    #[test]
    fn history_reaches_five() {
        let mut c = TaskChar::default();
        for kind in ResourceKind::ALL {
            c.observe(
                kind,
                NodeId(0),
                1.0,
                ByteSize::ZERO,
                kind == ResourceKind::Gpu,
            );
        }
        assert_eq!(c.history_size(), 5);
        assert!(c.used_gpu);
    }

    #[test]
    fn len_counts_distinct_keys() {
        let mut db = TaskCharDb::new();
        assert!(db.is_empty());
        for round in 0..3 {
            for i in 0..20 {
                db.update(TaskKey::new("x", i), |c| {
                    c.observe(ResourceKind::Io, NodeId(round), 1.0, ByteSize::ZERO, false)
                });
            }
        }
        assert_eq!(db.len(), 20);
        assert_eq!(db.read(&TaskKey::new("x", 7)).unwrap().runs, 3);
    }

    #[test]
    fn unknown_key_reads_none() {
        let db = TaskCharDb::new();
        assert!(db.read(&TaskKey::new("missing", 0)).is_none());
    }
}
