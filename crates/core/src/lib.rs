//! # rupam — A Heterogeneity-Aware Task Scheduler for Spark
//!
//! The paper's contribution (Xu, Butt, Lim, Kannan — IEEE CLUSTER 2018),
//! implemented against the [`rupam_exec`] scheduler interface, plus the
//! stock Spark baseline it is evaluated against:
//!
//! * [`baseline`] — `SparkScheduler`: Spark 2.2's locality-driven delay
//!   scheduling with uniform executors and one-task-per-core slots.
//! * [`fifo`] — `FifoScheduler`: a locality-blind first-fit floor and a
//!   minimal example of the scheduler trait.
//! * [`rm`] — Resource Queues: one priority queue per resource kind,
//!   nodes ordered by capability (descending) then utilisation
//!   (ascending) (§III-B1).
//! * [`tm`] — the Task Manager: Algorithm 1 task characterisation, the
//!   per-resource Task Queues, and `DB_task_char` (§III-B2).
//! * [`dispatcher`] — Algorithm 2: round-robin across resource kinds,
//!   memory feasibility, best-executor locking, locality tie-breaks.
//! * [`straggler`] — memory-straggler relocation and GPU/CPU racing
//!   (§III-C3).
//! * [`alloc`] — tenant allocation: fair queues (weighted-fair, DRF),
//!   per-round session snapshots, quota preemption and gang admission
//!   support (ROADMAP #4).
//! * [`scheduler`] — `RupamScheduler`, tying the components together,
//!   with ablation switches for the design-choice benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use rupam::{RupamScheduler, SparkScheduler};
//! use rupam_cluster::ClusterSpec;
//! use rupam_exec::{simulate, SimConfig, SimInput};
//!
//! // any rupam_dag::Application + DataLayout will do; see rupam-workloads
//! # use rupam_dag::{AppBuilder, StageKind};
//! # use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
//! # let mut b = AppBuilder::new("demo");
//! # let j = b.begin_job();
//! # b.add_stage(j, "r", "demo/r", StageKind::Result, vec![], vec![TaskTemplate {
//! #     index: 0, input: InputSource::Generated, demand: TaskDemand { compute: 1.0, ..TaskDemand::default() } }]);
//! # let app = b.build();
//! # let layout = rupam_dag::DataLayout::new();
//! let cluster = ClusterSpec::hydra();
//! let config = SimConfig::default();
//! let input = SimInput { cluster: &cluster, app: &app, layout: &layout, config: &config, seed: 1 };
//!
//! let mut rupam = RupamScheduler::new(RupamScheduler::default_config());
//! let report = simulate(&input, &mut rupam);
//! assert!(report.completed);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod baseline;
pub mod config;
pub mod db;
pub mod dispatcher;
pub mod fifo;
pub mod rm;
pub mod scheduler;
pub mod straggler;
pub mod tm;

pub use alloc::{AllocationPolicy, TenantSpec};
pub use baseline::SparkScheduler;
pub use config::RupamConfig;
pub use fifo::FifoScheduler;
pub use scheduler::RupamScheduler;
