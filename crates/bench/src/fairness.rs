//! Tenant-fairness head-to-head: FIFO baseline vs weighted-fair vs DRF.
//!
//! The multi-tenant stream in [`crate::multitenant`] gives every tenant
//! one job, so the allocation policy barely matters there. This
//! experiment builds the adversarial regime the Mesos fair-allocation
//! study measures: one *heavy* tenant floods the cluster with a wide
//! burst of uniform CPU tasks — many times the core count — while a
//! *light* tenant trickles small jobs in behind it. Under the FIFO
//! baseline every freed core goes to the heavy backlog (its tasks hold
//! the earliest seats), so the light jobs wait for the whole flood to
//! drain; the fair policies give the least-served tenant the first
//! kind-cycle of every dispatch pass, so the light jobs cut through at
//! near-solo speed. The stream is synthetic (plain [`AppBuilder`]
//! stages) so task widths and durations are controlled and the
//! queueing effect is not confounded by stage-DAG structure.
//!
//! The stream runs in two phases. At `t = 0` each tenant submits one
//! *pilot* job that runs at first contact: Algorithm 1 sends unknown
//! Result-stage tasks to the network queue, whose admission check
//! ignores CPU pressure and happily overcommits — ordering between
//! tenants decides nothing while both flood in on the overcommit
//! headroom. The pilots' completions write `DB_task_char`, so when the
//! *measured* wave arrives at [`WAVE_AT`] every task classifies
//! straight into the CPU queue, whose utilisation ceiling admits
//! exactly one task per freed core. That contended, one-seat-at-a-time
//! regime is where the allocation order is the whole game — and it is
//! only reachable warm, which is why the pilots exist.
//!
//! Reported per policy: Jain's index over per-tenant slowdowns, mean
//! JCT, and each tenant's slowdown against its solo baseline (the same
//! jobs alone on the same cluster at the same arrival offsets).

use rand::Rng;
use rupam::{AllocationPolicy, RupamConfig, TenantSpec};
use rupam_cluster::ClusterSpec;
use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
use rupam_dag::{
    AppBuilder, Application, DataLayout, JobStream, MergedStream, StageKind, TenantId,
};
use rupam_metrics::table::{secs, Table};
use rupam_simcore::time::SimTime;
use rupam_simcore::{stats, RngFactory};

use crate::harness::{run_stream_cfg, Sched};

/// Jobs the heavy tenant submits: one cold pilot plus the measured wave.
pub const HEAVY_JOBS: usize = 2;
/// Tasks per heavy job: wide enough that the wave's backlog outlives
/// every light arrival on [`contended_cluster`].
pub const HEAVY_WIDTH: usize = 120;
/// CPU giga-cycles per heavy task (~6 s on a 4 GHz core).
pub const HEAVY_COMPUTE: f64 = 24.0;
/// Jobs the light tenant submits: one cold pilot plus the trickle.
pub const LIGHT_JOBS: usize = 4;
/// Tasks per light job.
pub const LIGHT_WIDTH: usize = 8;
/// CPU giga-cycles per light task (~3 s on a 4 GHz core).
pub const LIGHT_COMPUTE: f64 = 12.0;
/// Arrival of the heavy tenant's measured wave: late enough that both
/// pilots have drained and warmed `DB_task_char` for every task index.
pub const WAVE_AT: f64 = 40.0;
/// Mean inter-arrival gap of the light tenant's trickle behind the
/// wave (seconds). Gaps are capped at twice the mean so every light
/// job lands inside the wave's backlog window, where the allocation
/// order decides who gets each freed core.
pub const LIGHT_GAP_SECS: f64 = 6.0;

/// The contended cluster the fairness runs use: small enough that the
/// heavy burst's backlog outlives the light tenant's arrivals, so the
/// dispatch order between tenants decides who waits.
pub fn contended_cluster() -> ClusterSpec {
    ClusterSpec::hydra_mix(2, 1, 1)
}

/// One single-stage burst job of `width` uniform CPU tasks. Compute
/// varies ±10% by partition index (deterministically) so the runs
/// exercise the straggler-free common path without being lockstep.
fn burst_app(name: &str, template_key: &str, width: usize, compute: f64) -> Application {
    let mut b = AppBuilder::new(name);
    let job = b.begin_job();
    let tasks = (0..width)
        .map(|i| TaskTemplate {
            index: i,
            input: InputSource::Generated,
            demand: TaskDemand {
                compute: compute * (0.9 + 0.2 * ((i * 7) % 11) as f64 / 10.0),
                ..TaskDemand::default()
            },
        })
        .collect();
    b.add_stage(job, "burst", template_key, StageKind::Result, vec![], tasks);
    b.build()
}

/// Tenant shares used by the fair policies: equal weights, no quotas.
/// Fairness here comes from ordering alone, so the FIFO row really is
/// the no-op baseline (weights without quotas never arm preemption).
pub fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            weight: 1.0,
            quota: None,
        },
        TenantSpec {
            weight: 1.0,
            quota: None,
        },
    ]
}

/// The entries of the skewed stream as `(name, app, arrival, tenant)`,
/// arrival-sorted. Arrival times are seed-deterministic.
fn stream_entries(seed: u64) -> Vec<(String, Application, SimTime, TenantId)> {
    let mut arrivals = RngFactory::new(seed).stream("fairness-arrivals");
    let mut entries = Vec::new();
    // pilots: heavy#0 and light#0 run cold from t ≈ 0 and warm the DB
    // for every (template, index) key the measured jobs reuse
    for i in 0..HEAVY_JOBS {
        let name = format!("heavy#{i}");
        let app = burst_app(&name, "fairness/heavy", HEAVY_WIDTH, HEAVY_COMPUTE);
        let at = if i == 0 { 0.0 } else { WAVE_AT };
        entries.push((name, app, at, TenantId(0)));
    }
    let mut t = WAVE_AT + 5.0;
    for i in 0..LIGHT_JOBS {
        let name = format!("light#{i}");
        let app = burst_app(&name, "fairness/light", LIGHT_WIDTH, LIGHT_COMPUTE);
        let at = if i == 0 {
            1.0
        } else {
            // exponential gap via inverse CDF; 1-u keeps the log
            // argument strictly positive
            let u: f64 = arrivals.gen_range(0.0..1.0);
            t += (-LIGHT_GAP_SECS * (1.0 - u).ln()).min(2.0 * LIGHT_GAP_SECS);
            t
        };
        entries.push((name, app, at, TenantId(1)));
    }
    entries.sort_by(|a, b| a.2.total_cmp(&b.2));
    entries
        .into_iter()
        .map(|(name, app, at, tenant)| (name, app, SimTime::from_secs_f64(at), tenant))
        .collect()
}

/// Build the skewed two-tenant stream: cold pilots from both tenants
/// near `t = 0`, then tenant 0 (heavy) submits its measured wave at
/// [`WAVE_AT`] and tenant 1 (light) trickles [`LIGHT_JOBS`]` - 1`
/// small jobs in behind it with seeded exponential gaps.
pub fn build_skewed_stream(seed: u64) -> MergedStream {
    let mut stream = JobStream::new();
    for (name, app, at, tenant) in stream_entries(seed) {
        stream.push_as(name, app, DataLayout::new(), at, tenant);
    }
    stream.merge()
}

/// Solo baseline: each tenant's jobs alone on the cluster, same
/// arrival offsets. Returns mean solo JCT per tenant id.
pub fn solo_means(cluster: &ClusterSpec, seed: u64) -> Vec<f64> {
    (0..2)
        .map(|t| {
            let mut solo = JobStream::new();
            for (name, app, at, tenant) in stream_entries(seed) {
                if tenant.index() == t {
                    solo.push_as(name, app, DataLayout::new(), at, TenantId(t));
                }
            }
            let stream = solo.merge();
            let report = run_stream_cfg(
                cluster,
                &stream,
                &Sched::Rupam,
                seed,
                &rupam_exec::SimConfig::default(),
            );
            assert!(report.completed, "solo baseline must complete");
            report.jct_mean()
        })
        .collect()
}

/// The RUPAM configuration for one allocation policy over the
/// two-tenant stream.
pub fn policy_config(policy: AllocationPolicy) -> RupamConfig {
    RupamConfig {
        allocation: policy,
        tenants: tenant_specs(),
        ..RupamConfig::default()
    }
}

/// One policy's aggregate over the seeds.
pub struct FairnessRow {
    /// Scheduler label (carries the policy suffix).
    pub sched: String,
    /// Mean Jain's index over per-tenant slowdowns (size-normalised:
    /// 1.0 = contention taxed both tenants equally).
    pub jain: f64,
    /// Mean JCT across all jobs and seeds (seconds).
    pub jct_mean: f64,
    /// Mean slowdown of the heavy tenant vs its solo baseline.
    pub heavy_slowdown: f64,
    /// Mean slowdown of the light tenant vs its solo baseline.
    pub light_slowdown: f64,
    /// Mean p95 per-tenant slowdown vs solo baselines.
    pub slowdown_p95: f64,
    /// All runs completed.
    pub completed: bool,
}

/// Run the head-to-head: FIFO baseline, weighted-fair, DRF.
pub fn run(cluster: &ClusterSpec, seeds: &[u64]) -> Vec<FairnessRow> {
    let policies = [
        AllocationPolicy::FifoBaseline,
        AllocationPolicy::WeightedFair,
        AllocationPolicy::Drf,
    ];
    policies
        .iter()
        .map(|&policy| {
            let sched = Sched::RupamWith(policy_config(policy));
            let mut jains = Vec::new();
            let mut jcts = Vec::new();
            let mut heavy = Vec::new();
            let mut light = Vec::new();
            let mut slowdowns = Vec::new();
            let mut completed = true;
            for &seed in seeds {
                let stream = build_skewed_stream(seed);
                let solo = solo_means(cluster, seed);
                let report = run_stream_cfg(
                    cluster,
                    &stream,
                    &sched,
                    seed,
                    &rupam_exec::SimConfig::default(),
                );
                completed &= report.completed;
                jains.push(report.tenant_jain_slowdown(&solo));
                jcts.push(report.jct_mean());
                for (t, s) in report.tenant_slowdowns(&solo) {
                    match t.index() {
                        0 => heavy.push(s),
                        _ => light.push(s),
                    }
                }
                slowdowns.push(report.tenant_slowdown_p95(&solo));
            }
            FairnessRow {
                sched: sched.label(),
                jain: stats::mean(&jains),
                jct_mean: stats::mean(&jcts),
                heavy_slowdown: stats::mean(&heavy),
                light_slowdown: stats::mean(&light),
                slowdown_p95: stats::mean(&slowdowns),
                completed,
            }
        })
        .collect()
}

/// Render the policy comparison.
pub fn table(rows: &[FairnessRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Tenant fairness — heavy {}×{} burst vs light {}×{} trickle",
            HEAVY_JOBS, HEAVY_WIDTH, LIGHT_JOBS, LIGHT_WIDTH
        ),
        &[
            "policy",
            "Jain slowdown",
            "mean JCT (s)",
            "heavy",
            "light",
            "p95 slowdown",
        ],
    );
    for r in rows {
        t.row(&[
            r.sched.clone(),
            format!("{:.3}", r.jain),
            secs(r.jct_mean),
            format!("{:.2}x", r.heavy_slowdown),
            format!("{:.2}x", r.light_slowdown),
            format!("{:.2}x", r.slowdown_p95),
        ]);
    }
    t
}

/// The `fairness_jain_weighted` gate value: Jain's index over
/// per-tenant slowdowns under the weighted-fair policy on the skewed
/// stream (mean over `seeds`). Simulated-time and deterministic, so
/// gate-able across machines against an absolute floor.
pub fn jain_weighted_gate(cluster: &ClusterSpec, seeds: &[u64]) -> f64 {
    let sched = Sched::RupamWith(policy_config(AllocationPolicy::WeightedFair));
    let jains: Vec<f64> = seeds
        .iter()
        .map(|&seed| {
            let stream = build_skewed_stream(seed);
            let solo = solo_means(cluster, seed);
            let report = run_stream_cfg(
                cluster,
                &stream,
                &sched,
                seed,
                &rupam_exec::SimConfig::default(),
            );
            assert!(report.completed, "fairness gate stream must complete");
            report.tenant_jain_slowdown(&solo)
        })
        .collect();
    stats::mean(&jains)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_stream_is_deterministic_and_two_tenant() {
        let a = build_skewed_stream(7);
        let b = build_skewed_stream(7);
        assert_eq!(a.jobs.len(), HEAVY_JOBS + LIGHT_JOBS);
        assert_eq!(a.tenant_count(), 2);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
        }
        assert_eq!(
            a.jobs.iter().filter(|j| j.tenant == TenantId(0)).count(),
            HEAVY_JOBS
        );
    }

    #[test]
    fn policy_rows_complete_and_fair_policies_report_jain() {
        let cluster = ClusterSpec::hydra();
        let rows = run(&cluster, &[1]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.completed, "{} left jobs unfinished", r.sched);
            assert!(r.jain > 0.0 && r.jain <= 1.0 + 1e-9);
            assert!(r.jct_mean > 0.0);
        }
        assert!(rows[1].sched.contains("wfair"));
        assert!(rows[2].sched.contains("drf"));
        assert_eq!(table(&rows).len(), 3);
    }
}
