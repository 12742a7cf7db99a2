//! Tenant-scoped scheduling integration (DESIGN.md §15): the
//! FIFO-baseline noop contract, the weighted-fair fairness win, the
//! no-lost-tasks guarantee under quota preemption, and all-or-nothing
//! gang admission — all through the public bench harness.

use rupam::{AllocationPolicy, RupamConfig, TenantSpec};
use rupam_bench::fairness::{build_skewed_stream, contended_cluster, policy_config, solo_means};
use rupam_bench::multitenant::build_stream;
use rupam_bench::{run_stream_cfg, run_stream_observed_cfg, run_workload_observed_cfg, Sched};
use rupam_exec::{SimConfig, SimOptions};
use rupam_metrics::record::AttemptOutcome;
use rupam_metrics::trace::{LaunchReason, TraceEventKind};
use rupam_workloads::Workload;

/// Digest-only observation: no ring buffer, no auditor — just the
/// rolling FNV digest over every trace event.
fn digest_opts() -> SimOptions {
    SimOptions {
        trace_capacity: Some(0),
        audit: None,
    }
}

/// Tenant *weights* without a fair policy or a quota must not arm the
/// tenant machinery at all: `tenant_aware()` is false and the decision
/// stream is byte-identical to the default scheduler's.
#[test]
fn weights_without_policy_or_quota_are_a_digest_noop() {
    let weights_only = RupamConfig {
        allocation: AllocationPolicy::FifoBaseline,
        tenants: vec![
            TenantSpec {
                weight: 3.0,
                quota: None,
            },
            TenantSpec {
                weight: 1.0,
                quota: None,
            },
        ],
        ..RupamConfig::default()
    };
    assert!(!weights_only.tenant_aware());

    let cluster = rupam_cluster::ClusterSpec::hydra();
    let stream = build_stream(
        &cluster,
        &[Workload::LogisticRegression, Workload::TeraSort],
        20.0,
        101,
    );
    let cfg = SimConfig::default();
    let mut digests = Vec::new();
    for sched in [Sched::Rupam, Sched::RupamWith(weights_only)] {
        let (report, obs) =
            run_stream_observed_cfg(&cluster, &stream, &sched, 101, &digest_opts(), &cfg);
        assert!(report.completed);
        digests.push(obs.trace.expect("digest trace").digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "weights-only config must replay the default decision stream byte-for-byte"
    );
}

/// On the skewed heavy-vs-light stream, weighted-fair must improve
/// Jain's index over per-tenant slowdowns versus the FIFO baseline
/// without regressing mean JCT by more than 10 % (the PR's acceptance
/// bar; on this stream it actually improves).
#[test]
fn weighted_fair_improves_jain_without_jct_regression() {
    let cluster = contended_cluster();
    let seed = 101;
    let stream = build_skewed_stream(seed);
    let solo = solo_means(&cluster, seed);
    let cfg = SimConfig::default();

    let fifo = run_stream_cfg(
        &cluster,
        &stream,
        &Sched::RupamWith(policy_config(AllocationPolicy::FifoBaseline)),
        seed,
        &cfg,
    );
    let wfair = run_stream_cfg(
        &cluster,
        &stream,
        &Sched::RupamWith(policy_config(AllocationPolicy::WeightedFair)),
        seed,
        &cfg,
    );
    assert!(fifo.completed && wfair.completed);

    let fifo_jain = fifo.tenant_jain_slowdown(&solo);
    let wfair_jain = wfair.tenant_jain_slowdown(&solo);
    assert!(
        wfair_jain > fifo_jain,
        "weighted-fair must improve slowdown fairness: {wfair_jain:.3} vs FIFO {fifo_jain:.3}"
    );
    assert!(
        wfair.jct_mean() <= fifo.jct_mean() * 1.10,
        "mean JCT regressed more than 10%: {:.1}s vs FIFO {:.1}s",
        wfair.jct_mean(),
        fifo.jct_mean()
    );
}

/// A tight quota on the heavy tenant forces preemption waves; every
/// victim must re-enter through the lineage path and the stream must
/// still finish every job — no task is ever lost.
#[test]
fn quota_preemption_loses_no_tasks() {
    let cluster = contended_cluster();
    let seed = 101;
    let stream = build_skewed_stream(seed);
    let quota_cfg = RupamConfig {
        allocation: AllocationPolicy::WeightedFair,
        tenants: vec![
            TenantSpec {
                weight: 1.0,
                quota: Some(0.25),
            },
            TenantSpec {
                weight: 1.0,
                quota: None,
            },
        ],
        ..RupamConfig::default()
    };
    assert!(quota_cfg.tenant_aware());
    let sched = Sched::RupamWith(quota_cfg);
    assert_eq!(sched.label(), "rupam-wfair-quota");

    let report = run_stream_cfg(&cluster, &stream, &sched, seed, &SimConfig::default());
    assert!(report.completed, "stream must finish under preemption");
    assert!(
        report.jobs.iter().all(|j| j.jct().is_some()),
        "every stream job must complete despite preemption"
    );
    let preempted = report
        .records
        .iter()
        .filter(|r| r.outcome == AttemptOutcome::QuotaPreempted)
        .count();
    assert!(
        preempted > 0,
        "a 0.25 quota against a 120-wide burst must preempt at least once"
    );
    // every preempted task also has a later successful attempt
    for r in report
        .records
        .iter()
        .filter(|r| r.outcome == AttemptOutcome::QuotaPreempted)
    {
        assert!(
            report
                .records
                .iter()
                .any(|s| s.task == r.task && s.outcome.is_success()),
            "preempted task {:?} never succeeded",
            r.task
        );
    }
}

/// `gang: true` stages (the Gramian BLAS sweep) launch all-or-nothing:
/// the run completes and every member of the gang stage launches with
/// the gang-admission reason, never piecemeal.
#[test]
fn gang_admission_completes_gramian_all_or_nothing() {
    let cluster = rupam_cluster::ClusterSpec::hydra();
    let gang_cfg = RupamConfig {
        gang_admission: true,
        ..RupamConfig::default()
    };
    let sched = Sched::RupamWith(gang_cfg);
    assert_eq!(sched.label(), "rupam-gang");

    let opts = SimOptions {
        trace_capacity: Some(rupam_metrics::trace::DEFAULT_TRACE_CAPACITY),
        audit: None,
    };
    let (report, obs) = run_workload_observed_cfg(
        &cluster,
        Workload::GramianMatrix,
        &sched,
        101,
        &opts,
        &SimConfig::default(),
    );
    assert!(report.completed, "Gramian must finish under gang admission");

    let trace = obs.trace.expect("trace enabled");
    let mut gang_launches = 0usize;
    for ev in trace.iter() {
        if let TraceEventKind::Launch {
            task,
            reason,
            speculative,
            ..
        } = &ev.kind
        {
            let gang_stage = task.stage.index() == 0; // BLAS outer-product stage
            if matches!(reason, LaunchReason::GangAdmission { .. }) {
                gang_launches += 1;
            } else if gang_stage && !speculative {
                // speculative copies ride the ordinary path; first
                // attempts of a gang stage must not
                panic!("gang-stage task {task:?} launched piecemeal via {reason:?}");
            }
        }
    }
    assert!(
        gang_launches > 0,
        "the gang stage must launch through gang admission"
    );
}
