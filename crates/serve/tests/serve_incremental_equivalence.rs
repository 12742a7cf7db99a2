//! Incremental-vs-rebuild equivalence: the serve driver's persistent
//! offer state (in-place node views, mutated pending list, memoised
//! placement hints) must be decision-for-decision identical to the
//! debug full-rebuild path that reconstructs the `OfferInput` from the
//! authoritative tables every round.
//!
//! Each test runs live once with the persistent path, then replays the
//! captured input log three times — once per construction path, and
//! once more down the full-rebuild path with the reference (rebuild)
//! dispatcher — and demands all four decision-trace digests match byte
//! for byte. Any divergence (a stale view field, a pending entry that
//! outlived its launch, a shuffle preference that missed an
//! invalidation, a probe of the persistent split that disagrees with
//! the full queue scan) shifts a launch and changes the digest.

use std::sync::Arc;
use std::time::Duration;

use rupam::{RupamConfig, RupamScheduler};
use rupam_dag::app::JobId;
use rupam_faults::FaultScript;
use rupam_serve::testbed::{build_fleet, pressure_stream};
use rupam_serve::{replay, server, ServeConfig, ServeOutcome};
use rupam_simcore::time::SimDuration;

fn run_live(
    workers: usize,
    jobs: usize,
    tasks: usize,
    cfg: &ServeConfig,
    script: &FaultScript,
) -> ServeOutcome {
    let cluster = Arc::new(build_fleet(workers));
    let catalog = Arc::new(pressure_stream(jobs, tasks));
    let handle = server::start(
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        Box::new(RupamScheduler::new(RupamConfig::default())),
        cfg.clone(),
        script,
    );
    let mut client = handle.client.clone();
    for j in 0..jobs {
        client.submit(JobId(j)).expect("submit");
    }
    client.drain().expect("drain");
    drop(client);
    handle.wait().expect("serve run")
}

/// Replay `out.log` down both construction paths, and down the
/// full-rebuild path again under the reference dispatcher, and assert
/// every digest equals the live one.
fn check_both_paths(
    workers: usize,
    jobs: usize,
    tasks: usize,
    cfg: &ServeConfig,
    out: &ServeOutcome,
) {
    let cluster = build_fleet(workers);
    let catalog = pressure_stream(jobs, tasks);

    let mut incremental_cfg = cfg.clone();
    incremental_cfg.debug_full_rebuild = false;
    let mut sched = RupamScheduler::new(RupamConfig::default());
    let incremental = replay(&cluster, &catalog, &mut sched, &incremental_cfg, &out.log)
        .expect("incremental replay succeeds");
    assert_eq!(
        incremental.digest, out.report.digest,
        "incremental replay must reproduce the live digest"
    );

    let mut rebuild_cfg = cfg.clone();
    rebuild_cfg.debug_full_rebuild = true;
    let mut sched = RupamScheduler::new(RupamConfig::default());
    let rebuild = replay(&cluster, &catalog, &mut sched, &rebuild_cfg, &out.log)
        .expect("full-rebuild replay succeeds");
    assert_eq!(
        rebuild.digest, out.report.digest,
        "full-rebuild replay must reproduce the live digest — the \
         persistent offer state diverged from the from-scratch snapshot \
         (live {:016x}, rebuild {:016x})",
        out.report.digest, rebuild.digest
    );
    assert_eq!(rebuild.launched, incremental.launched);
    assert_eq!(rebuild.jobs_completed, incremental.jobs_completed);

    // the oracle leg: no warranty, and the dispatcher scans whole
    // queues instead of probing the Task Manager's persistent split
    let mut sched = RupamScheduler::new(RupamConfig {
        incremental_queues: false,
        ..RupamConfig::default()
    });
    let reference = replay(&cluster, &catalog, &mut sched, &rebuild_cfg, &out.log)
        .expect("reference-dispatcher replay succeeds");
    assert_eq!(
        reference.digest, out.report.digest,
        "reference-dispatcher replay must reproduce the live digest \
         (live {:016x}, reference {:016x})",
        out.report.digest, reference.digest
    );
}

#[test]
fn healthy_run_matches_down_both_paths() {
    let cfg = ServeConfig {
        time_scale: 0.002,
        ..ServeConfig::default()
    };
    let out = run_live(12, 4, 24, &cfg, &FaultScript::empty());
    assert!(
        out.report.clean,
        "healthy run must drain cleanly: {:?}",
        out.report
    );
    assert!(out.report.offer_rounds > 0);
    check_both_paths(12, 4, 24, &cfg, &out);
}

#[test]
fn chaos_smoke_matches_down_both_paths() {
    // the committed chaos script: crashes, restarts, dropouts and flaky
    // OOMs exercise every pending-list mutation (re-pends, node-lost
    // victims, recompute) and every preference invalidation
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../chaos-smoke.toml"
    ))
    .expect("chaos-smoke.toml is committed at the repo root");
    let script = FaultScript::parse_toml(&text).expect("script parses");

    let mut cfg = ServeConfig {
        tick: Duration::from_millis(10),
        worker_heartbeat: Duration::from_millis(10),
        time_scale: 0.02,
        max_wall: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    };
    cfg.sim.faults.suspect_after = SimDuration(60_000); // 60 ms
    cfg.sim.faults.dead_after = SimDuration(200_000); // 200 ms

    let out = run_live(12, 4, 24, &cfg, &script);
    assert!(
        out.report.clean,
        "chaos run must still drain cleanly: {:?}",
        out.report
    );
    assert_eq!(out.report.lost_tasks, 0);
    check_both_paths(12, 4, 24, &cfg, &out);
}

// ---------------------------------------------------------------------
// Seat-partition property: the per-tenant shards of the Task Manager's
// persistent split. The tenant-aware incremental dispatcher probes
// a tenant's shard (`TaskQueues::split(Some(tenant))`) instead of
// filtering the global split per round, so the shards must equal the filtered global
// partition — same entries, same seat order, same floors — after *any*
// interleaving of ingestion, launch/removal, and `DB_task_char`-driven
// reclassification. The reference reconstruction below (filter the
// global split by owner) is exactly the from-scratch scan the
// non-incremental tenant path performs; the property pins the
// persistent shards to it.

mod seat_partition {
    use proptest::prelude::*;
    use rupam::tm::TaskQueues;
    use rupam_cluster::ResourceKind;
    use rupam_dag::app::StageId;
    use rupam_dag::{TaskRef, TenantId};
    use rupam_simcore::time::SimTime;
    use rupam_simcore::units::ByteSize;

    const TENANTS: usize = 3;
    const SLOTS: usize = 24;

    fn task(slot: usize) -> TaskRef {
        TaskRef {
            stage: StageId(slot / 8),
            index: slot % 8,
        }
    }

    fn tenant(slot: usize) -> TenantId {
        TenantId(slot % TENANTS)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A view became pending: enqueue into a kind subset (or
        /// resurrect the historical seats of a re-pended task).
        Enqueue {
            slot: usize,
            kinds: Vec<ResourceKind>,
            special: bool,
            peak_mib: u64,
        },
        /// A `DB_task_char` write changed the classification of a
        /// still-queued task.
        Reclassify {
            slot: usize,
            special: bool,
            peak_mib: u64,
        },
        /// The task launched (or its stage was cancelled): leave every
        /// queue.
        Remove { slot: usize },
    }

    /// Ops drawn from integer tuples (the vendored proptest carries no
    /// oneof/subsequence combinators): `sel` weights enqueue :
    /// reclassify : remove at 3 : 2 : 2, `bits` is a 5-bit kind mask
    /// (empty masks fall back to the CPU queue) plus the special flag.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..7, 0usize..SLOTS, 0u32..64, 64u64..512).prop_map(|(sel, slot, bits, peak_mib)| {
            let special = bits & 32 != 0;
            match sel {
                0..=2 => {
                    let mut kinds: Vec<ResourceKind> = ResourceKind::ALL
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| bits & (1 << i) != 0)
                        .map(|(_, &k)| k)
                        .collect();
                    if kinds.is_empty() {
                        kinds.push(ResourceKind::Cpu);
                    }
                    Op::Enqueue {
                        slot,
                        kinds,
                        special,
                        peak_mib,
                    }
                }
                3 | 4 => Op::Reclassify {
                    slot,
                    special,
                    peak_mib,
                },
                _ => Op::Remove { slot },
            }
        })
    }

    /// `shard[t] == filter(global, tenant == t)` for both sides of the
    /// split, plus floor agreement and exact coverage of the union.
    fn assert_partition(q: &TaskQueues) {
        for kind in ResourceKind::ALL {
            let global = q.split(None).expect("the global split always exists");
            let special: Vec<(u64, TaskRef)> = global.special(kind).collect();
            let plain: Vec<(u64, TaskRef, ByteSize)> = global.plain(kind).collect();
            let mut covered = 0usize;
            for t in 0..TENANTS {
                let t = TenantId(t);
                let shard = q.split(Some(t)).expect("every tenant is noted up front");
                let want_s: Vec<(u64, TaskRef)> = special
                    .iter()
                    .copied()
                    .filter(|(_, task)| q.tenant_of(task) == t)
                    .collect();
                let got_s: Vec<(u64, TaskRef)> = shard.special(kind).collect();
                assert_eq!(got_s, want_s, "{kind:?} special shard diverged for {t:?}");
                let want_p: Vec<(u64, TaskRef, ByteSize)> = plain
                    .iter()
                    .copied()
                    .filter(|(_, task, _)| q.tenant_of(task) == t)
                    .collect();
                let got_p: Vec<(u64, TaskRef, ByteSize)> = shard.plain(kind).collect();
                assert_eq!(got_p, want_p, "{kind:?} plain shard diverged for {t:?}");
                assert_eq!(
                    shard.plain_floor(kind),
                    want_p.iter().map(|&(_, _, p)| p).min(),
                    "{kind:?} plain floor diverged for {t:?}"
                );
                covered += got_s.len() + got_p.len();
            }
            assert_eq!(
                covered,
                special.len() + plain.len(),
                "{kind:?} shards must cover the global split exactly"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn shards_track_filtered_global_split(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut q = TaskQueues::new();
            q.set_tenant_mode();
            for slot in 0..SLOTS {
                q.note_tenant(task(slot), tenant(slot));
            }
            for op in ops {
                match op {
                    Op::Enqueue { slot, kinds, special, peak_mib } => {
                        q.enqueue(task(slot), &kinds, SimTime::ZERO, special, ByteSize::mib(peak_mib));
                    }
                    Op::Reclassify { slot, special, peak_mib } => {
                        q.reclassify(task(slot), special, ByteSize::mib(peak_mib));
                    }
                    Op::Remove { slot } => {
                        q.remove(&task(slot));
                    }
                }
                assert_partition(&q);
            }
        }
    }
}
