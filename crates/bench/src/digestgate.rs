//! Cross-version trace-digest equivalence gate (`rupam-bench digests`).
//!
//! Replays a fixed scenario matrix — the full workload suite on two
//! cluster shapes under all three schedulers, the multi-tenant stream,
//! the chaos-smoke fault script, the tenant allocation policies and gang
//! admission — and records each run's decision-trace digest. The
//! committed golden file (`tests/golden_trace_digests.txt`) pins the decision stream of the
//! tenant-aware engine (`v2`: trace events carry tenants); any refactor
//! of the engine, bus, or schedulers that changes a single decision (or
//! the order decisions are recorded in) flips a digest and fails the
//! gate loudly, instead of drifting silently.
//!
//! Digests are pure functions of `(code, cluster, workload, seed)` —
//! no wall-clock, no host randomness, integer-only event payloads — so
//! the golden file is portable across machines.

use std::fmt::Write as _;

use rupam::{AllocationPolicy, RupamConfig, TenantSpec};
use rupam_cluster::ClusterSpec;
use rupam_exec::{SimConfig, SimOptions};
use rupam_faults::FaultScript;
use rupam_workloads::Workload;

use crate::fairness::{build_skewed_stream, contended_cluster, policy_config};
use crate::harness::{run_stream_observed, run_workload_observed_cfg, Sched};
use crate::multitenant::{build_stream, MEAN_GAP_SECS, TENANTS};

/// The chaos script shipped at the repository root, embedded so the
/// gate needs no working-directory assumptions.
const CHAOS_SMOKE_TOML: &str = include_str!("../../../chaos-smoke.toml");

/// Seed for the per-workload suite runs (matches
/// `tests/incremental_equivalence.rs`).
const SUITE_SEED: u64 = 707;
/// Seed for the multi-tenant stream scenario.
const STREAM_SEED: u64 = 909;
/// Seed for the chaos-script scenario.
const CHAOS_SEED: u64 = 42;
/// Seed for the tenant-policy scenarios (matches
/// `tests/tenant_scheduling.rs`).
const TENANT_SEED: u64 = 101;
/// Jobs in the wide-cluster stream: the suite cycled from LR.
const WIDE_JOBS: usize = 8;
/// Mean arrival gap of the wide-cluster stream, simulated seconds.
const WIDE_GAP_SECS: f64 = 10.0;

/// Digest-only observation: every event hashed, nothing retained.
fn digest_opts() -> SimOptions {
    SimOptions {
        trace_capacity: Some(0),
        audit: None,
    }
}

/// Compute the full scenario matrix. Returns `(scenario name, digest)`
/// pairs in a stable order.
pub fn compute() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let shapes = [
        ("hydra", ClusterSpec::hydra()),
        ("mix211", ClusterSpec::hydra_mix(2, 1, 1)),
    ];
    let scheds = [Sched::Fifo, Sched::Spark, Sched::Rupam];
    let config = SimConfig::default();
    for (shape, cluster) in &shapes {
        for w in Workload::ALL {
            for sched in &scheds {
                let (_, obs) = run_workload_observed_cfg(
                    cluster,
                    w,
                    sched,
                    SUITE_SEED,
                    &digest_opts(),
                    &config,
                );
                out.push((
                    format!("suite/{shape}/{}/{}", w.short(), sched.label()),
                    obs.trace.expect("digest-only trace requested").digest(),
                ));
            }
        }
    }
    let cluster = ClusterSpec::hydra();
    let stream = build_stream(&cluster, &TENANTS, MEAN_GAP_SECS, STREAM_SEED);
    for sched in &scheds {
        let (_, obs) = run_stream_observed(&cluster, &stream, sched, STREAM_SEED, &digest_opts());
        out.push((
            format!("stream/hydra/{}", sched.label()),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    // 768 nodes on two racks: the only row whose cluster is big enough
    // to exercise the offer snapshot and node rankings at scale.
    let wide = ClusterSpec::hydra_mix(384, 256, 128);
    let wide_jobs: Vec<Workload> = Workload::ALL.into_iter().cycle().take(WIDE_JOBS).collect();
    let stream = build_stream(&wide, &wide_jobs, WIDE_GAP_SECS, STREAM_SEED);
    let (_, obs) = run_stream_observed(&wide, &stream, &Sched::Rupam, STREAM_SEED, &digest_opts());
    out.push((
        format!("stream/mix768/{}", Sched::Rupam.label()),
        obs.trace.expect("digest-only trace requested").digest(),
    ));
    let script = FaultScript::parse_toml(CHAOS_SMOKE_TOML).expect("committed chaos script parses");
    let chaos_cfg = SimConfig::with_faults(script);
    for sched in [Sched::Spark, Sched::Rupam] {
        let (_, obs) = run_workload_observed_cfg(
            &cluster,
            Workload::TeraSort,
            &sched,
            CHAOS_SEED,
            &digest_opts(),
            &chaos_cfg,
        );
        out.push((
            format!("chaos/hydra/TeraSort/{}", sched.label()),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    // Tenant-aware dispatch: the skewed two-tenant stream under a
    // quota'd weighted-fair policy (preemption waves) and under DRF,
    // so the per-tenant matching passes are pinned too.
    let contended = contended_cluster();
    let skewed = build_skewed_stream(TENANT_SEED);
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
    for sched in [
        Sched::RupamWith(quota_cfg),
        Sched::RupamWith(policy_config(AllocationPolicy::Drf)),
    ] {
        let (_, obs) =
            run_stream_observed(&contended, &skewed, &sched, TENANT_SEED, &digest_opts());
        out.push((
            format!("tenants/mix211/{}", sched.label()),
            obs.trace.expect("digest-only trace requested").digest(),
        ));
    }
    // All-or-nothing gang admission of the Gramian's BLAS stage.
    let gang = Sched::RupamWith(RupamConfig {
        gang_admission: true,
        ..RupamConfig::default()
    });
    let (_, obs) = run_workload_observed_cfg(
        &cluster,
        Workload::GramianMatrix,
        &gang,
        SUITE_SEED,
        &digest_opts(),
        &config,
    );
    out.push((
        format!("gang/hydra/GM/{}", gang.label()),
        obs.trace.expect("digest-only trace requested").digest(),
    ));
    out
}

/// Render digests as the committed golden document: one
/// `name digest-hex` line per scenario, plus a schema header so format
/// drift fails loudly (same convention as the trace CSV export).
pub fn render(digests: &[(String, u64)]) -> String {
    let mut s = String::from("# rupam-trace-digests v2\n");
    for (name, d) in digests {
        let _ = writeln!(s, "{name} {d:016x}");
    }
    s
}

/// Parse a golden document back into `(name, digest)` pairs.
/// Returns `None` on a missing/unknown schema header or a bad line.
pub fn parse(doc: &str) -> Option<Vec<(String, u64)>> {
    let mut lines = doc.lines();
    if lines.next()?.trim() != "# rupam-trace-digests v2" {
        return None;
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.rsplit_once(' ')?;
        out.push((name.trim().to_string(), u64::from_str_radix(hex, 16).ok()?));
    }
    Some(out)
}

/// Compare fresh digests against a committed golden document. Returns
/// human-readable mismatch descriptions (empty = equivalent). A
/// scenario present on only one side is a mismatch too: silently
/// shrinking the matrix must not pass the gate.
pub fn compare(fresh: &[(String, u64)], golden: &[(String, u64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let fresh_map: std::collections::BTreeMap<&str, u64> =
        fresh.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let golden_map: std::collections::BTreeMap<&str, u64> =
        golden.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    for (name, g) in &golden_map {
        match fresh_map.get(name) {
            Some(f) if f == g => {}
            Some(f) => bad.push(format!(
                "{name}: digest {f:016x} != golden {g:016x} — decisions diverged from the \
                 committed reference"
            )),
            None => bad.push(format!("{name}: scenario missing from the fresh matrix")),
        }
    }
    for name in fresh_map.keys() {
        if !golden_map.contains_key(name) {
            bad.push(format!(
                "{name}: scenario not in the golden file — regenerate it"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let digests = vec![
            ("suite/hydra/LR/RUPAM".to_string(), 0x0123_4567_89ab_cdef),
            ("stream/hydra/Spark".to_string(), u64::MAX),
        ];
        let doc = render(&digests);
        assert!(doc.starts_with("# rupam-trace-digests v2\n"));
        assert_eq!(parse(&doc).unwrap(), digests);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(parse("suite/hydra/LR/RUPAM 0123456789abcdef").is_none());
        assert!(parse("# rupam-trace-digests v1\na 1").is_none());
    }

    #[test]
    fn compare_flags_divergence_and_missing() {
        let golden = vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        assert!(compare(&golden, &golden).is_empty());
        let fresh = vec![("a".to_string(), 1u64), ("b".to_string(), 3u64)];
        let bad = compare(&fresh, &golden);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("diverged"));
        let fresh = vec![("a".to_string(), 1u64)];
        assert_eq!(compare(&fresh, &golden).len(), 1);
        let fresh = vec![
            ("a".to_string(), 1u64),
            ("b".to_string(), 2u64),
            ("c".to_string(), 9u64),
        ];
        assert_eq!(compare(&fresh, &golden).len(), 1);
    }
}
