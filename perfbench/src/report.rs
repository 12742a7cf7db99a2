//! Metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("tasks_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("sim_jct_mean_s", "s"),
    ("sim_makespan_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.offer_round.calls", "count"),
    ("core.offer_round.total_s", "s"),
    ("core.offer_round.mean_us", "us"),
    ("core.offer_round.p50_us", "us"),
    ("core.offer_round.p99_us", "us"),
    ("core.share", "ratio"),
    ("core.offer.pending_mean", "count"),
    ("core.offer.changed_mean", "count"),
    ("core.offer.speculatable_mean", "count"),
    ("core.offer.empty_pending_rounds", "count"),
    ("core.cmd.launch", "count"),
    ("core.cmd.spec_launch", "count"),
    ("core.cmd.kill", "count"),
    ("core.task_finished.calls", "count"),
    ("core.task_finished.total_s", "s"),
    ("core.task_finished.mean_us", "us"),
    ("core.other_callbacks.total_s", "s"),
    ("exec.self_s", "s"),
    ("exec.share", "ratio"),
    ("exec.events", "count"),
    ("exec.self_ns_per_event", "ns"),
    ("exec.snapshot_rows_mean", "count"),
    ("exec.attempts", "count"),
    ("exec.launch_accept_ratio", "ratio"),
    ("exec.spec_win_ratio", "ratio"),
    ("exec.oom_failures", "count"),
    ("exec.executor_losses", "count"),
    ("serve.dispatch_p50_us", "us"),
    ("serve.dispatch_p99_us", "us"),
    ("serve.driver_offer_p50_us", "us"),
    ("serve.driver_offer_p95_us", "us"),
    ("serve.offer_rounds", "count"),
    ("serve.max_pending", "count"),
    ("serve.non_sched_s", "s"),
    ("serve.launch_drop_ratio", "ratio"),
    ("serve.failed_attempts", "count"),
    ("serve.submit_block_s", "s"),
    ("serve.slo_miss_frac", "ratio"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("setup.stream_build_s", "s"),
    ("setup.server_start_s", "s"),
    ("metrics.decision_trace_ratio", "ratio"),
    ("metrics.trace_recorded", "count"),
    ("metrics.trace_dropped", "count"),
    ("bench.tracing_overhead_ratio", "ratio"),
    ("bench.spans", "count"),
    ("e2e.job_latency_p99_ms", "ms"),
    ("e2e.latency_samples", "count"),
    ("e2e.latency_tail_pct", "pct"),
];

/// Named measurements of one run, before they are matched to a catalogue.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` to `value`. Panics on a name outside the catalogues or
    /// a value that is not finite, both bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in no catalogue"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `catalogue` with its unit, in catalogue order;
    /// unset metrics read 0.
    pub fn select(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        catalogue
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

/// A run that passed every check.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs submitted across the run.
    pub attempted: u64,
    /// Submitted jobs that did not complete.
    pub failed: u64,
    /// Everything measured.
    pub values: Values,
    /// Human-readable lines: sample counts, percentiles used, checks.
    pub notes: Vec<String>,
}

/// A run that failed a correctness check. It reports no timings.
#[derive(Debug)]
pub struct Failure {
    /// Jobs submitted before the check failed.
    pub attempted: u64,
    /// Submitted jobs that did not complete.
    pub failed: u64,
    /// What went wrong.
    pub reason: String,
}

impl Failure {
    /// Jobs not completed ÷ jobs submitted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit() {
        let line = json_line(true, 3, 0, &[("wall_s", 1.2345678901, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.2345678901, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }
}
