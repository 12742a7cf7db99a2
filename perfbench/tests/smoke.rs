//! Tiny-size runs of every workload, and a check that an unfinished run
//! is reported as a failure rather than as a fast one.

use std::time::Duration;

use rupam_cluster::{ClusterSpec, NodeId};
use rupam_exec::scheduler::{Command, OfferInput, Scheduler};
use rupam_perfbench::report::{END_TO_END, PER_LAYER};
use rupam_perfbench::serve::ServeShape;
use rupam_perfbench::spans::SpanLog;
use rupam_perfbench::{run, run_traced, rupam_default, tiny_shape, Shape, WORKLOADS};
use rupam_simcore::units::ByteSize;

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for name in WORKLOADS {
        let shape = tiny_shape(name).expect("known workload");
        let out =
            run(&shape, 7, 1.0, rupam_default).unwrap_or_else(|f| panic!("{name}: {}", f.reason));
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let metrics = out.values.select(END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name_m, value, unit), (want, want_unit)) in metrics.iter().zip(END_TO_END) {
            assert_eq!((name_m, unit), (want, want_unit));
            assert!(
                *value > 0.0 && value.is_finite(),
                "{name}: {name_m} = {value}"
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_accounts_for_wall_time() {
    for name in WORKLOADS {
        let shape = tiny_shape(name).expect("known workload");
        let mut log = SpanLog::new();
        let out = run_traced(&shape, 7, rupam_default, &mut log)
            .unwrap_or_else(|f| panic!("{name}: {}", f.reason));
        let metrics = out.values.select(PER_LAYER);
        let names: Vec<_> = metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert!(!log.spans.is_empty());
        let get = |m: &str| out.values.get(m).unwrap_or(0.0);
        assert!(get("core.offer_round.calls") > 0.0, "{name}");
        assert!(get("core.share") > 0.0 && get("core.share") < 1.0, "{name}");
        match shape {
            Shape::Sim(_) => {
                // scheduler time plus engine self time is the simulate call
                let sum = get("core.share") + get("exec.share");
                assert!((sum - 1.0).abs() < 1e-6, "{name}: shares sum to {sum}");
                assert!(get("exec.events") > 0.0);
            }
            Shape::Serve(_) => assert!(get("serve.non_sched_s") > 0.0, "{name}"),
        }
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    let listed: Vec<&str> = json
        .split("{\"name\": \"")
        .skip(1)
        .filter(|entry| entry.contains("\"why\""))
        .map(|entry| &entry[..entry.find('"').expect("quoted name")])
        .collect();
    assert!(listed.len() >= 2, "BENCHMARK.json lists {listed:?}");
    for name in listed {
        assert!(WORKLOADS.contains(&name), "{name} is not a workload");
    }
}

/// RUPAM with every launch it decides on thrown away.
struct SwallowLaunches(Box<dyn Scheduler + Send>);

impl Scheduler for SwallowLaunches {
    fn name(&self) -> &str {
        "swallow-launches"
    }

    fn executor_memory(&self, cluster: &ClusterSpec, node: NodeId) -> ByteSize {
        self.0.executor_memory(cluster, node)
    }

    fn offer_round(&mut self, input: &OfferInput<'_>) -> Vec<Command> {
        let mut commands = self.0.offer_round(input);
        commands.retain(|c| !matches!(c, Command::Launch { .. }));
        commands
    }
}

fn swallowing() -> Box<dyn Scheduler + Send> {
    Box::new(SwallowLaunches(rupam_default()))
}

#[test]
fn unfinished_serve_run_fails_instead_of_reporting_a_fast_wall() {
    let Some(Shape::Serve(tiny)) = tiny_shape("serve_burst") else {
        panic!("serve_burst is a serve workload");
    };
    let shape = Shape::Serve(ServeShape {
        max_wall: Duration::from_millis(300),
        ..tiny
    });
    let failure = run(&shape, 7, 1.0, swallowing).expect_err("no task ever runs");
    assert_eq!(failure.failed_frac(), 1.0, "{}", failure.reason);
    assert!(
        failure.reason.contains("unclean drain"),
        "{}",
        failure.reason
    );
}

#[test]
fn unfinished_simulation_fails_instead_of_reporting_a_fast_wall() {
    let shape = tiny_shape("sim_saturated").expect("known workload");
    let failure = run(&shape, 7, 1.0, swallowing).expect_err("no task ever runs");
    assert_eq!(failure.failed_frac(), 1.0, "{}", failure.reason);
}
