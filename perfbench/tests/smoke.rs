//! Smoke test of the benchmark itself: every workload runs at tiny size,
//! untraced and traced, and prints every metric `BENCHMARK.json` names
//! exactly once with its unit; and every correctness check trips on a
//! perturbed output — a check that cannot fail measures nothing.

use funnel_core::report::render;
use funnel_core::{Funnel, ItemAssessment, Verdict};
use funnel_perfbench::deploy::{self, DeployInput};
use funnel_perfbench::ingest::{self, IngestInput};
use funnel_perfbench::stream::{self, StreamInput, StreamShape};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    let entries = value.as_object().expect("a JSON object");
    serde::find_field(entries, key).unwrap_or_else(|| panic!("no field {key}"))
}

fn text(value: &Value) -> String {
    value.as_str().expect("a JSON string").to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
    field(doc, section)
        .as_array()
        .expect("an array")
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

fn result_line(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_funnel-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let workloads: Vec<String> = field(&doc, "workloads")
        .as_array()
        .expect("an array")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(
        workloads,
        ["deploy_assess", "ingest_durable", "stream_live"]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = result_line(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            let printed: Vec<(String, String)> = field(&result, "metrics")
                .as_object()
                .expect("an object")
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(field(m, "value"), Value::Num(_)), "{name}");
                    (name.clone(), text(field(m, "unit")))
                })
                .collect();
            assert_eq!(printed, listed(&doc, section), "{workload} --trace {trace}");
        }
    }
}

fn flip(item: &mut ItemAssessment) {
    item.caused = !item.caused;
    item.verdict = if item.caused {
        Verdict::Caused
    } else {
        Verdict::NotCaused
    };
}

#[test]
fn assess_check_trips_on_one_flipped_verdict() {
    let input = DeployInput::build(7, 2, 2);
    let funnel = Funnel::new(input.config(1));
    let runs = deploy::assess_pass(&funnel, &input.snapshot, &input, None);
    let reference: Vec<Option<u64>> = runs.iter().map(|r| r.fingerprint).collect();
    assert!(deploy::mismatches(&reference, &reference).is_empty());

    let topology = input.world.topology();
    let change = &input.changes[0];
    let kinds = |s| input.kinds.get(&s).cloned().unwrap_or_default();
    let mut assessment = funnel
        .assess_change_with(&input.snapshot, topology, change, &kinds)
        .expect("assessable");
    let diag = funnel.diagnose(&input.snapshot, topology, change, &assessment);
    let report = render(topology, &assessment);
    assert_eq!(
        Some(deploy::fingerprint(&assessment, &report, diag.as_ref())),
        reference[0]
    );
    flip(&mut assessment.items[0]);
    let mut observed = reference.clone();
    observed[0] = Some(deploy::fingerprint(&assessment, &report, diag.as_ref()));
    assert_eq!(deploy::mismatches(&reference, &observed), [0]);
}

#[test]
fn ingest_check_trips_on_one_altered_store_value() {
    let deploy = DeployInput::build(7, 2, 0);
    let minutes = 15;
    let input = IngestInput::encode(&deploy.world, &deploy.snapshot, minutes);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ingest-check");
    let pass = ingest::ingest_pass(&deploy.world, &input, &deploy.snapshot, &dir, None)
        .expect("ingest runs");
    assert_eq!(pass.failures, 0);

    let run = ingest::ingest_and_recover(&deploy.world, &input, &dir, None).expect("ingest runs");
    let (live, recovered) = (&run.live, &run.recovered.store);
    assert!(ingest::check(live, recovered, &deploy.snapshot, minutes).is_empty());
    let key = recovered.keys()[0];
    let mut series = recovered.get(&key).expect("recovered key");
    series.values_mut()[3] += 1e-6;
    recovered.insert(key, series.clone());
    assert!(!ingest::check(live, recovered, &deploy.snapshot, minutes).is_empty());
    live.insert(key, series);
    let failures = ingest::check(live, recovered, &deploy.snapshot, minutes);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("differs from the world"));
}

#[test]
fn stream_check_trips_on_one_flipped_verdict() {
    let shape = StreamShape {
        duration: 260,
        change_minutes: vec![140, 150, 160],
        full_launch: Some(2),
        rate: 5000.0,
    };
    let input = StreamInput::build(7, &shape);
    let pass = stream::stream_pass(&input, None).expect("stream runs");
    let want = stream::reference(&input);
    assert!(stream::check(&want, &pass.completed).is_empty());

    let change = &input.changes[0];
    let mut items = Funnel::new(StreamInput::config())
        .assess_change_with(&input.series, input.world.topology(), change, &|s| {
            input.kinds.get(&s).cloned().unwrap_or_default()
        })
        .expect("assessable")
        .items;
    assert_eq!(Some(stream::items_fingerprint(&items)), want[&change.id]);
    flip(&mut items[0]);
    let mut completed = pass.completed.clone();
    let at = completed
        .iter()
        .position(|(id, _)| *id == change.id)
        .expect("change completed");
    completed[at].1 = stream::items_fingerprint(&items);
    assert_eq!(stream::check(&want, &completed).len(), 1);
    completed.remove(at);
    assert_eq!(stream::check(&want, &completed).len(), 1);
}
