//! Smoke check: every workload, on one x1 world, passes its correctness
//! gate and emits every metric `BENCHMARK.json` names, with its unit, in
//! both the untraced and the traced run.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use galois_benchmark::{run, Config, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric listed under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the section's list ends")];
    objects(body)
        .iter()
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

/// The objects of a one-object-per-entry JSON list, each starting at its
/// `name` key (a `why` may itself contain braces).
fn objects(list: &str) -> Vec<String> {
    list.split("{\"name\"")
        .skip(1)
        .map(|object| format!("\"name\"{object}"))
        .collect()
}

fn field(object: &str, key: &str) -> String {
    let key = format!("\"{key}\": \"");
    let at = object.find(&key).expect("metric field") + key.len();
    object[at..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

fn smoke(workload: Workload, trace: bool) {
    let cfg = Config {
        scale: 1,
        worlds: 1,
        setup_reps: 1,
        trace_file: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("smoke-{}.json", workload.name())),
        ..Config::new(workload, 7, 0.0, trace)
    };
    let report = run(&cfg).expect("the run sets up");
    assert!(
        report.correct && report.failed == 0,
        "{} failed its gate:\n{}",
        workload.name(),
        report.text
    );
    assert!(report.attempted >= 46);

    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{} emits other metrics", workload.name());
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));

    let json = report.json();
    for (name, unit) in &want {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    if trace {
        let misses = report
            .metrics
            .iter()
            .find(|m| m.name == "llm.model.transcript_misses")
            .expect("transcript misses are reported");
        assert_eq!(misses.value, 0.0);
        assert!(cfg.trace_file.exists(), "the traced run writes its trace");
    }
}

#[test]
fn paper_cold_emits_every_metric() {
    smoke(Workload::PaperCold, false);
    smoke(Workload::PaperCold, true);
}

#[test]
fn paper_warm_emits_every_metric() {
    smoke(Workload::PaperWarm, false);
    smoke(Workload::PaperWarm, true);
}

#[test]
fn stack_sessions16_emits_every_metric() {
    smoke(Workload::StackSessions16, false);
    smoke(Workload::StackSessions16, true);
}

#[test]
fn every_declared_workload_exists() {
    let list = BENCHMARK_JSON
        .split("\"workloads\"")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("BENCHMARK.json lists workloads");
    let names: Vec<String> = objects(list)
        .iter()
        .map(|object| field(object, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
