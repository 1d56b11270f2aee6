//! The benchmark's own checks: its names match `BENCHMARK.json`, the digest
//! check catches a corrupted result, the seed changes the inputs but not the
//! metric set, and the served load never exceeds one connection per host
//! thread.

use perfbench::e2e::{self, check_load, job_digests, mismatches, RunConfig};
use perfbench::report::{nproc, Outcome, END_TO_END, PER_LAYER};
use perfbench::serve;
use perfbench::workload::{Inputs, Scale, Workload, WORKLOADS};
use serde_json::Value;

fn tiny(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.01,
        scale: Scale::Tiny,
        nproc: nproc(),
        setups: 1,
    }
}

fn names(value: &Value, key: &str) -> Vec<(String, Option<String>)> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|entry| {
            (
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                entry
                    .get("unit")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            )
        })
        .collect()
}

fn table(rows: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    rows.iter()
        .map(|(name, unit)| (name.to_string(), Some(unit.to_string())))
        .collect()
}

fn emitted(outcome: &Outcome, rows: &[(&str, &str)]) -> Vec<String> {
    let line = outcome.result_line(rows).expect("every metric measured");
    let value: Value = serde_json::from_str(&line).expect("result line is JSON");
    let keys: Vec<&str> = value
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    value
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), table(&PER_LAYER));
    for name in WORKLOADS {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
}

#[test]
fn digest_check_catches_a_corrupted_result() {
    let inputs = Inputs::generate(Workload::Sweep, 7, Scale::Tiny, 1);
    let jobs = &inputs.lists[1].jobs[..4];
    let mut results = e2e::serial_reference(jobs).expect("jobs run");
    let reference = job_digests(&results);
    assert_eq!(mismatches(&results, &reference), 0);
    results[2].summary.l1.read_misses += 1;
    assert_eq!(mismatches(&results, &reference), 1);
    results.pop();
    assert_eq!(
        mismatches(&results, &reference),
        2,
        "a missing result counts"
    );
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    outcome.count(4, 2);
    assert!(!outcome.correct, "a mismatch fails the run");
}

#[test]
fn seed_changes_inputs_but_not_the_metric_set() {
    for workload in [Workload::Sweep, Workload::LongJob, Workload::ServeMix] {
        let a = Inputs::generate(workload, 1, Scale::Tiny, 2);
        let b = Inputs::generate(workload, 2, Scale::Tiny, 2);
        assert_eq!(
            a.fingerprint(),
            Inputs::generate(workload, 1, Scale::Tiny, 2).fingerprint()
        );
        assert_ne!(a.fingerprint(), b.fingerprint(), "{workload:?}");
    }
    let e2e_names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layer_names: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    for seed in [1, 2] {
        let cfg = tiny(seed);
        let mut notes = Vec::new();
        for workload in [Workload::Sweep, Workload::LongJob, Workload::ServeMix] {
            let outcome = e2e::run(workload, &cfg, &mut notes).expect("untraced run");
            assert!(outcome.correct, "{workload:?} seed {seed}: {notes:?}");
            assert_eq!(emitted(&outcome, &END_TO_END), e2e_names);
        }
        let outcome =
            perfbench::layers::run(Workload::LongJob, &cfg, &mut notes).expect("traced run");
        assert!(outcome.correct, "traced long job seed {seed}: {notes:?}");
        assert_eq!(emitted(&outcome, &PER_LAYER), layer_names);
    }
}

#[test]
fn serve_mix_never_holds_more_connections_than_host_threads() {
    let cfg = tiny(3);
    assert!(check_load(cfg.nproc + 1, cfg.nproc).is_err());
    let inputs = Inputs::generate(Workload::ServeMix, cfg.seed, cfg.scale, cfg.nproc);
    assert_eq!(inputs.script.len(), cfg.nproc);
    let served = serve::start(&inputs, cfg.nproc).expect("server starts");
    let run = serve::closed_loop(
        &served.endpoint,
        &inputs,
        &|run| run.passes.raw_s.len() >= 2,
        None,
    );
    served.server.shutdown();
    assert!(run.max_connections >= 1);
    assert!(
        run.max_connections <= cfg.nproc,
        "{} connections on {} host threads",
        run.max_connections,
        cfg.nproc
    );
    assert!(run.records.iter().all(|r| r.results.is_ok()));
}
