//! Smoke run of every workload at reduced size, untraced and traced: the
//! gates pass and the printed metrics are exactly the ones
//! `BENCHMARK.json` declares.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["pool-anchored", "pool-propagation", "serve-ticks"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CM_THREADS", "1")
        .output()
        .expect("the benchmark binary starts")
}

/// Metric names of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted").to_owned())
        .collect()
}

/// Metric names of a result line, in print order.
fn printed(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\":{").expect("metrics object") + 11..];
    let chunks: Vec<&str> = metrics.split(":{\"value\":").collect();
    // Every chunk but the last ends with the next metric's quoted name.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit('"').nth(1))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_workload_passes_its_gates_at_reduced_size() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\":true,"), "{result}");
            assert_eq!(printed(result), declared(section), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "serve-ticks", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "serve-ticks", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "serve-ticks", "--seed", "1", "--seconds", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
