//! Tiny-scale smoke test of the benchmark: every workload in both
//! modes, every metric `BENCHMARK.json` names, every cross-check
//! passing, and the default and held-out seeds giving different
//! digests.
//!
//! ```text
//! cargo test --release --manifest-path simbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["warm-chain", "time-travel", "shard-sweep"];

/// The `name` fields of one metric list in `BENCHMARK.json`.
fn metric_names(manifest: &str, list: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("metric list is closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("name has a string value");
            value.to_string()
        })
        .collect()
}

struct Run {
    stdout_last: String,
    stderr: String,
}

fn run(workload: &str, trace: u8, seed: u64) -> Run {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--scale", "tiny", "--seconds", "0"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("run simbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}:\n{stderr}",
        out.status
    );
    Run {
        stdout_last: stdout.lines().last().unwrap_or_default().to_string(),
        stderr,
    }
}

fn digest(stderr: &str) -> String {
    stderr
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line")
        .to_string()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("read BENCHMARK.json");
    let lists = [
        metric_names(&manifest, "end_to_end"),
        metric_names(&manifest, "per_layer"),
    ];
    assert!(lists.iter().all(|l| !l.is_empty()));
    for workload in WORKLOADS {
        for (trace, names) in lists.iter().enumerate() {
            let r = run(workload, trace as u8, 2019);
            let line = &r.stdout_last;
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{workload} trace {trace}: {line}\n{}",
                r.stderr
            );
            for name in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace {trace} does not emit {name}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                names.len(),
                "{workload} trace {trace} emits metrics BENCHMARK.json does not name"
            );
        }
    }
    // The default and the held-out seed both run clean and differ.
    let default = run("time-travel", 0, 2019);
    let held_out = run("time-travel", 0, 52);
    assert!(held_out.stdout_last.contains("\"failed\": 0, "));
    assert_ne!(digest(&default.stderr), digest(&held_out.stderr));
}
