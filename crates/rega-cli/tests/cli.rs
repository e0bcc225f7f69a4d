//! End-to-end tests of the `rega` binary against the bundled spec files.

use std::process::Command;

fn rega() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rega"))
}

fn repo_spec(name: &str) -> String {
    format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn empty_on_example1_reports_nonempty() {
    let out = rega()
        .args(["empty", &repo_spec("example1.rega")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("non-empty"));
    assert!(stdout.contains("ultimately periodic run"));
}

#[test]
fn lr_on_all_distinct_reports_unbounded() {
    let out = rega()
        .args(["lr", &repo_spec("all_distinct.rega")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("not LR-bounded"));
}

#[test]
fn lr_on_example5_reports_bounded() {
    let out = rega()
        .args(["lr", &repo_spec("example5.rega")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("LR-bounded"));
}

#[test]
fn verify_both_verdicts() {
    let holds = rega()
        .args([
            "verify",
            &repo_spec("example1.rega"),
            "G stable2",
            "stable2=x2 = y2",
        ])
        .output()
        .expect("binary runs");
    assert!(holds.status.success());
    assert!(String::from_utf8_lossy(&holds.stdout).contains("holds"));

    let fails = rega()
        .args([
            "verify",
            &repo_spec("example1.rega"),
            "G stable1",
            "stable1=x1 = y1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(fails.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&fails.stdout).contains("counterexample"));
}

#[test]
fn project_emits_reparsable_spec() {
    let out = rega()
        .args(["project", &repo_spec("example1.rega"), "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let spec = String::from_utf8_lossy(&out.stdout);
    assert!(spec.contains("registers 1"));
    // The emitted view's transitions parse back (constraints are DFAs and
    // are emitted as comments).
    rega_core::spec::parse_spec(&spec).expect("round-trips");
}

#[test]
fn dot_output_shape() {
    let out = rega()
        .args(["dot", &repo_spec("example5.rega")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("legend"));
}

#[test]
fn echo_round_trips() {
    let out = rega()
        .args(["echo", &repo_spec("example1.rega")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let spec = String::from_utf8_lossy(&out.stdout);
    let reparsed = rega_core::spec::parse_spec(&spec).expect("round-trips");
    assert_eq!(reparsed.ra().num_states(), 2);
    assert_eq!(reparsed.ra().num_transitions(), 3);
}

#[test]
fn empty_proposition_rejected() {
    let out = rega()
        .args(["verify", &repo_spec("example1.rega"), "G p", "p="])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("empty formula"));
}

#[test]
fn project_beyond_k_errors_cleanly() {
    let out = rega()
        .args(["project", &repo_spec("example5.rega"), "5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported projection"));
}

/// A scratch path under the target directory, unique per test.
fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("{name}_{}", std::process::id()));
    p
}

#[test]
fn trace_json_then_trace_report_round_trip() {
    let trace = scratch("trace_roundtrip.jsonl");
    let out = rega()
        .args([
            "empty",
            &repo_spec("example1.rega"),
            "--trace-json",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Every line is a JSON object with the pinned `kind` discriminator.
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
    }

    let report = rega()
        .args(["trace-report", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        report.status.success(),
        "trace-report must parse its own output"
    );
    let rendered = String::from_utf8_lossy(&report.stdout);
    assert!(rendered.contains("wall-time tree"));
    assert!(rendered.contains("emptiness.check"));
    assert!(rendered.contains("emptiness.on_the_fly.search"));
    assert!(rendered.contains("satcache hit ratio"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_report_rejects_garbage() {
    let path = scratch("trace_garbage.jsonl");
    std::fs::write(&path, "not json\n").unwrap();
    let out = rega()
        .args(["trace-report", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn monitor_metrics_interval_emits_jsonl_snapshots() {
    let events = scratch("monitor_events.jsonl");
    // Valid example1 runs: q1 → q2 → q2 with both registers pinned to one
    // per-session value satisfies every transition type on the way.
    let mut lines = String::new();
    for s in 0..8 {
        let v = s + 1;
        for state in ["q1", "q2", "q2"] {
            lines.push_str(&format!(
                "{{\"session\":\"s{s}\",\"state\":\"{state}\",\"regs\":[{v},{v}]}}\n"
            ));
        }
        lines.push_str(&format!("{{\"session\":\"s{s}\",\"end\":true}}\n"));
    }
    std::fs::write(&events, lines).unwrap();

    let out = rega()
        .args([
            "monitor",
            &repo_spec("example1.rega"),
            "--events",
            events.to_str().unwrap(),
            "--metrics-interval-ms",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stderr carries at least one JSONL metrics snapshot (the final one is
    // always emitted on shutdown), each a parseable snapshot object.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut snapshots = 0;
    for line in stderr.lines().filter(|l| l.starts_with('{')) {
        let v: serde_json::Value = serde_json::from_str(line).expect("snapshot is JSON");
        assert!(v.get("events").is_some());
        assert!(v.get("queues").is_some());
        snapshots += 1;
    }
    assert!(
        snapshots >= 1,
        "expected at least one snapshot, stderr: {stderr}"
    );

    // The final stdout summary is unaffected.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary: serde_json::Value = serde_json::from_str(&stdout).expect("summary is JSON");
    assert_eq!(summary.get("sessions").and_then(|v| v.as_u64()), Some(8));
    let _ = std::fs::remove_file(&events);
}

#[test]
fn bad_usage_and_bad_file() {
    let out = rega().args(["frobnicate"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = rega()
        .args(["empty", "/nonexistent.rega"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// The `cluster` subcommand run over real worker processes (with a forced
/// live migration mid-stream) must reach exactly the verdicts of a plain
/// single-process `monitor` run — the differential the whole scale-out
/// design is pinned to, here at the CLI surface.
#[test]
fn cluster_matches_monitor_verdicts_through_a_migration() {
    let spec = scratch("cluster_spec.ra");
    // Violating sessions: `x1 != y1` forces register inequality, so any
    // repeated value violates. Mixed verdicts make the diff meaningful.
    std::fs::write(
        &spec,
        "registers 1\nstate p init accept\ntrans p -> p : x1 != y1\n",
    )
    .unwrap();
    let events = scratch("cluster_events.jsonl");
    let mut lines = String::new();
    for i in 0..40u64 {
        let session = i % 4;
        // Sessions 0 and 2 repeat a value (violation); 1 and 3 stay fresh.
        let value = if session % 2 == 0 { i % 2 } else { 100 + i };
        lines.push_str(&format!(
            "{{\"session\": \"s-{session}\", \"state\": \"p\", \"regs\": [{value}]}}\n"
        ));
    }
    std::fs::write(&events, lines).unwrap();

    let monitor = rega()
        .args([
            "monitor",
            spec.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--seed",
            "0",
        ])
        .output()
        .expect("binary runs");
    let cluster = rega()
        .args([
            "cluster",
            spec.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--procs",
            "3",
            "--migrate-at",
            "20",
            "--migrate-from",
            "0",
            "--migrate-to",
            "2",
        ])
        .output()
        .expect("binary runs");
    let m: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&monitor.stdout))
        .expect("monitor summary is JSON");
    let c: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&cluster.stdout))
        .expect("cluster summary is JSON");
    assert_eq!(m["sessions"], c["sessions"], "same session universe");
    assert_eq!(
        m["violations"], c["violations"],
        "byte-identical verdict streams across the migration"
    );
    assert_eq!(c["cluster"]["migrations"].as_u64(), Some(1));
    assert!(c["cluster"]["sessions_migrated"].as_u64().unwrap() >= 1);
    assert_eq!(
        c["cluster"]["events_routed"].as_u64(),
        Some(40),
        "zero event loss through the forced migration"
    );
    // Both runs flag the same violations, so both exit 1.
    assert_eq!(monitor.status.code(), Some(1));
    assert_eq!(cluster.status.code(), Some(1));
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&events);
}

/// Sim mode is the same CLI surface with deterministic chaos: the same
/// seed twice must print the identical summary.
#[test]
fn cluster_sim_mode_is_reproducible() {
    let spec = scratch("cluster_sim_spec.ra");
    std::fs::write(
        &spec,
        "registers 1\nstate p init accept\ntrans p -> p : x1 = x1\n",
    )
    .unwrap();
    let events = scratch("cluster_sim_events.jsonl");
    let mut lines = String::new();
    for i in 0..30u64 {
        lines.push_str(&format!(
            "{{\"session\": \"s-{}\", \"state\": \"p\", \"regs\": [{i}]}}\n",
            i % 5
        ));
    }
    std::fs::write(&events, lines).unwrap();
    let run = || {
        rega()
            .args([
                "cluster",
                spec.to_str().unwrap(),
                "--events",
                events.to_str().unwrap(),
                "--sim",
                "--procs",
                "3",
                "--seed",
                "42",
                "--crash-prob",
                "0.05",
                "--rebalance-at",
                "10,20",
                "--checkpoint-every",
                "4",
            ])
            .output()
            .expect("binary runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "seeded chaos must be bit-for-bit reproducible"
    );
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&events);
}

/// Flags one transport would silently ignore are usage errors: chaos
/// knobs need `--sim`, and `--sim` keeps its checkpoints in memory.
#[test]
fn cluster_rejects_flags_the_transport_would_ignore() {
    let spec = scratch("cluster_flags_spec.ra");
    std::fs::write(
        &spec,
        "registers 1\nstate p init accept\ntrans p -> p : x1 = x1\n",
    )
    .unwrap();
    let events = scratch("cluster_flags_events.jsonl");
    std::fs::write(
        &events,
        "{\"session\": \"s\", \"state\": \"p\", \"regs\": [1]}\n",
    )
    .unwrap();
    let (spec_arg, events_arg) = (spec.to_str().unwrap(), events.to_str().unwrap());
    for extra in [
        &["--crash-prob", "0.1"][..],
        &["--rebalance-at", "3"][..],
        &["--sim", "--snapshot-dir", "snaps"][..],
    ] {
        let out = rega()
            .args(["cluster", spec_arg, "--events", events_arg, "--procs", "1"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{extra:?} must be a usage error"
        );
        assert!(out.stdout.is_empty(), "{extra:?} must not run the cluster");
    }
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&events);
}
