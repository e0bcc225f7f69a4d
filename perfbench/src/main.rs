//! `rega-perfbench`: one seeded benchmark for the rega stack.
//!
//! ```text
//! rega-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-verdict]
//! ```
//!
//! Each invocation runs one workload (`serve-view`, `cluster-plain`,
//! `symbolic-decide`, `symbolic-project`) in this process, checks every
//! verdict against a reference, and prints one JSON result line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `README.md` next to this crate for what each
//! workload and metric is for.

mod ingest;
mod stats;
mod symbolic;
mod tracing;

use serde_json::{json, Value as Json};
use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("proto.decode_us_per_frame", "us"),
    ("proto.decode_ns_per_byte", "ns"),
    ("proto.decode_ns_per_byte.x4", "ns"),
    ("proto.encode_us_per_frame", "us"),
    ("proto.bytes_per_event", "B"),
    ("proto.report_decode_ms", "ms"),
    ("server.rtt_us", "us"),
    ("server.close_ms", "ms"),
    ("tenant.ingest_us_per_batch", "us"),
    ("tenant.event_parse_ns", "ns"),
    ("tenant.open_session_us", "us"),
    ("engine.events_per_s", "1/s"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_depth_peak", "count"),
    ("monitor.step_ns", "ns"),
    ("observer.step_ns", "ns"),
    ("observer.frontier_mean", "count"),
    ("cluster.event_encode_ns", "ns"),
    ("cluster.event_decode_ns", "ns"),
    ("cluster.node_submit_ns", "ns"),
    ("cluster.retries", "count"),
    ("cluster.events_deduped", "count"),
    ("cluster.journal_events", "count"),
    ("cluster.worker_peak_rss_mb", "MiB"),
    ("ingest.unattributed_us_per_event", "us"),
    ("satcache.hit_ratio", "ratio"),
    ("typebits.fast_ratio", "ratio"),
    ("scontrol.build_ms", "ms"),
    ("lasso.search_ms", "ms"),
    ("classes.build_ms", "ms"),
    ("witness.ms", "ms"),
    ("verify.ms", "ms"),
    ("decide.exhaustive_share", "ratio"),
    ("complete.ms", "ms"),
    ("typeops.joint_memo_ratio", "ratio"),
    ("lemma21.dfa_ms", "ms"),
    ("prop20.ms", "ms"),
    ("thm13.ms", "ms"),
    ("thm24.ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The four workloads, in the order the traced run probes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeView,
    ClusterPlain,
    SymbolicDecide,
    SymbolicProject,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServeView,
        Workload::ClusterPlain,
        Workload::SymbolicDecide,
        Workload::SymbolicProject,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeView => "serve-view",
            Workload::ClusterPlain => "cluster-plain",
            Workload::SymbolicDecide => "symbolic-decide",
            Workload::SymbolicProject => "symbolic-project",
        }
    }

    fn run(self, cfg: &RunCfg, tracer: Option<&mut tracing::Tracer>) -> Result<Outcome, String> {
        match self {
            Workload::ServeView => ingest::serve_view(cfg, tracer),
            Workload::ClusterPlain => ingest::cluster_plain(cfg, tracer),
            Workload::SymbolicDecide => symbolic::symbolic_decide(cfg, tracer),
            Workload::SymbolicProject => symbolic::symbolic_project(cfg, tracer),
        }
    }
}

/// One invocation's settings.
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Inputs of a few dozen sessions / queries: every workload in seconds.
    pub tiny: bool,
    /// Flip one reference verdict before the gate compares (self-test).
    pub corrupt: bool,
}

/// What a workload run measured and checked.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every way the outputs differed from the reference; empty when the
    /// run is correct.
    pub mismatches: Vec<String>,
    /// Workload properties and the input fingerprint.
    pub props: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            props: Json::Null,
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: rega-perfbench --workload <serve-view|cluster-plain|symbolic-decide|symbolic-project> \
         --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-verdict]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: Workload::ServeView,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed must be a number")?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--tiny" => cfg.tiny = true,
            "--corrupt-verdict" => cfg.corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    // Cluster workers are re-execs of this binary.
    rega_cluster::maybe_worker_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => return usage(&e),
    };
    match run(&cfg) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(cfg: &RunCfg) -> Result<ExitCode, String> {
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut tracer = match cfg.trace {
        true => Some(
            tracing::Tracer::create(&out_dir.join(format!(
                "trace-{}-seed{}.jsonl",
                cfg.workload.name(),
                cfg.seed
            )))
            .map_err(|e| format!("trace file: {e}"))?,
        ),
        false => None,
    };
    let mut out = cfg.workload.run(cfg, tracer.as_mut())?;
    eprintln!(
        "perfbench: {} seed {} properties {}",
        cfg.workload.name(),
        cfg.seed,
        out.props
    );

    let metrics = if cfg.trace {
        // Layers this workload does not exercise are measured by a
        // tiny-size run of a workload that does, so every traced run
        // reports every layer; read each layer on its own workload.
        for other in Workload::ALL {
            if other == cfg.workload || PER_LAYER.iter().all(|(n, _)| out.layers.has(n)) {
                continue;
            }
            let probe_cfg = RunCfg {
                workload: other,
                seed: cfg.seed,
                seconds: 0.0,
                trace: true,
                tiny: true,
                corrupt: false,
            };
            let probe = other.run(&probe_cfg, None)?;
            out.mismatches.extend(
                probe
                    .mismatches
                    .iter()
                    .map(|m| format!("{} probe: {m}", other.name())),
            );
            out.layers.fill_from(&probe.layers);
        }
        match tracer.take().map(tracing::Tracer::finish) {
            Some(Ok(desc)) => eprintln!("perfbench: trace {desc}"),
            Some(Err(e)) => out
                .mismatches
                .push(format!("the span JSONL does not parse: {e}")),
            None => {}
        }
        select(&out.layers, &PER_LAYER)
    } else {
        select(&out.e2e, &END_TO_END)
    };
    let missing: Vec<&str> = if cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .filter(|(n, _)| metrics.get(n).is_none())
    .map(|(n, _)| *n)
    .collect();
    if !missing.is_empty() {
        out.mismatches
            .push(format!("metrics not measured: {missing:?}"));
    }
    for m in &out.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let correct = out.mismatches.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": metrics.to_json(),
    });
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The listed metrics of `all`, with the listed units.
fn select(all: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        if let Some(v) = all.get(name) {
            out.set(name, v, unit);
        }
    }
    out
}
