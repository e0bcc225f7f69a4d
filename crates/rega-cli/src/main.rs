//! `rega` — the command-line interface.
//!
//! ```text
//! rega empty <spec>                 decide emptiness (Corollary 10)
//! rega verify <spec> <formula> p=<qf> [q=<qf> …]
//!                                   LTL-FO model checking (Theorem 12)
//! rega project <spec> <m>           projection view (Prop 20 / Thm 13)
//! rega lr <spec>                    LR-boundedness (Theorem 18)
//! rega dot <spec>                   Graphviz export
//! rega echo <spec>                  parse and re-render the spec
//! rega monitor <spec> --events <file.jsonl> [--shards N] [--workers N]
//!                     [--view M] [--seed N] [--submit-timeout-ms N]
//!                     [--quarantine-cap N] [--metrics-interval-ms N]
//!                                   stream multi-session monitoring
//! rega serve [--listen ADDR] [--max-tenants N] [--max-conns N]
//!            [--max-specs N] [--max-sessions N] [--quarantine-cap N]
//!            [--shards N] [--workers N] [--queue-capacity N]
//!            [--submit-timeout-ms N] [--metrics-interval-ms N]
//!            [--access-log] [--slow-ms N]
//!                                   multi-tenant TCP monitoring service
//!                                   (--queue-capacity: events buffered per
//!                                   shard; each engine worker's queue holds
//!                                   that many per shard it owns)
//! rega cluster <spec> --events <file.jsonl|-> [--procs N] [--view M]
//!              [--seed N] [--snapshot-dir DIR] [--checkpoint-every N]
//!              [--migrate-at K] [--migrate-from N] [--migrate-to N]
//!              [--sim] [--crash-prob P] [--rebalance-at K,K,…]
//!                                   multi-process (or, with --sim,
//!                                   deterministic simulated) scale-out
//!                                   monitoring with live migration
//! rega trace-report <trace.jsonl> [--by-request]
//!                   [--metrics-snapshot <snapshot.json>]
//!                                   per-phase wall-time tree of a trace,
//!                                   optionally grouped per request id
//! ```
//!
//! Every command additionally accepts the global flags:
//!
//! * `--trace-json <path>` — record a structured JSONL trace (spans +
//!   events from the construction pipeline) to `path` for later
//!   inspection with `rega trace-report`;
//! * `--timeout-ms <N>` / `--max-nodes <N>` — bound every exponential
//!   construction behind the command (completion, `SControl`, emptiness,
//!   projection, spec compilation) with a wall-clock deadline and/or an
//!   expansion-count ceiling. A tripped budget prints one structured JSON
//!   error line on stderr and exits with code 3.
//!
//! Exit codes: `0` success / positive verdict, `1` negative verdict (or
//! monitoring errors), `2` usage or input errors, `3` resource budget
//! tripped, `4` internal panic, `130` interrupted by ctrl-c. A
//! SIGTERM/SIGINT against `rega serve` is *not* an interruption: the
//! server drains every tenant engine, prints the final report, and exits
//! `0` — the clean-shutdown path a supervisor expects.
//!
//! With `--seed`, `monitor` runs the deterministic simulation scheduler
//! (single-threaded, seeded interleavings, simulated clock) instead of the
//! worker pool — the same events and seed always produce the same summary.
//! With `--metrics-interval-ms`, `monitor` emits one JSONL metrics
//! snapshot per interval on stderr while the run is in flight.
//!
//! Specs use the format of `rega_core::spec`. LTL-FO propositions are
//! quantifier-free formulas in the same literal syntax, e.g.
//! `stable=x1 = y1` or `inP=P(x1)`; the skeleton references them by name:
//! `"G stable"`.

use rega_analysis::emptiness::{check_emptiness_governed, EmptinessOptions, EmptinessVerdict};
use rega_analysis::lr::{is_lr_bounded, LrOptions};
use rega_analysis::verify::{verify, VerifyOptions, VerifyResult};
use rega_core::spec::{parse_spec, to_spec};
use rega_core::{Budget, BudgetSpec, CoreError, ExtendedAutomaton, GovernError};
use rega_data::SatCache;
use rega_logic::LtlFo;
use std::process::ExitCode;

/// Signal wiring lives in `rega_serve::signal` now — one handler covering
/// both SIGINT (a terminal's ctrl-c) and SIGTERM (a supervisor's stop),
/// shared between the batch commands here and the long-running `rega
/// serve`. The handler flips both the process-wide "interrupted" marker
/// (so exits report 130, not 3) and the budget's leaked cancellation flag
/// (so governed loops unwind with [`GovernError::Cancelled`]).
use rega_serve::signal as sigint;

/// Prints the structured budget-trip error line and picks the exit code:
/// 130 when the trip is a ctrl-c cancellation, 3 for every genuine limit.
fn govern_trip(g: &GovernError) -> ExitCode {
    let json = serde_json::json!({
        "error": "resource-budget",
        "kind": g.kind(),
        "phase": g.phase(),
        "nodes": g.nodes(),
        "elapsed_ms": g.elapsed_ms(),
        "message": g.to_string(),
    });
    eprintln!(
        "{}",
        serde_json::to_string(&json).unwrap_or_else(|_| g.to_string())
    );
    if matches!(g, GovernError::Cancelled { .. }) && sigint::triggered() {
        ExitCode::from(130)
    } else {
        ExitCode::from(3)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rega empty <spec-file>\n  rega verify <spec-file> <ltl-skeleton> name=<qf> …\n  \
         rega project <spec-file> <m>\n  rega lr <spec-file>\n  rega dot <spec-file>\n  \
         rega echo <spec-file>\n  \
         rega monitor <spec-file> --events <file.jsonl|-> [--shards N] [--workers N] [--view M]\n  \
         {:12}[--seed N] [--submit-timeout-ms N] [--quarantine-cap N] [--metrics-interval-ms N]\n  \
         rega cluster <spec-file> --events <file.jsonl|-> [--procs N] [--view M] [--seed N]\n  \
         {:12}[--snapshot-dir DIR] [--checkpoint-every N] [--migrate-at K]\n  \
         {:12}[--migrate-from N] [--migrate-to N] [--sim] [--crash-prob P] [--rebalance-at K,K,…]\n  \
         rega serve [--listen ADDR] [--max-tenants N] [--max-conns N] [--max-specs N]\n  \
         {:10}[--max-sessions N] [--quarantine-cap N] [--shards N] [--workers N]\n  \
         {:10}[--queue-capacity N] [--submit-timeout-ms N] [--metrics-interval-ms N]\n  \
         {:10}[--access-log] [--slow-ms N]\n  \
         rega trace-report <trace.jsonl> [--by-request] [--metrics-snapshot <snapshot.json>]\n\
         global flags:\n  --trace-json <path>   record a structured JSONL trace of the run\n  \
         --timeout-ms <N>      wall-clock deadline for the symbolic constructions\n  \
         --max-nodes <N>       expansion-count ceiling for the symbolic constructions\n\
         exit codes: 0 ok, 1 negative verdict, 2 usage/input error, 3 budget tripped,\n  \
         {:10}4 internal panic, 130 interrupted (`rega serve` drains and exits 0 on\n  \
         {:10}SIGTERM/SIGINT)",
        "", "", "", "", "", "", "", ""
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<ExtendedAutomaton, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_spec(&text).map_err(|e| e.to_string())
}

/// Parses a proposition definition `name=<qf>` where `<qf>` is a
/// comma-separated conjunction of literals in the spec syntax, re-using the
/// spec literal parser through a scratch automaton.
fn parse_prop(def: &str, ext: &ExtendedAutomaton) -> Result<(String, rega_data::Qf), String> {
    let (name, body) = def
        .split_once('=')
        .ok_or_else(|| format!("proposition `{def}` must have the form name=<formula>"))?;
    if body.trim().is_empty() {
        return Err(format!(
            "proposition `{}` has an empty formula (a bare name would be trivially true)",
            name.trim()
        ));
    }
    // Reuse the transition parser: wrap the body in a one-transition spec.
    let schema = ext.ra().schema();
    let mut scratch = format!("registers {}\n", ext.ra().k());
    if !schema.is_empty() {
        let mut entries: Vec<String> = schema
            .relations()
            .map(|r| format!("{}/{}", schema.relation_name(r), schema.arity(r)))
            .collect();
        entries.extend(
            schema
                .constants()
                .map(|c| format!("const {}", schema.constant_name(c))),
        );
        scratch.push_str(&format!("schema {{ {} }}\n", entries.join(", ")));
    }
    scratch.push_str("state s init accept\n");
    scratch.push_str(&format!("trans s -> s : {}\n", body.trim()));
    let parsed =
        parse_spec(&scratch).map_err(|e| format!("in proposition `{name}`: {}", e.message))?;
    let ty = parsed.ra().transition(rega_core::TransId(0)).ty.clone();
    let parts: Vec<rega_data::Qf> = ty
        .literals()
        .map(|l| match l {
            rega_data::Literal::Eq(s, t) => rega_data::Qf::Eq(term_to_qf(*s), term_to_qf(*t)),
            rega_data::Literal::Neq(s, t) => rega_data::Qf::neq(term_to_qf(*s), term_to_qf(*t)),
            rega_data::Literal::Rel {
                rel,
                args,
                positive,
            } => {
                let atom = rega_data::Qf::Rel(*rel, args.iter().map(|a| term_to_qf(*a)).collect());
                if *positive {
                    atom
                } else {
                    rega_data::Qf::Not(Box::new(atom))
                }
            }
        })
        .collect();
    Ok((name.trim().to_string(), rega_data::Qf::And(parts)))
}

fn term_to_qf(t: rega_data::Term) -> rega_data::QfTerm {
    match t {
        rega_data::Term::X(i) => rega_data::QfTerm::X(i),
        rega_data::Term::Y(i) => rega_data::QfTerm::Y(i),
        rega_data::Term::Const(c) => rega_data::QfTerm::Const(c),
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flag: `--trace-json <path>` installs a JSONL trace sink for
    // the whole invocation; the guard flushes on exit.
    let mut _trace_guard = None;
    if let Some(pos) = args.iter().position(|a| a == "--trace-json") {
        let path = args
            .get(pos + 1)
            .cloned()
            .ok_or_else(|| "--trace-json needs a path".to_string())?;
        args.drain(pos..pos + 2);
        _trace_guard = Some(
            rega_obs::install_jsonl(std::path::Path::new(&path))
                .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
        );
    }
    // Global flags: `--timeout-ms <N>` / `--max-nodes <N>` bound every
    // governed construction behind the command. The budget is started even
    // without limits so its cancellation token gives ctrl-c a cooperative
    // exit path through the symbolic constructions.
    let mut bspec = BudgetSpec::none();
    if let Some(pos) = args.iter().position(|a| a == "--timeout-ms") {
        let ms: u64 = args
            .get(pos + 1)
            .ok_or_else(|| "--timeout-ms needs a value".to_string())?
            .parse()
            .map_err(|_| "--timeout-ms must be a number".to_string())?;
        args.drain(pos..pos + 2);
        bspec.deadline_ms = Some(ms);
    }
    if let Some(pos) = args.iter().position(|a| a == "--max-nodes") {
        let n: u64 = args
            .get(pos + 1)
            .ok_or_else(|| "--max-nodes needs a value".to_string())?
            .parse()
            .map_err(|_| "--max-nodes must be a number".to_string())?;
        args.drain(pos..pos + 2);
        bspec.max_nodes = Some(n);
    }
    let budget = Budget::start(&bspec);
    sigint::install(budget.cancel_token().leaked_flag());
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "empty" => {
            let [_, path] = &args[..] else {
                return Ok(usage());
            };
            let ext = load(path)?;
            let cache = SatCache::new(ext.ra().schema().clone());
            let verdict =
                match check_emptiness_governed(&ext, &EmptinessOptions::default(), &cache, &budget)
                {
                    Ok(v) => v,
                    Err(CoreError::Govern(g)) => return Ok(govern_trip(&g)),
                    Err(e) => return Err(e.to_string()),
                };
            match verdict {
                EmptinessVerdict::NonEmpty(w) => {
                    println!("non-empty");
                    println!("witness control trace: {}", w.control);
                    if w.database.total_facts() > 0 {
                        println!("witness database:\n{}", w.database);
                    }
                    if let Some(run) = &w.lasso_run {
                        println!("ultimately periodic run: {run}");
                    }
                    Ok(ExitCode::SUCCESS)
                }
                EmptinessVerdict::Empty => {
                    println!("empty (within the default search budgets)");
                    Ok(ExitCode::from(1))
                }
            }
        }
        "verify" => {
            if args.len() < 3 {
                return Ok(usage());
            }
            let ext = load(&args[1])?;
            let skeleton = &args[2];
            let mut props = Vec::new();
            for def in &args[3..] {
                props.push(parse_prop(def, &ext)?);
            }
            let phi = LtlFo::new(skeleton, props.iter().map(|(n, q)| (n.as_str(), q.clone())))
                .map_err(|e| e.to_string())?;
            match verify(&ext, &phi, &VerifyOptions::default()).map_err(|e| e.to_string())? {
                VerifyResult::Holds => {
                    println!("holds");
                    Ok(ExitCode::SUCCESS)
                }
                VerifyResult::CounterExample(w) => {
                    println!("fails; counterexample prefix:");
                    for (i, c) in w.prefix_run.configs.iter().take(8).enumerate() {
                        let vals: Vec<String> = c.regs.iter().map(|v| v.to_string()).collect();
                        println!("  position {i}: [{}]", vals.join(", "));
                    }
                    Ok(ExitCode::from(1))
                }
            }
        }
        "project" => {
            let [_, path, m] = &args[..] else {
                return Ok(usage());
            };
            let ext = load(path)?;
            let m: u16 = m.parse().map_err(|_| "m must be a number".to_string())?;
            let cache = SatCache::new(ext.ra().schema().clone());
            let proj = match rega_views::project_extended_governed(&ext, m, &cache, &budget) {
                Ok(p) => p,
                Err(CoreError::Govern(g)) => return Ok(govern_trip(&g)),
                Err(e) => return Err(e.to_string()),
            };
            print!("{}", to_spec(&proj.view).map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        "lr" => {
            let [_, path] = &args[..] else {
                return Ok(usage());
            };
            let ext = load(path)?;
            let v = is_lr_bounded(&ext, &LrOptions::default()).map_err(|e| e.to_string())?;
            if v.bounded {
                println!("LR-bounded (vertex-cover bound {})", v.bound);
                Ok(ExitCode::SUCCESS)
            } else {
                println!("not LR-bounded");
                if let Some(w) = v.witness {
                    println!("witness trace: {w}");
                }
                Ok(ExitCode::from(1))
            }
        }
        "dot" => {
            let [_, path] = &args[..] else {
                return Ok(usage());
            };
            let ext = load(path)?;
            print!("{}", rega_core::dot::extended_to_dot(&ext));
            Ok(ExitCode::SUCCESS)
        }
        "echo" => {
            let [_, path] = &args[..] else {
                return Ok(usage());
            };
            let ext = load(path)?;
            print!("{}", to_spec(&ext).map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        "monitor" => {
            if args.len() < 2 {
                return Ok(usage());
            }
            monitor(&args[1], &args[2..], &budget)
        }
        "cluster" => {
            if args.len() < 2 {
                return Ok(usage());
            }
            cluster(&args[1], &args[2..], &budget)
        }
        "serve" => serve(&args[1..], &bspec),
        "trace-report" => {
            let mut rest: Vec<&String> = args[1..].iter().collect();
            let mut by_request = false;
            if let Some(pos) = rest.iter().position(|a| *a == "--by-request") {
                rest.remove(pos);
                by_request = true;
            }
            let mut snapshot_path = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--metrics-snapshot") {
                if pos + 1 >= rest.len() {
                    return Err("--metrics-snapshot needs a path".to_string());
                }
                snapshot_path = Some(rest[pos + 1].clone());
                rest.drain(pos..pos + 2);
            }
            let [path] = rest[..] else {
                return Ok(usage());
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let summary = rega_obs::report::summarize(&text)?;
            print!("{}", rega_obs::report::render(&summary));
            if by_request {
                println!();
                print!("{}", rega_obs::report::render_by_request(&summary));
            }
            // A registry snapshot (one line of `rega serve
            // --metrics-interval-ms` stderr, or a `stats` response's
            // `metrics` object) rendered human-readably — saturated
            // histograms are flagged instead of showing a silently
            // clamped p99.
            if let Some(snapshot_path) = snapshot_path {
                let text = std::fs::read_to_string(&snapshot_path)
                    .map_err(|e| format!("cannot read {snapshot_path}: {e}"))?;
                let snapshot: serde_json::Value =
                    serde_json::from_str(text.trim()).map_err(|e| e.to_string())?;
                println!("\nmetrics snapshot ({snapshot_path}):");
                print!("{}", rega_obs::report::render_metrics_snapshot(&snapshot));
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

/// `rega serve`: the long-running multi-tenant monitoring service (see
/// the `rega-serve` crate). Listens for JSONL / binary-framed commands
/// over TCP, admits tenants against quotas, and on SIGTERM or SIGINT
/// drains every tenant engine and prints the final report — a
/// signal-initiated drain is a *clean* shutdown and exits 0.
fn serve(flags: &[String], server_budget: &BudgetSpec) -> Result<ExitCode, String> {
    use rega_serve::{Server, ServerConfig};

    let mut config = ServerConfig {
        server_budget: server_budget.clone(),
        ..ServerConfig::default()
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_num = |name: &str, v: &str| -> Result<usize, String> {
            v.parse().map_err(|_| format!("{name} must be a number"))
        };
        match flag.as_str() {
            "--listen" => config.listen = value("--listen")?.clone(),
            "--max-tenants" => {
                config.max_tenants = parse_num("--max-tenants", value("--max-tenants")?)?;
            }
            "--max-conns" => {
                config.max_conns = parse_num("--max-conns", value("--max-conns")?)?;
            }
            "--max-specs" => {
                config.quotas.max_specs = parse_num("--max-specs", value("--max-specs")?)?;
            }
            "--max-sessions" => {
                config.quotas.max_sessions = parse_num("--max-sessions", value("--max-sessions")?)?;
            }
            "--quarantine-cap" => {
                config.quotas.quarantine_cap =
                    parse_num("--quarantine-cap", value("--quarantine-cap")?)? as u64;
            }
            "--shards" => config.engine.shards = parse_num("--shards", value("--shards")?)?,
            "--workers" => config.engine.workers = parse_num("--workers", value("--workers")?)?,
            "--queue-capacity" => {
                config.engine.queue_capacity =
                    parse_num("--queue-capacity", value("--queue-capacity")?)?;
            }
            "--submit-timeout-ms" => {
                let ms = parse_num("--submit-timeout-ms", value("--submit-timeout-ms")?)?;
                config.engine.submit_timeout = Some(std::time::Duration::from_millis(ms as u64));
            }
            "--metrics-interval-ms" => {
                let ms = parse_num("--metrics-interval-ms", value("--metrics-interval-ms")?)?;
                if ms == 0 {
                    return Err("--metrics-interval-ms must be positive".to_string());
                }
                config.metrics_interval = Some(std::time::Duration::from_millis(ms as u64));
            }
            "--access-log" => config.access_log = true,
            "--slow-ms" => {
                config.slow_ms = Some(parse_num("--slow-ms", value("--slow-ms")?)? as u64);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("rega serve: listening on {addr}");
    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Blocks until SIGTERM/SIGINT (the handler installed in `run` flips
    // the process-wide marker the accept loop polls), then drains.
    let report = server.run(shutdown);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

/// `rega monitor`: stream a JSONL event file (or stdin with `-`) through
/// the sharded engine and print a JSON report.
///
/// Ctrl-c does not kill the run: the event loop notices the signal between
/// lines, stops reading, drains every shard through `Engine::finish`, and
/// prints the summary (marked `"interrupted": true`) before exiting 130 —
/// so a partial run still yields its verdicts, metrics, and (with
/// `--trace-json`) a flushed trace file.
fn monitor(spec_path: &str, flags: &[String], budget: &Budget) -> Result<ExitCode, String> {
    use rega_stream::{CompiledSpec, Engine, EngineConfig, SessionStatus, SimScheduler};
    use std::io::BufRead;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;

    let mut config = EngineConfig::default();
    let mut events_path: Option<String> = None;
    let mut view_m: Option<u16> = None;
    let mut seed: Option<u64> = None;
    let mut metrics_interval: Option<std::time::Duration> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--events" => events_path = Some(value("--events")?.clone()),
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a number".to_string())?;
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a number".to_string())?;
            }
            "--view" => {
                view_m = Some(
                    value("--view")?
                        .parse()
                        .map_err(|_| "--view must be a register count".to_string())?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be a number".to_string())?,
                );
            }
            "--submit-timeout-ms" => {
                let ms: u64 = value("--submit-timeout-ms")?
                    .parse()
                    .map_err(|_| "--submit-timeout-ms must be a number".to_string())?;
                config.submit_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--quarantine-cap" => {
                config.quarantine_cap = value("--quarantine-cap")?
                    .parse()
                    .map_err(|_| "--quarantine-cap must be a number".to_string())?;
            }
            "--metrics-interval-ms" => {
                let ms: u64 = value("--metrics-interval-ms")?
                    .parse()
                    .map_err(|_| "--metrics-interval-ms must be a number".to_string())?;
                if ms == 0 {
                    return Err("--metrics-interval-ms must be positive".to_string());
                }
                metrics_interval = Some(std::time::Duration::from_millis(ms));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let Some(events_path) = events_path else {
        return Ok(usage());
    };

    let ext = load(spec_path)?;
    let db = rega_data::Database::new(ext.ra().schema().clone());
    let spec = match CompiledSpec::compile_governed(ext, db, view_m, budget) {
        Ok(s) => s,
        Err(CoreError::Govern(g)) => return Ok(govern_trip(&g)),
        Err(e) => return Err(e.to_string()),
    };
    let registers = spec.registers();
    let spec = Arc::new(spec);
    // A seed selects the deterministic simulation engine.
    enum Run {
        Pool(Engine),
        Sim(SimScheduler),
    }
    let mut run = match seed {
        Some(seed) => Run::Sim(SimScheduler::start(spec, config, seed)),
        None => Run::Pool(Engine::start(spec, config)),
    };
    let metrics = Arc::clone(match &run {
        Run::Pool(engine) => engine.metrics(),
        Run::Sim(engine) => engine.metrics(),
    });

    // Periodic metrics snapshots: one JSONL line per interval on stderr,
    // leaving stdout to the final summary. The thread emits one last line
    // and stops once the run drops `metrics_stop` at the end of the stream.
    let (metrics_stop, stopped) = std::sync::mpsc::channel::<()>();
    let metrics_thread = metrics_interval.map(|interval| {
        std::thread::spawn(move || {
            let emit = || {
                if let Ok(line) = serde_json::to_string(&metrics.snapshot()) {
                    eprintln!("{line}");
                }
            };
            emit();
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                emit();
            }
            emit();
        })
    });

    // Lines arrive through a dedicated reader thread so the event loop can
    // notice a ctrl-c between lines even while the read itself blocks
    // (stdin in particular — `signal(2)` handlers restart blocked reads).
    let file = if events_path == "-" {
        None
    } else {
        Some(
            std::fs::File::open(&events_path)
                .map_err(|e| format!("cannot open {events_path}: {e}"))?,
        )
    };
    // Each line travels with the byte offset it started at, so parse
    // errors can report an exact stream position (`line N (byte M): …`) —
    // an operator can `dd skip=M` straight to the malformed record.
    let (tx, rx) = std::sync::mpsc::channel::<Result<(String, u64), String>>();
    let _reader = std::thread::spawn(move || {
        let forward = |reader: &mut dyn BufRead| {
            let mut buf = String::new();
            let mut offset: u64 = 0;
            loop {
                buf.clear();
                match reader.read_line(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => {
                        let line = buf.trim_end_matches(['\n', '\r']).to_string();
                        if tx.send(Ok((line, offset))).is_err() {
                            return;
                        }
                        offset += n as u64;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e.to_string()));
                        return;
                    }
                }
            }
        };
        match file {
            Some(f) => forward(&mut std::io::BufReader::new(f)),
            None => forward(&mut std::io::stdin().lock()),
        }
    });

    let cancel = budget.cancel_token();
    let mut parse_errors: u64 = 0;
    let mut submit_errors: u64 = 0;
    let mut interrupted = false;
    let mut no: usize = 0;
    'stream: loop {
        if sigint::triggered() || cancel.is_cancelled() {
            interrupted = true;
            break 'stream;
        }
        let (line, offset) = match rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("read error in {events_path}: {e}")),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break 'stream,
        };
        no += 1;
        if line.trim().is_empty() {
            continue;
        }
        // Arity is validated at the edge: a step event with the wrong
        // tuple width never reaches a shard queue. Parse errors carry the
        // line number and byte offset of the offending record.
        match rega_stream::parse_event_located(&line, registers, no as u64, offset) {
            Ok(event) => {
                let submitted = match &mut run {
                    Run::Pool(engine) => engine.submit(event),
                    Run::Sim(engine) => engine.submit(event),
                };
                if let Err(e) = submitted {
                    submit_errors += 1;
                    eprintln!("line {no}: submit failed: {e}");
                    if e == rega_stream::SubmitError::WorkersDead {
                        break 'stream;
                    }
                }
            }
            Err(e) => {
                parse_errors += 1;
                eprintln!("{e}");
            }
        }
    }
    // The Disconnected arm can win a race against a signal that landed
    // just before EOF: the loop breaks without re-checking the marker, and
    // the supervisor that sent SIGTERM would see exit 0 instead of the 130
    // acknowledgment it keys on. Re-check once after the loop so signal
    // reporting is deterministic regardless of arrival order.
    if sigint::triggered() || cancel.is_cancelled() {
        interrupted = true;
    }
    drop(rx); // unblocks the reader thread at its next send
    let report = match run {
        Run::Pool(engine) => engine.finish(),
        Run::Sim(engine) => engine.finish(),
    };
    drop(metrics_stop);
    if let Some(handle) = metrics_thread {
        let _ = handle.join();
    }

    let mut violations = Vec::new();
    for outcome in report.violations() {
        if let SessionStatus::Violated(kind) = &outcome.status {
            violations.push(serde_json::json!({
                "session": outcome.session.as_str(),
                "reason": kind.to_string(),
                "events": outcome.events,
            }));
        }
    }
    let violated = violations.len();
    let metrics = &report.metrics;
    let summary = serde_json::json!({
        "sessions": report.outcomes.len(),
        "violations": serde_json::Value::Array(violations),
        "interrupted": interrupted,
        "parse_errors": parse_errors,
        "submit_errors": submit_errors,
        "quarantined": metrics
            .events_quarantined.get(),
        "worker_panics": metrics
            .worker_panics.get(),
        "metrics": metrics.snapshot(),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if interrupted {
        Ok(ExitCode::from(130))
    } else if violated > 0 || parse_errors > 0 || submit_errors > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `rega cluster`: stream a JSONL event file through a supervised
/// multi-process cluster (or, with `--sim`, the deterministic in-process
/// simulation) and print a JSON report.
///
/// In process mode each worker is a re-exec of this binary (see
/// [`rega_cluster::maybe_worker_entry`], called first thing in `main`);
/// `--migrate-at K` forces a live epoch-fenced migration of every vshard
/// owned by `--migrate-from` to `--migrate-to` after K events, proving
/// the handoff on real processes without losing or double-applying a
/// single event.
fn cluster(spec_path: &str, flags: &[String], budget: &Budget) -> Result<ExitCode, String> {
    use rega_cluster::{ClusterFaultPlan, ProcCluster, SimCluster};
    use rega_stream::{CompiledSpec, EngineConfig, SessionStatus};
    use std::io::BufRead;

    let mut events_path: Option<String> = None;
    let mut procs: usize = 2;
    let mut view_m: Option<u16> = None;
    let mut seed: u64 = 0;
    let mut snapshot_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: u64 = 0;
    let mut migrate_at: Option<u64> = None;
    let mut migrate_from: usize = 0;
    let mut migrate_to: Option<usize> = None;
    let mut sim_mode = false;
    let mut crash_prob: Option<f64> = None;
    let mut rebalance_at: Vec<u64> = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--events" => events_path = Some(value("--events")?.clone()),
            "--procs" => {
                procs = value("--procs")?
                    .parse()
                    .map_err(|_| "--procs must be a number".to_string())?;
            }
            "--view" => {
                view_m = Some(
                    value("--view")?
                        .parse()
                        .map_err(|_| "--view must be a register count".to_string())?,
                );
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_string())?;
            }
            "--snapshot-dir" => {
                snapshot_dir = Some(std::path::PathBuf::from(value("--snapshot-dir")?));
            }
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every must be a number".to_string())?;
            }
            "--migrate-at" => {
                migrate_at = Some(
                    value("--migrate-at")?
                        .parse()
                        .map_err(|_| "--migrate-at must be an event index".to_string())?,
                );
            }
            "--migrate-from" => {
                migrate_from = value("--migrate-from")?
                    .parse()
                    .map_err(|_| "--migrate-from must be a worker index".to_string())?;
            }
            "--migrate-to" => {
                migrate_to = Some(
                    value("--migrate-to")?
                        .parse()
                        .map_err(|_| "--migrate-to must be a worker index".to_string())?,
                );
            }
            "--sim" => sim_mode = true,
            "--crash-prob" => {
                crash_prob = Some(
                    value("--crash-prob")?
                        .parse()
                        .map_err(|_| "--crash-prob must be a probability".to_string())?,
                );
            }
            "--rebalance-at" => {
                for part in value("--rebalance-at")?.split(',') {
                    rebalance_at.push(
                        part.trim()
                            .parse()
                            .map_err(|_| "--rebalance-at must be event indices".to_string())?,
                    );
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let Some(events_path) = events_path else {
        return Ok(usage());
    };
    if procs == 0 {
        return Err("--procs must be at least 1".to_string());
    }
    let migrate_to = migrate_to.unwrap_or(procs - 1);
    if migrate_from >= procs || migrate_to >= procs {
        return Err("--migrate-from/--migrate-to must name a worker below --procs".to_string());
    }
    if !sim_mode && (crash_prob.is_some() || !rebalance_at.is_empty()) {
        return Err("--crash-prob and --rebalance-at need --sim".to_string());
    }
    if sim_mode && snapshot_dir.is_some() {
        return Err(
            "--snapshot-dir is for worker processes; --sim keeps checkpoints in memory".to_string(),
        );
    }
    if !sim_mode && checkpoint_every > 0 && snapshot_dir.is_none() {
        return Err(
            "--checkpoint-every needs --snapshot-dir: worker processes checkpoint to files"
                .to_string(),
        );
    }
    let crash_prob = crash_prob.unwrap_or(0.0);

    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let ext = parse_spec(&spec_text).map_err(|e| e.to_string())?;
    let registers = ext.ra().k() as usize;

    // Cluster mode is batch: read and validate every line up front, so a
    // forced migration lands at an exact event index.
    let mut events = Vec::new();
    let mut parse_errors: u64 = 0;
    {
        let file: Box<dyn BufRead> = if events_path == "-" {
            Box::new(std::io::BufReader::new(std::io::stdin()))
        } else {
            Box::new(std::io::BufReader::new(
                std::fs::File::open(&events_path)
                    .map_err(|e| format!("cannot open {events_path}: {e}"))?,
            ))
        };
        let mut offset: u64 = 0;
        for (no, line) in file.lines().enumerate() {
            let line = line.map_err(|e| format!("read error in {events_path}: {e}"))?;
            let len = line.len() as u64 + 1;
            if !line.trim().is_empty() {
                match rega_stream::parse_event_located(&line, registers, no as u64 + 1, offset) {
                    Ok(event) => events.push(event),
                    Err(e) => {
                        parse_errors += 1;
                        eprintln!("{e}");
                    }
                }
            }
            offset += len;
        }
    }

    let migrate = migrate_at.map(|at| (at, migrate_from, migrate_to));
    let cancel = budget.cancel_token();
    let (report, interrupted, submit_errors) = if sim_mode {
        let db = rega_data::Database::new(ext.ra().schema().clone());
        let spec = match CompiledSpec::compile_governed(ext, db, view_m, budget) {
            Ok(s) => s,
            Err(CoreError::Govern(g)) => return Ok(govern_trip(&g)),
            Err(e) => return Err(e.to_string()),
        };
        let plan = ClusterFaultPlan {
            crash_prob,
            rebalance_at,
            checkpoint_every,
            ..ClusterFaultPlan::none(seed)
        };
        let cluster = SimCluster::new(
            std::sync::Arc::new(spec),
            EngineConfig::default(),
            procs,
            rega_cluster::ControlConfig::default(),
            plan,
        );
        drive_cluster(cluster, events, migrate, &cancel)?
    } else {
        let cluster = ProcCluster::new(
            procs,
            &spec_text,
            view_m,
            seed,
            snapshot_dir,
            checkpoint_every,
        )
        .map_err(|e| e.to_string())?;
        drive_cluster(cluster, events, migrate, &cancel)?
    };
    let (outcomes, metrics) = (report.outcomes, report.metrics);

    let mut violations = Vec::new();
    for outcome in &outcomes {
        if let SessionStatus::Violated(kind) = &outcome.status {
            violations.push(serde_json::json!({
                "session": outcome.session.as_str(),
                "reason": kind.to_string(),
                "events": outcome.events,
            }));
        }
    }
    let violated = violations.len();
    let summary = serde_json::json!({
        "mode": if sim_mode { "sim" } else { "proc" },
        "procs": procs,
        "sessions": outcomes.len(),
        "violations": serde_json::Value::Array(violations),
        "interrupted": interrupted,
        "parse_errors": parse_errors,
        "submit_errors": submit_errors,
        "cluster": {
            "events_routed": metrics.events_routed.get(),
            "events_replayed": metrics.events_replayed.get(),
            "events_deduped": metrics.events_deduped.get(),
            "retries": metrics.retries.get(),
            "sheds_rebalancing": metrics.sheds_rebalancing.get(),
            "stale_epoch_rejections": metrics.stale_epoch_rejections.get(),
            "migrations": metrics.migrations.get(),
            "sessions_migrated": metrics.sessions_migrated.get(),
            "crashes": metrics.crashes.get(),
            "respawns": metrics.respawns.get(),
            "checkpoints": metrics.checkpoints.get(),
            "epoch": metrics.epoch.get(),
            "ack_p99_ns": metrics.ack_latency.approx_quantile_ns(0.99),
        },
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if interrupted {
        Ok(ExitCode::from(130))
    } else if violated > 0 || parse_errors > 0 || submit_errors > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The `rega cluster` ingest loop, the same on both transports: submit
/// every event, running the optional `(at, from, to)` migration on the
/// way, then drain. Returns the report, whether a signal or cancellation
/// cut the stream short, and the number of rejected events.
fn drive_cluster<T: rega_cluster::Transport>(
    mut cluster: rega_cluster::Supervisor<T>,
    events: Vec<rega_stream::Event>,
    migrate: Option<(u64, usize, usize)>,
    cancel: &rega_core::CancelToken,
) -> Result<(rega_cluster::ClusterReport, bool, u64), String> {
    let mut interrupted = false;
    let mut submit_errors: u64 = 0;
    for (i, event) in events.into_iter().enumerate() {
        if sigint::triggered() || cancel.is_cancelled() {
            interrupted = true;
            break;
        }
        if let Some((_, from, to)) = migrate.filter(|&(at, ..)| at == i as u64) {
            let owned = cluster.owned_by(from);
            if !owned.is_empty() {
                cluster
                    .migrate(&owned, to)
                    .map_err(|e| format!("migration failed: {e}"))?;
            }
        }
        if let Err(e) = cluster.submit(event) {
            submit_errors += 1;
            eprintln!("event {i}: {e}");
        }
    }
    let report = cluster.finish().map_err(|e| e.to_string())?;
    Ok((report, interrupted, submit_errors))
}

fn main() -> ExitCode {
    // Worker processes are re-execs of this binary: when the cluster env
    // marker is set, run the worker loop and never come back. Must happen
    // before any CLI setup (panic hook, signal handler) so a worker's
    // lifecycle is owned entirely by its supervisor.
    rega_cluster::maybe_worker_entry();
    // Panics escape as one structured JSON line on stderr plus exit code
    // 4, so supervisors scripting the CLI can tell an internal bug from a
    // negative verdict (1), bad input (2), or a tripped budget (3).
    std::panic::set_hook(Box::new(|info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let location = info
            .location()
            .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
            .unwrap_or_else(|| "unknown".to_string());
        let json = serde_json::json!({
            "error": "panic",
            "message": message.clone(),
            "location": location.clone(),
        });
        eprintln!(
            "{}",
            serde_json::to_string(&json)
                .unwrap_or_else(|_| format!("panic at {location}: {message}"))
        );
    }));
    match std::panic::catch_unwind(run) {
        Ok(Ok(code)) => code,
        Ok(Err(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(_) => ExitCode::from(4),
    }
}
