//! The two ingest workloads: `serve-view` (the production server over
//! loopback, monitor plus view observer) and `cluster-plain` (a 1-worker
//! `ProcCluster`, no view), their correctness gate against an in-process
//! `Engine` run of the same stream, and the in-process layer replays of
//! the traced run.

use crate::stats::{self, median, quantile, secs, Calibration, Metrics};
use crate::tracing::Tracer;
use crate::{Outcome, RunCfg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_cluster::proc::{event_from_json, event_to_json};
use rega_cluster::{NodeAgent, ProcCluster, VSHARDS};
use rega_core::monitor::ConstraintMonitor;
use rega_data::{BudgetSpec, Database, Value};
use rega_obs::{span, Registry};
use rega_serve::proto::{self, parse_request, read_frame, write_frame, Framing, BINARY_MAGIC};
use rega_serve::{Server, ServerConfig, TenantQuotas, TenantRegistry};
use rega_stream::snapshot::outcome_to_json;
use rega_stream::{
    parse_event_checked, CompiledSpec, Engine, EngineConfig, EngineReport, Event, SessionOutcome,
    SessionStatus,
};
use rega_views::ViewObserver;
use serde_json::{json, Value as Json};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions open at once. Fixed: runs grow through longer traces, so the
/// final report (whose decode cost grows faster than its size) keeps one
/// size however long a run is.
const SESSIONS: usize = 512;
const TINY_SESSIONS: usize = 32;
/// Events per `event-batch` frame / `submit_batch` call.
const BATCH: usize = 64;
/// Timed rounds per run; each round sets the system up afresh, streams the
/// whole input once and checks the final report. Medians over rounds damp
/// one-off scheduler stalls.
const ROUNDS: usize = 9;
/// Extra set-ups per `cluster-plain` run (spawn, `cfg`, empty drain), so
/// its millisecond-scale `setup_s` is a median over enough samples.
const EXTRA_CLUSTER_SETUPS: usize = 12;
/// Nominal rates (events/s on one core of a 2-core x86-64 container) that
/// size a run to roughly `--seconds` of streaming.
const SERVE_VIEW_RATE: f64 = 37_000.0;
const CLUSTER_PLAIN_RATE: f64 = 48_000.0;
/// Shortest trace per session, whatever the run length.
const MIN_TRACE: usize = 24;
/// One session in this many carries a seeded violation.
const VIOLATION_ONE_IN: u64 = 16;
/// Frames replayed per layer in the traced run.
const REPLAY_FRAMES: usize = 96;
/// Repetitions of the cheap codec replays (median taken).
const REPLAY_REPS: usize = 5;
/// `health` round trips timed on the workload's connection.
const RTT_SAMPLES: usize = 256;
const TENANT: &str = "bench";
const SPEC_NAME: &str = "review";

/// The seeded input of an ingest workload.
pub struct Stream {
    /// The interleaved event stream, sessions round-robin.
    pub events: Vec<Event>,
    /// Session ids, in order.
    pub sessions: Vec<String>,
    /// Sessions that carry a seeded violation.
    pub violating: BTreeSet<String>,
}

/// The reviewing workflow of the paper's introduction, in spec syntax.
pub fn workflow_spec() -> String {
    let ext = rega_core::ExtendedAutomaton::new(rega_workflow::abstract_model().automaton);
    rega_core::spec::to_spec(&ext).expect("the workflow renders as a spec")
}

fn step(session: &str, state: &str, regs: [u64; 3]) -> Event {
    Event::Step {
        session: session.to_string(),
        state: state.to_string(),
        regs: regs.iter().map(|&v| Value(v)).collect(),
    }
}

/// One session's review trace: submission, review rounds (a reviewer
/// resigns now and then and a new one is assigned), acceptance, end. A
/// violating trace assigns the author as reviewer midway, which no
/// transition allows.
fn session_trace(rng: &mut StdRng, id: usize, len: usize, violate: bool) -> Vec<Event> {
    let s = format!("paper-{id:04}");
    let p = 1_000_000 + id as u64 * 1_000;
    let a = p + 1;
    let mut next_reviewer = p + 2;
    let mut r = next_reviewer;
    let mut out = vec![
        step(&s, "start", [p, a, p]),
        step(&s, "submitted", [p, a, p]),
    ];
    let mut state = "submitted";
    while out.len() + 2 < len {
        if state == "under_review" && rng.gen_bool(0.12) {
            state = "revising";
            out.push(step(&s, "revising", [p, a, p]));
        } else {
            if state != "under_review" {
                next_reviewer += 1;
                r = next_reviewer;
            }
            state = "under_review";
            out.push(step(&s, "under_review", [p, a, r]));
        }
    }
    if state != "under_review" {
        out.push(step(&s, "under_review", [p, a, r + 1]));
    }
    out.push(step(&s, "accepted", [p, a, out_reviewer(&out)]));
    if violate {
        let at = rng.gen_range(out.len() / 4..out.len() * 3 / 4).max(2);
        out[at] = step(&s, "under_review", [p, a, a]);
    }
    out.push(Event::End { session: s });
    out
}

fn out_reviewer(trace: &[Event]) -> u64 {
    match trace.last() {
        Some(Event::Step { regs, .. }) => regs[2].0,
        _ => 0,
    }
}

/// Generates the interleaved stream for `sessions` sessions of about
/// `trace_len` events each.
pub fn gen_stream(seed: u64, sessions: usize, trace_len: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1a9e);
    let mut traces = Vec::with_capacity(sessions);
    let mut violating = BTreeSet::new();
    let mut names = Vec::with_capacity(sessions);
    for id in 0..sessions {
        let violate = rng.gen_range(0..VIOLATION_ONE_IN) == 0;
        let len = trace_len + rng.gen_range(0..trace_len / 4 + 1);
        let t = session_trace(&mut rng, id, len, violate);
        let name = t[0].session().to_string();
        if violate {
            violating.insert(name.clone());
        }
        names.push(name);
        traces.push(t);
    }
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut events = Vec::new();
    for pos in 0..longest {
        for t in &traces {
            if let Some(e) = t.get(pos) {
                events.push(e.clone());
            }
        }
    }
    Stream {
        events,
        sessions: names,
        violating,
    }
}

/// Sessions, trace length and rounds of one run.
struct Size {
    sessions: usize,
    trace_len: usize,
    rounds: usize,
}

fn size(cfg: &RunCfg, rate: f64) -> Size {
    if cfg.tiny {
        return Size {
            sessions: TINY_SESSIONS,
            trace_len: 12,
            rounds: 2,
        };
    }
    let per_round = cfg.seconds * rate / ROUNDS as f64;
    Size {
        sessions: SESSIONS,
        trace_len: ((per_round / SESSIONS as f64) as usize).max(MIN_TRACE),
        rounds: ROUNDS,
    }
}

fn compile(spec_text: &str, view: Option<u16>) -> Arc<CompiledSpec> {
    let ext = rega_core::spec::parse_spec(spec_text).expect("the workflow spec parses");
    let db = Database::new(ext.ra().schema().clone());
    Arc::new(CompiledSpec::compile(ext, db, view).expect("the workflow spec compiles"))
}

/// The engine shape of both ingest workloads: one worker thread.
fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 8,
        workers: 1,
        ..EngineConfig::default()
    }
}

fn status_str(s: &SessionStatus) -> &'static str {
    match s {
        SessionStatus::Active => "active",
        SessionStatus::Ended => "ended",
        SessionStatus::Violated(_) => "violated",
    }
}

/// `(session, status, events, quarantined, reason)` per session: the part
/// of a final report the gate compares.
type Verdicts = Vec<(String, String, u64, u64, String)>;

fn verdicts_of(outcomes: &[SessionOutcome]) -> Verdicts {
    outcomes
        .iter()
        .map(|o| {
            let reason = match &o.status {
                SessionStatus::Violated(kind) => kind.to_string(),
                _ => String::new(),
            };
            (
                o.session.clone(),
                status_str(&o.status).to_string(),
                o.events,
                o.quarantined,
                reason,
            )
        })
        .collect()
}

/// Reads the served `close` report into [`Verdicts`].
fn verdicts_of_report(report: &Json) -> Verdicts {
    let reasons: HashMap<&str, &str> = report["violations"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|v| Some((v["session"].as_str()?, v["reason"].as_str()?)))
        .collect();
    report["outcomes"]
        .as_array()
        .into_iter()
        .flatten()
        .map(|o| {
            let session = o["session"].as_str().unwrap_or("").to_string();
            let reason = reasons.get(session.as_str()).copied().unwrap_or("");
            (
                session,
                o["status"].as_str().unwrap_or("").to_string(),
                o["events"].as_u64().unwrap_or(u64::MAX),
                o["quarantined"].as_u64().unwrap_or(u64::MAX),
                reason.to_string(),
            )
        })
        .collect()
}

/// The in-process reference run: the same stream through an `Engine` with
/// the workload's configuration. Returns the report and events/s.
fn reference_run(spec: &Arc<CompiledSpec>, stream: &Stream) -> (EngineReport, f64) {
    let _span = span!("bench.replay.engine", events = stream.events.len());
    let started = Instant::now();
    let mut engine = Engine::start(Arc::clone(spec), engine_config());
    for e in &stream.events {
        engine
            .submit(e.clone())
            .expect("the reference engine accepts the stream");
    }
    let report = engine.finish();
    let rate = stream.events.len() as f64 / secs(started);
    (report, rate)
}

/// Checks the reference verdicts against the generator: exactly the
/// seeded sessions are violated, every other session ended.
fn check_generator(expected: &Verdicts, stream: &Stream, mismatches: &mut Vec<String>) {
    for (session, status, ..) in expected {
        let want = if stream.violating.contains(session) {
            "violated"
        } else {
            "ended"
        };
        if status != want {
            mismatches.push(format!(
                "reference engine: {session} is {status}, the generator made it {want}"
            ));
        }
    }
    if expected.len() != stream.sessions.len() {
        mismatches.push(format!(
            "reference engine reports {} sessions, the stream has {}",
            expected.len(),
            stream.sessions.len()
        ));
    }
}

fn compare(what: &str, got: &Verdicts, want: &Verdicts, mismatches: &mut Vec<String>) -> bool {
    if got == want {
        return true;
    }
    let first = got
        .iter()
        .zip(want)
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("{g:?} vs {w:?}"))
        .unwrap_or_else(|| format!("{} vs {} sessions", got.len(), want.len()));
    mismatches.push(format!(
        "{what}: report differs from the reference: {first}"
    ));
    false
}

/// Flips one expected verdict (the self-test's deliberate corruption).
fn corrupt(expected: &mut Verdicts) {
    if let Some(v) = expected.first_mut() {
        v.1 = if v.1 == "ended" { "violated" } else { "ended" }.to_string();
    }
}

fn properties(stream: &Stream, frame_bytes: &[usize], fingerprint: u64, rounds: usize) -> Json {
    let steps = stream.events.len();
    json!({
        "sessions": stream.sessions.len(),
        "events_per_round": steps,
        "events_per_session": steps as f64 / stream.sessions.len() as f64,
        "violating_share": stream.violating.len() as f64 / stream.sessions.len() as f64,
        "batches_per_round": frame_bytes.len(),
        "frame_bytes_mean": frame_bytes.iter().sum::<usize>() as f64 / frame_bytes.len().max(1) as f64,
        "rounds": rounds,
        "fingerprint": format!("{fingerprint:016x}"),
    })
}

/// Per-round figures of a timed round.
struct Round {
    setup_s: f64,
    stream_s: f64,
    events: usize,
    acks_us: Vec<f64>,
    traced: bool,
    /// Machine speed around the round (1 = reference).
    speed: f64,
}

impl Round {
    /// Rescales the round's times to the reference machine speed: the
    /// set-up by the calibrations around it, the stream by those around
    /// the stream.
    fn calibrate(&mut self, setup: Calibration, stream: Calibration) {
        self.setup_s = setup.time(self.setup_s);
        self.stream_s = stream.time(self.stream_s);
        for a in &mut self.acks_us {
            *a = stream.time(*a);
        }
        self.speed = stream.speed();
    }
}

/// Runs `f` with a calibration before and after it.
fn with_calibration<T>(f: impl FnOnce() -> T) -> (T, Calibration) {
    let before = Calibration::measure_ingest();
    let out = f();
    (
        out,
        Calibration::around(before, Calibration::measure_ingest()),
    )
}

fn summarize_rounds(rounds: &[Round], setups: &[f64], e2e: &mut Metrics) -> f64 {
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let thr: Vec<f64> = untraced
        .iter()
        .map(|r| r.events as f64 / r.stream_s)
        .collect();
    // The p50 is each round's median, then the median over rounds; the p99
    // pools every round's acks, because one round's ~14 acks beyond its own
    // p99 are too few to place it steadily.
    let p50s: Vec<f64> = untraced.iter().map(|r| quantile(&r.acks_us, 0.5)).collect();
    let acks: Vec<f64> = untraced.iter().flat_map(|r| r.acks_us.clone()).collect();
    let throughput = median(&thr);
    e2e.set("throughput_per_s", throughput, "1/s");
    e2e.set("latency_p50_us", median(&p50s), "us");
    e2e.set("latency_tail_us", quantile(&acks, 0.99), "us");
    e2e.set("setup_s", median(setups), "s");
    e2e.set("peak_rss_mb", stats::own_peak_rss_mb(), "MiB");
    let speeds: Vec<f64> = rounds.iter().map(|r| r.speed).collect();
    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "perfbench: round {i}{}: {:.0} events/s (raw {:.0}), ack p50 {:.0} us, p99 {:.0} us, \
             setup {:.4} s, machine speed {:.2}",
            if r.traced { " (traced)" } else { "" },
            r.events as f64 / r.stream_s,
            r.events as f64 / r.stream_s * r.speed,
            quantile(&r.acks_us, 0.5),
            quantile(&r.acks_us, 0.99),
            r.setup_s,
            r.speed
        );
    }
    eprintln!(
        "perfbench: {} untraced rounds, {} ack samples (tail = p99, {} beyond), \
         machine speed {:.2} (range {:.2}-{:.2})",
        untraced.len(),
        acks.len(),
        acks.len() / 100,
        median(&speeds),
        speeds.iter().cloned().fold(f64::INFINITY, f64::min),
        speeds.iter().cloned().fold(0.0, f64::max),
    );
    throughput
}

fn overhead_pct(rounds: &[Round]) -> f64 {
    let thr = |traced: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.events as f64 / r.stream_s)
            .collect();
        median(&v)
    };
    (thr(false) / thr(true) - 1.0) * 100.0
}

// ---------------------------------------------------------------- serve-view

/// A loopback client speaking the binary framing, one request in flight.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Reads one whole binary response frame, undecoded.
    fn recv_raw(&mut self) -> std::io::Result<Vec<u8>> {
        let mut head = [0u8; 5];
        self.reader.read_exact(&mut head)?;
        if head[0] != BINARY_MAGIC {
            return Err(std::io::Error::other("response is not a binary frame"));
        }
        let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
        if len > proto::MAX_FRAME_LEN {
            return Err(std::io::Error::other("oversized response frame"));
        }
        let mut frame = vec![0u8; 5 + len];
        frame[..5].copy_from_slice(&head);
        self.reader.read_exact(&mut frame[5..])?;
        Ok(frame)
    }

    fn send_raw(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(frame)?;
        self.writer.flush()
    }

    fn call(&mut self, doc: &Json) -> Result<Json, String> {
        write_frame(&mut self.writer, Framing::Binary, doc).map_err(|e| e.to_string())?;
        let raw = self.recv_raw().map_err(|e| e.to_string())?;
        decode(&raw)
    }
}

fn decode(raw: &[u8]) -> Result<Json, String> {
    match read_frame(&mut Cursor::new(raw)) {
        Ok(Some((_, doc))) => Ok(doc),
        Ok(None) => Err("empty frame".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn expect_ok(doc: Result<Json, String>, what: &str) -> Result<Json, String> {
    let doc = doc?;
    if doc["ok"].as_bool() == Some(true) {
        Ok(doc)
    } else {
        Err(format!("{what} failed: {}", doc["error"]))
    }
}

fn batch_doc(events: &[Event]) -> Json {
    json!({
        "cmd": "event-batch", "tenant": TENANT, "spec": SPEC_NAME,
        "events": Json::Array(events.iter().map(event_to_json).collect()),
    })
}

fn encode(doc: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, Framing::Binary, doc).expect("writing to a Vec cannot fail");
    out
}

/// What one serve round returns beyond its [`Round`]. `rtt_us` and
/// `queue_depth_peak` are recorded by traced rounds only.
struct ServeRound {
    round: Round,
    report: Json,
    report_raw: Vec<u8>,
    close_ms: f64,
    failed: u64,
    attempted: u64,
    rtt_us: Vec<f64>,
    queue_depth_peak: f64,
}

fn serve_round(
    spec_text: &str,
    stream: &Stream,
    frames: &[Vec<u8>],
    traced: bool,
) -> Result<ServeRound, String> {
    let cal_start = Calibration::measure_ingest();
    let setup_start = Instant::now();
    let config = ServerConfig {
        engine: engine_config(),
        quotas: TenantQuotas {
            max_sessions: stream.sessions.len().max(1024),
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Connect before the accept loop starts, so the first accept finds the
    // connection queued instead of sleeping through a poll interval.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag));
    let result = (|| -> Result<_, String> {
        expect_ok(
            client.call(&json!({"cmd": "hello", "tenant": TENANT})),
            "hello",
        )?;
        expect_ok(
            client.call(&json!({
                "cmd": "load-spec", "tenant": TENANT, "name": SPEC_NAME,
                "spec": spec_text, "view": 1u64,
            })),
            "load-spec",
        )?;
        for s in &stream.sessions {
            expect_ok(
                client.call(&json!({
                    "cmd": "open-session", "tenant": TENANT, "spec": SPEC_NAME, "session": s.as_str(),
                })),
                "open-session",
            )?;
        }
        let setup_s = secs(setup_start);
        let cal_setup = Calibration::measure_ingest();
        let mut rtt_us = Vec::new();
        if traced {
            for _ in 0..RTT_SAMPLES {
                let t0 = Instant::now();
                expect_ok(client.call(&json!({"cmd": "health"})), "health")?;
                rtt_us.push(secs(t0) * 1e6);
            }
        }
        let mut acks_us = Vec::with_capacity(frames.len());
        let mut failed = 0u64;
        let started = Instant::now();
        for frame in frames {
            let t0 = Instant::now();
            let raw = {
                let _s = span!("bench.client.send_wait");
                client.send_raw(frame).map_err(|e| e.to_string())?;
                client.recv_raw().map_err(|e| e.to_string())?
            };
            acks_us.push(secs(t0) * 1e6);
            let reply = {
                let _s = span!("bench.client.decode");
                decode(&raw)?
            };
            if reply["ok"].as_bool() != Some(true) {
                failed += 1;
            }
        }
        let mut queue_depth_peak = 0.0f64;
        if traced {
            let snap = expect_ok(
                client.call(&json!({"cmd": "snapshot", "tenant": TENANT})),
                "snapshot",
            )?;
            for spec in snap["snapshot"]["specs"].as_array().into_iter().flatten() {
                for q in spec["engine"]["queues"].as_array().into_iter().flatten() {
                    queue_depth_peak = queue_depth_peak.max(q["peak"].as_f64().unwrap_or(0.0));
                }
            }
        }
        let close_start = Instant::now();
        client
            .send_raw(&encode(
                &json!({"cmd": "close", "tenant": TENANT, "spec": SPEC_NAME}),
            ))
            .map_err(|e| e.to_string())?;
        let report_raw = client.recv_raw().map_err(|e| e.to_string())?;
        let close_ms = secs(close_start) * 1e3;
        let report = expect_ok(decode(&report_raw), "close")?["report"].clone();
        let stream_s = secs(started);
        let cal_stream = Calibration::around(cal_setup, Calibration::measure_ingest());
        let mut round = Round {
            setup_s,
            stream_s,
            events: stream.events.len(),
            acks_us,
            traced,
            speed: 1.0,
        };
        round.calibrate(Calibration::around(cal_start, cal_setup), cal_stream);
        Ok(ServeRound {
            round,
            report,
            report_raw,
            close_ms: cal_stream.time(close_ms),
            failed,
            attempted: frames.len() as u64 + 1,
            rtt_us: rtt_us.into_iter().map(|us| cal_setup.time(us)).collect(),
            queue_depth_peak,
        })
    })();
    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    result
}

/// The `serve-view` workload.
pub fn serve_view(cfg: &RunCfg, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let sz = size(cfg, SERVE_VIEW_RATE);
    let stream = gen_stream(cfg.seed, sz.sessions, sz.trace_len);
    let mut docs: Vec<Json> = stream.events.chunks(BATCH).map(batch_doc).collect();
    let frames: Vec<Vec<u8>> = docs.iter().map(encode).collect();
    // Only the replayed frames' documents are needed from here on.
    docs.truncate(REPLAY_FRAMES);
    let fp = stats::fingerprint(frames.iter().map(Vec::as_slice));
    let mut out = Outcome::default();
    if gen_stream(cfg.seed, sz.sessions, sz.trace_len).events != stream.events {
        out.mismatches
            .push("the same seed generated a different stream".into());
    }
    let frame_bytes: Vec<usize> = frames.iter().map(Vec::len).collect();
    out.props = properties(&stream, &frame_bytes, fp, sz.rounds);
    let spec_text = workflow_spec();

    // The reference verdicts, before anything is timed.
    let spec = compile(&spec_text, Some(1));
    let ((reference, engine_rate), engine_cal) = with_calibration(|| reference_run(&spec, &stream));
    let mut expected = verdicts_of(&reference.outcomes);
    check_generator(&expected, &stream, &mut out.mismatches);
    if cfg.corrupt {
        corrupt(&mut expected);
    }

    let mut rounds = Vec::new();
    let mut close_ms = Vec::new();
    let mut rtt_us = Vec::new();
    let mut queue_depth_peak = 0.0f64;
    let mut last_report_raw = Vec::new();
    for r in 0..sz.rounds {
        let traced = cfg.trace && r % 2 == 1;
        let run = || serve_round(&spec_text, &stream, &frames, traced);
        let sr = match (traced, tracer.as_deref_mut()) {
            (true, Some(t)) => t.segment(run)?,
            _ => run()?,
        };
        rtt_us.extend(sr.rtt_us.iter().copied());
        queue_depth_peak = queue_depth_peak.max(sr.queue_depth_peak);
        let got = verdicts_of_report(&sr.report);
        compare(
            &format!("serve round {r}"),
            &got,
            &expected,
            &mut out.mismatches,
        );
        out.attempted += sr.attempted;
        out.failed += sr.failed;
        close_ms.push(sr.close_ms);
        last_report_raw = sr.report_raw;
        rounds.push(sr.round);
    }
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let throughput = summarize_rounds(&rounds, &setups, &mut out.e2e);

    if cfg.trace {
        let l = &mut out.layers;
        l.set("trace.overhead_pct", overhead_pct(&rounds), "%");
        l.set("server.rtt_us", median(&rtt_us), "us");
        l.set("server.close_ms", median(&close_ms), "ms");
        l.set("engine.queue_depth_peak", queue_depth_peak, "count");
        let engine_rate = engine_rate / engine_cal.speed();
        l.set("engine.events_per_s", engine_rate, "1/s");
        l.set(
            "engine.queue_wait_p50_us",
            engine_cal
                .time(stats::histogram_p50_ns(&reference.metrics.queue_latency.snapshot()) / 1e3),
            "us",
        );
        let replay = || {
            stats::calibrated(|m| {
                serve_replays(&stream, &docs, &frames, &spec, &last_report_raw, m)
            })
        };
        let m = match tracer {
            Some(t) => t.segment(replay)?,
            None => replay()?,
        };
        l.fill_from(&m);
        let parts_us = (l.get("proto.decode_us_per_frame").unwrap_or(0.0)
            + m.get("bench.parse_request_us_per_frame").unwrap_or(0.0)
            + l.get("tenant.ingest_us_per_batch").unwrap_or(0.0))
            / BATCH as f64
            + 1e6 / engine_rate;
        l.set(
            "ingest.unattributed_us_per_event",
            1e6 / throughput - parts_us,
            "us",
        );
    }
    Ok(out)
}

/// The in-process replays of the `serve-view` path: `read_frame` →
/// `parse_request` → `TenantRegistry::ingest` → `Engine` →
/// `ViewObserver::observe` / `ConstraintMonitor::step`, each timed alone.
fn serve_replays(
    stream: &Stream,
    docs: &[Json],
    frames: &[Vec<u8>],
    spec: &Arc<CompiledSpec>,
    report_raw: &[u8],
    m: &mut Metrics,
) -> Result<(), String> {
    let n = REPLAY_FRAMES.min(frames.len());
    codec_replays(&docs[..n], &frames[..n], report_raw, m)?;
    {
        let _s = span!("bench.replay.parse_request");
        let decoded: Vec<Json> = frames[..n]
            .iter()
            .map(|f| decode(f))
            .collect::<Result<_, _>>()?;
        let t0 = Instant::now();
        for d in &decoded {
            parse_request(d)?;
        }
        m.set(
            "bench.parse_request_us_per_frame",
            secs(t0) * 1e6 / n as f64,
            "us",
        );
    }
    let events_in_replay: usize = docs[..n]
        .iter()
        .map(|d| d["events"].as_array().map_or(0, Vec::len))
        .sum();
    m.set(
        "proto.bytes_per_event",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / stream.events.len() as f64,
        "B",
    );

    // Tenant layer: a registry in this process with the server's engine
    // shape, and queues deep enough that ingest never waits on the worker.
    {
        let _s = span!("bench.replay.tenant");
        let tenants = TenantRegistry::new(
            4,
            TenantQuotas {
                max_sessions: stream.sessions.len().max(1024),
                ..TenantQuotas::default()
            },
            BudgetSpec::none(),
            EngineConfig {
                queue_capacity: events_in_replay + 1,
                ..engine_config()
            },
            Arc::new(Registry::new()),
        );
        tenants.hello(TENANT).map_err(|e| e.to_string())?;
        tenants
            .load_spec(TENANT, SPEC_NAME, &workflow_spec(), Some(1))
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for s in &stream.sessions {
            let _s = span!("bench.replay.open_session");
            tenants
                .open_session(TENANT, SPEC_NAME, s)
                .map_err(|e| e.to_string())?;
        }
        m.set(
            "tenant.open_session_us",
            secs(t0) * 1e6 / stream.sessions.len() as f64,
            "us",
        );
        let mut per_batch = Vec::with_capacity(n);
        for d in &docs[..n] {
            let events = d["events"].as_array().expect("batch docs carry events");
            let _s = span!("bench.replay.ingest");
            let t0 = Instant::now();
            tenants
                .ingest(TENANT, SPEC_NAME, events)
                .map_err(|(_, e)| e.to_string())?;
            per_batch.push(secs(t0) * 1e6);
        }
        m.set("tenant.ingest_us_per_batch", median(&per_batch), "us");
        tenants
            .close_spec(TENANT, SPEC_NAME)
            .map_err(|e| e.to_string())?;
    }
    {
        let _s = span!("bench.replay.event_parse");
        let lines: Vec<&Json> = docs[..n]
            .iter()
            .flat_map(|d| d["events"].as_array().into_iter().flatten())
            .collect();
        let mut reps = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t0 = Instant::now();
            for doc in &lines {
                let line = proto::event_line(doc)?;
                parse_event_checked(&line, 3).map_err(|e| e.to_string())?;
            }
            reps.push(secs(t0) * 1e9 / lines.len() as f64);
        }
        m.set("tenant.event_parse_ns", median(&reps), "ns");
    }
    step_replays(&stream.events[..events_in_replay], spec, m);
    Ok(())
}

/// Codec replays shared by both ingest paths: decode/encode of the
/// workload's own request frames, of 4× frames carrying the same events,
/// and of the final report.
fn codec_replays(
    docs: &[Json],
    frames: &[Vec<u8>],
    report_raw: &[u8],
    m: &mut Metrics,
) -> Result<(), String> {
    let _s = span!("bench.replay.codec");
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let time_decode = |frames: &[Vec<u8>]| -> Result<f64, String> {
        let mut reps = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t0 = Instant::now();
            for f in frames {
                let _s = span!("bench.replay.read_frame");
                decode(f)?;
            }
            reps.push(secs(t0));
        }
        Ok(median(&reps))
    };
    let dec = time_decode(frames)?;
    m.set(
        "proto.decode_us_per_frame",
        dec * 1e6 / frames.len() as f64,
        "us",
    );
    m.set("proto.decode_ns_per_byte", dec * 1e9 / bytes as f64, "ns");
    let x4: Vec<Vec<u8>> = docs
        .chunks(4)
        .map(|group| {
            let key = if group[0].get("items").is_some() {
                "items"
            } else {
                "events"
            };
            let all: Vec<Json> = group
                .iter()
                .flat_map(|d| d[key].as_array().cloned().unwrap_or_default())
                .collect();
            let mut merged = match group[0].clone() {
                Json::Object(map) => map,
                _ => unreachable!("request documents are objects"),
            };
            merged.insert(key.to_string(), Json::Array(all));
            let merged = Json::Object(merged);
            encode(&merged)
        })
        .collect();
    let x4_bytes: usize = x4.iter().map(Vec::len).sum();
    let dec4 = time_decode(&x4)?;
    m.set(
        "proto.decode_ns_per_byte.x4",
        dec4 * 1e9 / x4_bytes as f64,
        "ns",
    );
    let mut reps = Vec::new();
    let mut sink = Vec::with_capacity(frames.iter().map(Vec::len).max().unwrap_or(0) + 16);
    for _ in 0..REPLAY_REPS {
        let t0 = Instant::now();
        for d in docs {
            let _s = span!("bench.replay.write_frame");
            sink.clear();
            write_frame(&mut sink, Framing::Binary, d).map_err(|e| e.to_string())?;
        }
        reps.push(secs(t0));
    }
    m.set(
        "proto.encode_us_per_frame",
        median(&reps) * 1e6 / docs.len() as f64,
        "us",
    );
    let t0 = Instant::now();
    {
        let _s = span!("bench.replay.report_decode");
        decode(report_raw)?;
    }
    m.set("proto.report_decode_ms", secs(t0) * 1e3, "ms");
    Ok(())
}

/// Per-event replays of the session's kernels: `ConstraintMonitor::step`
/// and (when the spec has a view) `ViewObserver::observe`, each alone, plus
/// `Session::step` for the span tree.
fn step_replays(events: &[Event], spec: &CompiledSpec, m: &mut Metrics) {
    let steps: Vec<(&str, rega_core::StateId, &[Value])> = events
        .iter()
        .filter_map(|e| match e {
            Event::Step {
                session,
                state,
                regs,
            } => Some((session.as_str(), spec.state_id(state)?, regs.as_slice())),
            Event::End { .. } => None,
        })
        .collect();
    {
        let _s = span!("bench.replay.monitor_step");
        let mut reps = Vec::new();
        for _ in 0..REPLAY_REPS {
            let mut monitors: HashMap<&str, ConstraintMonitor> = HashMap::new();
            let t0 = Instant::now();
            for &(s, sid, regs) in &steps {
                let mon = monitors
                    .entry(s)
                    .or_insert_with(|| ConstraintMonitor::new(spec.ext()));
                std::hint::black_box(mon.step(spec.ext(), sid, regs));
            }
            reps.push(secs(t0) * 1e9 / steps.len().max(1) as f64);
        }
        m.set("monitor.step_ns", median(&reps), "ns");
    }
    if let Some(part) = spec.view() {
        let _s = span!("bench.replay.observer_observe");
        let mut observers: HashMap<&str, ViewObserver> = HashMap::new();
        let mut frontier = 0usize;
        let visible = part.m as usize;
        let t0 = Instant::now();
        for &(s, _, regs) in &steps {
            let obs = observers
                .entry(s)
                .or_insert_with(|| ViewObserver::with_max_frontier(256));
            std::hint::black_box(obs.observe(&part.view, spec.db(), &regs[..visible]));
            frontier += obs.frontier_size();
        }
        m.set(
            "observer.step_ns",
            secs(t0) * 1e9 / steps.len().max(1) as f64,
            "ns",
        );
        m.set(
            "observer.frontier_mean",
            frontier as f64 / steps.len().max(1) as f64,
            "count",
        );
    }
    let _s = span!("bench.replay.session_step");
    let mut sessions: HashMap<&str, rega_stream::Session> = HashMap::new();
    for e in events {
        if let Event::Step {
            session,
            state,
            regs,
        } = e
        {
            let sess = sessions
                .entry(session.as_str())
                .or_insert_with(|| rega_stream::Session::new(spec, 256));
            std::hint::black_box(sess.step(spec, state, regs));
        }
    }
}

// ------------------------------------------------------------- cluster-plain

/// The `cluster-plain` workload.
pub fn cluster_plain(cfg: &RunCfg, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let sz = size(cfg, CLUSTER_PLAIN_RATE);
    let stream = gen_stream(cfg.seed, sz.sessions, sz.trace_len);
    let batches: Vec<&[Event]> = stream.events.chunks(BATCH).collect();
    let mut item_docs = cluster_docs(&batches);
    let frames: Vec<Vec<u8>> = item_docs.iter().map(encode).collect();
    // Only the replayed frames' documents are needed from here on.
    item_docs.truncate(REPLAY_FRAMES);
    let fp = stats::fingerprint(frames.iter().map(Vec::as_slice));
    let mut out = Outcome::default();
    if gen_stream(cfg.seed, sz.sessions, sz.trace_len).events != stream.events {
        out.mismatches
            .push("the same seed generated a different stream".into());
    }
    let frame_bytes: Vec<usize> = frames.iter().map(Vec::len).collect();
    out.props = properties(&stream, &frame_bytes, fp, sz.rounds);
    let spec_text = workflow_spec();
    let spec = compile(&spec_text, None);
    let (reference, _) = reference_run(&spec, &stream);
    let mut expected = verdicts_of(&reference.outcomes);
    check_generator(&expected, &stream, &mut out.mismatches);
    if cfg.corrupt {
        corrupt(&mut expected);
    }

    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut worker_rss = Vec::new();
    let mut counts = (0u64, 0u64, 0u64);
    for r in 0..sz.rounds {
        let traced = cfg.trace && r % 2 == 1;
        let seed = cfg.seed.wrapping_add(r as u64);
        let run = || cluster_round(&spec_text, seed, &batches);
        let cr = match (traced, tracer.as_deref_mut()) {
            (true, Some(t)) => t.segment(run)?,
            _ => run()?,
        };
        let mut round = cr.round;
        round.traced = traced;
        compare(
            &format!("cluster round {r}"),
            &verdicts_of(&cr.outcomes),
            &expected,
            &mut out.mismatches,
        );
        out.attempted += cr.attempted;
        out.failed += cr.retries;
        counts = (cr.retries, cr.deduped, cr.routed);
        worker_rss.push(cr.worker_rss_mb);
        setups.push(round.setup_s);
        rounds.push(round);
    }
    if !cfg.tiny {
        for i in 0..EXTRA_CLUSTER_SETUPS {
            let (setup, cal) = with_calibration(|| -> Result<f64, String> {
                let t0 = Instant::now();
                let cluster = ProcCluster::new(1, &spec_text, None, cfg.seed ^ i as u64, None, 0)
                    .map_err(|e| e.to_string())?;
                let setup = secs(t0);
                cluster.finish().map_err(|e| e.to_string())?;
                Ok(setup)
            });
            setups.push(cal.time(setup?));
        }
    }
    let throughput = summarize_rounds(&rounds, &setups, &mut out.e2e);

    if cfg.trace {
        let l = &mut out.layers;
        l.set("trace.overhead_pct", overhead_pct(&rounds), "%");
        l.set("cluster.retries", counts.0 as f64, "count");
        l.set("cluster.events_deduped", counts.1 as f64, "count");
        l.set("cluster.journal_events", counts.2 as f64, "count");
        l.set(
            "cluster.worker_peak_rss_mb",
            worker_rss.iter().cloned().fold(0.0, f64::max),
            "MiB",
        );
        let outcomes_reply = encode(&json!({
            "ok": true,
            "outcomes": Json::Array(reference.outcomes.iter().map(outcome_to_json).collect()),
        }));
        let replay = || {
            stats::calibrated(|m| {
                cluster_replays(
                    &stream,
                    &batches,
                    &item_docs,
                    &frames,
                    &outcomes_reply,
                    cfg.seed,
                    &spec,
                    m,
                )
            })
        };
        let m = match tracer {
            Some(t) => t.segment(replay)?,
            None => replay()?,
        };
        l.fill_from(&m);
        let per_event_ns = l.get("cluster.event_encode_ns").unwrap_or(0.0)
            + l.get("cluster.event_decode_ns").unwrap_or(0.0)
            + l.get("cluster.node_submit_ns").unwrap_or(0.0);
        let per_frame_us = l.get("proto.encode_us_per_frame").unwrap_or(0.0)
            + l.get("proto.decode_us_per_frame").unwrap_or(0.0);
        l.set(
            "ingest.unattributed_us_per_event",
            1e6 / throughput - per_event_ns / 1e3 - per_frame_us / BATCH as f64,
            "us",
        );
    }
    Ok(out)
}

/// The supervisor's `event-batch` documents for `batches`, with the
/// per-vshard sequence numbers a fresh journal assigns.
fn cluster_docs(batches: &[&[Event]]) -> Vec<Json> {
    let mut seqs = vec![0u64; VSHARDS];
    batches
        .iter()
        .map(|batch| {
            let items: Vec<Json> = batch
                .iter()
                .map(|e| {
                    let v = rega_cluster::vshard(e.session());
                    seqs[v] += 1;
                    json!({"vshard": v as u64, "seq": seqs[v], "event": event_to_json(e)})
                })
                .collect();
            json!({"cmd": "event-batch", "epoch": 1u64, "items": Json::Array(items)})
        })
        .collect()
}

struct ClusterRound {
    round: Round,
    outcomes: Vec<SessionOutcome>,
    attempted: u64,
    retries: u64,
    deduped: u64,
    routed: u64,
    worker_rss_mb: f64,
}

fn cluster_round(spec_text: &str, seed: u64, batches: &[&[Event]]) -> Result<ClusterRound, String> {
    let cal_start = Calibration::measure_ingest();
    let t0 = Instant::now();
    let mut cluster =
        ProcCluster::new(1, spec_text, None, seed, None, 0).map_err(|e| e.to_string())?;
    let setup_s = secs(t0);
    let cal_setup = Calibration::measure_ingest();
    let mut acks_us = Vec::with_capacity(batches.len());
    let started = Instant::now();
    for batch in batches {
        let _s = span!("bench.cluster.submit_batch");
        let t0 = Instant::now();
        cluster.submit_batch(batch).map_err(|e| e.to_string())?;
        acks_us.push(secs(t0) * 1e6);
    }
    let worker_rss_mb = stats::child_pids()
        .iter()
        .filter_map(|pid| stats::proc_status_mb(pid, "VmHWM:"))
        .fold(0.0, f64::max);
    let report = {
        let _s = span!("bench.cluster.finish");
        cluster.finish().map_err(|e| e.to_string())?
    };
    let stream_s = secs(started);
    let events = batches.iter().map(|b| b.len()).sum();
    let mut round = Round {
        setup_s,
        stream_s,
        events,
        acks_us,
        traced: false,
        speed: 1.0,
    };
    round.calibrate(
        Calibration::around(cal_start, cal_setup),
        Calibration::around(cal_setup, Calibration::measure_ingest()),
    );
    Ok(ClusterRound {
        round,
        outcomes: report.outcomes,
        attempted: batches.len() as u64 + 1,
        retries: report.metrics.retries.get(),
        deduped: report.metrics.events_deduped.get(),
        routed: report.metrics.events_routed.get(),
        worker_rss_mb,
    })
}

/// The in-process replays of the `cluster-plain` path: `event_to_json` →
/// `write_frame` → `read_frame` → `event_from_json` → `NodeAgent::submit`.
#[allow(clippy::too_many_arguments)]
fn cluster_replays(
    stream: &Stream,
    batches: &[&[Event]],
    docs: &[Json],
    frames: &[Vec<u8>],
    report_raw: &[u8],
    seed: u64,
    spec: &Arc<CompiledSpec>,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = REPLAY_FRAMES.min(frames.len());
    codec_replays(&docs[..n], &frames[..n], report_raw, m)?;
    m.set(
        "proto.bytes_per_event",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / stream.events.len() as f64,
        "B",
    );
    let events: Vec<&Event> = batches[..n].iter().flat_map(|b| b.iter()).collect();
    {
        let _s = span!("bench.replay.event_to_json");
        let mut reps = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t0 = Instant::now();
            for e in &events {
                std::hint::black_box(event_to_json(e));
            }
            reps.push(secs(t0) * 1e9 / events.len() as f64);
        }
        m.set("cluster.event_encode_ns", median(&reps), "ns");
    }
    let items: Vec<Json> = docs[..n]
        .iter()
        .flat_map(|d| d["items"].as_array().cloned().unwrap_or_default())
        .collect();
    {
        let _s = span!("bench.replay.event_from_json");
        let mut reps = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t0 = Instant::now();
            for item in &items {
                event_from_json(&item["event"]).map_err(|e| e.to_string())?;
            }
            reps.push(secs(t0) * 1e9 / items.len() as f64);
        }
        m.set("cluster.event_decode_ns", median(&reps), "ns");
    }
    {
        let _s = span!("bench.replay.node_submit");
        let mut agent = NodeAgent::new(Arc::clone(spec), EngineConfig::default(), seed, 0);
        agent
            .reassign(1, (0..VSHARDS).collect())
            .map_err(|e| e.to_string())?;
        let decoded: Vec<(usize, u64, Event)> = items
            .iter()
            .map(|item| {
                Ok((
                    item["vshard"].as_u64().unwrap_or(0) as usize,
                    item["seq"].as_u64().unwrap_or(0),
                    event_from_json(&item["event"]).map_err(|e| e.to_string())?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let t0 = Instant::now();
        for (v, seq, e) in decoded {
            agent.submit(1, v, seq, e).map_err(|e| e.to_string())?;
        }
        m.set(
            "cluster.node_submit_ns",
            secs(t0) * 1e9 / items.len() as f64,
            "ns",
        );
        agent.finish();
    }
    let replayed: Vec<Event> = events.into_iter().cloned().collect();
    step_replays(&replayed, spec, m);
    Ok(())
}
