//! Loopback integration tests for `rega-serve`: a real TCP server, real
//! client connections, concurrent tenants.
//!
//! The core assertion is *verdict identity*: N concurrent clients × M
//! sessions per tenant, streamed over the wire (one tenant speaking the
//! binary framing, the other JSONL), must yield byte-for-byte the same
//! violation entries as feeding the identical per-session event sequences
//! through the same `rega_stream` engine in-process — the path `rega
//! monitor` takes. Interleaving across sessions and connections must not
//! matter; per-session order is preserved by the engine's shard routing.
//!
//! The second test drives the per-tenant quota machinery end to end over
//! the wire and checks every rejection is *typed* (stable `error.code`),
//! and the third exercises the graceful drain: flipping the shutdown flag
//! must reject new admissions, finish in-flight engines, and hand back the
//! final report with every session's verdict. The last checks that a
//! connection reaching an idle server is served at once, not after the
//! server's shutdown-poll interval.

use rega_serve::proto::{read_frame, write_frame, Framing};
use rega_serve::{Server, ServerConfig, TenantQuotas};
use rega_stream::{parse_event_checked, CompiledSpec, Engine, EngineConfig, SessionStatus};
use serde_json::{json, Value as Json};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant A's spec: two registers, nondeterministic control, a σ-type
/// restriction, and a global equality constraint (the same spec the
/// engine-vs-batch differential test pins).
fn spec_a() -> &'static str {
    "\
registers 2
state p init accept
state q accept
trans p -> p : x1 = y1
trans p -> q :
trans q -> p :
trans q -> q : x2 != y2
constraint eq 1 1 : p p p
"
}

/// Tenant B's spec: one register, a keep-the-register self-loop and an
/// escape state — structurally different from A's so the test proves the
/// tenants' engines are genuinely independent.
fn spec_b() -> &'static str {
    "\
registers 1
state p init accept
state q accept
trans p -> p : x1 = y1
trans p -> q :
trans q -> q :
"
}

/// Deterministic event stream for one session. Sessions cycle through
/// three shapes: `idx % 3 == 0` violates mid-stream (a `p → p` step that
/// changes register 1, which no transition explains), `idx % 3 == 1` ends
/// cleanly with a terminal event, `idx % 3 == 2` stays open to be swept up
/// by the spec close.
fn events_for(session: &str, idx: usize, registers: usize) -> Vec<Json> {
    let regs = |v: u64| -> Vec<Json> { (0..registers).map(|_| Json::from(v)).collect() };
    let step = |state: &str, r: Vec<Json>| json!({"session": session, "state": state, "regs": r});
    let mut out = vec![
        step("p", regs(1)),
        step("p", regs(1)),
        step("q", regs(2)),
        step("p", regs(3)),
    ];
    match idx % 3 {
        0 => {
            // From p, claim p again with register 1 changed: `p → p`
            // demands x1 = y1, and no other transition targets p from p.
            let mut r = regs(3);
            r[0] = Json::from(9u64);
            out.push(step("p", r));
        }
        1 => out.push(json!({"session": session, "end": true})),
        _ => out.push(step("p", regs(3))),
    }
    out
}

/// One wire client: a connection plus its chosen framing.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framing: Framing,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, framing: Framing) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            reader: BufReader::new(stream),
            writer,
            framing,
        }
    }

    /// One request/response round trip. Asserts the response arrives in
    /// the same framing the request was sent in.
    fn call(&mut self, doc: &Json) -> Json {
        write_frame(&mut self.writer, self.framing, doc).expect("write frame");
        let (framing, response) = read_frame(&mut self.reader)
            .expect("read frame")
            .expect("server closed the connection mid-request");
        assert_eq!(
            framing, self.framing,
            "response framing must mirror the request"
        );
        response
    }

    /// A round trip that must succeed.
    fn ok(&mut self, doc: &Json) -> Json {
        let response = self.call(doc);
        assert_eq!(
            response["ok"],
            json!(true),
            "request {doc:?} failed: {response:?}"
        );
        response
    }

    /// A round trip that must fail with the given typed error code.
    fn expect_code(&mut self, doc: &Json, code: &str) -> Json {
        let response = self.call(doc);
        assert_eq!(
            response["ok"],
            json!(false),
            "request {doc:?} unexpectedly ok"
        );
        assert_eq!(
            response["error"]["code"],
            json!(code),
            "wrong error code for {doc:?}: {response:?}"
        );
        response
    }
}

/// The engine sizing both the server and the in-process reference use —
/// identical template, identical quarantine policy, so any verdict
/// difference is the server's fault, not a config skew.
fn engine_template() -> EngineConfig {
    EngineConfig {
        shards: 4,
        workers: 2,
        queue_capacity: 64,
        ..EngineConfig::default()
    }
}

/// The in-process reference: the exact event lines the clients sent, fed
/// through `parse_event_checked` + `Engine` the way `rega monitor` does,
/// rendered to the monitor's violation-entry shape.
fn reference_verdicts(spec_text: &str, sessions: &[(String, Vec<Json>)]) -> (Json, Json) {
    reference_verdicts_with_view(spec_text, None, sessions)
}

/// [`reference_verdicts`], optionally compiling the projection view the
/// way a `load-spec` with a `view` field does.
fn reference_verdicts_with_view(
    spec_text: &str,
    view: Option<u16>,
    sessions: &[(String, Vec<Json>)],
) -> (Json, Json) {
    let ext = rega_core::spec::parse_spec(spec_text).unwrap();
    let db = rega_data::Database::new(ext.ra().schema().clone());
    let compiled = CompiledSpec::compile(ext, db, view).unwrap();
    let registers = compiled.registers();
    let mut engine = Engine::start(Arc::new(compiled), engine_template());
    for (_, events) in sessions {
        for doc in events {
            let line = serde_json::to_string(doc).unwrap();
            let event = parse_event_checked(&line, registers).unwrap();
            engine.submit(event).unwrap();
        }
    }
    let report = engine.finish();
    let mut violations = Vec::new();
    for outcome in report.violations() {
        if let SessionStatus::Violated(kind) = &outcome.status {
            violations.push(json!({
                "session": outcome.session.as_str(),
                "reason": kind.to_string(),
                "events": outcome.events,
            }));
        }
    }
    let outcomes: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            json!({
                "session": o.session.as_str(),
                "status": match &o.status {
                    SessionStatus::Active => "active",
                    SessionStatus::Ended => "ended",
                    SessionStatus::Violated(_) => "violated",
                },
                "events": o.events,
                "quarantined": o.quarantined,
            })
        })
        .collect();
    (Json::Array(violations), Json::Array(outcomes))
}

fn start_server(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Json>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag));
    (addr, shutdown, handle)
}

#[test]
fn concurrent_tenants_match_the_batch_monitor_byte_for_byte() {
    const CLIENTS: usize = 3;
    const SESSIONS: usize = 4;

    let (addr, shutdown, server) = start_server(ServerConfig {
        engine: engine_template(),
        ..ServerConfig::default()
    });

    // Admit both tenants and load their (distinct) specs up front.
    let mut admin = Client::connect(addr, Framing::Jsonl);
    for (tenant, spec) in [("alpha", spec_a()), ("beta", spec_b())] {
        admin.ok(&json!({"cmd": "hello", "tenant": tenant}));
        admin.ok(&json!({
            "cmd": "load-spec", "tenant": tenant, "name": "main", "spec": spec,
        }));
    }
    assert_eq!(
        admin.ok(&json!({"cmd": "health"}))["status"],
        json!("serving")
    );

    // N concurrent clients per tenant, each with its own connection and
    // M sessions; tenant alpha speaks binary frames, beta JSONL.
    let mut threads = Vec::new();
    for (tenant, framing, registers) in [
        ("alpha", Framing::Binary, 2usize),
        ("beta", Framing::Jsonl, 1usize),
    ] {
        for client_no in 0..CLIENTS {
            threads.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr, framing);
                client.ok(&json!({"cmd": "hello", "tenant": tenant}));
                let mut sent: Vec<(String, Vec<Json>)> = Vec::new();
                for s in 0..SESSIONS {
                    let session = format!("{tenant}-c{client_no}-s{s}");
                    client.ok(&json!({
                        "cmd": "open-session", "tenant": tenant, "spec": "main",
                        "session": session.as_str(),
                    }));
                    sent.push((
                        session.clone(),
                        events_for(&session, client_no * SESSIONS + s, registers),
                    ));
                }
                // Interleave sessions round-robin, one event per frame for
                // the first row, then the rest in one batch per session —
                // both the `event` and `event-batch` paths get traffic.
                for (session_idx, (_, events)) in sent.iter().enumerate() {
                    let first = events[0].clone();
                    client.ok(&json!({
                        "cmd": "event", "tenant": tenant, "spec": "main",
                        "event": first,
                    }));
                    let rest: Vec<Json> = events[1..].to_vec();
                    let response = client.ok(&json!({
                        "cmd": "event-batch", "tenant": tenant, "spec": "main",
                        "events": rest,
                    }));
                    assert_eq!(
                        response["accepted"],
                        json!((events.len() - 1) as u64),
                        "batch {session_idx} partially rejected"
                    );
                }
                sent
            }));
        }
    }
    let mut streamed: std::collections::BTreeMap<&str, Vec<(String, Vec<Json>)>> =
        std::collections::BTreeMap::new();
    for (i, t) in threads.into_iter().enumerate() {
        let tenant = if i < CLIENTS { "alpha" } else { "beta" };
        streamed
            .entry(tenant)
            .or_default()
            .extend(t.join().unwrap());
    }

    // Close each spec: the server drains its engine and reports final
    // verdicts, which must match the in-process reference byte for byte.
    for (tenant, spec_text) in [("alpha", spec_a()), ("beta", spec_b())] {
        let report = admin.ok(&json!({
            "cmd": "close", "tenant": tenant, "spec": "main",
        }));
        let (want_violations, want_outcomes) = reference_verdicts(spec_text, &streamed[tenant]);
        assert!(
            !want_violations.as_array().unwrap().is_empty(),
            "the generated streams must include violations for the test to mean anything"
        );
        assert_eq!(
            serde_json::to_string(&report["report"]["violations"]).unwrap(),
            serde_json::to_string(&want_violations).unwrap(),
            "tenant {tenant}: served violations differ from the batch monitor's"
        );
        assert_eq!(
            serde_json::to_string(&report["report"]["outcomes"]).unwrap(),
            serde_json::to_string(&want_outcomes).unwrap(),
            "tenant {tenant}: served outcomes differ from the batch monitor's"
        );
    }

    // Stats still see both tenants (with zero specs left).
    let stats = admin.ok(&json!({"cmd": "stats"}));
    assert_eq!(stats["stats"]["tenants"].as_array().unwrap().len(), 2);

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(admin);
    let final_report = server.join().unwrap();
    assert_eq!(final_report["clean"], json!(true));
}

/// The tentpole assertion: with tracing ON the served verdicts are still
/// byte-identical to the batch monitor's, every response echoes its
/// request's correlation id (client-supplied on both framings, minted
/// `srv-<n>` otherwise), and the captured trace stitches the request
/// together — at least one connection-thread span and at least one
/// shard/kernel-side span or event carry the same `request` field.
#[test]
fn tracing_on_serving_correlates_requests_across_threads() {
    let (mem, guard) = rega_obs::install_memory();
    let (addr, shutdown, server) = start_server(ServerConfig {
        engine: engine_template(),
        ..ServerConfig::default()
    });

    let mut jsonl = Client::connect(addr, Framing::Jsonl);
    let mut binary = Client::connect(addr, Framing::Binary);

    // Client-supplied ids echo back on both framings.
    let r = jsonl.ok(&json!({"cmd": "hello", "tenant": "t", "req": "cli-hello"}));
    assert_eq!(r["req"], json!("cli-hello"));
    let r = binary.ok(&json!({"cmd": "health", "req": "cli-health"}));
    assert_eq!(r["req"], json!("cli-health"));
    // Omitted ids come back minted, and error responses echo too.
    let r = jsonl.ok(&json!({"cmd": "health"}));
    assert!(
        r["req"].as_str().unwrap().starts_with("srv-"),
        "minted id expected, got {r:?}"
    );
    let r = jsonl.call(&json!({"cmd": "warp-core", "req": "cli-bad"}));
    assert_eq!(r["ok"], json!(false));
    assert_eq!(r["req"], json!("cli-bad"));

    // Stream a full session under one correlation id, with a view so the
    // governed kernel constructions run during compilation.
    jsonl.ok(&json!({
        "cmd": "load-spec", "tenant": "t", "name": "main", "spec": spec_b(),
        "view": 1u64, "req": "cli-load",
    }));
    jsonl.ok(&json!({
        "cmd": "open-session", "tenant": "t", "spec": "main", "session": "x",
        "req": "cli-open",
    }));
    let sent: Vec<(String, Vec<Json>)> = vec![("x".to_string(), events_for("x", 0, 1))];
    for doc in &sent[0].1 {
        let r = jsonl.ok(&json!({
            "cmd": "event", "tenant": "t", "spec": "main", "event": doc.clone(),
            "req": "cli-ingest",
        }));
        assert_eq!(r["req"], json!("cli-ingest"));
    }

    // Close drains the engine: all shard work for `cli-ingest` has
    // finished before we inspect the trace.
    let report = jsonl.ok(&json!({"cmd": "close", "tenant": "t", "spec": "main"}));
    let (want_violations, _) = reference_verdicts_with_view(spec_b(), Some(1), &sent);
    assert_eq!(
        serde_json::to_string(&report["report"]["violations"]).unwrap(),
        serde_json::to_string(&want_violations).unwrap(),
        "verdicts drifted with tracing enabled"
    );

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(jsonl);
    drop(binary);
    server.join().unwrap();
    drop(guard);

    let events = mem.events();
    let request_of = |e: &rega_obs::TraceEvent| {
        e.fields.iter().find_map(|(k, v)| match (k, v) {
            (k, rega_obs::FieldValue::Str(s)) if *k == "request" => Some(s.clone()),
            _ => None,
        })
    };
    // ≥1 connection-thread span tagged with the client's id…
    assert!(
        events.iter().any(|e| {
            matches!(e.kind, rega_obs::TraceEventKind::SpanStart)
                && e.name == "serve.request"
                && request_of(e).as_deref() == Some("cli-ingest")
        }),
        "no serve.request span tagged cli-ingest"
    );
    // …and ≥1 worker-side shard span carrying the *same* id across the
    // thread boundary.
    assert!(
        events.iter().any(|e| {
            matches!(e.kind, rega_obs::TraceEventKind::SpanStart)
                && e.name == "stream.shard_batch"
                && request_of(e).as_deref() == Some("cli-ingest")
        }),
        "no stream.shard_batch span tagged cli-ingest"
    );
    // The governed compilation ran under `cli-load`: both its span and the
    // kernel's per-construction stats event inherit the id.
    assert!(
        events.iter().any(|e| {
            matches!(e.kind, rega_obs::TraceEventKind::SpanStart)
                && e.name == "stream.compile_spec"
                && request_of(e).as_deref() == Some("cli-load")
        }),
        "no stream.compile_spec span tagged cli-load"
    );
    assert!(
        events.iter().any(|e| {
            matches!(e.kind, rega_obs::TraceEventKind::Event)
                && e.name == "typebits.stats"
                && request_of(e).as_deref() == Some("cli-load")
        }),
        "no typebits.stats kernel event tagged cli-load"
    );
}

#[test]
fn tenant_quotas_reject_over_limit_work_with_typed_errors() {
    let (addr, shutdown, server) = start_server(ServerConfig {
        max_tenants: 2,
        quotas: TenantQuotas {
            max_specs: 1,
            max_sessions: 2,
            ..TenantQuotas::default()
        },
        engine: engine_template(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr, Framing::Jsonl);

    // Tenant cap.
    client.ok(&json!({"cmd": "hello", "tenant": "one"}));
    client.ok(&json!({"cmd": "hello", "tenant": "two"}));
    client.expect_code(&json!({"cmd": "hello", "tenant": "three"}), "tenant-limit");

    // Spec quota and duplicate detection.
    client.ok(&json!({"cmd": "load-spec", "tenant": "one", "name": "s", "spec": spec_b()}));
    client.expect_code(
        &json!({"cmd": "load-spec", "tenant": "one", "name": "s", "spec": spec_b()}),
        "duplicate-spec",
    );
    client.expect_code(
        &json!({"cmd": "load-spec", "tenant": "one", "name": "other", "spec": spec_b()}),
        "spec-limit",
    );
    client.expect_code(
        &json!({"cmd": "load-spec", "tenant": "two", "name": "bad", "spec": "not a spec"}),
        "spec-invalid",
    );

    // Session quota: two open, the third rejected, a close frees a slot.
    client.ok(&json!({"cmd": "open-session", "tenant": "one", "spec": "s", "session": "a"}));
    client.ok(&json!({"cmd": "open-session", "tenant": "one", "spec": "s", "session": "b"}));
    client.expect_code(
        &json!({"cmd": "open-session", "tenant": "one", "spec": "s", "session": "c"}),
        "session-limit",
    );
    client.ok(&json!({"cmd": "close", "tenant": "one", "spec": "s", "session": "a"}));
    client.ok(&json!({"cmd": "open-session", "tenant": "one", "spec": "s", "session": "c"}));

    // Traffic must name an open session; unknown names are typed too.
    client.expect_code(
        &json!({"cmd": "event", "tenant": "one", "spec": "s",
                "event": {"session": "ghost", "state": "p", "regs": [1u64]}}),
        "unknown-session",
    );
    client.expect_code(
        &json!({"cmd": "event", "tenant": "one", "spec": "nope",
                "event": {"session": "b", "state": "p", "regs": [1u64]}}),
        "unknown-spec",
    );
    client.expect_code(
        &json!({"cmd": "snapshot", "tenant": "nobody"}),
        "unknown-tenant",
    );

    // Malformed requests and frames are typed without killing the session.
    client.expect_code(&json!({"cmd": "warp-core"}), "bad-request");
    let response = client.call(&json!({"cmd": "event", "tenant": "one", "spec": "s",
        "event": {"session": "b", "state": "p", "regs": [1u64, 2u64]}}));
    assert_eq!(
        response["error"]["code"],
        json!("bad-event"),
        "{response:?}"
    );

    // A compile budget the tenant cannot loosen: the server-wide ceiling
    // wins even though the tenant asked for nothing.
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(client);
    let report = server.join().unwrap();
    assert_eq!(report["clean"], json!(true));
    // The drained report still carries tenant `one`'s open sessions.
    let tenants = report["drained"]["tenants"].as_array().unwrap();
    assert_eq!(tenants.len(), 2);
}

#[test]
fn graceful_drain_finishes_in_flight_sessions() {
    let (addr, shutdown, server) = start_server(ServerConfig {
        engine: engine_template(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr, Framing::Binary);
    client.ok(&json!({"cmd": "hello", "tenant": "t"}));
    client.ok(&json!({"cmd": "load-spec", "tenant": "t", "name": "s", "spec": spec_b()}));
    client.ok(&json!({"cmd": "open-session", "tenant": "t", "spec": "s", "session": "x"}));
    client.ok(
        &json!({"cmd": "event-batch", "tenant": "t", "spec": "s", "events": [
            {"session": "x", "state": "p", "regs": [5u64]},
            {"session": "x", "state": "p", "regs": [5u64]},
        ]}),
    );

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(client);
    let report = server.join().unwrap();
    assert_eq!(report["clean"], json!(true));
    let tenants = report["drained"]["tenants"].as_array().unwrap();
    assert_eq!(tenants.len(), 1);
    let outcomes = tenants[0]["specs"][0]["outcomes"].as_array().unwrap();
    assert_eq!(outcomes.len(), 1, "the in-flight session must be reported");
    assert_eq!(outcomes[0]["session"], json!("x"));
    assert_eq!(outcomes[0]["status"], json!("active"));
    assert_eq!(outcomes[0]["events"], json!(2u64));

    // After the drain the port no longer accepts (or the connection is
    // immediately closed): a fresh health probe must fail.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = write_frame(&mut writer, Framing::Jsonl, &json!({"cmd": "health"}));
            match read_frame(&mut reader) {
                Ok(None) | Err(_) => {}
                Ok(Some(other)) => panic!("drained server answered: {other:?}"),
            }
        }
    }
}

#[test]
fn an_idle_server_accepts_a_connection_at_once() {
    const ROUNDS: u32 = 20;
    let (addr, shutdown, server) = start_server(ServerConfig::default());
    let mut served = Duration::ZERO;
    for _ in 0..ROUNDS {
        // Longer than the server's 100 ms shutdown poll, so every round
        // starts on a server that has gone idle.
        std::thread::sleep(Duration::from_millis(120));
        let started = Instant::now();
        let mut client = Client::connect(addr, Framing::Jsonl);
        client.ok(&json!({"cmd": "health"}));
        served += started.elapsed();
        drop(client);
    }
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    server.join().unwrap();
    assert!(
        served < Duration::from_millis(400),
        "{ROUNDS} connect-and-health rounds on an idle server took {served:?}"
    );
}
