//! The TCP server: accept loop, connection threads, graceful drain.
//!
//! One thread per connection (bounded by [`ServerConfig::max_conns`]),
//! each speaking both wire framings (see [`crate::proto`]). An acceptor
//! thread blocks in `accept` and hands each connection to the run loop
//! over a channel, so a connection is served as soon as it arrives. The
//! run loop waits on that channel for at most `POLL` (100 ms) at a time
//! and checks a shutdown flag (and the process-wide
//! [`signal::triggered`](crate::signal::triggered) marker) in between;
//! when either fires the server:
//!
//! 1. stops accepting (it drops the channel, wakes the acceptor with one
//!    connection to its own listener, and joins it; over-cap connects get
//!    a typed `conn-limit` rejection),
//! 2. flips the tenant registry into draining mode — admission requests
//!    are rejected with [`AdmissionError::Draining`](crate::tenant::AdmissionError)
//!    but events for already-open sessions still flow,
//! 3. joins every connection thread (each notices the flag within its
//!    ~100 ms read-poll interval and finishes its in-flight request),
//! 4. drains every tenant engine through the engine's `finish` path (all
//!    queued events are processed, every session's verdict is final), and
//! 5. returns the combined final report; the CLI prints it and exits 0 —
//!    a signal-initiated drain is a *clean* shutdown, not an error.

use crate::proto::{
    self, decode_request, read_payload, write_frame, Command, FrameError, Framing, Request,
};
use crate::tenant::{TenantQuotas, TenantRegistry};
use rega_data::BudgetSpec;
use rega_obs::Registry;
use rega_stream::EngineConfig;
use serde_json::{json, Value as Json};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything `rega serve` is configured with.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to listen on, e.g. `127.0.0.1:7878` (port `0` picks a free
    /// one — tests read it back from [`Server::local_addr`]).
    pub listen: String,
    /// Tenant namespaces admitted at once.
    pub max_tenants: usize,
    /// Concurrent connections; the cap + 1-st connect is answered with a
    /// typed `conn-limit` error and closed.
    pub max_conns: usize,
    /// Default quotas for every admitted tenant.
    pub quotas: TenantQuotas,
    /// Server-wide compile ceiling; every tenant budget is tightened
    /// against it (a tenant can lower but never raise these limits).
    pub server_budget: BudgetSpec,
    /// Engine sizing template for every spec's engine.
    pub engine: EngineConfig,
    /// Emit one JSONL metrics-registry snapshot per interval on stderr.
    pub metrics_interval: Option<Duration>,
    /// Emit one structured JSONL access-log line per request on stderr
    /// (`{"log":"access","req",…,"cmd",…,"ok",…,"elapsed_us",…}`).
    pub access_log: bool,
    /// Slow-request threshold: a request serviced slower than this (or
    /// rejected with a `resource-budget` trip at any speed) gets one
    /// JSONL diagnostic line on stderr carrying the governor's
    /// phase/nodes/elapsed detail when present.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_tenants: 16,
            max_conns: 64,
            quotas: TenantQuotas::default(),
            server_budget: BudgetSpec::none(),
            engine: EngineConfig::default(),
            metrics_interval: None,
            access_log: false,
            slow_ms: None,
        }
    }
}

/// How often idle loops (the run loop, connection reads) re-check the
/// shutdown flag. Bounds how long a drain can lag behind the signal.
const POLL: Duration = Duration::from_millis(100);

/// Read timeout while a frame is actually in flight: a slow-writing client
/// gets this long between bytes before the frame is abandoned.
const IN_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// The listening server. [`Server::bind`] then [`Server::run`].
pub struct Server {
    /// Shared with the acceptor thread while [`Server::run`] runs.
    listener: Arc<TcpListener>,
    tenants: Arc<TenantRegistry>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and builds the tenant registry (with its own
    /// fresh metrics [`Registry`]).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_registry(config, Arc::new(Registry::new()))
    }

    /// [`Server::bind`] against a caller-supplied metrics registry (so a
    /// host process can fold server metrics into its own snapshot).
    pub fn bind_with_registry(
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(&config.listen)?);
        let tenants = Arc::new(TenantRegistry::new(
            config.max_tenants,
            config.quotas.clone(),
            config.server_budget.clone(),
            config.engine.clone(),
            registry,
        ));
        Ok(Server {
            listener,
            tenants,
            config,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The tenant registry (tests inspect quotas and drain state).
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.tenants
    }

    /// Serves until `shutdown` is set (or a SIGINT/SIGTERM arrives via
    /// [`signal::triggered`](crate::signal::triggered)), then drains and
    /// returns the final report: one entry per tenant, one report per
    /// spec, every report carrying each session's final verdict.
    pub fn run(&self, shutdown: Arc<AtomicBool>) -> Json {
        let registry = Arc::clone(self.tenants.metrics());
        let conns_open = registry.gauge("serve.connections.open");
        let conns_total = registry.counter("serve.connections.total");
        let conns_rejected = registry.counter("serve.connections.rejected");
        let mut threads = Vec::new();
        let active = Arc::new(AtomicUsize::new(0));
        // One server-wide sequence for minted `srv-<n>` request ids, so two
        // connections never mint the same correlation id.
        let minted = Arc::new(AtomicU64::new(0));
        let (accepted, incoming) = channel();
        let listener = Arc::clone(&self.listener);
        let acceptor = std::thread::spawn(move || accept_into(&listener, &accepted));
        let mut last_snapshot = Instant::now();
        loop {
            if shutdown.load(Ordering::SeqCst) || crate::signal::triggered() {
                break;
            }
            if let Some(interval) = self.config.metrics_interval {
                if last_snapshot.elapsed() >= interval {
                    last_snapshot = Instant::now();
                    if let Ok(line) = serde_json::to_string(&registry.snapshot()) {
                        eprintln!("{line}");
                    }
                }
            }
            match incoming.recv_timeout(POLL) {
                Ok(stream) => {
                    conns_total.inc();
                    if active.load(Ordering::SeqCst) >= self.config.max_conns {
                        conns_rejected.inc();
                        reject_connection(stream, "conn-limit", "connection limit reached");
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    conns_open.inc();
                    let shared = ConnShared {
                        tenants: Arc::clone(&self.tenants),
                        shutdown: Arc::clone(&shutdown),
                        requests: registry.counter("serve.requests.total"),
                        failures: registry.counter("serve.requests.failed"),
                        registry: Arc::clone(&registry),
                        minted: Arc::clone(&minted),
                        access_log: self.config.access_log,
                        slow_ms: self.config.slow_ms,
                    };
                    let active = Arc::clone(&active);
                    let conns_open = conns_open.clone();
                    // An unjoined thread keeps its stack mapped even after
                    // it finished, so drop finished connections' handles
                    // here rather than at drain, which ignores their
                    // results anyway.
                    threads.retain(|t: &std::thread::JoinHandle<()>| !t.is_finished());
                    threads.push(std::thread::spawn(move || {
                        let _ = serve_connection(stream, &shared);
                        active.fetch_sub(1, Ordering::SeqCst);
                        conns_open.dec();
                    }));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Stop accepting: with the receiver gone, the acceptor exits at
        // its next connection, and one to its own address (held open until
        // the join) wakes it now. Should that connect fail, the acceptor is
        // left to exit on its own rather than the drain waiting for it.
        drop(incoming);
        if let Ok(_waker) = wake(&self.listener) {
            let _ = acceptor.join();
        }
        // Drain: no new admissions, in-flight requests finish, engines
        // flush, final verdicts come back.
        self.tenants.start_draining();
        for t in threads {
            let _ = t.join();
        }
        let drained = self.tenants.drain_all();
        // One last metrics snapshot so the trailing JSONL line reflects
        // the drained state.
        if self.config.metrics_interval.is_some() {
            if let Ok(line) = serde_json::to_string(&registry.snapshot()) {
                eprintln!("{line}");
            }
        }
        json!({"clean": true, "drained": drained})
    }
}

/// The acceptor thread: blocks in `accept` and hands every connection to
/// the run loop until the run loop drops its receiver. An accept error
/// other than an aborted handshake (running out of file descriptors, say)
/// backs off for [`POLL`] instead of spinning.
fn accept_into(listener: &TcpListener, accepted: &Sender<TcpStream>) {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if accepted.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Connects to `listener`'s own address (loopback when it is bound to the
/// unspecified address), so an `accept` blocked on it returns.
fn wake(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    TcpStream::connect_timeout(&addr, POLL)
}

/// Answers an over-cap connection with one typed JSONL error and closes.
fn reject_connection(mut stream: TcpStream, code: &str, message: &str) {
    let _ = stream.set_nodelay(true);
    let doc = json!({"ok": false, "error": {"code": code, "message": message}});
    let _ = write_frame(&mut stream, Framing::Jsonl, &doc);
}

/// Everything one connection thread needs: registry handles, the shared
/// request-id mint, and the observability knobs from [`ServerConfig`].
struct ConnShared {
    tenants: Arc<TenantRegistry>,
    shutdown: Arc<AtomicBool>,
    requests: rega_obs::Counter,
    failures: rega_obs::Counter,
    registry: Arc<Registry>,
    minted: Arc<AtomicU64>,
    access_log: bool,
    slow_ms: Option<u64>,
}

/// One connection: poll for a frame, dispatch, answer in the same framing.
fn serve_connection(stream: TcpStream, shared: &ConnShared) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || crate::signal::triggered() {
            return Ok(());
        }
        // Idle-poll with the short timeout; only once bytes are waiting is
        // the longer in-frame timeout applied, so a half-written frame
        // cannot wedge the drain but a slow writer is not cut off either.
        use std::io::BufRead;
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean EOF
            Ok(_) => {}
            Err(e) if proto::is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
        reader.get_ref().set_read_timeout(Some(IN_FRAME_TIMEOUT))?;
        let frame = read_payload(&mut reader);
        reader.get_ref().set_read_timeout(Some(POLL))?;
        let decoded = match frame {
            Ok(Some((framing, payload))) => {
                let _span = rega_obs::span!("serve.decode", bytes = payload.len());
                decode_request(framing, &payload).map(|request| Some((framing, request)))
            }
            other => other.map(|_| None),
        };
        match decoded {
            Ok(None) => return Ok(()),
            Ok(Some((framing, request))) => {
                shared.requests.inc();
                let response = handle_request(request, shared);
                if response["ok"] != json!(true) {
                    shared.failures.inc();
                }
                write_frame(&mut writer, framing, &response)?;
            }
            Err(FrameError::BadJson(message)) => {
                // The malformed message was fully consumed; the stream is
                // still in sync, so answer and keep serving.
                shared.failures.inc();
                let doc = json!({"ok": false, "error": {"code": "bad-json", "message": message}});
                write_frame(&mut writer, Framing::Jsonl, &doc)?;
            }
            Err(e @ (FrameError::Oversized { .. } | FrameError::Truncated { .. })) => {
                // The stream is desynchronized (unread payload bytes, or a
                // peer that stopped mid-frame): answer once and hang up.
                shared.failures.inc();
                let doc = json!({"ok": false, "error": {
                    "code": match e { FrameError::Oversized { .. } => "frame-oversized",
                                       _ => "frame-truncated" },
                    "message": e.to_string(),
                }});
                let _ = write_frame(&mut writer, Framing::Jsonl, &doc);
                return Ok(());
            }
            Err(FrameError::Io(_)) => return Ok(()),
        }
    }
}

/// Services one decoded request end to end: resolves (or mints) its
/// correlation id, installs the request context so every span and event
/// downstream carries it, dispatches under a timed `serve.request` span,
/// records the command latency histograms, emits the access / slow-request
/// log lines, and echoes the id in the response's `req` field.
fn handle_request(request: Request, shared: &ConnShared) -> Json {
    let started = Instant::now();
    // An absent or malformed `req` gets a minted id, so even the rejection
    // is correlatable.
    let id = request.id.unwrap_or_else(|| mint_id(shared));
    let id: Arc<str> = Arc::from(id.as_str());
    let _ctx = rega_obs::RequestGuard::enter(Arc::clone(&id));
    let (cmd_name, tenant, mut response) = match request.command {
        Ok(cmd) => {
            let name = cmd.name();
            let tenant = cmd.tenant().map(str::to_string);
            let _span = rega_obs::span!("serve.request", cmd = name);
            (name, tenant, dispatch(cmd, &shared.tenants))
        }
        Err(message) => (
            "bad-request",
            None,
            json!({"ok": false, "error": {"code": "bad-request", "message": message}}),
        ),
    };
    let elapsed = started.elapsed();
    let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    shared
        .registry
        .histogram(&format!("serve.cmd.{cmd_name}.latency"))
        .record_ns(elapsed_ns);
    if let Some(tenant) = &tenant {
        shared
            .tenants
            .record_command_latency(tenant, cmd_name, elapsed_ns);
    }
    if let Json::Object(map) = &mut response {
        map.insert("req".to_string(), Json::String(id.to_string()));
    }
    let ok = response["ok"] == json!(true);
    if shared.access_log {
        let line = json!({
            "log": "access",
            "req": &*id,
            "cmd": cmd_name,
            "tenant": tenant.as_deref().unwrap_or(""),
            "ok": ok,
            "elapsed_us": elapsed.as_micros() as u64,
        });
        if let Ok(text) = serde_json::to_string(&line) {
            eprintln!("{text}");
        }
    }
    if let Some(slow_ms) = shared.slow_ms {
        // A budget trip is slow *by policy* even when it failed fast: the
        // governor's diagnostics are exactly what the operator needs.
        let tripped = response["error"]["code"] == json!("resource-budget");
        if elapsed.as_millis() as u64 >= slow_ms || tripped {
            let mut line = json!({
                "log": "slow",
                "req": &*id,
                "cmd": cmd_name,
                "tenant": tenant.as_deref().unwrap_or(""),
                "elapsed_ms": elapsed.as_millis() as u64,
                "threshold_ms": slow_ms,
            });
            if let (Json::Object(map), Json::Object(err)) = (&mut line, &response["error"]) {
                // Carry the typed error detail — for a governor trip that
                // is the kind/phase/nodes/elapsed_ms diagnostics.
                map.insert("error".to_string(), Json::Object(err.clone()));
            }
            if let Ok(text) = serde_json::to_string(&line) {
                eprintln!("{text}");
            }
        }
    }
    response
}

/// Mints a server-side `srv-<n>` correlation id.
fn mint_id(shared: &ConnShared) -> String {
    format!("srv-{}", shared.minted.fetch_add(1, Ordering::Relaxed))
}

/// Annotates an ingest error object with how many events of the request
/// were accepted before the failure (partial-batch accounting).
fn with_accepted(mut error: Json, accepted: u64) -> Json {
    if let Json::Object(map) = &mut error {
        map.insert("accepted".to_string(), Json::from(accepted));
    }
    error
}

/// Executes one command against the tenant registry and shapes the wire
/// response. Admission failures come back as the error's typed JSON.
fn dispatch(cmd: Command, tenants: &TenantRegistry) -> Json {
    let fail = |error: Json| json!({"ok": false, "error": error});
    match cmd {
        Command::Hello { tenant } => match tenants.hello(&tenant) {
            Ok(created) => json!({"ok": true, "cmd": "hello", "tenant": tenant,
                                  "created": created}),
            Err(e) => fail(e.to_json()),
        },
        Command::LoadSpec {
            tenant,
            name,
            spec,
            view,
        } => match tenants.load_spec(&tenant, &name, &spec, view) {
            Ok(registers) => json!({"ok": true, "cmd": "load-spec", "spec": name,
                                    "registers": registers}),
            Err(e) => fail(e.to_json()),
        },
        Command::OpenSession {
            tenant,
            spec,
            session,
        } => match tenants.open_session(&tenant, &spec, &session) {
            Ok(()) => json!({"ok": true, "cmd": "open-session", "session": session}),
            Err(e) => fail(e.to_json()),
        },
        Command::Event {
            tenant,
            spec,
            event,
        } => match tenants.ingest_events(&tenant, &spec, [event]) {
            Ok(n) => json!({"ok": true, "cmd": "event", "accepted": n}),
            Err((accepted, e)) => fail(with_accepted(e.to_json(), accepted)),
        },
        Command::EventBatch {
            tenant,
            spec,
            events,
        } => match tenants.ingest_events(&tenant, &spec, events) {
            Ok(n) => json!({"ok": true, "cmd": "event-batch", "accepted": n}),
            Err((accepted, e)) => fail(with_accepted(e.to_json(), accepted)),
        },
        Command::Snapshot { tenant } => match tenants.snapshot(&tenant) {
            Ok(snapshot) => json!({"ok": true, "cmd": "snapshot", "snapshot": snapshot}),
            Err(e) => fail(e.to_json()),
        },
        Command::Close {
            tenant,
            spec,
            session,
        } => match (spec, session) {
            (Some(spec), Some(session)) => match tenants.close_session(&tenant, &spec, &session) {
                Ok(()) => json!({"ok": true, "cmd": "close", "session": session}),
                Err(e) => fail(e.to_json()),
            },
            (Some(spec), None) => match tenants.close_spec(&tenant, &spec) {
                Ok(report) => json!({"ok": true, "cmd": "close", "report": report}),
                Err(e) => fail(e.to_json()),
            },
            (None, _) => match tenants.close_tenant(&tenant) {
                Ok(report) => json!({"ok": true, "cmd": "close", "report": report}),
                Err(e) => fail(e.to_json()),
            },
        },
        Command::Handoff { tenant, spec } => match tenants.handoff(&tenant, &spec) {
            Ok(report) => json!({"ok": true, "cmd": "handoff", "report": report}),
            Err(e) => fail(e.to_json()),
        },
        Command::Stats => json!({"ok": true, "cmd": "stats", "stats": tenants.stats()}),
        Command::Health => json!({
            "ok": true,
            "cmd": "health",
            "status": if tenants.is_draining() { "draining" } else { "serving" },
        }),
        Command::Metrics => json!({
            "ok": true,
            "cmd": "metrics",
            "text": rega_obs::render_prometheus(tenants.metrics()),
        }),
    }
}
