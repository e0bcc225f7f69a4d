//! Real worker processes: the cluster protocol over the `rega-serve`
//! wire framing.
//!
//! A worker is the **same executable** re-exec'd with the
//! [`WORKER_ENV`] environment variable set (binaries opt in by calling
//! [`maybe_worker_entry`] first thing in `main`). The worker binds a
//! loopback port, prints one handshake line
//! (`REGA-CLUSTER-WORKER-PORT <port>`) on stdout, accepts exactly one
//! connection from its supervisor, and then speaks length-prefixed
//! binary frames ([`rega_serve::proto`]) wrapping the same operations
//! the in-process [`NodeAgent`] exposes: `cfg`, `assign`, `incoming`,
//! `event`, `event-batch`, `extract`, `install`, `checkpoint`, `ping`,
//! `finish`, `shutdown`.
//!
//! [`ProcCluster`] is the supervisor half: it spawns workers, routes
//! events by virtual shard, keeps the authoritative per-vshard journal,
//! and recovers crashed workers under the same capped-backoff policy the
//! simulator tests — respawn, optionally restore a durable checkpoint
//! (written through [`rega_stream::persist`], so a truncated or
//! bit-flipped file surfaces as a typed
//! [`SnapshotError::Corrupt`](rega_stream::SnapshotError) and is
//! discarded rather than trusted), then replay the journal past each
//! vshard's applied watermark.
//!
//! Each worker runs the deterministic single-threaded scheduler inside;
//! parallelism comes from running many worker *processes*. That is an
//! honest trade documented in EXPERIMENTS.md E21: the deterministic
//! engine is the one that can checkpoint, extract, and migrate
//! mid-stream, and per-session verdicts stay byte-identical to a
//! single-process run.

use crate::assign::{vshard, Assignment, VSHARDS};
use crate::control::{Backoff, ControlConfig, ControlPlane};
use crate::error::ClusterError;
use crate::metrics::ClusterMetrics;
use crate::node::{Applied, NodeAgent};
use rega_serve::proto::{read_frame, write_frame, Framing};
use rega_stream::event::{decode_event, Event};
use rega_stream::snapshot::{outcome_from_json, outcome_to_json};
use rega_stream::{CompiledSpec, EngineConfig, SessionOutcome};
use serde_json::{json, Value as Json};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable that turns an exec of the host binary into a
/// cluster worker. Its value is the worker's node index.
pub const WORKER_ENV: &str = "REGA_CLUSTER_WORKER";

/// Handshake prefix the worker prints on stdout before serving.
pub const PORT_BANNER: &str = "REGA-CLUSTER-WORKER-PORT";

/// Delivery attempts the supervisor makes before declaring a vshard
/// unavailable. Each attempt may ride through a respawn, so this bounds
/// wall-clock, not just round trips.
const MAX_DELIVERY_ATTEMPTS: u64 = 64;

/// The stable JSON wire encoding of an [`Event`].
pub fn event_to_json(event: &Event) -> Json {
    match event {
        Event::Step {
            session,
            state,
            regs,
        } => json!({
            "session": session.clone(),
            "state": state.clone(),
            "regs": regs.iter().map(|v| v.0).collect::<Vec<u64>>(),
        }),
        Event::End { session } => json!({"session": session.clone(), "end": true}),
    }
}

/// Decodes [`event_to_json`] straight from the parsed frame with the
/// engine's own [`decode_event`], the contract behind `rega monitor`'s
/// line parser: the wire accepts exactly what `rega monitor` accepts, and
/// each event is parsed once.
pub fn event_from_json(j: &Json) -> Result<Event, ClusterError> {
    decode_event(j).map_err(|e| ClusterError::Wire(e.to_string()))
}

/// If this process was exec'd as a cluster worker, runs the worker loop
/// and exits; otherwise returns immediately. Call first thing in `main`
/// of any binary that should be able to host workers.
pub fn maybe_worker_entry() {
    if let Ok(node) = std::env::var(WORKER_ENV) {
        let node: usize = node.parse().unwrap_or(0);
        let code = match run_worker(node) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("rega-cluster worker {node}: {e}");
                1
            }
        };
        std::process::exit(code);
    }
}

fn wire_err(e: impl std::fmt::Display) -> ClusterError {
    ClusterError::Wire(e.to_string())
}

fn ok_reply(extra: &[(&str, Json)]) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("ok".to_string(), json!(true));
    for (k, v) in extra {
        obj.insert((*k).to_string(), v.clone());
    }
    Json::Object(obj)
}

fn err_reply(e: &ClusterError) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("ok".to_string(), json!(false));
    obj.insert("error".to_string(), e.to_json());
    Json::Object(obj)
}

fn num(j: &Json, field: &str) -> Result<u64, ClusterError> {
    j[field]
        .as_u64()
        .ok_or_else(|| ClusterError::Wire(format!("`{field}` must be a number")))
}

fn vshard_list(j: &Json, field: &str) -> Result<Vec<usize>, ClusterError> {
    j[field]
        .as_array()
        .ok_or_else(|| ClusterError::Wire(format!("`{field}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| ClusterError::Wire(format!("`{field}` entries must be numbers")))
        })
        .collect()
}

/// One step of the worker dispatch: `(reply, keep_serving)`. Pure with
/// respect to the transport, so the whole protocol is unit-testable
/// in-process; [`run_worker`] is a thin framing loop around it.
fn dispatch(agent: &mut Option<NodeAgent>, node: usize, doc: &Json) -> (Json, bool) {
    let cmd = doc["cmd"].as_str().unwrap_or("");
    let result: Result<(Json, bool), ClusterError> = (|| match cmd {
        "cfg" => {
            let text = doc["spec"]
                .as_str()
                .ok_or_else(|| ClusterError::Wire("`spec` must be a string".into()))?;
            let view_m = doc["view_m"].as_u64().map(|m| m as u16);
            let seed = num(doc, "seed")?;
            let ext = rega_core::spec::parse_spec(text).map_err(wire_err)?;
            let db = rega_data::Database::new(ext.ra().schema().clone());
            let spec = CompiledSpec::compile(ext, db, view_m).map_err(wire_err)?;
            *agent = Some(NodeAgent::new(
                Arc::new(spec),
                EngineConfig::default(),
                seed,
                node,
            ));
            Ok((ok_reply(&[]), true))
        }
        "ping" => {
            let epoch = agent.as_ref().map(|a| a.epoch()).unwrap_or(0);
            Ok((ok_reply(&[("epoch", json!(epoch))]), true))
        }
        "shutdown" => Ok((ok_reply(&[]), false)),
        _ => {
            let agent = agent
                .as_mut()
                .ok_or_else(|| ClusterError::Wire("worker not configured (send `cfg`)".into()))?;
            match cmd {
                "assign" => {
                    let epoch = num(doc, "epoch")?;
                    let owned: BTreeSet<usize> = vshard_list(doc, "owned")?.into_iter().collect();
                    agent.reassign(epoch, owned)?;
                    Ok((ok_reply(&[]), true))
                }
                "incoming" => {
                    let epoch = num(doc, "epoch")?;
                    let vshards = vshard_list(doc, "vshards")?;
                    agent.begin_incoming(epoch, &vshards)?;
                    Ok((ok_reply(&[]), true))
                }
                "event" => {
                    let epoch = num(doc, "epoch")?;
                    let v = num(doc, "vshard")? as usize;
                    let seq = num(doc, "seq")?;
                    let event = event_from_json(&doc["event"])?;
                    let applied = agent.submit(epoch, v, seq, event)?;
                    let label = match applied {
                        Applied::Fresh => "fresh",
                        Applied::Duplicate => "duplicate",
                    };
                    Ok((ok_reply(&[("applied", json!(label))]), true))
                }
                "event-batch" => {
                    let epoch = num(doc, "epoch")?;
                    let items = doc["items"]
                        .as_array()
                        .ok_or_else(|| ClusterError::Wire("`items` must be an array".into()))?;
                    let mut fresh = 0u64;
                    let mut duplicate = 0u64;
                    for item in items {
                        let v = num(item, "vshard")? as usize;
                        let seq = num(item, "seq")?;
                        let event = event_from_json(&item["event"])?;
                        // A typed mid-batch rejection fails the whole
                        // frame; the supervisor falls back to per-event
                        // delivery, where the sequence watermark dedups
                        // the prefix that already applied.
                        match agent.submit(epoch, v, seq, event)? {
                            Applied::Fresh => fresh += 1,
                            Applied::Duplicate => duplicate += 1,
                        }
                    }
                    Ok((
                        ok_reply(&[("fresh", json!(fresh)), ("duplicate", json!(duplicate))]),
                        true,
                    ))
                }
                "extract" => {
                    let epoch = num(doc, "epoch")?;
                    let vshards = vshard_list(doc, "vshards")?;
                    let bundle = agent.extract(epoch, &vshards)?;
                    Ok((ok_reply(&[("bundle", bundle)]), true))
                }
                "install" => {
                    let epoch = num(doc, "epoch")?;
                    let sessions = agent.install(epoch, &doc["bundle"])?;
                    Ok((ok_reply(&[("sessions", json!(sessions as u64))]), true))
                }
                "checkpoint" => {
                    let bundle = agent.checkpoint();
                    Ok((ok_reply(&[("bundle", bundle)]), true))
                }
                other => Err(ClusterError::Wire(format!("unknown command `{other}`"))),
            }
        }
    })();
    match result {
        Ok(pair) => pair,
        Err(e) => (err_reply(&e), true),
    }
}

/// The worker main loop: handshake, then serve one supervisor connection
/// until `finish`/`shutdown` or EOF (a vanished supervisor is a clean
/// exit — its journal owns the truth, not us).
pub fn run_worker(node: usize) -> Result<(), ClusterError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(wire_err)?;
    let port = listener.local_addr().map_err(wire_err)?.port();
    println!("{PORT_BANNER} {port}");
    std::io::stdout().flush().ok();
    let (stream, _) = listener.accept().map_err(wire_err)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(wire_err)?);
    let mut writer = stream;
    let mut agent: Option<NodeAgent> = None;
    loop {
        let doc = match read_frame(&mut reader).map_err(wire_err)? {
            Some((_, doc)) => doc,
            None => return Ok(()),
        };
        if doc["cmd"].as_str() == Some("finish") {
            let outcomes: Vec<Json> = match agent.take() {
                Some(agent) => agent
                    .finish()
                    .outcomes
                    .iter()
                    .map(outcome_to_json)
                    .collect(),
                None => Vec::new(),
            };
            let reply = ok_reply(&[("outcomes", Json::Array(outcomes))]);
            write_frame(&mut writer, Framing::Binary, &reply).map_err(wire_err)?;
            return Ok(());
        }
        let (reply, keep) = dispatch(&mut agent, node, &doc);
        write_frame(&mut writer, Framing::Binary, &reply).map_err(wire_err)?;
        if !keep {
            return Ok(());
        }
    }
}

struct ProcWorker {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ProcWorker {
    fn call(&mut self, doc: &Json) -> Result<Json, ClusterError> {
        write_frame(&mut self.writer, Framing::Binary, doc).map_err(wire_err)?;
        match read_frame(&mut self.reader).map_err(wire_err)? {
            Some((_, reply)) => Ok(reply),
            None => Err(ClusterError::Wire("worker closed the connection".into())),
        }
    }
}

/// Supervisor for a fleet of worker processes. See the module docs.
pub struct ProcCluster {
    spec_text: String,
    view_m: Option<u16>,
    seed: u64,
    workers: Vec<Option<ProcWorker>>,
    backoffs: Vec<Backoff>,
    control: ControlPlane,
    /// Authoritative per-vshard journal; `journal[v][i]` is sequence
    /// `i + 1`. The supervisor's copy of the truth: any worker can be
    /// killed and rebuilt from it.
    journal: Vec<Vec<Event>>,
    /// Routing table the ingress actually uses; refreshed from the
    /// control plane on typed rejection, like the simulated ingress.
    cached: Assignment,
    snapshot_dir: Option<PathBuf>,
    checkpoint_every: u64,
    applied_since_ckpt: Vec<u64>,
    metrics: ClusterMetrics,
}

/// Everything a [`ProcCluster`] reports after a clean drain.
pub struct ProcReport {
    /// Merged per-session outcomes, sorted by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// Final cluster metrics.
    pub metrics: ClusterMetrics,
}

impl ProcCluster {
    /// Spawns `nodes` worker processes (re-execs of the current binary),
    /// configures each with `spec_text`, and hands each its balanced
    /// shard range. `snapshot_dir`, when set, enables durable worker
    /// checkpoints every `checkpoint_every` applied events, written
    /// atomically with a checksum footer via [`rega_stream::persist`].
    pub fn new(
        nodes: usize,
        spec_text: &str,
        view_m: Option<u16>,
        seed: u64,
        snapshot_dir: Option<PathBuf>,
        checkpoint_every: u64,
    ) -> Result<ProcCluster, ClusterError> {
        let nodes = nodes.max(1);
        let config = ControlConfig {
            // Process-scale supervision: these milliseconds are real.
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            seed,
            ..ControlConfig::default()
        };
        let control = ControlPlane::new(nodes, config.clone(), 0);
        let mut cluster = ProcCluster {
            spec_text: spec_text.to_string(),
            view_m,
            seed,
            workers: (0..nodes).map(|_| None).collect(),
            backoffs: (0..nodes)
                .map(|n| {
                    Backoff::new(
                        config.backoff_base_ms,
                        config.backoff_cap_ms,
                        seed ^ rega_stream::fnv1a(&(n as u64).to_le_bytes()),
                    )
                })
                .collect(),
            cached: control.actual.clone(),
            control,
            journal: vec![Vec::new(); VSHARDS],
            snapshot_dir,
            checkpoint_every,
            applied_since_ckpt: vec![0; nodes],
            metrics: ClusterMetrics::private(),
        };
        for n in 0..nodes {
            cluster.spawn_worker(n)?;
        }
        cluster.metrics.nodes_up.set(nodes as u64);
        cluster.metrics.epoch.set(cluster.control.actual.epoch);
        Ok(cluster)
    }

    /// The cluster metric set (live).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.control.actual.epoch
    }

    fn snapshot_path(&self, n: usize) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("worker-{n}.snap")))
    }

    /// Spawns (or respawns) worker `n`: exec, port handshake, connect,
    /// `cfg`, `assign`, then state recovery — durable checkpoint if one
    /// loads cleanly (a corrupt file is reported and discarded; recovery
    /// proceeds from the journal alone), then journal replay past each
    /// restored watermark.
    fn spawn_worker(&mut self, n: usize) -> Result<(), ClusterError> {
        let exe = std::env::current_exe()
            .map_err(|e| ClusterError::Spawn(format!("current_exe: {e}")))?;
        let mut child = Command::new(exe)
            .env(WORKER_ENV, n.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ClusterError::Spawn(e.to_string()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| ClusterError::Spawn("worker stdout not captured".into()))?;
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| ClusterError::Spawn(format!("handshake read: {e}")))?;
        let port: u16 = match banner
            .trim()
            .strip_prefix(PORT_BANNER)
            .and_then(|rest| rest.trim().parse().ok())
        {
            Some(port) => port,
            None => {
                child.kill().ok();
                child.wait().ok();
                return Err(ClusterError::Spawn(format!(
                    "bad worker handshake: {banner:?}"
                )));
            }
        };
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| ClusterError::Spawn(format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut worker = ProcWorker {
            child,
            reader: BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| ClusterError::Spawn(e.to_string()))?,
            ),
            writer: stream,
        };
        let epoch = self.control.actual.epoch;
        let owned = self.control.actual.owned_by(n);
        // Per-node seed, stable across respawns: recovery must rebuild
        // the same engine the crash interrupted.
        let seed = self.seed ^ rega_stream::fnv1a(&(n as u64).to_le_bytes());
        let mut view_m_json = Json::Null;
        if let Some(m) = self.view_m {
            view_m_json = json!(m as u64);
        }
        Self::expect_ok(worker.call(&json!({
            "cmd": "cfg",
            "spec": self.spec_text.clone(),
            "view_m": view_m_json,
            "seed": seed,
        }))?)?;
        Self::expect_ok(worker.call(&json!({
            "cmd": "assign",
            "epoch": epoch,
            "owned": owned.iter().map(|&v| v as u64).collect::<Vec<u64>>(),
        }))?)?;
        // Durable restore: a checkpoint that fails its checksum footer is
        // a typed error — log and discard; the journal replays everything.
        if let Some(path) = self.snapshot_path(n) {
            if path.exists() {
                match rega_stream::persist::load(&path) {
                    Ok(bundle) => {
                        let keep: BTreeSet<usize> = owned.iter().copied().collect();
                        let filtered = crate::node::filter_bundle(&bundle, &keep);
                        // A checkpoint bundle installs like a migration
                        // bundle once its `owned` set is renamed to the
                        // `vshards` the install should claim (the engine
                        // snapshot shapes are identical).
                        Self::expect_ok(worker.call(&json!({
                            "cmd": "install",
                            "epoch": epoch,
                            "bundle": json!({
                                "format_version": filtered["format_version"].clone(),
                                "vshards": filtered["owned"].clone(),
                                "seqs": filtered["seqs"].clone(),
                                "engine": filtered["engine"].clone(),
                            }),
                        }))?)?;
                    }
                    Err(e) => {
                        eprintln!(
                            "rega-cluster: discarding checkpoint {}: {e}",
                            path.display()
                        );
                    }
                }
            }
        }
        // Journal replay past whatever the checkpoint restored. Replays
        // below the watermark come back `duplicate` — counted, harmless.
        for &v in &owned {
            for (i, event) in self.journal[v].iter().enumerate() {
                let reply = worker.call(&json!({
                    "cmd": "event",
                    "epoch": epoch,
                    "vshard": v as u64,
                    "seq": (i + 1) as u64,
                    "event": event_to_json(event),
                }))?;
                if reply["ok"].as_bool() != Some(true) {
                    return Err(ClusterError::from_json(&reply["error"]));
                }
                if reply["applied"].as_str() == Some("fresh") {
                    self.metrics.events_replayed.inc();
                }
            }
        }
        self.workers[n] = Some(worker);
        Ok(())
    }

    fn expect_ok(reply: Json) -> Result<Json, ClusterError> {
        if reply["ok"].as_bool() == Some(true) {
            Ok(reply)
        } else {
            Err(ClusterError::from_json(&reply["error"]))
        }
    }

    /// Kills worker `n` (if still running) and respawns it under its
    /// capped backoff.
    fn respawn_worker(&mut self, n: usize) -> Result<(), ClusterError> {
        if let Some(mut w) = self.workers[n].take() {
            w.child.kill().ok();
            w.child.wait().ok();
        }
        self.metrics.crashes.inc();
        let delay = self.backoffs[n].next_delay_ms();
        std::thread::sleep(Duration::from_millis(delay));
        self.spawn_worker(n)?;
        self.backoffs[n].reset();
        self.metrics.respawns.inc();
        Ok(())
    }

    /// The vshards currently owned by worker `n` (actual assignment).
    pub fn owned_by(&self, n: usize) -> Vec<usize> {
        self.control.actual.owned_by(n)
    }

    /// Kills worker `n` without warning. Test hook for crash-recovery
    /// coverage; the next delivery or [`ProcCluster::supervise`] sweep
    /// finds the dead pipe and respawns.
    pub fn kill_worker(&mut self, n: usize) {
        if let Some(w) = self.workers[n].as_mut() {
            w.child.kill().ok();
            w.child.wait().ok();
        }
    }

    /// Delivers one event, retrying through typed rejections and worker
    /// crashes exactly like the simulated ingress.
    pub fn submit(&mut self, event: Event) -> Result<(), ClusterError> {
        let v = vshard(event.session());
        self.journal[v].push(event.clone());
        let seq = self.journal[v].len() as u64;
        let started = std::time::Instant::now();
        match self.deliver(v, seq, &event) {
            Ok(owner) => {
                // Ack latency covers the full delivery including any
                // rebalancing waits and respawn retries — the number an
                // ingress client actually experiences.
                self.metrics
                    .ack_latency
                    .record_ns(started.elapsed().as_nanos() as u64);
                self.metrics.events_routed.inc();
                self.after_apply(owner, 1)?;
                Ok(())
            }
            Err(e) => {
                // Terminal failure: the event was never applied anywhere,
                // so it must not survive in the journal for replays.
                self.journal[v].pop();
                Err(e)
            }
        }
    }

    fn deliver(&mut self, v: usize, seq: u64, event: &Event) -> Result<usize, ClusterError> {
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            if attempts > MAX_DELIVERY_ATTEMPTS {
                return Err(ClusterError::Unavailable {
                    vshard: v,
                    attempts,
                });
            }
            if attempts > 1 {
                self.metrics.retries.inc();
            }
            let owner = self.cached.owner_of(v);
            if self.workers[owner].is_none() {
                self.respawn_worker(owner)?;
            }
            let doc = json!({
                "cmd": "event",
                "epoch": self.cached.epoch,
                "vshard": v as u64,
                "seq": seq,
                "event": event_to_json(event),
            });
            let reply = match self.workers[owner].as_mut().unwrap().call(&doc) {
                Ok(reply) => reply,
                Err(_) => {
                    // Dead pipe: crash-respawn and retry. The sequence
                    // watermark makes the retry safe even if the event
                    // landed just before the crash.
                    self.respawn_worker(owner)?;
                    continue;
                }
            };
            if reply["ok"].as_bool() == Some(true) {
                if reply["applied"].as_str() == Some("duplicate") {
                    self.metrics.events_deduped.inc();
                }
                return Ok(owner);
            }
            match ClusterError::from_json(&reply["error"]) {
                ClusterError::Rebalancing { retry_after_ms, .. } => {
                    self.metrics.sheds_rebalancing.inc();
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                ClusterError::StaleEpoch { .. } => {
                    self.metrics.stale_epoch_rejections.inc();
                    self.cached = self.control.actual.clone();
                }
                ClusterError::NotOwner { .. } => {
                    self.cached = self.control.actual.clone();
                }
                e => return Err(e),
            }
        }
    }

    /// Post-apply bookkeeping: periodic durable checkpoints.
    fn after_apply(&mut self, owner: usize, applied: u64) -> Result<(), ClusterError> {
        if self.checkpoint_every == 0 {
            return Ok(());
        }
        self.applied_since_ckpt[owner] += applied;
        if self.applied_since_ckpt[owner] < self.checkpoint_every {
            return Ok(());
        }
        self.applied_since_ckpt[owner] = 0;
        let Some(path) = self.snapshot_path(owner) else {
            return Ok(());
        };
        let reply = Self::expect_ok(
            self.workers[owner]
                .as_mut()
                .unwrap()
                .call(&json!({"cmd": "checkpoint"}))?,
        )?;
        rega_stream::persist::save(&path, &reply["bundle"])
            .map_err(|e| ClusterError::Wire(format!("checkpoint save: {e}")))?;
        self.metrics.checkpoints.inc();
        Ok(())
    }

    /// Delivers a batch: consecutive same-owner runs go out as one
    /// `event-batch` frame; any batch failure falls back to per-event
    /// delivery, where the watermark dedups whatever prefix applied.
    pub fn submit_batch(&mut self, events: &[Event]) -> Result<(), ClusterError> {
        let mut i = 0;
        while i < events.len() {
            let owner = self.cached.owner_of(vshard(events[i].session()));
            let mut j = i;
            let mut items = Vec::new();
            while j < events.len() {
                let v = vshard(events[j].session());
                if self.cached.owner_of(v) != owner {
                    break;
                }
                self.journal[v].push(events[j].clone());
                items.push(json!({
                    "vshard": v as u64,
                    "seq": self.journal[v].len() as u64,
                    "event": event_to_json(&events[j]),
                }));
                j += 1;
            }
            let batch_ok = self.workers[owner]
                .as_mut()
                .and_then(|w| {
                    w.call(&json!({
                        "cmd": "event-batch",
                        "epoch": self.cached.epoch,
                        "items": Json::Array(items.clone()),
                    }))
                    .ok()
                })
                .map(|reply| reply["ok"].as_bool() == Some(true))
                .unwrap_or(false);
            if batch_ok {
                self.metrics.events_routed.add((j - i) as u64);
                self.after_apply(owner, (j - i) as u64)?;
            } else {
                // Pop the speculative journal entries and re-deliver each
                // event through the fully supervised path (which pushes
                // its own entry and can ride through respawns).
                for e in events[i..j].iter().rev() {
                    self.journal[vshard(e.session())].pop();
                }
                for e in &events[i..j] {
                    self.submit(e.clone())?;
                }
            }
            i = j;
        }
        Ok(())
    }

    /// Migrates `vshards` to worker `to` through the epoch-fenced
    /// two-phase protocol: mark incoming on the recipient, extract from
    /// each donor, commit the epoch bump, install, resync the rest.
    pub fn migrate(&mut self, vshards: &[usize], to: usize) -> Result<(), ClusterError> {
        self.control.retarget(vshards, to);
        for m in self.control.plan_migrations() {
            for n in [m.from, m.to] {
                if self.workers[n].is_none() {
                    self.respawn_worker(n)?;
                }
            }
            let new_epoch = self.control.actual.epoch + 1;
            let shard_json: Vec<u64> = m.vshards.iter().map(|&v| v as u64).collect();
            Self::expect_ok(self.workers[m.to].as_mut().unwrap().call(&json!({
                "cmd": "incoming",
                "epoch": new_epoch,
                "vshards": shard_json.clone(),
            }))?)?;
            let reply = Self::expect_ok(self.workers[m.from].as_mut().unwrap().call(&json!({
                "cmd": "extract",
                "epoch": new_epoch,
                "vshards": shard_json,
            }))?)?;
            self.control.commit_migration(&m);
            let epoch = self.control.actual.epoch;
            debug_assert_eq!(epoch, new_epoch, "commit bumps exactly one epoch");
            let install = Self::expect_ok(self.workers[m.to].as_mut().unwrap().call(&json!({
                "cmd": "install",
                "epoch": epoch,
                "bundle": reply["bundle"].clone(),
            }))?)?;
            self.metrics.migrations.inc();
            self.metrics
                .sessions_migrated
                .add(install["sessions"].as_u64().unwrap_or(0));
            // Resync every other live worker to the new epoch so their
            // fences track the committed assignment.
            for n in 0..self.workers.len() {
                if n == m.from || n == m.to {
                    continue;
                }
                if let Some(w) = self.workers[n].as_mut() {
                    let owned = self.control.actual.owned_by(n);
                    Self::expect_ok(w.call(&json!({
                        "cmd": "assign",
                        "epoch": epoch,
                        "owned": owned.iter().map(|&v| v as u64).collect::<Vec<u64>>(),
                    }))?)?;
                }
            }
            self.metrics.epoch.set(epoch);
        }
        self.cached = self.control.actual.clone();
        Ok(())
    }

    /// Heartbeat sweep: pings every worker, respawning any with a dead
    /// pipe or a failed reply.
    pub fn supervise(&mut self) -> Result<(), ClusterError> {
        for n in 0..self.workers.len() {
            let alive = self.workers[n]
                .as_mut()
                .and_then(|w| w.call(&json!({"cmd": "ping"})).ok())
                .map(|r| r["ok"].as_bool() == Some(true))
                .unwrap_or(false);
            if !alive {
                self.metrics.heartbeats_missed.inc();
                self.respawn_worker(n)?;
            }
        }
        Ok(())
    }

    /// Drains every worker, merges their outcome reports (sorted by
    /// session id), and reaps the processes.
    pub fn finish(mut self) -> Result<ProcReport, ClusterError> {
        let mut outcomes: Vec<SessionOutcome> = Vec::new();
        for n in 0..self.workers.len() {
            if self.workers[n].is_none() {
                // A worker lost right at the end still owes its shards:
                // bring it back (journal replay) so nothing is dropped.
                self.respawn_worker(n)?;
            }
            let mut worker = self.workers[n].take().unwrap();
            let reply = worker.call(&json!({"cmd": "finish"}))?;
            if reply["ok"].as_bool() != Some(true) {
                return Err(ClusterError::from_json(&reply["error"]));
            }
            for j in reply["outcomes"].as_array().into_iter().flatten() {
                outcomes.push(outcome_from_json(j)?);
            }
            worker.child.wait().ok();
        }
        outcomes.sort_by(|a, b| a.session.cmp(&b.session));
        Ok(ProcReport {
            outcomes,
            metrics: self.metrics.clone(),
        })
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        for w in self.workers.iter_mut().flatten() {
            w.child.kill().ok();
            w.child.wait().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_data::Value;

    const SPEC: &str = "\
registers 1
state p init accept
trans p -> p : x1 = x1
";

    fn step(session: &str, value: u64) -> Event {
        Event::Step {
            session: session.into(),
            state: "p".into(),
            regs: vec![Value(value)],
        }
    }

    #[test]
    fn event_json_round_trips_through_the_engine_parser() {
        for event in [
            step("alice", 7),
            Event::End {
                session: "bob".into(),
            },
        ] {
            let j = event_to_json(&event);
            assert_eq!(event_from_json(&j).unwrap(), event);
        }
    }

    // The dispatch table is transport-free, so the whole worker protocol
    // is exercised here in-process; the integration test covers the real
    // exec/handshake/TCP path.
    #[test]
    fn dispatch_speaks_the_full_protocol() {
        let mut agent: Option<NodeAgent> = None;

        // Unconfigured workers reject everything but cfg/ping/shutdown.
        let (reply, keep) = dispatch(&mut agent, 0, &json!({"cmd": "assign", "epoch": 1u64}));
        assert!(keep);
        assert_eq!(reply["ok"].as_bool(), Some(false));
        assert_eq!(reply["error"]["code"].as_str(), Some("wire"));

        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({"cmd": "cfg", "spec": SPEC, "view_m": Json::Null, "seed": 3u64}),
        );
        assert_eq!(reply["ok"].as_bool(), Some(true));

        let all: Vec<u64> = (0..VSHARDS as u64).collect();
        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({"cmd": "assign", "epoch": 1u64, "owned": all}),
        );
        assert_eq!(reply["ok"].as_bool(), Some(true));

        let v = vshard("alice") as u64;
        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({
                "cmd": "event", "epoch": 1u64, "vshard": v, "seq": 1u64,
                "event": event_to_json(&step("alice", 1)),
            }),
        );
        assert_eq!(reply["applied"].as_str(), Some("fresh"));

        // Typed errors cross the dispatch boundary intact.
        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({
                "cmd": "event", "epoch": 9u64, "vshard": v, "seq": 2u64,
                "event": event_to_json(&step("alice", 2)),
            }),
        );
        assert_eq!(
            ClusterError::from_json(&reply["error"]),
            ClusterError::StaleEpoch { sent: 9, held: 1 }
        );

        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({
                "cmd": "event-batch", "epoch": 1u64,
                "items": [
                    {"vshard": v, "seq": 1u64, "event": event_to_json(&step("alice", 1))},
                    {"vshard": v, "seq": 2u64, "event": event_to_json(&step("alice", 2))},
                ],
            }),
        );
        assert_eq!(
            reply["fresh"].as_u64(),
            Some(1),
            "seq 1 deduped, seq 2 fresh"
        );
        assert_eq!(reply["duplicate"].as_u64(), Some(1));

        let (reply, _) = dispatch(&mut agent, 0, &json!({"cmd": "checkpoint"}));
        assert_eq!(reply["bundle"]["epoch"].as_u64(), Some(1));

        let (reply, _) = dispatch(
            &mut agent,
            0,
            &json!({"cmd": "extract", "epoch": 2u64, "vshards": [v]}),
        );
        let bundle = reply["bundle"].clone();
        assert_eq!(bundle["epoch"].as_u64(), Some(2));

        let mut other: Option<NodeAgent> = None;
        let (reply, _) = dispatch(
            &mut other,
            1,
            &json!({"cmd": "cfg", "spec": SPEC, "view_m": Json::Null, "seed": 4u64}),
        );
        assert_eq!(reply["ok"].as_bool(), Some(true));
        let (reply, _) = dispatch(
            &mut other,
            1,
            &json!({"cmd": "install", "epoch": 2u64, "bundle": bundle}),
        );
        assert_eq!(reply["sessions"].as_u64(), Some(1));

        let (_, keep) = dispatch(&mut agent, 0, &json!({"cmd": "shutdown"}));
        assert!(!keep, "shutdown ends the serve loop");
    }
}
