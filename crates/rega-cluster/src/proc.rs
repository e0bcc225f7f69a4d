//! Real worker processes: the cluster protocol over the `rega-serve`
//! wire framing.
//!
//! A worker is the **same executable** re-exec'd with the
//! [`WORKER_ENV`] environment variable set (binaries opt in by calling
//! [`maybe_worker_entry`] first thing in `main`). The worker binds a
//! loopback port, prints one handshake line
//! (`REGA-CLUSTER-WORKER-PORT <port>`) on stdout, accepts exactly one
//! connection from its supervisor, and then serves the same operations
//! the in-process [`NodeAgent`] exposes as two kinds of length-prefixed
//! frame, told apart by their first byte:
//!
//! * **Control frames** (`0xB5`, [`rega_serve::proto`]'s binary framing)
//!   carry one JSON command: `cfg`, `assign`, `incoming`, `extract`,
//!   `install`, `checkpoint`, `ping`, `finish`, `shutdown`.
//! * **Batch frames** (`0xB6`, [`crate::batch`]) carry events as varint
//!   records: `0xB6`, a u32 big-endian payload length, then varint
//!   epoch, varint count (at most
//!   [`FRAME_EVENTS`](crate::batch::FRAME_EVENTS)), and per record varint
//!   vshard, varint seq, a tag byte (0 = step, 1 = end), the
//!   length-prefixed UTF-8 session and, for a step, the length-prefixed
//!   UTF-8 state, a varint register count and varint registers.
//!
//! Every reply is a JSON control frame: `ok: true` plus the command's
//! fields (`fresh` and `duplicate` counts for a batch), or `ok: false`
//! with a typed [`ClusterError`], so errors have one encoding.
//!
//! [`ProcTransport`] is the supervisor's side of that conversation: it
//! spawns workers, carries each [`Transport`] request as one frame, and
//! keeps durable checkpoints on disk through [`rega_stream::persist`]
//! (a truncated or bit-flipped file surfaces as a typed
//! [`SnapshotError::Corrupt`](rega_stream::SnapshotError) and is
//! discarded rather than trusted). [`ProcCluster`] is the shipping
//! [`Supervisor`] over it, the same supervisor the chaos suite drives.
//!
//! Each worker runs the deterministic single-threaded scheduler inside;
//! parallelism comes from running many worker *processes*. That is an
//! honest trade documented in EXPERIMENTS.md E21: the deterministic
//! engine is the one that can checkpoint, extract, and migrate
//! mid-stream, and per-session verdicts stay byte-identical to a
//! single-process run.

use crate::batch::{decode_batch, read_batch, BATCH_MAGIC};
use crate::control::ControlConfig;
use crate::error::ClusterError;
use crate::node::{Applied, NodeAgent};
use crate::supervisor::{Supervisor, Transport};
use rega_obs::{MonotonicClock, ObsClock};
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

/// Environment variable that turns an exec of the host binary into a
/// cluster worker. Its value is the worker's node index.
pub const WORKER_ENV: &str = "REGA_CLUSTER_WORKER";

/// Handshake prefix the worker prints on stdout before serving.
pub const PORT_BANNER: &str = "REGA-CLUSTER-WORKER-PORT";

/// The stable JSON encoding of an [`Event`], the one `rega monitor` reads.
/// Workers receive events as batch frames ([`crate::batch`]) instead.
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
pub(crate) fn dispatch(agent: &mut Option<NodeAgent>, node: usize, doc: &Json) -> (Json, bool) {
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
            let agent = configured(agent)?;
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

fn configured(agent: &mut Option<NodeAgent>) -> Result<&mut NodeAgent, ClusterError> {
    agent
        .as_mut()
        .ok_or_else(|| ClusterError::Wire("worker not configured (send `cfg`)".into()))
}

/// Serves one batch frame: decodes it whole, then applies its records in
/// order. The reply counts `fresh` and `duplicate` records.
pub(crate) fn dispatch_batch(agent: &mut Option<NodeAgent>, frame: &[u8]) -> Json {
    let result = (|| {
        let agent = configured(agent)?;
        let (epoch, items) = decode_batch(frame)?;
        let (mut fresh, mut duplicate) = (0u64, 0u64);
        for (v, seq, event) in items {
            // A typed mid-batch rejection fails the whole frame; the
            // supervisor falls back to per-event delivery, where the
            // sequence watermark dedups the prefix that already applied.
            match agent.submit(epoch, v, seq, event)? {
                Applied::Fresh => fresh += 1,
                Applied::Duplicate => duplicate += 1,
            }
        }
        Ok(ok_reply(&[
            ("fresh", json!(fresh)),
            ("duplicate", json!(duplicate)),
        ]))
    })();
    result.unwrap_or_else(|e| err_reply(&e))
}

/// A worker reply as a result: `ok: true` replies pass through, anything
/// else is the typed error it carries.
pub(crate) fn reply_result(reply: Json) -> Result<Json, ClusterError> {
    if reply["ok"].as_bool() == Some(true) {
        Ok(reply)
    } else {
        Err(ClusterError::from_json(&reply["error"]))
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
    let mut frame = Vec::new();
    loop {
        let first = reader.fill_buf().map_err(wire_err)?.first().copied();
        if first == Some(BATCH_MAGIC) {
            read_batch(&mut reader, &mut frame)?;
            let reply = dispatch_batch(&mut agent, &frame);
            write_frame(&mut writer, Framing::Binary, &reply).map_err(wire_err)?;
            continue;
        }
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
    /// Execs worker `n`, reads its port handshake and connects.
    fn launch(n: usize) -> Result<ProcWorker, ClusterError> {
        let exe = std::env::current_exe()
            .map_err(|e| ClusterError::Spawn(format!("current_exe: {e}")))?;
        let mut child = Command::new(exe)
            .env(WORKER_ENV, n.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ClusterError::Spawn(e.to_string()))?;
        let mut banner = String::new();
        if let Some(stdout) = child.stdout.take() {
            BufReader::new(stdout).read_line(&mut banner).ok();
        }
        let port: Option<u16> = banner
            .trim()
            .strip_prefix(PORT_BANNER)
            .and_then(|rest| rest.trim().parse().ok());
        let stream = port.and_then(|port| TcpStream::connect(("127.0.0.1", port)).ok());
        let Some(stream) = stream else {
            child.kill().ok();
            child.wait().ok();
            return Err(ClusterError::Spawn(format!(
                "bad worker handshake: {banner:?}"
            )));
        };
        stream.set_nodelay(true).ok();
        Ok(ProcWorker {
            child,
            reader: BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| ClusterError::Spawn(e.to_string()))?,
            ),
            writer: stream,
        })
    }
}

/// Worker processes on the wall clock. See the module docs.
pub struct ProcTransport {
    spec_text: String,
    view_m: Option<u16>,
    workers: Vec<Option<ProcWorker>>,
    snapshot_dir: Option<PathBuf>,
    /// Workers that saved a checkpoint during this run. Only those are
    /// restored: a file left by an earlier run describes a journal this
    /// supervisor never had.
    saved: Vec<bool>,
    clock: MonotonicClock,
}

/// The multi-process cluster: the shipping supervisor over
/// [`ProcTransport`].
pub type ProcCluster = Supervisor<ProcTransport>;

impl Supervisor<ProcTransport> {
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
        let transport = ProcTransport {
            spec_text: spec_text.to_string(),
            view_m,
            workers: (0..nodes).map(|_| None).collect(),
            snapshot_dir,
            saved: vec![false; nodes],
            clock: MonotonicClock::new(),
        };
        Supervisor::start(transport, nodes, config, seed, checkpoint_every)
    }
}

impl ProcTransport {
    fn snapshot_path(&self, n: usize) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("worker-{n}.snap")))
    }

    /// One frame each way: `send` writes the request, the reply is a JSON
    /// control frame. A broken pipe means the worker is gone: it is
    /// reaped and forgotten.
    fn exchange(
        &mut self,
        n: usize,
        send: impl FnOnce(&mut TcpStream) -> std::io::Result<()>,
    ) -> Result<Json, ClusterError> {
        let w = self.workers[n]
            .as_mut()
            .ok_or(ClusterError::WorkerDown { node: n })?;
        let reply = match send(&mut w.writer) {
            Ok(()) => read_frame(&mut w.reader).ok().flatten(),
            Err(_) => None,
        };
        match reply {
            Some((_, reply)) => reply_result(reply),
            None => {
                self.kill(n);
                Err(ClusterError::WorkerDown { node: n })
            }
        }
    }
}

impl Transport for ProcTransport {
    fn clock(&self) -> &dyn ObsClock {
        &self.clock
    }

    fn running(&self, n: usize) -> bool {
        self.workers[n].is_some()
    }

    /// Exec, port handshake, connect, `cfg`.
    fn spawn(&mut self, n: usize, seed: u64) -> Result<(), ClusterError> {
        self.kill(n);
        self.workers[n] = Some(ProcWorker::launch(n)?);
        let view_m = self.view_m.map_or(Json::Null, |m| json!(m as u64));
        let cfg = json!({
            "cmd": "cfg",
            "spec": self.spec_text.clone(),
            "view_m": view_m,
            "seed": seed,
        });
        self.call(n, &cfg).map(drop)
    }

    fn kill(&mut self, n: usize) {
        if let Some(mut w) = self.workers[n].take() {
            w.child.kill().ok();
            w.child.wait().ok();
        }
    }

    fn call(&mut self, n: usize, request: &Json) -> Result<Json, ClusterError> {
        self.exchange(n, |w| write_frame(w, Framing::Binary, request))
    }

    /// The frame is written as it is, in one write.
    fn batch(&mut self, n: usize, frame: &[u8]) -> Result<Json, ClusterError> {
        self.exchange(n, |w| w.write_all(frame))
    }

    fn checkpoint(&mut self, n: usize) -> bool {
        let Some(path) = self.snapshot_path(n) else {
            return false;
        };
        let Ok(reply) = self.call(n, &json!({"cmd": "checkpoint"})) else {
            return false;
        };
        match rega_stream::persist::save(&path, &reply["bundle"]) {
            Ok(()) => {
                self.saved[n] = true;
                true
            }
            Err(e) => {
                eprintln!("rega-cluster: checkpoint {} not saved: {e}", path.display());
                false
            }
        }
    }

    fn durable(&mut self, n: usize) -> Option<Json> {
        let path = self.snapshot_path(n).filter(|_| self.saved[n])?;
        match rega_stream::persist::load(&path) {
            Ok(bundle) => Some(bundle),
            Err(e) => {
                eprintln!(
                    "rega-cluster: discarding checkpoint {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    fn finish(&mut self, n: usize) -> Result<Vec<SessionOutcome>, ClusterError> {
        let reply = self.call(n, &json!({"cmd": "finish"}))?;
        if let Some(mut w) = self.workers[n].take() {
            w.child.wait().ok();
        }
        let outcomes = reply["outcomes"].as_array().into_iter().flatten();
        outcomes.map(|j| Ok(outcome_from_json(j)?)).collect()
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        for n in 0..self.workers.len() {
            self.kill(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{vshard, VSHARDS};
    use crate::batch::encode_batch;
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

        // Events arrive as binary batch frames.
        let v = vshard("alice");
        let (one, two) = (step("alice", 1), step("alice", 2));
        let mut frame = Vec::new();
        encode_batch(1, &[(v, 1, &one)], &mut frame);
        let reply = dispatch_batch(&mut agent, &frame);
        assert_eq!(reply["fresh"].as_u64(), Some(1));

        // Typed errors cross the dispatch boundary intact.
        encode_batch(9, &[(v, 2, &two)], &mut frame);
        let reply = dispatch_batch(&mut agent, &frame);
        assert_eq!(
            ClusterError::from_json(&reply["error"]),
            ClusterError::StaleEpoch { sent: 9, held: 1 }
        );

        encode_batch(1, &[(v, 1, &one), (v, 2, &two)], &mut frame);
        let reply = dispatch_batch(&mut agent, &frame);
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
            &json!({"cmd": "extract", "epoch": 2u64, "vshards": [v as u64]}),
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
