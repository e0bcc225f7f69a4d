//! The wire protocol: two framings over one TCP socket, one command set.
//!
//! # Framing
//!
//! Every message (request or response) is one JSON document, carried in
//! one of two framings, distinguishable by the first byte and freely
//! mixable on one connection:
//!
//! * **JSONL** — the document serialized on one line, terminated by `\n`.
//!   This is the human/debug framing: `nc` into the server and type.
//!   JSON documents start with `{`, `[`, a digit, `"`, `t`, `f`, or `n` —
//!   never with the binary magic byte below.
//! * **Binary** — a length-prefixed frame for the hot path: the magic
//!   byte [`BINARY_MAGIC`] (`0xB5`, not valid ASCII and not a valid JSON
//!   first byte), a 4-byte big-endian payload length, then exactly that
//!   many payload bytes holding the serialized document. No newline
//!   scanning, and payloads may contain newlines.
//!
//! Frames longer than [`MAX_FRAME_LEN`] are rejected *before* the payload
//! is read ([`FrameError::Oversized`]); a frame whose stream ends before
//! the announced length is [`FrameError::Truncated`]. Responses always
//! mirror the framing of the request they answer.
//!
//! # Commands
//!
//! A request is a JSON object with a `cmd` field; everything else is
//! command-specific. The full set: `hello`, `load-spec`, `open-session`,
//! `event`, `event-batch`, `snapshot`, `close`, `stats`, `health`,
//! `metrics` — see [`Command`] for fields. Responses are objects with
//! `"ok": true` plus command-specific fields, or `"ok": false` with a
//! typed `error` object (`code`, `message`, and structured detail).
//!
//! # Request correlation
//!
//! Any request may carry a `req` field (a string of at most
//! [`MAX_REQUEST_ID_LEN`] bytes); the server mints a `srv-<n>` id when the
//! client omits it. Either way the response echoes the id back in its own
//! `req` field — in both framings — and every span and event the request
//! produces (connection thread, shard workers, kernel constructions)
//! carries the same id as its `request` trace field.

use rega_stream::{Event, EventError};
use serde_json::Value as Json;
use std::fmt;
use std::io::{BufRead, Read, Write};

/// First byte of a binary frame. Deliberately outside ASCII and not a
/// byte any JSON document can start with, so the two framings are
/// unambiguous per message.
pub const BINARY_MAGIC: u8 = 0xB5;

/// Hard ceiling on one frame's payload (and on one JSONL line), applied
/// before any payload bytes are read: a hostile length prefix cannot make
/// the server allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20; // 1 MiB

/// Which framing a message arrived in (responses mirror it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// Newline-delimited JSON.
    Jsonl,
    /// Magic byte + 4-byte big-endian length + payload.
    Binary,
}

/// Why a frame could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed (includes read timeouts).
    Io(String),
    /// A binary frame announced a payload longer than [`MAX_FRAME_LEN`],
    /// or a JSONL line ran past it without a newline.
    Oversized {
        /// Announced (or accumulated) length.
        len: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The stream ended before the announced payload was complete.
    Truncated {
        /// Bytes the frame announced.
        wanted: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload is not valid JSON.
    BadJson(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated { wanted, got } => {
                write!(f, "truncated frame: announced {wanted} bytes, got {got}")
            }
            FrameError::BadJson(e) => write!(f, "frame payload is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether a read error is a timeout (the connection loops poll their
/// drain flag on timeouts instead of giving up on the peer).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes one document in the given framing. JSONL appends `\n`; binary
/// prefixes [`BINARY_MAGIC`] and the big-endian payload length.
pub fn write_frame<W: Write>(w: &mut W, framing: Framing, doc: &Json) -> std::io::Result<()> {
    let payload = serde_json::to_string(doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    match framing {
        Framing::Jsonl => {
            w.write_all(payload.as_bytes())?;
            w.write_all(b"\n")?;
        }
        Framing::Binary => {
            let len = payload.len() as u32;
            w.write_all(&[BINARY_MAGIC])?;
            w.write_all(&len.to_be_bytes())?;
            w.write_all(payload.as_bytes())?;
        }
    }
    w.flush()
}

/// Reads one message in either framing. Returns `Ok(None)` on a clean EOF
/// at a message boundary. Timeouts surface as `FrameError::Io` whose
/// message the caller can test with the stream's own error; the server's
/// connection loop instead passes a reader whose timeouts it handles
/// before calling this.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<(Framing, Json)>, FrameError> {
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e.to_string())),
    }
    if first[0] == BINARY_MAGIC {
        let mut len_bytes = [0u8; 4];
        read_exact_counted(r, &mut len_bytes, 4)?;
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let mut payload = vec![0u8; len];
        read_exact_counted(r, &mut payload, len)?;
        let text = String::from_utf8(payload)
            .map_err(|e| FrameError::BadJson(format!("payload is not UTF-8: {e}")))?;
        let doc = serde_json::from_str(&text).map_err(|e| FrameError::BadJson(e.to_string()))?;
        Ok(Some((Framing::Binary, doc)))
    } else {
        // JSONL: accumulate until the newline (the first byte is part of
        // the line), bounded by the same frame ceiling.
        let mut line = vec![first[0]];
        loop {
            let mut b = [0u8; 1];
            match r.read(&mut b) {
                Ok(0) => break, // unterminated final line: still a line
                Ok(_) if b[0] == b'\n' => break,
                Ok(_) => {
                    line.push(b[0]);
                    if line.len() > MAX_FRAME_LEN {
                        return Err(FrameError::Oversized {
                            len: line.len(),
                            max: MAX_FRAME_LEN,
                        });
                    }
                }
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        let text = String::from_utf8(line)
            .map_err(|e| FrameError::BadJson(format!("line is not UTF-8: {e}")))?;
        let doc = serde_json::from_str(&text).map_err(|e| FrameError::BadJson(e.to_string()))?;
        Ok(Some((Framing::Jsonl, doc)))
    }
}

/// `read_exact` that reports how many bytes were present on a short read,
/// so truncation errors are actionable.
fn read_exact_counted<R: Read>(r: &mut R, buf: &mut [u8], wanted: usize) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(FrameError::Truncated { wanted, got }),
            Ok(n) => got += n,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// A parsed request. Every variant names the tenant it acts for (except
/// the server-wide `stats` / `health` probes).
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `{"cmd":"hello","tenant":T}` — admit (or re-greet) a tenant.
    Hello {
        /// Tenant namespace to admit.
        tenant: String,
    },
    /// `{"cmd":"load-spec","tenant":T,"name":N,"spec":TEXT,"view":M?}` —
    /// compile a spec (counted against the tenant's spec quota, governed
    /// by its compile budget) and start its engine.
    LoadSpec {
        /// Owning tenant.
        tenant: String,
        /// Name the spec is addressed by in later commands.
        name: String,
        /// The spec source text, in `rega_core::spec` syntax.
        spec: String,
        /// Optionally build the projection view onto the first `view`
        /// registers and attach per-session view observers.
        view: Option<u16>,
    },
    /// `{"cmd":"open-session","tenant":T,"spec":S,"session":ID}` — admit
    /// a session against the tenant's session quota.
    OpenSession {
        /// Owning tenant.
        tenant: String,
        /// Spec the session runs against.
        spec: String,
        /// Session identifier (demultiplexing key).
        session: String,
    },
    /// `{"cmd":"event","tenant":T,"spec":S,"event":E}` — ingest one event
    /// (`E` is the standard monitor event object, or its JSONL line as a
    /// string).
    Event {
        /// Owning tenant.
        tenant: String,
        /// Target spec.
        spec: String,
        /// The event document.
        event: Json,
    },
    /// `{"cmd":"event-batch","tenant":T,"spec":S,"events":[E,…]}` — ingest
    /// many events in one frame (the hot path).
    EventBatch {
        /// Owning tenant.
        tenant: String,
        /// Target spec.
        spec: String,
        /// Event documents, each as in `event`.
        events: Vec<Json>,
    },
    /// `{"cmd":"snapshot","tenant":T}` — the tenant's live state: specs,
    /// open sessions, and its `serve.tenant.<T>.*` metrics.
    Snapshot {
        /// Tenant to snapshot.
        tenant: String,
    },
    /// `{"cmd":"close","tenant":T,"spec":S?,"session":ID?}` — close a
    /// session (its terminal event is submitted), a spec (its engine is
    /// drained and every session's verdict returned), or the whole tenant.
    Close {
        /// Owning tenant.
        tenant: String,
        /// Spec to close (required when `session` is given).
        spec: Option<String>,
        /// Session to close.
        session: Option<String>,
    },
    /// `{"cmd":"handoff","tenant":T,"spec":S}` — drain one spec for
    /// migration to another node: every queued event is processed, the
    /// final report returned, and until a `load-spec` reclaims the name,
    /// requests naming it answer a typed `rebalancing` error with a
    /// retry delay instead of `unknown-spec`.
    Handoff {
        /// Owning tenant.
        tenant: String,
        /// Spec to hand off.
        spec: String,
    },
    /// `{"cmd":"stats"}` — server-wide counters and the full metrics
    /// registry snapshot.
    Stats,
    /// `{"cmd":"health"}` — liveness probe; reports `serving` or
    /// `draining`.
    Health,
    /// `{"cmd":"metrics"}` — the whole metrics registry rendered in the
    /// Prometheus text exposition format (as the response's `text` field).
    Metrics,
}

impl Command {
    /// The wire name of the command — a static string (never client
    /// input), safe to embed in metric names like `serve.cmd.<name>.latency`.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Hello { .. } => "hello",
            Command::LoadSpec { .. } => "load-spec",
            Command::OpenSession { .. } => "open-session",
            Command::Event { .. } => "event",
            Command::EventBatch { .. } => "event-batch",
            Command::Snapshot { .. } => "snapshot",
            Command::Close { .. } => "close",
            Command::Handoff { .. } => "handoff",
            Command::Stats => "stats",
            Command::Health => "health",
            Command::Metrics => "metrics",
        }
    }

    /// The tenant the command acts for, when it names one.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Command::Hello { tenant }
            | Command::LoadSpec { tenant, .. }
            | Command::OpenSession { tenant, .. }
            | Command::Event { tenant, .. }
            | Command::EventBatch { tenant, .. }
            | Command::Snapshot { tenant }
            | Command::Close { tenant, .. }
            | Command::Handoff { tenant, .. } => Some(tenant),
            Command::Stats | Command::Health | Command::Metrics => None,
        }
    }
}

/// Ceiling on a client-supplied `req` id. Ids land in trace fields and
/// log lines verbatim, so a hostile client must not be able to bloat every
/// span with kilobytes of correlation id.
pub const MAX_REQUEST_ID_LEN: usize = 128;

/// Extracts the optional `req` correlation id from a request document.
/// `Ok(None)` when absent; an error (for the typed `bad-request`
/// response) when present but not a string, empty, or over
/// [`MAX_REQUEST_ID_LEN`] bytes.
pub fn request_id(doc: &Json) -> Result<Option<String>, String> {
    match doc.get("req") {
        None => Ok(None),
        Some(Json::String(id)) if id.is_empty() => Err("field `req` must not be empty".to_string()),
        Some(Json::String(id)) if id.len() > MAX_REQUEST_ID_LEN => {
            Err(format!("field `req` exceeds {MAX_REQUEST_ID_LEN} bytes"))
        }
        Some(Json::String(id)) => Ok(Some(id.clone())),
        Some(_) => Err("field `req` must be a string".to_string()),
    }
}

/// Extracts a required string field.
fn str_field(obj: &Json, field: &'static str) -> Result<String, String> {
    obj.get(field)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("field `{field}` must be a string"))
}

/// Parses one request document into a [`Command`]; the error is the
/// message for the typed `bad-request` response.
pub fn parse_request(doc: &Json) -> Result<Command, String> {
    let obj = doc
        .as_object()
        .ok_or_else(|| "request must be a JSON object".to_string())?;
    let cmd = obj
        .get("cmd")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "field `cmd` must be a string".to_string())?;
    match cmd {
        "hello" => Ok(Command::Hello {
            tenant: str_field(doc, "tenant")?,
        }),
        "load-spec" => {
            let view = match obj.get("view") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .filter(|&m| m <= u64::from(u16::MAX))
                        .ok_or_else(|| "field `view` must be a register count".to_string())?
                        as u16,
                ),
            };
            Ok(Command::LoadSpec {
                tenant: str_field(doc, "tenant")?,
                name: str_field(doc, "name")?,
                spec: str_field(doc, "spec")?,
                view,
            })
        }
        "open-session" => Ok(Command::OpenSession {
            tenant: str_field(doc, "tenant")?,
            spec: str_field(doc, "spec")?,
            session: str_field(doc, "session")?,
        }),
        "event" => Ok(Command::Event {
            tenant: str_field(doc, "tenant")?,
            spec: str_field(doc, "spec")?,
            event: obj
                .get("event")
                .cloned()
                .ok_or_else(|| "field `event` is required".to_string())?,
        }),
        "event-batch" => {
            let events = obj
                .get("events")
                .and_then(|v| v.as_array())
                .ok_or_else(|| "field `events` must be an array".to_string())?;
            Ok(Command::EventBatch {
                tenant: str_field(doc, "tenant")?,
                spec: str_field(doc, "spec")?,
                events: events.clone(),
            })
        }
        "snapshot" => Ok(Command::Snapshot {
            tenant: str_field(doc, "tenant")?,
        }),
        "close" => {
            let spec = match obj.get("spec") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "field `spec` must be a string".to_string())?,
                ),
            };
            let session = match obj.get("session") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "field `session` must be a string".to_string())?,
                ),
            };
            if session.is_some() && spec.is_none() {
                return Err("closing a session requires its `spec`".to_string());
            }
            Ok(Command::Close {
                tenant: str_field(doc, "tenant")?,
                spec,
                session,
            })
        }
        "handoff" => Ok(Command::Handoff {
            tenant: str_field(doc, "tenant")?,
            spec: str_field(doc, "spec")?,
        }),
        "stats" => Ok(Command::Stats),
        "health" => Ok(Command::Health),
        "metrics" => Ok(Command::Metrics),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The JSONL line an event document stands for: object payloads are
/// serialized (sorted keys, the vendored serializer's canonical form),
/// string payloads pass through verbatim. Ingest does not go through this
/// line: [`decode_event_doc`] decodes object payloads straight from the
/// parsed frame, so an event is parsed once; this rendering is for tools
/// that want the batch monitor's input text.
pub fn event_line(event: &Json) -> Result<String, String> {
    match event {
        Json::String(line) => Ok(line.clone()),
        Json::Object(_) => serde_json::to_string(event).map_err(|e| e.to_string()),
        _ => Err(NOT_AN_EVENT.to_string()),
    }
}

const NOT_AN_EVENT: &str = "an event must be an object or a JSONL line string";

/// Decodes the event document an [`Command::Event`] carries, checking the
/// register arity against the spec's `registers`. Object payloads are
/// decoded from the already-parsed frame with
/// [`decode_event_checked`](rega_stream::decode_event_checked); string
/// payloads are JSONL lines and go through the batch monitor's own
/// [`parse_event_checked`](rega_stream::parse_event_checked). Both accept
/// exactly what `rega monitor` accepts.
pub fn decode_event_doc(event: &Json, registers: usize) -> Result<Event, EventError> {
    match event {
        Json::String(line) => rega_stream::parse_event_checked(line, registers),
        Json::Object(_) => rega_stream::decode_event_checked(event, registers),
        _ => Err(EventError::Json(NOT_AN_EVENT.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::io::Cursor;

    fn roundtrip(framing: Framing, doc: &Json) -> (Vec<u8>, Json) {
        let mut buf = Vec::new();
        write_frame(&mut buf, framing, doc).unwrap();
        let mut cursor = Cursor::new(buf.clone());
        let (got_framing, got) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got_framing, framing);
        // The whole frame must be consumed — nothing left dangling.
        assert_eq!(cursor.position() as usize, cursor.get_ref().len());
        (buf, got)
    }

    #[test]
    fn frames_round_trip_in_both_framings() {
        let docs = [
            json!({"cmd": "health"}),
            json!({"cmd": "event", "tenant": "t", "spec": "s",
                   "event": {"session": "s0", "state": "q", "regs": [1u64, 2u64]}}),
            json!({"cmd": "load-spec", "tenant": "t", "name": "n",
                   "spec": "registers 1\nstate p init accept\n"}),
        ];
        for doc in &docs {
            let (_, got) = roundtrip(Framing::Jsonl, doc);
            assert_eq!(&got, doc);
            let (_, got) = roundtrip(Framing::Binary, doc);
            assert_eq!(&got, doc);
        }
    }

    #[test]
    fn mixed_framings_on_one_stream() {
        let a = json!({"cmd": "health"});
        let b = json!({"cmd": "stats"});
        let mut buf = Vec::new();
        write_frame(&mut buf, Framing::Jsonl, &a).unwrap();
        write_frame(&mut buf, Framing::Binary, &b).unwrap();
        write_frame(&mut buf, Framing::Jsonl, &b).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((Framing::Jsonl, a.clone()))
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((Framing::Binary, b.clone()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((Framing::Jsonl, b)));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // Oversized binary frame: rejected from the length prefix alone,
        // before any payload is read.
        let mut buf = vec![BINARY_MAGIC];
        buf.extend(((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
            }
        );

        // Truncated binary frame: announced 100 bytes, stream has 5.
        let mut buf = vec![BINARY_MAGIC];
        buf.extend(100u32.to_be_bytes());
        buf.extend(b"{\"cmd");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                wanted: 100,
                got: 5
            }
        );

        // Truncated length prefix.
        let err = read_frame(&mut Cursor::new(vec![BINARY_MAGIC, 0, 0])).unwrap_err();
        assert_eq!(err, FrameError::Truncated { wanted: 4, got: 2 });
    }

    #[test]
    fn parse_request_covers_the_command_set() {
        assert_eq!(
            parse_request(&json!({"cmd": "hello", "tenant": "acme"})).unwrap(),
            Command::Hello {
                tenant: "acme".into()
            }
        );
        assert_eq!(
            parse_request(&json!({"cmd": "handoff", "tenant": "acme", "spec": "s"})).unwrap(),
            Command::Handoff {
                tenant: "acme".into(),
                spec: "s".into()
            }
        );
        assert_eq!(
            parse_request(&json!({"cmd": "close", "tenant": "t", "spec": "s"})).unwrap(),
            Command::Close {
                tenant: "t".into(),
                spec: Some("s".into()),
                session: None,
            }
        );
        assert!(parse_request(&json!({"cmd": "close", "tenant": "t", "session": "x"})).is_err());
        assert_eq!(
            parse_request(&json!({"cmd": "metrics"})).unwrap(),
            Command::Metrics
        );
        assert!(parse_request(&json!({"cmd": "nope"})).is_err());
        assert!(parse_request(&json!([1u64])).is_err());
        assert!(
            parse_request(&json!({"cmd": "load-spec", "tenant": "t", "name": "n",
                                      "spec": "…", "view": "two"}))
            .is_err()
        );
    }

    #[test]
    fn request_ids_are_optional_bounded_strings() {
        assert_eq!(request_id(&json!({"cmd": "health"})).unwrap(), None);
        assert_eq!(
            request_id(&json!({"cmd": "health", "req": "abc-1"})).unwrap(),
            Some("abc-1".to_string())
        );
        assert!(request_id(&json!({"req": 7u64})).is_err());
        assert!(request_id(&json!({"req": ""})).is_err());
        let long = "x".repeat(MAX_REQUEST_ID_LEN + 1);
        assert!(request_id(&json!({"req": long})).is_err());
    }

    #[test]
    fn command_names_and_tenants_are_exposed() {
        let cmd = parse_request(&json!({"cmd": "hello", "tenant": "acme"})).unwrap();
        assert_eq!(cmd.name(), "hello");
        assert_eq!(cmd.tenant(), Some("acme"));
        assert_eq!(Command::Stats.name(), "stats");
        assert_eq!(Command::Stats.tenant(), None);
        assert_eq!(Command::Metrics.tenant(), None);
    }

    #[test]
    fn event_line_accepts_objects_and_raw_lines() {
        let obj = json!({"session": "s", "state": "q", "regs": [1u64]});
        let line = event_line(&obj).unwrap();
        assert_eq!(line, serde_json::to_string(&obj).unwrap());
        assert_eq!(
            event_line(&Json::String("{\"session\":\"s\",\"end\":true}".into())).unwrap(),
            "{\"session\":\"s\",\"end\":true}"
        );
        assert!(event_line(&json!(42u64)).is_err());
    }

    #[test]
    fn event_docs_decode_like_their_lines() {
        let obj = json!({"session": "s", "state": "q", "regs": [1u64]});
        let line = Json::String(event_line(&obj).unwrap());
        assert_eq!(
            decode_event_doc(&obj, 1),
            rega_stream::parse_event_checked(&event_line(&obj).unwrap(), 1)
        );
        assert_eq!(decode_event_doc(&obj, 1), decode_event_doc(&line, 1));
        assert_eq!(
            decode_event_doc(&obj, 2),
            Err(EventError::Arity { got: 1, want: 2 })
        );
        assert_eq!(
            decode_event_doc(&json!(42u64), 1),
            Err(EventError::Json(NOT_AN_EVENT.to_string()))
        );
    }
}
