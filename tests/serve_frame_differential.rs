//! The served frame decoder against the document path.
//!
//! `rega-serve` reads a well-formed `event-batch` request straight from
//! its bytes into `Event`s (`proto::decode_event_batch`) and parses every
//! other payload as a JSON document (`serde_json::from_str` →
//! `request_id` → `parse_request`). The document path is the oracle: for
//! every payload, `decode_request` must give exactly the request the
//! document path gives, and a server must answer every frame with the
//! bytes it answers when the frame takes the document path, down to the
//! final engine report.
//!
//! The payloads are seeded `event-batch` requests with permuted and
//! duplicated keys, escapes, JSONL-line (string) event payloads, `req`
//! ids and extra request fields; unknown tenants, specs and sessions;
//! arity errors; register values `1.0`, `1e0`, `-0` and the ends of the
//! `u64` range; plus every truncation and every single-byte flip of valid
//! frames.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_serve::proto::{
    decode_event_batch, decode_request, parse_request, payload_text, read_payload, request_id,
    Command, FrameError, Framing, Request, BINARY_MAGIC,
};
use rega_serve::{Server, ServerConfig};
use serde_json::Value as Json;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SPEC: &str = "\
registers 1
state p init accept
state q accept
trans p -> p : x1 = y1
trans p -> q :
trans q -> q :
";

/// Sessions opened before any batch is sent.
const SESSIONS: [&str; 8] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];

/// The document path: what `decode_request` must equal on every payload.
fn document_path(framing: Framing, payload: &[u8]) -> Result<Request, FrameError> {
    let text = payload_text(framing, payload)?;
    let doc: Json = serde_json::from_str(text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    Ok(match request_id(&doc) {
        Ok(id) => Request {
            id,
            command: parse_request(&doc),
        },
        Err(message) => Request {
            id: None,
            command: Err(message),
        },
    })
}

/// Seeded request texts.
struct Gen {
    rng: StdRng,
    req: u64,
}

/// A JSON string literal for `s`.
fn quoted(s: &str) -> String {
    serde_json::to_string(&Json::String(s.to_string())).unwrap()
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            req: 0,
        }
    }

    fn one_in(&mut self, n: u32) -> bool {
        self.rng.gen_range(0..n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.rng.gen_range(0..i + 1));
        }
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", " ", "\t", "  "])
    }

    /// `{k: v, …}` from members, in the given order, with seeded spacing.
    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut out = format!("{{{}", self.ws());
        for (i, (k, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
                out.push_str(self.ws());
            }
            let (a, b) = (self.ws(), self.ws());
            out.push_str(&format!("{k}{a}:{b}{v}"));
        }
        out.push_str(self.ws());
        out.push('}');
        out
    }

    fn session(&mut self) -> String {
        match self.rng.gen_range(0..24) {
            0 => quoted("ghost"),
            1 => quoted(""),
            2 => r#""s\u0031""#.to_string(),
            3 => "7".to_string(),
            _ => quoted(SESSIONS[self.rng.gen_range(0..SESSIONS.len())]),
        }
    }

    fn regs(&mut self) -> String {
        match self.rng.gen_range(0..24) {
            0 => "[1.0]".to_string(),
            1 => "[1e0]".to_string(),
            2 => "[-0]".to_string(),
            3 => "[18446744073709551615]".to_string(),
            4 => "[18446744073709551616]".to_string(),
            5 => "[1, 2]".to_string(),
            6 => "[]".to_string(),
            7 => r#"["1"]"#.to_string(),
            8 => "[-3]".to_string(),
            9 => "5".to_string(),
            _ => format!("[{}]", self.rng.gen_range(0..4u64)),
        }
    }

    /// One event payload: an object, its JSONL line as a string, or
    /// (rarely) neither.
    fn event(&mut self) -> String {
        if self.one_in(40) {
            return self.pick(&["42", "null", "[1]", "true"]).to_string();
        }
        let mut members = vec![(quoted("session"), self.session())];
        if self.one_in(5) {
            let end = self.pick(&["true", "true", "true", "false", "1", "null"]);
            members.push((quoted("end"), end.to_string()));
            if self.one_in(8) {
                members.push((quoted("state"), quoted("p")));
            }
        } else {
            if !self.one_in(30) {
                let state = self.pick(&["\"p\"", "\"p\"", "\"q\"", "\"r\"", "\"\\u0070\"", "1"]);
                members.push((quoted("state"), state.to_string()));
            }
            if !self.one_in(30) {
                let regs = self.regs();
                members.push((quoted("regs"), regs));
            }
        }
        if self.one_in(12) {
            let extra = self.pick(&["\"a\"", "\"extra\"", "\"zz\"", "\"reg\\u0073\""]);
            members.push((extra.to_string(), "null".to_string()));
        }
        if self.one_in(8) {
            // A duplicated key: the last value counts.
            let (k, _) = members[self.rng.gen_range(0..members.len())].clone();
            let v = match k.as_str() {
                "\"session\"" => self.session(),
                "\"regs\"" => self.regs(),
                _ => "\"p\"".to_string(),
            };
            members.push((k, v));
        }
        self.shuffle(&mut members);
        let text = self.object(&members);
        if self.one_in(5) {
            quoted(&text)
        } else {
            text
        }
    }

    /// One request text, and whether its `event-batch` shape is the one
    /// the frame decoder must take (no leading non-batch `cmd`).
    fn request(&mut self) -> (String, bool) {
        if self.one_in(30) {
            let other = self.pick(&[
                r#"{"cmd": "health"}"#,
                r#"{"cmd": "event", "tenant": "t", "spec": "s", "event": {"session": "s0", "state": "p", "regs": [1]}}"#,
                r#"[1, 2]"#,
                r#""event-batch""#,
            ]);
            return (other.to_string(), false);
        }
        let mut direct = true;
        let cmd = self.pick(&[
            "\"event-batch\"",
            "\"event-batch\"",
            "\"event\\u002dbatch\"",
        ]);
        let mut members = vec![(quoted("cmd"), cmd.to_string())];
        let tenant = self.pick(&["\"t\"", "\"t\"", "\"t\"", "\"\\u0074\"", "\"nobody\"", "3"]);
        members.push((quoted("tenant"), tenant.to_string()));
        let spec = self.pick(&["\"s\"", "\"s\"", "\"s\"", "\"nope\""]);
        members.push((quoted("spec"), spec.to_string()));
        if !self.one_in(40) {
            let n = self.rng.gen_range(0..6);
            let events: Vec<String> = (0..n).map(|_| self.event()).collect();
            members.push((quoted("events"), format!("[{}]", events.join(", "))));
        } else if self.one_in(2) {
            members.push((quoted("events"), "{}".to_string()));
        }
        if self.one_in(3) {
            self.req += 1;
            let req = match self.rng.gen_range(0..12) {
                0 => quoted(""),
                1 => quoted(&"r".repeat(129)),
                2 => "7".to_string(),
                3 => quoted("r\\\"q\u{e9}"),
                _ => quoted(&format!("r-{}", self.req)),
            };
            members.push((quoted("req"), req));
        }
        if self.one_in(4) {
            let extra = self.pick(&[
                "[1, {\"k\": \"v\\n\"}, -0.5e3]",
                "null",
                "{\"events\": []}",
                "\"\\ud83d\\ude00\"",
            ]);
            members.push((quoted("extra"), extra.to_string()));
        }
        self.shuffle(&mut members);
        if self.one_in(8) {
            // A duplicated request key, whose earlier value the later one
            // overrides on both paths.
            let (k, v) = match self.rng.gen_range(0..3) {
                0 => (quoted("tenant"), "\"nobody\""),
                1 => (quoted("spec"), "\"nope\""),
                _ => (quoted("cmd"), "\"hello\""),
            };
            // An earlier `cmd` of another command sends the payload to the
            // document path.
            direct = k != "\"cmd\"";
            let at = members.iter().position(|(key, _)| *key == k).unwrap();
            members.insert(at, (k, v.to_string()));
        }
        let text = format!("{}{}", self.ws(), self.object(&members));
        (text, direct)
    }
}

/// Every truncation of `payload`, then every single-bit flip of each byte.
fn mutations(payload: &[u8], all_bits: bool) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..payload.len()).map(|n| payload[..n].to_vec()).collect();
    for i in 0..payload.len() {
        let bits: Vec<u8> = if all_bits {
            (0..8).collect()
        } else {
            vec![(i % 8) as u8]
        };
        for bit in bits {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 1 << bit;
            out.push(flipped);
        }
    }
    out
}

#[test]
fn decode_request_matches_the_document_path() {
    let mut gen = Gen::new(0x5e7e_da7a);
    let mut direct = 0usize;
    let mut valid = Vec::new();
    for _ in 0..4000 {
        let (text, expect_direct) = gen.request();
        for framing in [Framing::Jsonl, Framing::Binary] {
            assert_eq!(
                decode_request(framing, text.as_bytes()),
                document_path(framing, text.as_bytes()),
                "payload {text}"
            );
        }
        let oracle = document_path(Framing::Binary, text.as_bytes());
        let well_formed = matches!(
            &oracle,
            Ok(Request {
                command: Ok(Command::EventBatch { .. }),
                ..
            })
        );
        let taken = decode_event_batch(&text).is_some();
        direct += usize::from(taken);
        if expect_direct && well_formed {
            assert!(taken, "the frame decoder must take {text}");
            if valid.len() < 24 && text.len() < 400 {
                valid.push(text);
            }
        }
    }
    assert!(
        direct > 2000,
        "only {direct} payloads took the frame decoder"
    );
    // Every truncation and every single-bit flip of valid frames.
    for text in &valid {
        for payload in mutations(text.as_bytes(), true) {
            for framing in [Framing::Jsonl, Framing::Binary] {
                assert_eq!(
                    decode_request(framing, &payload),
                    document_path(framing, &payload),
                    "payload {:?}",
                    String::from_utf8_lossy(&payload)
                );
            }
        }
    }
}

/// One loopback connection speaking raw frames.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one payload in `framing` and returns the response frame's
    /// framing and bytes.
    fn call(&mut self, framing: Framing, payload: &[u8]) -> (Framing, Vec<u8>) {
        let mut frame = Vec::new();
        match framing {
            Framing::Jsonl => {
                frame.extend_from_slice(payload);
                frame.push(b'\n');
            }
            Framing::Binary => {
                frame.push(BINARY_MAGIC);
                frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                frame.extend_from_slice(payload);
            }
        }
        self.writer.write_all(&frame).unwrap();
        read_payload(&mut self.reader)
            .expect("a response frame")
            .expect("the server hung up")
    }
}

/// A running server with tenant `t`, spec `s` and [`SESSIONS`] open.
fn serve() -> (Conn, Arc<AtomicBool>, std::thread::JoinHandle<Json>) {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let mut conn = Conn::connect(addr);
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag));
    let mut setup = vec![
        r#"{"cmd": "hello", "tenant": "t"}"#.to_string(),
        format!(
            r#"{{"cmd": "load-spec", "tenant": "t", "name": "s", "spec": {}}}"#,
            quoted(SPEC)
        ),
    ];
    for s in SESSIONS {
        setup.push(format!(
            r#"{{"cmd": "open-session", "tenant": "t", "spec": "s", "session": "{s}"}}"#
        ));
    }
    for request in setup {
        let (_, response) = conn.call(Framing::Jsonl, request.as_bytes());
        let response = json_of(&response);
        assert_eq!(response["ok"], Json::Bool(true), "{request}: {response:?}");
    }
    (conn, shutdown, handle)
}

/// Parses a response payload (always UTF-8 JSON).
fn json_of(payload: &[u8]) -> Json {
    serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap()
}

/// The same payload with a leading `"cmd": null` member: a document equal
/// to `payload`'s (the later `cmd` wins), which the frame decoder refuses,
/// so it takes the document path.
fn via_document_path(payload: &[u8]) -> Vec<u8> {
    let Ok(text) = std::str::from_utf8(payload) else {
        return payload.to_vec();
    };
    let Ok(doc) = serde_json::from_str(text) else {
        return payload.to_vec();
    };
    let Some(at) = text.find('{').filter(|_| doc.get("cmd").is_some()) else {
        assert!(decode_event_batch(text).is_none());
        return payload.to_vec();
    };
    let routed = format!("{}{{\"cmd\": null, {}", &text[..at], &text[at + 1..]);
    assert_eq!(serde_json::from_str(&routed).as_ref(), Ok(&doc));
    assert!(decode_event_batch(&routed).is_none());
    routed.into_bytes()
}

/// Whether a payload can travel as one JSONL line (no newline inside, no
/// leading binary magic, no trailing `\r` for the reader to strip).
fn one_line(payload: &[u8]) -> bool {
    !payload.contains(&b'\n')
        && payload.first() != Some(&BINARY_MAGIC)
        && payload.last() != Some(&b'\r')
}

#[test]
fn served_responses_match_the_document_path() {
    let (mut direct, stop_a, server_a) = serve();
    let (mut oracle, stop_b, server_b) = serve();
    let mut gen = Gen::new(0xd1ff);
    let mut frames: Vec<(Framing, Vec<u8>)> = Vec::new();
    let mut valid = Vec::new();
    for i in 0..400 {
        let (text, expect_direct) = gen.request();
        if expect_direct
            && valid.len() < 2
            && decode_event_batch(&text).is_some()
            && text.len() < 300
        {
            valid.push(text.clone());
        }
        let framing = if i % 2 == 0 {
            Framing::Jsonl
        } else {
            Framing::Binary
        };
        frames.push((framing, text.into_bytes()));
    }
    for text in &valid {
        for payload in mutations(text.as_bytes(), false) {
            if one_line(&payload) {
                frames.push((Framing::Jsonl, payload.clone()));
            }
            frames.push((Framing::Binary, payload));
        }
    }
    let mut accepted = 0usize;
    for (framing, payload) in &frames {
        let got = direct.call(*framing, payload);
        let want = oracle.call(*framing, &via_document_path(payload));
        assert_eq!(
            got,
            want,
            "response to {:?}",
            String::from_utf8_lossy(payload)
        );
        accepted += usize::from(String::from_utf8_lossy(&got.1).contains("\"accepted\""));
    }
    assert!(accepted > 300, "only {accepted} batches reached ingest");
    // The final engine report: every session's verdict.
    let close = br#"{"cmd": "close", "tenant": "t", "spec": "s"}"#;
    let got = direct.call(Framing::Binary, close);
    assert_eq!(got, oracle.call(Framing::Binary, close));
    let report = json_of(&got.1);
    assert_eq!(report["ok"], Json::Bool(true), "{report:?}");
    for (stop, server) in [(stop_a, server_a), (stop_b, server_b)] {
        stop.store(true, Ordering::SeqCst);
        server.join().unwrap();
    }
}

#[test]
fn tenant_and_spec_errors_precede_event_errors() {
    let (mut conn, stop, server) = serve();
    // A batch whose first event is accepted and whose second is bad.
    let events = r#"[{"session": "s0", "state": "p", "regs": [1]}, {"session": "s0", "state": "p", "regs": [1.0]}]"#;
    let line = quoted(r#"{"session": "s0", "regs": [1, 2], "state": "p"}"#);
    for (tenant, spec, code) in [
        ("nobody", "s", "unknown-tenant"),
        ("t", "nope", "unknown-spec"),
        ("t", "s", "bad-event"),
    ] {
        for batch in [events.to_string(), format!("[{line}]")] {
            let text = format!(
                r#"{{"events": {batch}, "spec": "{spec}", "tenant": "{tenant}", "cmd": "event-batch"}}"#
            );
            assert!(decode_event_batch(&text).is_some(), "{text}");
            for framing in [Framing::Jsonl, Framing::Binary] {
                let (_, response) = conn.call(framing, text.as_bytes());
                let response = json_of(&response);
                assert_eq!(
                    response["error"]["code"],
                    Json::from(code),
                    "{text}: {response:?}"
                );
                let accepted = u64::from(code == "bad-event" && batch == events);
                assert_eq!(
                    response["error"]["accepted"],
                    Json::from(accepted),
                    "{text}"
                );
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    drop(conn);
    server.join().unwrap();
}
