//! Hostile input never aborts the server.
//!
//! A stack overflow is not a panic: the Rust runtime aborts the whole
//! process, every tenant with it. Two recursive parsers read what a client
//! sends: the JSON parser (every frame) and the regex parser (the
//! `constraint` lines of a `load-spec`). Both cap their nesting, so a
//! frame nested as deep as `MAX_FRAME_LEN` allows gets a typed error and
//! the server keeps answering. The bare parsers run on a thread with a
//! 256 KiB stack too, so the guarantee does not rest on the platform's
//! default stack size.

use rega_automata::{Dfa, Regex};
use rega_serve::proto::{decode_event_batch, decode_request, read_payload, BINARY_MAGIC};
use rega_serve::{Framing, Server, ServerConfig, MAX_FRAME_LEN};
use serde_json::Value as Json;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SPEC: &str = "registers 1\nstate p init accept\ntrans p -> p : x1 = y1\n";

/// Nesting depths from just past the parsers' caps to what one frame
/// holds.
const DEPTHS: [usize; 3] = [129, 20_000, MAX_FRAME_LEN / 2 - 256];

/// A JSON string literal for `s`.
fn quoted(s: &str) -> String {
    serde_json::to_string(&Json::String(s.to_string())).unwrap()
}

/// An array nested `depth` levels deep, balanced.
fn nested_array(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// A request nesting `depth` levels at each place a frame's JSON can
/// nest, each answered `bad-json`.
fn deep_json(depth: usize) -> Vec<(&'static str, String)> {
    let deep = nested_array(depth);
    vec![
        (
            "events",
            format!(r#"{{"cmd":"event-batch","tenant":"t","spec":"s","events":{deep}}}"#),
        ),
        (
            "an event object",
            format!(
                r#"{{"cmd":"event-batch","tenant":"t","spec":"s","events":[{{"session":"s0","state":"p","regs":{deep}}}]}}"#
            ),
        ),
        ("req", format!(r#"{{"cmd":"health","req":{deep}}}"#)),
        (
            "an unknown request field",
            format!(
                r#"{{"cmd":"event-batch","tenant":"t","spec":"s","events":[],"extra":{deep}}}"#
            ),
        ),
    ]
}

/// Constraint regexes nested `depth` levels deep: groups, a postfix
/// chain, and a `+` chain whose syntax tree doubles at each step.
fn deep_regexes(depth: usize) -> Vec<String> {
    vec![
        "(".repeat(depth) + "p" + &")".repeat(depth),
        "p".to_string() + &"*".repeat(depth),
        "p".to_string() + &"+".repeat(depth.min(64)),
    ]
}

/// A spec carrying `regex` as a constraint.
fn spec_with(regex: &str) -> String {
    format!("{SPEC}constraint eq 1 1 : {regex}\n")
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
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one payload in `framing` and returns the parsed response.
    fn call(&mut self, framing: Framing, payload: &str) -> Json {
        assert!(payload.len() <= MAX_FRAME_LEN, "{}", payload.len());
        let mut frame = Vec::new();
        match framing {
            Framing::Jsonl => {
                frame.extend_from_slice(payload.as_bytes());
                frame.push(b'\n');
            }
            Framing::Binary => {
                frame.push(BINARY_MAGIC);
                frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                frame.extend_from_slice(payload.as_bytes());
            }
        }
        self.writer.write_all(&frame).unwrap();
        let (_, response) = read_payload(&mut self.reader)
            .expect("a response frame")
            .expect("the server hung up");
        serde_json::from_str(std::str::from_utf8(&response).unwrap()).unwrap()
    }

    /// Sends `payload` and checks that it is refused with `code` and that
    /// the server still answers `health`.
    fn refused(&mut self, framing: Framing, payload: &str, code: &str, what: &str) {
        let response = self.call(framing, payload);
        assert_eq!(response["ok"], Json::Bool(false), "{what}: {response:?}");
        assert_eq!(
            response["error"]["code"].as_str(),
            Some(code),
            "{what}: {response:?}"
        );
        let health = self.call(framing, r#"{"cmd":"health"}"#);
        assert_eq!(health["ok"], Json::Bool(true), "after {what}: {health:?}");
    }
}

#[test]
fn deep_frames_get_typed_errors_and_the_server_keeps_serving() {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let mut conn = Conn::connect(server.local_addr().unwrap());
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag));
    for request in [
        r#"{"cmd":"hello","tenant":"t"}"#.to_string(),
        format!(
            r#"{{"cmd":"load-spec","tenant":"t","name":"s","spec":{}}}"#,
            quoted(SPEC)
        ),
        r#"{"cmd":"open-session","tenant":"t","spec":"s","session":"s0"}"#.to_string(),
    ] {
        let response = conn.call(Framing::Jsonl, &request);
        assert_eq!(response["ok"], Json::Bool(true), "{request}: {response:?}");
    }

    for framing in [Framing::Jsonl, Framing::Binary] {
        for depth in DEPTHS {
            for (place, payload) in deep_json(depth) {
                let what = format!("{framing:?} frame nested {depth} deep in {place}");
                conn.refused(framing, &payload, "bad-json", &what);
            }
            for regex in deep_regexes(depth) {
                let payload = format!(
                    r#"{{"cmd":"load-spec","tenant":"t","name":"deep","spec":{}}}"#,
                    quoted(&spec_with(&regex))
                );
                let what = format!("{framing:?} load-spec with a {}-byte regex", regex.len());
                conn.refused(framing, &payload, "spec-invalid", &what);
            }
        }
    }

    // Nesting up to the caps is still served.
    let depth = serde_json::MAX_DEPTH - 4;
    let payload = format!(r#"{{"cmd":"health","extra":{}}}"#, nested_array(depth));
    assert_eq!(conn.call(Framing::Jsonl, &payload)["ok"], Json::Bool(true));
    let regex = "(".repeat(120) + "p*" + &")".repeat(120);
    let payload = format!(
        r#"{{"cmd":"load-spec","tenant":"t","name":"deep","spec":{}}}"#,
        quoted(&spec_with(&regex))
    );
    let response = conn.call(Framing::Binary, &payload);
    assert_eq!(response["ok"], Json::Bool(true), "{response:?}");

    shutdown.store(true, Ordering::SeqCst);
    drop(conn);
    let report = handle.join().expect("the server thread ends cleanly");
    assert_eq!(report["clean"], Json::Bool(true));
}

/// Runs `f` on a thread with a 256 KiB stack. (An overflow aborts the
/// whole test binary.)
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no assertion fails on the small stack");
}

#[test]
fn bare_json_parsers_fit_a_small_stack() {
    on_small_stack(|| {
        let depth = *DEPTHS.last().unwrap();
        for (place, payload) in deep_json(depth) {
            let e = serde_json::from_str(&payload).unwrap_err();
            assert_eq!(e.message, "recursion limit exceeded", "{place}");
            assert!(decode_event_batch(&payload).is_none(), "{place}");
            for framing in [Framing::Jsonl, Framing::Binary] {
                let decoded = decode_request(framing, payload.as_bytes());
                assert!(
                    matches!(decoded, Err(rega_serve::FrameError::BadJson(_))),
                    "{place}"
                );
            }
        }
        let at_cap = nested_array(serde_json::MAX_DEPTH);
        let doc = serde_json::from_str(&at_cap).unwrap();
        assert_eq!(serde_json::to_string(&doc).unwrap(), at_cap);
    });
}

#[test]
fn bare_regex_and_spec_parsers_fit_a_small_stack() {
    on_small_stack(|| {
        let depth = *DEPTHS.last().unwrap();
        let resolve = |name: &str| (name == "p").then_some(0u8);
        for regex in deep_regexes(depth) {
            assert!(Regex::parse(&regex, resolve).is_err(), "{}", regex.len());
            assert!(rega_core::spec::parse_spec(&spec_with(&regex)).is_err());
        }
        // At the cap, every later walk of the tree fits as well.
        let regex = "(".repeat(127) + "p" + &")".repeat(127) + "*";
        let r = Regex::parse(&regex, resolve).unwrap();
        assert!(!r.to_string().is_empty());
        let dfa = Dfa::from_regex(&r, &[0u8]);
        assert!(dfa.accepts(&[0, 0]));
        assert!(rega_core::spec::parse_spec(&spec_with(&regex)).is_ok());
    });
}
