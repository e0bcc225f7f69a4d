//! The event wire contract, pinned across every ingest path.
//!
//! An event reaches the monitor through one of four decoders: the batch
//! monitor's line parser (`parse_event`), the server's `event` /
//! `event-batch` payloads as a JSONL string or as a JSON object
//! (`TenantRegistry::ingest`), and the cluster's worker protocol
//! (`event_from_json`). Each must accept or reject every line exactly as
//! `parse_event` does, with the same error. The table holds the edge
//! cases: numbers that re-serialise as integers (`1.0`, `1e0`), `-0`, the
//! ends of the `u64` range, escaped session names, duplicate keys, an
//! extra field and `"end": false`.

use rega_cluster::proc::event_from_json;
use rega_data::BudgetSpec;
use rega_obs::Registry;
use rega_serve::tenant::{IngestError, TenantQuotas, TenantRegistry};
use rega_stream::{parse_event, EngineConfig, Event, EventError};
use serde_json::Value as Json;
use std::sync::Arc;

const SPEC: &str = "registers 1\nstate p init accept\ntrans p -> p : x1 = x1\n";

/// `(line, accepted)`: every line is valid JSON; `accepted` pins the
/// contract's verdict.
const EDGE_LINES: &[(&str, bool)] = &[
    (r#"{"session": "s1", "state": "p", "regs": [7]}"#, true),
    (r#"{"session": "s1", "end": true}"#, true),
    (r#"{"session": "s1", "state": "p", "regs": [1.0]}"#, false),
    (r#"{"session": "s1", "state": "p", "regs": [1e0]}"#, false),
    (r#"{"session": "s1", "state": "p", "regs": [-0]}"#, true),
    (
        r#"{"session": "s1", "state": "p", "regs": [18446744073709551615]}"#,
        true,
    ),
    (
        r#"{"session": "s1", "state": "p", "regs": [18446744073709551616]}"#,
        false,
    ),
    (r#"{"session": "s\u0031", "state": "p", "regs": [7]}"#, true),
    (r#"{"session": "a\"b\\c", "state": "p", "regs": [7]}"#, true),
    (
        r#"{"session": "s1", "state": "p", "regs": [1], "regs": [2]}"#,
        true,
    ),
    (
        r#"{"session": "ghost", "session": "s1", "state": "p", "regs": [7]}"#,
        true,
    ),
    (
        r#"{"session": "s1", "state": "p", "regs": [7], "extra": 1}"#,
        false,
    ),
    (r#"{"session": "s1", "end": false}"#, false),
];

/// Ingests one payload into a fresh server-side registry with the line's
/// session open, so the only possible rejection is the decoder's.
fn ingest(session: &str, payload: Json) -> Result<(), EventError> {
    let reg = TenantRegistry::new(
        1,
        TenantQuotas {
            max_specs: 1,
            max_sessions: 1,
            quarantine_cap: 0,
            budget: BudgetSpec::none(),
        },
        BudgetSpec::none(),
        EngineConfig {
            shards: 1,
            workers: 1,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
        Arc::new(Registry::new()),
    );
    reg.hello("t").unwrap();
    reg.load_spec("t", "spec", SPEC, None).unwrap();
    reg.open_session("t", "spec", session).unwrap();
    let result = match reg.ingest("t", "spec", &[payload]) {
        Ok(1) => Ok(()),
        Err((0, IngestError::Event { index: 0, error })) => Err(error),
        other => panic!("unexpected ingest outcome {other:?}"),
    };
    reg.close_tenant("t").unwrap();
    result
}

#[test]
fn every_path_agrees_with_the_line_parser() {
    for &(line, accepted) in EDGE_LINES {
        let parsed = parse_event(line);
        assert_eq!(
            parsed.is_ok(),
            accepted,
            "parse_event on {line}: {parsed:?}"
        );
        // The session the server must have open: the decoded one for
        // accepted lines, `s1` (what every rejected line names) otherwise.
        let session = parsed.as_ref().map_or("s1", Event::session).to_string();
        let doc: Json = serde_json::from_str(line).expect("edge lines are valid JSON");

        let as_string = ingest(&session, Json::String(line.to_string()));
        let as_object = ingest(&session, doc.clone());
        let cluster = event_from_json(&doc);
        match &parsed {
            Ok(event) => {
                assert_eq!(as_string, Ok(()), "string payload {line}");
                assert_eq!(as_object, Ok(()), "object payload {line}");
                assert_eq!(cluster.as_ref().ok(), Some(event), "cluster decoder {line}");
            }
            Err(error) => {
                assert_eq!(as_string.as_ref(), Err(error), "string payload {line}");
                assert_eq!(as_object.as_ref(), Err(error), "object payload {line}");
                let message = cluster
                    .expect_err("cluster decoder must reject")
                    .to_string();
                assert!(
                    message.contains(&error.to_string()),
                    "cluster decoder on {line}: {message} vs {error}"
                );
            }
        }
    }
}

#[test]
fn integral_floats_are_not_register_values() {
    // Re-serialising `1.0` prints `1`; the decoders must judge the number
    // as sent, on every path.
    for line in [
        r#"{"session": "s1", "state": "p", "regs": [1.0]}"#,
        r#"{"session": "s1", "state": "p", "regs": [1e0]}"#,
    ] {
        let want = Err(EventError::BadField {
            field: "regs",
            expected: "an array of unsigned integers",
        });
        assert_eq!(parse_event(line), want);
        let doc: Json = serde_json::from_str(line).unwrap();
        assert_eq!(ingest("s1", doc.clone()), want.map(|_| ()));
        assert!(event_from_json(&doc).is_err());
    }
}
