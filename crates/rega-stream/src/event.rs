//! The JSONL wire format of the event stream.
//!
//! One event per line:
//!
//! ```text
//! {"session": "paper-17", "state": "submitted", "regs": [17, 3, 17]}
//! {"session": "paper-17", "end": true}
//! ```
//!
//! A `state`/`regs` event advances the named session's run by one position;
//! an `end` event closes the session and evicts its monitoring state.
//!
//! Parsing is strict and *total*: every malformed line yields a typed
//! [`EventError`], never a panic (the `stream_faults` suite fuzzes the
//! parser with byte mutations of valid lines to enforce this). Documents
//! that arrive already parsed go through [`decode_event`], the same
//! contract without a second pass over the text. When the
//! monitored specification is known, [`parse_event_checked`] additionally
//! validates the register arity at parse time, so an event with the wrong
//! tuple width is rejected at the edge instead of deep inside a worker.

use rega_data::Value;
use std::fmt;

/// A parsed stream event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The session's run moved to `state` with register contents `regs`.
    Step {
        /// Session identifier (demultiplexing key).
        session: String,
        /// Name of the control state the run is now in.
        state: String,
        /// Register contents at this position.
        regs: Vec<Value>,
    },
    /// The session terminated; its state can be evicted.
    End {
        /// Session identifier.
        session: String,
    },
}

impl Event {
    /// The session this event belongs to.
    pub fn session(&self) -> &str {
        match self {
            Event::Step { session, .. } | Event::End { session } => session,
        }
    }
}

/// Why an event line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventError {
    /// The line is not valid JSON.
    Json(String),
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is missing or has the wrong JSON type.
    BadField {
        /// Field name.
        field: &'static str,
        /// What was expected there.
        expected: &'static str,
    },
    /// The `session` field is present but empty.
    EmptySession,
    /// A field not part of the wire format is present.
    UnexpectedField(String),
    /// `end` is present but not `true`.
    BadEnd,
    /// The register tuple does not match the specification's register
    /// count (only from [`parse_event_checked`] / submit-time validation).
    Arity {
        /// Arity the event carried.
        got: usize,
        /// The specification's register count.
        want: usize,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::Json(e) => write!(f, "bad event: {e}"),
            EventError::NotAnObject => write!(f, "bad event: event must be a JSON object"),
            EventError::BadField { field, expected } => {
                write!(f, "bad event: field `{field}` must be {expected}")
            }
            EventError::EmptySession => write!(f, "bad event: `session` must be non-empty"),
            EventError::UnexpectedField(k) => write!(f, "bad event: unexpected field `{k}`"),
            EventError::BadEnd => write!(f, "bad event: `end` must be `true` when present"),
            EventError::Arity { got, want } => write!(
                f,
                "bad event: register tuple has arity {got}, the specification has {want}"
            ),
        }
    }
}

impl std::error::Error for EventError {}

/// Parses one JSONL line into an [`Event`]: [`serde_json::from_str`]
/// followed by [`decode_event`].
pub fn parse_event(line: &str) -> Result<Event, EventError> {
    let value = serde_json::from_str(line).map_err(|e| EventError::Json(e.to_string()))?;
    decode_event(&value)
}

/// Decodes an already-parsed JSON document into an [`Event`]. This is the
/// whole wire contract below the JSON syntax: callers that receive events
/// inside a larger document (the server's `event-batch` frames, the
/// cluster's worker protocol) decode them here directly, so each event is
/// parsed exactly once and every path accepts exactly what
/// [`parse_event`] accepts.
pub fn decode_event(value: &serde_json::Value) -> Result<Event, EventError> {
    let obj = value.as_object().ok_or(EventError::NotAnObject)?;
    let session = obj
        .get("session")
        .and_then(|v| v.as_str())
        .ok_or(EventError::BadField {
            field: "session",
            expected: "a string",
        })?
        .to_string();
    if session.is_empty() {
        return Err(EventError::EmptySession);
    }
    if let Some(end) = obj.get("end") {
        if end.as_bool() != Some(true) {
            return Err(EventError::BadEnd);
        }
        for key in obj.keys() {
            if key != "session" && key != "end" {
                return Err(EventError::UnexpectedField(key.clone()));
            }
        }
        return Ok(Event::End { session });
    }
    let state = obj
        .get("state")
        .and_then(|v| v.as_str())
        .ok_or(EventError::BadField {
            field: "state",
            expected: "a string",
        })?
        .to_string();
    let regs_json = obj
        .get("regs")
        .and_then(|v| v.as_array())
        .ok_or(EventError::BadField {
            field: "regs",
            expected: "an array",
        })?;
    let mut regs = Vec::with_capacity(regs_json.len());
    for v in regs_json {
        let n = v.as_u64().ok_or(EventError::BadField {
            field: "regs",
            expected: "an array of unsigned integers",
        })?;
        regs.push(Value(n));
    }
    for key in obj.keys() {
        if !matches!(key.as_str(), "session" | "state" | "regs") {
            return Err(EventError::UnexpectedField(key.clone()));
        }
    }
    Ok(Event::Step {
        session,
        state,
        regs,
    })
}

/// Parses one JSONL line and validates the register arity of step events
/// against the specification's register count, so malformed tuples are
/// rejected at the edge with [`EventError::Arity`].
pub fn parse_event_checked(line: &str, registers: usize) -> Result<Event, EventError> {
    check_arity(parse_event(line)?, registers)
}

/// [`decode_event`] plus the arity check of [`parse_event_checked`].
pub fn decode_event_checked(
    value: &serde_json::Value,
    registers: usize,
) -> Result<Event, EventError> {
    check_arity(decode_event(value)?, registers)
}

fn check_arity(event: Event, registers: usize) -> Result<Event, EventError> {
    if let Event::Step { regs, .. } = &event {
        if regs.len() != registers {
            return Err(EventError::Arity {
                got: regs.len(),
                want: registers,
            });
        }
    }
    Ok(event)
}

/// An [`EventError`] annotated with where in the input stream the
/// offending line sat, so quarantine counters and server error responses
/// can point operators at the exact malformed input instead of just
/// saying "an event was bad somewhere".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocatedEventError {
    /// 1-based line number of the malformed line in its stream.
    pub line: u64,
    /// Byte offset of the start of the malformed line from the start of
    /// the stream.
    pub byte_offset: u64,
    /// The underlying parse error.
    pub error: EventError,
}

impl fmt::Display for LocatedEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} (byte {}): {}",
            self.line, self.byte_offset, self.error
        )
    }
}

impl std::error::Error for LocatedEventError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// [`parse_event_checked`] with position bookkeeping: on failure the error
/// carries the 1-based line number and the byte offset of the line start,
/// as supplied by the caller's reader loop.
pub fn parse_event_located(
    line: &str,
    registers: usize,
    line_no: u64,
    byte_offset: u64,
) -> Result<Event, LocatedEventError> {
    parse_event_checked(line, registers).map_err(|error| LocatedEventError {
        line: line_no,
        byte_offset,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_step_and_end() {
        let e = parse_event(r#"{"session": "s1", "state": "q", "regs": [1, 2]}"#).unwrap();
        assert_eq!(
            e,
            Event::Step {
                session: "s1".into(),
                state: "q".into(),
                regs: vec![Value(1), Value(2)],
            }
        );
        let e = parse_event(r#"{"session": "s1", "end": true}"#).unwrap();
        assert_eq!(
            e,
            Event::End {
                session: "s1".into()
            }
        );
    }

    #[test]
    fn rejects_malformed_lines_with_typed_errors() {
        for (bad, want) in [
            ("not json", None),
            ("[1]", Some(EventError::NotAnObject)),
            (
                r#"{"state": "q", "regs": []}"#,
                Some(EventError::BadField {
                    field: "session",
                    expected: "a string",
                }),
            ),
            (
                r#"{"session": "", "state": "q", "regs": []}"#,
                Some(EventError::EmptySession),
            ),
            (
                r#"{"session": "s", "state": "q"}"#,
                Some(EventError::BadField {
                    field: "regs",
                    expected: "an array",
                }),
            ),
            (
                r#"{"session": "s", "state": "q", "regs": [-1]}"#,
                Some(EventError::BadField {
                    field: "regs",
                    expected: "an array of unsigned integers",
                }),
            ),
            (
                r#"{"session": "s", "end": false}"#,
                Some(EventError::BadEnd),
            ),
            (
                r#"{"session": "s", "state": "q", "regs": [], "extra": 1}"#,
                Some(EventError::UnexpectedField("extra".into())),
            ),
        ] {
            let got = parse_event(bad);
            match want {
                None => assert!(got.is_err(), "should reject: {bad}"),
                Some(want) => assert_eq!(got, Err(want), "wrong error for: {bad}"),
            }
        }
    }

    #[test]
    fn checked_parse_validates_arity_at_the_edge() {
        let line = r#"{"session": "s", "state": "q", "regs": [1, 2, 3]}"#;
        assert!(parse_event_checked(line, 3).is_ok());
        assert_eq!(
            parse_event_checked(line, 2),
            Err(EventError::Arity { got: 3, want: 2 })
        );
        // `End` events have no tuple and always pass the arity check.
        assert!(parse_event_checked(r#"{"session": "s", "end": true}"#, 2).is_ok());
    }

    #[test]
    fn located_parse_carries_the_position() {
        let line = r#"{"session": "s", "state": "q", "regs": [1]}"#;
        assert!(parse_event_located(line, 1, 3, 120).is_ok());
        let err = parse_event_located(line, 2, 3, 120).unwrap_err();
        assert_eq!(
            err,
            LocatedEventError {
                line: 3,
                byte_offset: 120,
                error: EventError::Arity { got: 1, want: 2 },
            }
        );
        assert_eq!(
            err.to_string(),
            "line 3 (byte 120): bad event: register tuple has arity 1, the specification has 2"
        );
    }
}
