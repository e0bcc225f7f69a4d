//! The binary `event-batch` frame: how journaled events travel from the
//! supervisor to a worker.
//!
//! Control commands and every reply are JSON documents in the
//! `rega-serve` binary framing ([`rega_serve::proto`]). Events are the
//! hot path, so they travel as varint records instead (EXPERIMENTS.md
//! E24):
//!
//! ```text
//! frame   = 0xB6, u32 big-endian payload length, payload
//! payload = varint epoch, varint count (≤ FRAME_EVENTS), record × count
//! record  = varint vshard, varint seq, tag, str session, step?
//! tag     = 0 (step) | 1 (end)
//! step    = str state, varint register count, varint register × count
//! str     = varint byte length, UTF-8 bytes
//! varint  = unsigned LEB128 in its shortest form, at most 10 bytes
//! ```
//!
//! [`BATCH_MAGIC`] is neither `rega-serve`'s binary magic `0xB5` nor a
//! byte a JSON document can start with, so a worker tells the two frame
//! kinds apart by the first byte. [`decode_batch`] is total: a truncated
//! or oversized frame, an over-long or non-minimal varint, a count above
//! [`FRAME_EVENTS`] or beyond what the payload can hold, an unknown tag,
//! invalid UTF-8, an empty session, a record filed under another
//! session's vshard, and trailing bytes are each a typed
//! [`ClusterError::Wire`]. No allocation is sized by an announced number
//! before the bytes that back it are known to be there. Since only the
//! shortest varints are accepted, every accepted frame is exactly what
//! [`encode_batch`] writes for the batch it decodes to.

use crate::assign::vshard;
use crate::error::ClusterError;
use rega_data::Value;
use rega_serve::proto::MAX_FRAME_LEN;
use rega_stream::event::{Event, EventError};
use std::io::Read;

/// First byte of a batch frame.
pub const BATCH_MAGIC: u8 = 0xB6;

/// A batch frame carries at most this many events, which keeps every
/// frame far below [`MAX_FRAME_LEN`] for ordinary session names.
pub const FRAME_EVENTS: usize = 1024;

/// Magic byte plus the 4-byte length.
const HEADER: usize = 5;

const TAG_STEP: u8 = 0;
const TAG_END: u8 = 1;

/// The smallest record: one byte each for vshard, seq, tag and session
/// length.
const MIN_RECORD: usize = 4;

fn wire(msg: impl std::fmt::Display) -> ClusterError {
    ClusterError::Wire(format!("batch frame: {msg}"))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes `(vshard, seq, event)` records stamped with `epoch` as one
/// batch frame, replacing the contents of `out`.
pub fn encode_batch(epoch: u64, items: &[(usize, u64, &Event)], out: &mut Vec<u8>) {
    debug_assert!(items.len() <= FRAME_EVENTS, "batch over FRAME_EVENTS");
    out.clear();
    out.push(BATCH_MAGIC);
    out.extend_from_slice(&[0; HEADER - 1]);
    put_varint(out, epoch);
    put_varint(out, items.len() as u64);
    for &(v, seq, event) in items {
        put_varint(out, v as u64);
        put_varint(out, seq);
        match event {
            Event::Step {
                session,
                state,
                regs,
            } => {
                out.push(TAG_STEP);
                put_str(out, session);
                put_str(out, state);
                put_varint(out, regs.len() as u64);
                for r in regs {
                    put_varint(out, r.0);
                }
            }
            Event::End { session } => {
                out.push(TAG_END);
                put_str(out, session);
            }
        }
    }
    let len = (out.len() - HEADER) as u32;
    out[1..HEADER].copy_from_slice(&len.to_be_bytes());
}

/// The payload length a frame header announces, checked against the
/// magic byte and [`MAX_FRAME_LEN`].
fn announced_len(header: &[u8; HEADER]) -> Result<usize, ClusterError> {
    if header[0] != BATCH_MAGIC {
        return Err(wire(format!("bad magic byte {:#04x}", header[0])));
    }
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(wire(format!(
            "payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    Ok(len)
}

/// Reads one batch frame, header included, from `r` into `frame`. The
/// announced length is checked before any payload byte is read.
pub(crate) fn read_batch<R: Read>(r: &mut R, frame: &mut Vec<u8>) -> Result<(), ClusterError> {
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header).map_err(wire)?;
    let len = announced_len(&header)?;
    frame.clear();
    frame.extend_from_slice(&header);
    frame.resize(HEADER + len, 0);
    r.read_exact(&mut frame[HEADER..]).map_err(wire)
}

/// A cursor over a payload; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, ClusterError> {
        let (&b, rest) = self.bytes.split_first().ok_or_else(|| wire("truncated"))?;
        self.bytes = rest;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, ClusterError> {
        let mut value = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            // The tenth byte holds only bit 63.
            if i == 9 && b > 1 {
                return Err(wire("varint overflows 64 bits"));
            }
            value |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(wire("varint is not in its shortest form"));
                }
                return Ok(value);
            }
        }
        unreachable!("the tenth varint byte never continues")
    }

    /// A varint that counts items of at least one byte each: it may not
    /// exceed the bytes left.
    fn len(&mut self) -> Result<usize, ClusterError> {
        let n = self.varint()?;
        if n > self.bytes.len() as u64 {
            return Err(wire("truncated"));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<&'a str, ClusterError> {
        let n = self.len()?;
        let (s, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        std::str::from_utf8(s).map_err(|_| wire("string is not UTF-8"))
    }
}

/// Decodes a whole [`encode_batch`] frame into its epoch and
/// `(vshard, seq, event)` records. See the module docs for what it
/// rejects.
#[allow(clippy::type_complexity)]
pub fn decode_batch(frame: &[u8]) -> Result<(u64, Vec<(usize, u64, Event)>), ClusterError> {
    let (header, payload) = frame
        .split_first_chunk::<HEADER>()
        .ok_or_else(|| wire("truncated"))?;
    let len = announced_len(header)?;
    if payload.len() != len {
        return Err(wire(format!(
            "announced {len} payload bytes, got {}",
            payload.len()
        )));
    }
    let mut r = Reader { bytes: payload };
    let epoch = r.varint()?;
    let count = r.varint()?;
    if count > FRAME_EVENTS as u64 {
        return Err(wire(format!("{count} records exceed {FRAME_EVENTS}")));
    }
    if count > (r.bytes.len() / MIN_RECORD) as u64 {
        return Err(wire(format!("{count} records cannot fit the payload")));
    }
    let mut items = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let v = r.varint()?;
        let seq = r.varint()?;
        let tag = r.byte()?;
        if tag != TAG_STEP && tag != TAG_END {
            return Err(wire(format!("unknown record tag {tag}")));
        }
        let session = r.str()?;
        if session.is_empty() {
            return Err(ClusterError::Wire(EventError::EmptySession.to_string()));
        }
        if v != vshard(session) as u64 {
            return Err(wire(format!("record on vshard {v} names another session")));
        }
        let session = session.to_string();
        let event = if tag == TAG_END {
            Event::End { session }
        } else {
            let state = r.str()?.to_string();
            let n = r.len()?;
            let regs = (0..n)
                .map(|_| r.varint().map(Value))
                .collect::<Result<_, _>>()?;
            Event::Step {
                session,
                state,
                regs,
            }
        };
        items.push((v as usize, seq, event));
    }
    if !r.bytes.is_empty() {
        return Err(wire(format!("{} trailing bytes", r.bytes.len())));
    }
    Ok((epoch, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::event_from_json;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use serde_json::json;

    const SESSIONS: &[&str] = &["s", "alice", "café", "会话-7", "🦀 crab", "a\"b\\c\n"];
    const STATES: &[&str] = &["p", "submitted", "état", "状态"];

    fn random_event(rng: &mut StdRng) -> Event {
        let session = SESSIONS[rng.gen_range(0..SESSIONS.len())].to_string();
        if rng.gen_bool(0.2) {
            return Event::End { session };
        }
        let edge = [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        let regs = (0..rng.gen_range(0..5usize))
            .map(|_| {
                Value(if rng.gen_bool(0.5) {
                    edge[rng.gen_range(0..edge.len())]
                } else {
                    rng.next_u64() >> rng.gen_range(0..64u32)
                })
            })
            .collect();
        Event::Step {
            session,
            state: STATES[rng.gen_range(0..STATES.len())].to_string(),
            regs,
        }
    }

    fn encode(epoch: u64, batch: &[(usize, u64, Event)]) -> Vec<u8> {
        let items: Vec<(usize, u64, &Event)> = batch.iter().map(|(v, s, e)| (*v, *s, e)).collect();
        let mut out = vec![0xAA; 3]; // encode_batch must replace, not append
        encode_batch(epoch, &items, &mut out);
        out
    }

    fn random_batch(rng: &mut StdRng, n: usize) -> Vec<(usize, u64, Event)> {
        (0..n)
            .map(|_| {
                let event = random_event(rng);
                let seq = if rng.gen_bool(0.1) {
                    u64::MAX
                } else {
                    rng.gen_range(1..1_000_000u64)
                };
                (vshard(event.session()), seq, event)
            })
            .collect()
    }

    /// A payload behind a well-formed header.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![BATCH_MAGIC];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    fn assert_wire(frame: &[u8], what: &str) {
        match decode_batch(frame) {
            Err(ClusterError::Wire(_)) => {}
            other => panic!("{what}: expected a wire error, got {other:?}"),
        }
    }

    #[test]
    fn seeded_batches_round_trip() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = match seed {
                0 => 1,
                1 => FRAME_EVENTS,
                _ => rng.gen_range(1..FRAME_EVENTS + 1),
            };
            let epoch = if seed % 5 == 0 {
                u64::MAX
            } else {
                rng.next_u64() >> 40
            };
            let batch = random_batch(&mut rng, n);
            let frame = encode(epoch, &batch);
            assert!(frame.len() <= HEADER + MAX_FRAME_LEN);
            let decoded = decode_batch(&frame).expect("a fresh frame decodes");
            assert_eq!(decoded, (epoch, batch), "seed {seed}");
        }
    }

    #[test]
    fn every_prefix_and_byte_flip_is_typed() {
        let mut rng = StdRng::seed_from_u64(7);
        let batch = random_batch(&mut rng, 6);
        let frame = encode(300, &batch);
        for k in 0..frame.len() {
            assert_wire(&frame[..k], &format!("prefix of {k} bytes"));
        }
        for i in 0..frame.len() {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                let mut flipped = frame.clone();
                flipped[i] ^= mask;
                // A flip may land on another valid batch (a register
                // value, say); accepted frames are canonical, so the
                // batch it names must encode back to the same bytes.
                match decode_batch(&flipped) {
                    Ok((epoch, items)) => assert_eq!(encode(epoch, &items), flipped),
                    Err(ClusterError::Wire(_)) => {}
                    Err(e) => panic!("flip {mask:#04x} at {i}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn malformed_frames_are_typed() {
        let v = vshard("s") as u8;
        let end = [v, 1, TAG_END, 1, b's'];
        let with = |records: &[u8], count: u8| {
            let mut payload = vec![1, count];
            payload.extend_from_slice(records);
            framed(&payload)
        };
        assert!(
            decode_batch(&with(&end, 1)).is_ok(),
            "the base case is valid"
        );

        let mut oversized = vec![BATCH_MAGIC];
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert_wire(&oversized, "announced length over the limit");
        let mut frame = Vec::new();
        let read = read_batch(&mut std::io::Cursor::new(&oversized), &mut frame);
        assert!(matches!(read, Err(ClusterError::Wire(_))));
        assert!(frame.capacity() < 1024, "nothing sized by the announcement");

        let mut wrong_magic = with(&end, 1);
        wrong_magic[0] = rega_serve::proto::BINARY_MAGIC;
        assert_wire(&wrong_magic, "rega-serve magic");

        let mut too_many = vec![1];
        put_varint(&mut too_many, FRAME_EVENTS as u64 + 1);
        for _ in 0..=FRAME_EVENTS {
            too_many.extend_from_slice(&end);
        }
        assert_wire(&framed(&too_many), "count over FRAME_EVENTS");
        assert_wire(&with(&end, 200), "count beyond the payload");
        assert_wire(&with(&end, 2), "count one record short");

        let overlong = [0x80u8; 11];
        assert_wire(&framed(&overlong), "11-byte varint");
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert_wire(&framed(&overflow), "varint past 64 bits");
        assert_wire(&framed(&[0x81, 0x00, 0]), "non-minimal varint");
        let mut max = vec![0xFF; 9];
        max.extend_from_slice(&[0x01, 0]);
        assert_eq!(decode_batch(&framed(&max)).unwrap(), (u64::MAX, vec![]));

        assert_wire(&with(&[v, 1, 2, 1, b's'], 1), "unknown tag");
        assert_wire(&with(&[v, 1, TAG_END, 1, 0xFF], 1), "invalid UTF-8");
        assert_wire(&with(&[v, 1, TAG_END, 2, b's'], 1), "string past the end");
        let other = (v + 1) % crate::VSHARDS as u8;
        assert_wire(&with(&[other, 1, TAG_END, 1, b's'], 1), "wrong vshard");
        let mut huge_regs = vec![v, 1, TAG_STEP, 1, b's', 1, b'p'];
        put_varint(&mut huge_regs, 1 << 40);
        assert_wire(&with(&huge_regs, 1), "register count beyond the payload");

        let mut trailing = end.to_vec();
        trailing.push(0);
        assert_wire(&with(&trailing, 1), "trailing payload byte");
        let mut beyond = with(&end, 1);
        beyond.push(0);
        assert_wire(&beyond, "bytes past the announced length");
    }

    #[test]
    fn empty_session_matches_the_json_decoder() {
        let json = event_from_json(&json!({"session": "", "end": true})).unwrap_err();
        let frame = framed(&[1, 1, vshard("") as u8, 1, TAG_END, 0]);
        assert_eq!(decode_batch(&frame).unwrap_err(), json);
    }
}
