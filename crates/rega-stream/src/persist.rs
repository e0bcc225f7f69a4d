//! Durable, atomic snapshot files.
//!
//! [`SimScheduler::checkpoint`](crate::sim::SimScheduler::checkpoint)
//! returns plain JSON; this module is the disk contract around it, built
//! for the two failure modes that actually corrupt checkpoints in
//! production: torn writes (crash mid-`write(2)`) and bit rot (flipped
//! bits between write and restore).
//!
//! * **Atomicity** — [`save`] writes to a same-directory temp file, fsyncs
//!   it, and `rename(2)`s it into place. A crash at any point leaves
//!   either the old file or the new file, never a prefix of the new one.
//! * **Integrity** — the file carries an FNV-1a checksum of the payload in
//!   a trailing footer line. [`load`] verifies the checksum *before*
//!   parsing any JSON, so a truncated or bit-flipped file surfaces as a
//!   typed [`SnapshotError::Corrupt`] — never a decode panic, and never a
//!   structurally-valid-but-wrong restore.
//!
//! File format (text, two lines):
//!
//! ```text
//! <payload JSON, one line>
//! #rega-snapshot fnv1a:<16 lowercase hex digits>
//! ```
//!
//! The checksum covers exactly the payload bytes (not the separating
//! newline). A file whose footer line is itself missing or garbled — the
//! signature of truncation — is reported as `Corrupt { expected: 0, .. }`:
//! `expected = 0` encodes "the declared checksum was lost with the
//! footer", and `found` is then the checksum of the entire remaining file
//! for diagnostics.

use crate::snapshot::SnapshotError;
use serde_json::Value as Json;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Marker that opens the checksum footer line.
const FOOTER_PREFIX: &[u8] = b"#rega-snapshot fnv1a:";

/// FNV-1a over a byte slice — the same pinned hash (offset basis
/// `0xcbf29ce484222325`, prime `0x100000001b3`) the engine uses for shard
/// routing, reused here as the snapshot-file content checksum. Pinned:
/// changing it invalidates every durable snapshot on disk.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a durable snapshot could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file was read but its content is rejected — checksum mismatch
    /// ([`SnapshotError::Corrupt`]) or unparseable payload.
    Snapshot(SnapshotError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot file io: {e}"),
            PersistError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

/// Serializes `snapshot` and atomically replaces `path` with it.
///
/// The write goes to a temp file in the same directory (rename is only
/// atomic within one filesystem), is flushed and fsynced, and is then
/// renamed over `path`. Concurrent savers to the same path serialize on
/// the rename; the loser's content wins, but the file is never torn.
pub fn save(path: &Path, snapshot: &Json) -> Result<(), PersistError> {
    let payload = serde_json::to_string(snapshot)
        .map_err(|e| SnapshotError::Malformed(format!("unserializable snapshot: {e}")))?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(payload.as_bytes())?;
    file.write_all(b"\n")?;
    file.write_all(FOOTER_PREFIX)?;
    writeln!(file, "{:016x}", fnv1a(payload.as_bytes()))?;
    file.sync_all()?;
    drop(file);
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Make the rename itself durable (best effort — directory fsync is
    // not supported on every platform/filesystem).
    if let Some(dir) = dir {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads a snapshot file written by [`save`], verifying the checksum
/// footer before any JSON parsing.
///
/// Failure taxonomy: filesystem errors come back as [`PersistError::Io`];
/// a missing/garbled footer or a checksum mismatch (truncation, bit
/// flips) as [`SnapshotError::Corrupt`]; a checksum-valid file whose
/// payload still is not JSON as [`SnapshotError::Malformed`]. The decoded
/// JSON is *not* validated against the spec here — that stays the job of
/// the snapshot decoder behind
/// [`SimScheduler::restore`](crate::sim::SimScheduler::restore) and
/// [`SimScheduler::absorb`](crate::sim::SimScheduler::absorb).
pub fn load(path: &Path) -> Result<Json, PersistError> {
    let bytes = fs::read(path)?;
    let (payload, expected) = match split_footer(&bytes) {
        Some(parts) => parts,
        None => {
            return Err(SnapshotError::Corrupt {
                expected: 0,
                found: fnv1a(&bytes),
            }
            .into())
        }
    };
    let found = fnv1a(payload);
    if found != expected {
        return Err(SnapshotError::Corrupt { expected, found }.into());
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| SnapshotError::Malformed("snapshot payload is not UTF-8".into()))?;
    let json = serde_json::from_str(text)
        .map_err(|e| SnapshotError::Malformed(format!("snapshot payload is not JSON: {e}")))?;
    Ok(json)
}

/// Splits `bytes` into (payload, declared checksum) at the footer line,
/// or `None` when no well-formed footer terminates the file.
fn split_footer(bytes: &[u8]) -> Option<(&[u8], u64)> {
    // The footer is the final line and the file must end with its
    // newline — a file cut anywhere, even one byte short, has no footer.
    let trimmed = bytes.strip_suffix(b"\n")?;
    let nl = trimmed.iter().rposition(|&b| b == b'\n')?;
    let (payload, footer) = (&trimmed[..nl], &trimmed[nl + 1..]);
    let hex = footer.strip_prefix(FOOTER_PREFIX)?;
    // Exactly 16 lowercase hex digits, as written — `from_str_radix`
    // alone would also accept uppercase, letting a single-bit case flip
    // in the footer masquerade as a clean file.
    if hex.len() != 16
        || !hex
            .iter()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
    {
        return None;
    }
    let hex = std::str::from_utf8(hex).ok()?;
    let expected = u64::from_str_radix(hex, 16).ok()?;
    Some((payload, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde_json::json;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rega-persist-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trips_and_overwrites() {
        let path = tmp_path("roundtrip");
        let a = json!({"format_version": 2u64, "live": [], "closed": [{"n": 1u64}]});
        save(&path, &a).unwrap();
        assert_eq!(load(&path).unwrap(), a);
        // Atomic overwrite: the second save fully replaces the first.
        let b = json!({"format_version": 2u64, "live": [{"session": "s"}], "closed": []});
        save(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), b);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_length_is_corrupt_never_a_panic() {
        let path = tmp_path("truncate");
        save(
            &path,
            &json!({"format_version": 2u64, "k": [1u64, 2u64, 3u64]}),
        )
        .unwrap();
        let full = fs::read(&path).unwrap();
        for len in 0..full.len() {
            fs::write(&path, &full[..len]).unwrap();
            match load(&path) {
                Err(PersistError::Snapshot(SnapshotError::Corrupt { .. })) => {}
                other => panic!("truncation to {len} bytes: expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_file(&path).unwrap();
    }

    /// The byte-mutation fuzz the issue asks for: every single-bit flip
    /// anywhere in the file — payload, separator, footer marker, checksum
    /// digits — must come back as a typed `Corrupt`, never as a panic and
    /// never as a silently-restored wrong state. FNV-1a's per-byte
    /// xor-multiply step is invertible, so any single flipped payload bit
    /// is guaranteed to change the checksum.
    #[test]
    fn bit_flip_fuzz_is_always_typed_corrupt() {
        let path = tmp_path("bitflip");
        let snap = json!({
            "format_version": 2u64,
            "clock_ns": 12345u64,
            "live": [{"session": "alice", "state": {"events": 3u64}}],
            "closed": [],
        });
        save(&path, &snap).unwrap();
        let full = fs::read(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EED_FACE);
        for case in 0..512 {
            let mut mutated = full.clone();
            let byte = rng.gen_range(0..mutated.len());
            let bit = rng.gen_range(0..8u32);
            mutated[byte] ^= 1 << bit;
            fs::write(&path, &mutated).unwrap();
            match load(&path) {
                Err(PersistError::Snapshot(SnapshotError::Corrupt { expected, found })) => {
                    assert_ne!(
                        expected, found,
                        "[case {case}] Corrupt must carry a real mismatch"
                    );
                }
                other => panic!(
                    "[case {case}] flip of bit {bit} in byte {byte}: \
                     expected Corrupt, got {other:?}"
                ),
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        match load(Path::new("/nonexistent/rega-snapshot.json")) {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_pinned() {
        // FNV-1a test vectors; the checksum is part of the on-disk format.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
