//! The traced run's span recording: `rega-obs` spans are collected in an
//! in-memory sink while a traced segment runs, appended to a JSONL file
//! between segments (outside every timed region), and the file is checked
//! at the end with the parser behind `rega trace-report`.

use rega_obs::{MemorySink, SinkGuard};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Records written to the JSONL file at most. Later traced segments still
/// run (the overhead figure needs them) but are not written, so a long
/// symbolic run cannot produce a file of hundreds of megabytes.
const MAX_RECORDS: usize = 400_000;

/// Span recording for one traced run.
pub struct Tracer {
    path: PathBuf,
    out: BufWriter<File>,
    written: usize,
    dropped_segments: usize,
    active: Option<(MemorySink, SinkGuard)>,
}

impl Tracer {
    /// A tracer writing to `path` (truncated).
    pub fn create(path: &Path) -> std::io::Result<Tracer> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Tracer {
            path: path.to_path_buf(),
            out: BufWriter::new(File::create(path)?),
            written: 0,
            dropped_segments: 0,
            active: None,
        })
    }

    /// Starts recording a segment.
    pub fn start(&mut self) {
        assert!(self.active.is_none(), "segments do not nest");
        self.active = Some(rega_obs::install_memory());
    }

    /// Stops recording and appends the segment's records to the file,
    /// whole segments only, until [`MAX_RECORDS`] is reached.
    pub fn stop(&mut self) -> std::io::Result<()> {
        let Some((sink, guard)) = self.active.take() else {
            return Ok(());
        };
        drop(guard);
        let events = sink.events();
        if self.written + events.len() > MAX_RECORDS {
            self.dropped_segments += 1;
            return Ok(());
        }
        let mut line = String::new();
        for e in &events {
            line.clear();
            e.write_jsonl(&mut line);
            line.push('\n');
            self.out.write_all(line.as_bytes())?;
        }
        self.written += events.len();
        Ok(())
    }

    /// Runs `f` as one recorded segment.
    pub fn segment<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.start();
        let out = f();
        if let Err(e) = self.stop() {
            eprintln!("perfbench: trace write failed: {e}");
        }
        out
    }

    /// Flushes the file and parses it back with `rega_obs::report`; returns
    /// a one-line description of the trace, or why it does not parse.
    pub fn finish(mut self) -> Result<String, String> {
        self.stop().map_err(|e| e.to_string())?;
        self.out.flush().map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&self.path).map_err(|e| e.to_string())?;
        let summary = rega_obs::report::summarize(&text)?;
        Ok(format!(
            "{}: {} records ({} span starts, {} unclosed, {} events), {} segments not written",
            self.path.display(),
            self.written,
            summary.span_starts,
            summary.unclosed.len(),
            summary.events,
            self.dropped_segments
        ))
    }
}
