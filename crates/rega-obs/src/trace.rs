//! The span/event tracing core: a thread-local span stack, injectable
//! timestamps, and a process-global sink slot.
//!
//! Nothing is recorded until a sink is [`install`]ed; with no sink the
//! entire cost of an instrumented region is one relaxed atomic load (the
//! [`is_active`] check), and with the `trace` feature disabled the
//! [`span!`](crate::span) / [`event!`](crate::event) macros compile to
//! nothing at all. Spans nest per thread — a [`SpanGuard`] pushes its id
//! onto the calling thread's stack and pops it on drop, so a span may
//! never be sent across threads (each worker opens its own).

use crate::clock::{MonotonicClock, ObsClock};
use crate::sink::{MemorySink, TraceSink};
use serde_json::{json, Value as Json};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// A structured field value attached to an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(n) => Json::from(*n),
            FieldValue::I64(n) => Json::from(*n),
            FieldValue::F64(n) => Json::from(*n),
            FieldValue::Bool(b) => Json::from(*b),
            FieldValue::Str(s) => Json::from(s.as_str()),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue {
                FieldValue::$variant(v as $cast)
            }
        })*
    };
}
field_from!(u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span was entered.
    SpanStart,
    /// A span was exited (carries the duration).
    SpanEnd,
    /// A point-in-time structured event inside (or outside) a span.
    Event,
}

/// One record of the trace stream. The JSONL field set per kind is pinned
/// by a golden-file test — downstream parsers depend on it:
///
/// * `span_start`: `fields, kind, name, parent, span, thread, ts_ns`
/// * `span_end`: `dur_ns, kind, name, span, thread, ts_ns`
/// * `event`: `fields, kind, name, span, thread, ts_ns`
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Record kind.
    pub kind: TraceEventKind,
    /// Timestamp (tracer-clock nanoseconds).
    pub ts_ns: u64,
    /// Dense per-install thread number (0 = first thread that traced).
    pub thread: u64,
    /// The span this record belongs to (`None` for events outside spans).
    pub span: Option<u64>,
    /// The enclosing span at span start (`None` at the root).
    pub parent: Option<u64>,
    /// Span or event name.
    pub name: &'static str,
    /// Wall time of the span, on `span_end` records.
    pub dur_ns: Option<u64>,
    /// Structured fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// The JSONL form (one line per record; keys serialize sorted).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::from).unwrap_or(Json::Null);
        let fields_json = || {
            let mut fields = std::collections::BTreeMap::new();
            for (k, v) in &self.fields {
                fields.insert(k.to_string(), v.to_json());
            }
            Json::Object(fields)
        };
        match self.kind {
            TraceEventKind::SpanStart => json!({
                "kind": "span_start",
                "ts_ns": self.ts_ns,
                "thread": self.thread,
                "span": opt(self.span),
                "parent": opt(self.parent),
                "name": self.name,
                "fields": fields_json(),
            }),
            TraceEventKind::SpanEnd => json!({
                "kind": "span_end",
                "ts_ns": self.ts_ns,
                "thread": self.thread,
                "span": opt(self.span),
                "name": self.name,
                "dur_ns": opt(self.dur_ns),
            }),
            TraceEventKind::Event => json!({
                "kind": "event",
                "ts_ns": self.ts_ns,
                "thread": self.thread,
                "span": opt(self.span),
                "name": self.name,
                "fields": fields_json(),
            }),
        }
    }

    /// Serializes the compact JSONL line directly into `out`, byte-identical
    /// to `serde_json::to_string(&self.to_json())` (the schema golden test
    /// pins both paths against each other). The JSONL sink uses this on the
    /// hot path to skip the intermediate `Value` tree and its allocations.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let opt = |out: &mut String, v: Option<u64>| match v {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        };
        out.push('{');
        match self.kind {
            TraceEventKind::SpanStart => {
                out.push_str("\"fields\":");
                self.write_fields(out);
                out.push_str(",\"kind\":\"span_start\",\"name\":");
                escape_json_into(out, self.name);
                out.push_str(",\"parent\":");
                opt(out, self.parent);
                out.push_str(",\"span\":");
                opt(out, self.span);
            }
            TraceEventKind::SpanEnd => {
                out.push_str("\"dur_ns\":");
                opt(out, self.dur_ns);
                out.push_str(",\"kind\":\"span_end\",\"name\":");
                escape_json_into(out, self.name);
                out.push_str(",\"span\":");
                opt(out, self.span);
            }
            TraceEventKind::Event => {
                out.push_str("\"fields\":");
                self.write_fields(out);
                out.push_str(",\"kind\":\"event\",\"name\":");
                escape_json_into(out, self.name);
                out.push_str(",\"span\":");
                opt(out, self.span);
            }
        }
        let _ = write!(
            out,
            ",\"thread\":{},\"ts_ns\":{}}}",
            self.thread, self.ts_ns
        );
    }

    /// Writes the sorted `fields` object (sorted keys; on duplicates the
    /// last value wins — matching the `BTreeMap` the `Value` path builds).
    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        if self.fields.is_empty() {
            out.push_str("{}");
            return;
        }
        let mut idx: Vec<usize> = (0..self.fields.len()).collect();
        idx.sort_by_key(|&i| self.fields[i].0);
        out.push('{');
        let mut first = true;
        for (n, &i) in idx.iter().enumerate() {
            if idx
                .get(n + 1)
                .is_some_and(|&j| self.fields[j].0 == self.fields[i].0)
            {
                continue; // a later duplicate shadows this one
            }
            if !first {
                out.push(',');
            }
            first = false;
            let (key, value) = &self.fields[i];
            escape_json_into(out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => {
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(v) => escape_json_into(out, v),
            }
        }
        out.push('}');
    }
}

/// JSON string escaping, matching the workspace `serde_json` serializer
/// rule for rule so [`TraceEvent::write_jsonl`] stays byte-identical to
/// the `Value` path.
fn escape_json_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct TracerState {
    sink: Arc<dyn TraceSink>,
    clock: Arc<dyn ObsClock>,
}

/// One relaxed load on every instrumented fast path.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static TRACER: RwLock<Option<Arc<TracerState>>> = RwLock::new(None);
/// Serializes installations so concurrent tests cannot corrupt each
/// other's traces.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Bumped per install; thread numbers are re-assigned per epoch so every
/// installation sees a dense 0-based numbering.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_NUM: Cell<(u64, u64)> = const { Cell::new((u64::MAX, 0)) };
    /// Per-thread cache of the installed tracer, validated against
    /// [`EPOCH`]. Without it every record would take the `TRACER` read
    /// lock twice (timestamp + sink), and concurrent instrumented threads
    /// — a serving connection and an engine worker, say — bounce the
    /// rwlock's reader count between cores on every span.
    static TRACER_CACHE: RefCell<(u64, Option<Arc<TracerState>>)> =
        const { RefCell::new((u64::MAX, None)) };
}

/// Whether a sink is installed. The macros check this before evaluating
/// their field expressions.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn thread_num() -> u64 {
    let epoch = EPOCH.load(Ordering::Relaxed);
    THREAD_NUM.with(|cell| {
        let (cached_epoch, cached) = cell.get();
        if cached_epoch == epoch {
            return cached;
        }
        let fresh = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        cell.set((epoch, fresh));
        fresh
    })
}

/// Runs `f` against the installed tracer, if any. The slow path (one
/// `TRACER` read-lock acquisition) runs once per thread per install
/// epoch; the steady state costs one atomic load plus a thread-local
/// borrow. `f` must not emit trace records itself (sinks are leaf code) —
/// the cache borrow is held across the call.
fn with_tracer<R>(f: impl FnOnce(&TracerState) -> R) -> Option<R> {
    let epoch = EPOCH.load(Ordering::Acquire);
    TRACER_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        if cache.0 != epoch {
            cache.1 = TRACER.read().unwrap_or_else(|e| e.into_inner()).clone();
            cache.0 = epoch;
        }
        cache.1.as_deref().map(f)
    })
}

fn record(event: TraceEvent) {
    with_tracer(|state| state.sink.record(&event));
}

fn now_ns() -> u64 {
    with_tracer(|state| state.clock.now_ns()).unwrap_or(0)
}

/// Keeps tracing active while alive; uninstalls the sink (flushing it) on
/// drop. Also holds the process-wide install lock, so a second `install`
/// blocks until the first guard drops.
pub struct SinkGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Relaxed);
        let state = TRACER.write().unwrap_or_else(|e| e.into_inner()).take();
        // Invalidate per-thread tracer caches before the final flush so
        // stale threads refresh to "no tracer" rather than writing to a
        // sink that has already flushed.
        EPOCH.fetch_add(1, Ordering::Release);
        if let Some(state) = state {
            state.sink.flush();
        }
    }
}

/// Installs `sink` as the process-global trace sink, with timestamps drawn
/// from `clock`. Span and thread numbering restart at zero. Blocks while
/// another guard is alive; tracing stops (and the sink flushes) when the
/// returned guard drops.
pub fn install(sink: Arc<dyn TraceSink>, clock: Arc<dyn ObsClock>) -> SinkGuard {
    let lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    NEXT_SPAN.store(0, Ordering::Relaxed);
    NEXT_THREAD.store(0, Ordering::Relaxed);
    *TRACER.write().unwrap_or_else(|e| e.into_inner()) =
        Some(Arc::new(TracerState { sink, clock }));
    // Bumped only after the new state is in place: a thread that observes
    // the new epoch must find the new tracer when it refreshes its cache.
    EPOCH.fetch_add(1, Ordering::Release);
    ACTIVE.store(true, Ordering::Relaxed);
    SinkGuard { _lock: lock }
}

/// Installs a [`JsonlSink`](crate::sink::JsonlSink) writing one JSON
/// record per line to `path` (truncating), with wall-clock timestamps.
pub fn install_jsonl(path: &std::path::Path) -> std::io::Result<SinkGuard> {
    let sink = crate::sink::JsonlSink::create(path)?;
    Ok(install(Arc::new(sink), Arc::new(MonotonicClock::new())))
}

/// Installs an in-memory collector (tests); the returned [`MemorySink`]
/// handle reads the collected events back.
pub fn install_memory() -> (MemorySink, SinkGuard) {
    let sink = MemorySink::new();
    let guard = install(Arc::new(sink.clone()), Arc::new(MonotonicClock::new()));
    (sink, guard)
}

/// An RAII span: entering emits `span_start` and pushes onto the calling
/// thread's span stack, dropping emits `span_end` with the wall time and
/// pops. Created via the [`span!`](crate::span) macro.
#[must_use = "a span ends when its guard drops — bind it to a variable"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start_ns: u64,
    entered: bool,
}

/// Appends the thread's current request id (when one is installed via
/// [`crate::context::RequestGuard`]) as a `request` field. Appended last,
/// so it wins over a caller-supplied duplicate under the serializer's
/// last-duplicate-wins rule.
fn attach_request(fields: &mut Vec<(&'static str, FieldValue)>) {
    if let Some(id) = crate::context::current_request() {
        fields.push(("request", FieldValue::Str(id.to_string())));
    }
}

impl SpanGuard {
    /// Enters a span (no-op while tracing is inactive).
    pub fn enter(name: &'static str, mut fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        if !is_active() {
            return SpanGuard {
                id: 0,
                name,
                start_ns: 0,
                entered: false,
            };
        }
        attach_request(&mut fields);
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let ts_ns = now_ns();
        record(TraceEvent {
            kind: TraceEventKind::SpanStart,
            ts_ns,
            thread: thread_num(),
            span: Some(id),
            parent,
            name,
            dur_ns: None,
            fields,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            id,
            name,
            start_ns: ts_ns,
            entered: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.entered {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.last() {
                Some(&top) if top == self.id => {
                    stack.pop();
                }
                // Out-of-order drop (guards dropped not in reverse entry
                // order on this thread): remove defensively so the stack
                // cannot grow without bound.
                _ => stack.retain(|&x| x != self.id),
            }
        });
        let ts_ns = now_ns();
        record(TraceEvent {
            kind: TraceEventKind::SpanEnd,
            ts_ns,
            thread: thread_num(),
            span: Some(self.id),
            parent: None,
            name: self.name,
            dur_ns: Some(ts_ns.saturating_sub(self.start_ns)),
            fields: Vec::new(),
        });
    }
}

/// Emits a structured point-in-time event attributed to the calling
/// thread's current span. Prefer the [`event!`](crate::event) macro, which
/// skips field evaluation while tracing is inactive.
pub fn emit_event(name: &'static str, mut fields: Vec<(&'static str, FieldValue)>) {
    if !is_active() {
        return;
    }
    attach_request(&mut fields);
    record(TraceEvent {
        kind: TraceEventKind::Event,
        ts_ns: now_ns(),
        thread: thread_num(),
        span: SPAN_STACK.with(|s| s.borrow().last().copied()),
        parent: None,
        name,
        dur_ns: None,
        fields,
    });
}

/// Opens a span: `let _span = span!("emptiness.check");` — optional
/// structured fields: `span!("stream.shard_batch", shard = i)`. Expands to
/// `()` with the `trace` feature disabled.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr $(, $key:ident = $val:expr)+ $(,)?) => {
        $crate::trace::SpanGuard::enter(
            $name,
            if $crate::trace::is_active() {
                ::std::vec![$((
                    ::std::stringify!($key),
                    $crate::trace::FieldValue::from($val),
                )),+]
            } else {
                ::std::vec::Vec::new()
            },
        )
    };
}

/// Emits a structured event: `event!("emptiness.lassos", candidates = n);`.
/// Field expressions are evaluated only while a sink is installed; expands
/// to `()` with the `trace` feature disabled.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::is_active() {
            $crate::trace::emit_event(
                $name,
                ::std::vec![$((
                    ::std::stringify!($key),
                    $crate::trace::FieldValue::from($val),
                )),*],
            );
        }
    };
}

/// With the `trace` feature disabled the macro compiles to `()` — no field
/// evaluation, no guard, no atomic load.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! span {
    ($($tt:tt)*) => {
        ()
    };
}

/// With the `trace` feature disabled the macro compiles to `()`.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! event {
    ($($tt:tt)*) => {
        ()
    };
}

#[cfg(test)]
mod tests {
    #[cfg(feature = "trace")]
    use super::*;
    #[cfg(feature = "trace")]
    use crate::clock::ManualClock;
    #[cfg(feature = "trace")]
    use crate::TraceEventKind::*;

    #[cfg(feature = "trace")]
    #[test]
    fn spans_nest_and_events_attach() {
        let (mem, guard) = install_memory();
        {
            let _outer = span!("outer");
            event!("tick", n = 1u64);
            {
                let _inner = span!("inner", depth = 2u64);
                event!("tock", n = 2u64);
            }
        }
        drop(guard);
        let events = mem.events();
        let kinds: Vec<TraceEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanStart, Event, SpanStart, Event, SpanEnd, SpanEnd]
        );
        // inner's parent is outer; the events sit in their enclosing spans.
        assert_eq!(events[2].parent, events[0].span);
        assert_eq!(events[1].span, events[0].span);
        assert_eq!(events[3].span, events[2].span);
        // inner carries its field on the start record.
        assert_eq!(events[2].fields, vec![("depth", FieldValue::U64(2))]);
        // span_end durations come from the tracer clock.
        assert!(events[4].dur_ns.is_some());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn request_context_attaches_to_spans_and_events() {
        let (mem, guard) = install_memory();
        {
            let _req = crate::context::RequestGuard::enter(Arc::from("req-77"));
            let _s = span!("scoped", shard = 3u64);
            event!("inside", n = 1u64);
        }
        {
            let _bare = span!("bare");
        }
        drop(guard);
        let events = mem.events();
        let tagged = ("request", FieldValue::Str("req-77".into()));
        assert!(events[0].fields.contains(&tagged), "span start: {events:?}");
        assert!(events[1].fields.contains(&tagged), "event: {events:?}");
        let bare = events
            .iter()
            .find(|e| e.name == "bare" && e.kind == SpanStart)
            .unwrap();
        assert!(
            bare.fields.iter().all(|(k, _)| *k != "request"),
            "no context, no field: {bare:?}"
        );
    }

    #[cfg(feature = "trace")]
    #[test]
    fn inactive_tracing_records_nothing() {
        let (mem, guard) = install_memory();
        drop(guard); // deactivate immediately
        let _span = span!("ghost");
        event!("ghost.event", n = 3u64);
        assert!(mem.events().is_empty());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn manual_clock_drives_timestamps_and_durations() {
        let mem = MemorySink::new();
        let clock = Arc::new(ManualClock::new());
        let guard = install(Arc::new(mem.clone()), clock.clone());
        {
            let _s = span!("timed");
            clock.advance(1_000);
        }
        drop(guard);
        let events = mem.events();
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[1].ts_ns, 1_000);
        assert_eq!(events[1].dur_ns, Some(1_000));
    }

    /// The direct serializer must agree byte for byte with the `Value`
    /// path on every kind and every field type, including the awkward
    /// cases: escapes, floats, duplicate keys, missing span ids.
    #[cfg(feature = "trace")]
    #[test]
    fn write_jsonl_matches_value_serialization() {
        let cases = vec![
            TraceEvent {
                kind: SpanStart,
                ts_ns: 12,
                thread: 0,
                span: Some(3),
                parent: None,
                name: "with \"quotes\"\nand\tcontrol\u{1}",
                dur_ns: None,
                fields: vec![
                    ("z", FieldValue::Str("säge \\ path".into())),
                    ("a", FieldValue::F64(1.5)),
                    ("nan", FieldValue::F64(f64::NAN)),
                    ("neg", FieldValue::I64(-7)),
                    ("dup", FieldValue::U64(1)),
                    ("dup", FieldValue::U64(2)),
                    ("flag", FieldValue::Bool(false)),
                ],
            },
            TraceEvent {
                kind: SpanEnd,
                ts_ns: u64::MAX,
                thread: 7,
                span: None,
                parent: None,
                name: "end",
                dur_ns: Some(0),
                fields: Vec::new(),
            },
            TraceEvent {
                kind: Event,
                ts_ns: 0,
                thread: 1,
                span: None,
                parent: None,
                name: "bare",
                dur_ns: None,
                fields: Vec::new(),
            },
        ];
        for case in cases {
            let mut direct = String::new();
            case.write_jsonl(&mut direct);
            let via_value = serde_json::to_string(&case.to_json()).unwrap();
            assert_eq!(direct, via_value, "record: {case:?}");
        }
    }

    /// With the feature disabled both macros must expand to `()` — the
    /// compile-time proof that instrumentation is free when compiled out.
    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_macros_are_zero_sized() {
        let span = span!("anything", ignored = 42u64);
        let event = event!("anything", ignored = 42u64);
        assert_eq!(std::mem::size_of_val(&span), 0);
        assert_eq!(std::mem::size_of_val(&event), 0);
        // And the field expressions are *not evaluated*:
        let evaluated = std::cell::Cell::new(false);
        let _ = span!(
            "check",
            x = {
                evaluated.set(true);
                1u64
            }
        );
        let _ = event!(
            "check",
            x = {
                evaluated.set(true);
                1u64
            }
        );
        assert!(!evaluated.get(), "disabled macros must not evaluate fields");
    }
}
