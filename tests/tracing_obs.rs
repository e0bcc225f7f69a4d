//! Cross-crate tracing integration tests (the `rega-obs` observability
//! layer driven by real constructions).
//!
//! 1. **Stack discipline under the threaded scheduler**: every worker
//!    thread's span records must form a well-nested stack, and the
//!    per-shard `stream.shard_batch` spans must never interleave within
//!    one thread's stack — a worker drains one shard burst to completion
//!    before opening the next.
//! 2. **Trace → report round trip**: a `check_emptiness` run under the
//!    JSONL schema reconstructs the per-phase wall-time tree (NBA build /
//!    lasso search / witness) and the SatCache hit ratio through
//!    `rega_obs::report` — the same pipeline `rega trace-report` runs.
//! 3. **Projection spans**: the Lemma 21 DFA builds and the Theorem 24
//!    selector worklists each open their own span, nested under the
//!    projection that runs them, so their share of a projection is read
//!    from production telemetry.
//! 4. **Verification spans**: Theorem 12's `verify` opens one root span
//!    with its refinement, truth-table and product stages and the
//!    emptiness check of the product nested directly beneath it.

use rega_core::spec::parse_spec;
use rega_data::{Database, Schema, Value};
use rega_obs::trace::TraceEvent;
use rega_obs::TraceEventKind;
use rega_stream::{CompiledSpec, Engine, EngineConfig, Event};
use std::collections::BTreeMap;
use std::sync::Arc;

fn spec_text() -> &'static str {
    "\
registers 1
state p init accept
trans p -> p : x1 = y1
trans p -> p : x1 != y1
"
}

fn compile() -> Arc<CompiledSpec> {
    let ext = parse_spec(spec_text()).unwrap();
    let db = Database::new(Schema::empty());
    Arc::new(CompiledSpec::compile(ext, db, None).unwrap())
}

/// Replays one thread's records through a stack machine, asserting
/// well-nestedness; returns the maximum number of simultaneously open
/// `stream.shard_batch` spans and the set of shards seen on the thread.
fn check_thread_stack(records: &[&TraceEvent]) -> (usize, Vec<u64>) {
    let mut stack: Vec<(u64, &'static str)> = Vec::new();
    let mut open_batches = 0usize;
    let mut max_open_batches = 0usize;
    let mut shards = Vec::new();
    for r in records {
        match r.kind {
            TraceEventKind::SpanStart => {
                let id = r.span.expect("span_start carries a span id");
                // The recorded parent must be the span below on this
                // thread's stack (or none at the bottom).
                assert_eq!(
                    r.parent,
                    stack.last().map(|(id, _)| *id),
                    "span_start parent must be the enclosing span ({})",
                    r.name
                );
                stack.push((id, r.name));
                if r.name == "stream.shard_batch" {
                    open_batches += 1;
                    max_open_batches = max_open_batches.max(open_batches);
                    let shard = r
                        .fields
                        .iter()
                        .find(|(k, _)| *k == "shard")
                        .and_then(|(_, v)| match v {
                            rega_obs::trace::FieldValue::U64(n) => Some(*n),
                            _ => None,
                        })
                        .expect("shard_batch records its shard");
                    if !shards.contains(&shard) {
                        shards.push(shard);
                    }
                }
            }
            TraceEventKind::SpanEnd => {
                let id = r.span.expect("span_end carries a span id");
                let (top, name) = stack.pop().expect("span_end without open span");
                assert_eq!(top, id, "span_end must close the innermost span");
                assert_eq!(name, r.name);
                if r.name == "stream.shard_batch" {
                    open_batches -= 1;
                }
            }
            TraceEventKind::Event => {
                // Point events attach to the current top of stack.
                assert_eq!(r.span, stack.last().map(|(id, _)| *id));
            }
        }
    }
    assert!(stack.is_empty(), "thread ended with open spans: {stack:?}");
    (max_open_batches, shards)
}

#[test]
fn threaded_scheduler_spans_do_not_interleave_across_shards() {
    let (sink, guard) = rega_obs::install_memory();
    let spec = compile();
    let config = EngineConfig {
        shards: 4,
        workers: 2,
        ..EngineConfig::default()
    };
    let mut engine = Engine::start(spec, config);
    // 32 sessions spread over the shards, a few steps each.
    for s in 0..32u32 {
        let session = format!("s{s}");
        for v in 0..4u64 {
            engine
                .submit(Event::Step {
                    session: session.clone(),
                    state: "p".into(),
                    regs: vec![Value(v + 1)],
                })
                .unwrap();
        }
        engine.submit(Event::End { session }).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outcomes.len(), 32);
    drop(guard);

    let events = sink.events();
    let batch_spans = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::SpanStart && e.name == "stream.shard_batch")
        .count();
    assert!(batch_spans > 0, "workers must emit shard-batch spans");

    // Group by thread and replay each thread's stack.
    let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &events {
        by_thread.entry(e.thread).or_default().push(e);
    }
    let mut multi_shard_threads = 0;
    for records in by_thread.values() {
        let (max_open, shards) = check_thread_stack(records);
        // The interleaving property: batches are strictly sequential
        // within one thread, even when the thread owns several shards.
        assert!(
            max_open <= 1,
            "shard batches must not nest/interleave on one thread"
        );
        if shards.len() > 1 {
            multi_shard_threads += 1;
        }
    }
    // With 4 shards on 2 workers every worker owns 2 shards; the property
    // above only bites if some thread actually served more than one.
    assert!(
        multi_shard_threads > 0,
        "test setup must exercise multi-shard workers"
    );
}

#[test]
fn emptiness_trace_reconstructs_phase_tree_and_hit_ratio() {
    use rega_analysis::emptiness::{check_emptiness, EmptinessOptions};

    let (sink, guard) = rega_obs::install_memory();
    let (ra, _) = rega_core::paper::example1();
    let ext = rega_core::ExtendedAutomaton::new(ra);
    let verdict = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
    assert!(verdict.is_nonempty());
    drop(guard);

    let summary = summarize(&sink);

    let check = summary
        .tree
        .children
        .get("emptiness.check")
        .expect("root phase span present");
    // The on-the-fly kernel interleaves witness construction with the
    // search, so the witness spans nest *inside* the search span.
    let search = check
        .children
        .get("emptiness.on_the_fly.search")
        .expect("search phase present");
    assert!(search.count >= 1);
    assert!(search.total_ns <= check.total_ns);
    let witness = search
        .children
        .get("emptiness.witness")
        .expect("witness phase nests inside the search");
    assert!(witness.count >= 1);
    assert!(witness.total_ns <= search.total_ns);
    let ratio = summary
        .satcache_hit_ratio()
        .expect("satcache.stats event recorded");
    assert!((0.0..=1.0).contains(&ratio));

    let rendered = rega_obs::report::render(&summary);
    assert!(rendered.contains("emptiness.check"));
    assert!(rendered.contains("satcache hit ratio"));
}

/// Summarizes the events a memory sink collected, exactly as
/// `rega trace-report` reads a JSONL trace.
fn summarize(sink: &rega_obs::MemorySink) -> rega_obs::report::TraceSummary {
    let text: String = sink
        .events()
        .iter()
        .map(|e| {
            let mut line = serde_json::to_string(&e.to_json()).unwrap();
            line.push('\n');
            line
        })
        .collect();
    let summary = rega_obs::report::summarize(&text).unwrap();
    assert!(summary.unclosed.is_empty());
    summary
}

#[test]
fn projection_spans_nest_lemma21_and_selectors() {
    use rega_obs::report::SpanNode;
    use rega_views::thm24::{project_hiding_database, Thm24Options};
    use rega_views::{project_extended, project_register_automaton};

    fn child<'a>(node: &'a SpanNode, name: &str) -> &'a SpanNode {
        node.children
            .get(name)
            .unwrap_or_else(|| panic!("span {name} missing under its parent"))
    }
    /// One `e=` and one `e≠` build per visible register pair, inside the
    /// projection's span.
    fn assert_lemma21_nested(root: &SpanNode, projection: &str, pairs: u64) {
        let outer = child(root, projection);
        for name in ["views.lemma21.eq", "views.lemma21.neq"] {
            let inner = child(outer, name);
            assert_eq!(inner.count, pairs, "{projection}: {name} builds");
            assert!(inner.total_ns <= outer.total_ns);
        }
    }

    let (sink, guard) = rega_obs::install_memory();
    let (ra, _) = rega_core::paper::example1();
    project_register_automaton(&ra, 1).unwrap();
    project_extended(&rega_core::ExtendedAutomaton::new(ra), 1).unwrap();
    project_hiding_database(&rega_core::paper::example23(), 1, &Thm24Options::default()).unwrap();
    drop(guard);

    let summary = summarize(&sink);
    assert_lemma21_nested(&summary.tree, "views.prop20", 1);
    assert_lemma21_nested(&summary.tree, "views.thm13", 1);
    assert_lemma21_nested(&summary.tree, "views.thm24", 1);
    let thm24 = child(&summary.tree, "views.thm24");
    let selectors = child(thm24, "views.thm24.selectors");
    assert_eq!(selectors.count, 1);
    assert!(selectors.total_ns <= thm24.total_ns);
    assert!(
        !selectors.children.contains_key("views.lemma21.eq"),
        "the selectors run after the Lemma 21 builds, not inside them"
    );
}

#[test]
fn verify_spans_nest_refine_truth_product_and_emptiness() {
    use rega_analysis::verify::{verify, VerifyOptions};
    use rega_data::{Qf, QfTerm};
    use rega_logic::LtlFo;

    let (sink, guard) = rega_obs::install_memory();
    let (ra, _) = rega_core::paper::example1();
    let ext = rega_core::ExtendedAutomaton::new(ra);
    for (r, holds) in [(1, true), (0, false)] {
        let phi = LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(r), QfTerm::y(r)))]).unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert_eq!(v.holds(), holds);
    }
    drop(guard);

    let summary = summarize(&sink);
    let root = summary
        .tree
        .children
        .get("verify")
        .expect("verify opens a root span");
    assert_eq!(root.count, 2);
    assert!(
        !summary.tree.children.contains_key("emptiness.check"),
        "the product's emptiness check runs inside verify"
    );
    for name in [
        "verify.refine",
        "verify.truth",
        "verify.product",
        "emptiness.check",
    ] {
        let stage = root
            .children
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing under verify"));
        assert_eq!(stage.count, 2, "{name}: once per verify");
        assert!(stage.total_ns <= root.total_ns);
    }
    let stages: u64 = root.children.values().map(|c| c.total_ns).sum();
    assert!(stages <= root.total_ns);
    assert!(root.children["emptiness.check"]
        .children
        .contains_key("emptiness.on_the_fly.search"));
}
