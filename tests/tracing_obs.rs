//! Cross-crate tracing integration tests (the `rega-obs` observability
//! layer driven by real constructions).
//!
//! 1. **Stack discipline under the threaded scheduler**: every worker
//!    thread's span records must form a well-nested stack, and the
//!    `stream.shard_batch` spans must never interleave within one
//!    thread's stack — a worker drains one burst to completion before
//!    opening the next. A burst may hold events of several shards the
//!    worker owns; like its request id, its `shard` field is the first
//!    event's.
//! 2. **Trace → report round trip**: a `check_emptiness` run under the
//!    JSONL schema reconstructs the per-phase wall-time tree (NBA build /
//!    lasso search / witness) and the SatCache hit ratio through
//!    `rega_obs::report` — the same pipeline `rega trace-report` runs.
//! 3. **Projection spans**: the view assembly, the Lemma 21 DFA builds and
//!    the Theorem 24 selector worklists each open their own span, nested
//!    under the projection that runs them, so their share of a projection
//!    is read from production telemetry.
//! 4. **Verification spans**: Theorem 12's `verify` opens one root span
//!    with its refinement, truth-table and product stages and the
//!    emptiness check of the product nested directly beneath it.
//! 5. **Serving spans**: a server opens one `serve.decode` span per frame
//!    it reads (frame bytes to command), so the decode's share of a served
//!    request is read from production telemetry.
//! 6. **Kernel split of emptiness**: the `SControl` expansion reports how
//!    many distinct type pairs the `TypeBits` kernel answered, as one
//!    `typebits.stats` event inside `emptiness.check`.

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

/// Each projection assembles its view in exactly one `views.assemble`
/// span, a direct child of the projection's span, and the
/// `views.assembled` event inside it carries the view's transition count.
#[test]
fn each_projection_assembles_its_view_in_one_span() {
    use rega_obs::trace::FieldValue;
    use rega_views::thm24::{project_hiding_database, Thm24Options};
    use rega_views::{project_extended, project_register_automaton};

    let (sink, guard) = rega_obs::install_memory();
    let (ra, _) = rega_core::paper::example1();
    let prop20 = project_register_automaton(&ra, 1).unwrap();
    let thm13 = project_extended(&rega_core::ExtendedAutomaton::new(ra), 1).unwrap();
    let thm24 =
        project_hiding_database(&rega_core::paper::example23(), 1, &Thm24Options::default())
            .unwrap();
    drop(guard);

    let events = sink.events();
    let starts = |name: &str| -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| e.kind == TraceEventKind::SpanStart && e.name == name)
            .collect()
    };
    let assembles = starts("views.assemble");
    assert_eq!(assembles.len(), 3, "one assembly per projection");
    for (projection, transitions) in [
        ("views.prop20", prop20.view.ra().num_transitions()),
        ("views.thm13", thm13.view.ra().num_transitions()),
        ("views.thm24", thm24.view.ext().ra().num_transitions()),
    ] {
        let outer = starts(projection);
        assert_eq!(outer.len(), 1, "{projection}: one span");
        let inner: Vec<_> = assembles
            .iter()
            .filter(|a| a.parent == outer[0].span)
            .collect();
        assert_eq!(
            inner.len(),
            1,
            "{projection}: one direct views.assemble child"
        );
        let assembled: Vec<_> = events
            .iter()
            .filter(|e| e.name == "views.assembled" && e.span == inner[0].span)
            .collect();
        assert_eq!(
            assembled.len(),
            1,
            "{projection}: one views.assembled event"
        );
        assert_eq!(
            assembled[0].fields.first(),
            Some(&("transitions", FieldValue::U64(transitions as u64))),
            "{projection}: the view's transition count"
        );
    }
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

/// How each `verify` settles its emptiness check. On a frozen automaton
/// (every step keeps register 1) `G stable` holds and the product has no
/// accepting cycle: the `emptiness.scc` pre-pass inside `emptiness.check`
/// settles it, no lasso search runs, and the verdict event says `"scc"`.
/// On a thawed one (every step changes it) the search finds a
/// counterexample, and the verdict event says `"search"`.
#[test]
fn verify_verdicts_say_how_emptiness_was_settled() {
    use rega_analysis::verify::{verify, VerifyOptions};
    use rega_core::{ExtendedAutomaton, RegisterAutomaton};
    use rega_data::{Literal, Qf, QfTerm, SigmaType, Term};
    use rega_logic::LtlFo;
    use rega_obs::trace::FieldValue;

    let phi = LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(0), QfTerm::y(0)))]).unwrap();
    for (lit, holds, settled) in [
        (Literal::eq(Term::x(0), Term::y(0)), true, "scc"),
        (Literal::neq(Term::x(0), Term::y(0)), false, "search"),
    ] {
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let q = ra.add_state("q");
        ra.set_initial(q);
        ra.set_accepting(q);
        ra.add_transition(q, SigmaType::new(1, [lit]), q).unwrap();
        let ext = ExtendedAutomaton::new(ra);

        let (sink, guard) = rega_obs::install_memory();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        drop(guard);
        assert_eq!(v.holds(), holds);

        let verdicts: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "emptiness.verdict")
            .collect();
        assert_eq!(verdicts.len(), 1);
        let field = |name: &str| verdicts[0].fields.iter().find(|(k, _)| *k == name).cloned();
        assert_eq!(
            field("settled"),
            Some(("settled", FieldValue::Str(settled.into())))
        );
        assert_eq!(
            field("nonempty"),
            Some(("nonempty", FieldValue::Bool(!holds)))
        );

        let summary = summarize(&sink);
        let check = &summary.tree.children["verify"].children["emptiness.check"];
        assert_eq!(check.children["emptiness.scc"].count, 1);
        assert_eq!(
            check.children.contains_key("emptiness.on_the_fly.search"),
            !holds,
            "{settled}: a lasso search runs exactly when the pre-pass cannot settle"
        );
    }
}

/// Emptiness answers condition (iii) through one fast `TypeOps`, once per
/// distinct ordered type pair, and reports that kernel/fallback split as a
/// `typebits.stats` event inside `emptiness.check`.
#[test]
fn emptiness_reports_its_kernel_split_per_type_pair() {
    use rega_analysis::emptiness::{check_emptiness_governed, EmptinessOptions};
    use rega_data::{Budget, SatCache};
    use rega_obs::trace::FieldValue;

    // Three transitions sharing one in-fragment type: every wired
    // transition pair is the same type pair.
    let ext = parse_spec(
        "\
registers 1
state p init accept
state q
trans p -> q : x1 = y1
trans q -> p : x1 = y1
trans p -> p : x1 = y1
",
    )
    .unwrap();
    let cache = SatCache::new(ext.ra().schema().clone());
    let (sink, guard) = rega_obs::install_memory();
    let verdict = check_emptiness_governed(
        &ext,
        &EmptinessOptions::default(),
        &cache,
        &Budget::unlimited(),
    )
    .unwrap();
    drop(guard);
    assert!(verdict.is_nonempty());

    let events = sink.events();
    let checks: Vec<Option<u64>> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::SpanStart && e.name == "emptiness.check")
        .map(|e| e.span)
        .collect();
    assert_eq!(checks.len(), 1);
    let stats: Vec<_> = events
        .iter()
        .filter(|e| e.name == "typebits.stats" && e.span == checks[0])
        .collect();
    assert_eq!(
        stats.len(),
        1,
        "one typebits.stats event inside emptiness.check"
    );
    let field = |name: &str| stats[0].fields.iter().find(|(k, _)| *k == name).cloned();
    assert_eq!(field("fast"), Some(("fast", FieldValue::U64(1))));
    assert_eq!(field("fallback"), Some(("fallback", FieldValue::U64(0))));
}

#[test]
fn every_served_frame_opens_one_decode_span() {
    use rega_serve::proto::{read_frame, write_frame, Framing};
    use rega_serve::{Server, ServerConfig};
    use serde_json::json;
    use std::io::{BufReader, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    let (sink, guard) = rega_obs::install_memory();
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let running = std::thread::spawn(move || server.run(flag));
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let batch = json!({"cmd": "event-batch", "tenant": "t", "spec": "s", "events": [
        {"session": "x", "state": "p", "regs": [1u64]},
        {"session": "x", "end": true},
    ]});
    let requests = [
        json!({"cmd": "hello", "tenant": "t"}),
        json!({"cmd": "load-spec", "tenant": "t", "name": "s", "spec": spec_text()}),
        json!({"cmd": "open-session", "tenant": "t", "spec": "s", "session": "x"}),
        batch.clone(),
        batch,
        json!({"cmd": "health"}),
    ];
    let mut frames = 0;
    for (i, doc) in requests.iter().enumerate() {
        let framing = [Framing::Jsonl, Framing::Binary][i % 2];
        write_frame(&mut writer, framing, doc).unwrap();
        read_frame(&mut reader).unwrap().unwrap();
        frames += 1;
    }
    // A frame that is not JSON is decoded (and rejected) too.
    writer.write_all(b"{not json\n").unwrap();
    let (_, reply) = read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(reply["error"]["code"], json!("bad-json"));
    frames += 1;
    shutdown.store(true, Ordering::SeqCst);
    drop((writer, reader));
    running.join().unwrap();
    drop(guard);

    let events = sink.events();
    let starts = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == TraceEventKind::SpanStart && e.name == name)
            .collect::<Vec<_>>()
    };
    let decodes = starts("serve.decode");
    assert_eq!(decodes.len(), frames, "one serve.decode per served frame");
    // Decoding is the connection thread's work, outside the request span
    // (the request id is only known once the frame is decoded).
    let requests = starts("serve.request");
    assert_eq!(requests.len(), frames - 1);
    assert!(decodes
        .iter()
        .all(|d| d.thread == requests[0].thread && d.parent.is_none()));
}
