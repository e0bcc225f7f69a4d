//! Adversarial tests for the resource-governance layer.
//!
//! Every governed entry point in the stack — completion, the state-driven
//! normal form, the `SControl` NBA, emptiness, class structures, the chase,
//! all three projection constructions, and stream-spec compilation — is fed
//! an input whose ungoverned construction blows up combinatorially:
//!
//! * the *completion bomb*: a one-state automaton whose single transition
//!   carries the empty σ-type over `k` registers, so completion must
//!   enumerate all Bell(2k) saturated completions (minutes of work at
//!   `k = 6`, hours beyond);
//! * the *dense control graph*: a fully connected `n`-state automaton,
//!   whose `SControl` wiring is quadratic in the `n²` transitions.
//!
//! The properties checked, per the governor's contract:
//!
//! * with a node ceiling set, every entry point returns a typed
//!   [`GovernError`] and never expands more than one node past the
//!   ceiling (the trip refuses the `max + 1`-th expansion);
//! * with only a deadline set, the error comes back within twice the
//!   deadline (the stride-amortized slow check bounds the overshoot);
//! * a [`CancelToken`](rega_core::CancelToken) flipped from another thread
//!   interrupts a construction mid-flight with `GovernError::Cancelled`.

use proptest::prelude::*;
use rega_analysis::chase::universal_witness_database_governed;
use rega_analysis::emptiness::check_emptiness_governed;
use rega_analysis::{ClassStructure, EmptinessOptions};
use rega_automata::Lasso;
use rega_core::symbolic::scontrol_nba_governed;
use rega_core::transform::{complete_governed, state_driven_governed};
use rega_core::{
    paper, Budget, BudgetSpec, CoreError, ExtendedAutomaton, GovernError, RegisterAutomaton,
    StateId,
};
use rega_data::{Database, SatCache, Schema, SigmaType};
use rega_stream::CompiledSpec;
use rega_views::thm24::Thm24Options;
use rega_views::{
    project_extended_governed, project_hiding_database_governed,
    project_register_automaton_governed,
};
use std::time::{Duration, Instant};

/// One state, one self-loop carrying the empty σ-type over `k` registers:
/// completion must enumerate every saturated completion of the empty type
/// — Bell(2k) of them — before any construction built on it can finish.
fn completion_bomb(k: u16) -> RegisterAutomaton {
    let mut ra = RegisterAutomaton::new(k, Schema::empty());
    let p = ra.add_state("p");
    ra.set_initial(p);
    ra.set_accepting(p);
    ra.add_transition(p, SigmaType::empty(k), p).unwrap();
    ra
}

/// A fully connected `n`-state register-free automaton: `n²` transitions,
/// so the `SControl` wiring loop alone visits `n⁴` pairs.
fn dense_control(n: usize) -> RegisterAutomaton {
    let mut ra = RegisterAutomaton::new(0, Schema::empty());
    let states: Vec<StateId> = (0..n).map(|i| ra.add_state(&format!("s{i}"))).collect();
    ra.set_initial(states[0]);
    ra.set_accepting(states[n - 1]);
    for &u in &states {
        for &v in &states {
            ra.add_transition(u, SigmaType::empty(0), v).unwrap();
        }
    }
    ra
}

type Entry = (&'static str, Box<dyn Fn(&Budget) -> Result<(), CoreError>>);

/// Every governed entry point, each paired with an adversarial input that
/// is guaranteed to attempt more governed expansions than any ceiling the
/// sweep below draws (≥ 2500 ticks each). Caches are created fresh inside
/// each closure: budget trips are never memoized, and a warm cache must
/// not let a later case skip the loop under test.
fn entry_points() -> Vec<Entry> {
    vec![
        (
            "transform.complete",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                complete_governed(&completion_bomb(6), &cache, b).map(|_| ())
            }),
        ),
        (
            "transform.state_driven",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                state_driven_governed(&dense_control(51), &cache, b).map(|_| ())
            }),
        ),
        (
            "symbolic.scontrol_nba",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                scontrol_nba_governed(&dense_control(51), &cache, b).map(|_| ())
            }),
        ),
        (
            "emptiness.check",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let ext = ExtendedAutomaton::new(dense_control(51));
                check_emptiness_governed(&ext, &EmptinessOptions::default(), &cache, b).map(|_| ())
            }),
        ),
        (
            "classes.build",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let (ra, ts) = paper::example1();
                let ext = ExtendedAutomaton::new(ra);
                let w = Lasso::periodic(vec![ts[0], ts[1], ts[1], ts[2]]);
                ClassStructure::build_governed(&ext, &w, 50_000, &cache, b).map(|_| ())
            }),
        ),
        (
            "chase.universal_witness",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let ext = ExtendedAutomaton::new(dense_control(51));
                universal_witness_database_governed(&ext, &EmptinessOptions::default(), &cache, b)
                    .map(|_| ())
            }),
        ),
        (
            "views.prop20",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                project_register_automaton_governed(&completion_bomb(6), 2, &cache, b).map(|_| ())
            }),
        ),
        (
            "views.thm13",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let ext = ExtendedAutomaton::new(completion_bomb(6));
                project_extended_governed(&ext, 2, &cache, b).map(|_| ())
            }),
        ),
        (
            "views.thm24",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                project_hiding_database_governed(
                    &completion_bomb(5),
                    2,
                    &Thm24Options::default(),
                    &cache,
                    b,
                )
                .map(|_| ())
            }),
        ),
        (
            "stream.compile",
            Box::new(|b| {
                let ext = ExtendedAutomaton::new(completion_bomb(6));
                let db = Database::new(Schema::empty());
                CompiledSpec::compile_governed(ext, db, Some(2), b).map(|_| ())
            }),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Sweep every governed entry point under a randomly drawn node
    // ceiling (with a deadline as backstop): each must come back with a
    // typed `GovernError` carrying a non-empty phase, without ever
    // expanding more than one node past the ceiling, and without
    // overshooting twice the deadline.
    #[test]
    fn every_entry_point_trips_within_limits(
        max_nodes in 200u64..2000,
        deadline_ms in 200u64..400,
    ) {
        for (name, run) in entry_points() {
            // The typed-error and node-ceiling contracts are exact and
            // deterministic; the wall-clock overshoot bound is inherently
            // scheduler-sensitive on this 1-core container (if the process
            // isn't scheduled, even a perfectly strided check overshoots).
            // One retry keeps a systematic stride bug failing on both
            // attempts while a one-off starvation spike doesn't.
            let mut overshoots = 0u32;
            loop {
                let budget = Budget::start(&BudgetSpec {
                    deadline_ms: Some(deadline_ms),
                    max_nodes: Some(max_nodes),
                    max_types: None,
                });
                let started = Instant::now();
                let res = run(&budget);
                let elapsed = started.elapsed().as_millis() as u64;
                match res {
                    Err(CoreError::Govern(g)) => {
                        prop_assert!(
                            !g.phase().is_empty(),
                            "{name}: trip must name the phase it fired in"
                        );
                        prop_assert!(
                            matches!(g.kind(), "nodes" | "deadline"),
                            "{name}: unexpected trip kind {:?}",
                            g.kind()
                        );
                    }
                    Ok(()) => prop_assert!(
                        false,
                        "{name}: adversarial input completed under a {max_nodes}-node ceiling"
                    ),
                    Err(other) => prop_assert!(
                        false,
                        "{name}: expected a GovernError, got {other:?}"
                    ),
                }
                prop_assert!(
                    budget.nodes() <= max_nodes + 1,
                    "{name}: expanded {} nodes against a ceiling of {max_nodes}",
                    budget.nodes()
                );
                if elapsed <= 2 * deadline_ms {
                    break;
                }
                overshoots += 1;
                prop_assert!(
                    overshoots < 2,
                    "{name}: took {elapsed} ms against a {deadline_ms} ms deadline \
                     on both attempts"
                );
            }
        }
    }

    // With only a deadline set, the completion bomb must be cut off
    // within twice the deadline — the stride-amortized check bounds the
    // overshoot — and the error must carry honest diagnostics.
    #[test]
    fn deadline_alone_trips_within_twice_deadline(
        deadline_ms in 100u64..250,
        k in 6u16..8,
    ) {
        // Same one-retry policy as the sweep above: the diagnostics
        // contract is exact, the wall-clock bound is scheduler-sensitive.
        let mut overshoots = 0u32;
        loop {
            let cache = SatCache::new(Schema::empty());
            let budget = Budget::start(&BudgetSpec {
                deadline_ms: Some(deadline_ms),
                max_nodes: None,
                max_types: None,
            });
            let started = Instant::now();
            let res =
                project_register_automaton_governed(&completion_bomb(k), 2, &cache, &budget);
            let elapsed = started.elapsed().as_millis() as u64;
            match res {
                Err(CoreError::Govern(g @ GovernError::DeadlineExceeded { .. })) => {
                    prop_assert!(g.elapsed_ms() >= deadline_ms);
                    prop_assert!(g.nodes() > 0, "diagnostics must report partial progress");
                }
                other => prop_assert!(false, "expected DeadlineExceeded, got {other:?}"),
            }
            if elapsed <= 2 * deadline_ms {
                break;
            }
            overshoots += 1;
            prop_assert!(
                overshoots < 2,
                "took {elapsed} ms against a {deadline_ms} ms deadline on both attempts"
            );
        }
    }
}

/// A node ceiling of `N` means at most `N` expansions happen: the governor
/// refuses the `N+1`-th tick, and the error reports exactly where the
/// counter stood.
#[test]
fn node_ceiling_is_exact() {
    let cache = SatCache::new(Schema::empty());
    let budget = Budget::start(&BudgetSpec {
        deadline_ms: None,
        max_nodes: Some(777),
        max_types: None,
    });
    let err = complete_governed(&completion_bomb(6), &cache, &budget).unwrap_err();
    match err {
        CoreError::Govern(g @ GovernError::NodeBudgetExceeded { .. }) => {
            assert_eq!(g.nodes(), 778, "trip fires on the refused expansion");
        }
        other => panic!("expected NodeBudgetExceeded, got {other:?}"),
    }
    assert_eq!(budget.nodes(), 778);
}

/// Flipping the cancellation token from another thread interrupts an
/// otherwise-unbounded emptiness check mid-construction: the dense control
/// graph keeps the on-the-fly expansion busy for well over the cancel
/// delay (seconds, uncancelled), yet the check returns `Cancelled` almost
/// immediately after the flip.
#[test]
fn cancellation_from_another_thread_interrupts_emptiness() {
    let cache = SatCache::new(Schema::empty());
    let ext = ExtendedAutomaton::new(dense_control(150));
    let budget = Budget::start(&BudgetSpec {
        deadline_ms: None,
        max_nodes: None,
        max_types: None,
    });
    let token = budget.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
    });
    let started = Instant::now();
    let res = check_emptiness_governed(&ext, &EmptinessOptions::default(), &cache, &budget);
    canceller.join().unwrap();
    match res {
        Err(CoreError::Govern(g @ GovernError::Cancelled { .. })) => {
            assert!(!g.phase().is_empty());
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation must cut the construction short"
    );
    assert!(budget.cancel_token().is_cancelled());
}

/// A budget trip mid on-the-fly search is a *typed* error carrying the
/// phase it fired in and partial-progress diagnostics — never a panic, a
/// wrong verdict, or a silent truncation.
#[test]
fn on_the_fly_trip_is_typed_with_phase_and_progress() {
    let cache = SatCache::new(Schema::empty());
    let ext = ExtendedAutomaton::new(dense_control(51));
    let budget = Budget::start(&BudgetSpec {
        deadline_ms: None,
        max_nodes: Some(500),
        max_types: None,
    });
    let err = check_emptiness_governed(&ext, &EmptinessOptions::default(), &cache, &budget)
        .expect_err("500 ticks cannot cover a 2601-letter expansion");
    match err {
        CoreError::Govern(g @ GovernError::NodeBudgetExceeded { .. }) => {
            assert!(
                g.phase().starts_with("emptiness.on_the_fly"),
                "trip must name the on-the-fly phase, got {:?}",
                g.phase()
            );
            assert!(g.nodes() > 0, "diagnostics carry the tick count");
            assert_eq!(g.nodes(), 501, "trip fires on the refused tick");
        }
        other => panic!("expected NodeBudgetExceeded, got {other:?}"),
    }
    assert_eq!(budget.nodes(), 501);
}

/// A tripped search memoizes nothing: re-running against the *same* cache
/// with the budget lifted returns exactly the verdict and witness a fresh
/// cache produces.
#[test]
fn on_the_fly_trip_never_memoizes_into_the_cache() {
    use rega_analysis::emptiness::EmptinessVerdict;
    let ext = ExtendedAutomaton::new(dense_control(51));
    let opts = EmptinessOptions::default();

    let shared = SatCache::new(Schema::empty());
    let tight = Budget::start(&BudgetSpec {
        deadline_ms: None,
        max_nodes: Some(500),
        max_types: None,
    });
    check_emptiness_governed(&ext, &opts, &shared, &tight).expect_err("must trip");

    let warm = check_emptiness_governed(&ext, &opts, &shared, &Budget::unlimited()).unwrap();
    let fresh = check_emptiness_governed(
        &ext,
        &opts,
        &SatCache::new(Schema::empty()),
        &Budget::unlimited(),
    )
    .unwrap();
    match (&warm, &fresh) {
        (EmptinessVerdict::NonEmpty(a), EmptinessVerdict::NonEmpty(b)) => {
            assert_eq!(a.control, b.control, "tripped cache changed the witness");
        }
        (EmptinessVerdict::Empty, EmptinessVerdict::Empty) => {}
        _ => panic!("tripped cache changed the verdict"),
    }
}

/// Driving the lazy source directly: a node ceiling of `N` leaves at most
/// `N + 1` states expanded in the arena (each expansion ticks at least
/// once per alphabet letter), and the tripped expansion itself is *not*
/// recorded — partial progress stays honest.
#[test]
fn on_the_fly_arena_respects_node_ceiling() {
    use rega_automata::emptiness::for_each_accepting_lasso;
    use rega_core::symbolic::SControlSource;

    let cache = SatCache::new(Schema::empty());
    let ra = dense_control(51);
    for max_nodes in [500u64, 2_000, 5_000] {
        let budget = Budget::start(&BudgetSpec {
            deadline_ms: None,
            max_nodes: Some(max_nodes),
            max_types: None,
        });
        let mut src = SControlSource::new(&ra, &cache, &budget);
        let trip = src.trip_handle();
        let lassos = for_each_accepting_lasso(
            &mut src,
            64,
            10,
            500_000,
            &mut || trip.borrow().is_some(),
            &mut |_| false,
        );
        let g = src.take_trip().expect("every ceiling here is too small");
        assert!(g.phase().starts_with("emptiness.on_the_fly"));
        assert!(
            (src.arena().nodes_expanded() as u64) <= max_nodes + 1,
            "ceiling {max_nodes}: {} nodes left in the arena",
            src.arena().nodes_expanded()
        );
        assert!(budget.nodes() <= max_nodes + 1);
        assert!(
            lassos.is_empty(),
            "a drained search must not fabricate lassos"
        );
    }
}

/// The Lemma 21 DFA builds are governed themselves, not only per register
/// pair: a ceiling that the completion, state-driven wiring and
/// restriction of a projection fit under, but its Lemma 21 builds do not,
/// trips inside the kernel with the kernel's phase and without
/// overshooting.
#[test]
fn lemma21_build_trips_inside_the_kernel() {
    let (ra, _) = paper::example1();
    let nodes_for = |m: u16, max_nodes: Option<u64>| {
        let budget = Budget::start(&BudgetSpec {
            deadline_ms: None,
            max_nodes,
            max_types: None,
        });
        let cache = SatCache::new(Schema::empty());
        let res = project_register_automaton_governed(&ra, m, &cache, &budget);
        (res, budget.nodes())
    };
    // m = 0 runs every phase except Lemma 21; m = 1 adds one register
    // pair's `e=` and `e≠` builds.
    let (_, before) = nodes_for(0, None);
    let (_, total) = nodes_for(1, None);
    assert!(
        total > before + 4,
        "the Lemma 21 builds must tick: {before} ticks without them, {total} with"
    );
    let ceiling = before + (total - before) / 2;
    let (res, nodes) = nodes_for(1, Some(ceiling));
    match res {
        Err(CoreError::Govern(g @ GovernError::NodeBudgetExceeded { .. })) => {
            assert!(
                g.phase().starts_with("views.lemma21."),
                "trip must name the Lemma 21 phase, got {:?}",
                g.phase()
            );
            assert_eq!(g.nodes(), ceiling + 1, "trip fires on the refused tick");
        }
        other => panic!("expected NodeBudgetExceeded, got {other:?}"),
    }
    assert!(nodes <= ceiling + 1);
}
