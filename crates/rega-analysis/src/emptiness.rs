//! Emptiness of extended register automata (Corollary 10), with witness
//! construction.
//!
//! The paper's route: `Control(𝒜)` is quasi-regular (Theorem 9) — a trace
//! is realizable over a *finite* database iff it is a symbolic control
//! trace whose inequality graph `G_w` has bounded cliques; emptiness of
//! quasi-regular languages is decidable. The executable counterpart works
//! lasso-by-lasso:
//!
//! 1. enumerate accepting lassos of the Büchi automaton for `SControl(A)`;
//! 2. for each, compute the stabilized constraint structure
//!    ([`ClassStructure`]) and check its consistency;
//! 3. with a database present, attempt a *periodic collapse* of the
//!    active-domain classes (the executable stand-in for the paper's
//!    finite-model-property + χ-bounded-coloring argument): classes that
//!    are shifts of one another by a multiple of the period share a value.
//!    A successful collapse yields a finite database; failure for every
//!    collapse period within budget rejects the lasso (e.g. the `pᵚ` trace
//!    of Example 8, whose `G_w` cliques grow without bound).
//!
//! A successful lasso yields a [`Witness`]: the control lasso, a finite
//! database, a concrete *valid* run prefix over it, and — whenever the
//! register values themselves can be made ultimately periodic — a complete
//! [`LassoRun`] verified end-to-end. (Example 7 shows values cannot always
//! be periodic even when the language is non-empty; there the witness
//! carries the prefix run plus the consistent symbolic structure.)

use crate::classes::{ClassOptions, ClassStructure};
use rega_automata::{emptiness as nba_emptiness, Lasso, Sccs};
use rega_core::run::{Config, FiniteRun, LassoRun};
use rega_core::symbolic::{scontrol_nba_governed, SControlSource};
use rega_core::{
    Budget, CoreError, ExtendedAutomaton, GovernError, RegisterAutomaton, StateId, TransId,
};
use rega_data::{Database, Literal, SatCache, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The default DFS step budget of the lasso search (matches
/// `enumerate_accepting_lassos`).
const LASSO_SEARCH_MAX_STEPS: usize = 500_000;

/// Budgets for the emptiness search.
#[derive(Clone, Copy, Debug)]
pub struct EmptinessOptions {
    /// Maximum number of candidate lassos examined.
    pub max_lassos: usize,
    /// Maximum simple-cycle length in the `SControl` automaton.
    pub max_cycle_len: usize,
    /// Collapse periods tried: `t · period` for `t = 1..=max_collapse`.
    pub max_collapse: usize,
    /// Structure stabilization budgets.
    pub class_opts: ClassOptions,
}

impl Default for EmptinessOptions {
    fn default() -> Self {
        EmptinessOptions {
            max_lassos: 64,
            max_cycle_len: 10,
            max_collapse: 3,
            class_opts: ClassOptions::default(),
        }
    }
}

/// A constructive witness of non-emptiness.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The accepted symbolic control trace.
    pub control: Lasso<TransId>,
    /// A finite database over the automaton's schema.
    pub database: Database,
    /// A concrete valid run prefix over the database (global constraints
    /// checked over the prefix).
    pub prefix_run: FiniteRun,
    /// A complete ultimately periodic run, when one exists within budget
    /// (verified by `ExtendedAutomaton::check_lasso_run`).
    pub lasso_run: Option<LassoRun>,
}

/// The verdict of the emptiness check.
#[derive(Clone, Debug)]
pub enum EmptinessVerdict {
    /// No run exists, or none was found within the search budgets. When
    /// the `emptiness.verdict` event reports `settled = "scc"`, no
    /// accepting cycle exists at all and the verdict is exact; when it
    /// reports `"search"`, the verdict holds up to the configured budgets.
    Empty,
    /// A run exists; see the witness.
    NonEmpty(Box<Witness>),
}

impl EmptinessVerdict {
    /// Whether the verdict is non-empty.
    pub fn is_nonempty(&self) -> bool {
        matches!(self, EmptinessVerdict::NonEmpty(_))
    }
}

/// Decides emptiness: is there a finite database and an infinite run of the
/// extended automaton over it? (Corollary 10.)
pub fn check_emptiness(
    ext: &ExtendedAutomaton,
    opts: &EmptinessOptions,
) -> Result<EmptinessVerdict, CoreError> {
    let cache = SatCache::new(ext.ra().schema().clone());
    check_emptiness_governed(ext, opts, &cache, &Budget::unlimited())
}

/// [`check_emptiness`] with every σ-type operation of the pipeline —
/// `SControl` joint-satisfiability wiring and the per-lasso structure
/// analyses — memoized in `cache`, under a [`Budget`]. One cache serves all
/// candidate lassos, and a caller running repeated checks (benchmarks,
/// monitoring startup) can keep the cache warm across calls.
///
/// This runs the **on-the-fly kernel**: the `SControl` Büchi automaton is
/// never materialized. A lazy [`SControlSource`] wires successors into its
/// edge arena only for states the lasso search actually reaches, and each
/// candidate lasso is handed to witness construction *as it is discovered*
/// — on satisfiable instances the search stops at the first witness with
/// most of the automaton never built.
///
/// The traversal (and therefore the candidate order, the verdict, and the
/// returned witness) is byte-identical to the retained
/// [`check_emptiness_reference_governed`] pipeline, which materializes the
/// automaton up front; the differential suite pins the two against each
/// other.
///
/// Before any of that, one component pass over `A`'s transition graph
/// (types ignored, span `emptiness.scc`) settles the checks whose accepting
/// states lie on no reachable cycle: `SControl` is then empty, so the
/// verdict is an exact `Empty` and no `SControl` state is built. The pass
/// is linear in the automaton and ticks no budget. The reference twin has
/// no such pass, so the differential suite checks each of these verdicts
/// against a complete search.
///
/// Governance: successor wiring ticks `emptiness.on_the_fly.expand` (with a
/// type-count memory ceiling), the search loop ticks
/// `emptiness.on_the_fly.search` per DFS expansion, and every per-lasso
/// witness construction runs governed. A trip inside the lazy source is
/// stashed (rega-automata cannot see the budget type), drains the search,
/// and is re-raised here; nothing tripped is memoized.
pub fn check_emptiness_governed(
    ext: &ExtendedAutomaton,
    opts: &EmptinessOptions,
    cache: &SatCache,
    budget: &Budget,
) -> Result<EmptinessVerdict, CoreError> {
    let _check = rega_obs::span!("emptiness.check", max_lassos = opts.max_lassos);
    let no_accepting_cycle = {
        let _phase = rega_obs::span!("emptiness.scc");
        !has_accepting_cycle(ext.ra())
    };
    // Settled by a component pass: the pre-pass, or a search that ran to
    // its end without meeting a live pivot.
    let mut by_scc = no_accepting_cycle;
    let verdict = (|| {
        if no_accepting_cycle {
            return Ok(EmptinessVerdict::Empty);
        }
        let mut src = SControlSource::new(ext.ra(), cache, budget);
        let trip = src.trip_handle();
        let mut search_trip: Option<GovernError> = None;
        let mut witness_err: Option<CoreError> = None;
        let mut found: Option<Witness> = None;
        let mut candidates = 0usize;
        let lassos = {
            let _phase = rega_obs::span!("emptiness.on_the_fly.search");
            nba_emptiness::for_each_accepting_lasso(
                &mut src,
                opts.max_lassos,
                opts.max_cycle_len,
                LASSO_SEARCH_MAX_STEPS,
                &mut || {
                    if trip.borrow().is_some() {
                        return true;
                    }
                    match budget.tick("emptiness.on_the_fly.search") {
                        Ok(()) => false,
                        Err(e) => {
                            search_trip = Some(e);
                            true
                        }
                    }
                },
                &mut |control| {
                    let _phase = rega_obs::span!("emptiness.witness", lasso = candidates);
                    candidates += 1;
                    if let Err(e) = budget.check("emptiness.witness") {
                        witness_err = Some(e.into());
                        return true;
                    }
                    match witness_for_lasso_governed(ext, control, opts, cache, budget) {
                        Ok(Some(w)) => {
                            found = Some(w);
                            true
                        }
                        Ok(None) => false,
                        Err(e) => {
                            witness_err = Some(e);
                            true
                        }
                    }
                },
            )
        };
        rega_obs::event!(
            "emptiness.lassos",
            candidates = lassos.len(),
            nodes_expanded = src.arena().nodes_expanded()
        );
        if let Some(e) = src.take_trip() {
            return Err(e.into());
        }
        if let Some(e) = search_trip {
            return Err(e.into());
        }
        if let Some(e) = witness_err {
            return Err(e);
        }
        by_scc = no_live_pivot(opts, lassos.len());
        match found {
            Some(w) => Ok(EmptinessVerdict::NonEmpty(Box::new(w))),
            None => Ok(EmptinessVerdict::Empty),
        }
    })();
    emit_verdict(cache, &verdict, by_scc);
    verdict
}

/// Whether some accepting state reachable from an initial state lies on a
/// cycle of `ra`'s transition graph, types ignored.
///
/// Every `SControl(A)` state but the start is "transition `t` just
/// fired" and accepts iff `from(t) ∈ F`, and consecutive letters `u t`
/// have `to(u) = from(t)`. So an accepting `SControl` cycle through `t`
/// projects onto a cycle of `A` through `from(t)`, reachable from an
/// initial state of `A`. Without one, `SControl(A)` is empty, and so is
/// the extended automaton, whose global constraints only remove runs.
fn has_accepting_cycle(ra: &RegisterAutomaton) -> bool {
    let sccs = Sccs::new(
        ra.num_states(),
        ra.initial_states().map(StateId::idx),
        |q, i| {
            let &t = ra.outgoing(StateId(q as u32)).get(i)?;
            Some(ra.transition(t).to.idx())
        },
    );
    ra.accepting_states().any(|q| sccs.on_cycle(q.idx()))
}

/// Whether a lasso search that ran to its end with `candidates` lassos met
/// no live pivot. The engine's first phase yields a lasso for every live
/// pivot while `max_lassos` allows one, so none found means its component
/// pass saw no reachable accepting cycle.
fn no_live_pivot(opts: &EmptinessOptions, candidates: usize) -> bool {
    candidates == 0 && opts.max_lassos > 0
}

/// The closing events of an emptiness check: the cache's statistics, and
/// the verdict with how it was settled — `"scc"` when no accepting cycle
/// exists (an exact `Empty`), `"search"` when a lasso search ran.
fn emit_verdict(cache: &SatCache, verdict: &Result<EmptinessVerdict, CoreError>, by_scc: bool) {
    let stats = cache.stats();
    rega_obs::event!(
        "satcache.stats",
        hits = stats.hits,
        misses = stats.misses,
        distinct = stats.distinct_types
    );
    rega_obs::event!(
        "emptiness.verdict",
        nonempty = matches!(verdict, Ok(ref v) if v.is_nonempty()),
        settled = if by_scc { "scc" } else { "search" }
    );
}

/// The pre-kernel emptiness pipeline, retained verbatim as the pinned
/// reference for the differential suite: materialize the full `SControl`
/// Büchi automaton, enumerate every candidate lasso up front, then try
/// witnesses in enumeration order with from-scratch stabilized class
/// builds. [`check_emptiness_governed`] must return identical verdicts (and
/// the same witness lasso) on every input.
///
/// The reference still memoizes σ-type analyses in `cache` — the pipelines
/// differ in *shape*, not in caching policy — and is governed in all three
/// phases: NBA wiring, lasso search (abort hook), and per-lasso witness
/// construction.
pub fn check_emptiness_reference_governed(
    ext: &ExtendedAutomaton,
    opts: &EmptinessOptions,
    cache: &SatCache,
    budget: &Budget,
) -> Result<EmptinessVerdict, CoreError> {
    let _check = rega_obs::span!("emptiness.check", max_lassos = opts.max_lassos);
    let nba = {
        let _phase = rega_obs::span!("emptiness.nba_build");
        scontrol_nba_governed(ext.ra(), cache, budget)?
    };
    let lassos = {
        let _phase = rega_obs::span!("emptiness.lasso_search");
        // rega-automata cannot see the budget type, so governance enters
        // the search as an abort hook: each DFS expansion ticks, and the
        // first trip stops the enumeration and is re-raised here.
        let mut tripped: Option<GovernError> = None;
        let lassos = nba_emptiness::enumerate_accepting_lassos_abortable(
            &nba,
            opts.max_lassos,
            opts.max_cycle_len,
            LASSO_SEARCH_MAX_STEPS,
            &mut || match budget.tick("emptiness.lasso_search") {
                Ok(()) => false,
                Err(e) => {
                    tripped = Some(e);
                    true
                }
            },
        );
        if let Some(e) = tripped {
            return Err(e.into());
        }
        rega_obs::event!("emptiness.lassos", candidates = lassos.len());
        lassos
    };
    let by_scc = no_live_pivot(opts, lassos.len());
    let verdict = (|| {
        for (i, control) in lassos.iter().enumerate() {
            let _phase = rega_obs::span!("emptiness.witness", lasso = i);
            budget.check("emptiness.witness")?;
            if let Some(w) =
                witness_for_lasso_reference_governed(ext, control, opts, cache, budget)?
            {
                return Ok(EmptinessVerdict::NonEmpty(Box::new(w)));
            }
        }
        Ok(EmptinessVerdict::Empty)
    })();
    emit_verdict(cache, &verdict, by_scc);
    verdict
}

/// Runs the single-lasso pipeline: stabilized structure, consistency,
/// witness construction. Returns `None` if this lasso admits no run.
pub fn witness_for_lasso(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    opts: &EmptinessOptions,
) -> Result<Option<Witness>, CoreError> {
    let cache = SatCache::new(ext.ra().schema().clone());
    witness_for_lasso_governed(ext, control, opts, &cache, &Budget::unlimited())
}

/// [`witness_for_lasso`] with a shared [`SatCache`], under a [`Budget`]:
/// the stabilized class structure builds run governed and each collapse
/// attempt re-checks the deadline/token.
pub fn witness_for_lasso_governed(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    opts: &EmptinessOptions,
    cache: &SatCache,
    budget: &Budget,
) -> Result<Option<Witness>, CoreError> {
    // The structure horizon must comfortably exceed the largest collapse
    // period: prefix + 2·t·period + slack.
    let mut class_opts = opts.class_opts;
    class_opts.initial_periods = class_opts.initial_periods.max(2 * opts.max_collapse + 3);
    let s = ClassStructure::build_stable_governed(ext, control, class_opts, cache, budget)?;
    witness_for_structure(ext, control, opts, budget, s)
}

/// [`witness_for_lasso_governed`] with the *from-scratch* stabilized class
/// builder — the per-lasso pipeline of [`check_emptiness_reference_governed`].
/// The class structures are field-identical (pinned by the equivalence tests
/// in `classes.rs`), so the two witness paths cannot diverge.
pub(crate) fn witness_for_lasso_reference_governed(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    opts: &EmptinessOptions,
    cache: &SatCache,
    budget: &Budget,
) -> Result<Option<Witness>, CoreError> {
    let mut class_opts = opts.class_opts;
    class_opts.initial_periods = class_opts.initial_periods.max(2 * opts.max_collapse + 3);
    let s =
        ClassStructure::build_stable_reference_governed(ext, control, class_opts, cache, budget)?;
    witness_for_structure(ext, control, opts, budget, s)
}

/// The builder-independent tail of the per-lasso pipeline: consistency,
/// then witness construction (with or without a database).
fn witness_for_structure(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    opts: &EmptinessOptions,
    budget: &Budget,
    s: ClassStructure,
) -> Result<Option<Witness>, CoreError> {
    if !s.consistent {
        return Ok(None);
    }
    if ext.ra().schema().is_empty() {
        witness_without_database(ext, control, &s, opts)
    } else {
        for t in 1..=opts.max_collapse {
            budget.check("emptiness.witness")?;
            if let Some(w) = witness_with_collapse(ext, control, &s, t)? {
                return Ok(Some(w));
            }
        }
        Ok(None)
    }
}

/// Value ranges for witness construction (kept apart so collapsed
/// active-domain values, per-class fresh values, and anything user-supplied
/// can never collide).
const ADOM_BASE: u64 = 1 << 20;
const FRESH_BASE: u64 = 1 << 21;

/// The orbit key of a class under collapse period `cp`: classes that are
/// shifts of one another by a multiple of `cp` (entirely within the
/// periodic part) share a key. Prefix-touching and constant-holding classes
/// keep their identity.
fn orbit_key(s: &ClassStructure, cid: usize, cp: usize) -> (Vec<(usize, u16)>, usize) {
    let info = &s.classes[cid];
    if !info.consts.is_empty() || info.members.is_empty() || info.min_pos() < s.prefix_len {
        // Identity key: impossible shape (marker) plus class id as phase.
        return (Vec::new(), cid + (1 << 30));
    }
    let base = info.min_pos();
    let shape: Vec<(usize, u16)> = info.members.iter().map(|&(p, r)| (p - base, r)).collect();
    let phase = (base - s.prefix_len) % cp;
    (shape, phase)
}

/// Assigns values to classes. `collapse_adom`/`collapse_nonadom` control
/// whether the respective classes are collapsed by orbit (period `cp`) or
/// given per-class values.
fn assign_values(
    s: &ClassStructure,
    cp: usize,
    collapse_adom: bool,
    collapse_nonadom: bool,
) -> Vec<Value> {
    let mut adom_orbits: BTreeMap<(Vec<(usize, u16)>, usize), u64> = BTreeMap::new();
    let mut nonadom_orbits: BTreeMap<(Vec<(usize, u16)>, usize), u64> = BTreeMap::new();
    let mut values = Vec::with_capacity(s.classes.len());
    for cid in 0..s.classes.len() {
        let adom = s.classes[cid].adom;
        let v = if adom && collapse_adom {
            let key = orbit_key(s, cid, cp);
            let next = adom_orbits.len() as u64;
            ADOM_BASE + *adom_orbits.entry(key).or_insert(next)
        } else if !adom && collapse_nonadom {
            let key = orbit_key(s, cid, cp);
            let next = nonadom_orbits.len() as u64;
            FRESH_BASE + *nonadom_orbits.entry(key).or_insert(next)
        } else if adom {
            ADOM_BASE + (1 << 15) + cid as u64
        } else {
            FRESH_BASE + (1 << 15) + cid as u64
        };
        values.push(Value(v));
    }
    values
}

/// Checks the `≠_w` pairs under a value assignment.
fn neq_respected(s: &ClassStructure, values: &[Value]) -> bool {
    s.neq.iter().all(|&(a, b)| values[a] != values[b])
}

/// A set of value-level relational facts.
type FactSet = BTreeSet<(rega_data::RelSym, Vec<Value>)>;

/// Collects the positive and negative relational facts (at value level)
/// induced by the trace under the assignment. Returns `None` on a clash.
fn collect_facts(
    ext: &ExtendedAutomaton,
    s: &ClassStructure,
    w: &Lasso<TransId>,
    values: &[Value],
) -> Option<(FactSet, FactSet)> {
    let ra = ext.ra();
    let k = s.k;
    let mut pos = BTreeSet::new();
    let mut neg = BTreeSet::new();
    for n in 0..s.horizon {
        let ty = &ra.transition(*w.at(n)).ty;
        'lits: for lit in ty.literals() {
            if let Literal::Rel {
                rel,
                args,
                positive,
            } = lit
            {
                let mut vals = Vec::with_capacity(args.len());
                for tm in args {
                    let cid = match tm {
                        rega_data::Term::X(i) => s.class_of(n, i.0),
                        rega_data::Term::Y(i) => {
                            if n + 1 < s.horizon {
                                s.class_of(n + 1, i.0)
                            } else {
                                continue 'lits;
                            }
                        }
                        rega_data::Term::Const(c) => s.class_of_const(c.0),
                    };
                    vals.push(values[cid]);
                }
                if *positive {
                    pos.insert((*rel, vals));
                } else {
                    neg.insert((*rel, vals));
                }
            }
        }
    }
    let _ = k;
    if pos.intersection(&neg).next().is_some() {
        return None;
    }
    Some((pos, neg))
}

/// Builds the concrete run prefix over `db` from the value assignment.
fn build_prefix_run(
    ext: &ExtendedAutomaton,
    s: &ClassStructure,
    w: &Lasso<TransId>,
    values: &[Value],
) -> FiniteRun {
    let ra = ext.ra();
    let configs: Vec<Config> = (0..s.horizon)
        .map(|n| {
            let regs: Vec<Value> = (0..s.k).map(|i| values[s.class_of(n, i as u16)]).collect();
            Config::new(ra.transition(*w.at(n)).from, regs)
        })
        .collect();
    let trans: Vec<TransId> = (0..s.horizon - 1).map(|n| *w.at(n)).collect();
    FiniteRun { configs, trans }
}

/// Attempts a full ultimately periodic run: values assigned by orbit
/// collapse for *all* classes, verified end-to-end.
fn try_lasso_run(
    ext: &ExtendedAutomaton,
    s: &ClassStructure,
    w: &Lasso<TransId>,
    db: &Database,
    values: &[Value],
    cp: usize,
) -> Option<LassoRun> {
    let ra = ext.ra();
    let loop_start = s.prefix_len + cp;
    let total = loop_start + cp;
    if total + 1 > s.horizon {
        return None;
    }
    // Value periodicity across the wrap: position `total` must mirror
    // `loop_start`.
    for i in 0..s.k {
        if values[s.class_of(total, i as u16)] != values[s.class_of(loop_start, i as u16)] {
            return None;
        }
    }
    let configs: Vec<Config> = (0..total)
        .map(|n| {
            let regs: Vec<Value> = (0..s.k).map(|i| values[s.class_of(n, i as u16)]).collect();
            Config::new(ra.transition(*w.at(n)).from, regs)
        })
        .collect();
    let trans: Vec<TransId> = (0..total).map(|n| *w.at(n)).collect();
    let run = LassoRun::new(configs, trans, loop_start);
    match ext.check_lasso_run(db, &run) {
        Ok(()) => Some(run),
        Err(_) => None,
    }
}

/// Witness construction for automata without a database: any consistent
/// structure is realizable with pairwise-distinct per-class values.
fn witness_without_database(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    s: &ClassStructure,
    opts: &EmptinessOptions,
) -> Result<Option<Witness>, CoreError> {
    let db = Database::new(ext.ra().schema().clone());
    // Distinct values per class.
    let values = assign_values(s, 1, false, false);
    let prefix_run = build_prefix_run(ext, s, control, &values);
    if prefix_run.validate(ext.ra(), &db).is_err()
        || ext.check_finite_prefix(&db, &prefix_run).is_err()
    {
        return Ok(None);
    }
    // Try a fully periodic run with collapsed values.
    let mut lasso_run = None;
    for t in 1..=opts.max_collapse {
        let cp = t * s.period;
        let collapsed = assign_values(s, cp, true, true);
        if !neq_respected(s, &collapsed) {
            continue;
        }
        if let Some(run) = try_lasso_run(ext, s, control, &db, &collapsed, cp) {
            lasso_run = Some(run);
            break;
        }
    }
    Ok(Some(Witness {
        control: control.clone(),
        database: db,
        prefix_run,
        lasso_run,
    }))
}

/// Witness construction with a database: collapse the active-domain classes
/// with period `t · period`; build the finite database from the positive
/// facts; verify.
fn witness_with_collapse(
    ext: &ExtendedAutomaton,
    control: &Lasso<TransId>,
    s: &ClassStructure,
    t: usize,
) -> Result<Option<Witness>, CoreError> {
    let cp = t * s.period;
    // First try collapsing everything (gives a full periodic run); fall
    // back to collapsing only the adom classes.
    for collapse_nonadom in [true, false] {
        let values = assign_values(s, cp, true, collapse_nonadom);
        if !neq_respected(s, &values) {
            continue;
        }
        let Some((pos_facts, _neg)) = collect_facts(ext, s, control, &values) else {
            continue;
        };
        let mut db = Database::new(ext.ra().schema().clone());
        for (rel, vals) in &pos_facts {
            db.insert(*rel, vals.clone())?;
        }
        for c in ext.ra().schema().constants() {
            db.set_constant(c, values[s.class_of_const(c.0)]);
        }
        let prefix_run = build_prefix_run(ext, s, control, &values);
        if prefix_run.validate(ext.ra(), &db).is_err()
            || ext.check_finite_prefix(&db, &prefix_run).is_err()
        {
            continue;
        }
        let lasso_run = if collapse_nonadom {
            try_lasso_run(ext, s, control, &db, &values, cp)
        } else {
            None
        };
        return Ok(Some(Witness {
            control: control.clone(),
            database: db,
            prefix_run,
            lasso_run,
        }));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;
    use rega_core::ExtendedAutomaton;

    #[test]
    fn example1_nonempty_with_full_lasso() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        match v {
            EmptinessVerdict::NonEmpty(w) => {
                assert!(w.lasso_run.is_some(), "example 1 has periodic runs");
                let run = w.lasso_run.unwrap();
                assert!(ext.check_lasso_run(&w.database, &run).is_ok());
            }
            EmptinessVerdict::Empty => panic!("example 1 is non-empty"),
        }
    }

    #[test]
    fn example5_nonempty() {
        let ext = paper::example5();
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        assert!(v.is_nonempty());
    }

    #[test]
    fn example7_nonempty_without_periodic_run() {
        // All-distinct: non-empty, but no ultimately periodic run exists.
        let ext = paper::example7();
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        match v {
            EmptinessVerdict::NonEmpty(w) => {
                assert!(w.lasso_run.is_none(), "all-distinct admits no periodic run");
                // The prefix run is valid and uses pairwise distinct values.
                let vals: std::collections::HashSet<Value> =
                    w.prefix_run.configs.iter().map(|c| c.regs[0]).collect();
                assert_eq!(vals.len(), w.prefix_run.configs.len());
            }
            EmptinessVerdict::Empty => panic!("example 7 is non-empty"),
        }
    }

    #[test]
    fn example8_nonempty_through_alternation() {
        // p-blocks are bounded by the database, but alternating p/q runs
        // exist over finite databases.
        let ext = paper::example8();
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        match v {
            EmptinessVerdict::NonEmpty(w) => {
                assert!(w.database.total_facts() > 0, "P must be non-empty");
                assert!(w.lasso_run.is_some());
            }
            EmptinessVerdict::Empty => panic!("example 8 is non-empty"),
        }
    }

    #[test]
    fn contradictory_constraints_empty() {
        // Same-position equal and unequal: no run.
        let mut ext = paper::example5();
        ext.add_constraint_str(
            rega_core::ConstraintKind::NotEqual,
            rega_data::RegIdx(0),
            rega_data::RegIdx(0),
            "p1 p2* p1",
        )
        .unwrap();
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        assert!(!v.is_nonempty());
    }

    #[test]
    fn no_accepting_cycle_empty() {
        use rega_data::{Schema, SigmaType};
        let mut ra = rega_core::RegisterAutomaton::new(1, Schema::empty());
        let p = ra.add_state("p");
        let q = ra.add_state("q");
        ra.set_initial(p);
        ra.set_accepting(q); // q is a dead end
        ra.add_transition(p, SigmaType::empty(1), q).unwrap();
        let ext = ExtendedAutomaton::new(ra);
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        assert!(!v.is_nonempty());
    }

    #[test]
    fn on_the_fly_matches_reference_on_paper_examples() {
        // The heavyweight 256-case differential suite lives in
        // `tests/emptiness_differential.rs`; this is the in-crate smoke
        // version over the paper's examples, including an empty one.
        let opts = EmptinessOptions::default();
        let mut exts: Vec<ExtendedAutomaton> = Vec::new();
        let (ra, _) = paper::example1();
        exts.push(ExtendedAutomaton::new(ra));
        exts.push(paper::example5());
        exts.push(paper::example7());
        exts.push(paper::example8());
        exts.push(ExtendedAutomaton::new(paper::example23()));
        let mut contradictory = paper::example5();
        contradictory
            .add_constraint_str(
                rega_core::ConstraintKind::NotEqual,
                rega_data::RegIdx(0),
                rega_data::RegIdx(0),
                "p1 p2* p1",
            )
            .unwrap();
        exts.push(contradictory);
        for (i, ext) in exts.iter().enumerate() {
            let fast = check_emptiness(ext, &opts).unwrap();
            let cache = SatCache::new(ext.ra().schema().clone());
            let refr = check_emptiness_reference_governed(ext, &opts, &cache, &Budget::unlimited())
                .unwrap();
            assert_eq!(
                fast.is_nonempty(),
                refr.is_nonempty(),
                "verdict mismatch on workload {i}"
            );
            if let (EmptinessVerdict::NonEmpty(wf), EmptinessVerdict::NonEmpty(wr)) = (&fast, &refr)
            {
                assert_eq!(wf.control, wr.control, "witness lasso mismatch on {i}");
            }
        }
    }

    #[test]
    fn example23_nonempty_with_database() {
        let ra = paper::example23();
        let ext = ExtendedAutomaton::new(ra);
        let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
        match v {
            EmptinessVerdict::NonEmpty(w) => {
                // The witness database must contain E and U facts.
                let e = w.database.schema().relation("E").unwrap();
                let u = w.database.schema().relation("U").unwrap();
                assert!(w.database.num_facts(e) > 0);
                assert!(w.database.num_facts(u) > 0);
            }
            EmptinessVerdict::Empty => panic!("example 23 is non-empty"),
        }
    }
}
