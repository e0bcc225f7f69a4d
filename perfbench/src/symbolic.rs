//! The two symbolic workloads: `symbolic-decide` (Cor. 10 emptiness and
//! Thm. 12 LTL-FO verification) and `symbolic-project` (Prop. 20, Thm. 13
//! and Thm. 24 projections), their correctness gate and the per-phase
//! replays of the traced run.

use crate::stats::{self, median, quantile, secs, Metrics};
use crate::tracing::Tracer;
use crate::{Outcome, RunCfg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_analysis::classes::ClassStructure;
use rega_analysis::emptiness::{
    check_emptiness_governed, check_emptiness_reference_governed, witness_for_lasso_governed,
    EmptinessOptions, EmptinessVerdict, Witness,
};
use rega_analysis::verify::{verify, VerifyOptions, VerifyResult};
use rega_automata::emptiness::enumerate_accepting_lassos_budgeted;
use rega_core::generate::{random_automaton, random_extended, GenParams};
use rega_core::monitor::ConstraintMonitor;
use rega_core::run::{Config, FiniteRun, LassoRun};
use rega_core::symbolic::scontrol_nba_governed;
use rega_core::transform::{complete_for_atoms_reference_governed, complete_governed};
use rega_core::typeops::{TypeOps, TypePath};
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId, TransId};
use rega_data::{Database, Literal, Qf, QfTerm, SatCache, SigmaType, Term};
use rega_logic::translate::ltl_to_automaton;
use rega_logic::LtlFo;
use rega_obs::span;
use rega_views::thm24::Thm24Options;
use rega_views::{
    project_extended_governed, project_extended_reference_governed,
    project_hiding_database_governed, project_hiding_database_reference_governed,
    project_register_automaton_governed, project_register_automaton_reference_governed,
};
use serde_json::json;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Length of the query-loop segments between calibrations, seconds.
const CALIBRATION_SEGMENT_SECS: f64 = 0.15;
/// Corpus parses per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// The lasso-search step budget `check_emptiness` uses internally.
const LASSO_SEARCH_MAX_STEPS: usize = 500_000;

/// What a decide query asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecideKind {
    /// `check_emptiness` of the automaton.
    Emptiness,
    /// `verify` of `G stable` (`stable ≡ x_r = y_r`) on an automaton whose
    /// transitions all change register `r` (`x_r ≠ y_r` added to every
    /// type): it fails on every run, so the answer is a counterexample.
    Thawed(u16),
    /// `G stable` on an automaton whose transitions all keep register `r`
    /// (`x_r = y_r` added to every type): it holds, and the verdict needs
    /// the product's search to run to its end.
    Frozen(u16),
}

/// A generated decide query, as text: the automaton in spec syntax plus
/// what is asked of it.
struct DecideText {
    spec: String,
    kind: DecideKind,
}

/// A parsed decide query.
struct Decide {
    ext: ExtendedAutomaton,
    kind: DecideKind,
    phi: Option<LtlFo>,
}

/// A decide verdict, reduced to what the gate compares.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Verdict {
    /// Empty or Holds: the search found nothing and ran to its end.
    Exhaustive,
    /// NonEmpty or CounterExample, with the witness's control lasso.
    Witnessed(String),
}

fn gen_params(rng: &mut StdRng, max_degree: usize) -> GenParams {
    GenParams {
        states: rng.gen_range(4..21),
        k: 2,
        out_degree: rng.gen_range(2..max_degree + 1),
        literals_per_type: 2,
        unary_relations: 1,
        relational_probability: 0.3,
    }
}

/// Share of each decide kind in the corpus, in 1/16ths. Random emptiness
/// queries are almost always non-empty; the frozen `G stable` queries alone
/// make over a quarter of the verdicts exhaustive. `G stable` is asked only
/// where its verdict is fixed by construction: on unmodified random
/// automata about 1 query in 200 runs its product search into the budgets
/// (a "holds" a real counterexample contradicts, ROADMAP item 4) at 100x
/// the usual cost, which swung a corpus's total cost by half between seeds.
const DECIDE_MIX: [(DecideKind, usize); 3] = [
    (DecideKind::Emptiness, 8),
    (DecideKind::Thawed(0), 3),
    (DecideKind::Frozen(0), 5),
];
const DECIDE_QUERIES: usize = 960;
const TINY_DECIDE_QUERIES: usize = 16;

fn gen_decide(seed: u64, n: usize) -> Vec<DecideText> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec1de);
    let total: usize = DECIDE_MIX.iter().map(|(_, w)| w).sum();
    (0..n)
        .map(|i| {
            let slot = i % total;
            let mut acc = 0;
            let mut kind = DecideKind::Emptiness;
            for (k, w) in DECIDE_MIX {
                acc += w;
                if slot < acc {
                    kind = k;
                    break;
                }
            }
            // The verification product grows steeply with out-degree (and
            // its reference check more so); `G stable` queries keep to
            // degree 2 so none dominates a pass.
            let max_degree = if kind == DecideKind::Emptiness { 4 } else { 2 };
            let params = gen_params(&mut rng, max_degree);
            let constraints = rng.gen_range(0..4);
            let ext = random_extended(&params, constraints, rng.gen_range(0..u64::MAX / 2));
            let r = rng.gen_range(0..params.k);
            let ext = match kind {
                DecideKind::Emptiness => ext,
                DecideKind::Thawed(_) => {
                    kind = DecideKind::Thawed(r);
                    on_every_step(&ext, Literal::neq(Term::x(r), Term::y(r)))
                }
                DecideKind::Frozen(_) => {
                    kind = DecideKind::Frozen(r);
                    on_every_step(&ext, Literal::eq(Term::x(r), Term::y(r)))
                }
            };
            DecideText {
                spec: rega_core::spec::to_spec(&ext).expect("generated automata render"),
                kind,
            }
        })
        .collect()
}

fn parse_decide(texts: &[DecideText]) -> Result<Vec<Decide>, String> {
    texts
        .iter()
        .map(|t| {
            let ext = rega_core::spec::parse_spec(&t.spec).map_err(|e| e.to_string())?;
            let phi = match t.kind {
                DecideKind::Emptiness => None,
                DecideKind::Thawed(r) | DecideKind::Frozen(r) => Some(
                    LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(r), QfTerm::y(r)))])
                        .map_err(|e| e.to_string())?,
                ),
            };
            Ok(Decide {
                ext,
                kind: t.kind,
                phi,
            })
        })
        .collect()
}

fn lasso_key(w: &Witness) -> String {
    format!("{:?}", w.control)
}

/// Answers one decide query on the production path (fresh cache, as the
/// CLI does); returns the verdict and the witness for replay checks.
fn decide(q: &Decide) -> Result<(Verdict, Option<Box<Witness>>), CoreError> {
    let opts = EmptinessOptions::default();
    match &q.phi {
        None => {
            let cache = SatCache::new(q.ext.ra().schema().clone());
            match check_emptiness_governed(&q.ext, &opts, &cache, &Budget::unlimited())? {
                EmptinessVerdict::Empty => Ok((Verdict::Exhaustive, None)),
                EmptinessVerdict::NonEmpty(w) => Ok((Verdict::Witnessed(lasso_key(&w)), Some(w))),
            }
        }
        Some(phi) => match verify(&q.ext, phi, &VerifyOptions::default())? {
            VerifyResult::Holds => Ok((Verdict::Exhaustive, None)),
            VerifyResult::CounterExample(w) => Ok((Verdict::Witnessed(String::new()), Some(w))),
        },
    }
}

/// The reference verdict of a decide query: `check_emptiness` on its
/// `check_emptiness_reference_governed` twin, and `verify` (which has no
/// twin) through [`verify_reference`].
fn reference_decide(q: &Decide) -> Result<Verdict, String> {
    let opts = EmptinessOptions::default();
    let Some(phi) = &q.phi else {
        let cache = SatCache::new(q.ext.ra().schema().clone());
        let v = check_emptiness_reference_governed(&q.ext, &opts, &cache, &Budget::unlimited())
            .map_err(|e| e.to_string())?;
        return Ok(match v {
            EmptinessVerdict::Empty => Verdict::Exhaustive,
            EmptinessVerdict::NonEmpty(w) => Verdict::Witnessed(lasso_key(&w)),
        });
    };
    Ok(match verify_reference(&q.ext, phi)? {
        EmptinessVerdict::Empty => Verdict::Exhaustive,
        EmptinessVerdict::NonEmpty(_) => Verdict::Witnessed(String::new()),
    })
}

/// Theorem 12's pipeline as `verify` runs it — refine the types for the
/// formula's atoms, translate the negated formula, build the product with
/// the lifted constraints — on the reference paths of the refinement and
/// of the final emptiness check. Rebuilt from the public pieces because
/// `verify` has no `*_reference_governed` twin; properties here have no
/// global variables.
fn verify_reference(ext: &ExtendedAutomaton, phi: &LtlFo) -> Result<EmptinessVerdict, String> {
    let err = |e: CoreError| e.to_string();
    if phi.num_globals() != 0 {
        return Err("properties with global variables are not generated".into());
    }
    let mut atoms = Vec::new();
    for q in &phi.props {
        atoms.extend(q.atoms().ok_or("a proposition mentions a global")?);
    }
    atoms.sort();
    atoms.dedup();
    let cache = SatCache::new(ext.ra().schema().clone());
    let budget = Budget::unlimited();
    let refined =
        complete_for_atoms_reference_governed(ext.ra(), &atoms, &cache, &budget).map_err(err)?;
    let neg = phi.negated();
    let auto = ltl_to_automaton(&neg.formula);
    let schema = refined.schema().clone();
    let mut truth: Vec<Vec<bool>> = Vec::with_capacity(refined.num_transitions());
    for t in refined.transition_ids() {
        let ty = &refined.transition(t).ty;
        let row = neg
            .props
            .iter()
            .map(|q| q.eval_under_type(ty, &schema))
            .collect::<Result<Vec<bool>, _>>()
            .map_err(|e| e.to_string())?;
        truth.push(row);
    }
    let guard_ok = |atom: usize, t: TransId| {
        let g = &auto.guards[atom];
        g.pos.iter().all(|&p| truth[t.idx()][p as usize])
            && g.neg.iter().all(|&p| !truth[t.idx()][p as usize])
    };
    // Product states (q, tableau state, acceptance counter) over 1 + m
    // acceptance sets, numbered in discovery order.
    let n_sets = 1 + auto.acc.len();
    let in_set = |q: StateId, a: usize, set: usize| {
        if set == 0 {
            refined.is_accepting(q)
        } else {
            auto.acc[set - 1][a]
        }
    };
    type Key = (StateId, usize, usize);
    fn intern(
        refined: &RegisterAutomaton,
        product: &mut RegisterAutomaton,
        index: &mut HashMap<Key, StateId>,
        states: &mut Vec<Key>,
        key: Key,
    ) -> StateId {
        *index.entry(key).or_insert_with(|| {
            let (q, a, c) = key;
            states.push(key);
            product.add_state(&format!("{}|a{a}|c{c}", refined.state_name(q)))
        })
    }
    let mut product = RegisterAutomaton::new(refined.k(), schema.clone());
    let mut index: HashMap<Key, StateId> = HashMap::new();
    let mut states: Vec<Key> = Vec::new();
    for q in refined.states().filter(|&q| refined.is_initial(q)) {
        for &a0 in &auto.inits {
            let id = intern(&refined, &mut product, &mut index, &mut states, (q, a0, 0));
            product.set_initial(id);
        }
    }
    let mut done = 0;
    while done < states.len() {
        let (q, a, c) = states[done];
        let sid = index[&(q, a, c)];
        done += 1;
        if c == 0 && in_set(q, a, 0) {
            product.set_accepting(sid);
        }
        let c2 = if in_set(q, a, c) { (c + 1) % n_sets } else { c };
        for &t in refined.outgoing(q) {
            if !guard_ok(a, t) {
                continue;
            }
            let tr = refined.transition(t);
            for &a2 in &auto.succ[a] {
                let key = (tr.to, a2, c2);
                let tid = intern(&refined, &mut product, &mut index, &mut states, key);
                product
                    .add_transition(sid, tr.ty.clone(), tid)
                    .map_err(err)?;
            }
        }
    }
    let state_of: Vec<StateId> = states.iter().map(|&(q, _, _)| q).collect();
    let mut product_ext = ExtendedAutomaton::new(product);
    for con in ext.constraints() {
        product_ext
            .add_lifted_constraint(con, |s| state_of[s.idx()])
            .map_err(err)?;
    }
    let cache = SatCache::new(schema);
    check_emptiness_reference_governed(&product_ext, &EmptinessOptions::default(), &cache, &budget)
        .map_err(err)
}

/// `ext` with `lit` added to every transition type; transitions whose type
/// becomes unsatisfiable are dropped.
fn on_every_step(ext: &ExtendedAutomaton, lit: Literal) -> ExtendedAutomaton {
    let ra = ext.ra();
    let mut out = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    for s in ra.states() {
        let id = out.add_state(ra.state_name(s));
        if ra.is_initial(s) {
            out.set_initial(id);
        }
        if ra.is_accepting(s) {
            out.set_accepting(id);
        }
    }
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        let ty = tr.ty.with(lit.clone());
        if ty.is_satisfiable(ra.schema()) {
            out.add_transition(tr.from, ty, tr.to)
                .expect("a satisfiable type between existing states");
        }
    }
    let mut frozen = ExtendedAutomaton::new(out);
    for c in ext.constraints() {
        let regex = c
            .regex
            .clone()
            .expect("generated constraints carry their regex");
        frozen
            .add_constraint(c.kind, c.i, c.j, regex)
            .expect("the state set is unchanged");
    }
    frozen
}

/// Whether a `G stable` verdict of "holds" is contradicted by a run that
/// changes register `r`: such a verdict was cut off by the search budgets
/// (the known incompleteness of budget-bounded emptiness). Counted as a
/// workload property, not a gate: fast and reference paths agree on it.
fn budget_cut_holds(q: &Decide, r: u16) -> Result<bool, String> {
    let two = violations_of_stable(&q.ext, r)?;
    let cache = SatCache::new(two.ra().schema().clone());
    let v = check_emptiness_reference_governed(
        &two,
        &EmptinessOptions::default(),
        &cache,
        &Budget::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    Ok(match v {
        EmptinessVerdict::Empty => false,
        EmptinessVerdict::NonEmpty(w) => match &w.lasso_run {
            Some(run) => two.check_lasso_run(&w.database, run).is_ok(),
            None => two.check_finite_prefix(&w.database, &w.prefix_run).is_ok(),
        },
    })
}

/// Two copies of `ext`: copy 0 before and copy 1 after a step that changes
/// register `r`. Only copy 1 accepts, so the automaton's runs are exactly
/// the runs of `ext` that violate `G (x_r = y_r)`.
fn violations_of_stable(ext: &ExtendedAutomaton, r: u16) -> Result<ExtendedAutomaton, String> {
    let ra = ext.ra();
    let n = ra.num_states();
    let mut out = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    for copy in 0..2 {
        for s in ra.states() {
            let id = out.add_state(&format!("{}#{copy}", ra.state_name(s)));
            if copy == 0 && ra.is_initial(s) {
                out.set_initial(id);
            }
            if copy == 1 && ra.is_accepting(s) {
                out.set_accepting(id);
            }
        }
    }
    let at = |copy: usize, s: StateId| StateId((copy * n + s.idx()) as u32);
    let change = Literal::neq(Term::x(r), Term::y(r));
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        for copy in 0..2 {
            out.add_transition(at(copy, tr.from), tr.ty.clone(), at(copy, tr.to))
                .map_err(|e| e.to_string())?;
        }
        let changed: SigmaType = tr.ty.with(change.clone());
        if changed.is_satisfiable(ra.schema()) {
            out.add_transition(at(0, tr.from), changed, at(1, tr.to))
                .map_err(|e| e.to_string())?;
        }
    }
    let mut lifted = ExtendedAutomaton::new(out);
    for c in ext.constraints() {
        lifted
            .add_lifted_constraint(c, |s| StateId((s.idx() % n) as u32))
            .map_err(|e| e.to_string())?;
    }
    Ok(lifted)
}

/// Replays a witness through `check_lasso_run` (or, when it carries only a
/// finite prefix, `check_finite_prefix`) on the queried automaton. A
/// counterexample lives in the verification product, whose states the
/// caller cannot see, so its register trace is first re-labelled with a
/// state trace of the queried automaton that realizes it.
fn replay_witness(q: &Decide, w: &Witness) -> Result<(), String> {
    let ext = &q.ext;
    let k = ext.ra().k() as usize;
    let (configs, loop_start) = match &w.lasso_run {
        Some(run) => (&run.configs, Some(run.loop_start)),
        None => (&w.prefix_run.configs, None),
    };
    let regs: Vec<&[rega_data::Value]> = configs.iter().map(|c| &c.regs[..k]).collect();
    let checked = if q.phi.is_none() {
        match &w.lasso_run {
            Some(run) => ext.check_lasso_run(&w.database, run),
            None => ext.check_finite_prefix(&w.database, &w.prefix_run),
        }
    } else {
        let (states, trans) = relabel(ext, &w.database, &regs, loop_start)
            .ok_or("no state trace of the automaton realizes the counterexample")?;
        let configs: Vec<Config> = states
            .iter()
            .zip(&regs)
            .map(|(&state, r)| Config::new(state, r.to_vec()))
            .collect();
        match loop_start {
            Some(ls) => ext.check_lasso_run(&w.database, &LassoRun::new(configs, trans, ls)),
            None => ext.check_finite_prefix(&w.database, &FiniteRun { configs, trans }),
        }
    };
    checked.map_err(|e| e.to_string())?;
    if let DecideKind::Thawed(r) | DecideKind::Frozen(r) = q.kind {
        let n = regs.len();
        let changes = (0..n).any(|i| {
            let next = match (i + 1 < n, loop_start) {
                (true, _) => i + 1,
                (false, Some(ls)) => ls,
                (false, None) => return false,
            };
            regs[i][r as usize] != regs[next][r as usize]
        });
        if !changes {
            return Err(format!("counterexample never changes register {r}"));
        }
    }
    Ok(())
}

/// States and transitions of `ext` that realize the register trace `regs`
/// over `db`, found by depth-first search: from an initial state, each
/// step by a transition whose type the step satisfies, with the global
/// constraints monitored along the way. A lasso (`loop_start` given) must
/// also close its loop, visit an accepting state inside it, and pass
/// `check_lasso_run`.
fn relabel(
    ext: &ExtendedAutomaton,
    db: &Database,
    regs: &[&[rega_data::Value]],
    loop_start: Option<usize>,
) -> Option<(Vec<StateId>, Vec<TransId>)> {
    /// Position, state, state at the loop start, accepting state seen in
    /// the loop, constraint-monitor fingerprint.
    type Node = (usize, StateId, Option<StateId>, bool, Vec<u8>);
    struct Search<'a> {
        ext: &'a ExtendedAutomaton,
        db: &'a Database,
        regs: &'a [&'a [rega_data::Value]],
        loop_start: Option<usize>,
        failed: HashSet<Node>,
        trans: Vec<TransId>,
        states: Vec<StateId>,
    }
    impl Search<'_> {
        fn go(
            &mut self,
            i: usize,
            q: StateId,
            ls: Option<StateId>,
            acc: bool,
            mut monitor: ConstraintMonitor,
        ) -> bool {
            let ra = self.ext.ra();
            let n = self.regs.len();
            if monitor.step(self.ext, q, self.regs[i]).is_some() {
                return false;
            }
            let in_loop = self.loop_start.is_some_and(|l| i >= l);
            let ls = if Some(i) == self.loop_start {
                Some(q)
            } else {
                ls
            };
            let acc = acc || (in_loop && ra.is_accepting(q));
            let next = match (i + 1 < n, self.loop_start) {
                (true, _) => i + 1,
                (false, Some(l)) => l,
                (false, None) => {
                    self.states.push(q);
                    return true;
                }
            };
            let key = (i, q, ls, acc, monitor.fingerprint());
            if self.failed.contains(&key) {
                return false;
            }
            for &t in ra.outgoing(q) {
                let tr = ra.transition(t);
                if !tr.ty.satisfied_by(self.db, self.regs[i], self.regs[next]) {
                    continue;
                }
                self.trans.push(t);
                self.states.push(q);
                let ok = if i + 1 == n {
                    acc && Some(tr.to) == ls && self.closes()
                } else {
                    self.go(i + 1, tr.to, ls, acc, monitor.clone())
                };
                if ok {
                    return true;
                }
                self.trans.pop();
                self.states.pop();
            }
            self.failed.insert(key);
            false
        }

        /// Whether the lasso found so far satisfies the constraints over
        /// its infinite unfolding.
        fn closes(&self) -> bool {
            let configs = self
                .states
                .iter()
                .zip(self.regs)
                .map(|(&s, r)| Config::new(s, r.to_vec()))
                .collect();
            let run = LassoRun::new(configs, self.trans.clone(), self.loop_start.unwrap_or(0));
            self.ext.check_lasso_run(self.db, &run).is_ok()
        }
    }
    let mut search = Search {
        ext,
        db,
        regs,
        loop_start,
        failed: HashSet::new(),
        trans: Vec::new(),
        states: Vec::new(),
    };
    let inits: Vec<StateId> = ext.ra().initial_states().collect();
    for q in inits {
        if search.go(0, q, None, false, ConstraintMonitor::new(ext)) {
            return Some((search.states, search.trans));
        }
    }
    None
}

/// The global `typebits.proj_*` path counters.
fn typebits_counters() -> (u64, u64) {
    let g = rega_obs::global();
    (
        g.counter("typebits.proj_fast").get(),
        g.counter("typebits.proj_fallback").get(),
    )
}

/// Per-pass figures of the query loop.
struct Pass {
    queries: usize,
    /// Pass time and per-query latencies, at the reference machine speed.
    secs: f64,
    latencies_us: Vec<f64>,
    traced: bool,
    /// Machine speed around the pass (1 = reference).
    speed: f64,
}

/// Runs passes over the corpus until `seconds` have elapsed (at least one
/// untraced pass, and in a traced run at least one traced pass; traced and
/// untraced passes alternate). `answer` runs query `i` and returns whether
/// it failed.
fn query_loop(
    cfg: &RunCfg,
    n: usize,
    mut tracer: Option<&mut Tracer>,
    mut answer: impl FnMut(usize) -> bool,
) -> (Vec<Pass>, u64) {
    let mut passes = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    loop {
        let traced = cfg.trace && passes.len() % 2 == 1;
        // Calibrated every CALIBRATION_SEGMENT_SECS, so a phase change in
        // the middle of a long pass is caught.
        let mut one_pass = || {
            let mut lat = Vec::with_capacity(n);
            let mut fails = 0;
            let mut total = 0.0;
            let mut speeds = Vec::new();
            let mut cal = stats::Calibration::measure();
            let mut i = 0;
            while i < n {
                let first = lat.len();
                let t0 = Instant::now();
                while i < n && secs(t0) < CALIBRATION_SEGMENT_SECS {
                    let q0 = Instant::now();
                    if answer(i) {
                        fails += 1;
                    }
                    lat.push(secs(q0) * 1e6);
                    i += 1;
                }
                let elapsed = secs(t0);
                let next = stats::Calibration::measure();
                let seg = stats::Calibration::around(cal, next);
                total += seg.time(elapsed);
                for us in &mut lat[first..] {
                    *us = seg.time(*us);
                }
                speeds.push(seg.speed());
                cal = next;
            }
            (total, lat, fails, median(&speeds))
        };
        let (secs_ref, latencies_us, fails, speed) = match (traced, tracer.as_deref_mut()) {
            (true, Some(t)) => t.segment(one_pass),
            _ => one_pass(),
        };
        failed += fails;
        passes.push(Pass {
            queries: n,
            secs: secs_ref,
            latencies_us,
            traced,
            speed,
        });
        let enough = passes.len() >= if cfg.trace { 2 } else { 1 };
        if enough && secs(started) >= cfg.seconds && (!cfg.trace || passes.len() % 2 == 0) {
            break;
        }
    }
    (passes, failed)
}

fn summarize_passes(passes: &[Pass], tail_q: f64, setup_s: f64, out: &mut Outcome) {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let thr: Vec<f64> = untraced.iter().map(|p| p.queries as f64 / p.secs).collect();
    let lat: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latencies_us.clone())
        .collect();
    out.e2e.set("throughput_per_s", median(&thr), "1/s");
    out.e2e.set("latency_p50_us", quantile(&lat, 0.5), "us");
    out.e2e.set("latency_tail_us", quantile(&lat, tail_q), "us");
    out.e2e.set("setup_s", setup_s, "s");
    out.e2e.set("peak_rss_mb", stats::own_peak_rss_mb(), "MiB");
    out.attempted += passes.iter().map(|p| p.queries as u64).sum::<u64>();
    let speeds: Vec<f64> = passes.iter().map(|p| p.speed).collect();
    eprintln!(
        "perfbench: {} untraced passes, {} latency samples (tail = p{:.0}, {:.0} beyond), \
         machine speed {:.2} (range {:.2}-{:.2})",
        untraced.len(),
        lat.len(),
        tail_q * 100.0,
        lat.len() as f64 * (1.0 - tail_q),
        median(&speeds),
        speeds.iter().cloned().fold(f64::INFINITY, f64::min),
        speeds.iter().cloned().fold(0.0, f64::max),
    );
    if passes.iter().any(|p| p.traced) {
        let traced: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.queries as f64 / p.secs)
            .collect();
        out.layers.set(
            "trace.overhead_pct",
            (median(&thr) / median(&traced) - 1.0) * 100.0,
            "%",
        );
    }
}

/// Median time of `reps` calls of `f`, each calibrated on its own, in
/// seconds at the reference machine speed.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut cal = stats::Calibration::measure();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        let elapsed = secs(t0);
        let next = stats::Calibration::measure();
        times.push(stats::Calibration::around(cal, next).time(elapsed));
        cal = next;
    }
    (median(&times), last.expect("at least one repetition"))
}

// ---------------------------------------------------------- symbolic-decide

/// The `symbolic-decide` workload.
pub fn symbolic_decide(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let n = if cfg.tiny {
        TINY_DECIDE_QUERIES
    } else {
        DECIDE_QUERIES
    };
    let texts = gen_decide(cfg.seed, n);
    let fp = decide_fingerprint(&texts);
    let mut out = Outcome::default();
    if fp != decide_fingerprint(&gen_decide(cfg.seed, n)) {
        out.mismatches
            .push("the same seed generated a different corpus".into());
    }
    let (setup_s, corpus) = median_time(SETUP_REPS, || parse_decide(&texts));
    let corpus = corpus?;

    // The timed loop first, so `peak_rss_mb` is not the reference paths'
    // peak; every pass must give the first pass's answers.
    let mut answers: Vec<Option<Verdict>> = vec![None; n];
    let mut unstable = 0usize;
    let (passes, failed) = query_loop(cfg, n, tracer, |i| match decide(&corpus[i]) {
        Ok((v, _)) => {
            if *answers[i].get_or_insert_with(|| v.clone()) != v {
                unstable += 1;
            }
            false
        }
        Err(_) => true,
    });
    out.failed = failed;
    summarize_passes(&passes, 0.99, setup_s, &mut out);
    if unstable > 0 {
        out.mismatches
            .push(format!("{unstable} timed answers differ between passes"));
    }
    if cfg.corrupt {
        answers[0] = Some(match answers[0].take() {
            Some(Verdict::Exhaustive) => Verdict::Witnessed("corrupted".into()),
            _ => Verdict::Exhaustive,
        });
    }

    // The gate, outside the timed loop: every timed answer against its
    // reference, and every witness replayed.
    let mut exhaustive = 0usize;
    let mut replayed = 0usize;
    let mut contradicted = 0usize;
    for (i, q) in corpus.iter().enumerate() {
        let (got, witness) = decide(q).map_err(|e| format!("query {i}: {e}"))?;
        let timed = answers[i].clone().unwrap_or(got.clone());
        let want = reference_decide(q).map_err(|e| format!("query {i} reference: {e}"))?;
        if timed != want || got != want {
            out.mismatches.push(format!(
                "decide query {i} ({:?}): verdict {timed:?}, reference {want:?}",
                q.kind
            ));
        }
        if let Some(w) = witness {
            match replay_witness(q, &w) {
                Ok(()) => replayed += 1,
                Err(e) => out
                    .mismatches
                    .push(format!("decide query {i}: witness does not replay: {e}")),
            }
        }
        if got == Verdict::Exhaustive {
            exhaustive += 1;
            if let DecideKind::Thawed(r) | DecideKind::Frozen(r) = q.kind {
                if budget_cut_holds(q, r)? {
                    contradicted += 1;
                }
            }
        }
    }
    let share = exhaustive as f64 / n as f64;
    if !cfg.tiny && share < 0.25 {
        out.mismatches.push(format!(
            "only {share:.2} of the verdicts are exhaustive; the corpus needs at least 0.25"
        ));
    }
    out.props = json!({
        "queries": n,
        "emptiness": corpus.iter().filter(|q| q.kind == DecideKind::Emptiness).count(),
        "verify_thawed": corpus.iter().filter(|q| matches!(q.kind, DecideKind::Thawed(_))).count(),
        "verify_frozen": corpus.iter().filter(|q| matches!(q.kind, DecideKind::Frozen(_))).count(),
        "states_mean": corpus.iter().map(|q| q.ext.ra().num_states()).sum::<usize>() as f64 / n as f64,
        "exhaustive_share": share,
        "witnesses_replayed": replayed,
        "holds_contradicted": contradicted,
        "fingerprint": format!("{fp:016x}"),
    });
    if cfg.trace {
        let phases = stats::calibrated(|m| {
            decide_phases(&corpus, m);
            Ok(())
        })?;
        out.layers.fill_from(&phases);
        out.layers.set("decide.exhaustive_share", share, "ratio");
    }
    Ok(out)
}

fn decide_fingerprint(texts: &[DecideText]) -> u64 {
    let parts: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| format!("{}|{:?}", t.spec, t.kind).into_bytes())
        .collect();
    stats::fingerprint(parts.iter().map(Vec::as_slice))
}

/// Each decision phase's public entry point, run alone over the corpus:
/// `scontrol_nba_governed`, the lasso enumeration, stabilized class
/// builds, witness construction, and `verify`.
fn decide_phases(corpus: &[Decide], m: &mut Metrics) {
    let opts = EmptinessOptions::default();
    let budget = Budget::unlimited();
    let mut class_opts = opts.class_opts;
    class_opts.initial_periods = class_opts.initial_periods.max(2 * opts.max_collapse + 3);
    let (mut scontrol, mut search, mut classes, mut witness, mut verify_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut hits, mut misses) = (0u64, 0u64);
    let fast0 = typebits_counters();
    for q in corpus {
        let Some(phi) = &q.phi else {
            let cache = SatCache::new(q.ext.ra().schema().clone());
            let t0 = Instant::now();
            let nba = {
                let _s = span!("bench.phase.scontrol");
                scontrol_nba_governed(q.ext.ra(), &cache, &budget)
            };
            scontrol += secs(t0);
            let Ok(nba) = nba else { continue };
            let t0 = Instant::now();
            let lassos = {
                let _s = span!("bench.phase.lasso_search");
                enumerate_accepting_lassos_budgeted(
                    &nba,
                    opts.max_lassos,
                    opts.max_cycle_len,
                    LASSO_SEARCH_MAX_STEPS,
                )
            };
            search += secs(t0);
            for lasso in &lassos {
                let t0 = Instant::now();
                let s = {
                    let _s = span!("bench.phase.classes");
                    ClassStructure::build_stable_governed(
                        &q.ext, lasso, class_opts, &cache, &budget,
                    )
                };
                classes += secs(t0);
                let t0 = Instant::now();
                let w = {
                    let _s = span!("bench.phase.witness");
                    witness_for_lasso_governed(&q.ext, lasso, &opts, &cache, &budget)
                };
                witness += secs(t0);
                if matches!(s, Ok(ref s) if s.consistent) && matches!(w, Ok(Some(_))) {
                    break;
                }
            }
            let st = cache.stats();
            hits += st.hits;
            misses += st.misses;
            continue;
        };
        let t0 = Instant::now();
        {
            let _s = span!("bench.phase.verify");
            let _ = std::hint::black_box(verify(&q.ext, phi, &VerifyOptions::default()));
        }
        verify_s += secs(t0);
    }
    let fast1 = typebits_counters();
    m.set("scontrol.build_ms", scontrol * 1e3, "ms");
    m.set("lasso.search_ms", search * 1e3, "ms");
    m.set("classes.build_ms", classes * 1e3, "ms");
    m.set("witness.ms", witness * 1e3, "ms");
    m.set("verify.ms", verify_s * 1e3, "ms");
    m.set(
        "satcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let (df, dfb) = (fast1.0 - fast0.0, fast1.1 - fast0.1);
    m.set(
        "typebits.fast_ratio",
        df as f64 / (df + dfb).max(1) as f64,
        "ratio",
    );
}

// --------------------------------------------------------- symbolic-project

/// One projection query class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProjKind {
    Prop20,
    Thm13,
    Thm24,
}

/// The corpus composition: `(construction, m, queries)`. Weighted so the
/// completion-bound (m = 0), Lemma 21-bound (m = 1) and Thm 24
/// selector-bound queries each take a visible share of a pass (about 15%,
/// 45% and 40%); an unweighted mix spends most of its time in Thm 24 at
/// m = 1. The counts are large because single queries' costs vary by 2-10x
/// within a class, and a corpus's total cost must not swing between seeds.
const PROJECT_MIX: [(ProjKind, u16, usize); 6] = [
    (ProjKind::Prop20, 0, 240),
    (ProjKind::Prop20, 1, 60),
    (ProjKind::Thm13, 0, 240),
    (ProjKind::Thm13, 1, 36),
    (ProjKind::Thm24, 0, 90),
    (ProjKind::Thm24, 1, 6),
];

struct ProjText {
    kind: ProjKind,
    m: u16,
    spec: String,
}

struct Proj {
    kind: ProjKind,
    m: u16,
    ext: ExtendedAutomaton,
}

fn gen_project(seed: u64, tiny: bool) -> Vec<ProjText> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0_1ec7);
    let mut out = Vec::new();
    for (kind, m, count) in PROJECT_MIX {
        let count = if tiny { 1 } else { count };
        for _ in 0..count {
            // Thm 24 inputs are single 4-cycles (out-degree 1): with the
            // selector count fixed below, that keeps one query near 0.1 s.
            let params = GenParams {
                states: 4,
                k: 2,
                out_degree: if kind == ProjKind::Thm24 { 1 } else { 2 },
                literals_per_type: 2,
                unary_relations: usize::from(kind == ProjKind::Thm24),
                relational_probability: 0.4,
            };
            // Thm 24 inputs are drawn until they carry exactly one positive
            // and one negative relational literal, hence one tuple-inequality
            // selector: the selector count sets the construction's cost by
            // orders of magnitude, and fixing it keeps a corpus's cost from
            // swinging between seeds.
            let ra = loop {
                let ra = random_automaton(&params, rng.gen_range(0..u64::MAX / 2));
                if kind != ProjKind::Thm24 || relational_literals(&ra) == (1, 1) {
                    break ra;
                }
            };
            out.push(ProjText {
                kind,
                m,
                spec: rega_core::spec::to_spec(&ExtendedAutomaton::new(ra))
                    .expect("generated automata render"),
            });
        }
    }
    out
}

/// `(positive, negative)` relational literals over all transition types.
fn relational_literals(ra: &RegisterAutomaton) -> (usize, usize) {
    let mut counts = (0, 0);
    for t in ra.transition_ids() {
        for l in ra.transition(t).ty.literals() {
            if let Literal::Rel { positive, .. } = l {
                if *positive {
                    counts.0 += 1;
                } else {
                    counts.1 += 1;
                }
            }
        }
    }
    counts
}

fn parse_project(texts: &[ProjText]) -> Result<Vec<Proj>, String> {
    texts
        .iter()
        .map(|t| {
            Ok(Proj {
                kind: t.kind,
                m: t.m,
                ext: rega_core::spec::parse_spec(&t.spec).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// A comparable fingerprint of a projection: every transition of the view
/// in order plus the constraint counts the transitions do not pin.
type ProjFingerprint = (Vec<(usize, SigmaType, usize)>, Vec<usize>);

fn ra_fingerprint(ra: &RegisterAutomaton) -> Vec<(usize, SigmaType, usize)> {
    ra.transition_ids()
        .map(|t| {
            let tr = ra.transition(t);
            (tr.from.idx(), tr.ty.clone(), tr.to.idx())
        })
        .collect()
}

/// Runs one projection on the fast path (`reference == false`, the
/// production entry point) or the `*_reference_governed` path, with a fresh
/// cache; returns its fingerprint and the cache's hit/miss counts.
fn project(q: &Proj, reference: bool) -> Result<(ProjFingerprint, (u64, u64)), CoreError> {
    let budget = Budget::unlimited();
    let cache = SatCache::new(q.ext.ra().schema().clone());
    let ra = q.ext.ra();
    let fp = match q.kind {
        ProjKind::Prop20 => {
            let p = if reference {
                project_register_automaton_reference_governed(ra, q.m, &cache, &budget)
            } else {
                project_register_automaton_governed(ra, q.m, &cache, &budget)
            }?;
            (
                ra_fingerprint(p.view.ra()),
                vec![p.view.constraints().len(), p.normalized.num_transitions()],
            )
        }
        ProjKind::Thm13 => {
            let p = if reference {
                project_extended_reference_governed(&q.ext, q.m, &cache, &budget)
            } else {
                project_extended_governed(&q.ext, q.m, &cache, &budget)
            }?;
            (
                ra_fingerprint(p.view.ra()),
                vec![p.view.constraints().len(), p.intermediate_k as usize],
            )
        }
        ProjKind::Thm24 => {
            let opts = Thm24Options::default();
            let p = if reference {
                project_hiding_database_reference_governed(ra, q.m, &opts, &cache, &budget)
            } else {
                project_hiding_database_governed(ra, q.m, &opts, &cache, &budget)
            }?;
            (
                ra_fingerprint(p.view.ext().ra()),
                vec![
                    p.view.ext().constraints().len(),
                    p.view.finiteness_constraints().len(),
                    p.view.tuple_inequalities().len(),
                ],
            )
        }
    };
    let st = cache.stats();
    Ok((fp, (st.hits, st.misses)))
}

/// The `symbolic-project` workload.
pub fn symbolic_project(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let texts = gen_project(cfg.seed, cfg.tiny);
    let fp = project_fingerprint(&texts);
    let mut out = Outcome::default();
    if fp != project_fingerprint(&gen_project(cfg.seed, cfg.tiny)) {
        out.mismatches
            .push("the same seed generated a different corpus".into());
    }
    let (setup_s, corpus) = median_time(SETUP_REPS, || parse_project(&texts));
    let corpus = corpus?;
    let n = corpus.len();

    // The timed loop first, so `peak_rss_mb` is not the reference paths'
    // peak; every pass must give the first pass's answers.
    let mut answers: Vec<Option<ProjFingerprint>> = vec![None; n];
    let mut unstable = 0usize;
    let (mut hits, mut misses) = (0u64, 0u64);
    let fast0 = typebits_counters();
    let (passes, failed) = query_loop(cfg, n, tracer, |i| match project(&corpus[i], false) {
        Ok((got, (h, m))) => {
            if *answers[i].get_or_insert_with(|| got.clone()) != got {
                unstable += 1;
            }
            hits += h;
            misses += m;
            false
        }
        Err(_) => true,
    });
    let fast1 = typebits_counters();
    out.failed = failed;
    summarize_passes(&passes, 0.90, setup_s, &mut out);
    if unstable > 0 {
        out.mismatches
            .push(format!("{unstable} timed answers differ between passes"));
    }
    if cfg.corrupt {
        if let Some(a) = answers[0].as_mut() {
            a.1.push(usize::MAX);
        }
    }

    // The gate: every timed answer against the reference path.
    let mut view_transitions = 0usize;
    for (i, q) in corpus.iter().enumerate() {
        let (want, _) = project(q, true).map_err(|e| format!("query {i} reference: {e}"))?;
        if answers[i].as_ref() != Some(&want) {
            out.mismatches.push(format!(
                "project query {i} ({:?}, m={}): view differs from the reference path",
                q.kind, q.m
            ));
        }
        view_transitions += want.0.len();
    }
    out.props = json!({
        "queries": n,
        "mix": PROJECT_MIX.iter().map(|(k, m, c)| format!("{k:?} m={m}: {}", if cfg.tiny { 1 } else { *c })).collect::<Vec<_>>(),
        "view_transitions_mean": view_transitions as f64 / n as f64,
        "fingerprint": format!("{fp:016x}"),
    });
    if cfg.trace {
        let l = &mut out.layers;
        // Per-construction time per pass, from the untraced passes.
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        for (kind, name) in [
            (ProjKind::Prop20, "prop20.ms"),
            (ProjKind::Thm13, "thm13.ms"),
            (ProjKind::Thm24, "thm24.ms"),
        ] {
            let per_pass: Vec<f64> = untraced
                .iter()
                .map(|p| {
                    corpus
                        .iter()
                        .zip(&p.latencies_us)
                        .filter(|(q, _)| q.kind == kind)
                        .map(|(_, us)| us / 1e3)
                        .sum()
                })
                .collect();
            l.set(name, median(&per_pass), "ms");
        }
        l.set(
            "satcache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        let (df, dfb) = (fast1.0 - fast0.0, fast1.1 - fast0.1);
        l.set(
            "typebits.fast_ratio",
            df as f64 / (df + dfb).max(1) as f64,
            "ratio",
        );
        let phases = stats::calibrated(|m| project_phases(&corpus, m))?;
        l.fill_from(&phases);
    }
    Ok(out)
}

fn project_fingerprint(texts: &[ProjText]) -> u64 {
    let parts: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| format!("{:?}|{}|{}", t.kind, t.m, t.spec).into_bytes())
        .collect();
    stats::fingerprint(parts.iter().map(Vec::as_slice))
}

/// The projection phases' public entry points, alone over the corpus:
/// completion, a `TypeOps` joint-satisfiability sweep over the completed
/// automata, and the Lemma 21 DFAs of every register pair.
fn project_phases(corpus: &[Proj], m: &mut Metrics) -> Result<(), String> {
    let budget = Budget::unlimited();
    let (mut complete_s, mut dfa_s) = (0.0, 0.0);
    let (mut requests, mut computed) = (0u64, 0u64);
    for q in corpus {
        let ra = q.ext.ra();
        let cache = SatCache::new(ra.schema().clone());
        let t0 = Instant::now();
        let completed = {
            let _s = span!("bench.phase.complete");
            complete_governed(ra, &cache, &budget).map_err(|e| e.to_string())?
        };
        complete_s += secs(t0);
        {
            let _s = span!("bench.phase.joint_sat");
            let ops = TypeOps::new(&cache, completed.k(), TypePath::Fast);
            for t in completed.transition_ids() {
                let tr = completed.transition(t);
                let a = ops.intern(&tr.ty);
                for &u in completed.outgoing(tr.to) {
                    let b = ops.intern(&completed.transition(u).ty);
                    std::hint::black_box(ops.jointly_satisfiable_ids(a, b));
                }
            }
            let (r, c) = ops.joint_stats();
            requests += r;
            computed += c;
        }
        if q.kind != ProjKind::Prop20 || q.m == 0 {
            continue;
        }
        // Lemma 21 needs a complete, state-driven automaton: the one Prop 20
        // normalizes to.
        let normalized = project_register_automaton_governed(ra, q.m, &cache, &budget)
            .map_err(|e| e.to_string())?
            .normalized;
        let k = normalized.k();
        let t0 = Instant::now();
        {
            let _s = span!("bench.phase.lemma21");
            for i in 0..k {
                for j in 0..k {
                    let (i, j) = (rega_data::RegIdx(i), rega_data::RegIdx(j));
                    rega_views::lemma21::eq_dfa(&normalized, i, j).map_err(|e| e.to_string())?;
                    rega_views::lemma21::neq_dfa(&normalized, i, j).map_err(|e| e.to_string())?;
                }
            }
        }
        dfa_s += secs(t0);
    }
    m.set("complete.ms", complete_s * 1e3, "ms");
    m.set("lemma21.dfa_ms", dfa_s * 1e3, "ms");
    m.set(
        "typeops.joint_memo_ratio",
        1.0 - computed as f64 / requests.max(1) as f64,
        "ratio",
    );
    Ok(())
}
