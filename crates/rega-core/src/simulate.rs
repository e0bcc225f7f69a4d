//! Run search and simulation over concrete databases.
//!
//! The simulator enumerates or samples valid run prefixes and lasso runs of
//! an extended automaton over a given database. Successor register tuples
//! are derived symbolically from the transition type (forced values from the
//! equalities, free values drawn from a finite candidate pool), then checked
//! exactly. Global constraints are enforced incrementally by the
//! [`ConstraintMonitor`].
//!
//! The candidate pool makes the search finite: completeness is relative to
//! the pool (a pool containing the active domain, the current registers and
//! `k+1` fresh values per step is sufficient for equality/inequality types
//! because types only compare values and query the database).

use crate::automaton::TransId;
use crate::error::CoreError;
use crate::extended::ExtendedAutomaton;
use crate::monitor::ConstraintMonitor;
use crate::run::{Config, FiniteRun, LassoRun};
use rega_data::{Database, SatCache, Term, Value, ValueSupply};
use std::collections::BTreeSet;

/// Budget limits for the search.
#[derive(Clone, Copy, Debug)]
pub struct SearchLimits {
    /// Maximum number of search nodes to expand.
    pub max_nodes: usize,
    /// Maximum number of runs to return from enumeration.
    pub max_runs: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 100_000,
            max_runs: 1_000,
        }
    }
}

/// The candidate value pool used for free (unconstrained) registers:
/// the database's active domain plus `fresh` values beyond everything used.
pub fn default_pool(db: &Database, fresh: usize) -> Vec<Value> {
    let mut pool: Vec<Value> = db.adom().into_iter().collect();
    let mut supply = ValueSupply::avoiding(pool.iter().copied());
    pool.extend(supply.fresh_n(fresh));
    pool
}

/// Computes the successor configurations of `cur` over all outgoing
/// transitions, with free registers drawn from `pool ∪ cur.regs`. The
/// per-transition type analyses are memoized in `cache`; the search loops
/// below call this with one cache per top-level search, so each transition
/// type is analyzed once per search instead of once per expanded node.
pub fn successors(
    ext: &ExtendedAutomaton,
    db: &Database,
    cur: &Config,
    pool: &[Value],
    cache: &SatCache,
) -> Vec<(TransId, Config)> {
    let ra = ext.ra();
    let k = ra.k() as usize;
    let mut full_pool: Vec<Value> = pool.to_vec();
    for &v in &cur.regs {
        if !full_pool.contains(&v) {
            full_pool.push(v);
        }
    }
    let mut out = Vec::new();
    for &t in ra.outgoing(cur.state) {
        let tr = ra.transition(t);
        let Ok(analysis) = cache.analyze(&tr.ty) else {
            continue;
        };
        // Forced value per y-register: from an x-term or constant in the
        // same class. y-classes without such an anchor are free, but
        // y-registers in the same class must share the chosen value.
        let mut forced: Vec<Option<Value>> = vec![None; k];
        let mut free_classes: Vec<Vec<usize>> = Vec::new(); // y registers per class
        let mut class_seen: std::collections::HashMap<usize, usize> = Default::default();
        for (yi, forced_slot) in forced.iter_mut().enumerate() {
            let class = analysis.class_of(Term::y(yi as u16));
            let members = &analysis.classes()[class];
            let anchor = members.iter().find_map(|m| match m {
                Term::X(i) => Some(cur.regs[i.idx()]),
                Term::Const(c) => Some(db.constant(*c)),
                Term::Y(_) => None,
            });
            match anchor {
                Some(v) => *forced_slot = Some(v),
                None => {
                    let slot = *class_seen.entry(class).or_insert_with(|| {
                        free_classes.push(Vec::new());
                        free_classes.len() - 1
                    });
                    free_classes[slot].push(yi);
                }
            }
        }
        // Enumerate pool assignments for the free classes.
        let nfree = free_classes.len();
        let mut choice = vec![0usize; nfree];
        loop {
            let mut regs: Vec<Value> = (0..k)
                .map(|i| forced[i].unwrap_or(Value(u64::MAX)))
                .collect();
            for (slot, members) in free_classes.iter().enumerate() {
                for &yi in members {
                    regs[yi] = full_pool[choice[slot]];
                }
            }
            if tr.ty.satisfied_by(db, &cur.regs, &regs) {
                out.push((t, Config::new(tr.to, regs)));
            }
            // Next assignment.
            let mut i = 0;
            loop {
                if i == nfree {
                    break;
                }
                choice[i] += 1;
                if choice[i] < full_pool.len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
            if i == nfree {
                break;
            }
        }
    }
    // Deduplicate (different transitions may coincide only if same id, so
    // dedupe by (t, config)).
    out.sort_by(|a, b| (a.0, &a.1.state, &a.1.regs).cmp(&(b.0, &b.1.state, &b.1.regs)));
    out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    out
}

/// The initial configurations: every initial state crossed with register
/// tuples over the pool. To keep this finite and useful, all-distinct and
/// all-equal tuples plus every constant tuple from the pool are enumerated
/// (full pool^k enumeration for small k).
pub fn initial_configs(ext: &ExtendedAutomaton, pool: &[Value]) -> Vec<Config> {
    let ra = ext.ra();
    let k = ra.k() as usize;
    let mut out = Vec::new();
    for state in ra.initial_states() {
        if k == 0 {
            out.push(Config::new(state, Vec::new()));
            continue;
        }
        // Full enumeration pool^k (callers control pool size).
        let mut choice = vec![0usize; k];
        loop {
            let regs: Vec<Value> = choice.iter().map(|&c| pool[c]).collect();
            out.push(Config::new(state, regs));
            let mut i = 0;
            loop {
                if i == k {
                    break;
                }
                choice[i] += 1;
                if choice[i] < pool.len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
            if i == k {
                break;
            }
        }
    }
    out
}

/// Enumerates valid run prefixes of exactly `len` configurations (DFS),
/// respecting the global constraints, up to the limits.
pub fn enumerate_prefixes(
    ext: &ExtendedAutomaton,
    db: &Database,
    len: usize,
    pool: &[Value],
    limits: SearchLimits,
) -> Vec<FiniteRun> {
    assert!(len >= 1);
    let cache = SatCache::new(ext.ra().schema().clone());
    let mut results = Vec::new();
    let mut nodes = 0usize;
    for init in initial_configs(ext, pool) {
        let mut monitor = ConstraintMonitor::new(ext);
        if monitor.step(ext, init.state, &init.regs).is_some() {
            continue;
        }
        let run = FiniteRun::start(init);
        dfs(
            ext,
            db,
            pool,
            len,
            limits,
            &mut nodes,
            run,
            monitor,
            &mut results,
            &cache,
        );
        if results.len() >= limits.max_runs || nodes >= limits.max_nodes {
            break;
        }
    }
    results
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    ext: &ExtendedAutomaton,
    db: &Database,
    pool: &[Value],
    len: usize,
    limits: SearchLimits,
    nodes: &mut usize,
    run: FiniteRun,
    monitor: ConstraintMonitor,
    results: &mut Vec<FiniteRun>,
    cache: &SatCache,
) {
    if results.len() >= limits.max_runs || *nodes >= limits.max_nodes {
        return;
    }
    *nodes += 1;
    if run.configs.len() == len {
        results.push(run);
        return;
    }
    let cur = run.configs.last().expect("non-empty run");
    for (t, next) in successors(ext, db, cur, pool, cache) {
        let mut m2 = monitor.clone();
        if m2.step(ext, next.state, &next.regs).is_some() {
            continue;
        }
        let mut r2 = run.clone();
        r2.push(t, next);
        dfs(ext, db, pool, len, limits, nodes, r2, m2, results, cache);
    }
}

/// Searches for a valid *lasso run* (an accepting ultimately periodic run)
/// with at most `max_len` stored positions. Loop closure is attempted
/// whenever a configuration repeats, and each candidate is re-verified
/// exactly with [`ExtendedAutomaton::check_lasso_run`].
pub fn find_lasso_run(
    ext: &ExtendedAutomaton,
    db: &Database,
    max_len: usize,
    pool: &[Value],
    limits: SearchLimits,
) -> Result<Option<LassoRun>, CoreError> {
    let cache = SatCache::new(ext.ra().schema().clone());
    let mut nodes = 0usize;
    for init in initial_configs(ext, pool) {
        let mut stack = vec![FiniteRun::start(init)];
        while let Some(run) = stack.pop() {
            nodes += 1;
            if nodes >= limits.max_nodes {
                return Ok(None);
            }
            let cur = run.configs.last().expect("non-empty");
            for (t, next) in successors(ext, db, cur, pool, &cache) {
                // Loop closure: next equals an earlier configuration.
                for (i, c) in run.configs.iter().enumerate() {
                    if *c == next {
                        let candidate = LassoRun::new(
                            run.configs.clone(),
                            run.trans
                                .iter()
                                .copied()
                                .chain(std::iter::once(t))
                                .collect(),
                            i,
                        );
                        if ext.check_lasso_run(db, &candidate).is_ok() {
                            return Ok(Some(candidate));
                        }
                    }
                }
                if run.configs.len() < max_len {
                    let mut r2 = run.clone();
                    r2.push(t, next);
                    stack.push(r2);
                }
            }
        }
    }
    Ok(None)
}

/// Searches for a lasso run whose *projected* register trace (first `m`
/// registers, `m` = the probe's tuple width) equals the given ultimately
/// periodic word, with hidden registers drawn from `pool`. This is the
/// semantic membership test for projection views: `probe ∈ Π_m(Reg(D, 𝒜))`?
///
/// The search walks `(position, configuration)` nodes with the visible
/// registers pinned to the probe; whenever a configuration recurs at the
/// same loop phase, the candidate lasso is verified exactly with
/// [`ExtendedAutomaton::check_lasso_run`]. Complete relative to `pool` and
/// the unrolling bound `max_len`.
pub fn find_lasso_with_projection(
    ext: &ExtendedAutomaton,
    db: &Database,
    probe: &rega_automata::Lasso<Vec<Value>>,
    pool: &[Value],
    max_len: usize,
    limits: SearchLimits,
) -> Result<Option<LassoRun>, CoreError> {
    let k = ext.ra().k() as usize;
    let m = probe.at(0).len();
    assert!(m <= k, "probe width exceeds register count");
    let phase = |pos: usize| {
        if pos < probe.prefix_len() {
            pos
        } else {
            probe.prefix_len() + (pos - probe.prefix_len()) % probe.period()
        }
    };
    // Initial configurations: visible pinned, hidden from the pool.
    let mut pool_all = pool.to_vec();
    for n in 0..probe.prefix_len() + probe.period() {
        for &v in probe.at(n) {
            if !pool_all.contains(&v) {
                pool_all.push(v);
            }
        }
    }
    let mut stack: Vec<(FiniteRun, usize)> = Vec::new();
    for init in initial_configs(ext, &pool_all) {
        if init.regs[..m] == probe.at(0)[..] {
            stack.push((FiniteRun::start(init), 0));
        }
    }
    let cache = SatCache::new(ext.ra().schema().clone());
    let mut nodes = 0usize;
    while let Some((run, pos)) = stack.pop() {
        nodes += 1;
        if nodes >= limits.max_nodes {
            return Ok(None);
        }
        let cur = run.configs.last().expect("non-empty");
        for (t, next) in successors(ext, db, cur, &pool_all, &cache) {
            if next.regs[..m] != probe.at(pos + 1)[..] {
                continue;
            }
            // Loop closure: same configuration at the same phase.
            if pos + 1 >= probe.prefix_len() {
                for (i, c) in run.configs.iter().enumerate() {
                    if *c == next && phase(i) == phase(pos + 1) {
                        let candidate = LassoRun::new(
                            run.configs.clone(),
                            run.trans
                                .iter()
                                .copied()
                                .chain(std::iter::once(t))
                                .collect(),
                            i,
                        );
                        if ext.check_lasso_run(db, &candidate).is_ok() {
                            return Ok(Some(candidate));
                        }
                    }
                }
            }
            if run.configs.len() < max_len {
                let mut r2 = run.clone();
                r2.push(t, next);
                stack.push((r2, pos + 1));
            }
        }
    }
    Ok(None)
}

/// Like [`projected_prefix_traces`], but enumerates prefixes one step
/// longer and truncates the final position. Constructions that enforce a
/// constraint through the *outgoing* transition of a position (e.g.
/// Proposition 6's inline checks) agree with the at-arrival monitor
/// semantics on every settled position but not on the dangling last one;
/// differential tests compare settled traces.
pub fn projected_settled_traces(
    ext: &ExtendedAutomaton,
    db: &Database,
    len: usize,
    m: usize,
    pool: &[Value],
    limits: SearchLimits,
) -> BTreeSet<Vec<Vec<Value>>> {
    enumerate_prefixes(ext, db, len + 1, pool, limits)
        .into_iter()
        .map(|r| {
            r.projected_register_trace(m)
                .into_iter()
                .take(len)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Collects the set of projected register traces (first `m` registers) of
/// all run prefixes of length `len` — the finite-horizon approximation of
/// `Π_m(Reg(D, 𝒜))` used by the differential experiments (E1, E7, E10).
pub fn projected_prefix_traces(
    ext: &ExtendedAutomaton,
    db: &Database,
    len: usize,
    m: usize,
    pool: &[Value],
    limits: SearchLimits,
) -> BTreeSet<Vec<Vec<Value>>> {
    enumerate_prefixes(ext, db, len, pool, limits)
        .into_iter()
        .map(|r| r.projected_register_trace(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use rega_data::Schema;

    #[test]
    fn successors_respect_forced_equalities() {
        // Example 1's δ2 forces y2 = x2; register 1 free.
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let db = Database::new(Schema::empty());
        let q2 = ext.ra().state_by_name("q2").unwrap();
        let cur = Config::new(q2, vec![Value(10), Value(20)]);
        let pool = vec![Value(1), Value(2)];
        let cache = SatCache::new(ext.ra().schema().clone());
        let succ = successors(&ext, &db, &cur, &pool, &cache);
        assert!(!succ.is_empty());
        for (_, cfg) in &succ {
            assert_eq!(cfg.regs[1], Value(20), "register 2 must be preserved");
        }
        // register 1 takes values from pool ∪ current registers
        let r1s: BTreeSet<Value> = succ
            .iter()
            .filter(|(_, c)| c.state == q2)
            .map(|(_, c)| c.regs[0])
            .collect();
        assert!(r1s.contains(&Value(1)));
        assert!(r1s.contains(&Value(2)));
    }

    #[test]
    fn enumerate_prefixes_of_example1() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        let runs = enumerate_prefixes(&ext, &db, 3, &pool, SearchLimits::default());
        assert!(!runs.is_empty());
        for r in &runs {
            assert!(r.validate(ext.ra(), &db).is_ok());
            // first state must be q1, where δ1 forces x1 = x2
            assert_eq!(r.configs[0].regs[0], r.configs[0].regs[1]);
        }
    }

    #[test]
    fn find_lasso_in_example1() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        let lasso = find_lasso_run(&ext, &db, 6, &pool, SearchLimits::default())
            .unwrap()
            .expect("example 1 has lasso runs");
        assert!(lasso.validate(ext.ra(), &db).is_ok());
    }

    #[test]
    fn example7_has_no_lasso_run() {
        // All-distinct constraint: no ultimately periodic run exists.
        let ext = paper::example7();
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2), Value(3)];
        let lasso = find_lasso_run(&ext, &db, 5, &pool, SearchLimits::default()).unwrap();
        assert!(lasso.is_none());
    }

    #[test]
    fn example7_prefixes_exist_and_are_distinct() {
        let ext = paper::example7();
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2), Value(3)];
        let runs = enumerate_prefixes(&ext, &db, 3, &pool, SearchLimits::default());
        assert!(!runs.is_empty());
        for r in &runs {
            let vals: BTreeSet<Value> = r.configs.iter().map(|c| c.regs[0]).collect();
            assert_eq!(vals.len(), 3, "all values must be distinct");
        }
    }

    #[test]
    fn example8_needs_database_values() {
        let ext = paper::example8();
        let schema = ext.ra().schema().clone();
        let prel = schema.relation("P").unwrap();
        let mut db = Database::new(schema);
        db.insert(prel, vec![Value(1)]).unwrap();
        let pool = default_pool(&db, 2);
        let runs = enumerate_prefixes(&ext, &db, 2, &pool, SearchLimits::default());
        assert!(!runs.is_empty());
        for r in &runs {
            // P(x1) constrains every position from which a transition has
            // fired; the final configuration is not yet constrained.
            for c in &r.configs[..r.configs.len() - 1] {
                assert_eq!(c.regs[0], Value(1), "register must be in P");
            }
        }
    }

    #[test]
    fn projected_traces_collects_set() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        let set = projected_prefix_traces(&ext, &db, 2, 1, &pool, SearchLimits::default());
        // projections on register 1 of 2-step prefixes
        assert!(!set.is_empty());
        for trace in &set {
            assert_eq!(trace.len(), 2);
            assert_eq!(trace[0].len(), 1);
        }
    }
}
