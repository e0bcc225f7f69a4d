//! The equivalence relation `∼_w` and inequality relation `≠_w` over the
//! (position, register) pairs of a symbolic control trace (Section 3).
//!
//! For a trace `w = ((q_n, δ_n))` of an extended automaton, `∼_w` is the
//! reflexive-symmetric-transitive closure of the equalities induced by the
//! transition types and the global equality constraints; `≠_w` relates
//! classes forced apart by local or global inequalities. The *active
//! domain* classes are those touching a positive relational literal.
//!
//! Infinite traces are analyzed through ultimately periodic presentations:
//! the structure is computed on a bounded unfolding whose horizon is grown
//! until the induced structure on a fixed window *stabilizes* (the
//! constraint sources are finite automata, so the structure on any window
//! is eventually invariant under horizon growth; the stability rounds and
//! the maximal horizon are configurable budgets).

use rega_automata::Lasso;
use rega_core::extended::ConstraintKind;
use rega_core::{Budget, CoreError, ExtendedAutomaton, TransId};
use rega_data::{SatCache, Term};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Budgets for the stabilized structure computation.
#[derive(Clone, Copy, Debug)]
pub struct ClassOptions {
    /// Number of periods unfolded in the first attempt.
    pub initial_periods: usize,
    /// The window structure must be unchanged for this many consecutive
    /// horizon increments to be considered stable.
    pub stability_rounds: usize,
    /// Give up growing the horizon beyond this many periods.
    pub max_periods: usize,
}

impl Default for ClassOptions {
    fn default() -> Self {
        ClassOptions {
            initial_periods: 6,
            stability_rounds: 2,
            max_periods: 64,
        }
    }
}

/// One equivalence class of `∼_w` on the unfolding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassInfo {
    /// Members `(position, register)`, sorted.
    pub members: Vec<(usize, u16)>,
    /// Constant symbols in the class (indices into the schema's constants).
    pub consts: Vec<u32>,
    /// Whether the class is in the active domain (touches a positive
    /// relational literal, or contains a constant).
    pub adom: bool,
}

impl ClassInfo {
    /// Smallest member position (`usize::MAX` for constant-only classes).
    pub fn min_pos(&self) -> usize {
        self.members.first().map_or(usize::MAX, |&(p, _)| p)
    }

    /// Largest member position.
    pub fn max_pos(&self) -> usize {
        self.members.last().map_or(0, |&(p, _)| p)
    }
}

/// The computed structure `(∼_w, ≠_w, adom)` on a bounded unfolding of an
/// ultimately periodic symbolic control trace.
#[derive(Clone, Debug)]
pub struct ClassStructure {
    /// Number of unfolded positions.
    pub horizon: usize,
    /// Registers per position.
    pub k: usize,
    /// Prefix length of the analyzed lasso.
    pub prefix_len: usize,
    /// Period of the analyzed lasso.
    pub period: usize,
    /// Number of constant symbols.
    pub num_consts: usize,
    /// `node_class[n * k + i]` — class id of `(n, i)`; constant `c` is node
    /// `horizon * k + c`.
    node_class: Vec<usize>,
    /// The classes.
    pub classes: Vec<ClassInfo>,
    /// Class-level inequality pairs `(a, b)`, `a < b`.
    pub neq: BTreeSet<(usize, usize)>,
    /// Whether the structure is consistent: no class is forced apart from
    /// itself.
    pub consistent: bool,
    /// Whether the horizon growth stabilized within the budget.
    pub stabilized: bool,
}

impl ClassStructure {
    /// Computes the structure on a fixed unfolding of `horizon` positions.
    pub fn build(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        horizon: usize,
    ) -> Result<ClassStructure, CoreError> {
        let cache = SatCache::new(ext.ra().schema().clone());
        Self::build_governed(ext, w, horizon, &cache, &Budget::unlimited())
    }

    /// [`ClassStructure::build`] with the per-transition type analyses
    /// memoized in `cache`, under a [`Budget`]. With a shared cache each
    /// distinct type is analyzed once across all horizons (and across all
    /// lassos of an emptiness search) instead of once per build. The
    /// per-position equality fill and the quadratic constraint-DFA walks
    /// (every start position × every later position, per constraint) tick,
    /// so a build at a hostile horizon is interruptible.
    pub fn build_governed(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        horizon: usize,
        cache: &SatCache,
        budget: &Budget,
    ) -> Result<ClassStructure, CoreError> {
        let _span = rega_obs::span!("classes.build", horizon = horizon);
        let ra = ext.ra();
        let k = ra.k() as usize;
        let num_consts = ra.schema().num_constants();
        let n_nodes = horizon * k + num_consts;
        let node = |n: usize, i: u16| n * k + i as usize;
        let const_node = |c: u32| horizon * k + c as usize;

        // Union-find.
        let mut parent: Vec<usize> = (0..n_nodes).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        };

        // Map a type term at position n to a node (None if out of horizon).
        let term_node = |n: usize, t: Term| -> Option<usize> {
            match t {
                Term::X(i) => Some(node(n, i.0)),
                Term::Y(i) => {
                    if n + 1 < horizon {
                        Some(node(n + 1, i.0))
                    } else {
                        None
                    }
                }
                Term::Const(c) => Some(const_node(c.0)),
            }
        };

        // Per-position type analyses (shared through the `SatCache`, so
        // repeated builds at growing horizons analyze each type once).
        let mut analyses: Vec<Option<Arc<rega_data::types::TypeAnalysis>>> =
            vec![None; ra.num_transitions()];
        for n in 0..horizon {
            let t = *w.at(n);
            if analyses[t.idx()].is_none() {
                analyses[t.idx()] = Some(cache.analyze(&ra.transition(t).ty)?);
            }
        }

        // 1. Local equalities.
        for n in 0..horizon {
            budget.tick("classes.build")?;
            let t = *w.at(n);
            let a = analyses[t.idx()].as_ref().expect("filled above");
            for class in a.classes() {
                let nodes: Vec<usize> = class.iter().filter_map(|&tm| term_node(n, tm)).collect();
                for pair in nodes.windows(2) {
                    union(&mut parent, pair[0], pair[1]);
                }
            }
        }

        // 2. Global equality constraints: walk each constraint DFA from
        // every start position; merge on acceptance.
        for c in ext.constraints() {
            if c.kind != ConstraintKind::Equal {
                continue;
            }
            let dfa = c.dfa();
            for n in 0..horizon {
                let mut s = dfa.init();
                for m in n..horizon {
                    budget.tick("classes.build")?;
                    let q = ra.transition(*w.at(m)).from;
                    s = dfa.step(s, &q);
                    if !c.is_alive(s) {
                        break;
                    }
                    if dfa.is_accepting(s) {
                        union(&mut parent, node(n, c.i.0), node(m, c.j.0));
                    }
                }
            }
        }

        // Dense class ids.
        let mut root_class: Vec<usize> = vec![usize::MAX; n_nodes];
        let mut classes: Vec<ClassInfo> = Vec::new();
        let mut node_class = vec![0usize; n_nodes];
        for (x, xc) in node_class.iter_mut().enumerate() {
            let r = find(&mut parent, x);
            if root_class[r] == usize::MAX {
                root_class[r] = classes.len();
                classes.push(ClassInfo {
                    members: Vec::new(),
                    consts: Vec::new(),
                    adom: false,
                });
            }
            let cid = root_class[r];
            *xc = cid;
            if x < horizon * k {
                classes[cid].members.push((x / k, (x % k) as u16));
            } else {
                classes[cid].consts.push((x - horizon * k) as u32);
                classes[cid].adom = true; // constants are in adom(D)
            }
        }

        // 3. Inequalities (local and global), collected at node level, then
        // lifted to classes.
        let mut neq: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut consistent = true;
        let mut add_neq = |a: usize, b: usize, neq: &mut BTreeSet<(usize, usize)>| {
            let (ca, cb) = (node_class[a], node_class[b]);
            if ca == cb {
                consistent = false;
            } else {
                neq.insert((ca.min(cb), ca.max(cb)));
            }
        };
        for n in 0..horizon {
            let t = *w.at(n);
            let a = analyses[t.idx()].as_ref().expect("filled above");
            for (c1, c2) in a.neq_pairs() {
                // Map one representative node of each side, preferring
                // mappable terms.
                let n1 = a.classes()[c1].iter().find_map(|&tm| term_node(n, tm));
                let n2 = a.classes()[c2].iter().find_map(|&tm| term_node(n, tm));
                if let (Some(x), Some(y)) = (n1, n2) {
                    add_neq(x, y, &mut neq);
                }
            }
        }
        for c in ext.constraints() {
            if c.kind != ConstraintKind::NotEqual {
                continue;
            }
            let dfa = c.dfa();
            for n in 0..horizon {
                let mut s = dfa.init();
                for m in n..horizon {
                    budget.tick("classes.build")?;
                    let q = ra.transition(*w.at(m)).from;
                    s = dfa.step(s, &q);
                    if !c.is_alive(s) {
                        break;
                    }
                    if dfa.is_accepting(s) {
                        add_neq(node(n, c.i.0), node(m, c.j.0), &mut neq);
                    }
                }
            }
        }

        // 4. Active domain: positive relational literals.
        for n in 0..horizon {
            let t = *w.at(n);
            let ty = &ra.transition(t).ty;
            for lit in ty.literals() {
                if !lit.is_positive_rel() {
                    continue;
                }
                for tm in lit.terms() {
                    if let Some(x) = term_node(n, tm) {
                        let cid = node_class[x];
                        classes[cid].adom = true;
                    }
                }
            }
        }

        Ok(ClassStructure {
            horizon,
            k,
            prefix_len: w.prefix_len(),
            period: w.period(),
            num_consts,
            node_class,
            classes,
            neq,
            consistent,
            stabilized: true,
        })
    }

    /// Grows the horizon until the window structure stabilizes (see module
    /// docs), then returns the final structure.
    pub fn build_stable(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        opts: ClassOptions,
    ) -> Result<ClassStructure, CoreError> {
        let cache = SatCache::new(ext.ra().schema().clone());
        Self::build_stable_governed(ext, w, opts, &cache, &Budget::unlimited())
    }

    /// [`ClassStructure::build_stable`] with a shared [`SatCache`], under a
    /// [`Budget`]: the incremental grower runs governed, and the
    /// deadline/token are re-checked between rounds.
    ///
    /// The stabilization *schedule* — horizons visited, window-signature
    /// comparisons, stability rounds — is exactly that of the crate-private
    /// `build_stable_reference_governed`, but each round grows one
    /// union-find incrementally instead of rebuilding from scratch: only the
    /// new positions (plus the previous last position, whose `ȳ`-terms
    /// become mappable) are processed, and every constraint-DFA walk resumes
    /// from its saved state. The two
    /// implementations produce field-identical structures; the reference is
    /// retained and pinned against this one by the equivalence tests below.
    pub fn build_stable_governed(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        opts: ClassOptions,
        cache: &SatCache,
        budget: &Budget,
    ) -> Result<ClassStructure, CoreError> {
        let _span = rega_obs::span!("classes.build_stable");
        let window = w.prefix_len() + 2 * w.period();
        let mut builder = StableBuilder::new(ext, w, cache, budget);
        let mut prev_sig: Option<Vec<u8>> = None;
        let mut stable_for = 0usize;
        let mut periods = opts.initial_periods.max(3);
        while periods <= opts.max_periods {
            budget.check("classes.build_stable")?;
            let horizon = w.prefix_len() + periods * w.period();
            builder.grow(horizon)?;
            let sig = builder.signature(window);
            if prev_sig.as_ref() == Some(&sig) {
                stable_for += 1;
                if stable_for >= opts.stability_rounds {
                    return Ok(builder.finish(true));
                }
            } else {
                stable_for = 0;
            }
            prev_sig = Some(sig);
            periods += 1;
        }
        Ok(builder.finish(false))
    }

    /// The pre-kernel stabilized builder: rebuilds the full structure from
    /// scratch at every horizon of the stabilization schedule. Retained as
    /// the pinned reference implementation for the differential suites (and
    /// for [`check_emptiness_reference_governed`](crate::emptiness::check_emptiness_reference_governed));
    /// [`build_stable_governed`](ClassStructure::build_stable_governed)
    /// must produce field-identical structures.
    pub(crate) fn build_stable_reference_governed(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        opts: ClassOptions,
        cache: &SatCache,
        budget: &Budget,
    ) -> Result<ClassStructure, CoreError> {
        let _span = rega_obs::span!("classes.build_stable");
        let window = w.prefix_len() + 2 * w.period();
        let mut prev_sig: Option<Vec<u8>> = None;
        let mut stable_for = 0usize;
        let mut last: Option<ClassStructure> = None;
        let mut periods = opts.initial_periods.max(3);
        while periods <= opts.max_periods {
            budget.check("classes.build_stable")?;
            let horizon = w.prefix_len() + periods * w.period();
            let s = ClassStructure::build_governed(ext, w, horizon, cache, budget)?;
            let sig = s.window_signature(window);
            if prev_sig.as_ref() == Some(&sig) {
                stable_for += 1;
                if stable_for >= opts.stability_rounds {
                    return Ok(s);
                }
            } else {
                stable_for = 0;
            }
            prev_sig = Some(sig);
            last = Some(s);
            periods += 1;
        }
        let mut s = last.expect("at least one build");
        s.stabilized = false;
        Ok(s)
    }

    /// The class id of `(position, register)`.
    pub fn class_of(&self, n: usize, i: u16) -> usize {
        self.node_class[n * self.k + i as usize]
    }

    /// The class id of constant `c`.
    pub fn class_of_const(&self, c: u32) -> usize {
        self.node_class[self.horizon * self.k + c as usize]
    }

    /// Whether two classes are forced distinct.
    pub fn forced_neq(&self, a: usize, b: usize) -> bool {
        self.neq.contains(&(a.min(b), a.max(b)))
    }

    /// Ids of the active-domain classes.
    pub fn adom_classes(&self) -> Vec<usize> {
        (0..self.classes.len())
            .filter(|&c| self.classes[c].adom)
            .collect()
    }

    /// A canonical fingerprint of the structure restricted to the first
    /// `window` positions: the partition, the inequalities, consistency and
    /// adom flags. Used for stabilization detection.
    fn window_signature(&self, window: usize) -> Vec<u8> {
        let window = window.min(self.horizon);
        let mut out = Vec::new();
        out.push(u8::from(self.consistent));
        // Partition: for each window node, the least window node (or
        // constant) in its class.
        let mut canon: std::collections::HashMap<usize, u32> = Default::default();
        let mut next = 0u32;
        for n in 0..window {
            for i in 0..self.k {
                let c = self.class_of(n, i as u16);
                let label = *canon.entry(c).or_insert_with(|| {
                    next += 1;
                    next
                });
                out.extend_from_slice(&label.to_le_bytes());
                out.push(u8::from(self.classes[c].adom));
            }
        }
        // Constants' classes.
        for c in 0..self.num_consts {
            let cid = self.class_of_const(c as u32);
            let label = canon.get(&cid).copied().unwrap_or(0);
            out.extend_from_slice(&label.to_le_bytes());
        }
        // Inequalities among window-labelled classes.
        let mut pairs: Vec<(u32, u32)> = self
            .neq
            .iter()
            .filter_map(|&(a, b)| match (canon.get(&a), canon.get(&b)) {
                (Some(&la), Some(&lb)) => Some((la.min(lb), la.max(lb))),
                _ => None,
            })
            .collect();
        pairs.sort();
        pairs.dedup();
        for (a, b) in pairs {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }
}

/// Union-find `find` with path halving (shared by [`StableBuilder`] and the
/// from-scratch builder above, which keeps its own local copy for clarity).
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Union by minimum root (the dense-id pass depends on the class
/// representative being the least node), carrying the per-root adom bit.
fn uf_union(parent: &mut [usize], adom: &mut [bool], a: usize, b: usize) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
        adom[lo] = adom[lo] || adom[hi];
    }
}

/// The incremental engine behind [`ClassStructure::build_stable_governed`].
///
/// Growing the horizon only *adds* constraints: the union-find, the
/// node-level inequality pairs, the per-root adom bits, and every
/// constraint-DFA walk are monotone in the horizon, so each stabilization
/// round processes just the new positions. Two layout choices make this
/// sound:
///
/// * internal node ids are growth-stable — constants first (`0..C`), then
///   `(n, i) ↦ C + n·k + i` — unlike the reference layout, which moves the
///   constant nodes every time the horizon grows; [`finish`] remaps to the
///   reference layout, and because dense class ids are a function of the
///   final partition alone (first-seen order over reference node order,
///   with min-root representatives), the result is field-identical to a
///   from-scratch build at the same horizon;
/// * position `h − 1` is re-processed when the horizon grows past `h`: its
///   `ȳ`-terms were unmappable at horizon `h` and only then gain nodes.
///   Re-deriving its equalities is idempotent, and any inequality pair
///   recorded earlier with a different (mappable) representative lifts to
///   the same class pair — all representatives of a type class are unioned
///   by step 1.
///
/// [`finish`]: StableBuilder::finish
struct StableBuilder<'a> {
    ext: &'a ExtendedAutomaton,
    w: &'a Lasso<TransId>,
    cache: &'a SatCache,
    budget: &'a Budget,
    k: usize,
    num_consts: usize,
    /// Positions processed so far.
    horizon: usize,
    /// Union-find over internal ids: constant `c` is node `c`, register
    /// `(n, i)` is node `num_consts + n·k + i`.
    parent: Vec<usize>,
    /// Per-root active-domain bit (meaningful at roots, carried on union).
    adom: Vec<bool>,
    /// Node-level inequality pairs, internal ids, accumulated.
    neq_nodes: Vec<(usize, usize)>,
    /// Per-transition analyses, filled on first use.
    analyses: Vec<Option<Arc<rega_data::types::TypeAnalysis>>>,
    /// Indices of `Equal` / `NotEqual` constraints in `ext.constraints()`.
    eq_cs: Vec<usize>,
    ne_cs: Vec<usize>,
    /// Saved `(dfa_state, alive)` per constraint per start position.
    eq_walks: Vec<Vec<(usize, bool)>>,
    ne_walks: Vec<Vec<(usize, bool)>>,
}

impl<'a> StableBuilder<'a> {
    fn new(
        ext: &'a ExtendedAutomaton,
        w: &'a Lasso<TransId>,
        cache: &'a SatCache,
        budget: &'a Budget,
    ) -> StableBuilder<'a> {
        let ra = ext.ra();
        let num_consts = ra.schema().num_constants();
        let eq_cs: Vec<usize> = (0..ext.constraints().len())
            .filter(|&i| ext.constraints()[i].kind == ConstraintKind::Equal)
            .collect();
        let ne_cs: Vec<usize> = (0..ext.constraints().len())
            .filter(|&i| ext.constraints()[i].kind == ConstraintKind::NotEqual)
            .collect();
        StableBuilder {
            ext,
            w,
            cache,
            budget,
            k: ra.k() as usize,
            num_consts,
            horizon: 0,
            parent: (0..num_consts).collect(),
            // Constant classes are in adom(D) from the start.
            adom: vec![true; num_consts],
            neq_nodes: Vec::new(),
            analyses: vec![None; ra.num_transitions()],
            eq_walks: vec![Vec::new(); eq_cs.len()],
            ne_walks: vec![Vec::new(); ne_cs.len()],
            eq_cs,
            ne_cs,
        }
    }

    /// Internal node id of register `i` at position `n`.
    fn inode(&self, n: usize, i: u16) -> usize {
        self.num_consts + n * self.k + i as usize
    }

    /// Internal node of a type term at position `n` under horizon `h`.
    fn term_inode(&self, n: usize, t: Term, h: usize) -> Option<usize> {
        match t {
            Term::X(i) => Some(self.inode(n, i.0)),
            Term::Y(i) => {
                if n + 1 < h {
                    Some(self.inode(n + 1, i.0))
                } else {
                    None
                }
            }
            Term::Const(c) => Some(c.0 as usize),
        }
    }

    /// Extends the processed horizon to `new_h`, re-processing the previous
    /// last position (whose `ȳ`-terms just became mappable).
    fn grow(&mut self, new_h: usize) -> Result<(), CoreError> {
        let old_h = self.horizon;
        if new_h <= old_h {
            return Ok(());
        }
        let ra = self.ext.ra();
        let k = self.k;
        let c0 = self.num_consts;
        let new_len = c0 + new_h * k;
        self.parent.extend(self.parent.len()..new_len);
        self.adom.resize(new_len, false);

        // Steps 1, 3-local, 4: (re-)process positions old_h-1 .. new_h.
        for n in old_h.saturating_sub(1)..new_h {
            self.budget.tick("classes.build")?;
            let t = *self.w.at(n);
            if self.analyses[t.idx()].is_none() {
                self.analyses[t.idx()] = Some(self.cache.analyze(&ra.transition(t).ty)?);
            }
            let a = Arc::clone(self.analyses[t.idx()].as_ref().expect("filled above"));
            // Local equalities.
            for class in a.classes() {
                let nodes: Vec<usize> = class
                    .iter()
                    .filter_map(|&tm| self.term_inode(n, tm, new_h))
                    .collect();
                for pair in nodes.windows(2) {
                    uf_union(&mut self.parent, &mut self.adom, pair[0], pair[1]);
                }
            }
            // Local inequalities (node-level; lifted to classes at the end).
            for (c1, c2) in a.neq_pairs() {
                let n1 = a.classes()[c1]
                    .iter()
                    .find_map(|&tm| self.term_inode(n, tm, new_h));
                let n2 = a.classes()[c2]
                    .iter()
                    .find_map(|&tm| self.term_inode(n, tm, new_h));
                if let (Some(x), Some(y)) = (n1, n2) {
                    self.neq_nodes.push((x, y));
                }
            }
            // Active domain: positive relational literals.
            for lit in ra.transition(t).ty.literals() {
                if !lit.is_positive_rel() {
                    continue;
                }
                for tm in lit.terms() {
                    if let Some(x) = self.term_inode(n, tm, new_h) {
                        let r = uf_find(&mut self.parent, x);
                        self.adom[r] = true;
                    }
                }
            }
        }

        // Step 2: resume every global-constraint DFA walk.
        for group in 0..2 {
            let (cs, walks) = if group == 0 {
                (&self.eq_cs, &mut self.eq_walks)
            } else {
                (&self.ne_cs, &mut self.ne_walks)
            };
            for (wi, &ci) in cs.iter().enumerate() {
                let c = &self.ext.constraints()[ci];
                let dfa = c.dfa();
                for n in 0..new_h {
                    let (mut s, alive) = if n < old_h {
                        walks[wi][n]
                    } else {
                        (dfa.init(), true)
                    };
                    let mut alive = alive;
                    if alive {
                        let start_m = if n < old_h { old_h } else { n };
                        for m in start_m..new_h {
                            self.budget.tick("classes.build")?;
                            let q = ra.transition(*self.w.at(m)).from;
                            s = dfa.step(s, &q);
                            if !c.is_alive(s) {
                                alive = false;
                                break;
                            }
                            if dfa.is_accepting(s) {
                                let (x, y) = (
                                    self.num_consts + n * self.k + c.i.0 as usize,
                                    self.num_consts + m * self.k + c.j.0 as usize,
                                );
                                if group == 0 {
                                    uf_union(&mut self.parent, &mut self.adom, x, y);
                                } else {
                                    self.neq_nodes.push((x, y));
                                }
                            }
                        }
                    }
                    if n < old_h {
                        walks[wi][n] = (s, alive);
                    } else {
                        walks[wi].push((s, alive));
                    }
                }
            }
        }
        self.horizon = new_h;
        Ok(())
    }

    /// The window signature at the current horizon — byte-identical to
    /// [`ClassStructure::window_signature`] on a from-scratch build.
    fn signature(&mut self, window: usize) -> Vec<u8> {
        let window = window.min(self.horizon);
        let c0 = self.num_consts;
        let k = self.k;
        let mut consistent = true;
        for i in 0..self.neq_nodes.len() {
            let (a, b) = self.neq_nodes[i];
            if uf_find(&mut self.parent, a) == uf_find(&mut self.parent, b) {
                consistent = false;
                break;
            }
        }
        let mut out = Vec::new();
        out.push(u8::from(consistent));
        let mut canon: std::collections::HashMap<usize, u32> = Default::default();
        let mut next = 0u32;
        for n in 0..window {
            for i in 0..k {
                let r = uf_find(&mut self.parent, c0 + n * k + i);
                let label = *canon.entry(r).or_insert_with(|| {
                    next += 1;
                    next
                });
                out.extend_from_slice(&label.to_le_bytes());
                out.push(u8::from(self.adom[r]));
            }
        }
        for c in 0..c0 {
            let r = uf_find(&mut self.parent, c);
            let label = canon.get(&r).copied().unwrap_or(0);
            out.extend_from_slice(&label.to_le_bytes());
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..self.neq_nodes.len() {
            let (a, b) = self.neq_nodes[i];
            let ra = uf_find(&mut self.parent, a);
            let rb = uf_find(&mut self.parent, b);
            if ra == rb {
                continue;
            }
            if let (Some(&la), Some(&lb)) = (canon.get(&ra), canon.get(&rb)) {
                pairs.push((la.min(lb), la.max(lb)));
            }
        }
        pairs.sort();
        pairs.dedup();
        for (a, b) in pairs {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Assembles the [`ClassStructure`] at the current horizon in the
    /// reference node layout (positions first, constants at
    /// `horizon·k ..`), with dense class ids in reference scan order.
    fn finish(mut self, stabilized: bool) -> ClassStructure {
        let h = self.horizon;
        let k = self.k;
        let c0 = self.num_consts;
        let n_nodes = h * k + c0;
        let mut root_class: std::collections::HashMap<usize, usize> = Default::default();
        let mut classes: Vec<ClassInfo> = Vec::new();
        let mut node_class = vec![0usize; n_nodes];
        for (x, xc) in node_class.iter_mut().enumerate() {
            let internal = if x < h * k { c0 + x } else { x - h * k };
            let r = uf_find(&mut self.parent, internal);
            let cid = *root_class.entry(r).or_insert_with(|| {
                classes.push(ClassInfo {
                    members: Vec::new(),
                    consts: Vec::new(),
                    adom: self.adom[r],
                });
                classes.len() - 1
            });
            *xc = cid;
            if x < h * k {
                classes[cid].members.push((x / k, (x % k) as u16));
            } else {
                classes[cid].consts.push((x - h * k) as u32);
            }
        }
        let mut neq: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut consistent = true;
        for &(a, b) in &self.neq_nodes {
            let ra = uf_find(&mut self.parent, a);
            let rb = uf_find(&mut self.parent, b);
            let (ca, cb) = (root_class[&ra], root_class[&rb]);
            if ca == cb {
                consistent = false;
            } else {
                neq.insert((ca.min(cb), ca.max(cb)));
            }
        }
        ClassStructure {
            horizon: h,
            k,
            prefix_len: self.w.prefix_len(),
            period: self.w.period(),
            num_consts: c0,
            node_class,
            classes,
            neq,
            consistent,
            stabilized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;

    #[test]
    fn example1_register2_forms_one_class() {
        // Control trace (δ1 δ2 δ2 δ3)^ω: register 2 holds one value forever.
        let (ra, ts) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let w = Lasso::periodic(vec![ts[0], ts[1], ts[1], ts[2]]);
        let s = ClassStructure::build(&ext, &w, 12).unwrap();
        assert!(s.consistent);
        let c = s.class_of(0, 1);
        for n in 0..12 {
            assert_eq!(s.class_of(n, 1), c, "register 2 at position {n}");
        }
        // Register 1 at position 0 equals register 2 (δ1: x1 = x2).
        assert_eq!(s.class_of(0, 0), c);
        // Register 1 at position 1 is its own class (fresh).
        assert_ne!(s.class_of(1, 0), c);
        // Register 1 at q1-positions (multiples of 4) equals register 2
        // (δ3: y1 = y2 entering q1).
        assert_eq!(s.class_of(4, 0), c);
        assert_eq!(s.class_of(8, 0), c);
    }

    #[test]
    fn example5_constraint_merges_p1_positions() {
        let ext = paper::example5();
        let ra = ext.ra();
        let p1 = ra.state_by_name("p1").unwrap();
        let p2 = ra.state_by_name("p2").unwrap();
        let t_p1p2 = ra.outgoing(p1)[0];
        let p2outs = ra.outgoing(p2);
        let t_p2p2 = p2outs
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p2)
            .unwrap();
        let t_p2p1 = p2outs
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p1)
            .unwrap();
        // trace p1 p2 p2 (p1 p2 p2)^ω
        let w = Lasso::periodic(vec![t_p1p2, t_p2p2, t_p2p1]);
        let s = ClassStructure::build(&ext, &w, 9).unwrap();
        assert!(s.consistent);
        // p1-positions: 0, 3, 6 — all share a class via e=11.
        assert_eq!(s.class_of(0, 0), s.class_of(3, 0));
        assert_eq!(s.class_of(3, 0), s.class_of(6, 0));
        // p2-positions are unconstrained.
        assert_ne!(s.class_of(1, 0), s.class_of(0, 0));
        assert_ne!(s.class_of(1, 0), s.class_of(2, 0));
    }

    #[test]
    fn example7_all_pairs_neq_but_consistent() {
        let ext = paper::example7();
        let q = ext.ra().state_by_name("q").unwrap();
        let t = ext.ra().outgoing(q)[0];
        let w = Lasso::periodic(vec![t]);
        let s = ClassStructure::build(&ext, &w, 8).unwrap();
        assert!(s.consistent, "all-distinct structure is satisfiable");
        // All singleton classes, pairwise neq.
        for n in 0..8 {
            for m in (n + 1)..8 {
                assert_ne!(s.class_of(n, 0), s.class_of(m, 0));
                assert!(s.forced_neq(s.class_of(n, 0), s.class_of(m, 0)));
            }
        }
        // No database: no adom classes.
        assert!(s.adom_classes().is_empty());
    }

    #[test]
    fn inconsistent_when_eq_and_neq_conflict() {
        // Example 5's automaton with an extra constraint making p1-values
        // also *unequal*: inconsistent on any trace visiting p1 twice.
        let mut ext = paper::example5();
        ext.add_constraint_str(
            rega_core::ConstraintKind::NotEqual,
            rega_data::RegIdx(0),
            rega_data::RegIdx(0),
            "p1 p2* p1",
        )
        .unwrap();
        let ra = ext.ra();
        let p1 = ra.state_by_name("p1").unwrap();
        let p2 = ra.state_by_name("p2").unwrap();
        let t_p1p2 = ra.outgoing(p1)[0];
        let t_p2p1 = ra
            .outgoing(p2)
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p1)
            .unwrap();
        let w = Lasso::periodic(vec![t_p1p2, t_p2p1]);
        let s = ClassStructure::build(&ext, &w, 8).unwrap();
        assert!(!s.consistent);
    }

    #[test]
    fn example8_adom_classes_marked() {
        let ext = paper::example8();
        let ra = ext.ra();
        let p = ra.state_by_name("p").unwrap();
        let t_pp = ra
            .outgoing(p)
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p)
            .unwrap();
        let w = Lasso::periodic(vec![t_pp]);
        let s = ClassStructure::build(&ext, &w, 6).unwrap();
        // Every position's register is in P ⇒ in adom.
        for n in 0..5 {
            assert!(s.classes[s.class_of(n, 0)].adom, "position {n}");
        }
    }

    #[test]
    fn build_stable_stabilizes_on_example1() {
        let (ra, ts) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let w = Lasso::periodic(vec![ts[0], ts[1], ts[2]]);
        let s = ClassStructure::build_stable(&ext, &w, ClassOptions::default()).unwrap();
        assert!(s.stabilized);
        assert!(s.consistent);
    }

    /// Asserts the incremental stabilized builder and the pinned
    /// from-scratch reference produce field-identical structures.
    fn assert_incremental_matches_reference(
        ext: &ExtendedAutomaton,
        w: &Lasso<TransId>,
        opts: ClassOptions,
    ) {
        let cache = SatCache::new(ext.ra().schema().clone());
        let budget = Budget::unlimited();
        let fast = ClassStructure::build_stable_governed(ext, w, opts, &cache, &budget).unwrap();
        let refr =
            ClassStructure::build_stable_reference_governed(ext, w, opts, &cache, &budget).unwrap();
        assert_eq!(fast.horizon, refr.horizon, "horizon");
        assert_eq!(fast.k, refr.k, "k");
        assert_eq!(fast.prefix_len, refr.prefix_len, "prefix_len");
        assert_eq!(fast.period, refr.period, "period");
        assert_eq!(fast.num_consts, refr.num_consts, "num_consts");
        assert_eq!(fast.node_class, refr.node_class, "node_class");
        assert_eq!(fast.classes, refr.classes, "classes");
        assert_eq!(fast.neq, refr.neq, "neq");
        assert_eq!(fast.consistent, refr.consistent, "consistent");
        assert_eq!(fast.stabilized, refr.stabilized, "stabilized");
    }

    #[test]
    fn incremental_matches_reference_on_paper_examples() {
        let (ra, ts) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        assert_incremental_matches_reference(
            &ext,
            &Lasso::periodic(vec![ts[0], ts[1], ts[1], ts[2]]),
            ClassOptions::default(),
        );

        let ext = paper::example5();
        let ra = ext.ra();
        let p1 = ra.state_by_name("p1").unwrap();
        let p2 = ra.state_by_name("p2").unwrap();
        let t_p1p2 = ra.outgoing(p1)[0];
        let p2outs = ra.outgoing(p2);
        let t_p2p2 = p2outs
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p2)
            .unwrap();
        let t_p2p1 = p2outs
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p1)
            .unwrap();
        assert_incremental_matches_reference(
            &ext,
            &Lasso::periodic(vec![t_p1p2, t_p2p2, t_p2p1]),
            ClassOptions::default(),
        );
        // Also exercise a lasso with a prefix.
        assert_incremental_matches_reference(
            &ext,
            &Lasso::new(vec![t_p1p2, t_p2p2], vec![t_p2p2, t_p2p1, t_p1p2]),
            ClassOptions::default(),
        );

        let ext = paper::example7();
        let q = ext.ra().state_by_name("q").unwrap();
        let t = ext.ra().outgoing(q)[0];
        assert_incremental_matches_reference(
            &ext,
            &Lasso::periodic(vec![t]),
            ClassOptions::default(),
        );

        let ext = paper::example8();
        let ra = ext.ra();
        let p = ra.state_by_name("p").unwrap();
        let t_pp = ra
            .outgoing(p)
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p)
            .unwrap();
        assert_incremental_matches_reference(
            &ext,
            &Lasso::periodic(vec![t_pp]),
            ClassOptions::default(),
        );
    }

    #[test]
    fn incremental_matches_reference_on_inconsistent_trace() {
        let mut ext = paper::example5();
        ext.add_constraint_str(
            rega_core::ConstraintKind::NotEqual,
            rega_data::RegIdx(0),
            rega_data::RegIdx(0),
            "p1 p2* p1",
        )
        .unwrap();
        let ra = ext.ra();
        let p1 = ra.state_by_name("p1").unwrap();
        let p2 = ra.state_by_name("p2").unwrap();
        let t_p1p2 = ra.outgoing(p1)[0];
        let t_p2p1 = ra
            .outgoing(p2)
            .iter()
            .copied()
            .find(|&t| ra.transition(t).to == p1)
            .unwrap();
        let w = Lasso::periodic(vec![t_p1p2, t_p2p1]);
        assert_incremental_matches_reference(&ext, &w, ClassOptions::default());
        let s = ClassStructure::build_stable(&ext, &w, ClassOptions::default()).unwrap();
        assert!(!s.consistent);
    }

    #[test]
    fn incremental_matches_reference_across_schedules() {
        // Vary the stabilization schedule so growth steps of different
        // sizes (and the non-stabilized exhaustion path) are exercised.
        let (ra, ts) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let w = Lasso::periodic(vec![ts[0], ts[1], ts[2]]);
        for (initial, max, rounds) in [(3, 5, 2), (6, 12, 3), (4, 4, 2), (3, 64, 1)] {
            assert_incremental_matches_reference(
                &ext,
                &w,
                ClassOptions {
                    initial_periods: initial,
                    max_periods: max,
                    stability_rounds: rounds,
                },
            );
        }
    }
}
