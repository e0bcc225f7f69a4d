//! Strongly connected components, the one routine behind every Büchi
//! cycle question.
//!
//! A Büchi automaton accepts some word exactly when an accepting state
//! reachable from an initial state lies on a cycle, that is, in a *cyclic*
//! strongly connected component: one with more than one state, or a single
//! state with a self-loop. [`Sccs`] answers that with one pass over the
//! reachable part of a graph. The emptiness engine uses it to skip
//! accepting states that lie on no cycle and to keep its cycle searches
//! inside the pivot's component, [`Nba::accepts_lasso`] to decide
//! acceptance, and `rega-analysis` to settle emptiness of a register
//! automaton whose accepting states lie on no cycle.
//!
//! The pass is Tarjan's algorithm with an explicit call stack, so its
//! depth is bounded by memory, not by the thread's stack.
//!
//! [`Nba::accepts_lasso`]: crate::Nba::accepts_lasso

/// Marks a node not yet numbered (`index`) or not yet in a component
/// (`comp`).
const NONE: u32 = u32::MAX;

/// Tarjan's per-node numbers.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Preorder number, or [`NONE`] while unreached.
    index: u32,
    /// Lowest preorder number reachable through the node's subtree.
    low: u32,
    /// Component, or [`NONE`] while on Tarjan's stack or unreached.
    comp: u32,
}

/// The strongly connected components of the part of a graph reachable
/// from a set of roots.
#[derive(Clone, Debug)]
pub struct Sccs {
    nodes: Vec<Node>,
    /// Whether each component carries a cycle.
    cyclic: Vec<bool>,
}

impl Sccs {
    /// The components of the nodes `0..n` reachable from `roots`. The
    /// graph is given edge by edge: `succ(u, i)` is the `i`-th successor of
    /// `u`, or `None` past the last one. Each edge is asked for once, in
    /// index order. Components are numbered in the order they are
    /// completed, so every edge leads to a component numbered no higher.
    pub fn new(
        n: usize,
        roots: impl IntoIterator<Item = usize>,
        mut succ: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Sccs {
        assert!(n < NONE as usize, "graph too large for u32 node ids");
        let unreached = Node {
            index: NONE,
            low: NONE,
            comp: NONE,
        };
        let mut nodes = vec![unreached; n];
        let mut cyclic = Vec::new();
        // Tarjan's stack of numbered nodes not yet in a component, and the
        // explicit call stack of `(node, next edge position, self-loop
        // seen)`; neither holds a node twice.
        let mut stack: Vec<u32> = Vec::with_capacity(n);
        let mut call: Vec<(usize, usize, bool)> = Vec::with_capacity(n);
        let mut next = 0u32;
        for root in roots {
            if nodes[root].index != NONE {
                continue;
            }
            enter(&mut nodes, &mut next, &mut stack, &mut call, root);
            while let Some(&mut (u, ref mut pos, ref mut looped)) = call.last_mut() {
                if let Some(v) = succ(u, *pos) {
                    *pos += 1;
                    if v == u {
                        *looped = true;
                    } else if nodes[v].index == NONE {
                        enter(&mut nodes, &mut next, &mut stack, &mut call, v);
                    } else if nodes[v].comp == NONE {
                        // Numbered and still on Tarjan's stack.
                        nodes[u].low = nodes[u].low.min(nodes[v].index);
                    }
                    continue;
                }
                let looped = *looped;
                call.pop();
                if let Some(&(parent, _, _)) = call.last() {
                    nodes[parent].low = nodes[parent].low.min(nodes[u].low);
                }
                if nodes[u].low == nodes[u].index {
                    let c = cyclic.len() as u32;
                    let mut size = 0usize;
                    loop {
                        let v = stack.pop().expect("u is on the stack") as usize;
                        nodes[v].comp = c;
                        size += 1;
                        if v == u {
                            break;
                        }
                    }
                    cyclic.push(size > 1 || looped);
                }
            }
        }
        Sccs { nodes, cyclic }
    }

    /// Number of components found.
    pub fn count(&self) -> usize {
        self.cyclic.len()
    }

    /// The component of `v`, if the pass reached it.
    pub fn component(&self, v: usize) -> Option<usize> {
        let c = self.nodes[v].comp;
        (c != NONE).then_some(c as usize)
    }

    /// Whether the pass reached `v` from the roots.
    pub fn is_reached(&self, v: usize) -> bool {
        self.nodes[v].comp != NONE
    }

    /// Whether `v` is reached and lies on a cycle.
    pub fn on_cycle(&self, v: usize) -> bool {
        self.component(v).is_some_and(|c| self.cyclic[c])
    }

    /// Whether `u` and `v` are both reached and in one component: each
    /// can reach the other.
    pub fn same_component(&self, u: usize, v: usize) -> bool {
        let c = self.nodes[u].comp;
        c != NONE && c == self.nodes[v].comp
    }
}

/// Numbers `v` and pushes it on both of Tarjan's stacks.
fn enter(
    nodes: &mut [Node],
    next: &mut u32,
    stack: &mut Vec<u32>,
    call: &mut Vec<(usize, usize, bool)>,
    v: usize,
) {
    nodes[v].index = *next;
    nodes[v].low = *next;
    *next += 1;
    stack.push(v as u32);
    call.push((v, 0, false));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sccs(n: usize, roots: &[usize], edges: &[(usize, usize)]) -> Sccs {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
        }
        Sccs::new(n, roots.iter().copied(), |u, i| adj[u].get(i).copied())
    }

    #[test]
    fn components_cycles_and_reach() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3 (dead end), 4 -> 4 (unreached loop),
        // 0 -> 5 -> 5 (self-loop).
        let s = sccs(
            6,
            &[0],
            &[(0, 1), (1, 2), (2, 1), (2, 3), (4, 4), (0, 5), (5, 5)],
        );
        assert!(s.same_component(1, 2));
        assert!(!s.same_component(0, 1));
        assert!(s.on_cycle(1) && s.on_cycle(2) && s.on_cycle(5));
        assert!(!s.on_cycle(0) && !s.on_cycle(3));
        assert!(!s.is_reached(4) && !s.on_cycle(4));
        assert!(!s.same_component(4, 4));
        assert_eq!(s.count(), 4);
        // Edges never lead to a component numbered higher.
        assert!(s.component(3) < s.component(1));
        assert!(s.component(1) < s.component(0));
    }

    #[test]
    fn deep_chains_need_no_call_stack() {
        // A 200 000-node path closed into one cycle: recursion this deep
        // would overflow a thread's stack.
        let n = 200_000;
        let s = Sccs::new(n, [0], |u, i| (i == 0).then_some((u + 1) % n));
        assert_eq!(s.count(), 1);
        assert!(s.on_cycle(0) && s.same_component(0, n - 1));
        let s = Sccs::new(n, [0], |u, i| (i == 0 && u + 1 < n).then_some(u + 1));
        assert_eq!(s.count(), n);
        assert!(!s.on_cycle(n / 2));
    }
}
