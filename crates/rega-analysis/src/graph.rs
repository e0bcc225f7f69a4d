//! The inequality graphs of the paper and the combinatorics on them:
//!
//! * `G_w` (Theorem 9): vertices are the active-domain classes of `∼_w`,
//!   edges are the `≠_w` pairs; the trace is realizable over a finite
//!   database iff the cliques of `G_w` are bounded.
//! * `G^w_h` (Definition 15): vertices are classes entirely left or right
//!   of position `h`, edges the `≠_w` pairs across; LR-boundedness asks for
//!   a uniform bound on its vertex covers. `G^w_h` is bipartite, so by
//!   König's theorem the minimum vertex cover equals the maximum matching.
//!
//! Algorithms: Bron–Kerbosch (with pivoting) for maximum clique, Kuhn's
//! augmenting paths for maximum bipartite matching, and greedy coloring
//! (the executable stand-in for the χ-boundedness argument of Theorem 9).

use crate::classes::ClassStructure;
use std::collections::{HashMap, HashSet};

/// An undirected graph on `n` vertices given by adjacency sets.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Adjacency sets.
    pub adj: Vec<HashSet<usize>>,
}

impl Graph {
    /// An empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![HashSet::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a != b {
            self.adj[a].insert(b);
            self.adj[b].insert(a);
        }
    }

    /// Maximum clique size, via Bron–Kerbosch with pivoting. Exponential in
    /// the worst case; the graphs here are small and sparse.
    pub fn max_clique(&self) -> usize {
        let mut best = 0usize;
        let p: HashSet<usize> = (0..self.len())
            .filter(|&v| !self.adj[v].is_empty())
            .collect();
        if p.is_empty() {
            return usize::from(!self.is_empty());
        }
        self.bk(&mut Vec::new(), p, HashSet::new(), &mut best);
        best.max(1)
    }

    fn bk(
        &self,
        r: &mut Vec<usize>,
        mut p: HashSet<usize>,
        mut x: HashSet<usize>,
        best: &mut usize,
    ) {
        if p.is_empty() && x.is_empty() {
            *best = (*best).max(r.len());
            return;
        }
        if r.len() + p.len() <= *best {
            return; // cannot beat the best
        }
        // Pivot: vertex of P ∪ X with most neighbors in P.
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| self.adj[u].intersection(&p).count());
        let candidates: Vec<usize> = match pivot {
            Some(u) => p
                .iter()
                .copied()
                .filter(|v| !self.adj[u].contains(v))
                .collect(),
            None => p.iter().copied().collect(),
        };
        for v in candidates {
            r.push(v);
            let p2: HashSet<usize> = p.intersection(&self.adj[v]).copied().collect();
            let x2: HashSet<usize> = x.intersection(&self.adj[v]).copied().collect();
            self.bk(r, p2, x2, best);
            r.pop();
            p.remove(&v);
            x.insert(v);
        }
    }

    /// Greedy coloring; returns the color of each vertex (adjacent vertices
    /// get different colors). The number of colors is at most `Δ + 1`.
    pub fn greedy_coloring(&self) -> Vec<usize> {
        let mut color = vec![usize::MAX; self.len()];
        // Color in order of decreasing degree (helps quality slightly).
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.adj[v].len()));
        for v in order {
            let used: HashSet<usize> = self.adj[v]
                .iter()
                .map(|&u| color[u])
                .filter(|&c| c != usize::MAX)
                .collect();
            let mut c = 0;
            while used.contains(&c) {
                c += 1;
            }
            color[v] = c;
        }
        color
    }
}

/// A bipartite graph `L × R` given by edge lists from the left side.
#[derive(Clone, Debug)]
pub struct Bipartite {
    /// Edges from each left vertex to right-vertex indices.
    pub left_adj: Vec<Vec<usize>>,
    /// Number of right vertices.
    pub n_right: usize,
}

impl Bipartite {
    /// Maximum matching via Kuhn's augmenting-path algorithm. By König's
    /// theorem this equals the minimum vertex cover (Definition 15's
    /// parameter).
    pub fn max_matching(&self) -> usize {
        let mut match_r: Vec<Option<usize>> = vec![None; self.n_right];
        let mut result = 0;
        for l in 0..self.left_adj.len() {
            let mut visited = vec![false; self.n_right];
            if self.try_kuhn(l, &mut visited, &mut match_r) {
                result += 1;
            }
        }
        result
    }

    fn try_kuhn(&self, l: usize, visited: &mut [bool], match_r: &mut [Option<usize>]) -> bool {
        for &r in &self.left_adj[l] {
            if visited[r] {
                continue;
            }
            visited[r] = true;
            match match_r[r] {
                None => {
                    match_r[r] = Some(l);
                    return true;
                }
                Some(prev) => {
                    if self.try_kuhn(prev, visited, match_r) {
                        match_r[r] = Some(l);
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Builds `G_w` (Theorem 9): the inequality graph on the active-domain
/// classes of the structure. Returns the graph plus the class ids of its
/// vertices.
pub fn inequality_graph(s: &ClassStructure) -> (Graph, Vec<usize>) {
    let verts = s.adom_classes();
    let index: HashMap<usize, usize> = verts.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut g = Graph::new(verts.len());
    for &(a, b) in &s.neq {
        if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
            g.add_edge(ia, ib);
        }
    }
    (g, verts)
}

/// Builds `G^w_h` (Definition 15): classes entirely at positions `<= h` on
/// the left, entirely `> h` on the right, edges the `≠_w` pairs. Classes
/// containing constants straddle every position and are excluded (as are
/// straddling classes in the paper).
///
/// `boundary` limits the right side: classes touching positions `>=
/// boundary` are considered possibly-extending-beyond-the-horizon and are
/// still included (their edges can only grow the matching, which is what
/// the boundedness check watches).
pub fn lr_graph(s: &ClassStructure, h: usize) -> Bipartite {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut side: HashMap<usize, (bool, usize)> = HashMap::new(); // class -> (is_left, idx)
    for (cid, info) in s.classes.iter().enumerate() {
        if !info.consts.is_empty() || info.members.is_empty() {
            continue; // straddles or empty
        }
        if info.max_pos() <= h {
            side.insert(cid, (true, left.len()));
            left.push(cid);
        } else if info.min_pos() > h {
            side.insert(cid, (false, right.len()));
            right.push(cid);
        }
    }
    let mut left_adj = vec![Vec::new(); left.len()];
    for &(a, b) in &s.neq {
        let (sa, sb) = match (side.get(&a), side.get(&b)) {
            (Some(&x), Some(&y)) => (x, y),
            _ => continue,
        };
        match (sa, sb) {
            ((true, la), (false, rb)) => left_adj[la].push(rb),
            ((false, ra), (true, lb)) => left_adj[lb].push(ra),
            _ => {}
        }
    }
    Bipartite {
        left_adj,
        n_right: right.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_of_triangle() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        assert_eq!(g.max_clique(), 3);
    }

    #[test]
    fn clique_of_edgeless_graph() {
        let g = Graph::new(5);
        assert_eq!(g.max_clique(), 1);
        let empty = Graph::new(0);
        assert_eq!(empty.max_clique(), 0);
    }

    #[test]
    fn clique_of_complete_graph() {
        let mut g = Graph::new(6);
        for a in 0..6 {
            for b in (a + 1)..6 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(g.max_clique(), 6);
    }

    #[test]
    fn clique_of_bipartite_is_two() {
        let mut g = Graph::new(6);
        for a in 0..3 {
            for b in 3..6 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(g.max_clique(), 2);
    }

    #[test]
    fn coloring_is_proper() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        let colors = g.greedy_coloring();
        for v in 0..5 {
            for &u in &g.adj[v] {
                assert_ne!(colors[v], colors[u]);
            }
        }
        assert!(colors.iter().max().unwrap() >= &2); // triangle needs 3 colors
    }

    #[test]
    fn matching_simple() {
        // 2x2 complete bipartite: matching 2.
        let b = Bipartite {
            left_adj: vec![vec![0, 1], vec![0, 1]],
            n_right: 2,
        };
        assert_eq!(b.max_matching(), 2);
    }

    #[test]
    fn matching_with_conflict() {
        // Both left vertices only connect to right 0: matching 1.
        let b = Bipartite {
            left_adj: vec![vec![0], vec![0]],
            n_right: 1,
        };
        assert_eq!(b.max_matching(), 1);
    }

    #[test]
    fn matching_augmenting_path() {
        // l0-{r0}, l1-{r0,r1}: Kuhn must reroute l1 to r1. Matching 2.
        let b = Bipartite {
            left_adj: vec![vec![0], vec![0, 1]],
            n_right: 2,
        };
        assert_eq!(b.max_matching(), 2);
    }

    #[test]
    fn matching_empty() {
        let b = Bipartite {
            left_adj: vec![],
            n_right: 0,
        };
        assert_eq!(b.max_matching(), 0);
    }
}
