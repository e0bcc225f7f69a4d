//! The LR inequality graph `G^w_h` (Definition 15) and its maximum
//! matching: vertices are classes entirely left or right of position `h`,
//! edges the `≠_w` pairs across; LR-boundedness asks for a uniform bound
//! on its vertex covers. `G^w_h` is bipartite, so by König's theorem the
//! minimum vertex cover equals the maximum matching, which Kuhn's
//! augmenting paths compute.
//!
//! Theorem 9's clique graph `G_w` has no counterpart here: emptiness
//! realizes a lasso by periodic collapse instead (DESIGN.md §3).

use crate::classes::ClassStructure;
use std::collections::HashMap;

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
