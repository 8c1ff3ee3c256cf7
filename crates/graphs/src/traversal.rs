//! Breadth-first traversal, connectivity, and distance computations.
//!
//! The paper's bounds reference the diameter `diam(G)` twice: Lemma 1.5
//! (Mohar's bound `diam(G) ≥ 4/(n·λ₂)`) and Observation 3.28 (the
//! improvement over \[6\] is at least `Ω(Δ·diam(G))`). Both are validated in
//! the test suites against the exact diameters computed here.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance marker for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: usize = usize::MAX;

/// BFS distances from `source` to every node; unreachable nodes get
/// [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use slb_graphs::{generators, traversal, NodeId};
/// let g = generators::path(4);
/// let d = traversal::bfs_distances(&g, NodeId(0));
/// assert_eq!(d, vec![0, 1, 2, 3]);
/// ```
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    assert!(source.index() < g.node_count(), "source out of range");
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::with_capacity(g.node_count());
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// The eccentricity of `source`: the largest BFS distance to any node, or
/// `None` if some node is unreachable.
pub fn eccentricity(g: &Graph, source: NodeId) -> Option<usize> {
    let dist = bfs_distances(g, source);
    let mut ecc = 0usize;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// The exact diameter via all-pairs BFS, or `None` for disconnected graphs.
///
/// O(n·(n + m)); fine for the experiment sizes (n ≤ a few thousand).
pub fn diameter(g: &Graph) -> Option<usize> {
    let mut diam = 0usize;
    for v in g.nodes() {
        diam = diam.max(eccentricity(g, v)?);
    }
    Some(diam)
}

/// Labels each node with a component index in `0..component_count`; labels
/// are assigned in order of first discovery scanning nodes `0..n`.
pub fn component_labels(g: &Graph) -> Vec<usize> {
    let mut labels = vec![usize::MAX; g.node_count()];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for s in g.nodes() {
        if labels[s.index()] != usize::MAX {
            continue;
        }
        labels[s.index()] = next;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if labels[u.index()] == usize::MAX {
                    labels[u.index()] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    labels
}

/// The number of connected components.
///
/// By Lemma 1.4(2) of the paper this equals the multiplicity of the
/// Laplacian eigenvalue 0, which the spectral test suite cross-checks.
pub fn connected_components(g: &Graph) -> usize {
    component_labels(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_ring() {
        let g = generators::ring(6);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn eccentricity_and_diameter_path() {
        let g = generators::path(5);
        assert_eq!(eccentricity(&g, NodeId(0)), Some(4));
        assert_eq!(eccentricity(&g, NodeId(2)), Some(2));
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, NodeId(0)), None);
    }

    #[test]
    fn components_counted_and_labeled() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(connected_components(&g), 3);
        assert_eq!(component_labels(&g), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn torus_diameter() {
        // diam(C_r x C_c) = floor(r/2) + floor(c/2).
        let g = generators::torus(4, 6);
        assert_eq!(diameter(&g), Some(2 + 3));
    }

    #[test]
    fn hypercube_diameter_is_dimension() {
        for d in 1..=6 {
            let g = generators::hypercube(d);
            assert_eq!(diameter(&g), Some(d as usize));
        }
    }

    #[test]
    fn unreachable_constant_is_max() {
        assert_eq!(UNREACHABLE, usize::MAX);
    }
}
