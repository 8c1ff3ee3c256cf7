//! The [`Graph`] type: a compact, immutable, undirected simple graph.

use std::fmt;

/// Identifier of a node (processor) in a [`Graph`].
///
/// Node ids are dense indices `0..n`, which lets every per-node quantity in
/// the simulator (loads, speeds, deviations) live in a plain `Vec`.
///
/// # Example
///
/// ```
/// use slb_graphs::NodeId;
/// let v = NodeId(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge ids index into [`Graph::edges`]; each undirected edge `{i, j}` is
/// stored exactly once with `i < j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced while constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph under construction.
        node_count: usize,
    },
    /// An edge connected a node to itself; the model uses simple graphs.
    SelfLoop {
        /// The node with the self loop.
        node: usize,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// First endpoint (smaller index).
        a: usize,
        /// Second endpoint (larger index).
        b: usize,
    },
    /// A graph with zero nodes was requested.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => write!(
                f,
                "edge endpoint {node} out of range for graph with {node_count} nodes"
            ),
            GraphError::SelfLoop { node } => {
                write!(f, "self loop at node {node} not allowed in a simple graph")
            }
            GraphError::DuplicateEdge { a, b } => {
                write!(f, "duplicate undirected edge ({a}, {b})")
            }
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph in CSR (compressed sparse row)
/// form.
///
/// This is the network `G = (V, E)` of the paper: vertices are processors,
/// edges are the links over which selfish tasks may migrate. The structure
/// is immutable after construction (via [`GraphBuilder`](crate::GraphBuilder)
/// or a generator from [`generators`](crate::generators)), which the
/// simulator exploits by sharing one graph across threads without locking.
///
/// # Representation
///
/// Neighbors of all nodes are stored in one flat array partitioned by a
/// `row_starts` offset table, so `neighbors(v)` is a contiguous slice and
/// `deg(v)` is a subtraction. Undirected edges are additionally stored once
/// each (with `i < j`) for edge-indexed iteration (potential drops and flows
/// are sums over `E`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    row_starts: Vec<usize>,
    adjacency: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
    max_degree: usize,
    min_degree: usize,
}

impl Graph {
    /// Builds a graph from `n` nodes and a list of undirected edges.
    ///
    /// Edges may be given in any order and with endpoints in either order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, an endpoint is out of range, an
    /// edge is a self loop, or an undirected edge appears more than once.
    ///
    /// # Example
    ///
    /// ```
    /// use slb_graphs::Graph;
    /// // A triangle.
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
    /// assert_eq!(g.edge_count(), 3);
    /// assert_eq!(g.degree(slb_graphs::NodeId(1)), 2);
    /// # Ok::<(), slb_graphs::GraphError>(())
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut normalized: Vec<(usize, usize)> = Vec::new();
        for (a, b) in edges {
            if a >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: a,
                    node_count: n,
                });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: b,
                    node_count: n,
                });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        for w in normalized.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge {
                    a: w[0].0,
                    b: w[0].1,
                });
            }
        }

        let mut degrees = vec![0usize; n];
        for &(a, b) in &normalized {
            degrees[a] += 1;
            degrees[b] += 1;
        }
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        row_starts.push(0);
        for &d in &degrees {
            acc += d;
            row_starts.push(acc);
        }
        let mut cursor = row_starts[..n].to_vec();
        let mut adjacency = vec![NodeId(0); acc];
        for &(a, b) in &normalized {
            adjacency[cursor[a]] = NodeId(b);
            cursor[a] += 1;
            adjacency[cursor[b]] = NodeId(a);
            cursor[b] += 1;
        }
        // Within each row the neighbors are already sorted for endpoint `a`
        // (edges sorted lexicographically), but rows for `b` endpoints
        // interleave; sort each row for deterministic, binary-searchable
        // neighbor slices.
        for v in 0..n {
            adjacency[row_starts[v]..row_starts[v + 1]].sort_unstable();
        }

        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let min_degree = degrees.iter().copied().min().unwrap_or(0);
        Ok(Graph {
            row_starts,
            adjacency,
            edges: normalized
                .into_iter()
                .map(|(a, b)| (NodeId(a), NodeId(b)))
                .collect(),
            max_degree,
            min_degree,
        })
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree `deg(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.row_starts[v.0 + 1] - self.row_starts[v.0]
    }

    /// The maximum degree `Δ` of the network.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The minimum degree of the network.
    #[inline]
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// `d_ij = max(deg(i), deg(j))`, the normalization used by the paper's
    /// migration probabilities (written `d_{i,j}` / `d_vw` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn d_max_endpoint(&self, i: NodeId, j: NodeId) -> usize {
        self.degree(i).max(self.degree(j))
    }

    /// The sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[self.row_starts[v.0]..self.row_starts[v.0 + 1]]
    }

    /// The offset of `v`'s neighbor row in the flat CSR adjacency, for
    /// `v` in `0..=n`: `neighbors(v)` occupies `row_start(v)..row_start(v + 1)`,
    /// and `row_start(n)` is `2|E|`. Per-edge arrays aligned with the
    /// adjacency index a node's slots by it.
    ///
    /// # Panics
    ///
    /// Panics if `v > n`.
    #[inline]
    pub fn row_start(&self, v: usize) -> usize {
        self.row_starts[v]
    }

    /// Whether `{i, j}` is an edge, by binary search over the neighbor row.
    pub fn has_edge(&self, i: NodeId, j: NodeId) -> bool {
        if i.0 >= self.node_count() || j.0 >= self.node_count() {
            return false;
        }
        self.neighbors(i).binary_search(&j).is_ok()
    }

    /// The undirected edge list; each edge appears once as `(i, j)` with
    /// `i < j`, sorted lexicographically.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count()).map(NodeId)
    }

    /// Whether the graph is connected (singleton graphs count as connected).
    ///
    /// Connectivity matters for the paper's analysis: by Lemma 1.4 the
    /// algebraic connectivity `λ₂` is positive exactly for connected graphs,
    /// and all convergence bounds assume `λ₂ > 0`.
    pub fn is_connected(&self) -> bool {
        crate::traversal::connected_components(self) == 1
    }

    /// The sum of all degrees, i.e. `2|E|`.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns the degree sequence sorted descending.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut seq: Vec<usize> = self.nodes().map(|v| self.degree(v)).collect();
        seq.sort_unstable_by(|a, b| b.cmp(a));
        seq
    }

    /// Checks the graph is `k`-regular and returns `k` if so.
    pub fn regularity(&self) -> Option<usize> {
        if self.max_degree == self.min_degree {
            Some(self.max_degree)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree_sum(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.regularity(), Some(2));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        assert!(g.is_connected());
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = Graph::from_edges(5, [(4, 0), (2, 0), (0, 1), (3, 2)]).unwrap();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(4)]);
        for (i, j) in g.edges() {
            assert!(g.has_edge(*i, *j));
            assert!(g.has_edge(*j, *i));
            assert!(i < j);
        }
        // Degrees 3, 1, 2, 1, 1: each row starts where the last one ends.
        let starts: Vec<usize> = (0..=5).map(|v| g.row_start(v)).collect();
        assert_eq!(starts, [0, 3, 4, 6, 7, 8]);
        assert_eq!(g.row_start(5), g.degree_sum());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, []), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                node_count: 2
            })
        );
    }

    #[test]
    fn rejects_duplicate_even_if_flipped() {
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { a: 0, b: 1 })
        );
    }

    #[test]
    fn singleton_is_connected_with_no_edges() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.degree(NodeId(0)), 0);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn d_max_endpoint_matches_paper_definition() {
        // Star with center 0: deg(0) = 3, leaves degree 1.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.d_max_endpoint(NodeId(0), NodeId(1)), 3);
        assert_eq!(g.d_max_endpoint(NodeId(1), NodeId(0)), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn degree_sequence_sorted_descending() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        assert_eq!(g.degree_sequence(), vec![3, 2, 2, 1]);
        assert_eq!(g.regularity(), None);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(EdgeId(7).to_string(), "e7");
        let err = GraphError::DuplicateEdge { a: 1, b: 2 };
        assert!(err.to_string().contains("duplicate"));
    }
}
