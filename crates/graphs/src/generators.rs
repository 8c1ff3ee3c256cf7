//! Generators for the graph families of the paper and auxiliary families.
//!
//! Table 1 of the paper reports convergence bounds for the complete graph,
//! ring & path, mesh & torus, and the hypercube; those generators are the
//! load-bearing ones here. The remaining families (star, random graphs)
//! are used by the test suite, the expander figure, and as adversarial
//! topologies in the examples.
//!
//! All generators return connected simple graphs and panic on degenerate
//! parameters (documented per function), mirroring the convention of
//! constructing experiment topologies up front where a panic is a
//! configuration bug rather than a runtime condition.

use crate::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// The complete graph `K_n`: every pair of distinct nodes is adjacent.
///
/// Row 1 of Table 1. `λ₂(K_n) = n`, `Δ = n − 1`, `diam = 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph needs at least one node");
    let mut b = GraphBuilder::with_edge_capacity(n, n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i, j);
        }
    }
    b.build().expect("complete graph construction is valid")
}

/// The path `P_n` on `n` nodes (`n − 1` edges).
///
/// Row 2 of Table 1 (with the ring). `λ₂(P_n) = 2(1 − cos(π/n))`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one node");
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.build().expect("path construction is valid")
}

/// The ring (cycle) `C_n` on `n ≥ 3` nodes.
///
/// Row 2 of Table 1. `λ₂(C_n) = 2(1 − cos(2π/n))`.
///
/// # Panics
///
/// Panics if `n < 3` (smaller cycles degenerate to multi-edges).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring needs at least three nodes");
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
    }
    b.build().expect("ring construction is valid")
}

/// The `rows × cols` mesh (2-dimensional grid) with open boundaries.
///
/// Row 3 of Table 1 (with the torus). The mesh is the Cartesian product
/// `P_rows □ P_cols`, so `λ₂ = min(λ₂(P_rows), λ₂(P_cols))`.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn mesh(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "mesh needs positive dimensions");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build().expect("mesh construction is valid")
}

/// The `rows × cols` torus (grid with wrap-around links).
///
/// Row 3 of Table 1. Cartesian product `C_rows □ C_cols`; 4-regular for
/// `rows, cols ≥ 3`.
///
/// # Panics
///
/// Panics if `rows < 3 || cols < 3` (wrap-around would create duplicate
/// edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus needs both dimensions at least 3"
    );
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build().expect("torus construction is valid")
}

/// The largest node count, and the largest edge count, of a graph that
/// [`Family::check_size`] accepts: `2^24`. It admits `ring:2^24`,
/// `hypercube:20` (about 10.5M edges) and `complete:5793`, whose one-round
/// `slb sweep` with one task per node peaks at 1.6, 0.5 and 0.8 GiB.
const MAX_GRAPH_SIZE: u128 = 1 << 24;

/// The largest task count `m` of a cell that runs per task (`diffusion`
/// and `best-response`, whose engine holds per-task weight and assignment
/// vectors): `2^24`, the graph size limit's scale. The count engine holds
/// counts, not tasks, and runs up to the exact-load limit of `2^53`.
pub const MAX_PER_TASK_POPULATION: u64 = 1 << 24;

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
///
/// Row 4 of Table 1. `λ₂(Q_d) = 2`, `Δ = d = log₂ n`, `diam = d`.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 30`.
pub fn hypercube(d: u32) -> Graph {
    assert!(d > 0, "hypercube needs dimension at least 1");
    assert!(d <= 30, "hypercube dimension too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::with_edge_capacity(n, n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1usize << bit);
            if v < u {
                b.add_edge(v, u);
            }
        }
    }
    b.build().expect("hypercube construction is valid")
}

/// The star `S_n`: node 0 is adjacent to all `n − 1` leaves.
///
/// `λ₂(S_n) = 1`; the extreme-degree graph used in tests of `d_ij`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star needs at least one node");
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(0, i);
    }
    b.build().expect("star construction is valid")
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// i.i.d. with probability `p`, and a uniform spanning-path patch connects
/// stray components so experiments always get a usable network.
///
/// The patching means the result is *not* exactly `G(n, p)`; it is the
/// standard "connected `G(n, p)`" testbed topology.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "gnp needs at least one node");
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(i, j);
            }
        }
    }
    let g = b.build().expect("gnp construction is valid");
    if g.is_connected() {
        return g;
    }
    // Patch: connect consecutive components with one random edge each.
    let labels = crate::traversal::component_labels(&g);
    let component_count = labels.iter().copied().max().map_or(1, |m| m + 1);
    let mut representatives: Vec<Vec<usize>> = vec![Vec::new(); component_count];
    for (v, &c) in labels.iter().enumerate() {
        representatives[c].push(v);
    }
    for w in 0..component_count.saturating_sub(1) {
        let a = *representatives[w]
            .choose(rng)
            .expect("components are nonempty");
        let bnode = *representatives[w + 1]
            .choose(rng)
            .expect("components are nonempty");
        b.add_edge_dedup(a, bnode);
    }
    let g = b.build().expect("patched gnp construction is valid");
    debug_assert!(g.is_connected());
    g
}

/// A random `d`-regular graph via the configuration model with rejection
/// (retry until simple), then conditioned on connectivity.
///
/// Random regular graphs are expanders with high probability, so this is the
/// "good `λ₂`" family for experiments beyond Table 1.
///
/// # Panics
///
/// Panics if `n * d` is odd, `d >= n`, or `d == 0`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d > 0, "degree must be positive");
    assert!(d < n, "degree must be smaller than node count");
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut b = GraphBuilder::with_edge_capacity(n, n * d / 2);
        #[expect(
            clippy::disallowed_types,
            reason = "insert/contains dedup only; never iterated, so no order dependence"
        )]
        let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
        for pair in stubs.chunks_exact(2) {
            let (a, c) = (pair[0], pair[1]);
            if a == c {
                continue 'attempt;
            }
            if !seen.insert((a.min(c), a.max(c))) {
                continue 'attempt;
            }
            b.add_edge(a, c);
        }
        let g = b
            .build()
            .expect("configuration model produced simple graph");
        if g.is_connected() {
            return g;
        }
    }
    panic!("failed to sample a connected {d}-regular graph on {n} nodes after 1000 attempts");
}

/// Enumeration of the named topology families used throughout the
/// experiment harness, carrying their size parameters.
///
/// This mirrors the rows of Table 1 and lets experiment configuration be
/// data rather than code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `K_n`.
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// Cycle `C_n`.
    Ring {
        /// Number of nodes.
        n: usize,
    },
    /// Path `P_n`.
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Open grid.
    Mesh {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Wrap-around grid.
    Torus {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// `Q_d` on `2^d` nodes.
    Hypercube {
        /// Dimension.
        d: u32,
    },
    /// Star `S_n`.
    Star {
        /// Number of nodes.
        n: usize,
    },
}

impl Family {
    /// Instantiates the family as a [`Graph`].
    pub fn build(self) -> Graph {
        match self {
            Family::Complete { n } => complete(n),
            Family::Ring { n } => ring(n),
            Family::Path { n } => path(n),
            Family::Mesh { rows, cols } => mesh(rows, cols),
            Family::Torus { rows, cols } => torus(rows, cols),
            Family::Hypercube { d } => hypercube(d),
            Family::Star { n } => star(n),
        }
    }

    /// Checks that [`Family::build`] can build the family: the generators'
    /// own preconditions, and a size limit of `2^24` on both the node and
    /// the edge count. Every subcommand calls this before it
    /// builds a graph, so a bad size is rejected with this message instead
    /// of the generator's panic or an allocation that cannot succeed.
    ///
    /// # Errors
    ///
    /// Returns the violated precondition, phrased as the generator states
    /// it, or the node and edge counts past the limit.
    pub fn check_size(self) -> Result<(), String> {
        let violated = match self {
            Family::Complete { n: 0 } => Some("complete graph needs at least one node"),
            Family::Path { n: 0 } => Some("path needs at least one node"),
            Family::Star { n: 0 } => Some("star needs at least one node"),
            Family::Ring { n } if n < 3 => Some("ring needs at least three nodes"),
            Family::Mesh { rows, cols } if rows == 0 || cols == 0 => {
                Some("mesh needs positive dimensions")
            }
            Family::Torus { rows, cols } if rows < 3 || cols < 3 => {
                Some("torus needs both dimensions at least 3")
            }
            Family::Hypercube { d } if !(1..=30).contains(&d) => {
                Some("hypercube needs a dimension in 1..=30")
            }
            _ => None,
        };
        if let Some(message) = violated {
            return Err(message.to_string());
        }
        let (nodes, edges) = self.size();
        if nodes <= MAX_GRAPH_SIZE && edges <= MAX_GRAPH_SIZE {
            return Ok(());
        }
        let lead = match self {
            Family::Hypercube { d } => format!("hypercube dimension {d} gives "),
            _ => String::new(),
        };
        Err(format!(
            "{lead}{nodes} nodes and {edges} edges, past the size limit of 2^24 nodes \
             and 2^24 edges"
        ))
    }

    /// `(nodes, edges)` of the instantiated graph, for a family that meets
    /// the generators' preconditions. Computed in `u128` (saturating where
    /// a product can pass it), so no size parameter overflows it.
    fn size(self) -> (u128, u128) {
        let wide = |x: usize| x as u128;
        match self {
            Family::Complete { n } => (wide(n), wide(n) * (wide(n) - 1) / 2),
            Family::Ring { n } => (wide(n), wide(n)),
            Family::Path { n } | Family::Star { n } => (wide(n), wide(n) - 1),
            Family::Mesh { rows, cols } => {
                let (r, c) = (wide(rows), wide(cols));
                (r * c, (r * (c - 1)).saturating_add(c * (r - 1)))
            }
            Family::Torus { rows, cols } => {
                let nodes = wide(rows) * wide(cols);
                (nodes, nodes.saturating_mul(2))
            }
            Family::Hypercube { d } => {
                let nodes = 1u128 << d;
                (nodes, nodes / 2 * u128::from(d))
            }
        }
    }

    /// Number of nodes the instantiated graph will have.
    pub fn node_count(self) -> usize {
        match self {
            Family::Complete { n }
            | Family::Ring { n }
            | Family::Path { n }
            | Family::Star { n } => n,
            Family::Mesh { rows, cols } | Family::Torus { rows, cols } => rows * cols,
            Family::Hypercube { d } => 1usize << d,
        }
    }

    /// A short lowercase label for tables and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Family::Complete { .. } => "complete",
            Family::Ring { .. } => "ring",
            Family::Path { .. } => "path",
            Family::Mesh { .. } => "mesh",
            Family::Torus { .. } => "torus",
            Family::Hypercube { .. } => "hypercube",
            Family::Star { .. } => "star",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::Complete { n } => write!(f, "complete(n={n})"),
            Family::Ring { n } => write!(f, "ring(n={n})"),
            Family::Path { n } => write!(f, "path(n={n})"),
            Family::Mesh { rows, cols } => write!(f, "mesh({rows}x{cols})"),
            Family::Torus { rows, cols } => write!(f, "torus({rows}x{cols})"),
            Family::Hypercube { d } => write!(f, "hypercube(d={d})"),
            Family::Star { n } => write!(f, "star(n={n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.regularity(), Some(5));
        assert_eq!(traversal::diameter(&g), Some(1));
    }

    #[test]
    fn complete_k1_and_k2() {
        assert_eq!(complete(1).edge_count(), 0);
        let k2 = complete(2);
        assert_eq!(k2.edge_count(), 1);
        assert!(k2.is_connected());
    }

    #[test]
    fn path_counts() {
        let g = path(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(traversal::diameter(&g), Some(6));
    }

    #[test]
    fn ring_counts() {
        let g = ring(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.regularity(), Some(2));
        assert_eq!(traversal::diameter(&g), Some(4));
    }

    #[test]
    fn mesh_counts() {
        let g = mesh(3, 4);
        assert_eq!(g.node_count(), 12);
        // Edges: 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 = 17.
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(traversal::diameter(&g), Some(5));
    }

    #[test]
    fn mesh_single_row_is_path() {
        let g = mesh(1, 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn torus_counts() {
        let g = torus(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 40);
        assert_eq!(g.regularity(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_counts() {
        let g = hypercube(5);
        assert_eq!(g.node_count(), 32);
        assert_eq!(g.edge_count(), 32 * 5 / 2);
        assert_eq!(g.regularity(), Some(5));
        assert_eq!(traversal::diameter(&g), Some(5));
    }

    #[test]
    fn star_counts() {
        let g = star(9);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.max_degree(), 8);
        assert_eq!(traversal::diameter(&g), Some(2));
    }

    #[test]
    fn gnp_is_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for p in [0.01, 0.1, 0.5] {
            let g = gnp_connected(40, p, &mut rng);
            assert_eq!(g.node_count(), 40);
            assert!(g.is_connected(), "p={p}");
        }
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_regular(24, 4, &mut rng);
        assert_eq!(g.regularity(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn check_size_mirrors_the_generator_preconditions() {
        let mut families = vec![Family::Hypercube { d: 31 }];
        for k in 0..5 {
            families.extend([
                Family::Complete { n: k },
                Family::Ring { n: k },
                Family::Path { n: k },
                Family::Star { n: k },
                Family::Hypercube { d: k as u32 },
            ]);
            for other in 0..5 {
                families.push(Family::Mesh {
                    rows: k,
                    cols: other,
                });
                families.push(Family::Torus {
                    rows: k,
                    cols: other,
                });
            }
        }
        for family in families {
            let built = std::panic::catch_unwind(|| family.build()).is_ok();
            assert_eq!(family.check_size().is_ok(), built, "{family:?}");
        }
    }

    #[test]
    fn check_size_bounds_nodes_and_edges() {
        // The largest members every command must still accept.
        for family in [
            Family::Ring { n: 1 << 20 },
            Family::Ring { n: 1 << 24 },
            Family::Hypercube { d: 20 },
            Family::Complete { n: 5793 },
            Family::Torus {
                rows: 2048,
                cols: 4096,
            },
        ] {
            assert_eq!(family.check_size(), Ok(()), "{family}");
        }
        // One past the limit, and sizes whose counts overflow `usize`.
        for family in [
            Family::Ring { n: (1 << 24) + 1 },
            Family::Path { n: (1 << 24) + 2 },
            Family::Hypercube { d: 21 },
            Family::Complete { n: 5794 },
            Family::Complete { n: 100_000 },
            Family::Complete { n: usize::MAX },
            Family::Mesh {
                rows: usize::MAX,
                cols: usize::MAX,
            },
            Family::Torus {
                rows: 4096,
                cols: 4096,
            },
        ] {
            let err = family.check_size().unwrap_err();
            assert!(err.contains("past the size limit"), "{family}: {err}");
        }
        let err = Family::Hypercube { d: 30 }.check_size().unwrap_err();
        assert!(
            err.starts_with("hypercube dimension 30 gives 1073741824 nodes"),
            "{err}"
        );
        let err = Family::Complete { n: 100_000 }.check_size().unwrap_err();
        assert!(
            err.starts_with("100000 nodes and 4999950000 edges"),
            "{err}"
        );
    }

    #[test]
    fn family_roundtrip() {
        let fam = Family::Hypercube { d: 3 };
        assert_eq!(fam.node_count(), 8);
        assert_eq!(fam.build().node_count(), 8);
        assert_eq!(fam.label(), "hypercube");
        assert_eq!(fam.to_string(), "hypercube(d=3)");
        assert_eq!(Family::Mesh { rows: 4, cols: 8 }.node_count(), 32);
        assert_eq!(Family::Torus { rows: 4, cols: 8 }.label(), "torus");
    }

    #[test]
    #[should_panic(expected = "ring needs at least three nodes")]
    fn ring_too_small_panics() {
        ring(2);
    }

    #[test]
    #[should_panic(expected = "torus needs both dimensions at least 3")]
    fn torus_too_small_panics() {
        torus(2, 5);
    }
}
