//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use slb_graphs::{generators, traversal, Graph, NodeId};

/// Strategy: a random simple graph as (n, edge set).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(40)).prop_map(move |pairs| {
            let mut seen = std::collections::BTreeSet::new();
            let edges: Vec<(usize, usize)> = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .filter(|e| seen.insert(*e))
                .collect();
            Graph::from_edges(n, edges).expect("filtered edges are valid")
        })
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        prop_assert_eq!(g.degree_sum(), 2 * g.edge_count());
        let by_nodes: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(by_nodes, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn neighbor_rows_sorted_unique(g in arb_graph()) {
        for v in g.nodes() {
            let row = g.neighbors(v);
            for w in row.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let labels = traversal::component_labels(&g);
        let k = traversal::connected_components(&g);
        prop_assert_eq!(labels.len(), g.node_count());
        prop_assert!(labels.iter().all(|&l| l < k));
        // Every edge stays within one component.
        for (a, b) in g.edges() {
            prop_assert_eq!(labels[a.index()], labels[b.index()]);
        }
        // Connectivity consistent with component count.
        prop_assert_eq!(g.is_connected(), k == 1);
    }

    #[test]
    fn bfs_distances_are_metric_like(g in arb_graph()) {
        let src = NodeId(0);
        let dist = traversal::bfs_distances(&g, src);
        prop_assert_eq!(dist[0], 0);
        // Distance changes by at most 1 across an edge.
        for (a, b) in g.edges() {
            let (da, db) = (dist[a.index()], dist[b.index()]);
            if da != traversal::UNREACHABLE && db != traversal::UNREACHABLE {
                prop_assert!(da.abs_diff(db) <= 1);
            } else {
                prop_assert_eq!(da, db); // both unreachable
            }
        }
    }

    #[test]
    fn random_regular_invariants(n in 3usize..16, seed in 0u64..100) {
        use rand::SeedableRng;
        let d = 2usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng);
        prop_assert_eq!(g.regularity(), Some(d));
        prop_assert!(g.is_connected());
    }

    #[test]
    fn gnp_always_connected(n in 2usize..24, seed in 0u64..50) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.1, &mut rng);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.node_count(), n);
    }
}

#[test]
fn family_labels_are_distinct() {
    use generators::Family;
    let fams = [
        Family::Complete { n: 4 },
        Family::Ring { n: 4 },
        Family::Path { n: 4 },
        Family::Mesh { rows: 2, cols: 2 },
        Family::Torus { rows: 3, cols: 3 },
        Family::Hypercube { d: 2 },
        Family::Star { n: 4 },
    ];
    let labels: std::collections::BTreeSet<&str> = fams.iter().map(|f| f.label()).collect();
    assert_eq!(labels.len(), fams.len());
}
