//! Undirected graph representation, generators, and traversal algorithms
//! for selfish load-balancing networks.
//!
//! This crate is the network substrate of the reproduction of
//! *Adolphs & Berenbrink, "Distributed Selfish Load Balancing with Weights
//! and Speeds"* (PODC 2012). The paper models the computing network as an
//! undirected graph `G = (V, E)` whose vertices are processors and whose
//! edges are communication links restricting task migration. Everything the
//! protocols and the spectral analysis need from the network lives here:
//!
//! * [`Graph`] — a compact CSR-style adjacency structure with O(1) degree
//!   queries and cache-friendly neighbor iteration,
//! * [`generators`] — the graph families of the paper's Table 1 (complete,
//!   ring, path, mesh, torus, hypercube) plus auxiliary families used in the
//!   test suite and experiments,
//! * [`traversal`] — BFS, connectivity, eccentricities and the exact
//!   diameter `diam(G)` used by Observation 3.28 and Lemma 1.5.
//!
//! # Example
//!
//! ```
//! use slb_graphs::{generators, NodeId};
//!
//! let g = generators::hypercube(4); // 16 nodes, degree 4
//! assert_eq!(g.node_count(), 16);
//! assert_eq!(g.max_degree(), 4);
//! assert!(g.is_connected());
//! // `d_ij = max(deg(i), deg(j))` from the paper's protocol:
//! let (i, j) = (NodeId(0), NodeId(1));
//! assert_eq!(g.d_max_endpoint(i, j), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Curated pedantic hardening (promoted to errors by CI's `-D warnings`):
// index math must not truncate silently, hot-path APIs must not
// clone-by-value, float equality must be a deliberate act, and a panic
// must state its invariant (`expect`, never `unwrap`). Scoped to library
// code — tests compare exact deterministic outputs all the time.
#![cfg_attr(
    not(test),
    warn(
        clippy::needless_pass_by_value,
        clippy::cast_possible_truncation,
        clippy::float_cmp,
        clippy::unwrap_used
    )
)]

mod builder;
pub mod generators;
mod graph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use graph::{EdgeId, Graph, GraphError, NodeId};
