//! A minimal directed-graph substrate.
//!
//! Both graphs of the DAC-2002 paper — the *communication constraint graph*
//! (Def. 2.1) and the *implementation graph* (Def. 2.4) — are plain
//! directed multigraphs with payloads on vertices and arcs. This crate
//! provides exactly that: an arena-allocated digraph with stable integer
//! ids and DOT export for inspecting results. Nothing here knows about
//! communication semantics; that lives in `ccs-core`.
//!
//! # Examples
//!
//! ```
//! use ccs_graph::Digraph;
//!
//! let mut g: Digraph<&str, f64> = Digraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let e = g.add_edge(a, b, 2.5);
//! assert_eq!(g.edge(e).data, 2.5);
//! assert_eq!(g.out_degree(a), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;

use std::fmt;

/// Stable identifier of a node within one [`Digraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Stable identifier of an edge within one [`Digraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An edge record: endpoints plus user payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge<E> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// User payload.
    pub data: E,
}

/// An arena-allocated directed multigraph.
///
/// Nodes and edges are never removed (synthesis only ever grows graphs),
/// which keeps every id valid for the graph's lifetime and makes the
/// representation a pair of flat `Vec`s plus adjacency lists.
///
/// # Examples
///
/// ```
/// use ccs_graph::Digraph;
///
/// let mut g: Digraph<(), u32> = Digraph::new();
/// let n0 = g.add_node(());
/// let n1 = g.add_node(());
/// let n2 = g.add_node(());
/// g.add_edge(n0, n1, 10);
/// g.add_edge(n1, n2, 20);
/// let downstream: Vec<_> = g.out_edges(n1).map(|(_, e)| e.dst).collect();
/// assert_eq!(downstream, vec![n2]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Digraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

impl<N, E> Digraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Digraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inc: Vec::new(),
        }
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Digraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out: Vec::with_capacity(nodes),
            inc: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, data: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(data);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds a directed edge and returns its id. Parallel edges and
    /// self-loops are allowed (it is a multigraph).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, data: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "unknown source {src}");
        assert!(dst.index() < self.nodes.len(), "unknown destination {dst}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, data });
        self.out[src.index()].push(id);
        self.inc[dst.index()].push(id);
        id
    }

    /// Immutable access to a node payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Immutable access to an edge record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an edge of this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge<E> {
        &self.edges[id.index()]
    }

    /// Mutable access to an edge payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an edge of this graph.
    pub fn edge_data_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edges[id.index()].data
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over `(id, payload)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(id, edge)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterates over the outgoing edges of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.out[n.index()].iter().map(move |&e| (e, self.edge(e)))
    }

    /// Iterates over the incoming edges of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.inc[n.index()].iter().map(move |&e| (e, self.edge(e)))
    }

    /// Out-degree of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out[n.index()].len()
    }

    /// In-degree of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inc[n.index()].len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Digraph<char, u32>, [NodeId; 4]) {
        let mut g = Digraph::new();
        let a = g.add_node('a');
        let b = g.add_node('b');
        let c = g.add_node('c');
        let d = g.add_node('d');
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn empty_graph() {
        let g: Digraph<(), ()> = Digraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_ids().count(), 0);
    }

    #[test]
    fn add_and_query() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), 'a');
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        let (eid, e) = g.out_edges(b).next().unwrap();
        assert_eq!(e.dst, d);
        assert_eq!(g.edge(eid).data, 3);
    }

    #[test]
    fn mutate_payloads() {
        let (mut g, [a, ..]) = diamond();
        *g.node_mut(a) = 'z';
        assert_eq!(*g.node(a), 'z');
        let e = g.edge_ids().next().unwrap();
        *g.edge_data_mut(e) = 99;
        assert_eq!(g.edge(e).data, 99);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: Digraph<(), u8> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(a, b, 1);
        g.add_edge(a, a, 2);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.in_degree(b), 2);
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn bad_endpoint_panics() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7), ());
    }

    #[test]
    fn iteration_orders_are_stable() {
        let (g, [a, b, c, d]) = diamond();
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids, vec![a, b, c, d]);
        let data: Vec<_> = g.edges().map(|(_, e)| e.data).collect();
        assert_eq!(data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(11).to_string(), "e11");
    }
}
