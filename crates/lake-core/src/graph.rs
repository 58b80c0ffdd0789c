//! A labeled property graph.
//!
//! Used three ways in the platform, mirroring the survey: (1) as the
//! storage model of the graph store (Neo4j stand-in, §4.2), (2) as the
//! substrate for graph-based metadata models — Aurum's enterprise knowledge
//! graph, HANDLE, DomainNet's value network (§5.2.3, §6.4), and (3) for
//! provenance graphs (§6.7).

use crate::error::{LakeError, Result};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Node identifier within one [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Edge identifier within one [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node: label + property map.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node label (e.g. `Dataset`, `Attribute`, `Hub`).
    pub label: String,
    /// Arbitrary properties.
    pub props: BTreeMap<String, Value>,
}

/// A directed edge: label + weight + property map.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge label (relationship type).
    pub label: String,
    /// Weight (similarity score for EKG edges; 1.0 by default).
    pub weight: f64,
    /// Arbitrary properties.
    pub props: BTreeMap<String, Value>,
}

/// A directed labeled property graph with adjacency indexes.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

impl PropertyGraph {
    /// An empty graph.
    pub fn new() -> PropertyGraph {
        PropertyGraph::default()
    }

    /// Add a node with the given label; returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        self.nodes.push(Node { label: label.into(), props: BTreeMap::new() });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Add a node with properties.
    pub fn add_node_with(
        &mut self,
        label: impl Into<String>,
        props: Vec<(&str, Value)>,
    ) -> NodeId {
        let id = self.add_node(label);
        for (k, v) in props {
            self.set_prop(id, k, v);
        }
        id
    }

    /// Set a node property.
    pub fn set_prop(&mut self, id: NodeId, key: impl Into<String>, value: Value) {
        self.nodes[id.0].props.insert(key.into(), value);
    }

    /// Add a directed edge with weight 1.0.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: impl Into<String>) -> EdgeId {
        self.add_weighted_edge(from, to, label, 1.0)
    }

    /// Add a directed weighted edge.
    pub fn add_weighted_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: impl Into<String>,
        weight: f64,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { from, to, label: label.into(), weight, props: BTreeMap::new() });
        self.out[from.0].push(id);
        self.inc[to.0].push(id);
        id
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Access an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.out[id.0].iter().map(move |e| &self.edges[e.0])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.inc[id.0].iter().map(move |e| &self.edges[e.0])
    }

    /// Neighbors reachable by one outgoing edge (with the edge).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &Edge)> {
        self.out_edges(id).map(|e| (e.to, e))
    }

    /// Neighbors reaching `id` by one edge (with the edge).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &Edge)> {
        self.in_edges(id).map(|e| (e.from, e))
    }

    /// Undirected neighbors (successors ∪ predecessors), deduplicated.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .successors(id)
            .map(|(n, _)| n)
            .chain(self.predecessors(id).map(|(n, _)| n))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Nodes with the given label.
    pub fn nodes_with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        self.node_ids().filter(move |id| self.nodes[id.0].label == label)
    }

    /// First node whose property `key` equals `value`.
    pub fn find_by_prop(&self, key: &str, value: &Value) -> Option<NodeId> {
        self.node_ids().find(|id| self.nodes[id.0].props.get(key) == Some(value))
    }

    /// Breadth-first search from `start` following outgoing edges whose
    /// label passes `edge_ok`; returns visited nodes in BFS order
    /// (including `start`).
    pub fn bfs(&self, start: NodeId, mut edge_ok: impl FnMut(&Edge) -> bool) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[start.0] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for eid in &self.out[n.0] {
                let e = &self.edges[eid.0];
                if edge_ok(e) && !seen[e.to.0] {
                    seen[e.to.0] = true;
                    queue.push_back(e.to);
                }
            }
        }
        order
    }

    /// Shortest (hop-count) directed path from `a` to `b`, if one exists.
    pub fn shortest_path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[a.0] = true;
        queue.push_back(a);
        while let Some(n) = queue.pop_front() {
            for eid in &self.out[n.0] {
                let e = &self.edges[eid.0];
                if !seen[e.to.0] {
                    seen[e.to.0] = true;
                    prev[e.to.0] = Some(n);
                    if e.to == b {
                        let mut path = vec![b];
                        let mut cur = n;
                        loop {
                            path.push(cur);
                            match prev[cur.0] {
                                Some(p) => cur = p,
                                None => break,
                            }
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(e.to);
                }
            }
        }
        None
    }

    /// Topological order of all nodes, or an error if the graph has a
    /// directed cycle. Used by DAG-based organization (KAYAK scheduling).
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let mut indeg: Vec<usize> = vec![0; self.nodes.len()];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: std::collections::VecDeque<NodeId> = self
            .node_ids()
            .filter(|n| indeg[n.0] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for eid in &self.out[n.0] {
                let t = self.edges[eid.0].to;
                indeg[t.0] -= 1;
                if indeg[t.0] == 0 {
                    queue.push_back(t);
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(LakeError::invalid("graph contains a cycle"));
        }
        Ok(order)
    }

    /// Weakly connected components; returns a component id per node.
    pub fn components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; self.nodes.len()];
        let mut next = 0;
        for start in 0..self.nodes.len() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = next;
            while let Some(n) = stack.pop() {
                for eid in self.out[n].iter().chain(self.inc[n].iter()) {
                    let e = &self.edges[eid.0];
                    for m in [e.from.0, e.to.0] {
                        if comp[m] == usize::MAX {
                            comp[m] = next;
                            stack.push(m);
                        }
                    }
                }
            }
            next += 1;
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (PropertyGraph, [NodeId; 4]) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let d = g.add_node("D");
        g.add_edge(a, b, "e");
        g.add_edge(a, c, "e");
        g.add_edge(b, d, "e");
        g.add_edge(c, d, "e");
        (g, [a, b, c, d])
    }

    #[test]
    fn adjacency_works() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.successors(a).count(), 2);
        assert_eq!(g.predecessors(d).count(), 2);
        assert_eq!(g.neighbors(b), vec![a, d]);
    }

    #[test]
    fn bfs_visits_all_reachable() {
        let (g, [a, _, _, d]) = diamond();
        let order = g.bfs(a, |_| true);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], a);
        assert_eq!(*order.last().unwrap(), d);
    }

    #[test]
    fn shortest_path_in_diamond() {
        let (g, [a, _, _, d]) = diamond();
        let p = g.shortest_path(a, d).unwrap();
        assert_eq!(p.len(), 3);
        assert!(g.shortest_path(d, a).is_none());
        assert_eq!(g.shortest_path(a, a).unwrap(), vec![a]);
    }

    #[test]
    fn topo_order_and_cycle_detection() {
        let (g, [a, _, _, d]) = diamond();
        let order = g.topo_order().unwrap();
        assert_eq!(order[0], a);
        assert_eq!(*order.last().unwrap(), d);

        let mut cyc = PropertyGraph::new();
        let x = cyc.add_node("X");
        let y = cyc.add_node("Y");
        cyc.add_edge(x, y, "e");
        cyc.add_edge(y, x, "e");
        assert!(cyc.topo_order().is_err());
    }

    #[test]
    fn components_split() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_edge(a, b, "e");
        let comp = g.components();
        assert_eq!(comp[a.0], comp[b.0]);
        assert_ne!(comp[a.0], comp[c.0]);
    }

    #[test]
    fn props_and_find() {
        let mut g = PropertyGraph::new();
        let a = g.add_node_with("Dataset", vec![("name", Value::str("sales"))]);
        assert_eq!(g.find_by_prop("name", &Value::str("sales")), Some(a));
        assert!(g.find_by_prop("name", &Value::str("x")).is_none());
    }

    #[test]
    fn labels_filter() {
        let (g, _) = diamond();
        assert_eq!(g.nodes_with_label("A").count(), 1);
        assert_eq!(g.nodes_with_label("Z").count(), 0);
    }
}
