//! A property-graph store — the Neo4j stand-in.
//!
//! Backs graph-shaped datasets (§4.2 personal data lake), graph metadata
//! models, and — through its *triple view* — the SPARQL-like federated
//! querying of semantic data lakes (Ontario/Squerall, §7.2): every node
//! property and edge is exposed as a `(subject, predicate, object)` triple
//! that triple patterns match against.

use lake_core::{LakeError, NodeId, PropertyGraph, Result, Value};
use lake_core::sync::LeafRwLock;
use std::collections::BTreeMap;

/// An RDF-ish triple derived from the property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    /// Subject: a node, rendered as `label#id` or its `name` property.
    pub subject: String,
    /// Predicate: property key or edge label.
    pub predicate: String,
    /// Object: property value or target node name.
    pub object: Value,
}

/// One component of a triple pattern: bound to a constant or a variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Must equal this constant.
    Const(Value),
    /// A named variable (`?x`) to bind.
    Var(String),
}

impl Term {
    /// Parse `?name` into a variable, anything else into a constant.
    pub fn parse(s: &str) -> Term {
        if let Some(v) = s.strip_prefix('?') {
            Term::Var(v.to_string())
        } else {
            Term::Const(Value::parse_infer(s))
        }
    }

    fn matches(&self, v: &Value, binding: &BTreeMap<String, Value>) -> bool {
        match self {
            Term::Const(c) => c == v,
            Term::Var(name) => binding.get(name).map(|b| b == v).unwrap_or(true),
        }
    }

    fn bind(&self, v: &Value, binding: &mut BTreeMap<String, Value>) {
        if let Term::Var(name) = self {
            binding.entry(name.clone()).or_insert_with(|| v.clone());
        }
    }
}

/// A `(s, p, o)` pattern of [`Term`]s.
#[derive(Debug, Clone)]
pub struct TriplePattern {
    /// Subject term.
    pub s: Term,
    /// Predicate term.
    pub p: Term,
    /// Object term.
    pub o: Term,
}

/// A named-graph store over [`PropertyGraph`]s.
#[derive(Debug)]
pub struct GraphStore {
    graphs: LeafRwLock<BTreeMap<String, PropertyGraph>>,
}

impl Default for GraphStore {
    fn default() -> GraphStore {
        GraphStore::new()
    }
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> GraphStore {
        GraphStore {
            graphs: LeafRwLock::new(BTreeMap::new(), "store.graph.graphs"),
        }
    }

    /// Store (or replace) a named graph.
    pub fn put_graph(&self, name: &str, graph: PropertyGraph) {
        self.graphs.write().insert(name.to_string(), graph);
    }

    /// Clone out a named graph.
    pub fn get_graph(&self, name: &str) -> Result<PropertyGraph> {
        self.graphs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| LakeError::not_found(name))
    }

    /// Graph names, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        self.graphs.read().keys().cloned().collect()
    }

    /// Remove a named graph.
    pub fn drop_graph(&self, name: &str) -> Result<()> {
        self.graphs
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| LakeError::not_found(name))
    }

    /// Run `f` over a named graph without cloning it.
    pub fn with_graph<R>(&self, name: &str, f: impl FnOnce(&PropertyGraph) -> R) -> Result<R> {
        let graphs = self.graphs.read();
        let g = graphs.get(name).ok_or_else(|| LakeError::not_found(name))?;
        Ok(f(g))
    }

    /// Materialize the triple view of a named graph.
    ///
    /// Triples: for every node `n`, `(name(n), prop_key, prop_value)` per
    /// property plus `(name(n), "a", label)`; for every edge,
    /// `(name(from), edge_label, name(to))`.
    pub fn triples(&self, name: &str) -> Result<Vec<Triple>> {
        self.with_graph(name, |g| {
            let node_name = |id: NodeId| -> String {
                match g.node(id).props.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => format!("{}#{}", g.node(id).label, id.0),
                }
            };
            let mut out = Vec::new();
            for id in g.node_ids() {
                let subj = node_name(id);
                out.push(Triple {
                    subject: subj.clone(),
                    predicate: "a".to_string(),
                    object: Value::Str(g.node(id).label.clone()),
                });
                for (k, v) in &g.node(id).props {
                    out.push(Triple { subject: subj.clone(), predicate: k.clone(), object: v.clone() });
                }
            }
            for eid in g.edge_ids() {
                let e = g.edge(eid);
                out.push(Triple {
                    subject: node_name(e.from),
                    predicate: e.label.clone(),
                    object: Value::Str(node_name(e.to)),
                });
            }
            out
        })
    }

    /// Match a conjunction of triple patterns against a named graph,
    /// returning all variable bindings (a miniature SPARQL BGP evaluator).
    pub fn match_patterns(
        &self,
        name: &str,
        patterns: &[TriplePattern],
    ) -> Result<Vec<BTreeMap<String, Value>>> {
        let triples = self.triples(name)?;
        let mut bindings: Vec<BTreeMap<String, Value>> = vec![BTreeMap::new()];
        for pat in patterns {
            let mut next = Vec::new();
            for binding in &bindings {
                for t in &triples {
                    let subj = Value::Str(t.subject.clone());
                    let pred = Value::Str(t.predicate.clone());
                    if pat.s.matches(&subj, binding)
                        && pat.p.matches(&pred, binding)
                        && pat.o.matches(&t.object, binding)
                    {
                        let mut b = binding.clone();
                        pat.s.bind(&subj, &mut b);
                        pat.p.bind(&pred, &mut b);
                        pat.o.bind(&t.object, &mut b);
                        next.push(b);
                    }
                }
            }
            next.sort();
            next.dedup();
            bindings = next;
            if bindings.is_empty() {
                break;
            }
        }
        Ok(bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphStore {
        let mut g = PropertyGraph::new();
        let ada = g.add_node_with("Person", vec![("name", Value::str("ada")), ("age", Value::Int(36))]);
        let alan = g.add_node_with("Person", vec![("name", Value::str("alan"))]);
        let delft = g.add_node_with("City", vec![("name", Value::str("delft"))]);
        g.add_edge(ada, delft, "lives_in");
        g.add_edge(alan, delft, "lives_in");
        g.add_edge(ada, alan, "knows");
        let s = GraphStore::new();
        s.put_graph("social", g);
        s
    }

    #[test]
    fn put_get_names() {
        let s = sample();
        assert_eq!(s.graph_names(), vec!["social"]);
        assert_eq!(s.get_graph("social").unwrap().node_count(), 3);
        assert!(s.get_graph("none").is_err());
    }

    #[test]
    fn triples_cover_props_labels_edges() {
        let s = sample();
        let ts = s.triples("social").unwrap();
        assert!(ts.iter().any(|t| t.subject == "ada" && t.predicate == "a" && t.object == Value::str("Person")));
        assert!(ts.iter().any(|t| t.subject == "ada" && t.predicate == "age" && t.object == Value::Int(36)));
        assert!(ts.iter().any(|t| t.subject == "ada" && t.predicate == "lives_in" && t.object == Value::str("delft")));
    }

    #[test]
    fn single_pattern_match() {
        let s = sample();
        let pats = [TriplePattern {
            s: Term::Var("p".into()),
            p: Term::Const(Value::str("lives_in")),
            o: Term::Const(Value::str("delft")),
        }];
        let res = s.match_patterns("social", &pats).unwrap();
        assert_eq!(res.len(), 2);
        let names: Vec<&Value> = res.iter().map(|b| &b["p"]).collect();
        assert!(names.contains(&&Value::str("ada")));
        assert!(names.contains(&&Value::str("alan")));
    }

    #[test]
    fn join_across_patterns() {
        let s = sample();
        // Who knows someone living in delft?
        let pats = [
            TriplePattern {
                s: Term::Var("x".into()),
                p: Term::Const(Value::str("knows")),
                o: Term::Var("y".into()),
            },
            TriplePattern {
                s: Term::Var("y".into()),
                p: Term::Const(Value::str("lives_in")),
                o: Term::Const(Value::str("delft")),
            },
        ];
        let res = s.match_patterns("social", &pats).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["x"], Value::str("ada"));
        assert_eq!(res[0]["y"], Value::str("alan"));
    }

    #[test]
    fn unmatched_pattern_yields_empty() {
        let s = sample();
        let pats = [TriplePattern {
            s: Term::Var("x".into()),
            p: Term::Const(Value::str("hates")),
            o: Term::Var("y".into()),
        }];
        assert!(s.match_patterns("social", &pats).unwrap().is_empty());
    }

    #[test]
    fn term_parse() {
        assert_eq!(Term::parse("?x"), Term::Var("x".into()));
        assert_eq!(Term::parse("42"), Term::Const(Value::Int(42)));
        assert_eq!(Term::parse("delft"), Term::Const(Value::str("delft")));
    }
}
