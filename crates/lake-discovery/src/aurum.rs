//! Aurum: data discovery via an enterprise knowledge graph (§6.2.1).
//!
//! "Aurum first profiles each table column by adding signatures …
//! cardinality, data distribution, and a representation of data values
//! (i.e., MinHash). Then, it indexes these signatures using
//! locality-sensitive hashing. When two columns have their signatures
//! indexed into the same bucket after hashing, an edge is created between
//! corresponding nodes, and their similarity score is stored as the edge
//! weight. Aurum also detects primary-foreign key relationships … instead
//! of conducting an all-pair comparison of O(n²) complexity … it reduces
//! to linear complexity. When changes occur in the data, Aurum does not
//! re-read it from scratch. Only if the difference compared to the
//! original values is above a threshold, it updates column signatures and
//! the hypergraph."
//!
//! The EKG here is: nodes = columns; weighted edges = content similarity
//! (MinHash-estimated Jaccard), name similarity (TF-IDF cosine), and
//! PK-FK candidates; hyperedges = tables grouping their columns (realized
//! as the `table` component of [`ColumnRef`]). Discovery primitives
//! ([`Aurum::similar_content_to`] etc.) back the SRQL-like query language
//! in `lake-query`.

use crate::corpus::{ColumnProfile, ColumnRef, TableCorpus, SIGNATURE_LEN};
use crate::{DiscoverySystem, SystemInfo};
use lake_core::par::{self, Parallelism};
use lake_index::lsh::LshIndex;
use lake_index::tfidf::TfIdfCorpus;

/// Kinds of EKG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Instance-value content similarity.
    Content,
    /// Attribute-name similarity.
    Name,
    /// Primary-key/foreign-key candidate.
    PkFk,
}

/// One EKG edge.
#[derive(Debug, Clone, Copy)]
pub struct EkgEdge {
    /// Source profile index.
    pub from: usize,
    /// Target profile index.
    pub to: usize,
    /// Similarity weight.
    pub weight: f64,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Aurum configuration.
#[derive(Debug, Clone, Copy)]
pub struct AurumConfig {
    /// Minimum estimated Jaccard for a content edge.
    pub content_threshold: f64,
    /// Minimum TF-IDF cosine for a name edge.
    pub name_threshold: f64,
    /// Fraction of changed values above which a column is re-profiled
    /// (the incremental-maintenance threshold).
    pub update_threshold: f64,
}

impl Default for AurumConfig {
    fn default() -> Self {
        AurumConfig { content_threshold: 0.25, name_threshold: 0.6, update_threshold: 0.1 }
    }
}

/// The Aurum system.
#[derive(Debug, Default)]
pub struct Aurum {
    /// Configuration.
    pub config: AurumConfig,
    /// Worker count for EKG construction in [`DiscoverySystem::build`].
    pub par: Parallelism,
    edges: Vec<EkgEdge>,
    adjacency: Vec<Vec<usize>>, // profile idx → edge indexes
    lsh: Option<LshIndex>,
    /// Pending (unapplied) change fractions per profile — staleness model.
    pending_changes: Vec<f64>,
    /// Number of signature recomputations performed (E4 metric).
    pub reprofile_count: usize,
}

impl Aurum {
    /// A system with the given config.
    pub fn new(config: AurumConfig) -> Aurum {
        Aurum { config, ..Default::default() }
    }

    /// The EKG edges.
    pub fn edges(&self) -> &[EkgEdge] {
        &self.edges
    }

    fn add_edge(&mut self, from: usize, to: usize, weight: f64, kind: EdgeKind) {
        let idx = self.edges.len();
        self.edges.push(EkgEdge { from, to, weight, kind });
        self.adjacency[from].push(idx);
        self.adjacency[to].push(idx);
    }

    /// Edges incident to a profile.
    pub fn edges_of(&self, profile: usize) -> impl Iterator<Item = &EkgEdge> {
        self.adjacency
            .get(profile)
            .into_iter()
            .flatten()
            .map(move |&e| &self.edges[e])
    }

    /// Columns content-similar to `at`, ranked by weight.
    pub fn similar_content_to(&self, corpus: &TableCorpus, at: ColumnRef) -> Vec<(ColumnRef, f64)> {
        self.neighbors_of_kind(corpus, at, EdgeKind::Content)
    }

    /// Columns name-similar to `at`.
    pub fn similar_name_to(&self, corpus: &TableCorpus, at: ColumnRef) -> Vec<(ColumnRef, f64)> {
        self.neighbors_of_kind(corpus, at, EdgeKind::Name)
    }

    /// PK-FK candidate partners of `at`.
    pub fn pkfk_of(&self, corpus: &TableCorpus, at: ColumnRef) -> Vec<(ColumnRef, f64)> {
        self.neighbors_of_kind(corpus, at, EdgeKind::PkFk)
    }

    fn neighbors_of_kind(
        &self,
        corpus: &TableCorpus,
        at: ColumnRef,
        kind: EdgeKind,
    ) -> Vec<(ColumnRef, f64)> {
        let Some(pi) = corpus.profile_index(at) else { return Vec::new() };
        let mut out: Vec<(ColumnRef, f64)> = self
            .edges_of(pi)
            .filter(|e| e.kind == kind)
            .map(|e| {
                let other = if e.from == pi { e.to } else { e.from };
                (corpus.profiles()[other].at, e.weight)
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// A discovery *path* between two columns through EKG edges, if one
    /// exists within `max_hops` (Aurum's path primitive).
    pub fn path_between(
        &self,
        corpus: &TableCorpus,
        a: ColumnRef,
        b: ColumnRef,
        max_hops: usize,
    ) -> Option<Vec<ColumnRef>> {
        let (pa, pb) = (corpus.profile_index(a)?, corpus.profile_index(b)?);
        let n = corpus.profiles().len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut dist = vec![usize::MAX; n];
        dist[pa] = 0;
        let mut queue = std::collections::VecDeque::from([pa]);
        while let Some(cur) = queue.pop_front() {
            if cur == pb {
                let mut path = vec![pb];
                let mut c = pb;
                while let Some(p) = prev[c] {
                    path.push(p);
                    c = p;
                }
                path.reverse();
                return Some(path.into_iter().map(|i| corpus.profiles()[i].at).collect());
            }
            if dist[cur] >= max_hops {
                continue;
            }
            for &ei in &self.adjacency[cur] {
                let e = self.edges[ei];
                let nxt = if e.from == cur { e.to } else { e.from };
                if dist[nxt] == usize::MAX {
                    dist[nxt] = dist[cur] + 1;
                    prev[nxt] = Some(cur);
                    queue.push_back(nxt);
                }
            }
        }
        None
    }

    /// Report a change to a column covering `fraction` of its values.
    /// Signatures are only recomputed once accumulated changes exceed
    /// [`AurumConfig::update_threshold`] — the maintenance strategy whose
    /// cost/staleness trade-off experiment E4 sweeps. Returns whether a
    /// re-profile happened.
    pub fn observe_change(
        &mut self,
        corpus: &mut TableCorpus,
        at: ColumnRef,
        fraction: f64,
    ) -> bool {
        let Some(pi) = corpus.profile_index(at) else { return false };
        if self.pending_changes.len() < corpus.profiles().len() {
            self.pending_changes.resize(corpus.profiles().len(), 0.0);
        }
        self.pending_changes[pi] += fraction;
        if self.pending_changes[pi] > self.config.update_threshold {
            self.pending_changes[pi] = 0.0;
            self.reprofile_count += 1;
            // Re-read just this column and rebuild its LSH entry.
            if let Some(lsh) = &mut self.lsh {
                upsert_signature(lsh, pi, &corpus.profiles()[pi]);
            }
            true
        } else {
            false
        }
    }

    /// Total staleness: sum of pending (unapplied) change fractions.
    pub fn staleness(&self) -> f64 {
        self.pending_changes.iter().sum()
    }

    /// Export the EKG as a property graph: `Attribute` nodes (with table
    /// and column names), `Table` nodes, `belongs_to` hyperedge membership
    /// (the "different granularities" hyperedges of §5.2.3), and weighted
    /// `content_similar` / `name_similar` / `pkfk` edges.
    ///
    /// Storing this graph in the graph store makes the discovery metadata
    /// itself queryable with triple patterns — "an EKG … allows users to
    /// query it with a graph query language".
    pub fn export_graph(&self, corpus: &TableCorpus) -> lake_core::PropertyGraph {
        use lake_core::Value;
        let mut g = lake_core::PropertyGraph::new();
        // Table nodes.
        let table_nodes: Vec<_> = corpus
            .tables()
            .iter()
            .map(|t| g.add_node_with("Table", vec![("name", Value::str(t.name.clone()))]))
            .collect();
        // Attribute nodes + membership hyperedges.
        let attr_nodes: Vec<_> = corpus
            .profiles()
            .iter()
            .map(|p| {
                let n = g.add_node_with(
                    "Attribute",
                    vec![
                        ("name", Value::str(format!(
                            "{}.{}",
                            corpus.tables()[p.at.table].name, p.name
                        ))),
                        ("column", Value::str(p.name.clone())),
                        ("cardinality", Value::Int(p.domain.len() as i64)),
                    ],
                );
                g.add_edge(n, table_nodes[p.at.table], "belongs_to");
                n
            })
            .collect();
        for e in &self.edges {
            let label = match e.kind {
                EdgeKind::Content => "content_similar",
                EdgeKind::Name => "name_similar",
                EdgeKind::PkFk => "pkfk",
            };
            g.add_weighted_edge(attr_nodes[e.from], attr_nodes[e.to], label, e.weight);
        }
        g
    }
}

/// The LSH index over column signatures that Aurum's EKG and
/// [`crate::IncrementalDiscovery`] share, keyed by profile index. Band
/// hashing fans out over `par` workers. Empty-domain (all-null) columns
/// are never indexed: their sentinel signatures collide with each other
/// in every band and would fabricate cliques.
pub(crate) fn signature_lsh(profiles: &[ColumnProfile], par: Parallelism) -> LshIndex {
    let mut lsh = LshIndex::new(SIGNATURE_LEN / 4, 4);
    let items = profiles
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.signature.is_empty_domain())
        .map(|(i, p)| (i, p.signature.clone()))
        .collect();
    lsh.insert_batch(items, par);
    lsh
}

/// The delta of [`signature_lsh`] for one re-profiled column: replace its
/// entry, or drop it when the column became all-null.
pub(crate) fn upsert_signature(lsh: &mut LshIndex, pi: usize, profile: &ColumnProfile) {
    if profile.signature.is_empty_domain() {
        lsh.remove(pi);
    } else {
        lsh.insert(pi, profile.signature.clone());
    }
}

impl DiscoverySystem for Aurum {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "Aurum",
            criteria: vec!["Instance value overlap", "Attribute name", "PK-FK candidate"],
            metrics: vec!["Jaccard similarity (MinHash)", "Cosine similarity (TF-IDF)"],
            technique: vec!["Hypergraph"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        let profiles = corpus.profiles();
        self.edges.clear();
        self.adjacency = vec![Vec::new(); profiles.len()];
        self.pending_changes = vec![0.0; profiles.len()];

        // Content edges via LSH candidate pairs (near-linear).
        let lsh = signature_lsh(profiles, self.par);
        // Jaccard estimation per candidate pair is pure; edges are added
        // serially in pair order afterwards.
        let pairs = lsh.candidate_pairs();
        let weights: Vec<f64> =
            par::map(self.par, &pairs, |&(a, b)| profiles[a].jaccard_est(&profiles[b]));
        for (&(a, b), &w) in pairs.iter().zip(&weights) {
            if w >= self.config.content_threshold {
                self.add_edge(a, b, w, EdgeKind::Content);
                // PK-FK: one side a key candidate, other side repeating.
                let (pa, pb) = (&profiles[a], &profiles[b]);
                if pa.unique != pb.unique {
                    self.add_edge(a, b, w, EdgeKind::PkFk);
                }
            }
        }

        // Name edges via TF-IDF cosine over attribute names: vectorize and
        // score each row in parallel, then add edges serially in row order.
        let docs: Vec<&[String]> = profiles.iter().map(|p| p.name_tokens.as_slice()).collect();
        let model = TfIdfCorpus::fit(docs);
        let vecs: Vec<_> = par::map(self.par, profiles, |p| model.vectorize(&p.name_tokens));
        let name_rows: Vec<Vec<(usize, f64)>> =
            par::map_range(self.par, 0..profiles.len(), |a| {
                (a + 1..profiles.len())
                    .filter(|&b| profiles[a].at.table != profiles[b].at.table)
                    .filter_map(|b| {
                        let w = lake_index::tfidf::sparse_cosine(&vecs[a], &vecs[b]);
                        (w >= self.config.name_threshold).then_some((b, w))
                    })
                    .collect()
            });
        for (a, row) in name_rows.into_iter().enumerate() {
            for (b, w) in row {
                self.add_edge(a, b, w, EdgeKind::Name);
            }
        }
        self.lsh = Some(lsh);
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        // Union of edge weights from any column of the query table.
        // Content/PK-FK edges carry instance evidence; name-only edges are
        // weaker (many lakes reuse attribute names across unrelated
        // sources), so they are discounted in the table-level ranking.
        let mut scores: Vec<(usize, f64)> = Vec::new();
        for (pi, _) in corpus.table_columns(query) {
            for e in self.edges_of(pi) {
                let w = match e.kind {
                    EdgeKind::Name => e.weight * 0.5,
                    _ => e.weight,
                };
                scores.push((if e.from == pi { e.to } else { e.from }, w));
            }
        }
        corpus.aggregate_to_tables(query, scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};

    fn built() -> (TableCorpus, Aurum) {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        (corpus, aurum)
    }

    #[test]
    fn ekg_links_planted_joinable_columns() {
        let lake = generate_lake(&LakeGenConfig::default());
        let truth = lake.truth.clone();
        let corpus = TableCorpus::new(lake.tables);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        // Every planted joinable pair should be connected by a content edge.
        let mut found = 0;
        let mut total = 0;
        for p in &truth.joinable {
            total += 1;
            let ta = corpus.table_index(&p.table_a).unwrap();
            let tb = corpus.table_index(&p.table_b).unwrap();
            let ca = corpus.tables()[ta].column_index(&p.column_a).unwrap();
            let a = ColumnRef { table: ta, column: ca };
            let hits = aurum.similar_content_to(&corpus, a);
            if hits.iter().any(|(c, _)| c.table == tb) {
                found += 1;
            }
        }
        assert!(found * 10 >= total * 8, "found {found}/{total} planted pairs");
    }

    #[test]
    fn top_k_prefers_group_members() {
        let lake = generate_lake(&LakeGenConfig::default());
        let truth = lake.truth.clone();
        let corpus = TableCorpus::new(lake.tables);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        let q = corpus.table_index("g0_t0").unwrap();
        let top = aurum.top_k_related(&corpus, q, 2);
        assert!(!top.is_empty());
        for (t, _) in &top {
            let name = &corpus.tables()[*t].name;
            assert!(truth.tables_related("g0_t0", name), "{name} not related");
        }
    }

    #[test]
    fn pkfk_pairs_unique_with_non_unique() {
        let (corpus, aurum) = built();
        for e in aurum.edges().iter().filter(|e| e.kind == EdgeKind::PkFk) {
            let pa = &corpus.profiles()[e.from];
            let pb = &corpus.profiles()[e.to];
            assert_ne!(pa.unique, pb.unique);
        }
    }

    #[test]
    fn paths_traverse_the_graph() {
        let (corpus, aurum) = built();
        // Any content edge gives a 1-hop path.
        if let Some(e) = aurum.edges().iter().find(|e| e.kind == EdgeKind::Content) {
            let a = corpus.profiles()[e.from].at;
            let b = corpus.profiles()[e.to].at;
            let p = aurum.path_between(&corpus, a, b, 3).unwrap();
            assert_eq!(p.first(), Some(&a));
            assert_eq!(p.last(), Some(&b));
        }
    }

    #[test]
    fn incremental_update_respects_threshold() {
        let lake = generate_lake(&LakeGenConfig::default());
        let mut corpus = TableCorpus::new(lake.tables);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        let at = ColumnRef { table: 0, column: 0 };
        // Small changes accumulate without re-profiling.
        assert!(!aurum.observe_change(&mut corpus, at, 0.04));
        assert!(aurum.staleness() > 0.0);
        assert_eq!(aurum.reprofile_count, 0);
        // Crossing the threshold triggers one re-profile and resets.
        assert!(aurum.observe_change(&mut corpus, at, 0.08));
        assert_eq!(aurum.reprofile_count, 1);
        assert_eq!(aurum.staleness(), 0.0);
    }

    #[test]
    fn ekg_exports_to_a_property_graph() {
        let (corpus, aurum) = built();
        let g = aurum.export_graph(&corpus);
        assert_eq!(g.nodes_with_label("Table").count(), corpus.len());
        assert_eq!(g.nodes_with_label("Attribute").count(), corpus.profiles().len());
        // Every attribute belongs to exactly one table.
        for a in g.nodes_with_label("Attribute").collect::<Vec<_>>() {
            let memberships = g.out_edges(a).filter(|e| e.label == "belongs_to").count();
            assert_eq!(memberships, 1);
        }
        // Similarity edges survive the export with weights.
        let sim_edges = g
            .edge_ids()
            .map(|id| g.edge(id))
            .filter(|e| e.label == "content_similar")
            .count();
        assert_eq!(
            sim_edges,
            aurum.edges().iter().filter(|e| e.kind == EdgeKind::Content).count()
        );
    }

    #[test]
    fn all_null_columns_get_no_content_edges() {
        // Regression: two all-null columns produced empty-domain MinHash
        // signatures (every position u64::MAX), collided in every LSH
        // band, and were reported content-similar with Jaccard 1.0.
        use lake_core::{Table, Value};
        let t1 = Table::from_rows(
            "left",
            &["payload", "always_null"],
            vec![
                vec![Value::str("a"), Value::Null],
                vec![Value::str("b"), Value::Null],
            ],
        )
        .unwrap();
        let t2 = Table::from_rows(
            "right",
            &["payload", "also_null"],
            vec![
                vec![Value::str("x"), Value::Null],
                vec![Value::str("y"), Value::Null],
            ],
        )
        .unwrap();
        let corpus = TableCorpus::new(vec![t1, t2]);
        let mut aurum = Aurum::default();
        aurum.build(&corpus);
        let null_a = ColumnRef { table: 0, column: 1 };
        let null_b = ColumnRef { table: 1, column: 1 };
        assert!(aurum.similar_content_to(&corpus, null_a).is_empty());
        assert!(aurum.similar_content_to(&corpus, null_b).is_empty());
        assert!(aurum.pkfk_of(&corpus, null_a).is_empty());
        // No content/PK-FK edge anywhere touches an empty-domain profile.
        let (pa, pb) = (
            corpus.profile_index(null_a).unwrap(),
            corpus.profile_index(null_b).unwrap(),
        );
        for e in aurum.edges().iter().filter(|e| e.kind != EdgeKind::Name) {
            assert!(![e.from, e.to].contains(&pa));
            assert!(![e.from, e.to].contains(&pb));
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut seq = Aurum { par: Parallelism::sequential(), ..Aurum::default() };
        seq.build(&corpus);
        let mut par4 = Aurum { par: Parallelism::fixed(4), ..Aurum::default() };
        par4.build(&corpus);
        assert_eq!(seq.edges().len(), par4.edges().len());
        for (a, b) in seq.edges().iter().zip(par4.edges()) {
            assert_eq!((a.from, a.to, a.kind), (b.from, b.to, b.kind));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "edge weights must be bit-identical");
        }
    }

    #[test]
    fn info_matches_survey_row() {
        let a = Aurum::default();
        let info = a.info();
        assert_eq!(info.name, "Aurum");
        assert!(info.technique.contains(&"Hypergraph"));
    }
}
