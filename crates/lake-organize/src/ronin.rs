//! RONIN: hybrid data lake exploration (§6.1.3).
//!
//! "RONIN combines navigation using the above DAG-based structure with
//! metadata keyword search and joinable dataset search in a data lake."
//! It is a thin orchestrator: the organization DAG supplies hierarchical
//! browsing, an inverted keyword index supplies search, and column-domain
//! overlap supplies joinable-table pivots; the user can switch modality
//! mid-exploration (browse → search → pivot).

use crate::organization::{attribute_embeddings, build_optimized, Organization};
use lake_core::Table;
use lake_index::inverted::InvertedIndex;
use lake_index::tfidf::tokenize_identifier;

/// One RONIN exploration step result.
#[derive(Debug, Clone, PartialEq)]
pub enum Exploration {
    /// Organization node contents: child node ids and any attribute leaves.
    Browse {
        /// Child node indexes in the organization.
        children: Vec<usize>,
        /// Attributes at leaves directly below.
        attributes: Vec<(usize, usize)>,
    },
    /// Keyword hits: table indexes ranked by match count.
    Search(Vec<(usize, usize)>),
    /// Joinable pivots: `(table, overlap)` for a given column.
    Pivot(Vec<(usize, usize)>),
}

/// The RONIN explorer over a table corpus.
#[derive(Debug)]
pub struct Ronin {
    tables_meta: Vec<String>,
    organization: Organization,
    keyword_index: InvertedIndex,
    domain_index: InvertedIndex,
    num_columns: Vec<usize>,
}

impl Ronin {
    /// Build all three access structures over the tables.
    pub fn build(tables: &[Table]) -> Ronin {
        let embeddings = attribute_embeddings(tables, 32);
        let organization = build_optimized(&embeddings, 4);
        let mut keyword_index = InvertedIndex::new();
        let mut domain_index = InvertedIndex::new();
        let mut num_columns = Vec::new();
        for (ti, t) in tables.iter().enumerate() {
            let mut toks = tokenize_identifier(&t.name);
            for c in t.columns() {
                toks.extend(tokenize_identifier(&c.name));
            }
            keyword_index.insert(ti, toks);
            num_columns.push(t.num_columns());
            for (ci, c) in t.columns().iter().enumerate() {
                domain_index.insert(ti * 1000 + ci, c.text_domain());
            }
        }
        Ronin {
            tables_meta: tables.iter().map(|t| t.name.clone()).collect(),
            organization,
            keyword_index,
            domain_index,
            num_columns,
        }
    }

    /// The organization used for browsing.
    pub fn organization(&self) -> &Organization {
        &self.organization
    }

    /// Browse an organization node.
    pub fn browse(&self, node: usize) -> Exploration {
        let n = &self.organization.nodes[node];
        let mut attributes = Vec::new();
        let mut children = Vec::new();
        for &c in &n.children {
            match self.organization.nodes[c].attribute {
                Some(at) => attributes.push(at),
                None => children.push(c),
            }
        }
        Exploration::Browse { children, attributes }
    }

    /// Keyword search over table/column names.
    pub fn search(&self, keywords: &[&str]) -> Exploration {
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for ti in 0..self.tables_meta.len() {
            let toks = self.keyword_index.set_tokens(ti);
            let hits = keywords
                .iter()
                .filter(|k| toks.contains(&k.to_lowercase().as_str()))
                .count();
            if hits > 0 {
                counts.push((ti, hits));
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Exploration::Search(counts)
    }

    /// Pivot: tables joinable with column `(table, column)` by domain
    /// overlap, ranked.
    pub fn pivot(&self, table: usize, column: usize) -> Exploration {
        let key = table * 1000 + column;
        let mut per_table: Vec<(usize, usize)> = Vec::new();
        for (id, overlap) in self.domain_index.overlap_counts(key) {
            let t = id / 1000;
            if t == table {
                continue;
            }
            match per_table.iter_mut().find(|(ti, _)| *ti == t) {
                Some((_, o)) => *o = (*o).max(overlap),
                None => per_table.push((t, overlap)),
            }
        }
        per_table.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Exploration::Pivot(per_table)
    }

    /// Table name lookup.
    pub fn table_name(&self, table: usize) -> &str {
        &self.tables_meta[table]
    }

    /// Column count of a table (for rendering).
    pub fn num_columns(&self, table: usize) -> usize {
        self.num_columns[table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};

    fn ronin() -> (Ronin, Vec<Table>, lake_core::synth::GroundTruth) {
        let lake = generate_lake(&LakeGenConfig::default());
        (Ronin::build(&lake.tables), lake.tables, lake.truth)
    }

    #[test]
    fn browse_descends_from_root() {
        let (r, tables, _) = ronin();
        let Exploration::Browse { children, attributes } = r.browse(0) else {
            panic!("browse");
        };
        assert!(!children.is_empty() || !attributes.is_empty());
        // Full traversal reaches every attribute.
        let mut stack = vec![0usize];
        let mut leaves = 0;
        while let Some(n) = stack.pop() {
            let Exploration::Browse { children, attributes } = r.browse(n) else {
                panic!("browse {n}");
            };
            leaves += attributes.len();
            stack.extend(children);
        }
        let total_attrs: usize = tables.iter().map(|t| t.num_columns()).sum();
        assert_eq!(leaves, total_attrs);
    }

    #[test]
    fn keyword_search_finds_tables_by_column_name() {
        let (r, tables, _) = ronin();
        let Exploration::Search(hits) = r.search(&["customer"]) else {
            panic!()
        };
        assert!(!hits.is_empty());
        for (t, _) in &hits {
            let has = tables[*t]
                .columns()
                .iter()
                .any(|c| c.name.contains("customer"));
            assert!(has, "table {} lacks customer column", tables[*t].name);
        }
    }

    #[test]
    fn pivot_finds_joinable_group_members() {
        let (r, tables, truth) = ronin();
        let q = tables.iter().position(|t| t.name == "g0_t0").unwrap();
        // Pivot on the key column (index 0 by construction).
        let Exploration::Pivot(hits) = r.pivot(q, 0) else { panic!() };
        assert!(!hits.is_empty());
        let top_name = r.table_name(hits[0].0);
        assert!(truth.tables_related("g0_t0", top_name), "{top_name}");
    }

    #[test]
    fn search_misses_return_empty() {
        let (r, _, _) = ronin();
        let Exploration::Search(hits) = r.search(&["zzzunknown"]) else {
            panic!()
        };
        assert!(hits.is_empty());
    }
}
