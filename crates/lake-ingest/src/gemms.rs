//! GEMMS: Generic and Extensible Metadata Management System (§5.1, §5.2.1).
//!
//! "For each input file, GEMMS first detects its format, then initiates a
//! corresponding parser to obtain the structural metadata (e.g., trees,
//! tables, and graphs) and metadata properties (e.g., header information).
//! A tree structure inference algorithm is implemented for structural
//! metadata extraction, which iterates semi-structured data in a
//! breadth-first manner, and detects the tree structure."
//!
//! [`Gemms::extract`] implements that pipeline on top of the
//! `lake-formats` detectors/parsers; [`infer_tree`] is the breadth-first
//! tree-structure inference that unifies the shapes of a document
//! collection into one annotated structure tree.

use lake_core::{DataType, Dataset, Json, Result, Schema};
use lake_formats::detect::{detect_format, parse_dataset};
use lake_formats::Format;
use std::collections::{BTreeMap, VecDeque};

/// A node of the inferred structure tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Path segment name (object key; `[]` for array elements; "" for root).
    pub name: String,
    /// Scalar type at this position, if it is ever a scalar.
    pub scalar: Option<DataType>,
    /// Fraction of observed occurrences where this node was present.
    pub support: f64,
    /// Child nodes, keyed by segment name.
    pub children: BTreeMap<String, TreeNode>,
}

impl TreeNode {
    fn new(name: &str) -> TreeNode {
        TreeNode { name: name.to_string(), scalar: None, support: 1.0, children: BTreeMap::new() }
    }

    /// Number of nodes in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.values().map(TreeNode::size).sum::<usize>()
    }

    /// Depth of this subtree (leaf = 0).
    pub fn depth(&self) -> usize {
        self.children.values().map(|c| 1 + c.depth()).max().unwrap_or(0)
    }

    /// Look up a child chain by dotted path.
    pub fn at(&self, path: &str) -> Option<&TreeNode> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.children.get(seg)?;
        }
        Some(cur)
    }
}

/// Structural metadata extracted from a dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum StructuralMetadata {
    /// Tabular data → its inferred schema.
    Table(Schema),
    /// Semi-structured data → the inferred structure tree.
    Tree(TreeNode),
    /// Graph data → node/edge counts and label inventory.
    Graph {
        /// Number of nodes.
        nodes: usize,
        /// Number of edges.
        edges: usize,
        /// Distinct node labels.
        labels: Vec<String>,
    },
    /// Log/text data → line count only (DATAMARAN handles structure).
    Opaque {
        /// Number of records/lines.
        records: usize,
    },
}

/// Metadata extracted by GEMMS for one input file.
#[derive(Debug, Clone)]
pub struct GemmsMetadata {
    /// Detected format.
    pub format: Format,
    /// Structural metadata.
    pub structure: StructuralMetadata,
    /// Metadata properties (header-ish information): key → value.
    pub properties: BTreeMap<String, String>,
    /// The parsed dataset itself (GEMMS loads while extracting).
    pub dataset: Dataset,
}

/// The GEMMS extractor.
#[derive(Debug, Clone, Default)]
pub struct Gemms;

impl Gemms {
    /// Run the GEMMS pipeline on one raw file: detect format, parse,
    /// extract structural metadata and properties.
    pub fn extract(&self, file_name: &str, content: &[u8]) -> Result<GemmsMetadata> {
        let format = detect_format(Some(file_name), content);
        let dataset = parse_dataset(file_stem(file_name), format, content)?;
        let structure = match &dataset {
            Dataset::Table(t) => StructuralMetadata::Table(t.schema()),
            Dataset::Documents(docs) => StructuralMetadata::Tree(infer_tree(docs)),
            Dataset::Graph(g) => {
                let mut labels: Vec<String> =
                    g.node_ids().map(|id| g.node(id).label.clone()).collect();
                labels.sort();
                labels.dedup();
                StructuralMetadata::Graph { nodes: g.node_count(), edges: g.edge_count(), labels }
            }
            Dataset::Log(lines) => StructuralMetadata::Opaque { records: lines.len() },
            Dataset::Text(_) => StructuralMetadata::Opaque { records: 1 },
        };
        let mut properties = BTreeMap::new();
        properties.insert("file_name".to_string(), file_name.to_string());
        properties.insert("format".to_string(), format.name().to_string());
        properties.insert("bytes".to_string(), content.len().to_string());
        properties.insert("records".to_string(), dataset.record_count().to_string());
        if let Dataset::Table(t) = &dataset {
            properties.insert(
                "header".to_string(),
                t.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>().join(","),
            );
        }
        Ok(GemmsMetadata { format, structure, properties, dataset })
    }
}

fn file_stem(name: &str) -> &str {
    name.rsplit('/').next().unwrap_or(name).split('.').next().unwrap_or(name)
}

/// Breadth-first tree-structure inference over a document collection.
///
/// All documents are merged into one structure tree; each node records the
/// fraction of parent occurrences in which it appeared (`support`), so
/// optional fields are visible. Array elements collapse under the `[]`
/// segment, and scalar types widen via [`DataType::unify`].
pub fn infer_tree(docs: &[Json]) -> TreeNode {
    let mut root = TreeNode::new("");
    // occurrence counters per node, tracked side-table by path.
    let mut occurrences: BTreeMap<String, usize> = BTreeMap::new();
    let mut parent_occurrences: BTreeMap<String, usize> = BTreeMap::new();

    // BFS over (path, json) pairs, as GEMMS describes.
    let mut queue: VecDeque<(String, &Json)> = docs.iter().map(|d| (String::new(), d)).collect();
    *parent_occurrences.entry(String::new()).or_insert(0) += docs.len();
    while let Some((path, j)) = queue.pop_front() {
        match j {
            Json::Object(m) => {
                for (k, v) in m {
                    let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    *occurrences.entry(child.clone()).or_insert(0) += 1;
                    *parent_occurrences.entry(child.clone()).or_insert(0) += 0;
                    queue.push_back((child, v));
                }
                // Children of this object get their parent count bumped.
                for k in m.keys() {
                    let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    *parent_occurrences.entry(child).or_insert(0) += 1;
                }
            }
            Json::Array(a) => {
                let child = if path.is_empty() { "[]".to_string() } else { format!("{path}.[]") };
                for v in a {
                    *occurrences.entry(child.clone()).or_insert(0) += 1;
                    *parent_occurrences.entry(child.clone()).or_insert(0) += 1;
                    queue.push_back((child.clone(), v));
                }
            }
            scalar => {
                let node = node_at(&mut root, &path);
                let t = scalar.to_value().data_type();
                node.scalar = Some(node.scalar.map_or(t, |s| s.unify(t)));
            }
        }
        if !path.is_empty() {
            node_at(&mut root, &path);
        }
    }

    // Compute supports: occurrences / parent-object count.
    fn set_support(
        node: &mut TreeNode,
        path: &str,
        occ: &BTreeMap<String, usize>,
        total_docs: usize,
    ) {
        for (name, child) in node.children.iter_mut() {
            let cpath = if path.is_empty() { name.clone() } else { format!("{path}.{name}") };
            let parent_n = if path.is_empty() {
                total_docs
            } else {
                occ.get(path).copied().unwrap_or(1)
            };
            let n = occ.get(&cpath).copied().unwrap_or(0);
            child.support = if parent_n == 0 { 0.0 } else { (n as f64 / parent_n as f64).min(1.0) };
            set_support(child, &cpath, occ, total_docs);
        }
    }
    set_support(&mut root, "", &occurrences, docs.len().max(1));
    root
}

fn node_at<'a>(root: &'a mut TreeNode, path: &str) -> &'a mut TreeNode {
    let mut cur = root;
    if path.is_empty() {
        return cur;
    }
    for seg in path.split('.') {
        cur = cur
            .children
            .entry(seg.to_string())
            .or_insert_with(|| TreeNode::new(seg));
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_formats::json::parse;

    #[test]
    fn infer_tree_merges_documents() {
        let docs = vec![
            parse(r#"{"name": "a", "age": 3, "addr": {"city": "x"}}"#).unwrap(),
            parse(r#"{"name": "b", "addr": {"city": "y", "zip": 1}}"#).unwrap(),
        ];
        let tree = infer_tree(&docs);
        assert!(tree.at("name").is_some());
        assert_eq!(tree.at("name").unwrap().scalar, Some(DataType::Str));
        assert_eq!(tree.at("age").unwrap().scalar, Some(DataType::Int));
        assert_eq!(tree.at("addr.city").unwrap().scalar, Some(DataType::Str));
        // "age" present in 1 of 2 docs.
        assert!((tree.at("age").unwrap().support - 0.5).abs() < 1e-9);
        assert!((tree.at("name").unwrap().support - 1.0).abs() < 1e-9);
        // "zip" present in 1 of 2 addr objects.
        assert!((tree.at("addr.zip").unwrap().support - 0.5).abs() < 1e-9);
    }

    #[test]
    fn infer_tree_handles_arrays_and_type_widening() {
        let docs = vec![parse(r#"{"xs": [1, 2.5, 3]}"#).unwrap()];
        let tree = infer_tree(&docs);
        let elem = tree.at("xs.[]").unwrap();
        assert_eq!(elem.scalar, Some(DataType::Float));
    }

    #[test]
    fn tree_size_and_depth() {
        let docs = vec![parse(r#"{"a": {"b": {"c": 1}}}"#).unwrap()];
        let tree = infer_tree(&docs);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.size(), 4);
        assert!(tree.at("a.b.c").is_some());
        assert!(tree.at("a.z").is_none());
    }

    #[test]
    fn extract_csv_yields_table_schema_and_properties() {
        let g = Gemms;
        let md = g.extract("data/sales.csv", b"id,city\n1,delft\n2,paris\n").unwrap();
        assert_eq!(md.format, Format::Csv);
        match &md.structure {
            StructuralMetadata::Table(s) => {
                assert_eq!(s.field("id").unwrap().dtype, DataType::Int);
            }
            other => panic!("expected table structure, got {other:?}"),
        }
        assert_eq!(md.properties["records"], "2");
        assert_eq!(md.properties["header"], "id,city");
        assert_eq!(md.dataset.record_count(), 2);
    }

    #[test]
    fn extract_json_yields_tree() {
        let g = Gemms;
        let md = g.extract("u.json", br#"{"user": {"id": 7}}"#).unwrap();
        match &md.structure {
            StructuralMetadata::Tree(t) => {
                assert_eq!(t.at("user.id").unwrap().scalar, Some(DataType::Int));
            }
            other => panic!("expected tree, got {other:?}"),
        }
    }

    #[test]
    fn extract_log_is_opaque() {
        let g = Gemms;
        let md = g.extract("s.log", b"2024 INFO a\n2024 WARN b\n").unwrap();
        assert_eq!(md.structure, StructuralMetadata::Opaque { records: 2 });
    }

    #[test]
    fn extract_malformed_json_errors() {
        let g = Gemms;
        assert!(g.extract("bad.json", b"{nope").is_err());
    }

    #[test]
    fn empty_document_collection() {
        let tree = infer_tree(&[]);
        assert_eq!(tree.size(), 1);
        assert_eq!(tree.depth(), 0);
    }
}
