//! The survey's Tables 1–3 and Fig. 2, generated from the
//! implementations: descriptive columns come from each system's own
//! self-description, measured columns from running it.

use crate::{grid, standard_corpus, standard_lake, Grid, Report, Row};
use lake::registry::{Function, REGISTRY};
use lake::users::Role;
use lake::DataLake;
use lake_core::{LakeError, Result};
use lake_discovery::dln::synthesize_query_log;
use lake_discovery::eval::{evaluate, labelled_pairs};
use lake_discovery::DiscoverySystem;
use lake_ingest::gemms::StructuralMetadata;
use lake_organize::kayak::{describe_task_graph, Pipeline, Primitive, TaskGraph};
use lake_organize::notebook::{synth_notebook, VariableDependencyGraph};
use lake_organize::organization::{attribute_embeddings, build_optimized};
use lake_organize::DagDescription;

row! {
    /// One system of Table 1.
    T1Row {
        tier: &'static str = "tier" "{}",
        function: &'static str = "function" "{}",
        system: &'static str = "system" "{}",
        module: &'static str = "module" "{}",
    }
}

/// Table 1: every system of `lake::registry`, in the survey's function
/// order.
pub fn t1() -> Vec<T1Row> {
    let row = |f: Function| {
        let entries = REGISTRY.iter().filter(move |e| e.function == f);
        entries.map(move |e| T1Row {
            tier: f.tier().name(),
            function: f.name(),
            system: e.system,
            module: e.module,
        })
    };
    Function::ALL.into_iter().flat_map(row).collect()
}

/// One DAG of Table 2: its self-description and its built size.
impl Row for DagDescription {
    const HEADER: &'static [&'static str] =
        &["system", "function", "node", "edge", "direction", "nodes built", "edges built"];
    fn cells(&self) -> Vec<String> {
        let text = [self.system, self.function, self.node, self.edge, self.edge_direction].map(String::from);
        [text.to_vec(), vec![self.nodes_built.to_string(), self.edges_built.to_string()]].concat()
    }
}

/// Table 2: a six-dataset KAYAK insert → profile → relate flow, a
/// Nargesian organization of the standard lake and a Juneau notebook
/// graph.
pub fn t2() -> Result<Vec<DagDescription>> {
    let (tables, _) = standard_lake();
    let mut graph = TaskGraph::new();
    let mut pipeline = Pipeline::new();
    for (i, t) in tables.iter().take(6).enumerate() {
        let tasks =
            ["detect", "profile", "joinability"].map(|s| graph.add_task(&format!("{s}:{}", t.name), || {}));
        let p = pipeline.add_primitive(Primitive { name: format!("insert_{}", t.name), tasks: tasks.into() });
        if i > 0 {
            pipeline.add_order(p - 1, p);
        }
    }
    pipeline.lower(&mut graph);
    // The lowered DAG must run on 4 workers; E5 checks such runs' order.
    graph.run_parallel(4)?;
    let nb = synth_notebook("analysis", &["dropna", "normalize", "merge", "groupby", "plot"]);
    Ok(vec![
        pipeline.describe(),
        describe_task_graph(&graph),
        build_optimized(&attribute_embeddings(&tables, 32), 4).describe(),
        VariableDependencyGraph::from_notebook(&nb).describe(),
    ])
}

row! {
    /// One discovery system of Table 3.
    T3Row {
        system: &'static str = "system" "{}",
        criteria: String = "relatedness criteria" "{}",
        metrics: String = "similarity metrics" "{}",
        technique: String = "technique" "{}",
        precision: f64 = "P@2" "{:.2}",
        recall: f64 = "R@2" "{:.2}",
    }
}

/// Table 3: all eight systems on the standard lake at k = 2; DLN, RNLIM
/// and D³L train first, as their papers prescribe.
pub fn t3() -> Vec<T3Row> {
    let (corpus, truth) = standard_corpus();
    let mut dln = lake_discovery::dln::Dln::default();
    dln.train_from_log(&corpus, &synthesize_query_log(&truth, 2));
    let labelled = labelled_pairs(&corpus, &truth, 14);
    let mut rnlim = lake_discovery::rnlim::Rnlim::default();
    rnlim.build(&corpus);
    rnlim.train(&corpus, &labelled);
    let mut d3l = lake_discovery::d3l::D3l::default();
    d3l.build(&corpus);
    d3l.train_weights(&corpus, &labelled);
    let systems: Vec<Box<dyn DiscoverySystem>> = vec![
        Box::new(lake_discovery::aurum::Aurum::default()),
        Box::new(lake_discovery::brackenbury::Brackenbury::default()),
        Box::new(lake_discovery::josie::Josie::default()),
        Box::new(d3l),
        Box::new(lake_discovery::juneau::Juneau::default()),
        Box::new(lake_discovery::pexeso::Pexeso::default()),
        Box::new(rnlim),
        Box::new(dln),
    ];
    let rows = systems.into_iter().map(|mut sys| {
        let r = evaluate(sys.as_mut(), &corpus, &truth, 2);
        let info = sys.info();
        T3Row {
            system: info.name,
            criteria: info.criteria.join("; "),
            metrics: info.metrics.join("; "),
            technique: info.technique.join("; "),
            precision: r.precision_at_k,
            recall: r.recall_at_k,
        }
    });
    rows.collect()
}

row! {
    /// How the storage tier placed one ingested dataset, and what the
    /// ingestion tier extracted from it.
    Ingested {
        dataset: String = "dataset" "{}",
        store: &'static str = "store" "{}",
        structure: &'static str = "structure" "{}",
        properties: usize = "properties" "{}",
    }
}

row! {
    /// One maintenance or exploration function of Fig. 2 and its result.
    Step {
        tier: &'static str = "tier" "{}",
        function: &'static str = "function" "{}",
        result: String = "result" "{}",
    }
}

/// Fig. 2: one batch through the three tiers.
#[derive(Debug, Clone)]
pub struct F2 {
    /// The storage and ingestion tiers, per dataset.
    pub ingested: Vec<Ingested>,
    /// The maintenance and exploration tiers, per function.
    pub steps: Vec<Step>,
}

/// The variant name of extracted structural metadata.
fn structure_name(s: &StructuralMetadata) -> &'static str {
    match s {
        StructuralMetadata::Table(_) => "Table",
        StructuralMetadata::Tree(_) => "Tree",
        StructuralMetadata::Graph { .. } => "Graph",
        StructuralMetadata::Opaque { .. } => "Opaque",
    }
}

/// Fig. 2 through the `DataLake` facade: ingest a CSV pair (one row
/// violates city → country), a JSON document and a log, then run the
/// seven maintenance functions and both exploration functions.
pub fn f2() -> Result<F2> {
    let mut dl = DataLake::new();
    dl.access.add_user("omar", Role::Operations);
    dl.access.add_user("carl", Role::Curator);
    dl.ingest_file(
        "omar",
        "crm/customers.csv",
        b"customer_id,city,country\nc1,delft,nl\nc2,paris,fr\nc3,delft,nl\nc4,delft,de\n",
    )?;
    dl.ingest_file("omar", "shop/orders.csv", b"order_id,customer_id,total\no1,c1,10\no2,c2,99\no3,c1,30\n")?;
    dl.ingest_file("omar", "app/profiles.json", br#"{"user": "c1", "prefs": {"lang": "nl"}}"#)?;
    dl.ingest_file(
        "omar",
        "ops/app.log",
        b"2024-01-01 12:00:00 INFO user c1 login\n2024-01-01 12:00:09 INFO user c2 login\n",
    )?;
    let mut ingested = Vec::new();
    for id in dl.dataset_ids() {
        let entry = dl.metamodel.entry(id).ok_or_else(|| LakeError::not_found(id))?;
        let meta = dl.meta(id)?;
        ingested.push(Ingested {
            dataset: meta.name.clone(),
            store: dl.store.placement(id)?.store.name(),
            structure: entry.structure.as_ref().map_or("-", structure_name),
            properties: entry.properties.len(),
        });
    }
    let catalog = dl.catalog.len();
    for id in dl.dataset_ids() {
        dl.promote("carl", id)?;
    }
    let (corpus, _) = dl.corpus();
    let q = corpus.table_index("customers").ok_or_else(|| LakeError::not_found("customers"))?;
    let names = |ts: Vec<usize>| {
        ts.into_iter().map(|t| corpus.tables()[t].name.as_str()).collect::<Vec<_>>().join(", ")
    };
    let mut aurum = lake_discovery::aurum::Aurum::default();
    aurum.build(&corpus);
    let related = names(aurum.top_k_related(&corpus, q, 2).into_iter().map(|(t, _)| t).collect());
    let joinable =
        lake_query::explore::joinable_for_column(&corpus, q, 0, 2).into_iter().map(|a| a.table).collect();
    let customers = dl.store.relational.get_table("customers")?;
    let orders = dl.store.relational.get_table("orders")?;
    let schema = lake_integrate::mapping::IntegratedSchema::build(
        &[&customers, &orders],
        lake_integrate::matching::MatcherKind::Hybrid,
        0.4,
    );
    let rfds = lake_maintain::enrich::rfd::discover_rfds(&customers, 0.7, true).len();
    let cleaning = lake_maintain::clean::clams::analyze(&customers, 0.7);
    let mut history = lake_maintain::evolve::EvolutionHistory::default();
    history.ingest(1, &[lake_formats::json::parse(r#"{"user": "c1"}"#)?]);
    history.ingest(2, &[lake_formats::json::parse(r#"{"user": "c1", "prefs": {"lang": "nl"}}"#)?]);
    let ops: Vec<String> = history.operations(0).iter().map(|op| format!("{op:?}")).collect();
    let query = lake_query::parse_query("select customer_id, total from orders where total > 20")?;
    let (result, stats) = dl.federated().execute(&query, true)?;
    let steps = [
        ("maintenance", "organization", format!("{catalog} catalog entries")),
        ("maintenance", "discovery", format!("customers ↔ {related}")),
        ("maintenance", "integration", format!("{} integrated attributes", schema.attributes.len())),
        ("maintenance", "enrichment", format!("{rfds} relaxed FDs on customers")),
        (
            "maintenance",
            "cleaning",
            format!(
                "{} constraints, {} review-queue triples",
                cleaning.constraints.len(),
                cleaning.review_queue.len()
            ),
        ),
        (
            "maintenance",
            "evolution",
            format!("{} schema versions: {}", history.versions.len(), ops.join(", ")),
        ),
        ("maintenance", "provenance", format!("{} graph nodes", dl.provenance().graph().node_count())),
        ("exploration", "query-driven discovery", format!("customers.customer_id joins {}", names(joinable))),
        (
            "exploration",
            "heterogeneous querying",
            format!("{} rows, {} moved from sources", result.num_rows(), stats.rows_moved),
        ),
    ];
    Ok(F2 {
        ingested,
        steps: steps.into_iter().map(|(tier, function, result)| Step { tier, function, result }).collect(),
    })
}

impl Report for F2 {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(&self.ingested), grid(&self.steps)]
    }
}
