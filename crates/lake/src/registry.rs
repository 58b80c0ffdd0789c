//! The Table 1 registry: every surveyed system re-implemented in this
//! workspace, classified by tier → function → module (the survey's
//! three-level categorization with the *method* level pointing at code).
//!
//! The `table1` benchmark binary prints this classification; the tests
//! assert full coverage of the survey's 11 functions across 3 tiers.

/// The three functional tiers of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// During / right after loading.
    Ingestion,
    /// Preparing ingested data for use.
    Maintenance,
    /// Triggered by user queries.
    Exploration,
}

impl Tier {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Ingestion => "Ingestion",
            Tier::Maintenance => "Maintenance",
            Tier::Exploration => "Exploration",
        }
    }
}

/// The 11 functions of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Function {
    /// §5.1
    MetadataExtraction,
    /// §5.2
    MetadataModeling,
    /// §6.1
    DatasetOrganization,
    /// §6.2
    RelatedDatasetDiscovery,
    /// §6.3
    DataIntegration,
    /// §6.4
    MetadataEnrichment,
    /// §6.5
    DataCleaning,
    /// §6.6
    SchemaEvolution,
    /// §6.7
    DataProvenance,
    /// §7.1
    QueryDrivenDataDiscovery,
    /// §7.2
    HeterogeneousDataQuerying,
}

impl Function {
    /// All functions, tier order.
    pub const ALL: [Function; 11] = [
        Function::MetadataExtraction,
        Function::MetadataModeling,
        Function::DatasetOrganization,
        Function::RelatedDatasetDiscovery,
        Function::DataIntegration,
        Function::MetadataEnrichment,
        Function::DataCleaning,
        Function::SchemaEvolution,
        Function::DataProvenance,
        Function::QueryDrivenDataDiscovery,
        Function::HeterogeneousDataQuerying,
    ];

    /// The tier a function belongs to.
    pub fn tier(self) -> Tier {
        use Function::{
            HeterogeneousDataQuerying, MetadataExtraction, MetadataModeling, QueryDrivenDataDiscovery,
        };
        match self {
            MetadataExtraction | MetadataModeling => Tier::Ingestion,
            QueryDrivenDataDiscovery | HeterogeneousDataQuerying => Tier::Exploration,
            _ => Tier::Maintenance,
        }
    }

    /// Display name, as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Self::MetadataExtraction => "Metadata extraction",
            Self::MetadataModeling => "Metadata modeling",
            Self::DatasetOrganization => "Dataset organization",
            Self::RelatedDatasetDiscovery => "Related dataset discovery",
            Self::DataIntegration => "Data integration",
            Self::MetadataEnrichment => "Metadata enrichment",
            Self::DataCleaning => "Data cleaning",
            Self::SchemaEvolution => "Schema evolution",
            Self::DataProvenance => "Data provenance",
            Self::QueryDrivenDataDiscovery => "Query-driven data discovery",
            Self::HeterogeneousDataQuerying => "Heterogeneous data querying",
        }
    }
}

/// One classified system implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemEntry {
    /// System name as in the survey.
    pub system: &'static str,
    /// Its function.
    pub function: Function,
    /// The module implementing it in this workspace.
    pub module: &'static str,
}

/// The full classification (Table 1, with the code column added).
pub const REGISTRY: &[SystemEntry] = &[
    // Ingestion — metadata extraction.
    SystemEntry { system: "GEMMS", function: Function::MetadataExtraction, module: "lake_ingest::gemms" },
    SystemEntry { system: "DATAMARAN", function: Function::MetadataExtraction, module: "lake_ingest::datamaran" },
    SystemEntry { system: "Skluma", function: Function::MetadataExtraction, module: "lake_ingest::skluma" },
    // Ingestion — metadata modeling.
    SystemEntry { system: "GEMMS", function: Function::MetadataModeling, module: "lake_ingest::model::generic" },
    SystemEntry { system: "HANDLE", function: Function::MetadataModeling, module: "lake_ingest::model::handle" },
    SystemEntry { system: "Data vault", function: Function::MetadataModeling, module: "lake_ingest::model::vault" },
    SystemEntry { system: "Diamantini et al.", function: Function::MetadataModeling, module: "lake_ingest::model::graphmeta" },
    SystemEntry { system: "Aurum", function: Function::MetadataModeling, module: "lake_discovery::aurum" },
    SystemEntry { system: "Sawadogo et al.", function: Function::MetadataModeling, module: "lake_ingest::model::graphmeta" },
    // Maintenance — dataset organization.
    SystemEntry { system: "GOODS", function: Function::DatasetOrganization, module: "lake_organize::goods" },
    SystemEntry { system: "DS-Prox / DS-kNN", function: Function::DatasetOrganization, module: "lake_organize::dsknn" },
    SystemEntry { system: "KAYAK", function: Function::DatasetOrganization, module: "lake_organize::kayak" },
    SystemEntry { system: "Nargesian et al.", function: Function::DatasetOrganization, module: "lake_organize::organization" },
    SystemEntry { system: "Ronin", function: Function::DatasetOrganization, module: "lake_organize::ronin" },
    SystemEntry { system: "Juneau", function: Function::DatasetOrganization, module: "lake_organize::notebook" },
    // Maintenance — related dataset discovery.
    SystemEntry { system: "Aurum", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::aurum" },
    SystemEntry { system: "Brackenbury et al.", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::brackenbury" },
    SystemEntry { system: "JOSIE", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::josie" },
    SystemEntry { system: "D3L", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::d3l" },
    SystemEntry { system: "Juneau", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::juneau" },
    SystemEntry { system: "PEXESO", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::pexeso" },
    SystemEntry { system: "RNLIM", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::rnlim" },
    SystemEntry { system: "DLN", function: Function::RelatedDatasetDiscovery, module: "lake_discovery::dln" },
    // Maintenance — data integration.
    SystemEntry { system: "Constance", function: Function::DataIntegration, module: "lake_integrate::{matching,mapping,rewrite}" },
    SystemEntry { system: "ALITE", function: Function::DataIntegration, module: "lake_integrate::alite" },
    // Maintenance — metadata enrichment.
    SystemEntry { system: "CoreDB", function: Function::MetadataEnrichment, module: "lake_maintain::enrich::coredb" },
    SystemEntry { system: "D4", function: Function::MetadataEnrichment, module: "lake_maintain::enrich::d4" },
    SystemEntry { system: "DomainNet", function: Function::MetadataEnrichment, module: "lake_maintain::enrich::domainnet" },
    SystemEntry { system: "Constance", function: Function::MetadataEnrichment, module: "lake_maintain::enrich::rfd" },
    SystemEntry { system: "GOODS", function: Function::MetadataEnrichment, module: "lake_organize::goods (crowdsourced annotations)" },
    // Maintenance — data cleaning.
    SystemEntry { system: "CLAMS", function: Function::DataCleaning, module: "lake_maintain::clean::clams" },
    SystemEntry { system: "Constance", function: Function::DataCleaning, module: "lake_maintain::enrich::rfd (violations)" },
    SystemEntry { system: "Song et al.", function: Function::DataCleaning, module: "lake_maintain::clean::autovalidate" },
    // Maintenance — schema evolution.
    SystemEntry { system: "Klettke et al.", function: Function::SchemaEvolution, module: "lake_maintain::evolve" },
    // Maintenance — data provenance.
    SystemEntry { system: "IBM tool", function: Function::DataProvenance, module: "lake::governance" },
    SystemEntry { system: "Suriarachchi et al.", function: Function::DataProvenance, module: "lake_maintain::provenance (integrate)" },
    SystemEntry { system: "GOODS", function: Function::DataProvenance, module: "lake_organize::goods (provenance triples)" },
    SystemEntry { system: "CoreDB", function: Function::DataProvenance, module: "lake_maintain::provenance (who_touched)" },
    SystemEntry { system: "Juneau", function: Function::DataProvenance, module: "lake_organize::notebook (variable graphs)" },
    // Exploration — query-driven data discovery.
    SystemEntry { system: "JOSIE", function: Function::QueryDrivenDataDiscovery, module: "lake_query::explore (mode 1)" },
    SystemEntry { system: "D3L", function: Function::QueryDrivenDataDiscovery, module: "lake_query::explore (mode 2)" },
    SystemEntry { system: "Juneau", function: Function::QueryDrivenDataDiscovery, module: "lake_query::explore (mode 3)" },
    SystemEntry { system: "Aurum", function: Function::QueryDrivenDataDiscovery, module: "lake_query::srql" },
    // Exploration — heterogeneous data querying.
    SystemEntry { system: "Constance", function: Function::HeterogeneousDataQuerying, module: "lake_integrate::rewrite + lake_query::federated" },
    SystemEntry { system: "CoreDB", function: Function::HeterogeneousDataQuerying, module: "lake_query::federated" },
    SystemEntry { system: "Ontario", function: Function::HeterogeneousDataQuerying, module: "lake_query::federated (sparql)" },
    SystemEntry { system: "Squerall", function: Function::HeterogeneousDataQuerying, module: "lake_query::federated" },
];

/// Render the classification as a Table 1-style text table.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} | {:<28} | {:<20} | module\n",
        "Tier", "Function", "System"
    ));
    out.push_str(&format!("{}\n", "-".repeat(100)));
    for f in Function::ALL {
        for e in REGISTRY.iter().filter(|e| e.function == f) {
            out.push_str(&format!(
                "{:<12} | {:<28} | {:<20} | {}\n",
                f.tier().name(),
                f.name(),
                e.system,
                e.module
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_function_has_an_implementation() {
        for f in Function::ALL {
            assert!(
                REGISTRY.iter().any(|e| e.function == f),
                "function {f:?} has no implemented system"
            );
        }
    }

    #[test]
    fn tiers_partition_functions_as_in_fig2() {
        use Function::*;
        assert_eq!(MetadataExtraction.tier(), Tier::Ingestion);
        assert_eq!(MetadataModeling.tier(), Tier::Ingestion);
        assert_eq!(DatasetOrganization.tier(), Tier::Maintenance);
        assert_eq!(QueryDrivenDataDiscovery.tier(), Tier::Exploration);
        assert_eq!(HeterogeneousDataQuerying.tier(), Tier::Exploration);
        let maintenance = Function::ALL.iter().filter(|f| f.tier() == Tier::Maintenance).count();
        assert_eq!(maintenance, 7);
    }

    #[test]
    fn discovery_lists_all_eight_survey_systems() {
        let systems: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.function == Function::RelatedDatasetDiscovery)
            .map(|e| e.system)
            .collect();
        assert_eq!(systems.len(), 8);
        for s in ["Aurum", "JOSIE", "D3L", "Juneau", "PEXESO", "RNLIM", "DLN"] {
            assert!(systems.contains(&s), "{s}");
        }
    }

    #[test]
    fn rendered_table_mentions_all_tiers() {
        let t = render_table1();
        for tier in ["Ingestion", "Maintenance", "Exploration"] {
            assert!(t.contains(tier));
        }
        assert!(t.lines().count() > REGISTRY.len());
    }
}
