//! Related-dataset discovery shoot-out: run all eight systems of the
//! survey's Table 3 on one synthetic lake with planted ground truth and
//! compare their precision and recall — the scenario of the survey's
//! intro, where information silos must be linked up before any insight.
//!
//! Run with: `cargo run --release --example data_discovery`

use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_discovery::corpus::TableCorpus;
use lake_discovery::dln::synthesize_query_log;
use lake_discovery::{evaluate, DiscoverySystem};

fn main() {
    let cfg = LakeGenConfig { groups: 5, tables_per_group: 3, noise_tables: 6, ..Default::default() };
    let lake = generate_lake(&cfg);
    println!(
        "synthetic lake: {} tables ({} related groups + {} noise), {} planted joinable pairs\n",
        lake.tables.len(),
        cfg.groups,
        cfg.noise_tables,
        lake.truth.joinable.len()
    );
    let corpus = TableCorpus::new(lake.tables.clone());
    let k = 2;

    let mut systems: Vec<Box<dyn DiscoverySystem>> = vec![
        Box::new(lake_discovery::aurum::Aurum::default()),
        Box::new(lake_discovery::brackenbury::Brackenbury::default()),
        Box::new(lake_discovery::josie::Josie::default()),
        Box::new(lake_discovery::d3l::D3l::default()),
        Box::new(lake_discovery::juneau::Juneau::default()),
        Box::new(lake_discovery::pexeso::Pexeso::default()),
        Box::new(lake_discovery::rnlim::Rnlim::default()),
        {
            // DLN trains from a synthesized enterprise query log first.
            let mut dln = lake_discovery::dln::Dln::default();
            dln.train_from_log(&corpus, &synthesize_query_log(&lake.truth, 2));
            Box::new(dln)
        },
    ];

    println!("{:<20} {:>7} {:>7}", "system", "P@2", "R@2");
    println!("{}", "-".repeat(36));
    for sys in &mut systems {
        let report = evaluate(sys.as_mut(), &corpus, &lake.truth, k);
        println!("{:<20} {:>7.2} {:>7.2}", report.system, report.precision_at_k, report.recall_at_k);
    }

    println!("\nTable 3 descriptive columns (from the implementations):");
    for sys in &systems {
        let info = sys.info();
        println!(
            "  {:<20} criteria: {}",
            info.name,
            info.criteria.join(", ")
        );
    }
}
