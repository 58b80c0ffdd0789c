//! The survey's claims as tests: one per artifact of `paper`. Each test
//! computes its artifact once, asserts the claims EXPERIMENTS.md marks
//! ✓, and checks that the artifact renders to EXPERIMENTS.md's marked
//! block for it (`<!-- paper <id> -->` … `<!-- /paper -->`).

use lake_bench::{discovery, maintenance, render, storage, tables, Report, ARTIFACTS};

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The text between `<!-- paper <id> -->` and the next `<!-- /paper -->`.
fn marked_block(id: &str) -> Option<&'static str> {
    let (_, rest) = EXPERIMENTS.split_once(&format!("<!-- paper {id} -->\n"))?;
    rest.split_once("<!-- /paper -->").map(|(block, _)| block)
}

/// Assert that `report` renders to EXPERIMENTS.md's block for `id`.
fn assert_documented(id: &str, report: &dyn Report) {
    let rendered = render(id, report);
    assert!(
        marked_block(id) == Some(rendered.as_str()),
        "EXPERIMENTS.md's `{id}` block differs from what `paper {id}` prints; between \
         `<!-- paper {id} -->` and `<!-- /paper -->` it should read:\n{rendered}"
    );
}

#[test]
fn every_artifact_has_one_marked_block() {
    for (id, _) in ARTIFACTS {
        assert_eq!(EXPERIMENTS.matches(&format!("\n<!-- paper {id} -->\n")).count(), 1, "{id}");
    }
    assert_eq!(EXPERIMENTS.matches("\n<!-- paper ").count(), ARTIFACTS.len());
    assert_eq!(EXPERIMENTS.matches("\n<!-- /paper -->").count(), ARTIFACTS.len());
    assert!(lake_bench::rendered("e99").is_none());
}

#[test]
fn t1_every_function_of_the_survey_is_implemented() {
    let t1 = tables::t1();
    assert_eq!(t1.len(), lake::registry::REGISTRY.len());
    for f in lake::registry::Function::ALL {
        assert!(t1.iter().any(|r| r.function == f.name()), "uncovered: {f:?}");
    }
    for tier in ["Ingestion", "Maintenance", "Exploration"] {
        assert!(t1.iter().any(|r| r.tier == tier), "{tier}");
    }
    assert_documented("t1", &t1);
}

#[test]
fn t2_the_four_dags_are_built_and_the_task_dag_runs_in_parallel() {
    // `t2` fails unless the lowered task DAG runs on 4 workers.
    let t2 = tables::t2().unwrap();
    let systems: Vec<&str> = t2.iter().map(|d| d.system).collect();
    let paper =
        ["KAYAK (pipeline)", "KAYAK (task dependency)", "Nargesian et al.", "Juneau (variable dependency)"];
    assert_eq!(systems, paper);
    // Six primitives of three tasks each lower to an 18-task DAG.
    assert_eq!((t2[0].nodes_built, t2[1].nodes_built), (6, 18));
    assert_documented("t2", &t2);
}

#[test]
fn t3_overlap_systems_are_exact_and_semantic_systems_lag() {
    let t3 = tables::t3();
    let score = |name: &str| t3.iter().find(|r| r.system == name).map(|r| (r.precision, r.recall)).unwrap();
    assert_eq!(t3.len(), 8);
    for exact in ["Aurum", "JOSIE", "D3L"] {
        assert_eq!(score(exact), (1.0, 1.0), "{exact}");
    }
    let semantic = ["PEXESO", "RNLIM"];
    let best_semantic = score(semantic[0]).0.max(score(semantic[1]).0);
    assert!(best_semantic < 0.5, "semantic systems at {best_semantic:.2} on joinable truth");
    for r in t3.iter().filter(|r| !semantic.contains(&r.system)) {
        assert!(r.precision > best_semantic, "{}", r.system);
    }
    // "Their individual relatedness criteria … vary significantly."
    for (i, a) in t3.iter().enumerate() {
        assert!(t3[i + 1..].iter().all(|b| a.criteria != b.criteria), "{}", a.system);
    }
    assert_documented("t3", &t3);
}

#[test]
fn f2_one_batch_crosses_every_tier() {
    let f2 = tables::f2().unwrap();
    let result = |function| f2.steps.iter().find(|s| s.function == function).map(|s| s.result.as_str());
    let stores: std::collections::BTreeSet<&str> = f2.ingested.iter().map(|d| d.store).collect();
    assert_eq!((f2.ingested.len(), stores.len()), (4, 3), "4 formats routed to 3 stores");
    let structures: Vec<&str> = f2.ingested.iter().map(|d| d.structure).collect();
    assert_eq!(structures, ["Table", "Table", "Tree", "Opaque"]);
    assert_eq!(f2.steps.len(), 9, "seven maintenance and two exploration functions");
    assert_eq!(result("discovery"), Some("customers ↔ orders"));
    assert_eq!(result("query-driven discovery"), Some("customers.customer_id joins orders"));
    // The planted violation (c4: delft → de) is queued for review.
    assert!(result("cleaning").is_some_and(|r| !r.ends_with(" 0 review-queue triples")));
    assert_eq!(result("evolution"), Some(r#"2 schema versions: AddProperty("prefs.lang")"#));
    // Push-down moves only the matching rows.
    assert_eq!(result("heterogeneous querying"), Some("2 rows, 2 moved from sources"));
    assert_documented("f2", &f2);
}

#[test]
fn e1_lsh_compares_under_3_percent_of_pairs_at_high_recall() {
    let e1 = discovery::e1();
    assert_eq!(e1.len(), 5);
    for r in &e1 {
        assert!(r.compared_pct < 3.0, "{r:?}");
        assert!(r.recall_pct >= 94.0, "{r:?}");
        // Candidates track the similar pairs, not the all-pairs count.
        assert!(r.candidates.abs_diff(r.similar) * 20 <= r.similar, "{r:?}");
    }
    assert_documented("e1", &e1);
}

#[test]
fn e2_josie_is_exact_and_reads_fewer_postings_as_skew_grows() {
    let e2 = discovery::e2();
    let mut last_ratio = 1.0;
    for r in &e2 {
        assert!(r.exact, "alpha {}", r.alpha);
        assert!(r.josie_postings < r.scan_postings, "{r:?}");
        let ratio = r.scan_postings as f64 / r.josie_postings as f64;
        assert!(ratio > last_ratio, "the gap must widen with skew: {r:?}");
        last_ratio = ratio;
    }
    assert_documented("e2", &e2);
}

#[test]
fn e3_trained_d3l_is_best_and_weights_value_overlap_most() {
    let e3 = discovery::e3();
    let [singles @ .., uniform, trained] = e3.configs.as_slice() else { panic!("{e3:?}") };
    let best_single = singles.iter().map(|s| s.precision).fold(0.0, f64::max);
    assert!(trained.precision >= uniform.precision && uniform.precision >= best_single, "{e3:?}");
    assert!(trained.recall >= uniform.recall, "{e3:?}");
    let overlap = e3.weights.iter().find(|w| w.feature == "value_overlap").unwrap().weight;
    assert!(
        e3.weights.iter().all(|w| w.feature == "value_overlap" || w.weight < overlap),
        "{:?}",
        e3.weights
    );
    assert_documented("e3", &e3);
}

#[test]
fn e4_higher_thresholds_trade_reprofiles_for_bounded_staleness() {
    let e4 = discovery::e4();
    assert_eq!(
        (e4[0].reprofiles, e4[0].staleness),
        (200, 0.0),
        "the lowest threshold re-profiles every edit"
    );
    for pair in e4.windows(2) {
        assert!(pair[1].reprofiles < pair[0].reprofiles, "{pair:?}");
    }
    for r in &e4 {
        assert!(r.staleness <= r.threshold * 10.0, "{r:?}");
    }
    assert_documented("e4", &e4);
}

#[test]
fn e5_the_task_dag_exposes_parallel_chains_behind_one_barrier() {
    let e5 = maintenance::e5().unwrap();
    for r in &e5 {
        assert_eq!((r.tasks, r.critical_path), (37, 4));
        assert!(r.respects_dag, "{r:?}");
    }
    for pair in e5.windows(2) {
        assert!(pair[1].rounds < pair[0].rounds, "{pair:?}");
    }
    assert_documented("e5", &e5);
}

#[test]
fn e6_every_optimized_organization_beats_flat_and_random() {
    let e6 = maintenance::e6();
    let (baselines, optimized) = e6.split_at(3);
    assert!(optimized.iter().all(|r| r.organization.starts_with("optimized")));
    let best_baseline = baselines.iter().map(|r| r.probability).fold(0.0, f64::max);
    for r in optimized {
        assert!(
            r.probability > best_baseline,
            "{} {:.4} vs {best_baseline:.4}",
            r.organization,
            r.probability
        );
    }
    assert_documented("e6", &e6);
}

#[test]
fn e7_d4_and_domainnet_recover_the_planted_domains_and_homographs() {
    let e7 = maintenance::e7().unwrap();
    assert_eq!(e7[0].found, "4 domains");
    assert!(e7[1].found.ends_with(&maintenance::PLANTED_HOMOGRAPHS.join(", ")), "{:?}", e7[1]);
    for r in &e7 {
        assert_eq!((r.precision, r.recall), (1.0, 1.0), "{r:?}");
    }
    assert_documented("e7", &e7);
}

#[test]
fn e8_clams_and_auto_validate_catch_the_planted_errors() {
    let e8 = maintenance::e8().unwrap();
    let r = &e8[0];
    assert_eq!((r.flagged, r.true_flags), (r.planted, r.planted), "CLAMS P = R = 1");
    assert!(r.clean_accepted && !r.drifted_accepted, "{r:?}");
    assert_documented("e8", &e8);
}

#[test]
fn e9_push_down_moves_only_matching_rows() {
    let e9 = storage::e9().unwrap();
    for r in &e9 {
        assert_eq!(r.answer_pushed, r.answer_pulled, "answers agree: {r:?}");
        assert_eq!((r.moved_pushed, r.moved_pulled), (r.answer_pushed, 40_000), "{r:?}");
    }
    assert_documented("e9", &e9);
}

#[test]
fn e10_the_lakehouse_loses_no_commit_and_reads_one_file_per_lookup() {
    let e10 = storage::e10().unwrap();
    for r in &e10.commits {
        assert_eq!(r.version, r.commits as u64 + 1, "no lost commits: {r:?}");
        assert_eq!(r.timed, r.commits as u64, "every commit timed: {r:?}");
    }
    for r in &e10.lookups {
        assert_eq!((r.read, r.skipped, r.hits), (1, r.files - 1, 1), "{r:?}");
    }
    assert_eq!(e10.pinned[0].before, e10.pinned[0].after, "the pinned reader is unaffected by compaction");
    assert_documented("e10", &e10);
}

#[test]
fn e11_datamaran_recovers_templates_and_records_without_supervision() {
    let e11 = maintenance::e11();
    for r in &e11 {
        assert_eq!((r.found, r.extracted, r.unmatched), (r.templates, r.records, 0), "{r:?}");
        assert_eq!(r.with_fields, r.extracted, "every record carries field values: {r:?}");
        // Only the third template (errors) has continuation lines, which a
        // one-line-one-record splitter would count as records.
        assert_eq!(r.lines > r.records, r.templates >= 3, "{r:?}");
    }
    assert_documented("e11", &e11);
}

#[test]
fn e12_full_disjunction_preserves_tuples_and_associations() {
    let e12 = maintenance::e12().unwrap();
    let (fd, chain) = (&e12[0], &e12[1]);
    assert_eq!((fd.attributes, fd.tuples_preserved), (4, true));
    assert!(fd.complete >= chain.complete, "{e12:?}");
    assert_documented("e12", &e12);
}

#[test]
fn e13_discovered_unions_raise_held_out_accuracy() {
    let e13 = discovery::e13().unwrap();
    assert_eq!(e13.picks.len(), 3);
    assert!(e13.picks.iter().all(|p| p.table.starts_with("survey_batch")), "noise picked: {:?}", e13.picks);
    let (own, augmented) = (&e13.runs[0], &e13.runs[1]);
    assert_eq!(augmented.rows, own.rows + 450);
    assert!(augmented.accuracy > own.accuracy, "{e13:?}");
    assert_documented("e13", &e13);
}

#[test]
fn e14_degraded_mode_answers_from_healthy_sources_and_strict_fails_fast() {
    let e14 = storage::e14().unwrap();
    for pair in e14.runs.chunks(2) {
        let (degraded, strict) = (&pair[0], &pair[1]);
        let dead = degraded.scenario.ends_with("dead");
        assert_eq!(degraded.partial, dead.to_string(), "{degraded:?}");
        assert_eq!(strict.completeness.starts_with("error"), dead, "{strict:?}");
        if !dead {
            assert_eq!((&strict.rows, &strict.completeness), (&degraded.rows, &degraded.completeness));
        }
    }
    assert_documented("e14", &e14);
}

#[test]
fn a1_dictionary_encoding_shrinks_categorical_columns() {
    let a1 = storage::a1().unwrap();
    let [categorical, unique, numeric] = [&a1[0], &a1[1], &a1[2]];
    assert!(a1.iter().all(|p| p.roundtrips));
    assert!(categorical.row_over_columnar >= 2.0, "{categorical:?}");
    assert!((unique.row_over_columnar - 1.0).abs() < 0.01, "{unique:?}");
    assert!(categorical.lz77 < categorical.columnar, "LZ77 squeezes the categorical buffer further");
    assert!(
        unique.rle > unique.columnar && numeric.rle > numeric.columnar,
        "RLE expands incompressible payloads"
    );
    assert_documented("a1", &a1);
}
