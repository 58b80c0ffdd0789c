//! Discovery claims of §6.2.1 and §8.2: Aurum's LSH (E1) and incremental
//! maintenance (E4), JOSIE's cost model (E2), D³L's feature combination
//! (E3), and discovery-driven training-data augmentation (E13).

use crate::{grid, standard_corpus, Grid, Report};
use lake_core::synth::{generate_lake, LakeGenConfig, Zipf};
use lake_core::{Column, Result, Table, Value};
use lake_discovery::aurum::{Aurum, AurumConfig};
use lake_discovery::corpus::{TableCorpus, SIGNATURE_LEN};
use lake_discovery::d3l::{D3l, FEATURE_NAMES};
use lake_discovery::eval::{evaluate, labelled_pairs};
use lake_discovery::josie::Josie;
use lake_discovery::union_search::UnionSearch;
use lake_discovery::DiscoverySystem;
use lake_index::lsh::LshIndex;
use lake_ml::forest::{ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

row! {
    /// One lake size of E1.
    E1Row {
        columns: usize = "columns" "{}",
        all_pairs: usize = "all pairs" "{}",
        similar: usize = "similar (J ≥ 0.4)" "{}",
        candidates: usize = "LSH candidates" "{}",
        compared_pct: f64 = "compared" "{:.1}%",
        recall_pct: f64 = "recall" "{:.1}%",
    }
}

/// E1: lakes of 4–64 related groups (plus as many noise tables); exact
/// Jaccard over all column pairs against MinHash + LSH candidate pairs.
pub fn e1() -> Vec<E1Row> {
    let rows = [4usize, 8, 16, 32, 64].map(|groups| {
        let cfg = LakeGenConfig { groups, tables_per_group: 3, noise_tables: groups, ..Default::default() };
        let corpus = TableCorpus::new(generate_lake(&cfg).tables);
        let profiles = corpus.profiles();
        let n = profiles.len();
        let similar: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| profiles[a].jaccard_exact(&profiles[b]) >= 0.4)
            .collect();
        let mut lsh = LshIndex::new(SIGNATURE_LEN / 4, 4);
        for (i, p) in profiles.iter().enumerate() {
            lsh.insert(i, p.signature.clone());
        }
        let candidates = lsh.candidate_pairs();
        let found = similar.iter().filter(|p| candidates.binary_search(p).is_ok()).count();
        let all_pairs = n * n.saturating_sub(1) / 2;
        E1Row {
            columns: n,
            all_pairs,
            similar: similar.len(),
            candidates: candidates.len(),
            compared_pct: 100.0 * candidates.len() as f64 / all_pairs as f64,
            recall_pct: 100.0 * found as f64 / similar.len() as f64,
        }
    });
    rows.into()
}

row! {
    /// One value skew of E2, summed over its 25 queries.
    E2Row {
        alpha: f64 = "α" "{:.1}",
        josie_postings: usize = "JOSIE postings" "{}",
        scan_postings: usize = "scan postings" "{}",
        exact: bool = "exact" "{}",
    }
}

/// E2: per skew, 1 000 sets of 80 Zipf-drawn values and 12 planted
/// near-duplicates of each of 25 query sets; JOSIE's top-10 search
/// against a scan of every posting list of the query.
pub fn e2() -> Vec<E2Row> {
    let rows = [0.0, 0.5, 1.0, 1.5].map(|alpha| {
        let mut rng = StdRng::seed_from_u64(42);
        let zipf = Zipf::new(2_000, alpha);
        let mut josie = Josie::default();
        let mut sets = Vec::new();
        for id in 0..1_000 {
            let set: Vec<String> = (0..80).map(|_| format!("v{}", zipf.sample(&mut rng))).collect();
            josie.insert_set(id, set.iter().cloned());
            sets.push(set);
        }
        // Joinable near-duplicates raise the k-th best overlap enough for
        // the cost model's pruning to bite, as in real lakes.
        for (q, set) in sets.iter().enumerate().take(25) {
            for d in 0..12usize {
                let near = set.iter().take(70).cloned().chain((0..10).map(|i| format!("x{q}_{d}_{i}")));
                josie.insert_set(1_000 + q * 12 + d, near);
            }
        }
        let (mut josie_postings, mut scan_postings, mut exact) = (0, 0, true);
        for (q, set) in sets.iter().enumerate().take(25) {
            let (fast, stats) = josie.top_k_overlap(set, 10, &[q]);
            let (slow, work) = josie.top_k_baseline(set, 10, &[q]);
            josie_postings += stats.postings_read;
            scan_postings += work;
            exact &= fast.iter().map(|&(_, o)| o).eq(slow.iter().map(|&(_, o)| o));
        }
        E2Row { alpha, josie_postings, scan_postings, exact }
    });
    rows.into()
}

row! {
    /// One D³L configuration of E3.
    E3Row {
        configuration: String = "configuration" "{}",
        precision: f64 = "P@2" "{:.2}",
        recall: f64 = "R@2" "{:.2}",
    }
}

row! {
    /// One trained D³L feature weight.
    Weight {
        feature: &'static str = "feature" "{}",
        weight: f64 = "trained weight" "{:.3}",
    }
}

/// E3: D³L's features alone and combined.
#[derive(Debug, Clone)]
pub struct E3 {
    /// Each feature alone, then the uniform and the trained combination.
    pub configs: Vec<E3Row>,
    /// The trained weights.
    pub weights: Vec<Weight>,
}

/// E3: each feature alone, the uniform mix and the classifier-trained mix
/// on the standard lake.
pub fn e3() -> E3 {
    let (corpus, truth) = standard_corpus();
    let score = |configuration: String, sys: &mut D3l| {
        let r = evaluate(sys, &corpus, &truth, 2);
        E3Row { configuration, precision: r.precision_at_k, recall: r.recall_at_k }
    };
    let mut configs: Vec<E3Row> = FEATURE_NAMES
        .iter()
        .enumerate()
        .map(|(f, n)| score(format!("only {n}"), &mut D3l::with_single_feature(f)))
        .collect();
    configs.push(score("uniform combination".into(), &mut D3l::default()));
    let mut trained = D3l::default();
    trained.build(&corpus);
    trained.train_weights(&corpus, &labelled_pairs(&corpus, &truth, 14));
    let weights =
        FEATURE_NAMES.into_iter().zip(trained.weights).map(|(feature, weight)| Weight { feature, weight });
    let weights = weights.collect();
    configs.push(score("trained combination".into(), &mut trained));
    E3 { configs, weights }
}

impl Report for E3 {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(&self.configs), grid(&self.weights)]
    }
}

row! {
    /// One re-profiling threshold of E4.
    E4Row {
        threshold: f64 = "threshold" "{:.2}",
        reprofiles: usize = "re-profiles" "{}",
        staleness: f64 = "staleness" "{:.2}",
    }
}

/// E4: per threshold, 200 edits of 3 % of a column each, round-robin over
/// 10 columns.
pub fn e4() -> Vec<E4Row> {
    let rows = [0.01, 0.05, 0.1, 0.2, 0.5].map(|threshold| {
        let (mut corpus, _) = standard_corpus();
        let mut aurum = Aurum::new(AurumConfig { update_threshold: threshold, ..Default::default() });
        aurum.build(&corpus);
        for i in 0..200 {
            let at = corpus.profiles()[i % 10].at;
            aurum.observe_change(&mut corpus, at, 0.03);
        }
        E4Row { threshold, reprofiles: aurum.reprofile_count, staleness: aurum.staleness() }
    });
    rows.into()
}

row! {
    /// One training run of E13.
    E13Row {
        training_data: &'static str = "training data" "{}",
        rows: usize = "rows" "{}",
        accuracy: f64 = "held-out accuracy" "{:.3}",
    }
}

row! {
    /// A table union search picked in E13.
    Pick {
        table: String = "union search pick" "{}",
        unionability: f64 = "unionability" "{:.2}",
    }
}

/// E13: training-data augmentation through table-union search.
#[derive(Debug, Clone)]
pub struct E13 {
    /// Union search's picks, best first.
    pub picks: Vec<Pick>,
    /// Trained on the own table alone, then on its union with the picks.
    pub runs: Vec<E13Row>,
}

/// A labelled table of two overlapping 2-D classes: the boundary must be
/// learned, so more rows genuinely help.
fn labelled_table(name: &str, rows: usize, rng: &mut StdRng) -> Result<Table> {
    let mut cols = [Vec::new(), Vec::new(), Vec::new()];
    for i in 0..rows {
        let centre = if i % 2 == 0 { 0.0 } else { 0.9 };
        for col in &mut cols[..2] {
            col.push(Value::Float(centre + rng.random::<f64>() + rng.random::<f64>() - 1.0));
        }
        cols[2].push(Value::str(if i % 2 == 0 { "alpha" } else { "beta" }));
    }
    let [f1, f2, label] = cols;
    Table::from_columns(name, vec![Column::new("f1", f1), Column::new("f2", f2), Column::new("label", label)])
}

/// Features and class of each fully populated row.
fn to_xy(t: &Table) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xy = |row: Vec<Value>| {
        Some((vec![row[0].as_f64()?, row[1].as_f64()?], usize::from(row[2].as_str()? == "beta")))
    };
    t.iter_rows().filter_map(xy).unzip()
}

/// A forest trained on `train`, scored on `test`.
fn run(training_data: &'static str, train: &Table, test: &(Vec<Vec<f64>>, Vec<usize>)) -> E13Row {
    let (xs, ys) = to_xy(train);
    let model = RandomForest::fit(&xs, &ys, 2, ForestConfig::default());
    let right = test.0.iter().zip(&test.1).filter(|(x, y)| model.predict(x) == **y).count();
    E13Row { training_data, rows: xs.len(), accuracy: right as f64 / test.0.len() as f64 }
}

/// E13: a 10-row training table in a lake of three 150-row unionable
/// tables and three textual noise tables; 600 held-out rows.
pub fn e13() -> Result<E13> {
    let mut rng = StdRng::seed_from_u64(13);
    let train = labelled_table("my_train", 10, &mut rng)?;
    let mut tables = vec![train.clone()];
    for i in 0..3 {
        tables.push(labelled_table(&format!("survey_batch_{i}"), 150, &mut rng)?);
    }
    for i in 0..3 {
        let words = (0..50).map(|j| Value::str(format!("w{i}_{j}"))).collect();
        tables.push(Table::from_columns(format!("noise_{i}"), vec![Column::new(format!("txt{i}"), words)])?);
    }
    let corpus = TableCorpus::new(tables);
    let test = to_xy(&labelled_table("test", 600, &mut rng)?);
    let mut us = UnionSearch::default();
    us.build(&corpus);
    let found = us.top_k_unionable(&corpus, 0, 3);
    // `union_into` returns the query's rows, then the candidate's.
    let mut augmented = train.clone();
    for &(t, _) in &found {
        for row in us.union_into(&corpus, 0, t)?.iter_rows().skip(train.num_rows()) {
            augmented.push_row(row)?;
        }
    }
    let pick =
        |&(t, unionability): &(usize, f64)| Pick { table: corpus.tables()[t].name.clone(), unionability };
    Ok(E13 {
        picks: found.iter().map(pick).collect(),
        runs: vec![run("own table", &train, &test), run("own + discovered", &augmented, &test)],
    })
}

impl Report for E13 {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(&self.picks), grid(&self.runs)]
    }
}
