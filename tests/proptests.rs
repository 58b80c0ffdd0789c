//! Property-based invariants across the workspace (proptest).
//!
//! These cover the data structures whose correctness everything else
//! leans on: codecs and binary encodings (lossless round-trips), the
//! value order (total ordering laws), MinHash (estimator error bounds),
//! the inverted index (agreement with brute force), CSV (round-trip), the
//! transaction log (snapshot = replay), and full disjunction (tuple
//! preservation).

use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = lake_core::Value> {
    prop_oneof![
        Just(lake_core::Value::Null),
        any::<bool>().prop_map(lake_core::Value::Bool),
        any::<i64>().prop_map(lake_core::Value::Int),
        (-1e12f64..1e12).prop_map(lake_core::Value::Float),
        "[a-z0-9 _-]{0,12}".prop_map(lake_core::Value::str),
    ]
}

proptest! {
    #[test]
    fn compression_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in [
            lake_formats::compress::Codec::None,
            lake_formats::compress::Codec::Rle,
            lake_formats::compress::Codec::Lz77,
        ] {
            let c = lake_formats::compress::compress(&data, codec);
            prop_assert_eq!(lake_formats::compress::decompress(&c).unwrap(), data.clone());
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lake_formats::compress::decompress(&data);
    }

    #[test]
    fn varints_roundtrip(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        lake_formats::varint::put_u64(&mut buf, v);
        lake_formats::varint::put_i64(&mut buf, s);
        let mut pos = 0;
        prop_assert_eq!(lake_formats::varint::get_u64(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(lake_formats::varint::get_i64(&buf, &mut pos).unwrap(), s);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_ordering_is_total_and_consistent(
        a in arb_value(), b in arb_value(), c in arb_value()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot check through sort stability).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        prop_assert!(v.windows(2).all(|w| w[0].cmp(&w[1]) != Ordering::Greater));
        // Hash consistency with equality.
        if a == b {
            prop_assert_eq!(a.stable_hash(), b.stable_hash());
        }
    }

    #[test]
    fn columnar_encoding_roundtrips(
        rows in proptest::collection::vec(
            (arb_value(), arb_value(), arb_value()), 0..40
        )
    ) {
        let table = lake_core::Table::from_rows(
            "prop",
            &["a", "b", "c"],
            rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect(),
        ).unwrap();
        let buf = lake_formats::columnar::encode(&table);
        prop_assert_eq!(lake_formats::columnar::decode(&buf).unwrap(), table);
    }

    #[test]
    fn csv_roundtrips_rendered_tables(
        rows in proptest::collection::vec(
            ("[a-z ,\"\n]{0,10}", 0i64..1000), 1..20
        )
    ) {
        let table = lake_core::Table::from_rows(
            "t",
            &["s", "n"],
            rows.into_iter()
                .map(|(s, n)| vec![lake_core::Value::str(s.trim()), lake_core::Value::Int(n)])
                .collect(),
        ).unwrap();
        let text = lake_formats::csv::write_table(&table, ',');
        let back = lake_formats::csv::parse_table("t", &text, Default::default()).unwrap();
        prop_assert_eq!(back.num_rows(), table.num_rows());
        // Numeric column survives exactly; strings survive modulo Null for "".
        prop_assert_eq!(back.column("n").unwrap(), table.column("n").unwrap());
    }

    #[test]
    fn minhash_estimate_is_close_to_truth(
        shared in 0usize..150, a_only in 0usize..150, b_only in 0usize..150
    ) {
        prop_assume!(shared + a_only > 0 && shared + b_only > 0);
        let hasher = lake_index::minhash::MinHasher::new(256, 99);
        let sa: Vec<String> = (0..shared).map(|i| format!("s{i}"))
            .chain((0..a_only).map(|i| format!("a{i}"))).collect();
        let sb: Vec<String> = (0..shared).map(|i| format!("s{i}"))
            .chain((0..b_only).map(|i| format!("b{i}"))).collect();
        let truth = shared as f64 / (shared + a_only + b_only) as f64;
        let est = hasher.signature(sa.iter().map(String::as_str))
            .jaccard(&hasher.signature(sb.iter().map(String::as_str)));
        prop_assert!((est - truth).abs() < 0.18, "est {est} vs truth {truth}");
    }

    #[test]
    fn inverted_index_overlap_agrees_with_sets(
        sets in proptest::collection::vec(
            proptest::collection::btree_set("[a-f]{1,2}", 0..12), 1..8
        ),
        query in proptest::collection::btree_set("[a-f]{1,2}", 0..12)
    ) {
        let mut ix = lake_index::inverted::InvertedIndex::new();
        for (i, s) in sets.iter().enumerate() {
            ix.insert(i, s.iter().cloned());
        }
        let q: Vec<String> = query.iter().cloned().collect();
        for (i, s) in sets.iter().enumerate() {
            let expected = s.intersection(&query).count();
            prop_assert_eq!(ix.overlap_with(&q, i), expected);
        }
    }

    #[test]
    fn txn_log_snapshot_equals_replay(adds in proptest::collection::vec("[a-z]{1,6}", 1..20)) {
        let store = lake_store::MemoryStore::new();
        let log = lake_house::TxnLog::open(&store, "p");
        let mut expected: Vec<(String, usize)> = Vec::new();
        for (i, name) in adds.iter().enumerate() {
            let path = format!("{name}{i}");
            log.commit(&[lake_house::Action::AddFile { path: path.clone(), rows: i }]).unwrap();
            expected.push((path, i));
        }
        let snap = log.snapshot().unwrap();
        prop_assert_eq!(snap.files, expected);
        prop_assert_eq!(snap.version, adds.len() as u64);
    }

    #[test]
    fn json_parser_roundtrips_canonical_docs(
        keys in proptest::collection::btree_map("[a-z]{1,5}", -1000i64..1000, 0..8)
    ) {
        let doc = lake_core::Json::Object(
            keys.into_iter().map(|(k, v)| (k, lake_core::Json::Num(v as f64))).collect()
        );
        let text = doc.to_string();
        prop_assert_eq!(lake_formats::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn schema_unify_is_commutative_on_field_sets(
        names_a in proptest::collection::btree_set("[a-c]{1}", 0..3),
        names_b in proptest::collection::btree_set("[a-c]{1}", 0..3)
    ) {
        use lake_core::{DataType, Field, Schema};
        let sa: Schema = names_a.iter().map(|n| Field::new(n.clone(), DataType::Int)).collect();
        let sb: Schema = names_b.iter().map(|n| Field::new(n.clone(), DataType::Str)).collect();
        let ab = sa.unify(&sb);
        let ba = sb.unify(&sa);
        // Same field set and same types regardless of direction.
        let mut fa: Vec<(String, DataType)> =
            ab.fields().iter().map(|f| (f.name.clone(), f.dtype)).collect();
        let mut fb: Vec<(String, DataType)> =
            ba.fields().iter().map(|f| (f.name.clone(), f.dtype)).collect();
        fa.sort();
        fb.sort();
        prop_assert_eq!(fa, fb);
    }
}

proptest! {
    #[test]
    fn row_encoding_roundtrips(
        rows in proptest::collection::vec((any::<i64>(), "[a-z]{0,8}", any::<bool>()), 0..30)
    ) {
        let table = lake_core::Table::from_rows(
            "r",
            &["n", "s", "b"],
            rows.into_iter()
                .map(|(n, s, b)| vec![
                    lake_core::Value::Int(n),
                    lake_core::Value::str(s),
                    lake_core::Value::Bool(b),
                ])
                .collect(),
        ).unwrap();
        let buf = lake_formats::rowenc::encode(&table).unwrap();
        prop_assert_eq!(lake_formats::rowenc::decode(&buf).unwrap(), table);
    }

    #[test]
    fn datamaran_template_matches_its_own_line(words in proptest::collection::vec("[a-z0-9]{1,6}", 1..8)) {
        let line = words.join(" ");
        let t = lake_ingest::datamaran::Template::of_line(&line);
        prop_assert!(t.matches(&line).is_some(), "line: {}", line);
        // A line with one extra word never matches.
        let longer = format!("{line} extra");
        prop_assert!(t.matches(&longer).is_none());
    }

    #[test]
    fn minhash_containment_is_bounded(
        a_card in 1usize..200, b_card in 1usize..200
    ) {
        let h = lake_index::minhash::MinHasher::new(64, 3);
        let sa = h.signature((0..a_card).map(|i| format!("a{i}")).collect::<Vec<_>>().iter().map(String::as_str));
        let sb = h.signature((0..b_card).map(|i| format!("b{i}")).collect::<Vec<_>>().iter().map(String::as_str));
        let c = sa.containment_in(&sb, a_card, b_card);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn lakehouse_delete_scan_consistency(
        keep_below in 0i64..50
    ) {
        use lake_store::predicate::{CompareOp, Predicate};
        let store = lake_store::MemoryStore::new();
        let t = lake_house::LakeTable::open(&store, "p");
        let rows: Vec<lake_core::Row> =
            (0..50).map(|i| vec![lake_core::Value::Int(i)]).collect();
        t.append(&lake_core::Table::from_rows("b", &["id"], rows).unwrap()).unwrap();
        let deleted = t
            .delete_where(&[Predicate::new("id", CompareOp::Ge, keep_below)])
            .unwrap();
        prop_assert_eq!(deleted as i64, 50 - keep_below);
        let (remaining, _) = t.scan(&[]).unwrap();
        prop_assert_eq!(remaining.len() as i64, keep_below);
        prop_assert!(remaining.iter().all(|r| r[0].as_i64().unwrap() < keep_below));
    }

    #[test]
    fn ingestion_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        name in "[a-z]{1,8}\\.(csv|json|xml|log|txt|bin)"
    ) {
        // Detection and parsing must fail cleanly, never panic, on garbage.
        let format = lake_formats::detect::detect_format(Some(&name), &data);
        let _ = lake_formats::detect::parse_dataset("fuzz", format, &data);
        let _ = lake_ingest::gemms::Gemms.extract(&name, &data);
        let _ = lake_ingest::skluma::Skluma.profile(&name, &data);
    }

    #[test]
    fn stream_reservoir_is_bounded_and_counts(
        n in 1usize..2000, cap in 1usize..64
    ) {
        let ing = lake_ingest::stream::ingest_stream(
            &["x"],
            cap,
            9,
            (0..n).map(|i| vec![lake_core::Value::Int(i as i64)]),
        ).unwrap();
        prop_assert_eq!(ing.seen() as usize, n);
        prop_assert_eq!(ing.sample_len(), n.min(cap));
    }

    #[test]
    fn fulltext_always_finds_indexed_terms(term in "[a-z]{4,10}") {
        use lake_query::fulltext::FullTextIndex;
        let mut ix = FullTextIndex::new();
        ix.index(
            lake_core::DatasetId(1),
            &lake_core::Dataset::Text(format!("some prose mentioning {term} explicitly")),
        );
        ix.index(lake_core::DatasetId(2), &lake_core::Dataset::Text("unrelated words".into()));
        let hits = ix.search(&term, 5);
        prop_assert!(!hits.is_empty());
        prop_assert_eq!(hits[0].dataset, lake_core::DatasetId(1));
    }
}

#[test]
fn full_disjunction_preserves_tuples_on_random_alignments() {
    // A deterministic mini-fuzz (saturation FD is O(n²) — keep sizes small).
    use lake_core::{Table, Value};
    use lake_integrate::alite::{full_disjunction, Alignment};
    for seed in 0..5u64 {
        let t1 = Table::from_rows(
            "t1",
            &["k", "x"],
            (0..4)
                .map(|i| vec![Value::str(format!("k{}", (i + seed) % 3)), Value::Int(i as i64)])
                .collect(),
        )
        .unwrap();
        let t2 = Table::from_rows(
            "t2",
            &["k", "y"],
            (0..3)
                .map(|i| vec![Value::str(format!("k{i}")), Value::str(format!("y{i}"))])
                .collect(),
        )
        .unwrap();
        let al = Alignment {
            assignment: vec![vec![0, 1], vec![0, 2]],
            num_attributes: 3,
            names: vec!["k".into(), "x".into(), "y".into()],
        };
        let refs = vec![&t1, &t2];
        let fd = full_disjunction(&refs, &al).unwrap();
        // Every source row's non-null values appear together in some row.
        for (ti, t) in refs.iter().enumerate() {
            for r in 0..t.num_rows() {
                let covered = fd.iter_rows().any(|row| {
                    t.columns().iter().enumerate().all(|(ci, col)| {
                        let target = al.assignment[ti][ci];
                        col.values[r].is_null() || row[target] == col.values[r]
                    })
                });
                assert!(covered, "seed {seed}: lost tuple {ti}/{r}");
            }
        }
    }
}
