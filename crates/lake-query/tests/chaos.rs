//! Chaos suite: scripted fault injection against the federated mediator's
//! degradation ladder (budget → retry → breaker → skip).
//!
//! Every scenario drives real federated queries through a seeded
//! [`FaultSource`] under a [`ManualClock`], so nothing here ever sleeps
//! and every run replays byte-for-byte per seed: simulated hangs advance
//! virtual time, breaker cooldowns elapse only when a test advances the
//! clock, and retry jitter flows from the seed. The invariants asserted
//! are the degradation ones: a skipped source never silently shrinks an
//! "exact" answer (`is_partial` is set), an open breaker never touches
//! its backend, and strict mode reproduces fail-fast semantics.

use lake_core::retry::{Clock, ManualClock, RetryPolicy};
use lake_core::{Dataset, DatasetId, LakeError, Table, Value};
use lake_obs::MetricsRegistry;
use lake_query::degrade::{BreakerConfig, BreakerState, DegradationConfig, QueryBudget, SkipReason};
use lake_query::fault::FaultSource;
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_query::parse_query;
use lake_store::{Polystore, StoreKind};
use std::sync::Arc;

/// The three fixed seeds every seeded scenario replays under (change
/// them and the suite must still pass — determinism is per-seed, not
/// per-value).
const SEEDS: [u64; 3] = [7, 42, 1337];

/// A polystore with the three-substrate "orders" lake the federated unit
/// tests also use: 3 relational + 2 document + 1 file row.
fn setup() -> Polystore {
    let ps = Polystore::new();
    let t = Table::from_rows(
        "orders_eu",
        &["cust", "city", "total"],
        vec![
            vec![Value::str("c1"), Value::str("delft"), Value::Float(10.0)],
            vec![Value::str("c2"), Value::str("paris"), Value::Float(80.0)],
            vec![Value::str("c3"), Value::str("delft"), Value::Float(30.0)],
        ],
    )
    .unwrap();
    ps.store(DatasetId(1), "orders_eu", Dataset::Table(t)).unwrap();
    let docs = vec![
        lake_formats::json::parse(r#"{"buyer": "c7", "addr": {"city": "rome"}, "amount": 55}"#)
            .unwrap(),
        lake_formats::json::parse(r#"{"buyer": "c8", "addr": {"city": "delft"}, "amount": 5}"#)
            .unwrap(),
    ];
    ps.store(DatasetId(2), "orders_docs", Dataset::Documents(docs)).unwrap();
    let tf = Table::from_rows(
        "orders_archive",
        &["cust", "city", "total"],
        vec![vec![Value::str("c9"), Value::str("oslo"), Value::Float(70.0)]],
    )
    .unwrap();
    ps.store_in(DatasetId(3), "orders_archive", Dataset::Table(tf), StoreKind::File).unwrap();
    ps
}

fn bind(store: StoreKind, location: &str, cols: &[(&str, &str)]) -> SourceBinding {
    SourceBinding {
        store,
        location: location.to_string(),
        columns: cols.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect(),
    }
}

fn engine(ps: &Polystore) -> FederatedEngine<'_> {
    let mut fe = FederatedEngine::new(ps);
    fe.register(
        "orders",
        vec![
            bind(
                StoreKind::Relational,
                "orders_eu",
                &[("customer", "cust"), ("city", "city"), ("total", "total")],
            ),
            bind(
                StoreKind::Document,
                "orders_docs",
                &[("customer", "buyer"), ("city", "addr.city"), ("total", "amount")],
            ),
            bind(
                StoreKind::File,
                "tables/orders_archive.pql",
                &[("customer", "cust"), ("city", "city"), ("total", "total")],
            ),
        ],
    );
    fe
}

fn docs_state(fe: &FederatedEngine<'_>) -> BreakerState {
    fe.breaker_status()
        .into_iter()
        .find(|(k, _, _)| k == "orders_docs")
        .map(|(_, s, _)| s)
        .unwrap_or(BreakerState::Closed)
}

// ----------------------------------------------------------------- breaker

/// The acceptance-criterion scenario: the full Closed → Open → HalfOpen →
/// Closed cycle under `ManualClock` + seeded `FaultSource`, replaying
/// identically across all three seeds.
#[test]
fn breaker_full_cycle_replays_identically_across_seeds() {
    for seed in SEEDS {
        let run = || {
            let ps = setup();
            let clock = Arc::new(ManualClock::new());
            let fe = engine(&ps)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .with_degradation(
                    DegradationConfig::degraded()
                        .with_retry(RetryPolicy::none().with_jitter_seed(seed))
                        .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_ms: 50 }),
                )
                .with_faults(FaultSource::new().seed(seed).hard("orders_docs", 2));
            let q = parse_query("select customer, city from orders").unwrap();

            let mut trajectory = Vec::new();
            // q1: docs fails once (Closed, 1 consecutive failure).
            // q2: docs fails again → threshold reached → Open.
            // q3: open breaker denies without a fetch.
            for _ in 0..3 {
                let (t, stats) = fe.execute(&q, true).unwrap();
                trajectory.push((
                    t.num_rows(),
                    stats.completeness.is_partial,
                    stats.subqueries,
                    docs_state(&fe).name(),
                ));
            }
            // Cooldown elapses → the next query probes and heals.
            clock.advance_micros(50_000);
            let (t, stats) = fe.execute(&q, true).unwrap();
            trajectory.push((
                t.num_rows(),
                stats.completeness.is_partial,
                stats.subqueries,
                docs_state(&fe).name(),
            ));
            (trajectory, clock.sleeps(), fe.fault_stats().unwrap())
        };

        let (traj_a, sleeps_a, faults_a) = run();
        let (traj_b, sleeps_b, faults_b) = run();
        assert_eq!(traj_a, traj_b, "cycle must replay for seed {seed}");
        assert_eq!(sleeps_a, sleeps_b);
        assert_eq!(faults_a, faults_b);
        assert_eq!(
            traj_a,
            vec![
                (4, true, 3, "closed"),    // failure 1 of 2
                (4, true, 3, "open"),      // threshold tripped
                (4, true, 2, "open"),      // denied: no subquery to docs
                (6, false, 3, "closed"),   // half-open probe healed
            ],
            "seed {seed}"
        );
        // The denied query never reached the injector: exactly 3 calls
        // (q1, q2, q4-probe).
        assert_eq!(faults_a.calls_to("orders_docs"), 3);
        assert_eq!(faults_a.hard_failures, 2);
    }
}

#[test]
fn failed_half_open_probe_reopens_with_fresh_cooldown() {
    let ps = setup();
    let clock = Arc::new(ManualClock::new());
    let fe = engine(&ps)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .with_degradation(
            DegradationConfig::degraded()
                .with_retry(RetryPolicy::none())
                .with_breaker(BreakerConfig { failure_threshold: 1, cooldown_ms: 10 }),
        )
        .with_faults(FaultSource::new().hard("orders_docs", 2));
    let q = parse_query("select customer from orders").unwrap();

    let (_, s1) = fe.execute(&q, true).unwrap(); // failure → Open
    assert_eq!(s1.completeness.skipped_for(SkipReason::Failed), 1);
    assert_eq!(docs_state(&fe), BreakerState::Open);

    clock.advance_micros(10_000);
    let (_, s2) = fe.execute(&q, true).unwrap(); // probe fails → Open again
    assert_eq!(s2.completeness.skipped_for(SkipReason::Failed), 1);
    assert_eq!(docs_state(&fe), BreakerState::Open);

    // Immediately after the failed probe the fresh cooldown denies.
    let (_, s3) = fe.execute(&q, true).unwrap();
    assert_eq!(s3.completeness.skipped_for(SkipReason::BreakerOpen), 1);

    clock.advance_micros(10_000);
    let (t4, s4) = fe.execute(&q, true).unwrap(); // second probe heals
    assert!(!s4.completeness.is_partial);
    assert_eq!(t4.num_rows(), 6);
    assert_eq!(docs_state(&fe), BreakerState::Closed);
}

#[test]
fn open_breaker_stops_hammering_a_dead_backend() {
    let ps = setup();
    let clock = Arc::new(ManualClock::new());
    let fe = engine(&ps)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .with_degradation(
            DegradationConfig::degraded()
                .with_retry(RetryPolicy::none())
                .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_ms: 1_000 }),
        )
        .with_faults(FaultSource::new().dead("orders_docs"));
    let q = parse_query("select customer from orders").unwrap();
    for _ in 0..10 {
        let (t, stats) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert!(stats.completeness.is_partial);
    }
    // 10 queries, but only 2 fetches ever reached the dead backend.
    assert_eq!(fe.fault_stats().unwrap().calls_to("orders_docs"), 2);
}

// ---------------------------------------------------------------- deadlines

#[test]
fn deadline_expiry_mid_fanout_skips_the_tail_deterministically() {
    for seed in SEEDS {
        let run = || {
            let ps = setup();
            let clock = Arc::new(ManualClock::new());
            let fe = engine(&ps)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .with_degradation(
                    DegradationConfig::degraded()
                        .with_retry(RetryPolicy::new(2).with_jitter_seed(seed))
                        .with_budget(QueryBudget::unlimited().with_total_ms(20)),
                )
                // The relational source hangs past the whole budget.
                .with_faults(FaultSource::new().seed(seed).slow("orders_eu", 25));
            let q = parse_query("select customer, city from orders").unwrap();
            let (t, stats) = fe.execute(&q, true).unwrap();
            (t.num_rows(), stats.subqueries, stats.completeness.clone(), clock.sleeps())
        };
        let (rows_a, subq_a, comp_a, sleeps_a) = run();
        let (rows_b, subq_b, comp_b, sleeps_b) = run();
        assert_eq!((rows_a, subq_a, &comp_a, &sleeps_a), (rows_b, subq_b, &comp_b, &sleeps_b));
        // The slow source still answered (no per-source deadline), but the
        // fan-out tail was cut: docs and file were never consulted.
        assert_eq!(rows_a, 3, "seed {seed}");
        assert_eq!(subq_a, 1);
        assert!(comp_a.is_partial);
        assert_eq!(comp_a.skipped_for(SkipReason::Deadline), 2);
        assert_eq!(comp_a.sources_ok, 1);
    }
}

#[test]
fn per_source_deadline_vs_retry_backoff_interplay() {
    // Backoff sleeps advance the clock, so retries themselves consume the
    // per-source budget: a transient-then-slow source can blow its
    // deadline purely through recovery time.
    let ps = setup();
    let clock = Arc::new(ManualClock::new());
    let fe = engine(&ps)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .with_degradation(
            DegradationConfig::degraded()
                .with_retry(RetryPolicy::new(3).with_base_delay_ms(8).with_max_delay_ms(8))
                .with_budget(QueryBudget::unlimited().with_per_source_ms(10)),
        )
        // Two transients → two backoffs of ≥8ms each → >10ms deadline.
        .with_faults(FaultSource::new().transient("orders_eu", 2));
    let q = parse_query("select customer from orders").unwrap();
    let (t, stats) = fe.execute(&q, true).unwrap();
    assert_eq!(t.num_rows(), 3, "docs + file answered");
    assert_eq!(stats.completeness.timed_out(), 1);
    assert!(stats.completeness.is_partial);
    assert!(clock.total_ms() >= 16, "retry backoff drove the timeout");
}

// ------------------------------------------------------------- total outage

#[test]
fn all_sources_down_yields_an_empty_but_honest_answer() {
    let ps = setup();
    let clock = Arc::new(ManualClock::new());
    let faults = || {
        FaultSource::new()
            .dead("orders_eu")
            .dead("orders_docs")
            .dead("tables/orders_archive.pql")
    };
    let fe = engine(&ps)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .with_degradation(DegradationConfig::degraded().with_retry(RetryPolicy::none()))
        .with_faults(faults());
    let q = parse_query("select customer, city from orders").unwrap();
    let (t, stats) = fe.execute(&q, true).unwrap();
    assert_eq!(t.num_rows(), 0);
    assert_eq!(stats.completeness.sources_ok, 0);
    assert_eq!(stats.completeness.skipped.len(), 3);
    assert!(stats.completeness.is_partial);
    assert_eq!(stats.completeness.skipped_for(SkipReason::Failed), 3);

    // Strict mode turns the same outage into an error.
    let strict = engine(&ps)
        .with_clock(Arc::new(ManualClock::new()) as Arc<dyn Clock>)
        .with_degradation(DegradationConfig::strict().with_retry(RetryPolicy::none()))
        .with_faults(faults());
    let r = strict.execute(&q, true);
    assert!(matches!(r, Err(LakeError::Io(_))), "{r:?}");
}

// ------------------------------------------------------------- equivalence

#[test]
fn strict_and_degraded_agree_when_nothing_fails() {
    let ps = setup();
    let q = parse_query("select customer, city, total from orders").unwrap();
    let plain = engine(&ps);
    let (pt, pstats) = plain.execute(&q, true).unwrap();

    for cfg in [DegradationConfig::degraded(), DegradationConfig::strict()] {
        let fe = engine(&ps)
            .with_clock(Arc::new(ManualClock::new()) as Arc<dyn Clock>)
            .with_degradation(cfg);
        let (t, stats) = fe.execute(&q, true).unwrap();
        assert_eq!(t, pt, "healthy sources: degraded == strict == plain");
        assert_eq!(stats.rows_moved, pstats.rows_moved);
        assert_eq!(stats.subqueries, pstats.subqueries);
        assert!(!stats.completeness.is_partial);
        assert_eq!(stats.completeness.sources_ok, 3);
    }
}

#[test]
fn strict_mode_equivalence_under_pure_transients() {
    // Transients below the retry budget are invisible in both modes: the
    // answers and the retry counters agree.
    for seed in SEEDS {
        let mk = |strict: bool| {
            let ps = setup();
            let clock = Arc::new(ManualClock::new());
            let cfg = if strict { DegradationConfig::strict() } else { DegradationConfig::degraded() };
            let fe = engine(&ps)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .with_degradation(cfg.with_retry(RetryPolicy::new(4).with_jitter_seed(seed)))
                .with_faults(
                    FaultSource::new().seed(seed).transient("orders_eu", 2).transient("orders_docs", 1),
                );
            let q = parse_query("select customer from orders").unwrap();
            let (t, stats) = fe.execute(&q, true).unwrap();
            (t, stats.completeness.is_partial, fe.retry_stats().retries, clock.sleeps())
        };
        let (dt, dp, dr, ds) = mk(false);
        let (st, sp, sr, ss) = mk(true);
        assert_eq!(dt, st, "seed {seed}");
        assert_eq!((dp, sp), (false, false));
        assert_eq!(dr, sr);
        assert_eq!(ds, ss, "identical backoff schedules, seed {seed}");
        assert_eq!(dr, 3, "three injected transients absorbed");
    }
}

// ------------------------------------------------------------------- joins

#[test]
fn join_over_a_degraded_side_is_partial_not_wrong() {
    let ps = setup();
    let profiles = vec![
        lake_formats::json::parse(r#"{"who": "c1", "tier": "gold"}"#).unwrap(),
        lake_formats::json::parse(r#"{"who": "c3", "tier": "silver"}"#).unwrap(),
    ];
    ps.documents.insert_many("profiles", profiles);
    let mut fe = engine(&ps);
    fe.register(
        "tiers",
        vec![bind(StoreKind::Document, "profiles", &[("who", "who"), ("tier", "tier")])],
    );
    let fe = fe
        .with_clock(Arc::new(ManualClock::new()) as Arc<dyn Clock>)
        .with_degradation(DegradationConfig::degraded().with_retry(RetryPolicy::none()))
        // Kill one of the *orders* sources: the join still produces the
        // rows it can prove, flagged partial.
        .with_faults(FaultSource::new().dead("orders_eu"));
    let q = lake_query::ast::parse_join_query(
        "select tier, city from orders join tiers on customer = who",
    )
    .unwrap();
    let (t, stats) = fe.execute_join(&q, true).unwrap();
    // c1/c3 live in the dead relational source; no join rows survive,
    // and the report says exactly which source is to blame.
    assert_eq!(t.num_rows(), 0);
    assert!(stats.completeness.is_partial);
    assert_eq!(stats.completeness.skipped.len(), 1);
    assert_eq!(stats.completeness.skipped[0].location, "orders_eu");
    assert_eq!(stats.completeness.sources_ok, 3, "docs + file + profiles answered");
}

// ------------------------------------------------------------ observability

#[test]
fn skip_counters_match_completeness_reports() {
    let ps = setup();
    let registry = MetricsRegistry::new();
    let clock = Arc::new(ManualClock::new());
    let fe = engine(&ps)
        .with_obs(&registry, Arc::clone(&clock) as Arc<dyn Clock>)
        .with_degradation(
            DegradationConfig::degraded()
                .with_retry(RetryPolicy::none())
                .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_ms: 1_000 }),
        )
        .with_faults(FaultSource::new().dead("orders_docs"));
    let q = parse_query("select customer from orders").unwrap();
    let mut skipped_total = 0usize;
    let mut partials = 0u64;
    for _ in 0..5 {
        let (_, stats) = fe.execute(&q, true).unwrap();
        skipped_total += stats.completeness.skipped.len();
        partials += u64::from(stats.completeness.is_partial);
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter_value("lake_query_source_skipped_total"), skipped_total as u64);
    assert_eq!(snap.counter_value("lake_query_partial_total"), partials);
    assert_eq!(partials, 5);
    // breaker gauge for the dead source reads Open.
    let open = snap.gauges.iter().any(|(id, v)| {
        id.name == "lake_query_breaker_state"
            && id.labels.iter().any(|(k, val)| k == "source" && val == "orders_docs")
            && *v == 1
    });
    assert!(open, "breaker gauge must export Open for the dead source");
}

// -------------------------------------------------------------------- soak

#[test]
fn seeded_soak_replays_deterministically() {
    for seed in SEEDS {
        let run = || {
            let ps = setup();
            let clock = Arc::new(ManualClock::new());
            let fe = engine(&ps)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .with_degradation(
                    DegradationConfig::degraded()
                        .with_retry(RetryPolicy::new(2).with_base_delay_ms(2).with_jitter_seed(seed))
                        .with_breaker(BreakerConfig { failure_threshold: 3, cooldown_ms: 15 }),
                )
                .with_faults(
                    FaultSource::new()
                        .seed(seed)
                        .transient_probability("orders_eu", 0.45)
                        .transient_probability("orders_docs", 0.45)
                        .hang("tables/orders_archive.pql", 5, 4),
                );
            let q = parse_query("select customer, total from orders").unwrap();
            let mut trajectory = Vec::new();
            for i in 0..30u64 {
                let (t, stats) = fe.execute(&q, true).unwrap();
                trajectory.push((
                    t.num_rows(),
                    stats.completeness.is_partial,
                    stats.subqueries,
                    stats
                        .completeness
                        .skipped
                        .iter()
                        .map(|s| (s.location.clone(), s.reason.name()))
                        .collect::<Vec<_>>(),
                ));
                if i % 4 == 0 {
                    clock.advance_micros(9_000);
                }
            }
            (trajectory, clock.sleeps(), fe.retry_stats(), fe.fault_stats().unwrap())
        };
        let (traj_a, sleeps_a, retry_a, faults_a) = run();
        let (traj_b, sleeps_b, retry_b, faults_b) = run();
        assert_eq!(traj_a, traj_b, "soak must replay for seed {seed}");
        assert_eq!(sleeps_a, sleeps_b);
        assert_eq!(retry_a, retry_b);
        assert_eq!(faults_a, faults_b);
        // The soak is non-trivial: transients actually flew, and at
        // least one query of the thirty saw degradation or recovery.
        assert!(faults_a.transients > 0, "seed {seed} injected nothing");
        assert!(retry_a.retries > 0);
        assert!(traj_a.iter().any(|(_, partial, _, _)| *partial), "seed {seed}: no partials");
        assert!(traj_a.iter().any(|(_, partial, _, _)| !*partial), "seed {seed}: no exact answers");
    }
}
