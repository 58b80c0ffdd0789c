//! Federated query processing over the polystore (§7.2).
//!
//! Ontario "profiles each dataset with its metadata … Given an input
//! SPARQL query, Ontario first decomposes the query. Then it uses the
//! profiles to generate subqueries for each dataset"; Squerall maps source
//! schemata to a mediator and joins/transforms retrieved entities;
//! Constance pushes selection predicates down to the sources. The
//! [`FederatedEngine`] does all three over the `lake-store` substrates:
//!
//! * a *mediated table* unions one or more sources (relational tables,
//!   document collections with path→column mappings, or columnar files in
//!   the object store);
//! * queries ([`crate::ast::Query`]) are decomposed into per-source plans;
//! * predicates are evaluated inside each source when `pushdown` is on
//!   (the measurable E9 toggle), or at the mediator otherwise — by the
//!   same [`lake_store::predicate`] evaluators either way, so the toggle
//!   moves the data-movement count, never the answer;
//! * each source hands the mediator the selected *columns*, which are
//!   appended column to column (DESIGN.md §11a);
//! * SPARQL-like triple patterns pass through to the graph store.
//!
//! With a [`DegradationConfig`] attached ([`FederatedEngine::with_degradation`])
//! the engine degrades gracefully instead of failing fast: each source
//! fetch walks the **budget → retry → breaker → skip** ladder (see
//! [`crate::degrade`]) and a skipped source is recorded in the
//! [`Completeness`] report on [`ExecStats`] rather than aborting the
//! query. `strict` mode keeps the protection machinery but surfaces every
//! skip as an error — the pre-degradation semantics.

use crate::ast::Query;
use crate::degrade::{Completeness, DegradationConfig, SkipReason, SkippedSource};
use crate::fault::FaultSource;
use lake_core::degrade::{Admission, BreakerState, CircuitBreaker};
use lake_core::retry::{retry_with_stats, Clock, RetryStats, SystemClock};
use lake_core::{Column, Json, LakeError, Result, Table, Value};
use lake_obs::{Counter, Histogram, MetricsRegistry, MICROS_TO_SECONDS};
use lake_store::graphstore::TriplePattern;
use lake_formats::columnar::ColumnarFile;
use lake_store::predicate::{self, Predicate};
use lake_store::{Polystore, StoreKind};
use std::collections::BTreeMap;
use lake_core::sync::LeafMutex;
use std::sync::Arc;

/// Pre-registered `lake_query_*` handles plus the registry itself (for
/// per-source breaker gauges and labelled skip counters created as
/// backends are first consulted); attached with
/// [`FederatedEngine::with_obs`].
struct QueryMetrics<'a> {
    registry: &'a MetricsRegistry,
    execute_total: Arc<Counter>,
    subqueries_total: Arc<Counter>,
    rows_moved_total: Arc<Counter>,
    partial_total: Arc<Counter>,
    relational_seconds: Arc<Histogram>,
    document_seconds: Arc<Histogram>,
    file_seconds: Arc<Histogram>,
}

impl<'a> QueryMetrics<'a> {
    fn register(registry: &'a MetricsRegistry) -> QueryMetrics<'a> {
        let source = |kind: &str| {
            registry.histogram_with(
                "lake_query_source_seconds",
                &[("kind", kind)],
                MICROS_TO_SECONDS,
            )
        };
        QueryMetrics {
            registry,
            execute_total: registry.counter("lake_query_execute_total"),
            subqueries_total: registry.counter("lake_query_subqueries_total"),
            rows_moved_total: registry.counter("lake_query_rows_moved_total"),
            partial_total: registry.counter("lake_query_partial_total"),
            relational_seconds: source("relational"),
            document_seconds: source("document"),
            file_seconds: source("file"),
        }
    }

    fn source_seconds(&self, kind: StoreKind) -> Option<&Histogram> {
        match kind {
            StoreKind::Relational => Some(&self.relational_seconds),
            StoreKind::Document => Some(&self.document_seconds),
            StoreKind::File => Some(&self.file_seconds),
            StoreKind::Graph => None,
        }
    }

    fn skipped(&self, reason: SkipReason) {
        self.registry
            .counter_with("lake_query_source_skipped_total", &[("reason", reason.name())])
            .inc();
    }

    fn breaker_state(&self, key: &str, state: BreakerState) {
        self.registry
            .gauge_with("lake_query_breaker_state", &[("source", key)])
            .set(state.gauge_value());
    }
}

/// One source backing a mediated table.
#[derive(Debug, Clone)]
pub struct SourceBinding {
    /// Which substrate holds it.
    pub store: StoreKind,
    /// Table name / collection name / object key.
    pub location: String,
    /// mediated column → source column or dotted document path.
    pub columns: BTreeMap<String, String>,
}

/// Execution metrics of one federated query (the E9 measurements), plus
/// the completeness report distinguishing exact from degraded answers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows/documents shipped from sources to the mediator.
    pub rows_moved: usize,
    /// Subqueries issued (breaker-denied sources issue none).
    pub subqueries: usize,
    /// Which sources answered, which were skipped and why.
    pub completeness: Completeness,
}

/// The mediator.
pub struct FederatedEngine<'a> {
    store: &'a Polystore,
    mediated: BTreeMap<String, Vec<SourceBinding>>,
    obs: Option<QueryMetrics<'a>>,
    clock: Arc<dyn Clock>,
    degradation: Option<DegradationConfig>,
    breakers: CircuitBreaker,
    faults: Option<FaultSource>,
    retry_stats: LeafMutex<RetryStats>,
}

impl<'a> FederatedEngine<'a> {
    /// A mediator over a polystore.
    pub fn new(store: &'a Polystore) -> FederatedEngine<'a> {
        FederatedEngine {
            store,
            mediated: BTreeMap::new(),
            obs: None,
            clock: Arc::new(SystemClock),
            degradation: None,
            breakers: CircuitBreaker::new(),
            faults: None,
            retry_stats: LeafMutex::new(RetryStats::default(), "query.federated.retry_stats"),
        }
    }

    /// Attach a metrics registry: `execute` then records
    /// `lake_query_execute_total`, `lake_query_subqueries_total`,
    /// `lake_query_rows_moved_total`, `lake_query_partial_total` counters,
    /// a per-backend `lake_query_source_seconds{kind=...}` fan-out latency
    /// histogram timed with `clock` (pass a `ManualClock` for
    /// deterministic tests), and — under degradation — per-reason
    /// `lake_query_source_skipped_total` counters plus per-source
    /// `lake_query_breaker_state` gauges (0 closed / 1 open / 2 half-open).
    pub fn with_obs(
        mut self,
        registry: &'a MetricsRegistry,
        clock: Arc<dyn Clock>,
    ) -> FederatedEngine<'a> {
        self.obs = Some(QueryMetrics::register(registry));
        self.clock = clock;
        self
    }

    /// Replace the engine clock (deadlines, fan-out timing, breaker
    /// cooldowns). [`FederatedEngine::with_obs`] also sets it.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> FederatedEngine<'a> {
        self.clock = clock;
        self
    }

    /// Enable the degradation ladder: deadlines from the budget, retries
    /// for transient source errors, per-backend circuit breakers, and —
    /// unless `config.strict` — skip-and-report semantics for failing
    /// sources.
    pub fn with_degradation(mut self, config: DegradationConfig) -> FederatedEngine<'a> {
        self.degradation = Some(config);
        self
    }

    /// Attach a seeded fault injector intercepting every source fetch
    /// (tests / chaos suites; see [`crate::fault::FaultSource`]).
    pub fn with_faults(mut self, faults: FaultSource) -> FederatedEngine<'a> {
        self.faults = Some(faults);
        self
    }

    /// Register a mediated table.
    pub fn register(&mut self, name: &str, sources: Vec<SourceBinding>) {
        self.mediated.insert(name.to_string(), sources);
    }

    /// Per-backend breaker snapshot: (source, state, consecutive failures).
    /// Empty until sources have been consulted under degradation.
    pub fn breaker_status(&self) -> Vec<(String, BreakerState, u32)> {
        self.breakers.status()
    }

    /// Retry counters accumulated across this engine's source fetches.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry_stats.lock()
    }

    /// The attached fault injector's counters, if any.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultSourceStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    fn merge_retry(&self, stats: &RetryStats) {
        self.retry_stats.lock().merge(stats);
    }

    fn export_breaker(&self, key: &str, state: BreakerState) {
        if let Some(obs) = &self.obs {
            obs.breaker_state(key, state);
        }
    }

    /// Execute a query; returns the merged table and execution stats.
    /// Under degradation, failing sources are skipped and recorded in
    /// `stats.completeness` instead of aborting (unless `strict`).
    pub fn execute(&self, query: &Query, pushdown: bool) -> Result<(Table, ExecStats)> {
        let sources = self
            .mediated
            .get(&query.table)
            .ok_or_else(|| LakeError::not_found(format!("mediated table {}", query.table)))?;
        let mut stats = ExecStats::default();
        let select: Vec<String> = if query.select.is_empty() {
            sources
                .first()
                .map(|s| s.columns.keys().cloned().collect())
                .unwrap_or_default()
        } else {
            query.select.clone()
        };

        let mut out_cols: Vec<Column> =
            select.iter().map(|n| Column::new(n.clone(), Vec::new())).collect();

        let q_start = self.clock.now_micros();
        for src in sources {
            if let Some(cols) =
                self.consult(src, &select, &query.filters, pushdown, q_start, &mut stats)?
            {
                stats.completeness.sources_ok += 1;
                for (out, mut col) in out_cols.iter_mut().zip(cols) {
                    out.values.append(&mut col.values);
                }
            }
        }
        stats.completeness.is_partial = !stats.completeness.skipped.is_empty();
        if let Some(obs) = self.obs.as_ref() {
            obs.execute_total.inc();
            obs.subqueries_total.add(stats.subqueries as u64);
            obs.rows_moved_total.add(stats.rows_moved as u64);
            if stats.completeness.is_partial {
                obs.partial_total.inc();
            }
        }
        if let Some(limit) = query.limit {
            out_cols.iter_mut().for_each(|c| c.values.truncate(limit));
        }
        Ok((Table::from_columns(query.table.clone(), out_cols)?, stats))
    }

    /// Consult one source through the degradation ladder. `Ok(Some(columns))`
    /// merges; `Ok(None)` means the source was skipped and recorded in
    /// `stats.completeness`; `Err` aborts the query (no degradation
    /// configured, or strict mode).
    fn consult(
        &self,
        src: &SourceBinding,
        select: &[String],
        filters: &[Predicate],
        pushdown: bool,
        q_start_us: u64,
        stats: &mut ExecStats,
    ) -> Result<Option<Vec<Column>>> {
        let Some(cfg) = self.degradation.as_ref() else {
            // No degradation: fail-fast, but faults still intercept so
            // the decorator works standalone.
            stats.subqueries += 1;
            let started = self.clock.now_micros();
            let fetched = self.intercepted_fetch(src, select, filters, pushdown);
            self.observe_source(src.store, started);
            let (cols, moved) = fetched?;
            stats.rows_moved += moved;
            return Ok(Some(cols));
        };

        // 1. Total budget: sources not reached before the deadline are
        //    skipped without touching the backend (or its breaker).
        let now = self.clock.now_micros();
        if let Some(total) = cfg.budget.total_ms {
            if now.saturating_sub(q_start_us) > total.saturating_mul(1_000) {
                return self.skip(
                    src,
                    SkipReason::Deadline,
                    cfg,
                    stats,
                    LakeError::transient(format!(
                        "query deadline ({total}ms) expired before consulting {}",
                        src.location
                    )),
                );
            }
        }

        // 2. Breaker admission: an open breaker rejects without a fetch.
        match self.breakers.admit(&src.location, &cfg.breaker, now) {
            Admission::Deny => {
                return self.skip(
                    src,
                    SkipReason::BreakerOpen,
                    cfg,
                    stats,
                    LakeError::transient(format!("circuit open for {}", src.location)),
                );
            }
            Admission::Allow | Admission::Probe => {}
        }

        // 3. The fetch itself, under the retry policy (transients only);
        //    backoff sleeps advance the clock, so they consume budget.
        stats.subqueries += 1;
        let started = self.clock.now_micros();
        let mut rstats = RetryStats::default();
        let fetched = retry_with_stats(&cfg.retry, self.clock.as_ref(), &mut rstats, || {
            self.intercepted_fetch(src, select, filters, pushdown)
        });
        self.merge_retry(&rstats);
        let elapsed_us = self.clock.now_micros().saturating_sub(started);
        self.observe_source(src.store, started);

        // 4. Outcome → breaker + completeness.
        match fetched {
            Err(e) => {
                let state =
                    self.breakers.record(&src.location, &cfg.breaker, self.clock.now_micros(), false);
                self.export_breaker(&src.location, state);
                self.skip(src, SkipReason::Failed, cfg, stats, e)
            }
            Ok((cols, moved)) => {
                stats.rows_moved += moved;
                let late = cfg
                    .budget
                    .per_source_ms
                    .is_some_and(|ms| elapsed_us > ms.saturating_mul(1_000));
                if late {
                    // The rows shipped but arrived past the per-source
                    // deadline: discard them and count the source slow.
                    let state = self.breakers.record(
                        &src.location,
                        &cfg.breaker,
                        self.clock.now_micros(),
                        false,
                    );
                    self.export_breaker(&src.location, state);
                    self.skip(
                        src,
                        SkipReason::Timeout,
                        cfg,
                        stats,
                        LakeError::transient(format!(
                            "source {} exceeded its {}ms deadline",
                            src.location,
                            cfg.budget.per_source_ms.unwrap_or(0)
                        )),
                    )
                } else {
                    let state = self.breakers.record(
                        &src.location,
                        &cfg.breaker,
                        self.clock.now_micros(),
                        true,
                    );
                    self.export_breaker(&src.location, state);
                    Ok(Some(cols))
                }
            }
        }
    }

    /// Record a skip (degraded) or surface it as the error (strict).
    fn skip(
        &self,
        src: &SourceBinding,
        reason: SkipReason,
        cfg: &DegradationConfig,
        stats: &mut ExecStats,
        err: LakeError,
    ) -> Result<Option<Vec<Column>>> {
        if cfg.strict {
            return Err(err);
        }
        if let Some(obs) = &self.obs {
            obs.skipped(reason);
        }
        stats.completeness.skipped.push(SkippedSource {
            location: src.location.clone(),
            kind: src.store,
            reason,
        });
        Ok(None)
    }

    fn observe_source(&self, kind: StoreKind, started_us: u64) {
        if let Some(obs) = self.obs.as_ref() {
            if let Some(hist) = obs.source_seconds(kind) {
                hist.observe(self.clock.now_micros().saturating_sub(started_us));
            }
        }
    }

    /// One fetch attempt with the fault injector (if any) in front.
    fn intercepted_fetch(
        &self,
        src: &SourceBinding,
        select: &[String],
        filters: &[Predicate],
        pushdown: bool,
    ) -> Result<(Vec<Column>, usize)> {
        if let Some(f) = &self.faults {
            f.intercept(&src.location, self.clock.as_ref())?;
        }
        self.fetch(src, select, filters, pushdown)
    }

    /// Fetch from one source; returns the selected columns, in `select`
    /// order, and the E9 data-movement count for this subquery: the rows
    /// the source ships — the matching ones when it evaluates the filters
    /// itself (`pushdown`), every one it holds when the mediator does.
    fn fetch(
        &self,
        src: &SourceBinding,
        select: &[String],
        filters: &[Predicate],
        pushdown: bool,
    ) -> Result<(Vec<Column>, usize)> {
        // Map mediated attribute → source attribute.
        let map_attr = |a: &str| -> Result<&str> {
            src.columns
                .get(a)
                .map(String::as_str)
                .ok_or_else(|| LakeError::query(format!("source {} lacks attribute {a}", src.location)))
        };
        let mapped_filters: Vec<Predicate> = filters
            .iter()
            .map(|p| Ok(Predicate::new(map_attr(&p.attribute)?, p.op, p.value.clone())))
            .collect::<Result<_>>()?;
        let mapped_select: Vec<&str> = select.iter().map(|s| map_attr(s)).collect::<Result<_>>()?;
        match src.store {
            StoreKind::Relational if pushdown => {
                let relational = &self.store.relational;
                let t = relational.scan(&src.location, &mapped_filters, Some(&mapped_select))?;
                let moved = t.num_rows();
                Ok((t.into_columns(), moved))
            }
            StoreKind::Relational => {
                // The whole table ships; the mediator filters and projects.
                let t = self.store.relational.scan(&src.location, &[], None)?;
                let rows = predicate::matching_rows(&t, &mapped_filters);
                Ok((predicate::gather(&t, &rows, Some(&mapped_select)), t.num_rows()))
            }
            StoreKind::Document => {
                let pushed: &[Predicate] = if pushdown { &mapped_filters } else { &[] };
                let mut docs = self.store.documents.find(&src.location, pushed)?;
                let moved = docs.len();
                if !pushdown {
                    docs.retain(|d| predicate::document_matches(d, &mapped_filters));
                }
                let cell = |d: &Json, path: &str| d.path(path).map_or(Value::Null, Json::to_value);
                let cols = mapped_select
                    .iter()
                    .map(|path| Column::new(*path, docs.iter().map(|d| cell(d, path)).collect()))
                    .collect();
                Ok((cols, moved))
            }
            StoreKind::File => {
                // Columnar files: data skipping via stats when pushing down.
                let bytes = self.store.files.get(&src.location)?;
                let file = ColumnarFile::open(&bytes)?;
                if pushdown && predicate::stats_rule_out(file.stats(), &mapped_filters) {
                    return Ok((Vec::new(), 0)); // pruned without decoding
                }
                let (cols, matched) =
                    predicate::scan_file(&file, &mapped_filters, Some(&mapped_select))?;
                // Without pushdown the whole file ships to the mediator;
                // with it, a source-side service (Ontario's Spark connector
                // for HDFS files) filters first, so only matching rows move.
                Ok((cols, if pushdown { matched.len() } else { file.num_rows() }))
            }
            StoreKind::Graph => Err(LakeError::query(
                "graph sources are queried via triple patterns (see sparql)",
            )),
        }
    }

    /// Execute a two-table join query: each side runs as its own
    /// (push-down-enabled) single-table plan with the filters it can bind;
    /// the mediator hash-joins the streams (Squerall: retrieved entities
    /// "are joined and transformed to form the final query results").
    ///
    /// Under degradation each side may itself be partial; the joined
    /// result's completeness merges both sides, so a join over a degraded
    /// input is *flagged* partial rather than silently missing rows.
    pub fn execute_join(
        &self,
        query: &crate::ast::JoinQuery,
        pushdown: bool,
    ) -> Result<(Table, ExecStats)> {
        let binds = |table: &str, attr: &str| -> bool {
            self.mediated
                .get(table)
                .and_then(|srcs| srcs.first())
                .map(|s| s.columns.contains_key(attr))
                .unwrap_or(false)
        };
        // Route filters to the side that binds them; error on neither.
        let mut left_filters = Vec::new();
        let mut right_filters = Vec::new();
        for p in &query.filters {
            if binds(&query.left, &p.attribute) {
                left_filters.push(p.clone());
            } else if binds(&query.right, &p.attribute) {
                right_filters.push(p.clone());
            } else {
                return Err(LakeError::query(format!(
                    "attribute {} bound by neither {} nor {}",
                    p.attribute, query.left, query.right
                )));
            }
        }
        // Route selected attributes similarly (left wins ties).
        let mut left_select = vec![query.on.0.clone()];
        let mut right_select = vec![query.on.1.clone()];
        for s in &query.select {
            if binds(&query.left, s) {
                left_select.push(s.clone());
            } else if binds(&query.right, s) {
                right_select.push(s.clone());
            } else {
                return Err(LakeError::query(format!("unknown attribute {s}")));
            }
        }

        let (lt, lstats) = self.execute(
            &Query {
                select: left_select,
                table: query.left.clone(),
                filters: left_filters,
                limit: None,
            },
            pushdown,
        )?;
        let (rt, rstats) = self.execute(
            &Query {
                select: right_select,
                table: query.right.clone(),
                filters: right_filters,
                limit: None,
            },
            pushdown,
        )?;

        // Hash join on the ON attributes (both sit at column 0 by
        // construction above). Build on the smaller side — the classic
        // physical-design optimization of federated mediators (Ontario's
        // follow-up work on optimizing federated queries).
        let build_left = lt.num_rows() < rt.num_rows();
        let (build, probe) = if build_left { (&lt, &rt) } else { (&rt, &lt) };
        // Keys borrow from the build side — the table outlives the hash
        // map, so there is no need to clone every join value.
        let mut hash: std::collections::HashMap<&Value, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, key) in build.columns()[0].values.iter().enumerate() {
            if !key.is_null() {
                hash.entry(key).or_default().push(i);
            }
        }
        // Probe for the matching (left row, right row) pairs, then fill each
        // output column from the one side that carries its name (the left
        // table wins a name both carry), resolved once per column.
        let limit = query.limit.unwrap_or(usize::MAX);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        'probe: for (pi, key) in probe.columns()[0].values.iter().enumerate() {
            for &bi in hash.get(key).into_iter().flatten() {
                if pairs.len() >= limit {
                    break 'probe;
                }
                pairs.push(if build_left { (bi, pi) } else { (pi, bi) });
            }
        }
        let cols: Vec<Column> = query
            .select
            .iter()
            .map(|name| {
                let values = match (lt.column(name), rt.column(name)) {
                    (Some(c), _) => pairs.iter().map(|&(li, _)| c.values[li].clone()).collect(),
                    (None, Some(c)) => pairs.iter().map(|&(_, ri)| c.values[ri].clone()).collect(),
                    (None, None) => vec![Value::Null; pairs.len()],
                };
                Column::new(name.clone(), values)
            })
            .collect();
        let mut completeness = lstats.completeness.clone();
        completeness.merge(&rstats.completeness);
        let stats = ExecStats {
            rows_moved: lstats.rows_moved + rstats.rows_moved,
            subqueries: lstats.subqueries + rstats.subqueries,
            completeness,
        };
        Ok((Table::from_columns(format!("{}⋈{}", query.left, query.right), cols)?, stats))
    }

    /// SPARQL-like passthrough: match triple patterns on a named graph.
    ///
    /// Under degradation the graph backend is protected like any other
    /// source — breaker key `graph:<name>`, transient retries under the
    /// policy — but as the query's *only* source there is nothing to
    /// degrade to: a skip surfaces as the error in both modes (and an
    /// open breaker fails fast without touching the store).
    pub fn sparql(
        &self,
        graph: &str,
        patterns: &[TriplePattern],
    ) -> Result<Vec<BTreeMap<String, Value>>> {
        let key = format!("graph:{graph}");
        let Some(cfg) = self.degradation.as_ref() else {
            if let Some(f) = &self.faults {
                f.intercept(&key, self.clock.as_ref())?;
            }
            return self.store.graphs.match_patterns(graph, patterns);
        };
        let now = self.clock.now_micros();
        match self.breakers.admit(&key, &cfg.breaker, now) {
            Admission::Deny => {
                if let Some(obs) = &self.obs {
                    obs.skipped(SkipReason::BreakerOpen);
                }
                return Err(LakeError::transient(format!("circuit open for {key}")));
            }
            Admission::Allow | Admission::Probe => {}
        }
        let mut rstats = RetryStats::default();
        let res = retry_with_stats(&cfg.retry, self.clock.as_ref(), &mut rstats, || {
            if let Some(f) = &self.faults {
                f.intercept(&key, self.clock.as_ref())?;
            }
            self.store.graphs.match_patterns(graph, patterns)
        });
        self.merge_retry(&rstats);
        let state = self.breakers.record(&key, &cfg.breaker, self.clock.now_micros(), res.is_ok());
        self.export_breaker(&key, state);
        if res.is_err() {
            if let Some(obs) = &self.obs {
                obs.skipped(SkipReason::Failed);
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_query;
    use crate::degrade::QueryBudget;
    use lake_core::degrade::BreakerConfig;
    use lake_core::retry::{ManualClock, RetryPolicy};
    use lake_core::Dataset;
    use lake_core::DatasetId;

    fn setup() -> Polystore {
        let ps = Polystore::new();
        // Relational source.
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
        // Document source.
        let docs = vec![
            lake_formats::json::parse(r#"{"buyer": "c7", "addr": {"city": "rome"}, "amount": 55}"#)
                .unwrap(),
            lake_formats::json::parse(r#"{"buyer": "c8", "addr": {"city": "delft"}, "amount": 5}"#)
                .unwrap(),
        ];
        ps.store(DatasetId(2), "orders_docs", Dataset::Documents(docs)).unwrap();
        // Columnar file source.
        let tf = Table::from_rows(
            "orders_archive",
            &["cust", "city", "total"],
            vec![vec![Value::str("c9"), Value::str("oslo"), Value::Float(70.0)]],
        )
        .unwrap();
        ps.store_in(DatasetId(3), "orders_archive", Dataset::Table(tf), StoreKind::File)
            .unwrap();
        ps
    }

    fn engine(ps: &Polystore) -> FederatedEngine<'_> {
        let mut fe = FederatedEngine::new(ps);
        let rel = SourceBinding {
            store: StoreKind::Relational,
            location: "orders_eu".into(),
            columns: [
                ("customer".to_string(), "cust".to_string()),
                ("city".to_string(), "city".to_string()),
                ("total".to_string(), "total".to_string()),
            ]
            .into(),
        };
        let doc = SourceBinding {
            store: StoreKind::Document,
            location: "orders_docs".into(),
            columns: [
                ("customer".to_string(), "buyer".to_string()),
                ("city".to_string(), "addr.city".to_string()),
                ("total".to_string(), "amount".to_string()),
            ]
            .into(),
        };
        let file = SourceBinding {
            store: StoreKind::File,
            location: "tables/orders_archive.pql".into(),
            columns: [
                ("customer".to_string(), "cust".to_string()),
                ("city".to_string(), "city".to_string()),
                ("total".to_string(), "total".to_string()),
            ]
            .into(),
        };
        fe.register("orders", vec![rel, doc, file]);
        fe
    }

    /// Registers the "tiers" mediated table over a document collection.
    fn register_tiers(ps: &Polystore, fe: &mut FederatedEngine<'_>) {
        let profiles = vec![
            lake_formats::json::parse(r#"{"who": "c1", "tier": "gold"}"#).unwrap(),
            lake_formats::json::parse(r#"{"who": "c3", "tier": "silver"}"#).unwrap(),
        ];
        ps.documents.insert_many("profiles", profiles);
        fe.register(
            "tiers",
            vec![SourceBinding {
                store: StoreKind::Document,
                location: "profiles".into(),
                columns: [
                    ("who".to_string(), "who".to_string()),
                    ("tier".to_string(), "tier".to_string()),
                ]
                .into(),
            }],
        );
    }

    #[test]
    fn query_unions_heterogeneous_sources() {
        let ps = setup();
        let fe = engine(&ps);
        let q = parse_query("select customer, city from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 6);
        assert_eq!(stats.subqueries, 3);
        assert!(!stats.completeness.is_partial);
        assert_eq!(stats.completeness.sources_ok, 3);
        let cities = t.column("city").unwrap();
        assert!(cities.values.contains(&Value::str("rome")));
        assert!(cities.values.contains(&Value::str("oslo")));
    }

    #[test]
    fn predicates_filter_across_stores() {
        let ps = setup();
        let fe = engine(&ps);
        let q = parse_query("select customer from orders where city = 'delft'").unwrap();
        let (t, _) = fe.execute(&q, true).unwrap();
        let custs: Vec<String> = t.column("customer").unwrap().values.iter().map(Value::render).collect();
        assert_eq!(custs, vec!["c1", "c3", "c8"]);
    }

    #[test]
    fn pushdown_moves_fewer_rows_same_answer() {
        let ps = setup();
        let fe = engine(&ps);
        let q = parse_query("select customer from orders where total > 50").unwrap();
        let (with, s_with) = fe.execute(&q, true).unwrap();
        ps.relational.reset_counters();
        let (without, s_without) = fe.execute(&q, false).unwrap();
        let mut a: Vec<String> = with.column("customer").unwrap().values.iter().map(Value::render).collect();
        let mut b: Vec<String> = without.column("customer").unwrap().values.iter().map(Value::render).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(
            s_with.rows_moved < s_without.rows_moved,
            "pushdown should move fewer rows: {} vs {}",
            s_with.rows_moved,
            s_without.rows_moved
        );
    }

    #[test]
    fn data_skipping_prunes_columnar_files() {
        let ps = setup();
        let fe = engine(&ps);
        // cust = 'zz' is outside the archive file's min/max → skipped.
        let q = parse_query("select customer from orders where customer = 'zzz'").unwrap();
        let (t, _) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 0);
    }

    /// The same four orders in all three stores, each behind its own
    /// single-source mediated table.
    fn one_source_per_store(ps: &Polystore) -> FederatedEngine<'_> {
        let orders =
            [("c1", "delft", 10), ("c2", "paris", 80), ("c3", "delft", 30), ("c4", "oslo", 70)];
        let rows = orders
            .iter()
            .map(|&(c, city, t)| vec![Value::str(c), Value::str(city), Value::Int(t)])
            .collect();
        let t = Table::from_rows("same_rel", &["cust", "city", "total"], rows).unwrap();
        ps.store_in(DatasetId(11), "same_file", Dataset::Table(t.clone()), StoreKind::File).unwrap();
        ps.store(DatasetId(12), "same_rel", Dataset::Table(t)).unwrap();
        let docs = orders
            .iter()
            .map(|(c, city, t)| {
                let doc = format!(r#"{{"cust": "{c}", "addr": {{"city": "{city}"}}, "total": {t}}}"#);
                lake_formats::json::parse(&doc).unwrap()
            })
            .collect();
        ps.store(DatasetId(13), "same_docs", Dataset::Documents(docs)).unwrap();
        let mut fe = FederatedEngine::new(ps);
        for (store, location, city_path) in [
            (StoreKind::Relational, "same_rel", "city"),
            (StoreKind::Document, "same_docs", "addr.city"),
            (StoreKind::File, "tables/same_file.pql", "city"),
        ] {
            let columns = [("customer", "cust"), ("city", city_path), ("total", "total")]
                .map(|(mediated, source)| (mediated.to_string(), source.to_string()));
            let binding = SourceBinding { store, location: location.into(), columns: columns.into() };
            fe.register(&format!("{store:?}"), vec![binding]);
        }
        fe
    }

    #[test]
    fn every_store_kind_and_pushdown_setting_gives_the_same_answer() {
        let ps = Polystore::new();
        let fe = one_source_per_store(&ps);
        // (query tail, expected rows, rows_moved when pushed down)
        let delft = vec![
            vec![Value::str("c1"), Value::Int(10)],
            vec![Value::str("c3"), Value::Int(30)],
        ];
        let cases = [
            ("where city = 'delft'", delft, 2),
            // 'zurich' lies above the file's max city: its stats prune it.
            ("where city = 'zurich'", vec![], 0),
            // 'milan' lies inside min/max, so the file is decoded and filtered.
            ("where city = 'milan' and total > 5", vec![], 0),
        ];
        for (tail, expected, moved) in cases {
            for table in ["Relational", "Document", "File"] {
                let q = parse_query(&format!("select customer, total from {table} {tail}")).unwrap();
                for pushdown in [true, false] {
                    let (t, stats) = fe.execute(&q, pushdown).unwrap();
                    let what = format!("{table} pushdown={pushdown} {tail}");
                    assert_eq!(t.iter_rows().collect::<Vec<_>>(), expected, "{what}");
                    assert_eq!(t.columns()[1].name, "total", "{what}");
                    // Pushed down, only matches ship; otherwise the whole source.
                    assert_eq!(stats.rows_moved, if pushdown { moved } else { 4 }, "{what}");
                    assert_eq!(stats.subqueries, 1, "{what}");
                    assert_eq!(stats.completeness.sources_ok, 1, "{what}");
                }
            }
        }
        // A limit cuts every column to the same length.
        let q = parse_query("select customer, city, total from Document limit 3").unwrap();
        assert_eq!(fe.execute(&q, false).unwrap().0.num_rows(), 3);
        // …and a join stops at its limit, LIMIT 0 included.
        for (limit, rows) in [(0, 0), (3, 3), (9, 4)] {
            let text = format!(
                "select total, city from Relational join File on customer = customer limit {limit}"
            );
            let q = crate::ast::parse_join_query(&text).unwrap();
            assert_eq!(fe.execute_join(&q, true).unwrap().0.num_rows(), rows, "limit {limit}");
        }
    }

    #[test]
    fn limit_and_unknown_table() {
        let ps = setup();
        let fe = engine(&ps);
        let q = parse_query("select customer from orders limit 2").unwrap();
        let (t, _) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 2);
        let bad = parse_query("select x from ghost").unwrap();
        assert!(fe.execute(&bad, true).is_err());
    }

    #[test]
    fn join_across_mediated_tables() {
        let ps = setup();
        // Second mediated table over the document store keyed by buyer.
        let mut fe = engine(&ps);
        register_tiers(&ps, &mut fe);
        let q = crate::ast::parse_join_query(
            "select tier, city from orders join tiers on customer = who where city = 'delft'",
        )
        .unwrap();
        let (t, stats) = fe.execute_join(&q, true).unwrap();
        // delft customers: c1 (relational), c3 (relational), c8 (docs);
        // tiers exist for c1 and c3.
        assert_eq!(t.num_rows(), 2);
        let tiers: Vec<String> = t.column("tier").unwrap().values.iter().map(Value::render).collect();
        assert!(tiers.contains(&"gold".to_string()));
        assert!(tiers.contains(&"silver".to_string()));
        assert!(stats.subqueries >= 4);
        assert!(!stats.completeness.is_partial);

        // Limit applies to joined output.
        let q2 = crate::ast::parse_join_query(
            "select tier from orders join tiers on customer = who limit 1",
        )
        .unwrap();
        let (t2, _) = fe.execute_join(&q2, true).unwrap();
        assert_eq!(t2.num_rows(), 1);

        // Unroutable attribute errors.
        let q3 = crate::ast::parse_join_query(
            "select nope from orders join tiers on customer = who",
        )
        .unwrap();
        assert!(fe.execute_join(&q3, true).is_err());
    }

    #[test]
    fn join_agrees_with_and_without_pushdown() {
        let ps = setup();
        let mut fe = engine(&ps);
        ps.documents.insert_many(
            "profiles",
            vec![lake_formats::json::parse(r#"{"who": "c2", "tier": "basic"}"#).unwrap()],
        );
        fe.register(
            "tiers",
            vec![SourceBinding {
                store: StoreKind::Document,
                location: "profiles".into(),
                columns: [
                    ("who".to_string(), "who".to_string()),
                    ("tier".to_string(), "tier".to_string()),
                ]
                .into(),
            }],
        );
        let q = crate::ast::parse_join_query(
            "select customer, tier from orders join tiers on customer = who where total > 50",
        )
        .unwrap();
        let (a, sa) = fe.execute_join(&q, true).unwrap();
        let (b, sb) = fe.execute_join(&q, false).unwrap();
        assert_eq!(a, b);
        assert!(sa.rows_moved <= sb.rows_moved);
    }

    #[test]
    fn sparql_passthrough() {
        let ps = setup();
        let mut g = lake_core::PropertyGraph::new();
        let a = g.add_node_with("Person", vec![("name", Value::str("ada"))]);
        let b = g.add_node_with("City", vec![("name", Value::str("delft"))]);
        g.add_edge(a, b, "lives_in");
        ps.graphs.put_graph("people", g);
        let fe = engine(&ps);
        let pats = [TriplePattern {
            s: lake_store::graphstore::Term::Var("p".into()),
            p: lake_store::graphstore::Term::Const(Value::str("lives_in")),
            o: lake_store::graphstore::Term::Var("c".into()),
        }];
        let res = fe.sparql("people", &pats).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["c"], Value::str("delft"));
    }

    #[test]
    fn obs_times_each_backend_and_counts_fanout() {
        use lake_core::retry::ManualClock;

        let ps = setup();
        let registry = MetricsRegistry::new();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps).with_obs(&registry, clock);
        let q = parse_query("select customer, city, total from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 6);

        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("lake_query_execute_total"), 1);
        assert_eq!(
            snap.counter_value("lake_query_subqueries_total"),
            stats.subqueries as u64
        );
        assert_eq!(
            snap.counter_value("lake_query_rows_moved_total"),
            stats.rows_moved as u64
        );
        // One timed fetch per backend kind.
        for kind in ["relational", "document", "file"] {
            let hist = snap
                .histograms
                .iter()
                .find(|(id, _)| {
                    id.name == "lake_query_source_seconds"
                        && id.labels.iter().any(|(k, v)| k == "kind" && v == kind)
                })
                .map(|(_, h)| h)
                .unwrap_or_else(|| panic!("missing source_seconds for {kind}"));
            assert_eq!(hist.count, 1, "kind={kind}");
        }

        // A second query keeps accumulating in the same registry.
        let (_, stats2) = fe.execute(&q, false).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("lake_query_execute_total"), 2);
        assert_eq!(
            snap.counter_value("lake_query_rows_moved_total"),
            (stats.rows_moved + stats2.rows_moved) as u64
        );
    }

    #[test]
    fn dead_backend_degrades_to_partial_answer() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(clock)
            .with_degradation(
                DegradationConfig::degraded().with_retry(RetryPolicy::none()),
            )
            .with_faults(FaultSource::new().dead("orders_docs"));
        let q = parse_query("select customer, city from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        // Relational (3) + file (1) rows; the document source is gone.
        assert_eq!(t.num_rows(), 4);
        assert!(stats.completeness.is_partial);
        assert_eq!(stats.completeness.sources_ok, 2);
        assert_eq!(stats.completeness.skipped.len(), 1);
        assert_eq!(stats.completeness.skipped[0].location, "orders_docs");
        assert_eq!(stats.completeness.skipped[0].reason, SkipReason::Failed);
    }

    #[test]
    fn strict_mode_preserves_fail_fast() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(clock)
            .with_degradation(DegradationConfig::strict().with_retry(RetryPolicy::none()))
            .with_faults(FaultSource::new().dead("orders_docs"));
        let q = parse_query("select customer from orders").unwrap();
        let r = fe.execute(&q, true);
        assert!(matches!(r, Err(LakeError::Io(_))), "{r:?}");
    }

    #[test]
    fn transients_are_absorbed_by_the_retry_policy() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .with_degradation(
                DegradationConfig::degraded().with_retry(RetryPolicy::new(3)),
            )
            .with_faults(FaultSource::new().transient("orders_eu", 2));
        let q = parse_query("select customer from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 6, "all rows despite transients");
        assert!(!stats.completeness.is_partial);
        assert_eq!(fe.retry_stats().retries, 2);
        assert_eq!(clock.sleeps().len(), 2, "two backoffs recorded");
    }

    #[test]
    fn join_with_one_side_degraded_is_flagged_partial() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let mut fe = engine(&ps);
        register_tiers(&ps, &mut fe);
        let fe = fe
            .with_clock(clock)
            .with_degradation(
                DegradationConfig::degraded().with_retry(RetryPolicy::none()),
            )
            .with_faults(FaultSource::new().dead("profiles"));
        let q = crate::ast::parse_join_query(
            "select tier, city from orders join tiers on customer = who where city = 'delft'",
        )
        .unwrap();
        let (t, stats) = fe.execute_join(&q, true).unwrap();
        // The tiers side is dead: no join rows can be produced — but the
        // answer says so instead of pretending to be exact.
        assert_eq!(t.num_rows(), 0);
        assert!(stats.completeness.is_partial, "join over a degraded side must be flagged");
        assert_eq!(stats.completeness.skipped[0].location, "profiles");
        // The healthy side still answered.
        assert_eq!(stats.completeness.sources_ok, 3);
    }

    #[test]
    fn sparql_is_protected_by_the_breaker() {
        let ps = setup();
        let mut g = lake_core::PropertyGraph::new();
        let a = g.add_node_with("Person", vec![("name", Value::str("ada"))]);
        let b = g.add_node_with("City", vec![("name", Value::str("delft"))]);
        g.add_edge(a, b, "lives_in");
        ps.graphs.put_graph("people", g);
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .with_degradation(
                DegradationConfig::degraded()
                    .with_retry(RetryPolicy::none())
                    .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_ms: 100 }),
            )
            .with_faults(FaultSource::new().hard("graph:people", 2));
        let pats = [TriplePattern {
            s: lake_store::graphstore::Term::Var("p".into()),
            p: lake_store::graphstore::Term::Const(Value::str("lives_in")),
            o: lake_store::graphstore::Term::Var("c".into()),
        }];
        // Two hard failures trip the breaker…
        assert!(fe.sparql("people", &pats).is_err());
        assert!(fe.sparql("people", &pats).is_err());
        assert_eq!(
            fe.breaker_status(),
            vec![("graph:people".to_string(), BreakerState::Open, 2)]
        );
        // …so the next call fails fast without reaching the injector.
        let calls_before = fe.fault_stats().map(|s| s.calls_to("graph:people")).unwrap_or(0);
        assert!(fe.sparql("people", &pats).is_err());
        assert_eq!(
            fe.fault_stats().map(|s| s.calls_to("graph:people")),
            Some(calls_before),
            "open breaker must not touch the backend"
        );
        // After the cooldown the half-open probe succeeds and closes.
        clock.advance_micros(100_000);
        let res = fe.sparql("people", &pats).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(fe.breaker_status()[0].1, BreakerState::Closed);
    }

    #[test]
    fn per_source_deadline_discards_late_rows() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(clock)
            .with_degradation(
                DegradationConfig::degraded()
                    .with_retry(RetryPolicy::none())
                    .with_budget(QueryBudget::unlimited().with_per_source_ms(10)),
            )
            .with_faults(FaultSource::new().slow("orders_eu", 50));
        let q = parse_query("select customer from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        // The relational source hung 50ms > 10ms deadline: its 3 rows
        // shipped but were discarded.
        assert_eq!(t.num_rows(), 3, "docs (2) + file (1)");
        assert!(stats.completeness.is_partial);
        assert_eq!(stats.completeness.timed_out(), 1);
        assert_eq!(stats.completeness.skipped[0].reason, SkipReason::Timeout);
    }

    #[test]
    fn total_deadline_skips_remaining_sources() {
        let ps = setup();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_clock(clock)
            .with_degradation(
                DegradationConfig::degraded()
                    .with_retry(RetryPolicy::none())
                    .with_budget(QueryBudget::unlimited().with_total_ms(20)),
            )
            // The first source consumes the whole budget.
            .with_faults(FaultSource::new().slow("orders_eu", 30));
        let q = parse_query("select customer from orders").unwrap();
        let (t, stats) = fe.execute(&q, true).unwrap();
        // orders_eu answered (slow but no per-source deadline); the two
        // remaining sources were never consulted.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(stats.subqueries, 1, "deadline-skipped sources issue no subquery");
        assert_eq!(stats.completeness.skipped_for(SkipReason::Deadline), 2);
        assert!(stats.completeness.is_partial);
    }

    #[test]
    fn degradation_metrics_are_registered() {
        let ps = setup();
        let registry = MetricsRegistry::new();
        let clock = Arc::new(ManualClock::new());
        let fe = engine(&ps)
            .with_obs(&registry, clock)
            .with_degradation(
                DegradationConfig::degraded()
                    .with_retry(RetryPolicy::none())
                    .with_breaker(BreakerConfig { failure_threshold: 1, cooldown_ms: 1_000 }),
            )
            .with_faults(FaultSource::new().dead("orders_docs"));
        let q = parse_query("select customer from orders").unwrap();
        let (_, stats) = fe.execute(&q, true).unwrap();
        assert!(stats.completeness.is_partial);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("lake_query_partial_total"), 1);
        assert_eq!(snap.counter_value("lake_query_source_skipped_total"), 1);
        // The dead source's breaker gauge reads Open (1).
        let gauge = snap
            .gauges
            .iter()
            .find(|(id, _)| {
                id.name == "lake_query_breaker_state"
                    && id.labels.iter().any(|(k, v)| k == "source" && v == "orders_docs")
            })
            .map(|(_, v)| *v);
        assert_eq!(gauge, Some(1));
        // Second query: the open breaker denies without a fetch.
        let (_, stats2) = fe.execute(&q, true).unwrap();
        assert_eq!(stats2.subqueries, 2, "breaker-denied source issues no subquery");
        assert_eq!(stats2.completeness.skipped_for(SkipReason::BreakerOpen), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("lake_query_source_skipped_total"), 2);
    }
}
