//! The query planner behind [`SummarySession`](crate::SummarySession): the
//! paper's §7 greedy loop, the match memo, the three caches and the cost
//! router, in one place.
//!
//! The planner owns its caches and reads everything else through a
//! [`PlanView`] borrowed from the session for one call — catalog, database,
//! AST states, plan generation and router policy — so planning can never
//! change session state beyond what it caches.
//!
//! Fast paths, in order:
//!
//! 1. **Text memo** — an exact repeat of a SQL text seen at the current
//!    generation skips parse, build and fingerprint.
//! 2. **Plan cache** — a query with the same canonical fingerprint
//!    ([`graph_fingerprint`]) planned at the same generation reuses its
//!    cached base graph and match outcomes: the planning loop runs over
//!    them without any match attempt, whatever DML happened since —
//!    including when the decision is "use the base plan": a cost-rejected
//!    match is re-costed, not re-matched. Only an AST the entry has no
//!    outcome for yet (one that was stale until now) is matched. Fault
//!    injection ([`failpoint::any_armed`]) bypasses both so injected
//!    outcomes are never stored or served.
//! 3. **Signature filter** — those missing outcomes come from
//!    [`Rewriter::rewrite_candidates`], which rejects provably-unmatchable
//!    ASTs by signature and fans the rest out across threads, with
//!    deterministic result order.
//!
//! Everything data can change is *derived on every call*: the staleness
//! gate, the cheapest-match pick on current row counts, and the routing
//! decision from those costs and the current [`RouterOptions`]. Nothing
//! else feeds it, so planning the same query over the same data and ASTs
//! always routes the same way.

use crate::{snapshot_epochs, AstState, QueryResult};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use sumtab_catalog::Catalog;
use sumtab_engine::{CacheStats, Database, PlanCache, SumtabError};
use sumtab_matcher::cost::{self, RoutePolicy};
use sumtab_matcher::{CandidateOutcome, Rewrite, Rewriter};
use sumtab_parser::parse_query;
use sumtab_persist::failpoint;
use sumtab_qgm::{build_query, graph_fingerprint, render_graph_sql, MaintStrategy, QgmGraph};

/// Why an AST was passed over during planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedAst {
    /// The AST's name.
    pub ast: String,
    /// Human-readable skip reason (staleness or a matcher error).
    pub reason: String,
}

impl SkippedAst {
    fn new(st: &AstState, reason: String) -> SkippedAst {
        let ast = st.ast.name.clone();
        SkippedAst { ast, reason }
    }
}

/// How the cost-based router disposed of one query's rewrite candidates.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteDecision {
    /// No registered AST matched; the base plan is the only plan.
    NoMatch,
    /// A rewrite matched and the router chose it.
    Rewrite,
    /// A rewrite matched but did not read enough fewer stored rows than
    /// the base plan — the losing rewrite was rejected *before* execution.
    Base {
        /// Stored rows the base plan reads.
        base_cost: f64,
        /// Stored rows the rejected rewrite reads.
        rewrite_cost: f64,
        /// The ASTs the rejected rewrite would have read.
        rejected: Vec<String>,
    },
}

impl RouteDecision {
    /// A stable one-word tag (`none` / `rewrite` / `base`) for benches and
    /// telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            RouteDecision::NoMatch => "none",
            RouteDecision::Rewrite => "rewrite",
            RouteDecision::Base { .. } => "base",
        }
    }

    /// The reason string surfaced through [`QueryResult::routed`]: `Some`
    /// only when the router declined a viable rewrite.
    pub fn describe(&self) -> Option<String> {
        match self {
            RouteDecision::NoMatch | RouteDecision::Rewrite => None,
            RouteDecision::Base {
                base_cost,
                rewrite_cost,
                rejected,
            } => Some(format!(
                "cost routing kept the base plan: rewrite via {} reads \
                 {rewrite_cost:.0} stored rows vs base {base_cost:.0}",
                rejected.join(", ")
            )),
        }
    }
}

/// Tunables for the cost-based router. Routing is a pure function of the
/// match candidates, current row counts and this policy: executing a query
/// never changes how the next one routes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouterOptions {
    /// The static cost policy (rewrite penalty, small-plan gate).
    pub policy: RoutePolicy,
}

/// The outcome of planning one query: the final (possibly rewritten) graph,
/// the ASTs it uses, the ASTs that were considered but skipped, and the
/// router's disposition of the rewrite candidates.
#[derive(Debug, Clone)]
pub struct PlanDetail {
    /// The graph that would execute.
    pub graph: QgmGraph,
    /// Names of the ASTs the plan reads, in application order.
    pub used: Vec<String>,
    /// ASTs skipped for staleness or matcher errors, with reasons.
    pub skipped: Vec<SkippedAst>,
    /// What the cost-based router decided.
    pub routing: RouteDecision,
    /// For each AST the plan reads: how it will be kept fresh under
    /// base-table churn (the registration-time maintainability
    /// certificates).
    pub maintenance: Vec<MaintenanceNote>,
}

/// The maintainability certificate of one AST, surfaced for EXPLAIN and
/// diagnostics: per base table the strongest certified strategy, plus the
/// typed obstructions explaining every downgrade from counting-delta.
#[derive(Debug, Clone)]
pub struct MaintenanceNote {
    /// The AST's name.
    pub ast: String,
    /// Base table (lower-cased) → certified strategy.
    pub strategies: Vec<(String, MaintStrategy)>,
    /// Rendered obstructions (`reason at path: detail`), in analysis order.
    pub obstructions: Vec<String>,
}

impl MaintenanceNote {
    /// Render an AST's registration-time maintainability certificate.
    fn of(st: &AstState) -> MaintenanceNote {
        let reports = &st.maint.reports;
        MaintenanceNote {
            ast: st.ast.name.clone(),
            strategies: reports
                .iter()
                .map(|(t, r)| (t.clone(), r.strategy))
                .collect(),
            obstructions: reports
                .values()
                .flat_map(|r| r.obstructions.iter().map(|o| o.to_string()))
                .collect(),
        }
    }
}

/// What planning reads of its session, borrowed for one call.
pub(crate) struct PlanView<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) db: &'a Database,
    pub(crate) asts: &'a [AstState],
    /// [`SummarySession::plan_generation`](crate::SummarySession::plan_generation):
    /// the one validator of the text memo and the plan cache.
    pub(crate) generation: u64,
    pub(crate) policy: RoutePolicy,
}

impl PlanView<'_> {
    /// Every table a plan for `graph` can depend on, at current epochs: the
    /// query's base tables, each registered AST's base tables (staleness
    /// gating reads them), and each AST's backing table (row counts drive
    /// the best-pick; a refresh rewrites the backing table).
    fn epoch_snapshot(&self, graph: &QgmGraph) -> BTreeMap<String, u64> {
        let mut snap = snapshot_epochs(self.db, graph);
        for st in self.asts {
            snap.extend(snapshot_epochs(self.db, &st.ast.graph));
            let key = st.ast.name.to_ascii_lowercase();
            let e = self.db.epoch(&key);
            snap.insert(key, e);
        }
        snap
    }
}

/// Greedy-loop state (the ASTs already applied, in order) → AST name → that
/// AST's outcome against the graph the state denotes.
type MatchMemo = HashMap<Vec<String>, HashMap<String, CandidateOutcome>>;

/// What the plan cache stores for one fingerprint: the base graph plus a
/// memo of match outcomes. Whether an AST subsumes a query depends only on
/// the two definitions and the catalog, so an entry is validated by the
/// plan generation alone and survives DML; everything data-dependent
/// (staleness, costs, the routing decision) is re-derived from it on every
/// lookup by [`compute_plan`].
struct PlanEntry {
    /// The un-rewritten plan.
    base: QgmGraph,
    /// Filled lazily by the planning loop: an outcome is stored the first
    /// time the loop needs it, so an AST that was stale when the entry was
    /// created is matched when it first turns fresh. Every stored outcome
    /// already passed the matcher's verifier gates.
    memo: Mutex<MatchMemo>,
}

/// Plans a session keeps cached, and SQL texts it remembers the fingerprint
/// of; small — a `PlanEntry` is the base graph plus one rewritten graph per
/// matching AST — and bounded, so a long-lived session cannot grow without
/// limit on a stream of distinct queries.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Default result-cache capacity. Results can be arbitrarily wide (a
/// cached entry clones its rows on every hit), so the default is small;
/// [`SummarySession::set_result_cache_capacity`](crate::SummarySession::set_result_cache_capacity)
/// resizes, `0` disables.
const RESULT_CACHE_CAPACITY: usize = 16;

/// Lock a cache or memo, recovering from poisoning (they hold no
/// invariants a panicking reader could break — cache entries are validated
/// on every lookup anyway, and a memo only ever gains verified outcomes).
fn lock_cache<V>(m: &Mutex<V>) -> MutexGuard<'_, V> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A session's planner: the caches planning reads and fills. They sit
/// behind mutexes so planning runs through `&self`.
pub(crate) struct Planner {
    /// SQL text → fingerprint, validated by generation alone, so an exact
    /// repeat skips parse, build and fingerprint.
    text_memo: Mutex<PlanCache<String>>,
    /// Fingerprint → [`PlanEntry`] (base graph + match-outcome memo),
    /// validated by generation alone.
    plan_cache: Mutex<PlanCache<Arc<PlanEntry>>>,
    /// Fingerprint → complete [`QueryResult`], validated by generation and
    /// an epoch snapshot of every table the plan can depend on: any
    /// mutation of such a table invalidates the cached result.
    result_cache: Mutex<PlanCache<QueryResult>>,
    /// `0` disables result caching entirely.
    result_cache_capacity: usize,
}

impl Default for Planner {
    fn default() -> Planner {
        Planner {
            text_memo: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            result_cache: Mutex::new(PlanCache::new(RESULT_CACHE_CAPACITY)),
            result_cache_capacity: RESULT_CACHE_CAPACITY,
        }
    }
}

impl Planner {
    pub(crate) fn plan_cache_stats(&self) -> CacheStats {
        lock_cache(&self.plan_cache).stats()
    }

    pub(crate) fn result_cache_stats(&self) -> CacheStats {
        lock_cache(&self.result_cache).stats()
    }

    /// Resize the result cache, dropping its contents and keeping its
    /// statistics; `0` disables it.
    pub(crate) fn set_result_cache_capacity(&mut self, n: usize) {
        self.result_cache_capacity = n;
        lock_cache(&self.result_cache).resize(n.max(1));
    }

    pub(crate) fn result_cache_capacity(&self) -> usize {
        self.result_cache_capacity
    }

    /// Plan a query, with the maintenance notes of every AST it reads.
    pub(crate) fn plan_detail(&self, v: &PlanView, sql: &str) -> Result<PlanDetail, SumtabError> {
        let (entry, _) = self.plan_entry(v, sql)?;
        let mut detail = compute_plan(v, &entry);
        detail.maintenance = (detail.used.iter())
            .filter_map(|n| v.asts.iter().find(|st| st.ast.name.eq_ignore_ascii_case(n)))
            .map(MaintenanceNote::of)
            .collect();
        Ok(detail)
    }

    /// The SQL that would run, with routing, skip reasons and maintenance
    /// certificates as leading comments.
    pub(crate) fn explain(&self, v: &PlanView, sql: &str) -> Result<String, SumtabError> {
        let detail = self.plan_detail(v, sql)?;
        let mut out = String::new();
        if !detail.used.is_empty() {
            out.push_str(&format!("-- answered from: {}\n", detail.used.join(", ")));
        } else if detail.routing.describe().is_none() {
            // Truly no usable rewrite. When the router *declined* one, the
            // routing line below tells the fuller story instead.
            out.push_str("-- no summary table applicable\n");
        }
        if let Some(why) = detail.routing.describe() {
            out.push_str(&format!("-- routing: {why}\n"));
        }
        for s in &detail.skipped {
            out.push_str(&format!("-- skipped {}: {}\n", s.ast, s.reason));
        }
        for note in &detail.maintenance {
            let strategies: Vec<_> = note
                .strategies
                .iter()
                .map(|(t, s)| format!("{t}={s}"))
                .collect();
            out.push_str(&format!(
                "-- maintenance {}: {}\n",
                note.ast,
                strategies.join(", ")
            ));
            for o in &note.obstructions {
                out.push_str(&format!("-- obstruction {}: {o}\n", note.ast));
            }
        }
        out.push_str(&render_graph_sql(&detail.graph));
        Ok(out)
    }

    /// Answer a query: from the result cache when an identical query at
    /// identical table epochs and generation was answered before — found
    /// right after the plan-cache lookup, before the planning loop runs —
    /// otherwise by handing the plan to `run`. A result `run` produced
    /// without falling back is stored. Fault injection yields no
    /// fingerprint, so injected outcomes are never stored or served.
    pub(crate) fn query(
        &self,
        v: &PlanView,
        sql: &str,
        run: impl FnOnce(PlanDetail) -> Result<QueryResult, SumtabError>,
    ) -> Result<QueryResult, SumtabError> {
        let (entry, fp) = self.plan_entry(v, sql)?;
        let key = match fp {
            Some(fp) if self.result_cache_capacity > 0 => Some((fp, v.epoch_snapshot(&entry.base))),
            _ => None,
        };
        if let Some((fp, snap)) = &key {
            if let Some(hit) = lock_cache(&self.result_cache).lookup(fp, snap, v.generation) {
                return Ok(hit.clone());
            }
        }
        let result = run(compute_plan(v, &entry))?;
        if let Some((fp, snap)) = key.filter(|_| result.fallback.is_none()) {
            lock_cache(&self.result_cache).store(fp, snap, v.generation, result.clone());
        }
        Ok(result)
    }

    /// The plan entry for a query and its fingerprint; the front half of
    /// planning shared by [`Planner::plan_detail`] and [`Planner::query`].
    /// Makes exactly one plan-cache lookup, and none under fault injection,
    /// which yields a fresh entry and no fingerprint (so nothing keyed by
    /// it is stored or served).
    fn plan_entry(
        &self,
        v: &PlanView,
        sql: &str,
    ) -> Result<(Arc<PlanEntry>, Option<String>), SumtabError> {
        let parse_build = || -> Result<Arc<PlanEntry>, SumtabError> {
            let q = parse_query(sql).map_err(|e| SumtabError::parse(sql, e))?;
            let base = build_query(&q, v.catalog).map_err(|e| SumtabError::plan(sql, e))?;
            let memo = Mutex::default();
            Ok(Arc::new(PlanEntry { base, memo }))
        };
        if failpoint::any_armed() {
            return Ok((parse_build()?, None));
        }
        let (none, gen) = (BTreeMap::new(), v.generation);
        let remembered = lock_cache(&self.text_memo).lookup(sql, &none, gen).cloned();
        let (fp, built) = match remembered {
            Some(fp) => (fp, None),
            None => {
                let e = parse_build()?;
                let fp = graph_fingerprint(&e.base);
                lock_cache(&self.text_memo).store(sql.to_string(), none.clone(), gen, fp.clone());
                (fp, Some(e))
            }
        };
        let cached = lock_cache(&self.plan_cache)
            .lookup(&fp, &none, gen)
            .cloned();
        let entry = match cached {
            Some(e) => e,
            None => {
                let e = built.map_or_else(parse_build, Ok)?;
                lock_cache(&self.plan_cache).store(fp.clone(), none, gen, Arc::clone(&e));
                e
            }
        };
        Ok((entry, Some(fp)))
    }
}

/// The planning loop: gate out stale ASTs, greedily apply the cheapest
/// matching AST until none matches, then keep the rewrite only if it reads
/// enough fewer stored rows than the base plan ([`cost::rewrite_wins`]), at
/// current row counts. Match outcomes come from the entry's memo, and only
/// the ones it lacks are computed (and stored) — on a fresh entry that is
/// every one, so a cold lookup runs exactly the matches a memo-less loop
/// would. The returned plan carries no maintenance notes.
fn compute_plan(v: &PlanView, entry: &PlanEntry) -> PlanDetail {
    let rewriter = Rewriter::new(v.catalog);
    let row_count = |t: &str| v.db.row_count(t);
    let mut memo = lock_cache(&entry.memo);
    let mut used = Vec::new();
    let mut skipped = Vec::new();

    // Soundness gate: an AST whose base tables changed since its last
    // (re)materialization could answer with outdated data — skip it.
    let mut candidates: Vec<&AstState> = Vec::new();
    for st in v.asts {
        match st.staleness(v.db) {
            Some(reason) => skipped.push(SkippedAst::new(st, reason)),
            None => candidates.push(st),
        }
    }

    // The rewritten graph so far; `None` until an AST is applied.
    let mut graph: Option<QgmGraph> = None;
    loop {
        let mut errored: Vec<usize> = Vec::new();
        let mut eligible: Vec<usize> = Vec::new();
        for (i, st) in candidates.iter().enumerate() {
            if failpoint::triggered("match") {
                // A matcher failure disqualifies the AST but must not sink
                // the query: record and move on.
                let reason = "matcher error: injected fault at failpoint `match`";
                skipped.push(SkippedAst::new(st, reason.to_string()));
                errored.push(i);
            } else {
                eligible.push(i);
            }
        }
        // The graph at this state is a function of the ASTs applied so
        // far, so their sequence keys its outcomes.
        let outcomes = memo.entry(used.clone()).or_default();
        let missing: Vec<_> = eligible
            .iter()
            .map(|&i| &candidates[i].ast)
            .filter(|a| !outcomes.contains_key(&a.name))
            .collect();
        if !missing.is_empty() {
            let query = graph.as_ref().unwrap_or(&entry.base);
            let computed = rewriter.rewrite_candidates(query, &missing);
            for (ast, outcome) in missing.iter().zip(computed) {
                outcomes.insert(ast.name.clone(), outcome);
            }
        }
        // §7 multi-AST choice: among the matching candidates, take the one
        // whose rewritten graph reads the fewest stored rows.
        let mut best: Option<(usize, &Rewrite, f64)> = None;
        for &i in &eligible {
            match outcomes.get(&candidates[i].ast.name) {
                Some(CandidateOutcome::Match(rw)) => {
                    let c = cost::estimate(&rw.graph, &row_count).total;
                    if best.as_ref().is_none_or(|(_, _, b)| c < *b) {
                        best = Some((i, rw, c));
                    }
                }
                Some(CandidateOutcome::Error(e)) => {
                    let reason = format!("matcher error: {}", e.detail);
                    skipped.push(SkippedAst::new(candidates[i], reason));
                    errored.push(i);
                }
                _ => {}
            }
        }
        let Some((chosen, rw, _)) = best else {
            break;
        };
        used.push(rw.ast_name.clone());
        graph = Some(rw.graph.clone());
        let mut remove = errored;
        remove.push(chosen);
        remove.sort_unstable();
        for i in remove.into_iter().rev() {
            candidates.remove(i);
        }
    }

    let base_cost = cost::estimate(&entry.base, &row_count);
    let routing = match graph.as_ref().map(|g| cost::estimate(g, &row_count)) {
        None => RouteDecision::NoMatch,
        Some(c) if cost::rewrite_wins(&base_cost, &c, &v.policy) => RouteDecision::Rewrite,
        Some(c) => RouteDecision::Base {
            base_cost: base_cost.total,
            rewrite_cost: c.total,
            rejected: std::mem::take(&mut used),
        },
    };
    PlanDetail {
        graph: match (&routing, graph) {
            (RouteDecision::Rewrite, Some(g)) => g,
            _ => entry.base.clone(),
        },
        used,
        skipped,
        routing,
        maintenance: Vec::new(),
    }
}
