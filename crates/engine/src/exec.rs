//! The QGM executor.
//!
//! One shipping executor and one reference share one plan shape (left-deep
//! hash joins, per-cuboid hash aggregation):
//!
//! * [`execute`] / [`execute_with`] — the **morsel-parallel columnar**
//!   executor. Base-table scans read [`crate::db::ColumnarTable`] columns in
//!   place (zero-copy, dictionary-encoded strings) and every scalar
//!   expression is compiled once per box into a flat [`Program`] of postfix
//!   ops. A SELECT box has exactly one pipeline: it is planned into join
//!   levels (`plan_fused`) — the driver, then one level per further
//!   quantifier, entered through a hash table on its equi-join conjuncts —
//!   and driver morsels, fanned across a `std::thread::scope` pool, stream
//!   depth-first through the levels straight into output rows
//!   (`exec_fused`); no intermediate tuple is materialized. A single scan
//!   is the one-level case; a level with no equi-join conjunct (a cross
//!   product) is keyed by the empty key, which matches all of its filtered
//!   rows. A GROUP BY box has exactly one fold as well (`agg::grouped`): a
//!   base table, or a one-level scan of one with bare grouping columns, is
//!   aggregated in place off its columnar snapshot; any other input is
//!   materialized first. Join tables and GROUP BY folds share one
//!   partitioned build (`par_partition`): rows are scattered by key hash
//!   and each worker takes whole partitions, reading their rows in global
//!   order. Results are byte-identical to the reference for any
//!   pool/morsel size: morsel outputs are merged in morsel order
//!   (slot-merge discipline), a key's join matches keep build scan order,
//!   each group's accumulator folds its rows in global row order, and
//!   group output follows first-occurrence order in both executors.
//! * [`execute_serial`] — the row-at-a-time interpreter, kept as the
//!   differential-testing oracle and bench baseline.
//!
//! ORDER BY + LIMIT uses bounded-heap top-k selection on the parallel path
//! (equivalent to the serial stable sort + truncate, tie-broken by arrival
//! order). For the root SELECT it runs inside the morsel scan: each morsel
//! keeps only its own top k, building a row only once its sort keys, read
//! as cells, beat the heap's top; a LIMIT without ORDER BY keeps a morsel's
//! first k rows. The final selection then sees at most k rows per morsel.

use crate::agg::{
    emit_group_rows, grouped, grouped_serial, plan_group_by, ArgSrc, GroupInput, GroupPlan,
};
use crate::db::{null_bit, ColSlice, ColumnarTable, Database, Row};
use crate::eval::{eval_expr, truth, Env};
use crate::program::{compare, Cell, Program, Resolved, Scratch};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;
use sumtab_catalog::fx::{FxHashMap, FxHasher};
use sumtab_catalog::{Date, Value};
use sumtab_qgm::{BinOp, BoxId, BoxKind, ColRef, QgmGraph, QuantId, QuantKind, ScalarExpr};

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A scalar subquery produced more than one row.
    ScalarSubqueryCardinality(usize),
    /// Tried to execute a matcher-internal graph.
    SubsumerRefInGraph,
    /// The graph violates an executor invariant (e.g. an un-normalized AVG
    /// or a group-by output that is neither item nor aggregate). Reported
    /// instead of panicking so callers can fall back to another plan.
    MalformedGraph {
        /// The offending box.
        box_id: u32,
        /// Which invariant was violated.
        detail: String,
    },
    /// A fault injected through a failpoint (testing only).
    Injected(String),
    /// The plan verifier rejected a compiled expression program
    /// (pass 4: stack balance, jump targets, slot arity).
    Verify(sumtab_qgm::VerifyError),
}

impl ExecError {
    pub(crate) fn malformed(b: BoxId, detail: impl Into<String>) -> ExecError {
        ExecError::MalformedGraph {
            box_id: b.0,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ScalarSubqueryCardinality(n) => {
                write!(f, "scalar subquery returned {n} rows")
            }
            ExecError::SubsumerRefInGraph => {
                write!(f, "graph contains a matcher-internal SubsumerRef box")
            }
            ExecError::MalformedGraph { box_id, detail } => {
                write!(f, "malformed graph at box {box_id}: {detail}")
            }
            ExecError::Injected(fp) => write!(f, "injected fault at failpoint `{fp}`"),
            ExecError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Default morsel granularity: large enough to amortize dispatch, small
/// enough to load-balance skewed filters.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Default worker count: available parallelism, capped at 8.
pub fn default_pool_size() -> usize {
    hw_parallelism().min(8)
}

/// Cached `available_parallelism()`: the number of workers that can make
/// progress simultaneously. Queried once — the executor consults it on
/// every query, and the value cannot change meaningfully mid-process.
fn hw_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Tuning knobs for the parallel columnar executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for morsel fan-out (`1` runs everything inline).
    pub pool_size: usize,
    /// Rows per morsel.
    pub morsel_size: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            pool_size: default_pool_size(),
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }
}

/// Execute a QGM graph against a database; returns the root box's rows,
/// with root ORDER BY / LIMIT applied. Uses the morsel-parallel columnar
/// path with default options.
pub fn execute(g: &QgmGraph, db: &Database) -> Result<Vec<Row>, ExecError> {
    execute_with(g, db, &ExecOptions::default())
}

/// [`execute`] with explicit pool/morsel configuration. Results are
/// identical for every configuration.
pub fn execute_with(
    g: &QgmGraph,
    db: &Database,
    opts: &ExecOptions,
) -> Result<Vec<Row>, ExecError> {
    let rows = {
        // The executor state (memo + shared table cache) must drop before
        // the root `Rc` is unwrapped, or a memo-shared root would force a
        // deep clone of the whole result set.
        //
        // `pool_size` is a maximum degree of parallelism, not a mandate:
        // fan-out is clamped to the hardware parallelism actually present,
        // because extra threads on a saturated machine only add scheduling
        // handoffs. Worker count never affects results (the slot-merge
        // discipline is order-deterministic), so this is pure tuning.
        let mut ex = ParExec {
            g,
            db,
            workers: opts.pool_size.clamp(1, hw_parallelism()),
            morsel: opts.morsel_size.max(1),
            memo: HashMap::new(),
            columnar: HashMap::new(),
        };
        ex.rows_of(g.root)?
    };
    let rows = Rc::try_unwrap(rows).unwrap_or_else(|rc| (*rc).clone());
    Ok(apply_order(g, rows, true))
}

/// The serial row-at-a-time interpreter: the differential-testing oracle
/// and bench baseline for the parallel columnar path.
pub fn execute_serial(g: &QgmGraph, db: &Database) -> Result<Vec<Row>, ExecError> {
    let rows = {
        let mut ex = SerialExec {
            g,
            db,
            memo: HashMap::new(),
            tables: HashMap::new(),
        };
        ex.exec_box(g.root)?
    };
    let rows = Rc::try_unwrap(rows).unwrap_or_else(|rc| (*rc).clone());
    Ok(apply_order(g, rows, false))
}

// ---------------------------------------------------------------------------
// ORDER BY / LIMIT
// ---------------------------------------------------------------------------

fn cmp_by_keys(a: &Row, b: &Row, keys: &[(usize, bool)]) -> Ordering {
    for &(ord, desc) in keys {
        let c = a[ord].cmp(&b[ord]);
        let c = if desc { c.reverse() } else { c };
        if c != Ordering::Equal {
            return c;
        }
    }
    Ordering::Equal
}

/// Apply root ORDER BY and LIMIT. With `topk` set and a limit smaller than
/// the input, bounded-heap selection replaces the full sort; the result is
/// byte-identical to stable `sort_by` + `truncate` because the selection
/// order is total (sort keys, then original row index). On the parallel
/// path a root SELECT's morsels have already cut their output to the rows
/// that can still win ([`RowBound`]), so this pass sees at most `k` rows
/// per morsel.
fn apply_order(g: &QgmGraph, mut rows: Vec<Row>, topk: bool) -> Vec<Row> {
    let keys = &g.order.keys;
    let limit = g.order.limit.map(|n| n as usize);
    if !keys.is_empty() {
        if let Some(k) = limit {
            if topk && k < rows.len() {
                return top_k(rows, k, keys);
            }
        }
        rows.sort_by(|a, b| cmp_by_keys(a, b, keys));
    }
    if let Some(k) = limit {
        rows.truncate(k);
    }
    rows
}

/// The `k` first rows of a stable sort by `keys`, selected with a bounded
/// max-heap in O(n log k) instead of sorting all n rows.
fn top_k(rows: Vec<Row>, k: usize, keys: &[(usize, bool)]) -> Vec<Row> {
    let mut top = TopK::new(keys, k);
    for row in rows {
        top.push(row);
    }
    top.into_sorted()
}

/// Bounded top-k selection: a max-heap of the `k` least rows pushed so far
/// under the total order (sort keys, arrival). A later arrival loses every
/// tie, so the rows kept are exactly the first `k` of a stable sort by
/// `keys` over everything pushed.
struct TopK<'k> {
    keys: &'k [(usize, bool)],
    k: usize,
    arrivals: usize,
    heap: Vec<(usize, Row)>,
}

impl<'k> TopK<'k> {
    fn new(keys: &'k [(usize, bool)], k: usize) -> TopK<'k> {
        TopK {
            keys,
            k,
            arrivals: 0,
            heap: Vec::new(),
        }
    }

    /// Would a row whose sort-key cells are `key(ordinal)` enter? Once the
    /// heap is full the row must sort strictly before its top, since it
    /// arrives after every kept row and so loses a tie. Lets a caller skip
    /// building a row that cannot win.
    fn admits<'c>(&self, mut key: impl FnMut(usize) -> Cell<'c>) -> bool {
        if self.heap.len() < self.k {
            return true;
        }
        let Some((_, top)) = self.heap.first() else {
            return false; // k == 0
        };
        for &(ord, desc) in self.keys {
            let c = key(ord).grouping_cmp(&top[ord]);
            let c = if desc { c.reverse() } else { c };
            if c != Ordering::Equal {
                return c == Ordering::Less;
            }
        }
        false
    }

    fn push(&mut self, row: Row) {
        let item = (self.arrivals, row);
        self.arrivals += 1;
        let cmp = by_keys_then_arrival(self.keys);
        if self.heap.len() < self.k {
            self.heap.push(item);
            sift_up(&mut self.heap, &cmp);
        } else if self
            .heap
            .first()
            .is_some_and(|top| cmp(&item, top) == Ordering::Less)
        {
            self.heap[0] = item;
            sift_down(&mut self.heap, &cmp);
        }
    }

    /// The kept rows in (sort keys, arrival) order.
    fn into_sorted(mut self) -> Vec<Row> {
        self.heap.sort_by(by_keys_then_arrival(self.keys));
        self.heap.into_iter().map(|(_, r)| r).collect()
    }

    /// The kept rows in arrival order.
    fn into_arrival_order(mut self) -> Vec<Row> {
        self.heap.sort_unstable_by_key(|&(i, _)| i);
        self.heap.into_iter().map(|(_, r)| r).collect()
    }
}

fn by_keys_then_arrival(
    keys: &[(usize, bool)],
) -> impl Fn(&(usize, Row), &(usize, Row)) -> Ordering + '_ {
    move |a, b| cmp_by_keys(&a.1, &b.1, keys).then(a.0.cmp(&b.0))
}

fn sift_up<T>(h: &mut [T], cmp: &impl Fn(&T, &T) -> Ordering) {
    let mut i = h.len().saturating_sub(1);
    while i > 0 {
        let p = (i - 1) / 2;
        if cmp(&h[i], &h[p]) == Ordering::Greater {
            h.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

fn sift_down<T>(h: &mut [T], cmp: &impl Fn(&T, &T) -> Ordering) {
    let mut i = 0usize;
    loop {
        let l = 2 * i + 1;
        if l >= h.len() {
            break;
        }
        let r = l + 1;
        let m = if r < h.len() && cmp(&h[r], &h[l]) == Ordering::Greater {
            r
        } else {
            l
        };
        if cmp(&h[m], &h[i]) == Ordering::Greater {
            h.swap(i, m);
            i = m;
        } else {
            break;
        }
    }
}

/// The root SELECT's share of its graph's ORDER BY … LIMIT: no morsel of
/// it needs to emit more than the rows that can still reach the result.
#[derive(Clone, Copy)]
struct RowBound<'k> {
    keys: &'k [(usize, bool)],
    limit: usize,
}

impl<'k> RowBound<'k> {
    /// The bound on box `b`'s output: only the root under a LIMIT has one.
    fn of(g: &'k QgmGraph, b: BoxId) -> Option<RowBound<'k>> {
        let limit = usize::try_from(g.order.limit?).unwrap_or(usize::MAX);
        let width = g.boxed(b).outputs.len();
        (b == g.root && g.order.keys.iter().all(|&(ord, _)| ord < width)).then_some(RowBound {
            keys: &g.order.keys,
            limit,
        })
    }
}

/// Where one morsel of a SELECT box emits. Under a [`RowBound`] a morsel
/// keeps the first `limit` rows it emits (no ORDER BY) or its top `limit`
/// under (sort keys, emission order), in emission order. Morsels
/// concatenate in morsel order, so emission order is global scan order and
/// [`apply_order`] picks from the kept rows exactly what it would pick
/// from all of them.
enum Sink<'k> {
    /// The first `limit` rows; `usize::MAX` keeps every row.
    First(usize, Vec<Row>),
    /// The `k` least rows under (sort keys, emission order).
    Top(TopK<'k>),
}

impl<'k> Sink<'k> {
    /// The sink of a morsel over `driver_rows` driver rows, with room for
    /// `cap` rows when it keeps them all.
    fn new(bound: Option<RowBound<'k>>, driver_rows: usize, cap: usize) -> Sink<'k> {
        match bound {
            Some(RowBound { keys: [], limit }) => {
                Sink::First(limit, Vec::with_capacity(cap.min(limit)))
            }
            // A heap no smaller than the morsel's driver rows seldom drops
            // a row, so it would only add its sifts.
            Some(RowBound { keys, limit }) if limit < driver_rows => {
                Sink::Top(TopK::new(keys, limit))
            }
            _ => Sink::First(usize::MAX, Vec::with_capacity(cap)),
        }
    }

    fn push(&mut self, row: Row) {
        match self {
            Sink::First(limit, rows) => {
                if rows.len() < *limit {
                    rows.push(row);
                }
            }
            Sink::Top(top) => top.push(row),
        }
    }

    /// No row emitted from now on can be kept: the morsel may stop.
    fn is_closed(&self) -> bool {
        match self {
            Sink::First(limit, rows) => rows.len() >= *limit,
            Sink::Top(top) => top.k == 0,
        }
    }

    fn into_rows(self) -> Vec<Row> {
        match self {
            Sink::First(_, rows) => rows,
            Sink::Top(top) => top.into_arrival_order(),
        }
    }
}

// ---------------------------------------------------------------------------
// Morsel scheduling
// ---------------------------------------------------------------------------

/// Below this many rows per worker, fanning out costs more than it saves:
/// [`row_workers`] shrinks the pool so tiny inputs take the serial path
/// outright instead of paying thread-spawn cost to idle at the join.
pub(crate) const MIN_PAR_ROWS: usize = 256;

/// The adaptive worker count for a row-granular stage over `n` rows: never
/// more than one worker per [`MIN_PAR_ROWS`] rows, never zero. `1` means
/// the stage runs inline on the calling thread.
#[inline]
pub(crate) fn row_workers(workers: usize, n: usize) -> usize {
    workers.min(n / MIN_PAR_ROWS).max(1)
}

/// Run `f` over contiguous fixed-size morsels of `0..n`, fanned across
/// `workers` scoped threads, and return the per-morsel results **in morsel
/// order** — the slot-merge discipline that keeps every downstream
/// concatenation deterministic regardless of scheduling.
pub(crate) fn par_map<T, F>(workers: usize, morsel: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    let morsel = morsel.max(1);
    let nm = n.div_ceil(morsel);
    // Never spawn more workers than there are morsels: the surplus would
    // only idle at the scope join.
    let workers = workers.min(nm);
    if workers <= 1 {
        return (0..nm)
            .map(|m| f(m, m * morsel..((m + 1) * morsel).min(n)))
            .collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(nm);
    slots.resize_with(nm, || None);
    let per = nm.div_ceil(workers);
    std::thread::scope(|s| {
        let mut chunks = slots.chunks_mut(per).enumerate();
        // The calling thread takes the first chunk itself instead of
        // spawning and then idling at the join.
        let first = chunks.next();
        for (w, chunk) in chunks {
            let f = &f;
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let m = w * per + j;
                    *slot = Some(f(m, m * morsel..((m + 1) * morsel).min(n)));
                }
            });
        }
        if let Some((_, chunk)) = first {
            for (m, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(m, m * morsel..((m + 1) * morsel).min(n)));
            }
        }
    });
    slots.into_iter().flatten().collect()
}

/// The partitioned build behind the GROUP BY fold and the hash-join build:
/// split rows `0..n` by key hash into `len` partitions (a power of two;
/// partition `p` owns the hashes with `h & (len - 1) == p`) and fold each
/// partition whole. Phase 1 hashes rows morsel-parallel and scatters
/// `(row, hash)` pairs into per-morsel buckets, dropping a row whose `hash`
/// is `None`; phase 2 transposes the buckets partition-major with `Vec`
/// moves, keeping each partition's chunks in morsel order; phase 3 gives
/// each worker whole partitions, so `fold` reads a partition's rows in
/// global order. Results come back in partition order.
pub(crate) fn par_partition<'a, P, H, F>(
    workers: usize,
    morsel: usize,
    n: usize,
    hash: H,
    fold: F,
) -> Vec<P>
where
    P: Send,
    H: Fn(usize, &mut Scratch<'a>) -> Option<u64> + Sync,
    F: Fn(&[Vec<(u32, u64)>]) -> P + Sync,
{
    let w = row_workers(workers, n);
    let nparts = w.next_power_of_two();
    let mask = (nparts - 1) as u64;
    let scattered = par_map(w, morsel, n, |_, range| {
        let mut scratch = Scratch::new();
        let mut parts: Vec<Vec<(u32, u64)>> = vec![Vec::new(); nparts];
        for i in range {
            if let Some(h) = hash(i, &mut scratch) {
                parts[(h & mask) as usize].push((i as u32, h));
            }
        }
        parts
    });
    let mut by_part: Vec<Vec<Vec<(u32, u64)>>> = (0..nparts).map(|_| Vec::new()).collect();
    for morsel_parts in scattered {
        for (p, chunk) in morsel_parts.into_iter().enumerate() {
            if !chunk.is_empty() {
                by_part[p].push(chunk);
            }
        }
    }
    par_map(w, 1, nparts, |p, _| fold(&by_part[p]))
}

// ---------------------------------------------------------------------------
// Shared join-planning helpers
// ---------------------------------------------------------------------------

/// For each predicate, the set of **foreach** quantifiers it references.
fn pred_quant_refs(preds: &[ScalarExpr], quant_set: &HashSet<u32>) -> Vec<HashSet<u32>> {
    preds
        .iter()
        .map(|p| {
            p.col_refs()
                .into_iter()
                .map(|c| c.qid.idx)
                .filter(|i| quant_set.contains(i))
                .collect()
        })
        .collect()
}

/// Is `p` an equality conjunct linking the bound set to quantifier `q`?
fn is_equi_join(
    p: &ScalarExpr,
    offsets: &FxHashMap<u32, usize>,
    q: u32,
    refs: &HashSet<u32>,
) -> bool {
    if !refs.contains(&q) {
        return false;
    }
    let bound_ok = refs.iter().all(|r| *r == q || offsets.contains_key(r));
    bound_ok && refs.len() >= 2 && matches!(p, ScalarExpr::Bin(BinOp::Eq, _, _))
}

/// Split an equality conjunct into (bound-side, q-side) expressions if one
/// side references only bound quantifiers and the other only `q`.
fn split_equi_join(
    p: &ScalarExpr,
    offsets: &FxHashMap<u32, usize>,
    q: u32,
    refs: &HashSet<u32>,
) -> Option<(ScalarExpr, ScalarExpr)> {
    if !refs.contains(&q) || refs.len() < 2 {
        return None;
    }
    if !refs.iter().all(|r| *r == q || offsets.contains_key(r)) {
        return None;
    }
    let ScalarExpr::Bin(BinOp::Eq, l, r) = p else {
        return None;
    };
    let side_refs = |e: &ScalarExpr| -> (bool, bool) {
        let mut has_q = false;
        let mut has_bound = false;
        for c in e.col_refs() {
            if c.qid.idx == q {
                has_q = true;
            } else if offsets.contains_key(&c.qid.idx) {
                has_bound = true;
            }
        }
        (has_q, has_bound)
    };
    let (lq, lb) = side_refs(l);
    let (rq, rb) = side_refs(r);
    match ((lq, lb), (rq, rb)) {
        ((false, true), (true, false)) => Some(((**l).clone(), (**r).clone())),
        ((true, false), (false, true)) => Some(((**r).clone(), (**l).clone())),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Compiled-program helpers (parallel path)
// ---------------------------------------------------------------------------

/// Compile `e` against a fully bound tuple: bound quantifiers resolve to
/// flat tuple offsets, scalar quantifiers to inlined constants.
fn compile_bound(
    e: &ScalarExpr,
    b: BoxId,
    offsets: &FxHashMap<u32, usize>,
    scalars: &FxHashMap<u32, Value>,
    arity: usize,
) -> Result<Program, ExecError> {
    let prog = Program::compile(e, &mut |c: ColRef| {
        if let Some(v) = scalars.get(&c.qid.idx) {
            return Ok(Resolved::Const(v.clone()));
        }
        match offsets.get(&c.qid.idx) {
            Some(&off) => Ok(Resolved::Slot(off + c.ordinal)),
            None => Err(format!("unbound quantifier q{}", c.qid.idx)),
        }
    })
    .map_err(|d| ExecError::malformed(b, d))?;
    verify_program(&prog, b, arity)?;
    Ok(prog)
}

/// Compile `e` against a single child relation: quantifier `q` resolves to
/// the child's own column ordinals, scalar quantifiers to constants.
fn compile_local(
    e: &ScalarExpr,
    b: BoxId,
    q: u32,
    scalars: &FxHashMap<u32, Value>,
    arity: usize,
) -> Result<Program, ExecError> {
    let prog = Program::compile(e, &mut |c: ColRef| {
        if let Some(v) = scalars.get(&c.qid.idx) {
            return Ok(Resolved::Const(v.clone()));
        }
        if c.qid.idx == q {
            Ok(Resolved::Slot(c.ordinal))
        } else {
            Err(format!("unbound quantifier q{}", c.qid.idx))
        }
    })
    .map_err(|d| ExecError::malformed(b, d))?;
    verify_program(&prog, b, arity)?;
    Ok(prog)
}

/// Pass 4 gate: statically verify a freshly compiled program against the
/// input arity it will be evaluated with. Zero-cost when the gates are off.
fn verify_program(prog: &Program, b: BoxId, arity: usize) -> Result<(), ExecError> {
    if sumtab_qgm::verify::runtime_checks_enabled() {
        prog.verify(arity)
            .map_err(|r| ExecError::Verify(sumtab_qgm::VerifyError::program(b.0, r)))?;
    }
    Ok(())
}

/// A scan source for one join input: either a zero-copy columnar base
/// table or the materialized rows of a derived box.
#[derive(Clone, Copy)]
pub(crate) enum Source<'c> {
    Col(&'c ColumnarTable),
    Rows(&'c [Row]),
}

impl<'c> Source<'c> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Source::Col(t) => t.len(),
            Source::Rows(r) => r.len(),
        }
    }

    #[inline]
    pub(crate) fn cell(&self, row: usize, col: usize) -> Cell<'c> {
        match self {
            Source::Col(t) => t.cell(row, col),
            Source::Rows(r) => Cell::of(&r[row][col]),
        }
    }
}

/// Owns the storage a [`Source`] borrows from.
enum Child {
    Col(Arc<ColumnarTable>),
    Rows(Rc<Vec<Row>>),
}

impl Child {
    fn source(&self) -> Source<'_> {
        match self {
            Child::Col(t) => Source::Col(t),
            Child::Rows(r) => Source::Rows(r.as_slice()),
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized predicate kernels (columnar scan path)
// ---------------------------------------------------------------------------

/// A typed filter kernel for a `col <cmp> literal` (or `col IS [NOT] NULL`)
/// predicate over a columnar scan: the comparison runs directly on the
/// typed column slice, with no evaluation stack, no `Cell` boxing, and no
/// per-row dispatch beyond one enum match. Semantics are bit-for-bit those
/// of the compiled [`Program`] the kernel replaces (a NULL operand makes
/// every comparison non-true, doubles compare `Eq` by total order but
/// range-compare by partial order, mixed int/double compares by IEEE
/// value) — the differential tests hold both routes to identical output.
enum Kernel<'c> {
    /// Int column vs int literal.
    IntInt {
        data: &'c [i64],
        nulls: Option<&'c [u64]>,
        op: BinOp,
        rhs: i64,
    },
    /// Int column vs double literal (compared as f64, like `cell_ord`).
    IntF64 {
        data: &'c [i64],
        nulls: Option<&'c [u64]>,
        op: BinOp,
        rhs: f64,
    },
    /// Double column vs numeric literal. `total_eq` selects total-order
    /// equality (double vs double) over IEEE equality (double vs int).
    F64 {
        data: &'c [f64],
        nulls: Option<&'c [u64]>,
        op: BinOp,
        rhs: f64,
        total_eq: bool,
    },
    /// Date column vs date literal (date columns with NULLs fall back to
    /// `Mixed` storage, so no bitmap here).
    DateCmp {
        data: &'c [Date],
        op: BinOp,
        rhs: Date,
    },
    /// String column: the verdict is precomputed per dictionary code.
    StrCode {
        codes: &'c [u32],
        nulls: Option<&'c [u64]>,
        pass: Vec<bool>,
    },
    /// `col IS [NOT] NULL` straight off the bitmap.
    NullTest {
        nulls: Option<&'c [u64]>,
        negated: bool,
    },
}

#[inline]
fn ord_passes(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        _ => false,
    }
}

impl Kernel<'_> {
    /// Does row `i` pass this predicate?
    #[inline]
    fn passes(&self, i: usize) -> bool {
        match self {
            Kernel::IntInt {
                data,
                nulls,
                op,
                rhs,
            } => !null_bit(*nulls, i) && ord_passes(*op, data[i].cmp(rhs)),
            Kernel::IntF64 {
                data,
                nulls,
                op,
                rhs,
            } => {
                if null_bit(*nulls, i) {
                    return false;
                }
                let a = data[i] as f64;
                match op {
                    BinOp::Eq => a == *rhs,
                    BinOp::NotEq => a != *rhs,
                    _ => a.partial_cmp(rhs).is_some_and(|o| ord_passes(*op, o)),
                }
            }
            Kernel::F64 {
                data,
                nulls,
                op,
                rhs,
                total_eq,
            } => {
                if null_bit(*nulls, i) {
                    return false;
                }
                let a = data[i];
                match op {
                    BinOp::Eq if *total_eq => a.total_cmp(rhs).is_eq(),
                    BinOp::NotEq if *total_eq => !a.total_cmp(rhs).is_eq(),
                    BinOp::Eq => a == *rhs,
                    BinOp::NotEq => a != *rhs,
                    _ => a.partial_cmp(rhs).is_some_and(|o| ord_passes(*op, o)),
                }
            }
            Kernel::DateCmp { data, op, rhs } => ord_passes(*op, data[i].cmp(rhs)),
            Kernel::StrCode { codes, nulls, pass } => {
                !null_bit(*nulls, i) && pass[codes[i] as usize]
            }
            Kernel::NullTest { nulls, negated } => null_bit(*nulls, i) != *negated,
        }
    }
}

/// Try to lower a compiled single-column predicate to a typed kernel over
/// columnar table `t`; `None` keeps the program-interpreter route.
fn build_kernel<'c>(prog: &Program, t: &'c ColumnarTable) -> Option<Kernel<'c>> {
    if let Some((slot, negated)) = prog.as_col_is_null() {
        let cv = t.columns().get(slot as usize)?;
        // Mixed storage tracks NULLs in the values, not the bitmap.
        if matches!(cv.slice(), ColSlice::Mixed(_)) {
            return None;
        }
        return Some(Kernel::NullTest {
            nulls: cv.null_words(),
            negated,
        });
    }
    let (slot, op, rhs) = prog.as_col_cmp_const()?;
    let cv = t.columns().get(slot as usize)?;
    let nulls = cv.null_words();
    match (cv.slice(), rhs) {
        (ColSlice::Int(data), Value::Int(b)) => Some(Kernel::IntInt {
            data,
            nulls,
            op,
            rhs: *b,
        }),
        (ColSlice::Int(data), Value::Double(b)) => Some(Kernel::IntF64 {
            data,
            nulls,
            op,
            rhs: *b,
        }),
        (ColSlice::Double(data), Value::Int(b)) => Some(Kernel::F64 {
            data,
            nulls,
            op,
            rhs: *b as f64,
            total_eq: false,
        }),
        (ColSlice::Double(data), Value::Double(b)) => Some(Kernel::F64 {
            data,
            nulls,
            op,
            rhs: *b,
            total_eq: true,
        }),
        (ColSlice::Date(data), Value::Date(b)) => Some(Kernel::DateCmp { data, op, rhs: *b }),
        (ColSlice::Str { codes, dict }, rhs) => {
            let rc = Cell::of(rhs);
            let pass = dict
                .iter()
                .map(|s| compare(op, &Cell::Str(s), &rc) == Some(true))
                .collect();
            Some(Kernel::StrCode { codes, nulls, pass })
        }
        _ => None,
    }
}

/// Lower single-quantifier predicates into typed kernels where the input is
/// columnar; the rest stay on the program interpreter as residuals.
fn lower_singles<'c>(
    singles: &'c [Program],
    src: Source<'c>,
) -> (Vec<Kernel<'c>>, Vec<&'c Program>) {
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut resid: Vec<&Program> = Vec::new();
    for p in singles {
        let kernel = match src {
            Source::Col(t) => build_kernel(p, t),
            Source::Rows(_) => None,
        };
        match kernel {
            Some(k) => kernels.push(k),
            None => resid.push(p),
        }
    }
    (kernels, resid)
}

/// Morsel-parallel prefilter: the indices of `src` rows that pass every
/// kernel and residual predicate, in scan order.
fn filter_indices(
    workers: usize,
    morsel: usize,
    src: Source<'_>,
    kernels: &[Kernel<'_>],
    resid: &[&Program],
) -> Vec<u32> {
    let n = src.len();
    if kernels.is_empty() && resid.is_empty() {
        return (0..n as u32).collect();
    }
    par_map(row_workers(workers, n), morsel, n, |_, range| {
        let mut scratch = Scratch::new();
        let mut keep: Vec<u32> = Vec::new();
        'rows: for i in range {
            for k in kernels {
                if !k.passes(i) {
                    continue 'rows;
                }
            }
            let col = |c: u32| src.cell(i, c as usize);
            for p in resid {
                if p.eval_truth(&col, &mut scratch) != Some(true) {
                    continue 'rows;
                }
            }
            keep.push(i as u32);
        }
        keep
    })
    .into_iter()
    .flatten()
    .collect()
}

// ---------------------------------------------------------------------------
// Partitioned hash-join build
// ---------------------------------------------------------------------------

/// The hash a join key is partitioned by.
#[inline]
fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// A partitioned (radix-style) hash-join build: partition `h & mask` owns
/// every build row whose key hashes to it, so workers build private maps
/// with no cross-worker contention and no single-threaded merge into a
/// shared table. Probes hash the key once to select the partition, whose
/// map hashes the key `Vec` again (length first) with the same hasher.
/// Each key's match list preserves build scan order, exactly like the
/// serial single-map build.
struct JoinTable {
    mask: u64,
    parts: Vec<FxHashMap<Vec<Value>, Vec<u32>>>,
}

impl JoinTable {
    #[inline]
    fn get(&self, key: &[Value]) -> Option<&Vec<u32>> {
        self.parts[(hash_key(key) & self.mask) as usize].get(key)
    }
}

/// Build a [`JoinTable`] over the filtered rows of `src`, keyed by the
/// child-side equi-join programs, through [`par_partition`]: a row whose
/// key has a NULL never joins and is dropped, as in the serial build, and
/// each partition's map takes its rows in scan order. A level with no
/// equi-join conjunct has no programs: every filtered row lands under the
/// empty key, in scan order, and the level's empty probe key matches them
/// all.
fn build_join_table<'c>(
    workers: usize,
    morsel: usize,
    src: Source<'c>,
    filtered: &[u32],
    key_progs: &'c [Program],
) -> JoinTable {
    let key_of = |fi: usize, scratch: &mut Scratch<'c>| -> Option<Vec<Value>> {
        let row = filtered[fi] as usize;
        let col = |c: u32| src.cell(row, c as usize);
        key_progs
            .iter()
            .map(|p| Some(p.eval_value(&col, scratch)).filter(|v| !v.is_null()))
            .collect()
    };
    let parts = par_partition(
        workers,
        morsel,
        filtered.len(),
        |fi, scratch| key_of(fi, scratch).map(|key| hash_key(&key)),
        |chunks| {
            let mut scratch = Scratch::new();
            let mut m: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
            for &(fi, _) in chunks.iter().flatten() {
                if let Some(key) = key_of(fi as usize, &mut scratch) {
                    m.entry(key).or_default().push(filtered[fi as usize]);
                }
            }
            m
        },
    );
    JoinTable {
        mask: (parts.len() - 1) as u64,
        parts,
    }
}

// ---------------------------------------------------------------------------
// The SELECT-box pipeline: fused left-deep join levels
// ---------------------------------------------------------------------------

/// One level of a fused left-deep join: the driver level (index 0) has no
/// probe/build programs; every deeper level is entered through a lookup in
/// its [`JoinTable`]. `singles` filter the child's own rows (child
/// ordinals), `probe` programs are compiled against global tuple slots of
/// the levels bound so far, `build` programs against the child's own
/// ordinals (both empty for a level with no equi-join conjunct), `resid`
/// holds the predicates that become fully bound at this level (global
/// slots).
struct FusedLevel {
    child_box: BoxId,
    child_width: usize,
    singles: Vec<Program>,
    probe: Vec<Program>,
    build: Vec<Program>,
    resid: Vec<Program>,
}

/// A planned SELECT box, scalar-subquery values and constant predicates
/// already folded in: the join levels in execution order and the output
/// programs. Global tuple slots are the levels' columns concatenated, so a
/// one-level plan's slots are its child's own ordinals.
struct FusedPlan {
    levels: Vec<FusedLevel>,
    out_progs: Vec<Program>,
}

/// Plan the join levels and outputs of SELECT box `b` with the serial
/// interpreter's join-order and predicate-placement decisions (same pick
/// rule, same done-marking order), so the row stream — and therefore every
/// downstream fold — is identical. `pred_done` marks the predicates the
/// caller has already decided (the constant ones).
fn plan_fused(
    g: &QgmGraph,
    b: BoxId,
    predicates: &[ScalarExpr],
    foreach: &[QuantId],
    scalars: &FxHashMap<u32, Value>,
    pred_refs: &[HashSet<u32>],
    mut pred_done: Vec<bool>,
) -> Result<FusedPlan, ExecError> {
    let mut offsets: FxHashMap<u32, usize> = FxHashMap::default();
    let mut width = 0usize;
    let mut remaining: Vec<QuantId> = foreach.to_vec();
    let mut levels: Vec<FusedLevel> = Vec::new();

    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|q| {
                !offsets.is_empty()
                    && predicates.iter().enumerate().any(|(i, p)| {
                        !pred_done[i] && is_equi_join(p, &offsets, q.idx, &pred_refs[i])
                    })
            })
            .unwrap_or(0);
        let q = remaining.remove(pick);
        let child_box = g.input_of(q);
        let child_width = g.boxed(child_box).outputs.len();

        let mut singles: Vec<Program> = Vec::new();
        for (i, refs) in pred_refs.iter().enumerate() {
            if !pred_done[i] && refs.len() == 1 && refs.contains(&q.idx) {
                pred_done[i] = true;
                singles.push(compile_local(
                    &predicates[i],
                    b,
                    q.idx,
                    scalars,
                    child_width,
                )?);
            }
        }
        let mut probe: Vec<Program> = Vec::new();
        let mut build: Vec<Program> = Vec::new();
        for (i, p) in predicates.iter().enumerate() {
            if pred_done[i] {
                continue;
            }
            if let Some((bs, qs)) = split_equi_join(p, &offsets, q.idx, &pred_refs[i]) {
                pred_done[i] = true;
                probe.push(compile_bound(&bs, b, &offsets, scalars, width)?);
                build.push(compile_local(&qs, b, q.idx, scalars, child_width)?);
            }
        }
        offsets.insert(q.idx, width);
        width += child_width;

        let mut resid: Vec<Program> = Vec::new();
        let bound: HashSet<u32> = offsets.keys().copied().collect();
        for (i, p) in predicates.iter().enumerate() {
            if pred_done[i] || !pred_refs[i].is_subset(&bound) {
                continue;
            }
            pred_done[i] = true;
            resid.push(compile_bound(p, b, &offsets, scalars, width)?);
        }
        levels.push(FusedLevel {
            child_box,
            child_width,
            singles,
            probe,
            build,
            resid,
        });
    }
    debug_assert!(pred_done.iter().all(|&d| d), "all predicates placed");
    // A predicate over the driver alone is one of its `singles`.
    debug_assert!(levels.iter().take(1).all(|l| l.resid.is_empty()));
    let out_progs = g
        .boxed(b)
        .outputs
        .iter()
        .map(|oc| compile_bound(&oc.expr, b, &offsets, scalars, width))
        .collect::<Result<Vec<Program>, ExecError>>()?;
    Ok(FusedPlan { levels, out_progs })
}

/// Depth-first walk of the fused join levels for one driver row: evaluate
/// the level's probe key over the bound prefix (the empty key of a level
/// with no equi-join conjunct matches all of its filtered rows), iterate
/// matches in build (scan) order — the serial left-deep enumeration order —
/// filter with the predicates that became fully bound at this level, and
/// emit one output row per full match into `out`; a row that a top-k sink
/// would not admit is never built. No intermediate tuple is ever
/// materialized; the bound prefix lives as per-level row cursors (`cur`),
/// and `probe_keys` holds one reused key buffer per level still to probe.
#[allow(clippy::too_many_arguments)]
fn fused_walk<'c>(
    lvl: usize,
    levels: &'c [FusedLevel],
    sources: &[Source<'c>],
    tables: &[JoinTable],
    slot_map: &[(u32, u32)],
    cur: &[std::cell::Cell<u32>],
    scratch: &mut Scratch<'c>,
    out_progs: &'c [Program],
    out_cols: &[Option<(u32, u32)>],
    probe_keys: &mut [Vec<Value>],
    out: &mut Sink<'_>,
) {
    let col = |slot: u32| {
        let (lv, ord) = slot_map[slot as usize];
        sources[lv as usize].cell(cur[lv as usize].get() as usize, ord as usize)
    };
    if lvl == levels.len() {
        let mut out_cell = |ord: usize| match out_cols[ord] {
            Some((lv, o)) => sources[lv as usize].cell(cur[lv as usize].get() as usize, o as usize),
            None => out_progs[ord].eval_with(&col, scratch),
        };
        if let Sink::Top(top) = out {
            if !top.admits(&mut out_cell) {
                return;
            }
        }
        let row = (0..out_progs.len())
            .map(|ord| out_cell(ord).into_value())
            .collect();
        out.push(row);
        return;
    }
    let level = &levels[lvl];
    let (key, deeper_keys) = probe_keys.split_at_mut(1);
    let key = &mut key[0];
    key.clear();
    for p in &level.probe {
        let v = p.eval_value(&col, scratch);
        if v.is_null() {
            return; // NULL never joins
        }
        key.push(v);
    }
    let Some(matches) = tables[lvl - 1].get(key) else {
        return;
    };
    'matches: for &m in matches {
        cur[lvl].set(m);
        for p in &level.resid {
            if p.eval_truth(&col, scratch) != Some(true) {
                continue 'matches;
            }
        }
        fused_walk(
            lvl + 1,
            levels,
            sources,
            tables,
            slot_map,
            cur,
            scratch,
            out_progs,
            out_cols,
            deeper_keys,
            out,
        );
    }
}

// ---------------------------------------------------------------------------
// The morsel-parallel columnar executor
// ---------------------------------------------------------------------------

struct ParExec<'a> {
    g: &'a QgmGraph,
    db: &'a Database,
    workers: usize,
    morsel: usize,
    memo: HashMap<BoxId, Rc<Vec<Row>>>,
    /// Zero-copy columnar snapshots per base table per execution.
    columnar: HashMap<String, Arc<ColumnarTable>>,
}

impl ParExec<'_> {
    fn rows_of(&mut self, b: BoxId) -> Result<Rc<Vec<Row>>, ExecError> {
        if let Some(r) = self.memo.get(&b) {
            return Ok(Rc::clone(r));
        }
        let rows = match &self.g.boxed(b).kind {
            // Scans and GROUP BY inputs read base tables as columns; only a
            // root or a scalar subquery that is a bare base table gets here.
            BoxKind::BaseTable { table } => {
                Rc::new(self.db.rows(&table.to_ascii_lowercase()).to_vec())
            }
            BoxKind::SubsumerRef { .. } => return Err(ExecError::SubsumerRefInGraph),
            BoxKind::Select(_) => Rc::new(self.exec_select(b)?),
            BoxKind::GroupBy(_) => Rc::new(self.exec_group_by(b)?),
        };
        self.memo.insert(b, Rc::clone(&rows));
        Ok(rows)
    }

    /// A join input: base tables scan their columnar snapshot in place;
    /// derived boxes are materialized (and memo-shared) as rows.
    fn child_of(&mut self, b: BoxId) -> Result<Child, ExecError> {
        match &self.g.boxed(b).kind {
            BoxKind::BaseTable { table } => Ok(Child::Col(self.columnar_of(table))),
            _ => Ok(Child::Rows(self.rows_of(b)?)),
        }
    }

    fn columnar_of(&mut self, table: &str) -> Arc<ColumnarTable> {
        let key = table.to_ascii_lowercase();
        if let Some(t) = self.columnar.get(&key) {
            return Arc::clone(t);
        }
        let t = self.db.columnar(&key);
        self.columnar.insert(key, Arc::clone(&t));
        t
    }

    fn exec_select(&mut self, b: BoxId) -> Result<Vec<Row>, ExecError> {
        match self.plan_select(b)? {
            Some(plan) => self.exec_fused(&plan, RowBound::of(self.g, b)),
            None => Ok(Vec::new()),
        }
    }

    /// Plan SELECT box `b`: compute its scalar subqueries, decide its
    /// constant predicates, and plan the rest with [`plan_fused`]. `None`
    /// means a constant predicate is not true — the box has no rows and no
    /// child needs to run.
    fn plan_select(&mut self, b: BoxId) -> Result<Option<FusedPlan>, ExecError> {
        let bx = self.g.boxed(b);
        let sel = bx
            .as_select()
            .ok_or_else(|| ExecError::malformed(b, "plan_select on a non-SELECT box"))?;

        // 1. Pre-compute scalar subquery values.
        let mut scalars: FxHashMap<u32, Value> = FxHashMap::default();
        let mut foreach: Vec<QuantId> = Vec::new();
        for &q in &bx.quants {
            match self.g.quant(q).kind {
                QuantKind::Scalar => {
                    let rows = self.rows_of(self.g.input_of(q))?;
                    let v = match rows.len() {
                        0 => Value::Null,
                        1 => rows[0][0].clone(),
                        n => return Err(ExecError::ScalarSubqueryCardinality(n)),
                    };
                    scalars.insert(q.idx, v);
                }
                QuantKind::Foreach => foreach.push(q),
            }
        }

        // 2. Classify predicates by the foreach quantifiers they reference.
        let quant_set: HashSet<u32> = foreach.iter().map(|q| q.idx).collect();
        let pred_refs = pred_quant_refs(&sel.predicates, &quant_set);
        let mut pred_done = vec![false; sel.predicates.len()];

        // Constant predicates (no foreach references): evaluate once.
        let no_offsets: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, p) in sel.predicates.iter().enumerate() {
            if pred_refs[i].is_empty() {
                pred_done[i] = true;
                let prog = compile_bound(p, b, &no_offsets, &scalars, 0)?;
                let mut scratch = Scratch::new();
                if prog.eval_truth(&|_| Cell::Null, &mut scratch) != Some(true) {
                    return Ok(None);
                }
            }
        }

        // 3. Join levels and outputs.
        plan_fused(
            self.g,
            b,
            &sel.predicates,
            &foreach,
            &scalars,
            &pred_refs,
            pred_done,
        )
        .map(Some)
    }

    /// Execute a planned SELECT box: build one [`JoinTable`] per non-driver
    /// level, then stream driver morsels depth-first through the levels
    /// straight into output rows. Under a `bound` each morsel keeps only
    /// the rows that can still reach the root's LIMIT (see [`Sink`]).
    fn exec_fused(
        &mut self,
        plan: &FusedPlan,
        bound: Option<RowBound<'_>>,
    ) -> Result<Vec<Row>, ExecError> {
        let out_progs = &plan.out_progs;
        if plan.levels.is_empty() {
            // FROM-less SELECT: the empty join is one empty tuple.
            let mut scratch = Scratch::new();
            let row = out_progs
                .iter()
                .map(|p| p.eval_value(&|_| Cell::Null, &mut scratch))
                .collect();
            return Ok(vec![row]);
        }
        // Global tuple slot → (level, child ordinal); levels were assigned
        // offsets in order, so the map is a simple concatenation.
        let mut slot_map: Vec<(u32, u32)> = Vec::new();
        for (lvl, level) in plan.levels.iter().enumerate() {
            for ord in 0..level.child_width {
                slot_map.push((lvl as u32, ord as u32));
            }
        }
        // Bare-column outputs copy straight from the backing source.
        let out_cols: Vec<Option<(u32, u32)>> = out_progs
            .iter()
            .map(|p| p.as_col().map(|s| slot_map[s as usize]))
            .collect();

        let children = plan
            .levels
            .iter()
            .map(|l| self.child_of(l.child_box))
            .collect::<Result<Vec<Child>, ExecError>>()?;
        let sources: Vec<Source> = children.iter().map(Child::source).collect();

        // One table per non-driver level over its prefiltered rows, hash
        // partitioned on the equi-join key (empty for a level with none).
        let mut tables: Vec<JoinTable> = Vec::new();
        for (li, lvl) in plan.levels.iter().enumerate().skip(1) {
            let (kernels, resid) = lower_singles(&lvl.singles, sources[li]);
            let filtered = filter_indices(self.workers, self.morsel, sources[li], &kernels, &resid);
            tables.push(build_join_table(
                self.workers,
                self.morsel,
                sources[li],
                &filtered,
                &lvl.build,
            ));
        }

        // Stream the driver: filter → walk the join levels → emit, all in
        // one morsel pass.
        let src0 = sources[0];
        let n = src0.len();
        let (kernels0, resid0) = lower_singles(&plan.levels[0].singles, src0);
        let levels = &plan.levels;
        let slot_map = &slot_map;
        // A one-level plan (a single scan) emits from the driver loop: its
        // slots are the driver's own ordinals, and reaching the same cells
        // through the walk's slot map and cursors measured +9–10% on the
        // e2e `base_scan` median query and +12% on its set-up; emitting
        // here measured parity on all four workloads (EXPERIMENTS E-X5).
        let scan_only = levels.len() == 1;
        let w = row_workers(self.workers, n);
        let parts = par_map(w, self.morsel, n, |_, range| {
            let mut scratch = Scratch::new();
            let cur: Vec<std::cell::Cell<u32>> =
                (0..levels.len()).map(|_| std::cell::Cell::new(0)).collect();
            let mut probe_keys: Vec<Vec<Value>> = levels[1..]
                .iter()
                .map(|l| Vec::with_capacity(l.probe.len()))
                .collect();
            let cap = if scan_only { range.len() } else { 0 };
            let mut out = Sink::new(bound, range.len(), cap);
            'rows: for i in range {
                if out.is_closed() {
                    break;
                }
                for k in &kernels0 {
                    if !k.passes(i) {
                        continue 'rows;
                    }
                }
                let col = |c: u32| src0.cell(i, c as usize);
                for p in &resid0 {
                    if p.eval_truth(&col, &mut scratch) != Some(true) {
                        continue 'rows;
                    }
                }
                if scan_only {
                    // Read the sort keys as cells first: a row the heap
                    // would not admit is never built.
                    if let Sink::Top(top) = &out {
                        let admitted = top.admits(|ord| match out_cols[ord] {
                            Some((_, c)) => src0.cell(i, c as usize),
                            None => out_progs[ord].eval_with(&col, &mut scratch),
                        });
                        if !admitted {
                            continue;
                        }
                    }
                    let mut row = Vec::with_capacity(out_progs.len());
                    for (p, fast) in out_progs.iter().zip(&out_cols) {
                        row.push(match fast {
                            Some((_, ord)) => src0.cell(i, *ord as usize).into_value(),
                            None => p.eval_value(&col, &mut scratch),
                        });
                    }
                    out.push(row);
                    continue;
                }
                cur[0].set(i as u32);
                fused_walk(
                    1,
                    levels,
                    &sources,
                    &tables,
                    slot_map,
                    &cur,
                    &mut scratch,
                    out_progs,
                    &out_cols,
                    &mut probe_keys,
                    &mut out,
                );
            }
            out.into_rows()
        });
        Ok(parts.into_iter().flatten().collect())
    }

    /// The scan a GROUP BY aggregates in place: its input plan `sp` is one
    /// level over a base table, and every grouping item is a bare column of
    /// it. Aggregate arguments read columns or run compiled programs.
    fn group_scan<'p>(
        &mut self,
        sp: &'p FusedPlan,
        plan: &GroupPlan,
    ) -> Option<(Child, GroupInput<'p>)> {
        let [scan] = sp.levels.as_slice() else {
            return None;
        };
        let BoxKind::BaseTable { table } = &self.g.boxed(scan.child_box).kind else {
            return None;
        };
        let keys = plan
            .item_ords
            .iter()
            .map(|&ord| Some(sp.out_progs.get(ord)?.as_col()? as usize))
            .collect::<Option<Vec<usize>>>()?;
        let args = plan
            .agg_calls
            .iter()
            .map(|call| {
                call.arg.map(|cr| {
                    let p = &sp.out_progs[cr.ordinal];
                    match p.as_col() {
                        Some(s) => ArgSrc::Col(s as usize),
                        None => ArgSrc::Prog(p),
                    }
                })
            })
            .collect();
        let t = self.columnar_of(table);
        let src = Source::Col(&t);
        let (kernels, resid) = lower_singles(&scan.singles, src);
        let rows = filter_indices(self.workers, self.morsel, src, &kernels, &resid);
        Some((Child::Col(t), GroupInput { rows, keys, args }))
    }

    /// One fold per cuboid over one of two inputs: a base table, or a
    /// one-level scan of one, is aggregated in place off its columnar
    /// snapshot; any other input is materialized.
    fn exec_group_by(&mut self, b: BoxId) -> Result<Vec<Row>, ExecError> {
        let plan = plan_group_by(self.g, b)?;
        let input_box = plan.input;

        // A SELECT input consumed only by this box is planned here, so a
        // scan of it can be aggregated without materializing it.
        let sole_select =
            self.g.consumer_count(input_box) == 1 && self.g.boxed(input_box).as_select().is_some();
        let sp = if sole_select {
            self.plan_select(input_box)?
        } else {
            None
        };
        let (data, input) = match sp.as_ref().and_then(|sp| self.group_scan(sp, &plan)) {
            Some(scan) => scan,
            None => {
                let data = match &sp {
                    _ if !sole_select => self.child_of(input_box)?,
                    Some(sp) => Child::Rows(Rc::new(self.exec_fused(sp, None)?)),
                    // A constant predicate is not true: no input rows.
                    None => Child::Rows(Rc::default()),
                };
                let n = data.source().len();
                (data, GroupInput::whole(n, &plan))
            }
        };
        let mut out: Vec<Row> = Vec::new();
        for set in &plan.sets {
            let entries = grouped(data.source(), &input, set, &plan, self.workers, self.morsel);
            emit_group_rows(entries, set, &plan, &mut out);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The serial row-at-a-time interpreter (the oracle)
// ---------------------------------------------------------------------------

/// The environment for evaluating expressions of a SELECT box mid-join:
/// bound quantifiers are offsets into a concatenated tuple; scalar
/// quantifiers resolve to pre-computed constants. One env is built per
/// evaluation phase; the current tuple is swapped in through a `Cell`.
struct SelectEnv<'a> {
    offsets: &'a FxHashMap<u32, usize>,
    scalars: &'a FxHashMap<u32, Value>,
    tuple: std::cell::Cell<&'a [Value]>,
}

impl<'a> SelectEnv<'a> {
    fn new(
        offsets: &'a FxHashMap<u32, usize>,
        scalars: &'a FxHashMap<u32, Value>,
    ) -> SelectEnv<'a> {
        SelectEnv {
            offsets,
            scalars,
            tuple: std::cell::Cell::new(&[]),
        }
    }

    fn set(&self, tuple: &'a [Value]) {
        self.tuple.set(tuple);
    }
}

impl Env for SelectEnv<'_> {
    fn col(&self, c: ColRef) -> Value {
        if let Some(v) = self.scalars.get(&c.qid.idx) {
            debug_assert_eq!(c.ordinal, 0);
            return v.clone();
        }
        let off = self.offsets[&c.qid.idx];
        self.tuple.get()[off + c.ordinal].clone()
    }
}

struct SerialExec<'a> {
    g: &'a QgmGraph,
    db: &'a Database,
    memo: HashMap<BoxId, Rc<Vec<Row>>>,
    /// One shared row snapshot per base table per execution.
    tables: HashMap<String, Rc<Vec<Row>>>,
}

impl SerialExec<'_> {
    fn exec_box(&mut self, b: BoxId) -> Result<Rc<Vec<Row>>, ExecError> {
        if let Some(r) = self.memo.get(&b) {
            return Ok(Rc::clone(r));
        }
        let rows = match &self.g.boxed(b).kind {
            BoxKind::BaseTable { table } => {
                let key = table.to_ascii_lowercase();
                match self.tables.get(&key) {
                    Some(rc) => Rc::clone(rc),
                    None => {
                        let rc = Rc::new(self.db.rows(&key).to_vec());
                        self.tables.insert(key, Rc::clone(&rc));
                        rc
                    }
                }
            }
            BoxKind::SubsumerRef { .. } => return Err(ExecError::SubsumerRefInGraph),
            BoxKind::Select(_) => Rc::new(self.exec_select(b)?),
            BoxKind::GroupBy(_) => Rc::new(self.exec_group_by(b)?),
        };
        self.memo.insert(b, Rc::clone(&rows));
        Ok(rows)
    }

    fn exec_select(&mut self, b: BoxId) -> Result<Vec<Row>, ExecError> {
        let bx = self.g.boxed(b);
        let sel = bx
            .as_select()
            .ok_or_else(|| ExecError::malformed(b, "exec_select on a non-SELECT box"))?;

        // 1. Pre-compute scalar subquery values.
        let mut scalars: FxHashMap<u32, Value> = FxHashMap::default();
        let mut foreach: Vec<QuantId> = Vec::new();
        for &q in &bx.quants {
            match self.g.quant(q).kind {
                QuantKind::Scalar => {
                    let rows = self.exec_box(self.g.input_of(q))?;
                    let v = match rows.len() {
                        0 => Value::Null,
                        1 => rows[0][0].clone(),
                        n => return Err(ExecError::ScalarSubqueryCardinality(n)),
                    };
                    scalars.insert(q.idx, v);
                }
                QuantKind::Foreach => foreach.push(q),
            }
        }

        // 2. Classify predicates by the foreach quantifiers they reference.
        let quant_set: HashSet<u32> = foreach.iter().map(|q| q.idx).collect();
        let pred_refs = pred_quant_refs(&sel.predicates, &quant_set);
        let mut pred_done = vec![false; sel.predicates.len()];

        // Constant predicates (no foreach references): evaluate once.
        {
            let offsets = FxHashMap::default();
            let env = SelectEnv::new(&offsets, &scalars);
            for (i, p) in sel.predicates.iter().enumerate() {
                if pred_refs[i].is_empty() {
                    pred_done[i] = true;
                    if truth(&eval_expr(p, &env)) != Some(true) {
                        return Ok(Vec::new());
                    }
                }
            }
        }

        // 3. Left-deep join. `offsets` maps bound quantifier → start offset
        // in the concatenated tuple.
        let mut offsets: FxHashMap<u32, usize> = FxHashMap::default();
        let mut tuples: Vec<Row> = vec![Vec::new()];
        let mut width = 0usize;
        let mut remaining: Vec<QuantId> = foreach;

        while !remaining.is_empty() {
            // Pick the next quantifier: prefer one linked to the bound set
            // by an equi-join conjunct; fall back to the first remaining.
            let pick = remaining
                .iter()
                .position(|q| {
                    !offsets.is_empty()
                        && sel.predicates.iter().enumerate().any(|(i, p)| {
                            !pred_done[i] && is_equi_join(p, &offsets, q.idx, &pred_refs[i])
                        })
                })
                .unwrap_or(0);
            let q = remaining.remove(pick);
            let child_rows = self.exec_box(self.g.input_of(q))?;
            let child_width = self.g.boxed(self.g.input_of(q)).outputs.len();

            // Prefilter rows with single-quantifier predicates.
            let mut single_idx = Vec::new();
            for (i, refs) in pred_refs.iter().enumerate() {
                if !pred_done[i] && refs.len() == 1 && refs.contains(&q.idx) {
                    pred_done[i] = true;
                    single_idx.push(i);
                }
            }
            let single: Vec<&ScalarExpr> = single_idx.iter().map(|&i| &sel.predicates[i]).collect();
            let mut local_off = FxHashMap::default();
            local_off.insert(q.idx, 0usize);
            let fenv = SelectEnv::new(&local_off, &scalars);
            let filtered: Vec<&Row> = child_rows
                .iter()
                .filter(|row| {
                    fenv.set(row);
                    single
                        .iter()
                        .all(|p| truth(&eval_expr(p, &fenv)) == Some(true))
                })
                .collect();

            // Equi-join conjuncts usable for hashing.
            let mut hash_preds: Vec<(ScalarExpr, ScalarExpr)> = Vec::new(); // (bound, q side)
            for (i, p) in sel.predicates.iter().enumerate() {
                if pred_done[i] {
                    continue;
                }
                if let Some((bound_side, q_side)) =
                    split_equi_join(p, &offsets, q.idx, &pred_refs[i])
                {
                    hash_preds.push((bound_side, q_side));
                    pred_done[i] = true;
                }
            }

            let mut next: Vec<Row> = Vec::new();
            if !hash_preds.is_empty() && !offsets.is_empty() {
                // Hash join: build on the (filtered) child rows.
                let mut table: FxHashMap<Vec<Value>, Vec<&Row>> = FxHashMap::default();
                let benv = SelectEnv::new(&local_off, &scalars);
                'rows: for row in &filtered {
                    benv.set(row);
                    let mut key = Vec::with_capacity(hash_preds.len());
                    for (_, qs) in &hash_preds {
                        let v = eval_expr(qs, &benv);
                        if v.is_null() {
                            continue 'rows; // NULL never joins
                        }
                        key.push(v);
                    }
                    table.entry(key).or_default().push(row);
                }
                let penv = SelectEnv::new(&offsets, &scalars);
                for t in &tuples {
                    penv.set(t);
                    let mut key = Vec::with_capacity(hash_preds.len());
                    let mut null_key = false;
                    for (bs, _) in &hash_preds {
                        let v = eval_expr(bs, &penv);
                        if v.is_null() {
                            null_key = true;
                            break;
                        }
                        key.push(v);
                    }
                    if null_key {
                        continue;
                    }
                    if let Some(matches) = table.get(&key) {
                        for m in matches {
                            let mut nt = Vec::with_capacity(width + child_width);
                            nt.extend_from_slice(t);
                            nt.extend_from_slice(m);
                            next.push(nt);
                        }
                    }
                }
            } else {
                // Cross product (with any remaining predicates applied below).
                for t in &tuples {
                    for m in &filtered {
                        let mut nt = Vec::with_capacity(width + child_width);
                        nt.extend_from_slice(t);
                        nt.extend_from_slice(m);
                        next.push(nt);
                    }
                }
            }
            offsets.insert(q.idx, width);
            width += child_width;
            tuples = next;

            // Apply any other predicate now fully bound.
            let bound: HashSet<u32> = offsets.keys().copied().collect();
            for (i, p) in sel.predicates.iter().enumerate() {
                if pred_done[i] || !pred_refs[i].is_subset(&bound) {
                    continue;
                }
                pred_done[i] = true;
                let renv = SelectEnv::new(&offsets, &scalars);
                let keep: Vec<bool> = tuples
                    .iter()
                    .map(|t| {
                        renv.set(t);
                        truth(&eval_expr(p, &renv)) == Some(true)
                    })
                    .collect();
                let mut it = keep.into_iter();
                tuples.retain(|_| it.next().unwrap_or(false));
            }
        }
        debug_assert!(pred_done.iter().all(|&d| d), "all predicates applied");

        // 4. Project the outputs.
        let env = SelectEnv::new(&offsets, &scalars);
        let out = tuples
            .iter()
            .map(|t| {
                env.set(t);
                bx.outputs
                    .iter()
                    .map(|oc| eval_expr(&oc.expr, &env))
                    .collect()
            })
            .collect();
        Ok(out)
    }

    fn exec_group_by(&mut self, b: BoxId) -> Result<Vec<Row>, ExecError> {
        let plan = plan_group_by(self.g, b)?;
        let input = self.exec_box(plan.input)?;
        let mut out: Vec<Row> = Vec::new();
        for set in &plan.sets {
            emit_group_rows(grouped_serial(&input, set, &plan), set, &plan, &mut out);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::db::Database;
    use sumtab_catalog::{Catalog, Date};
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    fn setup() -> (Catalog, Database) {
        let cat = Catalog::credit_card_sample();
        let mut db = Database::new();
        let d = |s: &str| Value::Date(Date::parse(s).unwrap());
        // trans(tid, faid, flid, fpgid, date, qty, price, disc)
        db.insert(
            &cat,
            "trans",
            vec![
                vec![
                    1.into(),
                    100.into(),
                    1.into(),
                    10.into(),
                    d("1990-01-03"),
                    2.into(),
                    Value::Double(50.0),
                    Value::Double(0.0),
                ],
                vec![
                    2.into(),
                    100.into(),
                    1.into(),
                    10.into(),
                    d("1990-02-10"),
                    1.into(),
                    Value::Double(30.0),
                    Value::Double(0.1),
                ],
                vec![
                    3.into(),
                    100.into(),
                    1.into(),
                    11.into(),
                    d("1990-04-12"),
                    3.into(),
                    Value::Double(20.0),
                    Value::Double(0.2),
                ],
                vec![
                    4.into(),
                    200.into(),
                    2.into(),
                    11.into(),
                    d("1991-10-20"),
                    1.into(),
                    Value::Double(80.0),
                    Value::Double(0.0),
                ],
                vec![
                    5.into(),
                    200.into(),
                    2.into(),
                    10.into(),
                    d("1991-11-21"),
                    2.into(),
                    Value::Double(10.0),
                    Value::Double(0.5),
                ],
            ],
        )
        .unwrap();
        db.insert(
            &cat,
            "loc",
            vec![
                vec![1.into(), "san jose".into(), "CA".into(), "USA".into()],
                vec![2.into(), "paris".into(), "IDF".into(), "France".into()],
            ],
        )
        .unwrap();
        db.insert(
            &cat,
            "pgroup",
            vec![
                vec![10.into(), "TV".into()],
                vec![11.into(), "Radio".into()],
            ],
        )
        .unwrap();
        db.insert(
            &cat,
            "acct",
            vec![
                vec![100.into(), 1000.into(), "gold".into()],
                vec![200.into(), 2000.into(), "basic".into()],
            ],
        )
        .unwrap();
        db.insert(
            &cat,
            "cust",
            vec![
                vec![1000.into(), "alice".into(), 30.into()],
                vec![2000.into(), "bob".into(), 40.into()],
            ],
        )
        .unwrap();
        (cat, db)
    }

    fn run(sql: &str) -> Vec<Row> {
        let (cat, db) = setup();
        let q = parse_query(sql).unwrap();
        let g = build_query(&q, &cat).unwrap();
        execute(&g, &db).unwrap()
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    #[test]
    fn scan_and_filter() {
        let rows = run("select tid from trans where qty >= 2");
        assert_eq!(
            sorted(rows),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(3)],
                vec![Value::Int(5)]
            ]
        );
    }

    #[test]
    fn projection_expressions() {
        let rows = run("select tid, qty * price as amt from trans where tid = 1");
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Double(100.0)]]);
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let rows = run("select tid, country from trans, loc where flid = lid and country = 'USA'");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r[1] == Value::from("USA")));
    }

    #[test]
    fn three_way_join() {
        let rows = run("select tid, pgname, status from trans, pgroup, acct \
             where fpgid = pgid and faid = aid and pgname = 'TV'");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn cross_join_without_predicate() {
        let rows = run("select tid, lid from trans, loc");
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn group_by_count_and_sum() {
        let rows = run("select faid, count(*) as cnt, sum(qty) as q from trans group by faid");
        assert_eq!(
            sorted(rows),
            vec![
                vec![Value::Int(100), Value::Int(3), Value::Int(6)],
                vec![Value::Int(200), Value::Int(2), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn group_by_expression_and_having() {
        let rows = run("select year(date) as y, count(*) as cnt from trans \
             group by year(date) having count(*) > 2");
        assert_eq!(rows, vec![vec![Value::Int(1990), Value::Int(3)]]);
    }

    #[test]
    fn scalar_aggregation_over_empty_input() {
        let rows = run("select count(*) as c, sum(qty) as s from trans where qty > 100");
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn min_max_avg() {
        let rows = run("select min(price) as lo, max(price) as hi, avg(qty) as aq from trans");
        assert_eq!(
            rows,
            vec![vec![
                Value::Double(10.0),
                Value::Double(80.0),
                Value::Int(1) // avg = sum/count = 9/5 with integer division
            ]]
        );
    }

    #[test]
    fn count_distinct() {
        let rows = run("select count(distinct faid) as n from trans");
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn grouping_sets_union_with_null_padding() {
        let rows = run("select flid, year(date) as y, count(*) as cnt from trans \
             group by grouping sets ((flid, year(date)), (flid), ())");
        // cuboids: (flid,year): (1,1990,3),(2,1991,2); (flid): (1,3),(2,2); (): (5)
        let expect = vec![
            vec![Value::Null, Value::Null, Value::Int(5)],
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Int(1), Value::Int(1990), Value::Int(3)],
            vec![Value::Int(2), Value::Null, Value::Int(2)],
            vec![Value::Int(2), Value::Int(1991), Value::Int(2)],
        ];
        assert_eq!(sorted(rows), expect);
    }

    #[test]
    fn distinct_normalizes_to_group_by() {
        let rows = run("select distinct faid from trans");
        assert_eq!(
            sorted(rows),
            vec![vec![Value::Int(100)], vec![Value::Int(200)]]
        );
    }

    #[test]
    fn scalar_subquery_value() {
        let rows = run("select tid, (select count(*) from loc) as n from trans where tid = 1");
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn scalar_subquery_empty_is_null() {
        let rows = run(
            "select tid, (select min(lid) from loc where lid > 99) as n from trans where tid = 1",
        );
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Null]]);
    }

    /// A SELECT without FROM is one row (or none, under a false constant
    /// predicate) in both executors.
    #[test]
    fn from_less_select() {
        let (cat, db) = setup();
        for (sql, expect) in [
            (
                "select 1 as one, (select count(*) from loc) as n",
                vec![vec![Value::Int(1), Value::Int(2)]],
            ),
            ("select 1 as one where 1 = 2", vec![]),
        ] {
            let g = build_query(&parse_query(sql).unwrap(), &cat).unwrap();
            assert_eq!(execute(&g, &db).unwrap(), expect, "{sql}");
            assert_eq!(execute_serial(&g, &db).unwrap(), expect, "{sql}");
        }
    }

    #[test]
    fn derived_table_pipeline() {
        let rows = run(
            "select y, cnt from (select year(date) as y, count(*) as cnt from trans group by year(date)) as v \
             where cnt >= 2 order by y",
        );
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1990), Value::Int(3)],
                vec![Value::Int(1991), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn order_by_and_limit() {
        let rows = run("select tid from trans order by tid desc limit 2");
        assert_eq!(rows, vec![vec![Value::Int(5)], vec![Value::Int(4)]]);
    }

    #[test]
    fn histogram_of_counts_two_level_aggregation() {
        // Q8-flavored query: counts of yearly counts.
        let rows = run("select tcnt, count(*) as ycnt from \
             (select year(date) as y, count(*) as tcnt from trans group by year(date)) as v \
             group by tcnt");
        assert_eq!(
            sorted(rows),
            vec![
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let cat = Catalog::credit_card_sample();
        let mut db = Database::new();
        // Two custs, one acct with NULL fcid — wait, fcid is non-nullable in
        // the sample schema; use a bespoke catalog instead.
        use sumtab_catalog::{Column, SqlType, Table};
        let mut cat2 = Catalog::new();
        cat2.add_table(Table::new("l", vec![Column::nullable("k", SqlType::Int)]))
            .unwrap();
        cat2.add_table(Table::new("r", vec![Column::nullable("k", SqlType::Int)]))
            .unwrap();
        db.insert(&cat2, "l", vec![vec![Value::Null], vec![Value::Int(1)]])
            .unwrap();
        db.insert(&cat2, "r", vec![vec![Value::Null], vec![Value::Int(1)]])
            .unwrap();
        let q = parse_query("select l.k from l, r where l.k = r.k").unwrap();
        let g = build_query(&q, &cat2).unwrap();
        let rows = execute(&g, &db).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]], "NULL keys never join");
        let _ = cat;
    }

    #[test]
    fn cube_rollup_shorthand() {
        let rows = run(
            "select flid, year(date) as y, count(*) as cnt from trans group by rollup(flid, year(date))",
        );
        // sets: (flid,y), (flid), ()
        assert_eq!(rows.len(), 2 + 2 + 1);
    }

    /// Every pool/morsel configuration must produce exactly the serial
    /// result — same rows, same order.
    #[test]
    fn parallel_is_byte_identical_to_serial() {
        let (cat, db) = setup();
        let queries = [
            "select tid from trans where qty >= 2",
            "select tid, qty * price * (1 - disc) as amt from trans",
            "select tid, country from trans, loc where flid = lid",
            "select tid, pgname, status from trans, pgroup, acct \
             where fpgid = pgid and faid = aid",
            "select faid, count(*) as cnt, sum(price) as p from trans group by faid",
            "select flid, year(date) as y, count(*) as cnt from trans \
             group by grouping sets ((flid, year(date)), (flid), ())",
            "select count(distinct price) as n, sum(distinct qty) as s from trans",
            "select tid, lid from trans, loc",
            "select tid, price from trans order by price desc, tid limit 3",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let g = build_query(&q, &cat).unwrap();
            let serial = execute_serial(&g, &db).unwrap();
            for pool in [1, 2, 4] {
                for morsel in [1, 3, 1024] {
                    let opts = ExecOptions {
                        pool_size: pool,
                        morsel_size: morsel,
                    };
                    let par = execute_with(&g, &db, &opts).unwrap();
                    assert_eq!(par, serial, "{sql} (pool {pool}, morsel {morsel})");
                }
            }
        }
    }

    /// Group output follows first-occurrence order of the group key in both
    /// executors (no ORDER BY needed for a deterministic result).
    #[test]
    fn group_by_output_is_first_occurrence_ordered() {
        let (cat, db) = setup();
        let q = parse_query("select fpgid, count(*) as c from trans group by fpgid").unwrap();
        let g = build_query(&q, &cat).unwrap();
        // trans rows reference fpgid 10, 10, 11, 11, 10 → first-occurrence
        // order is 10 then 11.
        let expect = vec![
            vec![Value::Int(10), Value::Int(3)],
            vec![Value::Int(11), Value::Int(2)],
        ];
        assert_eq!(execute_serial(&g, &db).unwrap(), expect);
        assert_eq!(execute(&g, &db).unwrap(), expect);
    }

    /// A GROUP BY straight over a base table is legal, though the builder
    /// never emits one: it aggregates the table's columnar snapshot, byte
    /// for byte like the serial oracle, also over an empty table.
    #[test]
    fn group_by_directly_over_a_base_table() {
        use sumtab_qgm::{AggCall, AggFunc, GroupByBox, OutputCol};
        let (cat, full) = setup();
        let mut empty = Database::new();
        empty.insert(&cat, "trans", Vec::new()).unwrap();
        let agg = |func, arg| {
            ScalarExpr::Agg(AggCall {
                func,
                arg,
                distinct: false,
            })
        };
        for sets in [vec![vec![0, 1]], vec![vec![0, 1], vec![1], vec![]]] {
            // trans(tid, faid, flid, fpgid, date, qty, price, disc), grouped
            // by faid and fpgid.
            let mut g = QgmGraph::new();
            let t = g.add_box(BoxKind::BaseTable {
                table: "trans".into(),
            });
            g.boxed_mut(t).outputs = (0..8)
                .map(|i| OutputCol {
                    name: format!("c{i}"),
                    expr: ScalarExpr::BaseCol(i),
                })
                .collect();
            let gb = g.add_box(BoxKind::GroupBy(GroupByBox {
                items: Vec::new(),
                sets,
            }));
            let q = g.add_quant(gb, t, QuantKind::Foreach, "t");
            let col = |ordinal| ColRef { qid: q, ordinal };
            let items = vec![col(1), col(3)];
            let outputs = [
                ScalarExpr::Col(col(1)),
                ScalarExpr::Col(col(3)),
                agg(AggFunc::Sum, Some(col(5))),
                agg(AggFunc::Count, None),
                agg(AggFunc::Max, Some(col(6))),
            ];
            let bx = g.boxed_mut(gb);
            if let BoxKind::GroupBy(gbb) = &mut bx.kind {
                gbb.items = items;
            }
            bx.outputs = outputs
                .into_iter()
                .enumerate()
                .map(|(i, expr)| OutputCol {
                    name: format!("o{i}"),
                    expr,
                })
                .collect();
            g.root = gb;
            for db in [&full, &empty] {
                let serial = execute_serial(&g, db).unwrap();
                assert!(!serial.is_empty() || db.row_count("trans") == 0);
                for pool in [1, 2] {
                    for morsel in [1, 1024] {
                        let opts = ExecOptions {
                            pool_size: pool,
                            morsel_size: morsel,
                        };
                        assert_eq!(execute_with(&g, db, &opts).unwrap(), serial);
                    }
                }
            }
        }
    }

    /// Bounded-heap top-k selection must be byte-identical to a stable full
    /// sort + truncate, including ties on the sort key.
    #[test]
    fn top_k_matches_stable_sort_truncate() {
        // Deterministic pseudo-random rows with plenty of duplicate keys.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Row> = (0..500)
            .map(|i| {
                vec![
                    Value::Int((next() % 7) as i64),
                    Value::Int((next() % 13) as i64),
                    Value::Int(i),
                ]
            })
            .collect();
        for keys in [
            vec![(0usize, false)],
            vec![(0, true)],
            vec![(0, false), (1, true)],
        ] {
            for k in [0usize, 1, 7, 250, 499, 500] {
                let mut full = rows.clone();
                full.sort_by(|a, b| cmp_by_keys(a, b, &keys));
                full.truncate(k);
                assert_eq!(top_k(rows.clone(), k, &keys), full, "k={k} keys={keys:?}");
            }
        }
    }

    /// `par_map` merges morsel results in morsel order for any worker
    /// count.
    #[test]
    fn par_map_is_deterministic() {
        let expect: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 3, 8] {
            for morsel in [1, 7, 64, 2048] {
                let got: Vec<usize> = par_map(workers, morsel, 1000, |_, r| r.collect::<Vec<_>>())
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(got, expect, "workers={workers} morsel={morsel}");
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod error_tests {
    use super::*;
    use crate::db::Database;
    use sumtab_catalog::{Catalog, Column, SqlType, Table, Value};
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    #[test]
    fn scalar_subquery_cardinality_error() {
        let mut cat = Catalog::new();
        cat.add_table(Table::new("t", vec![Column::new("a", SqlType::Int)]))
            .unwrap();
        let mut db = Database::new();
        db.insert(&cat, "t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        let q = parse_query("select a, (select a from t) as s from t").unwrap();
        let g = build_query(&q, &cat).unwrap();
        assert_eq!(
            execute(&g, &db),
            Err(ExecError::ScalarSubqueryCardinality(2))
        );
        assert_eq!(
            execute_serial(&g, &db),
            Err(ExecError::ScalarSubqueryCardinality(2))
        );
    }

    #[test]
    fn subsumer_ref_graph_is_rejected() {
        use sumtab_qgm::{BoxKind, GraphId, OutputCol, QgmGraph, ScalarExpr};
        let mut g = QgmGraph::new();
        let sr = g.add_box(BoxKind::SubsumerRef {
            graph: GraphId(0),
            target: sumtab_qgm::BoxId(0),
        });
        g.boxed_mut(sr).outputs = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::BaseCol(0),
        }];
        g.root = sr;
        let db = Database::new();
        assert_eq!(execute(&g, &db), Err(ExecError::SubsumerRefInGraph));
        assert_eq!(execute_serial(&g, &db), Err(ExecError::SubsumerRefInGraph));
    }

    #[test]
    fn cloned_subgraph_executes_identically() {
        let cat = Catalog::credit_card_sample();
        let mut db = Database::new();
        db.insert(
            &cat,
            "pgroup",
            vec![
                vec![Value::Int(1), Value::from("a")],
                vec![Value::Int(2), Value::from("b")],
            ],
        )
        .unwrap();
        let q = parse_query("select pgname, count(*) as c from pgroup group by pgname").unwrap();
        let g = build_query(&q, &cat).unwrap();
        let mut g2 = sumtab_qgm::QgmGraph::new();
        let root = g2.clone_subgraph(&g, g.root);
        g2.root = root;
        let mut a = execute(&g, &db).unwrap();
        let mut b = execute(&g2, &db).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
