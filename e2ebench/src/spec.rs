//! The benchmark's contract: workload names, metric names with unit,
//! direction and bound, and the sizes each workload runs at. `BENCHMARK.json`
//! at the repository root lists the same names; the smoke test checks that
//! the two agree.

/// The four workloads. Later issues cite these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocRewrite,
    BaseScan,
    DashboardRepeat,
    MixedDml,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::AdhocRewrite,
    Workload::BaseScan,
    Workload::DashboardRepeat,
    Workload::MixedDml,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocRewrite => "adhoc_rewrite",
            Workload::BaseScan => "base_scan",
            Workload::DashboardRepeat => "dashboard_repeat",
            Workload::MixedDml => "mixed_dml",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (the one-line `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AdhocRewrite => {
                "distinct AST-answerable texts: every query misses the plan cache, so parse, build, filter, navigator and costing dominate a sub-millisecond execution over the AST"
            }
            Workload::BaseScan => {
                "queries no AST answers or the router declines: the parallel columnar executor over 200k fact rows does nearly all the work"
            }
            Workload::DashboardRepeat => {
                "Zipf draws from 32 fixed texts: working set above the result cache (16) and below the plan cache (256), so cache policy and pre-lookup work show"
            }
            Workload::MixedDml => {
                "durable session, 1 DML per 4 SELECTs: WHERE resolution, base mutation, delta maintenance of 4 ASTs, WAL fsync, snapshot stalls, then recovery"
            }
        }
    }

    pub fn is_dml(self) -> bool {
        self == Workload::MixedDml
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the session sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse before
    /// `--compare` reports a regression. `0.0` means exact.
    pub bound: f64,
    /// Reported only on `mixed_dml`.
    pub dml_only: bool,
}

/// The ten end-to-end metrics. `BENCHMARK.json` lists under `end_to_end` the
/// ones defined on every workload and never zero (the first five); the
/// DML-only ones are listed there under `per_layer`, and `failed_share` is
/// the `failed` / `attempted` pair of the result line. `--compare` applies
/// all ten bounds.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        dml_only: false,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        dml_only: false,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        dml_only: false,
    },
    EndToEnd {
        name: "query_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        dml_only: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        dml_only: false,
    },
    EndToEnd {
        name: "dml_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        dml_only: true,
    },
    EndToEnd {
        name: "dml_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        dml_only: true,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        dml_only: true,
    },
    EndToEnd {
        name: "wal_bytes_per_dml",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.0,
        dml_only: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        dml_only: false,
    },
];

/// The end-to-end metrics the contract's result line carries with
/// `--trace 0`: defined on all four workloads and never zero.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| !m.dml_only && m.name != "failed_share")
}

/// Per-layer metrics, `(name, unit, better)`. Layers are the crates. Time
/// metrics are medians over the traced statements; counts are exact over the
/// fixed traced prefix. A metric whose layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // DML-side end-to-end metrics, measured untraced on the fixed prefix.
    ("dml_p50_us", "us", Better::Lower),
    ("dml_p95_us", "us", Better::Lower),
    ("recovery_s", "s", Better::Lower),
    ("wal_bytes_per_dml", "bytes", Better::Lower),
    ("parser.parse_query_us", "us", Better::Lower),
    ("parser.parse_dml_us", "us", Better::Lower),
    ("parser.sql_bytes", "bytes", Better::Lower),
    ("qgm.build_us", "us", Better::Lower),
    ("qgm.fingerprint_us", "us", Better::Lower),
    ("qgm.render_us", "us", Better::Lower),
    ("qgm.boxes", "count", Better::Lower),
    ("matcher.filter_us", "us", Better::Lower),
    ("matcher.filter_survivors", "count", Better::Lower),
    ("matcher.filter_rejections", "count", Better::Higher),
    ("matcher.rewrite_us", "us", Better::Lower),
    ("matcher.navigator_runs", "count", Better::Lower),
    ("matcher.matches", "count", Better::Higher),
    ("matcher.match_ratio", "ratio", Better::Higher),
    ("matcher.cost_us", "us", Better::Lower),
    ("engine.exec_routed_us", "us", Better::Lower),
    ("engine.exec_base_us", "us", Better::Lower),
    ("engine.exec_pool1_us", "us", Better::Lower),
    ("engine.par_speedup", "ratio", Better::Higher),
    ("engine.rows_out", "count", Better::Lower),
    ("engine.columnar_us", "us", Better::Lower),
    ("engine.columnar_rows", "count", Better::Lower),
    ("engine.where_resolve_us", "us", Better::Lower),
    ("engine.mutate_us", "us", Better::Lower),
    ("engine.materialize_s", "s", Better::Lower),
    ("sumtab.plan_miss_us", "us", Better::Lower),
    ("sumtab.plan_hit_us", "us", Better::Lower),
    ("sumtab.plan_self_us", "us", Better::Lower),
    ("sumtab.result_hit_us", "us", Better::Lower),
    ("sumtab.query_self_us", "us", Better::Lower),
    ("sumtab.plan_cache_hit_rate", "ratio", Better::Higher),
    ("sumtab.result_cache_hit_rate", "ratio", Better::Higher),
    ("sumtab.plan_invalidations", "count", Better::Lower),
    ("sumtab.reroutes", "count", Better::Lower),
    ("sumtab.rewrite_share", "ratio", Better::Higher),
    ("sumtab.fallback_share", "ratio", Better::Lower),
    ("sumtab.first_query_after_dml_us", "us", Better::Lower),
    ("sumtab.maintain_append_us", "us", Better::Lower),
    ("sumtab.maintain_delete_us", "us", Better::Lower),
    ("sumtab.refresh_us", "us", Better::Lower),
    ("sumtab.maintained_share", "ratio", Better::Higher),
    ("sumtab.insert_p50_us", "us", Better::Lower),
    ("sumtab.delete_p50_us", "us", Better::Lower),
    ("sumtab.update_p50_us", "us", Better::Lower),
    ("sumtab.dml_self_us", "us", Better::Lower),
    ("sumtab.replay_us_per_record", "us", Better::Lower),
    ("persist.wal_append_us", "us", Better::Lower),
    ("persist.wal_append_nosync_us", "us", Better::Lower),
    ("persist.wal_bytes_per_record", "bytes", Better::Lower),
    ("persist.fsyncs", "count", Better::Lower),
    ("persist.snapshots", "count", Better::Lower),
    ("persist.snapshot_stall_us", "us", Better::Lower),
    ("persist.snapshot_write_ms", "ms", Better::Lower),
    ("persist.snapshot_read_ms", "ms", Better::Lower),
    ("persist.snapshot_bytes", "bytes", Better::Lower),
    ("datagen.generate_s", "s", Better::Lower),
    ("share.parser", "ratio", Better::Lower),
    ("share.qgm", "ratio", Better::Lower),
    ("share.matcher", "ratio", Better::Lower),
    ("share.engine", "ratio", Better::Lower),
    ("share.persist", "ratio", Better::Lower),
    ("share.sumtab", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.replay_excess", "ratio", Better::Lower),
    ("trace.statements", "count", Better::Higher),
];

/// Count metrics that must repeat exactly for one seed
/// (`--check-determinism`). `sumtab.reroutes` is absent on purpose: it
/// follows the latency-feedback router.
pub const DETERMINISTIC: &[&str] = &[
    "matcher.navigator_runs",
    "matcher.filter_rejections",
    "matcher.filter_survivors",
    "matcher.matches",
    "engine.rows_out",
    "qgm.boxes",
    "parser.sql_bytes",
    "sumtab.plan_cache_hit_rate",
    "sumtab.result_cache_hit_rate",
    "sumtab.plan_invalidations",
    "wal_bytes_per_dml",
    "persist.wal_bytes_per_record",
    "persist.snapshots",
    "persist.snapshot_bytes",
    "trace.statements",
];

/// Sizes of one run. Everything the statement streams and the traced replay
/// need to know about "how much".
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fact rows generated.
    pub rows: usize,
    /// Statements (cycles on `mixed_dml`) run before timing, charged to
    /// `setup_s`.
    pub warmup: usize,
    /// Statements (cycles on `mixed_dml`) of the fixed prefix the traced run
    /// replays.
    pub prefix: usize,
    /// Every n-th distinct query text is checked against the oracle.
    pub oracle_every: usize,
    /// The traced replay runs its costly probes (base plan, pool of one,
    /// cold and warm planning on the shadow session) on every n-th statement.
    pub probe_every: usize,
    /// How many times the set-up is repeated with tracing off; `setup_s` is
    /// the median.
    pub setups: usize,
    /// How many times recovery is repeated; `recovery_s` is the median.
    pub recoveries: usize,
    /// Statements (cycles on `mixed_dml`) the memory probe runs after its
    /// set-up before it reads `VmHWM`.
    pub rss_units: usize,
}

impl Scale {
    /// The sizes the benchmark's numbers are taken at. The fact table sizes
    /// are the issue's (200,000 rows; 100,000 under DML). Statement counts
    /// are not fixed with tracing off: the timed phase runs for `--seconds`.
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::AdhocRewrite => Scale {
                rows: 200_000,
                warmup: 200,
                prefix: 2_000,
                oracle_every: 64,
                probe_every: 10,
                setups: 5,
                recoveries: 0,
                rss_units: 500,
            },
            Workload::BaseScan => Scale {
                rows: 200_000,
                warmup: 20,
                prefix: 200,
                oracle_every: 8,
                probe_every: 1,
                setups: 5,
                recoveries: 0,
                rss_units: 40,
            },
            Workload::DashboardRepeat => Scale {
                rows: 200_000,
                warmup: 200,
                prefix: 4_000,
                oracle_every: 1,
                probe_every: 50,
                setups: 5,
                recoveries: 0,
                rss_units: 500,
            },
            Workload::MixedDml => Scale {
                rows: 100_000,
                warmup: 4,
                prefix: 100,
                oracle_every: 16,
                probe_every: 2,
                setups: 5,
                recoveries: 3,
                rss_units: 20,
            },
        }
    }

    /// `--quick`: 2,000 rows and tens of statements, for the smoke test.
    pub fn quick(w: Workload) -> Scale {
        let full = Scale::full(w);
        Scale {
            rows: 2_000,
            warmup: full.warmup.min(8),
            prefix: match w {
                Workload::MixedDml => 70,
                Workload::DashboardRepeat => 200,
                _ => 60,
            },
            oracle_every: full.oracle_every.min(4),
            probe_every: full.probe_every.min(4),
            setups: 1,
            recoveries: full.recoveries.min(1),
            rss_units: 10,
        }
    }
}
