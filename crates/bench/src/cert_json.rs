//! Machine-readable results: `BENCH_cert.json` and `BENCH_paper.json`.
//!
//! The row-producing sweeps ([`crate::sweeps`]) merge their rows into two
//! committed JSON documents so the numbers are tracked as artifacts across
//! PRs instead of living only in terminal output: the certification perf
//! trajectory (throughput and the work ledger per backend, commit path and
//! client count, [`CertBenchRow`]) and the paper's own evaluation grid
//! (Fig. 5–7, Tables 1–2, [`PaperRow`]). The workspace is offline (no
//! serde), so this module hand-writes the small, stable schema.
//!
//! A document is one JSON object, `{"group": "ablation_cert_backend",
//! "rows": [...]}`, with one row object per line. A row's keys are the
//! fields of its row type, declared once in a `cert_bench_row!` table
//! below: the struct, the writer, the typed reader, the merge key and
//! [`Row::KEYS`] are all generated from it, in document order. Everything
//! else — rendering, parsing, merging, the path — is written once over
//! [`Row`].
//!
//! The writer is the grammar. [`parse_document`] is no general JSON parser:
//! it reads exactly the layout [`rows_to_json`] writes — the fixed header
//! and footer, one row per line, every key in table order, strings with no
//! `"`, `\` or control character, 3-decimal floats, plain integers — and
//! then requires that re-rendering what it read reproduces the input byte
//! for byte, so any non-canonical byte is an error. Whatever the reader
//! accepts is therefore well-formed JSON, and [`merge_and_write`] reads
//! back the exact document it is about to write.
//!
//! Each table names its merge key (`keyed by`); rows sort by it. The
//! `config_hash` fingerprints everything else a row's numbers depend on
//! (schema version, CPUs per site, target transactions, history window,
//! seed, …): [`merge_rows`] preserves rows a partial sweep didn't re-run,
//! but refuses to mix rows whose hashes disagree for the same key — a
//! silent half-updated artifact would be worse than no artifact.

use dbsm_core::{ExperimentConfig, RunMetrics, CERT_COSTS};
use dbsm_sim::splitmix64;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bumped whenever a schema or pricing change makes old rows incomparable
/// with fresh ones; feeds [`config_hash`], so a bump forces a full re-sweep
/// instead of a silent mixed-schema merge.
pub const SCHEMA_VERSION: u32 = 6;

/// A column type of an artifact: how a row field of this type is written
/// into, and read back out of, a row line.
trait Column: Sized {
    fn render(&self, out: &mut String);
    /// Reads a value as [`Column::render`] writes it; the caller's
    /// re-render check rejects any other spelling the standard parsers
    /// accept (`+1`, `1.5`, `inf`).
    fn parse(text: &str) -> Result<Self, String>;
}

impl Column for String {
    /// Quoted as is: the labels are identifiers, and one the reader cannot
    /// take back fails [`merge_and_write`]'s self-check.
    fn render(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
    fn parse(text: &str) -> Result<Self, String> {
        text.strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .filter(|t| !t.contains(|c: char| c == '"' || c == '\\' || c.is_control()))
            .map(str::to_string)
            .ok_or_else(|| format!("must be a string without '\"', '\\' or controls, got {text}"))
    }
}

impl Column for f64 {
    /// Three decimals, enough to round-trip the metrics; a non-finite
    /// value (which JSON cannot carry) degrades to `0.000`.
    fn render(&self, out: &mut String) {
        let v = if self.is_finite() { *self } else { 0.0 };
        let _ = write!(out, "{v:.3}");
    }
    fn parse(text: &str) -> Result<Self, String> {
        text.parse().map_err(|_| format!("must be a number, got {text}"))
    }
}

impl Column for u64 {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(text: &str) -> Result<Self, String> {
        text.parse().map_err(|_| format!("must be a non-negative integer, got {text}"))
    }
}

impl Column for usize {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(text: &str) -> Result<Self, String> {
        text.parse().map_err(|_| format!("must be a non-negative integer, got {text}"))
    }
}

/// A row type of a committed artifact, generated from a `cert_bench_row!`
/// field table; the document codec and the merge are written over it.
pub trait Row: Clone {
    /// The artifact's file name at the workspace root.
    const FILE: &'static str;
    /// The document's `group` label.
    const GROUP: &'static str;
    /// Every row key, in document order.
    const KEYS: &'static [&'static str];
    /// The merge key: one artifact row exists per key, and the document
    /// lists its rows in key order.
    type Key: Ord;
    /// This row's merge key.
    fn key(&self) -> Self::Key;
    /// The merge key as `name=value` pairs, for messages.
    fn key_text(&self) -> String;
    /// Hex fingerprint of the row's configuration (see [`config_hash`]).
    fn fingerprint(&self) -> &str;
    /// Appends the row as one JSON object, keys in table order.
    fn render(&self, out: &mut String);
    /// Reads a row back from the text between its braces; every key of the
    /// table is required, in table order. Text after the last key is left
    /// to [`parse_document`]'s re-render check.
    ///
    /// # Errors
    ///
    /// Names the first missing, misplaced or mistyped key.
    fn parse(body: &str) -> Result<Self, String>;
}

/// A field table: each `/// doc` + `name: type` line is a struct field, a
/// document key (same name, same position), a writer column and a required
/// reader column; `as` names the document's group label and `keyed by`
/// lists the fields that make up the merge key. Every table ends in a
/// `config_hash: String` field.
macro_rules! cert_bench_row {
    (
        $(#[$row_doc:meta])*
        $Row:ident in $file:literal as $group:literal, keyed by ($($key:ident: $key_ty:ty),+);
        $($(#[$doc:meta])* $name:ident: $ty:ty,)+
    ) => {
        $(#[$row_doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $Row {
            $($(#[$doc])* pub $name: $ty,)+
        }

        impl Row for $Row {
            const FILE: &'static str = $file;
            const GROUP: &'static str = $group;
            const KEYS: &'static [&'static str] = &[$(stringify!($name)),+];
            type Key = ($($key_ty,)+);

            fn key(&self) -> Self::Key {
                ($(self.$key.clone(),)+)
            }

            fn key_text(&self) -> String {
                [$(format!("{}={}", stringify!($key), self.$key)),+].join(", ")
            }

            fn fingerprint(&self) -> &str {
                &self.config_hash
            }

            fn render(&self, out: &mut String) {
                out.push('{');
                $(
                    let _ = write!(out, "\"{}\": ", stringify!($name));
                    self.$name.render(out);
                    out.push_str(", ");
                )+
                out.truncate(out.len() - 2);
                out.push('}');
            }

            fn parse(mut body: &str) -> Result<Self, String> {
                Ok($Row { $($name: entry(&mut body, stringify!($name))?,)+ })
            }
        }
    };
}

cert_bench_row! {
    /// One row of the certification sweeps: a backend at a client count
    /// (and sites × replication factor), with the throughput and the work
    /// ledger the sweeps exist to track.
    CertBenchRow in "BENCH_cert.json" as "ablation_cert_backend", keyed by (
        clients: usize, backend: String, commit_path: String,
        sites: usize, replication_factor: usize
    );
    /// Backend name (`linear`, `indexed`), or the re-placement sweep's
    /// synthetic `churn{n}` label.
    backend: String,
    /// Emulated clients.
    clients: usize,
    /// Commit path (`sync` or `pipelined`).
    commit_path: String,
    /// Replica sites in the run.
    sites: usize,
    /// Replicas per warehouse: equal to `sites` under full replication,
    /// lower under a partial placement.
    replication_factor: usize,
    /// Committed transactions per minute.
    tpm: f64,
    /// Mean end-to-end latency of committed transactions, ms.
    mean_latency_ms: f64,
    /// Abort rate, percent.
    abort_pct: f64,
    /// Certifications performed.
    certifications: u64,
    /// Linear-scan merge comparisons.
    comparisons: u64,
    /// Index probes.
    probes: u64,
    /// Certification cost of the run's conflict checks, nanoseconds.
    total_work_ns: f64,
    /// Nanoseconds speculative probe work queued on the sites' FIFOs.
    queue_ns: u64,
    /// Nanoseconds of speculative probe service (pipelined runs).
    service_ns: u64,
    /// Nanoseconds folding speculative verdicts (pipelined runs).
    merge_ns: u64,
    /// Data-dependent certification nanoseconds stalling the delivery loop.
    stall_ns: u64,
    /// Confirmations resolved with zero delta work.
    spec_hits: u64,
    /// Overtaken speculations upheld by the delta re-probe.
    spec_revalidated: u64,
    /// Speculative passes overturned into aborts.
    spec_rollbacks: u64,
    /// Confirmations that found no speculation.
    spec_misses: u64,
    /// Fraction of examined read/write-set entries local to the certifying
    /// site's span — 1.0 under full replication.
    span_fraction: f64,
    /// Partial-replication vote rounds performed.
    vote_rounds: u64,
    /// Update transactions that crossed spans and voted.
    cross_span_txns: u64,
    /// Wire-level certification votes cast onto the data streams, all
    /// sites (zero under full replication, where no wire votes flow — as
    /// are the two below).
    votes_sent: u64,
    /// Wire-level votes received, all sites.
    votes_received: u64,
    /// Mean origin-side wait from delivery to quorum decision, ms.
    mean_vote_wait_ms: f64,
    /// View changes that stranded spans and triggered re-placement (nonzero
    /// only when churn stranded a span and the survivors re-homed it — as
    /// are the two below).
    replacements: u64,
    /// Spans re-homed onto surviving adopters.
    rehomed_spans: u64,
    /// Total nanoseconds clients of stranded spans spent parked.
    parked_ns: u64,
    /// Hex fingerprint of the row's configuration (see [`config_hash`]).
    config_hash: String,
}

cert_bench_row! {
    /// One point of the paper's evaluation grid (§5): a configuration of
    /// Fig. 5/6 at a client count, or the 3-site system under a loss plan
    /// (Fig. 7, Table 2), with every number those figures and tables plot.
    PaperRow in "BENCH_paper.json" as "paper", keyed by (
        sites: usize, cpus_per_site: usize, clients: usize, faults: String
    );
    /// Replica sites (1 = the centralised server).
    sites: usize,
    /// CPUs per site.
    cpus_per_site: usize,
    /// Emulated clients.
    clients: usize,
    /// Fault load: `none`, `random_loss_5pct` or `bursty_loss_5pct`.
    faults: String,
    /// Committed transactions per minute (Fig. 5a).
    tpm: f64,
    /// Mean end-to-end latency of committed transactions, ms (Fig. 5b).
    mean_latency_ms: f64,
    /// Median transaction latency, ms (Fig. 7a, as are the two below).
    latency_p50_ms: f64,
    /// 90th-percentile transaction latency, ms.
    latency_p90_ms: f64,
    /// 99th-percentile transaction latency, ms.
    latency_p99_ms: f64,
    /// Median certification latency, ms — commit request to outcome at the
    /// origin site (Fig. 7b, as are the two below; 0 on a centralised
    /// server, which certifies nothing).
    cert_latency_p50_ms: f64,
    /// 90th-percentile certification latency, ms.
    cert_latency_p90_ms: f64,
    /// 99th-percentile certification latency, ms.
    cert_latency_p99_ms: f64,
    /// Abort rate over all classes, percent (Fig. 5c, the tables' "All").
    abort_pct: f64,
    /// Abort rate of delivery, percent (Tables 1–2, as are the six below).
    abort_pct_delivery: f64,
    /// Abort rate of new-order, percent.
    abort_pct_neworder: f64,
    /// Abort rate of payment by last name, percent.
    abort_pct_payment_long: f64,
    /// Abort rate of payment by id, percent.
    abort_pct_payment_short: f64,
    /// Abort rate of order-status by last name, percent.
    abort_pct_orderstatus_long: f64,
    /// Abort rate of order-status by id, percent.
    abort_pct_orderstatus_short: f64,
    /// Abort rate of stock-level, percent.
    abort_pct_stocklevel: f64,
    /// Mean CPU utilisation across sites, all jobs, percent (Fig. 6a).
    cpu_total_pct: f64,
    /// Mean CPU utilisation by protocol (real) jobs, percent (Fig. 7c).
    cpu_real_pct: f64,
    /// Mean disk bandwidth utilisation across sites, percent (Fig. 6b).
    disk_pct: f64,
    /// Bytes put on the wire by all hosts, KB/s (Fig. 6c).
    network_kbps: f64,
    /// Hex fingerprint of the row's configuration (see [`config_hash`]).
    config_hash: String,
}

/// Fingerprints a row's configuration — its key and everything else its
/// numbers depend on: a SplitMix64 fold over the schema version, the
/// `labels` (0-byte separated) and the `nums`, in the order given. Two rows
/// with the same key but different hashes came from incomparable sweeps and
/// must not be merged into one artifact.
pub fn config_hash(labels: &[&str], nums: &[u64]) -> String {
    let mut h = SCHEMA_VERSION as u64;
    for byte in labels.join("\0").bytes() {
        h = splitmix64(h ^ byte as u64);
    }
    for &v in nums {
        h = splitmix64(h ^ v);
    }
    format!("{h:016x}")
}

impl CertBenchRow {
    /// Builds a row from one experiment's metrics, pricing the work ledger
    /// with [`CERT_COSTS`] (the table the simulation charged) and
    /// fingerprinting the configuration that produced it.
    pub fn from_metrics(backend: &str, cfg: &ExperimentConfig, m: &RunMetrics) -> Self {
        let commit_path = cfg.commit_path.name().to_string();
        let replication_factor = cfg.replication_factor.map_or(cfg.sites, |k| k.min(cfg.sites));
        let config_hash = config_hash(
            &[backend, &commit_path],
            &[
                cfg.clients as u64,
                cfg.sites as u64,
                replication_factor as u64,
                cfg.cpus_per_site as u64,
                cfg.target_txns,
                cfg.history_window,
                cfg.seed,
            ],
        );
        CertBenchRow {
            backend: backend.to_string(),
            clients: cfg.clients,
            commit_path,
            sites: cfg.sites,
            replication_factor,
            tpm: m.tpm(),
            mean_latency_ms: m.mean_latency_ms(),
            abort_pct: m.abort_rate(),
            certifications: m.cert_work.certifications,
            comparisons: m.cert_work.comparisons,
            probes: m.cert_work.probes,
            total_work_ns: CERT_COSTS.total_work_ns(&m.cert_work),
            queue_ns: m.cert_work.queue_ns,
            service_ns: m.cert_work.service_ns,
            merge_ns: m.cert_work.merge_ns,
            stall_ns: m.cert_work.stall_ns,
            spec_hits: m.cert_work.spec_hits,
            spec_revalidated: m.cert_work.spec_revalidated,
            spec_rollbacks: m.cert_work.spec_rollbacks,
            spec_misses: m.cert_work.spec_misses,
            span_fraction: m.cert_work.span_fraction(),
            vote_rounds: m.cert_work.vote_rounds,
            cross_span_txns: m.cert_work.cross_span_txns,
            votes_sent: m.gcs_sum(|g| g.votes_sent),
            votes_received: m.gcs_sum(|g| g.votes_received),
            mean_vote_wait_ms: m.vote_wire.mean_wait_ms(),
            replacements: m.replacement_work.replacements,
            rehomed_spans: m.replacement_work.rehomed_spans,
            parked_ns: m.replacement_work.parked_ns,
            config_hash,
        }
    }
}

impl PaperRow {
    /// Builds a row from one experiment's metrics; `faults` labels the
    /// fault load of `cfg` (part of the key and of the fingerprint).
    pub fn from_metrics(faults: &str, cfg: &ExperimentConfig, m: &RunMetrics) -> Self {
        let (mut latency, mut cert) = (m.pooled_latencies_ms(), m.cert_latencies_ms.clone());
        let q = |s: &mut dbsm_sim::stats::Samples, q| s.quantile(q).unwrap_or(0.0);
        let [delivery, neworder, pay_long, pay_short, os_long, os_short, stocklevel, all] =
            m.abort_rates();
        let (cpu_total, cpu_real) = m.mean_cpu_usage();
        PaperRow {
            sites: cfg.sites,
            cpus_per_site: cfg.cpus_per_site,
            clients: cfg.clients,
            faults: faults.to_string(),
            tpm: m.tpm(),
            mean_latency_ms: m.mean_latency_ms(),
            latency_p50_ms: q(&mut latency, 0.5),
            latency_p90_ms: q(&mut latency, 0.9),
            latency_p99_ms: q(&mut latency, 0.99),
            cert_latency_p50_ms: q(&mut cert, 0.5),
            cert_latency_p90_ms: q(&mut cert, 0.9),
            cert_latency_p99_ms: q(&mut cert, 0.99),
            abort_pct: all,
            abort_pct_delivery: delivery,
            abort_pct_neworder: neworder,
            abort_pct_payment_long: pay_long,
            abort_pct_payment_short: pay_short,
            abort_pct_orderstatus_long: os_long,
            abort_pct_orderstatus_short: os_short,
            abort_pct_stocklevel: stocklevel,
            cpu_total_pct: cpu_total * 100.0,
            cpu_real_pct: cpu_real * 100.0,
            disk_pct: m.mean_disk_usage() * 100.0,
            network_kbps: m.network_kbps(),
            config_hash: config_hash(
                &[faults],
                &[
                    cfg.sites as u64,
                    cfg.cpus_per_site as u64,
                    cfg.clients as u64,
                    cfg.target_txns,
                    cfg.history_window,
                    cfg.seed,
                ],
            ),
        }
    }

    /// Abort rates in [`dbsm_core::report::abort_table`] order: one per
    /// transaction class, then "All".
    pub fn abort_rates(&self) -> [f64; 8] {
        [
            self.abort_pct_delivery,
            self.abort_pct_neworder,
            self.abort_pct_payment_long,
            self.abort_pct_payment_short,
            self.abort_pct_orderstatus_long,
            self.abort_pct_orderstatus_short,
            self.abort_pct_stocklevel,
            self.abort_pct,
        ]
    }
}

/// The first lines of `R`'s artifact, up to its first row.
fn header<R: Row>() -> String {
    format!("{{\n  \"group\": \"{}\",\n  \"rows\": [\n", R::GROUP)
}

/// The lines after the last row.
const FOOTER: &str = "  ]\n}\n";

/// Renders the rows as an artifact document, one row per line.
pub fn rows_to_json<R: Row>(rows: &[R]) -> String {
    let mut out = header::<R>();
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    ");
        r.render(&mut out);
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str(FOOTER);
    out
}

/// The path of artifact `file` as a pure function of its three sources: an
/// explicit override names where `BENCH_cert.json` lands, and any other
/// artifact lands beside it; otherwise the artifacts sit at the root of the
/// workspace whose `crates/bench` is `run_dir` — the checkout being *run* —
/// falling back to `build_dir`, the checkout the library was compiled in.
/// The two differ when a checkout is copied together with its `target/`
/// (or built on a restored cache): the copy reuses the rlib, and a path
/// baked in at compile time would point back into the original checkout.
fn artifact_path(
    file: &str,
    over: Option<OsString>,
    run_dir: Option<OsString>,
    build_dir: &str,
) -> PathBuf {
    let cert = over.map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(run_dir.unwrap_or_else(|| build_dir.into())).join("../..").join(CERT_FILE)
    });
    if file == CERT_FILE {
        cert
    } else {
        cert.with_file_name(file)
    }
}

const CERT_FILE: &str = <CertBenchRow as Row>::FILE;

/// Where `R`'s artifact lands: at the workspace root (benches run with the
/// package directory as cwd, so a relative path would bury the file), or,
/// with `$DBSM_BENCH_CERT_JSON` set, at that path (`BENCH_cert.json`) or
/// beside it (any other artifact). Cargo exports `CARGO_MANIFEST_DIR` to
/// the bench/run/test processes it starts.
pub fn output_path<R: Row>() -> PathBuf {
    artifact_path(
        R::FILE,
        std::env::var_os("DBSM_BENCH_CERT_JSON"),
        std::env::var_os("CARGO_MANIFEST_DIR"),
        env!("CARGO_MANIFEST_DIR"),
    )
}

// ---- reading an artifact back and partial-sweep merge ----------------

/// Splits the next `"key": value` entry off the front of a row's body and
/// reads its value. No value holds a `"` but a string's own two quotes, so
/// the first `, "` after the key ends the value.
fn entry<T: Column>(body: &mut &str, key: &str) -> Result<T, String> {
    let text = body
        .strip_prefix('"')
        .and_then(|b| b.strip_prefix(key))
        .and_then(|b| b.strip_prefix("\": "))
        .ok_or_else(|| format!("missing required key \"{key}\" (keys are read in table order)"))?;
    let (value, rest) = text.find(", \"").map_or((text, ""), |at| (&text[..at], &text[at + 2..]));
    *body = rest;
    T::parse(value).map_err(|e| format!("key \"{key}\" {e}"))
}

/// Reads `R`'s artifact back: the header and footer [`rows_to_json`]
/// writes, between them one row per line, then the check that re-rendering
/// the rows reproduces `s` byte for byte. This is what the CI schema gate
/// runs — a wrong-shape artifact fails here, not three PRs later when a
/// consumer chokes on it.
///
/// # Errors
///
/// The first row key missing, out of order or mistyped, or the first line
/// that differs from what the writer renders.
pub fn parse_document<R: Row>(s: &str) -> Result<Vec<R>, String> {
    let body = s
        .strip_prefix(&header::<R>())
        .and_then(|b| b.strip_suffix(FOOTER))
        .ok_or_else(|| format!("not the header and footer of a \"{}\" document", R::GROUP))?;
    let rows = body
        .lines()
        .enumerate()
        .map(|(i, line)| {
            line.strip_prefix("    {")
                .map(|l| l.strip_suffix(',').unwrap_or(l))
                .and_then(|l| l.strip_suffix('}'))
                .ok_or_else(|| "not one {...} object on one line".to_string())
                .and_then(R::parse)
                .map_err(|e| format!("row {i}: {e}"))
        })
        .collect::<Result<Vec<R>, String>>()?;
    let canonical = rows_to_json(&rows);
    if canonical != s {
        let same = canonical.lines().zip(s.lines()).take_while(|(a, b)| a == b).count();
        return Err(format!("line {}: not as the writer renders it", same + 1));
    }
    Ok(rows)
}

/// Merges a partial sweep into an existing artifact. Rows the fresh sweep
/// re-ran replace their old versions; rows it didn't run are preserved.
///
/// # Errors
///
/// If an existing row and a fresh row share a key but disagree on
/// `config_hash`, the sweeps are incomparable (schema bump, different
/// seed/sites/target) and the merge refuses rather than emit a document
/// that silently mixes them. Re-run the full sweep instead.
pub fn merge_rows<R: Row>(existing: &[R], fresh: &[R]) -> Result<Vec<R>, String> {
    let mut merged = fresh.to_vec();
    for old in existing {
        match fresh.iter().find(|new| new.key() == old.key()) {
            Some(new) if new.fingerprint() != old.fingerprint() => {
                return Err(format!(
                    "config hash mismatch for row ({}): existing {} vs fresh {} — \
                     the artifact holds an incomparable sweep; re-run it in full",
                    old.key_text(),
                    old.fingerprint(),
                    new.fingerprint()
                ));
            }
            Some(_) => {}
            None => merged.push(old.clone()),
        }
    }
    merged.sort_by_key(R::key);
    Ok(merged)
}

/// Merges `fresh` into `R`'s artifact on disk, reads the rendered document
/// back and writes it, returning the path written. Only a missing artifact
/// starts an empty document; one that does not read back is left as it is
/// and fails the run, since starting afresh would silently drop every row
/// the sweep did not re-run.
///
/// # Errors
///
/// Returns `InvalidData` if the existing artifact does not read back
/// (a CRLF or hand-edited copy, say), on a config-hash mismatch against it
/// (see [`merge_rows`]), or if the rendered document fails to read back — a
/// formatting bug or a label the reader cannot take back (one holding a
/// `"`, say) must fail the bench run loudly, not poison the artifact. Any
/// other filesystem error is returned as it is.
pub fn merge_and_write<R: Row>(fresh: &[R]) -> std::io::Result<PathBuf> {
    let path = output_path::<R>();
    merge_into(&path, fresh)?;
    Ok(path)
}

/// [`merge_and_write`] into the artifact at `path`.
fn merge_into<R: Row>(path: &Path, fresh: &[R]) -> std::io::Result<()> {
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => parse_document::<R>(&text).map_err(|e| {
            invalid(format!("existing {} does not read back ({e}); left as it is", path.display()))
        })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let doc = rows_to_json(&merge_rows(&existing, fresh).map_err(invalid)?);
    parse_document::<R>(&doc).map_err(invalid)?;
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hash(clients: u64, seed: u64) -> String {
        config_hash(&["indexed", "pipelined"], &[clients, 3, 3, 1, 600, 4096, seed])
    }

    fn sample_row() -> CertBenchRow {
        CertBenchRow {
            backend: "indexed".to_string(),
            clients: 10000,
            commit_path: "pipelined".to_string(),
            sites: 3,
            replication_factor: 3,
            tpm: 35966.4,
            mean_latency_ms: 61.75,
            abort_pct: 2.13,
            certifications: 912,
            comparisons: 0,
            probes: 181150,
            total_work_ns: 3.43e7,
            queue_ns: 120_000,
            service_ns: 830_000,
            merge_ns: 9_000,
            stall_ns: 4_000,
            spec_hits: 870,
            spec_revalidated: 25,
            spec_rollbacks: 2,
            spec_misses: 3,
            span_fraction: 1.0,
            vote_rounds: 0,
            cross_span_txns: 0,
            votes_sent: 140,
            votes_received: 270,
            mean_vote_wait_ms: 1.8,
            replacements: 1,
            rehomed_spans: 2,
            parked_ns: 2_500_000,
            config_hash: sample_hash(10000, 42),
        }
    }

    #[test]
    fn rendered_document_passes_the_validator() {
        let rows = [sample_row(), sample_row()];
        let doc = rows_to_json(&rows);
        assert_eq!(parse_document::<CertBenchRow>(&doc).expect("reads back"), rows);
        // Every schema field appears.
        for key in ["group", "rows"].iter().chain(CertBenchRow::KEYS) {
            assert!(doc.contains(&format!("\"{key}\"")), "missing {key}:\n{doc}");
        }
    }

    #[test]
    fn empty_sweep_is_still_valid_json() {
        let doc = rows_to_json::<CertBenchRow>(&[]);
        assert_eq!(parse_document::<CertBenchRow>(&doc), Ok(vec![]));
        assert!(doc.contains("\"rows\": [\n  ]"));
    }

    #[test]
    fn non_finite_metrics_degrade_to_zero_not_invalid_json() {
        let mut row = sample_row();
        row.tpm = f64::NAN;
        row.span_fraction = f64::INFINITY;
        let doc = rows_to_json(&[row]);
        assert!(doc.contains("\"tpm\": 0.000,"), "{doc}");
        assert!(doc.contains("\"span_fraction\": 0.000,"), "{doc}");
        // The degraded value is one the reader takes back.
        let back = parse_document::<CertBenchRow>(&doc).expect("NaN/inf must not leak");
        assert_eq!((back[0].tpm, back[0].span_fraction), (0.0, 0.0));
        assert_eq!(rows_to_json(&back), doc);
    }

    #[test]
    fn a_label_the_reader_cannot_take_back_fails_the_writes_self_check() {
        // `merge_and_write` reads back the document it is about to write.
        let self_check = |row| parse_document::<CertBenchRow>(&rows_to_json(&[row]));
        assert!(self_check(sample_row()).is_ok());
        for label in ["we\"ird", "back\\slash", "new\nline", "tab\there"] {
            let mut row = sample_row();
            row.backend = label.to_string();
            assert!(self_check(row).is_err(), "wrote {label:?}");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let doc = rows_to_json(&[sample_row()]);
        for bad in [
            "",
            "{",
            "{}",
            "{\"a\":1,}",
            "{\"group\": \"ablation_cert_backend\", \"rows\": []}",
            &doc[..doc.len() - 1],
            &doc[..doc.len() / 2],
            &doc[1..],
            &format!("{doc} "),
            &format!("{doc}{doc}"),
        ] {
            assert!(parse_document::<CertBenchRow>(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    /// `doc` with its first `from` replaced by `to`.
    fn mutate(doc: &str, from: &str, to: &str) -> String {
        assert!(doc.contains(from), "{from} not in {doc}");
        doc.replacen(from, to, 1)
    }

    #[test]
    fn reader_rejects_every_spelling_but_the_writers() {
        let mut row = sample_row();
        row.mean_vote_wait_ms = 1.5;
        let doc = rows_to_json(&[row.clone(), row]);
        parse_document::<CertBenchRow>(&doc).expect("canonical");
        let backend = "\"backend\": \"indexed\"";
        let clients = "\"clients\": 10000";
        for (what, bad) in [
            (
                "reordered keys",
                mutate(&doc, &format!("{backend}, {clients}"), &format!("{clients}, {backend}")),
            ),
            ("a missing key", mutate(&doc, "\"comparisons\": 0, ", "")),
            ("an extra key", mutate(&doc, "\"}\n", "\", \"extra\": 1}\n")),
            (
                "1.50 for 1.500",
                mutate(&doc, "\"mean_vote_wait_ms\": 1.500", "\"mean_vote_wait_ms\": 1.50"),
            ),
            ("a space after a colon", mutate(&doc, clients, "\"clients\":  10000")),
            ("a space before a comma", mutate(&doc, clients, "\"clients\": 10000 ")),
            ("a space inside the braces", mutate(&doc, "{\"backend\"", "{ \"backend\"")),
            ("a trailing comma after a row", mutate(&doc, "}\n  ]", "},\n  ]")),
            ("a trailing comma inside a row", mutate(&doc, "\"}\n", "\", }\n")),
            ("an escaped quote in a label", mutate(&doc, "\"indexed\"", "\"in\\\"dexed\"")),
            ("an escaped backslash in a label", mutate(&doc, "\"indexed\"", "\"in\\\\dexed\"")),
            ("another table's group", mutate(&doc, "ablation_cert_backend", "paper")),
            ("a row split across two lines", mutate(&doc, ", \"probes\"", ",\n\"probes\"")),
            ("an integer through a float", mutate(&doc, clients, "\"clients\": 10000.0")),
            ("a signed integer", mutate(&doc, clients, "\"clients\": +10000")),
            ("CRLF line ends", doc.replace('\n', "\r\n")),
        ] {
            assert!(parse_document::<CertBenchRow>(&bad).is_err(), "accepted {what}:\n{bad}");
        }
        // Each table reads only its own group.
        assert!(parse_document::<PaperRow>(&doc).is_err());
    }

    #[test]
    fn row_from_metrics_prices_both_views() {
        use dbsm_core::{run_experiment, CertBackendKind};
        let cfg = ExperimentConfig::replicated(3, 20)
            .with_target(40)
            .with_cert_backend(CertBackendKind::Indexed);
        let m = run_experiment(cfg.clone());
        let row = CertBenchRow::from_metrics("indexed", &cfg, &m);
        assert!(row.probes > 0, "indexed run probes");
        // The run's priced work and the share of it that stalled the
        // delivery loop: a synchronous run stalls on every conflict check.
        assert!(row.total_work_ns > 0.0);
        assert!(row.stall_ns > 0 && row.stall_ns as f64 <= row.total_work_ns);
        assert_eq!(row.commit_path, "sync");
        assert_eq!(row.config_hash.len(), 16);
        let doc = rows_to_json(&[row]);
        parse_document::<CertBenchRow>(&doc).expect("well-formed from live metrics");
    }

    #[test]
    fn document_round_trips_through_the_typed_parser() {
        let mut other = sample_row();
        other.clients = 20000;
        other.commit_path = "sync".to_string();
        let rows = vec![sample_row(), other];
        let doc = rows_to_json(&rows);
        let parsed = parse_document::<CertBenchRow>(&doc).expect("typed parse");
        assert!(doc.starts_with("{\n  \"group\": \"ablation_cert_backend\",\n"), "{doc}");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].key(), rows[0].key());
        assert_eq!(parsed[0].config_hash, rows[0].config_hash);
        assert_eq!(parsed[1].spec_hits, 870);
        // Float fields survive the writer's 3-decimal precision.
        assert!((parsed[0].tpm - rows[0].tpm).abs() < 1e-3);
    }

    #[test]
    fn typed_parser_rejects_rows_missing_required_keys() {
        let doc = rows_to_json(&[sample_row()]);
        let bad = mutate(&doc, ", \"clients\": 10000", "");
        let err = parse_document::<CertBenchRow>(&bad).unwrap_err();
        assert!(err.contains("missing required key \"clients\""), "{err}");
        // Wrong type is also an error, not a silent coercion.
        let bad = mutate(&doc, "\"indexed\"", "7");
        assert!(parse_document::<CertBenchRow>(&bad).unwrap_err().contains("must be a string"));
        // Negative or fractional counters are rejected.
        for sites in ["3.5", "-3"] {
            let bad = mutate(&doc, "\"sites\": 3", &format!("\"sites\": {sites}"));
            let err = parse_document::<CertBenchRow>(&bad).unwrap_err();
            assert!(err.contains("non-negative integer"), "{err}");
        }
    }

    #[test]
    fn merge_preserves_rows_a_partial_sweep_did_not_rerun() {
        let kept = sample_row();
        let mut rerun_old = sample_row();
        rerun_old.clients = 20000;
        rerun_old.config_hash = sample_hash(20000, 42);
        rerun_old.tpm = 1.0;
        let mut rerun_new = rerun_old.clone();
        rerun_new.tpm = 99.0;
        let merged = merge_rows(&[kept.clone(), rerun_old], &[rerun_new.clone()]).expect("merge");
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(&kept), "non-rerun row must survive");
        let updated = merged.iter().find(|r| r.clients == 20000).unwrap();
        assert_eq!(updated.tpm, 99.0, "re-run row must be replaced");
    }

    #[test]
    fn an_existing_artifact_that_does_not_read_back_fails_the_merge_untouched() {
        let dir = std::env::temp_dir().join(format!("dbsm-cert-json-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("BENCH_cert.json");
        let mut fresh = sample_row();
        fresh.mean_vote_wait_ms = 1.5;
        let canonical = rows_to_json(std::slice::from_ref(&fresh));
        let crlf = canonical.replace('\n', "\r\n");
        let short =
            canonical.replace("\"mean_vote_wait_ms\": 1.500", "\"mean_vote_wait_ms\": 1.50");
        assert_ne!(short, canonical);
        for (what, text) in [("a CRLF copy", crlf), ("1.50 for 1.500", short)] {
            std::fs::write(&path, &text).expect("write the copy");
            let err = merge_into(&path, &[sample_row()]).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("does not read back"), "{what}: {err}");
            let after = std::fs::read(&path).expect("still there");
            assert!(after == text.as_bytes(), "{what}: the file on disk changed");
        }
        // A missing artifact starts an empty document.
        std::fs::remove_file(&path).expect("remove the copy");
        merge_into(&path, &[fresh]).expect("a fresh artifact");
        assert!(std::fs::read_to_string(&path).expect("written") == canonical);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn merge_rejects_config_hash_mismatch_for_the_same_key() {
        let old = sample_row();
        let mut fresh = sample_row();
        // Same (clients, backend, commit_path, sites, replication_factor)
        // key, but the sweep was run against a different seed → different
        // fingerprint.
        fresh.config_hash = sample_hash(10000, 43);
        let err = merge_rows(&[old], &[fresh]).unwrap_err();
        assert!(err.contains("config hash mismatch"), "{err}");
        assert!(err.contains("clients=10000"), "{err}");
        // The full five-component key is named so the offending row is findable.
        assert!(err.contains("sites=3"), "{err}");
        assert!(err.contains("replication_factor=3"), "{err}");
    }

    #[test]
    fn config_hash_separates_backend_and_commit_path_bytes() {
        // The 0-byte separator means ("ab", "c") and ("a", "bc") differ.
        let a = config_hash(&["ab", "c"], &[1; 7]);
        let b = config_hash(&["a", "bc"], &[1; 7]);
        assert_ne!(a, b);
        // And the hash is stable across calls.
        assert_eq!(a, config_hash(&["ab", "c"], &[1; 7]));
        // The replication factor is part of the fingerprint.
        assert_ne!(a, config_hash(&["ab", "c"], &[1, 1, 2, 1, 1, 1, 1]));
    }

    /// The committed artifacts, as the sweeps last regenerated them.
    const CERT: &str = include_str!("../../../BENCH_cert.json");
    const PAPER: &str = include_str!("../../../BENCH_paper.json");

    /// Pins the field order, the 3-decimal floats and the one-row-per-line
    /// layout: the strict reader accepts the committed file, and writing
    /// what it read reproduces the file exactly.
    fn rerenders_byte_for_byte<R: Row>(artifact: &str, rows: usize) {
        let parsed = parse_document::<R>(artifact).expect("committed artifact parses");
        assert_eq!(parsed.len(), rows, "{}", R::FILE);
        assert!(rows_to_json(&parsed) == artifact, "re-rendered {}", R::FILE);
    }

    #[test]
    fn committed_artifact_rerenders_byte_for_byte() {
        rerenders_byte_for_byte::<CertBenchRow>(CERT, 34);
        rerenders_byte_for_byte::<PaperRow>(PAPER, 49);
    }

    fn every_key_is_required_in_document_order<R: Row>(sample: &R) {
        let mut row = String::new();
        sample.render(&mut row);
        let entries: Vec<&str> = row[1..row.len() - 1].split(", ").collect();
        assert_eq!(entries.len(), R::KEYS.len());
        for (i, key) in R::KEYS.iter().enumerate() {
            assert!(entries[i].starts_with(&format!("\"{key}\": ")), "{key} out of order: {row}");
            let mut kept = entries.clone();
            kept.remove(i);
            let doc = format!("{}    {{{}}}\n{FOOTER}", header::<R>(), kept.join(", "));
            let err = parse_document::<R>(&doc).map(|_| ()).unwrap_err();
            assert!(err.contains(&format!("missing required key \"{key}\"")), "{key}: {err}");
        }
    }

    #[test]
    fn every_key_of_the_table_is_required_in_document_order() {
        every_key_is_required_in_document_order(&sample_row());
        let paper = parse_document::<PaperRow>(PAPER).expect("committed artifact parses");
        every_key_is_required_in_document_order(&paper[0]);
    }

    #[test]
    fn artifact_path_prefers_override_then_run_time_then_compile_time_dir() {
        let root = |dir: &str| PathBuf::from(dir).join("../../BENCH_cert.json");
        let (run, build) = (Some(OsString::from("/copy/crates/bench")), "/orig/crates/bench");
        let over = Some(OsString::from("/tmp/x.json"));
        assert_eq!(
            artifact_path(CERT_FILE, over.clone(), run.clone(), build),
            PathBuf::from("/tmp/x.json")
        );
        assert_eq!(artifact_path(CERT_FILE, None, run.clone(), build), root("/copy/crates/bench"));
        assert_eq!(artifact_path(CERT_FILE, None, None, build), root("/orig/crates/bench"));
        // Any other artifact lands beside the certification one.
        let paper = PaperRow::FILE;
        assert_eq!(
            artifact_path(paper, over, run.clone(), build),
            PathBuf::from("/tmp").join(paper)
        );
        assert_eq!(
            artifact_path(paper, None, run, build),
            PathBuf::from("/copy/crates/bench/../..").join(paper)
        );
    }
}
