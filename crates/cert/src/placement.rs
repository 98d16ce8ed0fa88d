//! The indexed certifier: the DBSM conflict check (§3.3) answered from an
//! index of the write history, optionally restricted to the spans a
//! partially replicating site stores.
//!
//! Unrestricted, [`IndexedCertifier`] indexes every committed write and
//! reaches the linear scan's decisions at O(request) probe cost. Under
//! partial replication ([`IndexedCertifier::with_span`]) it indexes, and
//! probes, only the tuples whose [`ShardKeyFn`] span it owns; everything
//! else costs nothing here, and its verdicts are combined across sites
//! with [`merge_votes`](crate::merge_votes). The history window, sequence
//! numbering, garbage collection and the speculative pipeline are the same
//! either way.
//!
//! # Index layout
//!
//! Commits arrive in total order, so sequence numbers only grow, and
//! garbage collection retires every sequence number at or below the stable
//! point.
//!
//! * Row writers live in a [`RowIndex`] of `(raw TupleId, seq)` pairs, 16
//!   bytes a writer. The writers filed since the last gc sit in a flat
//!   open-addressing table, one slot per writer. Every gc seals that table
//!   in place into a run sorted by `(raw id, seq)`, and drops or trims the
//!   runs at or below the stable point. A conflict probe binary-searches
//!   each run that ends above the request's snapshot, oldest first, then
//!   walks the open table's probe cluster.
//! * Each table keeps its table-level (wildcard) writers and its any-writer
//!   list, which a wildcard *read* probes. Both are ascending deques: a
//!   commit pushes to the back, gc trims the front, and a probe is one
//!   `partition_point` for the first sequence number above the snapshot.
//! * The history is a deque of run-length `(first, last)` ranges of
//!   consecutive commits with a non-empty write-set. A span-restricted
//!   certifier counts every such commit, whatever spans it touched, so
//!   sequence numbers and history lengths stay in lockstep across sites.
//!
//! Nothing records which ids a commit indexed: gc drops whole runs, trims
//! the one run and the table lists that straddle the stable point, and
//! drops each table once both its lists are empty. No write-set is cloned
//! or allocated per commit.
//!
//! # Speculative certification
//!
//! The pipelined commit path overlaps certification with the total-order
//! broadcast: when a request is *tentatively* delivered (content received,
//! global sequence not yet known), [`IndexedCertifier::speculate`] probes the
//! index against the history seen so far and remembers the answer together
//! with its `basis` — the last committed sequence number covered by the
//! probe. When the global sequence arrives, [`IndexedCertifier::confirm`]
//! turns the speculation into the *bit-identical* synchronous outcome:
//!
//! * a speculative **conflict** is final — later commits only append higher
//!   sequence numbers, so the speculative hit is still the linear scan's
//!   first (lowest) hit ([`SpecResolution::Hit`]);
//! * a speculative **pass** with an unchanged basis commits with no further
//!   probing ([`SpecResolution::Hit`]);
//! * a speculative **pass** overtaken by later commits re-probes only the
//!   delta window `(basis, last_committed]`
//!   ([`SpecResolution::Revalidated`], or [`SpecResolution::Rollback`] when
//!   the delta overturns the speculative commit);
//! * a request with no speculation on file falls back to a full synchronous
//!   certification ([`SpecResolution::Miss`]).
//!
//! Soundness leans on two invariants: commits append strictly increasing
//! sequence numbers (so nothing below the basis appears later), and garbage
//! collection only evicts history at or below the low-water mark, which
//! [`IndexedCertifier::confirm`] checks against `start_seq` before trusting
//! any speculation.

use crate::certifier::{CertWork, HistoryTruncated, Outcome};
use crate::fxhash::FxHashMap;
use crate::request::CertRequest;
use crate::rwset::RwSet;
use crate::span::ShardKeyFn;
use crate::tuple::{TableId, TupleId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Per-table slice of the write-history index: its wildcard and
/// any-writer lists. Row writers live in the certifier's [`RowIndex`].
#[derive(Debug, Clone, Default)]
pub(crate) struct TableIndex {
    /// Sequence numbers of table-level (wildcard) writes to this table.
    pub(crate) wildcard: VecDeque<u64>,
    /// Sequence numbers of *any* write touching this table (row or
    /// wildcard), deduplicated — the list a wildcard *read* probes.
    pub(crate) any_writer: VecDeque<u64>,
}

impl TableIndex {
    /// True once every write to the table is evicted. The any-writer list
    /// holds every sequence number a row or wildcard list of the table
    /// holds, so the table's rows are gone too.
    fn is_empty(&self) -> bool {
        self.wildcard.is_empty() && self.any_writer.is_empty()
    }
}

/// Smallest sequence number in `seqs` strictly above `start_seq`.
fn first_above(seqs: &VecDeque<u64>, start_seq: u64) -> Option<u64> {
    let i = seqs.partition_point(|s| *s <= start_seq);
    seqs.get(i).copied()
}

/// Drops every sequence number at or below `stable_seq` from the front of
/// the ascending `seqs`.
fn trim_front(seqs: &mut VecDeque<u64>, stable_seq: u64) {
    let retired = seqs.partition_point(|s| *s <= stable_seq);
    seqs.drain(..retired);
}

/// Fibonacci-hashing multiplier of [`RowIndex::home`]: its product's high
/// bits mix every bit of the raw id, table and row alike.
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fewest slots the open table allocates.
const MIN_SLOTS: usize = 16;

/// One sealed run: the writers filed between two seals, sorted by
/// `(raw id, seq)`, so a row's writers are adjacent and ascending.
#[derive(Debug, Clone)]
struct Run {
    /// Highest sequence number in `pairs`.
    last: u64,
    pairs: Vec<(u64, u64)>,
}

impl Run {
    /// The run of `pairs`, sorted in place; `None` when empty.
    fn of(mut pairs: Vec<(u64, u64)>) -> Option<Run> {
        let last = pairs.iter().map(|&(_, seq)| seq).max()?;
        pairs.sort_unstable();
        Some(Run { last, pairs })
    }
}

/// The writers of every indexed row.
///
/// Writers filed since the last seal sit in the *open table*: flat
/// `(raw id, seq)` slots under linear probing, one slot per writer, never
/// deleted, raw id 0 marking an empty slot. A filed row is never
/// table-level, so its raw id is never 0. [`RowIndex::seal`] turns the open
/// table, in place, into a sorted [`Run`]; runs are kept oldest first, and
/// each run's sequence numbers lie above the previous run's.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    /// The open table: empty, or a power-of-two number of slots at most
    /// three quarters full. Its slot order follows the hash; the probe takes
    /// the minimum over a row's slots and the seal sorts, so that order
    /// reaches no answer.
    open: Vec<(u64, u64)>,
    /// Occupied slots of `open`.
    filed: usize,
    /// Sealed runs, oldest first.
    runs: VecDeque<Run>,
}

impl RowIndex {
    /// The open-table slot where a probe for `raw` starts.
    fn home(&self, raw: u64) -> usize {
        let bits = self.open.len().trailing_zeros();
        (raw.wrapping_mul(SPREAD) >> (u64::BITS - bits)) as usize
    }

    /// Files `(raw, seq)` in the first empty slot from its home on.
    fn place(&mut self, raw: u64, seq: u64) {
        let mask = self.open.len() - 1;
        let mut i = self.home(raw);
        while self.open[i].0 != 0 {
            i = (i + 1) & mask;
        }
        self.open[i] = (raw, seq);
    }

    /// Files `seq`, which is above every writer of `row` present.
    ///
    /// # Panics
    ///
    /// Panics if `row` is table-level: its raw id could be 0, the empty
    /// slot.
    fn push_back(&mut self, row: TupleId, seq: u64) {
        assert!(!row.is_table_level(), "table-level id {row:?} has no row slot");
        if 4 * (self.filed + 1) > 3 * self.open.len() {
            let slots = (2 * self.open.len()).max(MIN_SLOTS);
            let old = std::mem::replace(&mut self.open, vec![(0, 0); slots]);
            for (raw, seq) in old.into_iter().filter(|&(raw, _)| raw != 0) {
                self.place(raw, seq);
            }
        }
        self.place(row.as_raw(), seq);
        self.filed += 1;
    }

    /// Smallest writer of `row` strictly above `start_seq`: the first one
    /// in the oldest run that ends above `start_seq` and holds one, else
    /// the least one in the open table.
    fn first_above(&self, row: TupleId, start_seq: u64) -> Option<u64> {
        let raw = row.as_raw();
        let from = self.runs.partition_point(|run| run.last <= start_seq);
        let sealed = self.runs.range(from..).find_map(|run| {
            let i = run.pairs.partition_point(|&pair| pair <= (raw, start_seq));
            run.pairs.get(i).filter(|&&(r, _)| r == raw).map(|&(_, seq)| seq)
        });
        if sealed.is_some() || self.open.is_empty() {
            return sealed;
        }
        // The table is never full, so the cluster ends at an empty slot.
        let (mask, home) = (self.open.len() - 1, self.home(raw));
        (0..)
            .map(|k| self.open[(home + k) & mask])
            .take_while(|&(r, _)| r != 0)
            .filter(|&(r, seq)| r == raw && seq > start_seq)
            .map(|(_, seq)| seq)
            .min()
    }

    /// Turns the open table into a sealed run in place: drops the empty
    /// slots, shrinks and sorts. The next writer filed allocates a new one.
    fn seal(&mut self) {
        let mut pairs = std::mem::take(&mut self.open);
        pairs.retain(|&(raw, _)| raw != 0);
        pairs.shrink_to_fit();
        self.filed = 0;
        self.runs.extend(Run::of(pairs));
    }

    /// Drops every writer at or below `stable_seq` from the sealed runs:
    /// whole runs that end there, and those of the oldest run left, the
    /// only one that can straddle it.
    fn trim(&mut self, stable_seq: u64) {
        while self.runs.front().is_some_and(|run| run.last <= stable_seq) {
            self.runs.pop_front();
        }
        if let Some(run) = self.runs.front_mut() {
            run.pairs.retain(|&(_, seq)| seq > stable_seq);
            run.pairs.shrink_to_fit();
        }
    }

    /// Panics unless the runs and the open table are well formed, and
    /// returns each row's writers merged across them: runs oldest first,
    /// then the open table's in ascending order (its slot order is not an
    /// invariant). Each run is non-empty, strictly sorted, with its true
    /// last, and lies above the previous run; the open table is
    /// empty or a power of two of slots at most three quarters full, its
    /// filed count is its number of occupied slots, and every occupied slot
    /// is reachable from its home without crossing an empty one.
    fn check(&self) -> BTreeMap<TupleId, Vec<u64>> {
        let mut rows: BTreeMap<TupleId, Vec<u64>> = BTreeMap::new();
        let mut above = 0;
        for run in &self.runs {
            assert!(run.pairs.is_sorted_by(|a, b| a < b), "run not strictly sorted");
            let seqs = || run.pairs.iter().map(|&(_, seq)| seq);
            let first = seqs().min().expect("empty run");
            assert_eq!(seqs().max(), Some(run.last), "run's last");
            assert!(above < first, "run {first}..={} after {above}", run.last);
            above = run.last;
        }
        let n = self.open.len();
        assert!(
            n == 0 || n.is_power_of_two() && 4 * self.filed <= 3 * n,
            "open table of {n} slots"
        );
        let mut open = Vec::new();
        for (i, &(raw, seq)) in self.open.iter().enumerate() {
            if raw != 0 {
                let home = self.home(raw);
                let walk = (i + n - home) % n;
                assert!(
                    (0..walk).all(|k| self.open[(home + k) % n].0 != 0),
                    "slot {i} unreachable from its home {home}"
                );
                open.push((raw, seq));
            }
        }
        assert_eq!(open.len(), self.filed, "filed count is not the occupied slots");
        assert!(open.iter().all(|&(_, seq)| seq > above), "an open writer at or below a run's");
        open.sort_unstable();
        for &(raw, seq) in self.runs.iter().flat_map(|run| &run.pairs).chain(&open) {
            let row = TupleId::from_raw(raw);
            assert!(!row.is_table_level(), "table-level id {row:?} filed as a row");
            rows.entry(row).or_default().push(seq);
        }
        rows
    }

    /// Every filed `(row, seq)`: the runs' in run order, then the open
    /// table's in slot order.
    fn pairs(&self) -> impl Iterator<Item = (TupleId, u64)> + '_ {
        let sealed = self.runs.iter().flat_map(|run| &run.pairs);
        let open = self.open.iter().filter(|&&(raw, _)| raw != 0);
        sealed.chain(open).map(|&(raw, seq)| (TupleId::from_raw(raw), seq))
    }

    /// The writers of the rows `keep` accepts, all sealed: each run is
    /// filtered on its own, and the open table becomes one last run.
    fn filtered(&self, keep: impl Fn(TupleId) -> bool) -> RowIndex {
        let kept = |pairs: &[(u64, u64)]| -> Vec<(u64, u64)> {
            let keep = |raw| raw != 0 && keep(TupleId::from_raw(raw));
            pairs.iter().copied().filter(|&(raw, _)| keep(raw)).collect()
        };
        let runs = self.runs.iter().map(|run| kept(&run.pairs)).chain([kept(&self.open)]);
        RowIndex { runs: runs.filter_map(Run::of).collect(), ..RowIndex::default() }
    }

    /// The writers of `row`, ascending.
    #[cfg(test)]
    pub(crate) fn writers(&self, row: TupleId) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.pairs().filter(|&(r, _)| r == row).map(|(_, s)| s).collect();
        seqs.sort_unstable();
        seqs
    }

    /// Number of filed writers, sealed or open.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.runs.iter().map(|run| run.pairs.len()).sum::<usize>() + self.filed
    }
}

/// The spans a partially replicating site stores.
#[derive(Debug, Clone)]
struct Span {
    span_of: ShardKeyFn,
    /// Owned span ids, sorted for binary-search membership.
    owned: Vec<u64>,
}

/// A speculative certification answer produced at tentative-delivery time.
#[derive(Debug, Clone, Copy)]
struct Speculation {
    /// The request snapshot the probe ran against.
    start_seq: u64,
    /// `last_committed` at probe time: everything at or below it was
    /// covered by the speculative probe.
    basis: u64,
    /// The speculative conflict, if one was found.
    conflict: Option<u64>,
}

/// How [`IndexedCertifier::confirm`] resolved a request against its
/// speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecResolution {
    /// The speculative answer was final: a speculative conflict, or a
    /// speculative pass whose basis still equals `last_committed` — zero
    /// delta work on the critical path.
    Hit,
    /// The speculative pass was overtaken by later commits; the delta
    /// window re-probe upheld the commit.
    Revalidated,
    /// The delta re-probe overturned a speculative pass into an abort —
    /// the optimistic work is rolled back.
    Rollback,
    /// No speculation was on file; a full synchronous certification ran.
    Miss,
}

/// A certifier that answers the DBSM conflict check from an index of the
/// write history instead of scanning it.
///
/// For every read-set entry the probe is: the row's writers (was this
/// tuple overwritten concurrently?), the table's wildcard list (did a
/// table-level write cover it?), and — for wildcard reads — the table's
/// any-writer list. Each is a table lookup plus a binary search per list
/// or recent run and a walk of one open-table probe cluster, so the total
/// cost is proportional to the *request*, not to the conflict window. The
/// index is maintained incrementally: commits append, and gc seals the
/// writers filed since the last gc into a sorted run and drops every
/// writer at or below the stable point. The module documentation describes
/// the layout.
///
/// A certifier built with [`IndexedCertifier::with_span`] indexes and
/// probes only the tuples it [stores](IndexedCertifier::is_local). Drive it
/// with [`IndexedCertifier::vote`] / [`merge_votes`](crate::merge_votes) /
/// [`IndexedCertifier::apply`]; its `certify` decides from the local spans
/// alone, which is only correct when they cover every span.
#[derive(Debug, Clone)]
pub struct IndexedCertifier {
    /// The per-table wildcard and any-writer lists. Iterated only by gc,
    /// which keeps or drops each table by its own lists, and by
    /// [`IndexedCertifier::restricted_to`], which copies them whole: hash
    /// order cannot leak.
    pub(crate) tables: FxHashMap<TableId, TableIndex>,
    /// The writers of every indexed row: sealed runs in sorted order and
    /// the open table, whose slot order no probe or copy exposes.
    pub(crate) rows: RowIndex,
    /// The stored spans; `None` stores every tuple.
    span: Option<Span>,
    /// Run-length `(first, last)` ranges of the retained commits with a
    /// non-empty write-set, oldest first: every sequence number in
    /// `first..=last` is one, and a commit with an empty write-set ends a
    /// range.
    history: VecDeque<(u64, u64)>,
    /// Next global sequence number to assign.
    next_seq: u64,
    /// All sequence numbers `<= low_water` have been garbage collected.
    low_water: u64,
    /// Outstanding speculations keyed by `(site, txn)`. Looked up by key;
    /// the one pass over it, gc's `retain`, keeps or drops each entry by its
    /// own fields, so hash order cannot leak.
    specs: FxHashMap<(u16, u64), Speculation>,
}

impl Default for IndexedCertifier {
    fn default() -> Self {
        IndexedCertifier::new()
    }
}

impl IndexedCertifier {
    /// Creates an unrestricted certifier with an empty history; the first
    /// committed transaction receives sequence number 1.
    pub fn new() -> Self {
        IndexedCertifier {
            tables: FxHashMap::default(),
            rows: RowIndex::default(),
            span: None,
            history: VecDeque::new(),
            next_seq: 1,
            low_water: 0,
            specs: FxHashMap::default(),
        }
    }

    /// Creates a certifier storing only the `owned` spans under the
    /// `span_of` key (tuples it maps to `None` are stored everywhere), with
    /// an empty history.
    pub fn with_span(span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        let mut owned: Vec<u64> = owned.into_iter().collect();
        owned.sort_unstable();
        owned.dedup();
        IndexedCertifier { span: Some(Span { span_of, owned }), ..IndexedCertifier::new() }
    }

    /// A copy of this certifier's retained history, sequence counter and
    /// low-water mark, storing only the `owned` spans under `span_of`.
    ///
    /// This is the receiving half of rejoin state transfer and re-homing
    /// under partial placement: the unrestricted donor holds the full
    /// index, and the new replica only wants the rows its spans own, so the
    /// transfer rebuilds the index from the donor's instead of shipping it
    /// verbatim. Each of the donor's runs keeps its local rows' writers, and
    /// its open table becomes one last run, so the copy is all sealed; each
    /// local table keeps its wildcard list, a table's any-writer list
    /// becomes the sorted union of those, and the history ranges are copied
    /// as they are. Speculations
    /// are not carried over — they are bound to requests in flight at the
    /// donor, which the new replica never saw.
    ///
    /// # Panics
    ///
    /// Panics if this certifier is itself span-restricted: it indexed only
    /// its own ids, so it cannot project onto other spans.
    pub fn restricted_to(&self, span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        assert!(self.span.is_none(), "only an unrestricted certifier can be re-projected");
        let mut c = IndexedCertifier {
            history: self.history.clone(),
            next_seq: self.next_seq,
            low_water: self.low_water,
            ..IndexedCertifier::with_span(span_of, owned)
        };
        c.rows = self.rows.filtered(|row| c.is_local(row));
        // Each local table's writers, gathered in run and hash order and
        // sorted below; each entry fills only its own table, so order
        // cannot leak.
        let mut any: FxHashMap<TableId, Vec<u64>> = FxHashMap::default();
        for (row, seq) in c.rows.pairs() {
            any.entry(row.table()).or_default().push(seq);
        }
        for (&table, index) in &self.tables {
            if !index.wildcard.is_empty() && c.is_local(TupleId::table_level(table)) {
                c.tables.entry(table).or_default().wildcard = index.wildcard.clone();
                any.entry(table).or_default().extend(&index.wildcard);
            }
        }
        for (table, mut seqs) in any {
            seqs.sort_unstable();
            seqs.dedup();
            c.tables.entry(table).or_default().any_writer = seqs.into();
        }
        c
    }

    /// True when this certifier stores `id`: it is unrestricted, the span of
    /// `id` is owned, or the key maps `id` to no span.
    pub fn is_local(&self, id: TupleId) -> bool {
        self.span
            .as_ref()
            .is_none_or(|s| (s.span_of)(id).is_none_or(|span| s.owned.binary_search(&span).is_ok()))
    }

    /// The owned span ids, sorted ascending (empty when unrestricted).
    pub fn owned_spans(&self) -> &[u64] {
        self.span.as_ref().map_or(&[], |s| &s.owned)
    }

    /// `(local, total)` id counts of `set` — the numerator/denominator of
    /// the `span_fraction` metric.
    pub fn coverage(&self, set: &RwSet) -> (usize, usize) {
        let local = set.ids().iter().filter(|&&id| self.is_local(id)).count();
        (local, set.len())
    }

    /// The subset of `set` stored here (what a remote write-set application
    /// touches).
    pub fn local_subset(&self, set: &RwSet) -> RwSet {
        // Filtering a sorted set preserves order.
        RwSet::from_sorted(set.ids().iter().copied().filter(|&id| self.is_local(id)).collect())
    }

    /// Sequence number of the last committed transaction (0 if none).
    pub fn last_committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of write-sets retained: one per commit with a non-empty
    /// write-set above the low-water mark, whatever spans it touched.
    pub fn history_len(&self) -> usize {
        self.history.iter().map(|&(first, last)| (last - first + 1) as usize).sum()
    }

    /// Oldest garbage-collected sequence number.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Outstanding speculations (bounded by requests in flight between
    /// tentative and total-order delivery).
    pub fn speculations(&self) -> usize {
        self.specs.len()
    }

    /// The lowest sequence number strictly above `start_seq` whose stored
    /// writes intersect `read_set`. Ids stored elsewhere are skipped without
    /// counting a probe: a site performs *no* work for tuples outside its
    /// spans.
    fn probe(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, CertWork) {
        let mut earliest: Option<u64> = None;
        let mut note = |seq: Option<u64>| {
            if let Some(s) = seq {
                earliest = Some(earliest.map_or(s, |e| e.min(s)));
            }
        };
        let mut probes = 0;
        for &id in read_set.ids() {
            if !self.is_local(id) {
                continue;
            }
            // The table lookup itself is one probe.
            probes += 1;
            let Some(table) = self.tables.get(&id.table()) else { continue };
            if id.is_table_level() {
                // A wildcard read conflicts with any concurrent write to the
                // table.
                probes += 1;
                note(first_above(&table.any_writer, start_seq));
            } else {
                // A row read conflicts with concurrent writes to that row or
                // with a concurrent table-level write.
                probes += 2;
                note(first_above(&table.wildcard, start_seq));
                note(self.rows.first_above(id, start_seq));
            }
        }
        (earliest, CertWork { probes, ..CertWork::default() })
    }

    /// Appends a commit: assigns the next sequence number and indexes the
    /// stored part of the write-set (sorted, so ids of one table are
    /// adjacent). A non-empty write-set extends the history — also when
    /// none of it is stored here; an empty one leaves none.
    fn commit(&mut self, req: &CertRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if req.write_set.is_empty() {
            return seq;
        }
        for &id in req.write_set.ids() {
            if !self.is_local(id) {
                continue;
            }
            let table = self.tables.entry(id.table()).or_default();
            if id.is_table_level() {
                table.wildcard.push_back(seq);
            } else {
                self.rows.push_back(id, seq);
            }
            // One entry per (table, seq) pair: dedup against the back.
            if table.any_writer.back() != Some(&seq) {
                table.any_writer.push_back(seq);
            }
        }
        match self.history.back_mut() {
            Some((_, last)) if *last + 1 == seq => *last = seq,
            _ => self.history.push_back((seq, seq)),
        }
        seq
    }

    /// Turns a conflict answer into the outcome, committing a pass.
    fn decide(&mut self, req: &CertRequest, conflict: Option<u64>) -> Outcome {
        match conflict {
            Some(conflict_seq) => Outcome::Abort { conflict_seq },
            None => Outcome::Commit(self.commit(req)),
        }
    }

    /// Rejects a snapshot that predates the garbage collection low-water
    /// mark.
    fn check_window(&self, start_seq: u64) -> Result<(), HistoryTruncated> {
        if start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq, low_water: self.low_water });
        }
        Ok(())
    }

    /// Certifies a request delivered in total order; same contract and same
    /// decisions as [`LinearCertifier::certify`](crate::LinearCertifier::certify),
    /// at O(request) probe cost: [`IndexedCertifier::vote`] plus a commit.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        let (conflict, work) = self.vote(req)?;
        Ok((self.decide(req, conflict), work))
    }

    /// Local read-only validation; same contract as
    /// [`LinearCertifier::certify_read_only`](crate::LinearCertifier::certify_read_only).
    pub fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        let (conflict, work) = self.probe(read_set, start_seq);
        (conflict.is_none(), work)
    }

    /// The probe half of [`IndexedCertifier::certify`], with no state
    /// change: this site's *verdict* on the request — the lowest conflicting
    /// sequence number among the tuples it stores, or `None`.
    ///
    /// Under partial replication each replica votes only on its local spans;
    /// combining a covering set of votes with
    /// [`merge_votes`](crate::merge_votes) reproduces the full-replication
    /// conflict answer bit for bit, because the global earliest conflict is
    /// the minimum of the per-span earliest conflicts. The decision is
    /// applied separately via [`IndexedCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn vote(&self, req: &CertRequest) -> Result<(Option<u64>, CertWork), HistoryTruncated> {
        self.check_window(req.start_seq)?;
        Ok(self.probe(&req.read_set, req.start_seq))
    }

    /// The state-change half of [`IndexedCertifier::certify`]: applies an
    /// externally merged decision. A commit must carry the next sequence
    /// number in total order — every replica applies the same decision
    /// stream, so the counters stay in lockstep; aborts consume nothing.
    ///
    /// # Panics
    ///
    /// Panics with "decision applied out of order" if a commit does not
    /// carry the next sequence number.
    pub fn apply(&mut self, req: &CertRequest, outcome: Outcome) {
        if let Outcome::Commit(seq) = outcome {
            assert_eq!(seq, self.next_seq, "decision applied out of order");
            self.commit(req);
        }
    }

    /// Speculatively certifies a *tentatively* delivered request (content
    /// received, global order unknown) against the history seen so far,
    /// recording the answer for [`IndexedCertifier::confirm`]. Never
    /// mutates the index, so it is safe at any interleaving; requests whose
    /// snapshot already fell below the low-water mark are probed but not
    /// recorded (their confirm re-checks and reports truncation). Returns
    /// the work of the speculative probe.
    pub fn speculate(&mut self, req: &CertRequest) -> CertWork {
        let (conflict, work) = self.probe(&req.read_set, req.start_seq);
        if req.start_seq >= self.low_water {
            self.specs.insert(
                (req.site.0, req.txn),
                Speculation { start_seq: req.start_seq, basis: self.last_committed(), conflict },
            );
        }
        work
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation, producing the *bit-identical* outcome a synchronous
    /// [`IndexedCertifier::certify`] would have — see the module
    /// documentation for the case analysis: [`IndexedCertifier::confirm_vote`]
    /// plus a commit. The returned [`CertWork`] is only the delta work
    /// performed *here*, on the delivery critical path; the speculative
    /// probe was already accounted by [`IndexedCertifier::speculate`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    ///
    /// # Panics
    ///
    /// As [`IndexedCertifier::confirm_vote`].
    pub fn confirm(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Outcome, CertWork, SpecResolution), HistoryTruncated> {
        let (conflict, work, res) = self.confirm_vote(req)?;
        Ok((self.decide(req, conflict), work, res))
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation into this site's *vote* — the probe half of
    /// [`IndexedCertifier::confirm`], with no commit. The conflict answer is
    /// bit-identical to what [`IndexedCertifier::vote`] would return at the
    /// same point, but a speculative hit or a quiet basis costs zero delta
    /// probes on the delivery critical path: the pipelined partial-
    /// replication path overlaps the span probe with the ordering round and
    /// only pays here for the delta window. The merged decision is applied
    /// separately via [`IndexedCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    ///
    /// # Panics
    ///
    /// Panics with "speculation for a different snapshot" if the
    /// speculation on file for `req`'s `(site, txn)` ran against another
    /// `start_seq`.
    pub fn confirm_vote(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Option<u64>, CertWork, SpecResolution), HistoryTruncated> {
        self.check_window(req.start_seq)?;
        let Some(spec) = self.specs.remove(&(req.site.0, req.txn)) else {
            let (conflict, work) = self.probe(&req.read_set, req.start_seq);
            return Ok((conflict, work, SpecResolution::Miss));
        };
        assert_eq!(spec.start_seq, req.start_seq, "speculation for a different snapshot");
        if spec.conflict.is_some() || spec.basis == self.last_committed() {
            // Commits after the speculative probe all carry sequence numbers
            // above its basis, hence above any conflict it found: that hit is
            // still the linear scan's first (lowest) one. A pass with nothing
            // committed since covered the full window.
            return Ok((spec.conflict, CertWork::default(), SpecResolution::Hit));
        }
        // Re-probe only the delta window (basis, last_committed]; the
        // speculative pass already cleared (start_seq, basis].
        let (conflict, work) = self.probe(&req.read_set, spec.basis.max(req.start_seq));
        let res =
            if conflict.is_some() { SpecResolution::Rollback } else { SpecResolution::Revalidated };
        Ok((conflict, work, res))
    }

    /// Discards history at or below `stable_seq` (clamped to
    /// [`IndexedCertifier::last_committed`]) and prunes speculations whose
    /// snapshot fell below the new low-water mark (their confirm would
    /// report truncation anyway). Every call seals the writers filed since
    /// the last one into a sorted run; when any history retires, the runs
    /// at or below `stable_seq` go and the one straddling it is trimmed.
    pub fn gc(&mut self, stable_seq: u64) {
        let stable_seq = stable_seq.min(self.last_committed());
        self.rows.seal();
        if self.history.front().is_some_and(|&(first, _)| first <= stable_seq) {
            while let Some(range) = self.history.front_mut() {
                if range.1 > stable_seq {
                    range.0 = range.0.max(stable_seq + 1);
                    break;
                }
                self.history.pop_front();
            }
            self.rows.trim(stable_seq);
            self.tables.retain(|_, table| {
                trim_front(&mut table.wildcard, stable_seq);
                trim_front(&mut table.any_writer, stable_seq);
                !table.is_empty()
            });
        }
        self.low_water = self.low_water.max(stable_seq);
        let low_water = self.low_water;
        self.specs.retain(|_, s| s.start_seq >= low_water);
    }

    /// Panics unless the index agrees with the history and the low-water
    /// mark: every history range is non-empty, above `low_water` and
    /// separated from the next; every retained writer lies in a range and
    /// above `low_water`; every row's writers, merged across the runs and
    /// the open table, and every list's are strictly ascending; each table's
    /// any-writer list is exactly the union of its rows' and wildcard
    /// writers, and no table is empty; the row index is well formed
    /// ([`RowIndex::check`]); and [`IndexedCertifier::history_len`] is the
    /// number of sequence numbers the ranges cover. A test aid: it walks the
    /// whole index.
    #[doc(hidden)]
    pub fn check_index(&self) {
        let lw = self.low_water;
        let mut above = lw;
        for &(first, last) in &self.history {
            assert!(above < first && first <= last, "history range {first}..={last} after {above}");
            above = last + 1;
        }
        let covered = self.history.iter().flat_map(|&(first, last)| first..=last).count();
        assert_eq!(self.history_len(), covered, "history_len is not the range sum");
        let check = |what: &dyn std::fmt::Debug, seqs: Vec<u64>| {
            assert!(
                seqs.is_sorted_by(|a, b| a < b),
                "{what:?}: writers {seqs:?} not strictly ascending"
            );
            for &seq in &seqs {
                assert!(seq > lw, "{what:?}: writer {seq} retained at or below low water {lw}");
                let i = self.history.partition_point(|&(_, last)| last < seq);
                assert!(
                    self.history.get(i).is_some_and(|&(first, _)| first <= seq),
                    "{what:?}: writer {seq} outside the history"
                );
            }
            seqs
        };
        let mut union: BTreeMap<TableId, BTreeSet<u64>> = BTreeMap::new();
        for (row, seqs) in self.rows.check() {
            let seqs = check(&row, seqs);
            union.entry(row.table()).or_default().extend(seqs);
        }
        for (table, index) in &self.tables {
            assert!(!index.is_empty(), "{table:?}: empty table kept");
            check(table, index.any_writer.iter().copied().collect());
            let wildcard = check(table, index.wildcard.iter().copied().collect());
            union.entry(*table).or_default().extend(wildcard);
        }
        assert_eq!(union.len(), self.tables.len(), "a table with rows has no entry");
        for (table, seqs) in &union {
            let any_writer = &self.tables.get(table).expect("checked above").any_writer;
            assert!(
                any_writer.iter().eq(seqs),
                "{table:?}: any-writer {any_writer:?}, union {seqs:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::LinearCertifier;
    use crate::tuple::{TableId, TupleId};
    use crate::{IndexedCertifier, SiteId};

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn req(site: u16, txn: u64, start: u64, reads: &[TupleId], writes: &[TupleId]) -> CertRequest {
        CertRequest {
            site: SiteId(site),
            txn,
            start_seq: start,
            read_set: reads.iter().copied().collect(),
            write_set: writes.iter().copied().collect(),
            write_bytes: 0,
        }
    }

    /// `rows` agrees with `plain`, the writers of `row`, on every snapshot
    /// up to `to`.
    fn probes_match(rows: &RowIndex, row: TupleId, plain: &VecDeque<u64>, to: u64) {
        assert_eq!(rows.writers(row), Vec::from(plain.clone()));
        for start in 0..=to {
            assert_eq!(rows.first_above(row, start), first_above(plain, start), "above {start}");
        }
    }

    #[test]
    fn row_index_matches_a_plain_deque_across_seals() {
        // One row written in four periods, between other rows' writers;
        // each period is sealed into a run, and the last is trimmed. Every
        // snapshot is probed at every step against the list it replaces.
        let (row, other) = (id(1, 7), id(2, 7));
        let mut rows = RowIndex::default();
        let mut plain: VecDeque<u64> = VecDeque::new();
        assert!(rows.open.is_empty(), "an empty index allocates nothing");
        probes_match(&rows, row, &plain, 4);
        let mut seq = 0;
        for writers in [2, 1, 3, 2] {
            for _ in 0..writers {
                seq += 1;
                rows.push_back(other, seq);
                seq += 1;
                rows.push_back(row, seq);
                plain.push_back(seq);
                probes_match(&rows, row, &plain, seq + 1);
            }
            rows.seal();
            assert!(rows.open.is_empty() && rows.filed == 0, "the seal empties the open table");
            probes_match(&rows, row, &plain, seq + 1);
        }
        assert_eq!(rows.runs.len(), 4, "one run per sealed period");
        assert_eq!(rows.first_above(id(1, 8), 0), None, "an unwritten row has no writers");
        // Trims to every stable point between two of the row's writers.
        for stable in [3, 4, 9, 12] {
            rows.trim(stable);
            trim_front(&mut plain, stable);
            probes_match(&rows, row, &plain, seq + 1);
        }
        assert_eq!(rows.writers(other), [13, 15]);
        assert_eq!(rows.runs.len(), 1, "runs at or below the stable point go");
    }

    #[test]
    #[should_panic(expected = "has no row slot")]
    fn a_table_level_id_is_never_filed_as_a_row() {
        // Table 0's table-level id is raw 0, the empty slot: filed, it would
        // vanish from the open table.
        RowIndex::default().push_back(TupleId::table_level(TableId(0)), 1);
    }

    #[test]
    fn gc_drops_whole_runs_and_trims_the_straddling_one() {
        // Three periods of four commits: seqs 1..=4, 5..=8 and 9..=12,
        // each writing rows 1 and 2 of table 1, then one of three more.
        let mut c = IndexedCertifier::new();
        for i in 1..=12u64 {
            c.certify(&req(0, i, i - 1, &[], &[id(1, 1), id(1, 2), id(1, i % 3 + 3)]))
                .expect("fill");
            if i % 4 == 0 {
                c.gc(0);
            }
        }
        c.check_index();
        let runs = |c: &IndexedCertifier| -> Vec<(u64, usize)> {
            c.rows.runs.iter().map(|run| (run.last, run.pairs.len())).collect()
        };
        assert_eq!(runs(&c), [(4, 12), (8, 12), (12, 12)], "a gc seals when nothing retires");
        // Two commits into the next period, then a gc at a run's last
        // writer: that run goes whole, and the open table is sealed.
        c.certify(&req(0, 13, 12, &[], &[id(1, 1)])).expect("seq 13");
        c.certify(&req(0, 14, 13, &[], &[id(1, 9)])).expect("seq 14");
        assert_eq!(c.rows.filed, 2);
        c.gc(4);
        c.check_index();
        assert_eq!(runs(&c), [(8, 12), (12, 12), (14, 2)]);
        assert!(c.rows.open.is_empty() && c.rows.filed == 0, "the open table is sealed");
        // A gc inside a run keeps only its writers above the cut.
        c.gc(10);
        c.check_index();
        assert_eq!(runs(&c), [(12, 6), (14, 2)], "three writers each of seqs 11 and 12 stay");
        assert_eq!(c.rows.writers(id(1, 1)), [11, 12, 13]);
        assert_eq!(c.rows.first_above(id(1, 2), 10), Some(11));
        c.gc(14);
        c.check_index();
        assert!(c.rows.runs.is_empty() && c.rows.len() == 0);
    }

    #[test]
    fn an_open_table_probe_cluster_wraps_past_the_end() {
        // Rows whose home is the last of the first table's slots: their
        // writers fill it and wrap to slots 0 and 1, and a row homed at
        // slot 0 lands behind them.
        let mut rows = RowIndex::default();
        rows.push_back(id(9, 1), 1);
        let homed = |slot: usize| {
            (1..).map(|r| id(1, r)).find(|&t| rows.home(t.as_raw()) == slot).expect("a row")
        };
        let (last, first) = (homed(MIN_SLOTS - 1), homed(0));
        let mut rows = RowIndex::default();
        for seq in [2, 3, 4] {
            rows.push_back(last, seq);
        }
        rows.push_back(first, 5);
        assert_eq!(rows.open.len(), MIN_SLOTS, "no growth");
        let slot = |i: usize| rows.open[i];
        assert_eq!([slot(MIN_SLOTS - 1), slot(0), slot(1), slot(2)].map(|(_, s)| s), [2, 3, 4, 5]);
        let plain = VecDeque::from([2, 3, 4]);
        probes_match(&rows, last, &plain, 5);
        probes_match(&rows, first, &VecDeque::from([5]), 5);
        RowIndex::check(&rows);
    }

    #[test]
    fn one_row_with_many_writers_in_one_period() {
        // A hot row's 200 writers share one probe cluster through several
        // growths; the probe finds the least above every snapshot, before
        // and after the seal.
        let (hot, cold) = (id(1, 1), id(1, 2));
        let mut rows = RowIndex::default();
        let mut plain = VecDeque::new();
        for seq in 1..=200 {
            rows.push_back(hot, 2 * seq);
            plain.push_back(2 * seq);
        }
        rows.push_back(cold, 401);
        assert_eq!((rows.filed, rows.open.len()), (201, 512));
        RowIndex::check(&rows);
        probes_match(&rows, hot, &plain, 401);
        rows.seal();
        assert_eq!(rows.runs.len(), 1);
        probes_match(&rows, hot, &plain, 401);
        assert_eq!(rows.first_above(cold, 400), Some(401));
    }

    #[test]
    fn gc_evicts_every_row_of_a_table_its_entry_empties() {
        // Seq 1 is table 1's only writer: the sweep drops both its rows and
        // the emptied table, and a later writer of one row starts afresh.
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1), id(1, 2)])).expect("two rows"); // seq 1
        c.gc(1);
        c.check_index();
        assert!(c.tables.is_empty() && c.rows.len() == 0, "nothing of seq 1 is left");
        c.certify(&req(0, 2, 1, &[], &[id(1, 2)])).expect("rewrite"); // seq 2
        c.gc(2);
        assert_eq!(c.rows.len(), 0);
    }

    #[test]
    fn a_span_certifier_files_only_the_ids_it_owns() {
        fn span_of(t: TupleId) -> Option<u64> {
            (t.table().0 != 0).then_some(t.row() % 2)
        }
        let mut c = IndexedCertifier::with_span(span_of, [0]);
        // Seq 1 writes an owned row, a foreign row and a span-less row;
        // seq 2 writes only a foreign row.
        c.certify(&req(0, 1, 0, &[], &[id(1, 2), id(1, 3), id(0, 5)])).expect("mixed");
        c.certify(&req(0, 2, 1, &[], &[id(1, 5)])).expect("foreign");
        assert_eq!(c.history, [(1, 2)], "both commits count, the foreign one too");
        assert_eq!(c.history_len(), 2);
        assert_eq!(c.rows.writers(id(1, 2)), [1], "an owned row is indexed");
        assert_eq!(c.rows.writers(id(0, 5)), [1], "a span-less row is indexed");
        assert_eq!(c.rows.len(), 2, "foreign rows are not");
        assert_eq!(c.tables[&TableId(1)].any_writer, [1], "seq 2 wrote nothing here");
        c.check_index();
        c.gc(2);
        c.check_index();
        assert!(c.history.is_empty() && c.tables.is_empty() && c.rows.len() == 0);
    }

    #[test]
    fn gc_cuts_a_history_range_at_the_stable_point() {
        let mut c = IndexedCertifier::new();
        for i in 1..=6u64 {
            c.certify(&req(0, i, i - 1, &[], &[id(1, i % 2 + 1), id(2, i)])).expect("fill");
        }
        assert_eq!(c.history, [(1, 6)], "consecutive commits share one range");
        c.gc(4);
        c.check_index();
        assert_eq!(c.history, [(5, 6)], "the range keeps only what lies above the cut");
        assert_eq!(c.history_len(), 2);
        assert_eq!(c.rows.writers(id(1, 1)), [6]);
        assert_eq!(c.rows.writers(id(1, 2)), [5]);
        assert_eq!(c.rows.writers(id(2, 4)), [] as [u64; 0], "the writer at the cut goes");
        assert_eq!(c.tables[&TableId(2)].any_writer, [5, 6]);
        let (o, _) = c.certify(&req(1, 9, 4, &[id(1, 2)], &[])).expect("above the cut");
        assert_eq!(o, Outcome::Abort { conflict_seq: 5 });
    }

    #[test]
    fn an_empty_write_set_splits_a_history_range() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("seq 1");
        c.certify(&req(0, 2, 1, &[], &[id(1, 2)])).expect("seq 2");
        c.certify(&req(0, 3, 2, &[id(1, 9)], &[])).expect("seq 3, no writes");
        c.certify(&req(0, 4, 3, &[], &[id(1, 3)])).expect("seq 4");
        assert_eq!(c.history, [(1, 2), (4, 4)]);
        assert_eq!(c.history_len(), 3, "the empty write-set leaves no history");
        c.gc(3);
        c.check_index();
        assert_eq!(c.history, [(4, 4)], "a range wholly at or below the cut goes");
        assert_eq!(c.tables[&TableId(1)].any_writer, [4]);
        c.gc(4);
        c.check_index();
        assert!(c.history.is_empty() && c.tables.is_empty());
        assert_eq!(c.low_water(), 4);
    }

    #[test]
    fn restricted_to_after_a_mid_range_gc_matches_a_follower() {
        fn span_of(t: TupleId) -> Option<u64> {
            (t.table().0 != 0).then_some(t.row() % 2)
        }
        // Rows 1..=4 of table 1 (two spans), a span-less row and wildcard
        // writes to table 0, and a wildcard write to table 3, whose
        // table-level id falls in span 0.
        let writes = |i: u64| match i % 4 {
            0 => vec![id(1, i % 4 + 1), TupleId::table_level(TableId(0))],
            1 => vec![id(1, i % 4 + 1), id(0, 7)],
            2 => vec![id(1, i % 4 + 1), TupleId::table_level(TableId(3))],
            _ => vec![id(1, i % 4 + 1), id(1, (i + 1) % 4 + 1)],
        };
        // Both seal at seqs 5 and 10, on either side of the cut at 7, and
        // again at the cut; seqs 13 and 14 stay in the open tables.
        let mut full = IndexedCertifier::new();
        let mut follower = IndexedCertifier::with_span(span_of, [0]);
        for i in 1..=14u64 {
            let r = req(0, i, i - 1, &[], &writes(i));
            let (o, _) = full.certify(&r).expect("fill");
            follower.apply(&r, o);
            let stable = match i {
                5 | 10 => 0,
                12 => 7,
                _ => continue,
            };
            full.gc(stable);
            follower.gc(stable);
        }
        let rebuilt = full.restricted_to(span_of, [0]);
        rebuilt.check_index();
        assert_eq!(rebuilt.history, [(8, 14)], "ranges are copied as they are");
        assert_eq!(rebuilt.history, follower.history);
        assert_eq!(rebuilt.low_water(), 7);
        // The donor's runs are filtered one by one, and its open table
        // becomes the last run: the rebuilt index is all sealed.
        let runs: Vec<_> =
            rebuilt.rows.runs.iter().map(|run| (run.last, run.pairs.len())).collect();
        assert_eq!(runs, [(9, 2), (11, 1), (13, 2)]);
        assert!(rebuilt.rows.open.is_empty() && rebuilt.rows.filed == 0);
        for row in 1..=4 {
            assert_eq!(rebuilt.rows.writers(id(1, row)), follower.rows.writers(id(1, row)));
        }
        assert_eq!(rebuilt.rows.writers(id(0, 7)), [9, 13]);
        assert_eq!(rebuilt.rows.len(), follower.rows.len());
        for start in 7..=14 {
            let probe = req(1, 99, start, &[id(1, 2), id(1, 4), id(0, 7)], &[]);
            assert_eq!(rebuilt.vote(&probe), follower.vote(&probe), "snapshot {start}");
        }
        for t in [0, 1, 3] {
            let (a, b) = (&rebuilt.tables[&TableId(t)], &follower.tables[&TableId(t)]);
            assert_eq!((&a.wildcard, &a.any_writer), (&b.wildcard, &b.any_writer), "table {t}");
        }
        assert_eq!(rebuilt.tables.len(), follower.tables.len());
    }

    #[test]
    #[should_panic(expected = "only an unrestricted certifier")]
    fn a_span_certifier_cannot_be_reprojected() {
        fn span_of(t: TupleId) -> Option<u64> {
            Some(t.row() % 2)
        }
        let _ = IndexedCertifier::with_span(span_of, [0]).restricted_to(span_of, [1]);
    }

    #[test]
    fn reproject_rebuilds_history_on_a_new_placement() {
        fn span_of(t: TupleId) -> Option<u64> {
            Some(t.row() % 2)
        }
        let mut oracle = IndexedCertifier::new();
        oracle.certify(&req(0, 1, 0, &[], &[id(1, 2)])).expect("even row"); // seq 1, span 0
        oracle.certify(&req(0, 2, 1, &[], &[id(1, 3)])).expect("odd row"); // seq 2, span 1
        let mut local = oracle.restricted_to(span_of, [0]);
        assert_eq!(local.last_committed(), oracle.last_committed());
        assert_eq!(local.history_len(), oracle.history_len());
        assert_eq!(local.low_water(), oracle.low_water());
        assert_eq!(local.speculations(), 0, "donor speculations are not transferred");
        // The re-indexed placement sees the owned row's writer…
        let (v, _) = local.vote(&req(1, 3, 0, &[id(1, 2)], &[])).expect("vote");
        assert_eq!(v, Some(1), "owned span was re-indexed from the donor history");
        // …and sequencing resumes exactly where the donor left off.
        let (o, _) = local.certify(&req(1, 4, 2, &[], &[id(1, 4)])).expect("post-rejoin commit");
        assert_eq!(o, Outcome::Commit(3));
    }

    #[test]
    fn speculative_pass_with_quiet_basis_confirms_for_free() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("seed"); // seq 1
        let r = req(1, 2, 1, &[id(1, 2)], &[id(1, 2)]);
        assert!(c.speculate(&r).probes > 0, "speculation does the probe work");
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Commit(2));
        assert_eq!(res, SpecResolution::Hit);
        assert_eq!(w, CertWork::default(), "zero delta work on the critical path");
        assert_eq!(c.speculations(), 0, "speculation consumed");
    }

    #[test]
    fn speculative_conflict_is_final() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer"); // seq 1
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        c.speculate(&r);
        // A later commit (higher seq) cannot lower the first hit.
        c.certify(&req(0, 3, 1, &[], &[id(1, 5)])).expect("later writer"); // seq 2
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Hit);
        assert_eq!(w, CertWork::default());
    }

    #[test]
    fn overtaken_speculation_revalidates_through_the_delta_window() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("seed"); // seq 1
        let r = req(1, 2, 1, &[id(2, 7)], &[id(2, 7)]);
        c.speculate(&r);
        // A non-conflicting commit lands between speculation and confirm.
        c.certify(&req(0, 3, 1, &[], &[id(3, 9)])).expect("interloper"); // seq 2
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Commit(3));
        assert_eq!(res, SpecResolution::Revalidated);
        assert!(w.probes > 0, "the delta window is re-probed");
    }

    #[test]
    fn reordering_rolls_back_a_speculative_commit() {
        let mut c = IndexedCertifier::new();
        let r = req(1, 2, 0, &[id(1, 5)], &[id(1, 5)]);
        c.speculate(&r); // sees an empty history: speculative commit
                         // Total order places a conflicting writer first.
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("winner"); // seq 1
        let (o, _, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Rollback);
    }

    #[test]
    fn confirm_without_speculation_is_a_full_certify() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer");
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Miss);
        assert!(w.probes > 0);
    }

    #[test]
    fn pipelined_stream_matches_synchronous_certifier() {
        // Interleave speculate arbitrarily early, confirm in total order,
        // with gc mixed in: outcomes match the synchronous linear scan bit
        // for bit.
        let mut sync = LinearCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut x = 0xd1b5_4a32_d192_ed03u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pending: Vec<CertRequest> = Vec::new();
        for i in 0..400u64 {
            let reads: Vec<TupleId> =
                (0..rng() % 5).map(|_| id((rng() % 4) as u16, rng() % 37 + 1)).collect();
            let writes: Vec<TupleId> =
                (0..rng() % 3).map(|_| id((rng() % 4) as u16, rng() % 37 + 1)).collect();
            let r = req((i % 3) as u16, i, i.saturating_sub(rng() % 4), &reads, &writes);
            pipe.speculate(&r);
            pending.push(r);
            // Confirm a random prefix (total order = submission order here).
            while pending.len() > (rng() % 4) as usize {
                let r = pending.remove(0);
                let (a, _) = sync.certify(&r).expect("sync");
                let (b, _, _) = pipe.confirm(&r).expect("pipe");
                assert_eq!(a, b, "request {} diverged", r.txn);
            }
            if i % 83 == 0 {
                let stable = sync.last_committed().saturating_sub(8);
                sync.gc(stable);
                pipe.gc(stable);
            }
        }
        for r in pending {
            let (a, _) = sync.certify(&r).expect("sync");
            let (b, _, _) = pipe.confirm(&r).expect("pipe");
            assert_eq!(a, b);
        }
        assert_eq!(sync.last_committed(), pipe.last_committed());
        assert_eq!(sync.history_len(), pipe.history_len());
    }

    #[test]
    fn confirm_vote_matches_plain_vote_across_resolutions() {
        // Drive a (speculate → interleaved commits → confirm_vote) stream
        // next to an apply-only twin that votes synchronously: the conflict
        // answers must agree bit for bit, and the cheap resolutions must
        // show up with zero delta work.
        let mut sync = IndexedCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seen = [false; 4];
        let mut pending: Vec<CertRequest> = Vec::new();
        for i in 0..300u64 {
            let reads: Vec<TupleId> =
                (0..rng() % 5).map(|_| id((rng() % 3) as u16, rng() % 23 + 1)).collect();
            let writes: Vec<TupleId> =
                (0..rng() % 3).map(|_| id((rng() % 3) as u16, rng() % 23 + 1)).collect();
            let r = req((i % 3) as u16, i, i.saturating_sub(rng() % 4), &reads, &writes);
            pipe.speculate(&r);
            pending.push(r);
            while pending.len() > (rng() % 4) as usize {
                let r = pending.remove(0);
                let (a, _) = sync.vote(&r).expect("sync vote");
                let (b, w, res) = pipe.confirm_vote(&r).expect("pipelined vote");
                assert_eq!(a, b, "request {} diverged", r.txn);
                let outcome = match a {
                    Some(conflict_seq) => Outcome::Abort { conflict_seq },
                    None => Outcome::Commit(sync.last_committed() + 1),
                };
                sync.apply(&r, outcome);
                pipe.apply(&r, outcome);
                if res == SpecResolution::Hit {
                    assert_eq!(w, CertWork::default(), "hits are free on the critical path");
                }
                seen[res as usize] = true;
            }
        }
        assert_eq!(sync.last_committed(), pipe.last_committed());
        assert!(seen[SpecResolution::Hit as usize], "stream must exercise hits");
        assert!(seen[SpecResolution::Revalidated as usize], "stream must exercise delta probes");
        assert!(seen[SpecResolution::Rollback as usize], "stream must exercise overturns");
    }

    #[test]
    fn confirm_vote_without_speculation_is_a_full_vote() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer"); // seq 1
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        let (v, w, res) = c.confirm_vote(&r).expect("vote");
        assert_eq!(v, Some(1));
        assert_eq!(res, SpecResolution::Miss);
        assert!(w.probes > 0);
        assert_eq!(c.last_committed(), 1, "confirm_vote never commits");
    }

    #[test]
    fn confirm_vote_reports_truncation_like_confirm() {
        let mut c = IndexedCertifier::new();
        for i in 0..6u64 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        let stale = req(1, 100, 1, &[id(1, 1)], &[]);
        c.speculate(&stale);
        c.gc(4);
        let err = c.confirm_vote(&stale).expect_err("stale snapshot");
        assert_eq!(err, HistoryTruncated { start_seq: 1, low_water: 4 });
    }

    #[test]
    fn gc_prunes_speculations_below_the_low_water_mark() {
        let mut c = IndexedCertifier::new();
        for i in 0..8u64 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        let stale = req(1, 100, 2, &[id(1, 1)], &[]);
        let fresh = req(1, 101, 8, &[id(1, 1)], &[]);
        c.speculate(&stale);
        c.speculate(&fresh);
        assert_eq!(c.speculations(), 2);
        c.gc(6);
        assert_eq!(c.speculations(), 1, "stale speculation pruned");
        let err = c.confirm(&stale).expect_err("stale snapshot");
        assert_eq!(err, HistoryTruncated { start_seq: 2, low_water: 6 });
        let (o, _, res) = c.confirm(&fresh).expect("fresh");
        assert!(o.is_commit());
        assert_eq!(res, SpecResolution::Hit);
    }

    #[test]
    fn linear_twin_agrees_with_speculation_under_rollback_storm() {
        // Heavy same-row contention maximizes rollbacks; the linear
        // certifier is the ground truth.
        let mut lin = LinearCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut reqs = Vec::new();
        for i in 0..60u64 {
            reqs.push(req((i % 2) as u16, i, i / 4, &[id(1, i % 3 + 1)], &[id(1, i % 3 + 1)]));
        }
        // Speculate everything up front (worst-case reordering), confirm in
        // total order.
        for r in &reqs {
            pipe.speculate(r);
        }
        let mut rollbacks = 0;
        for r in &reqs {
            let (a, _) = lin.certify(r).expect("linear");
            let (b, _, res) = pipe.confirm(r).expect("pipe");
            assert_eq!(a, b, "txn {} diverged", r.txn);
            if res == SpecResolution::Rollback {
                rollbacks += 1;
            }
        }
        assert!(rollbacks > 0, "the storm must exercise the rollback path");
    }
}
