//! The certifier side of a site (§3, Fig. 2), and the replication mode
//! that decides what it holds.
//!
//! A site is a database engine plus a certifier plus a GCS stack. The
//! engine and the stack are wired together in [`crate::cluster`]; this
//! module holds the certifier state between deliveries and turns
//! deliveries into decisions. The mode is encoded once, as
//! [`Replication`]:
//!
//! - **Full**: every site runs a complete [`CertBackend`], and total-order
//!   delivery decides.
//! - **Partial**: genuine partial replication (Sutra & Shapiro). Each
//!   site's [`SpanReplica`] certifies only the warehouses it owns and
//!   casts wire votes ([`dbsm_gcs::Gcs::cast_vote`]); its delivery FIFO
//!   decides an entry once the collected votes cover the read-set.
//!   [`Partial`] also holds what the vote rounds share: the
//!   cross-checking oracle, the published verdicts and the re-homing
//!   overlay.
//!
//! Ownership is one rule, [`Ownership::owns`]: a site owns a span when the
//! static [`PlacementMap`] places it there or when it is the span's
//! current adopter after a re-homing. Voting, deciding, vote-round
//! accounting, client routing and the stranded-span sweep all ask it.

use crate::experiment::{CertCostModel, CommitPath, ExperimentConfig};
use crate::metrics::{CertWorkTotals, RunMetrics};
use crate::placement::PlacementMap;
use dbsm_cert::{
    merge_votes, CertBackend, CertRequest, CertWork, IndexedCertifier, Outcome as CertOutcome,
    RwSet, SpanCertifier, SpanPlacement,
};
use dbsm_db::TxnId;
use dbsm_gcs::{NodeId, View, WireVote};
use dbsm_sim::SimTime;
use dbsm_tpcc::schema::home_warehouse_shard_key as span_of;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// A transaction's cluster-wide key: `(origin site, txn)`.
pub(crate) type Key = (u16, u64);

/// One collected wire verdict: `(voter site, conflicting sequence number
/// if that voter's span saw a conflict)`.
pub(crate) type SiteVote = (u16, Option<u64>);

/// A multicast request awaiting its decision at its origin site.
pub(crate) struct PendingCert {
    pub(crate) db_txn: TxnId,
    pub(crate) sent_at: SimTime,
}

/// What every site holds next to its certifier, in either mode.
#[derive(Default)]
pub(crate) struct SiteState {
    /// When this site's speculative-certification FIFO drains (pipelined
    /// commit path): see [`queue_speculation`].
    pub(crate) spec_free_at: SimTime,
    /// When each speculation's verdict is ready, keyed by
    /// `(origin site, txn)` — consulted at total-order confirmation.
    pub(crate) spec_ready: BTreeMap<Key, SimTime>,
    pub(crate) txn_seq: u64,
    /// This site's multicast requests awaiting their decision, by txn. A
    /// rejoin aborts the first incarnation's leftovers in key order — each
    /// abort re-arms a client through the shared workload RNG, so the order
    /// must come from the seed.
    pub(crate) pending: BTreeMap<u64, PendingCert>,
    pub(crate) crashed: bool,
    pub(crate) commits_since_gc: u64,
    /// Reference-chain entries this site's own rejoins skipped over: its
    /// commit log's position on the group's reference chain is
    /// `commit_logs.len() + ref_gap`. Zero until the site rejoins.
    pub(crate) ref_gap: usize,
    /// When this site last came back up (for time-to-useful).
    pub(crate) restarted_at: Option<SimTime>,
    /// The state transfer staged for this site's rejoin, until it adopts it.
    pub(crate) incoming: Option<TransferPacket>,
    /// Clients that tried to fire here while the site was down, with their
    /// parking instant — released when the site finishes rejoining or when
    /// a re-placement completes (the overlay may now route them elsewhere).
    pub(crate) parked: Vec<(usize, SimTime)>,
}

/// A staged rejoin state transfer: the donor's committed state cloned at
/// the grant's order-clean point, held until the joiner's stack reports it
/// rejoined and adopts it. `cut` is the reference-log position the
/// snapshot + delta log catches the joiner up to.
pub(crate) struct TransferPacket {
    pub(crate) state: Staged,
    pub(crate) cut: usize,
    pub(crate) snapshot_bytes: u64,
}

impl SiteState {
    /// The order-sensitive half of a delivery at `site`: gc cadence of its
    /// certifier `cert`, pending lookup and its commit log `log`. Must run
    /// in the global sequence — the pipelined path calls it at total-order
    /// confirmation even though the engine-side decision may still be
    /// waiting on the speculative FIFO.
    pub(crate) fn record_decision(
        &mut self,
        site: usize,
        cert: &mut dyn CertBackend,
        log: &mut Vec<Key>,
        window: u64,
        req: &CertRequest,
        outcome: CertOutcome,
    ) -> Option<PendingCert> {
        if outcome.is_commit() {
            gc_tick(&mut self.commits_since_gc, cert, window);
            log.push((req.site.0, req.txn));
        }
        if req.site.0 as usize == site {
            self.pending.remove(&req.txn)
        } else {
            None
        }
    }
}

/// Counts one commit against `cert`'s gc cadence, trimming its history
/// down to `window` entries every 512 commits.
fn gc_tick(since_gc: &mut u64, cert: &mut dyn CertBackend, window: u64) {
    *since_gc += 1;
    if *since_gc >= 512 {
        *since_gc = 0;
        cert.gc(cert.last_committed().saturating_sub(window));
    }
}

/// The run's replication mode, with every site's certifier.
pub(crate) enum Replication {
    /// Every site certifies everything with its own backend.
    Full(Vec<Box<dyn CertBackend>>),
    /// Each site certifies its own spans and votes; see [`Partial`].
    Partial(Box<Partial>),
}

/// A rejoin snapshot, in the run's replication mode: see
/// [`Replication::install`].
pub(crate) enum Staged {
    /// The donor's certifier, cloned at the transfer cut.
    Full(Box<dyn CertBackend>),
    /// The joiner's span replica, staged by [`Partial::stage`].
    Partial(Box<SpanReplica>),
}

impl Replication {
    /// The mode `cfg` runs: partial when a non-degenerate placement map is
    /// configured on a multi-site run, full otherwise.
    pub(crate) fn new(cfg: &ExperimentConfig) -> Self {
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(cfg.clients);
        match cfg.placement.filter(|p| !p.is_full() && cfg.sites > 1) {
            Some(map) => Replication::Partial(Box::new(Partial::new(map, warehouses))),
            None => {
                Replication::Full((0..cfg.sites).map(|_| cfg.cert_backend.new_backend()).collect())
            }
        }
    }

    /// `site`'s certifier: its full backend, or its span certifier.
    pub(crate) fn certifier(&mut self, site: usize) -> &mut dyn CertBackend {
        match self {
            Replication::Full(certs) => certs[site].as_mut(),
            Replication::Partial(p) => &mut p.replicas[site].cert,
        }
    }

    /// Installs a rejoin snapshot at `site`.
    pub(crate) fn install(&mut self, site: usize, staged: Staged) {
        match (self, staged) {
            (Replication::Full(certs), Staged::Full(cert)) => certs[site] = cert,
            (Replication::Partial(p), Staged::Partial(replica)) => p.install(site, *replica),
            _ => unreachable!("a snapshot is staged in the run's own replication mode"),
        }
    }
}

/// Timing of one speculation accepted by [`queue_speculation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpecTiming {
    /// When the verdict is ready for total-order confirmation.
    pub(crate) ready_at: SimTime,
    /// Time spent waiting behind earlier speculations.
    pub(crate) queued: Duration,
    /// Probe service time.
    pub(crate) service: Duration,
    /// Verdict folding time, after service.
    pub(crate) merge: Duration,
}

/// Queues a speculative probe of `probes` index probes on a site's
/// speculative-certification FIFO, which drains at `*free_at`. Speculations
/// are served one at a time in arrival order with known service times, so
/// the whole queue collapses into that one clock: the probe starts at
/// `max(now, free_at)`, occupies the FIFO for its service time, and its
/// verdict is ready one merge later. A speculation that probed nothing
/// never enters the FIFO and is ready at once.
pub(crate) fn queue_speculation(
    free_at: &mut SimTime,
    now: SimTime,
    probes: usize,
    costs: &CertCostModel,
) -> SpecTiming {
    if probes == 0 {
        return SpecTiming { ready_at: now, ..SpecTiming::default() };
    }
    let start = (*free_at).max(now);
    let service = costs.probe_service(probes);
    *free_at = start + service;
    let merge = costs.merge();
    SpecTiming {
        ready_at: *free_at + merge,
        queued: start.saturating_duration_since(now),
        service,
        merge,
    }
}

// ----- partial replication ----------------------------------------------

/// Who owns which warehouse span right now: the static [`PlacementMap`]
/// plus the re-homing overlay.
pub(crate) struct Ownership {
    map: PlacementMap,
    warehouses: u64,
    /// Spans re-homed onto an elected survivor after their whole replica
    /// set died. Adoption is permanent for the run (a restarted original
    /// replica simply re-adds an owner — [`merge_votes`] over extra
    /// covering votes stays exact).
    rehomed: BTreeMap<u64, u16>,
}

impl Ownership {
    /// The ownership rule: `site` owns `span` when the static map places
    /// it there or when it is the span's current adopter.
    pub(crate) fn owns(&self, site: usize, span: u64) -> bool {
        self.map.owns(site, span) || self.rehomed.get(&span) == Some(&(site as u16))
    }

    /// The span's primary: its current adopter if it re-homed, else its
    /// first static replica.
    pub(crate) fn primary(&self, span: u64) -> usize {
        self.rehomed.get(&span).map_or_else(|| self.map.replicas(span)[0], |&a| a as usize)
    }

    /// Every site that owns `span` — the static replicas in ring order,
    /// then the adopter — for client routing.
    pub(crate) fn owners(&self, span: u64) -> Vec<usize> {
        let mut owners = self.map.replicas(span);
        if let Some(&a) = self.rehomed.get(&span) {
            if !owners.contains(&(a as usize)) {
                owners.push(a as usize);
            }
        }
        owners
    }

    /// True when `site` casts a wire vote on `req`: it owns at least one
    /// read- or write-set span. Table-level (wildcard) reads probe every
    /// span, so every site's slice of the table contributes to the verdict
    /// and everyone votes; a transaction touching no span at all (global
    /// tuples only) is also voted by everyone — any single vote covers it,
    /// and the origin may be down.
    pub(crate) fn casts_vote(&self, site: usize, req: &CertRequest) -> bool {
        if req.read_set.ids().iter().any(|id| id.is_table_level()) {
            return true;
        }
        let mut any_span = false;
        for &id in req.read_set.ids().iter().chain(req.write_set.ids()) {
            if let Some(span) = span_of(id) {
                any_span = true;
                if self.owns(site, span) {
                    return true;
                }
            }
        }
        !any_span
    }

    /// True when `votes` decide a transaction reading `reads`: every
    /// read-set tuple is covered by a voter that owns it. A row with a home
    /// warehouse needs a vote from one of that span's owners; a span-less
    /// row is indexed by every replica, so any vote covers it; a
    /// table-level (wildcard) read probes every span and needs the voters
    /// to jointly own all of them. Write-set tuples need no witness —
    /// conflicts are detected by the *reading* side against committed
    /// writes.
    ///
    /// A re-homed span is covered by its *static* owners' votes (cast
    /// before they died, with state valid at cast time) or its current
    /// adopter's — a superseded adopter's votes stop counting the moment a
    /// successor takes over, and the successor's re-cast covers instead.
    pub(crate) fn votes_cover(&self, reads: &RwSet, votes: &[SiteVote]) -> bool {
        let reads = reads.ids();
        if reads.is_empty() {
            return true;
        }
        if votes.is_empty() {
            return false;
        }
        let owned = |span: u64| votes.iter().any(|&(v, _)| self.owns(v as usize, span));
        reads.iter().all(|&id| {
            if id.is_table_level() {
                (0..self.warehouses).all(owned)
            } else {
                span_of(id).is_none_or(owned)
            }
        })
    }

    /// How many remote span owners must vote on `req`: the distinct
    /// primaries of read/write-set warehouses the origin site does not own.
    /// Zero means the transaction is local to the origin's span and commits
    /// without a vote round.
    pub(crate) fn voters_for(&self, req: &CertRequest) -> u64 {
        let origin = req.site.0 as usize;
        let mut voters: Vec<usize> = Vec::new();
        for &id in req.read_set.ids().iter().chain(req.write_set.ids()) {
            let Some(span) = span_of(id) else { continue };
            if self.owns(origin, span) {
                continue;
            }
            let primary = self.primary(span);
            if !voters.contains(&primary) {
                voters.push(primary);
            }
        }
        voters.len() as u64
    }
}

/// One delivered-but-undecided update transaction in a site's
/// partial-replication FIFO. Deliveries follow the total order, so the
/// FIFO *is* this site's copy of the global sequence: entries are decided
/// and popped strictly in order, each once its wire votes cover every
/// read-set span (or once another site's first decision is published).
#[derive(Clone)]
pub(crate) struct FifoEntry {
    req: CertRequest,
    delivered_at: SimTime,
    /// Collected verdicts, first vote per voter ([`add_vote`]).
    votes: Vec<SiteVote>,
    /// Whether this site has already cast (or decided it never will cast)
    /// its own vote for the entry.
    cast: bool,
    /// The entry's write-set restricted to this site's span, precomputed at
    /// delivery: a *later* entry may not vote while an earlier undecided
    /// entry's local writes intersect its read-set — the earlier outcome
    /// could change the probe.
    local_writes: RwSet,
    /// Serial (see [`SpanReplica::fifo_popped`]) of the earlier entry last
    /// found to block this one's vote. While that entry is still queued the
    /// pairwise rescan is skipped: neither its `local_writes` nor this
    /// entry's read-set changed. Cleared wherever `local_writes` is
    /// recomputed or the entry is copied into another site's FIFO.
    blocked_by: Option<u64>,
    /// How many times this entry's vote round was re-collected because a
    /// span it touches re-homed mid-round. Capped at [`RECOLLECT_CAP`].
    recollects: u8,
}

impl FifoEntry {
    fn key(&self) -> Key {
        (self.req.site.0, self.req.txn)
    }
}

/// First vote per voter wins: wire retransmissions, stashed copies and
/// transferred rounds re-deliver identical votes.
fn add_vote(votes: &mut Vec<SiteVote>, (voter, conflict): SiteVote) {
    if !votes.iter().any(|&(v, _)| v == voter) {
        votes.push((voter, conflict));
    }
}

/// The per-entry retry cap on vote re-collection: an entry whose round is
/// re-collected more than this many times (one per adoption of a span it
/// touches, while undecided) indicates churn faster than transfers can
/// complete — the run is considered stalled and the simulation asserts.
const RECOLLECT_CAP: u8 = 8;

/// One site's span replica under partial replication.
pub(crate) struct SpanReplica {
    /// The span-restricted certifier that does this site's real
    /// conflict-check work — it indexes only the warehouses the site owns.
    cert: SpanCertifier,
    /// Delivered updates awaiting a decision, in total order.
    fifo: VecDeque<FifoEntry>,
    /// Entries popped off `fifo` so far: the entry at index `i` has serial
    /// `fifo_popped + i`, and a serial below `fifo_popped` has left the queue.
    fifo_popped: u64,
    /// Wire votes that arrived before their transaction's delivery — votes
    /// travel on their own (piggybacked) channel and may beat the data
    /// frame's total-order slot.
    vote_stash: BTreeMap<Key, Vec<SiteVote>>,
    /// Rejoin bookkeeping: keys decided *before* this site's adopted
    /// snapshot was cut. Their deliveries are skipped outright — the
    /// snapshot already contains them — while later deliveries run the
    /// normal FIFO. Empty unless the site rejoined.
    skip_keys: BTreeSet<Key>,
}

impl SpanReplica {
    fn new(cert: SpanCertifier, fifo: VecDeque<FifoEntry>, skip_keys: BTreeSet<Key>) -> Self {
        SpanReplica { cert, fifo, fifo_popped: 0, vote_stash: BTreeMap::new(), skip_keys }
    }

    fn entry_mut(&mut self, key: Key) -> Option<&mut FifoEntry> {
        self.fifo.iter_mut().find(|e| e.key() == key)
    }
}

/// A decision popped off a span replica's FIFO: the request, its outcome,
/// the origin's pending entry and the speculation's ready time, if any.
pub(crate) type Popped = (CertRequest, CertOutcome, Option<PendingCert>, Option<SimTime>);

/// The partial-replication state of a run. Decisions are made by the sites
/// themselves: each covering span owner certifies its slice and multicasts
/// a wire-level vote; whichever site first collects a covering vote set
/// decides by [`merge_votes`] and publishes the verdict here. The `oracle`
/// is a full-replication certifier driven once per message at that first
/// decision (first decisions follow the total order, so the oracle
/// certifies in sequence): it cross-checks — `assert` — that the merged
/// wire verdict equals the global one, and provides the full history
/// rejoining sites and adopters rebuild their span certifiers from. The
/// `decided` map stands in for the origin's decision dissemination: later
/// sites popping the same entry read the published verdict instead of
/// waiting out a redundant vote collection.
pub(crate) struct Partial {
    pub(crate) ownership: Ownership,
    replicas: Vec<SpanReplica>,
    oracle: IndexedCertifier,
    oracle_since_gc: u64,
    /// Verdicts keyed by `(origin site, txn)` — bounded by the run's
    /// transaction count, never pruned within a run.
    decided: BTreeMap<Key, CertOutcome>,
    /// Spans mid-transfer: elected at the view change, serving resumes at
    /// [`Partial::adopt`]. A later view change that kills the elected
    /// adopter re-elects (the entry is overwritten), and the stale
    /// completion skips the span.
    replacing: BTreeMap<u64, u16>,
    /// Wire votes superseded by a re-collection: votes from `(voter)` for
    /// `(origin, txn)` with a sequence number below the stored threshold
    /// were cast before the voter adopted a span the entry touches, and are
    /// dropped on (late) arrival — the post-adoption re-cast replaces them.
    stale_votes: BTreeMap<(u16, u16, u64), u64>,
    /// The highest view id already swept for stranded spans — the view
    /// change reaches every surviving site, and the first to handle it
    /// performs the (deterministic) election for everyone.
    last_reconfig_view: u64,
}

impl Partial {
    /// Each site's span certifier indexes only the warehouses `map` assigns
    /// it — the span key is the TPC-C home warehouse, with warehouse-less
    /// tuples (the shared item catalogue, history) global to every site.
    pub(crate) fn new(map: PlacementMap, warehouses: u64) -> Self {
        let replicas = (0..map.sites)
            .map(|i| {
                let cert = SpanCertifier::with_span(span_of, map.spans_of(i, warehouses));
                SpanReplica::new(cert, VecDeque::new(), BTreeSet::new())
            })
            .collect();
        Partial {
            ownership: Ownership { map, warehouses, rehomed: BTreeMap::new() },
            replicas,
            oracle: IndexedCertifier::new(),
            oracle_since_gc: 0,
            decided: BTreeMap::new(),
            replacing: BTreeMap::new(),
            stale_votes: BTreeMap::new(),
            last_reconfig_view: 0,
        }
    }

    /// Enqueues a delivered update transaction on `site`'s FIFO (both
    /// commit paths), folding in any wire votes that arrived ahead of the
    /// delivery. Skips transactions the site's adopted rejoin snapshot
    /// already covers.
    pub(crate) fn enqueue(
        &mut self,
        site: usize,
        req: CertRequest,
        now: SimTime,
        work: &mut CertWorkTotals,
    ) {
        let r = &mut self.replicas[site];
        let key = (req.site.0, req.txn);
        if r.skip_keys.contains(&key) {
            return;
        }
        let (rc, rt) = r.cert.coverage(&req.read_set);
        let (wc, wt) = r.cert.coverage(&req.write_set);
        work.record_span((rc + wc) as u64, (rt + wt) as u64);
        let local_writes = r.cert.local_subset(&req.write_set);
        let votes = r.vote_stash.remove(&key).unwrap_or_default();
        r.fifo.push_back(FifoEntry {
            req,
            delivered_at: now,
            votes,
            cast: false,
            local_writes,
            blocked_by: None,
            recollects: 0,
        });
    }

    /// Routes `voter`'s wire vote (possibly `site`'s own, looped back) to
    /// the FIFO entry it belongs to, stashes it if it beat the delivery, and
    /// drops it if the transaction is already decided. Returns false when
    /// the vote is stale: cast before its voter adopted a span the entry
    /// touches, so it never probed that span — the post-adoption re-cast (a
    /// higher sequence number on the voter's stream) replaces it.
    pub(crate) fn receive_vote(&mut self, site: usize, voter: u16, vote: &WireVote) -> bool {
        if self.stale_votes.get(&(voter, vote.origin, vote.txn)).is_some_and(|&min| vote.seq < min)
        {
            return false;
        }
        let key = (vote.origin, vote.txn);
        let decided = self.decided.contains_key(&key);
        let r = &mut self.replicas[site];
        if let Some(entry) = r.entry_mut(key) {
            add_vote(&mut entry.votes, (voter, vote.conflict));
        } else if !r.skip_keys.contains(&key) && !decided {
            add_vote(r.vote_stash.entry(key).or_default(), (voter, vote.conflict));
        }
        true
    }

    /// Decides and pops `site`'s FIFO head for as long as it decides: a
    /// head decides when its votes cover the read-set, or when another
    /// site's published verdict is available. `st` and `metrics` take the
    /// order-sensitive bookkeeping ([`SiteState::record_decision`]).
    pub(crate) fn pop_decided(
        &mut self,
        site: usize,
        st: &mut SiteState,
        metrics: &mut RunMetrics,
        window: u64,
        now: SimTime,
    ) -> Vec<Popped> {
        let mut popped = Vec::new();
        while let Some(head) = self.replicas[site].fifo.front() {
            let key = head.key();
            let published = self.decided.get(&key).copied();
            let outcome = match published {
                Some(outcome) => outcome,
                None if self.ownership.votes_cover(&head.req.read_set, &head.votes) => {
                    match merge_votes(head.votes.iter().map(|&(_, c)| c)) {
                        Some(conflict_seq) => CertOutcome::Abort { conflict_seq },
                        None => CertOutcome::Commit(self.replicas[site].cert.last_committed() + 1),
                    }
                }
                None => break,
            };
            let r = &mut self.replicas[site];
            let Some(entry) = r.fifo.pop_front() else { break };
            r.fifo_popped += 1;
            if published.is_none() {
                // First decision cluster-wide: cross-check the merged wire
                // verdict against the full-replication oracle and publish
                // it for the other sites' pops.
                let (oracle_outcome, _) =
                    self.oracle.certify(&entry.req).expect("history window exceeded");
                assert_eq!(
                    oracle_outcome, outcome,
                    "merged wire votes diverged from the certification oracle"
                );
                if outcome.is_commit() {
                    gc_tick(&mut self.oracle_since_gc, &mut self.oracle, window);
                }
                let voters = self.ownership.voters_for(&entry.req);
                metrics.cert_work.vote_rounds += voters;
                metrics.cert_work.cross_span_txns += u64::from(voters > 0);
                self.decided.insert(key, outcome);
            }
            let cert = &mut self.replicas[site].cert;
            let log = &mut metrics.commit_logs[site];
            let pending = st.record_decision(site, cert, log, window, &entry.req, outcome);
            cert.apply(&entry.req, outcome);
            if entry.req.site.0 as usize == site {
                metrics.vote_wire.decided += 1;
                metrics.vote_wire.wait_ns +=
                    now.saturating_duration_since(entry.delivered_at).as_nanos() as u64;
            }
            popped.push((entry.req, outcome, pending, st.spec_ready.remove(&key)));
        }
        popped
    }

    /// Runs `site`'s span probe for every FIFO entry whose turn to vote has
    /// come: an entry votes once no earlier undecided entry's local writes
    /// can still change its probe; a blocked entry does not block later
    /// ones. Returns the `(origin, txn, conflict)` votes to multicast and
    /// the CPU time their probes cost.
    pub(crate) fn cast_votes(
        &mut self,
        site: usize,
        path: CommitPath,
        costs: &CertCostModel,
        work: &mut CertWorkTotals,
    ) -> (Vec<(u16, u64, Option<u64>)>, Duration) {
        let Partial { ownership, replicas, .. } = self;
        let SpanReplica { cert, fifo, fifo_popped, .. } = &mut replicas[site];
        let mut casts = Vec::new();
        let mut charge = Duration::ZERO;
        for k in 0..fifo.len() {
            if fifo[k].cast {
                continue;
            }
            if !ownership.casts_vote(site, &fifo[k].req) {
                fifo[k].cast = true;
                continue;
            }
            if fifo[k].blocked_by.is_some_and(|b| b >= *fifo_popped) {
                continue;
            }
            let blocker = (0..k).find(|&j| fifo[j].local_writes.intersects(&fifo[k].req.read_set));
            fifo[k].blocked_by = blocker.map(|j| *fifo_popped + j as u64);
            if blocker.is_some() {
                continue;
            }
            // Real code: the span-restricted conflict probe over only the
            // locally indexed warehouses — this is where partial
            // replication shrinks per-site certification work to ~k/N.
            let req = &fifo[k].req;
            let (conflict, w) = match path {
                CommitPath::Pipelined => {
                    let (conflict, w, res) =
                        cert.confirm_vote(req).expect("history window exceeded");
                    work.record_spec(res);
                    charge += costs.confirm(w);
                    (conflict, w)
                }
                CommitPath::Synchronous => {
                    let (conflict, w) = cert.vote(req).expect("history window exceeded");
                    charge += costs.certify(w);
                    (conflict, w)
                }
            };
            work.record(w);
            work.stall_ns += costs.certify_data(w).as_nanos() as u64;
            casts.push((req.site.0, req.txn, conflict));
            fifo[k].cast = true;
        }
        (casts, charge)
    }

    /// Validates a local read-only transaction at `site`: a fully
    /// span-local read-set resolves from the site's own span certifier; a
    /// cross-span read also merges the remote owners' verdicts (the oracle
    /// answers for them) and pays one vote round. Returns `(ok, work,
    /// crossed spans)`.
    pub(crate) fn certify_read_only(
        &self,
        site: usize,
        reads: &RwSet,
        start_seq: u64,
        work: &mut CertWorkTotals,
    ) -> (bool, CertWork, bool) {
        let cert = &self.replicas[site].cert;
        let (local_ok, w) = cert.certify_read_only(reads, start_seq);
        let (covered, total) = cert.coverage(reads);
        work.record(w);
        work.record_span(covered as u64, total as u64);
        if covered == total {
            return (local_ok, w, false);
        }
        let (remote_ok, _) = self.oracle.certify_read_only(reads, start_seq);
        work.vote_rounds += 1;
        work.cross_span_txns += 1;
        (local_ok && remote_ok, w, true)
    }

    /// The rows of committed remote `req` that `site` stores, with their
    /// pro-rated byte size; `None` when it stores none of them — a site
    /// stores (and pays for) only the write-set rows in its own span.
    pub(crate) fn stored_writes(&self, site: usize, req: &CertRequest) -> Option<(RwSet, u32)> {
        let ws = self.replicas[site].cert.local_subset(&req.write_set);
        if ws.is_empty() {
            return None;
        }
        let bytes =
            u64::from(req.write_bytes) * ws.len() as u64 / req.write_set.len().max(1) as u64;
        Some((ws, (bytes as u32).max(1)))
    }

    /// Stages `joiner`'s rejoin snapshot from `donor`: the joiner's span
    /// certifier rebuilt from the oracle's full history restricted to its
    /// spans (it re-requests only its spans' rows), and the donor's
    /// delivered-but-undecided entries with the votes collected so far —
    /// re-indexed by the joiner's span, `cast` reset so it votes for
    /// itself. Returns the replica, the spans it owns, and the cut: the
    /// oracle's commit count, i.e. the decided prefix of the total order,
    /// which may run ahead of the donor's own popped prefix.
    pub(crate) fn stage(&self, donor: usize, joiner: usize) -> (SpanReplica, u64, usize) {
        let spans = self.ownership.map.spans_of(joiner, self.ownership.warehouses);
        let owned = spans.len() as u64;
        let cert = self.oracle.reproject(SpanPlacement::new(span_of, spans));
        let fifo = self.replicas[donor]
            .fifo
            .iter()
            .filter(|e| !self.decided.contains_key(&e.key()))
            .map(|e| FifoEntry {
                cast: false,
                local_writes: cert.local_subset(&e.req.write_set),
                blocked_by: None,
                ..e.clone()
            })
            .collect();
        // Keys decided before the cut: the joiner skips their deliveries
        // outright, the snapshot already reflects them.
        let skip_keys = self.decided.keys().copied().collect();
        let cut = self.oracle.last_committed() as usize;
        (SpanReplica::new(cert, fifo, skip_keys), owned, cut)
    }

    /// Installs `staged` at `site`, replacing the first incarnation's
    /// replica: the donor's open vote rounds continue from the snapshot.
    /// Wire votes that raced ahead of the adoption survive in the old
    /// stash — merged into the seeded entries, dropped if the snapshot
    /// already decided them, kept for future deliveries otherwise.
    fn install(&mut self, site: usize, staged: SpanReplica) {
        let old = std::mem::replace(&mut self.replicas[site], staged);
        let r = &mut self.replicas[site];
        for (key, votes) in old.vote_stash {
            if r.skip_keys.contains(&key) {
                continue;
            }
            match r.entry_mut(key) {
                Some(entry) => votes.into_iter().for_each(|v| add_vote(&mut entry.votes, v)),
                None => {
                    r.vote_stash.insert(key, votes);
                }
            }
        }
    }

    /// Sweeps the installed `view` for stranded spans — warehouses whose
    /// every owner and in-flight adopter fell out of the view — and elects
    /// a surviving adopter per span by rendezvous hash
    /// ([`PlacementMap::rendezvous_owner`]). The election is a pure
    /// function of `(span, view)`, so every survivor computes the same
    /// assignment with no coordination round; the first site to handle the
    /// view change performs it for all (deduped by view id). Returns the
    /// elected spans grouped by adopter.
    pub(crate) fn elect_adopters(&mut self, view: &View) -> Vec<(usize, Vec<u64>)> {
        if self.last_reconfig_view >= view.id {
            return Vec::new();
        }
        self.last_reconfig_view = view.id;
        let live: Vec<usize> = view.members.iter().map(|n| n.0 as usize).collect();
        if live.is_empty() {
            return Vec::new();
        }
        let is_live = |s: usize| view.members.contains(NodeId(s as u16));
        let mut by_adopter: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for span in 0..self.ownership.warehouses {
            if self.ownership.owners(span).into_iter().any(is_live)
                || self.replacing.get(&span).is_some_and(|&s| is_live(s as usize))
            {
                continue;
            }
            let Some(owner) = PlacementMap::rendezvous_owner(span, &live) else { continue };
            self.replacing.insert(span, owner as u16);
            by_adopter.entry(owner).or_default().push(span);
        }
        by_adopter.into_iter().collect()
    }

    /// True while any of `spans` is still elected to `adopter`: the adopter
    /// may have died mid-transfer (its exclusion re-elected), or a later
    /// view change moved every span elsewhere.
    pub(crate) fn adopting(&self, adopter: usize, spans: &[u64]) -> bool {
        spans.iter().any(|s| self.replacing.get(s) == Some(&(adopter as u16)))
    }

    /// Completes a re-placement at `adopter` for those of `spans` still
    /// elected to it. Its span certifier is rebuilt over its old spans plus
    /// the adopted ones from the oracle's full history (donor-less — the
    /// shared oracle stands in for decision dissemination). Vote
    /// re-collection: its pre-adoption votes never probed the adopted
    /// spans, so for every undecided entry touching one they are stripped,
    /// here and at every other site, and the cast flag is reset — the next
    /// advance re-votes with the rebuilt certifier, and late pre-adoption
    /// votes below `vote_seq` (the adopter's next stream sequence) are
    /// dropped as stale. The caller must first pop every globally decided
    /// entry off the adopter's FIFO: the rebuilt certifier reflects the
    /// oracle's decided frontier, and re-applying a decided entry would
    /// corrupt it. Returns `(spans adopted, vote rounds re-collected)`.
    pub(crate) fn adopt(&mut self, adopter: usize, spans: &[u64], vote_seq: u64) -> (u64, u64) {
        let a = adopter as u16;
        let spans: BTreeSet<u64> =
            spans.iter().copied().filter(|s| self.replacing.get(s) == Some(&a)).collect();
        for &s in &spans {
            self.replacing.remove(&s);
            self.ownership.rehomed.insert(s, a);
        }
        let r = &mut self.replicas[adopter];
        let place = SpanPlacement::new(span_of, r.cert.owned_spans().iter().chain(&spans).copied());
        r.cert = self.oracle.reproject(place);
        let hit = |id| span_of(id).is_some_and(|s| spans.contains(&s));
        let touches = |req: &CertRequest| {
            req.read_set.ids().iter().any(|&id| id.is_table_level() || hit(id))
                || req.write_set.ids().iter().any(|&id| hit(id))
        };
        let mut rekey: Vec<Key> = Vec::new();
        for e in r.fifo.iter_mut() {
            e.local_writes = r.cert.local_subset(&e.req.write_set);
            e.blocked_by = None;
            if touches(&e.req) {
                e.cast = false;
                e.votes.retain(|&(v, _)| v != a);
                e.recollects += 1;
                assert!(
                    e.recollects <= RECOLLECT_CAP,
                    "vote round re-collected past its retry cap"
                );
                rekey.push(e.key());
            }
        }
        for &(origin, txn) in &rekey {
            self.stale_votes.insert((a, origin, txn), vote_seq);
        }
        // The adopter's own rounds were stripped above; it stashes no vote
        // for a key its FIFO holds.
        for r in self.replicas.iter_mut() {
            for e in r.fifo.iter_mut().filter(|e| rekey.contains(&e.key())) {
                e.votes.retain(|&(v, _)| v != a);
            }
            for (_, votes) in r.vote_stash.iter_mut().filter(|(k, _)| rekey.contains(k)) {
                votes.retain(|&(v, _)| v != a);
            }
        }
        (spans.len() as u64, rekey.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsm_cert::{SiteId, TupleId};
    use dbsm_tpcc::schema::{history_row, item_row, stock_row, STOCK};

    /// Six sites at rf 2 over six spans: span `s` lives on sites `s` and
    /// `s + 1` (mod 6), and its primary is site `s`.
    fn ownership() -> Ownership {
        Ownership { map: PlacementMap::new(6, 2), warehouses: 6, rehomed: BTreeMap::new() }
    }

    /// A row of span `span` (warehouse `span + 1`).
    fn row(span: u64) -> TupleId {
        stock_row(span + 1, 1)
    }

    fn req(origin: u16, reads: &[TupleId], writes: &[TupleId]) -> CertRequest {
        CertRequest {
            site: SiteId(origin),
            txn: 1,
            start_seq: 0,
            read_set: RwSet::from_unsorted(reads.to_vec()),
            write_set: RwSet::from_unsorted(writes.to_vec()),
            write_bytes: 0,
        }
    }

    fn covers(o: &Ownership, reads: &[TupleId], voters: &[u16]) -> bool {
        let votes: Vec<SiteVote> = voters.iter().map(|&v| (v, None)).collect();
        o.votes_cover(&RwSet::from_unsorted(reads.to_vec()), &votes)
    }

    #[test]
    fn a_static_owners_vote_covers_its_span() {
        let o = ownership();
        assert!(o.owns(2, 2) && o.owns(3, 2) && !o.owns(4, 2));
        assert!(covers(&o, &[row(2)], &[2]));
        assert!(covers(&o, &[row(2)], &[3]));
        assert!(!covers(&o, &[row(2)], &[4]), "a non-owner's vote covers nothing");
        assert!(!covers(&o, &[row(2), row(4)], &[2]), "every read span needs an owner's vote");
        assert!(covers(&o, &[row(2), row(4)], &[2, 4]));
        assert!(!covers(&o, &[row(2)], &[]), "no votes cover a read");
        assert!(covers(&o, &[], &[]), "an empty read-set needs no vote");
    }

    #[test]
    fn an_adopters_vote_covers_a_rehomed_span() {
        let mut o = ownership();
        assert!(!covers(&o, &[row(2)], &[5]));
        o.rehomed.insert(2, 5);
        assert!(o.owns(5, 2));
        assert!(covers(&o, &[row(2)], &[5]));
        // The static owners keep their span.
        assert!(covers(&o, &[row(2)], &[2]));
        assert_eq!(o.owners(2), vec![2, 3, 5], "routing spreads over the adopter too");
    }

    #[test]
    fn a_superseded_adopters_vote_stops_counting() {
        let mut o = ownership();
        o.rehomed.insert(2, 5);
        o.rehomed.insert(2, 0);
        assert!(!o.owns(5, 2));
        assert!(!covers(&o, &[row(2)], &[5]), "the first adopter no longer covers");
        assert!(covers(&o, &[row(2)], &[0]), "its successor does");
        assert_eq!(o.owners(2), vec![2, 3, 0]);
    }

    #[test]
    fn a_table_level_read_needs_every_span() {
        let o = ownership();
        let table = [TupleId::table_level(STOCK)];
        // Sites 0, 2 and 4 jointly own all six spans; 0 and 2 miss 3 and 4.
        assert!(covers(&o, &table, &[0, 2, 4]));
        assert!(!covers(&o, &table, &[0, 2]));
        // Everyone votes on a table-level read, even a site owning no span
        // the transaction names.
        assert!((0..6).all(|s| o.casts_vote(s, &req(0, &table, &[row(2)]))));
    }

    #[test]
    fn a_spanless_transaction_is_voted_by_everyone() {
        let o = ownership();
        let global = req(1, &[item_row(7)], &[history_row(3)]);
        assert!((0..6).all(|s| o.casts_vote(s, &global)));
        assert!(covers(&o, &[item_row(7)], &[4]), "any vote covers a span-less read");
        // A transaction touching span 2 is voted only by its owners.
        let local = req(2, &[row(2)], &[item_row(7)]);
        let voters: Vec<usize> = (0..6).filter(|&s| o.casts_vote(s, &local)).collect();
        assert_eq!(voters, vec![2, 3]);
    }

    #[test]
    fn voters_for_counts_distinct_primaries_with_the_adopter_as_primary() {
        let mut o = ownership();
        // Origin 0 owns spans 0 and 5; spans 1, 2 and 3 need their primaries.
        let r = req(0, &[row(1), row(2), row(5)], &[row(3), row(0)]);
        assert_eq!(o.voters_for(&r), 3);
        assert_eq!(o.primary(3), 3);
        // Site 1 adopts span 3: it already votes for span 1, so one voter
        // fewer.
        o.rehomed.insert(3, 1);
        assert_eq!(o.primary(3), 1);
        assert_eq!(o.voters_for(&r), 2);
        // The origin adopting a span takes it off the remote list.
        o.rehomed.insert(2, 0);
        assert_eq!(o.voters_for(&r), 1);
        assert_eq!(o.voters_for(&req(0, &[row(0), item_row(1)], &[row(5)])), 0, "span-local");
    }

    #[test]
    fn speculations_queue_first_in_first_out() {
        let costs = CertCostModel::default();
        let at = SimTime::from_micros;
        let (service, merge) = (costs.probe_service(100), costs.merge());
        let mut free_at = SimTime::ZERO;
        // The first speculation finds the FIFO idle: no wait.
        let a = queue_speculation(&mut free_at, at(100), 100, &costs);
        let ready_at = at(100) + service + merge;
        assert_eq!(a, SpecTiming { ready_at, queued: Duration::ZERO, service, merge });
        // A second one submitted during the first one's service queues
        // behind it.
        let b = queue_speculation(&mut free_at, at(101), 100, &costs);
        assert_eq!(b.queued, at(100) + service - at(101));
        assert_eq!(b.ready_at, at(100) + service + service + merge);
        // One submitted after the queue drained waits zero.
        let c = queue_speculation(&mut free_at, at(1_000), 100, &costs);
        assert_eq!((c.queued, c.ready_at), (Duration::ZERO, at(1_000) + service + merge));
        // A speculation that probed nothing is ready at once, with no merge,
        // and leaves the FIFO untouched.
        let before = free_at;
        let d = queue_speculation(&mut free_at, at(1_001), 0, &costs);
        assert_eq!(d, SpecTiming { ready_at: at(1_001), ..SpecTiming::default() });
        assert_eq!(free_at, before);
    }
}
