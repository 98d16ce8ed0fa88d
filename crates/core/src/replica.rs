//! A site's certifier side (§3, Fig. 2): one [`Replica`] per site, and
//! the vote-round state partial replication shares between them.
//!
//! A site is a database engine plus a certifier plus a GCS stack. The
//! engine and the stack are wired together in [`crate::cluster`]; the
//! [`Replica`] between them holds the certifier, the speculative FIFO, the
//! site's commit log and its certification ledger. Its `&mut self`
//! methods turn deliveries, wire votes and read-only validations into
//! decisions, and reach the outside only through a four-call
//! [`SiteRuntime`]: the clock, the CPU, the event queue and the vote
//! channel. The cluster implements it over the simulation; a test can
//! implement it over a list.
//!
//! A replica certifies in the run's replication mode:
//!
//! - **Full**: a complete [`CertBackend`]; total-order delivery decides.
//! - **Partial**: genuine partial replication (Sutra & Shapiro). A
//!   [`SpanReplica`] certifies only the warehouses its site owns and casts
//!   wire votes ([`dbsm_gcs::Gcs::cast_vote`]); its delivery FIFO decides
//!   an entry once the collected votes cover the read-set. [`Partial`]
//!   holds what the vote rounds share — the re-homing overlay, the
//!   cross-checking oracle and the published verdicts — and is passed in
//!   explicitly. [`Partial::stage`] and [`Partial::adopt`] are the two
//!   shortcuts that reach across replicas.
//!
//! Ownership is one rule, [`Ownership::owns`]: a site owns a span when the
//! static [`PlacementMap`] places it there or when it is the span's
//! current adopter after a re-homing. Voting, deciding, vote-round
//! accounting, client routing and the stranded-span sweep all ask it.

use crate::experiment::{CommitPath, ExperimentConfig, CERT_COSTS};
use crate::metrics::{CertWorkTotals, VoteWireTotals};
use crate::placement::PlacementMap;
use dbsm_cert::{
    merge_votes, CertBackend, CertRequest, IndexedCertifier, Outcome as CertOutcome, RwSet,
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

/// What a [`Replica`] acts on. Every call takes effect at once, in call
/// order, so a replica's charges, schedules and votes keep their order.
pub(crate) trait SiteRuntime {
    /// The current instant, CPU time charged so far included.
    fn now(&mut self) -> SimTime;
    /// Charges `cost` of real certification work to the site's CPU.
    fn charge(&mut self, cost: Duration);
    /// Settles `decision` ([`Replica::settle`]) `delay` after [`now`](Self::now).
    fn schedule(&mut self, delay: Duration, decision: Decision);
    /// Multicasts this site's wire vote on `(origin, txn)`.
    fn cast_vote(&mut self, origin: u16, txn: u64, conflict: Option<u64>);
}

/// A decision on its way to the engine, scheduled through
/// [`SiteRuntime::schedule`].
pub(crate) enum Decision {
    /// A verdict already recorded in the global sequence, with the
    /// origin's pending entry.
    Recorded(CertRequest, CertOutcome, Option<PendingCert>),
    /// A local read-only validation's verdict on a transaction.
    ReadOnly(TxnId, bool),
}

/// What the engine does with a settled [`Decision`].
pub(crate) enum Settled {
    /// Resolves a local transaction; `Some(sent_at)` when it was
    /// multicast, for its certification latency.
    Resolve(TxnId, bool, Option<SimTime>),
    /// Applies the rows of a committed remote write-set this site stores,
    /// with their byte size.
    Apply(RwSet, u32),
}

/// A multicast request awaiting its decision at its origin site.
pub(crate) struct PendingCert {
    db_txn: TxnId,
    sent_at: SimTime,
}

/// A staged rejoin state transfer: the donor's committed state cloned at
/// the grant's order-clean point, held until the joiner's stack reports it
/// rejoined and adopts it. `cut` is the reference-log position the
/// snapshot + delta log catches the joiner up to.
pub(crate) struct TransferPacket {
    pub(crate) state: Certifier,
    pub(crate) cut: usize,
    pub(crate) snapshot_bytes: u64,
}

/// A replica's certifier, in the run's replication mode. A rejoin
/// transfers one.
pub(crate) enum Certifier {
    /// A full backend.
    Full(Box<dyn CertBackend>),
    /// A span replica; see [`Partial`].
    Span(Box<SpanReplica>),
}

impl Certifier {
    fn backend(&mut self) -> &mut dyn CertBackend {
        match self {
            Certifier::Full(cert) => cert.as_mut(),
            Certifier::Span(r) => &mut r.cert,
        }
    }

    fn span(&mut self) -> &mut SpanReplica {
        match self {
            Certifier::Span(r) => r,
            Certifier::Full(_) => unreachable!("vote rounds run on span replicas"),
        }
    }
}

/// What a replica records for the run's metrics: moved or summed into
/// [`RunMetrics`](crate::RunMetrics) when the run is collected.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Committed transactions, in commit order.
    pub(crate) log: Vec<Key>,
    pub(crate) work: CertWorkTotals,
    /// Own update transactions decided by a wire-vote quorum, and the
    /// nanoseconds they waited for it after total-order delivery.
    pub(crate) votes: VoteWireTotals,
}

/// What a site holds next to its certifier, zero when the run starts.
/// The cluster keeps the site's client bookkeeping in the public fields.
#[derive(Default)]
pub(crate) struct SiteState {
    /// When this site's speculative-certification FIFO drains (pipelined
    /// commit path): see [`queue_speculation`].
    spec_free_at: SimTime,
    /// When each speculation's verdict is ready, keyed by
    /// `(origin site, txn)` — consulted at total-order confirmation.
    spec_ready: BTreeMap<Key, SimTime>,
    txn_seq: u64,
    /// This site's multicast requests awaiting their decision, by txn. A
    /// rejoin aborts the first incarnation's leftovers in key order — each
    /// abort re-arms a client through the shared workload RNG, so the order
    /// must come from the seed.
    pending: BTreeMap<u64, PendingCert>,
    commits_since_gc: u64,
    /// Reference-chain entries this site's own rejoins skipped over: its
    /// commit log's position on the group's reference chain is
    /// `log.len() + ref_gap`. Zero until the site rejoins.
    ref_gap: usize,
    pub(crate) crashed: bool,
    /// When this site last came back up (for time-to-useful).
    pub(crate) restarted_at: Option<SimTime>,
    /// The state transfer staged for this site's rejoin, until it adopts it.
    pub(crate) incoming: Option<TransferPacket>,
    /// Clients that tried to fire here while the site was down, with their
    /// parking instant — released when the site finishes rejoining or when
    /// a re-placement completes (the overlay may now route them elsewhere).
    pub(crate) parked: Vec<(usize, SimTime)>,
}

/// One site's certifier side: its certifier, its [`SiteState`] and its
/// ledger. Only its own methods change them, apart from the site's client
/// bookkeeping in `st`.
pub(crate) struct Replica {
    site: usize,
    cert: Certifier,
    pub(crate) st: SiteState,
    ledger: Ledger,
    window: u64,
    path: CommitPath,
}

impl Replica {
    /// `site`'s replica for a run of `cfg`: a span replica of the spans
    /// `partial` places there, or a full backend.
    pub(crate) fn new(site: usize, cfg: &ExperimentConfig, partial: Option<&Partial>) -> Self {
        let cert = match partial {
            Some(p) => {
                let spans = p.ownership.map.spans_of(site, p.ownership.warehouses);
                let cert = IndexedCertifier::with_span(span_of, spans);
                Certifier::Span(Box::new(SpanReplica::new(cert, VecDeque::new(), BTreeSet::new())))
            }
            None => Certifier::Full(cfg.cert_backend.new_backend()),
        };
        Replica {
            site,
            cert,
            st: SiteState::default(),
            ledger: Ledger::default(),
            window: cfg.history_window,
            path: cfg.commit_path,
        }
    }

    /// The certifier's last commit: a local transaction's snapshot.
    pub(crate) fn last_committed(&mut self) -> u64 {
        self.cert.backend().last_committed()
    }

    /// Hands the ledger over for the run's metrics.
    pub(crate) fn take_ledger(&mut self) -> Ledger {
        std::mem::take(&mut self.ledger)
    }

    /// Opens local transaction `db_txn`'s multicast request, sent at
    /// `sent_at`, and returns its per-site sequence number.
    pub(crate) fn open(&mut self, db_txn: TxnId, sent_at: SimTime) -> u64 {
        self.st.txn_seq += 1;
        self.st.pending.insert(self.st.txn_seq, PendingCert { db_txn, sent_at });
        self.st.txn_seq
    }

    /// Speculates on a tentatively delivered `req` (pipelined commit path):
    /// certifies it the moment the reliable layer completes the message,
    /// queueing the probe work on the speculative FIFO so it overlaps the
    /// total-order broadcast. Partial replication speculates on the span
    /// certifier, and only at sites that will vote — the speculation is the
    /// vote's probe, precomputed so the vote round overlaps the ordering
    /// round.
    pub(crate) fn tentative(
        &mut self,
        req: &CertRequest,
        partial: Option<&Partial>,
        rt: &mut dyn SiteRuntime,
    ) {
        if self.path != CommitPath::Pipelined
            || partial.is_some_and(|p| !p.ownership.casts_vote(self.site, req))
        {
            return;
        }
        // Real code: unmarshal + dispatch of the speculative probe — outside
        // the certifier's serial section, so cheaper than a synchronous
        // certification entry.
        rt.charge(CERT_COSTS.speculate_fixed);
        let now = rt.now();
        let work = self.cert.backend().speculate(req);
        let t = queue_speculation(&mut self.st.spec_free_at, now, work.probes);
        self.ledger.work.record_spec_probe(work);
        self.ledger.work.record_queueing(t.queued, t.service, t.merge);
        self.st.spec_ready.insert((req.site.0, req.txn), t.ready_at);
    }

    /// Takes `req`'s total-order delivery. Under partial replication
    /// (either commit path) it joins the delivery FIFO, whose head decides
    /// once wire votes cover it; a full replica certifies or confirms it.
    pub(crate) fn deliver(
        &mut self,
        req: CertRequest,
        partial: Option<&mut Partial>,
        rt: &mut dyn SiteRuntime,
    ) {
        match partial {
            Some(p) => {
                self.enqueue(req, rt.now());
                self.advance(Some(p), rt);
            }
            None if self.path == CommitPath::Pipelined => self.confirm_in_order(req, rt),
            None => self.certify_in_order(req, rt),
        }
    }

    /// Certifies `req` on a full replica in delivery order — the
    /// synchronous commit path and the centralized one. Real code: the
    /// full conflict check stalls the delivery loop, charging its CPU
    /// cost. The decision is recorded here, in the certifier's sequence,
    /// and reaches the engine when it re-enters the simulated domain at
    /// start + Δ (Fig. 1b).
    pub(crate) fn certify_in_order(&mut self, req: CertRequest, rt: &mut dyn SiteRuntime) {
        let (outcome, work) = self.cert.backend().certify(&req).expect("history window exceeded");
        self.ledger.work.record(work);
        self.ledger.work.stall_ns += CERT_COSTS.certify_data(work).as_nanos() as u64;
        let pending = self.record(&req, outcome);
        rt.charge(CERT_COSTS.certify(work));
        rt.schedule(Duration::ZERO, Decision::Recorded(req, outcome, pending));
    }

    /// Confirms `req` on a full replica at total-order delivery against
    /// its speculation (pipelined commit path). The certifier mutation,
    /// commit log and gc cadence happen here, in the global sequence —
    /// tentative order differs per site — while the engine-side decision
    /// waits for the speculative FIFO to finish the probe work.
    fn confirm_in_order(&mut self, req: CertRequest, rt: &mut dyn SiteRuntime) {
        let (outcome, work, res) =
            self.cert.backend().confirm(&req).expect("history window exceeded");
        let ready_at = self.st.spec_ready.remove(&(req.site.0, req.txn));
        self.ledger.work.record(work);
        self.ledger.work.record_spec(res);
        self.ledger.work.stall_ns += CERT_COSTS.certify_data(work).as_nanos() as u64;
        let pending = self.record(&req, outcome);
        rt.charge(CERT_COSTS.confirm(work));
        let delay = ready_at.map_or(Duration::ZERO, |t| t.saturating_duration_since(rt.now()));
        rt.schedule(delay, Decision::Recorded(req, outcome, pending));
    }

    /// The order-sensitive half of a decision: the certifier's gc cadence
    /// (its history trimmed to the window every 512 commits), the commit
    /// log and the origin's pending entry. Every commit path calls it where
    /// the certifier decides, in the global sequence.
    fn record(&mut self, req: &CertRequest, outcome: CertOutcome) -> Option<PendingCert> {
        if outcome.is_commit() {
            gc_tick(&mut self.st.commits_since_gc, self.cert.backend(), self.window);
            self.ledger.log.push((req.site.0, req.txn));
        }
        if req.site.0 as usize == self.site {
            self.st.pending.remove(&req.txn)
        } else {
            None
        }
    }

    /// Settles a fired `decision`, recorded in sequence already: says what
    /// the engine does with it — resolve the origin's transaction, or store
    /// the committed rows of a remote one. Order-insensitive.
    pub(crate) fn settle(&mut self, decision: Decision) -> Option<Settled> {
        let (req, outcome, pending) = match decision {
            Decision::ReadOnly(db_txn, ok) => return Some(Settled::Resolve(db_txn, ok, None)),
            Decision::Recorded(req, outcome, pending) => (req, outcome, pending),
        };
        if req.site.0 as usize == self.site {
            pending.map(|p| Settled::Resolve(p.db_txn, outcome.is_commit(), Some(p.sent_at)))
        } else if !outcome.is_commit() {
            None
        } else if let Certifier::Span(r) = &self.cert {
            // A site stores (and pays for) only the write-set rows in its
            // own span, pro-rated by size.
            let ws = r.cert.local_subset(&req.write_set);
            let bytes =
                u64::from(req.write_bytes) * ws.len() as u64 / req.write_set.len().max(1) as u64;
            (!ws.is_empty()).then(|| Settled::Apply(ws, (bytes as u32).max(1)))
        } else {
            Some(Settled::Apply(req.write_set, req.write_bytes))
        }
    }

    /// Validates local read-only transaction `db_txn`'s read-set against
    /// commits since its snapshot, as real code on the site's CPU. Under
    /// partial replication a span-local read resolves from the span
    /// certifier; a cross-span read also merges the remote owners' verdicts
    /// (the oracle answers for them) and waits out one vote round trip.
    pub(crate) fn validate_read_only(
        &mut self,
        db_txn: TxnId,
        reads: &RwSet,
        start_seq: u64,
        partial: Option<&Partial>,
        rt: &mut dyn SiteRuntime,
    ) {
        let (mut ok, work) = self.cert.backend().certify_read_only(reads, start_seq);
        self.ledger.work.record(work);
        let mut vote_delay = Duration::ZERO;
        if let (Some(p), Certifier::Span(r)) = (partial, &self.cert) {
            let (covered, total) = r.cert.coverage(reads);
            self.ledger.work.record_span(covered as u64, total as u64);
            if covered < total {
                ok &= p.oracle.certify_read_only(reads, start_seq).0;
                self.ledger.work.vote_rounds += 1;
                self.ledger.work.cross_span_txns += 1;
                vote_delay = CERT_COSTS.vote_rtt;
            }
        }
        rt.charge(CERT_COSTS.certify(work));
        rt.schedule(vote_delay, Decision::ReadOnly(db_txn, ok));
    }

    /// Enqueues a delivered update transaction on the span replica's FIFO,
    /// folding in any wire votes that arrived ahead of the delivery. Skips
    /// transactions an adopted rejoin snapshot already covers.
    fn enqueue(&mut self, req: CertRequest, now: SimTime) {
        let r = self.cert.span();
        let key = (req.site.0, req.txn);
        if r.skip_keys.contains(&key) {
            return;
        }
        let local_writes = r.cert.local_subset(&req.write_set);
        let (rc, rt) = r.cert.coverage(&req.read_set);
        let (wc, wt) = (local_writes.len(), req.write_set.len());
        self.ledger.work.record_span((rc + wc) as u64, (rt + wt) as u64);
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

    /// Files `voter`'s wire vote (possibly this site's own, looped back)
    /// under partial replication with the FIFO entry it belongs to — stashed if it beat the delivery,
    /// dropped if the transaction is already decided — and advances the
    /// FIFO. A stale vote, cast before its voter adopted a span the entry
    /// touches, never probed that span and is dropped: the post-adoption
    /// re-cast (a higher sequence number on the voter's stream) replaces it.
    pub(crate) fn receive_vote(
        &mut self,
        partial: Option<&mut Partial>,
        voter: u16,
        vote: &WireVote,
        rt: &mut dyn SiteRuntime,
    ) {
        let Some(p) = partial else { return };
        if p.stale_votes.get(&(voter, vote.origin, vote.txn)).is_some_and(|&min| vote.seq < min) {
            return;
        }
        let key = (vote.origin, vote.txn);
        let r = self.cert.span();
        if let Some(entry) = r.entry_mut(key) {
            add_vote(&mut entry.votes, (voter, vote.conflict));
        } else if !r.skip_keys.contains(&key) && !p.decided.contains_key(&key) {
            add_vote(r.vote_stash.entry(key).or_default(), (voter, vote.conflict));
        }
        self.advance(Some(p), rt);
    }

    /// Advances the partial-replication FIFO as far as it will go. First it
    /// decides and pops the head for as long as it decides: a head decides
    /// when its votes cover the read-set, or when another site's published
    /// verdict is available. Each popped decision is recorded here, in
    /// sequence, and applied by the engine once the speculative probe's
    /// FIFO has finished with it (synchronous deliveries have no
    /// speculation and apply now). Then it casts this site's wire votes for
    /// entries whose turn has come — popping may unblock deferred votes,
    /// and freshly cast votes return as loopback votes which re-enter here.
    /// A crashed site decides what others published but casts nothing. A
    /// no-op under full replication.
    pub(crate) fn advance(&mut self, partial: Option<&mut Partial>, rt: &mut dyn SiteRuntime) {
        let Some(p) = partial else { return };
        let now = rt.now();
        loop {
            let r = self.cert.span();
            let Some(head) = r.fifo.front() else { break };
            let key = head.key();
            let published = p.decided.get(&key).copied();
            let outcome = match published {
                Some(outcome) => outcome,
                None if p.ownership.votes_cover(&head.req.read_set, &head.votes) => {
                    match merge_votes(head.votes.iter().map(|&(_, c)| c)) {
                        Some(conflict_seq) => CertOutcome::Abort { conflict_seq },
                        None => CertOutcome::Commit(r.cert.last_committed() + 1),
                    }
                }
                None => break,
            };
            let Some(entry) = r.fifo.pop_front() else { break };
            r.fifo_popped += 1;
            if published.is_none() {
                let voters = p.publish(&entry.req, outcome, self.window);
                self.ledger.work.vote_rounds += voters;
                self.ledger.work.cross_span_txns += u64::from(voters > 0);
            }
            let pending = self.record(&entry.req, outcome);
            self.cert.span().cert.apply(&entry.req, outcome);
            if entry.req.site.0 as usize == self.site {
                self.ledger.votes.decided += 1;
                self.ledger.votes.wait_ns +=
                    now.saturating_duration_since(entry.delivered_at).as_nanos() as u64;
            }
            let ready_at = self.st.spec_ready.remove(&key);
            let delay = ready_at.map_or(Duration::ZERO, |t| t.saturating_duration_since(now));
            rt.schedule(delay, Decision::Recorded(entry.req, outcome, pending));
        }
        if !self.st.crashed {
            self.cast_votes(p, rt);
        }
    }

    /// Runs the span probe for every FIFO entry whose turn to vote has
    /// come: an entry votes once no earlier undecided entry's local writes
    /// can still change its probe; a blocked entry does not block later
    /// ones. Charges the probes' CPU time, then casts the votes.
    fn cast_votes(&mut self, p: &Partial, rt: &mut dyn SiteRuntime) {
        let SpanReplica { cert, fifo, fifo_popped, .. } = self.cert.span();
        let mut casts = Vec::new();
        let mut charge = Duration::ZERO;
        for k in 0..fifo.len() {
            if fifo[k].cast {
                continue;
            }
            if !p.ownership.casts_vote(self.site, &fifo[k].req) {
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
            let (conflict, w) = match self.path {
                CommitPath::Pipelined => {
                    let (conflict, w, res) =
                        cert.confirm_vote(req).expect("history window exceeded");
                    self.ledger.work.record_spec(res);
                    charge += CERT_COSTS.confirm(w);
                    (conflict, w)
                }
                CommitPath::Synchronous => {
                    let (conflict, w) = cert.vote(req).expect("history window exceeded");
                    charge += CERT_COSTS.certify(w);
                    (conflict, w)
                }
            };
            self.ledger.work.record(w);
            self.ledger.work.stall_ns += CERT_COSTS.certify_data(w).as_nanos() as u64;
            casts.push((req.site.0, req.txn, conflict));
            fifo[k].cast = true;
        }
        rt.charge(charge);
        for (origin, txn, conflict) in casts {
            rt.cast_vote(origin, txn, conflict);
        }
    }

    /// A full replica's rejoin snapshot: its backend cloned at the transfer
    /// cut, the `warehouses` it replicates, and the cut. The cut is a
    /// *reference-chain* position: a donor that itself rejoined earlier
    /// has a transfer gap in its local log, so its length alone would
    /// understate where the chain stands. A span replica is staged by
    /// [`Partial::stage`] instead.
    pub(crate) fn snapshot(&mut self, warehouses: u64) -> (Certifier, u64, usize) {
        let cert = Certifier::Full(self.cert.backend().clone_box());
        (cert, warehouses, self.ledger.log.len() + self.st.ref_gap)
    }

    /// Installs rejoin transfer `packet`, replacing the first incarnation's
    /// certifier state: a span replica's open vote rounds continue from
    /// the snapshot, and wire votes that raced ahead of the adoption
    /// survive in the old stash — merged into the seeded entries, dropped
    /// if the snapshot already decided them, kept for future deliveries
    /// otherwise. Resets the speculative FIFO and the gc cadence. Returns
    /// `(commits kept, delta-log entries replayed, orphans)`: the first
    /// incarnation's in-flight requests, whose decisions never came back.
    pub(crate) fn install(&mut self, packet: TransferPacket) -> (usize, u64, Vec<TxnId>) {
        let old = std::mem::replace(&mut self.cert, packet.state);
        if let (Certifier::Span(old), Certifier::Span(r)) = (old, &mut self.cert) {
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
        // The delta log spans from this site's pre-crash reference position
        // (local length plus any earlier transfer gap) to the cut; the new
        // gap replaces the old one, since the cut already accounts for
        // everything skipped so far.
        let kept = self.ledger.log.len();
        let replayed = packet.cut.saturating_sub(kept + self.st.ref_gap) as u64;
        self.st.ref_gap = packet.cut.saturating_sub(kept);
        self.st.spec_free_at = SimTime::ZERO;
        self.st.spec_ready.clear();
        self.st.commits_since_gc = 0;
        let orphans =
            std::mem::take(&mut self.st.pending).into_values().map(|p| p.db_txn).collect();
        (kept, replayed, orphans)
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
pub(crate) fn queue_speculation(free_at: &mut SimTime, now: SimTime, probes: usize) -> SpecTiming {
    if probes == 0 {
        return SpecTiming { ready_at: now, ..SpecTiming::default() };
    }
    let start = (*free_at).max(now);
    let service = CERT_COSTS.probe_service(probes);
    *free_at = start + service;
    let merge = CERT_COSTS.merge();
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
    cert: IndexedCertifier,
    /// Delivered updates awaiting a decision, in total order.
    fifo: VecDeque<FifoEntry>,
    /// Entries popped off `fifo` so far: the entry at index `i` has serial
    /// `fifo_popped + i`, and a serial below `fifo_popped` has left the queue.
    fifo_popped: u64,
    /// Wire votes that arrived before their transaction's delivery — a vote
    /// surfaces on receipt, without waiting for the total order, and may
    /// beat its transaction's total-order slot.
    vote_stash: BTreeMap<Key, Vec<SiteVote>>,
    /// Rejoin bookkeeping: keys decided *before* this site's adopted
    /// snapshot was cut. Their deliveries are skipped outright — the
    /// snapshot already contains them — while later deliveries run the
    /// normal FIFO. Empty unless the site rejoined.
    skip_keys: BTreeSet<Key>,
}

impl SpanReplica {
    fn new(cert: IndexedCertifier, fifo: VecDeque<FifoEntry>, skip_keys: BTreeSet<Key>) -> Self {
        SpanReplica { cert, fifo, fifo_popped: 0, vote_stash: BTreeMap::new(), skip_keys }
    }

    fn entry_mut(&mut self, key: Key) -> Option<&mut FifoEntry> {
        self.fifo.iter_mut().find(|e| e.key() == key)
    }
}

/// The vote-round state the span replicas of a partially replicating run
/// share. Decisions are made by the sites themselves: each covering span
/// owner certifies its slice and multicasts a wire-level vote; whichever
/// site first collects a covering vote set decides by [`merge_votes`] and
/// publishes the verdict here. The `oracle` is a full-replication certifier
/// driven once per message at that first decision (first decisions follow
/// the total order, so the oracle certifies in sequence): it cross-checks —
/// `assert` — that the merged wire verdict equals the global one, and
/// provides the full history rejoining sites and adopters rebuild their
/// span certifiers from. The `decided` map stands in for the origin's
/// decision dissemination: later sites popping the same entry read the
/// published verdict instead of waiting out a redundant vote collection.
pub(crate) struct Partial {
    pub(crate) ownership: Ownership,
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
    /// The partial-replication state of a run of `cfg`, if it partially
    /// replicates: a replication factor below the site count, placed on the
    /// ring of `cfg.sites` replicas. Each site's span certifier indexes only
    /// the warehouses the map assigns it — the span key is the TPC-C home
    /// warehouse, with warehouse-less tuples (the shared item catalogue,
    /// history) global to every site.
    pub(crate) fn for_run(cfg: &ExperimentConfig) -> Option<Self> {
        let map = PlacementMap::new(cfg.sites, cfg.partial_factor()?);
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(cfg.clients);
        Some(Partial {
            ownership: Ownership { map, warehouses, rehomed: BTreeMap::new() },
            oracle: IndexedCertifier::new(),
            oracle_since_gc: 0,
            decided: BTreeMap::new(),
            replacing: BTreeMap::new(),
            stale_votes: BTreeMap::new(),
            last_reconfig_view: 0,
        })
    }

    /// Publishes the first cluster-wide decision on `req`: cross-checks the
    /// merged wire verdict against the oracle and files it for the other
    /// sites' pops. Returns how many remote span owners had to vote on it.
    fn publish(&mut self, req: &CertRequest, outcome: CertOutcome, window: u64) -> u64 {
        let (oracle_outcome, _) = self.oracle.certify(req).expect("history window exceeded");
        assert_eq!(
            oracle_outcome, outcome,
            "merged wire votes diverged from the certification oracle"
        );
        if outcome.is_commit() {
            gc_tick(&mut self.oracle_since_gc, &mut self.oracle, window);
        }
        let voters = self.ownership.voters_for(req);
        self.decided.insert((req.site.0, req.txn), outcome);
        voters
    }

    /// Stages `joiner`'s rejoin snapshot from `donor`: the joiner's span
    /// certifier rebuilt from the oracle's full history restricted to its
    /// spans (it re-requests only its spans' rows), and the donor's
    /// delivered-but-undecided entries with the votes collected so far —
    /// re-indexed by the joiner's span, `cast` reset so it votes for
    /// itself. Returns the replica, the spans it owns, and the cut: the
    /// oracle's commit count, i.e. the decided prefix of the total order,
    /// which may run ahead of the donor's own popped prefix.
    pub(crate) fn stage(&self, donor: &Replica, joiner: usize) -> (Certifier, u64, usize) {
        let Certifier::Span(donor) = &donor.cert else { unreachable!("a span replica donates") };
        let spans = self.ownership.map.spans_of(joiner, self.ownership.warehouses);
        let owned = spans.len() as u64;
        let cert = self.oracle.restricted_to(span_of, spans);
        let fifo = donor
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
        (Certifier::Span(Box::new(SpanReplica::new(cert, fifo, skip_keys))), owned, cut)
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
    /// here and at every other replica, and the cast flag is reset — the
    /// next advance re-votes with the rebuilt certifier, and late
    /// pre-adoption votes below `vote_seq` (the adopter's next stream
    /// sequence) are dropped as stale. The caller must first pop every
    /// globally decided entry off the adopter's FIFO: the rebuilt certifier
    /// reflects the oracle's decided frontier, and re-applying a decided
    /// entry would corrupt it. Returns `(spans adopted, vote rounds
    /// re-collected)`.
    pub(crate) fn adopt(
        &mut self,
        replicas: &mut [Replica],
        adopter: usize,
        spans: &[u64],
        vote_seq: u64,
    ) -> (u64, u64) {
        let a = adopter as u16;
        let spans: BTreeSet<u64> =
            spans.iter().copied().filter(|s| self.replacing.get(s) == Some(&a)).collect();
        for &s in &spans {
            self.replacing.remove(&s);
            self.ownership.rehomed.insert(s, a);
        }
        let r = replicas[adopter].cert.span();
        let owned = r.cert.owned_spans().iter().chain(&spans).copied();
        r.cert = self.oracle.restricted_to(span_of, owned);
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
        for r in replicas.iter_mut().map(|r| r.cert.span()) {
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
        let at = SimTime::from_micros;
        let (service, merge) = (CERT_COSTS.probe_service(100), CERT_COSTS.merge());
        let mut free_at = SimTime::ZERO;
        // The first speculation finds the FIFO idle: no wait.
        let a = queue_speculation(&mut free_at, at(100), 100);
        let ready_at = at(100) + service + merge;
        assert_eq!(a, SpecTiming { ready_at, queued: Duration::ZERO, service, merge });
        // A second one submitted during the first one's service queues
        // behind it.
        let b = queue_speculation(&mut free_at, at(101), 100);
        assert_eq!(b.queued, at(100) + service - at(101));
        assert_eq!(b.ready_at, at(100) + service + service + merge);
        // One submitted after the queue drained waits zero.
        let c = queue_speculation(&mut free_at, at(1_000), 100);
        assert_eq!((c.queued, c.ready_at), (Duration::ZERO, at(1_000) + service + merge));
        // A speculation that probed nothing is ready at once, with no merge,
        // and leaves the FIFO untouched.
        let before = free_at;
        let d = queue_speculation(&mut free_at, at(1_001), 0);
        assert_eq!(d, SpecTiming { ready_at: at(1_001), ..SpecTiming::default() });
        assert_eq!(free_at, before);
    }

    /// A [`SiteRuntime`] over lists: it records charges, scheduled
    /// decisions and cast votes, and its clock only moves by what is
    /// charged.
    #[derive(Default)]
    struct Recorder {
        charged: Duration,
        decisions: Vec<Decision>,
        casts: Vec<(u16, u64, Option<u64>)>,
    }

    impl SiteRuntime for Recorder {
        fn now(&mut self) -> SimTime {
            SimTime::ZERO + self.charged
        }

        fn charge(&mut self, cost: Duration) {
            self.charged += cost;
        }

        fn schedule(&mut self, _delay: Duration, decision: Decision) {
            self.decisions.push(decision);
        }

        fn cast_vote(&mut self, origin: u16, txn: u64, conflict: Option<u64>) {
            self.casts.push((origin, txn, conflict));
        }
    }

    /// Twelve updates from three origins over warehouses 1–3, each reading
    /// its home row, a row of the next warehouse and a span-less item, and
    /// writing its home row from a snapshot that lags the commits: some
    /// commit, some abort.
    fn stream() -> Vec<CertRequest> {
        (0..12u64)
            .map(|k| {
                let (home, next) = (k % 3 + 1, (k + 1) % 3 + 1);
                let row = stock_row(home, 1 + k % 2);
                let reads = vec![row, stock_row(next, 1), item_row(k % 5 + 1)];
                CertRequest {
                    site: SiteId((k % 3) as u16),
                    txn: k / 3 + 1,
                    start_seq: k / 4,
                    read_set: RwSet::from_unsorted(reads),
                    write_set: RwSet::from_unsorted(vec![row]),
                    write_bytes: 64,
                }
            })
            .collect()
    }

    /// The commit log a full-replication certifier produces for `reqs` in
    /// order.
    fn replay(reqs: &[CertRequest]) -> Vec<Key> {
        let mut cert = IndexedCertifier::new();
        let committed = reqs.iter().filter(|r| cert.certify(r).expect("no gc").0.is_commit());
        let log: Vec<Key> = committed.map(|r| (r.site.0, r.txn)).collect();
        assert!(!log.is_empty() && log.len() < reqs.len(), "the stream commits and aborts");
        log
    }

    #[test]
    fn full_replicas_commit_the_total_order_through_a_mock_runtime() {
        let reqs = stream();
        let expected = replay(&reqs);
        for path in [CommitPath::Synchronous, CommitPath::Pipelined] {
            let cfg = ExperimentConfig::replicated(3, 30).with_commit_path(path);
            for site in 0..3 {
                let mut r = Replica::new(site, &cfg, None);
                let mut rt = Recorder::default();
                // Every speculation runs before the first confirmation, so
                // the pipelined confirmations revalidate and roll back.
                reqs.iter().for_each(|req| r.tentative(req, None, &mut rt));
                reqs.iter().for_each(|req| r.deliver(req.clone(), None, &mut rt));
                assert!(rt.casts.is_empty(), "a full replica casts no votes");
                assert!(rt.charged > Duration::ZERO, "certification is charged");
                assert_eq!(rt.decisions.len(), reqs.len(), "one decision per delivery");
                assert_eq!(r.ledger.log, expected, "logged as certified, before any settles");
                for decision in rt.decisions.into_iter().rev() {
                    r.settle(decision);
                }
                assert_eq!(r.take_ledger().log, expected, "site {site}, {path:?}");
            }
        }
    }

    #[test]
    fn span_replicas_decide_a_vote_round_through_a_mock_runtime() {
        let reqs = stream();
        let expected = replay(&reqs);
        // Three warehouses at rf 2 over three sites: no site owns every span
        // a request reads, so every decision needs another site's vote.
        let cfg = ExperimentConfig::replicated(3, 30).with_replication_factor(2);
        let mut partial = Partial::for_run(&cfg).expect("rf 2 of 3 replicates partially");
        let mut replicas: Vec<Replica> =
            (0..3).map(|site| Replica::new(site, &cfg, Some(&partial))).collect();
        let mut rts: Vec<Recorder> = (0..3).map(|_| Recorder::default()).collect();
        for req in &reqs {
            for (r, rt) in replicas.iter_mut().zip(&mut rts) {
                r.deliver(req.clone(), Some(&mut partial), rt);
            }
        }
        // Multicast every cast back to every site, the voter included, until
        // no site casts any more.
        let mut vote_seq = [0u64; 3];
        loop {
            let mut votes = Vec::new();
            for (voter, rt) in rts.iter_mut().enumerate() {
                for (origin, txn, conflict) in rt.casts.drain(..) {
                    vote_seq[voter] += 1;
                    votes.push((
                        voter as u16,
                        WireVote { seq: vote_seq[voter], origin, txn, conflict },
                    ));
                }
            }
            if votes.is_empty() {
                break;
            }
            for (voter, vote) in &votes {
                for (r, rt) in replicas.iter_mut().zip(&mut rts) {
                    r.receive_vote(Some(&mut partial), *voter, vote, rt);
                }
            }
        }
        assert!(vote_seq.iter().all(|&n| n > 0), "every site voted");
        for (site, (r, rt)) in replicas.iter_mut().zip(rts).enumerate() {
            assert_eq!(rt.decisions.len(), reqs.len(), "site {site} decided every delivery");
            assert!(rt.charged > Duration::ZERO, "site {site}'s probes are charged");
            assert_eq!(r.take_ledger().log, expected, "site {site}");
        }
    }
}
