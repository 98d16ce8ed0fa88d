//! Property-based tests (proptest) over the core data structures and
//! protocol invariants.

use bytes::Bytes;
use dbsm_testbed::cert::{
    marshal, unmarshal, CertRequest, Certifier, IndexedCertifier, RwSet, SiteId, SpecResolution,
    TableId, TupleId,
};
use dbsm_testbed::gcs::{testkit::TestNet, AnnBatchPolicy, GcsConfig, NodeId, NodeSet};
use dbsm_testbed::sim::stats::Samples;
use dbsm_testbed::sim::{EventId, Sim, SimTime};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

fn arb_tuple_id() -> impl Strategy<Value = TupleId> {
    (0u16..8, 1u64..10_000).prop_map(|(t, r)| TupleId::new(TableId(t), r))
}

fn arb_rwset(max: usize) -> impl Strategy<Value = RwSet> {
    prop::collection::vec(arb_tuple_id(), 0..max).prop_map(RwSet::from_unsorted)
}

/// Like [`arb_tuple_id`], but ~1 in 8 entries is a table-level wildcard —
/// used where the wildcard handling itself is under test.
fn arb_tuple_id_or_wildcard() -> impl Strategy<Value = TupleId> {
    (0u16..8, 1u64..10_000, 0u8..8).prop_map(|(t, r, roll)| {
        if roll == 0 {
            TupleId::table_level(TableId(t))
        } else {
            TupleId::new(TableId(t), r)
        }
    })
}

fn arb_rwset_with_wildcards(max: usize) -> impl Strategy<Value = RwSet> {
    prop::collection::vec(arb_tuple_id_or_wildcard(), 0..max).prop_map(RwSet::from_unsorted)
}

/// Like [`arb_rwset_with_wildcards`] over 4 tables of 24 rows, so that
/// concurrent writers of one row are common.
fn arb_dense_rwset(max: usize) -> impl Strategy<Value = RwSet> {
    let id = (0u16..4, 1u64..25, 0u8..8).prop_map(|(t, r, roll)| {
        if roll == 0 {
            TupleId::table_level(TableId(t))
        } else {
            TupleId::new(TableId(t), r)
        }
    });
    prop::collection::vec(id, 0..max).prop_map(RwSet::from_unsorted)
}

/// The span key of the partial-replication properties: table 0 rows and
/// wildcards have no span (global, replicated everywhere); other rows span
/// by `row % 8`.
fn span8(id: TupleId) -> Option<u64> {
    if id.table().0 == 0 || id.is_table_level() {
        None
    } else {
        Some(id.row() % 8)
    }
}

fn fnv(h: u64, b: u64) -> u64 {
    (h ^ b).wrapping_mul(0x100_0000_01b3)
}

/// SplitMix64 finalizer: a bare FNV multiply does not avalanche low-bit
/// differences (like an attempt counter) into the high bits we sample.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `traffic` through a 3-node group under `policy` with deterministic
/// content-keyed loss, returning each node's totally ordered
/// `(origin, global_seq, payload)` delivery stream.
///
/// Loss is keyed on `(from, to, packet bytes, attempt#)` rather than a
/// packet counter, so packets that are identical across policy runs (all
/// application traffic, NAKs and retransmissions of it) meet the identical
/// fate — which is what makes delivery streams comparable across policies
/// while announcement traffic differs freely.
fn policy_deliveries(
    policy: AnnBatchPolicy,
    traffic: &[(u16, u32)],
    loss_pct: u8,
    seed: u64,
) -> Vec<Vec<(u16, u64, Vec<u8>)>> {
    let mut cfg = GcsConfig::lan(3);
    cfg.ann_policy = policy;
    // The run is far shorter than this timeout, so loss can never trigger a
    // view change: delivery order is purely the sequencer's assignment order.
    cfg.failure_timeout = Duration::from_secs(60);
    let mut net = TestNet::new(cfg);
    let mut attempts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    net.set_drop_fn(move |from, to, bytes| {
        let mut h = fnv(0xcbf2_9ce4_8422_2325 ^ seed, u64::from(from.0));
        h = fnv(h, u64::from(to.0));
        for &byte in bytes.iter() {
            h = fnv(h, u64::from(byte));
        }
        let n = attempts.entry(h).or_insert(0);
        *n += 1;
        mix64(fnv(h, *n)) & 0x7f < u64::from(loss_pct)
    });
    for (i, (sender, delay_us)) in traffic.iter().enumerate() {
        net.run_for(Duration::from_micros(u64::from(*delay_us)));
        net.broadcast(NodeId(sender % 3), Bytes::from(format!("m{i}").into_bytes()));
    }
    // Settle: plenty of NAK/heartbeat rounds to recover every loss.
    net.run_for(Duration::from_secs(3));
    (0..3u16)
        .map(|n| {
            net.deliveries_seq(NodeId(n))
                .into_iter()
                .map(|(o, g, p)| (o.0, g, p.to_vec()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn ann_policies_produce_identical_delivery_order(
        traffic in prop::collection::vec((0u16..3, 0u32..1_500), 1..20),
        loss_pct in 0u8..25,
        seed in any::<u64>(),
    ) {
        // The tentpole equivalence property: the announcement batching
        // policy trades latency for announcement traffic but must never
        // change *what* is delivered or *in which order*. All three
        // policies, fed the same application traffic under the same
        // (content-keyed) loss, deliver the identical
        // (origin, global_seq, payload) stream at every node.
        let policies = [
            AnnBatchPolicy::Immediate,
            AnnBatchPolicy::Fixed(Duration::from_millis(2)),
            AnnBatchPolicy::adaptive_lan(),
        ];
        let mut reference: Option<Vec<(u16, u64, Vec<u8>)>> = None;
        for policy in policies {
            let per_node = policy_deliveries(policy, &traffic, loss_pct, seed);
            for (n, stream) in per_node.iter().enumerate() {
                prop_assert_eq!(
                    stream.len(), traffic.len(),
                    "{:?}: node {} delivered {} of {}", policy, n, stream.len(), traffic.len()
                );
                prop_assert_eq!(stream, &per_node[0], "{:?}: node {} disagrees", policy, n);
            }
            match &reference {
                None => reference = Some(per_node.into_iter().next().expect("3 nodes")),
                Some(r) => prop_assert_eq!(
                    r, &per_node[0],
                    "{:?} diverged from Immediate", policy
                ),
            }
        }
    }
}

proptest! {
    #[test]
    fn tuple_id_roundtrips_raw(t in 0u16..u16::MAX, r in 1u64..(1u64 << 48)) {
        let id = TupleId::new(TableId(t), r);
        let back = TupleId::from_raw(id.as_raw());
        prop_assert_eq!(back, id);
        prop_assert_eq!(back.table(), TableId(t));
        prop_assert_eq!(back.row(), r);
    }

    #[test]
    fn rwset_is_sorted_and_unique(ids in prop::collection::vec(arb_tuple_id(), 0..64)) {
        let set = RwSet::from_unsorted(ids.clone());
        prop_assert!(set.ids().windows(2).all(|w| w[0] < w[1]));
        for id in &ids {
            prop_assert!(set.contains(*id));
        }
    }

    #[test]
    fn intersection_is_symmetric_and_matches_naive(a in arb_rwset(32), b in arb_rwset(32)) {
        let fast = a.intersects(&b);
        prop_assert_eq!(fast, b.intersects(&a), "symmetry");
        let naive = a.ids().iter().any(|x| b.ids().iter().any(|y| x.covers(*y) || y.covers(*x)));
        prop_assert_eq!(fast, naive, "matches the quadratic oracle");
    }

    #[test]
    fn union_contains_both(a in arb_rwset(24), b in arb_rwset(24)) {
        let mut u = a.clone();
        u.union_with(&b);
        for id in a.ids().iter().chain(b.ids()) {
            prop_assert!(u.contains(*id));
        }
        prop_assert!(u.ids().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn upgrade_preserves_conflicts(raw in prop::collection::vec(arb_tuple_id(), 1..128),
                                   threshold in 1usize..16) {
        let set = RwSet::from_unsorted(raw);
        let mut upgraded = set.clone();
        upgraded.upgrade_large_tables(threshold);
        // Upgrading can only widen, never lose, conflicts.
        for id in set.ids() {
            prop_assert!(upgraded.contains(*id), "lost {id}");
        }
        prop_assert!(upgraded.len() <= set.len());
    }

    #[test]
    fn marshal_roundtrips(site in 0u16..64, txn in 0u64..1_000_000, start in 0u64..1_000_000,
                          reads in arb_rwset(48), writes in arb_rwset(24),
                          wb in 0u32..4096) {
        let req = CertRequest {
            site: SiteId(site), txn, start_seq: start,
            read_set: reads, write_set: writes, write_bytes: wb,
        };
        let back = unmarshal(marshal(&req)).expect("roundtrip");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn truncated_marshals_never_panic(reads in arb_rwset(16), cut in 0usize..64) {
        let req = CertRequest {
            site: SiteId(1), txn: 1, start_seq: 0,
            read_set: reads, write_set: RwSet::new(), write_bytes: 8,
        };
        let wire = marshal(&req);
        let cut = cut.min(wire.len());
        // Must return an error or a valid request, never panic.
        let _ = unmarshal(wire.slice(0..cut));
    }

    #[test]
    fn certifiers_agree_on_any_request_stream(
        stream in prop::collection::vec(
            (0u16..3, arb_rwset(8), arb_rwset(4), 0u64..4), 1..64)
    ) {
        // Two replicas fed the same totally ordered stream reach identical
        // decisions and identical last-committed counters.
        let mut a = Certifier::new();
        let mut b = Certifier::new();
        for (i, (site, reads, writes, back)) in stream.iter().enumerate() {
            let start = a.last_committed().saturating_sub(*back);
            let req = CertRequest {
                site: SiteId(*site), txn: i as u64, start_seq: start,
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            };
            let ra = a.certify(&req).expect("window");
            let rb = b.certify(&req).expect("window");
            prop_assert_eq!(ra.0, rb.0);
        }
        prop_assert_eq!(a.last_committed(), b.last_committed());
    }

    #[test]
    fn cert_backends_produce_identical_outcome_streams(
        stream in prop::collection::vec(
            (0u16..3, arb_rwset_with_wildcards(8), arb_rwset_with_wildcards(4), 0u64..6, 0u8..8),
            1..96)
    ) {
        // The tentpole equivalence property: the linear scan and the indexed
        // write history, fed the same totally ordered request stream with
        // garbage collections interleaved at arbitrary points, emit
        // bit-identical outcome streams — same commit sequence numbers, same
        // abort decisions, same conflict_seq on every abort, and the same
        // HistoryTruncated rejections. A span-restricted certifier that owns
        // every span is exactly the unrestricted one: same outcomes, same
        // read-only verdicts and the same CertWork, whose probe counts are
        // charged as simulated CPU.
        let mut linear = Certifier::new();
        let mut indexed = IndexedCertifier::new();
        let mut all_spans = IndexedCertifier::with_span(span8, 0..8);
        for (i, (site, reads, writes, back, gc_roll)) in stream.iter().enumerate() {
            let start = linear.last_committed().saturating_sub(*back);
            let req = CertRequest {
                site: SiteId(*site), txn: i as u64, start_seq: start,
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            };
            let ol = linear.certify(&req).map(|(o, _)| o);
            let ri = indexed.certify(&req);
            prop_assert_eq!(ol, ri.map(|(o, _)| o), "request {} diverged", i);
            prop_assert_eq!(ri, all_spans.certify(&req), "span filter changed request {}", i);
            // Read-only validation must agree at the same snapshot too.
            let (rl, _) = linear.certify_read_only(reads, start);
            let ro = indexed.certify_read_only(reads, start);
            prop_assert_eq!(rl, ro.0, "read-only validation {} diverged", i);
            prop_assert_eq!(ro, all_spans.certify_read_only(reads, start));
            // Random gc interleaving driven by the stream itself: collect up
            // to the whole history (gc_roll spreads the stable point from
            // aggressive to no-op).
            if *gc_roll == 0 {
                let stable = linear.last_committed().saturating_sub(*back);
                linear.gc(stable);
                indexed.gc(stable);
                all_spans.gc(stable);
            }
        }
        prop_assert_eq!(linear.last_committed(), indexed.last_committed());
        prop_assert_eq!(linear.history_len(), indexed.history_len());
        prop_assert_eq!(linear.low_water(), indexed.low_water());
        prop_assert_eq!(indexed.last_committed(), all_spans.last_committed());
        prop_assert_eq!(indexed.history_len(), all_spans.history_len());
        prop_assert_eq!(indexed.low_water(), all_spans.low_water());
    }

    #[test]
    fn pipelined_matches_synchronous_outcome_streams(
        stream in prop::collection::vec(
            (0u16..3, arb_rwset_with_wildcards(8), arb_rwset_with_wildcards(4), 0u64..6,
             0u8..4, 0u8..8),
            1..96),
    ) {
        // The pipelining tentpole's equivalence property: a certifier fed
        // speculative probes at arbitrary tentative-delivery interleavings
        // (each request's `lead` lets tentative delivery run 0-3 requests
        // ahead of the total order; lead 0 models a request whose tentative
        // delivery never arrived) and then confirmed in total order emits
        // an outcome stream bit-identical to a synchronous certifier of the
        // same backend AND to the linear-scan oracle — same commit sequence
        // numbers, same abort decisions, same conflict_seq on every abort,
        // same HistoryTruncated rejections under interleaved gc, and the
        // same final history. Reordering (speculation overtaken by
        // conflicting commits) must surface as a rollback, never as a
        // decision change.
        fn mk(i: usize, item: &(u16, RwSet, RwSet, u64, u8, u8), last: u64) -> CertRequest {
            let (site, reads, writes, back, _, _) = item;
            CertRequest {
                site: SiteId(*site), txn: i as u64, start_seq: last.saturating_sub(*back),
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            }
        }
        let mut linear = Certifier::new();
        let mut sync = IndexedCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let n = stream.len();
        let mut reqs: Vec<Option<CertRequest>> = vec![None; n];
        let mut speculated = vec![false; n];
        for i in 0..n {
            // Tentative delivery runs ahead: speculate requests i..i+lead
            // before request i is confirmed in total order.
            let lead = stream[i].4 as usize;
            for j in i..(i + lead).min(n) {
                if reqs[j].is_none() {
                    reqs[j] = Some(mk(j, &stream[j], linear.last_committed()));
                }
                if !speculated[j] {
                    pipe.speculate(reqs[j].as_ref().expect("just made"));
                    speculated[j] = true;
                }
            }
            let req = reqs[i].take().unwrap_or_else(|| mk(i, &stream[i], linear.last_committed()));
            let ol = linear.certify(&req).map(|(o, _)| o);
            let os = sync.certify(&req).map(|(o, _)| o);
            let mut resolution = None;
            let op = pipe.confirm(&req).map(|(o, _, res)| { resolution = Some(res); o });
            prop_assert_eq!(&ol, &os, "sync indexed diverged from linear at {}", i);
            prop_assert_eq!(&ol, &op, "pipelined diverged from linear at {} (res {:?})",
                i, resolution);
            if let Some(res) = resolution {
                // A speculation either survives to its confirm or its
                // confirm reports truncation (speculate skips recording
                // below the low-water mark, gc prunes strictly below it,
                // and the mark never falls): a confirm that returned Ok
                // resolves Miss exactly for the never-speculated requests.
                prop_assert_eq!(res == SpecResolution::Miss, !speculated[i],
                    "speculation bookkeeping diverged at {}", i);
            }
            let gc_roll = stream[i].5;
            if gc_roll == 0 {
                let stable = linear.last_committed().saturating_sub(stream[i].3);
                linear.gc(stable);
                sync.gc(stable);
                pipe.gc(stable);
            }
        }
        // Final logs agree: same commit counter, same retained history.
        prop_assert_eq!(linear.last_committed(), pipe.last_committed());
        prop_assert_eq!(sync.last_committed(), pipe.last_committed());
        prop_assert_eq!(sync.history_len(), pipe.history_len());
        prop_assert_eq!(sync.low_water(), pipe.low_water());
        prop_assert_eq!(pipe.speculations(), 0, "all speculations consumed or pruned");
    }

    #[test]
    fn partial_matches_full_replication_outcome_streams(
        stream in prop::collection::vec(
            (0u16..5, arb_rwset_with_wildcards(8), arb_rwset_with_wildcards(4), 0u64..6, 0u8..8),
            1..96),
        sites in 2usize..6,
        factor in 1usize..6,
    ) {
        // The partial-replication tentpole's equivalence property: for
        // EVERY site count, EVERY replication factor k in 1..=N and
        // arbitrary gc interleavings, the per-span votes of the sites —
        // each indexing only its PlacementMap-assigned spans — merge
        // (earliest-conflict rule) to a verdict bit-identical to a
        // full-replication IndexedCertifier fed the same totally ordered
        // stream: same commit sequence numbers, same abort decisions, same
        // conflict_seq on every abort, same HistoryTruncated rejections.
        // Table 0 rows and wildcards have no span (global, replicated
        // everywhere); other rows span by `row % 8`.
        use dbsm_testbed::cert::merge_votes;
        use dbsm_testbed::core::PlacementMap;
        let k = factor.min(sites);
        let p = PlacementMap::new(sites, k);
        let mut full = IndexedCertifier::new();
        let mut spans: Vec<IndexedCertifier> = (0..sites)
            .map(|s| IndexedCertifier::with_span(span8, p.spans_of(s, 8)))
            .collect();
        for (i, (site, reads, writes, back, gc_roll)) in stream.iter().enumerate() {
            let start = full.last_committed().saturating_sub(*back);
            let req = CertRequest {
                site: SiteId(*site), txn: i as u64, start_seq: start,
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            };
            let of = full.certify(&req).map(|(o, _)| o);
            // Every site votes on its span; merging ALL votes is merging a
            // covering set (every span has at least one owner, span-less
            // ids are indexed everywhere), so the merge must equal the
            // full verdict exactly.
            let votes: Vec<_> = spans.iter().map(|s| s.vote(&req)).collect();
            match &of {
                Err(trunc) => {
                    // gc ran in lockstep: every site rejects identically.
                    for (s, v) in votes.iter().enumerate() {
                        prop_assert_eq!(v.as_ref().err(), Some(trunc),
                            "site {} truncation diverged at {}", s, i);
                    }
                    continue;
                }
                Ok(outcome) => {
                    let merged = merge_votes(
                        votes.into_iter().map(|v| v.expect("full certify succeeded").0),
                    );
                    match outcome {
                        dbsm_testbed::cert::Outcome::Commit(_) => {
                            prop_assert_eq!(merged, None, "spurious conflict at {}", i);
                        }
                        dbsm_testbed::cert::Outcome::Abort { conflict_seq } => {
                            prop_assert_eq!(merged, Some(*conflict_seq),
                                "conflict_seq diverged at {}", i);
                        }
                    }
                    for s in spans.iter_mut() {
                        s.apply(&req, *outcome);
                    }
                }
            }
            if *gc_roll == 0 {
                let stable = full.last_committed().saturating_sub(*back);
                full.gc(stable);
                for s in spans.iter_mut() {
                    s.gc(stable);
                }
            }
        }
        for (s, span) in spans.iter().enumerate() {
            prop_assert_eq!(span.last_committed(), full.last_committed(),
                "site {} sequence counter diverged", s);
        }
    }

    #[test]
    fn reprojected_span_certifier_matches_one_that_followed_the_stream(
        stream in prop::collection::vec(
            (0u16..3, arb_dense_rwset(6), arb_dense_rwset(4), 0u64..6, 0u8..6),
            1..96),
        owned in prop::collection::btree_set(0u64..8, 1..4),
        cut in 0usize..96,
    ) {
        // The rejoin and re-homing path: a span certifier rebuilt from the
        // unrestricted certifier's history with `restricted_to` at any cut
        // of a commit and gc stream is indistinguishable from one that
        // followed the stream from the start — the same vote on every later
        // request, and the same history length, low-water mark and sequence
        // counter. Dense ids make rows collect several concurrent writers.
        let mut full = IndexedCertifier::new();
        let mut follower = IndexedCertifier::with_span(span8, owned.iter().copied());
        let mut rebuilt: Option<IndexedCertifier> = None;
        for (i, (site, reads, writes, back, gc_roll)) in stream.iter().enumerate() {
            if i == cut {
                rebuilt = Some(full.restricted_to(span8, owned.iter().copied()));
            }
            let start = full.last_committed().saturating_sub(*back);
            let req = CertRequest {
                site: SiteId(*site), txn: i as u64, start_seq: start,
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            };
            let vote = follower.vote(&req).map(|(v, _)| v);
            if let Some(r) = &rebuilt {
                prop_assert_eq!(r.vote(&req).map(|(v, _)| v), vote, "vote diverged at {}", i);
            }
            if let Ok((outcome, _)) = full.certify(&req) {
                follower.apply(&req, outcome);
                if let Some(r) = rebuilt.as_mut() {
                    r.apply(&req, outcome);
                }
            }
            if *gc_roll == 0 {
                let stable = full.last_committed().saturating_sub(*back);
                full.gc(stable);
                follower.gc(stable);
                if let Some(r) = rebuilt.as_mut() {
                    r.gc(stable);
                }
            }
        }
        let rebuilt = rebuilt.unwrap_or_else(|| full.restricted_to(span8, owned.iter().copied()));
        prop_assert_eq!(rebuilt.history_len(), follower.history_len());
        prop_assert_eq!(rebuilt.history_len(), full.history_len());
        prop_assert_eq!(rebuilt.low_water(), follower.low_water());
        prop_assert_eq!(rebuilt.last_committed(), follower.last_committed());
    }

}

proptest! {
    // Each case simulates a full GCS group under loss: 12 cases keeps the
    // suite fast while still sweeping sites x factor x loss x commit path.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn wire_votes_match_vote_box_outcome_streams(
        stream in prop::collection::vec(
            (0u16..5, arb_rwset_with_wildcards(6), arb_rwset_with_wildcards(4), 0u64..4),
            1..24),
        sites in 2usize..6,
        factor in 1usize..4,
        loss_pct in 0u8..21,
        pipelined in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The decentralized-vote tentpole's equivalence property: for EVERY
        // site count, replication factor, loss rate up to 20% and BOTH
        // commit paths, the span votes each site multicasts over the real
        // wire protocol ([`Gcs::cast_vote`]) arrive at every node exactly
        // once per voter — surviving loss through piggybacked resends — and
        // the covering quorum each node collects merges
        // (earliest-conflict rule) to a verdict bit-identical to the PR 7
        // cluster-level vote box AND to a full-replication
        // IndexedCertifier: same commit/abort decisions, same conflict_seq
        // on every abort. The pipelined path pre-computes each vote from a
        // speculative probe (`speculate` + `confirm_vote`); the synchronous
        // path votes inline (`vote`); both must emit the same verdicts.
        use dbsm_testbed::cert::{merge_votes, Outcome};
        use dbsm_testbed::core::PlacementMap;
        use dbsm_testbed::gcs::Upcall;
        let k = factor.min(sites);
        let p = PlacementMap::new(sites, k);
        let mut full = IndexedCertifier::new();
        let mut spans: Vec<IndexedCertifier> = (0..sites)
            .map(|s| IndexedCertifier::with_span(span8, p.spans_of(s, 8)))
            .collect();
        // A real GCS group carries the votes, with deterministic
        // content-keyed loss (resends of a lost vote meet a fresh fate).
        let mut cfg = GcsConfig::lan(sites);
        cfg.failure_timeout = Duration::from_secs(60);
        let mut net = TestNet::new(cfg);
        let mut attempts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        net.set_drop_fn(move |from, to, bytes| {
            let mut h = fnv(0xcbf2_9ce4_8422_2325 ^ seed, u64::from(from.0));
            h = fnv(h, u64::from(to.0));
            for &byte in bytes.iter() {
                h = fnv(h, u64::from(byte));
            }
            let n = attempts.entry(h).or_insert(0);
            *n += 1;
            mix64(fnv(h, *n)) & 0x7f < u64::from(loss_pct)
        });
        // (origin, txn, full outcome, each site's span vote).
        let mut expected: Vec<(u16, u64, Outcome, Vec<Option<u64>>)> = Vec::new();
        for (i, (site, reads, writes, back)) in stream.iter().enumerate() {
            let origin = site % (sites as u16);
            let start = full.last_committed().saturating_sub(*back);
            let req = CertRequest {
                site: SiteId(origin), txn: i as u64, start_seq: start,
                read_set: reads.clone(), write_set: writes.clone(), write_bytes: 0,
            };
            // No gc in this stream, so certification never truncates.
            let (of, _) = full.certify(&req).expect("window");
            let votes: Vec<Option<u64>> = spans
                .iter_mut()
                .map(|s| {
                    if pipelined {
                        let _probe = s.speculate(&req);
                        s.confirm_vote(&req).expect("window").0
                    } else {
                        s.vote(&req).expect("window").0
                    }
                })
                .collect();
            // PR 7 cluster-level vote box: merging all votes (a superset of
            // any covering set) must reproduce the full verdict.
            let merged = merge_votes(votes.iter().copied());
            match of {
                Outcome::Commit(_) => prop_assert_eq!(merged, None, "spurious conflict at {}", i),
                Outcome::Abort { conflict_seq } => {
                    prop_assert_eq!(merged, Some(conflict_seq), "conflict_seq diverged at {}", i)
                }
            }
            // Every site multicasts its verdict over the wire.
            for (s, conflict) in votes.iter().enumerate() {
                net.cast_vote(NodeId(s as u16), origin, i as u64, *conflict);
            }
            net.run_for(Duration::from_millis(2));
            for s in spans.iter_mut() {
                s.apply(&req, of);
            }
            expected.push((origin, i as u64, of, votes));
        }
        // Settle: heartbeat resends recover every lost vote.
        net.run_for(Duration::from_secs(3));
        for n in 0..sites {
            // Collect the wire votes this node received: exactly one per
            // (voter, txn), conflict bit-identical to the voter's span vote.
            let mut seen: std::collections::HashMap<(u16, u64), Vec<Option<Option<u64>>>> =
                std::collections::HashMap::new();
            for up in &net.upcalls[n] {
                if let Upcall::Vote { voter, vote } = up {
                    let slot = seen.entry((vote.origin, vote.txn)).or_insert_with(|| {
                        vec![None; sites]
                    });
                    prop_assert!(slot[voter.0 as usize].is_none(),
                        "node {} saw voter {} twice for txn {}", n, voter.0, vote.txn);
                    slot[voter.0 as usize] = Some(vote.conflict);
                }
            }
            for (origin, txn, of, votes) in &expected {
                let got = seen.get(&(*origin, *txn))
                    .unwrap_or_else(|| panic!("node {n} collected no votes for txn {txn}"));
                // The full vote set arrived: a covering quorum by
                // construction (every span has an owner among the voters).
                for (s, v) in votes.iter().enumerate() {
                    prop_assert_eq!(got[s], Some(*v),
                        "node {} vote from {} for txn {} diverged", n, s, txn);
                }
                // Quorum decision: merging the collected votes reproduces
                // the full-replication verdict exactly.
                let wire_merged = merge_votes(got.iter().map(|v| (*v).expect("all arrived")));
                match of {
                    Outcome::Commit(_) => prop_assert_eq!(wire_merged, None,
                        "node {} spurious wire conflict for txn {}", n, txn),
                    Outcome::Abort { conflict_seq } => prop_assert_eq!(
                        wire_merged, Some(*conflict_seq),
                        "node {} wire conflict_seq diverged for txn {}", n, txn),
                }
            }
        }
    }
}

proptest! {
    // Each case runs two full cluster simulations; a handful of cases per
    // CI run still sweeps plans x rf x seeds over time.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn replacement_preserves_outcomes(
        crash_sites in prop::collection::btree_set(0u16..3, 1..3),
        restarts in prop::collection::vec(any::<bool>(), 2),
        partition_roll in any::<bool>(),
        rf in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        // The re-placement tentpole's robustness property: random
        // crash/heal/restart plans at every replication factor leave the
        // DBSM outcomes intact. Re-placed runs are bit-identical across
        // double runs (the rendezvous election and vote re-collection are
        // deterministic), every commit log passes the rejoined chain
        // checker, and — via the cluster's internal first-decider
        // cross-check, armed in debug builds — every quorum decision
        // matches the full-replication oracle.
        use dbsm_testbed::core::{run_experiment, ExperimentConfig};
        use dbsm_testbed::fault::{check_logs_rejoined_multi, FaultPlan, FaultSpec};
        use dbsm_testbed::sim::SimTime;
        let crashes: Vec<u16> = crash_sites.iter().copied().collect();
        let mut plan = FaultPlan::none();
        for (i, &site) in crashes.iter().enumerate() {
            plan = plan.with(FaultSpec::Crash { site, at: SimTime::from_secs(8 + 2 * i as u64) });
            if restarts[i] {
                plan = plan
                    .with(FaultSpec::Restart { site, at: SimTime::from_secs(14 + 2 * i as u64) });
            }
        }
        if partition_roll && crashes.len() == 1 {
            // One segment excludes site 5 past the failure timeout: a
            // primary-component exclusion strands its spans exactly like a
            // crash, and the heal must not resurrect them elsewhere.
            plan = plan.with(FaultSpec::Partition {
                groups: vec![vec![0, 1, 2, 3, 4], vec![5]],
                at: SimTime::from_secs(12),
                heal_at: SimTime::from_secs(14),
            });
        }
        let mk = || {
            let mut cfg = ExperimentConfig::replicated(6, 60)
                .with_target(900)
                .with_replication_factor(rf)
                .with_seed(seed)
                .with_faults(plan.clone());
            cfg.think_mean = Duration::from_secs(1);
            cfg.max_sim = Duration::from_secs(300);
            cfg
        };
        let a = run_experiment(mk());
        let b = run_experiment(mk());
        prop_assert_eq!(&a.commit_logs, &b.commit_logs, "re-placed runs must be bit-identical");
        prop_assert_eq!(a.replacement_work, b.replacement_work);
        prop_assert_eq!(a.committed(), b.committed());
        let crashed: Vec<bool> = (0..6u16).map(|s| a.crashed_sites.contains(&s)).collect();
        let chain = check_logs_rejoined_multi(&a.commit_logs, &crashed, &a.rejoin_cuts());
        prop_assert!(chain.is_ok(), "chain check: {:?}", chain);
        prop_assert!(a.committed() > 300, "run made progress: {}", a.committed());
        // rf 1 leaves every crashed site's span with zero replicas: the
        // view change must re-home it (60 clients -> 6 warehouses, one per
        // site under round-robin).
        if rf == 1 {
            prop_assert!(
                a.replacement_work.rehomed_spans >= 1,
                "rf 1 crash must strand and re-home a span: {:?}",
                a.replacement_work
            );
        }
    }
}

proptest! {
    #[test]
    fn certification_outcome_only_depends_on_concurrent_history(
        writes in arb_rwset(8), reads in arb_rwset(8)
    ) {
        // A request whose snapshot includes every commit always commits.
        let mut c = Certifier::new();
        let w = CertRequest {
            site: SiteId(0), txn: 0, start_seq: 0,
            read_set: RwSet::new(), write_set: writes, write_bytes: 0,
        };
        c.certify(&w).expect("w");
        let snapshot = c.last_committed();
        let r = CertRequest {
            site: SiteId(1), txn: 0, start_seq: snapshot,
            read_set: reads, write_set: RwSet::new(), write_bytes: 0,
        };
        let (outcome, _) = c.certify(&r).expect("r");
        prop_assert!(outcome.is_commit());
    }

    #[test]
    fn nodeset_roundtrips_members(members in prop::collection::btree_set(0u16..64, 0..64)) {
        let set: NodeSet = members.iter().map(|m| NodeId(*m)).collect();
        prop_assert_eq!(set.len(), members.len());
        let back: Vec<u16> = set.iter().map(|n| n.0).collect();
        let expect: Vec<u16> = members.iter().copied().collect();
        prop_assert_eq!(back, expect, "iteration is sorted and complete");
    }

    #[test]
    fn nodeset_algebra_laws(a in prop::collection::btree_set(0u16..64, 0..32),
                            b in prop::collection::btree_set(0u16..64, 0..32)) {
        let sa: NodeSet = a.iter().map(|m| NodeId(*m)).collect();
        let sb: NodeSet = b.iter().map(|m| NodeId(*m)).collect();
        let union = sa.union(sb);
        prop_assert!(sa.is_subset(union));
        prop_assert!(sb.is_subset(union));
        let diff = sa.difference(sb);
        for n in diff.iter() {
            prop_assert!(sa.contains(n));
            prop_assert!(!sb.contains(n));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(values in prop::collection::vec(0.0f64..1e6, 1..256)) {
        let mut s: Samples = values.iter().copied().collect();
        let lo = s.quantile(0.0).expect("non-empty");
        let mid = s.quantile(0.5).expect("non-empty");
        let hi = s.quantile(1.0).expect("non-empty");
        prop_assert!(lo <= mid && mid <= hi);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo >= min && hi <= max);
    }

}

/// What a scheduled event does when it runs, besides logging its label.
#[derive(Debug, Clone, Copy)]
enum Effect {
    Log,
    /// Schedules a child `delay` ns later.
    Spawn(u64),
    /// Calls `Sim::stop` from inside the run loop.
    Stop,
}

/// One call on the kernel. Delays are in ns; `Cancel` picks among every id
/// handed out so far (executed, cancelled and pending alike), or `NONE`
/// when the pick falls past the end.
#[derive(Debug, Clone, Copy)]
enum KernelOp {
    At(u64, Effect),
    In(u64, Effect),
    Now(Effect),
    Cancel(usize),
    Step,
    RunUntil(u64),
    Run,
    Stop,
}

fn arb_delay() -> impl Strategy<Value = u64> {
    // Mostly ties and near events, some far timers in high radix buckets.
    prop_oneof![0u64..3, 0u64..200, (1u64 << 20)..(1u64 << 40)]
}

fn arb_effect() -> impl Strategy<Value = Effect> {
    (0u8..8, arb_delay()).prop_map(|(roll, d)| match roll {
        0 | 1 => Effect::Spawn(d),
        2 => Effect::Stop,
        _ => Effect::Log,
    })
}

fn arb_kernel_op() -> impl Strategy<Value = KernelOp> {
    prop_oneof![
        (arb_delay(), arb_effect()).prop_map(|(d, e)| KernelOp::At(d, e)),
        (arb_delay(), arb_effect()).prop_map(|(d, e)| KernelOp::In(d, e)),
        arb_effect().prop_map(KernelOp::Now),
        (0usize..64).prop_map(KernelOp::Cancel),
        (0usize..64).prop_map(KernelOp::Cancel),
        Just(KernelOp::Step),
        Just(KernelOp::Step),
        arb_delay().prop_map(KernelOp::RunUntil),
        Just(KernelOp::Run),
        Just(KernelOp::Stop),
    ]
}

/// The reference kernel: pending events in a `Vec` sorted by `(at, seq)`,
/// cancels recorded in a set and skipped when they surface.
#[derive(Default)]
struct ModelKernel {
    now: u64,
    executed: u64,
    next_seq: u64,
    queue: Vec<(u64, u64, u64, Effect)>, // (at, seq, label, effect)
    cancelled: BTreeSet<u64>,
    stop: bool,
    log: Vec<u64>,
    /// Seqs of every event scheduled, in scheduling order.
    ids: Vec<u64>,
}

impl ModelKernel {
    fn schedule(&mut self, at: u64, label: u64, effect: Effect) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = self.queue.partition_point(|e| (e.0, e.1) < (at, seq));
        self.queue.insert(i, (at, seq, label, effect));
        self.ids.push(seq);
    }

    fn step(&mut self, horizon: u64) -> bool {
        loop {
            let Some(&(at, seq, label, effect)) = self.queue.first() else { return false };
            if at > horizon {
                return false;
            }
            self.queue.remove(0);
            if self.cancelled.contains(&seq) {
                continue;
            }
            self.now = at;
            self.executed += 1;
            self.log.push(label);
            match effect {
                Effect::Log => {}
                Effect::Spawn(d) => self.schedule(at + d, label + 1_000_000, Effect::Log),
                Effect::Stop => self.stop = true,
            }
            return true;
        }
    }

    fn run(&mut self, horizon: u64) {
        while !std::mem::take(&mut self.stop) && self.step(horizon) {}
    }

    fn pending(&self) -> usize {
        self.queue.iter().filter(|e| !self.cancelled.contains(&e.1)).count()
    }
}

/// The kernel under test, with the ids it handed out (children included).
struct RealKernel {
    sim: Sim,
    log: Rc<RefCell<Vec<u64>>>,
    ids: Rc<RefCell<Vec<EventId>>>,
}

impl RealKernel {
    fn action(&self, label: u64, effect: Effect) -> impl FnOnce() + 'static {
        let (sim, log, ids) = (self.sim.clone(), self.log.clone(), self.ids.clone());
        move || {
            log.borrow_mut().push(label);
            match effect {
                Effect::Log => {}
                Effect::Spawn(d) => {
                    let log = log.clone();
                    let child = label + 1_000_000;
                    let id = sim
                        .schedule_in(Duration::from_nanos(d), move || log.borrow_mut().push(child));
                    ids.borrow_mut().push(id);
                }
                Effect::Stop => sim.stop(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The slab-and-radix kernel against a sorted-`Vec` reference: random
    /// schedules (absolute, relative, now), cancels of live, executed,
    /// already-cancelled, slot-reused and `NONE` ids, steps, windowed and
    /// unbounded runs and stops, inside and outside actions. Execution
    /// order, the clock, the executed count and the pending count agree
    /// after every call.
    #[test]
    fn event_kernel_matches_sorted_vec_model(
        ops in prop::collection::vec(arb_kernel_op(), 1..160),
    ) {
        let real = RealKernel {
            sim: Sim::new(),
            log: Rc::new(RefCell::new(Vec::new())),
            ids: Rc::new(RefCell::new(Vec::new())),
        };
        let mut model = ModelKernel::default();
        let label = Cell::new(0u64);
        let next_label = || {
            label.set(label.get() + 1);
            label.get()
        };
        for op in ops {
            match op {
                KernelOp::At(d, e) => {
                    let (l, at) = (next_label(), model.now + d);
                    let id = real.sim.schedule_at(SimTime::from_nanos(at), real.action(l, e));
                    real.ids.borrow_mut().push(id);
                    model.schedule(at, l, e);
                }
                KernelOp::In(d, e) => {
                    let l = next_label();
                    let id = real.sim.schedule_in(Duration::from_nanos(d), real.action(l, e));
                    real.ids.borrow_mut().push(id);
                    model.schedule(model.now + d, l, e);
                }
                KernelOp::Now(e) => {
                    let l = next_label();
                    let id = real.sim.schedule_now(real.action(l, e));
                    real.ids.borrow_mut().push(id);
                    model.schedule(model.now, l, e);
                }
                KernelOp::Cancel(pick) => {
                    let id = real.ids.borrow().get(pick).copied();
                    real.sim.cancel(id.unwrap_or(EventId::NONE));
                    if let Some(&seq) = model.ids.get(pick) {
                        model.cancelled.insert(seq);
                    }
                }
                KernelOp::Step => {
                    prop_assert_eq!(real.sim.step(), model.step(u64::MAX));
                }
                KernelOp::RunUntil(d) => {
                    let until = model.now + d;
                    real.sim.run_until(SimTime::from_nanos(until));
                    model.run(until);
                    model.now = model.now.max(until);
                }
                KernelOp::Run => {
                    real.sim.run();
                    model.run(u64::MAX);
                }
                KernelOp::Stop => {
                    real.sim.stop();
                    model.stop = true;
                }
            }
            prop_assert_eq!(real.ids.borrow().len(), model.ids.len());
            prop_assert_eq!(&*real.log.borrow(), &model.log);
            prop_assert_eq!(real.sim.now(), SimTime::from_nanos(model.now));
            prop_assert_eq!(real.sim.events_executed(), model.executed);
            prop_assert_eq!(real.sim.pending(), model.pending());
        }
    }
}
