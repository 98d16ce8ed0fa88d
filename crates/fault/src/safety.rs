//! The off-line safety check of §5.3: "we ensure that all operational sites
//! must commit exactly the same sequence of transactions by comparing logs
//! off-line after the simulation has finished."

use std::fmt;

/// One site's committed-transaction log: globally-identified transactions
/// `(origin site, per-site transaction number)` in commit order.
pub type CommitLog = Vec<(u16, u64)>;

/// A detected safety violation.
///
/// # Examples
///
/// ```
/// use dbsm_fault::{check_logs, Divergence};
///
/// let a = vec![(0u16, 1u64), (1, 1)];
/// let b = vec![(0u16, 1u64), (2, 1)];
/// let err = check_logs(&[a, b], &[false, false]).unwrap_err();
/// assert!(matches!(err, Divergence::Mismatch { position: 1, .. }));
/// assert!(err.to_string().contains("diverge at position 1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Two operational sites committed different transactions at the same
    /// position.
    Mismatch {
        /// First site.
        a: u16,
        /// Second site.
        b: u16,
        /// First differing position.
        position: usize,
        /// What `a` committed there (`None` = log ended).
        at_a: Option<(u16, u64)>,
        /// What `b` committed there.
        at_b: Option<(u16, u64)>,
    },
    /// A crashed site's log is not a prefix of the survivors' log (it
    /// committed something the group did not).
    CrashedNotPrefix {
        /// The crashed site.
        site: u16,
        /// First offending position.
        position: usize,
    },
    /// A site committed the same transaction twice.
    Duplicate {
        /// The site.
        site: u16,
        /// The duplicated transaction.
        txn: (u16, u64),
    },
    /// A rejoined site's log does not chain through its transfer cut: its
    /// pre-crash prefix or post-rejoin suffix diverges from the reference
    /// log. The *gap* between the two segments is legal (state transfer
    /// filled it); a divergent entry on either side is split-brain.
    RejoinedNotChained {
        /// The rejoined site.
        site: u16,
        /// First offending position in the site's own log.
        position: usize,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Mismatch { a, b, position, at_a, at_b } => {
                write!(f, "sites {a} and {b} diverge at position {position}: {at_a:?} vs {at_b:?}")
            }
            Divergence::CrashedNotPrefix { site, position } => {
                write!(f, "crashed site {site} committed beyond the group at position {position}")
            }
            Divergence::Duplicate { site, txn } => {
                write!(f, "site {site} committed {txn:?} twice")
            }
            Divergence::RejoinedNotChained { site, position } => {
                write!(
                    f,
                    "rejoined site {site} diverges from the transfer chain at position {position}"
                )
            }
        }
    }
}

impl std::error::Error for Divergence {}

/// Checks the DBSM safety condition over per-site commit logs.
///
/// Operational sites must have *identical* logs; crashed sites must hold a
/// *prefix* of the common log (they stopped, but never diverged); no site
/// may commit a transaction twice. When **every** site has crashed (e.g. a
/// partition left no primary component and all segments halted), the logs
/// must still form one chain: each must be a prefix of the longest — two
/// segments that committed different suffixes before halting are a
/// split-brain, not a clean stop.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if `logs` and `crashed` have different lengths.
///
/// # Examples
///
/// ```
/// use dbsm_fault::check_logs;
///
/// let log = vec![(0u16, 1u64), (1, 1)];
/// check_logs(&[log.clone(), log], &[false, false])?;
/// # Ok::<(), dbsm_fault::Divergence>(())
/// ```
pub fn check_logs(logs: &[CommitLog], crashed: &[bool]) -> Result<(), Divergence> {
    check_logs_rejoined(logs, crashed, &vec![Vec::new(); logs.len()])
}

/// Where a rejoined site's log chains through its state transfer: the site
/// halted holding `kept` commits (a prefix of the group's log), the
/// snapshot + delta-log transfer covered the group's commits up to position
/// `cut`, and everything the site commits after rejoining continues the
/// group's log from `cut`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinCut {
    /// Commits the site held when it crashed/halted (its pre-crash prefix
    /// length).
    pub kept: usize,
    /// Reference-log position the state transfer caught the site up to; its
    /// post-rejoin commits continue from here.
    pub cut: usize,
}

/// Reference-chain position of `pos` in a log that rejoined through
/// `cuts` (sorted by `kept`): positions before the first cut's `kept`
/// align one-to-one with the reference; a later position continues from
/// the **most recent** transfer cut whose `kept` it reached — each rejoin
/// re-bases the suffix that follows it.
fn ref_position(pos: usize, cuts: &[RejoinCut]) -> usize {
    match cuts.iter().rev().find(|c| c.kept <= pos) {
        Some(c) => c.cut + (pos - c.kept),
        None => pos,
    }
}

/// [`check_logs`] extended with rejoin cuts: `rejoins[site]` lists every
/// completed rejoin of the site, in completion order (`kept` is
/// non-decreasing — a site's log only grows between rejoins), as
/// `RunMetrics::rejoins` holds them. A site with cuts crashed/halted
/// and re-entered the view via state transfer, and its log must *chain
/// through each cut* instead of matching the reference exactly:
/// `log[..kept]` is its pre-crash prefix of the reference, the gap
/// `[kept, cut)` was filled by the transferred snapshot + delta log (legal,
/// not recorded as fresh commits), and the log segment that follows must
/// continue the reference from `cut` up to the next cut's `kept`; the final
/// segment continues from the last cut (a divergent segment is still
/// split-brain). A rejoined site may trail the reference — it commits from
/// its last cut onward at its own pace — but may never contradict it. With
/// an empty list the site follows the plain equality/prefix rules.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if `logs`, `crashed` and `rejoins` have different lengths.
///
/// # Examples
///
/// ```
/// use dbsm_fault::{check_logs_rejoined, RejoinCut};
///
/// let reference = vec![(0u16, 1u64), (1, 1), (0, 2), (1, 2), (0, 3)];
/// // Crashed holding 1 commit, transferred up to 2, committed (0, 2) after.
/// let once = vec![(0u16, 1u64), (0, 2)];
/// // The same, then crashed again at 2 commits, caught up to 4 and
/// // committed (0, 3).
/// let twice = vec![(0u16, 1u64), (0, 2), (0, 3)];
/// let (first, second) = (RejoinCut { kept: 1, cut: 2 }, RejoinCut { kept: 2, cut: 4 });
/// check_logs_rejoined(
///     &[reference, once, twice],
///     &[false, false, false],
///     &[vec![], vec![first], vec![first, second]],
/// )?;
/// # Ok::<(), dbsm_fault::Divergence>(())
/// ```
pub fn check_logs_rejoined(
    logs: &[CommitLog],
    crashed: &[bool],
    rejoins: &[Vec<RejoinCut>],
) -> Result<(), Divergence> {
    assert_eq!(logs.len(), crashed.len(), "one crash flag per site");
    assert_eq!(logs.len(), rejoins.len(), "one rejoin-cut list per site");
    // Cuts sorted by `kept` (completion order already is; be defensive).
    let rejoins: Vec<Vec<RejoinCut>> = rejoins
        .iter()
        .map(|cuts| {
            let mut cuts = cuts.clone();
            cuts.sort_by_key(|c| c.kept);
            cuts
        })
        .collect();
    // Duplicates first.
    for (site, log) in logs.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for txn in log {
            if !seen.insert(*txn) {
                return Err(Divergence::Duplicate { site: site as u16, txn: *txn });
            }
        }
    }
    // Rejoined sites follow the chain rule below, never the exact-equality
    // or plain-prefix rules — whatever their final crash flag says.
    let operational: Vec<usize> =
        (0..logs.len()).filter(|&i| !crashed[i] && rejoins[i].is_empty()).collect();
    // With no never-rejoined survivor there is no complete reference log:
    // every log has a transfer gap, so alignment runs against the *merged*
    // chain instead — each log claims the reference positions its segments
    // cover, and any two logs claiming different transactions for the same
    // position is split-brain (rolling kill-and-replace ends here).
    if operational.is_empty() && rejoins.iter().any(|r| !r.is_empty()) {
        return check_merged_chain(logs, &rejoins);
    }
    // Pairwise equality over operational sites (transitively sufficient
    // against the first one).
    if let Some(&first) = operational.first() {
        for &other in &operational[1..] {
            let (a, b) = (&logs[first], &logs[other]);
            let n = a.len().max(b.len());
            for pos in 0..n {
                if a.get(pos) != b.get(pos) {
                    return Err(Divergence::Mismatch {
                        a: first as u16,
                        b: other as u16,
                        position: pos,
                        at_a: a.get(pos).copied(),
                        at_b: b.get(pos).copied(),
                    });
                }
            }
        }
    }
    // Crashed sites: prefix of the reference log. With survivors the
    // reference is their common log; with none, the longest log stands in —
    // the prefix property then still orders every halted segment's history
    // on one chain.
    let reference = match operational.first() {
        Some(&first) => &logs[first],
        None => match logs.iter().max_by_key(|l| l.len()) {
            Some(longest) => longest,
            None => return Ok(()),
        },
    };
    for (site, log) in logs.iter().enumerate() {
        if !crashed[site] || !rejoins[site].is_empty() {
            continue;
        }
        for (pos, txn) in log.iter().enumerate() {
            if reference.get(pos) != Some(txn) {
                return Err(Divergence::CrashedNotPrefix { site: site as u16, position: pos });
            }
        }
    }
    // Rejoined sites: the log must chain through every transfer cut. Each
    // segment between consecutive cuts aligns with the reference from the
    // preceding cut's position; the gaps are exactly what the snapshots +
    // delta logs carried.
    for (site, log) in logs.iter().enumerate() {
        let cuts = &rejoins[site];
        if cuts.is_empty() {
            continue;
        }
        for (pos, txn) in log.iter().enumerate() {
            if reference.get(ref_position(pos, cuts)) != Some(txn) {
                return Err(Divergence::RejoinedNotChained { site: site as u16, position: pos });
            }
        }
    }
    Ok(())
}

/// The no-complete-reference case of [`check_logs_rejoined`]: every
/// site crashed or rejoined, so the reference chain is reconstructed by
/// merging the positions each log covers — its pre-crash prefix plus one
/// re-based segment per cut for a rejoined log, `[0, len)` for a
/// plain-crashed one. Two logs claiming different transactions for one
/// reference position diverge.
fn check_merged_chain(logs: &[CommitLog], rejoins: &[Vec<RejoinCut>]) -> Result<(), Divergence> {
    let mut merged: std::collections::HashMap<usize, (u16, (u16, u64))> =
        std::collections::HashMap::new();
    for (site, log) in logs.iter().enumerate() {
        for (pos, txn) in log.iter().enumerate() {
            let ref_pos = ref_position(pos, &rejoins[site]);
            match merged.entry(ref_pos) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((site as u16, *txn));
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    let (other, claimed) = *o.get();
                    if claimed != *txn {
                        return Err(Divergence::Mismatch {
                            a: other,
                            b: site as u16,
                            position: ref_pos,
                            at_a: Some(claimed),
                            at_b: Some(*txn),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(v: &[(u16, u64)]) -> CommitLog {
        v.to_vec()
    }

    #[test]
    fn identical_logs_pass() {
        let l = log(&[(0, 1), (1, 1), (0, 2)]);
        assert_eq!(check_logs(&[l.clone(), l.clone(), l], &[false; 3]), Ok(()));
    }

    #[test]
    fn mismatch_is_detected() {
        let a = log(&[(0, 1), (1, 1)]);
        let b = log(&[(0, 1), (2, 1)]);
        let err = check_logs(&[a, b], &[false, false]).expect_err("diverged");
        assert!(matches!(err, Divergence::Mismatch { position: 1, .. }), "{err}");
    }

    #[test]
    fn length_mismatch_between_operational_sites_is_detected() {
        let a = log(&[(0, 1), (1, 1)]);
        let b = log(&[(0, 1)]);
        let err = check_logs(&[a, b], &[false, false]).expect_err("diverged");
        assert!(matches!(err, Divergence::Mismatch { position: 1, at_b: None, .. }), "{err}");
    }

    #[test]
    fn crashed_prefix_passes() {
        let full = log(&[(0, 1), (1, 1), (0, 2)]);
        let prefix = log(&[(0, 1), (1, 1)]);
        assert_eq!(check_logs(&[full.clone(), full, prefix], &[false, false, true]), Ok(()));
    }

    #[test]
    fn crashed_divergence_is_detected() {
        let full = log(&[(0, 1), (1, 1)]);
        let rogue = log(&[(0, 1), (9, 9)]);
        let err =
            check_logs(&[full.clone(), full, rogue], &[false, false, true]).expect_err("rogue");
        assert_eq!(err, Divergence::CrashedNotPrefix { site: 2, position: 1 });
    }

    #[test]
    fn duplicates_are_detected() {
        let dup = log(&[(0, 1), (0, 1)]);
        let err = check_logs(&[dup], &[false]).expect_err("dup");
        assert_eq!(err, Divergence::Duplicate { site: 0, txn: (0, 1) });
    }

    #[test]
    fn empty_logs_pass() {
        assert_eq!(check_logs(&[vec![], vec![]], &[false, false]), Ok(()));
    }

    #[test]
    fn all_crashed_sites_must_form_one_chain() {
        // Every segment of a no-primary partition halted at a different
        // point: fine as long as the logs are prefixes of one chain.
        let long = log(&[(0, 1), (1, 1), (0, 2)]);
        let mid = log(&[(0, 1), (1, 1)]);
        let short = log(&[(0, 1)]);
        assert_eq!(check_logs(&[mid, long, short], &[true, true, true]), Ok(()));
    }

    #[test]
    fn rejoined_gap_filled_by_transfer_is_legal() {
        let reference = log(&[(0, 1), (1, 1), (0, 2), (1, 2), (0, 3)]);
        // Halted holding 2 commits, transfer caught it up to position 4,
        // then it committed (0, 3) itself.
        let rejoined = log(&[(0, 1), (1, 1), (0, 3)]);
        let cut = vec![RejoinCut { kept: 2, cut: 4 }];
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), rejoined.clone()],
                &[false, false, false],
                &[vec![], vec![], cut.clone()],
            ),
            Ok(()),
        );
        // Still catching up (no post-rejoin commits yet): also legal.
        let trailing = log(&[(0, 1), (1, 1)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), trailing],
                &[false, false, false],
                &[vec![], vec![], cut.clone()],
            ),
            Ok(()),
        );
        // The same log WITHOUT a rejoin cut is an operational divergence:
        // the gap is only legal when state transfer explains it.
        let err = check_logs(&[reference.clone(), reference, rejoined], &[false, false, false])
            .expect_err("gap without a cut");
        assert!(matches!(err, Divergence::Mismatch { position: 2, .. }), "{err}");
    }

    #[test]
    fn rejoined_divergence_is_still_split_brain() {
        let reference = log(&[(0, 1), (1, 1), (0, 2), (1, 2)]);
        let cut = vec![RejoinCut { kept: 1, cut: 3 }];
        // Divergent post-rejoin suffix: committed (9, 9) instead of (1, 2).
        let rogue_suffix = log(&[(0, 1), (9, 9)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), rogue_suffix],
                &[false, false, false],
                &[vec![], vec![], cut.clone()],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 1 }),
        );
        // Divergent pre-crash prefix: it never held a prefix of the group.
        let rogue_prefix = log(&[(7, 7), (1, 2)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), rogue_prefix],
                &[false, false, false],
                &[vec![], vec![], cut.clone()],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 0 }),
        );
        // Suffix running past the reference cannot be explained either.
        let overrun = log(&[(0, 1), (1, 2), (8, 8)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference, overrun],
                &[false, false, false],
                &[vec![], vec![], cut.clone()],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 2 }),
        );
    }

    #[test]
    fn rejoined_then_crashed_again_still_chains() {
        let reference = log(&[(0, 1), (1, 1), (0, 2), (1, 2)]);
        let cut = vec![RejoinCut { kept: 1, cut: 2 }];
        // Crashed again after one post-rejoin commit: chain rule applies,
        // not the plain prefix rule (which would reject the gap).
        let twice = log(&[(0, 1), (0, 2)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), twice],
                &[false, false, true],
                &[vec![], vec![], cut.clone()],
            ),
            Ok(()),
        );
        let rogue = log(&[(0, 1), (5, 5)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference, rogue],
                &[false, false, true],
                &[vec![], vec![], cut.clone()],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 1 }),
        );
    }

    #[test]
    fn two_rejoins_of_one_site_chain_through_both_cuts() {
        // Reference chain: six commits. Site 2 crashes at 1 commit, rejoins
        // with cut 2, commits (0, 2) itself, crashes again at 2 commits,
        // rejoins with cut 4, then commits (2, 2).
        let reference = log(&[(0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2)]);
        let twice = log(&[(0, 1), (0, 2), (2, 1), (2, 2)]);
        let cuts = vec![RejoinCut { kept: 1, cut: 2 }, RejoinCut { kept: 2, cut: 4 }];
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), twice.clone()],
                &[false, false, false],
                &[vec![], vec![], cuts.clone()],
            ),
            Ok(()),
        );
        // Keeping only the LAST cut — the pre-fix behaviour — mis-aligns
        // the middle segment: (0, 2) at position 1 would be checked against
        // reference position 1 = (1, 1).
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference.clone(), twice.clone()],
                &[false, false, false],
                &[vec![], vec![], vec![cuts[1]]],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 1 }),
        );
        // A divergent entry in any segment is still split-brain.
        let rogue = log(&[(0, 1), (0, 2), (9, 9), (2, 2)]);
        assert_eq!(
            check_logs_rejoined(
                &[reference.clone(), reference, rogue],
                &[false, false, false],
                &[vec![], vec![], cuts],
            ),
            Err(Divergence::RejoinedNotChained { site: 2, position: 2 }),
        );
    }

    #[test]
    fn ref_position_rebases_on_the_latest_reached_cut() {
        let cuts = [RejoinCut { kept: 2, cut: 5 }, RejoinCut { kept: 4, cut: 9 }];
        assert_eq!(ref_position(0, &cuts), 0);
        assert_eq!(ref_position(1, &cuts), 1);
        assert_eq!(ref_position(2, &cuts), 5);
        assert_eq!(ref_position(3, &cuts), 6);
        assert_eq!(ref_position(4, &cuts), 9);
        assert_eq!(ref_position(6, &cuts), 11);
        assert_eq!(ref_position(7, &[]), 7, "no cuts: identity");
    }

    #[test]
    fn check_logs_delegates_to_the_rejoin_checker() {
        let l = log(&[(0, 1), (1, 1)]);
        let rejoins = [vec![], vec![]];
        assert_eq!(
            check_logs(&[l.clone(), l.clone()], &[false, false]),
            check_logs_rejoined(&[l.clone(), l], &[false, false], &rejoins),
        );
        let e = Divergence::RejoinedNotChained { site: 3, position: 4 };
        assert!(e.to_string().contains("site 3"));
        assert!(e.to_string().contains("position 4"));
    }

    #[test]
    fn all_crashed_split_brain_is_detected() {
        // Two halted segments committed different suffixes: split-brain.
        let a = log(&[(0, 1), (1, 7)]);
        let b = log(&[(0, 1), (2, 9), (2, 10)]);
        let err = check_logs(&[a, b], &[true, true]).expect_err("split-brain");
        assert_eq!(err, Divergence::CrashedNotPrefix { site: 0, position: 1 });
    }

    #[test]
    fn every_site_rejoined_merges_one_chain() {
        // Rolling kill-and-replace: all three sites rejoined once, so no
        // complete reference log exists — each log covers its pre-crash
        // prefix plus its post-cut suffix of the common chain
        // [(0,1) (1,1) (2,1) (0,2) (1,2) (2,2)].
        let a = log(&[(0, 1), (0, 2), (1, 2), (2, 2)]); // kept 1, cut 3
        let b = log(&[(0, 1), (1, 1), (1, 2), (2, 2)]); // kept 2, cut 4
        let c = log(&[(0, 1), (1, 1), (2, 1), (2, 2)]); // kept 3, cut 5
        let rejoins = [
            vec![RejoinCut { kept: 1, cut: 3 }],
            vec![RejoinCut { kept: 2, cut: 4 }],
            vec![RejoinCut { kept: 3, cut: 5 }],
        ];
        check_logs_rejoined(&[a, b, c], &[false; 3], &rejoins).expect("one merged chain");
    }

    #[test]
    fn every_site_rejoined_still_catches_split_brain() {
        // Sites 0 and 1 claim different transactions for reference
        // position 2: split-brain survives no matter who rejoined.
        let a = log(&[(0, 1), (7, 7)]); // kept 1, cut 1 -> claims pos 2 = (7,7)
        let b = log(&[(0, 1), (1, 1), (9, 9)]); // kept 3 (no gap) -> pos 2 = (9,9)
        let rejoins = [vec![RejoinCut { kept: 1, cut: 2 }], vec![RejoinCut { kept: 3, cut: 3 }]];
        let err =
            check_logs_rejoined(&[a, b], &[false; 2], &rejoins).expect_err("divergent chains");
        assert!(matches!(err, Divergence::Mismatch { position: 2, .. }), "{err}");
    }
}
