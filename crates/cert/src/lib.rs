//! # dbsm-cert — the DBSM certification prototype (real code)
//!
//! One of the two "real implementation" components the paper places under
//! simulation control (§3.3): tuple identifiers with the table id in the
//! high-order bits, sorted read/write sets with single-traversal conflict
//! detection, marshalling with realistic padding for written values, the
//! table-lock upgrade threshold for oversized read-sets, and the
//! deterministic certifier every replica runs over the totally ordered
//! request stream.
//!
//! Certification is pluggable behind the [`CertBackend`] trait:
//! [`LinearCertifier`] is the paper-faithful ordered-merge scan (re-exported
//! as [`Certifier`], its historical name), [`IndexedCertifier`] — the
//! default — answers the same conflict check from a write-history index in
//! O(request) probes. Both produce bit-identical decisions; select
//! one with [`CertBackendKind`].
//!
//! Partial replication's span-restricted certifier is the same
//! [`IndexedCertifier`], built with [`IndexedCertifier::with_span`] to index
//! only the spans a [`ShardKeyFn`] assigns it; per-site verdicts combine
//! with [`merge_votes`]. It also hosts the speculative certify/confirm
//! pipeline ([`IndexedCertifier::speculate`] / [`IndexedCertifier::confirm`])
//! used by the pipelined commit path to overlap certification with the
//! total-order broadcast.
//!
//! This crate is deliberately free of any simulation dependency: it is the
//! code "under test", driven identically by the simulation bridge and by
//! native deployments.
//!
//! # Examples
//!
//! ```
//! use dbsm_cert::{CertRequest, Certifier, Outcome, RwSet, SiteId, TableId, TupleId};
//!
//! let mut certifier = Certifier::new();
//! let t1 = CertRequest {
//!     site: SiteId(0),
//!     txn: 1,
//!     start_seq: 0,
//!     read_set: RwSet::new(),
//!     write_set: [TupleId::new(TableId(1), 7)].into_iter().collect(),
//!     write_bytes: 64,
//! };
//! let (outcome, _work) = certifier.certify(&t1)?;
//! assert_eq!(outcome, Outcome::Commit(1));
//! # Ok::<(), dbsm_cert::HistoryTruncated>(())
//! ```

#![warn(missing_docs)]

mod backend;
mod certifier;
mod fxhash;
mod marshal;
mod placement;
mod request;
mod rwset;
mod span;
mod tuple;

pub use backend::{CertBackend, CertBackendKind};
pub use certifier::{CertWork, Certifier, HistoryTruncated, LinearCertifier, Outcome};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use marshal::{marshal, marshalled_len, unmarshal, UnmarshalError, HEADER_LEN};
pub use placement::{IndexedCertifier, SpecResolution};
pub use request::CertRequest;
pub use rwset::RwSet;
pub use span::{merge_votes, ShardKeyFn};
pub use tuple::{TableId, TupleId, ROW_BITS, ROW_MASK};

/// Identifier of a database site (replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u16);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}
