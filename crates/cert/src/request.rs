//! The certification request: what a site multicasts when a transaction
//! enters the committing stage (§3.3).

use crate::rwset::RwSet;
use crate::SiteId;

/// Data gathered when a transaction is ready to commit, atomically multicast
/// to the group of replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRequest {
    /// Originating site.
    pub site: SiteId,
    /// Site-local transaction identifier (unique per site).
    pub txn: u64,
    /// Global sequence number of the last transaction committed at the
    /// originating site when this request was built — defines which
    /// committed transactions count as *concurrent* during certification.
    pub start_seq: u64,
    /// Identifiers of tuples read.
    pub read_set: RwSet,
    /// Identifiers of tuples written.
    pub write_set: RwSet,
    /// Cumulative size of the written values in bytes (sent as padding so
    /// message sizes match a real system's).
    pub write_bytes: u32,
}
