//! # dbsm-tpcc — the TPC-C traffic generator (§3.2)
//!
//! Produces realistic OLTP load for the replicated-database model: the
//! TPC-C transaction mix (new order and payment at 44 % each), non-uniform
//! key selection (NURand), per-class access sets over a *virtual* database
//! sized at one warehouse per ten clients, per-class CPU-time distributions
//! calibrated to the paper's PostgreSQL profile (§4.1), and exponential
//! think times. Bimodal classes are split into homogeneous long/short
//! variants exactly as in the paper's Tables 1 and 2.
//!
//! # Examples
//!
//! ```
//! use dbsm_tpcc::{TpccConfig, TpccGen, TxnClass};
//!
//! let mut gen = TpccGen::new(TpccConfig::new(20));
//! assert_eq!(gen.warehouses(), 2);
//! let req = gen.next_request(0);
//! assert!(TxnClass::ALL.contains(&req.class));
//! assert!(req.spec.cpu > std::time::Duration::ZERO);
//! ```

#![warn(missing_docs)]

mod class;
mod gen;
mod nurand;
mod profile;
pub mod schema;

pub use class::TxnClass;
pub use gen::{ClientRequest, TpccConfig, TpccGen};
pub use nurand::{customer_id, item_id, last_name_id, nurand, NurandC};
pub use profile::{profile, ClassProfile};
