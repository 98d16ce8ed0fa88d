//! The traffic generator (§3.2): produces per-client streams of TPC-C
//! transaction requests with realistic access sets, CPU demands and think
//! times. Only the *workload* of TPC-C is reproduced — throughput/screen
//! constraints are deliberately ignored, as in the paper.

use crate::class::TxnClass;
use crate::nurand::{customer_id, item_id, last_name_id, NurandC};
use crate::profile::profile;
use crate::schema::{
    self, customer_row, district_index, district_row, history_row, item_row, name_index_row,
    new_order_row, order_line_row, order_row, stock_row, tuple_size, warehouse_row,
    warehouses_for_clients, CLIENTS_PER_WAREHOUSE, DISTRICTS_PER_WAREHOUSE,
};
use dbsm_cert::{FxHashMap, RwSet, TupleId};
use dbsm_db::TransactionSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Duration;

/// The paper's transaction mix (§3.2), which meets the TPC-C spec's minimum
/// shares (clause 5.2.3): new order and payment 44 % each, order status and
/// delivery 4 % each, and stock level the remaining 4 %. A request rolls one
/// uniform draw against the running sums in this order.
const NEWORDER_SHARE: f64 = 0.44;
const PAYMENT_SHARE: f64 = 0.44;
const ORDERSTATUS_SHARE: f64 = 0.04;
const DELIVERY_SHARE: f64 = 0.04;
/// Share of payments selecting the customer by last name (clause 2.5.1.2).
const PAYMENT_BY_NAME: f64 = 0.60;
/// Share of order-status selecting the customer by last name (clause 2.6.1.2).
const ORDERSTATUS_BY_NAME: f64 = 0.60;
/// Share of payments whose customer belongs to a remote warehouse
/// (clause 2.5.1.2).
const REMOTE_PAYMENT: f64 = 0.15;
/// Share of order lines supplied by a remote warehouse (clause 2.4.1.5).
const REMOTE_ITEM: f64 = 0.01;
/// Share of new orders rolled back by the user (clause 2.4.1.4).
const NEWORDER_ROLLBACK: f64 = 0.01;

/// Generator configuration: the client population, its think time and the
/// seed. Everything else is fixed at the TPC-C values: the 44/44/4/4/4 mix,
/// 60 % of payments and order-status by last name, 15 % remote payments,
/// 1 % remote order lines and 1 % new-order rollbacks.
#[derive(Debug, Clone, PartialEq)]
pub struct TpccConfig {
    /// Emulated clients; the database is sized at one warehouse per ten
    /// clients, as in the paper.
    pub clients: usize,
    /// Mean of the exponential think time between transactions.
    pub think_mean: Duration,
    /// Master seed.
    pub seed: u64,
}

impl TpccConfig {
    /// Standard configuration for `clients` emulated clients.
    pub fn new(clients: usize) -> Self {
        TpccConfig { clients, think_mean: Duration::from_secs(10), seed: 42 }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// The transaction class.
    pub class: TxnClass,
    /// The executable specification (access sets, CPU, flags).
    pub spec: TransactionSpec,
}

#[derive(Debug, Default)]
struct DistrictState {
    next_o_id: u64,
    /// FIFO of undelivered orders: `(o_id, customer, ol_cnt)`.
    undelivered: VecDeque<(u64, u64, u64)>,
    /// Ring of the most recent orders for stock-level scans.
    recent: VecDeque<(u64, u64)>,
}

/// The TPC-C traffic generator: shared workload state (order counters,
/// undelivered queues) plus a deterministic RNG.
#[derive(Debug)]
pub struct TpccGen {
    think_mean: Duration,
    warehouses: u64,
    rng: SmallRng,
    nurand_c: NurandC,
    districts: Vec<DistrictState>,
    /// `(district index, customer) -> (last order id, ol_cnt)`, only looked
    /// up by key and never iterated.
    last_order: FxHashMap<(u64, u64), (u64, u64)>,
    history_counter: u64,
}

impl TpccGen {
    /// Creates a generator for the configured client population.
    pub fn new(cfg: TpccConfig) -> Self {
        let warehouses = warehouses_for_clients(cfg.clients);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let nurand_c = NurandC::generate(&mut rng);
        let n_districts = (warehouses * DISTRICTS_PER_WAREHOUSE) as usize;
        let mut districts = Vec::with_capacity(n_districts);
        for _ in 0..n_districts {
            districts.push(DistrictState { next_o_id: 3001, ..DistrictState::default() });
        }
        TpccGen {
            think_mean: cfg.think_mean,
            warehouses,
            rng,
            nurand_c,
            districts,
            last_order: FxHashMap::default(),
            history_counter: 0,
        }
    }

    /// Number of warehouses backing the run.
    pub fn warehouses(&self) -> u64 {
        self.warehouses
    }

    /// The client's home warehouse (1-based).
    pub fn home_warehouse(&self, client: usize) -> u64 {
        (client / CLIENTS_PER_WAREHOUSE) as u64 % self.warehouses + 1
    }

    /// Draws the think time before a client's next request.
    pub fn think_time(&mut self) -> Duration {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        Duration::from_secs_f64(-self.think_mean.as_secs_f64() * (1.0 - u).ln())
    }

    /// Generates the next request for `client`, rolling the mix.
    pub fn next_request(&mut self, client: usize) -> ClientRequest {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let class = if roll < NEWORDER_SHARE {
            TxnClass::NewOrder
        } else if roll < NEWORDER_SHARE + PAYMENT_SHARE {
            if self.rng.gen_bool(PAYMENT_BY_NAME) {
                TxnClass::PaymentLong
            } else {
                TxnClass::PaymentShort
            }
        } else if roll < NEWORDER_SHARE + PAYMENT_SHARE + ORDERSTATUS_SHARE {
            if self.rng.gen_bool(ORDERSTATUS_BY_NAME) {
                TxnClass::OrderStatusLong
            } else {
                TxnClass::OrderStatusShort
            }
        } else if roll < NEWORDER_SHARE + PAYMENT_SHARE + ORDERSTATUS_SHARE + DELIVERY_SHARE {
            TxnClass::Delivery
        } else {
            TxnClass::StockLevel
        };
        self.request_for(client, class)
    }

    /// Generates a request of a specific class (used by targeted benches).
    pub fn request_for(&mut self, client: usize, class: TxnClass) -> ClientRequest {
        let w = self.home_warehouse(client);
        let spec = match class {
            TxnClass::NewOrder => self.gen_neworder(w),
            TxnClass::PaymentLong => self.gen_payment(w, true),
            TxnClass::PaymentShort => self.gen_payment(w, false),
            TxnClass::OrderStatusLong => self.gen_orderstatus(w, true),
            TxnClass::OrderStatusShort => self.gen_orderstatus(w, false),
            TxnClass::Delivery => self.gen_delivery(w),
            TxnClass::StockLevel => self.gen_stocklevel(client, w),
        };
        ClientRequest { class, spec }
    }

    fn rand_district(&mut self) -> u64 {
        self.rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE)
    }

    fn rand_remote_warehouse(&mut self, home: u64) -> u64 {
        if self.warehouses == 1 {
            return home;
        }
        loop {
            let w = self.rng.gen_range(1..=self.warehouses);
            if w != home {
                return w;
            }
        }
    }

    fn finish(
        &mut self,
        class: TxnClass,
        reads: Vec<TupleId>,
        writes: Vec<TupleId>,
        user_abort: bool,
    ) -> TransactionSpec {
        let write_set = RwSet::from_unsorted(writes);
        let write_bytes: u32 = write_set.ids().iter().map(|t| tuple_size(t.table())).sum();
        let cpu = profile(class).sample(&mut self.rng);
        TransactionSpec {
            read_set: RwSet::from_unsorted(reads),
            write_set,
            write_bytes,
            cpu,
            user_abort,
            read_only: class.read_only(),
            relaxed: class == TxnClass::StockLevel,
        }
    }

    fn gen_neworder(&mut self, w: u64) -> TransactionSpec {
        let d = self.rand_district();
        let didx = district_index(w, d);
        let c = customer_id(&mut self.rng, &self.nurand_c);
        let ol_cnt = self.rng.gen_range(5..=15u64);
        let mut reads = vec![warehouse_row(w), district_row(w, d), customer_row(w, d, c)];
        let mut writes = vec![district_row(w, d)];
        let o_id = {
            let ds = &mut self.districts[didx as usize];
            let o = ds.next_o_id;
            ds.next_o_id += 1;
            o
        };
        writes.push(order_row(didx, o_id));
        writes.push(new_order_row(didx, o_id));
        for l in 1..=ol_cnt {
            let i = item_id(&mut self.rng, &self.nurand_c);
            let supply_w =
                if self.rng.gen_bool(REMOTE_ITEM) { self.rand_remote_warehouse(w) } else { w };
            reads.push(item_row(i));
            reads.push(stock_row(supply_w, i));
            writes.push(stock_row(supply_w, i));
            writes.push(order_line_row(didx, o_id, l));
        }
        let user_abort = self.rng.gen_bool(NEWORDER_ROLLBACK);
        if !user_abort {
            let ds = &mut self.districts[didx as usize];
            ds.undelivered.push_back((o_id, c, ol_cnt));
            if ds.recent.len() == 20 {
                ds.recent.pop_front();
            }
            ds.recent.push_back((o_id, ol_cnt));
            self.last_order.insert((didx, c), (o_id, ol_cnt));
        }
        self.finish(TxnClass::NewOrder, reads, writes, user_abort)
    }

    fn gen_payment(&mut self, w: u64, by_name: bool) -> TransactionSpec {
        let d = self.rand_district();
        // Customer resides at home 85 % of the time, remote 15 %.
        let (cw, cd) = if self.rng.gen_bool(REMOTE_PAYMENT) {
            (self.rand_remote_warehouse(w), self.rand_district())
        } else {
            (w, d)
        };
        let cdidx = district_index(cw, cd);
        let mut reads = vec![warehouse_row(w), district_row(w, d)];
        let mut writes = vec![warehouse_row(w), district_row(w, d)];
        let customer = if by_name {
            let name = last_name_id(&mut self.rng, &self.nurand_c);
            reads.push(name_index_row(cdidx, name));
            // The by-name path scans the matching customers (≈3 of 3000
            // share a last name) and picks the middle one; derive the
            // candidate set deterministically from the name so concurrent
            // same-name lookups touch the same rows.
            let span = schema::CUSTOMERS_PER_DISTRICT / schema::LAST_NAMES;
            let first = name * span + 1;
            for k in 0..span.min(3) {
                reads.push(customer_row(cw, cd, first + k));
            }
            first + span.min(3) / 2
        } else {
            let c = customer_id(&mut self.rng, &self.nurand_c);
            reads.push(customer_row(cw, cd, c));
            c
        };
        writes.push(customer_row(cw, cd, customer));
        let h = self.history_counter;
        self.history_counter += 1;
        writes.push(history_row(h));
        let class = if by_name { TxnClass::PaymentLong } else { TxnClass::PaymentShort };
        self.finish(class, reads, writes, false)
    }

    fn gen_orderstatus(&mut self, w: u64, by_name: bool) -> TransactionSpec {
        let d = self.rand_district();
        let didx = district_index(w, d);
        let mut reads = Vec::new();
        let customer = if by_name {
            let name = last_name_id(&mut self.rng, &self.nurand_c);
            reads.push(name_index_row(didx, name));
            let span = schema::CUSTOMERS_PER_DISTRICT / schema::LAST_NAMES;
            let first = name * span + 1;
            for k in 0..span.min(3) {
                reads.push(customer_row(w, d, first + k));
            }
            first + span.min(3) / 2
        } else {
            let c = customer_id(&mut self.rng, &self.nurand_c);
            reads.push(customer_row(w, d, c));
            c
        };
        if let Some(&(o_id, ol_cnt)) = self.last_order.get(&(didx, customer)) {
            reads.push(order_row(didx, o_id));
            for l in 1..=ol_cnt {
                reads.push(order_line_row(didx, o_id, l));
            }
        }
        let class = if by_name { TxnClass::OrderStatusLong } else { TxnClass::OrderStatusShort };
        self.finish(class, reads, Vec::new(), false)
    }

    fn gen_delivery(&mut self, w: u64) -> TransactionSpec {
        let mut reads = vec![warehouse_row(w)];
        let mut writes = Vec::new();
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            let didx = district_index(w, d);
            let Some((o_id, c, ol_cnt)) = self.districts[didx as usize].undelivered.pop_front()
            else {
                continue;
            };
            reads.push(new_order_row(didx, o_id));
            reads.push(order_row(didx, o_id));
            reads.push(customer_row(w, d, c));
            writes.push(new_order_row(didx, o_id));
            writes.push(order_row(didx, o_id));
            writes.push(customer_row(w, d, c));
            for l in 1..=ol_cnt {
                reads.push(order_line_row(didx, o_id, l));
                writes.push(order_line_row(didx, o_id, l));
            }
        }
        self.finish(TxnClass::Delivery, reads, writes, false)
    }

    fn gen_stocklevel(&mut self, client: usize, w: u64) -> TransactionSpec {
        // Stock level is bound to the terminal's own district (spec §2.8.1).
        let d = (client % DISTRICTS_PER_WAREHOUSE as usize) as u64 + 1;
        let didx = district_index(w, d);
        let mut reads = vec![district_row(w, d)];
        let recent: Vec<(u64, u64)> =
            self.districts[didx as usize].recent.iter().copied().collect();
        for (o_id, ol_cnt) in recent {
            for l in 1..=ol_cnt {
                reads.push(order_line_row(didx, o_id, l));
                let i = item_id(&mut self.rng, &self.nurand_c);
                reads.push(stock_row(w, i));
            }
        }
        self.finish(TxnClass::StockLevel, reads, Vec::new(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(clients: usize) -> TpccGen {
        TpccGen::new(TpccConfig::new(clients))
    }

    /// FNV-1a digest of the first 20 000 requests at 100 clients and seed
    /// 42, each followed by a think-time draw: class, read and write ids,
    /// CPU, write bytes and the three flags. Pins the generator's output
    /// stream (and so every workload's request sequence) across refactors.
    #[test]
    fn golden_request_stream_digest() {
        const GOLDEN: u64 = 0x499e_0597_4171_7bc0;
        let mut g = generator(100);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for k in 0..20_000 {
            let r = g.next_request(k % 100);
            let s = &r.spec;
            eat(u64::from(r.class.index()));
            for set in [&s.read_set, &s.write_set] {
                eat(set.len() as u64);
                for t in set.ids() {
                    eat(t.as_raw());
                }
            }
            eat(s.cpu.as_nanos() as u64);
            eat(u64::from(s.write_bytes));
            eat(u64::from(s.user_abort) | u64::from(s.read_only) << 1 | u64::from(s.relaxed) << 2);
            eat(g.think_time().as_nanos() as u64);
        }
        assert_eq!(h, GOLDEN, "request stream digest moved: {h:#018x}");
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = generator(100);
        let mut counts = [0u32; 7];
        let n = 20_000;
        for k in 0..n {
            let r = g.next_request(k % 100);
            counts[r.class.index() as usize] += 1;
        }
        let frac = |c: TxnClass| f64::from(counts[c.index() as usize]) / f64::from(n as u32);
        let neworder = frac(TxnClass::NewOrder);
        let payment = frac(TxnClass::PaymentLong) + frac(TxnClass::PaymentShort);
        assert!((neworder - 0.44).abs() < 0.02, "neworder {neworder}");
        assert!((payment - 0.44).abs() < 0.02, "payment {payment}");
        // Long/short split ≈ 60/40 within payment.
        let long_share = frac(TxnClass::PaymentLong) / payment;
        assert!((long_share - 0.6).abs() < 0.05, "long share {long_share}");
    }

    #[test]
    fn neworder_sets_have_spec_shape() {
        let mut g = generator(10);
        let r = g.request_for(0, TxnClass::NewOrder);
        let spec = r.spec;
        assert!(!spec.read_only);
        // district + order + neworder + (stock + orderline) per line.
        let lines = (spec.write_set.len() - 3) / 2;
        assert!((5..=15).contains(&lines), "lines {lines}");
        assert!(spec.write_set.contains(district_row(1, 1)) || spec.write_set.len() > 3);
        assert!(spec.write_bytes > 0);
        assert!(spec.cpu > Duration::ZERO);
    }

    #[test]
    fn payment_updates_the_home_warehouse_row() {
        let mut g = generator(10);
        for _ in 0..20 {
            let r = g.request_for(3, TxnClass::PaymentShort);
            assert!(r.spec.write_set.contains(warehouse_row(1)), "home warehouse hot spot");
            assert!(!r.spec.read_only);
        }
    }

    #[test]
    fn same_name_payments_collide_on_customers() {
        // Two by-name payments drawing the same last name must read/write
        // overlapping customer rows (the paper's Table 1 relies on this).
        let mut g = generator(10);
        let mut seen: Vec<RwSet> = Vec::new();
        let mut collisions = 0;
        for _ in 0..300 {
            let r = g.request_for(0, TxnClass::PaymentLong);
            for prev in &seen {
                if prev.intersects(&r.spec.write_set) {
                    collisions += 1;
                    break;
                }
            }
            seen.push(r.spec.write_set);
        }
        assert!(collisions > 0, "by-name payments never collided");
    }

    #[test]
    fn orderstatus_reads_the_last_order() {
        let mut g = generator(10);
        // Create some orders first. The NURand customer draw is shared
        // between new-order and order-status, but a hit on the same
        // (district, customer) pair is still rare — seed enough orders and
        // probe until one lands so the test is robust to the RNG stream.
        for _ in 0..300 {
            let _ = g.request_for(0, TxnClass::NewOrder);
        }
        let mut with_order = 0;
        for _ in 0..2000 {
            let r = g.request_for(0, TxnClass::OrderStatusShort);
            assert!(r.spec.read_only);
            assert!(r.spec.write_set.is_empty());
            if r.spec.read_set.len() > 1 {
                with_order += 1;
                break;
            }
        }
        assert!(with_order > 0, "some order-status hits an existing order");
    }

    #[test]
    fn delivery_consumes_undelivered_orders() {
        let mut g = generator(10);
        for _ in 0..30 {
            let _ = g.request_for(0, TxnClass::NewOrder);
        }
        let r = g.request_for(0, TxnClass::Delivery);
        assert!(!r.spec.write_set.is_empty(), "delivers pending orders");
        // Orders delivered once are gone.
        let mut total_writes = r.spec.write_set.len();
        for _ in 0..10 {
            total_writes += g.request_for(0, TxnClass::Delivery).spec.write_set.len();
        }
        let empty = g.request_for(0, TxnClass::Delivery);
        assert!(empty.spec.write_set.is_empty(), "queue exhausted");
        assert!(total_writes > 0);
    }

    #[test]
    fn stocklevel_is_relaxed_read_only() {
        let mut g = generator(10);
        for _ in 0..30 {
            let _ = g.request_for(0, TxnClass::NewOrder);
        }
        let r = g.request_for(0, TxnClass::StockLevel);
        assert!(r.spec.read_only);
        assert!(r.spec.relaxed);
        assert!(r.spec.read_set.len() > 1, "scans recent order lines");
    }

    #[test]
    fn think_times_are_exponential_with_configured_mean() {
        let mut g = generator(10);
        let n = 5000;
        let total: f64 = (0..n).map(|_| g.think_time().as_secs_f64()).sum();
        let mean = total / f64::from(n as u32);
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = generator(50);
        let mut b = generator(50);
        for k in 0..200 {
            let ra = a.next_request(k % 50);
            let rb = b.next_request(k % 50);
            assert_eq!(ra.class, rb.class);
            assert_eq!(ra.spec.read_set, rb.spec.read_set);
            assert_eq!(ra.spec.write_set, rb.spec.write_set);
        }
    }

    #[test]
    fn clients_map_to_warehouses_in_tens() {
        let g = generator(25);
        assert_eq!(g.warehouses(), 3);
        assert_eq!(g.home_warehouse(0), 1);
        assert_eq!(g.home_warehouse(9), 1);
        assert_eq!(g.home_warehouse(10), 2);
        assert_eq!(g.home_warehouse(24), 3);
    }

    #[test]
    fn remote_items_touch_other_warehouses() {
        // At the spec's 1 % per order line (about 10 % of new orders), 500
        // new orders all but surely supply some line from another warehouse.
        let mut g = generator(100);
        let home_lo = stock_row(1, 1);
        let home_hi = stock_row(1, schema::STOCK_PER_WAREHOUSE);
        let remote = (0..500)
            .filter(|_| {
                let r = g.request_for(0, TxnClass::NewOrder);
                r.spec
                    .write_set
                    .ids()
                    .iter()
                    .any(|t| t.table() == schema::STOCK && (*t < home_lo || *t > home_hi))
            })
            .count();
        assert!(remote > 0, "no remote stock touched in 500 new orders");
    }
}
