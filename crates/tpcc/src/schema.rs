//! TPC-C schema: table identifiers, cardinalities, tuple sizes and row-id
//! layout.
//!
//! The database is *virtual*: only identifiers and sizes exist (the paper's
//! prototype likewise manipulates 64-bit tuple identifiers and uses tuple
//! sizes for storage accounting and message padding, §3.3). Row numbers are
//! packed into the 48-bit row field of [`TupleId`].

use dbsm_cert::{TableId, TupleId};

/// Warehouse table.
pub const WAREHOUSE: TableId = TableId(1);
/// District table (10 per warehouse).
pub const DISTRICT: TableId = TableId(2);
/// Customer table (3 000 per district).
pub const CUSTOMER: TableId = TableId(3);
/// History table (append-only).
pub const HISTORY: TableId = TableId(4);
/// New-order table.
pub const NEW_ORDER: TableId = TableId(5);
/// Order table.
pub const ORDER: TableId = TableId(6);
/// Order-line table.
pub const ORDER_LINE: TableId = TableId(7);
/// Item table (100 000 rows, fixed).
pub const ITEM: TableId = TableId(8);
/// Stock table (100 000 per warehouse).
pub const STOCK: TableId = TableId(9);
/// Customer last-name index blocks (by-name lookups read these).
pub const CUSTOMER_NAME_IDX: TableId = TableId(10);

/// Districts per warehouse (TPC-C §1.2).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
/// Customers per district.
pub const CUSTOMERS_PER_DISTRICT: u64 = 3_000;
/// Items in the catalogue.
pub const ITEMS: u64 = 100_000;
/// Stock rows per warehouse.
pub const STOCK_PER_WAREHOUSE: u64 = 100_000;
/// Emulated clients (terminals) per warehouse (TPC-C §4.2: 10).
pub const CLIENTS_PER_WAREHOUSE: usize = 10;
/// Distinct last names addressable by NURand(255).
pub const LAST_NAMES: u64 = 1_000;

/// Approximate row sizes in bytes (TPC-C §1.3 storage clause; the paper
/// quotes "each ranging from 8 to 655 bytes").
pub mod tuple_bytes {
    /// Warehouse row.
    pub const WAREHOUSE: u32 = 89;
    /// District row.
    pub const DISTRICT: u32 = 95;
    /// Customer row.
    pub const CUSTOMER: u32 = 655;
    /// History row.
    pub const HISTORY: u32 = 46;
    /// New-order row.
    pub const NEW_ORDER: u32 = 8;
    /// Order row.
    pub const ORDER: u32 = 24;
    /// Order-line row.
    pub const ORDER_LINE: u32 = 54;
    /// Item row.
    pub const ITEM: u32 = 82;
    /// Stock row.
    pub const STOCK: u32 = 306;
}

/// Size in bytes of a tuple of `table`.
pub fn tuple_size(table: TableId) -> u32 {
    match table {
        WAREHOUSE => tuple_bytes::WAREHOUSE,
        DISTRICT => tuple_bytes::DISTRICT,
        CUSTOMER => tuple_bytes::CUSTOMER,
        HISTORY => tuple_bytes::HISTORY,
        NEW_ORDER => tuple_bytes::NEW_ORDER,
        ORDER => tuple_bytes::ORDER,
        ORDER_LINE => tuple_bytes::ORDER_LINE,
        ITEM => tuple_bytes::ITEM,
        STOCK => tuple_bytes::STOCK,
        CUSTOMER_NAME_IDX => 64,
        _ => 64,
    }
}

/// 1-based warehouse row.
pub fn warehouse_row(w: u64) -> TupleId {
    TupleId::new(WAREHOUSE, w)
}

/// District row for warehouse `w` (1-based) and district `d` in `1..=10`.
pub fn district_row(w: u64, d: u64) -> TupleId {
    TupleId::new(DISTRICT, (w - 1) * DISTRICTS_PER_WAREHOUSE + d)
}

/// Dense 0-based district index.
pub fn district_index(w: u64, d: u64) -> u64 {
    (w - 1) * DISTRICTS_PER_WAREHOUSE + (d - 1)
}

/// Customer row.
pub fn customer_row(w: u64, d: u64, c: u64) -> TupleId {
    TupleId::new(CUSTOMER, district_index(w, d) * CUSTOMERS_PER_DISTRICT + c)
}

/// Stock row for warehouse `w`, item `i`.
pub fn stock_row(w: u64, i: u64) -> TupleId {
    TupleId::new(STOCK, (w - 1) * STOCK_PER_WAREHOUSE + i)
}

/// Item row.
pub fn item_row(i: u64) -> TupleId {
    TupleId::new(ITEM, i)
}

/// Order row: district index in the high bits, order number (mod 2^24) low.
pub fn order_row(dist_idx: u64, o_id: u64) -> TupleId {
    TupleId::new(ORDER, ((dist_idx + 1) << 24) | (o_id & 0xFF_FFFF))
}

/// New-order row (mirrors the order row in the NEW_ORDER table).
pub fn new_order_row(dist_idx: u64, o_id: u64) -> TupleId {
    TupleId::new(NEW_ORDER, ((dist_idx + 1) << 24) | (o_id & 0xFF_FFFF))
}

/// Order-line row `l` (1-based) of an order.
pub fn order_line_row(dist_idx: u64, o_id: u64, l: u64) -> TupleId {
    TupleId::new(ORDER_LINE, ((((dist_idx + 1) << 24) | (o_id & 0xFF_FFFF)) << 4) | l)
}

/// History row from a global append counter.
pub fn history_row(counter: u64) -> TupleId {
    TupleId::new(HISTORY, counter + 1)
}

/// Last-name index block for district `dist_idx`, name id `name`.
pub fn name_index_row(dist_idx: u64, name: u64) -> TupleId {
    TupleId::new(CUSTOMER_NAME_IDX, dist_idx * LAST_NAMES + name + 1)
}

/// Warehouses needed for `clients` emulated clients (10 clients per
/// warehouse, as the paper configures the database size "according to the
/// number of clients as each warehouse supports 10 emulated clients").
pub fn warehouses_for_clients(clients: usize) -> u64 {
    (clients.div_ceil(CLIENTS_PER_WAREHOUSE)).max(1) as u64
}

/// The 1-based home warehouse of a row-level tuple, inverted from the row
/// layouts above, or `None` for tuples with no home warehouse: the shared
/// item catalogue, the global-counter history table, table-level entries
/// and unknown tables.
///
/// This is the locality axis of TPC-C — a transaction's accesses cluster
/// around its terminal's warehouse — and therefore the natural unit of
/// partial replication.
///
/// # Examples
///
/// ```
/// use dbsm_tpcc::schema::{home_warehouse, item_row, stock_row};
///
/// assert_eq!(home_warehouse(stock_row(7, 123)), Some(7));
/// assert_eq!(home_warehouse(item_row(123)), None);
/// ```
pub fn home_warehouse(id: TupleId) -> Option<u64> {
    if id.is_table_level() {
        return None;
    }
    let row = id.row();
    let from_district_index = |dist_idx: u64| dist_idx / DISTRICTS_PER_WAREHOUSE + 1;
    match id.table() {
        WAREHOUSE => Some(row),
        DISTRICT => Some((row - 1) / DISTRICTS_PER_WAREHOUSE + 1),
        CUSTOMER => Some(from_district_index((row - 1) / CUSTOMERS_PER_DISTRICT)),
        STOCK => Some((row - 1) / STOCK_PER_WAREHOUSE + 1),
        ORDER | NEW_ORDER => Some(from_district_index((row >> 24) - 1)),
        ORDER_LINE => Some(from_district_index((row >> 28) - 1)),
        CUSTOMER_NAME_IDX => Some(from_district_index((row - 1) / LAST_NAMES)),
        _ => None, // ITEM, HISTORY and anything unknown have no home.
    }
}

/// The partial-replication span key: the 0-based home warehouse, or `None`
/// for tuples without one, which every replica stores. Matches the
/// [`dbsm_cert::ShardKeyFn`] signature, so it plugs straight into
/// [`dbsm_cert::IndexedCertifier::with_span`] and the placement map's span
/// lookups.
pub fn home_warehouse_shard_key(id: TupleId) -> Option<u64> {
    home_warehouse(id).map(|w| w - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_ids_are_unique_across_tables() {
        let ids = [
            warehouse_row(1),
            district_row(1, 1),
            customer_row(1, 1, 1),
            stock_row(1, 1),
            item_row(1),
            order_row(0, 1),
            new_order_row(0, 1),
            order_line_row(0, 1, 1),
            history_row(0),
            name_index_row(0, 0),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn district_rows_distinct_per_warehouse() {
        assert_ne!(district_row(1, 10), district_row(2, 1));
        assert_eq!(district_row(2, 1).row(), 11);
    }

    #[test]
    fn customer_rows_cover_districts() {
        let a = customer_row(1, 1, CUSTOMERS_PER_DISTRICT);
        let b = customer_row(1, 2, 1);
        assert!(a.row() < b.row());
    }

    #[test]
    fn order_line_rows_nest_within_orders() {
        let o1l1 = order_line_row(0, 1, 1);
        let o1l15 = order_line_row(0, 1, 15);
        let o2l1 = order_line_row(0, 2, 1);
        assert!(o1l1.row() < o1l15.row());
        assert!(o1l15.row() < o2l1.row());
    }

    #[test]
    fn warehouse_scaling_matches_paper() {
        assert_eq!(warehouses_for_clients(2000), 200);
        assert_eq!(warehouses_for_clients(15), 2);
        assert_eq!(warehouses_for_clients(1), 1);
        assert_eq!(warehouses_for_clients(0), 1);
    }

    #[test]
    fn tuple_sizes_span_papers_range() {
        assert_eq!(tuple_size(NEW_ORDER), 8);
        assert_eq!(tuple_size(CUSTOMER), 655);
    }

    #[test]
    fn home_warehouse_inverts_every_row_layout() {
        for w in [1u64, 2, 7, 200] {
            assert_eq!(home_warehouse(warehouse_row(w)), Some(w), "warehouse");
            for d in [1u64, 10] {
                assert_eq!(home_warehouse(district_row(w, d)), Some(w), "district {w}/{d}");
                let dist_idx = district_index(w, d);
                assert_eq!(
                    home_warehouse(customer_row(w, d, CUSTOMERS_PER_DISTRICT)),
                    Some(w),
                    "customer"
                );
                assert_eq!(home_warehouse(order_row(dist_idx, 1)), Some(w), "order");
                assert_eq!(home_warehouse(new_order_row(dist_idx, 99)), Some(w), "new-order");
                assert_eq!(home_warehouse(order_line_row(dist_idx, 5, 15)), Some(w), "order-line");
                assert_eq!(home_warehouse(name_index_row(dist_idx, 999)), Some(w), "name idx");
            }
            assert_eq!(home_warehouse(stock_row(w, STOCK_PER_WAREHOUSE)), Some(w), "stock");
        }
    }

    #[test]
    fn global_tables_and_wildcards_have_no_home_warehouse() {
        assert_eq!(home_warehouse(item_row(50_000)), None, "items are shared");
        assert_eq!(home_warehouse(history_row(123)), None, "history is a global counter");
        assert_eq!(home_warehouse(TupleId::table_level(STOCK)), None, "wildcards have no home");
        assert_eq!(home_warehouse(TupleId::new(TableId(99), 1)), None, "unknown table");
        // The 0-based key matches the ShardKeyFn span contract.
        assert_eq!(home_warehouse_shard_key(warehouse_row(1)), Some(0));
        assert_eq!(home_warehouse_shard_key(stock_row(8, 3)), Some(7));
        assert_eq!(home_warehouse_shard_key(item_row(1)), None);
    }
}
