//! Transaction classes. Bimodal classes are split into homogeneous long and
//! short variants exactly as the paper does ("as analysis of results is
//! simplified if each transaction class is homogeneous, we split each of
//! these in two different classes", §4.1).

/// A TPC-C transaction class as reported in the paper's Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnClass {
    /// Delivery — CPU-bound batch over all ten districts.
    Delivery,
    /// New-order — the order-entry backbone of the mix.
    NewOrder,
    /// Payment, by customer last name (the conditional "long" path).
    PaymentLong,
    /// Payment, by customer id (the "short" path).
    PaymentShort,
    /// Order-status, by customer last name.
    OrderStatusLong,
    /// Order-status, by customer id.
    OrderStatusShort,
    /// Stock-level — read-only, relaxed isolation per TPC-C §3.3.2.
    StockLevel,
}

impl TxnClass {
    /// Every class, in the paper's table order.
    pub const ALL: [TxnClass; 7] = [
        TxnClass::Delivery,
        TxnClass::NewOrder,
        TxnClass::PaymentLong,
        TxnClass::PaymentShort,
        TxnClass::OrderStatusLong,
        TxnClass::OrderStatusShort,
        TxnClass::StockLevel,
    ];

    /// Dense index (stable across runs; used as `TransactionSpec::class`).
    pub fn index(self) -> u8 {
        match self {
            TxnClass::Delivery => 0,
            TxnClass::NewOrder => 1,
            TxnClass::PaymentLong => 2,
            TxnClass::PaymentShort => 3,
            TxnClass::OrderStatusLong => 4,
            TxnClass::OrderStatusShort => 5,
            TxnClass::StockLevel => 6,
        }
    }

    /// The paper's row label.
    pub fn name(self) -> &'static str {
        match self {
            TxnClass::Delivery => "delivery",
            TxnClass::NewOrder => "neworder",
            TxnClass::PaymentLong => "payment (long)",
            TxnClass::PaymentShort => "payment (short)",
            TxnClass::OrderStatusLong => "orderstatus (long)",
            TxnClass::OrderStatusShort => "orderstatus (short)",
            TxnClass::StockLevel => "stocklevel",
        }
    }

    /// True for the read-only classes.
    pub fn read_only(self) -> bool {
        matches!(
            self,
            TxnClass::OrderStatusLong | TxnClass::OrderStatusShort | TxnClass::StockLevel
        )
    }
}

impl std::fmt::Display for TxnClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips() {
        for c in TxnClass::ALL {
            assert_eq!(TxnClass::ALL[c.index() as usize], c);
        }
    }

    #[test]
    fn read_only_classification() {
        assert!(TxnClass::StockLevel.read_only());
        assert!(TxnClass::OrderStatusLong.read_only());
        assert!(!TxnClass::NewOrder.read_only());
        assert!(!TxnClass::PaymentShort.read_only());
        assert!(!TxnClass::Delivery.read_only());
    }
}
