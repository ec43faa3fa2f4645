//! Payment bookkeeping: who pays whom, with the paper's invariants.
//!
//! The aggregator must ensure (§2.1) that "for each selected sensor s, the
//! total payment from the queries using that sensor is equal to c_s" and
//! that every answered query keeps positive utility. [`Ledger`] records
//! per-slot money flows and checks both invariants.

use crate::model::QueryId;
use std::collections::BTreeMap;

/// A per-slot record of query → sensor payments.
///
/// Ledgers are **merge-safe**: every flow is keyed by the stable sensor
/// id or [`QueryId`] it belongs to, with no assumption that ids were
/// minted by a single sequence. Ledgers produced by independent engines
/// (the federation layer runs one per shard, each minting ids from its
/// own disjoint block) combine with [`Ledger::absorb`] into one ledger
/// that still satisfies the §2.1 invariants.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// sensor id → total received this slot
    receipts: BTreeMap<usize, f64>,
    /// query id → total paid this slot
    payments: BTreeMap<QueryId, f64>,
    /// (sensor id, query id) → amount: the individual flows behind
    /// `receipts`, kept so a settlement pass can unwind a specific
    /// sensor's payments (see [`Ledger::strip_sensor`]).
    flows: BTreeMap<(usize, QueryId), f64>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `query` pays `amount` for data from `sensor`.
    ///
    /// # Panics
    /// Panics on negative amounts.
    pub fn record(&mut self, query: QueryId, sensor: usize, amount: f64) {
        assert!(amount >= 0.0, "negative payment {amount}");
        *self.receipts.entry(sensor).or_insert(0.0) += amount;
        *self.payments.entry(query).or_insert(0.0) += amount;
        *self.flows.entry((sensor, query)).or_insert(0.0) += amount;
    }

    /// Refunds `amount` of what `query` paid for `sensor`, e.g. when a
    /// region monitor's cost contribution lowers what point queries owe
    /// (Algorithm 5, step 5). The sensor's receipt is unchanged: the
    /// contributor covers the difference. The `(sensor, query)` flow
    /// drops too, so a later [`Ledger::strip_sensor`] refunds the
    /// query's *net* payment for that sensor, not the gross.
    pub fn refund_for(&mut self, query: QueryId, sensor: usize, amount: f64) {
        assert!(amount >= 0.0, "negative refund {amount}");
        *self.payments.entry(query).or_insert(0.0) -= amount;
        *self.flows.entry((sensor, query)).or_insert(0.0) -= amount;
    }

    /// Records a payment by `query` toward `sensor`'s cost that is *not*
    /// a sensor receipt — a region monitor's sharing contribution, which
    /// reimburses the queries that already paid the sensor (via
    /// [`Ledger::refund_for`]) rather than paying the sensor twice. Paired
    /// with equal refunds it keeps `total_payments == total_receipts` and
    /// §2.1 cost recovery; its recorded flow makes the contributor whole
    /// when [`Ledger::strip_sensor`] unwinds the sensor.
    pub fn charge_for(&mut self, query: QueryId, sensor: usize, amount: f64) {
        assert!(amount >= 0.0, "negative charge {amount}");
        *self.payments.entry(query).or_insert(0.0) += amount;
        *self.flows.entry((sensor, query)).or_insert(0.0) += amount;
    }

    /// Adds every flow of `other` into this ledger — a federation
    /// merging its settled shard ledgers, or the online auction merging
    /// its arrival-time ledger into the boundary one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (&sensor, &amount) in &other.receipts {
            *self.receipts.entry(sensor).or_insert(0.0) += amount;
        }
        for (&query, &amount) in &other.payments {
            *self.payments.entry(query).or_insert(0.0) += amount;
        }
        for (&key, &amount) in &other.flows {
            *self.flows.entry(key).or_insert(0.0) += amount;
        }
    }

    /// The individual `(query, amount)` payments behind `sensor`'s
    /// receipts, in query-id order.
    pub fn sensor_payers(&self, sensor: usize) -> impl Iterator<Item = (QueryId, f64)> + '_ {
        self.flows
            .range((sensor, QueryId(0))..=(sensor, QueryId(u64::MAX)))
            .map(|(&(_, q), &amount)| (q, amount))
    }

    /// Unwinds every payment to `sensor`: its receipts are removed and
    /// each payer is refunded exactly its *net* flow to the sensor — the
    /// recorded payments minus any attributed refunds it already got,
    /// plus any attributed sharing contributions it made
    /// ([`Ledger::refund_for`] / [`Ledger::charge_for`]). Returns the
    /// total removed from the sensor's receipts.
    ///
    /// This is the federation layer's settlement primitive: when two
    /// shards independently buy the same halo sensor, the losing shard's
    /// slot ledger is stripped of that sensor so the merged ledger pays
    /// the measurement exactly once — budget balance and cost recovery
    /// both survive because payments and receipts drop by the same total.
    pub fn strip_sensor(&mut self, sensor: usize) -> f64 {
        let Some(receipt) = self.receipts.remove(&sensor) else {
            return 0.0;
        };
        let payers: Vec<(QueryId, f64)> = self.sensor_payers(sensor).collect();
        for (query, amount) in payers {
            self.flows.remove(&(sensor, query));
            *self.payments.entry(query).or_insert(0.0) -= amount;
        }
        receipt
    }

    /// Total received by `sensor`.
    pub fn sensor_receipt(&self, sensor: usize) -> f64 {
        self.receipts.get(&sensor).copied().unwrap_or(0.0)
    }

    /// Total paid by `query`.
    pub fn query_payment(&self, query: QueryId) -> f64 {
        self.payments.get(&query).copied().unwrap_or(0.0)
    }

    /// Sum of all receipts.
    pub fn total_receipts(&self) -> f64 {
        self.receipts.values().sum()
    }

    /// Sum of all payments.
    pub fn total_payments(&self) -> f64 {
        self.payments.values().sum()
    }

    /// Checks the cost-recovery invariant: each paid sensor's receipts
    /// match its announced cost within `tol`. `costs[sensor_id]` gives the
    /// announced cost.
    pub fn verify_cost_recovery(
        &self,
        costs: impl Fn(usize) -> f64,
        tol: f64,
    ) -> Result<(), String> {
        for (&sensor, &got) in &self.receipts {
            let want = costs(sensor);
            if (got - want).abs() > tol {
                return Err(format!(
                    "sensor {sensor} received {got}, announced cost {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = Ledger::new();
        l.record(QueryId(1), 7, 4.0);
        l.record(QueryId(2), 7, 6.0);
        l.record(QueryId(1), 8, 1.5);
        assert_eq!(l.sensor_receipt(7), 10.0);
        assert_eq!(l.query_payment(QueryId(1)), 5.5);
        assert_eq!(l.total_receipts(), 11.5);
        assert_eq!(l.total_payments(), 11.5);
    }

    #[test]
    fn refunds_lower_query_totals_only() {
        let mut l = Ledger::new();
        l.record(QueryId(1), 7, 10.0);
        l.refund_for(QueryId(1), 7, 3.0);
        assert_eq!(l.query_payment(QueryId(1)), 7.0);
        assert_eq!(l.sensor_receipt(7), 10.0);
    }

    #[test]
    fn cost_recovery_check() {
        let mut l = Ledger::new();
        l.record(QueryId(1), 0, 4.0);
        l.record(QueryId(2), 0, 6.0);
        assert!(l.verify_cost_recovery(|_| 10.0, 1e-9).is_ok());
        assert!(l.verify_cost_recovery(|_| 11.0, 1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "negative payment")]
    fn negative_payment_rejected() {
        Ledger::new().record(QueryId(1), 0, -1.0);
    }

    #[test]
    fn charge_plus_refund_conserves_totals() {
        let mut l = Ledger::new();
        l.record(QueryId(1), 7, 10.0);
        // Query 2 contributes 4 toward sensor 7; query 1 is refunded.
        l.charge_for(QueryId(2), 7, 4.0);
        l.refund_for(QueryId(1), 7, 4.0);
        assert_eq!(l.sensor_receipt(7), 10.0);
        assert_eq!(l.total_payments(), 10.0);
        assert_eq!(l.query_payment(QueryId(1)), 6.0);
        assert_eq!(l.query_payment(QueryId(2)), 4.0);
    }

    #[test]
    fn absorb_merges_flows() {
        let mut a = Ledger::new();
        a.record(QueryId(1), 7, 4.0);
        let mut b = Ledger::new();
        b.record(QueryId(1), 7, 6.0);
        b.record(QueryId(2), 8, 2.0);
        a.absorb(&b);
        assert_eq!(a.sensor_receipt(7), 10.0);
        assert_eq!(a.query_payment(QueryId(1)), 10.0);
        assert_eq!(a.query_payment(QueryId(2)), 2.0);
        assert_eq!(a.total_receipts(), 12.0);
    }

    #[test]
    fn sensor_payers_lists_individual_flows() {
        let mut l = Ledger::new();
        l.record(QueryId(3), 7, 4.0);
        l.record(QueryId(1), 7, 6.0);
        l.record(QueryId(1), 8, 2.0);
        let payers: Vec<(QueryId, f64)> = l.sensor_payers(7).collect();
        assert_eq!(payers, vec![(QueryId(1), 6.0), (QueryId(3), 4.0)]);
        assert_eq!(l.sensor_payers(9).count(), 0);
    }

    #[test]
    fn strip_sensor_refunds_payers_and_keeps_balance() {
        let mut l = Ledger::new();
        l.record(QueryId(1), 7, 6.0);
        l.record(QueryId(2), 7, 4.0);
        l.record(QueryId(1), 8, 3.0);
        let removed = l.strip_sensor(7);
        assert_eq!(removed, 10.0);
        assert_eq!(l.sensor_receipt(7), 0.0);
        assert_eq!(l.query_payment(QueryId(1)), 3.0);
        assert_eq!(l.query_payment(QueryId(2)), 0.0);
        assert_eq!(l.total_receipts(), l.total_payments());
        assert!(l.verify_cost_recovery(|_| 3.0, 1e-9).is_ok());
        // Stripping again is a no-op.
        assert_eq!(l.strip_sensor(7), 0.0);
    }

    #[test]
    fn strip_sensor_after_attributed_sharing_refunds_net_flows() {
        // The federation × region-sharing interplay: query 1 pays 10 for
        // sensor 7, monitor 2 contributes 4 (attributed charge) and query
        // 1 is refunded 4 (attributed refund). Stripping the sensor must
        // then unwind the *net* positions — query 1 gets its remaining 6,
        // the monitor its 4 — leaving nobody negative and the ledger
        // balanced.
        let mut l = Ledger::new();
        l.record(QueryId(1), 7, 10.0);
        l.charge_for(QueryId(2), 7, 4.0);
        l.refund_for(QueryId(1), 7, 4.0);
        assert_eq!(l.query_payment(QueryId(1)), 6.0);
        assert_eq!(l.query_payment(QueryId(2)), 4.0);
        let removed = l.strip_sensor(7);
        assert_eq!(removed, 10.0);
        assert_eq!(l.query_payment(QueryId(1)), 0.0);
        assert_eq!(l.query_payment(QueryId(2)), 0.0);
        assert_eq!(l.total_payments(), 0.0);
        assert_eq!(l.total_receipts(), 0.0);
    }

    #[test]
    fn absorb_is_merge_safe_across_independent_id_spaces() {
        // Two ledgers minted by independent engines: disjoint query-id
        // blocks, overlapping sensor ids — exactly the federation case.
        let mut a = Ledger::new();
        a.record(QueryId(1), 7, 10.0);
        let mut b = Ledger::new();
        b.record(QueryId(1 << 40), 7, 10.0);
        a.absorb(&b);
        assert_eq!(a.sensor_receipt(7), 20.0);
        // The merged flows keep both shards' payments separable: strip
        // the duplicated sensor from `b` *before* merging to settle.
        let mut a2 = Ledger::new();
        a2.record(QueryId(1), 7, 10.0);
        let mut b2 = Ledger::new();
        b2.record(QueryId(1 << 40), 7, 10.0);
        b2.strip_sensor(7);
        a2.absorb(&b2);
        assert_eq!(a2.sensor_receipt(7), 10.0);
        assert_eq!(a2.total_payments(), a2.total_receipts());
    }

    #[test]
    fn unknown_ids_read_as_zero() {
        let l = Ledger::new();
        assert_eq!(l.sensor_receipt(42), 0.0);
        assert_eq!(l.query_payment(QueryId(42)), 0.0);
    }
}
