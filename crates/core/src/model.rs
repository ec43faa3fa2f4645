//! Shared model types: sensors as the aggregator sees them each slot.

use ps_geo::{Point, SensorIndex};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A discrete time slot index (the paper discretizes the horizon `T` into
/// fixed-length slots, e.g. 5 minutes).
pub type Slot = usize;

/// Identifier of a query within one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(pub u64);

/// The aggregator's per-slot view of an available sensor: "at the
/// beginning of each time slot \[sensors] announce their location and price
/// of providing a measurement at that location" (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorSnapshot {
    /// Stable identity of the sensor across slots (the participant).
    pub id: usize,
    /// Announced location this slot.
    pub loc: Point,
    /// Announced price `c_s` for one measurement this slot (Eq. 8).
    pub cost: f64,
    /// Trustworthiness `τ_s ∈ [0, 1]`.
    pub trust: f64,
    /// Inherent inaccuracy `γ_s ∈ [0, 1]` (fraction of the value range).
    pub inaccuracy: f64,
}

impl SensorSnapshot {
    /// Intrinsic reading quality when the sensor measures *its own*
    /// location (distance term of Eq. 4 equal to 1): `(1 − γ_s)·τ_s`.
    #[inline]
    pub fn intrinsic_quality(&self) -> f64 {
        (1.0 - self.inaccuracy) * self.trust
    }
}

/// `index`, or a [`SensorIndex::scan_all`] over `sensors` when the caller
/// passed none. The public entry points that still take an optional index
/// resolve it here, so every candidate lookup behind them asks an index.
pub(crate) fn index_or_scan_all<'a>(
    index: Option<&'a SensorIndex>,
    sensors: &[SensorSnapshot],
) -> Cow<'a, SensorIndex> {
    let scan = || SensorIndex::scan_all(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());
    index.map_or_else(|| Cow::Owned(scan()), Cow::Borrowed)
}

/// The brute-force index over `sensors`, for unit tests of the entry
/// points that take a `&SensorIndex`.
#[cfg(test)]
pub(crate) fn scan_all(sensors: &[SensorSnapshot]) -> SensorIndex {
    index_or_scan_all(None, sensors).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_quality_combines_trust_and_accuracy() {
        let s = SensorSnapshot {
            id: 0,
            loc: Point::ORIGIN,
            cost: 10.0,
            trust: 0.8,
            inaccuracy: 0.1,
        };
        assert!((s.intrinsic_quality() - 0.72).abs() < 1e-12);
    }

    #[test]
    fn perfect_sensor_has_quality_one() {
        let s = SensorSnapshot {
            id: 1,
            loc: Point::ORIGIN,
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        };
        assert_eq!(s.intrinsic_quality(), 1.0);
    }
}
