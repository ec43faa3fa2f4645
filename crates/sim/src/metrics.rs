//! Result tables: one [`FigureTable`] per paper figure.

use serde::{Deserialize, Serialize};

/// A named series over the x-axis of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"Optimal"`, `"LocalSearch"`, `"Baseline"`).
    pub name: String,
    /// One value per x-axis point.
    pub values: Vec<f64>,
}

/// The data behind one figure panel: an x-axis and several series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureTable {
    /// Identifier, e.g. `"fig2a"`.
    pub id: String,
    /// Human title, e.g. `"Single-sensor point queries, RWM: average utility"`.
    pub title: String,
    /// X-axis label, e.g. `"Query budget"`.
    pub x_label: String,
    /// Y-axis label, e.g. `"Average utility"`.
    pub y_label: String,
    /// X-axis values.
    pub xs: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str, xs: Vec<f64>) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            xs,
            series: Vec::new(),
        }
    }

    /// Appends a series.
    ///
    /// # Panics
    /// Panics when the series length differs from the x-axis length.
    pub fn push_series(&mut self, name: &str, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.xs.len(),
            "series '{name}' length mismatch"
        );
        self.series.push(Series {
            name: name.to_string(),
            values,
        });
    }

    /// Looks up a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Returns the value of `series` at the x-axis point `x`.
    pub fn value_at(&self, series: &str, x: f64) -> Option<f64> {
        let idx = self.xs.iter().position(|&v| (v - x).abs() < 1e-9)?;
        self.series_named(series).map(|s| s.values[idx])
    }

    /// True when series `a` dominates series `b` (pointwise ≥ with `slack`
    /// tolerance) — the shape checks of EXPERIMENTS.md.
    pub fn dominates(&self, a: &str, b: &str, slack: f64) -> bool {
        match (self.series_named(a), self.series_named(b)) {
            (Some(sa), Some(sb)) => sa
                .values
                .iter()
                .zip(&sb.values)
                .all(|(va, vb)| va + slack >= *vb),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        let mut t = FigureTable::new("figX", "t", "budget", "utility", vec![7.0, 10.0, 15.0]);
        t.push_series("Optimal", vec![10.0, 20.0, 30.0]);
        t.push_series("Baseline", vec![0.0, 0.0, 25.0]);
        t
    }

    #[test]
    fn series_lookup_and_value_at() {
        let t = table();
        assert_eq!(t.value_at("Optimal", 10.0), Some(20.0));
        assert_eq!(t.value_at("Baseline", 7.0), Some(0.0));
        assert_eq!(t.value_at("Nope", 7.0), None);
        assert_eq!(t.value_at("Optimal", 11.0), None);
    }

    #[test]
    fn dominance_check() {
        let t = table();
        assert!(t.dominates("Optimal", "Baseline", 1e-9));
        assert!(!t.dominates("Baseline", "Optimal", 1e-9));
    }

    #[test]
    fn a_missing_series_neither_dominates_nor_is_dominated() {
        let t = table();
        assert!(!t.dominates("Nope", "Baseline", 1e9));
        assert!(!t.dominates("Optimal", "Nope", 1e9));
    }

    #[test]
    fn dominance_slack_forgives_shortfalls_up_to_it() {
        let mut t = table();
        t.push_series("Almost", vec![9.5, 20.0, 30.0]);
        assert!(!t.dominates("Almost", "Optimal", 0.25));
        assert!(t.dominates("Almost", "Optimal", 0.5));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let mut t = table();
        t.push_series("bad", vec![1.0]);
    }
}
