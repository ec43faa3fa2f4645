//! Console rendering and CSV output of figure tables.

use crate::metrics::FigureTable;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders a table as an aligned text block (the form the repro binary
/// prints for comparison with the paper's plots).
pub fn render(table: &FigureTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "── {} — {} ──", table.id, table.title);
    let _ = write!(out, "{:>14}", table.x_label);
    for s in &table.series {
        let _ = write!(out, "{:>16}", s.name);
    }
    let _ = writeln!(out);
    for (i, x) in table.xs.iter().enumerate() {
        let _ = write!(out, "{x:>14.2}");
        for s in &table.series {
            let _ = write!(out, "{:>16.3}", s.values[i]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Serializes a table as CSV (`x, series1, series2, …`).
pub fn to_csv(table: &FigureTable) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", sanitize(&table.x_label));
    for s in &table.series {
        let _ = write!(out, ",{}", sanitize(&s.name));
    }
    let _ = writeln!(out);
    for (i, x) in table.xs.iter().enumerate() {
        let _ = write!(out, "{x}");
        for s in &table.series {
            let _ = write!(out, ",{}", s.values[i]);
        }
        let _ = writeln!(out);
    }
    out
}

fn sanitize(s: &str) -> String {
    s.replace(',', ";")
}

/// Writes `<dir>/<table.id>.csv`.
pub fn write_csv(table: &FigureTable, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{}.csv", table.id)), to_csv(table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        let mut t = FigureTable::new("fig0a", "demo", "budget", "utility", vec![7.0, 10.0]);
        t.push_series("Optimal", vec![1.5, 2.5]);
        t.push_series("Baseline", vec![0.0, 0.5]);
        t
    }

    #[test]
    fn render_contains_headers_and_values() {
        let text = render(&table());
        assert!(text.contains("fig0a"));
        assert!(text.contains("Optimal"));
        assert!(text.contains("Baseline"));
        assert!(text.contains("2.500"));
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&table());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "budget,Optimal,Baseline");
        assert_eq!(lines[1], "7,1.5,0");
    }

    /// A comma inside a label would shift every column after it.
    #[test]
    fn csv_header_keeps_commas_out_of_labels() {
        let mut t = FigureTable::new("fig0b", "demo", "budget, $", "utility", vec![7.0]);
        t.push_series("Optimal, LP", vec![1.5]);
        let csv = to_csv(&t);
        let header = csv.lines().next().unwrap();
        assert_eq!(header, "budget; $,Optimal; LP");
        assert!(csv.lines().all(|line| line.split(',').count() == 2));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("ps_sim_report_test");
        write_csv(&table(), &dir).unwrap();
        let read = std::fs::read_to_string(dir.join("fig0a.csv")).unwrap();
        assert_eq!(read, to_csv(&table()));
    }
}
