//! Plain-text table rendering for the experiment drivers.
//!
//! Experiments return structured rows; this module turns them into the
//! aligned ASCII tables printed by the `pfr-eval` binary.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of preformatted cells. Rows shorter than the header are
    /// padded with empty cells; longer rows are allowed (their extra cells
    /// are printed without a header).
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let num_cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; num_cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = (0..num_cols)
                .map(|i| {
                    let cell = cells.get(i).map(String::as_str).unwrap_or("");
                    format!("{cell:<width$}", width = widths[i])
                })
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with three decimals (the precision the paper's figures can
/// be read at).
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an optional float, printing `n/a` for `None`.
pub fn fmt3_opt(v: Option<f64>) -> String {
    v.map(fmt3).unwrap_or_else(|| "n/a".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["method", "auc"]);
        t.add_row(vec!["Original".to_string(), fmt3(0.91234)]);
        t.add_row(vec!["PFR".to_string(), fmt3(0.5)]);
        let s = t.render();
        assert!(s.contains("| method   | auc   |"));
        assert!(s.contains("| Original | 0.912 |"));
        assert!(s.contains("| PFR      | 0.500 |"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new(&["a"]);
        t.add_row(vec!["x".to_string(), "extra".to_string()]);
        t.add_row(vec![]);
        let s = t.render();
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(0.123456), "0.123");
        assert_eq!(fmt3_opt(None), "n/a");
        assert_eq!(fmt3_opt(Some(1.0)), "1.000");
    }
}
