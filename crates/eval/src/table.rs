//! The column-aligned text renderer of the experiment harness: every section
//! of an `rfid_bench::report::Report` — a table of the paper or a figure, one
//! row per x value — prints through [`Table`], in a stable plain-text format
//! that `EXPERIMENTS.md` quotes directly.

use std::fmt;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (e.g. `"Table 5: communication costs (bytes)"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row data, one vector of cells per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Cells are converted with `ToString`.
    pub fn push_row<S: ToString>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let line = |cells: &[String]| -> String {
            let padded = cells.iter().zip(&widths);
            let padded: Vec<String> = padded
                .map(|(cell, width)| format!("{cell:<width$}"))
                .collect();
            padded.join("  ")
        };
        let rule: Vec<String> = widths.iter().map(|width| "-".repeat(*width)).collect();
        writeln!(f, "## {}", self.title)?;
        writeln!(f, "{}", line(&self.headers))?;
        writeln!(f, "{}", line(&rule))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned_columns() {
        let mut t = Table::new("Demo", &["method", "error (%)"]);
        t.push_row(&["CR", "2.3"]);
        t.push_row(&["All history", "2.5"]);
        assert_eq!(t.rows.len(), 2);
        let text = t.to_string();
        assert!(text.contains("## Demo"));
        assert!(text.contains("method"));
        assert!(text.contains("All history"));
        // header separator present
        assert!(text.contains("---"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(&["only one"]);
    }
}
