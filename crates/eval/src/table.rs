//! Lightweight table / series formatting for the experiment harness.
//!
//! Every experiment binary prints its results as either a [`Table`] (for the
//! paper's tables) or a set of [`Series`] (for its figures), in a stable
//! plain-text format that `EXPERIMENTS.md` quotes directly.

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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        writeln!(f, "## {}", self.title)?;
        let widths = self.widths();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// A named series of `(x, y)` points — one line of a figure.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Series label (e.g. `"Containment(CR)"`).
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.name)?;
        for (x, y) in &self.points {
            write!(f, " ({x:.3}, {y:.3})")?;
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
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
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

    #[test]
    fn series_stores_and_looks_up_points() {
        let mut s = Series::new("Containment(CR)");
        s.push(0.6, 6.5);
        s.push(0.8, 2.1);
        assert_eq!(s.y_at(0.8), Some(2.1));
        assert_eq!(s.y_at(0.7), None);
        let text = s.to_string();
        assert!(text.starts_with("Containment(CR):"));
        assert!(text.contains("(0.600, 6.500)"));
    }
}
