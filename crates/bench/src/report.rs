//! The one output type of every experiment.
//!
//! An experiment pushes rows of [`Field`]s into a [`Section`]; each field is
//! written once, as one expression naming its table header, its JSON key, its
//! [`Kind`] and its value. [`Section::table`] renders the text table and
//! [`Report::json`] the checked-in `BENCH_<experiment>.json` from those same
//! fields, so a tracked column is added, renamed or dropped by editing one
//! line (`docs/EXPERIMENTS.md` lists every column). A figure is a section
//! with one x column and one column per line of the plot; a wall-clock is a
//! column without a key, so it prints and is never written.

use crate::Scale;
use rfid_eval::Table;

/// How a column's cells are typed and printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A label; quoted in JSON.
    Text,
    /// An exact unsigned count, printed in full (never through a float).
    Int,
    /// A verdict, `true` or `false`.
    Bool,
    /// A float, or a bracketed list of floats, at a fixed number of
    /// decimals: `Float(in the text table, in JSON)`.
    Float(usize, usize),
}

/// A typed value; its variant must fit the field's [`Kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A [`Kind::Text`] value.
    Text(String),
    /// A [`Kind::Int`] value.
    Int(u64),
    /// A [`Kind::Bool`] value.
    Bool(bool),
    /// A [`Kind::Float`] value.
    Float(f64),
    /// A list in a [`Kind::Float`] column, every element at its precision.
    Floats(Vec<f64>),
}

macro_rules! cell_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for Cell {
            fn from(value: $ty) -> Cell {
                Cell::$variant(value.into())
            }
        }
    )*};
}
cell_from!(&str => Text, String => Text, u32 => Int, u64 => Int, bool => Bool, f64 => Float, Vec<f64> => Floats);

impl From<usize> for Cell {
    fn from(value: usize) -> Cell {
        Cell::Int(value as u64)
    }
}

/// One cell of a row together with the declaration of its column.
#[derive(Debug, Clone)]
pub struct Field {
    /// Header in the text table; `None` keeps the column out of the table.
    pub header: Option<&'static str>,
    /// Key in the JSON row object; `None` keeps the column out of the JSON.
    pub key: Option<&'static str>,
    /// Cell type and precision.
    pub kind: Kind,
    /// The value.
    pub cell: Cell,
}

impl Field {
    /// `header` and `key` each take a string or `None`. Panics if `value`
    /// does not fit `kind`, or is text that JSON would have to escape.
    pub fn new(
        header: impl Into<Option<&'static str>>,
        key: impl Into<Option<&'static str>>,
        kind: Kind,
        value: impl Into<Cell>,
    ) -> Field {
        let (header, key, cell) = (header.into(), key.into(), value.into());
        let fits = match &cell {
            Cell::Text(text) => kind == Kind::Text && !text.contains(['"', '\\', '\n']),
            Cell::Int(_) => kind == Kind::Int,
            Cell::Bool(_) => kind == Kind::Bool,
            Cell::Float(_) | Cell::Floats(_) => matches!(kind, Kind::Float(..)),
        };
        assert!(
            fits,
            "{cell:?} does not fit {kind:?} ({header:?} / {key:?})"
        );
        Field {
            header,
            key,
            kind,
            cell,
        }
    }

    fn render(&self, json: bool) -> String {
        let decimals = match self.kind {
            Kind::Float(_, decimals) if json => decimals,
            Kind::Float(decimals, _) => decimals,
            Kind::Text | Kind::Int | Kind::Bool => 0,
        };
        match &self.cell {
            Cell::Text(text) if json => format!("\"{text}\""),
            Cell::Text(text) => text.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Float(x) => format!("{x:.decimals$}"),
            Cell::Floats(xs) => {
                let xs: Vec<String> = xs.iter().map(|x| format!("{x:.decimals$}")).collect();
                format!("[{}]", xs.join(", "))
            }
        }
    }
}

/// The cell keyed `key` in `row`.
pub fn cell<'a>(row: &'a [Field], key: &str) -> &'a Cell {
    let field = row.iter().find(|field| field.key == Some(key));
    &field
        .unwrap_or_else(|| panic!("no column keyed {key:?}"))
        .cell
}

/// `row` as a single-line JSON object: every field that declares a key.
fn object(row: &[Field]) -> String {
    let members: Vec<String> = row
        .iter()
        .filter_map(|field| Some(format!("\"{}\": {}", field.key?, field.render(true))))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// One row set: a table or a figure.
#[derive(Debug, Clone)]
pub struct Section {
    /// Key of the section's row array in the JSON document.
    pub key: &'static str,
    /// Title of the text table.
    pub title: &'static str,
    rows: Vec<Vec<Field>>,
}

impl Section {
    /// An empty section.
    pub fn new(key: &'static str, title: &'static str) -> Section {
        let rows = Vec::new();
        Section { key, title, rows }
    }

    /// Append one row. Every row of a section declares the same columns.
    pub fn push(&mut self, row: Vec<Field>) {
        let column = |field: &Field| (field.header, field.key, field.kind);
        if let Some(first) = self.rows.first() {
            let same = row.iter().map(column).eq(first.iter().map(column));
            assert!(same, "{}: columns differ from the first row's", self.key);
        }
        self.rows.push(row);
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Vec<Field>] {
        &self.rows
    }

    /// The column keyed `key`, one cell per row.
    pub fn column(&self, key: &str) -> Vec<Cell> {
        self.rows.iter().map(|row| cell(row, key).clone()).collect()
    }

    /// The [`Kind::Int`] column keyed `key`, as numbers.
    pub fn ints(&self, key: &str) -> Vec<u64> {
        let int = |cell| match cell {
            Cell::Int(n) => n,
            other => panic!("{}.{key}: {other:?} is not an integer", self.key),
        };
        self.column(key).into_iter().map(int).collect()
    }

    /// The [`Kind::Float`] column keyed `key`, as numbers.
    pub fn floats(&self, key: &str) -> Vec<f64> {
        let float = |cell| match cell {
            Cell::Float(x) => x,
            other => panic!("{}.{key}: {other:?} is not a float", self.key),
        };
        self.column(key).into_iter().map(float).collect()
    }

    /// Whether any column declares a JSON key.
    pub fn is_tracked(&self) -> bool {
        let first = self.rows.first().map_or(&[][..], Vec::as_slice);
        first.iter().any(|field| field.key.is_some())
    }

    /// The text table: every column that declares a header.
    pub fn table(&self) -> Table {
        let first = self.rows.first().map_or(&[][..], Vec::as_slice);
        let headers: Vec<&str> = first.iter().filter_map(|field| field.header).collect();
        let mut table = Table::new(self.title, &headers);
        for row in &self.rows {
            let shown = row.iter().filter(|field| field.header.is_some());
            let cells: Vec<String> = shown.map(|field| field.render(false)).collect();
            table.push_row(&cells);
        }
        table
    }
}

/// What one experiment returns: what the binary prints and what
/// `BENCH_<experiment>.json` records.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment name; the file is `BENCH_<experiment>.json`.
    pub experiment: &'static str,
    /// Scale the rows were measured at.
    pub scale: Scale,
    /// The workload every row ran on.
    pub reference: &'static str,
    /// What the rows measure, if the file says so.
    pub metric: Option<&'static str>,
    /// The injected plan, if any: one row of JSON-only fields, written
    /// inline as the `"plan"` object.
    pub plan: Option<Vec<Field>>,
    /// The row sets, in print and file order.
    pub sections: Vec<Section>,
}

impl Report {
    /// The section keyed `key`.
    pub fn section(&self, key: &str) -> &Section {
        let section = self.sections.iter().find(|section| section.key == key);
        section.unwrap_or_else(|| panic!("{}: no section keyed {key:?}", self.experiment))
    }

    /// The JSON document: stable key order, one row object per line. A
    /// section without a keyed column is left out.
    pub fn json(&self) -> String {
        let mut members = vec![
            format!("\"scale\": \"{:?}\"", self.scale),
            format!("\"reference\": \"{}\"", self.reference),
        ];
        if let Some(metric) = self.metric {
            members.push(format!("\"metric\": \"{metric}\""));
        }
        if let Some(plan) = &self.plan {
            members.push(format!("\"plan\": {}", object(plan)));
        }
        for section in self.sections.iter().filter(|section| section.is_tracked()) {
            let rows: Vec<String> = section
                .rows
                .iter()
                .map(|row| format!("    {}", object(row)))
                .collect();
            members.push(format!("\"{}\": [\n{}\n  ]", section.key, rows.join(",\n")));
        }
        format!("{{\n  {}\n}}\n", members.join(",\n  "))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const PCT: Kind = Kind::Float(1, 2);

    /// The column under `header`: how a test reads a wall-clock, which has
    /// no key.
    pub(crate) fn by_header(section: &Section, header: &str) -> Vec<Cell> {
        let cell = |row: &Vec<Field>| {
            let field = row.iter().find(|field| field.header == Some(header));
            field.expect("a column under the header").cell.clone()
        };
        section.rows().iter().map(cell).collect()
    }

    fn hand_built() -> Report {
        let mut alpha = Section::new("rows", "Alpha");
        // 2^53 + 1 is not representable as an f64: it must never pass through one
        let rows: [(&str, u64, f64, u32, Vec<f64>); 2] = [
            ("a", 9_007_199_254_740_993, 98.25, 1, vec![0.05, 0.3]),
            ("b", 0, -2.0, 2, vec![]),
        ];
        for (name, seed, acc, rank, rates) in rows {
            alpha.push(vec![
                Field::new("name", "name", Kind::Text, name),
                Field::new(None, "seed", Kind::Int, seed),
                Field::new("acc (%)", "acc_pct", PCT, acc),
                Field::new("rank", None, Kind::Int, rank),
                Field::new("rates", "rates", PCT, rates),
            ]);
        }
        let mut beta = Section::new("extra", "Beta");
        beta.push(vec![Field::new("n", "n", Kind::Int, 7usize)]);
        Report {
            experiment: "unit",
            scale: Scale::Smoke,
            reference: "two hand-built sections",
            metric: Some("every cell kind"),
            plan: Some(vec![
                Field::new(None, "seed", Kind::Int, u64::MAX),
                Field::new(None, "label", Kind::Text, String::from("whole horizon")),
                Field::new(None, "p", Kind::Float(3, 3), 0.125),
            ]),
            sections: vec![alpha, beta],
        }
    }

    const EXPECTED_JSON: &str = r#"{
  "scale": "Smoke",
  "reference": "two hand-built sections",
  "metric": "every cell kind",
  "plan": {"seed": 18446744073709551615, "label": "whole horizon", "p": 0.125},
  "rows": [
    {"name": "a", "seed": 9007199254740993, "acc_pct": 98.25, "rates": [0.05, 0.30]},
    {"name": "b", "seed": 0, "acc_pct": -2.00, "rates": []}
  ],
  "extra": [
    {"n": 7}
  ]
}
"#;

    #[test]
    fn one_declaration_renders_both_documents() {
        let mut report = hand_built();
        assert_eq!(report.json(), EXPECTED_JSON);

        let alpha = report.sections[0].table();
        assert_eq!(alpha.title, "Alpha");
        assert_eq!(alpha.headers, ["name", "acc (%)", "rank", "rates"]);
        assert_eq!(
            alpha.rows,
            [["a", "98.2", "1", "[0.1, 0.3]"], ["b", "-2.0", "2", "[]"]]
        );
        let beta = report.sections[1].table();
        assert_eq!(
            (beta.headers, beta.rows),
            (vec!["n".to_string()], vec![vec!["7".to_string()]])
        );

        // metric and plan are optional members (BENCH_wire.json has neither)
        report.metric = None;
        report.plan = None;
        let without: String = EXPECTED_JSON
            .split_inclusive('\n')
            .filter(|line| !line.contains("\"metric\"") && !line.contains("\"plan\""))
            .collect();
        assert_eq!(report.json(), without);
    }

    #[test]
    fn a_figure_is_a_section_and_its_wall_clock_is_never_written() {
        let mut figure = Section::new("fig", "Figure: error (%) vs read rate");
        let mut timing = Section::new("timing", "Figure: time (s) vs read rate");
        for (x, full, cr, secs, per_delta) in [
            (0.6, 0.0, 2.1333, 0.4567, vec![79.4, 85.0]),
            (1.0, 0.0, 0.0, 1.25, vec![88.0, 91.26]),
        ] {
            figure.push(vec![
                Field::new("read rate", "read_rate", Kind::Float(1, 1), x),
                Field::new("Containment(All)", "all_error_pct", Kind::Float(3, 3), full),
                Field::new("Containment(CR)", "cr_error_pct", Kind::Float(3, 3), cr),
                Field::new("time (s)", None, Kind::Float(2, 2), secs),
                Field::new("per delta", "per_delta_f_pct", Kind::Float(0, 2), per_delta),
                Field::new("ok", "ok", Kind::Bool, cr <= full),
            ]);
            timing.push(vec![
                Field::new("read rate", None, Kind::Float(1, 1), x),
                Field::new("time (s)", None, Kind::Float(2, 2), secs),
            ]);
        }
        assert!(figure.is_tracked() && !timing.is_tracked());
        assert_eq!(
            by_header(&timing, "time (s)"),
            [0.4567, 1.25].map(Cell::from)
        );
        assert_eq!(figure.floats("cr_error_pct"), [2.1333, 0.0]);
        assert_eq!(
            figure.table().to_string(),
            "## Figure: error (%) vs read rate\n\
             read rate  Containment(All)  Containment(CR)  time (s)  per delta  ok   \n\
             ---------  ----------------  ---------------  --------  ---------  -----\n\
             0.6        0.000             2.133            0.46      [79, 85]   false\n\
             1.0        0.000             0.000            1.25      [88, 91]   true \n"
        );
        let report = Report {
            experiment: "unit",
            scale: Scale::Default,
            reference: "one figure, one wall-clock section",
            metric: None,
            plan: None,
            sections: vec![figure, timing],
        };
        assert_eq!(report.section("timing").rows().len(), 2);
        assert_eq!(
            report.json(),
            r#"{
  "scale": "Default",
  "reference": "one figure, one wall-clock section",
  "fig": [
    {"read_rate": 0.6, "all_error_pct": 0.000, "cr_error_pct": 2.133, "per_delta_f_pct": [79.40, 85.00], "ok": false},
    {"read_rate": 1.0, "all_error_pct": 0.000, "cr_error_pct": 0.000, "per_delta_f_pct": [88.00, 91.26], "ok": true}
  ]
}
"#
        );
    }

    #[test]
    fn columns_are_looked_up_by_key() {
        let report = hand_built();
        let alpha = &report.sections[0];
        assert_eq!(alpha.rows().len(), 2);
        assert_eq!(alpha.column("name"), ["a", "b"].map(Cell::from));
        assert_eq!(
            alpha.column("seed"),
            [9_007_199_254_740_993u64, 0].map(Cell::from)
        );
        assert_eq!(alpha.column("acc_pct"), [98.25, -2.0].map(Cell::from));
        assert_eq!(alpha.ints("seed"), [9_007_199_254_740_993, 0]);
        assert_eq!(
            cell(report.plan.as_ref().unwrap(), "seed"),
            &Cell::Int(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "no column keyed \"rank\"")]
    fn a_column_without_a_key_cannot_be_looked_up() {
        hand_built().sections[0].column("rank");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_cell_of_the_wrong_kind_is_rejected() {
        Field::new("n", "n", Kind::Int, 1.5);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn text_needing_an_escape_is_rejected() {
        Field::new("s", "s", Kind::Text, "say \"hi\"");
    }

    #[test]
    #[should_panic(expected = "columns differ")]
    fn every_row_of_a_section_declares_the_same_columns() {
        let mut section = Section::new("rows", "t");
        section.push(vec![Field::new("n", "n", Kind::Int, 1u32)]);
        section.push(vec![Field::new("n", "m", Kind::Int, 2u32)]);
    }
}
