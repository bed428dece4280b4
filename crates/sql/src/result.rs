//! Result sets returned by query execution.

use skyserver_storage::{ExecutionStats, Value};

/// A tabular query result: column names plus rows of values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// Rows of values (each row has `columns.len()` entries).
    pub rows: Vec<Vec<Value>>,
    /// True when the row budget truncated the result (public interface).
    pub truncated: bool,
}

impl ResultSet {
    /// An empty result with the given column names.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
            truncated: false,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Get a cell by row number and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(idx))
    }

    /// Extract one column as a vector of values.
    pub fn column_values(&self, column: &str) -> Vec<Value> {
        match self.column_index(column) {
            Some(idx) => self.rows.iter().map(|r| r[idx].clone()).collect(),
            None => Vec::new(),
        }
    }

    /// Single scalar convenience accessor (first row, first column).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an ASCII grid (the SkyServerQA "grid" output format).
    pub fn to_grid(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.to_string().len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{:<width$}", v.to_string(), width = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// The outcome of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatementOutcome {
    /// The result set (empty with no columns for DDL/DML statements).
    pub result: ResultSet,
    /// Number of rows affected by DML (inserted/updated/deleted) or written
    /// to an INTO target.
    pub rows_affected: usize,
    /// Execution statistics (rows/bytes touched, wall time, simulated time).
    pub stats: ExecutionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "ra".into()],
            rows: vec![
                vec![Value::Int(1), Value::Float(185.0)],
                vec![Value::Int(2), Value::Float(186.5)],
            ],
            truncated: false,
        }
    }

    #[test]
    fn accessors() {
        let r = rs();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.column_index("RA"), Some(1));
        assert_eq!(r.cell(1, "objid"), Some(&Value::Int(2)));
        assert_eq!(r.column_values("ra").len(), 2);
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        assert!(r.column_values("nope").is_empty());
    }

    #[test]
    fn grid_rendering_includes_all_cells() {
        let g = rs().to_grid();
        assert!(g.contains("objID"));
        assert!(g.contains("186.5"));
        assert_eq!(g.lines().count(), 4);
    }

    #[test]
    fn empty_result() {
        let r = ResultSet::empty(vec!["n".into()]);
        assert!(r.is_empty());
        assert!(r.scalar().is_none());
    }
}
