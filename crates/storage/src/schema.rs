//! Table schemas: column definitions, primary keys and descriptions.
//!
//! The SkyServer documents every table and column online (the SkyServerQA
//! object browser reads that metadata), so column definitions here carry an
//! optional human-readable description which the schema-browser endpoint
//! serves.

use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (case preserved, matched case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// Whether NULLs are allowed.  The SkyServer insists all fields are
    /// non-null (§9.1.3), so most columns set this to `false`.
    pub nullable: bool,
    /// Default value used when an insert omits the column.
    pub default: Option<Value>,
    /// Documentation string surfaced by the schema browser.
    pub description: String,
    /// Unit string (mag, deg, arcsec, ...) for the metadata browser.
    pub unit: String,
}

impl ColumnDef {
    /// A NOT NULL column with no default.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
            default: None,
            description: String::new(),
            unit: String::new(),
        }
    }

    /// Allow NULLs.
    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }

    /// Attach a default value.
    pub fn with_default(mut self, v: Value) -> Self {
        self.default = Some(v);
        self
    }

    /// Attach a description.
    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// Attach a unit.
    pub fn with_unit(mut self, u: impl Into<String>) -> Self {
        self.unit = u.into();
        self
    }
}

/// Ordered column names with a case-insensitive name → ordinal lookup.
/// A table builds its set once with its schema; the query layer shares it
/// behind an [`Arc`] in every row schema that carries the table's columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnNames {
    names: Vec<String>,
    /// Ordinals sorted by name (see [`fold_cmp`]), then by ordinal.
    by_name: Vec<usize>,
}

impl ColumnNames {
    /// Index `names` (in column order).
    pub fn new(names: Vec<String>) -> Self {
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_by(|&a, &b| fold_cmp(&names[a], &names[b]).then(a.cmp(&b)));
        ColumnNames { names, by_name }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of column `ordinal`.
    pub fn get(&self, ordinal: usize) -> Option<&str> {
        self.names.get(ordinal).map(String::as_str)
    }

    /// Every ordinal whose name equals `name` case-insensitively, ascending.
    pub fn ordinals(&self, name: &str) -> &[usize] {
        let start = self
            .by_name
            .partition_point(|&i| fold_cmp(&self.names[i], name) == Ordering::Less);
        let len = self.by_name[start..]
            .partition_point(|&i| fold_cmp(&self.names[i], name) == Ordering::Equal);
        &self.by_name[start..start + len]
    }
}

/// Order two names by length, then with ASCII case folded: the lookup's
/// order, where most comparisons end on the length.
fn fold_cmp(a: &str, b: &str) -> Ordering {
    let b_folded = b.bytes().map(|c| c.to_ascii_lowercase());
    let folded = || a.bytes().map(|c| c.to_ascii_lowercase()).cmp(b_folded);
    a.len().cmp(&b.len()).then_with(folded)
}

/// A table schema: ordered columns plus an optional primary key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableSchema {
    columns: Vec<ColumnDef>,
    /// The columns' names, indexed for lookup.
    names: Arc<ColumnNames>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    primary_key: Vec<usize>,
}

impl TableSchema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        let names = ColumnNames::new(columns.iter().map(|c| c.name.clone()).collect());
        TableSchema {
            columns,
            names: Arc::new(names),
            primary_key: Vec::new(),
        }
    }

    /// Declare the primary key by column names.  Panics if a column is
    /// unknown (schema construction is programmer-controlled).
    pub fn with_primary_key(mut self, key_columns: &[&str]) -> Self {
        self.primary_key = key_columns
            .iter()
            .map(|name| {
                self.column_index(name)
                    .unwrap_or_else(|| panic!("primary key column {name} not in schema"))
            })
            .collect();
        self
    }

    /// All columns in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.ordinals(name).first().copied()
    }

    /// The column names, shared and indexed for lookup.
    pub fn names(&self) -> &Arc<ColumnNames> {
        &self.names
    }

    /// Column definition by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Primary-key column indices.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Primary-key column names.
    pub fn primary_key_names(&self) -> Vec<&str> {
        self.primary_key
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect()
    }

    /// Validate a row against the schema: length, types (with coercion) and
    /// nullability.  Returns the (possibly coerced) row.
    pub fn validate_row(&self, row: Vec<Value>) -> Result<Vec<Value>, SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError::ColumnCountMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (value, col) in row.into_iter().zip(&self.columns) {
            if value.is_null() {
                if !col.nullable {
                    if let Some(default) = &col.default {
                        out.push(default.clone());
                        continue;
                    }
                    return Err(SchemaError::NullViolation {
                        column: col.name.clone(),
                    });
                }
                out.push(Value::Null);
                continue;
            }
            match value.coerce(col.ty) {
                Some(v) => out.push(v),
                None => {
                    return Err(SchemaError::TypeMismatch {
                        column: col.name.clone(),
                        expected: col.ty,
                        got: value.data_type(),
                    })
                }
            }
        }
        Ok(out)
    }
}

/// Errors raised by schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// A row had the wrong number of values.
    ColumnCountMismatch {
        /// Columns the schema defines.
        expected: usize,
        /// Values the row supplied.
        got: usize,
    },
    /// NULL in a non-nullable column.
    NullViolation {
        /// The violated column.
        column: String,
    },
    /// A value's type does not match its column.
    TypeMismatch {
        /// The violated column.
        column: String,
        /// The column's declared type.
        expected: DataType,
        /// The supplied value's type (None for NULL).
        got: Option<DataType>,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ColumnCountMismatch { expected, got } => {
                write!(
                    f,
                    "row has {got} values but the table has {expected} columns"
                )
            }
            SchemaError::NullViolation { column } => {
                write!(f, "column {column} is NOT NULL but received NULL")
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "column {column} expects {expected} but received {}",
                got.map(|t| t.to_string()).unwrap_or_else(|| "NULL".into())
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_names_look_up_every_case_insensitive_match() {
        let names = ["objID", "ra", "dec", "RA", "modelMag_r", "b"];
        let names = ColumnNames::new(names.iter().map(|n| n.to_string()).collect());
        assert_eq!(names.ordinals("OBJid"), &[0]);
        assert_eq!(names.ordinals("ra"), &[1, 3], "duplicates, ascending");
        assert_eq!(names.ordinals("MODELMAG_R"), &[4]);
        assert_eq!(names.ordinals("b"), &[5]);
        assert!(names.ordinals("r").is_empty());
        assert!(names.ordinals("modelMag_g").is_empty());
        assert_eq!(names.get(2), Some("dec"));
        assert_eq!(schema().column_index("OBJID"), Some(0));
    }

    fn schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::new("objID", DataType::Int).describe("unique object id"),
            ColumnDef::new("ra", DataType::Float).with_unit("deg"),
            ColumnDef::new("name", DataType::Str).nullable(),
            ColumnDef::new("flags", DataType::Int).with_default(Value::Int(0)),
        ])
        .with_primary_key(&["objID"])
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("objid"), Some(0));
        assert_eq!(s.column_index("RA"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("NAME").unwrap().ty, DataType::Str);
    }

    #[test]
    fn primary_key_names() {
        let s = schema();
        assert_eq!(s.primary_key_names(), vec!["objID"]);
        assert_eq!(s.primary_key(), &[0]);
    }

    #[test]
    fn validate_accepts_good_row_and_coerces() {
        let s = schema();
        let row = s
            .validate_row(vec![
                Value::str("17"),
                Value::Int(185),
                Value::Null,
                Value::Int(3),
            ])
            .unwrap();
        assert_eq!(row[0], Value::Int(17));
        assert_eq!(row[1], Value::Float(185.0));
        assert!(row[2].is_null());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let s = schema();
        let err = s.validate_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SchemaError::ColumnCountMismatch { .. }));
    }

    #[test]
    fn validate_rejects_null_in_not_null_column() {
        let s = schema();
        let err = s
            .validate_row(vec![
                Value::Null,
                Value::Float(1.0),
                Value::Null,
                Value::Int(0),
            ])
            .unwrap_err();
        assert!(matches!(err, SchemaError::NullViolation { .. }));
    }

    #[test]
    fn validate_uses_default_for_null_in_defaulted_column() {
        let s = schema();
        let row = s
            .validate_row(vec![
                Value::Int(1),
                Value::Float(1.0),
                Value::Null,
                Value::Null,
            ])
            .unwrap();
        assert_eq!(row[3], Value::Int(0));
    }

    #[test]
    fn validate_rejects_uncoercible() {
        let s = schema();
        let err = s
            .validate_row(vec![
                Value::str("not a number"),
                Value::Float(1.0),
                Value::Null,
                Value::Int(0),
            ])
            .unwrap_err();
        assert!(matches!(err, SchemaError::TypeMismatch { .. }));
    }
}
