//! The database catalog: tables, secondary indices, views, foreign keys and
//! the logical clock.
//!
//! This is the "SQL Server" stand-in that the rest of the SkyServer
//! reproduction is built on.  It deliberately keeps the paper's
//! "no knobs" philosophy (§9.2): there is no tuning surface beyond creating
//! tables and indices; the query layer decides how to use them.

use crate::error::StorageError;
use crate::index::{BTreeIndex, IndexDef};
use crate::schema::TableSchema;
use crate::table::{RowId, Table, Timestamp};
use crate::table_stats::{self, TableStats};
use crate::value::Value;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A foreign-key constraint: `table(columns)` references
/// `ref_table(ref_columns)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// The referencing table.
    pub table: String,
    /// The referencing columns, in order.
    pub columns: Vec<String>,
    /// The referenced table.
    pub ref_table: String,
    /// The referenced columns, in order.
    pub ref_columns: Vec<String>,
}

/// A view: a named SQL text the query layer expands at planning time
/// (the storage layer only stores and lists them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The defining SELECT text.
    pub sql: String,
    /// Human-readable description (shown in the schema browser).
    pub description: String,
}

/// Summary row for the schema browser / Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TableSummary {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Bytes of row data.
    pub data_bytes: u64,
    /// Bytes across all of the table's indexes.
    pub index_bytes: u64,
    /// Average row width in bytes.
    pub avg_row_bytes: u64,
    /// Number of columns.
    pub columns: usize,
    /// Number of indexes.
    pub indexes: usize,
    /// Human-readable description (shown in the schema browser).
    pub description: String,
}

/// The database: a named collection of tables, indices, views and
/// constraints, plus a monotonically increasing logical timestamp used for
/// load bookkeeping and UNDO.
///
/// `Database` is `Clone`, and the clone is a copy-on-write snapshot: table
/// segments and index runs sit behind [`Arc`]s, so cloning copies only
/// catalog metadata while sharing all bulk data.  Mutating either copy
/// afterwards detaches just the segments and index runs it touches.  This
/// is the primitive the release catalog ([`crate::release`]) builds on.
#[derive(Debug, Clone, Default)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
    /// Indices grouped by lowercase table name, shared copy-on-write
    /// between database snapshots.
    indexes: BTreeMap<String, Vec<Arc<BTreeIndex>>>,
    views: BTreeMap<String, ViewDef>,
    foreign_keys: Vec<ForeignKey>,
    /// Optimizer statistics per lowercase table name, collected by
    /// [`Database::analyze_table`].  A snapshot: single-row DML leaves them
    /// stale until the next analyze (batch ingest re-analyzes).  The
    /// per-segment summaries they are merged from live in the segments.
    stats: BTreeMap<String, TableStats>,
    clock: Timestamp,
    /// When false, FK checks are skipped (bulk load fast path); violations
    /// are detected later by [`Database::validate_foreign_keys`].
    enforce_foreign_keys: bool,
    /// What the query layer derives from the catalog alone
    /// ([`Database::catalog_memo`]).
    memo: CatalogMemo,
}

/// A slot for facts derived from the catalog alone, built at most once per
/// catalog state.  Every DDL call gives the database a fresh slot; a clone
/// (a release, a fork) shares the slot of the catalog it copied until it
/// changes its own, so no state can read facts built for another.
#[derive(Clone, Default)]
struct CatalogMemo(Arc<OnceLock<Box<dyn Any + Send + Sync>>>);

impl std::fmt::Debug for CatalogMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CatalogMemo")
    }
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            enforce_foreign_keys: true,
            ..Default::default()
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Advance and return the logical clock.
    pub fn next_timestamp(&mut self) -> Timestamp {
        self.clock += 1;
        self.clock
    }

    /// Current value of the logical clock.
    pub fn current_timestamp(&self) -> Timestamp {
        self.clock
    }

    /// Enable or disable foreign-key enforcement on insert (bulk loads
    /// disable it and validate at the end of the load step).
    pub fn set_enforce_foreign_keys(&mut self, enforce: bool) {
        self.enforce_foreign_keys = enforce;
    }

    /// Is foreign-key enforcement on?  A step that turns it off restores
    /// what it found.
    pub fn enforces_foreign_keys(&self) -> bool {
        self.enforce_foreign_keys
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table.  Fails if a table or view of that name exists.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: TableSchema,
    ) -> Result<(), StorageError> {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(StorageError::DuplicateName(name));
        }
        self.tables.insert(key, Table::new(name, schema));
        self.memo = CatalogMemo::default();
        Ok(())
    }

    /// Drop a table and its indices.  Temp tables use this when a session
    /// ends.
    pub fn drop_table(&mut self, name: &str) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        if self.tables.remove(&key).is_none() {
            return Err(StorageError::UnknownTable(name.into()));
        }
        self.indexes.remove(&key);
        self.stats.remove(&key);
        self.memo = CatalogMemo::default();
        Ok(())
    }

    /// Remove every row of a table, empty its indexes and drop its
    /// statistics (a recomputed table such as `Neighbors` starts over).
    pub fn truncate_table(&mut self, name: &str) -> Result<(), StorageError> {
        let key = name.to_ascii_lowercase();
        let table = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(name.into()))?;
        table.truncate();
        for index in self.indexes.get_mut(&key).into_iter().flatten() {
            *index = Arc::new(BTreeIndex::build(index.def().clone(), table)?);
        }
        self.stats.remove(&key);
        Ok(())
    }

    /// Give back the spare capacity of the segments and index runs this
    /// catalog holds alone — the ones written since it last shared them.
    /// A write copies a segment or run at its exact length and then grows
    /// it; publishing calls this before pinning the catalog, so a release
    /// keeps what it holds and not the room its writes made.
    pub fn shrink_unshared(&mut self) {
        self.tables.values_mut().for_each(Table::shrink_unshared);
        for index in self.indexes.values_mut().flatten() {
            if let Some(index) = Arc::get_mut(index) {
                index.shrink_unshared();
            }
        }
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Get a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::UnknownTable(name.into()))
    }

    /// Mutable table access (used by the executor's DML operators; callers
    /// must maintain indices via [`Database::insert`] etc. instead whenever
    /// possible).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::UnknownTable(name.into()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Create a secondary index over an existing table, building it from the
    /// current contents.
    pub fn create_index(&mut self, def: IndexDef) -> Result<(), StorageError> {
        let table_key = def.table.to_ascii_lowercase();
        let table = self
            .tables
            .get(&table_key)
            .ok_or_else(|| StorageError::UnknownTable(def.table.clone()))?;
        let existing = self.indexes.entry(table_key).or_default();
        if existing
            .iter()
            .any(|i| i.def().name.eq_ignore_ascii_case(&def.name))
        {
            return Err(StorageError::DuplicateName(def.name));
        }
        let index = BTreeIndex::build(def, table)?;
        existing.push(Arc::new(index));
        self.memo = CatalogMemo::default();
        Ok(())
    }

    /// All indices defined on a table.  Indexes are shared copy-on-write
    /// between database snapshots (see the type-level docs).
    pub fn indexes_for(&self, table: &str) -> &[Arc<BTreeIndex>] {
        self.indexes
            .get(&table.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Find an index on `table` by name.
    pub fn index(&self, table: &str, name: &str) -> Option<&BTreeIndex> {
        self.indexes_for(table)
            .iter()
            .find(|i| i.def().name.eq_ignore_ascii_case(name))
            .map(Arc::as_ref)
    }

    /// Register a view (SQL text; expanded by the query layer).
    pub fn create_view(
        &mut self,
        name: impl Into<String>,
        sql: impl Into<String>,
        description: impl Into<String>,
    ) -> Result<(), StorageError> {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(StorageError::DuplicateName(name));
        }
        self.views.insert(
            key,
            ViewDef {
                name,
                sql: sql.into(),
                description: description.into(),
            },
        );
        self.memo = CatalogMemo::default();
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str) -> Result<(), StorageError> {
        if self.views.remove(&name.to_ascii_lowercase()).is_none() {
            return Err(StorageError::UnknownTable(name.into()));
        }
        self.memo = CatalogMemo::default();
        Ok(())
    }

    /// The query layer's facts about this catalog: `build` runs on first use
    /// after any DDL, and the result is shared with every clone that has the
    /// same catalog.  `None` when the slot holds a different type.
    pub fn catalog_memo<T: Any + Send + Sync>(
        &self,
        build: impl FnOnce(&Database) -> T,
    ) -> Option<&T> {
        self.memo
            .0
            .get_or_init(|| Box::new(build(self)))
            .downcast_ref()
    }

    /// Look up a view by name.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// All views, sorted by name.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    /// Declare a foreign key.  Existing data is *not* validated here; call
    /// [`Database::validate_foreign_keys`] after a bulk load.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<(), StorageError> {
        if !self.has_table(&fk.table) {
            return Err(StorageError::UnknownTable(fk.table));
        }
        if !self.has_table(&fk.ref_table) {
            return Err(StorageError::UnknownTable(fk.ref_table));
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys whose child side is `table`.
    pub fn foreign_keys_of(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.table.eq_ignore_ascii_case(table))
            .collect()
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert one row, maintaining all indices and (when enabled) checking
    /// foreign keys.  Returns the RowId.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, StorageError> {
        let ts = self.next_timestamp();
        self.insert_with_timestamp(table, row, ts)
    }

    /// Insert with an explicit timestamp (load steps stamp whole batches
    /// with their step window).
    pub fn insert_with_timestamp(
        &mut self,
        table: &str,
        row: Vec<Value>,
        ts: Timestamp,
    ) -> Result<RowId, StorageError> {
        if self.enforce_foreign_keys {
            self.check_foreign_keys(table, &row)?;
        }
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(table.into()))?;
        let row = t.schema().validate_row(row)?;
        // Every check comes before the first write: a rejected row leaves
        // the table and all of its indexes as they were.
        let idxs = self
            .indexes
            .get_mut(&key)
            .map_or(&mut [][..], Vec::as_mut_slice);
        for idx in idxs.iter() {
            idx.check_unique(&row)?;
        }
        let row_id = t.append(&row, ts);
        for idx in idxs {
            Arc::make_mut(idx).insert_row(row_id, &row)?;
        }
        Ok(row_id)
    }

    /// Bulk insert; returns the number of rows inserted.  Re-analyzes the
    /// table's optimizer statistics at the end of the batch (each batch is a
    /// publish point, per the DR1 load pipeline), which summarizes only the
    /// segments the batch wrote.
    pub fn insert_many(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
        ts: Timestamp,
    ) -> Result<usize, StorageError> {
        let mut n = 0;
        for row in rows {
            self.insert_with_timestamp(table, row, ts)?;
            n += 1;
        }
        self.analyze_table(table)?;
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Optimizer statistics
    // ------------------------------------------------------------------

    /// Collect fresh optimizer statistics for one table: merged from the
    /// segments' cached summaries, recomputing those of segments written
    /// since (see [`crate::table_stats`]).
    pub fn analyze_table(&mut self, table: &str) -> Result<(), StorageError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| StorageError::UnknownTable(table.into()))?;
        let stats = table_stats::analyze(t, self.clock);
        self.stats.insert(key, stats);
        Ok(())
    }

    /// Collect optimizer statistics for every table.
    pub fn analyze_all(&mut self) {
        let keys: Vec<String> = self.tables.keys().cloned().collect();
        for key in keys {
            if let Some(t) = self.tables.get(&key) {
                let stats = table_stats::analyze(t, self.clock);
                self.stats.insert(key, stats);
            }
        }
    }

    /// The most recently collected statistics for `table`, if any.
    pub fn table_stats(&self, table: &str) -> Option<&TableStats> {
        self.stats.get(&table.to_ascii_lowercase())
    }

    /// Delete a row by id, maintaining indices.  Returns true if it was live.
    pub fn delete(&mut self, table: &str, row_id: RowId) -> Result<bool, StorageError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| StorageError::UnknownTable(table.into()))?;
        let Some(row) = t.get(row_id) else {
            return Ok(false);
        };
        t.delete(row_id);
        if let Some(idxs) = self.indexes.get_mut(&key) {
            for idx in idxs.iter_mut() {
                Arc::make_mut(idx).remove_row(row_id, &row);
            }
        }
        Ok(true)
    }

    /// Delete every row of `table` whose insert timestamp lies in
    /// `[start, stop]` -- the loader's UNDO.  Returns the number removed.
    pub fn delete_by_timestamp_range(
        &mut self,
        table: &str,
        start: Timestamp,
        stop: Timestamp,
    ) -> Result<usize, StorageError> {
        let key = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&key)
            .ok_or_else(|| StorageError::UnknownTable(table.into()))?;
        let victims: Vec<RowId> = t
            .row_ids()
            .filter(|&id| {
                t.insert_timestamp(id)
                    .map(|ts| ts >= start && ts <= stop)
                    .unwrap_or(false)
            })
            .collect();
        let mut removed = 0;
        for id in victims {
            if self.delete(table, id)? {
                removed += 1;
            }
        }
        Ok(removed)
    }

    fn check_foreign_keys(&self, table: &str, row: &[Value]) -> Result<(), StorageError> {
        let child = self.table(table)?;
        for fk in self.foreign_keys_of(table) {
            let values: Vec<Value> = fk
                .columns
                .iter()
                .map(|c| {
                    child
                        .schema()
                        .column_index(c)
                        .and_then(|i| row.get(i).cloned())
                        .unwrap_or(Value::Null)
                })
                .collect();
            if values.iter().any(Value::is_null) {
                continue; // NULL FK values are not checked.
            }
            if !self.parent_exists(fk, &values)? {
                return Err(StorageError::ForeignKeyViolation {
                    table: table.to_string(),
                    constraint: fk.name.clone(),
                    value: values
                        .iter()
                        .map(Value::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                });
            }
        }
        Ok(())
    }

    fn parent_exists(&self, fk: &ForeignKey, values: &[Value]) -> Result<bool, StorageError> {
        let parent = self.table(&fk.ref_table)?;
        // Prefer an index whose key columns start with the referenced columns.
        for idx in self.indexes_for(&fk.ref_table) {
            let keys = &idx.def().key_columns;
            if keys.len() >= fk.ref_columns.len()
                && keys
                    .iter()
                    .zip(&fk.ref_columns)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
            {
                return Ok(idx.range(values, values).next().is_some());
            }
        }
        // Fall back to a scan.
        let positions: Vec<usize> = fk
            .ref_columns
            .iter()
            .map(|c| {
                parent.schema().column_index(c).ok_or_else(|| {
                    StorageError::ConstraintViolation(format!(
                        "foreign key {} references unknown column {c}",
                        fk.name
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(parent
            .iter()
            .any(|(_, r)| positions.iter().zip(values).all(|(&p, v)| r[p].sql_eq(v))))
    }

    /// Validate every foreign key over the whole database (used after bulk
    /// loads that ran with enforcement off).  Returns the list of violations
    /// as human-readable strings (empty = consistent).
    pub fn validate_foreign_keys(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for fk in &self.foreign_keys {
            let Ok(child) = self.table(&fk.table) else {
                continue;
            };
            let positions: Vec<usize> = fk
                .columns
                .iter()
                .filter_map(|c| child.schema().column_index(c))
                .collect();
            if positions.len() != fk.columns.len() {
                problems.push(format!("{}: child columns missing", fk.name));
                continue;
            }
            for (_, row) in child.iter() {
                let values: Vec<Value> = positions.iter().map(|&p| row[p].clone()).collect();
                if values.iter().any(Value::is_null) {
                    continue;
                }
                match self.parent_exists(fk, &values) {
                    Ok(true) => {}
                    Ok(false) => problems.push(format!(
                        "{}: value ({}) has no parent in {}",
                        fk.name,
                        values
                            .iter()
                            .map(Value::to_string)
                            .collect::<Vec<_>>()
                            .join(","),
                        fk.ref_table
                    )),
                    Err(e) => problems.push(format!("{}: {e}", fk.name)),
                }
            }
        }
        problems
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-table summary (rows, bytes, index bytes) -- the data behind the
    /// paper's Table 1 and the schema browser.
    pub fn summaries(&self) -> Vec<TableSummary> {
        self.tables
            .values()
            .map(|t| {
                let idx = self.indexes_for(t.name());
                TableSummary {
                    name: t.name().to_string(),
                    rows: t.row_count() as u64,
                    data_bytes: t.data_bytes(),
                    index_bytes: idx.iter().map(|i| i.bytes()).sum(),
                    avg_row_bytes: t.avg_row_bytes(),
                    columns: t.schema().len(),
                    indexes: idx.len(),
                    description: t.description().to_string(),
                }
            })
            .collect()
    }

    /// Total data bytes across all tables.
    pub fn total_data_bytes(&self) -> u64 {
        self.tables.values().map(Table::data_bytes).sum()
    }

    /// Total index bytes across all tables.
    pub fn total_index_bytes(&self) -> u64 {
        self.indexes
            .values()
            .flat_map(|v| v.iter().map(|i| i.bytes()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn plate_schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::new("plateID", DataType::Int),
            ColumnDef::new("ra", DataType::Float),
        ])
        .with_primary_key(&["plateID"])
    }

    fn spec_schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::new("specObjID", DataType::Int),
            ColumnDef::new("plateID", DataType::Int),
            ColumnDef::new("z", DataType::Float),
        ])
        .with_primary_key(&["specObjID"])
    }

    fn db() -> Database {
        let mut db = Database::new("skyserver_test");
        db.create_table("plate", plate_schema()).unwrap();
        db.create_table("specObj", spec_schema()).unwrap();
        db.create_index(IndexDef::new("pk_plate", "plate", &["plateID"]).unique())
            .unwrap();
        db.add_foreign_key(ForeignKey {
            name: "fk_spec_plate".into(),
            table: "specObj".into(),
            columns: vec!["plateID".into()],
            ref_table: "plate".into(),
            ref_columns: vec!["plateID".into()],
        })
        .unwrap();
        db
    }

    #[test]
    fn create_and_drop_tables() {
        let mut d = db();
        assert!(d.has_table("PLATE"));
        assert_eq!(d.table_names().len(), 2);
        assert!(matches!(
            d.create_table("plate", plate_schema()),
            Err(StorageError::DuplicateName(_))
        ));
        d.drop_table("specObj").unwrap();
        assert!(!d.has_table("specobj"));
        assert!(d.drop_table("specObj").is_err());
    }

    #[test]
    fn insert_maintains_indices() {
        let mut d = db();
        d.insert("plate", vec![Value::Int(1), Value::Float(180.0)])
            .unwrap();
        d.insert("plate", vec![Value::Int(2), Value::Float(190.0)])
            .unwrap();
        let idx = d.index("plate", "pk_plate").unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.range(&[Value::Int(2)], &[Value::Int(2)]).count(), 1);
    }

    #[test]
    fn a_rejected_insert_changes_nothing() {
        // A non-unique index ahead of the primary key, so a duplicate key
        // is only found after an earlier index could have been written.
        let mut d = Database::new("skyserver_test");
        d.create_table("plate", plate_schema()).unwrap();
        d.create_index(IndexDef::new("ix_plate_ra", "plate", &["ra"]))
            .unwrap();
        d.create_index(IndexDef::new("pk_plate", "plate", &["plateID"]).unique())
            .unwrap();
        d.insert("plate", vec![Value::Int(1), Value::Float(180.0)])
            .unwrap();
        let counts = |d: &Database| {
            let t = d.table("plate").unwrap();
            let lens: Vec<usize> = d.indexes_for("plate").iter().map(|i| i.len()).collect();
            (t.row_count(), t.iter().count(), t.data_bytes(), lens)
        };
        let before = counts(&d);
        let err = d
            .insert("plate", vec![Value::Int(1), Value::Float(190.0)])
            .unwrap_err();
        assert!(matches!(err, StorageError::Index(_)), "{err}");
        assert_eq!(counts(&d), before);
        assert_eq!(before, (1, 1, 16, vec![1, 1]));
    }

    #[test]
    fn foreign_key_enforced_on_insert() {
        let mut d = db();
        d.insert("plate", vec![Value::Int(1), Value::Float(180.0)])
            .unwrap();
        // Valid child.
        d.insert(
            "specObj",
            vec![Value::Int(100), Value::Int(1), Value::Float(0.1)],
        )
        .unwrap();
        // Dangling child.
        let err = d
            .insert(
                "specObj",
                vec![Value::Int(101), Value::Int(99), Value::Float(0.1)],
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn fk_enforcement_can_be_deferred_and_validated() {
        let mut d = db();
        d.set_enforce_foreign_keys(false);
        d.insert(
            "specObj",
            vec![Value::Int(100), Value::Int(77), Value::Float(0.1)],
        )
        .unwrap();
        let problems = d.validate_foreign_keys();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("fk_spec_plate"));
        // Fix the problem and re-validate.
        d.insert("plate", vec![Value::Int(77), Value::Float(10.0)])
            .unwrap();
        assert!(d.validate_foreign_keys().is_empty());
    }

    #[test]
    fn delete_maintains_indices() {
        let mut d = db();
        let rid = d
            .insert("plate", vec![Value::Int(5), Value::Float(1.0)])
            .unwrap();
        assert!(d.delete("plate", rid).unwrap());
        assert!(!d.delete("plate", rid).unwrap());
        assert_eq!(d.index("plate", "pk_plate").unwrap().len(), 0);
    }

    #[test]
    fn undo_by_timestamp_range_maintains_indices() {
        let mut d = db();
        d.insert_with_timestamp("plate", vec![Value::Int(1), Value::Float(1.0)], 10)
            .unwrap();
        d.insert_with_timestamp("plate", vec![Value::Int(2), Value::Float(2.0)], 20)
            .unwrap();
        d.insert_with_timestamp("plate", vec![Value::Int(3), Value::Float(3.0)], 30)
            .unwrap();
        let removed = d.delete_by_timestamp_range("plate", 15, 25).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(d.table("plate").unwrap().row_count(), 2);
        assert_eq!(d.index("plate", "pk_plate").unwrap().len(), 2);
    }

    #[test]
    fn undo_by_timestamp_window() {
        let mut d = db();
        for (id, ts) in [(1, 100), (2, 200), (3, 205), (4, 300)] {
            d.insert_with_timestamp("plate", vec![Value::Int(id), Value::Float(1.0)], ts)
                .unwrap();
        }
        assert_eq!(d.delete_by_timestamp_range("plate", 150, 250).unwrap(), 2);
        let t = d.table("plate").unwrap();
        assert_eq!(t.row_count(), 2);
        let remaining: Vec<i64> = t.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        assert_eq!(remaining, vec![1, 4]);
    }

    #[test]
    fn undoing_the_newest_batch_trims_the_dead_tail() {
        let mut d = db();
        for id in 0..10 {
            d.insert_with_timestamp("plate", vec![Value::Int(id), Value::Float(0.0)], 1)
                .unwrap();
        }
        let slots = d.table("plate").unwrap().slot_count();
        let rows: Vec<Vec<Value>> = (10..2500)
            .map(|id| vec![Value::Int(id), Value::Float(0.0)])
            .collect();
        d.insert_many("plate", rows, 2).unwrap();
        // An older row deleted in between stays a tombstone: it is not at
        // the tail.
        assert!(d.delete("plate", 3).unwrap());
        assert_eq!(d.delete_by_timestamp_range("plate", 2, 2).unwrap(), 2490);
        let t = d.table("plate").unwrap();
        assert_eq!(t.slot_count(), slots);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.row_count(), 9);
        assert_eq!(
            t.get(9).unwrap()[0],
            Value::Int(9),
            "live rows keep their ids"
        );
        // The next insert reuses the trimmed ids; the index agrees.
        let id = d
            .insert("plate", vec![Value::Int(77), Value::Float(0.0)])
            .unwrap();
        assert_eq!(id, slots);
        let hits: Vec<usize> = d
            .index("plate", "pk_plate")
            .unwrap()
            .range(&[Value::Int(77)], &[Value::Int(77)])
            .map(|e| e.row_id())
            .collect();
        assert_eq!(hits, vec![slots]);
        // Deleting every row leaves an empty table.
        for id in d.table("plate").unwrap().row_ids().collect::<Vec<_>>() {
            d.delete("plate", id).unwrap();
        }
        let t = d.table("plate").unwrap();
        assert_eq!((t.slot_count(), t.segments().len()), (0, 0));
    }

    #[test]
    fn shrink_unshared_leaves_contents_and_shared_segments_alone() {
        let mut d = db();
        let rows = (0..1500)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        d.insert_many("plate", rows, 1).unwrap();
        let snapshot = d.clone();
        d.insert("plate", vec![Value::Int(-1), Value::Float(0.5)])
            .unwrap();
        let rows = |d: &Database| -> Vec<Vec<Value>> {
            d.table("plate").unwrap().iter().map(|(_, r)| r).collect()
        };
        let before = rows(&d);
        d.shrink_unshared();
        assert_eq!(rows(&d), before);
        let (old, new) = (
            snapshot.table("plate").unwrap().segments(),
            d.table("plate").unwrap().segments(),
        );
        assert!(
            Arc::ptr_eq(&old[0], &new[0]),
            "a shared segment stays shared"
        );
        assert!(!Arc::ptr_eq(&old[1], &new[1]));
        let pk = d.index("plate", "pk_plate").unwrap();
        assert_eq!(pk.range(&[Value::Int(-1)], &[Value::Int(-1)]).count(), 1);
        assert_eq!(pk.len(), 1501);
    }

    #[test]
    fn truncate_table_empties_the_heap_indexes_and_statistics() {
        let mut d = db();
        let rows = (0..5)
            .map(|i| vec![Value::Int(i), Value::Float(0.0)])
            .collect();
        d.insert_many("plate", rows, 1).unwrap();
        d.truncate_table("PLATE").unwrap();
        assert_eq!(d.table("plate").unwrap().row_count(), 0);
        assert_eq!(d.index("plate", "pk_plate").unwrap().len(), 0);
        assert!(d.table_stats("plate").is_none());
        // The same keys go back in without a duplicate-key error.
        let rows = (0..5)
            .map(|i| vec![Value::Int(i), Value::Float(0.0)])
            .collect();
        assert_eq!(d.insert_many("plate", rows, 2).unwrap(), 5);
        assert!(d.truncate_table("nope").is_err());
    }

    #[test]
    fn views_and_duplicates() {
        let mut d = db();
        d.create_view(
            "Galaxy",
            "SELECT * FROM photoObj WHERE type = 3",
            "galaxies",
        )
        .unwrap();
        assert!(d.view("galaxy").is_some());
        assert!(d.create_view("galaxy", "x", "dup").is_err());
        assert!(d.create_table("Galaxy", plate_schema()).is_err());
        assert_eq!(d.views().count(), 1);
    }

    #[test]
    fn summaries_report_sizes() {
        let mut d = db();
        for i in 0..100 {
            d.insert("plate", vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let summaries = d.summaries();
        let plate = summaries.iter().find(|s| s.name == "plate").unwrap();
        assert_eq!(plate.rows, 100);
        assert_eq!(plate.avg_row_bytes, 16);
        assert!(plate.index_bytes > 0);
        assert_eq!(plate.indexes, 1);
        assert!(d.total_data_bytes() >= plate.data_bytes);
        assert!(d.total_index_bytes() >= plate.index_bytes);
    }

    #[test]
    fn timestamps_monotone() {
        let mut d = db();
        let a = d.next_timestamp();
        let b = d.next_timestamp();
        assert!(b > a);
        assert_eq!(d.current_timestamp(), b);
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        assert!(d.insert("nope", vec![]).is_err());
        assert!(d.table("nope").is_err());
        assert!(d.create_index(IndexDef::new("x", "nope", &["a"])).is_err());
    }

    #[test]
    fn stats_go_stale_under_single_row_dml_until_reanalyzed() {
        // Batch inserts are publish points and re-analyze automatically;
        // single-row DML deliberately does not (the DR1 pipeline defers
        // that cost to the next ANALYZE).  Pin both halves of the contract:
        // stats lag the table after insert/delete, and analyze_table
        // resynchronizes them.
        let mut d = db();
        let ts = d.next_timestamp();
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        d.insert_many("plate", rows, ts).unwrap();
        assert_eq!(d.table_stats("plate").unwrap().row_count, 50);

        let extra = d
            .insert("plate", vec![Value::Int(99), Value::Float(4.5)])
            .unwrap();
        let stale = d.table_stats("plate").unwrap();
        assert_eq!(
            stale.row_count, 50,
            "single-row insert must not rewrite published stats"
        );
        assert!(
            matches!(stale.column(1).unwrap().max, Value::Float(m) if m < 99.0),
            "stale max still reflects the analyzed batch"
        );

        d.analyze_table("plate").unwrap();
        let fresh = d.table_stats("plate").unwrap();
        assert_eq!(fresh.row_count, 51);
        assert_eq!(fresh.column(0).unwrap().max, Value::Int(99));

        d.delete("plate", extra).unwrap();
        assert_eq!(
            d.table_stats("plate").unwrap().row_count,
            51,
            "delete leaves stats stale too"
        );
        d.analyze_table("plate").unwrap();
        assert_eq!(d.table_stats("plate").unwrap().row_count, 50);
    }
}
