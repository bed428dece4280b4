//! The release catalog: named, immutable, copy-on-write database snapshots.
//!
//! The real SkyServer's life was a sequence of *Data Releases* (DR1, DR2,
//! ...): a new catalog version is published while the previous one keeps
//! serving public traffic.  This module reproduces that lifecycle on top of
//! the storage layer's copy-on-write primitives:
//!
//! * a [`Database`] clone shares every columnar [`Segment`] and index run
//!   behind `Arc`s, so snapshotting the current state for a release
//!   copies only catalog metadata (names, schemas, views, stats);
//! * [`ReleaseCatalog::publish`] pins such a snapshot under a release name
//!   (`dr1`, `dr2`, ...).  Published snapshots are immutable: readers pin
//!   the `Arc<Database>` and are never affected by later publishes;
//! * [`ReleaseCatalog::diff`] reports, per table, how much of a release is
//!   physically shared with another one — segment identity is
//!   `Arc::as_ptr`, so "unchanged" means *the same bytes*, not merely
//!   equal contents.
//!
//! Each release carries its own table statistics and zone maps for free:
//! they live inside the snapshotted `Database`, frozen at publish time.

use crate::database::Database;
use crate::error::StorageError;
use crate::table::{Segment, Table};
use std::collections::HashSet;
use std::sync::Arc;

/// One published release: a named immutable database snapshot.
#[derive(Debug, Clone)]
struct Release {
    /// Release name as published (`dr1`, `dr2`, ...).
    name: String,
    /// 1-based publish sequence number.
    seq: u64,
    /// The pinned snapshot.
    db: Arc<Database>,
}

/// A catalog of published releases, in publish order.
///
/// The catalog itself is cheap to clone (it holds `Arc`s), so a forked
/// engine carries the same release history as its parent.
#[derive(Debug, Clone, Default)]
pub struct ReleaseCatalog {
    releases: Vec<Release>,
}

/// Summary of one published release (the web tier's release-list payload).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReleaseInfo {
    /// Release name.
    pub name: String,
    /// 1-based publish sequence number.
    pub seq: u64,
    /// Number of tables in the snapshot.
    pub tables: usize,
    /// Total live rows across all tables.
    pub rows: u64,
    /// Total bytes of live row data.
    pub data_bytes: u64,
}

/// How a table differs between two releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// The table exists only in the `to` release.
    Added,
    /// The table exists only in the `from` release.
    Removed,
    /// The table exists in both but rows or segments differ.
    Changed,
    /// The table is physically identical (every segment shared).
    Unchanged,
}

impl DiffStatus {
    /// The stable lowercase wire name the JSON API renders.
    pub fn as_str(self) -> &'static str {
        match self {
            DiffStatus::Added => "added",
            DiffStatus::Removed => "removed",
            DiffStatus::Changed => "changed",
            DiffStatus::Unchanged => "unchanged",
        }
    }
}

impl serde::Serialize for DiffStatus {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for DiffStatus {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        match content {
            serde::Content::Str(s) => match s.as_str() {
                "added" => Ok(DiffStatus::Added),
                "removed" => Ok(DiffStatus::Removed),
                "changed" => Ok(DiffStatus::Changed),
                "unchanged" => Ok(DiffStatus::Unchanged),
                other => Err(serde::DeError::custom(format!(
                    "unknown diff status `{other}`"
                ))),
            },
            _ => Err(serde::DeError::custom("diff status must be a string")),
        }
    }
}

/// Per-table half of a [`ReleaseDiff`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TableDiff {
    /// Table name.
    pub table: String,
    /// Added / removed / changed / unchanged.
    pub status: DiffStatus,
    /// Live rows in the `from` release (0 when the table is absent there).
    pub rows_from: u64,
    /// Live rows in the `to` release (0 when the table is absent there).
    pub rows_to: u64,
    /// Segments present in `to` but not physically shared with `from`.
    pub segments_added: usize,
    /// Segments present in `from` but not physically shared with `to`.
    pub segments_removed: usize,
    /// Segments physically shared (same `Arc`) by both releases.
    pub segments_shared: usize,
}

/// The full diff report between two releases.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReleaseDiff {
    /// The baseline release name.
    pub from: String,
    /// The compared release name.
    pub to: String,
    /// Per-table diffs, sorted by table name; unchanged tables included so
    /// the report doubles as a sharing audit.
    pub tables: Vec<TableDiff>,
}

impl ReleaseCatalog {
    /// An empty catalog.
    pub fn new() -> ReleaseCatalog {
        ReleaseCatalog::default()
    }

    /// Number of published releases.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// Publish `db` under `name`.  Names are case-insensitive and must be
    /// unique; republishing an existing name is an error (releases are
    /// immutable once published).
    pub fn publish(&mut self, name: &str, db: Arc<Database>) -> Result<(), StorageError> {
        if self.contains(name) {
            return Err(StorageError::DuplicateName(name.to_string()));
        }
        let seq = self.releases.len() as u64 + 1;
        self.releases.push(Release {
            name: name.to_string(),
            seq,
            db,
        });
        Ok(())
    }

    /// Is `name` a published release (case-insensitive)?
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// The pinned snapshot published under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Arc<Database>> {
        self.find(name).map(|r| &r.db)
    }

    /// Release names in publish order.
    pub fn names(&self) -> Vec<String> {
        self.releases.iter().map(|r| r.name.clone()).collect()
    }

    /// Summaries of every release, in publish order.
    pub fn infos(&self) -> Vec<ReleaseInfo> {
        self.releases
            .iter()
            .map(|r| {
                let rows: u64 =
                    r.db.table_names()
                        .iter()
                        .filter_map(|n| r.db.table(n).ok())
                        .map(|t| t.row_count() as u64)
                        .sum();
                ReleaseInfo {
                    name: r.name.clone(),
                    seq: r.seq,
                    tables: r.db.table_names().len(),
                    rows,
                    data_bytes: r.db.total_data_bytes(),
                }
            })
            .collect()
    }

    /// Diff two releases: per table, rows on each side and how many
    /// segments are physically shared vs added/removed.  Errors with
    /// [`StorageError::UnknownRelease`] when either name is not published.
    pub fn diff(&self, from: &str, to: &str) -> Result<ReleaseDiff, StorageError> {
        let a = self
            .find(from)
            .ok_or_else(|| StorageError::UnknownRelease(from.to_string()))?;
        let b = self
            .find(to)
            .ok_or_else(|| StorageError::UnknownRelease(to.to_string()))?;
        let mut names: Vec<String> = a.db.table_names();
        for n in b.db.table_names() {
            if !names.iter().any(|x| x.eq_ignore_ascii_case(&n)) {
                names.push(n);
            }
        }
        names.sort_by_key(|n| n.to_ascii_lowercase());
        let tables = names
            .iter()
            .map(|name| table_diff(name, a.db.table(name).ok(), b.db.table(name).ok()))
            .collect();
        Ok(ReleaseDiff {
            from: a.name.clone(),
            to: b.name.clone(),
            tables,
        })
    }

    fn find(&self, name: &str) -> Option<&Release> {
        self.releases
            .iter()
            .find(|r| r.name.eq_ignore_ascii_case(name))
    }
}

/// Diff one table across two snapshots by physical segment identity.
fn table_diff(name: &str, from: Option<&Table>, to: Option<&Table>) -> TableDiff {
    let ptrs =
        |t: &Table| -> HashSet<*const Segment> { t.segments().iter().map(Arc::as_ptr).collect() };
    match (from, to) {
        (None, Some(t)) => TableDiff {
            table: name.to_string(),
            status: DiffStatus::Added,
            rows_from: 0,
            rows_to: t.row_count() as u64,
            segments_added: t.segments().len(),
            segments_removed: 0,
            segments_shared: 0,
        },
        (Some(f), None) => TableDiff {
            table: name.to_string(),
            status: DiffStatus::Removed,
            rows_from: f.row_count() as u64,
            rows_to: 0,
            segments_added: 0,
            segments_removed: f.segments().len(),
            segments_shared: 0,
        },
        (Some(f), Some(t)) => {
            let from_ptrs = ptrs(f);
            let shared = t
                .segments()
                .iter()
                .filter(|s| from_ptrs.contains(&Arc::as_ptr(s)))
                .count();
            let added = t.segments().len().saturating_sub(shared);
            let removed = f.segments().len().saturating_sub(shared);
            let status = if added == 0 && removed == 0 && f.row_count() == t.row_count() {
                DiffStatus::Unchanged
            } else {
                DiffStatus::Changed
            };
            TableDiff {
                table: name.to_string(),
                status,
                rows_from: f.row_count() as u64,
                rows_to: t.row_count() as u64,
                segments_added: added,
                segments_removed: removed,
                segments_shared: shared,
            }
        }
        // Unreachable by construction (names came from one of the sides),
        // but degrade gracefully rather than panic.
        (None, None) => TableDiff {
            table: name.to_string(),
            status: DiffStatus::Unchanged,
            rows_from: 0,
            rows_to: 0,
            segments_added: 0,
            segments_removed: 0,
            segments_shared: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::{DataType, Value};

    fn db_with_rows(n: i64) -> Database {
        let mut db = Database::new("sky");
        db.create_table(
            "obj",
            TableSchema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("mag", DataType::Float),
            ]),
        )
        .unwrap();
        for i in 0..n {
            db.insert("obj", vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        db
    }

    #[test]
    fn publish_and_lookup_are_case_insensitive() {
        let mut cat = ReleaseCatalog::new();
        cat.publish("dr1", Arc::new(db_with_rows(3))).unwrap();
        assert!(cat.contains("DR1"));
        assert!(cat.get("Dr1").is_some());
        assert_eq!(cat.names(), vec!["dr1"]);
        assert!(matches!(
            cat.publish("DR1", Arc::new(db_with_rows(1))),
            Err(StorageError::DuplicateName(_))
        ));
    }

    #[test]
    fn snapshots_are_immune_to_later_writes() {
        let mut cat = ReleaseCatalog::new();
        let mut live = db_with_rows(5);
        cat.publish("dr1", Arc::new(live.clone())).unwrap();
        live.insert("obj", vec![Value::Int(100), Value::Float(1.0)])
            .unwrap();
        assert_eq!(cat.get("dr1").unwrap().table("obj").unwrap().row_count(), 5);
        assert_eq!(live.table("obj").unwrap().row_count(), 6);
    }

    #[test]
    fn diff_reports_shared_and_changed_segments() {
        let mut cat = ReleaseCatalog::new();
        let mut live = db_with_rows(crate::table::SEGMENT_ROWS as i64 + 10);
        cat.publish("dr1", Arc::new(live.clone())).unwrap();
        // Append into the open tail segment: the full first segment stays
        // physically shared, the tail is rewritten.
        live.insert("obj", vec![Value::Int(999_999), Value::Float(0.0)])
            .unwrap();
        cat.publish("dr2", Arc::new(live.clone())).unwrap();
        let diff = cat.diff("dr1", "dr2").unwrap();
        assert_eq!(diff.from, "dr1");
        assert_eq!(diff.to, "dr2");
        let t = &diff.tables[0];
        assert_eq!(t.status, DiffStatus::Changed);
        assert_eq!(t.segments_shared, 1, "the sealed segment stays shared");
        assert_eq!(t.segments_added, 1, "the tail segment was rewritten");
        assert_eq!(t.segments_removed, 1);
        assert_eq!(t.rows_to, t.rows_from + 1);

        // A no-op publish shares everything.
        cat.publish("dr3", Arc::new(live.clone())).unwrap();
        let same = cat.diff("dr2", "dr3").unwrap();
        assert_eq!(same.tables[0].status, DiffStatus::Unchanged);
        assert_eq!(same.tables[0].segments_added, 0);

        assert!(matches!(
            cat.diff("dr1", "nope"),
            Err(StorageError::UnknownRelease(_))
        ));
    }

    #[test]
    fn diff_reports_added_and_removed_tables() {
        let mut cat = ReleaseCatalog::new();
        let mut live = db_with_rows(2);
        cat.publish("dr1", Arc::new(live.clone())).unwrap();
        live.create_table(
            "neighbors",
            TableSchema::new(vec![ColumnDef::new("id", DataType::Int)]),
        )
        .unwrap();
        live.insert("neighbors", vec![Value::Int(1)]).unwrap();
        live.drop_table("obj").unwrap();
        cat.publish("dr2", Arc::new(live)).unwrap();
        let diff = cat.diff("dr1", "dr2").unwrap();
        let by_name = |n: &str| diff.tables.iter().find(|t| t.table == n).unwrap();
        assert_eq!(by_name("neighbors").status, DiffStatus::Added);
        assert_eq!(by_name("obj").status, DiffStatus::Removed);
        assert_eq!(by_name("obj").segments_removed, 1);
    }

    #[test]
    fn infos_summarize_in_publish_order() {
        let mut cat = ReleaseCatalog::new();
        cat.publish("dr1", Arc::new(db_with_rows(4))).unwrap();
        cat.publish("dr2", Arc::new(db_with_rows(7))).unwrap();
        let infos = cat.infos();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "dr1");
        assert_eq!(infos[0].seq, 1);
        assert_eq!(infos[0].rows, 4);
        assert_eq!(infos[1].rows, 7);
        assert!(infos[1].data_bytes > 0);
    }
}
