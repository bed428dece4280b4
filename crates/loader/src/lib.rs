//! # skyserver-loader
//!
//! The SkyServer data-loading pipeline (§9.4 of the paper):
//!
//! 1. the processing pipeline (here: `skyserver-skygen`) emits CSV files,
//! 2. DTS-style **load steps** parse, validate and insert each file,
//!    journaling the outcome in the `loadEvents` table,
//! 3. failed steps can be **undone** by deleting every row whose insert
//!    timestamp lies inside the step window,
//! 4. post-load steps build the secondary indices, compute the `Neighbors`
//!    materialised view and the image pyramid, and validate every foreign
//!    key,
//! 5. the loader reports its throughput (the paper: ~5 GB/hour, CPU bound in
//!    data conversion).

#![forbid(unsafe_code)]

pub mod csv;
pub mod events;
pub mod neighbors;
pub mod pyramid;
pub mod steps;

pub use csv::{parse_document, parse_field, split_line, CsvError, ParsedCsv};
pub use events::{
    ensure_load_events_table, read_events, record_event, update_event_status, LoadEvent,
    LoadStatus, LOAD_EVENTS_TABLE,
};
pub use neighbors::{compute_neighbors, NeighborsReport, NEIGHBOR_RADIUS_ARCMIN};
pub use pyramid::{build_pyramid, PyramidReport, Tile, ZOOM_LEVELS};
pub use steps::{load_csv_step, undo_step, LoadStepResult};

use skyserver_schema::create_indexes;
use skyserver_skygen::{export_survey, Survey};
use skyserver_sql::SqlEngine;
use skyserver_storage::StorageError;
use std::time::Instant;

/// Report of a full survey load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// One journal entry per table loaded.
    pub events: Vec<LoadEvent>,
    pub neighbors: NeighborsReport,
    pub pyramid: PyramidReport,
    /// Foreign-key violations found by the post-load validation (empty on a
    /// clean load).
    pub fk_violations: Vec<String>,
    /// Total rows inserted across all tables.
    pub total_rows: u64,
    /// Total CSV bytes processed.
    pub total_bytes: u64,
    /// Wall-clock seconds for the whole load.
    pub wall_seconds: f64,
}

impl LoadReport {
    /// Load rate in MB per hour (the paper reports ~5 GB/hour on the 2001
    /// hardware; data conversion is CPU bound).
    pub fn mb_per_hour(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.total_bytes as f64 / 1e6) / self.wall_seconds * 3600.0
    }

    /// Did every step succeed and every constraint validate?
    pub fn is_clean(&self) -> bool {
        self.fk_violations.is_empty() && self.events.iter().all(|e| e.status == LoadStatus::Success)
    }
}

/// Load a generated survey into an engine that already has the SkyServer
/// schema installed (see [`skyserver_schema::create_engine`]).
///
/// Foreign-key enforcement is deferred during the bulk insert and validated
/// once at the end, mirroring how the real DTS load validates integrity per
/// step; indices are built after the data arrives.
pub fn load_survey(engine: &mut SqlEngine, survey: &Survey) -> Result<LoadReport, StorageError> {
    let started = Instant::now();
    let csv_tables = export_survey(survey);
    let db = engine.db_mut();
    ensure_load_events_table(db)?;
    db.set_enforce_foreign_keys(false);
    let mut events = Vec::new();
    let mut total_rows = 0u64;
    let mut total_bytes = 0u64;
    for table in &csv_tables {
        let document = table.to_document();
        total_bytes += document.len() as u64;
        let result = load_csv_step(db, &table.name, &document)?;
        total_rows += result.event.rows_inserted;
        events.push(result.event);
    }
    // Post-load steps: indices, neighbors, pyramid.
    create_indexes(db)?;
    let ts = db.next_timestamp();
    let neighbors = compute_neighbors(db, NEIGHBOR_RADIUS_ARCMIN, ts)?;
    let ts = db.next_timestamp();
    let pyramid = build_pyramid(db, ts)?;
    let fk_violations = db.validate_foreign_keys();
    db.set_enforce_foreign_keys(true);
    // Final publish point: every table (including the derived Neighbors and
    // pyramid tables) gets fresh optimizer statistics.
    db.analyze_all();
    // Let the engine report paper-scale timing projections.
    engine.set_paper_scale_factor(Some(survey.paper_scale_factor()));
    Ok(LoadReport {
        events,
        neighbors,
        pyramid,
        fk_violations,
        total_rows,
        total_bytes,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_skygen::SurveyConfig;
    use skyserver_sql::QueryLimits;
    use skyserver_storage::Value;

    fn loaded_engine() -> (SqlEngine, LoadReport, Survey) {
        let survey = Survey::generate(SurveyConfig::tiny()).unwrap();
        let mut engine = skyserver_schema::create_engine("skyserver_tiny").unwrap();
        let report = load_survey(&mut engine, &survey).unwrap();
        (engine, report, survey)
    }

    #[test]
    fn full_load_is_clean_and_queryable() {
        let (engine, report, survey) = loaded_engine();
        assert!(report.is_clean(), "violations: {:?}", report.fk_violations);
        assert!(report.total_rows > 0);
        assert!(report.mb_per_hour() > 0.0);
        // Row counts visible through SQL match the generator.
        let counts = survey.counts();
        let photo = engine.query("select count(*) from PhotoObj").unwrap();
        assert_eq!(
            photo.scalar().unwrap().as_i64().unwrap() as usize,
            counts.photo_obj
        );
        let spec = engine.query("select count(*) from SpecObj").unwrap();
        assert_eq!(
            spec.scalar().unwrap().as_i64().unwrap() as usize,
            counts.spec_obj
        );
        // The journal recorded one event per CSV table.
        assert_eq!(report.events.len(), 13);
        // Load events are also visible through SQL.
        let events = engine.query("select count(*) from loadEvents").unwrap();
        assert_eq!(events.scalar().unwrap().as_i64().unwrap() as usize, 13);
    }

    #[test]
    fn views_indices_and_spatial_functions_work_after_load() {
        let (mut engine, _, _) = loaded_engine();
        // Views: the Galaxy count is a strict subset of PhotoPrimary.
        let galaxies = engine.query("select count(*) from Galaxy").unwrap();
        let primaries = engine.query("select count(*) from PhotoPrimary").unwrap();
        let g = galaxies.scalar().unwrap().as_i64().unwrap();
        let p = primaries.scalar().unwrap().as_i64().unwrap();
        assert!(g > 0 && g < p);
        // A spatial query through the TVF returns sorted distances.
        let r = engine
            .execute(
                "select objID, distance from fGetNearbyObjEq(181.0, -0.8, 10)",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        let d = r.result.column_values("distance");
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // The neighbors materialised view answers proximity queries.
        let n = engine.query("select count(*) from Neighbors").unwrap();
        assert!(n.scalar().unwrap().as_i64().unwrap() >= 0);
    }

    #[test]
    fn undo_after_load_removes_one_tables_rows() {
        let (mut engine, report, _) = loaded_engine();
        let usno_event = report
            .events
            .iter()
            .find(|e| e.table_name == "USNO")
            .unwrap();
        let before = engine.query("select count(*) from USNO").unwrap();
        assert!(before.scalar().unwrap().as_i64().unwrap() > 0);
        let removed = undo_step(engine.db_mut(), usno_event.event_id).unwrap();
        assert_eq!(removed as u64, usno_event.rows_inserted);
        let after = engine.query("select count(*) from USNO").unwrap();
        assert_eq!(after.scalar(), Some(&Value::Int(0)));
        // Other tables are untouched.
        let photo = engine.query("select count(*) from PhotoObj").unwrap();
        assert!(photo.scalar().unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn neighbors_recompute_on_the_loaded_catalog() {
        let (mut engine, report, _) = loaded_engine();
        let db = engine.db_mut();
        // Mid-load the caller runs with foreign-key checks off; the step
        // must hand the flag back as it found it.
        db.set_enforce_foreign_keys(false);
        let ts = db.next_timestamp();
        let again = compute_neighbors(db, NEIGHBOR_RADIUS_ARCMIN, ts).unwrap();
        assert!(!db.enforces_foreign_keys());
        assert_eq!(again, report.neighbors);
        let rows = db.table("Neighbors").unwrap().row_count();
        assert_eq!(rows, again.pairs);
        let indexes = db.indexes_for("Neighbors");
        assert!(!indexes.is_empty());
        for index in indexes {
            assert_eq!(index.len(), rows, "{} is stale", index.def().name);
        }
    }

    #[test]
    fn primary_fraction_survives_the_load() {
        let (engine, _, survey) = loaded_engine();
        let total = engine
            .query("select count(*) from PhotoObj")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap() as f64;
        let primary = engine
            .query("select count(*) from PhotoPrimary")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap() as f64;
        let fraction = primary / total;
        assert!((fraction - survey.primary_fraction()).abs() < 0.01);
        assert!((0.7..0.95).contains(&fraction));
    }

    #[test]
    fn pyramid_frames_exist_at_higher_zooms() {
        let (engine, report, _) = loaded_engine();
        assert!(report.pyramid.tiles > 0);
        let r = engine
            .query("select count(*) from Frame where zoom > 0")
            .unwrap();
        assert_eq!(
            r.scalar().unwrap().as_i64().unwrap() as usize,
            report.pyramid.tiles
        );
    }
}
