//! # skyserver
//!
//! A from-scratch Rust reproduction of **"The SDSS SkyServer: Public Access
//! to the Sloan Digital Sky Survey Data"** (Szalay, Gray, Thakar, Kunszt,
//! Malik, Raddick, Stoughton, vandenBerg — SIGMOD 2002).
//!
//! The crate ties the substrates together into the system the paper
//! describes:
//!
//! * [`skyserver_skygen`] — a deterministic synthetic Sloan survey (the
//!   public Early Data Release stand-in),
//! * [`skyserver_storage`] + [`skyserver_sql`] — the relational engine and
//!   SQL dialect (the SQL Server stand-in),
//! * [`skyserver_htm`] — the Hierarchical Triangular Mesh spatial index,
//! * [`skyserver_schema`] — the photographic/spectrographic snowflake
//!   schema, views, covering indices, foreign keys and astronomy UDFs,
//! * [`skyserver_loader`] — the CSV load pipeline with `loadEvents`
//!   journaling, UNDO, the `Neighbors` materialised view and the image
//!   pyramid.
//!
//! ```no_run
//! use skyserver::SkyServerBuilder;
//!
//! // Build a Personal-SkyServer-scale database (generates + loads data).
//! let mut sky = SkyServerBuilder::new().build().unwrap();
//!
//! // Query 1 of the paper: galaxies without saturated pixels near a point.
//! let outcome = sky.execute(
//!     "declare @saturated bigint;
//!      set @saturated = dbo.fPhotoFlags('saturated');
//!      select G.objID, GN.distance
//!      from Galaxy as G
//!      join fGetNearbyObjEq(181.0, -0.8, 1) as GN on G.objID = GN.objID
//!      where (G.flags & @saturated) = 0
//!      order by distance",
//! ).unwrap();
//! println!("{} unsaturated galaxies nearby", outcome.result.len());
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod explore;

pub use builder::{SkyServer, SkyServerBuilder};
pub use explore::{ObjectSummary, SpectrumSummary};

// Re-export the sub-crates under stable names so downstream users need only
// one dependency.
pub use skyserver_htm as htm;
pub use skyserver_loader as loader;
pub use skyserver_schema as schema;
pub use skyserver_skygen as skygen;
pub use skyserver_sql as sql;
pub use skyserver_storage as storage;

// Re-export the most common types at the top level.
pub use skyserver_loader::LoadReport;
pub use skyserver_skygen::{Survey, SurveyConfig};
pub use skyserver_sql::{
    PlanClass, QueryLimits, QueryMonitor, ResultSet, SqlError, StatementOutcome,
};
pub use skyserver_storage::Value;

/// Errors from the high-level SkyServer API.
#[derive(Debug, Clone, PartialEq)]
pub enum SkyServerError {
    /// Survey generation failed (invalid configuration).
    Generation(String),
    /// Storage-level failure.
    Storage(skyserver_storage::StorageError),
    /// SQL failure (parse, plan, execute or limit).
    Sql(SqlError),
    /// A requested entity does not exist.
    NotFound(String),
}

impl SkyServerError {
    /// A stable, machine-readable error code for this error class, used by
    /// the web tier's `/api/v1` error envelope.  SQL errors delegate to
    /// [`SqlError::code`]; the other classes have their own codes.
    pub fn code(&self) -> &'static str {
        match self {
            SkyServerError::Generation(_) => "internal_error",
            SkyServerError::Storage(_) => "storage_error",
            SkyServerError::Sql(e) => e.code(),
            SkyServerError::NotFound(_) => "not_found",
        }
    }
}

impl std::fmt::Display for SkyServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkyServerError::Generation(m) => write!(f, "survey generation failed: {m}"),
            SkyServerError::Storage(e) => write!(f, "storage error: {e}"),
            SkyServerError::Sql(e) => write!(f, "{e}"),
            SkyServerError::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl std::error::Error for SkyServerError {}

impl From<skyserver_storage::StorageError> for SkyServerError {
    fn from(e: skyserver_storage::StorageError) -> Self {
        SkyServerError::Storage(e)
    }
}

impl From<SqlError> for SkyServerError {
    fn from(e: SqlError) -> Self {
        SkyServerError::Sql(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e: SkyServerError = SqlError::Parse("boom".into()).into();
        assert!(e.to_string().contains("boom"));
        let e: SkyServerError = skyserver_storage::StorageError::UnknownTable("x".into()).into();
        assert!(e.to_string().contains("x"));
        assert!(SkyServerError::NotFound("object 7".into())
            .to_string()
            .contains("object 7"));
    }

    #[test]
    fn error_codes_delegate_to_the_sql_taxonomy() {
        let e: SkyServerError = SqlError::Parse("boom".into()).into();
        assert_eq!(e.code(), "sql_parse_error");
        let e: SkyServerError = SqlError::ReadOnly("drop table".into()).into();
        assert_eq!(e.code(), "read_only");
        assert_eq!(SkyServerError::NotFound("x".into()).code(), "not_found");
    }
}
