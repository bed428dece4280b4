//! Building a SkyServer instance: generate → install schema → load.

use crate::explore::ObjectSummary;
use crate::SkyServerError;
use skyserver_loader::{load_survey, LoadReport};
use skyserver_schema::{create_engine, describe_schema, SchemaDescription};
use skyserver_skygen::{Survey, SurveyConfig, SurveyCounts};
use skyserver_sql::{QueryLimits, ResultSet, SqlEngine, StatementOutcome};
use skyserver_storage::TableSummary;

/// Builder for a [`SkyServer`].
#[derive(Debug, Clone)]
pub struct SkyServerBuilder {
    config: SurveyConfig,
}

impl Default for SkyServerBuilder {
    fn default() -> Self {
        SkyServerBuilder {
            config: SurveyConfig::personal_skyserver(),
        }
    }
}

impl SkyServerBuilder {
    /// Start from the default (Personal SkyServer scale) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a specific survey configuration.
    pub fn with_config(mut self, config: SurveyConfig) -> Self {
        self.config = config;
        self
    }

    /// Use the tiny test-scale survey.
    pub fn tiny(mut self) -> Self {
        self.config = SurveyConfig::tiny();
        self
    }

    /// Generate the survey, install the schema and load everything.
    pub fn build(self) -> Result<SkyServer, SkyServerError> {
        let survey = Survey::generate(self.config.clone()).map_err(SkyServerError::Generation)?;
        let mut engine = create_engine("SkyServer")?;
        let load_report = load_survey(&mut engine, &survey)?;
        // The freshly loaded catalog is the first public data release.
        // Publishing is copy-on-write metadata only, so this is cheap.
        engine.publish_release("dr1")?;
        Ok(SkyServer {
            engine,
            config: self.config,
            counts: survey.counts(),
            primary_fraction: survey.primary_fraction(),
            paper_scale_factor: survey.paper_scale_factor(),
            load_report,
        })
    }
}

/// A loaded SkyServer: the public-facing object of this crate.
pub struct SkyServer {
    engine: SqlEngine,
    config: SurveyConfig,
    counts: SurveyCounts,
    primary_fraction: f64,
    paper_scale_factor: f64,
    load_report: LoadReport,
}

impl SkyServer {
    /// The survey configuration the server was built from.
    pub fn config(&self) -> &SurveyConfig {
        &self.config
    }

    /// Generator-side row counts.
    pub fn counts(&self) -> &SurveyCounts {
        &self.counts
    }

    /// Fraction of photo objects flagged primary.
    pub fn primary_fraction(&self) -> f64 {
        self.primary_fraction
    }

    /// Multiplier from this database to the paper's 14 M-object release.
    pub fn paper_scale_factor(&self) -> f64 {
        self.paper_scale_factor
    }

    /// The load pipeline's report.
    pub fn load_report(&self) -> &LoadReport {
        &self.load_report
    }

    /// Borrow the SQL engine (advanced use: DDL, loading more data, ...).
    pub fn engine(&self) -> &SqlEngine {
        &self.engine
    }

    /// Mutably borrow the SQL engine.
    pub fn engine_mut(&mut self) -> &mut SqlEngine {
        &mut self.engine
    }

    /// Run a SQL script with **no** limits (the private / collaboration
    /// interface) and return the last statement's outcome.  This is the
    /// exclusive path: DDL, DML, `SELECT ... INTO` and persistent session
    /// variables all work here.
    pub fn execute(&mut self, sql: &str) -> Result<StatementOutcome, SkyServerError> {
        Ok(self.engine.execute(sql, QueryLimits::UNLIMITED)?)
    }

    /// Run a SQL script under the public web-interface limits
    /// (1,000 rows / 30 seconds, §4 of the paper).  Takes `&self`: public
    /// queries run on the shared read path, so any number of web requests
    /// can execute concurrently.  Write statements are rejected with a
    /// read-only error — the public interface never mutates the catalog.
    pub fn execute_public(&self, sql: &str) -> Result<StatementOutcome, SkyServerError> {
        Ok(self
            .engine
            .execute_read(sql, QueryLimits::PUBLIC, None, None)?)
    }

    /// [`Self::execute_public`] with a [`skyserver_sql::QueryMonitor`]
    /// attached and pinned to a published data release — the web tier's
    /// entry point.  The monitor carries the request deadline into the
    /// executor's per-batch checkpoint and observes the memory gauge, so
    /// interactive queries degrade into structured errors instead of
    /// runaway scans.  `None` reads the live head; `Some("dr1")` reads that
    /// release's snapshot.  An unknown release fails with
    /// [`skyserver_sql::SqlError::UnknownRelease`].
    pub fn execute_public_on(
        &self,
        sql: &str,
        monitor: &skyserver_sql::QueryMonitor,
        release: Option<&str>,
    ) -> Result<StatementOutcome, SkyServerError> {
        Ok(self
            .engine
            .execute_read(sql, QueryLimits::PUBLIC, Some(monitor), release)?)
    }

    /// Convenience: run a read-only query without limits and return just
    /// the rows.  Takes `&self` (shared read path).
    pub fn query(&self, sql: &str) -> Result<ResultSet, SkyServerError> {
        self.query_on(sql, None)
    }

    /// [`Self::query`] pinned to a published data release (`None` = head).
    pub fn query_on(&self, sql: &str, release: Option<&str>) -> Result<ResultSet, SkyServerError> {
        Ok(self
            .engine
            .execute_read(sql, QueryLimits::UNLIMITED, None, release)?
            .result)
    }

    /// Run a read-only script with a [`skyserver_sql::QueryMonitor`]
    /// attached — the batch-job tier's entry point.  Takes `&self` (shared
    /// read path), so batch scans overlap freely with interactive queries;
    /// the monitor observes rows-processed progress and can cancel the
    /// query mid-scan or pace it to cede CPU to interactive traffic.
    pub fn execute_batch(
        &self,
        sql: &str,
        limits: QueryLimits,
        monitor: &skyserver_sql::QueryMonitor,
    ) -> Result<StatementOutcome, SkyServerError> {
        Ok(self.engine.execute_read(sql, limits, Some(monitor), None)?)
    }

    /// Publish the current head catalog as release `name`.  Copy-on-write:
    /// the snapshot shares all segments and indexes with the head, so only
    /// catalog metadata is copied.  Duplicate names are refused.
    pub fn publish_release(&mut self, name: &str) -> Result<(), SkyServerError> {
        Ok(self.engine.publish_release(name)?)
    }

    /// Published release names, oldest first.
    pub fn release_names(&self) -> Vec<String> {
        self.engine.release_names()
    }

    /// Metadata for every published release (name, tables, rows, segments).
    pub fn release_infos(&self) -> Vec<skyserver_storage::ReleaseInfo> {
        self.engine.release_infos()
    }

    /// Per-table segment-level diff between two published releases.
    pub fn release_diff(
        &self,
        from: &str,
        to: &str,
    ) -> Result<skyserver_storage::ReleaseDiff, SkyServerError> {
        Ok(self.engine.release_diff(from, to)?)
    }

    /// Clone this server copy-on-write: the fork shares every immutable
    /// segment, index and published release with the original, so this is
    /// metadata-cost only.  Writes to either side never affect the other —
    /// the primitive behind atomic admin publishes in the web tier.
    pub fn fork(&self) -> SkyServer {
        SkyServer {
            engine: self.engine.fork(),
            config: self.config.clone(),
            counts: self.counts.clone(),
            primary_fraction: self.primary_fraction,
            paper_scale_factor: self.paper_scale_factor,
            load_report: self.load_report.clone(),
        }
    }

    /// Render the plan of a SELECT.
    pub fn explain(&self, sql: &str) -> Result<String, SkyServerError> {
        Ok(self.engine.explain(sql)?)
    }

    /// What the optimizer decided for a SELECT: the plan class Figure 13
    /// groups queries into (index / scan / join-scan), the rules that
    /// fired, the estimate and the projection's cost class.
    pub fn plan_summary(&self, sql: &str) -> Result<skyserver_sql::PlanSummary, SkyServerError> {
        Ok(self.engine.plan_summary(sql)?)
    }

    /// A snapshot of the SQL engine's cumulative execution counters.
    pub fn engine_stats(&self) -> skyserver_sql::EngineStats {
        self.engine.counters()
    }

    /// Per-table sizes (rows / data bytes / index bytes): the live data
    /// behind the paper's Table 1.
    pub fn table_summaries(&self) -> Vec<TableSummary> {
        self.engine.db().summaries()
    }

    /// Schema-browser metadata (the SkyServerQA object browser payload).
    pub fn schema_description(&self) -> SchemaDescription {
        describe_schema(self.engine.db(), self.engine.functions())
    }

    /// Objects within `radius_arcmin` of `(ra, dec)`, nearest first (the
    /// `fGetNearbyObjEq` function exposed as an API).
    pub fn nearby_objects(
        &self,
        ra: f64,
        dec: f64,
        radius_arcmin: f64,
    ) -> Result<ResultSet, SkyServerError> {
        self.nearby_objects_on(ra, dec, radius_arcmin, None)
    }

    /// [`Self::nearby_objects`] pinned to a published data release.
    pub fn nearby_objects_on(
        &self,
        ra: f64,
        dec: f64,
        radius_arcmin: f64,
        release: Option<&str>,
    ) -> Result<ResultSet, SkyServerError> {
        self.query_on(
            &format!(
                "select objID, type, distance from fGetNearbyObjEq({ra}, {dec}, {radius_arcmin})"
            ),
            release,
        )
    }

    /// Full drill-down for one object: attributes, neighbours, spectrum and
    /// cross-matches (the web "Explore" page payload).
    pub fn explore(&self, obj_id: i64) -> Result<ObjectSummary, SkyServerError> {
        crate::explore::explore_object(self, obj_id, None)
    }

    /// [`Self::explore`] pinned to a published data release: every query
    /// the drill-down issues reads that release's snapshot.
    pub fn explore_on(
        &self,
        obj_id: i64,
        release: Option<&str>,
    ) -> Result<ObjectSummary, SkyServerError> {
        crate::explore::explore_object(self, obj_id, release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_sql::PlanClass;

    fn server() -> SkyServer {
        SkyServerBuilder::new().tiny().build().unwrap()
    }

    #[test]
    fn build_and_query() {
        let s = server();
        let n = s.query("select count(*) from PhotoObj").unwrap();
        assert_eq!(
            n.scalar().unwrap().as_i64().unwrap() as usize,
            s.counts().photo_obj
        );
        assert!(s.load_report().is_clean());
        assert!(s.paper_scale_factor() > 1000.0);
    }

    #[test]
    fn public_limits_apply() {
        let mut s = server();
        let outcome = s.execute_public("select objID from PhotoObj").unwrap();
        assert_eq!(outcome.result.len(), 1000);
        assert!(outcome.result.truncated);
        let unlimited = s.execute("select objID from PhotoObj").unwrap();
        assert!(unlimited.result.len() > 1000);
    }

    #[test]
    fn table_summaries_expose_table1_data() {
        let s = server();
        let summaries = s.table_summaries();
        let photo = summaries.iter().find(|t| t.name == "PhotoObj").unwrap();
        assert!(photo.rows > 0);
        assert!(
            photo.data_bytes > photo.rows * 100,
            "photoObj rows are hundreds of bytes"
        );
        assert!(photo.index_bytes > 0);
        let neighbors = summaries.iter().find(|t| t.name == "Neighbors").unwrap();
        assert!(neighbors.avg_row_bytes < photo.avg_row_bytes);
    }

    #[test]
    fn build_publishes_dr1_and_fork_is_isolated() {
        let s = server();
        assert_eq!(s.release_names(), vec!["dr1".to_string()]);
        let head = s.query("select count(*) from PhotoObj").unwrap();
        let pinned = s.query("select count(*) from PhotoObj as of dr1").unwrap();
        assert_eq!(head.rows, pinned.rows);
        // Publish a second release off a fork and check the diff API.
        let mut next = s.fork();
        next.execute("delete from PhotoObj where objID = 1000001")
            .unwrap();
        next.publish_release("dr2").unwrap();
        assert_eq!(
            next.release_names(),
            vec!["dr1".to_string(), "dr2".to_string()]
        );
        // The original server never saw dr2 or the delete.
        assert_eq!(s.release_names(), vec!["dr1".to_string()]);
        let still = s
            .query("select count(*) from PhotoObj where objID = 1000001")
            .unwrap();
        assert_eq!(still.scalar().unwrap().as_i64(), Some(1));
        let diff = next.release_diff("dr1", "dr2").unwrap();
        assert!(diff.tables.iter().any(|t| t.table == "PhotoObj"));
        let infos = next.release_infos();
        assert_eq!(infos.len(), 2);
        assert!(infos[0].rows > 0);
    }

    #[test]
    fn nearby_and_plan_class() {
        let s = server();
        let nearby = s.nearby_objects(181.0, -0.8, 30.0).unwrap();
        let d = nearby.column_values("distance");
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let class = |sql: &str| s.plan_summary(sql).unwrap().class;
        assert_eq!(
            class("select count(*) from PhotoObj where rowv > 100"),
            PlanClass::Scan
        );
        assert_eq!(
            class("select * from PhotoObj where objID = 1000001"),
            PlanClass::IndexSeek
        );
    }
}
