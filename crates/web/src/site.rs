//! The SkyServer web site: routes and page handlers (§2, §5).
//!
//! The page families mirror Figure 1 of the paper: a famous-places gallery,
//! the navigation (pan/zoom) tool, the object explorer, the SQL search pages
//! with the public limits, the schema browser that feeds SkyServerQA, the
//! three language branches (English, Japanese, German), and the batch-query
//! job endpoints (`/x_job/*` plus the `/tools/jobs` "My Jobs" page).
//!
//! Concurrency model: the site holds `Arc<RwLock<Arc<SkyServer>>>`.  Request
//! handlers clone the inner `Arc` snapshot and immediately drop the lock,
//! then run the query on the engine's shared `&self` read path — so any
//! number of requests execute concurrently and a long query never blocks the
//! others.  Batch jobs snapshot the same slot from their own worker pool
//! (see [`crate::jobs`]).  Writers (data loads, DDL, release publishes) go
//! through [`SkyServerSite::with_admin`], which forks the catalog
//! copy-on-write, mutates the fork off to the side and swaps it in
//! atomically — in-flight queries and running batch jobs finish on their
//! pinned snapshot, nothing drains and nothing is cancelled.

use crate::api;
use crate::api::handlers::{
    cancel_job, cone_payload, explore_payload, job_result_payload, job_status_json,
    job_status_payload, json_document, public_query_on, submit_job, ANONYMOUS,
};
use crate::api::{ApiError, ApiRequest, Zoom};
use crate::cache::{normalize_sql, CachedBody, ResultCache, RowCache};
use crate::formats::{self, OutputFormat};
use crate::governor::{Governor, GovernorConfig};
use crate::http::{HttpServer, Request, Response};
use crate::jobs::{JobQueue, JobQueueConfig, JobRunner};
use crate::traffic::{LogRecord, Section};
use skyserver::{SkyServer, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// How many rendered SQL results the site keeps (the paper's popular-places
/// pages are a handful of hot queries, so a small cache covers them).
const RESULT_CACHE_CAPACITY: usize = 128;

/// Byte budget of the rendered-result cache: entry count alone does not
/// bound memory when individual bodies approach the 1 MiB per-entry cap.
const RESULT_CACHE_BYTE_BUDGET: usize = 8 << 20;

/// The web application: a shared SkyServer plus a request log, a
/// rendered-result cache and the batch-query job tier.
pub struct SkyServerSite {
    /// Shared with the job-queue runner closure: batch workers snapshot
    /// the same catalog slot the request handlers do.
    sky: Arc<RwLock<Arc<SkyServer>>>,
    log: Mutex<Vec<LogRecord>>,
    started: Instant,
    session_counter: AtomicU64,
    cache: ResultCache,
    /// Materialized result sets for the API's cursor walks: page N+1 of a
    /// paginated query reads memory instead of re-running the scan.
    rows: RowCache,
    jobs: Arc<JobQueue>,
    /// Admission control + deadline policy for the public query path.
    governor: Governor,
    /// Serialises administrative writes: each one forks the current
    /// catalog, mutates the fork off to the side and swaps it in
    /// atomically, so admins must not interleave their forks.
    admin: Mutex<()>,
    /// Live-head catalog generation, bumped on every admin swap.  Head
    /// cache keys embed it, so an in-flight request that renders from the
    /// *old* catalog can only insert under the old generation — its entry
    /// is unreadable after the swap instead of serving stale data.
    generation: AtomicU64,
}

/// The language branches of the site (§5: English, German, Japanese).
pub const LANGUAGES: [&str; 3] = ["en", "jp", "de"];

impl SkyServerSite {
    /// Wrap a loaded SkyServer.
    pub fn new(sky: SkyServer) -> Arc<SkyServerSite> {
        SkyServerSite::new_with(sky, RESULT_CACHE_CAPACITY, JobQueueConfig::default())
    }

    /// Wrap a loaded SkyServer with explicit cache and job-tier settings.
    pub fn new_with(
        sky: SkyServer,
        cache_capacity: usize,
        job_config: JobQueueConfig,
    ) -> Arc<SkyServerSite> {
        SkyServerSite::new_with_governor(sky, cache_capacity, job_config, GovernorConfig::default())
    }

    /// Wrap a loaded SkyServer with explicit cache, job-tier and
    /// admission-control settings (the chaos and API-conformance suites
    /// shrink the in-flight cap and the deadline).
    pub fn new_with_governor(
        sky: SkyServer,
        cache_capacity: usize,
        job_config: JobQueueConfig,
        governor_config: GovernorConfig,
    ) -> Arc<SkyServerSite> {
        let sky = Arc::new(RwLock::new(Arc::new(sky)));
        // Batch jobs run against the same catalog slot the handlers read:
        // each job snapshots the current Arc, so jobs see a consistent
        // catalog for their whole run and admin writes wait for them
        // (exactly like in-flight interactive requests).
        let job_slot = Arc::clone(&sky);
        let runner: Arc<JobRunner> = Arc::new(move |sql, limits, monitor| {
            let snapshot = job_slot
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            snapshot
                .execute_batch(sql, limits, monitor)
                .map(|outcome| outcome.result)
        });
        Arc::new(SkyServerSite {
            sky,
            log: Mutex::new(Vec::new()),
            started: Instant::now(),
            session_counter: AtomicU64::new(0),
            cache: ResultCache::with_byte_budget(cache_capacity, RESULT_CACHE_BYTE_BUDGET),
            rows: RowCache::new(cache_capacity, RESULT_CACHE_BYTE_BUDGET),
            jobs: JobQueue::start(job_config, runner),
            governor: Governor::new(governor_config),
            admin: Mutex::new(()),
            generation: AtomicU64::new(0),
        })
    }

    /// The admission controller over the public query path.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The batch-query job tier (submit/status/fetch/cancel also have HTTP
    /// endpoints under `/x_job/`).
    pub fn jobs(&self) -> &JobQueue {
        &self.jobs
    }

    /// A read snapshot of the server (shared with the API handler layer).
    /// The returned `Arc` stays valid for the whole request even if an
    /// admin swap happens concurrently.
    pub(crate) fn sky(&self) -> Arc<SkyServer> {
        self.sky
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The materialized-rows cache backing API cursor walks.
    pub(crate) fn rows_cache(&self) -> &RowCache {
        &self.rows
    }

    /// The cache-key prefix for a request pinned to `release` (`None` =
    /// the live head).  Head keys embed the catalog generation, so a
    /// publish makes every pre-publish head entry unreadable; pinned keys
    /// are generation-free — a published release is immutable, its cached
    /// renderings never go stale.
    pub(crate) fn release_tag(&self, release: Option<&str>) -> String {
        match release {
            Some(r) => format!("rel:{}", r.to_ascii_lowercase()),
            None => format!("rel:head:{}", self.generation.load(Ordering::Acquire)),
        }
    }

    /// Invalidate the live-head cache entries after an admin swap.  The
    /// generation bump is the correctness mechanism (stale keys become
    /// unreadable even if a slow request inserts one afterwards); the
    /// retain pass just frees their memory early.  Entries pinned to a
    /// published release survive — releases are immutable.
    fn invalidate_head_entries(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.cache.retain(|key| !key.starts_with("rel:head:"));
        self.rows.retain(|key| !key.starts_with("rel:head:"));
    }

    /// Run an administrative write (data load, DDL, `PUBLISH RELEASE`)
    /// and publish the result atomically.  The write builds the **next**
    /// catalog off to the side: the current catalog is forked
    /// copy-on-write (metadata cost only — every immutable segment and
    /// index is shared), `f` mutates the fork, and the serving slot swaps
    /// to it in one pointer store.
    ///
    /// Nothing drains and nothing is cancelled: in-flight interactive
    /// queries and **running batch jobs** hold `Arc` snapshots of the old
    /// catalog and simply finish on it — readers never observe a
    /// half-applied write and a minutes-long batch scan never blocks (or
    /// is sacrificed to) an admin write.  Head-release cache entries are
    /// invalidated via a generation bump; entries pinned to a published
    /// release survive.
    pub fn with_admin<R>(&self, f: impl FnOnce(&mut SkyServer) -> R) -> R {
        // Serialise admins so no fork can lose a concurrent admin's write.
        let _admin = self
            .admin
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut next = self.sky().fork();
        let result = f(&mut next);
        let mut slot = self
            .sky
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Arc::new(next);
        drop(slot);
        self.invalidate_head_entries();
        result
    }

    /// Replace the served catalog wholesale (e.g. after an offline
    /// rebuild).  Atomic like [`SkyServerSite::with_admin`]: the slot
    /// swaps in one pointer store, in-flight requests and running batch
    /// jobs finish on their old snapshot, and only head-release cache
    /// entries are invalidated.
    pub fn replace(&self, sky: SkyServer) {
        let _admin = self
            .admin
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut slot = self
            .sky
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Arc::new(sky);
        drop(slot);
        self.invalidate_head_entries();
    }

    /// Result-cache hit/miss counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// The request log accumulated so far (feeds the traffic analyser).
    pub fn request_log(&self) -> Vec<LogRecord> {
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Start an HTTP server for this site on the given port (0 = ephemeral).
    pub fn serve(self: &Arc<Self>, port: u16) -> std::io::Result<HttpServer> {
        self.serve_with(port, crate::http::ServerConfig::default())
    }

    /// Start an HTTP server with an explicit serving configuration (worker
    /// pool size, keep-alive and header limits).
    pub fn serve_with(
        self: &Arc<Self>,
        port: u16,
        config: crate::http::ServerConfig,
    ) -> std::io::Result<HttpServer> {
        let site = Arc::clone(self);
        HttpServer::start_with(port, config, move |req| site.handle(req))
    }

    /// Route one request.
    pub fn handle(&self, req: &Request) -> Response {
        let response = self.route(req);
        self.record(req, response.status);
        response
    }

    fn record(&self, req: &Request, status: u16) {
        let section = section_of_path(&req.path);
        let session = self.session_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let day = (self.started.elapsed().as_secs() / 86_400) as u32;
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(LogRecord {
                day,
                session,
                section,
                // API traffic is machine clients, never page views; its
                // non-200 responses are counted via `status` instead.
                page_view: status == 200 && section != Section::Api,
                crawler: false,
                status,
            });
    }

    fn route(&self, req: &Request) -> Response {
        let path = req.path.trim_end_matches('/');
        // The programmatic surface dispatches through the typed router
        // (no language branches there: the API speaks JSON, not prose).
        if path == "/api" || path.starts_with("/api/") {
            return api::dispatch(self, req);
        }
        // The legacy pages are GET-only (the transport forwards every
        // method so the API above can answer with its envelope).
        if req.method != "GET" {
            return Response::with_status(
                405,
                &format!("method {} is not allowed on this page", req.method),
            );
        }
        // Language branches share the same handlers.
        let normalized = LANGUAGES
            .iter()
            .find_map(|lang| path.strip_prefix(&format!("/{lang}")))
            .unwrap_or(path);
        match normalized {
            "" => self.home(path),
            "/tools/places" | "/tools/places.asp" => self.famous_places(),
            "/tools/explore" | "/tools/explore/obj.asp" => self.explore(req),
            "/tools/navi" | "/tools/navi.asp" => self.navigator(req),
            "/tools/search/x_sql" | "/tools/search/x_sql.asp" => self.sql_search(req),
            "/help/browser" | "/help/docs/browser.asp" | "/skyserverqa/metadata" => {
                self.schema_browser()
            }
            "/traffic" => self.traffic_page(),
            "/x_job/submit" => self.job_submit(req),
            "/x_job/status" => self.job_status(req),
            "/x_job/fetch" => self.job_fetch(req),
            "/x_job/cancel" => self.job_cancel(req),
            "/tools/jobs" => self.my_jobs(req),
            _ => Response::not_found(&req.path),
        }
    }

    fn home(&self, path: &str) -> Response {
        let lang = LANGUAGES
            .iter()
            .find(|l| path.starts_with(&format!("/{l}")))
            .copied()
            .unwrap_or("en");
        let greeting = match lang {
            "jp" => "SDSS SkyServer e youkoso",
            "de" => "Willkommen beim SDSS SkyServer",
            _ => "Welcome to the SDSS SkyServer",
        };
        Response::html(format!(
            "<html><head><title>SkyServer</title></head><body>\
             <h1>{greeting}</h1>\
             <ul>\
             <li><a href=\"/{lang}/tools/places\">Famous places</a></li>\
             <li><a href=\"/{lang}/tools/navi?ra=181&dec=-0.8&zoom=1\">Navigate the sky</a></li>\
             <li><a href=\"/{lang}/tools/search/x_sql?cmd=select top 10 objID, ra, dec from PhotoObj\">SQL search</a></li>\
             <li><a href=\"/{lang}/tools/jobs\">My Jobs (batch queries)</a></li>\
             <li><a href=\"/{lang}/help/browser\">Schema browser</a></li>\
             </ul></body></html>"
        ))
    }

    fn famous_places(&self) -> Response {
        let sky = self.sky();
        match sky.query("select top 12 objID, ra, dec, modelMag_r from Galaxy order by modelMag_r")
        {
            Ok(result) => {
                let mut html = String::from("<html><body><h1>Famous places</h1><ul>");
                let f64_at =
                    |row: &[Value], i: usize| row.get(i).and_then(Value::as_f64).unwrap_or(0.0);
                for row in &result.rows {
                    let id = row.first().and_then(Value::as_i64).unwrap_or(0);
                    html.push_str(&format!(
                        "<li>Galaxy {id} at ({:.4}, {:.4}) r={:.2} \
                         <a href=\"/en/tools/explore?id={id}\">explore</a></li>",
                        f64_at(row, 1),
                        f64_at(row, 2),
                        f64_at(row, 3),
                    ));
                }
                html.push_str("</ul></body></html>");
                Response::html(html)
            }
            Err(e) => legacy_error_with_prefix("query failed: ", &ApiError::from(e)),
        }
    }

    fn explore(&self, req: &Request) -> Response {
        // A thin adapter over the API's typed operation: the same
        // extractor (so `?id=abc` is a clean 400, not a silent miss) and
        // the same payload; only the error rendering is the legacy
        // plain-text shape.
        let params = ApiRequest::legacy(req);
        let id: i64 = match params.require("id") {
            Ok(id) => id,
            Err(e) => return legacy_error(&e),
        };
        let release = req.param("release");
        match explore_payload(self, id, release).and_then(|summary| json_document(&summary)) {
            Ok(response) => response,
            Err(e) => legacy_error(&e),
        }
    }

    fn navigator(&self, req: &Request) -> Response {
        // Typed extraction with the legacy defaults for *absent* params;
        // malformed or out-of-range values are a 400 with a readable
        // message (the page used to clamp/default silently and render
        // the wrong sky position).
        let params = ApiRequest::legacy(req);
        let parsed = (|| -> Result<(f64, f64, u32), ApiError> {
            let ra = params.optional::<f64>("ra")?.unwrap_or(181.0);
            api::check_range("ra", ra, 0.0, 360.0)?;
            let dec = params.optional::<f64>("dec")?.unwrap_or(-0.8);
            api::check_range("dec", dec, -90.0, 90.0)?;
            let Zoom(zoom) = params.optional::<Zoom>("zoom")?.unwrap_or(Zoom(1));
            Ok((ra, dec, zoom))
        })();
        let (ra, dec, zoom) = match parsed {
            Ok(p) => p,
            Err(e) => return legacy_error(&e),
        };
        // The visible radius shrinks as the user zooms in (4 levels, §5).
        let radius_arcmin = 60.0 / f64::from(1 << zoom);
        match cone_payload(self, ra, dec, radius_arcmin, None) {
            Ok(result) => Response::ok(
                "application/json; charset=utf-8",
                navigator_json(ra, dec, zoom, radius_arcmin, &result.rows),
            ),
            Err(e) => legacy_error(&e),
        }
    }

    fn sql_search(&self, req: &Request) -> Response {
        let Some(sql) = req.param("cmd") else {
            return Response::bad_request("the SQL search page needs a ?cmd= parameter");
        };
        // The legacy page keeps the forgiving format fallback (unknown
        // names render as the grid — existing links must keep working);
        // `/api/v1/query` is the strict surface.
        let format = OutputFormat::parse(req.param("format").unwrap_or("grid"));
        // `?release=drN` pins the page to a published data release; the
        // cache key carries the release tag so a pinned rendering survives
        // later publishes while head renderings are invalidated.
        let release = req.param("release");
        let cache_key = format!(
            "{}|{:?}|{}",
            self.release_tag(release),
            format,
            normalize_sql(sql)
        );
        if let Some(cached) = self.cache.get(&cache_key) {
            return Response::ok(&cached.content_type, cached.body.clone());
        }
        // Same typed operation as the API's /query handler: the public
        // 1,000 row / 30 second limits on the engine's shared read path.
        match public_query_on(self, sql, release) {
            Ok(outcome) => {
                let mut body = format.render(&outcome.result);
                if outcome.result.truncated && format == OutputFormat::Grid {
                    body.push_str("\n(truncated to the public 1000-row limit)\n");
                }
                self.cache.insert(
                    cache_key,
                    CachedBody {
                        content_type: format.content_type().to_string(),
                        body: body.clone().into_bytes(),
                    },
                );
                Response::ok(format.content_type(), body)
            }
            Err(e) => legacy_error_with_prefix("query failed: ", &e),
        }
    }

    fn schema_browser(&self) -> Response {
        let sky = self.sky();
        let description = sky.schema_description();
        // The QA page carries the schema plus the serving-tier health
        // numbers: result-cache hits/misses and engine counters.
        let mut json = serde_json::to_value(&description);
        if let serde_json::Value::Object(map) = &mut json {
            map.insert(
                "result_cache".to_string(),
                serde_json::to_value(&self.cache.stats()),
            );
            map.insert(
                "row_cache".to_string(),
                serde_json::to_value(&self.rows.stats()),
            );
            map.insert(
                "engine".to_string(),
                serde_json::to_value(&sky.engine_stats()),
            );
            map.insert(
                "governor".to_string(),
                serde_json::to_value(&self.governor.stats()),
            );
        }
        Response::ok("application/json; charset=utf-8", json.to_string())
    }

    fn traffic_page(&self) -> Response {
        let log = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // API traffic is attributed separately from page views, and its
        // structured error responses separately again (§7's taxonomy
        // gains a machine-client column).
        let api_hits = log.iter().filter(|r| r.section == Section::Api).count();
        let api_errors = log
            .iter()
            .filter(|r| r.section == Section::Api && r.status != 200 && r.status != 201)
            .count();
        Response::ok(
            "application/json; charset=utf-8",
            serde_json::json!({
                "requests": log.len(),
                "api_hits": api_hits,
                "api_errors": api_errors,
            })
            .to_string(),
        )
    }

    // ----------------------------------------------------------------------
    // The batch-query job endpoints (the CasJobs surface).
    // ----------------------------------------------------------------------

    /// `/x_job/submit?cmd=...[&submitter=...]`: enqueue a read-only script
    /// as a batch job and return its id.  Thin adapter over the API's
    /// job-submission operation (`POST /api/v1/jobs` is the REST shape).
    fn job_submit(&self, req: &Request) -> Response {
        let Some(sql) = req.param("cmd") else {
            return Response::bad_request("job submission needs a ?cmd= parameter");
        };
        let submitter = req.param("submitter").unwrap_or(ANONYMOUS);
        match submit_job(self, submitter, sql) {
            Ok(id) => Response::ok(
                "application/json; charset=utf-8",
                serde_json::json!({ "job_id": id, "state": "queued" }).to_string(),
            ),
            Err(e) => legacy_error(&e),
        }
    }

    /// `/x_job/status?id=...`: state + progress + queue position.
    fn job_status(&self, req: &Request) -> Response {
        let params = ApiRequest::legacy(req);
        let id: u64 = match params.require("id") {
            Ok(id) => id,
            Err(e) => return legacy_error(&e),
        };
        match job_status_payload(self, id) {
            Ok(status) => Response::ok(
                "application/json; charset=utf-8",
                job_status_json(&status).to_string(),
            ),
            Err(e) => legacy_error(&e),
        }
    }

    /// `/x_job/fetch?id=...[&format=csv|json|xml|fits|grid]`: the stored
    /// result of a finished job, rendered through the shared formatters.
    /// Unknown (or TTL-expired) ids are a 404, matching the status
    /// endpoint; a job in the wrong state for fetching is a 400.
    fn job_fetch(&self, req: &Request) -> Response {
        let params = ApiRequest::legacy(req);
        let id: u64 = match params.require("id") {
            Ok(id) => id,
            Err(e) => return legacy_error(&e),
        };
        let format = OutputFormat::parse(req.param("format").unwrap_or("csv"));
        match job_result_payload(self, id) {
            Ok(result) => Response::ok(format.content_type(), format.render(&result)),
            Err(e) => legacy_error(&e),
        }
    }

    /// `/x_job/cancel?id=...`: cancel a queued or running job.
    fn job_cancel(&self, req: &Request) -> Response {
        let params = ApiRequest::legacy(req);
        let id: u64 = match params.require("id") {
            Ok(id) => id,
            Err(e) => return legacy_error(&e),
        };
        match cancel_job(self, id) {
            Ok(state) => Response::ok(
                "application/json; charset=utf-8",
                serde_json::json!({ "job_id": id, "state": state.as_str() }).to_string(),
            ),
            Err(e) => legacy_error(&e),
        }
    }

    /// `/tools/jobs[?submitter=...]`: the "My Jobs" HTML page.
    fn my_jobs(&self, req: &Request) -> Response {
        let submitter = req.param("submitter");
        let jobs = self.jobs.jobs(submitter);
        let mut html = String::from(
            "<html><head><title>My Jobs</title></head><body><h1>My Jobs</h1>\
             <p>Submit long-running SQL as a batch job: \
             <code>/x_job/submit?cmd=...</code></p>\
             <table border=\"1\"><tr><th>id</th><th>submitter</th><th>state</th>\
             <th>queue</th><th>progress</th><th>rows</th><th>actions</th></tr>",
        );
        for job in &jobs {
            let queue = job
                .queue_position
                .map(|p| format!("#{}", p + 1))
                .unwrap_or_default();
            let rows = job
                .result_rows
                .map(|r| {
                    if job.truncated {
                        format!("{r} (truncated)")
                    } else {
                        r.to_string()
                    }
                })
                .unwrap_or_default();
            let actions = if job.state.is_finished() {
                if job.state == crate::jobs::JobState::Done {
                    format!(
                        "<a href=\"/x_job/fetch?id={}&format=csv\">fetch csv</a>",
                        job.id
                    )
                } else {
                    // Error text can echo attacker-controlled SQL fragments
                    // (string literals survive into parse errors verbatim).
                    html_escape(job.error.as_deref().unwrap_or_default())
                }
            } else {
                format!("<a href=\"/x_job/cancel?id={}\">cancel</a>", job.id)
            };
            html.push_str(&format!(
                "<tr><td><a href=\"/x_job/status?id={id}\">{id}</a></td><td>{submitter}</td>\
                 <td>{state}</td><td>{queue}</td><td>{progress} rows</td><td>{rows}</td>\
                 <td>{actions}</td></tr>",
                id = job.id,
                submitter = html_escape(&job.submitter),
                state = job.state,
                progress = job.rows_processed,
            ));
        }
        html.push_str("</table></body></html>");
        Response::html(html)
    }
}

impl Drop for SkyServerSite {
    fn drop(&mut self) {
        // Stop the batch workers (cancelling any running scan); without
        // this, worker threads holding `Arc<JobQueue>` would outlive the
        // site.
        self.jobs.shutdown();
    }
}

/// User-supplied strings on the My Jobs page share the formats module's
/// element-content escaper.
use crate::formats::escape_xml as html_escape;

/// The navigator's body, `{"dec", "objects": [{"distance_arcmin", "objID",
/// "type"}, ...], "ra", "radius_arcmin", "zoom"}` (keys in the sorted order
/// a `serde_json` map prints them), written straight into the body: a
/// zoom-0 view holds thousands of objects, and a tree of maps for them is
/// megabytes of garbage per view.  `rows` are the cone's `(objID, type,
/// distance)` rows.
fn navigator_json(ra: f64, dec: f64, zoom: u32, radius_arcmin: f64, rows: &[Vec<Value>]) -> String {
    let mut out = String::with_capacity(96 + 64 * rows.len());
    out.push_str("{\"dec\":");
    formats::push_json_f64(&mut out, dec);
    out.push_str(",\"objects\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"distance_arcmin\":");
        match r.get(2).and_then(Value::as_f64) {
            Some(d) => formats::push_json_f64(&mut out, d),
            None => out.push_str("null"),
        }
        for (key, cell) in [(",\"objID\":", r.first()), (",\"type\":", r.get(1))] {
            out.push_str(key);
            match cell.and_then(Value::as_i64) {
                Some(v) => formats::push_json_int(&mut out, v),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push_str("],\"ra\":");
    formats::push_json_f64(&mut out, ra);
    out.push_str(",\"radius_arcmin\":");
    formats::push_json_f64(&mut out, radius_arcmin);
    out.push_str(",\"zoom\":");
    formats::push_json_int(&mut out, i64::from(zoom));
    out.push('}');
    out
}

/// Render a structured [`ApiError`] in the legacy plain-text shape the
/// `.asp`-era pages answer with.  The legacy status vocabulary is
/// narrower than the API's: resources keep 404, quotas keep 429 and
/// overload keeps 503 (both with a `Retry-After` hint, like the API
/// envelope), but every other failure class (408 timeout, 422 SQL, 409
/// state conflicts, 403 read-only ...) collapses to the historical 400
/// so existing clients and tests see exactly the old contract.
fn legacy_error(e: &ApiError) -> Response {
    legacy_error_with_prefix("", e)
}

/// [`legacy_error`] with a message prefix (the SQL page has always said
/// "query failed: ...").
fn legacy_error_with_prefix(prefix: &str, e: &ApiError) -> Response {
    let status = match e.status {
        404 => 404,
        429 => 429,
        500 => 500,
        503 => 503,
        _ => 400,
    };
    let response = Response::with_status(status, &format!("{prefix}{}", e.message));
    if status == 429 || status == 503 {
        return response.with_header("Retry-After", crate::api::RETRY_AFTER_SECONDS);
    }
    response
}

fn section_of_path(path: &str) -> Section {
    if path == "/api" || path.starts_with("/api/") {
        Section::Api
    } else if path.starts_with("/jp") {
        Section::Japanese
    } else if path.starts_with("/de") {
        Section::German
    } else if path.contains("/proj/") || path.contains("/edu") {
        Section::Education
    } else if path.contains("x_job") || path.contains("/tools/jobs") {
        Section::BatchJobs
    } else if path.contains("places") {
        Section::FamousPlaces
    } else if path.contains("navi") {
        Section::Navigator
    } else if path.contains("explore") {
        Section::Explorer
    } else if path.contains("x_sql") || path.contains("search") {
        Section::SqlSearch
    } else if path.contains("help") || path.contains("browser") {
        Section::Help
    } else {
        Section::Home
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, HttpClient};
    use skyserver::SkyServerBuilder;

    fn site() -> Arc<SkyServerSite> {
        let sky = SkyServerBuilder::new().tiny().build().unwrap();
        SkyServerSite::new(sky)
    }

    fn get(site: &SkyServerSite, path_and_query: &str) -> Response {
        let raw = format!("GET {path_and_query} HTTP/1.1\r\n");
        site.handle(&parse_request(&raw).unwrap())
    }

    #[test]
    fn home_pages_in_three_languages() {
        let site = site();
        for lang in LANGUAGES {
            let r = get(&site, &format!("/{lang}/"));
            assert_eq!(r.status, 200, "language {lang}");
        }
        assert_eq!(get(&site, "/").status, 200);
        assert_eq!(get(&site, "/nonexistent").status, 404);
    }

    #[test]
    fn famous_places_lists_bright_galaxies() {
        let site = site();
        let r = get(&site, "/en/tools/places");
        assert_eq!(r.status, 200);
        let html = String::from_utf8(r.body).unwrap();
        assert!(html.contains("explore?id="));
    }

    #[test]
    fn sql_search_respects_format_and_limits() {
        let site = site();
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+count(*)+as+n+from+PhotoObj&format=json",
        );
        assert_eq!(r.status, 200);
        assert!(r.content_type.contains("json"));
        let json: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(json["columns"][0], "n");
        // A big query gets truncated by the public limit.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+objID+from+PhotoObj&format=json",
        );
        let json: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(json["rows"].as_array().unwrap().len(), 1000);
        assert_eq!(json["truncated"], serde_json::json!(true));
        // Malformed SQL is a 400, not a panic.
        let r = get(&site, "/en/tools/search/x_sql?cmd=selec+nonsense");
        assert_eq!(r.status, 400);
        let r = get(&site, "/en/tools/search/x_sql");
        assert_eq!(r.status, 400);
    }

    #[test]
    fn sql_search_rejects_writes_on_the_public_page() {
        let site = site();
        let r = get(&site, "/en/tools/search/x_sql?cmd=drop+table+PhotoObj");
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("read-only"), "{body}");
        // The table is still there.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+count(*)+from+PhotoObj&format=json",
        );
        assert_eq!(r.status, 200);
    }

    #[test]
    fn result_cache_hits_repeat_queries_and_admin_writes_invalidate() {
        let site = site();
        let q = "/en/tools/search/x_sql?cmd=select+count(*)+as+n+from+notes_cache&format=json";
        site.with_admin(|sky| {
            sky.execute("create table notes_cache (id bigint not null)")
                .unwrap();
            sky.execute("insert into notes_cache (id) values (1), (2)")
                .unwrap();
        });
        let r = get(&site, q);
        assert_eq!(r.status, 200);
        let first: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(first["rows"][0][0], serde_json::json!(2));
        assert_eq!(site.cache_stats().hits, 0);
        // Same query (different whitespace/case) is a cache hit.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=SELECT++count(*)+AS+n+FROM+notes_cache&format=json",
        );
        assert_eq!(r.status, 200);
        assert_eq!(site.cache_stats().hits, 1);
        // An admin write clears the cache; the next read sees fresh data.
        site.with_admin(|sky| {
            sky.execute("insert into notes_cache (id) values (3)")
                .unwrap();
        });
        let r = get(&site, q);
        let fresh: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(fresh["rows"][0][0], serde_json::json!(3));
    }

    /// The navigator body as the `serde_json` tree used to build it.
    fn navigator_tree(ra: f64, dec: f64, zoom: u32, radius: f64, rows: &[Vec<Value>]) -> String {
        let objects: Vec<serde_json::Value> = rows
            .iter()
            .map(|r| {
                serde_json::json!({
                    "objID": r.first().and_then(Value::as_i64),
                    "type": r.get(1).and_then(Value::as_i64),
                    "distance_arcmin": r.get(2).and_then(Value::as_f64),
                })
            })
            .collect();
        serde_json::json!({
            "ra": ra,
            "dec": dec,
            "zoom": zoom,
            "radius_arcmin": radius,
            "objects": objects,
        })
        .to_string()
    }

    #[test]
    fn the_navigator_writer_prints_what_the_value_tree_prints() {
        let mut rows = vec![
            vec![Value::Int(587722), Value::Int(3), Value::Float(0.25)],
            vec![Value::Int(-1), Value::Int(6), Value::Float(60.0)],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(7), Value::Float(3.9), Value::Int(2)],
            vec![Value::Int(8), Value::Int(0), Value::Float(f64::NAN)],
            vec![Value::Int(9)],
            vec![],
        ];
        rows.extend(
            crate::formats::tests::awkward_cells()
                .chunks(3)
                .map(|c| c.to_vec()),
        );
        for (ra, dec, zoom) in [(181.0, -0.8, 0), (0.125, 89.99999, 3), (359.5, -90.0, 1)] {
            let radius = 60.0 / f64::from(1 << zoom);
            for rows in [&rows[..], &[]] {
                assert_eq!(
                    navigator_json(ra, dec, zoom, radius, rows),
                    navigator_tree(ra, dec, zoom, radius, rows)
                );
            }
        }
        // And over the wire, on the real cone.
        let site = site();
        for zoom in 0..4 {
            let r = get(
                &site,
                &format!("/en/tools/navi?ra=181&dec=-0.8&zoom={zoom}"),
            );
            let radius = 60.0 / f64::from(1 << zoom);
            let cone = cone_payload(&site, 181.0, -0.8, radius, None).unwrap();
            let body = String::from_utf8(r.body.clone()).unwrap();
            assert_eq!(body, navigator_tree(181.0, -0.8, zoom, radius, &cone.rows));
        }
    }

    #[test]
    fn explorer_and_navigator_return_json() {
        let site = site();
        // Find a real object id through the SQL endpoint first.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+top+1+objID+from+PhotoObj&format=json",
        );
        let json: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let id = json["rows"][0][0].as_i64().unwrap();
        let r = get(&site, &format!("/en/tools/explore?id={id}"));
        assert_eq!(r.status, 200);
        let explored: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(explored["obj_id"].as_i64().unwrap(), id);
        assert!(explored["attributes"].as_array().unwrap().len() > 50);
        // Unknown object and bad parameter.
        assert_eq!(get(&site, "/en/tools/explore?id=-5").status, 404);
        assert_eq!(get(&site, "/en/tools/explore").status, 400);
        // Navigator.
        let r = get(&site, "/en/tools/navi?ra=181&dec=-0.8&zoom=2");
        assert_eq!(r.status, 200);
        let nav: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(nav["zoom"], serde_json::json!(2));
        assert!(nav["objects"].is_array());
    }

    #[test]
    fn schema_browser_feeds_skyserverqa() {
        let site = site();
        let r = get(&site, "/skyserverqa/metadata");
        assert_eq!(r.status, 200);
        let json: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let tables = json["tables"].as_array().unwrap();
        assert!(tables.iter().any(|t| t["name"] == "PhotoObj"));
        assert!(json["views"].as_array().unwrap().len() >= 5);
        assert!(!json["functions"].as_array().unwrap().is_empty());
        // The serving-tier counters ride along.
        assert!(json["result_cache"]["hits"].is_number());
        assert!(json["result_cache"]["misses"].is_number());
        assert!(json["engine"]["selects"].is_number());
    }

    #[test]
    fn requests_are_logged_for_the_traffic_analyser() {
        let site = site();
        get(&site, "/en/tools/places");
        get(&site, "/jp/");
        get(&site, "/en/tools/search/x_sql?cmd=select+1");
        let log = site.request_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].section, Section::FamousPlaces);
        assert_eq!(log[1].section, Section::Japanese);
        assert_eq!(log[2].section, Section::SqlSearch);
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let site = site();
        let server = site.serve(0).unwrap();
        let (status, body) = crate::http::http_get(
            server.addr(),
            "/en/tools/search/x_sql?cmd=select+count(*)+from+Plate&format=csv",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(body.lines().count() >= 2);
        server.stop();
    }

    /// The §7 smoke test: ~8 concurrent clients issuing distinct queries
    /// over keep-alive connections against one running site.  Every
    /// response must be correct and the request log must record all of
    /// them (no lost updates).
    #[test]
    fn concurrent_sql_clients_share_the_read_path() {
        let site = site();
        let server = site.serve(0).unwrap();
        let addr = server.addr();
        const CLIENTS: u64 = 8;
        const REQUESTS: u64 = 5;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for r in 0..REQUESTS {
                        // Distinct per-(client, request) queries: TOP n over
                        // the pk index returns exactly n rows.
                        let n = (c * REQUESTS + r) % 9 + 1;
                        let (status, body) = client
                            .get(&format!(
                                "/en/tools/search/x_sql?cmd=select+top+{n}+objID+from+PhotoObj&format=json"
                            ))
                            .unwrap();
                        assert_eq!(status, 200, "client {c} request {r}: {body}");
                        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
                        assert_eq!(
                            json["rows"].as_array().unwrap().len(),
                            n as usize,
                            "client {c} request {r} got the wrong result"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = site.request_log();
        assert_eq!(
            log.len(),
            (CLIENTS * REQUESTS) as usize,
            "the request log lost updates under concurrency"
        );
        assert!(log.iter().all(|r| r.section == Section::SqlSearch));
        server.stop();
    }

    /// The end-to-end batch-tier test over a real socket: submit a job,
    /// poll it to completion, fetch the CSV; then cancel a long-running
    /// scan mid-flight and observe `Cancelled` with a halted progress
    /// counter.  (Also a named CI step, like the §7 concurrency smoke
    /// test.)
    #[test]
    fn http_job_lifecycle_end_to_end() {
        let site = site();
        let server = site.serve(0).unwrap();
        let addr = server.addr();
        let poll_state = |id: i64| -> (String, u64) {
            let (status, body) =
                crate::http::http_get(addr, &format!("/x_job/status?id={id}")).unwrap();
            assert_eq!(status, 200, "{body}");
            let json: serde_json::Value = serde_json::from_str(&body).unwrap();
            (
                json["state"].as_str().unwrap().to_string(),
                json["rows_processed"].as_u64().unwrap(),
            )
        };
        let wait_for_state = |id: i64, wanted: &str| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                let (state, _) = poll_state(id);
                if state == wanted {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "job {id} stuck before {wanted} (currently {state})"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        };

        // 1. Submit a quick batch query and poll it to completion.
        let (status, body) = crate::http::http_get(
            addr,
            "/x_job/submit?cmd=select+top+20+objID,ra+from+PhotoObj+order+by+objID&submitter=alice",
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        let quick = json["job_id"].as_i64().unwrap();
        wait_for_state(quick, "done");

        // 2. Fetch the stored result as CSV through the shared formatters.
        let (status, csv) =
            crate::http::http_get(addr, &format!("/x_job/fetch?id={quick}&format=csv")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(csv.lines().count(), 21, "header + 20 rows:\n{csv}");
        assert!(csv.lines().next().unwrap().contains("objID"));

        // 3. Submit a long-running scan (millions of paced nested-loop
        //    probes — it cannot finish before the cancel below).
        let (status, body) = crate::http::http_get(
            addr,
            "/x_job/submit?cmd=select+count(*)+from+PhotoObj+a+join+PhotoObj+b+on+a.objID+%3C+b.objID&submitter=alice",
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        let slow = json["job_id"].as_i64().unwrap();

        // 4. Wait until it is running and has visible progress, cancel it,
        //    and observe the Cancelled state.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let (state, progress) = poll_state(slow);
            if state == "running" && progress > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job {slow} never showed progress ({state}, {progress})"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (status, body) =
            crate::http::http_get(addr, &format!("/x_job/cancel?id={slow}")).unwrap();
        assert_eq!(status, 200, "{body}");
        wait_for_state(slow, "cancelled");

        // 5. The scan actually stopped: the progress counter is frozen.
        let (_, frozen) = poll_state(slow);
        std::thread::sleep(std::time::Duration::from_millis(40));
        let (state, after) = poll_state(slow);
        assert_eq!(state, "cancelled");
        assert_eq!(after, frozen, "progress advanced after cancellation");

        // 6. Fetching a cancelled job is a clear error, unknown ids 404,
        //    and the My Jobs page shows both jobs.
        let (status, body) =
            crate::http::http_get(addr, &format!("/x_job/fetch?id={slow}")).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("cancelled"), "{body}");
        let (status, _) = crate::http::http_get(addr, "/x_job/status?id=99999").unwrap();
        assert_eq!(status, 404);
        // Fetch agrees with status on unknown ids.
        let (status, _) = crate::http::http_get(addr, "/x_job/fetch?id=99999").unwrap();
        assert_eq!(status, 404);
        let (status, html) = crate::http::http_get(addr, "/tools/jobs?submitter=alice").unwrap();
        assert_eq!(status, 200);
        assert!(html.contains("done"), "{html}");
        assert!(html.contains("cancelled"), "{html}");
        server.stop();
    }

    #[test]
    fn job_writes_are_rejected_and_bad_requests_are_400() {
        let site = site();
        // A write submitted as a batch job fails with the read-only error
        // (jobs run on the engine's shared read path by construction).
        let id = site
            .jobs()
            .submit("mallory", "drop table PhotoObj")
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !site.jobs().status(id).unwrap().state.is_finished() {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let status = site.jobs().status(id).unwrap();
        assert_eq!(status.state, crate::jobs::JobState::Failed);
        assert!(status.error.as_deref().unwrap().contains("read-only"));
        // The table survived.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+count(*)+from+PhotoObj&format=json",
        );
        assert_eq!(r.status, 200);
        // Malformed endpoint parameters are 400s, not panics.
        assert_eq!(get(&site, "/x_job/submit").status, 400);
        assert_eq!(get(&site, "/x_job/status?id=abc").status, 400);
        assert_eq!(get(&site, "/x_job/cancel").status, 400);
        assert_eq!(get(&site, "/x_job/fetch").status, 400);
    }

    #[test]
    fn admin_publish_lets_running_batch_jobs_finish_on_their_snapshot() {
        // Faster pacing than the default so the O(N²) scan still finishes
        // in test time while leaving plenty of overlap with the admin write.
        let sky = SkyServerBuilder::new().tiny().build().unwrap();
        let site = SkyServerSite::new_with(
            sky,
            RESULT_CACHE_CAPACITY,
            crate::jobs::JobQueueConfig {
                pace: std::time::Duration::from_micros(100),
                ..Default::default()
            },
        );
        let count = |site: &SkyServerSite| {
            site.sky()
                .query("select count(*) from PhotoObj")
                .unwrap()
                .scalar()
                .unwrap()
                .as_i64()
                .unwrap()
        };
        let n = count(&site);
        // A self-join over the 500 smallest objIDs: big enough (~125k pairs)
        // to still be running when the publish lands, small enough to stay
        // inside the batch memory budget and finish.
        let ids = site
            .sky()
            .query("select top 500 objID from PhotoObj order by objID")
            .unwrap();
        let k = ids.rows.len() as i64;
        let bound = ids.rows.last().unwrap()[0].as_i64().unwrap();
        // Deleting the smallest objID shrinks the joined set, so a job that
        // (wrongly) saw the post-publish catalog would count fewer pairs.
        let victim = ids.rows[0][0].as_i64().unwrap();
        let id = site
            .jobs()
            .submit(
                "ops",
                &format!(
                    "select count(*) from PhotoObj a join PhotoObj b \
                     on a.objID < b.objID where b.objID <= {bound}"
                ),
            )
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let s = site.jobs().status(id).unwrap();
            if s.state == crate::jobs::JobState::Running && s.rows_processed > 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Mutate the catalog and publish while the scan is mid-flight: the
        // admin write builds the next catalog off to the side and swaps it
        // in atomically, so it neither waits out nor cancels the job.
        let started = std::time::Instant::now();
        site.with_admin(|sky| {
            sky.execute(&format!("delete from PhotoObj where objID = {victim}"))
                .unwrap();
            sky.publish_release("dr2").unwrap();
        });
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "admin write waited out the batch scan"
        );
        // The job completes — on the snapshot it pinned at start, so its
        // pair count reflects the catalog *before* the delete.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        while !site.jobs().status(id).unwrap().state.is_finished() {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let status = site.jobs().status(id).unwrap();
        assert_eq!(
            status.state,
            crate::jobs::JobState::Done,
            "job error: {:?}",
            status.error
        );
        let result = site.jobs().result(id).unwrap();
        assert_eq!(
            result.scalar().unwrap().as_i64().unwrap(),
            k * (k - 1) / 2,
            "job must see its pinned pre-publish snapshot"
        );
        // New requests see the published head immediately.
        assert_eq!(count(&site), n - 1);
        assert!(site.sky().release_names().contains(&"dr2".to_string()));
    }

    #[test]
    fn my_jobs_escapes_html_in_error_messages() {
        let site = site();
        // Parse errors echo string literals verbatim, so a submitted query
        // can smuggle HTML into job.error; the My Jobs page must escape it.
        let id = site.jobs().submit("eve", "select 1 '<b>boom</b>'").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !site.jobs().status(id).unwrap().state.is_finished() {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(
            site.jobs().status(id).unwrap().state,
            crate::jobs::JobState::Failed
        );
        let r = get(&site, "/tools/jobs");
        let html = String::from_utf8(r.body).unwrap();
        assert!(!html.contains("<b>boom</b>"), "unescaped error:\n{html}");
        assert!(html.contains("&lt;b&gt;boom&lt;/b&gt;"), "{html}");
    }

    #[test]
    fn admin_writes_coexist_with_concurrent_readers() {
        let site = site();
        std::thread::scope(|scope| {
            let reader_site = &site;
            let reader = scope.spawn(move || {
                for _ in 0..20 {
                    let r = get(
                        reader_site,
                        "/en/tools/search/x_sql?cmd=select+count(*)+from+PhotoObj&format=json",
                    );
                    assert_eq!(r.status, 200);
                }
            });
            for i in 0..5 {
                site.with_admin(|sky| {
                    sky.execute(&format!("create table admin_t{i} (id bigint not null)"))
                        .unwrap();
                });
            }
            reader.join().unwrap();
        });
        // The admin DDL landed.
        let r = get(
            &site,
            "/en/tools/search/x_sql?cmd=select+count(*)+from+admin_t0&format=json",
        );
        assert_eq!(r.status, 200);
    }
}
