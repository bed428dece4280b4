//! # skyserver-web
//!
//! The SkyServer web front end (§2, §4, §5, §7 of the paper):
//!
//! * a dependency-free HTTP server ([`http`]) standing in for IIS + ASP,
//!   with a bounded worker pool, HTTP/1.1 keep-alive, POST bodies and a
//!   capped request head,
//! * the versioned programmatic surface ([`api`]): a declarative typed
//!   router under `/api/v1` with extractors, a machine-readable error
//!   envelope, cursor pagination, content negotiation and a generated
//!   self-description (`GET /api/v1`),
//! * an LRU query-result cache ([`cache`]) keyed by normalized SQL +
//!   output format, serving the paper's popular-places workload from
//!   memory,
//! * the site routes ([`site`]): famous places, navigator, object explorer,
//!   SQL search with the public 1,000-row / 30-second limits, the schema
//!   browser that feeds SkyServerQA, and the three language branches,
//! * the asynchronous batch-query job tier ([`jobs`]): a CasJobs-style
//!   queue with its own bounded worker pool, per-submitter quotas, stored
//!   results with TTL expiry, and cancellation/progress via the SQL
//!   engine's `QueryMonitor`,
//! * the result output formats ([`formats`]): grid, CSV, XML, JSON and a
//!   FITS-style ASCII table,
//! * the resource governor ([`governor`]): admission control over the
//!   interactive query path — an in-flight cap shedding excess load with
//!   `503` + `Retry-After`, and the per-request deadline every admitted
//!   query carries into the executor,
//! * the request log ([`traffic`]) that attributes each request to a site
//!   section the way §7 does; the Figure 5 simulator and analyser that
//!   read it live in the reproduction crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod formats;
pub mod governor;
pub mod http;
pub mod jobs;
pub mod site;
pub mod traffic;

pub use api::{ApiError, Router, API_PREFIX, ERROR_CODES};
pub use cache::{normalize_sql, CacheStats, ResultCache, RowCache};
pub use formats::{to_csv, to_fits_ascii, to_json, to_xml, AcceptNegotiation, OutputFormat};
pub use governor::{Governor, GovernorConfig, GovernorStats};
pub use http::{
    http_get, http_request, parse_request, url_decode, HttpClient, HttpServer, Request, Response,
    ServerConfig,
};
pub use jobs::{JobQueue, JobQueueConfig, JobState, JobStatus};
pub use site::{SkyServerSite, LANGUAGES};
pub use traffic::{LogRecord, Section};
