//! The site's request log (§7): which section each request hit, whether
//! it was a page view, and from whom.  The site appends one [`LogRecord`]
//! per request ([`crate::SkyServerSite::request_log`]); the simulator and analyser
//! that reproduce Figure 5 from such a log live in the reproduction crate
//! (`skyserver-bench`).

/// Site sections, used to attribute traffic the way §7 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Section {
    /// The home page.
    Home,
    /// The famous-places gallery.
    FamousPlaces,
    /// The pan/zoom navigation tool.
    Navigator,
    /// The object explorer.
    Explorer,
    /// The SQL search pages.
    SqlSearch,
    /// The asynchronous batch-query endpoints (`/x_job/*`, My Jobs).
    BatchJobs,
    /// The versioned programmatic surface (`/api/v1/*`): machine clients,
    /// not page views.
    Api,
    /// The education projects.
    Education,
    /// The Japanese sub-web.
    Japanese,
    /// The German sub-web.
    German,
    /// Help and documentation (incl. the schema browser).
    Help,
}

/// One logged request.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LogRecord {
    /// Day index since the site opened (0-based).
    pub day: u32,
    /// Session identifier.
    pub session: u64,
    /// Which part of the site was hit.
    pub section: Section,
    /// True if the request is a full page view (false = embedded asset hit
    /// or a programmatic `/api` call).
    pub page_view: bool,
    /// True if the client is a crawler.
    pub crawler: bool,
    /// HTTP status of the response (the simulator always records 200; the
    /// live site records the real status so non-200 API responses are
    /// countable separately from page views).
    pub status: u16,
}
