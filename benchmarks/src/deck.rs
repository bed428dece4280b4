//! Deck generation: the seeded request sequences of the four workloads.
//!
//! A deck is a fixed list of operations per client, made from `--seed` and
//! from facts read off the catalog at set-up (object ids and positions).
//! The server only ever sees the generated requests.  Every operation
//! carries the check its response must pass; the expected value comes from
//! running the same statement in-process through the `SkyServer` API on the
//! pristine catalog, never from the serving path under test.

use skyserver::{ResultSet, SkyServer, Value};
use skyserver_web::{to_json, OutputFormat};

/// SplitMix64: the deck generator's own PRNG, so the benchmark needs no
/// `rand` dependency and a seed means the same deck on every toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Zipf(1) over ranks `0..n`: rank `k` is drawn with weight `1 / (k + 1)`,
/// the skew of "popular places" traffic (§7 of the paper).
#[derive(Debug, Clone)]
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.0.partition_point(|c| *c <= u).min(self.0.len() - 1)
    }
}

/// FNV-1a, the digest of bodies and decks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a digest over more bytes.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Percent-encode a query-string value (space as `+`).
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// What the deck generator knows about the catalog: read once at set-up.
pub struct Facts {
    /// `(objID, ra, dec, htmID)` of every photo object, by objID.
    pub objects: Vec<(i64, f64, f64, i64)>,
    /// Every `specObjID`, ascending.
    pub spec_ids: Vec<i64>,
}

impl Facts {
    pub fn gather(sky: &SkyServer) -> Facts {
        let photo = sky
            .query("select objID, ra, dec, htmID from PhotoObj")
            .expect("reading object positions");
        let mut objects: Vec<(i64, f64, f64, i64)> = photo
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().expect("objID"),
                    r[1].as_f64().expect("ra"),
                    r[2].as_f64().expect("dec"),
                    r[3].as_i64().expect("htmID"),
                )
            })
            .collect();
        objects.sort_by_key(|o| o.0);
        let spec = sky
            .query("select specObjID from SpecObj")
            .expect("reading spectrum ids");
        let mut spec_ids: Vec<i64> = spec.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        spec_ids.sort_unstable();
        Facts { objects, spec_ids }
    }
}

/// What a response must satisfy beyond its status code.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Status only (bodies that carry live counters, or writes and SQL
    /// operations whose result the runner checks itself).
    Status,
    /// The body's FNV-1a digest.
    Body(u64),
    /// The body contains this fragment.
    Contains(String),
    /// The body contains `needle` exactly this many times.
    Count(&'static str, usize),
}

impl Check {
    pub fn passes(&self, body: &str) -> bool {
        match self {
            Check::Status => true,
            Check::Body(digest) => fnv1a(body.as_bytes()) == *digest,
            Check::Contains(fragment) => body.contains(fragment.as_str()),
            Check::Count(needle, n) => body.matches(needle).count() == *n,
        }
    }
}

/// The shape of an operation: what the handler does inside, which is what
/// the traced run replays call by call.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// A page that runs no SQL (home, schema browser).
    Page,
    /// The famous-places gallery (one fixed SQL query, HTML around it).
    Places,
    /// A cone search: the navigator or `/api/v1/cone`.
    Cone { ra: f64, dec: f64, radius: f64 },
    /// The object drill-down: explorer page or `/api/v1/objects/{id}`.
    Object { id: i64 },
    /// The SQL search page (result-cached by normalized SQL + format).
    XSql { sql: String, format: OutputFormat },
    /// `/api/v1/query`; page 1 executes, later pages read the rows cache
    /// and take their cursor from the previous response.
    Query { sql: String, page: u8 },
    /// An error-path sample whose 4xx is the expected answer.
    Error,
    /// One statement of the analytic deck, run in-process; `template`
    /// indexes [`analytic_templates`].
    Sql { template: usize },
    /// An operator write through `SkyServerSite::with_admin`.
    Write,
}

/// One operation of a deck.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: Kind,
    /// URL path and query for HTTP operations, SQL text for `Kind::Sql`.
    pub target: String,
    /// The expected status (4xx for error-path samples).
    pub status: u16,
    pub check: Check,
    /// The published release the operation is pinned to, if any.
    pub release: Option<&'static str>,
}

/// The release every pinned operation reads.
pub const PINNED: &str = "dr1";

/// A page of a reference result as the `"rows":[...]` fragment every JSON
/// rendering of it must contain (objects print with sorted keys and no
/// whitespace, so the fragment is contiguous in the envelope).
fn rows_fragment(result: &ResultSet, from: usize, to: usize) -> String {
    let page = ResultSet {
        columns: result.columns.clone(),
        rows: result.rows[from.min(result.len())..to.min(result.len())].to_vec(),
        truncated: false,
    };
    let json: serde_json::Value =
        serde_json::from_str(&to_json(&page)).expect("reference page serialises");
    format!("\"rows\":{}", json["rows"])
}

/// Builds operations against the pristine catalog.
pub struct DeckBuilder<'a> {
    sky: &'a SkyServer,
    facts: &'a Facts,
}

/// Rows of a reference query; decks stay below the public 1,000-row cap so
/// the reference and the public path agree row for row.
fn reference(sky: &SkyServer, sql: &str, release: Option<&str>) -> ResultSet {
    let result = sky
        .query_on(sql, release)
        .unwrap_or_else(|e| panic!("reference query failed: {e}\n  sql: {sql}"));
    assert!(
        result.len() < 1000,
        "deck query returns {} rows, at or over the public cap: {sql}",
        result.len()
    );
    result
}

fn release_param(release: Option<&str>) -> String {
    release.map(|r| format!("&release={r}")).unwrap_or_default()
}

impl<'a> DeckBuilder<'a> {
    pub fn new(sky: &'a SkyServer, facts: &'a Facts) -> DeckBuilder<'a> {
        DeckBuilder { sky, facts }
    }

    fn page(&self, path: &str, fragment: &str) -> Op {
        Op {
            kind: Kind::Page,
            target: path.to_string(),
            status: 200,
            check: Check::Contains(fragment.to_string()),
            release: None,
        }
    }

    /// The gallery lists the 12 brightest galaxies; the reference is the
    /// brightest one's id through the SkyServer API.
    fn brightest_galaxy(&self) -> i64 {
        self.sky
            .query("select top 1 objID from Galaxy order by modelMag_r")
            .expect("places reference")
            .scalar()
            .and_then(Value::as_i64)
            .expect("a galaxy")
    }

    fn places(&self, lang: &str, brightest: i64) -> Op {
        Op {
            kind: Kind::Places,
            target: format!("/{lang}/tools/places"),
            status: 200,
            check: Check::Contains(format!("<ul><li>Galaxy {brightest} at")),
            release: None,
        }
    }

    fn navigator(&self, lang: &str, ra: f64, dec: f64, zoom: u32) -> Op {
        let radius = 60.0 / f64::from(1u32 << zoom);
        let n = self
            .sky
            .nearby_objects(ra, dec, radius)
            .expect("navigator reference")
            .len();
        Op {
            kind: Kind::Cone { ra, dec, radius },
            target: format!("/{lang}/tools/navi?ra={ra}&dec={dec}&zoom={zoom}"),
            status: 200,
            check: Check::Count("\"objID\":", n),
            release: None,
        }
    }

    fn object_body(&self, id: i64, release: Option<&str>) -> Check {
        let summary = self.sky.explore_on(id, release).expect("object reference");
        Check::Body(fnv1a(
            &serde_json::to_vec(&summary).expect("summary serialises"),
        ))
    }

    fn explorer(&self, id: i64) -> Op {
        Op {
            kind: Kind::Object { id },
            target: format!("/en/tools/explore?id={id}"),
            status: 200,
            check: self.object_body(id, None),
            release: None,
        }
    }

    fn api_object(&self, id: i64, release: Option<&'static str>) -> Op {
        let query = release.map(|r| format!("?release={r}")).unwrap_or_default();
        Op {
            kind: Kind::Object { id },
            target: format!("/api/v1/objects/{id}{query}"),
            status: 200,
            check: self.object_body(id, release),
            release,
        }
    }

    fn x_sql(&self, sql: &str, format: OutputFormat) -> Op {
        // `AS OF` inside the statement pins it; the reference honours it.
        let result = reference(self.sky, sql, None);
        let pinned = sql.contains("as of dr1");
        Op {
            kind: Kind::XSql {
                sql: sql.to_string(),
                format,
            },
            target: format!(
                "/en/tools/search/x_sql?cmd={}&format={}",
                url_encode(sql),
                format.name()
            ),
            status: 200,
            check: Check::Body(fnv1a(format.render(&result).as_bytes())),
            release: pinned.then_some(PINNED),
        }
    }

    fn api_query(&self, sql: &str, release: Option<&'static str>) -> Op {
        let result = reference(self.sky, sql, release);
        Op {
            kind: Kind::Query {
                sql: sql.to_string(),
                page: 1,
            },
            target: format!(
                "/api/v1/query?sql={}&limit=100{}",
                url_encode(sql),
                release_param(release)
            ),
            status: 200,
            check: Check::Contains(rows_fragment(&result, 0, 100)),
            release,
        }
    }

    /// A three-page cursor walk over 60 rows from `start` upwards.
    fn api_walk(&self, start: i64, release: Option<&'static str>) -> Vec<Op> {
        const PAGE: usize = 20;
        // A closed id range: an open one (`objID >= n`) plans as a scan and
        // sort of the whole table and fails the public memory budget.
        let sql = format!(
            "select top 60 objID, ra, dec from PhotoObj \
             where objID between {start} and {} order by objID",
            start + 400
        );
        let result = reference(self.sky, &sql, release);
        assert_eq!(result.len(), 3 * PAGE, "walk start too close to the end");
        (0..3)
            .map(|p| Op {
                kind: Kind::Query {
                    sql: sql.clone(),
                    page: p as u8 + 1,
                },
                target: format!(
                    "/api/v1/query?sql={}&limit={PAGE}{}",
                    url_encode(&sql),
                    release_param(release)
                ),
                status: 200,
                check: Check::Contains(rows_fragment(&result, p * PAGE, (p + 1) * PAGE)),
                release,
            })
            .collect()
    }

    fn api_cone(&self, ra: f64, dec: f64, radius: f64, release: Option<&'static str>) -> Op {
        const LIMIT: usize = 25;
        let result = self
            .sky
            .nearby_objects_on(ra, dec, radius, release)
            .expect("cone reference");
        Op {
            kind: Kind::Cone { ra, dec, radius },
            target: format!(
                "/api/v1/cone?ra={ra}&dec={dec}&radius={radius}&limit={LIMIT}{}",
                release_param(release)
            ),
            status: 200,
            check: Check::Contains(rows_fragment(&result, 0, LIMIT)),
            release,
        }
    }

    fn error(&self, n: usize, salt: u64) -> Op {
        let (target, status) = match n % 4 {
            0 => ("/api/v1/query".to_string(), 400),
            1 => (format!("/api/v1/nope{salt}"), 404),
            2 => (format!("/api/v1/query?sql=selec+broken+{salt}"), 422),
            _ => (format!("/api/v1/objects/-{}", salt % 1000 + 1), 404),
        };
        Op {
            kind: Kind::Error,
            target,
            status,
            check: Check::Contains("\"error\"".to_string()),
            release: None,
        }
    }

    /// A random object, its position rounded so the URL text and the
    /// reference call carry the same numbers.
    fn random_position(&self, rng: &mut SplitMix64) -> (f64, f64) {
        let (_, ra, dec, _) = self.facts.objects[rng.below(self.facts.objects.len())];
        let round = |x: f64| (x * 1e5).round() / 1e5;
        (
            round(ra + (rng.unit() - 0.5) * 0.04),
            round(dec + (rng.unit() - 0.5) * 0.04),
        )
    }

    fn random_id(&self, rng: &mut SplitMix64) -> i64 {
        // The last tenth is left out so a 60-row walk always has its rows.
        self.facts.objects[rng.below(self.facts.objects.len() * 9 / 10)].0
    }

    /// One selective statement in the given one of four `adhoc_api` shapes.
    fn selective_sql(&self, shape: usize, rng: &mut SplitMix64) -> String {
        match shape {
            0 => format!(
                "select objID, ra, dec, modelMag_r from PhotoObj where objID = {}",
                self.random_id(rng)
            ),
            1 => {
                // A narrow range on the covering htmID index.
                let htm = self.facts.objects[rng.below(self.facts.objects.len())].3;
                format!(
                    "select objID, ra, dec, modelMag_r from PhotoObj where htmID between {} and {}",
                    htm - 2000,
                    htm + 2000
                )
            }
            2 => {
                // The paper's Q1 shape: a spatial table function joined to a view.
                let (ra, dec) = self.random_position(rng);
                format!(
                    "select G.objID, GN.distance from Galaxy as G \
                     join fGetNearbyObjEq({ra}, {dec}, 2) as GN on G.objID = GN.objID \
                     order by distance"
                )
            }
            _ => format!(
                "select S.specObjID, S.z, P.objID, P.modelMag_r from SpecObj S \
                 join PhotoObj P on S.objID = P.objID where S.specObjID = {}",
                self.facts.spec_ids[rng.below(self.facts.spec_ids.len())]
            ),
        }
    }

    /// The one to three operations of one draw.
    fn deal(&self, draw: Draw, rng: &mut SplitMix64, state: &mut Dealing) -> Vec<Op> {
        match draw {
            Draw::Cone(release) => {
                let (ra, dec) = self.random_position(rng);
                let radius = ((0.5 + rng.unit() * 4.5) * 100.0).round() / 100.0;
                vec![self.api_cone(ra, dec, radius, release)]
            }
            Draw::Object(release) => vec![self.api_object(self.random_id(rng), release)],
            Draw::Query(shape) => vec![self.api_query(&self.selective_sql(shape, rng), None)],
            Draw::Walk(release) => self.api_walk(self.random_id(rng), release),
            Draw::Error => {
                state.errors += 1;
                vec![self.error(state.errors, rng.next_u64() % 1_000_000)]
            }
            Draw::PinnedSearch(which) => {
                let format = [OutputFormat::Json, OutputFormat::Csv][which];
                vec![self.x_sql(PINNED_SEARCHES[which], format)]
            }
            Draw::Hot => vec![state.hot.next().expect("enough hot pages were dealt")],
        }
    }

    /// Operations dealt in blocks: every block holds exactly `plan`'s
    /// count of each draw, in seeded order.  How many operations of each
    /// shape fall into any stretch of a deck is not left to chance — the
    /// shapes differ severalfold in cost, and a median that sits between
    /// two shapes would move with the luck of the draw.
    fn dealt(
        &self,
        plan: &[(Draw, usize)],
        rng: &mut SplitMix64,
        len: usize,
        hot: Vec<Op>,
    ) -> Vec<Op> {
        let mut state = Dealing {
            errors: 0,
            hot: hot.into_iter(),
        };
        let mut deck = Vec::with_capacity(len + 64);
        while deck.len() < len {
            let mut block: Vec<Draw> = plan
                .iter()
                .flat_map(|(draw, n)| std::iter::repeat_n(*draw, *n))
                .collect();
            shuffle(&mut block, rng);
            for draw in block {
                deck.extend(self.deal(draw, rng, &mut state));
            }
        }
        deck.truncate(len);
        deck
    }

    /// `adhoc_api`: `len` operations of distinct programmatic requests.
    pub fn adhoc_deck(&self, seed: u64, len: usize) -> Vec<Op> {
        self.dealt(&ADHOC_BLOCK, &mut SplitMix64::new(seed), len, Vec::new())
    }

    /// The popular pages of the public site, most popular first in each
    /// group, with the group's share of the traffic.
    pub fn hot_pages(&self, seed: u64) -> HotPages {
        let mut rng = SplitMix64::new(seed ^ 0x5157_4f54);
        let home = vec![
            self.page("/en/", "Welcome to the SDSS SkyServer"),
            self.page("/jp/", "SDSS SkyServer e youkoso"),
            self.page("/de/", "Willkommen beim SDSS SkyServer"),
        ];
        let brightest = self.brightest_galaxy();
        let places = ["en", "jp", "de"]
            .map(|l| self.places(l, brightest))
            .to_vec();
        // Popular positions lie far enough inside the footprint that the
        // widest view (60') sees full sky, so a seed's pick of positions
        // does not decide how much the navigator has to return.
        let mut navi = Vec::new();
        for _ in 0..16 {
            let (ra, dec) = self.interior_position(&mut rng, 1.05);
            for zoom in [1, 2, 0] {
                navi.push(self.navigator("en", ra, dec, zoom));
            }
        }
        let explore = (0..32)
            .map(|_| self.explorer(self.random_id(&mut rng)))
            .collect();
        let help = vec![self.page("/en/help/browser", "\"result_cache\"")];
        let mut searches = Vec::new();
        for (i, sql) in CANNED_SEARCHES.iter().enumerate() {
            let (first, second) = if i % 2 == 0 {
                (OutputFormat::Json, OutputFormat::Csv)
            } else {
                (OutputFormat::Csv, OutputFormat::Json)
            };
            searches.push(self.x_sql(sql, first));
            searches.push(self.x_sql(sql, second));
        }
        HotPages::new(vec![
            (20, home),
            (8, places),
            (12, navi),
            (15, explore),
            (5, help),
            (40, searches),
        ])
    }

    /// A position at least `margin` degrees inside the catalog's ra/dec
    /// bounding box, rounded like [`Self::random_position`].
    fn interior_position(&self, rng: &mut SplitMix64, margin: f64) -> (f64, f64) {
        let bounds = |pick: fn(&(i64, f64, f64, i64)) -> f64| {
            let values = self.facts.objects.iter().map(pick);
            let (lo, hi) = values.fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
            // A catalog narrower than two margins (the smoke scale) is
            // sampled at its centre line.
            let margin = margin.min((hi - lo) / 2.0);
            (lo + margin, hi - margin)
        };
        let (ra_lo, ra_hi) = bounds(|o| o.1);
        let (dec_lo, dec_hi) = bounds(|o| o.2);
        let round = |x: f64| (x * 1e5).round() / 1e5;
        (
            round(ra_lo + rng.unit() * (ra_hi - ra_lo)),
            round(dec_lo + rng.unit() * (dec_hi - dec_lo)),
        )
    }

    /// `mixed_publish`: a blend of both HTTP decks plus release-pinned
    /// reads (whose bodies must not change while the head is written to and
    /// new releases are published), with an operator write as every
    /// [`WRITE_EVERY`]th operation.
    pub fn mixed_deck(&self, hot: &HotPages, seed: u64, client: u64, len: usize) -> Vec<Op> {
        let mut rng = client_rng(seed ^ 0x4d58, client);
        let reads = self.dealt(
            &MIXED_BLOCK,
            &mut rng,
            len,
            hot.deck(seed ^ 0x4d58, client, len),
        );
        let mut reads = reads.into_iter();
        (1..=len)
            .map(|position| {
                if position % WRITE_EVERY == 0 {
                    Op {
                        kind: Kind::Write,
                        target: String::new(),
                        status: 200,
                        check: Check::Status,
                        release: None,
                    }
                } else {
                    reads.next().expect("as many reads as positions")
                }
            })
            .collect()
    }
}

/// One draw of a deck block.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Cone(Option<&'static str>),
    Object(Option<&'static str>),
    /// A selective statement of the given shape.
    Query(usize),
    Walk(Option<&'static str>),
    Error,
    PinnedSearch(usize),
    /// The next page of a stratified `interactive_hot` deck.
    Hot,
}

/// What dealing carries from draw to draw.
struct Dealing {
    errors: usize,
    hot: std::vec::IntoIter<Op>,
}

/// Fisher-Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// 50 draws, 56 operations: 29% cones, 23% objects, 29% selective queries
/// (the four shapes alike), 16% pages of cursor walks, 4% error samples.
const ADHOC_BLOCK: [(Draw, usize); 8] = [
    (Draw::Cone(None), 16),
    (Draw::Object(None), 13),
    (Draw::Query(0), 4),
    (Draw::Query(1), 4),
    (Draw::Query(2), 4),
    (Draw::Query(3), 4),
    (Draw::Walk(None), 3),
    (Draw::Error, 2),
];

/// 40 draws, 42 reads: 18 popular pages, 16 head API requests and 8
/// release-pinned reads.  No head cursor walks: admin writes re-key the
/// head, which invalidates a head cursor, so only pinned walks run here.
const MIXED_BLOCK: [(Draw, usize); 13] = [
    (Draw::Hot, 18),
    (Draw::Cone(None), 6),
    (Draw::Object(None), 5),
    (Draw::Query(0), 1),
    (Draw::Query(1), 1),
    (Draw::Query(2), 1),
    (Draw::Query(3), 1),
    (Draw::Error, 1),
    (Draw::PinnedSearch(0), 1),
    (Draw::PinnedSearch(1), 1),
    (Draw::Walk(Some(PINNED)), 1),
    (Draw::Cone(Some(PINNED)), 2),
    (Draw::Object(Some(PINNED)), 1),
];

/// Every how-many-th operation of `mixed_publish` is a write.
pub const WRITE_EVERY: usize = 10;

/// The eight canned searches of the public site.  None depends on rows the
/// `mixed_publish` writes add (type 0, magnitude 30, declination +60), so
/// their head answers hold while those writes run.
const CANNED_SEARCHES: [&str; 8] = [
    "select top 10 objID, ra, dec, modelMag_r from Galaxy order by modelMag_r, objID",
    "select count(*) as n from SpecObj where z > 0.1",
    "select top 10 objID, ra, dec, modelMag_r from Star order by modelMag_r, objID",
    "select specClass, count(*) as n from SpecObj group by specClass order by specClass",
    "select top 25 specObjID, z, zConf from SpecObj where specClass = 3 order by z desc, specObjID",
    "select count(*) as n from Galaxy where modelMag_r < 17",
    "select top 20 plateID, ra, dec, nFibers from Plate order by plateID",
    "select top 50 objID, modelMag_g - modelMag_r as gr from Galaxy where modelMag_r < 16 order by objID",
];

/// Pinned searches: the first counts exactly the region the writes insert
/// into, so a write leaking into `dr1` changes its body.
const PINNED_SEARCHES: [&str; 2] = [
    "select count(*) as n from PhotoObj where dec > 50 as of dr1",
    "select top 40 objID, ra, dec from PhotoObj order by objID as of dr1",
];

/// Each client draws from its own stream of the seed.
fn client_rng(seed: u64, client: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_add(client.wrapping_mul(0x9e37_79b9)))
}

/// The popular pages in groups, each with its operations per hundred and a
/// Zipf draw inside it.
pub struct HotPages {
    groups: Vec<(usize, Vec<Op>, Zipf)>,
}

impl HotPages {
    fn new(universe: Vec<(usize, Vec<Op>)>) -> HotPages {
        let groups = universe
            .into_iter()
            .map(|(per_hundred, ops)| {
                let zipf = Zipf::new(ops.len());
                (per_hundred, ops, zipf)
            })
            .collect();
        HotPages { groups }
    }

    /// `interactive_hot`: blocks of a hundred operations, each holding
    /// every group's exact share in seeded order.  Which page of a group
    /// is asked for is a Zipf draw; how many of each group fall into any
    /// stretch of the deck is not left to chance, because the groups
    /// differ a thousandfold in cost and a run plays only a few thousand
    /// operations.
    pub fn deck(&self, seed: u64, client: u64, len: usize) -> Vec<Op> {
        let mut rng = client_rng(seed, client);
        let mut deck = Vec::with_capacity(len + 100);
        while deck.len() < len {
            let mut block: Vec<Op> = Vec::with_capacity(100);
            for (per_hundred, ops, zipf) in &self.groups {
                block.extend((0..*per_hundred).map(|_| ops[zipf.sample(&mut rng)].clone()));
            }
            shuffle(&mut block, &mut rng);
            deck.extend(block);
        }
        deck.truncate(len);
        deck
    }
}

/// One statement shape of the analytic deck.
pub struct Template {
    pub id: &'static str,
    /// The SQL, with `{j}` where a seeded constant goes.
    pub sql: String,
    /// The jitter's base and span: the constant is `base + span * u`.
    jitter: Option<(f64, f64)>,
    pub invariants: Vec<skyserver_queries::Invariant>,
}

impl Template {
    /// The statement with its constant at fraction `u` of the jitter span.
    pub fn instantiate(&self, u: f64) -> String {
        match self.jitter {
            Some((base, span)) => {
                let j = ((base + span * u) * 100.0).round() / 100.0;
                self.sql.replace("{j}", &j.to_string())
            }
            None => self.sql.clone(),
        }
    }
}

/// The 21 data-mining queries of the paper (Q1–Q20, Q15 in both variants)
/// plus seven operator shapes: 28 templates per pass.
pub fn analytic_templates() -> Vec<Template> {
    let mut templates: Vec<Template> = skyserver_queries::twenty_queries()
        .into_iter()
        .map(|q| Template {
            id: q.id,
            // The trusted read path refuses SELECT ... INTO; the rows are
            // what is measured, not the temp table.
            sql: q.sql.replace("into ##results", ""),
            jitter: None,
            invariants: q.invariants,
        })
        .collect();
    let shape = |id, sql: &str, jitter| Template {
        id,
        sql: sql.to_string(),
        jitter,
        invariants: vec![skyserver_queries::Invariant::NonEmpty],
    };
    templates.extend([
        shape("count_star", "select count(*) from PhotoObj", None),
        shape(
            "group_by_type",
            "select type, count(*) as n, avg(modelMag_r) as m from PhotoObj \
             where modelMag_r < {j} group by type",
            Some((26.0, 2.0)),
        ),
        shape(
            "spec_hash_join",
            "select count(*) from SpecObj S join PhotoObj P on S.objID = P.objID \
             where P.modelMag_r < {j}",
            Some((19.5, 1.0)),
        ),
        shape(
            "distinct_run_camcol",
            "select distinct run, camcol from PhotoObj",
            None,
        ),
        shape(
            "sort_top1000",
            "select top 1000 objID, modelMag_r from PhotoObj where modelMag_r > {j} \
             order by modelMag_r",
            Some((14.0, 1.0)),
        ),
        shape(
            "neighbors_join",
            "select count(*) from Neighbors N join PhotoObj P on N.objID = P.objID \
             where P.type = 3",
            None,
        ),
        shape(
            "ra_range_count",
            "select count(*) from PhotoObj where ra between {j} and {j} + 1",
            Some((180.5, 1.0)),
        ),
    ]);
    templates
}

/// How many jittered passes the analytic deck holds before it repeats.
pub const ANALYTIC_PASSES: usize = 2;

/// `analytic_sql`: [`ANALYTIC_PASSES`] passes over the templates, each with
/// its own seeded constants.
pub fn analytic_deck(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let templates = analytic_templates();
    let mut deck = Vec::with_capacity(ANALYTIC_PASSES * templates.len());
    for _ in 0..ANALYTIC_PASSES {
        for (i, t) in templates.iter().enumerate() {
            deck.push(Op {
                kind: Kind::Sql { template: i },
                target: t.instantiate(rng.unit()),
                status: 200,
                check: Check::Status,
                release: None,
            });
        }
    }
    deck
}

/// The digest of a deck: every request and the check its response must
/// pass.  Two runs of one seed must print the same value.
pub fn deck_digest(decks: &[Vec<Op>]) -> u64 {
    let mut hash = fnv1a(b"skybench");
    for op in decks.iter().flatten() {
        hash = fnv1a_extend(hash, format!("{op:?}\n").as_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver::SkyServerBuilder;

    fn tiny() -> (SkyServer, Facts) {
        let sky = SkyServerBuilder::new().tiny().build().unwrap();
        let facts = Facts::gather(&sky);
        (sky, facts)
    }

    #[test]
    fn a_seed_reproduces_its_deck_and_two_seeds_differ() {
        let (sky, facts) = tiny();
        let b = DeckBuilder::new(&sky, &facts);
        let render = |seed| {
            let hot = b.hot_pages(seed);
            let decks = vec![
                hot.deck(seed, 0, 60),
                b.adhoc_deck(seed, 60),
                b.mixed_deck(&hot, seed, 1, 60),
                analytic_deck(seed),
            ];
            (format!("{decks:?}"), deck_digest(&decks))
        };
        let (text_a, digest_a) = render(7);
        let (text_b, digest_b) = render(7);
        let (text_c, digest_c) = render(8);
        assert_eq!(text_a, text_b, "one seed, one deck, byte for byte");
        assert_eq!(digest_a, digest_b);
        assert_ne!(text_a, text_c);
        assert_ne!(digest_a, digest_c);
    }

    #[test]
    fn every_tenth_operation_of_the_mixed_deck_is_a_write() {
        let (sky, facts) = tiny();
        let b = DeckBuilder::new(&sky, &facts);
        let deck = b.mixed_deck(&b.hot_pages(3), 3, 0, 120);
        assert_eq!(deck.len(), 120);
        for (i, op) in deck.iter().enumerate() {
            assert_eq!(
                op.kind == Kind::Write,
                (i + 1) % WRITE_EVERY == 0,
                "operation {i}"
            );
        }
        // Head cursor walks cannot survive a write, so none is dealt.
        assert!(deck.iter().all(|op| match &op.kind {
            Kind::Query { page, .. } if *page > 1 => op.release == Some(PINNED),
            _ => true,
        }));
    }

    #[test]
    fn hot_deck_fits_the_result_cache_and_adhoc_does_not_repeat() {
        let (sky, facts) = tiny();
        let b = DeckBuilder::new(&sky, &facts);
        let distinct = |deck: &[Op]| {
            let mut targets: Vec<&str> = deck.iter().map(|op| op.target.as_str()).collect();
            targets.sort_unstable();
            targets.dedup();
            targets.len()
        };
        let hot = b.hot_pages(11).deck(11, 0, 2000);
        assert!(distinct(&hot) < 128, "{} distinct hot keys", distinct(&hot));
        let adhoc = b.adhoc_deck(11, 400);
        // Walk pages share a target; everything else is distinct but for
        // the one parameterless error probe.
        assert!(distinct(&adhoc) > 330, "{} distinct", distinct(&adhoc));
    }

    #[test]
    fn analytic_deck_names_every_template_once_per_pass() {
        let templates = analytic_templates();
        assert_eq!(templates.len(), 28);
        let deck = analytic_deck(5);
        assert_eq!(deck.len(), ANALYTIC_PASSES * templates.len());
        assert!(deck.iter().all(|op| !op.target.contains("{j}")));
        assert!(deck.iter().all(|op| !op.target.contains("##results")));
        assert_ne!(deck[21 + 1].target, deck[28 + 21 + 1].target, "jitter");
    }

    #[test]
    fn checks_and_encoding() {
        assert!(Check::Count("ab", 2).passes("ab ab"));
        assert!(!Check::Count("ab", 2).passes("ab"));
        assert!(Check::Body(fnv1a(b"x")).passes("x"));
        assert!(!Check::Contains("y".into()).passes("x"));
        assert_eq!(url_encode("a b<=1"), "a+b%3C%3D1");
        let z = Zipf::new(4);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3], "{counts:?}");
    }
}
