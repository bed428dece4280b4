//! The `/api/v1` conformance suite: golden tests for status codes, the
//! error-envelope shape and codes, cursor pagination (a walk covers the
//! full result exactly once), content negotiation, legacy-route ≡
//! API-route equivalence, and the self-description contract (the spec is
//! generated from the live route table, and `docs/API.md` must match it).

use skyserver::SkyServerBuilder;
use skyserver_web::jobs::JobQueueConfig;
use skyserver_web::{parse_request, OutputFormat, Response, SkyServerSite, ERROR_CODES};
use std::sync::Arc;

fn site() -> Arc<SkyServerSite> {
    let sky = SkyServerBuilder::new().tiny().build().unwrap();
    SkyServerSite::new(sky)
}

fn request(
    site: &SkyServerSite,
    method: &str,
    path_and_query: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> Response {
    let head = match content_type {
        Some(ct) => format!("{method} {path_and_query} HTTP/1.1\r\nContent-Type: {ct}\r\n"),
        None => format!("{method} {path_and_query} HTTP/1.1\r\n"),
    };
    site.handle(&parse_request(&head).unwrap().with_body(body.to_vec()))
}

fn get(site: &SkyServerSite, path_and_query: &str) -> Response {
    request(site, "GET", path_and_query, None, &[])
}

fn json(r: &Response) -> serde_json::Value {
    serde_json::from_slice(&r.body).unwrap_or_else(|e| {
        panic!(
            "body is not JSON ({e}): {}",
            String::from_utf8_lossy(&r.body)
        )
    })
}

/// The error envelope's code, asserting the envelope shape on the way.
fn error_code(r: &Response) -> String {
    let v = json(r);
    let error = v
        .get("error")
        .unwrap_or_else(|| panic!("no error envelope in {v}"));
    assert!(error.get("message").and_then(|m| m.as_str()).is_some());
    assert!(error.get("detail").is_some(), "envelope carries detail");
    error["code"].as_str().expect("error.code").to_string()
}

// ---------------------------------------------------------------------------
// Self-description.
// ---------------------------------------------------------------------------

#[test]
fn spec_is_generated_from_the_live_route_table() {
    let site = site();
    let r = get(&site, "/api/v1");
    assert_eq!(r.status, 200);
    assert!(r.content_type.contains("json"));
    let spec = json(&r);
    assert_eq!(spec["version"], serde_json::json!("v1"));
    let endpoints = spec["endpoints"].as_array().unwrap();
    assert!(endpoints.len() >= 10, "thin spec: {}", endpoints.len());

    // Every documented endpoint actually dispatches: substituting path
    // captures must never reach `unknown_endpoint` or a 405.
    for endpoint in endpoints {
        let method = endpoint["method"].as_str().unwrap();
        let path = endpoint["path"].as_str().unwrap().replace("{id}", "1");
        let r = request(&site, method, &path, None, &[]);
        if r.status == 404 {
            assert_ne!(
                error_code(&r),
                "unknown_endpoint",
                "{method} {path} is in the spec but does not dispatch"
            );
        }
        assert_ne!(r.status, 405, "{method} {path} is in the spec but 405s");
        // Declared params all carry a type, a location and a description.
        for p in endpoint["params"].as_array().unwrap() {
            assert!(p["name"].as_str().is_some());
            assert!(matches!(p["in"].as_str(), Some("path" | "query" | "body")));
            assert!(!p["type"].as_str().unwrap().is_empty());
            assert!(!p["description"].as_str().unwrap().is_empty());
        }
    }

    // The published error-code taxonomy rides along, in full.
    let codes = spec["error_codes"].as_array().unwrap();
    assert_eq!(codes.len(), ERROR_CODES.len());
    for (code, status, _) in ERROR_CODES {
        assert!(
            codes.iter().any(|c| c["code"] == serde_json::json!(code)
                && c["status"] == serde_json::json!(status)),
            "spec is missing error code {code}"
        );
    }

    // Unknown endpoints and wrong methods use the structured envelope.
    let r = get(&site, "/api/v1/nope");
    assert_eq!(r.status, 404);
    assert_eq!(error_code(&r), "unknown_endpoint");
    let r = request(&site, "PUT", "/api/v1/query", None, &[]);
    assert_eq!(r.status, 405);
    assert_eq!(error_code(&r), "method_not_allowed");
    let allowed = json(&r)["error"]["detail"]["allowed"].clone();
    assert_eq!(allowed, serde_json::json!(["GET", "POST"]));
}

#[test]
fn documented_routes_match_the_live_spec() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/API.md"))
        .expect("docs/API.md exists");

    // Every "### `METHOD /path`" heading, as (method, path).
    let mut documented: Vec<(String, String)> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("### `")?.strip_suffix('`'))
        .filter_map(|entry| {
            let (method, path) = entry.split_once(' ')?;
            Some((method.to_string(), path.to_string()))
        })
        .collect();
    documented.sort();
    documented.dedup();

    let site = site();
    let spec = json(&get(&site, "/api/v1"));
    let mut live: Vec<(String, String)> = spec["endpoints"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| {
            (
                e["method"].as_str().unwrap().to_string(),
                e["path"].as_str().unwrap().to_string(),
            )
        })
        .collect();
    live.sort();
    live.dedup();
    assert_eq!(
        documented, live,
        "docs/API.md endpoint headings and the live GET /api/v1 spec disagree"
    );

    // The documented error-code table carries the full taxonomy with the
    // registered statuses.
    for (code, status, _) in ERROR_CODES {
        assert!(
            doc.contains(&format!("| `{code}` | {status} |")),
            "docs/API.md error-code table is missing `{code}` ({status})"
        );
    }
}

// ---------------------------------------------------------------------------
// The sync query endpoint: envelope, error codes, negotiation.
// ---------------------------------------------------------------------------

#[test]
fn query_status_codes_and_error_envelopes() {
    let site = site();
    // Success: the JSON envelope with pagination metadata.
    let r = get(&site, "/api/v1/query?sql=select+top+5+objID+from+PhotoObj");
    assert_eq!(r.status, 200);
    let v = json(&r);
    assert_eq!(v["columns"], serde_json::json!(["objID"]));
    assert_eq!(v["rows"].as_array().unwrap().len(), 5);
    assert_eq!(v["meta"]["returned"], serde_json::json!(5));
    assert_eq!(v["meta"]["total_rows"], serde_json::json!(5));
    assert_eq!(v["meta"]["truncated"], serde_json::json!(false));
    assert!(v["meta"]["next_cursor"].is_null());

    // Engine row-budget truncation is reported in the metadata.
    let r = get(
        &site,
        "/api/v1/query?sql=select+objID+from+PhotoObj&limit=1000",
    );
    let v = json(&r);
    assert_eq!(v["meta"]["total_rows"], serde_json::json!(1000));
    assert_eq!(v["meta"]["truncated"], serde_json::json!(true));

    // Missing SQL: 400 missing_parameter.
    let r = get(&site, "/api/v1/query");
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "missing_parameter");

    // Malformed SQL: 422 sql_parse_error.
    let r = get(&site, "/api/v1/query?sql=selec+nonsense");
    assert_eq!(r.status, 422);
    assert_eq!(error_code(&r), "sql_parse_error");

    // Unknown tables: 422 sql_plan_error.
    let r = get(&site, "/api/v1/query?sql=select+x+from+NoSuchTable");
    assert_eq!(r.status, 422);
    assert_eq!(error_code(&r), "sql_plan_error");

    // Unknown columns and functions are plan errors even when no row qualifies.
    let unknown = [
        ("noSuchColumn", "sql_plan_error"),
        ("dbo.fMissing(1)", "sql_unknown_function"),
    ];
    for (select, code) in unknown {
        let sql = format!("select+{select}+from+PhotoObj+where+1+=+0");
        let r = get(&site, &format!("/api/v1/query?sql={sql}"));
        assert_eq!((r.status, error_code(&r).as_str()), (422, code), "{sql}");
    }

    // Writes: 403 read_only (and the table survives).
    let r = get(&site, "/api/v1/query?sql=drop+table+PhotoObj");
    assert_eq!(r.status, 403);
    assert_eq!(error_code(&r), "read_only");
    let r = get(&site, "/api/v1/query?sql=select+count(*)+from+PhotoObj");
    assert_eq!(r.status, 200);

    // Bad limit values: 400 invalid_parameter.
    for bad in ["0", "1001", "abc"] {
        let r = get(&site, &format!("/api/v1/query?sql=select+1&limit={bad}"));
        assert_eq!(r.status, 400, "limit={bad}");
        assert_eq!(error_code(&r), "invalid_parameter");
    }
}

#[test]
fn content_negotiation_on_the_api_surface() {
    let site = site();
    let sql = "select+top+3+objID,ra+from+PhotoObj";

    // ?format= wins and unknown names are a structured 400 listing the
    // supported formats (no silent grid/CSV fallback on /api/v1).
    let r = get(&site, &format!("/api/v1/query?sql={sql}&format=csv"));
    assert_eq!(r.status, 200);
    assert!(r.content_type.contains("csv"));
    assert_eq!(String::from_utf8_lossy(&r.body).lines().count(), 4);
    let r = get(&site, &format!("/api/v1/query?sql={sql}&format=exe"));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "unsupported_format");
    let supported = json(&r)["error"]["detail"]["supported"].clone();
    let names: Vec<&'static str> = OutputFormat::ALL.iter().map(|f| f.name()).collect();
    assert_eq!(supported, serde_json::to_value(&names));

    // The Accept header negotiates when no ?format= is given; an
    // unservable Accept is 406.
    let head = format!("GET /api/v1/query?sql={sql} HTTP/1.1\r\nAccept: text/csv\r\n");
    let r = site.handle(&parse_request(&head).unwrap());
    assert_eq!(r.status, 200);
    assert!(r.content_type.contains("csv"));
    let head = format!("GET /api/v1/query?sql={sql} HTTP/1.1\r\nAccept: image/png\r\n");
    let r = site.handle(&parse_request(&head).unwrap());
    assert_eq!(r.status, 406);
    assert_eq!(error_code(&r), "not_acceptable");

    // Document endpoints are JSON-only.
    let r = get(&site, "/api/v1/schema?format=csv");
    assert_eq!(r.status, 406);
    assert_eq!(error_code(&r), "not_acceptable");
    // XML pages carry the pagination metadata in headers.
    let r = get(
        &site,
        &format!("/api/v1/query?sql={sql}&format=xml&limit=2"),
    );
    assert_eq!(r.status, 200);
    assert!(r.content_type.contains("xml"));
    assert_eq!(r.header("X-Total-Rows"), Some("3"));
    assert!(r.header("X-Next-Cursor").is_some());
}

#[test]
fn post_query_accepts_form_and_raw_bodies() {
    let site = site();
    // Form-encoded.
    let r = request(
        &site,
        "POST",
        "/api/v1/query",
        Some("application/x-www-form-urlencoded"),
        b"sql=select+top+4+objID+from+PhotoObj",
    );
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(json(&r)["rows"].as_array().unwrap().len(), 4);
    // Raw SQL body.
    let r = request(
        &site,
        "POST",
        "/api/v1/query",
        Some("text/plain"),
        b"select top 2 objID from PhotoObj",
    );
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(json(&r)["rows"].as_array().unwrap().len(), 2);
    // And over a real socket, body included.
    let server = site.serve(0).unwrap();
    let (status, body) = skyserver_web::http_request(
        server.addr(),
        "POST",
        "/api/v1/query",
        Some("text/plain"),
        b"select count(*) as n from Plate",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["columns"], serde_json::json!(["n"]));
    server.stop();
}

// ---------------------------------------------------------------------------
// Pagination.
// ---------------------------------------------------------------------------

#[test]
fn cursor_walk_covers_the_full_result_exactly_once() {
    let site = site();
    let sql = "select+top+37+objID+from+PhotoObj+order+by+objID";
    let full = json(&get(&site, &format!("/api/v1/query?sql={sql}&limit=1000")));
    let expected: Vec<i64> = full["rows"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(expected.len(), 37);

    let mut walked: Vec<i64> = Vec::new();
    let mut cursor: Option<String> = None;
    let mut pages = 0;
    loop {
        let url = match &cursor {
            None => format!("/api/v1/query?sql={sql}&limit=10"),
            Some(c) => format!("/api/v1/query?sql={sql}&limit=10&cursor={c}"),
        };
        let v = json(&get(&site, &url));
        let rows = v["rows"].as_array().unwrap();
        walked.extend(rows.iter().map(|r| r[0].as_i64().unwrap()));
        pages += 1;
        assert_eq!(v["meta"]["total_rows"], serde_json::json!(37));
        assert!(pages <= 10, "runaway cursor walk");
        match v["meta"]["next_cursor"].as_str() {
            Some(next) => cursor = Some(next.to_string()),
            None => break,
        }
    }
    assert_eq!(pages, 4, "37 rows at limit 10");
    assert_eq!(
        walked, expected,
        "the walk must cover every row exactly once"
    );

    // Pages after the first read the materialized-rows cache instead of
    // re-running the scan (the QA page surfaces the counters).
    let qa = json(&get(&site, "/skyserverqa/metadata"));
    assert!(
        qa["row_cache"]["hits"].as_u64().unwrap() >= (pages - 1) as u64,
        "cursor walk re-executed the query per page: {}",
        qa["row_cache"]
    );

    // A cursor replayed against different SQL is rejected, not misapplied.
    let token = cursor_for(&site, sql);
    let r = get(
        &site,
        &format!("/api/v1/query?sql=select+top+37+ra+from+PhotoObj&cursor={token}"),
    );
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "invalid_cursor");
    // Garbage cursors are a clean 400.
    let r = get(&site, &format!("/api/v1/query?sql={sql}&cursor=zzzz"));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "invalid_cursor");
    // Whitespace-normalised SQL shares the cursor key (same normalizer as
    // the result cache).
    let r = get(
        &site,
        &format!(
            "/api/v1/query?sql=SELECT+top+37+objID+FROM+PhotoObj+ORDER+BY+objID&cursor={token}"
        ),
    );
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
}

fn cursor_for(site: &SkyServerSite, sql: &str) -> String {
    let v = json(&get(site, &format!("/api/v1/query?sql={sql}&limit=10")));
    v["meta"]["next_cursor"].as_str().unwrap().to_string()
}

// ---------------------------------------------------------------------------
// Objects, cone, schema: golden behaviour + legacy equivalence.
// ---------------------------------------------------------------------------

#[test]
fn objects_endpoint_matches_legacy_explore() {
    let site = site();
    let v = json(&get(
        &site,
        "/api/v1/query?sql=select+top+1+objID+from+PhotoObj",
    ));
    let id = v["rows"][0][0].as_i64().unwrap();

    let api = get(&site, &format!("/api/v1/objects/{id}"));
    assert_eq!(api.status, 200);
    let legacy = get(&site, &format!("/en/tools/explore?id={id}"));
    assert_eq!(legacy.status, 200);
    // One implementation serves both: byte-identical payloads.
    assert_eq!(api.body, legacy.body);
    let summary = json(&api);
    assert_eq!(summary["obj_id"].as_i64().unwrap(), id);
    assert!(summary["attributes"].as_array().unwrap().len() > 50);

    // Typed extraction: a malformed id is 400 invalid_parameter on both
    // surfaces (the legacy page renders it as plain text).
    let r = get(&site, "/api/v1/objects/abc");
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "invalid_parameter");
    assert_eq!(get(&site, "/en/tools/explore?id=abc").status, 400);
    // Unknown objects are 404 with the envelope.
    let r = get(&site, "/api/v1/objects/-5");
    assert_eq!(r.status, 404);
    assert_eq!(error_code(&r), "not_found");
}

#[test]
fn cone_endpoint_matches_legacy_navigator() {
    let site = site();
    // zoom=2 on the navigator is a 15 arcmin radius.
    let legacy = json(&get(&site, "/en/tools/navi?ra=181&dec=-0.8&zoom=2"));
    let legacy_objects = legacy["objects"].as_array().unwrap();
    let api = json(&get(
        &site,
        "/api/v1/cone?ra=181&dec=-0.8&radius=15&limit=1000",
    ));
    let api_rows = api["rows"].as_array().unwrap();
    assert_eq!(api_rows.len(), legacy_objects.len());
    if !api_rows.is_empty() {
        assert_eq!(
            api_rows[0][0].as_i64(),
            legacy_objects[0]["objID"].as_i64(),
            "same nearest object through both surfaces"
        );
    }

    // Typed validation on the API surface.
    for (bad, code) in [
        ("/api/v1/cone?dec=0&radius=5", "missing_parameter"),
        ("/api/v1/cone?ra=400&dec=0&radius=5", "invalid_parameter"),
        ("/api/v1/cone?ra=181&dec=-95&radius=5", "invalid_parameter"),
        ("/api/v1/cone?ra=181&dec=0&radius=0", "invalid_parameter"),
        ("/api/v1/cone?ra=abc&dec=0&radius=5", "invalid_parameter"),
    ] {
        let r = get(&site, bad);
        assert_eq!(r.status, 400, "{bad}");
        assert_eq!(error_code(&r), code, "{bad}");
    }
    // The legacy navigator now 400s on malformed params instead of
    // silently rendering the wrong sky position...
    assert_eq!(get(&site, "/en/tools/navi?ra=abc").status, 400);
    assert_eq!(get(&site, "/en/tools/navi?zoom=9").status, 400);
    assert_eq!(get(&site, "/en/tools/navi?ra=400").status, 400);
    // ...while absent params keep their historical defaults.
    assert_eq!(get(&site, "/en/tools/navi").status, 200);
}

#[test]
fn legacy_sql_page_and_api_query_return_the_same_rows() {
    let site = site();
    let sql = "select+top+7+objID,ra,dec+from+Galaxy+order+by+objID";
    let legacy = json(&get(
        &site,
        &format!("/en/tools/search/x_sql?cmd={sql}&format=json"),
    ));
    let api = json(&get(&site, &format!("/api/v1/query?sql={sql}")));
    assert_eq!(legacy["columns"], api["columns"]);
    assert_eq!(legacy["rows"], api["rows"]);
    // The legacy page keeps its forgiving format fallback; the API does
    // not.
    let r = get(
        &site,
        &format!("/en/tools/search/x_sql?cmd={sql}&format=exe"),
    );
    assert_eq!(r.status, 200, "legacy links must keep working");
    let r = get(&site, &format!("/api/v1/query?sql={sql}&format=exe"));
    assert_eq!(r.status, 400);

    // Schema: the API document is the same description the QA page wraps.
    let api_schema = json(&get(&site, "/api/v1/schema"));
    assert!(api_schema["tables"]
        .as_array()
        .unwrap()
        .iter()
        .any(|t| t["name"] == serde_json::json!("PhotoObj")));
    assert!(
        api_schema.get("result_cache").is_none(),
        "plain schema only"
    );
}

// ---------------------------------------------------------------------------
// Jobs as REST resources.
// ---------------------------------------------------------------------------

#[test]
fn job_rest_lifecycle_and_error_codes() {
    let sky = SkyServerBuilder::new().tiny().build().unwrap();
    let site = SkyServerSite::new_with(
        sky,
        128,
        JobQueueConfig {
            workers: 1,
            max_active_per_submitter: 2,
            ..JobQueueConfig::default()
        },
    );

    // Submit via POST (form body), answered 201 with an href.
    let r = request(
        &site,
        "POST",
        "/api/v1/jobs?submitter=alice",
        Some("application/x-www-form-urlencoded"),
        b"sql=select+top+12+objID,ra+from+PhotoObj+order+by+objID",
    );
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    let v = json(&r);
    let id = v["job_id"].as_u64().unwrap();
    assert_eq!(v["href"], serde_json::json!(format!("/api/v1/jobs/{id}")));

    // Poll the REST status endpoint to completion.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let v = json(&get(&site, &format!("/api/v1/jobs/{id}")));
        if v["state"] == serde_json::json!("done") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job stuck: {v}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The result endpoint pages like /query and renders CSV too.
    let v = json(&get(&site, &format!("/api/v1/jobs/{id}/result?limit=5")));
    assert_eq!(v["meta"]["total_rows"], serde_json::json!(12));
    assert_eq!(v["rows"].as_array().unwrap().len(), 5);
    let cursor = v["meta"]["next_cursor"].as_str().unwrap().to_string();
    let v = json(&get(
        &site,
        &format!("/api/v1/jobs/{id}/result?limit=100&cursor={cursor}"),
    ));
    assert_eq!(v["rows"].as_array().unwrap().len(), 7);
    assert!(v["meta"]["next_cursor"].is_null());
    let r = get(&site, &format!("/api/v1/jobs/{id}/result?format=csv"));
    assert_eq!(r.status, 200);
    assert!(r.content_type.contains("csv"));
    assert_eq!(String::from_utf8_lossy(&r.body).lines().count(), 13);

    // The jobs list filters by submitter.
    let v = json(&get(&site, "/api/v1/jobs?submitter=alice"));
    assert_eq!(v["jobs"].as_array().unwrap().len(), 1);
    assert!(json(&get(&site, "/api/v1/jobs?submitter=bob"))["jobs"]
        .as_array()
        .unwrap()
        .is_empty());

    // A long-running job: result is 409 job_not_ready, then DELETE
    // cancels it and the result becomes 409 job_cancelled.
    let r = request(
        &site,
        "POST",
        "/api/v1/jobs?submitter=alice&sql=select+count(*)+from+PhotoObj+a+join+PhotoObj+b+on+a.objID+%3C+b.objID",
        None,
        &[],
    );
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    let slow = json(&r)["job_id"].as_u64().unwrap();
    let r = get(&site, &format!("/api/v1/jobs/{slow}/result"));
    assert_eq!(r.status, 409);
    assert_eq!(error_code(&r), "job_not_ready");

    // A third active job for alice trips the quota: 429 quota_exceeded.
    let r = request(
        &site,
        "POST",
        "/api/v1/jobs?submitter=alice&sql=select+1",
        None,
        &[],
    );
    // The first (quick) job has finished, so submit one more filler to
    // hold the second slot if needed; state timing makes this either 201
    // (quick job done, slot free) — then the next submit must 429.
    let mut statuses = vec![r.status];
    let r2 = request(
        &site,
        "POST",
        "/api/v1/jobs?submitter=alice&sql=select+count(*)+from+PhotoObj+a+join+PhotoObj+b+on+a.objID+%3C+b.objID",
        None,
        &[],
    );
    statuses.push(r2.status);
    assert!(
        statuses.contains(&429),
        "an over-quota submission must 429, got {statuses:?}"
    );
    let quota = [r, r2].into_iter().find(|r| r.status == 429).unwrap();
    assert_eq!(error_code(&quota), "quota_exceeded");
    // Shedding responses always hint when to come back.
    assert_eq!(
        quota.header("retry-after"),
        Some(skyserver_web::api::RETRY_AFTER_SECONDS),
        "429 quota_exceeded must carry Retry-After"
    );

    // DELETE cancels; the post-cancel state is reported.
    let r = request(&site, "DELETE", &format!("/api/v1/jobs/{slow}"), None, &[]);
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let v = json(&get(&site, &format!("/api/v1/jobs/{slow}")));
        if v["state"] == serde_json::json!("cancelled") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "cancel stuck: {v}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let r = get(&site, &format!("/api/v1/jobs/{slow}/result"));
    assert_eq!(r.status, 409);
    assert_eq!(error_code(&r), "job_cancelled");

    // Unknown ids and malformed ids.
    let r = get(&site, "/api/v1/jobs/99999");
    assert_eq!(r.status, 404);
    assert_eq!(error_code(&r), "not_found");
    let r = get(&site, "/api/v1/jobs/abc");
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "invalid_parameter");
    // Missing SQL on submission.
    let r = request(&site, "POST", "/api/v1/jobs", None, &[]);
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "missing_parameter");
}

#[test]
fn wrong_methods_over_a_real_socket_get_the_envelope() {
    let site = site();
    let server = site.serve(0).unwrap();
    // The transport forwards every method, so an API client sending PUT
    // receives the structured 405 envelope, not transport-level text.
    let (status, body) =
        skyserver_web::http_request(server.addr(), "PUT", "/api/v1/query", None, &[]).unwrap();
    assert_eq!(status, 405, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["code"], serde_json::json!("method_not_allowed"));
    // Legacy pages stay GET-only with a plain-text 405.
    let (status, body) =
        skyserver_web::http_request(server.addr(), "POST", "/en/tools/places", None, &[]).unwrap();
    assert_eq!(status, 405, "{body}");
    assert!(serde_json::from_str::<serde_json::Value>(&body).is_err());
    // A form-body `format` field is honoured like a query parameter.
    let (status, body) = skyserver_web::http_request(
        server.addr(),
        "POST",
        "/api/v1/query",
        Some("application/x-www-form-urlencoded"),
        b"sql=select+top+2+objID+from+PhotoObj&format=csv",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.lines().count(), 3, "CSV header + 2 rows:\n{body}");
    server.stop();
}

// ---------------------------------------------------------------------------
// Traffic attribution.
// ---------------------------------------------------------------------------

#[test]
fn api_traffic_is_classified_and_errors_counted() {
    let site = site();
    get(&site, "/api/v1");
    get(&site, "/api/v1/query?sql=select+1");
    get(&site, "/api/v1/query?sql=selec+broken"); // 422
    get(&site, "/api/v1/nope"); // 404
    get(&site, "/en/tools/places"); // a page view for contrast

    let log = site.request_log();
    assert_eq!(log.len(), 5);
    let api_records: Vec<_> = log
        .iter()
        .filter(|r| r.section == skyserver_web::Section::Api)
        .collect();
    assert_eq!(api_records.len(), 4, "API hits classify as Section::Api");
    assert!(
        api_records.iter().all(|r| !r.page_view),
        "API hits are machine traffic, not page views"
    );
    assert_eq!(
        api_records.iter().filter(|r| r.status != 200).count(),
        2,
        "the 422 and the 404 are recorded distinctly"
    );

    let traffic = json(&get(&site, "/traffic"));
    assert_eq!(traffic["api_hits"], serde_json::json!(4));
    assert_eq!(traffic["api_errors"], serde_json::json!(2));
}

// ---------------------------------------------------------------------------
// Overload & resource-pressure contract.
// ---------------------------------------------------------------------------

/// Shed queries answer `503` with `Retry-After` on both surfaces: the
/// API gets the `overloaded` envelope, the legacy page its plain-text
/// rendering — same status, same hint.
#[test]
fn shed_queries_answer_503_with_retry_after_on_both_surfaces() {
    let sky = SkyServerBuilder::new().tiny().build().unwrap();
    let site = SkyServerSite::new_with_governor(
        sky,
        0,
        JobQueueConfig::default(),
        skyserver_web::GovernorConfig {
            max_in_flight: 0, // shed everything: deterministic overload
            deadline: std::time::Duration::from_secs(30),
        },
    );
    let r = get(&site, "/api/v1/query?sql=select+1");
    assert_eq!(r.status, 503, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(error_code(&r), "overloaded");
    assert_eq!(
        r.header("retry-after"),
        Some(skyserver_web::api::RETRY_AFTER_SECONDS)
    );
    let r = get(&site, "/en/tools/search/x_sql?cmd=select+1");
    assert_eq!(r.status, 503);
    assert_eq!(
        r.header("retry-after"),
        Some(skyserver_web::api::RETRY_AFTER_SECONDS)
    );
    assert_eq!(site.governor().stats().shed, 2);
}

/// The acceptance query of the resource governor: a public cross join of
/// PhotoObj with itself must die on the 64 MiB memory budget with a
/// structured `422 resource_exhausted` (and partial progress stats), not
/// by growing the process until the OS kills it.
#[test]
fn runaway_cross_join_is_resource_exhausted_not_oom() {
    let site = site();
    let r = get(
        &site,
        "/api/v1/query?sql=select+a.*,+b.*+from+photoobj+a,+photoobj+b",
    );
    assert_eq!(r.status, 422, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(error_code(&r), "resource_exhausted");
    let detail = json(&r)["error"]["detail"].clone();
    assert!(
        detail["peak_bytes"].as_u64().unwrap() > 0,
        "exhaustion reports the memory high-water mark: {detail}"
    );
    // The server is fine afterwards.
    let r = get(&site, "/api/v1/query?sql=select+count(*)+from+PhotoObj");
    assert_eq!(r.status, 200);
}
