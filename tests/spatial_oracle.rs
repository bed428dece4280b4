//! The spatial functions against a brute-force oracle on the Tiny catalog.
//!
//! The oracle shares no spatial code with the engine: it reads every
//! object's position with a plain `select` and keeps those within the
//! radius by [`angular_distance_arcmin`] (or inside the rectangle by
//! comparing coordinates), with no HTM cover and no index.  Cones are
//! compared as multisets of `(objID, type, distance)`, and the engine's
//! distances must not decrease.

use skyserver::htm::{angular_distance_arcmin, lookup_id, SDSS_DEPTH};
use skyserver::storage::IndexKey;
use skyserver::{SkyServer, SkyServerBuilder, Value};

/// One catalog object as the oracle sees it.
#[derive(Clone, Copy)]
struct Object {
    id: i64,
    ra: f64,
    dec: f64,
    kind: i64,
}

/// A cone as a sorted multiset: `(objID, type, distance bits)`.
type Cone = Vec<(i64, i64, u64)>;

fn tiny() -> SkyServer {
    SkyServerBuilder::new().tiny().build().unwrap()
}

fn objects(sky: &SkyServer, sql: &str) -> Vec<Object> {
    let rs = sky.query(sql).unwrap();
    let num = |row: &[Value], i: usize| row[i].as_f64().unwrap();
    rs.rows
        .iter()
        .map(|row| Object {
            id: row[0].as_i64().unwrap(),
            ra: num(row, 1),
            dec: num(row, 2),
            kind: row.get(3).and_then(Value::as_i64).unwrap_or(0),
        })
        .collect()
}

fn catalog(sky: &SkyServer) -> Vec<Object> {
    objects(sky, "select objID, ra, dec, type from PhotoObj")
}

/// The objects within `radius` arcminutes of `(ra, dec)`.
fn oracle_cone(all: &[Object], (ra, dec): (f64, f64), radius: f64) -> Cone {
    let mut cone: Cone = all
        .iter()
        .map(|o| (o, angular_distance_arcmin(ra, dec, o.ra, o.dec)))
        .filter(|(_, d)| *d <= radius)
        .map(|(o, d)| (o.id, o.kind, d.to_bits()))
        .collect();
    cone.sort_unstable();
    cone
}

/// The engine's cone, checked for non-decreasing distances, as a multiset.
fn engine_cone(sky: &SkyServer, (ra, dec): (f64, f64), radius: f64, release: Option<&str>) -> Cone {
    let sql = format!("select objID, type, distance from fGetNearbyObjEq({ra}, {dec}, {radius})");
    let rs = sky.query_on(&sql, release).unwrap();
    let d: Vec<f64> = rs.rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
    assert!(
        d.windows(2).all(|w| w[0] <= w[1]),
        "{sql}: distances decrease"
    );
    let mut cone: Cone = (rs.rows.iter())
        .map(|r| {
            (
                r[0].as_i64().unwrap(),
                r[1].as_i64().unwrap(),
                d_bits(&r[2]),
            )
        })
        .collect();
    cone.sort_unstable();
    cone
}

fn d_bits(v: &Value) -> u64 {
    v.as_f64().unwrap().to_bits()
}

/// The catalog's bounding box: `(ra_min, ra_max, dec_min, dec_max)`.
fn footprint(all: &[Object]) -> (f64, f64, f64, f64) {
    let fold = |f: fn(&Object) -> f64| {
        all.iter()
            .map(f)
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)))
    };
    let ((ra_min, ra_max), (dec_min, dec_max)) = (fold(|o| o.ra), fold(|o| o.dec));
    (ra_min, ra_max, dec_min, dec_max)
}

/// Centres inside the footprint, on its edge and outside it.
fn centres(all: &[Object]) -> Vec<(f64, f64)> {
    let (ra_min, ra_max, dec_min, dec_max) = footprint(all);
    let (ra_mid, dec_mid) = ((ra_min + ra_max) / 2.0, (dec_min + dec_max) / 2.0);
    vec![
        (ra_mid, dec_mid),
        (ra_mid - 0.31, dec_mid + 0.17),
        (ra_min, dec_mid),
        (ra_mid, dec_max),
        (ra_max + 0.2, dec_min - 0.1),
        (ra_min - 2.0, dec_mid),
    ]
}

const RADII: [f64; 4] = [0.5, 2.0, 15.0, 30.0];

#[test]
fn cones_match_the_brute_force_oracle() {
    let sky = tiny();
    let all = catalog(&sky);
    let mut nonempty = 0;
    for centre in centres(&all) {
        for radius in RADII {
            let want = oracle_cone(&all, centre, radius);
            nonempty += usize::from(!want.is_empty());
            assert_eq!(
                engine_cone(&sky, centre, radius, None),
                want,
                "cone {centre:?} radius {radius}"
            );
        }
    }
    assert!(nonempty >= 10, "the cones must find objects");
}

#[test]
fn the_nearest_object_is_the_oracles_nearest() {
    let sky = tiny();
    let all = catalog(&sky);
    for centre in centres(&all) {
        for radius in RADII {
            let (ra, dec) = centre;
            let sql =
                format!("select objID, distance from fGetNearestObjEq({ra}, {dec}, {radius})");
            let rs = sky.query(&sql).unwrap();
            let want = oracle_cone(&all, centre, radius);
            let nearest = want
                .iter()
                .map(|c| c.2)
                .min_by(|a, b| f64::from_bits(*a).total_cmp(&f64::from_bits(*b)));
            match nearest {
                None => assert!(rs.is_empty(), "{sql}"),
                Some(d) => {
                    assert_eq!(rs.len(), 1, "{sql}");
                    assert_eq!(d_bits(&rs.rows[0][1]), d, "{sql}");
                    let id = rs.rows[0][0].as_i64().unwrap();
                    assert!(want.iter().any(|c| c.0 == id && c.2 == d), "{sql}");
                }
            }
        }
    }
}

#[test]
fn a_rectangle_straddling_the_edge_matches_the_oracle() {
    let sky = tiny();
    let all = catalog(&sky);
    let (ra_min, ra_max, dec_min, dec_max) = footprint(&all);
    let dec_mid = (dec_min + dec_max) / 2.0;
    for (r0, r1, d0, d1) in [
        (ra_min - 0.13, ra_min + 0.21, dec_mid - 0.17, dec_mid + 0.09),
        (ra_max - 0.3, ra_max + 0.3, dec_max - 0.2, dec_max + 0.2),
    ] {
        let sql =
            format!("select objID, ra, dec, type from fGetObjFromRectEq({r0}, {r1}, {d0}, {d1})");
        let mut got: Vec<i64> = objects(&sky, &sql).iter().map(|o| o.id).collect();
        let mut want: Vec<i64> = (all.iter())
            .filter(|o| (r0..=r1).contains(&o.ra) && (d0..=d1).contains(&o.dec))
            .map(|o| o.id)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(got, want, "{sql}");
    }
}

#[test]
fn the_query1_join_matches_the_oracle() {
    let sky = tiny();
    let galaxies = objects(&sky, "select objID, ra, dec from Galaxy");
    let (ra_min, ra_max, dec_min, dec_max) = footprint(&galaxies);
    let centre = ((ra_min + ra_max) / 2.0, (dec_min + dec_max) / 2.0);
    for radius in [2.0, 15.0] {
        let (ra, dec) = centre;
        let sql = format!(
            "select G.objID, GN.distance from Galaxy as G \
             join fGetNearbyObjEq({ra}, {dec}, {radius}) as GN on G.objID = GN.objID \
             order by distance"
        );
        let rs = sky.query(&sql).unwrap();
        let d: Vec<f64> = rs.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{sql}");
        let mut got: Vec<(i64, u64)> = (rs.rows.iter())
            .map(|r| (r[0].as_i64().unwrap(), d_bits(&r[1])))
            .collect();
        got.sort_unstable();
        let want: Vec<(i64, u64)> = (oracle_cone(&galaxies, centre, radius).into_iter())
            .map(|(id, _, d)| (id, d))
            .collect();
        assert!(radius < 15.0 || !want.is_empty(), "{sql}");
        assert_eq!(got, want, "{sql}");
    }
}

#[test]
fn head_writes_move_the_cone_and_a_pinned_release_keeps_the_old_one() {
    let mut sky = tiny();
    let before = catalog(&sky);
    let (ra_min, ra_max, dec_min, dec_max) = footprint(&before);
    let centre = ((ra_min + ra_max) / 2.0, (dec_min + dec_max) / 2.0);
    let radius = 15.0;
    let old = oracle_cone(&before, centre, radius);
    assert!(old.len() > 2);
    // Delete the nearest object, and move one from outside the cone to
    // its centre (its htmID changes with it).
    let nearest = sky
        .query(&format!(
            "select objID from fGetNearestObjEq({}, {}, {radius})",
            centre.0, centre.1
        ))
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap();
    let outside = (before.iter())
        .find(|o| angular_distance_arcmin(centre.0, centre.1, o.ra, o.dec) > 3.0 * radius)
        .unwrap()
        .id;
    let (ra, dec) = (centre.0 + 0.01, centre.1 - 0.02);
    let htm = lookup_id(ra, dec, SDSS_DEPTH) as i64;
    sky.execute(&format!("delete from PhotoObj where objID = {nearest}"))
        .unwrap();
    sky.execute(&format!(
        "update PhotoObj set ra = {ra}, dec = {dec}, htmID = {htm} where objID = {outside}"
    ))
    .unwrap();
    let after = catalog(&sky);
    let new = oracle_cone(&after, centre, radius);
    assert!(!new.iter().any(|c| c.0 == nearest));
    assert!(new.iter().any(|c| c.0 == outside));
    assert_eq!(engine_cone(&sky, centre, radius, None), new);
    // dr1 still answers the positions it was published with, by either
    // way of pinning it.
    assert_eq!(engine_cone(&sky, centre, radius, Some("dr1")), old);
    let sql = format!(
        "select objID, type, distance from fGetNearbyObjEq({}, {}, {radius}) as of dr1",
        centre.0, centre.1
    );
    assert_eq!(sky.query(&sql).unwrap().len(), old.len());
}

#[test]
fn an_entry_whose_heap_row_is_gone_is_no_answer() {
    // Delete a heap row behind the indexes' back: its htmID entry stays,
    // and the cone must still not answer it.
    let mut sky = tiny();
    let all = catalog(&sky);
    let (ra_min, ra_max, dec_min, dec_max) = footprint(&all);
    let centre = ((ra_min + ra_max) / 2.0, (dec_min + dec_max) / 2.0);
    let cone = oracle_cone(&all, centre, 15.0);
    let victim = cone[cone.len() / 2].0;
    let db = sky.engine_mut().db_mut();
    let pk = db.index("PhotoObj", "pk_PhotoObj").unwrap();
    let row_id = pk
        .seek_exact(&IndexKey(vec![Value::Int(victim)]))
        .next()
        .unwrap()
        .row_id();
    assert!(db.table_mut("PhotoObj").unwrap().delete(row_id));
    let (ra, dec) = centre;
    let rs = sky
        .query(&format!(
            "select objID, distance from fGetNearbyObjEq({ra}, {dec}, 15)"
        ))
        .unwrap();
    assert_eq!(rs.len(), cone.len() - 1);
    assert!(!rs.rows.iter().any(|r| r[0] == Value::Int(victim)));
}

#[test]
fn bad_arguments_raise_the_functions_errors() {
    let sky = tiny();
    for (sql, message) in [
        (
            "select objID from fGetNearbyObjEq(181, -0.8, 0)",
            "fGetNearbyObjEq: radius must be positive arcminutes",
        ),
        (
            "select objID from fGetNearestObjEq(181, -0.8, -2)",
            "fGetNearbyObjEq: radius must be positive arcminutes",
        ),
        (
            "select objID from fGetObjFromRectEq(181, 181, -1, 0)",
            "fGetObjFromRectEq: empty rectangle",
        ),
        (
            "select objID from fGetObjFromRectEq(181, 182, 0, -1)",
            "fGetObjFromRectEq: empty rectangle",
        ),
    ] {
        let err = sky.query(sql).unwrap_err().to_string();
        assert!(err.contains(message), "{sql}: {err}");
    }
}

#[test]
fn the_estimate_is_within_a_factor_two_inside_the_footprint() {
    let sky = tiny();
    let all = catalog(&sky);
    let (ra_min, ra_max, dec_min, dec_max) = footprint(&all);
    let (ra_mid, dec_mid) = ((ra_min + ra_max) / 2.0, (dec_min + dec_max) / 2.0);
    for centre in [
        (ra_mid, dec_mid),
        (ra_mid - 0.4, dec_mid + 0.1),
        (ra_mid + 0.5, dec_mid - 0.1),
    ] {
        for radius in [2.0, 5.0, 15.0, 30.0] {
            let (ra, dec) = centre;
            let sql = format!("select objID from fGetNearbyObjEq({ra}, {dec}, {radius})");
            let est = sky.plan_summary(&sql).unwrap().est_rows.unwrap() as f64;
            let actual = oracle_cone(&all, centre, radius).len() as f64;
            let q = (est.max(1.0) / actual.max(1.0)).max(actual.max(1.0) / est.max(1.0));
            assert!(q <= 2.0, "{sql}: estimated {est}, found {actual}");
        }
    }
}
