//! The SkyServer's user-defined functions (§9.1.4).
//!
//! Scalar helpers: `fPhotoFlags`, `fPhotoType`, `fSpecClass`,
//! `fGetUrlExpId`, `fDistanceArcMinEq`.
//!
//! Table-valued spatial functions: `spHTM_CoverCircleEq` (the raw HTM range
//! cover), `fGetNearbyObjEq` (all objects within a radius, with distances),
//! `fGetNearestObjEq` (the closest object), and `fGetObjFromRectEq`
//! (all objects in an ra/dec rectangle).  The last three are *seek forms*
//! ([`SeekForm`]): they use the B-tree on `PhotoObj.htmID` exactly the way
//! the paper describes (§9.1.4).  The cover turns the region into `htmID`
//! ranges, the planner walks those ranges in the index once, and each
//! candidate gets the exact distance (or rectangle) test, its distance
//! computed once.

use skyserver_htm::{angular_distance_arcmin, cover, Convex, Vec3};
use skyserver_skygen::{photo_flag_value, photo_type_value, spec_class_value};
use skyserver_sql::{FunctionRegistry, ResultSet, SeekCover, SeekForm, SqlError};
use skyserver_storage::Value;
use std::sync::Arc;

/// Base URL of the object explorer (the paper's `fGetUrlExpId` returns the
/// drill-down URL of an object).
pub const EXPLORE_URL: &str = "http://skyserver.sdss.org/en/tools/explore/obj.asp?id=";

fn arg_f64(args: &[Value], i: usize, name: &str) -> Result<f64, SqlError> {
    args.get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| SqlError::Execution(format!("{name}: argument {i} must be numeric")))
}

fn arg_str(args: &[Value], i: usize, name: &str) -> Result<String, SqlError> {
    args.get(i)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| SqlError::Execution(format!("{name}: argument {i} must be a string")))
}

/// Register every SkyServer UDF on a function registry.
pub fn register_functions(registry: &mut FunctionRegistry) {
    // ---------------------------------------------------------------- scalar
    registry.register_scalar("dbo.fPhotoFlags", |args| {
        let name = arg_str(args, 0, "fPhotoFlags")?;
        photo_flag_value(&name)
            .map(|v| Value::Int(v as i64))
            .ok_or_else(|| SqlError::Execution(format!("fPhotoFlags: unknown flag {name:?}")))
    });
    registry.register_scalar("dbo.fPhotoType", |args| {
        let name = arg_str(args, 0, "fPhotoType")?;
        photo_type_value(&name)
            .map(Value::Int)
            .ok_or_else(|| SqlError::Execution(format!("fPhotoType: unknown type {name:?}")))
    });
    registry.register_scalar("dbo.fSpecClass", |args| {
        let name = arg_str(args, 0, "fSpecClass")?;
        spec_class_value(&name)
            .map(Value::Int)
            .ok_or_else(|| SqlError::Execution(format!("fSpecClass: unknown class {name:?}")))
    });
    registry.register_scalar("dbo.fGetUrlExpId", |args| {
        let id = args
            .first()
            .and_then(Value::as_i64)
            .ok_or_else(|| SqlError::Execution("fGetUrlExpId: objID must be an integer".into()))?;
        Ok(Value::str(format!("{EXPLORE_URL}{id}")))
    });
    registry.register_scalar("dbo.fDistanceArcMinEq", |args| {
        let ra1 = arg_f64(args, 0, "fDistanceArcMinEq")?;
        let dec1 = arg_f64(args, 1, "fDistanceArcMinEq")?;
        let ra2 = arg_f64(args, 2, "fDistanceArcMinEq")?;
        let dec2 = arg_f64(args, 3, "fDistanceArcMinEq")?;
        Ok(Value::Float(angular_distance_arcmin(ra1, dec1, ra2, dec2)))
    });

    // ----------------------------------------------------------- table-valued
    registry.register_table(
        "spHTM_CoverCircleEq",
        &["htmIDstart", "htmIDend", "full"],
        |_db, args| {
            let ra = arg_f64(args, 0, "spHTM_CoverCircleEq")?;
            let dec = arg_f64(args, 1, "spHTM_CoverCircleEq")?;
            let radius_arcmin = arg_f64(args, 2, "spHTM_CoverCircleEq")?;
            let region = Convex::circle_arcmin(ra, dec, radius_arcmin);
            let ranges = cover(&region);
            let mut rs =
                ResultSet::empty(vec!["htmIDstart".into(), "htmIDend".into(), "full".into()]);
            for r in ranges.ranges() {
                rs.rows.push(vec![
                    Value::Int(r.lo as i64),
                    Value::Int(r.hi as i64),
                    Value::Bool(r.full),
                ]);
            }
            Ok(rs)
        },
    );

    let nearby = ["objID", "run", "camcol", "field", "type", "distance"];
    registry.register_seek("fGetNearbyObjEq", &nearby, cone("fGetNearbyObjEq", None));
    registry.register_seek(
        "fGetNearestObjEq",
        &nearby,
        cone("fGetNearestObjEq", Some(1)),
    );
    let rect = SeekForm {
        measure: None,
        ordered: false,
        ..photo_seek(Arc::new(|args| {
            let name = "fGetObjFromRectEq";
            let arg = |i| arg_f64(args, i, name);
            let (ra_min, ra_max, dec_min, dec_max) = (arg(0)?, arg(1)?, arg(2)?, arg(3)?);
            if ra_min >= ra_max || dec_min >= dec_max {
                return Err(SqlError::Execution(format!("{name}: empty rectangle")));
            }
            let region = Convex::rect(ra_min, ra_max, dec_min, dec_max);
            Ok(SeekCover {
                ranges: htm_ranges(&region),
                test: Arc::new(move |c| region.contains_radec(c[0], c[1]).then_some(0.0)),
            })
        }))
    };
    registry.register_seek("fGetObjFromRectEq", &["objID", "ra", "dec", "type"], rect);
}

/// A search of `PhotoObj` through its `htmID` index, testing `ra`/`dec`,
/// ordered by `distance`.
fn photo_seek(cover: skyserver_sql::CoverFn) -> SeekForm {
    SeekForm {
        table: "PhotoObj".into(),
        index: "ix_PhotoObj_htmID".into(),
        key: "htmID".into(),
        tested: vec!["ra".into(), "dec".into()],
        cover,
        measure: Some("distance".into()),
        ordered: true,
        limit: None,
    }
}

/// The objects within `radius` arcminutes of `(ra, dec)`, nearest first,
/// at most `limit` of them.  The distance is [`angular_distance_arcmin`]'s,
/// bit for bit, with the centre's unit vector computed once per call.
fn cone(name: &'static str, limit: Option<u64>) -> SeekForm {
    SeekForm {
        limit,
        ..photo_seek(Arc::new(move |args| {
            let ra = arg_f64(args, 0, name)?;
            let dec = arg_f64(args, 1, name)?;
            let radius = arg_f64(args, 2, name)?;
            if radius <= 0.0 {
                return Err(SqlError::Execution(
                    "fGetNearbyObjEq: radius must be positive arcminutes".into(),
                ));
            }
            let centre = Vec3::from_radec(ra, dec);
            Ok(SeekCover {
                ranges: htm_ranges(&Convex::circle_arcmin(ra, dec, radius)),
                test: Arc::new(move |c| {
                    let distance = centre.arc_angle_arcmin(Vec3::from_radec(c[0], c[1]));
                    (distance <= radius).then_some(distance)
                }),
            })
        }))
    }
}

/// A region's HTM cover as inclusive `htmID` ranges (the cover's ranges
/// end one trixel past their last id).
fn htm_ranges(region: &Convex) -> Vec<(Value, Value)> {
    let ranges = cover(region);
    let bounds = |r: &skyserver_htm::HtmRange| (r.lo as i64, (r.hi - 1) as i64);
    (ranges.ranges().iter().map(bounds))
        .map(|(lo, hi)| (Value::Int(lo), Value::Int(hi)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::create_indexes;
    use crate::tables::create_tables;
    use skyserver_htm::{lookup_id, SDSS_DEPTH};
    use skyserver_sql::SqlEngine;
    use skyserver_storage::Database;

    fn db_with_objects() -> Database {
        let mut db = objects_without_indexes();
        create_indexes(&mut db).unwrap();
        db
    }

    fn objects_without_indexes() -> Database {
        let mut db = Database::new("skyserver_test");
        create_tables(&mut db).unwrap();
        // Insert a handful of objects around (185, -0.5).
        let schema = crate::tables::photo_obj_schema();
        let positions = [
            (185.0, -0.5),
            (185.005, -0.5), // 0.3 arcmin away in ra
            (185.0, -0.51),  // 0.6 arcmin away in dec
            (185.2, -0.5),   // 12 arcmin away
            (190.0, 2.0),    // far away
        ];
        db.set_enforce_foreign_keys(false);
        for (i, (ra, dec)) in positions.iter().enumerate() {
            let mut row = Vec::new();
            for c in schema.columns() {
                let v = match c.name.as_str() {
                    "objID" => Value::Int(i as i64 + 1),
                    "ra" => Value::Float(*ra),
                    "dec" => Value::Float(*dec),
                    "htmID" => Value::Int(lookup_id(*ra, *dec, SDSS_DEPTH) as i64),
                    "type" => Value::Int(if i % 2 == 0 { 3 } else { 6 }),
                    "run" | "camcol" | "field" | "fieldID" => Value::Int(1),
                    name if name.starts_with("modelMag")
                        || name.starts_with("psfMag")
                        || name.starts_with("petroMag")
                        || name.starts_with("fiberMag") =>
                    {
                        Value::Float(18.0)
                    }
                    _ => match c.ty {
                        skyserver_storage::DataType::Int => Value::Int(0),
                        skyserver_storage::DataType::Float => Value::Float(0.0),
                        skyserver_storage::DataType::Str => Value::str(""),
                        skyserver_storage::DataType::Bytes => Value::bytes([]),
                        skyserver_storage::DataType::Bool => Value::Bool(false),
                    },
                };
                row.push(v);
            }
            db.insert("PhotoObj", row).unwrap();
        }
        db
    }

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        register_functions(&mut r);
        r
    }

    #[test]
    fn scalar_functions_work() {
        let r = registry();
        let f = r.scalar("fPhotoFlags").unwrap();
        assert_eq!(f(&[Value::str("saturated")]).unwrap(), Value::Int(16));
        assert!(f(&[Value::str("bogus")]).is_err());
        let f = r.scalar("fPhotoType").unwrap();
        assert_eq!(f(&[Value::str("galaxy")]).unwrap(), Value::Int(3));
        let f = r.scalar("fGetUrlExpId").unwrap();
        let url = f(&[Value::Int(42)]).unwrap();
        assert!(url.to_string().ends_with("id=42"));
        let f = r.scalar("fDistanceArcMinEq").unwrap();
        let d = f(&[
            Value::Float(185.0),
            Value::Float(0.0),
            Value::Float(185.0),
            Value::Float(1.0),
        ])
        .unwrap();
        assert!((d.as_f64().unwrap() - 60.0).abs() < 1e-6);
    }

    fn engine() -> SqlEngine {
        SqlEngine::new(db_with_objects(), registry())
    }

    #[test]
    fn nearby_objects_respects_the_radius_and_sorts_by_distance() {
        let engine = engine();
        let rs = engine
            .query("select objID, distance from fGetNearbyObjEq(185.0, -0.5, 1.0)")
            .unwrap();
        // Objects 1 (0'), 2 (~0.3') and 3 (0.6') are within 1 arcminute.
        assert_eq!(rs.len(), 3);
        let d = rs.column_values("distance");
        assert!(d[0].as_f64().unwrap() < d[1].as_f64().unwrap());
        assert!(d[2].as_f64().unwrap() <= 1.0);
        // Each distance is the UDF's, bit for bit.
        let want = angular_distance_arcmin(185.0, -0.5, 185.0, -0.51);
        assert_eq!(rs.cell(2, "distance"), Some(&Value::Float(want)));
        // Wider radius picks up the 12-arcminute neighbour too.
        let rs = engine
            .query("select * from fGetNearbyObjEq(185.0, -0.5, 15.0)")
            .unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.cell(3, "run"), Some(&Value::Int(1)));
    }

    #[test]
    fn without_the_index_the_search_scans_the_heap() {
        let sql = "select objID, distance from fGetNearbyObjEq(185.0, -0.5, 1.0)";
        let heap = SqlEngine::new(objects_without_indexes(), registry());
        assert!(heap
            .explain(sql)
            .unwrap()
            .contains("TableScan(PhotoObj: fGetNearbyObjEq("));
        let seek = engine();
        assert!(seek
            .explain(sql)
            .unwrap()
            .contains("RangeSeek(PhotoObj.ix_PhotoObj_htmID"));
        assert_eq!(heap.query(sql).unwrap().rows, seek.query(sql).unwrap().rows);
    }

    #[test]
    fn nearest_object_is_the_closest_one() {
        let rs = engine()
            .query("select objID from fGetNearestObjEq(185.004, -0.5, 5.0)")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "objID"), Some(&Value::Int(2)));
    }

    #[test]
    fn rect_function_filters_by_rectangle() {
        let engine = engine();
        let rs = engine
            .query("select objID, ra from fGetObjFromRectEq(184.9, 185.1, -0.6, -0.4)")
            .unwrap();
        assert_eq!(rs.len(), 3);
        let err = engine
            .query("select objID from fGetObjFromRectEq(2.0, 1.0, 0.0, 1.0)")
            .unwrap_err();
        assert!(err.to_string().contains("empty rectangle"), "{err}");
    }

    #[test]
    fn htm_cover_function_returns_ranges() {
        let rs = engine()
            .query("select htmIDstart, htmIDend from spHTM_CoverCircleEq(185.0, -0.5, 1.0)")
            .unwrap();
        assert!(!rs.is_empty());
        for row in &rs.rows {
            assert!(row[0].as_i64().unwrap() < row[1].as_i64().unwrap());
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let engine = engine();
        for sql in [
            "select objID from fGetNearbyObjEq('x', 0.0, 1.0)",
            "select objID from fGetNearbyObjEq(185.0, -0.5, -1.0)",
        ] {
            assert!(engine.query(sql).is_err(), "{sql}");
        }
    }
}
