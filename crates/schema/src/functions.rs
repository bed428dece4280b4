//! The SkyServer's user-defined functions (§9.1.4).
//!
//! Scalar helpers: `fPhotoFlags`, `fPhotoType`, `fSpecClass`,
//! `fGetUrlExpId`, `fDistanceArcMinEq`.
//!
//! Table-valued spatial functions: `spHTM_CoverCircleEq` (the raw HTM range
//! cover), `fGetNearbyObjEq` (all objects within a radius, with distances),
//! `fGetNearestObjEq` (the closest object), and `fGetObjFromRectEq`
//! (all objects in an ra/dec rectangle).  They use the B-tree on
//! `PhotoObj.htmID` exactly the way the paper describes: the cover produces
//! id ranges, the ranges are scanned in the index, and candidates get an
//! exact distance check.

use skyserver_htm::{angular_distance_arcmin, cover, Convex};
use skyserver_skygen::{photo_flag_value, photo_type_value, spec_class_value};
use skyserver_sql::{FunctionRegistry, ResultSet, SqlError};
use skyserver_storage::{Database, Value};

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

    let nearby_columns = ["objID", "run", "camcol", "field", "type", "distance"];
    registry.register_table("fGetNearbyObjEq", &nearby_columns, |db, args| {
        let ra = arg_f64(args, 0, "fGetNearbyObjEq")?;
        let dec = arg_f64(args, 1, "fGetNearbyObjEq")?;
        let radius_arcmin = arg_f64(args, 2, "fGetNearbyObjEq")?;
        nearby_objects(db, ra, dec, radius_arcmin)
    });
    registry.register_table("fGetNearestObjEq", &nearby_columns, |db, args| {
        let ra = arg_f64(args, 0, "fGetNearestObjEq")?;
        let dec = arg_f64(args, 1, "fGetNearestObjEq")?;
        let radius_arcmin = arg_f64(args, 2, "fGetNearestObjEq")?;
        let mut rs = nearby_objects(db, ra, dec, radius_arcmin)?;
        rs.rows.sort_by(|a, b| a[5].total_cmp(&b[5]));
        rs.rows.truncate(1);
        Ok(rs)
    });
    registry.register_table(
        "fGetObjFromRectEq",
        &["objID", "ra", "dec", "type"],
        |db, args| {
            let ra_min = arg_f64(args, 0, "fGetObjFromRectEq")?;
            let ra_max = arg_f64(args, 1, "fGetObjFromRectEq")?;
            let dec_min = arg_f64(args, 2, "fGetObjFromRectEq")?;
            let dec_max = arg_f64(args, 3, "fGetObjFromRectEq")?;
            if ra_min >= ra_max || dec_min >= dec_max {
                return Err(SqlError::Execution(
                    "fGetObjFromRectEq: empty rectangle".into(),
                ));
            }
            let region = Convex::rect(ra_min, ra_max, dec_min, dec_max);
            let candidates = spatial_candidates(db, &region)?;
            let mut rs = ResultSet::empty(vec![
                "objID".into(),
                "ra".into(),
                "dec".into(),
                "type".into(),
            ]);
            for c in candidates {
                if region.contains_radec(c.ra, c.dec) {
                    rs.rows.push(vec![
                        Value::Int(c.obj_id),
                        Value::Float(c.ra),
                        Value::Float(c.dec),
                        Value::Int(c.obj_type),
                    ]);
                }
            }
            Ok(rs)
        },
    );
}

/// A PhotoObj candidate pulled through the HTM index.
struct Candidate {
    obj_id: i64,
    run: i64,
    camcol: i64,
    field: i64,
    obj_type: i64,
    ra: f64,
    dec: f64,
}

/// Objects within `radius_arcmin` of `(ra, dec)`, with exact distances.
fn nearby_objects(
    db: &Database,
    ra: f64,
    dec: f64,
    radius_arcmin: f64,
) -> Result<ResultSet, SqlError> {
    if radius_arcmin <= 0.0 {
        return Err(SqlError::Execution(
            "fGetNearbyObjEq: radius must be positive arcminutes".into(),
        ));
    }
    let region = Convex::circle_arcmin(ra, dec, radius_arcmin);
    let candidates = spatial_candidates(db, &region)?;
    let mut rs = ResultSet::empty(vec![
        "objID".into(),
        "run".into(),
        "camcol".into(),
        "field".into(),
        "type".into(),
        "distance".into(),
    ]);
    for c in candidates {
        let distance = angular_distance_arcmin(ra, dec, c.ra, c.dec);
        if distance <= radius_arcmin {
            rs.rows.push(vec![
                Value::Int(c.obj_id),
                Value::Int(c.run),
                Value::Int(c.camcol),
                Value::Int(c.field),
                Value::Int(c.obj_type),
                Value::Float(distance),
            ]);
        }
    }
    rs.rows.sort_by(|a, b| a[5].total_cmp(&b[5]));
    Ok(rs)
}

/// Pull candidate objects for a region through the `htmID` index (or a full
/// scan when the index is missing, e.g. before the load finishes).  Either
/// way only the seven columns a [`Candidate`] holds leave the heap.
fn spatial_candidates(db: &Database, region: &Convex) -> Result<Vec<Candidate>, SqlError> {
    let table = db.table("PhotoObj")?;
    let schema = table.schema();
    let columns = ["objID", "run", "camcol", "field", "type", "ra", "dec"]
        .iter()
        .map(|name| {
            schema
                .column_index(name)
                .ok_or_else(|| SqlError::Plan(format!("PhotoObj lacks column {name}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Vec::new();
    let mut cells = Vec::with_capacity(columns.len());
    let mut gather = |row_id| {
        cells.clear();
        if table.gather_into(row_id, &columns, &mut cells) {
            let int = |c: usize| cells[c].as_i64().unwrap_or(0);
            out.push(Candidate {
                obj_id: int(0),
                run: int(1),
                camcol: int(2),
                field: int(3),
                obj_type: int(4),
                ra: cells[5].as_f64().unwrap_or(0.0),
                dec: cells[6].as_f64().unwrap_or(0.0),
            });
        }
    };
    let htm_index = db
        .indexes_for("PhotoObj")
        .iter()
        .find(|ix| ix.def().leading_column().eq_ignore_ascii_case("htmID"));
    match htm_index {
        Some(index) => {
            for r in cover(region).ranges() {
                // Range bounds are inclusive; the cover's hi is exclusive,
                // so subtract one trixel.
                let (lo, hi) = (Value::Int(r.lo as i64), Value::Int((r.hi - 1) as i64));
                index
                    .range(&[lo], &[hi])
                    .for_each(|entry| gather(entry.row_id()));
            }
        }
        None => table.row_ids().for_each(gather),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::create_indexes;
    use crate::tables::create_tables;
    use skyserver_htm::{lookup_id, SDSS_DEPTH};

    fn db_with_objects() -> Database {
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
        create_indexes(&mut db).unwrap();
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

    #[test]
    fn nearby_objects_respects_the_radius_and_sorts_by_distance() {
        let db = db_with_objects();
        let r = registry();
        let f = &r.table("fGetNearbyObjEq").unwrap().func;
        let rs = f(
            &db,
            &[Value::Float(185.0), Value::Float(-0.5), Value::Float(1.0)],
        )
        .unwrap();
        // Objects 1 (0'), 2 (~0.3') and 3 (0.6') are within 1 arcminute.
        assert_eq!(rs.len(), 3);
        let d = rs.column_values("distance");
        assert!(d[0].as_f64().unwrap() < d[1].as_f64().unwrap());
        assert!(d[2].as_f64().unwrap() <= 1.0);
        // Wider radius picks up the 12-arcminute neighbour too.
        let rs = f(
            &db,
            &[Value::Float(185.0), Value::Float(-0.5), Value::Float(15.0)],
        )
        .unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn nearest_object_is_the_closest_one() {
        let db = db_with_objects();
        let r = registry();
        let f = &r.table("fGetNearestObjEq").unwrap().func;
        let rs = f(
            &db,
            &[Value::Float(185.004), Value::Float(-0.5), Value::Float(5.0)],
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "objID"), Some(&Value::Int(2)));
    }

    #[test]
    fn rect_function_filters_by_rectangle() {
        let db = db_with_objects();
        let r = registry();
        let f = &r.table("fGetObjFromRectEq").unwrap().func;
        let rs = f(
            &db,
            &[
                Value::Float(184.9),
                Value::Float(185.1),
                Value::Float(-0.6),
                Value::Float(-0.4),
            ],
        )
        .unwrap();
        assert_eq!(rs.len(), 3);
        assert!(f(
            &db,
            &[
                Value::Float(2.0),
                Value::Float(1.0),
                Value::Float(0.0),
                Value::Float(1.0)
            ]
        )
        .is_err());
    }

    #[test]
    fn htm_cover_function_returns_ranges() {
        let db = db_with_objects();
        let r = registry();
        let f = &r.table("spHTM_CoverCircleEq").unwrap().func;
        let rs = f(
            &db,
            &[Value::Float(185.0), Value::Float(-0.5), Value::Float(1.0)],
        )
        .unwrap();
        assert!(!rs.is_empty());
        for row in &rs.rows {
            assert!(row[0].as_i64().unwrap() < row[1].as_i64().unwrap());
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let db = db_with_objects();
        let r = registry();
        let f = &r.table("fGetNearbyObjEq").unwrap().func;
        assert!(f(
            &db,
            &[Value::str("x"), Value::Float(0.0), Value::Float(1.0)]
        )
        .is_err());
        assert!(f(
            &db,
            &[Value::Float(185.0), Value::Float(-0.5), Value::Float(-1.0)]
        )
        .is_err());
    }
}
