//! The `Neighbors` materialised view (§3, §9.1.1).
//!
//! "One table, neighbors, is computed after the data is loaded.  For every
//! object the neighbors table contains a list of all other objects within
//! ½ arcminute of the object (typically 10 objects).  This speeds proximity
//! searches."
//!
//! The computation uses a simple spatial hash grid (cells slightly larger
//! than the search radius) rather than an all-pairs scan, so it stays linear
//! in the number of objects -- the same role the HTM zone trick plays in the
//! real loader.

use skyserver_htm::angular_distance_arcmin;
use skyserver_storage::{Database, StorageError, Value};
use std::collections::HashMap;

/// The paper's neighbourhood radius: half an arcminute.
pub const NEIGHBOR_RADIUS_ARCMIN: f64 = 0.5;

/// Result of the neighbours computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NeighborsReport {
    /// Number of (objID, neighborObjID) pairs inserted.
    pub pairs: usize,
    /// Number of objects considered.
    pub objects: usize,
}

/// Compute the Neighbors table for every object currently in `PhotoObj`.
///
/// Pairs are symmetric: if A is within the radius of B, both (A,B) and (B,A)
/// are stored, mirroring the real table.
pub fn compute_neighbors(
    db: &mut Database,
    radius_arcmin: f64,
    timestamp: u64,
) -> Result<NeighborsReport, StorageError> {
    #[derive(Clone, Copy)]
    struct Pos {
        obj_id: i64,
        ra: f64,
        dec: f64,
        obj_type: i64,
    }
    let positions: Vec<Pos> = {
        let table = db.table("PhotoObj")?;
        let ordinal = |c| table.schema().column_index(c).expect(c);
        let columns = ["objID", "ra", "dec", "type"].map(ordinal);
        let mut cells = Vec::with_capacity(columns.len());
        (table.row_ids())
            .filter_map(|id| {
                cells.clear();
                table.gather_into(id, &columns, &mut cells).then(|| Pos {
                    obj_id: cells[0].as_i64().unwrap_or(0),
                    ra: cells[1].as_f64().unwrap_or(0.0),
                    dec: cells[2].as_f64().unwrap_or(0.0),
                    obj_type: cells[3].as_i64().unwrap_or(0),
                })
            })
            .collect()
    };
    // Spatial hash: cell edge of one radius in degrees (so all neighbours of
    // a point lie within the 3x3 cell block around it).
    let cell = (radius_arcmin / 60.0).max(1e-6);
    let key = |ra: f64, dec: f64| -> (i64, i64) {
        ((ra / cell).floor() as i64, (dec / cell).floor() as i64)
    };
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, p) in positions.iter().enumerate() {
        grid.entry(key(p.ra, p.dec)).or_default().push(i);
    }
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for p in &positions {
        let (kx, ky) = key(p.ra, p.dec);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = grid.get(&(kx + dx, ky + dy)) else {
                    continue;
                };
                for &j in bucket {
                    let q = &positions[j];
                    if q.obj_id == p.obj_id {
                        continue;
                    }
                    let d = angular_distance_arcmin(p.ra, p.dec, q.ra, q.dec);
                    if d <= radius_arcmin {
                        rows.push(vec![
                            Value::Int(p.obj_id),
                            Value::Int(q.obj_id),
                            Value::Float(d),
                            Value::Int(q.obj_type),
                        ]);
                    }
                }
            }
        }
    }
    let pairs = rows.len();
    // Neighbors has a composite primary key; clear any previous computation,
    // heap and indexes, before inserting (recomputation is idempotent).
    db.truncate_table("Neighbors")?;
    let was_enforcing = db.enforces_foreign_keys();
    db.set_enforce_foreign_keys(false);
    let inserted = db.insert_many("Neighbors", rows, timestamp);
    db.set_enforce_foreign_keys(was_enforcing);
    inserted?;
    Ok(NeighborsReport {
        pairs,
        objects: positions.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_htm::{lookup_id, SDSS_DEPTH};
    use skyserver_schema::install_schema;

    fn insert_object(db: &mut Database, id: i64, ra: f64, dec: f64) {
        let schema = skyserver_schema::photo_obj_schema();
        let mut row = Vec::new();
        for c in schema.columns() {
            let v = match c.name.as_str() {
                "objID" => Value::Int(id),
                "ra" => Value::Float(ra),
                "dec" => Value::Float(dec),
                "htmID" => Value::Int(lookup_id(ra, dec, SDSS_DEPTH) as i64),
                "type" => Value::Int(3),
                _ => match c.ty {
                    skyserver_storage::DataType::Int => Value::Int(1),
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

    fn test_db() -> Database {
        let mut db = Database::new("neighbors_test");
        install_schema(&mut db).unwrap();
        db.set_enforce_foreign_keys(false);
        // Two close objects (0.3' apart), one at 0.4' from the first, one far.
        insert_object(&mut db, 1, 185.0, -0.5);
        insert_object(&mut db, 2, 185.0 + 0.3 / 60.0, -0.5);
        insert_object(&mut db, 3, 185.0, -0.5 + 0.4 / 60.0);
        insert_object(&mut db, 4, 186.0, -0.5);
        db
    }

    #[test]
    fn finds_symmetric_pairs_within_radius() {
        let mut db = test_db();
        let report = compute_neighbors(&mut db, NEIGHBOR_RADIUS_ARCMIN, 1).unwrap();
        assert_eq!(report.objects, 4);
        // Pairs: (1,2),(2,1),(1,3),(3,1) and 2-3 are ~0.5' apart -- depends on
        // exact distance; at least the four certain pairs must exist.
        assert!(report.pairs >= 4);
        let table = db.table("Neighbors").unwrap();
        assert_eq!(table.row_count(), report.pairs);
        // Symmetry: every (a,b) has a (b,a).
        let pairs: Vec<(i64, i64)> = table
            .iter()
            .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        for (a, b) in &pairs {
            assert!(
                pairs.contains(&(*b, *a)),
                "missing symmetric pair for ({a},{b})"
            );
        }
        // The far object has no neighbours.
        assert!(!pairs.iter().any(|(a, b)| *a == 4 || *b == 4));
    }

    #[test]
    fn recomputation_is_idempotent() {
        let mut db = test_db();
        let first = compute_neighbors(&mut db, NEIGHBOR_RADIUS_ARCMIN, 1).unwrap();
        let second = compute_neighbors(&mut db, NEIGHBOR_RADIUS_ARCMIN, 2).unwrap();
        assert_eq!(first.pairs, second.pairs);
        assert_eq!(db.table("Neighbors").unwrap().row_count(), second.pairs);
    }

    #[test]
    fn larger_radius_finds_more_pairs() {
        let mut db = test_db();
        let small = compute_neighbors(&mut db, 0.2, 1).unwrap();
        let big = compute_neighbors(&mut db, 2.0, 2).unwrap();
        assert!(big.pairs > small.pairs);
    }
}
