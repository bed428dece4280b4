//! Copy-on-write of index runs and segment statistics: a write on a fork
//! copies the runs it lands in and re-summarizes the segments it writes,
//! sharing the rest with its parent, and a release published before (or
//! between) a batch insert and its UNDO keeps answering from what it
//! pinned while the head's table shrinks back to its old length.

use skyserver::skygen::SurveyConfig;
use skyserver::sql::ResultSet;
use skyserver::storage::Value;
use skyserver::{SkyServer, SkyServerBuilder};
use std::sync::Arc;

fn server() -> SkyServer {
    let config = SurveyConfig {
        target_objects: 6000,
        ..SurveyConfig::tiny()
    };
    SkyServerBuilder::new().with_config(config).build().unwrap()
}

/// `n` rows no catalog query sees: copies of the first object with ids far
/// above the catalog's and `type` 0.
fn generated_rows(sky: &SkyServer, n: usize) -> Vec<Vec<Value>> {
    let template = sky
        .query("select top 1 * from PhotoObj order by objID")
        .unwrap();
    (0..n)
        .map(|k| {
            let mut row = template.rows[0].clone();
            for (column, cell) in template.columns.iter().zip(&mut row) {
                match column.as_str() {
                    "objID" => *cell = Value::Int(9_000_000_000 + k as i64),
                    "type" | "parentID" => *cell = Value::Int(0),
                    _ => {}
                }
            }
            row
        })
        .collect()
}

/// A primary-key seek, an `htmID` range seek and a covering index scan,
/// each with its plan checked, pinned to `release` when one is given.
fn index_reads(sky: &SkyServer, release: &str) -> Vec<ResultSet> {
    let first = sky
        .query("select top 1 objID, htmID from PhotoObj order by objID")
        .unwrap();
    let (obj_id, htm_id) = (&first.rows[0][0], &first.rows[0][1]);
    let statements = [
        (
            format!("select * from PhotoObj where objID = {obj_id}"),
            "IndexSeek(PhotoObj.pk_PhotoObj",
        ),
        (
            format!(
                "select objID, ra, dec from PhotoObj where htmID between {htm_id} - 4000000 \
                 and {htm_id} + 4000000 order by objID"
            ),
            "IndexSeek(PhotoObj.ix_PhotoObj_htmID",
        ),
        (
            "select parentID, count(*) from PhotoObj group by parentID order by parentID"
                .to_string(),
            "CoveringIndexScan(PhotoObj.ix_PhotoObj_parent",
        ),
    ];
    statements
        .iter()
        .map(|(sql, operator)| {
            let sql = format!("{sql}{release}");
            let plan = sky.explain(&sql).unwrap();
            assert!(plan.contains(operator), "{sql} plans as\n{plan}");
            let result = sky.query(&sql).unwrap();
            assert!(!result.rows.is_empty(), "{sql} returns nothing");
            result
        })
        .collect()
}

#[test]
fn one_insert_on_a_fork_copies_at_most_two_runs_per_index() {
    let sky = server();
    let before = index_reads(&sky, "");
    let mut fork = sky.fork();
    let row = generated_rows(&sky, 1).remove(0);
    fork.engine_mut().db_mut().insert("PhotoObj", row).unwrap();

    let parents = sky.engine().db().indexes_for("PhotoObj");
    let children = fork.engine().db().indexes_for("PhotoObj");
    assert_eq!(parents.len(), 6);
    for (parent, child) in parents.iter().zip(children) {
        let name = &parent.def().name;
        assert!(parent.runs().len() >= 5, "{name} is too small to tell");
        let shared = child
            .runs()
            .iter()
            .filter(|run| parent.runs().iter().any(|p| Arc::ptr_eq(p, run)))
            .count();
        // The run the entry landed in, or the two halves of its split.
        assert!(child.runs().len() - shared <= 2, "{name} copied more");
        assert!(parent.runs().len() - shared <= 1, "{name} detached more");
        assert_eq!(child.len(), parent.len() + 1);
    }
    assert_eq!(index_reads(&sky, ""), before, "the parent saw the write");
}

#[test]
fn a_batch_on_a_fork_summarizes_only_the_segments_it_writes() {
    let sky = server();
    let mut fork = sky.fork();
    let rows = generated_rows(&sky, 500);
    let db = fork.engine_mut().db_mut();
    let ts = db.next_timestamp();
    assert_eq!(db.insert_many("PhotoObj", rows, ts).unwrap(), 500);

    let parent = sky.engine().db().table("PhotoObj").unwrap().segments();
    let child = fork.engine().db().table("PhotoObj").unwrap().segments();
    assert!(parent.len() >= 5, "PhotoObj is too small to tell");
    let summary = |seg: &skyserver::storage::Segment| {
        seg.cached_summary()
            .map(|s| s as *const _)
            .expect("an analyzed table has every summary")
    };
    let parents: Vec<_> = parent.iter().map(|s| summary(s)).collect();
    let recomputed = child
        .iter()
        .filter(|s| !parents.contains(&summary(s)))
        .count();
    assert!(recomputed <= 2, "{recomputed} summaries recomputed");
    for (p, c) in parent.iter().zip(child) {
        // A segment the batch did not write is the parent's, summary and all.
        if Arc::ptr_eq(p, c) {
            assert_eq!(summary(p), summary(c));
        }
    }
    let shared = parent
        .iter()
        .zip(child)
        .filter(|(p, c)| Arc::ptr_eq(p, c))
        .count();
    assert_eq!(shared + recomputed, child.len());
}

#[test]
fn a_release_reads_the_same_through_a_batch_insert_and_its_undo() {
    let mut sky = server();
    sky.publish_release("dr2").unwrap();
    let pinned = index_reads(&sky, " as of dr2");
    let head = index_reads(&sky, "");
    let slots = |sky: &SkyServer| {
        let db = sky.engine().db();
        db.table("PhotoObj").unwrap().slot_count()
    };
    let before = slots(&sky);

    let rows = generated_rows(&sky, 500);
    let db = sky.engine_mut().db_mut();
    let ts = db.next_timestamp();
    assert_eq!(db.insert_many("PhotoObj", rows, ts).unwrap(), 500);
    assert_eq!(index_reads(&sky, " as of dr2"), pinned);
    assert_ne!(index_reads(&sky, "")[2], head[2], "the head gained rows");
    // A release published between the batch and its UNDO.
    sky.publish_release("dr3").unwrap();
    let between = index_reads(&sky, " as of dr3");

    let db = sky.engine_mut().db_mut();
    assert_eq!(
        db.delete_by_timestamp_range("PhotoObj", ts, ts).unwrap(),
        500
    );
    assert_eq!(slots(&sky), before, "the UNDO left a dead tail");
    assert_eq!(index_reads(&sky, " as of dr2"), pinned);
    assert_eq!(index_reads(&sky, " as of dr3"), between);
    assert_eq!(index_reads(&sky, ""), head);
}
