//! The 15 "astronomer" queries (§11).
//!
//! "our actual query set includes 15 additional queries posed by astronomers
//! using the Objectivity archive ... Those 15 queries are much simpler and
//! run more quickly than most of the original 20 queries."  They are the
//! kind of extract-a-subset-and-analyse-at-home queries normal astronomers
//! write.

use crate::spec::{Invariant, QueryFamily, QuerySpec};
use crate::twenty::{FOOTPRINT_DEC, FOOTPRINT_RA};
use skyserver_sql::PlanClass;

fn a(
    id: &'static str,
    title: &'static str,
    sql: &str,
    expected_class: PlanClass,
    invariants: Vec<Invariant>,
) -> QuerySpec {
    QuerySpec {
        id,
        title,
        sql: sql.to_string(),
        family: QueryFamily::Astronomer,
        expected_class,
        invariants,
        adaptation: "Simple extraction query; runs unchanged on the synthetic catalog.",
    }
}

/// The fifteen astronomer queries.
pub fn astronomer_queries() -> Vec<QuerySpec> {
    vec![
        a(
            "A1",
            "How many objects of each type are there?",
            "select type, count(*) as n from PhotoObj group by type order by n desc",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty, Invariant::AtMostRows(10)],
        ),
        a(
            "A2",
            "The ten brightest galaxies",
            "select top 10 objID, modelMag_r from Galaxy order by modelMag_r",
            PlanClass::IndexSeek,
            vec![
                Invariant::AtMostRows(10),
                Invariant::SortedAscending("modelMag_r"),
            ],
        ),
        a(
            "A3",
            "Everything about one object",
            "select * from PhotoObj where objID = 1000001",
            PlanClass::IndexSeek,
            vec![Invariant::AtMostRows(1)],
        ),
        a(
            "A4",
            "All objects in a small rectangle of sky",
            &format!(
                "select objID, ra, dec, type from fGetObjFromRectEq({}, {}, {}, {})",
                FOOTPRINT_RA - 0.2,
                FOOTPRINT_RA + 0.2,
                FOOTPRINT_DEC - 0.2,
                FOOTPRINT_DEC + 0.2
            ),
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
        ),
        a(
            "A5",
            "How many spectra of each class?",
            "select specClass, count(*) as n from SpecObj group by specClass order by n desc",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
        ),
        a(
            "A6",
            "Redshift histogram of galaxies with spectra",
            "select floor(z * 10) as zbin, count(*) as n from SpecObj \
             where specClass = 2 group by floor(z * 10) order by zbin",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::SortedAscending("zbin")],
        ),
        a(
            "A7",
            "Mean colours of stars and galaxies",
            "select type, avg(modelMag_g - modelMag_r) as gr, avg(modelMag_u - modelMag_g) as ug \
             from PhotoPrimary group by type",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
        ),
        a(
            "A8",
            "How many objects have saturated pixels?",
            "declare @saturated bigint;
             set @saturated = dbo.fPhotoFlags('saturated');
             select count(*) from PhotoObj where (flags & @saturated) > 0",
            PlanClass::IndexSeek,
            vec![Invariant::ScalarAtLeast(0)],
        ),
        a(
            "A9",
            "The ten highest-redshift quasars",
            "select top 10 specObjID, z from SpecQso order by z desc",
            PlanClass::Scan,
            vec![Invariant::AtMostRows(10)],
        ),
        a(
            "A10",
            "The object nearest to a given position",
            &format!(
                "select objID, distance from fGetNearestObjEq({FOOTPRINT_RA}, {FOOTPRINT_DEC}, 30)"
            ),
            PlanClass::IndexSeek,
            vec![Invariant::AtMostRows(1)],
        ),
        a(
            "A11",
            "The ten most crowded fields",
            "select fieldID, count(*) as n from PhotoObj group by fieldID order by n desc",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
        ),
        a(
            "A12",
            "Objects with a tight USNO astrometric match",
            "select U.objID, U.delta from USNO U where U.delta < 0.5",
            PlanClass::Scan,
            vec![
                Invariant::MayBeEmpty,
                Invariant::ColumnInRange("delta", 0.0, 0.5),
            ],
        ),
        a(
            "A13",
            "All spectral lines of one spectrum (the paper's specObjID example)",
            "select * from SpecLine where specObjID = 3000001",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::AtMostRows(60)],
        ),
        a(
            "A14",
            "Plates and how many spectra each produced",
            "select P.plateID, P.nFibers, count(*) as spectra
             from Plate P join SpecObj S on S.plateID = P.plateID
             group by P.plateID, P.nFibers order by P.plateID",
            PlanClass::JoinScan,
            vec![Invariant::NonEmpty],
        ),
        a(
            "A15",
            "How much of the catalog is duplicate (secondary) detections?",
            "declare @secondary bigint;
             set @secondary = dbo.fPhotoFlags('secondary');
             select count(*) from PhotoObj where (flags & @secondary) > 0",
            PlanClass::IndexSeek,
            vec![Invariant::ScalarAtLeast(1)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_queries_defined_and_parse() {
        let queries = astronomer_queries();
        assert_eq!(queries.len(), 15);
        for q in &queries {
            assert_eq!(q.family, QueryFamily::Astronomer);
            skyserver_sql::parse_script(&q.sql)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", q.id));
        }
    }
}
