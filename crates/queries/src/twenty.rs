//! The 20 data-mining queries (Q1..Q20) of Szalay/Gray, §3 and §11 of
//! the SkyServer paper, adapted to the synthetic catalog.
//!
//! The paper gives three of them verbatim (Q1, Q15 and the fast-moving
//! variant of Q15); the others are reconstructed from their one-line
//! descriptions in the Gray technical report.  Columns the synthetic survey
//! does not model (surface brightness, extinction, photometric redshift) are
//! substituted with documented proxies -- what matters for the evaluation is
//! the *shape* of each query (index lookup vs scan vs join) and its result
//! class, not the astrophysics.

use crate::spec::{Invariant, QueryFamily, QuerySpec};
use skyserver_sql::PlanClass;

fn q(
    id: &'static str,
    title: &'static str,
    sql: &str,
    expected_class: PlanClass,
    invariants: Vec<Invariant>,
    adaptation: &'static str,
) -> QuerySpec {
    QuerySpec {
        id,
        title,
        sql: sql.to_string(),
        family: QueryFamily::DataMining,
        expected_class,
        invariants,
        adaptation,
    }
}

/// The centre of the synthetic footprint used by the spatial queries.
pub const FOOTPRINT_RA: f64 = 181.0;
/// Declination near the centre of the synthetic footprint.
pub const FOOTPRINT_DEC: f64 = -0.8;

/// All twenty data-mining queries.
pub fn twenty_queries() -> Vec<QuerySpec> {
    vec![
        q(
            "Q1",
            "Galaxies without saturated pixels within 1' of a given point",
            &format!(
                "declare @saturated bigint;
                 set @saturated = dbo.fPhotoFlags('saturated');
                 select G.objID, GN.distance
                 into ##results
                 from Galaxy as G
                 join fGetNearbyObjEq({FOOTPRINT_RA}, {FOOTPRINT_DEC}, 3) as GN on G.objID = GN.objID
                 where (G.flags & @saturated) = 0
                 order by distance"
            ),
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::SortedAscending("distance")],
            "Verbatim from the paper; the radius is 3' instead of 1' so the small synthetic catalog returns a handful of rows.",
        ),
        q(
            "Q2",
            "Galaxies with blue surface brightness between 23 and 25 mag and dec < 0",
            "select objID, modelMag_g, petroRad_r from Galaxy \
             where modelMag_g between 18 and 23 and petroRad_r > 3 and dec < 0",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty, Invariant::ColumnInRange("modelMag_g", 18.0, 23.0)],
            "Surface brightness is proxied by g magnitude + Petrosian radius.",
        ),
        q(
            "Q3",
            "Galaxies brighter than magnitude 22 where the local extinction is > 0.75",
            "select objID, modelMag_r, modelMagErr_r from PhotoPrimary \
             where type = 3 and modelMag_r < 22 and modelMagErr_r > 0.02",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
            "Extinction is proxied by the model magnitude error.",
        ),
        q(
            "Q4",
            "Galaxies with large isophotal axes and ellipticity > 0.5",
            "select objID, isoA_r, isoB_r from Galaxy \
             where isoA_r > 3 and (power(q_r,2) + power(u_r,2)) > 0.25",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::ColumnInRange("isoA_r", 3.0, 1e9)],
            "Ellipticity is the Stokes (q,u) norm, as in the paper's fast-mover query.",
        ),
        q(
            "Q5",
            "Galaxies with a deVaucouleurs profile and elliptical-galaxy colors",
            "select objID, modelMag_u - modelMag_g as ug, petroRad_r from Galaxy \
             where probPSF < 0.2 and (modelMag_u - modelMag_g) > 1.0 and petroRad_r > 3",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty, Invariant::ColumnInRange("ug", 1.0, 10.0)],
            "The profile fit is proxied by low probPSF and a red u-g colour.",
        ),
        q(
            "Q6",
            "Galaxies blended with another object, output the deblended child magnitudes",
            "declare @child bigint;
             set @child = dbo.fPhotoFlags('child');
             select C.objID, C.parentID, C.modelMag_r, P.modelMag_r as parentMag
             from PhotoObj C
             join PhotoObj P on C.parentID = P.objID
             where (C.flags & @child) > 0 and C.type = 3",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "Deblended children carry the CHILD flag and a parentID; the parent lookup uses the objID primary key.",
        ),
        q(
            "Q7",
            "Star-like objects with rare colours (about 1% of the population)",
            "select objID, modelMag_u - modelMag_g as ug from Star \
             where (modelMag_u - modelMag_g) < 0.55",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::ColumnInRange("ug", -10.0, 0.55)],
            "The rare population is the blue tail of the u-g colour distribution.",
        ),
        q(
            "Q8",
            "Objects with unclassified spectra",
            "select specObjID, objID, z from SpecObj where specClass = 0",
            PlanClass::Scan,
            vec![Invariant::MayBeEmpty],
            "Unclassified = SpecClass 'unknown'; the SpecObj table is scanned.",
        ),
        q(
            "Q9",
            "Quasar spectra with broad lines and redshift in a window",
            "select S.specObjID, S.z, L.sigma
             from SpecObj S
             join SpecLine L on L.specObjID = S.specObjID
             where S.z between 0.5 and 4.0 and S.specClass = 3 and L.sigma > 6",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty, Invariant::ColumnInRange("z", 0.5, 4.0)],
            "Line width > 2000 km/s becomes a sigma cut on the synthetic lines; the z window uses the ix_SpecObj_z index.",
        ),
        q(
            "Q10",
            "Galaxies with spectra whose H-alpha equivalent width is large",
            "select S.specObjID, S.objID, L.ew
             from SpecObj S
             join SpecLine L on L.specObjID = S.specObjID
             where L.lineID = 6563 and L.ew > 40 and S.specClass = 2",
            PlanClass::JoinScan,
            vec![Invariant::MayBeEmpty],
            "Direct translation: the 6563 Angstrom line with EW > 40.",
        ),
        q(
            "Q11",
            "Emission-line galaxies with an anomalous (absorption-like) line",
            "select S.specObjID, L.lineID, L.ew
             from SpecObj S
             join SpecLine L on L.specObjID = S.specObjID
             where S.specClass = 7 and L.ew < -10",
            PlanClass::JoinScan,
            vec![Invariant::MayBeEmpty],
            "Anomalous line = strongly negative equivalent width in a GAL_EM spectrum.",
        ),
        q(
            "Q12",
            "Gridded count of blue galaxies over a rectangle of sky (2' cells)",
            &format!(
                "select floor(ra * 30) as cellRa, floor(dec * 30) as cellDec, count(*) as n
                 from Galaxy
                 where ra between {} and {} and dec between {} and {}
                   and (modelMag_u - modelMag_g) > 1 and modelMag_r < 21.5
                 group by floor(ra * 30), floor(dec * 30)
                 order by n desc",
                FOOTPRINT_RA - 1.0,
                FOOTPRINT_RA + 1.0,
                FOOTPRINT_DEC - 1.0,
                FOOTPRINT_DEC + 1.0
            ),
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "The 2-arcminute grid is floor(coordinate * 30); masks are not modelled.",
        ),
        q(
            "Q13",
            "Count of colour-cut galaxies per coarse HTM triangle (for visualisation)",
            "select floor(htmID / 16777216) as trixel, count(*) as n
             from Galaxy
             where (0.7 * modelMag_u - 0.5 * modelMag_g - 0.2 * modelMag_i) < 12 and modelMag_r < 21.75
             group by floor(htmID / 16777216)
             order by n desc",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty],
            "The coarse trixel is the depth-8 prefix of the 20-deep HTM id (divide by 4^12).",
        ),
        q(
            "Q14",
            "Stars observed more than once whose magnitudes differ by more than 0.01",
            "select P.objID, S.objID as otherID, P.psfMag_r - S.psfMag_r as dmag
             from Neighbors N
             join PhotoObj P on N.objID = P.objID
             join PhotoObj S on N.neighborObjID = S.objID
             where N.distance < 0.05 and P.type = 6 and S.type = 6
               and P.objID < S.objID and abs(P.psfMag_r - S.psfMag_r) > 0.01",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "Repeat measurements are the overlap duplicates, found through the Neighbors materialised view.",
        ),
        q(
            "Q15A",
            "Slow-moving objects consistent with asteroids (the paper's Query 15)",
            "select objID, sqrt(rowv*rowv + colv*colv) as velocity, dbo.fGetUrlExpId(objID) as Url
             into ##results
             from PhotoObj
             where (rowv*rowv + colv*colv) between 50 and 1000 and rowv >= 0 and colv >= 0",
            PlanClass::Scan,
            vec![Invariant::NonEmpty, Invariant::ColumnInRange("velocity", 7.0, 32.0)],
            "Verbatim from §11: a parallel table scan computing the velocity predicate.",
        ),
        q(
            "Q15B",
            "Fast-moving near-earth objects: pairs of elongated red/green detections (Fig 12)",
            "select r.objID as rId, g.objId as gId,
                    dbo.fGetUrlExpId(r.objID) as rURL, dbo.fGetUrlExpId(g.objID) as gURL
             from PhotoObj r, PhotoObj g
             where r.run = g.run and r.camcol = g.camcol
               and abs(g.field - r.field) <= 1
               and r.objID <> g.objID
               and ((power(r.q_r,2) + power(r.u_r,2)) > 0.111111)
               and r.fiberMag_r between 6 and 22
               and r.fiberMag_r < r.fiberMag_u
               and r.fiberMag_r < r.fiberMag_g
               and r.fiberMag_r < r.fiberMag_i
               and r.fiberMag_r < r.fiberMag_z
               and r.parentID = 0
               and r.isoA_r / r.isoB_r > 1.5
               and r.isoA_r > 2.0
               and ((power(g.q_g,2) + power(g.u_g,2)) > 0.111111)
               and g.fiberMag_g between 6 and 22
               and g.fiberMag_g < g.fiberMag_u
               and g.fiberMag_g < g.fiberMag_r
               and g.fiberMag_g < g.fiberMag_i
               and g.fiberMag_g < g.fiberMag_z
               and g.parentID = 0
               and g.isoA_g / g.isoB_g > 1.5
               and g.isoA_g > 2.0
               and sqrt(power(r.cx - g.cx, 2) + power(r.cy - g.cy, 2) + power(r.cz - g.cz, 2)) * (180 * 60 / pi()) < 4.0
               and abs(r.fiberMag_r - g.fiberMag_g) < 2.0",
            PlanClass::IndexSeek,
            vec![Invariant::NonEmpty, Invariant::AtMostRows(64)],
            "Verbatim from §11 (plus an objID inequality to suppress the degenerate self-pair); finds the planted NEO pairs.",
        ),
        q(
            "Q16",
            "Objects with the colours of a very-high-redshift quasar (i-dropouts)",
            "select objID, modelMag_i - modelMag_z as iz from PhotoPrimary \
             where (modelMag_i - modelMag_z) > 2.0 and modelMag_z < 20.5",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "The i-z dropout cut; the synthetic colour distributions make such objects vanishingly rare, as in the real sky.",
        ),
        q(
            "Q17",
            "Close pairs of stars where one has white-dwarf colours",
            "select N.objID, N.neighborObjID, A.modelMag_u - A.modelMag_g as ug
             from Neighbors N
             join PhotoObj A on N.objID = A.objID
             join PhotoObj B on N.neighborObjID = B.objID
             where N.distance < 0.2 and A.type = 6 and B.type = 6
               and (A.modelMag_u - A.modelMag_g) < 0.6",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "Binaries are Neighbors pairs of stars; the white-dwarf colour is a blue u-g cut.",
        ),
        q(
            "Q18",
            "Pairs of objects within 30 arcseconds with very similar colours",
            "select N.objID, N.neighborObjID,
                    (A.modelMag_g - A.modelMag_r) - (B.modelMag_g - B.modelMag_r) as dcolor
             from Neighbors N
             join PhotoObj A on N.objID = A.objID
             join PhotoObj B on N.neighborObjID = B.objID
             where N.distance < 0.5 and N.objID < N.neighborObjID
               and abs((A.modelMag_g - A.modelMag_r) - (B.modelMag_g - B.modelMag_r)) < 0.05",
            PlanClass::JoinScan,
            vec![Invariant::MayBeEmpty, Invariant::ColumnInRange("dcolor", -0.05, 0.05)],
            "Lensing candidates: neighbouring pairs whose g-r colours agree to 0.05 mag.",
        ),
        q(
            "Q19",
            "Quasars with an absorption line and a nearby galaxy",
            "select S.specObjID, S.z, N.neighborObjID
             from SpecObj S
             join SpecLine L on L.specObjID = S.specObjID
             join Neighbors N on N.objID = S.objID
             where S.specClass = 3 and L.ew < -5 and N.neighborType = 3 and N.distance < 0.5",
            PlanClass::JoinScan,
            vec![Invariant::MayBeEmpty],
            "Broad absorption line = negative equivalent width; the nearby galaxy comes from Neighbors.",
        ),
        q(
            "Q20",
            "For each galaxy with a spectrum, count the nearby galaxies at a similar distance",
            "select G.objID, count(*) as nNearby
             from Galaxy G
             join SpecObj S on S.objID = G.objID
             join Neighbors N on N.objID = G.objID
             where N.neighborType = 3
             group by G.objID
             order by nNearby desc",
            PlanClass::IndexSeek,
            vec![Invariant::MayBeEmpty],
            "The brightest-cluster-galaxy count; the photometric-redshift cut is dropped (no photo-z column).",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_queries_are_defined_with_unique_ids() {
        let queries = twenty_queries();
        assert_eq!(queries.len(), 21, "Q1..Q20 plus the Q15B variant");
        let mut ids: Vec<&str> = queries.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), queries.len());
        for q in &queries {
            assert!(!q.sql.trim().is_empty());
            assert!(!q.title.is_empty());
            assert!(!q.adaptation.is_empty());
            assert!(!q.invariants.is_empty());
        }
    }

    #[test]
    fn all_queries_parse() {
        for query in twenty_queries() {
            skyserver_sql::parse_script(&query.sql)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", query.id));
        }
    }

    #[test]
    fn headline_queries_are_verbatim_shapes() {
        let queries = twenty_queries();
        let q1 = queries.iter().find(|q| q.id == "Q1").unwrap();
        assert!(q1.sql.contains("fGetNearbyObjEq"));
        assert!(q1.sql.contains("fPhotoFlags"));
        let q15 = queries.iter().find(|q| q.id == "Q15A").unwrap();
        assert!(q15.sql.contains("rowv*rowv + colv*colv"));
        let q15b = queries.iter().find(|q| q.id == "Q15B").unwrap();
        assert!(q15b.sql.contains("isoA_r / r.isoB_r") || q15b.sql.contains("r.isoA_r / r.isoB_r"));
    }
}
