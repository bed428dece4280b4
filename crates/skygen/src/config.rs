//! Survey generation configuration.
//!
//! The real SDSS Early Data Release holds ~14 million photometric objects in
//! ~80 GB.  The generator is parameterised so tests run on thousands of
//! objects, benchmarks on hundreds of thousands, and the "Personal
//! SkyServer" preset mimics the paper's 1 % / 6°x6° cut (§10).  All
//! statistical knobs (duplicate rate, deblend rate, spectroscopic targeting
//! fraction, asteroid rate, ...) default to the values quoted in the paper.

/// Configuration for synthetic survey generation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SurveyConfig {
    /// RNG seed: the survey is fully deterministic given the config.
    pub seed: u64,
    /// Number of *primary* celestial objects to synthesise (duplicates and
    /// deblended children are added on top of this).
    pub target_objects: usize,
    /// Number of 2.5-degree stripes observed.
    pub stripes: u32,
    /// Fields per (run, camcol); the real survey has ~10-12 fields per
    /// square degree of strip.
    pub fields_per_camcol: u32,
    /// Right-ascension extent of each stripe, degrees (the real stripes are
    /// ~120-130 degrees long; the Personal SkyServer cut is 6 degrees).
    pub stripe_length_deg: f64,
    /// Fraction of detections that are duplicates from strip/stripe overlaps
    /// (paper: "about 11% of the objects appear more than once").
    pub duplicate_fraction: f64,
    /// Fraction of primaries that are blended parents which get deblended
    /// into two children (tuned so ~80% of all photo objects end up primary).
    pub deblend_fraction: f64,
    /// Fraction of primaries targeted for spectroscopy (paper: ~1 %).
    pub spectro_fraction: f64,
    /// Fibres per spectroscopic plate (paper: ~600-640).
    pub fibers_per_plate: u32,
    /// Spectral lines extracted per spectrum (paper: ~30).
    pub lines_per_spectrum: u32,
    /// Fraction of objects that are slow-moving asteroids (velocity in the
    /// Q15 window); the paper finds 1,303 in 14 M objects.
    pub asteroid_fraction: f64,
    /// Number of fast-moving near-earth-object *pairs* to plant (the paper's
    /// modified Q15 finds 3 genuine NEOs + 1 degenerate pair).
    pub fast_mover_pairs: usize,
    /// Fraction of galaxies among primaries (the rest are stars, with a
    /// sprinkle of unknown/defect classifications).
    pub galaxy_fraction: f64,
    /// Cross-match rates into the external survey tables.
    pub usno_match_rate: f64,
    pub rosat_match_rate: f64,
    pub first_match_rate: f64,
    /// Declination of the first stripe centre, degrees.
    pub base_dec_deg: f64,
    /// Right ascension where stripes start, degrees.
    pub base_ra_deg: f64,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig::personal_skyserver()
    }
}

impl SurveyConfig {
    /// A tiny survey for unit tests (a few thousand objects).
    pub fn tiny() -> Self {
        SurveyConfig {
            seed: 271828,
            target_objects: 2_000,
            stripes: 1,
            fields_per_camcol: 4,
            stripe_length_deg: 2.0,
            ..SurveyConfig::personal_skyserver()
        }
    }

    /// The "Personal SkyServer" scale: a ~1 % cut of the survey that fits on
    /// a laptop (§10 of the paper: about 0.5 GB, a 6°x6° patch of sky).
    pub fn personal_skyserver() -> Self {
        SurveyConfig {
            seed: 42,
            target_objects: 50_000,
            stripes: 2,
            fields_per_camcol: 12,
            stripe_length_deg: 6.0,
            duplicate_fraction: 0.11,
            deblend_fraction: 0.05,
            spectro_fraction: 0.01,
            fibers_per_plate: 600,
            lines_per_spectrum: 30,
            asteroid_fraction: 1.0e-4,
            fast_mover_pairs: 4,
            galaxy_fraction: 0.55,
            usno_match_rate: 0.30,
            rosat_match_rate: 0.01,
            first_match_rate: 0.02,
            base_dec_deg: -1.25,
            base_ra_deg: 180.0,
        }
    }

    /// A benchmark-scale survey (a few hundred thousand objects).
    pub fn benchmark() -> Self {
        SurveyConfig {
            seed: 20020603, // SIGMOD 2002, June 3rd
            target_objects: 250_000,
            stripes: 3,
            fields_per_camcol: 24,
            stripe_length_deg: 15.0,
            ..SurveyConfig::personal_skyserver()
        }
    }

    /// Rough number of total photo rows (primaries + duplicates + children)
    /// this configuration will generate.
    pub fn expected_photo_rows(&self) -> usize {
        let primaries = self.target_objects as f64;
        let dups = primaries * self.duplicate_fraction;
        let children = primaries * self.deblend_fraction * 2.0;
        let parents_demoted = primaries * self.deblend_fraction;
        (primaries + dups + children + parents_demoted) as usize
    }

    /// Validate the statistical knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_objects == 0 {
            return Err("target_objects must be positive".into());
        }
        for (name, v) in [
            ("duplicate_fraction", self.duplicate_fraction),
            ("deblend_fraction", self.deblend_fraction),
            ("spectro_fraction", self.spectro_fraction),
            ("asteroid_fraction", self.asteroid_fraction),
            ("galaxy_fraction", self.galaxy_fraction),
            ("usno_match_rate", self.usno_match_rate),
            ("rosat_match_rate", self.rosat_match_rate),
            ("first_match_rate", self.first_match_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must lie in [0, 1], got {v}"));
            }
        }
        if self.stripes == 0 || self.fields_per_camcol == 0 || self.fibers_per_plate == 0 {
            return Err("geometry counts must be positive".into());
        }
        if self.stripe_length_deg <= 0.0 || self.stripe_length_deg > 120.0 {
            return Err("stripe_length_deg must be in (0, 120]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        SurveyConfig::tiny().validate().unwrap();
        SurveyConfig::personal_skyserver().validate().unwrap();
        SurveyConfig::benchmark().validate().unwrap();
    }

    #[test]
    fn default_is_personal() {
        assert_eq!(SurveyConfig::default(), SurveyConfig::personal_skyserver());
    }

    #[test]
    fn expected_rows_exceed_primaries() {
        let c = SurveyConfig::personal_skyserver();
        assert!(c.expected_photo_rows() > c.target_objects);
        // Roughly +11% dups +15% blend family members.
        assert!(c.expected_photo_rows() < c.target_objects * 13 / 10);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SurveyConfig::tiny();
        c.duplicate_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = SurveyConfig::tiny();
        c.target_objects = 0;
        assert!(c.validate().is_err());
        let mut c = SurveyConfig::tiny();
        c.stripe_length_deg = 0.0;
        assert!(c.validate().is_err());
    }
}
