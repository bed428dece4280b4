//! Analytic model of the SkyServer's I/O and CPU hardware (§12, Fig 14/15).
//!
//! The paper's evaluation hardware is a Compaq ML530 with two 1 GHz Pentium
//! III Xeon CPUs, 2 GB of RAM, two Ultra3 SCSI controllers and ten 10 kRPM
//! SCSI disks, plus several measured constants:
//!
//! * one disk delivers ~40 MB/s of sequential bandwidth,
//! * three disks saturate one Ultra3 controller at ~119 MB/s,
//! * a 64-bit/33 MHz PCI bus saturates at ~220 MB/s,
//! * memory streams at ~600 MB/s (single threaded),
//! * SQL Server evaluates a trivial `count(*)` at ~10 CPU clocks per byte
//!   (≈2.6 M records/s, 75 % CPU on 9 disks ≈ 320 MB/s) and the filtered
//!   `count(*) where (r-g)>1` at ~19 clocks per byte (CPU bound),
//! * warm (in-memory) scans run at ~5 M records/s.
//!
//! We cannot buy that machine, so this module reproduces the *model*: given
//! a disk/controller configuration and a per-record CPU cost it predicts the
//! sequential scan bandwidth and converts a scan's bytes/rows into simulated
//! elapsed and CPU seconds.  The `reproduce fig15` harness sweeps disk
//! configurations through this model, and the Figure 13 harness projects
//! each query's recorded [`ScanStats`] with [`IoSimulator::project`] to
//! report paper-scale seconds next to measured wall-clock times.  The SQL
//! engine itself never consults the model.

use crate::stats::ScanStats;

/// Hardware constants measured in the paper (all bandwidths in MB/s).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HardwareProfile {
    /// Sequential bandwidth of a single disk.
    pub disk_mbps: f64,
    /// Saturation bandwidth of one SCSI controller.
    pub controller_mbps: f64,
    /// Saturation bandwidth of one 64-bit/33 MHz PCI bus.
    pub pci_bus_mbps: f64,
    /// Single-threaded memory bandwidth.
    pub memory_mbps: f64,
    /// CPU clock rate in MHz (1 GHz Pentium III Xeon).
    pub cpu_mhz: f64,
    /// Number of CPUs available to a parallel scan.
    pub cpus: u32,
    /// Maximum number of disks one controller is attached to.
    pub disks_per_controller: u32,
    /// Maximum number of controllers one PCI bus can feed before saturating.
    pub controllers_per_bus: u32,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile::skyserver_ml530()
    }
}

impl HardwareProfile {
    /// The backend database server of the paper (Compaq ProLiant ML530).
    pub fn skyserver_ml530() -> Self {
        HardwareProfile {
            disk_mbps: 40.0,
            controller_mbps: 119.0,
            pci_bus_mbps: 220.0,
            memory_mbps: 600.0,
            cpu_mhz: 1000.0,
            cpus: 2,
            disks_per_controller: 3,
            controllers_per_bus: 2,
        }
    }

    /// The web front-end (Compaq DL380): same CPUs, single mirrored disk.
    pub fn skyserver_dl380() -> Self {
        HardwareProfile {
            cpus: 2,
            ..HardwareProfile::skyserver_ml530()
        }
    }
}

/// CPU cost model for record processing, in clocks per byte (cpb).
/// The paper reports ~10 cpb for a trivial predicate and ~19 cpb for the
/// `(r-g) > 1` filter (~1 300 and ~2 300 clocks per 128-byte record).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuCost {
    /// Clocks of CPU work per byte scanned.
    pub clocks_per_byte: f64,
}

impl CpuCost {
    /// Trivial `select count(*)` scan.
    pub fn simple_scan() -> Self {
        CpuCost {
            clocks_per_byte: 10.0,
        }
    }

    /// Scan with an arithmetic predicate like `(r-g) > 1`.
    pub fn filtered_scan() -> Self {
        CpuCost {
            clocks_per_byte: 19.0,
        }
    }

    /// Raw file copy (NTFS scan): almost no per-byte CPU.
    pub fn raw_copy() -> Self {
        CpuCost {
            clocks_per_byte: 1.2,
        }
    }

    /// Index lookup path: dominated by per-row logic rather than bytes.
    pub fn index_lookup() -> Self {
        CpuCost {
            clocks_per_byte: 25.0,
        }
    }

    /// Arbitrary cost.
    pub fn new(clocks_per_byte: f64) -> Self {
        CpuCost { clocks_per_byte }
    }
}

/// A disk subsystem configuration (how many spindles/controllers/buses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DiskConfig {
    /// Number of spindles.
    pub disks: u32,
    /// Number of disk controllers.
    pub controllers: u32,
    /// Number of PCI buses the controllers share.
    pub pci_buses: u32,
}

impl DiskConfig {
    /// A configuration with `disks` spindles and one controller per
    /// `disks_per_controller` disks (the paper added a controller for every
    /// three disks), all on one PCI bus.
    pub fn balanced(disks: u32, profile: &HardwareProfile) -> Self {
        let controllers = disks.div_ceil(profile.disks_per_controller).max(1);
        DiskConfig {
            disks,
            controllers,
            pci_buses: 1,
        }
    }

    /// The paper's "12 disk, 2 volume" point: the 12-disk configuration with
    /// the controllers split over two PCI buses.
    pub fn two_volume(disks: u32, profile: &HardwareProfile) -> Self {
        let controllers = disks.div_ceil(profile.disks_per_controller).max(1);
        DiskConfig {
            disks,
            controllers,
            pci_buses: 2,
        }
    }

    /// The production SkyServer database volume: 4 data mirrors on 2
    /// controllers (≈140 MB/s scans, §12).
    pub fn skyserver_production() -> Self {
        DiskConfig {
            disks: 4,
            controllers: 2,
            pci_buses: 1,
        }
    }
}

/// The I/O simulator: combines a hardware profile with a disk configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoSimulator {
    /// Per-component hardware speeds.
    pub profile: HardwareProfile,
    /// Disk subsystem shape.
    pub config: DiskConfig,
}

/// Simulated timing of a scan or lookup.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SimTiming {
    /// CPU seconds consumed (summed over cores).
    pub cpu_seconds: f64,
    /// Wall-clock seconds (max of IO time and per-core CPU time).
    pub elapsed_seconds: f64,
    /// Whether the workload was I/O bound (elapsed dominated by the disks).
    pub io_bound: bool,
    /// Effective sequential bandwidth achieved, MB/s.
    pub effective_mbps: f64,
}

impl IoSimulator {
    /// Build a simulator for the given configuration.
    pub fn new(profile: HardwareProfile, config: DiskConfig) -> Self {
        IoSimulator { profile, config }
    }

    /// The paper's production database server (4 data disks, 2 controllers).
    pub fn skyserver_production() -> Self {
        IoSimulator::new(
            HardwareProfile::skyserver_ml530(),
            DiskConfig::skyserver_production(),
        )
    }

    /// Raw hardware sequential bandwidth of the disk path (before any CPU
    /// limits): min of disk, controller and bus aggregate bandwidths.
    pub fn raw_io_mbps(&self) -> f64 {
        let p = &self.profile;
        let disks = f64::from(self.config.disks) * p.disk_mbps;
        let controllers = f64::from(self.config.controllers) * p.controller_mbps;
        let buses = f64::from(self.config.pci_buses) * p.pci_bus_mbps;
        disks
            .min(controllers)
            .min(buses)
            .min(p.memory_mbps * f64::from(self.config.pci_buses))
    }

    /// CPU-limited processing bandwidth in MB/s for the given per-byte cost,
    /// using all CPUs.
    pub fn cpu_mbps(&self, cost: CpuCost) -> f64 {
        let clocks_per_sec = self.profile.cpu_mhz * 1e6 * f64::from(self.profile.cpus);
        clocks_per_sec / cost.clocks_per_byte / 1e6
    }

    /// Effective sequential scan bandwidth: the minimum of the I/O path and
    /// the CPU processing rate (this is the Fig 15 curve).
    pub fn scan_mbps(&self, cost: CpuCost) -> f64 {
        self.raw_io_mbps().min(self.cpu_mbps(cost))
    }

    /// Simulate a sequential scan of `bytes` bytes with the given CPU cost.
    pub fn simulate_scan(&self, bytes: u64, cost: CpuCost) -> SimTiming {
        let mb = bytes as f64 / 1e6;
        let io_seconds = mb / self.raw_io_mbps();
        let cpu_seconds = mb / self.cpu_mbps(cost) * f64::from(self.profile.cpus);
        let per_core_cpu = cpu_seconds / f64::from(self.profile.cpus);
        let elapsed = io_seconds.max(per_core_cpu);
        SimTiming {
            cpu_seconds,
            elapsed_seconds: elapsed,
            io_bound: io_seconds >= per_core_cpu,
            effective_mbps: if elapsed > 0.0 { mb / elapsed } else { 0.0 },
        }
    }

    /// Simulate a warm (in-memory) scan: limited by memory bandwidth and CPU.
    pub fn simulate_warm_scan(&self, bytes: u64, cost: CpuCost) -> SimTiming {
        let mb = bytes as f64 / 1e6;
        let mem_seconds = mb / self.profile.memory_mbps;
        let cpu_seconds = mb / self.cpu_mbps(cost) * f64::from(self.profile.cpus);
        let per_core_cpu = cpu_seconds / f64::from(self.profile.cpus);
        let elapsed = mem_seconds.max(per_core_cpu);
        SimTiming {
            cpu_seconds,
            elapsed_seconds: elapsed,
            io_bound: false,
            effective_mbps: if elapsed > 0.0 { mb / elapsed } else { 0.0 },
        }
    }

    /// Simulate `lookups` random index lookups touching `bytes_per_lookup`
    /// each.  Random 8 KB-page reads cost a seek (~5 ms cold); warm lookups
    /// run from cache.
    pub fn simulate_index_lookups(
        &self,
        lookups: u64,
        bytes_per_lookup: u64,
        warm: bool,
    ) -> SimTiming {
        let seek_seconds = if warm { 0.0 } else { 0.005 };
        let per_lookup_io =
            seek_seconds + (bytes_per_lookup as f64 / 1e6) / self.profile.disk_mbps.max(1.0);
        // Random IOs spread over the spindles.
        let io_seconds = per_lookup_io * lookups as f64 / f64::from(self.config.disks.max(1));
        let cpu_seconds = lookups as f64 * 20_000.0 / (self.profile.cpu_mhz * 1e6);
        let elapsed = io_seconds.max(cpu_seconds / f64::from(self.profile.cpus));
        SimTiming {
            cpu_seconds,
            elapsed_seconds: elapsed,
            io_bound: io_seconds >= cpu_seconds,
            effective_mbps: 0.0,
        }
    }

    /// Project a statement's recorded access counters onto this hardware:
    /// heap and index bytes become scans at `cost`, index seeks become warm
    /// lookups.  `scale` multiplies the data volume (1 = the catalog as
    /// loaded; the paper-scale factor projects to the 14 M-object release).
    /// Bytes grow linearly with it, seeks with its square root.
    pub fn project(&self, stats: &ScanStats, cost: CpuCost, scale: f64) -> SimTiming {
        // The model is the paper's row store, where a heap scan reads whole
        // rows: prefer the full-row-equivalent counter when the columnar
        // engine touched fewer bytes than a row store would.
        let seq_bytes =
            (stats.bytes_scanned.max(stats.logical_bytes_scanned) as f64 * scale) as u64;
        let idx_bytes = (stats.bytes_from_index as f64 * scale) as u64;
        let seeks = ((stats.index_seeks as f64) * scale.sqrt()).round() as u64;
        let seq = self.simulate_scan(seq_bytes, cost);
        // Index access: covered columns stream ~10x denser, treat as a scan
        // of the index bytes plus per-seek costs.
        let idx_scan = self.simulate_scan(idx_bytes, cost);
        let lookups = self.simulate_index_lookups(seeks, 8192, true);
        SimTiming {
            cpu_seconds: seq.cpu_seconds + idx_scan.cpu_seconds + lookups.cpu_seconds,
            elapsed_seconds: seq.elapsed_seconds
                + idx_scan.elapsed_seconds
                + lookups.elapsed_seconds,
            io_bound: seq.io_bound,
            effective_mbps: seq.effective_mbps,
        }
    }

    /// Records per second achievable for a scan of records of `record_bytes`
    /// bytes (the paper quotes 2.6-2.7 M records/s for 128-byte tag records).
    pub fn records_per_second(&self, record_bytes: u64, cost: CpuCost) -> f64 {
        self.scan_mbps(cost) * 1e6 / record_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(disks: u32) -> IoSimulator {
        let p = HardwareProfile::skyserver_ml530();
        IoSimulator::new(p, DiskConfig::balanced(disks, &p))
    }

    #[test]
    fn single_disk_runs_at_disk_speed() {
        let s = sim(1);
        assert!((s.raw_io_mbps() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn three_disks_saturate_one_controller() {
        // 3 disks * 40 = 120 > 119 controller cap.
        let s = sim(3);
        assert!((s.raw_io_mbps() - 119.0).abs() < 1e-9);
        // 2 disks stay below the controller limit.
        assert!((sim(2).raw_io_mbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn pci_bus_caps_many_controllers() {
        // 9 disks => 3 controllers => 357 raw, capped by one PCI bus at 220.
        let s = sim(9);
        assert!((s.raw_io_mbps() - 220.0).abs() < 1e-9);
        // Two buses lift the cap.
        let p = HardwareProfile::skyserver_ml530();
        let two_vol = IoSimulator::new(p, DiskConfig::two_volume(12, &p));
        assert!(two_vol.raw_io_mbps() > s.raw_io_mbps());
    }

    #[test]
    fn sql_scan_saturates_cpu_around_320_mbps() {
        // 2 CPUs * 1 GHz / 10 cpb = 200 MB/s... the paper reports ~320 MB/s
        // at 75 % CPU, i.e. the effective cost is nearer 6-7 cpb, but the
        // relationship we need is: with many disks the scan becomes CPU
        // bound well below the raw-IO ceiling.
        let p = HardwareProfile::skyserver_ml530();
        let s = IoSimulator::new(p, DiskConfig::two_volume(12, &p));
        let sql = s.scan_mbps(CpuCost::simple_scan());
        let raw = s.scan_mbps(CpuCost::raw_copy());
        assert!(sql < raw, "SQL scan should saturate below raw NTFS scan");
        assert!(
            raw > 300.0,
            "raw scan should exceed 300 MB/s on 12 disks/2 buses"
        );
    }

    #[test]
    fn filtered_scan_is_cpu_bound_on_production_config() {
        let s = IoSimulator::skyserver_production();
        let t = s.simulate_scan(30_000_000_000, CpuCost::filtered_scan());
        // 30 GB at 140 MB/s raw would be ~214 s; the 19 cpb predicate gives
        // 30e9*19/2e9 = 285 s of CPU over 2 cores ≈ 142 s per core, so this
        // workload sits near the IO/CPU crossover. The simple scan must be
        // strictly IO bound.
        let simple = s.simulate_scan(30_000_000_000, CpuCost::simple_scan());
        assert!(simple.io_bound);
        assert!(
            simple.elapsed_seconds > 150.0 && simple.elapsed_seconds < 260.0,
            "30GB scan at ~140MB/s should take ~3.5 minutes, got {}",
            simple.elapsed_seconds
        );
        assert!(t.cpu_seconds > simple.cpu_seconds);
    }

    #[test]
    fn production_scan_bandwidth_near_140_mbps() {
        let s = IoSimulator::skyserver_production();
        let mbps = s.scan_mbps(CpuCost::simple_scan());
        assert!((139.0..=161.0).contains(&mbps), "got {mbps}");
    }

    #[test]
    fn warm_scan_faster_than_cold() {
        let s = IoSimulator::skyserver_production();
        let cold = s.simulate_scan(2_000_000_000, CpuCost::simple_scan());
        let warm = s.simulate_warm_scan(2_000_000_000, CpuCost::simple_scan());
        assert!(warm.elapsed_seconds < cold.elapsed_seconds);
    }

    #[test]
    fn index_lookups_warm_vs_cold() {
        let s = IoSimulator::skyserver_production();
        let cold = s.simulate_index_lookups(1000, 8192, false);
        let warm = s.simulate_index_lookups(1000, 8192, true);
        assert!(cold.elapsed_seconds > warm.elapsed_seconds);
        assert!(
            cold.elapsed_seconds < 10.0,
            "1000 cold lookups spread over 4 disks"
        );
    }

    #[test]
    fn records_per_second_scale() {
        let p = HardwareProfile::skyserver_ml530();
        let s = IoSimulator::new(p, DiskConfig::balanced(9, &p));
        let rps = s.records_per_second(128, CpuCost::simple_scan());
        // Paper: ~2.6-2.7 million 128-byte records/s. Our model gives
        // min(220 raw, 200 cpu) / 128 B ≈ 1.56 M/s -- same order of magnitude.
        assert!(rps > 1.0e6 && rps < 4.0e6, "got {rps}");
    }

    /// Counters that touch every term of the projection: heap bytes below
    /// their full-row equivalent, index bytes and seeks.
    fn recorded() -> ScanStats {
        ScanStats {
            rows_scanned: 100_000,
            bytes_scanned: 200_000_000,
            logical_bytes_scanned: 250_000_000,
            rows_from_index: 5_000,
            bytes_from_index: 30_000_000,
            index_seeks: 40,
            ..Default::default()
        }
    }

    fn timing(cpu: f64, elapsed: f64, io_bound: bool, mbps: f64) -> SimTiming {
        SimTiming {
            cpu_seconds: cpu,
            elapsed_seconds: elapsed,
            io_bound,
            effective_mbps: mbps,
        }
    }

    #[test]
    fn projection_matches_the_recorded_figures() {
        // Pinned figures: Figures 10-13 print these numbers, so any change
        // to the projection's arithmetic must show up here.
        let s = IoSimulator::skyserver_production();
        let simple = CpuCost::simple_scan();
        let heavy = CpuCost::filtered_scan();
        let cases = [
            (
                simple,
                1.0,
                timing(2.8007999999999997, 1.752048, true, 160.0),
            ),
            (simple, 280.0, timing(784.01338, 490.0342528, true, 160.0)),
            (
                heavy,
                1.0,
                timing(5.3208, 2.662048, false, 105.26315789473684),
            ),
            (
                heavy,
                280.0,
                timing(1489.61338, 744.8342528, false, 105.26315789473684),
            ),
        ];
        for (cost, scale, expected) in cases {
            assert_eq!(
                s.project(&recorded(), cost, scale),
                expected,
                "{cost:?} x{scale}"
            );
        }
    }

    #[test]
    fn projection_grows_with_the_paper_scale() {
        let s = IoSimulator::skyserver_production();
        let stats = ScanStats {
            rows_scanned: 100_000,
            bytes_scanned: 200_000_000,
            ..Default::default()
        };
        let small = s.project(&stats, CpuCost::simple_scan(), 1.0);
        let big = s.project(&stats, CpuCost::simple_scan(), 140.0); // 100k -> 14M rows
        assert!(
            big.elapsed_seconds > small.elapsed_seconds * 50.0,
            "paper-scale projection should be ~140x slower"
        );
    }

    #[test]
    fn predicate_heavy_projection_costs_more_cpu() {
        let s = IoSimulator::skyserver_production();
        let stats = ScanStats {
            bytes_scanned: 1_000_000_000,
            ..Default::default()
        };
        let cheap = s.project(&stats, CpuCost::simple_scan(), 1.0);
        let heavy = s.project(&stats, CpuCost::filtered_scan(), 1.0);
        assert!(heavy.cpu_seconds > cheap.cpu_seconds);
    }

    #[test]
    fn bandwidth_monotone_in_disk_count() {
        let mut last = 0.0;
        for d in 1..=12 {
            let mbps = sim(d).raw_io_mbps();
            assert!(
                mbps >= last,
                "bandwidth must not decrease when adding disks"
            );
            last = mbps;
        }
    }

    #[test]
    fn scan_timing_effective_mbps_consistent() {
        let s = sim(4);
        let t = s.simulate_scan(10_000_000_000, CpuCost::simple_scan());
        assert!(t.elapsed_seconds > 0.0);
        let expected = 10_000.0 / t.elapsed_seconds;
        assert!((t.effective_mbps - expected).abs() < 1.0);
    }
}
