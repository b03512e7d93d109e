//! Simulation parameters, mirroring Table 2 of the paper.

/// How shelves are scanned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShelfScanMode {
    /// One static reader per shelf, interrogating every `period_secs`
    /// seconds (Table 2: every 10 seconds).
    Static {
        /// Interrogation period of each shelf reader, in seconds.
        period_secs: u32,
    },
    /// A mobile reader sweeps an aisle of shelves, spending `dwell_secs` at
    /// each shelf and reading every second while there (Section 5.3's
    /// scalability variant: 90 shelves per aisle, 10 s per shelf).
    Mobile {
        /// Seconds the mobile reader spends in front of each shelf.
        dwell_secs: u32,
        /// Number of shelves covered by one mobile reader (one aisle).
        shelves_per_aisle: u32,
    },
}

impl ShelfScanMode {
    /// The default static-shelf-reader mode of Table 2.
    pub fn default_static() -> ShelfScanMode {
        ShelfScanMode::Static { period_secs: 10 }
    }
}

/// Parameters of a single simulated warehouse (one site), following Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseConfig {
    /// Trace length in seconds.
    pub length_secs: u32,
    /// Seconds between two pallet injections at the entry door (Table 2:
    /// one every 60 seconds).
    pub pallet_injection_interval: u32,
    /// Cases per pallet (Table 2: 5).
    pub cases_per_pallet: u32,
    /// Items per case (Table 2: 20).
    pub items_per_case: u32,
    /// Main read rate RR of every reader for tags at its own location.
    pub read_rate: f64,
    /// Overlap rate OR: probability that a shelf reader reads a tag on an
    /// adjacent shelf.
    pub overlap_rate: f64,
    /// Background probability that any reader detects a tag that is neither
    /// at its location nor on an adjacent shelf (radio-frequency stray
    /// reads; essentially zero).
    pub background_rate: f64,
    /// Interrogation period of non-shelf readers (entry, belt, exit) in
    /// seconds (Table 2: 1).
    pub non_shelf_period: u32,
    /// How shelves are scanned.
    pub shelf_scan: ShelfScanMode,
    /// Number of shelf locations in the warehouse.
    pub num_shelves: u32,
    /// Seconds a newly arrived pallet (and its cases) spends at the entry
    /// door before unpacking.
    pub entry_dwell: u32,
    /// Seconds each case spends on the conveyor belt (cases go one at a
    /// time).
    pub belt_dwell: u32,
    /// Seconds a case spends on its shelf before being repacked. The actual
    /// dwell is sampled uniformly from `[shelf_dwell_min, shelf_dwell_max]`.
    pub shelf_dwell_min: u32,
    /// Upper bound of the shelf dwell.
    pub shelf_dwell_max: u32,
    /// Seconds an assembled pallet spends at the exit door before departing.
    pub exit_dwell: u32,
    /// Interval between injected containment anomalies in seconds
    /// (`None` = stable containment). Table 2: FA between 10 and 120 s.
    pub anomaly_interval: Option<u32>,
    /// RNG seed; every derived stream (readings, dwells, anomalies) is
    /// deterministic given this seed.
    pub seed: u64,
}

impl Default for WarehouseConfig {
    fn default() -> WarehouseConfig {
        WarehouseConfig {
            length_secs: 1500,
            pallet_injection_interval: 60,
            cases_per_pallet: 5,
            items_per_case: 20,
            read_rate: 0.8,
            overlap_rate: 0.5,
            background_rate: 1e-4,
            non_shelf_period: 1,
            shelf_scan: ShelfScanMode::default_static(),
            num_shelves: 8,
            entry_dwell: 30,
            belt_dwell: 10,
            shelf_dwell_min: 300,
            shelf_dwell_max: 900,
            exit_dwell: 30,
            anomaly_interval: None,
            seed: 7,
        }
    }
}

impl WarehouseConfig {
    /// Builder-style setter for the trace length.
    pub fn with_length(mut self, secs: u32) -> Self {
        self.length_secs = secs;
        self
    }

    /// Builder-style setter for the read rate RR.
    pub fn with_read_rate(mut self, rr: f64) -> Self {
        self.read_rate = rr;
        self
    }

    /// Builder-style setter for the anomaly interval FA.
    pub fn with_anomaly_interval(mut self, secs: u32) -> Self {
        self.anomaly_interval = Some(secs);
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the number of items per case.
    pub fn with_items_per_case(mut self, n: u32) -> Self {
        self.items_per_case = n;
        self
    }

    /// Builder-style setter for the number of cases per pallet.
    pub fn with_cases_per_pallet(mut self, n: u32) -> Self {
        self.cases_per_pallet = n;
        self
    }

    /// Number of reader locations in this warehouse: entry + belt + shelves
    /// + exit.
    pub fn num_locations(&self) -> usize {
        2 + self.num_shelves as usize + 1
    }

    /// Expected number of pallets injected over the trace (one injection at
    /// every multiple of the injection interval strictly before the horizon).
    pub fn num_pallets(&self) -> u32 {
        self.length_secs.div_ceil(self.pallet_injection_interval)
    }

    /// Validate parameter sanity, returning a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.read_rate) {
            return Err(format!(
                "read_rate must be in [0,1], got {}",
                self.read_rate
            ));
        }
        if !(0.0..=1.0).contains(&self.overlap_rate) {
            return Err(format!(
                "overlap_rate must be in [0,1], got {}",
                self.overlap_rate
            ));
        }
        if self.cases_per_pallet == 0 || self.items_per_case == 0 {
            return Err("cases_per_pallet and items_per_case must be positive".into());
        }
        if self.num_shelves == 0 {
            return Err("num_shelves must be positive".into());
        }
        if self.shelf_dwell_max < self.shelf_dwell_min {
            return Err("shelf_dwell_max must be >= shelf_dwell_min".into());
        }
        if self.pallet_injection_interval == 0 || self.length_secs == 0 {
            return Err("pallet_injection_interval and length_secs must be positive".into());
        }
        if self.anomaly_interval == Some(0) {
            return Err("anomaly_interval must be positive (None = stable containment)".into());
        }
        Ok(())
    }
}

/// Parameters of a multi-warehouse supply chain (Section 5.3): `N` warehouses
/// arranged in a single-source DAG; pallets are injected at the source and
/// move through a sequence of warehouses, dispatched round-robin to the
/// successors of each node.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainConfig {
    /// Per-warehouse configuration (shared by all warehouses).
    pub warehouse: WarehouseConfig,
    /// Number of warehouses N (Table 2: 1–10).
    pub num_warehouses: u32,
    /// Transit time between two warehouses in seconds.
    pub transit_secs: u32,
    /// Number of downstream warehouses each warehouse dispatches to
    /// (successors in the DAG); the chain is generated in levels.
    pub fanout: u32,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            warehouse: WarehouseConfig::default(),
            num_warehouses: 3,
            transit_secs: 120,
            fanout: 2,
        }
    }
}

impl ChainConfig {
    /// Successors of warehouse `w` in the single-source DAG.
    ///
    /// Warehouses are numbered in breadth-first order from the source (0).
    /// Warehouse `w` dispatches to warehouses `w*fanout + 1 ..= w*fanout +
    /// fanout` that exist; a warehouse with no successors is a final
    /// destination.
    pub fn successors(&self, w: u32) -> Vec<u32> {
        (1..=self.fanout)
            .map(|k| w * self.fanout + k)
            .filter(|&s| s < self.num_warehouses)
            .collect()
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        self.warehouse.validate()?;
        if self.num_warehouses == 0 {
            return Err("num_warehouses must be positive".into());
        }
        if self.fanout == 0 {
            return Err("fanout must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_table2() {
        let c = WarehouseConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.pallet_injection_interval, 60);
        assert_eq!(c.cases_per_pallet, 5);
        assert_eq!(c.items_per_case, 20);
        assert_eq!(c.non_shelf_period, 1);
        assert_eq!(c.shelf_scan, ShelfScanMode::Static { period_secs: 10 });
        assert_eq!(c.num_locations(), 11);
    }

    #[test]
    fn builders_set_fields() {
        let c = WarehouseConfig::default()
            .with_length(600)
            .with_read_rate(0.6)
            .with_anomaly_interval(20)
            .with_seed(99)
            .with_items_per_case(5)
            .with_cases_per_pallet(4);
        assert_eq!(c.length_secs, 600);
        assert!((c.read_rate - 0.6).abs() < 1e-12);
        assert_eq!(c.anomaly_interval, Some(20));
        assert_eq!(c.seed, 99);
        assert_eq!(c.items_per_case, 5);
        assert_eq!(c.cases_per_pallet, 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(WarehouseConfig {
            read_rate: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WarehouseConfig {
            overlap_rate: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WarehouseConfig {
            items_per_case: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WarehouseConfig {
            num_shelves: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WarehouseConfig {
            shelf_dwell_min: 100,
            shelf_dwell_max: 50,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ChainConfig {
            num_warehouses: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ChainConfig {
            fanout: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn a_zero_anomaly_interval_is_rejected() {
        // Both simulators step anomalies by the interval; zero would never
        // advance. Validation turns it away before either runs.
        let zero = WarehouseConfig::default().with_anomaly_interval(0);
        assert!(zero.validate().is_err());
        assert!(ChainConfig {
            warehouse: zero,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WarehouseConfig::default()
            .with_anomaly_interval(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn chain_successors_form_single_source_dag() {
        let chain = ChainConfig {
            num_warehouses: 7,
            fanout: 2,
            ..Default::default()
        };
        assert_eq!(chain.successors(0), vec![1, 2]);
        assert_eq!(chain.successors(1), vec![3, 4]);
        assert_eq!(chain.successors(2), vec![5, 6]);
        assert!(chain.successors(3).is_empty());
        // every non-source warehouse is reachable exactly once (tree)
        let mut reached = [0u32; 7];
        for w in 0..7 {
            for s in chain.successors(w) {
                reached[s as usize] += 1;
            }
        }
        assert_eq!(reached[0], 0);
        assert!(reached[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn num_pallets_counts_injections() {
        let c = WarehouseConfig::default().with_length(600);
        assert_eq!(c.num_pallets(), 10);
        assert_eq!(c.with_length(630).num_pallets(), 11);
    }
}
