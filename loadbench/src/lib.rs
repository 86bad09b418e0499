//! Closed-loop load generator for the CAD interop workbench.
//!
//! Three workloads drive the public entry points of `schematic`,
//! `migrate`, `hdl` and `sim` from outside, one seeded request stream
//! each (see `README.md` for why each exists and what every metric
//! means):
//!
//! - `migrate_cold` — distinct Viewstar designs through a fresh, shared
//!   migration cache (every request misses and inserts);
//! - `migrate_incremental` — Zipf-popular re-runs of a library whose
//!   memo footprint is twice the cache (lookups, hits and eviction);
//! - `race_sweep` — HDL text plus stimuli through parse, elaboration and
//!   the parallel cross-policy race sweep.
//!
//! Every response is checked against a reference computed during set-up
//! by an uncached, sequential path of the same library.

pub mod driver;
pub mod layers;
pub mod migrate_load;
pub mod race_load;
pub mod stats;

use std::fmt;
use std::str::FromStr;

use obs::Recorder;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Distinct designs, fresh shared cache: the cache's write path.
    MigrateCold,
    /// Popular re-runs over a working set twice the cache: its read path.
    MigrateIncremental,
    /// HDL parse, elaboration and the parallel race sweep.
    RaceSweep,
}

impl WorkloadKind {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::MigrateCold,
        WorkloadKind::MigrateIncremental,
        WorkloadKind::RaceSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::MigrateCold => "migrate_cold",
            WorkloadKind::MigrateIncremental => "migrate_incremental",
            WorkloadKind::RaceSweep => "race_sweep",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        WorkloadKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// A built workload: inputs, references and the program objects under
/// test, ready to serve requests by index.
pub enum Load {
    /// `migrate_cold` or `migrate_incremental`.
    Migrate(Box<migrate_load::MigrateLoad>),
    /// `race_sweep`.
    Race(race_load::RaceLoad),
}

impl Load {
    /// Builds `kind` at full size for `seed`, with at most `nproc`
    /// client and sweep threads.
    pub fn build(kind: WorkloadKind, seed: u64, nproc: usize) -> Result<Load, String> {
        let migrate = |mode, library_bytes| {
            migrate_load::MigrateLoad::build(
                mode,
                seed,
                nproc.min(2),
                library_bytes,
                migrate_load::CACHE_BYTES,
            )
            .map(|m| Load::Migrate(Box::new(m)))
        };
        match kind {
            WorkloadKind::MigrateCold => {
                migrate(migrate_load::Mode::Cold, migrate_load::COLD_LIBRARY_BYTES)
            }
            WorkloadKind::MigrateIncremental => migrate(
                migrate_load::Mode::Incremental,
                migrate_load::INCREMENTAL_LIBRARY_BYTES,
            ),
            WorkloadKind::RaceSweep => {
                race_load::RaceLoad::build(seed, nproc, race_load::POOL).map(Load::Race)
            }
        }
    }

    /// Closed-loop client threads.
    pub fn clients(&self) -> usize {
        match self {
            Load::Migrate(m) => m.clients(),
            Load::Race(_) => 1,
        }
    }

    /// Serves request `index`, checks its output against the reference
    /// and returns a digest of the output.
    pub fn serve(&self, index: u64, rec: &dyn Recorder) -> Result<u64, String> {
        match self {
            Load::Migrate(m) => m.serve(index, rec),
            Load::Race(r) => r.serve(index, rec),
        }
    }

    /// A stable description of request `index` (which input, which
    /// route), for checking that a seed fixes the request list.
    pub fn describe(&self, index: u64) -> String {
        match self {
            Load::Migrate(m) => m.describe(index),
            Load::Race(r) => r.describe(index),
        }
    }

    /// Facts about the generated inputs, printed with every run.
    pub fn facts(&self) -> Vec<(&'static str, String)> {
        match self {
            Load::Migrate(m) => m.facts(),
            Load::Race(r) => r.facts(),
        }
    }
}

/// SplitMix64: a small, seedable generator so that a seed fixes every
/// input on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` (a request index, a design slot...)
    /// under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
