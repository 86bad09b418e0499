//! The two migration workloads: each request is Viewstar text through
//! `viewstar::parse` → `Migrator::migrate` → `migrate::verify` →
//! `cascade::write`, with every client sharing one `MigrationCache`.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;

use interop_core::hash::hash_and_size;
use migrate::cache::DEFAULT_CAPACITY_BYTES;
use migrate::{presets, verify, MigrationCache, MigrationConfig, Migrator};
use obs::{Recorder, Span};
use schematic::design::Design;
use schematic::dialect::{DialectId, DialectRules};
use schematic::gen::{generate, GenConfig};
use schematic::{cascade, viewstar};

use crate::Rng;

/// Which migration workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The library is cycled in order through a fresh cache.
    Cold,
    /// Zipf-popular picks from a pre-warmed library, with edits and a
    /// second migrator.
    Incremental,
}

/// Memo entries a full migration leaves in the cache: one per executed
/// stage of the eight-stage chain.
const MEMOS_PER_DESIGN: usize = 8;
/// Cache budget of both migrate workloads. With the default 64 MiB, the
/// insert-and-evict churn fragments the heap and the whole process slows
/// by half or more over its first minute (11.5 → 22 ms per request on
/// `migrate_cold`, 6.5 → 10 ms on `migrate_incremental`, one client, on
/// a 2-CPU host), so the figures would depend on how long the run has
/// lasted. At 8 MiB they hold within about 10% from the first seconds.
pub const CACHE_BYTES: usize = 8 << 20;
/// Library memo footprint of `migrate_cold`: as many designs as a
/// library twice the default cache (about 208), so the seed's design
/// sizes average out; cycled in order, it never hits.
pub const COLD_LIBRARY_BYTES: usize = 2 * DEFAULT_CAPACITY_BYTES;
/// Library memo footprint of `migrate_incremental`: twice the cache, so
/// a Zipf-popular library keeps only its head warm.
pub const INCREMENTAL_LIBRARY_BYTES: usize = 2 * CACHE_BYTES;
/// One design in this many is large (32 gates × 8 pages, depth 2); the
/// rest are 16 gates × 4 pages at depth 1. Library slot `i` is also
/// popularity rank `i`, so the large slots sit at the same ranks for
/// every seed and the size mix of the requests does not drift with it.
const LARGE_EVERY: usize = 5;
/// Request slots per cycle of the incremental mix.
const MIX_PERIOD: u64 = 20;
/// Slots per cycle that edit their design first (10%).
const EDIT_SLOTS: u64 = 2;
/// Slots per cycle served by the alternate migrator (5%).
const ALTERNATE_SLOTS: u64 = 1;
/// Zipf exponent of library popularity.
const ZIPF_S: f64 = 1.0;
/// Distinct edited variants. A variant comes round again only after
/// about `EDITS / 0.1` requests, long after its memos were evicted, so
/// edits miss the cache.
const EDITS: usize = 256;

/// One request input with its expected output.
struct Doc {
    text: String,
    reference: String,
}

/// Where request `index` goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Library design through the primary migrator.
    Library(usize),
    /// Edited variant through the primary migrator.
    Edited(usize),
    /// Library design through the alternate migrator.
    Alternate(usize),
}

/// A built migration workload.
pub struct MigrateLoad {
    mode: Mode,
    seed: u64,
    clients: usize,
    library: Vec<Doc>,
    /// `library[i]` migrated by the alternate migrator (incremental).
    alternate_refs: Vec<String>,
    edits: Vec<Doc>,
    /// Cumulative Zipf weights over `library` (incremental).
    popularity: Vec<f64>,
    primary: Migrator,
    alternate: Migrator,
    cache: Arc<MigrationCache>,
    capacity_bytes: usize,
    footprint_bytes: usize,
    src_rules: DialectRules,
    dst_rules: DialectRules,
}

fn primary_config() -> MigrationConfig {
    presets::exar_style_config(4, 0)
}

/// Differs from the primary only in the globals map, the config of the
/// last stage that reads any (the text stage reads none): requests
/// through it resume from the primary's memo of the stages before.
fn alternate_config() -> MigrationConfig {
    let mut config = presets::exar_style_config(4, 0);
    config
        .globals_map
        .insert("GND".to_string(), "vss!".to_string());
    config
}

/// Library design `slot` under `seed`.
fn library_design(seed: u64, slot: usize) -> Result<Design, String> {
    let large = slot % LARGE_EVERY == LARGE_EVERY - 1;
    let (gates, pages, depth) = if large { (32, 8, 2) } else { (16, 4, 1) };
    let config = GenConfig::builder()
        .seed(Rng::new(seed, slot as u64).next_u64())
        .gates_per_page(gates)
        .pages(pages)
        .depth(depth)
        .bus_width(4)
        .build()
        .map_err(|e| format!("generator config: {e:?}"))?;
    Ok(generate(&config))
}

fn parse(text: &str) -> Result<Design, String> {
    viewstar::parse(text).map_err(|e| format!("viewstar parse: {e}"))
}

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

impl MigrateLoad {
    /// Generates a library whose memo footprint reaches `library_bytes`
    /// (and, for `Incremental`, the edits and alternate references),
    /// computes every reference with uncached sequential migrators,
    /// creates the shared cache with `capacity_bytes`, and for
    /// `Incremental` pre-warms it.
    pub fn build(
        mode: Mode,
        seed: u64,
        clients: usize,
        library_bytes: usize,
        capacity_bytes: usize,
    ) -> Result<MigrateLoad, String> {
        let reference = Migrator::new(primary_config());
        let reference_alt = Migrator::new(alternate_config());

        let mut library = Vec::new();
        let mut footprint_bytes = 0;
        while footprint_bytes < library_bytes {
            let text = viewstar::write(&library_design(seed, library.len())?);
            let outcome = reference.migrate(&parse(&text)?, DialectId::Cascade);
            footprint_bytes += MEMOS_PER_DESIGN * hash_and_size(&outcome.design).1;
            library.push(Doc {
                reference: cascade::write(&outcome.design),
                text,
            });
        }

        let mut alternate_refs = Vec::new();
        let mut edits = Vec::new();
        let mut popularity = Vec::new();
        if mode == Mode::Incremental {
            for doc in &library {
                let outcome = reference_alt.migrate(&parse(&doc.text)?, DialectId::Cascade);
                alternate_refs.push(cascade::write(&outcome.design));
            }
            for k in 0..EDITS {
                // Edits spread evenly over the library, so their size mix
                // is the library's for every seed.
                let mut design = parse(&library[k % library.len()].text)?;
                design.add_global(format!("EDIT{k}"));
                let text = viewstar::write(&design);
                let outcome = reference.migrate(&parse(&text)?, DialectId::Cascade);
                edits.push(Doc {
                    reference: cascade::write(&outcome.design),
                    text,
                });
            }
            let mut sum = 0.0;
            for rank in 0..library.len() {
                sum += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
                popularity.push(sum);
            }
        }

        let cache = Arc::new(MigrationCache::with_capacity_bytes(capacity_bytes));
        let primary = Migrator::new(primary_config()).with_cache(Arc::clone(&cache));
        let alternate = Migrator::new(alternate_config()).with_cache(Arc::clone(&cache));
        if mode == Mode::Incremental {
            // Least popular first, so the warm cache holds the head.
            for doc in library.iter().rev() {
                primary.migrate(&parse(&doc.text)?, DialectId::Cascade);
            }
        }
        Ok(MigrateLoad {
            mode,
            seed,
            clients: clients.max(1),
            library,
            alternate_refs,
            edits,
            popularity,
            primary,
            alternate,
            cache,
            capacity_bytes,
            footprint_bytes,
            src_rules: DialectRules::for_id(DialectId::Viewstar),
            dst_rules: DialectRules::for_id(DialectId::Cascade),
        })
    }

    /// Closed-loop client threads.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The shared cache (for statistics deltas).
    pub fn cache(&self) -> &MigrationCache {
        &self.cache
    }

    fn popular(&self, rng: &mut Rng) -> usize {
        let total = self.popularity.last().copied().unwrap_or(0.0);
        let x = rng.unit() * total;
        self.popularity
            .partition_point(|&c| c <= x)
            .min(self.library.len() - 1)
    }

    /// Where request `index` goes. The incremental mix is stratified —
    /// exactly 2 edits and 1 alternate in every 20 consecutive requests —
    /// so the mix does not drift with the seed.
    pub fn route(&self, index: u64) -> Route {
        match self.mode {
            Mode::Cold => Route::Library((index % self.library.len() as u64) as usize),
            Mode::Incremental => {
                let mut rng = Rng::new(self.seed, index);
                let slot = index % MIX_PERIOD;
                if slot < EDIT_SLOTS {
                    Route::Edited(rng.below(self.edits.len() as u64) as usize)
                } else if slot < EDIT_SLOTS + ALTERNATE_SLOTS {
                    Route::Alternate(self.popular(&mut rng))
                } else {
                    Route::Library(self.popular(&mut rng))
                }
            }
        }
    }

    /// Serves request `index` and checks it: the migration must verify
    /// and its Cascade text must equal the reference byte for byte.
    pub fn serve(&self, index: u64, rec: &dyn Recorder) -> Result<u64, String> {
        let (text, reference, migrator) = match self.route(index) {
            Route::Library(i) => (
                &self.library[i].text,
                &self.library[i].reference,
                &self.primary,
            ),
            Route::Edited(i) => (&self.edits[i].text, &self.edits[i].reference, &self.primary),
            Route::Alternate(i) => (
                &self.library[i].text,
                &self.alternate_refs[i],
                &self.alternate,
            ),
        };
        rec.add_counter("loadbench.viewstar_bytes", text.len() as u64);
        let design = {
            let _span = Span::enter(rec, "schematic.viewstar_parse");
            parse(text)?
        };
        let outcome = {
            let _span = Span::enter(rec, "migrate.migrate");
            migrator.migrate_recorded(&design, DialectId::Cascade, rec)
        };
        let report = {
            let _span = Span::enter(rec, "migrate.verify");
            verify(
                &design,
                &self.src_rules,
                &outcome.design,
                &self.dst_rules,
                migrator.config(),
            )
        };
        if !report.is_verified() {
            return Err(format!(
                "request {index}: verification failed: {}",
                report.summary()
            ));
        }
        let out = {
            let _span = Span::enter(rec, "schematic.cascade_write");
            cascade::write(&outcome.design)
        };
        if out != *reference {
            return Err(format!(
                "request {index}: output differs from the reference"
            ));
        }
        Ok(digest(&out))
    }

    /// Route and input digest of request `index`.
    pub fn describe(&self, index: u64) -> String {
        let text = match self.route(index) {
            Route::Library(i) | Route::Alternate(i) => &self.library[i].text,
            Route::Edited(i) => &self.edits[i].text,
        };
        format!("{:?} input={:016x}", self.route(index), digest(text))
    }

    /// Library size and footprint relative to the cache budget.
    pub fn facts(&self) -> Vec<(&'static str, String)> {
        let stats = self.cache.stats();
        vec![
            ("library_designs", self.library.len().to_string()),
            ("edited_variants", self.edits.len().to_string()),
            (
                "library_memo_mb",
                format!("{:.1}", self.footprint_bytes as f64 / (1 << 20) as f64),
            ),
            (
                "cache_capacity_mb",
                format!("{:.1}", self.capacity_bytes as f64 / (1 << 20) as f64),
            ),
            ("cache_entries_after_setup", stats.entries.to_string()),
        ]
    }
}
