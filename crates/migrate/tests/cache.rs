//! Property tests for the content-addressed migration cache: warm
//! re-runs must be byte-identical to cold runs at any thread count,
//! invalidation must be exact (one edited design, one edited config
//! knob), quarantined designs must never be served warm, and the byte
//! accounting must match the live entries, also under concurrent use.

use std::sync::{Arc, Barrier};

use interop_core::hash::{hash_and_size, hash_of, size_of};
use migrate::batch::{migrate_batch_recorded, migrate_batch_resilient, BatchConfig};
use migrate::cache::{CachedRun, Lookup, MigrationCache, StageChain};
use migrate::checkpoint::Checkpoint;
use migrate::{
    presets, FaultKind, FaultPlan, MigrationConfig, Migrator, RetryPolicy, StageId, StageReport,
};
use obs::{MemoryRecorder, NullRecorder};
use proptest::prelude::*;
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

fn designs(n: u64) -> Vec<Design> {
    (0..n)
        .map(|seed| {
            generate(&GenConfig {
                seed,
                ..GenConfig::default()
            })
        })
        .collect()
}

fn emitted(outcomes: &[migrate::MigrationOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| schematic::cascade::write(&o.design))
        .collect()
}

#[test]
fn warm_batch_is_byte_identical_to_cold_at_one_and_eight_threads() {
    let sources = designs(6);
    for threads in [1usize, 8] {
        let cache = Arc::new(MigrationCache::new());
        let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
        let batch = BatchConfig::with_threads(threads);

        let cold_rec = MemoryRecorder::new();
        let cold =
            migrate_batch_recorded(&migrator, &sources, DialectId::Cascade, &batch, &cold_rec);
        assert_eq!(
            cold_rec.counter("migrate.cache.miss"),
            6,
            "threads={threads}"
        );
        assert_eq!(
            cold_rec.counter("migrate.cache.hit"),
            0,
            "threads={threads}"
        );

        let warm_rec = MemoryRecorder::new();
        let warm =
            migrate_batch_recorded(&migrator, &sources, DialectId::Cascade, &batch, &warm_rec);
        assert_eq!(
            warm_rec.counter("migrate.cache.hit"),
            6,
            "threads={threads}"
        );
        assert_eq!(
            warm_rec.counter("migrate.cache.miss"),
            0,
            "threads={threads}"
        );
        assert_eq!(emitted(&cold), emitted(&warm), "threads={threads}");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.design, w.design);
            assert_eq!(format!("{}", c.report), format!("{}", w.report));
        }
        assert!(cache.stats().hits >= 6);
    }
}

#[test]
fn editing_one_design_invalidates_exactly_that_design() {
    let mut sources = designs(4);
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::default().with_cache(cache.clone());
    let batch = BatchConfig::with_threads(1);
    migrate_batch_recorded(
        &migrator,
        &sources,
        DialectId::Cascade,
        &batch,
        &NullRecorder,
    );

    // Touch one global in design 2; every other design stays warm.
    sources[2].add_global("CACHE_EDIT");
    let recorder = MemoryRecorder::new();
    migrate_batch_recorded(&migrator, &sources, DialectId::Cascade, &batch, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 3);
    assert_eq!(recorder.counter("migrate.cache.miss"), 1);
}

#[test]
fn editing_one_config_knob_invalidates_only_the_affected_suffix() {
    let source = &designs(1)[0];
    let cache = Arc::new(MigrationCache::new());
    let warmer = Migrator::new(MigrationConfig::default()).with_cache(cache.clone());
    warmer.migrate(source, DialectId::Cascade);

    // A different globals_map changes only the globals stage's config
    // fingerprint — the pipeline must resume from the memo after the
    // connectors stage, not start over (and not hit the full chain).
    let edited = MigrationConfig::builder()
        .rename_global("VDD", "vdd!")
        .build()
        .expect("valid config");
    let patched = Migrator::new(edited).with_cache(cache.clone());
    let recorder = MemoryRecorder::new();
    let warm = patched.migrate_recorded(source, DialectId::Cascade, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 0);
    assert_eq!(recorder.counter("migrate.cache.prefix_hit"), 1);
    assert_eq!(recorder.counter("migrate.cache.miss"), 0);

    // The resumed run is byte-identical to a cold run of the same
    // config.
    let edited2 = MigrationConfig::builder()
        .rename_global("VDD", "vdd!")
        .build()
        .expect("valid config");
    let cold = Migrator::new(edited2).migrate(source, DialectId::Cascade);
    assert_eq!(
        schematic::cascade::write(&cold.design),
        schematic::cascade::write(&warm.design)
    );
    assert_eq!(format!("{}", cold.report), format!("{}", warm.report));
}

#[test]
fn quarantined_designs_are_never_cached() {
    let sources = designs(4);
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::default().with_cache(cache.clone());
    let poison = sources[1].name.clone();

    let cfg = migrate::ResilientConfig {
        threads: 1,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        // Corrupt output on every attempt: the pipeline *runs* (and
        // caches its result) before the corruption is detected, so the
        // quarantine path must purge the poisoned design's entries.
        fault_plan: FaultPlan::seeded(5).with_fault(poison, .., FaultKind::CorruptOutput),
        timeout_ticks: None,
        abort_after: None,
    };
    let mut cp = Checkpoint::default();
    let recorder = MemoryRecorder::new();
    let report = migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &cfg,
        &mut cp,
        &recorder,
    )
    .expect("runs");
    assert_eq!(report.quarantined.len(), 1);
    assert!(recorder.counter("migrate.cache.purge") >= 1);

    // The poisoned design must miss; the healthy designs stay warm.
    for (i, source) in sources.iter().enumerate() {
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        let hash = hash_of(source);
        let looked = cache.lookup(hash, &chain);
        if i == 1 {
            assert!(matches!(looked, Lookup::Miss), "poison must not be cached");
        } else {
            assert!(
                matches!(looked, Lookup::Hit(_)),
                "healthy design {i} stays warm"
            );
        }
    }
}

#[test]
fn disk_tier_survives_a_process_restart() {
    let dir = std::env::temp_dir().join(format!("migrate-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = &designs(1)[0];

    let cold_cache = Arc::new(MigrationCache::new().with_disk_tier(&dir));
    let cold = Migrator::default()
        .with_cache(cold_cache.clone())
        .migrate(source, DialectId::Cascade);
    assert!(
        cold_cache.stats().disk_stores >= 1,
        "clean run reaches disk"
    );
    drop(cold_cache);

    // A fresh cache (new "process") warms up from the disk tier.
    let warm_cache = Arc::new(MigrationCache::new().with_disk_tier(&dir));
    let recorder = MemoryRecorder::new();
    let warm = Migrator::default()
        .with_cache(warm_cache.clone())
        .migrate_recorded(source, DialectId::Cascade, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 1);
    assert_eq!(warm_cache.stats().disk_hits, 1);
    assert_eq!(
        schematic::cascade::write(&cold.design),
        schematic::cascade::write(&warm.design)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A design at one of the two loadbench sizes: 16 gates × 4 pages at
/// depth 1, or 32 × 8 at depth 2.
fn loadbench_design(seed: u64, large: bool) -> Design {
    let (gates, pages, depth) = if large { (32, 8, 2) } else { (16, 4, 1) };
    generate(
        &GenConfig::builder()
            .seed(seed)
            .gates_per_page(gates)
            .pages(pages)
            .depth(depth)
            .bus_width(4)
            .build()
            .expect("valid generator config"),
    )
}

/// The entry stored under exactly `(design_hash, chain_hash)`, if live:
/// a chain with no stages has `chain_hash` as its full hash and no
/// prefixes to fall back to.
fn entry(cache: &MigrationCache, design_hash: u64, chain_hash: u64) -> Option<CachedRun> {
    let only = StageChain {
        source: DialectId::Viewstar,
        target: DialectId::Cascade,
        base: chain_hash,
        stages: Vec::new(),
        hashes: Vec::new(),
    };
    match cache.lookup(design_hash, &only) {
        Lookup::Hit(run) => Some(run),
        _ => None,
    }
}

#[test]
fn byte_estimates_equal_the_hashing_walk_for_designs_and_every_memo() {
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
    for (seed, large) in [(1, false), (2, false), (3, true), (4, true)] {
        let source = loadbench_design(seed, large);
        assert_eq!(size_of(&source), hash_and_size(&source).1, "seed {seed}");
        migrator.migrate(&source, DialectId::Cascade);
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        assert_eq!(chain.hashes.len(), 8);
        for (k, &chain_hash) in chain.hashes.iter().enumerate() {
            let memo = entry(&cache, hash_of(&source), chain_hash)
                .unwrap_or_else(|| panic!("seed {seed}: memo {k} is live"));
            assert_eq!(
                size_of(&memo.design),
                hash_and_size(&memo.design).1,
                "seed {seed}, memo {k}"
            );
        }
    }
    assert_eq!(cache.stats().evictions, 0);
}

#[test]
fn byte_total_equals_the_live_entries_after_an_evicting_run() {
    let cache = Arc::new(MigrationCache::with_capacity_bytes(1 << 20));
    let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
    let sources: Vec<Design> = (0..6).map(|i| loadbench_design(10 + i, i == 5)).collect();
    for source in &sources {
        migrator.migrate(source, DialectId::Cascade);
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "the run must evict");

    let chain = migrator.stage_chain(DialectId::Viewstar, DialectId::Cascade);
    let live: Vec<CachedRun> = sources
        .iter()
        .flat_map(|source| {
            let design_hash = hash_of(source);
            let cache = &cache;
            chain
                .hashes
                .iter()
                .filter_map(move |&chain_hash| entry(cache, design_hash, chain_hash))
        })
        .collect();
    assert_eq!(live.len(), stats.entries);
    let charged: usize = live.iter().map(CachedRun::estimated_bytes).sum();
    assert_eq!(stats.bytes, charged);
    assert_eq!(cache.bytes(), charged);
}

/// A payload whose content names its key, with a size that varies by
/// key so the byte accounting sees different charges.
fn keyed_run(design: &Design, design_hash: u64, chain_hash: u64) -> CachedRun {
    let reports = (chain_hash % 4 + 1) as usize;
    CachedRun {
        design: design.clone(),
        stages: (0..reports)
            .map(|_| {
                (
                    StageId::Scale,
                    StageReport {
                        issues: vec![format!("{design_hash}/{chain_hash}")],
                        ..StageReport::default()
                    },
                )
            })
            .collect(),
    }
}

#[test]
fn concurrent_insert_lookup_purge_and_clear_keep_the_accounting_exact() {
    const PHASES: u64 = 4;
    const STEPS: u64 = 150;
    let design = loadbench_design(99, false);
    let one_entry = keyed_run(&design, 0, 3).estimated_bytes();
    for threads in [2u64, 8] {
        // About three of the largest entries per shard: stores evict.
        let cache = MigrationCache::with_capacity_bytes(16 * 3 * one_entry);
        for phase in 0..PHASES {
            let start = Barrier::new(threads as usize);
            // The scope joins every worker (and re-raises its panic)
            // before the checks below, so they run at quiescence.
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (cache, design, start) = (&cache, &design, &start);
                    scope.spawn(move || {
                        // Each thread owns design hashes t*4 .. t*4+4, so
                        // its own purge-then-lookup is ordered; the shards
                        // and `clear` are shared with every other thread.
                        let mut rng = (t * PHASES + phase + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let mut next = move |n: u64| {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng % n
                        };
                        start.wait();
                        for _ in 0..STEPS {
                            let d = t * 4 + next(4);
                            let c = next(8);
                            match next(20) {
                                0..=8 => {
                                    cache.insert(d, c, keyed_run(design, d, c), false);
                                }
                                9..=16 => {
                                    if let Some(run) = entry(cache, d, c) {
                                        assert_eq!(
                                            run.stages[0].1.issues,
                                            [format!("{d}/{c}")],
                                            "served another key's run"
                                        );
                                    }
                                }
                                17..=18 => {
                                    cache.purge_design(d);
                                    for c in 0..8 {
                                        assert!(
                                            entry(cache, d, c).is_none(),
                                            "purged design {d} served under {c}"
                                        );
                                    }
                                }
                                _ => cache.clear(),
                            }
                        }
                    });
                }
            });
            let stats = cache.stats();
            assert_eq!(
                cache.bytes(),
                stats.bytes,
                "threads={threads} phase={phase}"
            );
            let live: usize = (0..threads * 4)
                .flat_map(|d| (0..8).map(move |c| (d, c)))
                .filter_map(|(d, c)| entry(&cache, d, c))
                .map(|run| run.estimated_bytes())
                .sum();
            assert_eq!(live, stats.bytes, "threads={threads} phase={phase}");
        }
        let stats = cache.stats();
        assert!(stats.inserts > 0 && stats.evictions > 0, "{stats:?}");
        cache.clear();
        assert_eq!((cache.bytes(), cache.stats().bytes), (0, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any generated design, a warm re-run is byte-identical to the
    /// cold run and is served entirely from cache.
    #[test]
    fn warm_rerun_matches_cold_for_any_design(seed in 0u64..500) {
        let source = generate(&GenConfig { seed, ..GenConfig::default() });
        let cache = Arc::new(MigrationCache::new());
        let migrator = Migrator::default().with_cache(cache.clone());
        let cold = migrator.migrate(&source, DialectId::Cascade);
        let recorder = MemoryRecorder::new();
        let warm = migrator.migrate_recorded(&source, DialectId::Cascade, &recorder);
        prop_assert_eq!(recorder.counter("migrate.cache.hit"), 1);
        prop_assert_eq!(
            schematic::cascade::write(&cold.design),
            schematic::cascade::write(&warm.design)
        );
        prop_assert_eq!(cold.design, warm.design);
    }
}

/// `(seed, large, [source, memo 0, …, memo 7])`, each a `(hash_of,
/// size_of)` pair, recorded from the deep-copying model before chunks
/// became shared. Cache keys, disk-tier file names, checkpoint
/// fingerprints and every eviction decision derive from these values.
#[allow(clippy::type_complexity)]
const PINNED: [(u64, bool, [(u64, usize); 9]); 4] = [
    (
        1,
        false,
        [
            (0xcea6b780ae16f33d, 35231),
            (0x586755732569b7ab, 35231),
            (0x82b30fb75dd53d93, 39673),
            (0xe1a7c036f0c6e3f6, 40060),
            (0x654cce8e472d12c1, 40873),
            (0x5bbbeea618966a09, 40852),
            (0xcaec6e87bb606f0f, 42344),
            (0x3f0f83f1ecf7570b, 42667),
            (0x43f292f2706d053c, 42666),
        ],
    ),
    (
        2,
        false,
        [
            (0xafc2b3e6b3e5e112, 35289),
            (0x709adb05ae66418d, 35289),
            (0x573e0276ba874cb1, 39731),
            (0xe15a30b0d28144fe, 40136),
            (0x645cc67083f7edc3, 40949),
            (0x6e558e288739870f, 40930),
            (0xd07c718f60d670f5, 42422),
            (0x787b3d5086dc5469, 42750),
            (0x1c9fc361dab618fa, 42749),
        ],
    ),
    (
        3,
        true,
        [
            (0x6a0dbeff705eba38, 197372),
            (0x1b2778e4387e353e, 197372),
            (0x84afe78102f48882, 223634),
            (0x4efe5de9c3dd0268, 226010),
            (0x61aebd7ee960544f, 227463),
            (0xa1ae63ff233b439f, 227306),
            (0x83e3b276596933e4, 232098),
            (0x7531bad248c1bba8, 233433),
            (0x1001abfea8d3c22b, 233432),
        ],
    ),
    (
        4,
        true,
        [
            (0x066e165940d27efd, 197454),
            (0x7e225fad0be422ea, 197454),
            (0xd7bbee7c1d12c4d6, 223716),
            (0xee58d8bea303331c, 226002),
            (0x308a811b907cb901, 227455),
            (0xb6d814ffef0c614b, 227324),
            (0x503adb236b80889e, 232116),
            (0x342764ca5cd71cf6, 233466),
            (0x27cc0251ebd9fb34, 233465),
        ],
    ),
];

#[test]
fn digests_and_byte_counts_of_loadbench_designs_and_memos_are_pinned() {
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
    for (seed, large, pinned) in PINNED {
        let source = loadbench_design(seed, large);
        let design_hash = hash_of(&source);
        assert_eq!(
            (design_hash, size_of(&source)),
            pinned[0],
            "seed {seed}: source"
        );
        migrator.migrate(&source, DialectId::Cascade);
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        assert_eq!(chain.hashes.len(), 8);
        for (k, &chain_hash) in chain.hashes.iter().enumerate() {
            let memo = entry(&cache, design_hash, chain_hash)
                .unwrap_or_else(|| panic!("seed {seed}: memo {k} is live"));
            assert_eq!(
                (hash_of(&memo.design), size_of(&memo.design)),
                pinned[k + 1],
                "seed {seed}: memo {k} ({})",
                chain.stages[k].name()
            );
        }
    }
}

/// One design's copy-on-write chunks, each labelled by where it sits:
/// every sheet's four object lists and every library's symbol map.
fn chunks(design: &Design) -> Vec<(String, Chunk<'_>)> {
    let mut out = Vec::new();
    for lib in design.libraries() {
        out.push((format!("library {}", lib.name), Chunk::Symbols(lib)));
    }
    for (name, cell) in design.cells() {
        for sheet in &cell.sheets {
            let at = format!("{name} p{}", sheet.page);
            out.push((format!("{at} instances"), Chunk::Instances(sheet)));
            out.push((format!("{at} wires"), Chunk::Wires(sheet)));
            out.push((format!("{at} connectors"), Chunk::Connectors(sheet)));
            out.push((format!("{at} annotations"), Chunk::Annotations(sheet)));
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Chunk<'a> {
    Symbols(&'a schematic::design::Library),
    Instances(&'a schematic::sheet::Sheet),
    Wires(&'a schematic::sheet::Sheet),
    Connectors(&'a schematic::sheet::Sheet),
    Annotations(&'a schematic::sheet::Sheet),
}

impl Chunk<'_> {
    /// `(content equal, same storage)` for two chunks of one kind.
    fn compare(self, other: Chunk<'_>) -> (bool, bool) {
        use interop_core::Shared;
        fn both<T: PartialEq>(a: &Shared<T>, b: &Shared<T>) -> (bool, bool) {
            (a == b, Shared::ptr_eq(a, b))
        }
        match (self, other) {
            (Chunk::Symbols(a), Chunk::Symbols(b)) => both(a.symbol_map(), b.symbol_map()),
            (Chunk::Instances(a), Chunk::Instances(b)) => both(&a.instances, &b.instances),
            (Chunk::Wires(a), Chunk::Wires(b)) => both(&a.wires, &b.wires),
            (Chunk::Connectors(a), Chunk::Connectors(b)) => both(&a.connectors, &b.connectors),
            (Chunk::Annotations(a), Chunk::Annotations(b)) => both(&a.annotations, &b.annotations),
            _ => unreachable!("chunks are paired by label"),
        }
    }
}

/// How many chunks of `after` are unchanged from `before`, and the
/// labels of those that were copied anyway.
fn copied_but_unchanged(before: &Design, after: &Design) -> (usize, Vec<String>) {
    let old: std::collections::BTreeMap<String, Chunk<'_>> = chunks(before).into_iter().collect();
    let mut unchanged = 0;
    let mut copied = Vec::new();
    for (label, chunk) in chunks(after) {
        let Some(&prev) = old.get(&label) else {
            continue;
        };
        let (equal, shared) = chunk.compare(prev);
        if equal {
            unchanged += 1;
            if !shared {
                copied.push(label);
            }
        }
    }
    (unchanged, copied)
}

#[test]
fn no_stage_copies_a_chunk_it_does_not_change() {
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
    for (seed, large) in [(1, false), (2, false), (3, true), (4, true)] {
        let source = loadbench_design(seed, large);
        let design_hash = hash_of(&source);
        migrator.migrate(&source, DialectId::Cascade);
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        let memos: Vec<Design> = chain
            .hashes
            .iter()
            .map(|&chain_hash| entry(&cache, design_hash, chain_hash).unwrap().design)
            .collect();
        let mut shared_total = 0;
        for (k, memo) in memos.iter().enumerate() {
            let before = if k == 0 { &source } else { &memos[k - 1] };
            let (unchanged, copied) = copied_but_unchanged(before, memo);
            assert!(
                copied.is_empty(),
                "seed {seed}: stage {} copied unchanged chunks {copied:?}",
                chain.stages[k].name()
            );
            shared_total += unchanged;
        }
        assert!(shared_total > 0, "seed {seed}: some chunks are shared");
    }
}

#[test]
fn a_full_hit_shares_every_chunk_and_its_edits_stay_private() {
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
    for (seed, large) in [(1, false), (3, true)] {
        let source = loadbench_design(seed, large);
        migrator.migrate(&source, DialectId::Cascade);
        let recorder = MemoryRecorder::new();
        let mut hit = migrator
            .migrate_recorded(&source, DialectId::Cascade, &recorder)
            .design;
        assert_eq!(recorder.counter("migrate.cache.hit"), 1);
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        let cached = entry(&cache, hash_of(&source), chain.full_hash())
            .expect("full-chain entry is live")
            .design;
        let ours = chunks(&hit);
        let theirs = chunks(&cached);
        assert_eq!(ours.len(), theirs.len());
        for ((label, a), (_, b)) in ours.into_iter().zip(theirs) {
            assert_eq!(a.compare(b), (true, true), "seed {seed}: {label}");
        }

        let digest = hash_of(&cached);
        let top = hit.top.clone();
        let sheet = &mut hit.cell_mut(&top).unwrap().sheets[0];
        sheet.wires.clear();
        sheet.instances[0].place.origin.x += 1;
        assert_ne!(hash_of(&hit), digest);
        let again = entry(&cache, hash_of(&source), chain.full_hash()).unwrap();
        assert_eq!(hash_of(&again.design), digest, "seed {seed}");
        assert_eq!(hash_of(&cached), digest, "seed {seed}");
    }
}
