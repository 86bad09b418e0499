//! Allocation budget of the migration cache's write path.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. A cold migration through a cache memoises the design
//! after each of the eight stages. With copy-on-write chunks a memo
//! copies only the design's skeleton (names, maps, sheet vectors), never
//! a sheet's object lists or a library's symbols; the next stage then
//! copies the lists it rewrites, because the memo still holds them,
//! where an uncached run rewrites them in place. So a cached cold run
//! may allocate at most what an uncached run does, plus those copies,
//! plus a small constant per sheet and per library for each memo. On
//! these designs a memo's skeleton costs about 2 allocations per sheet
//! and library against a bound of 4; a memo that deep-copies the design
//! costs about 35.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use interop_core::hash::hash_of;
use migrate::cache::{Lookup, StageChain};
use migrate::{presets, MigrationCache, Migrator};
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the calling thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
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

/// The entry stored under exactly `(design_hash, chain_hash)`: a chain
/// with no stages has `chain_hash` as its full hash and no prefixes.
fn memo(cache: &MigrationCache, design_hash: u64, chain_hash: u64) -> Design {
    let only = StageChain {
        source: DialectId::Viewstar,
        target: DialectId::Cascade,
        base: chain_hash,
        stages: Vec::new(),
        hashes: Vec::new(),
    };
    match cache.lookup(design_hash, &only) {
        Lookup::Hit(run) => run.design,
        other => panic!("memo {chain_hash:016x} is not live: {other:?}"),
    }
}

/// What deep-copying the sheet lists `after` changed from `before`
/// costs: the copies a stage cannot avoid while a memo still holds the
/// lists it rewrites. An uncached run changes the same lists in place.
fn recopy_allocations(before: &Design, after: &Design) -> u64 {
    fn copy<T: Clone + PartialEq>(old: &Vec<T>, new: &Vec<T>) -> u64 {
        if old == new {
            0
        } else {
            allocations(|| old.clone()).0
        }
    }
    for lib in after.libraries() {
        if let Some(old) = before.library(&lib.name) {
            assert_eq!(lib, old, "only the scale stage rewrites libraries");
        }
    }
    let mut total = 0;
    for (name, cell) in after.cells() {
        let old_cell = before.cell(name).expect("stages add no cells");
        for (new, old) in cell.sheets.iter().zip(&old_cell.sheets) {
            total += copy(&old.instances, &new.instances)
                + copy(&old.wires, &new.wires)
                + copy(&old.connectors, &new.connectors)
                + copy(&old.annotations, &new.annotations);
        }
    }
    total
}

/// Allocations one memo may add per sheet and per library beyond those
/// copies: the design's skeleton (names, maps, sheet vectors), the
/// entry's `Arc` and report list, and the shard map's growth.
const PER_MEMO: u64 = 4;

#[test]
fn cached_cold_run_allocates_a_constant_per_sheet_and_library_per_memo() {
    for (seed, large) in [(1, false), (2, false), (3, true), (4, true)] {
        let source = loadbench_design(seed, large);
        let plain = Migrator::new(presets::exar_style_config(4, 0));
        let cache = Arc::new(MigrationCache::with_capacity_bytes(8 << 20));
        let cached = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
        // Warm up: intern every name the run creates and compute the
        // cached migrator's stage chain, so neither is counted below.
        let warm = plain.migrate(&source, DialectId::Cascade);
        let chain = cached.stage_chain(source.dialect, DialectId::Cascade);

        let (uncached, plain_out) = allocations(|| plain.migrate(&source, DialectId::Cascade));
        let (cold, cached_out) = allocations(|| cached.migrate(&source, DialectId::Cascade));
        assert_eq!(plain_out.design, warm.design);
        assert_eq!(cached_out.design, warm.design);
        let memos: Vec<Design> = chain
            .hashes
            .iter()
            .map(|&chain_hash| memo(&cache, hash_of(&source), chain_hash))
            .collect();
        assert_eq!(memos.len(), 8);
        let recopies: u64 = memos
            .windows(2)
            .map(|pair| recopy_allocations(&pair[0], &pair[1]))
            .sum();

        let sheets: u64 = source.cells().map(|(_, c)| c.sheets.len() as u64).sum();
        let libraries = warm.design.libraries().count() as u64;
        let budget = uncached + recopies + memos.len() as u64 * PER_MEMO * (sheets + libraries);
        assert!(
            cold <= budget,
            "seed {seed}: cached cold run made {cold} allocations; uncached {uncached}, \
             unavoidable copies {recopies}, budget {budget} ({sheets} sheets, {libraries} libraries)"
        );
    }
}
