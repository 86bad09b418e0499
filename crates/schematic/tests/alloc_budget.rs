//! Allocation budget of the dialect readers and writers.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. Parsing Viewstar text may allocate about as often as
//! building the design does, never once per token: tokens borrow from
//! the input and names are interned (on these designs about 1.2
//! allocations per heap object of the result, against a bound of 1.5,
//! and one per 8 tokens, against a bound of one per 4). A writer
//! (Viewstar, Cascade, and the neutral export) formats every record
//! straight into its one output `String`, so it may allocate only a
//! constant number of times plus that buffer's growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use schematic::design::Design;
use schematic::gen::{generate, GenConfig};
use schematic::{cascade, neutral, viewstar};

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

const DESIGNS: [(u64, bool); 4] = [(1, false), (2, false), (3, true), (4, true)];

/// The design's own heap objects: what a deep copy allocates, its
/// skeleton plus every copy-on-write chunk (a plain `clone` shares
/// those).
fn heap_objects(design: &Design) -> u64 {
    let (mut total, _) = allocations(|| design.clone());
    for lib in design.libraries() {
        total += allocations(|| (**lib.symbol_map()).clone()).0;
    }
    for (_, cell) in design.cells() {
        for sheet in &cell.sheets {
            total += allocations(|| (*sheet.instances).clone()).0
                + allocations(|| (*sheet.wires).clone()).0
                + allocations(|| (*sheet.connectors).clone()).0
                + allocations(|| (*sheet.annotations).clone()).0;
        }
    }
    total
}

/// Whitespace-separated words of `text`, a lower bound on its tokens.
fn words(text: &str) -> u64 {
    text.split_whitespace().count() as u64
}

#[test]
fn viewstar_parse_allocates_per_object_not_per_token() {
    for (seed, large) in DESIGNS {
        let text = viewstar::write(&loadbench_design(seed, large));
        // Warm up: intern every name, so the table's growth is not counted.
        let warm = viewstar::parse(&text).expect("parses");
        let (parse, design) = allocations(|| viewstar::parse(&text).expect("parses"));
        assert_eq!(design, warm);
        let objects = heap_objects(&design);
        let tokens = words(&text);
        assert!(
            parse <= objects * 3 / 2 && parse * 4 <= tokens,
            "seed {seed}: parse made {parse} allocations for {objects} heap objects \
             and at least {tokens} tokens"
        );
    }
}

/// Allocations a writer may make for `bytes` of output: a few (among
/// them the final shrink to size), plus the doublings of one buffer
/// growing to that size.
fn writer_budget(bytes: usize) -> u64 {
    8 + u64::from(usize::BITS - bytes.leading_zeros())
}

#[test]
fn writers_allocate_a_constant_plus_buffer_growth() {
    for (seed, large) in DESIGNS {
        let design = loadbench_design(seed, large);
        let (count, text) = allocations(|| viewstar::write(&design));
        assert!(
            count <= writer_budget(text.len()),
            "seed {seed}: viewstar::write made {count} allocations for {} bytes",
            text.len()
        );
        let (count, text) = allocations(|| cascade::write(&design));
        assert!(
            count <= writer_budget(text.len()),
            "seed {seed}: cascade::write made {count} allocations for {} bytes",
            text.len()
        );
        let (count, text) = allocations(|| neutral::export(&design).expect("exports"));
        assert!(
            count <= writer_budget(text.len()),
            "seed {seed}: neutral::export made {count} allocations for {} bytes",
            text.len()
        );
    }
}
