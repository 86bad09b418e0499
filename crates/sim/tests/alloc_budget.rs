//! Allocation budget of the simulation kernel and the race sweep.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. A busy stimulus may allocate once per committed change
//! wider than 64 bits — the waveform record's copy of the new value —
//! plus a small constant for building the kernel and growing its
//! buffers; nothing else on the per-event path may allocate. A model
//! whose signals all fit in 64 bits allocates a constant amount however
//! long it runs, apart from the amortized doubling of its change log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sim::elab::compile_unit;
use sim::race::{models, sweep, Stim};
use sim::{Circuit, Kernel, SchedulerPolicy};

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

fn circuit(src: &str, top: &str) -> Arc<Circuit> {
    Arc::new(compile_unit(&hdl::parse(src).expect("parses"), top).expect("elaborates"))
}

/// Kernel construction, stimulus resolution and the growth of the
/// change log, the queue and the NBA buffers.
const SETUP: u64 = 64;

/// Changes wider than 64 bits in a kernel's waveform.
fn wide_changes(k: &Kernel) -> u64 {
    k.waveform()
        .changes
        .iter()
        .filter(|(_, _, v)| v.width() > 64)
        .count() as u64
}

#[test]
fn busy_stimulus_allocates_once_per_wide_change() {
    let busy = circuit(models::BUSY, "busy");
    let stim = Stim::clocked("busy", 8);
    for policy in SchedulerPolicy::all() {
        let (n, k) = allocations(|| {
            let mut k = Kernel::new_shared(Arc::clone(&busy), policy);
            stim.apply(&mut k).expect("runs");
            k
        });
        let wide = wide_changes(&k);
        assert!(
            wide > 0,
            "{}: the busy model commits wide values",
            policy.name
        );
        assert!(
            n <= wide + SETUP,
            "{}: {n} allocations for {wide} wide changes",
            policy.name
        );
    }
}

#[test]
fn small_model_allocates_a_constant_per_stimulus() {
    let race = circuit(models::PAPER_RACE, "race");
    for policy in SchedulerPolicy::all() {
        let run = |cycles: u64| {
            allocations(|| {
                let mut k = Kernel::new_shared(Arc::clone(&race), policy);
                Stim::clocked("small", cycles).apply(&mut k).expect("runs");
                k.waveform().changes.len()
            })
        };
        // Stim::clocked builds its own event list; count it apart.
        let (stim_16, _) = allocations(|| Stim::clocked("small", 16));
        let (stim_256, _) = allocations(|| Stim::clocked("small", 256));
        let (short, changes_short) = run(16);
        let (long, changes_long) = run(256);
        let (short, long) = (short - stim_16, long - stim_256);
        // 16 cycles are 49 time slots; 256 cycles are 769.
        assert!(changes_long > 10 * changes_short);
        assert!(short <= SETUP, "{}: {short} allocations", policy.name);
        // Sixteen times the slots add only the change log's doublings.
        assert!(
            long <= short + 8,
            "{}: {short} allocations at 16 cycles, {long} at 256",
            policy.name
        );
    }
}

#[test]
fn sweep_moves_diverging_histories_instead_of_cloning_them() {
    let busy = circuit(models::BUSY, "busy");
    let policies = SchedulerPolicy::all();
    let stims = [Stim::clocked("busy", 3)];
    let wide: u64 = policies
        .iter()
        .map(|&p| {
            let mut k = Kernel::new_shared(Arc::clone(&busy), p);
            stims[0].apply(&mut k).expect("runs");
            wide_changes(&k)
        })
        .sum();
    let (n, results) = allocations(|| sweep(&busy, &policies, &stims).expect("sweeps"));
    let diverging = results[0].report.diverging.len() as u64;
    assert!(diverging > 0);
    // Per diverging signal: its name and one history per policy.
    let report = diverging * (1 + policies.len() as u64) + 8;
    assert!(
        n <= wide + policies.len() as u64 * SETUP + report,
        "{n} allocations for {wide} wide changes and {diverging} diverging signals"
    );
}
