//! Allocation budget of the simulation kernel and the race sweep.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. A kernel run allocates a constant for building the
//! kernel plus the doublings of its growing buffers — the waveform's
//! change records and word arena among them — however many changes it
//! records and however wide they are: nothing on the per-event path
//! allocates. A sweep adds a constant per diverging (signal, policy)
//! history, each one flat copy out of the arena.

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
/// queue and the NBA buffers.
const SETUP: u64 = 64;

/// Times a buffer doubles on its way to `n` elements.
fn doublings(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// What a kernel that recorded `changes` changes may allocate: the
/// set-up constant, plus the doublings of the change records and of the
/// word arena, which holds at most ten words per busy-model change (the
/// two planes of a 280-bit value).
fn kernel_budget(changes: usize) -> u64 {
    SETUP + 2 * doublings(10 * changes)
}

fn run(circuit: &Arc<Circuit>, policy: SchedulerPolicy, stim: &Stim) -> Kernel {
    let mut k = Kernel::new_shared(Arc::clone(circuit), policy);
    stim.apply(&mut k).expect("runs");
    k
}

/// Changes wider than 64 bits in a kernel's waveform.
fn wide_changes(k: &Kernel) -> usize {
    k.waveform()
        .changes()
        .filter(|(_, _, v)| v.width() > 64)
        .count()
}

#[test]
fn busy_stimulus_allocates_only_the_arenas_growth() {
    let busy = circuit(models::BUSY, "busy");
    let stim = Stim::clocked("busy", 8);
    for policy in SchedulerPolicy::all() {
        let (n, k) = allocations(|| run(&busy, policy, &stim));
        let changes = k.waveform().len();
        assert!(
            wide_changes(&k) > 0,
            "{}: the busy model commits wide values",
            policy.name
        );
        assert!(
            n <= kernel_budget(changes),
            "{}: {n} allocations for {changes} changes, {} of them wide",
            policy.name,
            wide_changes(&k)
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
                k.waveform().len()
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
fn sweep_allocates_a_constant_per_diverging_history() {
    let busy = circuit(models::BUSY, "busy");
    let policies = SchedulerPolicy::all();
    let stims = [Stim::clocked("busy", 8)];
    let kernels: u64 = policies
        .iter()
        .map(|&p| kernel_budget(run(&busy, p, &stims[0]).waveform().len()))
        .sum();
    let (n, results) = allocations(|| sweep(&busy, &policies, &stims).expect("sweeps"));
    let report = &results[0].report;
    let diverging = report.diverging.len() as u64;
    let entries: usize = report
        .diverging
        .iter()
        .flat_map(|d| &d.histories)
        .map(|(_, h)| h.len())
        .sum();
    assert!(diverging > 0);
    // Per diverging signal: its name, its list of histories, and each
    // policy's history as two columns. The comparison's own buffers are
    // one more set-up constant.
    let per_signal = 2 + 2 * policies.len() as u64;
    assert!(
        n <= kernels + SETUP + diverging * per_signal,
        "{n} allocations for {diverging} diverging signals holding {entries} entries"
    );
}
