//! Evicted memos are freed on the thread that inserted them.
//!
//! A counting global allocator tallies, per tracked thread, the blocks
//! it frees and the blocks it allocated that are still live. Each test
//! tracks its own threads in slots of its own, so tests running in parallel do not disturb each other's
//! counts, and the harness's threads are not tracked. Channels, not
//! sleeps, order the threads of a test.
//!
//! The cache has 16 shards picked by `(design ^ chain) % 16`, so the
//! keys `(16 * k + s, 0)` share shard `s`. Each cache's capacity is 16
//! memos: a shard's budget holds exactly one memo, and a second insert
//! into a shard evicts the first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::thread;

use migrate::cache::{CachedRun, Lookup, StageChain};
use migrate::MigrationCache;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

/// Counts, per tracked thread, the blocks it frees, and per slot the
/// blocks allocated while that slot was tracked and not yet freed by
/// any thread. Each block carries the slot it was allocated in, in a
/// header before it, so a block is uncounted from the right slot
/// wherever it is freed (a thread's start, for one, frees a block its
/// spawner allocated before the new thread could be tracked).
struct Counting;

const SLOTS: usize = 10;
static LIVE: [AtomicI64; SLOTS] = [const { AtomicI64::new(0) }; SLOTS];
static FREES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

thread_local! {
    /// The calling thread's slot; 0 is untracked.
    static SLOT: Cell<usize> = const { Cell::new(0) };
}

fn slot() -> usize {
    // `try_with`: the slot may already be gone while a thread exits.
    SLOT.try_with(Cell::get).unwrap_or(0)
}

/// The block behind a user block of `layout`: a header of at least one
/// `usize`, as wide as the alignment so the user block stays aligned.
fn outer(layout: Layout) -> Option<(Layout, usize)> {
    let head = layout.align().max(16);
    let size = layout.size().checked_add(head)?;
    Some((Layout::from_size_align(size, head).ok()?, head))
}

// SAFETY: each user block is the tail of a `System` block at least one
// header larger, aligned to the user block's alignment; the header is
// written only at allocation and read only when the block is freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some((outer, head)) = outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer` has a nonzero size (at least `head`).
        let base = unsafe { System.alloc(outer) };
        if base.is_null() {
            return base;
        }
        let slot = slot();
        LIVE[slot].fetch_add(1, Ordering::Relaxed);
        // SAFETY: `base` is aligned to at least 16 and has `head >= 16`
        // bytes before the user block, room for the `usize` slot.
        unsafe {
            base.cast::<usize>().write(slot);
            base.add(head)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (outer, head) = outer(layout).expect("allocated with this layout");
        // SAFETY: `ptr` was returned by `alloc` or `realloc` for `layout`,
        // so its `System` block starts `head` bytes earlier with the slot.
        unsafe {
            let base = ptr.sub(head);
            let owner = base.cast::<usize>().read();
            LIVE[owner].fetch_sub(1, Ordering::Relaxed);
            FREES[slot()].fetch_add(1, Ordering::Relaxed);
            System.dealloc(base, outer);
        }
    }

    /// Moves a block: counts neither a free nor an allocation, and
    /// keeps the slot it was allocated in.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (outer, head) = outer(layout).expect("allocated with this layout");
        let Some(new_outer) = new_size.checked_add(head) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `dealloc`, `ptr - head` is the `System` block of
        // `outer`; `System.realloc` copies the header with the rest.
        unsafe {
            let base = System.realloc(ptr.sub(head), outer, new_outer);
            if base.is_null() {
                return base;
            }
            base.add(head)
        }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn track(slot: usize) {
    SLOT.with(|s| s.set(slot));
}

fn frees(slot: usize) -> u64 {
    FREES[slot].load(Ordering::Relaxed)
}

/// Blocks allocated while one of `slots` was tracked and not yet freed.
fn live(slots: Range<usize>) -> i64 {
    slots.map(|s| LIVE[s].load(Ordering::Relaxed)).sum()
}

/// Frees a thread makes besides a memo's own blocks: the eviction list,
/// a pending list, a thread's exit.
const SLACK: u64 = 16;

/// A memo of a small loadbench design that owns every block of it.
fn memo() -> CachedRun {
    let config = GenConfig::builder()
        .seed(1)
        .gates_per_page(16)
        .pages(4)
        .depth(1)
        .bus_width(4)
        .build()
        .expect("valid generator config");
    CachedRun {
        design: generate(&config),
        stages: Vec::new(),
    }
}

/// Warms up untracked, then tracks the calling thread in `slot` and
/// returns how many blocks dropping one memo frees and the bytes the
/// cache charges for it.
fn setup(slot: usize) -> (u64, usize) {
    // Interning a design's names and a first spawn allocate for the
    // life of the process; do both before counting.
    drop(memo());
    thread::spawn(|| ()).join().expect("warm-up thread");
    track(slot);
    let run = memo();
    let bytes = run.estimated_bytes();
    let before = frees(slot);
    drop(run);
    let blocks = frees(slot) - before;
    assert!(blocks > 10 * SLACK, "a memo frees only {blocks} blocks");
    (blocks, bytes)
}

/// A chain whose full hash is `chain_hash` and that has no prefixes.
fn only(chain_hash: u64) -> StageChain {
    StageChain {
        source: DialectId::Viewstar,
        target: DialectId::Cascade,
        base: chain_hash,
        stages: Vec::new(),
        hashes: Vec::new(),
    }
}

#[test]
fn an_evicted_memo_is_freed_by_the_thread_that_built_it() {
    let (blocks, bytes) = setup(1);
    let baseline = live(1..4);
    {
        let cache = MigrationCache::with_capacity_bytes(16 * bytes);
        let cache = &cache;
        let (to_a, at_a) = channel();
        let (to_b, at_b) = channel();
        let (b_freed, a_freed) = thread::scope(|s| {
            let a = s.spawn(move || {
                track(2);
                cache.insert(16, 0, memo(), false);
                to_b.send(()).expect("b waits");
                at_a.recv().expect("b evicted");
                let before = frees(2);
                assert!(matches!(cache.lookup(48, &only(0)), Lookup::Miss));
                frees(2) - before
            });
            let b = s.spawn(move || {
                track(3);
                let run = memo();
                at_b.recv().expect("a inserted");
                let before = frees(3);
                assert_eq!(cache.insert(32, 0, run, false), 1);
                let freed = frees(3) - before;
                to_a.send(()).expect("a waits");
                freed
            });
            let b_freed = b.join().expect("thread b");
            (b_freed, a.join().expect("thread a"))
        });
        assert!(
            b_freed < SLACK,
            "the evicting thread freed {b_freed} blocks (a memo has {blocks})"
        );
        assert!(
            (blocks..blocks + SLACK).contains(&a_freed),
            "the building thread's next call freed {a_freed} blocks (a memo has {blocks})"
        );
        assert_eq!(cache.stats().evictions, 1);
    }
    assert_eq!(live(1..4), baseline, "every block is freed exactly once");
}

#[test]
fn a_memo_whose_owner_exited_is_freed_in_place() {
    let (blocks, bytes) = setup(4);
    let baseline = live(4..7);
    {
        let cache = MigrationCache::with_capacity_bytes(16 * bytes);
        let cache = &cache;
        let (to_a, at_a) = channel();
        let (to_b, at_b) = channel();
        let (exited, at_exited) = channel();
        let (at_exit, queued, in_place) = thread::scope(|s| {
            let a = s.spawn(move || {
                track(5);
                cache.insert(16, 0, memo(), false);
                cache.insert(1, 0, memo(), false);
                to_b.send(()).expect("b waits");
                at_a.recv().expect("b evicted");
                drop(at_a);
                // What this thread frees from here on is its exit.
                frees(5)
            });
            let b = s.spawn(move || {
                track(6);
                let (first, second) = (memo(), memo());
                at_b.recv().expect("a inserted");
                let before = frees(6);
                assert_eq!(cache.insert(32, 0, first, false), 1);
                let queued = frees(6) - before;
                to_a.send(()).expect("a waits");
                at_exited.recv().expect("a exited");
                let before = frees(6);
                assert_eq!(cache.insert(17, 0, second, false), 1);
                (queued, frees(6) - before)
            });
            // The main thread only sends and joins: a thread that waits
            // on a channel keeps a block for the rest of its life.
            let before = a.join().expect("thread a");
            let at_exit = frees(5) - before;
            exited.send(()).expect("b waits");
            let (queued, in_place) = b.join().expect("thread b");
            (at_exit, queued, in_place)
        });
        assert!(
            (blocks..blocks + SLACK).contains(&at_exit),
            "the building thread freed {at_exit} blocks at exit (a memo has {blocks})"
        );
        assert!(
            queued < SLACK,
            "the evicting thread freed {queued} blocks while the owner lived"
        );
        assert!(
            (blocks..blocks + SLACK).contains(&in_place),
            "the evicting thread freed {in_place} blocks after the owner exited \
             (a memo has {blocks})"
        );
        assert_eq!(cache.stats().evictions, 2);
    }
    assert_eq!(live(4..7), baseline, "every block is freed exactly once");
}

#[test]
fn an_idle_owner_holds_at_most_one_shard_budget() {
    let (blocks, bytes) = setup(7);
    let baseline = live(7..10);
    {
        let cache = MigrationCache::with_capacity_bytes(16 * bytes);
        let cache = &cache;
        let (to_a, at_a) = channel();
        let (to_b, at_b) = channel();
        let (in_place, at_exit) = thread::scope(|s| {
            let a = s.spawn(move || {
                track(8);
                for shard in 0..3 {
                    cache.insert(16 + shard, 0, memo(), false);
                }
                to_b.send(()).expect("b waits");
                at_a.recv().expect("released");
            });
            let b = s.spawn(move || {
                track(9);
                let runs: Vec<CachedRun> = (0..3).map(|_| memo()).collect();
                at_b.recv().expect("a inserted");
                let before = frees(9);
                for (shard, run) in (0..3).zip(runs) {
                    assert_eq!(cache.insert(32 + shard, 0, run, false), 1);
                }
                frees(9) - before
            });

            let in_place = b.join().expect("thread b");
            let before = frees(8);
            to_a.send(()).expect("a waits");
            a.join().expect("thread a");
            (in_place, frees(8) - before)
        });
        assert!(
            (2 * blocks..2 * blocks + SLACK).contains(&in_place),
            "of three evicted memos of {blocks} blocks, the evicting thread freed \
             {in_place} blocks; one shard budget holds one memo"
        );
        assert!(
            (blocks..blocks + SLACK).contains(&at_exit),
            "the idle owner freed {at_exit} blocks at exit (a memo has {blocks})"
        );
        assert_eq!(cache.stats().evictions, 3);
    }
    assert_eq!(live(7..10), baseline, "every block is freed exactly once");
}
