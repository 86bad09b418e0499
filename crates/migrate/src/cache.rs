//! Content-addressed incremental migration cache.
//!
//! A migration's output is a pure function of three inputs: the source
//! design's content, the dialect pair, and the slice of the
//! configuration each executed stage reads. This module fingerprints
//! all three with the stable hash from [`interop_core::hash`] and
//! memoizes pipeline results under `(design_hash, chain_hash)` keys so
//! a re-run of an unchanged batch skips the pipeline entirely.
//!
//! The chain hash is cumulative: `hashes[k]` covers the dialect pair
//! plus executed stages `0..=k` (stage identity and config
//! fingerprint, see [`crate::stage::Stage::config_hash`]). Besides the
//! full-chain outcome, the pipeline memoizes each intermediate design
//! under its prefix hash — so editing one config knob invalidates only
//! the suffix of the pipeline that reads it, and the re-run resumes
//! from the longest still-valid prefix instead of starting over.
//!
//! Storage is a sharded in-memory LRU with a byte budget, plus an
//! optional plain-text on-disk tier (same philosophy as the batch
//! checkpoint format: debuggable with `cat`) holding clean full-chain
//! outcomes so warm starts survive process restarts.
//!
//! Each entry is charged the byte estimate of
//! [`interop_core::hash::size_of`]: a count-only walk of the stored
//! design (the bytes its stable hash would consume, without hashing
//! them) plus its stage reports. The walk runs before the shard lock is
//! taken. A shard's mutex covers only its map operations: entries are
//! held as `Arc<CachedRun>`, so a lookup clones the `Arc` under the
//! lock and deep-copies the run after releasing it, and the entries a
//! store replaces or evicts are dropped after it unlocks. The cache
//! also keeps a running total of live bytes ([`MigrationCache::bytes`])
//! so per-request accounting needs no lock at all.
//!
//! ```
//! use std::sync::Arc;
//! use migrate::{MigrationCache, Migrator};
//! use schematic::dialect::DialectId;
//! use schematic::gen::{generate, GenConfig};
//!
//! let cache = Arc::new(MigrationCache::new());
//! let migrator = Migrator::default().with_cache(cache.clone());
//! let source = generate(&GenConfig::default());
//! let cold = migrator.migrate(&source, DialectId::Cascade);
//! let warm = migrator.migrate(&source, DialectId::Cascade);
//! assert_eq!(cold.design, warm.design);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use interop_core::hash::{size_of, StableHash, StableHasher};
use schematic::design::Design;
use schematic::dialect::DialectId;

use crate::config::{MigrationConfig, StageId};
use crate::report::StageReport;
use crate::stage::Stage;

/// Default in-memory budget: 64 MiB of (estimated) design bytes.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 << 20;

const SHARDS: usize = 16;
const DISK_MAGIC: &str = "migrate-cache v1";

/// The executed stage chain for one dialect pair, with cumulative
/// content hashes. Computed once per `(source, target)` pair by the
/// [`crate::Migrator`] and shared across designs.
#[derive(Debug, Clone)]
pub struct StageChain {
    /// Source dialect.
    pub source: DialectId,
    /// Target dialect.
    pub target: DialectId,
    /// Hash of the dialect pair alone (the chain with zero stages).
    pub base: u64,
    /// Executed stage ids in pipeline order (skipped stages excluded —
    /// a run that skips a stage must not share keys with one that
    /// doesn't, and the skip list changes `hashes`, not the design).
    pub stages: Vec<StageId>,
    /// `hashes[k]` fingerprints the dialect pair plus `stages[0..=k]`.
    pub hashes: Vec<u64>,
}

impl StageChain {
    /// Fingerprints `stages` as executed under `config` for the given
    /// dialect pair.
    pub fn compute(
        stages: &[Box<dyn Stage>],
        config: &MigrationConfig,
        source: DialectId,
        target: DialectId,
    ) -> StageChain {
        let mut h = StableHasher::new();
        source.stable_hash(&mut h);
        target.stable_hash(&mut h);
        let base = h.finish();
        let mut prev = base;
        let mut ids = Vec::new();
        let mut hashes = Vec::new();
        for stage in stages {
            let id = stage.id();
            if !config.runs(id) {
                continue;
            }
            let mut h = StableHasher::seeded(prev);
            h.write_str(id.name());
            h.write_u64(stage.config_hash(config));
            prev = h.finish();
            ids.push(id);
            hashes.push(prev);
        }
        StageChain {
            source,
            target,
            base,
            stages: ids,
            hashes,
        }
    }

    /// The full-chain hash: the key of a finished migration.
    pub fn full_hash(&self) -> u64 {
        self.hashes.last().copied().unwrap_or(self.base)
    }
}

/// A memoized (possibly partial) pipeline result.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The design after the chain prefix this entry is keyed under.
    pub design: Design,
    /// Reports of the executed stages that produced `design`, in
    /// pipeline order.
    pub stages: Vec<(StageId, StageReport)>,
}

impl CachedRun {
    fn is_clean(&self) -> bool {
        self.stages.iter().all(|(_, r)| r.issues.is_empty())
    }

    /// The bytes this run is charged against the cache's budget: the
    /// design's [`size_of`] estimate, the issue texts, and 64 bytes per
    /// stage report.
    pub fn estimated_bytes(&self) -> usize {
        let design_bytes = size_of(&self.design);
        let issue_bytes: usize = self
            .stages
            .iter()
            .flat_map(|(_, r)| r.issues.iter())
            .map(|s| s.len())
            .sum();
        design_bytes + issue_bytes + self.stages.len() * 64
    }
}

/// Result of a cache probe for one design under one chain.
#[derive(Debug)]
pub enum Lookup {
    /// Full-chain hit: the finished migration.
    Hit(CachedRun),
    /// Longest valid prefix: `chain.stages[..=idx]` already applied to
    /// the carried design; the pipeline resumes at `idx + 1`.
    Prefix(usize, CachedRun),
    /// Nothing usable cached.
    Miss,
}

struct Entry {
    run: Arc<CachedRun>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(u64, u64), Entry>,
    bytes: usize,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-chain lookups served from memory (or disk, also counted
    /// in `disk_hits`).
    pub hits: u64,
    /// Lookups served partially: a prefix memo let the pipeline skip
    /// some leading stages.
    pub prefix_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Full-chain entries restored from the disk tier.
    pub disk_hits: u64,
    /// Full-chain entries written to the disk tier.
    pub disk_stores: u64,
    /// Live in-memory entries.
    pub entries: usize,
    /// Estimated bytes held by live entries (summed over the shards;
    /// equal to [`MigrationCache::bytes`] whenever no call is in
    /// flight).
    pub bytes: usize,
}

/// Sharded, content-addressed LRU over migration results. Shareable
/// across threads and [`crate::Migrator`]s: all methods take `&self`.
pub struct MigrationCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    /// Running total of `Shard::bytes` over all shards, adjusted by
    /// each store, purge and clear while it holds the shard's lock.
    bytes: AtomicUsize,
    tick: AtomicU64,
    hits: AtomicU64,
    prefix_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_hits: AtomicU64,
    disk_stores: AtomicU64,
    disk: Option<PathBuf>,
}

impl Default for MigrationCache {
    fn default() -> Self {
        MigrationCache::new()
    }
}

impl MigrationCache {
    /// A memory-only cache with the default byte budget.
    pub fn new() -> Self {
        MigrationCache::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }

    /// A memory-only cache holding at most roughly `capacity` bytes of
    /// cached designs (enforced per shard).
    pub fn with_capacity_bytes(capacity: usize) -> Self {
        MigrationCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: capacity.max(1),
            bytes: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            prefix_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_stores: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Adds a plain-text on-disk tier under `dir` (created if needed).
    /// Only *clean* full-chain outcomes are persisted; prefix memos
    /// stay in memory. Disk failures are swallowed — the tier is
    /// best-effort, correctness never depends on it.
    pub fn with_disk_tier(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        self.disk = Some(dir);
        self
    }

    /// The disk-tier directory, if one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    fn shard(&self, design: u64, chain: u64) -> &Mutex<Shard> {
        &self.shards[(design ^ chain) as usize % SHARDS]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn get(&self, design: u64, chain: u64) -> Option<CachedRun> {
        let run = {
            let mut shard = self.shard(design, chain).lock().unwrap();
            let tick = self.touch();
            let entry = shard.map.get_mut(&(design, chain))?;
            entry.last_used = tick;
            Arc::clone(&entry.run)
        };
        Some(CachedRun::clone(&run))
    }

    /// Moves the running total by a shard's change from `before` to
    /// `after` bytes. Called with that shard's lock held, so the total
    /// equals the shards' sum whenever no call is in flight.
    fn account(&self, before: usize, after: usize) {
        if after >= before {
            self.bytes.fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// Probes for `design_hash` under `chain`: the full-chain result
    /// first (memory, then disk), then prefix memos from longest to
    /// shortest. Updates hit/miss statistics.
    pub fn lookup(&self, design_hash: u64, chain: &StageChain) -> Lookup {
        let full = chain.full_hash();
        if let Some(run) = self.get(design_hash, full) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(run);
        }
        if let Some(run) = self.disk_load(design_hash, full, chain.target) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            let evicted = self.store(design_hash, full, run.clone());
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            return Lookup::Hit(run);
        }
        // Longest prefix strictly shorter than the full chain.
        for idx in (0..chain.hashes.len().saturating_sub(1)).rev() {
            if let Some(run) = self.get(design_hash, chain.hashes[idx]) {
                self.prefix_hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Prefix(idx, run);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss
    }

    fn store(&self, design: u64, chain: u64, run: CachedRun) -> u64 {
        let key = (design, chain);
        let bytes = run.estimated_bytes();
        let entry = Entry {
            run: Arc::new(run),
            bytes,
            last_used: self.touch(),
        };
        let budget = (self.capacity / SHARDS).max(1);
        let mut shard = self.shard(design, chain).lock().unwrap();
        let before = shard.bytes;
        let replaced = shard.map.insert(key, entry);
        if let Some(old) = &replaced {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        let mut evicted = Vec::new();
        while shard.bytes > budget && shard.map.len() > 1 {
            let lru = shard
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(lru) = lru else { break };
            let entry = shard.map.remove(&lru).unwrap();
            shard.bytes -= entry.bytes;
            evicted.push(entry);
        }
        self.account(before, shard.bytes);
        // Unlock first: the replaced and evicted runs are freed after.
        drop(shard);
        drop(replaced);
        evicted.len() as u64
    }

    /// Inserts a (possibly partial) pipeline result. `full` marks a
    /// finished migration — only those are eligible for the disk tier,
    /// and only when clean. Returns how many entries were evicted to
    /// make room (for the caller's `migrate.cache.evict` counter).
    pub fn insert(&self, design_hash: u64, chain_hash: u64, run: CachedRun, full: bool) -> u64 {
        if full && self.disk.is_some() && run.is_clean() {
            self.disk_store(design_hash, chain_hash, &run);
        }
        let evicted = self.store(design_hash, chain_hash, run);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops every entry — memory and disk — for one design. Called by
    /// the resilient batch driver when a design is quarantined: a
    /// corrupted-output attempt may have cached a result just before
    /// the corruption was detected, and a quarantined design must
    /// never be served from cache.
    pub fn purge_design(&self, design_hash: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.bytes;
            let keys: Vec<(u64, u64)> = shard
                .map
                .keys()
                .filter(|(d, _)| *d == design_hash)
                .copied()
                .collect();
            let mut doomed = Vec::with_capacity(keys.len());
            for key in keys {
                let entry = shard.map.remove(&key).unwrap();
                shard.bytes -= entry.bytes;
                doomed.push(entry);
            }
            self.account(before, shard.bytes);
            drop(shard);
            drop(doomed);
        }
        if let Some(dir) = &self.disk {
            let prefix = format!("{design_hash:016x}-");
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().starts_with(&prefix) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
    }

    /// Empties the in-memory tier (disk files are left in place).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let entries = std::mem::take(&mut shard.map);
            self.account(shard.bytes, 0);
            shard.bytes = 0;
            drop(shard);
            drop(entries);
        }
    }

    /// Estimated bytes held by live entries, read from the running
    /// total without locking any shard. While stores, purges or clears
    /// are in flight it may lag [`CacheStats::bytes`]; at rest the two
    /// are equal.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_stores: self.disk_stores.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    // ---- disk tier -------------------------------------------------

    fn disk_path(dir: &Path, design: u64, chain: u64) -> PathBuf {
        dir.join(format!("{design:016x}-{chain:016x}.mcache"))
    }

    fn disk_store(&self, design: u64, chain: u64, run: &CachedRun) {
        let Some(dir) = &self.disk else { return };
        let text = crate::batch::write_design(&run.design, run.design.dialect);
        let mut out = String::new();
        out.push_str(&format!(
            "{DISK_MAGIC} design={design:016x} chain={chain:016x} target={} stages={}\n",
            run.design.dialect,
            run.stages.len()
        ));
        for (id, r) in &run.stages {
            out.push_str(&format!(
                "stage {} touched={} created={} renamed={}\n",
                id.name(),
                r.touched,
                r.created,
                r.renamed
            ));
        }
        out.push_str(&format!("design bytes={}\n", text.len()));
        out.push_str(&text);
        if fs::write(Self::disk_path(dir, design, chain), out).is_ok() {
            self.disk_stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn disk_load(&self, design: u64, chain: u64, target: DialectId) -> Option<CachedRun> {
        let dir = self.disk.as_ref()?;
        let text = fs::read_to_string(Self::disk_path(dir, design, chain)).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        if !header.starts_with(DISK_MAGIC) {
            return None;
        }
        let mut stage_count = 0usize;
        for field in header.split_whitespace() {
            if let Some(v) = field.strip_prefix("stages=") {
                stage_count = v.parse().ok()?;
            } else if let Some(v) = field.strip_prefix("target=") {
                if v != target.to_string() {
                    return None;
                }
            }
        }
        let mut stages = Vec::with_capacity(stage_count);
        for _ in 0..stage_count {
            let line = lines.next()?;
            let mut report = StageReport::default();
            let mut name = "";
            for (i, field) in line.split_whitespace().enumerate() {
                match i {
                    0 => {
                        if field != "stage" {
                            return None;
                        }
                    }
                    1 => name = field,
                    _ => {
                        if let Some(v) = field.strip_prefix("touched=") {
                            report.touched = v.parse().ok()?;
                        } else if let Some(v) = field.strip_prefix("created=") {
                            report.created = v.parse().ok()?;
                        } else if let Some(v) = field.strip_prefix("renamed=") {
                            report.renamed = v.parse().ok()?;
                        }
                    }
                }
            }
            stages.push((stage_id_by_name(name)?, report));
        }
        let marker = lines.next()?;
        let body_len: usize = marker.strip_prefix("design bytes=")?.parse().ok()?;
        // The body starts after the header line, the stage lines, and
        // the `design bytes=` marker line.
        let mut offset = 0;
        let mut newlines_seen = 0;
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                newlines_seen += 1;
                if newlines_seen == 2 + stage_count {
                    offset = i + 1;
                    break;
                }
            }
        }
        let body = &text[offset..];
        if body.len() != body_len {
            return None;
        }
        let parsed = crate::batch::parse_design(body, target).ok()?;
        Some(CachedRun {
            design: parsed,
            stages,
        })
    }
}

fn stage_id_by_name(name: &str) -> Option<StageId> {
    StageId::ALL.iter().copied().find(|id| id.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::builtin_stages;
    use interop_core::hash::hash_of;
    use schematic::gen::{generate, GenConfig};

    fn chain_for(config: &MigrationConfig) -> StageChain {
        StageChain::compute(
            &builtin_stages(),
            config,
            DialectId::Viewstar,
            DialectId::Cascade,
        )
    }

    #[test]
    fn config_edit_invalidates_only_the_suffix() {
        let base = MigrationConfig::default();
        let edited = MigrationConfig::builder()
            .rename_global("VDD", "vdd!")
            .build()
            .expect("valid config");
        let a = chain_for(&base);
        let b = chain_for(&edited);
        assert_eq!(a.stages, b.stages);
        let globals_at = a
            .stages
            .iter()
            .position(|s| *s == StageId::Globals)
            .unwrap();
        for k in 0..a.hashes.len() {
            if k < globals_at {
                assert_eq!(a.hashes[k], b.hashes[k], "prefix {k} must survive");
            } else {
                assert_ne!(a.hashes[k], b.hashes[k], "suffix {k} must invalidate");
            }
        }
    }

    #[test]
    fn skip_list_changes_the_chain() {
        let base = MigrationConfig::default();
        let mut skipping = MigrationConfig::default();
        skipping.skip_stages.push(StageId::Text);
        let a = chain_for(&base);
        let b = chain_for(&skipping);
        assert_eq!(b.stages.len(), a.stages.len() - 1);
        assert_ne!(a.full_hash(), b.full_hash());
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let chain = chain_for(&MigrationConfig::default());
        let key = hash_of(&design);
        let run = CachedRun {
            design: design.clone(),
            stages: vec![(StageId::Scale, StageReport::default())],
        };
        assert!(matches!(cache.lookup(key, &chain), Lookup::Miss));
        cache.insert(key, chain.full_hash(), run, true);
        match cache.lookup(key, &chain) {
            Lookup::Hit(hit) => assert_eq!(hit.design, design),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn prefix_memo_is_found_when_full_chain_misses() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let chain = chain_for(&MigrationConfig::default());
        let key = hash_of(&design);
        let run = CachedRun {
            design: design.clone(),
            stages: vec![(StageId::Scale, StageReport::default())],
        };
        cache.insert(key, chain.hashes[0], run, false);
        match cache.lookup(key, &chain) {
            Lookup::Prefix(0, _) => {}
            other => panic!("expected prefix hit at 0, got {other:?}"),
        }
        assert_eq!(cache.stats().prefix_hits, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let cache = MigrationCache::with_capacity_bytes(1); // per-shard budget 1 byte
        let design = generate(&GenConfig::default());
        let run = CachedRun {
            design,
            stages: Vec::new(),
        };
        // Keys chosen to land in the same shard: design ^ chain equal.
        cache.insert(2, 2, run.clone(), false);
        cache.insert(3, 3, run.clone(), false);
        cache.insert(16 + 2, 16 + 2, run, false);
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(stats.entries <= SHARDS);
    }

    #[test]
    fn disk_restores_count_the_evictions_they_cause() {
        let dir = std::env::temp_dir().join(format!(
            "migrate-cache-restore-evicts-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MigrationCache::with_capacity_bytes(1).with_disk_tier(&dir);
        let design = crate::Migrator::default()
            .migrate(&generate(&GenConfig::default()), DialectId::Cascade)
            .design;
        let run = CachedRun {
            design,
            stages: Vec::new(),
        };
        // Same shard (design ^ chain equal): the second insert evicts
        // the first, which stays on disk.
        cache.insert(2, 2, run.clone(), true);
        cache.insert(16 + 2, 16 + 2, run, true);
        assert_eq!(cache.stats().evictions, 1);

        // Restoring (2, 2) from disk evicts (18, 18) in turn.
        let chain = StageChain {
            source: DialectId::Viewstar,
            target: DialectId::Cascade,
            base: 2,
            stages: Vec::new(),
            hashes: Vec::new(),
        };
        assert!(matches!(cache.lookup(2, &chain), Lookup::Hit(_)));
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.evictions), (1, 2));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, cache.bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn purge_design_removes_every_entry_for_that_design() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let run = CachedRun {
            design,
            stages: Vec::new(),
        };
        for chain in 0..8u64 {
            cache.insert(42, chain, run.clone(), false);
        }
        cache.insert(7, 0, run, false);
        cache.purge_design(42);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "only the other design remains");
    }
}
