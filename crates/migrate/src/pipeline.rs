//! The migration pipeline: the Section 2 translation, end to end.
//!
//! The pipeline is a sequence of boxed [`Stage`] objects — the eight
//! built-ins by default, extensible via [`Migrator::with_stage`]. Every
//! run can be observed through an [`obs::Recorder`]: the pipeline opens
//! a `migrate.pipeline` span plus one `migrate.stage.<name>` span per
//! executed stage.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use interop_core::hash::hash_of;
use obs::{NullRecorder, Recorder, Span};
use schematic::design::Design;
use schematic::dialect::{DialectId, DialectRules};

use crate::cache::{CachedRun, Lookup, MigrationCache, StageChain};
use crate::config::{ConfigError, MigrationConfig, StageId};
use crate::report::{MigrationReport, StageReport};
use crate::stage::{builtin_stages, Stage, StageCtx};
use crate::verify::{verify, VerifyReport};

/// Result of a migration run.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The translated design, in target-dialect conventions.
    pub design: Design,
    /// Per-stage statistics.
    pub report: MigrationReport,
}

/// Error from a fallible migration entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The configuration failed validation.
    Config(ConfigError),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::Config(e) => write!(f, "invalid migration config: {e}"),
        }
    }
}

impl Error for MigrateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MigrateError::Config(e) => Some(e),
        }
    }
}

impl From<ConfigError> for MigrateError {
    fn from(e: ConfigError) -> Self {
        MigrateError::Config(e)
    }
}

/// Drives the full Viewstar → Cascade (or any dialect-to-dialect)
/// translation pipeline.
///
/// ```
/// use migrate::{Migrator, MigrationConfig};
/// use schematic::gen::{generate, GenConfig};
/// use schematic::dialect::DialectId;
///
/// let source = generate(&GenConfig { bus_width: 0, ..GenConfig::default() });
/// let migrator = Migrator::new(MigrationConfig::default());
/// let outcome = migrator.migrate(&source, DialectId::Cascade);
/// assert_eq!(outcome.design.dialect, DialectId::Cascade);
/// ```
pub struct Migrator {
    config: MigrationConfig,
    stages: Vec<Box<dyn Stage>>,
    parallelism: usize,
    cache: Option<Arc<MigrationCache>>,
    /// Chain hashes memoized per dialect pair — the stage list and
    /// config are fixed after construction, so each pair's chain is
    /// computed once and shared across designs and threads.
    chains: Mutex<BTreeMap<(DialectId, DialectId), Arc<StageChain>>>,
}

impl fmt::Debug for Migrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Migrator")
            .field("config", &self.config)
            .field("stages", &self.stage_ids())
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

impl Default for Migrator {
    fn default() -> Self {
        Migrator::new(MigrationConfig::default())
    }
}

impl Migrator {
    /// Creates a migrator from a configuration, with the eight built-in
    /// stages in Section 2 order.
    pub fn new(config: MigrationConfig) -> Self {
        Migrator {
            config,
            stages: builtin_stages(),
            parallelism: 1,
            cache: None,
            chains: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MigrationConfig {
        &self.config
    }

    /// Appends a custom stage after the built-ins (or after previously
    /// added stages). Use [`MigrationConfig`]'s `skip_stages` with the
    /// stage's [`StageId`] to disable it per run.
    pub fn with_stage(mut self, stage: Box<dyn Stage>) -> Self {
        self.stages.push(stage);
        // The stage list is part of every chain hash.
        self.chains.get_mut().unwrap().clear();
        self
    }

    /// Attaches a content-addressed result cache (see
    /// [`MigrationCache`]). A warm re-run of an unchanged design skips
    /// the pipeline entirely; after a config edit, the pipeline resumes
    /// from the longest still-valid stage prefix. The cache may be
    /// shared across migrators and threads.
    pub fn with_cache(mut self, cache: Arc<MigrationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<MigrationCache>> {
        self.cache.as_ref()
    }

    /// The executed stage chain (with content hashes) for a dialect
    /// pair, computed on first use and memoized.
    pub fn stage_chain(&self, source: DialectId, target: DialectId) -> Arc<StageChain> {
        let mut chains = self.chains.lock().unwrap();
        chains
            .entry((source, target))
            .or_insert_with(|| {
                Arc::new(StageChain::compute(
                    &self.stages,
                    &self.config,
                    source,
                    target,
                ))
            })
            .clone()
    }

    /// Sets how many threads each stage may use for independent pages
    /// within one design (1 = sequential; output is identical at any
    /// value).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Stage identities, in execution order.
    pub fn stage_ids(&self) -> Vec<StageId> {
        self.stages.iter().map(|s| s.id()).collect()
    }

    /// Translates `source` into the `target` dialect.
    ///
    /// Stage order: scale → props → callbacks → symbols → bus →
    /// connectors → globals → text. Property stages run before symbol
    /// replacement so rule scopes refer to *source* cell names.
    pub fn migrate(&self, source: &Design, target: DialectId) -> MigrationOutcome {
        self.migrate_recorded(source, target, &NullRecorder)
    }

    /// Like [`Migrator::migrate`], but emits spans and counters into
    /// `recorder`: one `migrate.pipeline` span for the whole run, one
    /// `migrate.stage.<name>` span per executed stage, and counters
    /// `migrate.designs` / `migrate.issues`.
    pub fn migrate_recorded(
        &self,
        source: &Design,
        target: DialectId,
        recorder: &dyn Recorder,
    ) -> MigrationOutcome {
        let pipeline_span = Span::enter(recorder, "migrate.pipeline");
        pipeline_span.attr("design", source.name.as_str());
        pipeline_span.attr("from", source.dialect.to_string());
        pipeline_span.attr("to", target.to_string());
        let stats = source.stats();
        pipeline_span.attr("instances", stats.instances);
        pipeline_span.attr("wires", stats.wires);
        let src_rules = DialectRules::for_id(source.dialect);
        let dst_rules = DialectRules::for_id(target);
        let mut report = MigrationReport::default();

        // Probe the cache first: full hit short-circuits the pipeline,
        // a prefix memo lets it resume mid-chain.
        let keys = self.cache.as_ref().map(|cache| {
            let chain = self.stage_chain(source.dialect, target);
            let design_hash = hash_of(source);
            (cache, chain, design_hash)
        });
        // Executed-stage reports in pipeline order — both the memo
        // payload and, at the end, the migration report.
        let mut executed: Vec<(StageId, StageReport)> = Vec::new();
        // How many leading executed stages were restored from cache.
        let mut applied = 0usize;
        let mut design = match &keys {
            Some((cache, chain, design_hash)) => {
                let lookup_span = Span::enter(recorder, "migrate.cache.lookup");
                lookup_span.attr("design", source.name.as_str());
                let looked = cache.lookup(*design_hash, chain);
                drop(lookup_span);
                match looked {
                    Lookup::Hit(run) => {
                        recorder.add_counter("migrate.cache.hit", 1);
                        for stage in &self.stages {
                            let id = stage.id();
                            if !self.config.runs(id) {
                                report.skipped.push(id);
                            }
                        }
                        for (id, stage_report) in run.stages {
                            report.stage_mut(id).merge(stage_report);
                        }
                        recorder.add_counter("migrate.designs", 1);
                        recorder.add_counter("migrate.issues", report.issue_count() as u64);
                        // A full hit can be served by another chain's
                        // intermediate memo whose hash matches this
                        // chain end-to-end (e.g. ours skips the last
                        // stage); the content is right but the dialect
                        // tag may still be the source's. Flip it
                        // unconditionally, exactly like a cold run.
                        let mut design = run.design;
                        design.dialect = target;
                        return MigrationOutcome { design, report };
                    }
                    Lookup::Prefix(idx, run) => {
                        recorder.add_counter("migrate.cache.prefix_hit", 1);
                        applied = idx + 1;
                        executed = run.stages;
                        run.design
                    }
                    Lookup::Miss => {
                        recorder.add_counter("migrate.cache.miss", 1);
                        source.clone()
                    }
                }
            }
            None => source.clone(),
        };

        let ctx = StageCtx {
            config: &self.config,
            src_rules: &src_rules,
            dst_rules: &dst_rules,
            recorder,
            parallelism: self.parallelism,
        };

        let mut exec_idx = 0usize;
        for stage in &self.stages {
            let id = stage.id();
            if !self.config.runs(id) {
                report.skipped.push(id);
                continue;
            }
            let idx = exec_idx;
            exec_idx += 1;
            if idx < applied {
                continue; // restored from a cached prefix
            }
            let span = Span::enter(recorder, format!("migrate.stage.{}", id.name()));
            span.attr("design", source.name.as_str());
            span.attr("stage", id.name());
            let stage_report = stage.run(&mut design, &ctx);
            span.attr("touched", stage_report.touched);
            if !stage_report.issues.is_empty() {
                span.attr("issues", stage_report.issues.len());
            }
            drop(span);
            executed.push((id, stage_report));
            if let Some((cache, chain, design_hash)) = &keys {
                // Memoize the intermediate design under its prefix
                // hash; the final state is inserted below, after the
                // dialect tag flips.
                if idx + 1 < chain.hashes.len() {
                    let evicted = cache.insert(
                        *design_hash,
                        chain.hashes[idx],
                        CachedRun {
                            design: design.clone(),
                            stages: executed.clone(),
                        },
                        false,
                    );
                    recorder.add_counter("migrate.cache.insert", 1);
                    if evicted > 0 {
                        recorder.add_counter("migrate.cache.evict", evicted);
                    }
                }
            }
        }

        design.dialect = target;
        if let Some((cache, chain, design_hash)) = &keys {
            let evicted = cache.insert(
                *design_hash,
                chain.full_hash(),
                CachedRun {
                    design: design.clone(),
                    stages: executed.clone(),
                },
                true,
            );
            recorder.add_counter("migrate.cache.insert", 1);
            if evicted > 0 {
                recorder.add_counter("migrate.cache.evict", evicted);
            }
            recorder.record_value("migrate.cache.bytes", cache.bytes() as u64);
        }
        for (id, stage_report) in executed {
            report.stage_mut(id).merge(stage_report);
        }
        recorder.add_counter("migrate.designs", 1);
        recorder.add_counter("migrate.issues", report.issue_count() as u64);
        MigrationOutcome { design, report }
    }

    /// Migrates and independently verifies in one call. Validates the
    /// configuration first, so a bad config is reported as a typed
    /// [`MigrateError`] instead of silently producing a broken design.
    pub fn migrate_and_verify(
        &self,
        source: &Design,
        target: DialectId,
    ) -> Result<(MigrationOutcome, VerifyReport), MigrateError> {
        self.config.validate()?;
        let src_rules = DialectRules::for_id(source.dialect);
        let dst_rules = DialectRules::for_id(target);
        let outcome = self.migrate(source, target);
        let report = verify(
            source,
            &src_rules,
            &outcome.design,
            &dst_rules,
            &self.config,
        );
        Ok((outcome, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::MemoryRecorder;
    use schematic::gen::{generate, GenConfig};

    #[test]
    fn recorder_captures_a_span_per_stage_and_the_pipeline() {
        let source = generate(&GenConfig::default());
        let recorder = MemoryRecorder::new();
        let migrator = Migrator::default();
        let outcome = migrator.migrate_recorded(&source, DialectId::Cascade, &recorder);
        assert_eq!(outcome.design.dialect, DialectId::Cascade);
        assert_eq!(recorder.span_count("migrate.pipeline"), 1);
        for id in migrator.stage_ids() {
            assert_eq!(
                recorder.span_count(&format!("migrate.stage.{}", id.name())),
                1,
                "missing span for stage {}",
                id.name()
            );
        }
        assert_eq!(recorder.counter("migrate.designs"), 1);
    }

    #[test]
    fn skipped_stages_get_no_span() {
        let source = generate(&GenConfig::default());
        let recorder = MemoryRecorder::new();
        let mut cfg = MigrationConfig::default();
        cfg.skip_stages.push(StageId::Text);
        let migrator = Migrator::new(cfg);
        let outcome = migrator.migrate_recorded(&source, DialectId::Cascade, &recorder);
        assert!(outcome.report.skipped.contains(&StageId::Text));
        assert_eq!(recorder.span_count("migrate.stage.text"), 0);
        assert_eq!(recorder.span_count("migrate.stage.scale"), 1);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let source = generate(&GenConfig::default());
        let mut cfg = MigrationConfig::default();
        cfg.globals_map.insert(String::new(), "VDD".into());
        let migrator = Migrator::new(cfg);
        let err = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .unwrap_err();
        assert!(matches!(err, MigrateError::Config(_)));
        assert!(err.to_string().contains("invalid migration config"));
    }

    #[test]
    fn page_parallel_migration_matches_sequential() {
        let source = generate(&GenConfig {
            pages: 6,
            ..GenConfig::default()
        });
        let sequential = Migrator::default().migrate(&source, DialectId::Cascade);
        for threads in [2, 4, 8] {
            let parallel = Migrator::default()
                .with_parallelism(threads)
                .migrate(&source, DialectId::Cascade);
            assert_eq!(parallel.design, sequential.design, "threads={threads}");
            assert_eq!(
                format!("{}", parallel.report),
                format!("{}", sequential.report),
                "threads={threads}"
            );
        }
    }
}
