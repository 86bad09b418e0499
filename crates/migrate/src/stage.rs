//! The public stage API: the pipeline is a sequence of boxed
//! [`Stage`] objects, so external crates can register custom stages
//! alongside the eight built-ins.
//!
//! A stage receives the design being translated plus a [`StageCtx`]
//! carrying the configuration, both dialects' rules and an
//! observability [`Recorder`]. It returns a [`StageReport`] of what it
//! did.
//!
//! ```
//! use migrate::prelude::*;
//! use schematic::design::Design;
//!
//! /// A custom stage that counts instances without changing anything.
//! struct Census;
//!
//! impl Stage for Census {
//!     fn id(&self) -> StageId {
//!         StageId::Custom("census")
//!     }
//!     fn run(&self, design: &mut Design, _ctx: &StageCtx<'_>) -> StageReport {
//!         StageReport {
//!             touched: design.stats().instances,
//!             ..StageReport::default()
//!         }
//!     }
//! }
//!
//! let migrator = Migrator::default().with_stage(Box::new(Census));
//! assert_eq!(migrator.stage_ids().last().unwrap().name(), "census");
//! ```

use interop_core::hash::{hash_of, StableHash, StableHasher};
use obs::Recorder;
use schematic::design::Design;
use schematic::dialect::DialectRules;

use crate::config::{MigrationConfig, StageId};
use crate::report::StageReport;
use crate::stages;

/// Everything a stage may read while running: configuration, dialect
/// rules on both sides, and the observability sink.
pub struct StageCtx<'a> {
    /// The migration configuration.
    pub config: &'a MigrationConfig,
    /// Source-dialect conventions.
    pub src_rules: &'a DialectRules,
    /// Target-dialect conventions.
    pub dst_rules: &'a DialectRules,
    /// Observability sink; stages may open spans and bump counters.
    pub recorder: &'a dyn Recorder,
}

/// One translation stage. Implementations must be [`Send`] + [`Sync`]
/// so a pipeline can be shared by the parallel batch driver.
pub trait Stage: Send + Sync {
    /// The stage's identity, used for reports, skip lists, and span
    /// names. Built-ins use the `StageId` variants; external stages use
    /// [`StageId::Custom`].
    fn id(&self) -> StageId;

    /// Runs the stage over `design`.
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport;

    /// Stable fingerprint of the configuration slice this stage reads.
    ///
    /// Two configurations with equal fingerprints must make this stage
    /// produce identical output on identical input; the migration cache
    /// uses the fingerprint to invalidate exactly the pipeline suffix a
    /// config edit affects. The default covers stages whose behaviour
    /// depends only on the dialect pair (already part of every cache
    /// key), not on the configuration.
    fn config_hash(&self, _config: &MigrationConfig) -> u64 {
        0
    }
}

/// Built-in stage: geometry scaling between vendor grids.
pub struct ScaleStage;

impl Stage for ScaleStage {
    fn id(&self) -> StageId {
        StageId::Scale
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let (num, den) = ctx.src_rules.scale_to(ctx.dst_rules);
        let mut report = StageReport::default();
        stages::scale::run(design, num, den, ctx.dst_rules.grid, &mut report);
        report
    }
}

/// Built-in stage: standard property mapping.
pub struct PropsStage;

impl Stage for PropsStage {
    fn id(&self) -> StageId {
        StageId::Props
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::props::run_standard(design, ctx.config, &mut report);
        report
    }
    fn config_hash(&self, config: &MigrationConfig) -> u64 {
        hash_of(&config.prop_rules)
    }
}

/// Built-in stage: a/L callbacks for non-standard properties.
pub struct CallbacksStage;

impl Stage for CallbacksStage {
    fn id(&self) -> StageId {
        StageId::Callbacks
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::props::run_callbacks(design, ctx.config, &mut report);
        report
    }
    fn config_hash(&self, config: &MigrationConfig) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(&config.callback_script);
        config.callbacks.stable_hash(&mut h);
        h.finish()
    }
}

/// Built-in stage: symbol replacement with reroute.
pub struct SymbolsStage;

impl Stage for SymbolsStage {
    fn id(&self) -> StageId {
        StageId::Symbols
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::symbols::run(design, ctx.config, &mut report);
        report
    }
    fn config_hash(&self, config: &MigrationConfig) -> u64 {
        let mut h = StableHasher::new();
        config.symbol_map.stable_hash(&mut h);
        config.target_libraries.stable_hash(&mut h);
        h.finish()
    }
}

/// Built-in stage: bus syntax translation.
pub struct BusStage;

impl Stage for BusStage {
    fn id(&self) -> StageId {
        StageId::Bus
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::bus::run(design, ctx.src_rules.bus, ctx.dst_rules.bus, &mut report);
        report
    }
}

/// Built-in stage: hierarchy and off-page connector synthesis.
pub struct ConnectorsStage;

impl Stage for ConnectorsStage {
    fn id(&self) -> StageId {
        StageId::Connectors
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::connectors::run(design, ctx.config, ctx.dst_rules.grid, &mut report);
        report
    }
    fn config_hash(&self, config: &MigrationConfig) -> u64 {
        hash_of(&config.offpage_placement)
    }
}

/// Built-in stage: global net mapping.
pub struct GlobalsStage;

impl Stage for GlobalsStage {
    fn id(&self) -> StageId {
        StageId::Globals
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::globals::run(design, ctx.config, &mut report);
        report
    }
    fn config_hash(&self, config: &MigrationConfig) -> u64 {
        hash_of(&config.globals_map)
    }
}

/// Built-in stage: font and text-origin adjustment.
pub struct TextStage;

impl Stage for TextStage {
    fn id(&self) -> StageId {
        StageId::Text
    }
    fn run(&self, design: &mut Design, ctx: &StageCtx<'_>) -> StageReport {
        let mut report = StageReport::default();
        stages::text::run(design, ctx.dst_rules.font, &mut report);
        report
    }
}

/// The built-in pipeline, in Section 2 order: scale → props →
/// callbacks → symbols → bus → connectors → globals → text. Property
/// stages run before symbol replacement so rule scopes refer to
/// *source* cell names.
pub fn builtin_stages() -> Vec<Box<dyn Stage>> {
    vec![
        Box::new(ScaleStage),
        Box::new(PropsStage),
        Box::new(CallbacksStage),
        Box::new(SymbolsStage),
        Box::new(BusStage),
        Box::new(ConnectorsStage),
        Box::new(GlobalsStage),
        Box::new(TextStage),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NullRecorder;
    use schematic::dialect::DialectId;
    use schematic::gen::{generate, GenConfig};

    #[test]
    fn builtin_pipeline_has_section2_order() {
        let ids: Vec<StageId> = builtin_stages().iter().map(|s| s.id()).collect();
        assert_eq!(
            ids,
            vec![
                StageId::Scale,
                StageId::Props,
                StageId::Callbacks,
                StageId::Symbols,
                StageId::Bus,
                StageId::Connectors,
                StageId::Globals,
                StageId::Text,
            ]
        );
    }

    #[test]
    fn a_stage_runs_standalone_through_the_trait() {
        let mut design = generate(&GenConfig::default());
        let config = MigrationConfig::default();
        let src = DialectRules::for_id(DialectId::Viewstar);
        let dst = DialectRules::for_id(DialectId::Cascade);
        let ctx = StageCtx {
            config: &config,
            src_rules: &src,
            dst_rules: &dst,
            recorder: &NullRecorder,
        };
        let report = ScaleStage.run(&mut design, &ctx);
        assert!(report.touched > 0);
    }
}
