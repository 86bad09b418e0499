//! Migration configuration: the rule tables Section 2 of the paper
//! describes being "created" and "defined" for the Exar translation.

use std::collections::BTreeMap;

use interop_core::hash::{StableHash, StableHasher};
use schematic::geom::{Orient, Point};
use schematic::symbol::SymbolRef;

/// One entry of the symbol-replacement map: "Library, name, and view
/// mappings, along with origin offsets and rotation codes, were defined
/// for each Viewlogic component to be replaced by a Cadence component.
/// For situations where pin naming conventions differed, a pin name map
/// was also created."
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolMapEntry {
    /// Source symbol to replace.
    pub from: SymbolRef,
    /// Replacement symbol.
    pub to: SymbolRef,
    /// Origin offset applied at replacement (target-grid units).
    pub origin_offset: Point,
    /// Additional rotation applied at replacement.
    pub rotation: Orient,
    /// Source pin name → target pin name, for pins whose names differ.
    pub pin_map: BTreeMap<String, String>,
}

impl SymbolMapEntry {
    /// Creates a map entry with no offset, rotation, or pin renames.
    pub fn new(from: SymbolRef, to: SymbolRef) -> Self {
        SymbolMapEntry {
            from,
            to,
            origin_offset: Point::new(0, 0),
            rotation: Orient::R0,
            pin_map: BTreeMap::new(),
        }
    }

    /// Sets the origin offset, builder style.
    pub fn with_offset(mut self, offset: Point) -> Self {
        self.origin_offset = offset;
        self
    }

    /// Sets the additional rotation, builder style.
    pub fn with_rotation(mut self, rotation: Orient) -> Self {
        self.rotation = rotation;
        self
    }

    /// Adds one pin rename, builder style.
    pub fn with_pin(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.pin_map.insert(from.into(), to.into());
        self
    }

    /// The target pin name for a source pin.
    pub fn map_pin<'a>(&'a self, pin: &'a str) -> &'a str {
        self.pin_map.get(pin).map(String::as_str).unwrap_or(pin)
    }
}

/// A standard property-mapping rule: "The mapping included the addition,
/// deletion, renaming or changing of property names, values, and text
/// labels."
#[derive(Debug, Clone, PartialEq)]
pub enum PropRule {
    /// Add a property with a fixed value (skipped when already present).
    Add {
        /// Property name.
        name: String,
        /// Value as text.
        value: String,
    },
    /// Delete a property.
    Delete {
        /// Property name.
        name: String,
    },
    /// Rename a property, keeping its value.
    Rename {
        /// Old name.
        from: String,
        /// New name.
        to: String,
    },
    /// Replace a property's value when it currently equals `from`.
    ChangeValue {
        /// Property name.
        name: String,
        /// Value to match (as text).
        from: String,
        /// Replacement value (as text).
        to: String,
    },
}

/// Scope filter for a property rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropScope {
    /// Applies to every instance.
    AllInstances,
    /// Applies only to instances of the given source symbol cell.
    Cell(String),
}

impl PropScope {
    /// True when the scope covers an instance of `cell`.
    pub fn covers(&self, cell: &str) -> bool {
        match self {
            PropScope::AllInstances => true,
            PropScope::Cell(c) => c == cell,
        }
    }
}

/// An a/L callback registration: "These requirements were handled by the
/// addition of Access Language (a/L) callbacks for a selected set of
/// objects."
#[derive(Debug, Clone, PartialEq)]
pub struct Callback {
    /// Which instances the callback runs on.
    pub scope: PropScope,
    /// Name of the a/L entry-point function (zero arguments).
    pub entry: String,
}

/// Where synthesized off-page connectors are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffPagePlacement {
    /// At a floating wire end when one exists, else at the sheet edge —
    /// the strategy the paper describes.
    #[default]
    FloatingEndOrEdge,
    /// Always via a stub to the sheet edge.
    EdgeAlways,
}

/// The complete migration configuration.
#[derive(Debug, Clone, Default)]
pub struct MigrationConfig {
    /// Target-system component libraries, added to the design before
    /// symbol replacement (the paper's "existing library components from
    /// the Cadence system").
    pub target_libraries: Vec<schematic::Library>,
    /// Symbol replacement map.
    pub symbol_map: Vec<SymbolMapEntry>,
    /// Standard property rules with their scopes, applied in order.
    pub prop_rules: Vec<(PropScope, PropRule)>,
    /// a/L script source defining callback functions (loaded once).
    pub callback_script: String,
    /// Callback registrations.
    pub callbacks: Vec<Callback>,
    /// Global net renames (e.g. `VDD` → `vdd!`).
    pub globals_map: BTreeMap<String, String>,
    /// Off-page connector placement strategy.
    pub offpage_placement: OffPagePlacement,
    /// Disable individual stages (for ablation studies). Empty = run
    /// everything.
    pub skip_stages: Vec<StageId>,
}

/// Identifies one pipeline stage (for reports and ablation).
///
/// The eight built-in stages cover every Section 2 issue category;
/// [`StageId::Custom`] identifies externally registered
/// [`crate::stage::Stage`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Geometry scaling between grids.
    Scale,
    /// Symbol replacement with reroute.
    Symbols,
    /// Standard property mapping.
    Props,
    /// a/L callbacks for non-standard properties.
    Callbacks,
    /// Bus syntax translation.
    Bus,
    /// Hierarchy and off-page connector synthesis.
    Connectors,
    /// Global net mapping.
    Globals,
    /// Font and text-origin adjustment.
    Text,
    /// An externally registered stage, identified by its static name.
    Custom(&'static str),
}

impl StageId {
    /// The built-in stages in pipeline order.
    pub const ALL: [StageId; 8] = [
        StageId::Scale,
        StageId::Symbols,
        StageId::Props,
        StageId::Callbacks,
        StageId::Bus,
        StageId::Connectors,
        StageId::Globals,
        StageId::Text,
    ];

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Scale => "scale",
            StageId::Symbols => "symbols",
            StageId::Props => "props",
            StageId::Callbacks => "callbacks",
            StageId::Bus => "bus",
            StageId::Connectors => "connectors",
            StageId::Globals => "globals",
            StageId::Text => "text",
            StageId::Custom(name) => name,
        }
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl MigrationConfig {
    /// Starts building a configuration. Validation happens at
    /// [`MigrationConfigBuilder::build`]; prefer this over struct
    /// literals, which skip validation entirely (the literal form is
    /// deprecated for external use and will lose field visibility in a
    /// future revision).
    pub fn builder() -> MigrationConfigBuilder {
        MigrationConfigBuilder::default()
    }

    /// True when the stage should run.
    pub fn runs(&self, stage: StageId) -> bool {
        !self.skip_stages.contains(&stage)
    }

    /// Finds the symbol-map entry for a source reference.
    pub fn symbol_entry(&self, from: &SymbolRef) -> Option<&SymbolMapEntry> {
        self.symbol_map.iter().find(|e| &e.from == from)
    }

    /// Checks the configuration's internal consistency — the same rules
    /// [`MigrationConfigBuilder::build`] enforces.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut seen_from: Vec<&SymbolRef> = Vec::new();
        for e in &self.symbol_map {
            if seen_from.contains(&&e.from) {
                return Err(ConfigError::DuplicateSymbolMapping {
                    cell: e.from.cell.to_string(),
                });
            }
            seen_from.push(&e.from);
        }
        for cb in &self.callbacks {
            if cb.entry.is_empty() {
                return Err(ConfigError::EmptyCallbackEntry);
            }
        }
        if !self.callbacks.is_empty() && self.callback_script.trim().is_empty() {
            return Err(ConfigError::CallbacksWithoutScript {
                count: self.callbacks.len(),
            });
        }
        for (from, to) in &self.globals_map {
            if from.is_empty() || to.is_empty() {
                return Err(ConfigError::EmptyGlobalName);
            }
        }
        let mut seen_skip: Vec<StageId> = Vec::new();
        for s in &self.skip_stages {
            if seen_skip.contains(s) {
                return Err(ConfigError::DuplicateSkip { stage: *s });
            }
            seen_skip.push(*s);
        }
        Ok(())
    }
}

// Stable fingerprints of the configuration slices each stage reads —
// the invalidation keys of the migration cache. Every field that can
// change a stage's output must be hashed; nothing else should be, so
// an unrelated config edit leaves a stage's fingerprint (and its
// cached results) intact.

impl StableHash for SymbolMapEntry {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.from.stable_hash(h);
        self.to.stable_hash(h);
        self.origin_offset.stable_hash(h);
        self.rotation.stable_hash(h);
        self.pin_map.stable_hash(h);
    }
}

impl StableHash for PropRule {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            PropRule::Add { name, value } => {
                h.write_u8(0);
                h.write_str(name);
                h.write_str(value);
            }
            PropRule::Delete { name } => {
                h.write_u8(1);
                h.write_str(name);
            }
            PropRule::Rename { from, to } => {
                h.write_u8(2);
                h.write_str(from);
                h.write_str(to);
            }
            PropRule::ChangeValue { name, from, to } => {
                h.write_u8(3);
                h.write_str(name);
                h.write_str(from);
                h.write_str(to);
            }
        }
    }
}

impl StableHash for PropScope {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            PropScope::AllInstances => h.write_u8(0),
            PropScope::Cell(c) => {
                h.write_u8(1);
                h.write_str(c);
            }
        }
    }
}

impl StableHash for Callback {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.scope.stable_hash(h);
        h.write_str(&self.entry);
    }
}

impl StableHash for OffPagePlacement {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            OffPagePlacement::FloatingEndOrEdge => 0,
            OffPagePlacement::EdgeAlways => 1,
        });
    }
}

/// A configuration consistency failure, reported by
/// [`MigrationConfig::validate`] and [`MigrationConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Two symbol-map entries share the same source reference.
    DuplicateSymbolMapping {
        /// Source cell mapped twice.
        cell: String,
    },
    /// A callback registration has an empty entry-point name.
    EmptyCallbackEntry,
    /// Callbacks are registered but no a/L script was provided.
    CallbacksWithoutScript {
        /// How many callbacks have nothing to call into.
        count: usize,
    },
    /// A global rename maps from or to an empty net name.
    EmptyGlobalName,
    /// The same stage appears twice in the skip list.
    DuplicateSkip {
        /// The repeated stage.
        stage: StageId,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DuplicateSymbolMapping { cell } => {
                write!(f, "symbol map: source cell `{cell}` mapped more than once")
            }
            ConfigError::EmptyCallbackEntry => {
                write!(f, "callback registration with empty entry-point name")
            }
            ConfigError::CallbacksWithoutScript { count } => {
                write!(
                    f,
                    "{count} callback(s) registered but callback_script is empty"
                )
            }
            ConfigError::EmptyGlobalName => write!(f, "global rename with empty net name"),
            ConfigError::DuplicateSkip { stage } => {
                write!(f, "stage `{stage}` appears twice in skip_stages")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`MigrationConfig`] with validation at [`build`].
///
/// [`build`]: MigrationConfigBuilder::build
///
/// ```
/// use migrate::MigrationConfig;
/// use migrate::config::StageId;
///
/// let config = MigrationConfig::builder()
///     .rename_global("VDD", "vdd!")
///     .skip_stage(StageId::Text)
///     .build()
///     .expect("valid config");
/// assert!(!config.runs(StageId::Text));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MigrationConfigBuilder {
    config: MigrationConfig,
}

impl MigrationConfigBuilder {
    /// Adds a target-system component library.
    pub fn target_library(mut self, lib: schematic::Library) -> Self {
        self.config.target_libraries.push(lib);
        self
    }

    /// Adds one symbol-replacement mapping.
    pub fn map_symbol(mut self, entry: SymbolMapEntry) -> Self {
        self.config.symbol_map.push(entry);
        self
    }

    /// Appends a standard property rule under a scope.
    pub fn prop_rule(mut self, scope: PropScope, rule: PropRule) -> Self {
        self.config.prop_rules.push((scope, rule));
        self
    }

    /// Sets the a/L script source defining callback functions.
    pub fn callback_script(mut self, script: impl Into<String>) -> Self {
        self.config.callback_script = script.into();
        self
    }

    /// Registers an a/L callback.
    pub fn callback(mut self, scope: PropScope, entry: impl Into<String>) -> Self {
        self.config.callbacks.push(Callback {
            scope,
            entry: entry.into(),
        });
        self
    }

    /// Adds one global net rename (e.g. `VDD` → `vdd!`).
    pub fn rename_global(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.config.globals_map.insert(from.into(), to.into());
        self
    }

    /// Sets the off-page connector placement strategy.
    pub fn offpage_placement(mut self, placement: OffPagePlacement) -> Self {
        self.config.offpage_placement = placement;
        self
    }

    /// Disables one stage (ablation studies).
    pub fn skip_stage(mut self, stage: StageId) -> Self {
        self.config.skip_stages.push(stage);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found — see
    /// [`MigrationConfig::validate`].
    pub fn build(self) -> Result<MigrationConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_entry_builder_and_lookup() {
        let e = SymbolMapEntry::new(
            SymbolRef::new("primlib", "inv", "symbol"),
            SymbolRef::new("stdlib", "inv_c", "symbol"),
        )
        .with_offset(Point::new(5, 0))
        .with_rotation(Orient::R90)
        .with_pin("A", "IN");
        assert_eq!(e.map_pin("A"), "IN");
        assert_eq!(e.map_pin("Y"), "Y");

        let cfg = MigrationConfig {
            symbol_map: vec![e.clone()],
            ..MigrationConfig::default()
        };
        assert!(cfg
            .symbol_entry(&SymbolRef::new("primlib", "inv", "symbol"))
            .is_some());
        assert!(cfg
            .symbol_entry(&SymbolRef::new("primlib", "nand2", "symbol"))
            .is_none());
    }

    #[test]
    fn scopes_filter_by_cell() {
        assert!(PropScope::AllInstances.covers("anything"));
        assert!(PropScope::Cell("inv".into()).covers("inv"));
        assert!(!PropScope::Cell("inv".into()).covers("nand2"));
    }

    #[test]
    fn builder_validates_at_build() {
        let ok = MigrationConfig::builder()
            .rename_global("VDD", "vdd!")
            .skip_stage(StageId::Bus)
            .build();
        assert!(ok.is_ok());

        let dup = MigrationConfig::builder()
            .map_symbol(SymbolMapEntry::new(
                SymbolRef::new("a", "inv", "symbol"),
                SymbolRef::new("b", "inv_c", "symbol"),
            ))
            .map_symbol(SymbolMapEntry::new(
                SymbolRef::new("a", "inv", "symbol"),
                SymbolRef::new("b", "inv2_c", "symbol"),
            ))
            .build();
        assert_eq!(
            dup.unwrap_err(),
            ConfigError::DuplicateSymbolMapping { cell: "inv".into() }
        );

        let orphan = MigrationConfig::builder()
            .callback(PropScope::AllInstances, "split-spice")
            .build();
        assert!(matches!(
            orphan.unwrap_err(),
            ConfigError::CallbacksWithoutScript { count: 1 }
        ));

        let twice = MigrationConfig::builder()
            .skip_stage(StageId::Bus)
            .skip_stage(StageId::Bus)
            .build();
        assert!(matches!(
            twice.unwrap_err(),
            ConfigError::DuplicateSkip {
                stage: StageId::Bus
            }
        ));
    }

    #[test]
    fn custom_stage_ids_have_names() {
        let id = StageId::Custom("lint");
        assert_eq!(id.name(), "lint");
        assert_ne!(id, StageId::Custom("other"));
    }

    #[test]
    fn stage_skipping() {
        let cfg = MigrationConfig {
            skip_stages: vec![StageId::Bus],
            ..MigrationConfig::default()
        };
        assert!(!cfg.runs(StageId::Bus));
        assert!(cfg.runs(StageId::Scale));
        assert_eq!(StageId::ALL.len(), 8);
    }
}
