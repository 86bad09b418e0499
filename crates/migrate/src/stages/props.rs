//! Stage: standard and non-standard property mapping.
//!
//! Standard rules cover "the addition, deletion, renaming or changing of
//! property names, values, and text labels"; non-standard requirements
//! (e.g. reformatting single analog properties into multiple properties)
//! run as a/L callbacks with full access to the object being migrated.

use std::fmt::{self, Write as _};

use alang::host::Host;
use alang::value::Value;
use alang::Interpreter;
use schematic::design::Design;
use schematic::property::{PropMap, PropValue};
use schematic::sheet::Instance;

use crate::config::{MigrationConfig, PropRule, PropScope};
use crate::report::StageStats;
use crate::stages::edit_where;

/// Applies the standard property rules to every instance in scope.
/// Instance lists with no instance a rule changes are left unwritten.
pub fn run_standard(design: &mut Design, config: &MigrationConfig, stats: &mut StageStats) {
    // A rule that reports no change leaves the map as it was, so the
    // rules change an instance exactly when one of them would report a
    // change on its properties as they stand.
    let in_scope = |scope: &PropScope, inst: &Instance| scope.covers(&inst.symbol.cell);
    let needs = |inst: &Instance| {
        config
            .prop_rules
            .iter()
            .any(|(scope, rule)| in_scope(scope, inst) && rule_applies(rule, &inst.props))
    };
    for cell in design.cells_mut() {
        for sheet in &mut cell.sheets {
            edit_where(&mut sheet.instances, needs, |inst| {
                for (scope, rule) in &config.prop_rules {
                    if in_scope(scope, inst) && apply_rule(rule, &mut inst.props) {
                        stats.touched += 1;
                        if matches!(rule, PropRule::Rename { .. }) {
                            stats.renamed += 1;
                        }
                    }
                }
            });
        }
    }
}

/// Applies one rule; true when it reports a change.
fn apply_rule(rule: &PropRule, props: &mut PropMap) -> bool {
    match rule {
        PropRule::Add { name, value } => {
            if props.contains(name) {
                false
            } else {
                props.set(name.clone(), PropValue::from_text(value));
                true
            }
        }
        PropRule::Delete { name } => props.remove(name).is_some(),
        PropRule::Rename { from, to } => props.rename(from, to.clone()),
        PropRule::ChangeValue { name, from, to } => match props.get(name) {
            Some(v) if prints_as(v, from) => {
                props.set(name.clone(), PropValue::from_text(to));
                true
            }
            _ => false,
        },
    }
}

/// Whether [`apply_rule`] would report a change, without applying it.
fn rule_applies(rule: &PropRule, props: &PropMap) -> bool {
    match rule {
        PropRule::Add { name, .. } => !props.contains(name),
        PropRule::Delete { name } => props.contains(name),
        PropRule::Rename { from, .. } => props.contains(from),
        PropRule::ChangeValue { name, from, .. } => {
            props.get(name).is_some_and(|v| prints_as(v, from))
        }
    }
}

/// Whether `value.to_text()` equals `text`, decided without formatting
/// the value into a new `String`: a non-text value is compared as it is
/// written.
fn prints_as(value: &PropValue, text: &str) -> bool {
    /// Consumes the expected text as the value is written; fails at the
    /// first piece that does not match.
    struct Expect<'a>(&'a str);

    impl fmt::Write for Expect<'_> {
        fn write_str(&mut self, piece: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
            Ok(())
        }
    }

    match value {
        PropValue::Text(s) => s == text,
        other => {
            let mut rest = Expect(text);
            write!(rest, "{other}").is_ok() && rest.0.is_empty()
        }
    }
}

/// The a/L host exposed to callbacks: the current instance's property
/// map plus migration context. The map is copied on the first write, so
/// a callback that only reads leaves the instance (and its sheet's
/// shared instance list) alone.
struct InstanceHost<'a> {
    /// The instance's properties as the stage found them.
    base: &'a PropMap,
    /// The callbacks' edits so far: `base` copied on the first write.
    edited: &'a mut Option<PropMap>,
    inst: &'a str,
    cell: &'a str,
    library: &'a str,
    page: u32,
    owner_cell: &'a str,
}

impl InstanceHost<'_> {
    fn props(&self) -> &PropMap {
        self.edited.as_ref().unwrap_or(self.base)
    }

    fn props_mut(&mut self) -> &mut PropMap {
        self.edited.get_or_insert_with(|| self.base.clone())
    }
}

fn to_value(v: &PropValue) -> Value {
    match v {
        PropValue::Text(s) => Value::Str(s.clone()),
        PropValue::Int(i) => Value::Int(*i),
        PropValue::Real(r) => Value::Real(*r),
        PropValue::Flag(b) => Value::Bool(*b),
    }
}

fn from_value(v: &Value) -> PropValue {
    match v {
        Value::Str(s) => PropValue::Text(s.clone()),
        Value::Int(i) => PropValue::Int(*i),
        Value::Real(r) => PropValue::Real(*r),
        Value::Bool(b) => PropValue::Flag(*b),
        other => PropValue::Text(other.to_string()),
    }
}

impl Host for InstanceHost<'_> {
    fn get(&self, key: &str) -> Option<Value> {
        self.props().get(key).map(to_value)
    }

    fn set(&mut self, key: &str, value: Value) -> Result<(), String> {
        self.props_mut().set(key, from_value(&value));
        Ok(())
    }

    fn remove(&mut self, key: &str) -> Option<Value> {
        if !self.props().contains(key) {
            return None;
        }
        self.props_mut().remove(key).map(|v| to_value(&v))
    }

    fn keys(&self) -> Vec<String> {
        self.props().names().map(str::to_string).collect()
    }

    fn context(&self, what: &str) -> Option<Value> {
        match what {
            "inst" => Some(Value::Str(self.inst.to_string())),
            "cell" => Some(Value::Str(self.cell.to_string())),
            "library" => Some(Value::Str(self.library.to_string())),
            "page" => Some(Value::Int(self.page as i64)),
            "owner" => Some(Value::Str(self.owner_cell.to_string())),
            _ => None,
        }
    }
}

/// Runs the registered a/L callbacks over every instance in scope.
///
/// The callback script is loaded once; each registered entry point is
/// then invoked per matching instance with the instance as host.
pub fn run_callbacks(design: &mut Design, config: &MigrationConfig, stats: &mut StageStats) {
    if config.callbacks.is_empty() {
        return;
    }
    let mut interp = Interpreter::new();
    if !config.callback_script.is_empty() {
        let mut nohost = alang::host::NoHost;
        if let Err(e) = interp.eval_src(&config.callback_script, &mut nohost) {
            stats
                .issues
                .push(format!("callback script failed to load: {e}"));
            return;
        }
    }

    let cell_names: Vec<String> = design.cells().map(|(n, _)| n.to_string()).collect();
    for owner in &cell_names {
        let cell = design.cell_mut(owner).expect("cell exists");
        let owner_name = cell.cell.clone();
        for sheet in &mut cell.sheets {
            let page = sheet.page;
            // Run every callback against copy-on-write hosts first; the
            // instance list is written only for instances a callback
            // wrote to.
            let mut changed: Vec<(usize, PropMap)> = Vec::new();
            for (idx, inst) in sheet.instances.iter().enumerate() {
                let mut edited = None;
                for cb in &config.callbacks {
                    if !cb.scope.covers(&inst.symbol.cell) {
                        continue;
                    }
                    let mut host = InstanceHost {
                        base: &inst.props,
                        edited: &mut edited,
                        inst: &inst.name,
                        cell: &inst.symbol.cell,
                        library: &inst.symbol.library,
                        page,
                        owner_cell: &owner_name,
                    };
                    match interp.call(&cb.entry, &[], &mut host) {
                        Ok(_) => stats.touched += 1,
                        Err(e) => stats
                            .issues
                            .push(format!("callback `{}` on {}: {e}", cb.entry, host.inst)),
                    }
                }
                if let Some(props) = edited {
                    changed.push((idx, props));
                }
            }
            for (idx, props) in changed {
                sheet.instances[idx].props = props;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Callback, PropScope};
    use schematic::design::{CellSchematic, Library};
    use schematic::dialect::DialectId;
    use schematic::geom::{Orient, Point};
    use schematic::sheet::{Instance, Sheet};
    use schematic::symbol::{SymbolDef, SymbolRef};

    #[test]
    fn prints_as_agrees_with_to_text() {
        let values = [
            PropValue::Int(0),
            PropValue::Int(42),
            PropValue::Int(-7),
            PropValue::Real(1.0),
            PropValue::Real(1.5),
            PropValue::Real(-0.25),
            PropValue::Flag(true),
            PropValue::Flag(false),
            PropValue::Text("1".into()),
            PropValue::Text(String::new()),
            PropValue::Text("1.5u".into()),
        ];
        let texts = [
            "", "0", "42", "4", "420", "-7", "1", "1.0", "1.5", "1.50", "-0.25", "true", "false",
            "True", "1.5u",
        ];
        for value in &values {
            for text in texts {
                assert_eq!(
                    prints_as(value, text),
                    value.to_text() == text,
                    "{value:?} against {text:?}"
                );
            }
        }
    }

    fn design_one_inst(props: &[(&str, &str)]) -> Design {
        let mut d = Design::new("t", DialectId::Viewstar);
        let mut lib = Library::new("src");
        lib.add(SymbolDef::new(SymbolRef::new("src", "nmos", "symbol"), 16));
        d.add_library(lib);
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        let mut inst = Instance::new(
            "M1",
            SymbolRef::new("src", "nmos", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        );
        for (k, v) in props {
            inst.props.set(*k, PropValue::from_text(v));
        }
        s.instances.push(inst);
        cell.sheets.push(s);
        d.add_cell(cell);
        d
    }

    #[test]
    fn standard_rules_apply_in_order() {
        let mut d = design_one_inst(&[("MODEL", "nch"), ("OLD", "x")]);
        let config = MigrationConfig {
            prop_rules: vec![
                (
                    PropScope::AllInstances,
                    PropRule::Rename {
                        from: "MODEL".into(),
                        to: "DEVICE".into(),
                    },
                ),
                (
                    PropScope::AllInstances,
                    PropRule::Delete { name: "OLD".into() },
                ),
                (
                    PropScope::AllInstances,
                    PropRule::Add {
                        name: "VIEW".into(),
                        value: "spice".into(),
                    },
                ),
                (
                    PropScope::AllInstances,
                    PropRule::ChangeValue {
                        name: "DEVICE".into(),
                        from: "nch".into(),
                        to: "nmos_lv".into(),
                    },
                ),
            ],
            ..MigrationConfig::default()
        };
        let mut stats = StageStats::default();
        run_standard(&mut d, &config, &mut stats);
        let inst = &d.cell("top").unwrap().sheets[0].instances[0];
        assert_eq!(inst.props.get("DEVICE").unwrap().to_text(), "nmos_lv");
        assert!(inst.props.get("VIEW").is_some());
        assert!(inst.props.get("OLD").is_none());
        assert_eq!(stats.touched, 4);
        assert_eq!(stats.renamed, 1);
    }

    #[test]
    fn scoped_rules_skip_other_cells() {
        let mut d = design_one_inst(&[("K", "v")]);
        let config = MigrationConfig {
            prop_rules: vec![(
                PropScope::Cell("other".into()),
                PropRule::Delete { name: "K".into() },
            )],
            ..MigrationConfig::default()
        };
        let mut stats = StageStats::default();
        run_standard(&mut d, &config, &mut stats);
        assert!(d.cell("top").unwrap().sheets[0].instances[0]
            .props
            .contains("K"));
        assert_eq!(stats.touched, 0);
    }

    #[test]
    fn callback_splits_compound_analog_property() {
        let mut d = design_one_inst(&[("SPICE", "w=1.2u l=0.4u")]);
        let config = MigrationConfig {
            callback_script: r#"
                (define (split-spice)
                  (let ((s (prop-get "SPICE")))
                    (if (string? s)
                        (let ((parts (string-split s " ")))
                          (prop-set! "W" (substring (nth 0 parts) 2
                                                    (length (nth 0 parts))))
                          (prop-set! "L" (substring (nth 1 parts) 2
                                                    (length (nth 1 parts))))
                          (prop-remove! "SPICE"))
                        nil)))
            "#
            .into(),
            callbacks: vec![Callback {
                scope: PropScope::Cell("nmos".into()),
                entry: "split-spice".into(),
            }],
            ..MigrationConfig::default()
        };
        let mut stats = StageStats::default();
        run_callbacks(&mut d, &config, &mut stats);
        assert!(stats.issues.is_empty(), "{:?}", stats.issues);
        let inst = &d.cell("top").unwrap().sheets[0].instances[0];
        assert_eq!(inst.props.get("W").unwrap().to_text(), "1.2u");
        assert_eq!(inst.props.get("L").unwrap().to_text(), "0.4u");
        assert!(!inst.props.contains("SPICE"));
    }

    #[test]
    fn callback_errors_become_issues() {
        let mut d = design_one_inst(&[]);
        let config = MigrationConfig {
            callback_script: "(define (boom) (car '()))".into(),
            callbacks: vec![Callback {
                scope: PropScope::AllInstances,
                entry: "boom".into(),
            }],
            ..MigrationConfig::default()
        };
        let mut stats = StageStats::default();
        run_callbacks(&mut d, &config, &mut stats);
        assert_eq!(stats.issues.len(), 1);
    }

    #[test]
    fn callback_context_is_visible() {
        let mut d = design_one_inst(&[]);
        let config = MigrationConfig {
            callback_script: r#"(define (tag) (prop-set! "TAG"
                (string-append (ctx "owner") "/" (ctx "inst"))))"#
                .into(),
            callbacks: vec![Callback {
                scope: PropScope::AllInstances,
                entry: "tag".into(),
            }],
            ..MigrationConfig::default()
        };
        let mut stats = StageStats::default();
        run_callbacks(&mut d, &config, &mut stats);
        let inst = &d.cell("top").unwrap().sheets[0].instances[0];
        assert_eq!(inst.props.get("TAG").unwrap().to_text(), "top/M1");
    }
}
