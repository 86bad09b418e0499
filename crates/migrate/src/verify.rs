//! Independent verification of a migration.
//!
//! "Careful design of a data translation strategy is insufficient to
//! guarantee correctness of the translated data; design data
//! translations must be independently verified."
//!
//! Both designs are reduced to canonical netlists by geometric
//! extraction (a code path entirely separate from the translation
//! rules), the source netlist is normalized through the configured
//! symbol/pin maps, and the two are compared structurally.

use interop_core::intern::IStr;
use schematic::connectivity::extract_design;
use schematic::design::Design;
use schematic::dialect::{check_conformance, DialectRules, Violation};
use schematic::netlist::{CellNetlist, CompareReport, NetInfo, Netlist, PinRef};

use crate::config::MigrationConfig;

/// The verification verdict.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Structural netlist comparison result.
    pub compare: CompareReport,
    /// Extraction errors on the source side.
    pub source_errors: Vec<String>,
    /// Extraction errors on the target side.
    pub target_errors: Vec<String>,
    /// Target-dialect conformance violations.
    pub conformance: Vec<Violation>,
}

impl VerifyReport {
    /// True when connectivity is preserved, both extractions were
    /// clean, and the target conforms to its dialect.
    pub fn is_verified(&self) -> bool {
        self.compare.is_equivalent()
            && self.source_errors.is_empty()
            && self.target_errors.is_empty()
            && self.conformance.is_empty()
    }

    /// A one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "verified={} diffs={} src_errs={} dst_errs={} conformance={}",
            self.is_verified(),
            self.compare.diffs.len(),
            self.source_errors.len(),
            self.target_errors.len(),
            self.conformance.len()
        )
    }
}

/// One symbol-map entry prepared for normalization, with its target pin
/// names interned once rather than once per pin.
struct PinMap<'a> {
    from: &'a str,
    to: &'a IStr,
    pins: Vec<(&'a str, IStr)>,
}

impl PinMap<'_> {
    /// The target pin for a source pin, as
    /// [`SymbolMapEntry::map_pin`](crate::config::SymbolMapEntry::map_pin)
    /// gives it.
    fn map_pin(&self, pin: &IStr) -> IStr {
        match self.pins.iter().find(|(from, _)| *from == pin.as_str()) {
            Some((_, to)) => to.clone(),
            None => pin.clone(),
        }
    }
}

/// Rewrites a source netlist through the symbol map: instance cell
/// references and pin names become their target equivalents so the
/// comparison measures *connectivity* changes, not intended renames.
pub fn normalize_source(netlist: &Netlist, config: &MigrationConfig) -> Netlist {
    let maps: Vec<PinMap> = config
        .symbol_map
        .iter()
        .map(|e| PinMap {
            from: &e.from.cell,
            to: &e.to.cell,
            pins: e
                .pin_map
                .iter()
                .map(|(f, t)| (f.as_str(), IStr::from(t)))
                .collect(),
        })
        .collect();
    // Later entries for the same source cell win.
    let map_of = |cell: &str| maps.iter().rev().find(|m| m.from == cell);

    let mut out = Netlist::new(netlist.design.clone());
    for (cell_name, cn) in &netlist.cells {
        // Instance cell retargeting.
        let instances = cn
            .instances
            .iter()
            .map(|(inst, cellref)| {
                let new_ref = map_of(cellref).map_or_else(|| cellref.clone(), |m| m.to.clone());
                (inst.clone(), new_ref)
            })
            .collect();
        // Pin renaming per instance.
        let nets = cn
            .nets
            .iter()
            .map(|(net, info)| {
                let pins = info
                    .pins
                    .iter()
                    .map(|pin| {
                        let new_pin = match cn.instances.get(&pin.inst).and_then(|c| map_of(c)) {
                            Some(m) => m.map_pin(&pin.pin),
                            None => pin.pin.clone(),
                        };
                        PinRef {
                            inst: pin.inst.clone(),
                            pin: new_pin,
                        }
                    })
                    .collect();
                let new_info = NetInfo {
                    pins,
                    is_global: info.is_global,
                    ports: info.ports.clone(),
                };
                (net.clone(), new_info)
            })
            .collect();
        out.cells
            .insert(cell_name.clone(), CellNetlist { nets, instances });
    }
    out
}

/// Verifies a migration: extracts both sides, normalizes the source
/// netlist through the configured maps, compares structurally, and
/// checks target conformance.
pub fn verify(
    source: &Design,
    src_rules: &DialectRules,
    target: &Design,
    dst_rules: &DialectRules,
    config: &MigrationConfig,
) -> VerifyReport {
    let (src_nl, src_errs) = extract_design(source, src_rules);
    let (dst_nl, dst_errs) = extract_design(target, dst_rules);
    let normalized = normalize_source(&src_nl, config);
    VerifyReport {
        compare: schematic::compare(&normalized, &dst_nl),
        source_errors: src_errs
            .into_iter()
            .map(|(c, e)| format!("{c}: {e}"))
            .collect(),
        target_errors: dst_errs
            .into_iter()
            .map(|(c, e)| format!("{c}: {e}"))
            .collect(),
        conformance: check_conformance(target, dst_rules),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SymbolMapEntry;
    use schematic::symbol::SymbolRef;

    #[test]
    fn normalization_retargets_instances_and_pins() {
        let mut nl = Netlist::new("d");
        let mut cn = CellNetlist::default();
        cn.instances.insert("I1".into(), "inv".into());
        cn.instances.insert("I2".into(), "nand2".into());
        let mut net = NetInfo::default();
        net.pins.insert(PinRef::new("I1", "Y"));
        net.pins.insert(PinRef::new("I2", "A"));
        cn.nets.insert("n".into(), net);
        nl.cells.insert("top".into(), cn);

        let config = MigrationConfig {
            symbol_map: vec![SymbolMapEntry::new(
                SymbolRef::new("src", "inv", "symbol"),
                SymbolRef::new("dst", "inv_c", "symbol"),
            )
            .with_pin("Y", "OUT")],
            ..MigrationConfig::default()
        };
        let out = normalize_source(&nl, &config);
        let cell = &out.cells["top"];
        assert_eq!(cell.instances["I1"], "inv_c");
        assert_eq!(cell.instances["I2"], "nand2");
        let pins = &cell.nets["n"].pins;
        assert!(pins.contains(&PinRef::new("I1", "OUT")));
        assert!(pins.contains(&PinRef::new("I2", "A")));
    }
}
