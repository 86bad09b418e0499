//! Stage: global net mapping.
//!
//! "Rules were defined for the labels, names, and/or instances of
//! objects, and how they were mapped to the corresponding instances on
//! the target system... When the schematic was received by the target
//! system, it used global instances and connectors from the native
//! component libraries."

use std::collections::BTreeSet;

use interop_core::IStr;
use schematic::design::Design;
use schematic::geom::Point;
use schematic::sheet::{Connector, ConnectorKind};

use crate::config::MigrationConfig;
use crate::report::StageStats;
use crate::stages::edit_where;

/// Renames globals per the configured map and plants a `Global`
/// connector at the first labelled appearance of each global on each
/// page (the target system's explicit global access points).
pub fn run(design: &mut Design, config: &MigrationConfig, stats: &mut StageStats) {
    // Rename the design-level global declarations.
    let old_globals: Vec<IStr> = design.globals().iter().cloned().collect();
    for g in &old_globals {
        if let Some(new) = config.globals_map.get(g.as_str()) {
            if design.rename_global(g, new.clone()) {
                stats.renamed += 1;
            }
        }
    }

    let global_names: BTreeSet<IStr> = design.globals().iter().cloned().collect();

    // Every mapped name counts as touched; only the lists holding a name
    // the map actually changes are written.
    let mapped = |name: &str| config.globals_map.get(name);
    let renamed = |name: &str| mapped(name).filter(|new| new.as_str() != name);
    for cell in design.cells_mut() {
        for sheet in &mut cell.sheets {
            // Rename labels.
            stats.touched += sheet
                .wires
                .iter()
                .filter(|w| w.label.as_ref().is_some_and(|l| mapped(&l.text).is_some()))
                .count();
            stats.touched += sheet
                .connectors
                .iter()
                .filter(|c| mapped(&c.name).is_some())
                .count();
            edit_where(
                &mut sheet.wires,
                |w| w.label.as_ref().is_some_and(|l| renamed(&l.text).is_some()),
                |w| {
                    let l = w.label.as_mut().expect("selected wires are labelled");
                    l.text = mapped(&l.text).expect("selected labels are mapped").into();
                },
            );
            edit_where(
                &mut sheet.connectors,
                |c| renamed(&c.name).is_some(),
                |c| c.name = mapped(&c.name).expect("selected names are mapped").into(),
            );

            // Plant one Global connector per global per page.
            let existing: BTreeSet<IStr> = sheet
                .connectors
                .iter()
                .filter(|c| c.kind == ConnectorKind::Global)
                .map(|c| c.name.clone())
                .collect();
            let mut to_add: Vec<(IStr, Point)> = Vec::new();
            for w in &sheet.wires {
                if let Some(l) = &w.label {
                    if global_names.contains(&l.text)
                        && !existing.contains(&l.text)
                        && !to_add.iter().any(|(n, _)| n == &l.text)
                    {
                        to_add.push((l.text.clone(), w.points[0]));
                    }
                }
            }
            for (name, at) in to_add {
                sheet
                    .connectors
                    .push(Connector::new(ConnectorKind::Global, name, at));
                stats.created += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::design::CellSchematic;
    use schematic::dialect::DialectId;
    use schematic::property::{FontMetrics, Label};
    use schematic::sheet::{Sheet, Wire};

    fn design_with_vdd() -> Design {
        let mut d = Design::new("t", DialectId::Viewstar);
        d.add_global("VDD");
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(32, 0)]).with_label(Label::new(
                "VDD",
                Point::new(0, 4),
                FontMetrics::VIEWSTAR,
            )),
        );
        cell.sheets.push(s);
        d.add_cell(cell);
        d
    }

    #[test]
    fn globals_renamed_and_connectors_planted() {
        let mut d = design_with_vdd();
        let mut config = MigrationConfig::default();
        config.globals_map.insert("VDD".into(), "vdd!".into());
        let mut stats = StageStats::default();
        run(&mut d, &config, &mut stats);

        assert!(d.globals().contains("vdd!"));
        assert!(!d.globals().contains("VDD"));
        let sheet = &d.cell("top").unwrap().sheets[0];
        assert_eq!(sheet.wires[0].label.as_ref().unwrap().text, "vdd!");
        assert!(sheet
            .connectors
            .iter()
            .any(|c| c.kind == ConnectorKind::Global && c.name == "vdd!"));
        assert_eq!(stats.renamed, 1);
    }

    #[test]
    fn unmapped_globals_still_get_connectors() {
        let mut d = design_with_vdd();
        let mut stats = StageStats::default();
        run(&mut d, &MigrationConfig::default(), &mut stats);
        let sheet = &d.cell("top").unwrap().sheets[0];
        assert!(sheet
            .connectors
            .iter()
            .any(|c| c.kind == ConnectorKind::Global && c.name == "VDD"));
        assert_eq!(stats.created, 1);
        // Idempotent.
        let mut stats2 = StageStats::default();
        run(&mut d, &MigrationConfig::default(), &mut stats2);
        assert_eq!(stats2.created, 0);
    }
}
