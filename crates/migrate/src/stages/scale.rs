//! Stage: geometry scaling between vendor grids.
//!
//! "The schematic symbols used on the Viewlogic schematics were drawn on
//! a 1/10 inch grid with a 2/10 inch pin spacing. The target Composer
//! symbol libraries were drawn on a 1/16 inch grid with a 2/16 inch pin
//! spacing. The symbols and schematics were scaled down in size to
//! adjust to the Composer grid spacing."

use schematic::design::Design;
use schematic::sheet::Sheet;
use schematic::Library;

use crate::report::StageStats;

/// Scales every coordinate in the design by `num/den` and retags symbol
/// grids to `target_grid`.
pub fn run(design: &mut Design, num: i64, den: i64, target_grid: i64, stats: &mut StageStats) {
    // Libraries: rebuild each symbol scaled.
    let lib_names: Vec<interop_core::IStr> = design.libraries().map(|l| l.name.clone()).collect();
    for name in lib_names {
        let lib = design.library(&name).expect("library exists");
        let mut scaled = Library::new(lib.name.clone());
        for sym in lib.iter() {
            scaled.add(sym.scaled(num, den, target_grid));
            stats.touched += 1;
        }
        design.add_library(scaled);
    }

    for cell in design.cells_mut() {
        for port in &mut cell.ports {
            port.at = port.at.scaled(num, den);
        }
        for sheet in &mut cell.sheets {
            scale_sheet(sheet, num, den, stats);
        }
    }
}

fn scale_sheet(sheet: &mut Sheet, num: i64, den: i64, stats: &mut StageStats) {
    for inst in &mut sheet.instances {
        inst.place.origin = inst.place.origin.scaled(num, den);
        stats.touched += 1;
    }
    for wire in &mut sheet.wires {
        for p in &mut wire.points {
            *p = p.scaled(num, den);
        }
        if let Some(label) = &mut wire.label {
            label.at = label.at.scaled(num, den);
        }
        stats.touched += 1;
    }
    for conn in &mut sheet.connectors {
        conn.at = conn.at.scaled(num, den);
        stats.touched += 1;
    }
    for ann in &mut sheet.annotations {
        ann.at = ann.at.scaled(num, den);
        stats.touched += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::dialect::DialectRules;
    use schematic::gen::{generate, GenConfig};

    #[test]
    fn scaled_design_lands_on_target_grid() {
        let mut d = generate(&GenConfig::default());
        let v = DialectRules::viewstar();
        let c = DialectRules::cascade();
        let (num, den) = v.scale_to(&c);
        let mut stats = StageStats::default();
        run(&mut d, num, den, c.grid, &mut stats);
        assert!(stats.touched > 0);
        for (_, cell) in d.cells() {
            for sheet in &cell.sheets {
                for inst in &sheet.instances {
                    assert!(inst.place.origin.on_grid(c.grid));
                }
                for wire in &sheet.wires {
                    for p in &wire.points {
                        assert!(p.on_grid(c.grid), "off grid: {p}");
                    }
                }
            }
        }
        for lib in d.libraries() {
            for sym in lib.iter() {
                assert_eq!(sym.grid, c.grid);
                assert!(sym.pins_on_grid());
            }
        }
    }
}
