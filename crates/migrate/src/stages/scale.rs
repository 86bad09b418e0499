//! Stage: geometry scaling between vendor grids.
//!
//! "The schematic symbols used on the Viewlogic schematics were drawn on
//! a 1/10 inch grid with a 2/10 inch pin spacing. The target Composer
//! symbol libraries were drawn on a 1/16 inch grid with a 2/16 inch pin
//! spacing. The symbols and schematics were scaled down in size to
//! adjust to the Composer grid spacing."

use schematic::design::Design;
use schematic::geom::Point;
use schematic::sheet::Sheet;
use schematic::Library;

use crate::report::StageStats;
use crate::stages::edit_where;

/// Scales every coordinate in the design by `num/den` and retags symbol
/// grids to `target_grid`.
pub fn run(design: &mut Design, num: i64, den: i64, target_grid: i64, stats: &mut StageStats) {
    // Libraries: rebuild each symbol scaled; a library the scaling
    // leaves equal keeps its shared symbol map.
    let lib_names: Vec<interop_core::IStr> = design.libraries().map(|l| l.name.clone()).collect();
    for name in lib_names {
        let lib = design.library(&name).expect("library exists");
        let mut scaled = Library::new(lib.name.clone());
        for sym in lib.iter() {
            scaled.add(sym.scaled(num, den, target_grid));
            stats.touched += 1;
        }
        if scaled != *lib {
            design.add_library(scaled);
        }
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

/// Every object on the sheet counts as touched; only the lists holding
/// a point that actually moves are written.
fn scale_sheet(sheet: &mut Sheet, num: i64, den: i64, stats: &mut StageStats) {
    let moves = |p: Point| p.scaled(num, den) != p;
    let scale = |p: &mut Point| *p = p.scaled(num, den);
    stats.touched += sheet.instances.len()
        + sheet.wires.len()
        + sheet.connectors.len()
        + sheet.annotations.len();
    edit_where(
        &mut sheet.instances,
        |inst| moves(inst.place.origin),
        |inst| scale(&mut inst.place.origin),
    );
    edit_where(
        &mut sheet.wires,
        |wire| {
            wire.points.iter().any(|&p| moves(p))
                || wire.label.as_ref().is_some_and(|l| moves(l.at))
        },
        |wire| {
            wire.points.iter_mut().for_each(scale);
            if let Some(label) = &mut wire.label {
                scale(&mut label.at);
            }
        },
    );
    edit_where(&mut sheet.connectors, |c| moves(c.at), |c| scale(&mut c.at));
    edit_where(
        &mut sheet.annotations,
        |a| moves(a.at),
        |a| scale(&mut a.at),
    );
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
