//! Stage: cosmetic text adjustment.
//!
//! "Font characters in Viewlogic are typically smaller than in Cadence,
//! and the origin of each character is offset from the baseline. For
//! example, if the character `E` is placed on a line in Viewlogic, it
//! may appear as an `F` when translated directly to Cadence Composer.
//! Rules for character scaling and offsets were defined in order to
//! correctly align text."

use schematic::design::Design;
use schematic::property::{FontMetrics, Label};

use crate::report::StageStats;
use crate::stages::edit_where;

/// Converts a label to the target font while preserving its *visual
/// baseline* — the property whose loss produces the paper's
/// "E appears as an F" defect.
pub fn convert_label(label: &mut Label, target: FontMetrics) {
    let baseline = label.visual_baseline();
    label.font = target;
    // Solve: new_at.y + target.baseline_offset == baseline.y
    label.at.y = baseline.y - target.baseline_offset;
}

/// Converts every label and annotation in the design to `target` font
/// metrics. Lists with nothing to convert are left unwritten.
pub fn run(design: &mut Design, target: FontMetrics, stats: &mut StageStats) {
    for sheet in design.cells_mut().flat_map(|cell| cell.sheets.iter_mut()) {
        stats.touched += edit_where(
            &mut sheet.wires,
            |w| w.label.as_ref().is_some_and(|l| l.font != target),
            |w| {
                convert_label(
                    w.label.as_mut().expect("selected wires are labelled"),
                    target,
                )
            },
        );
        stats.touched += edit_where(
            &mut sheet.annotations,
            |a| a.font != target,
            |a| convert_label(a, target),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::geom::Point;

    #[test]
    fn baseline_is_preserved_across_fonts() {
        let mut l = Label::new("E", Point::new(10, 20), FontMetrics::VIEWSTAR);
        let before = l.visual_baseline();
        convert_label(&mut l, FontMetrics::CASCADE);
        assert_eq!(l.visual_baseline(), before);
        assert_eq!(l.font, FontMetrics::CASCADE);
        // Naive translation (font swap without anchor fix) would have
        // shifted the glyph by the source's baseline offset.
        let mut naive = Label::new("E", Point::new(10, 20), FontMetrics::VIEWSTAR);
        naive.font = FontMetrics::CASCADE;
        assert_ne!(naive.visual_baseline(), before);
    }

    #[test]
    fn run_converts_all_labels() {
        use schematic::design::CellSchematic;
        use schematic::dialect::DialectId;
        use schematic::sheet::{Sheet, Wire};

        let mut d = Design::new("t", DialectId::Viewstar);
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(16, 0)]).with_label(Label::new(
                "n1",
                Point::new(0, 4),
                FontMetrics::VIEWSTAR,
            )),
        );
        s.annotations
            .push(Label::new("note", Point::new(0, 50), FontMetrics::VIEWSTAR));
        cell.sheets.push(s);
        d.add_cell(cell);

        let mut stats = StageStats::default();
        run(&mut d, FontMetrics::CASCADE, &mut stats);
        assert_eq!(stats.touched, 2);
        let sheet = &d.cell("top").unwrap().sheets[0];
        assert_eq!(
            sheet.wires[0].label.as_ref().unwrap().font,
            FontMetrics::CASCADE
        );
        assert_eq!(sheet.annotations[0].font, FontMetrics::CASCADE);
        // Idempotent.
        let mut stats2 = StageStats::default();
        run(&mut d, FontMetrics::CASCADE, &mut stats2);
        assert_eq!(stats2.touched, 0);
    }
}
