//! Component replacement with net rip-up and reroute — Figure 1 of the
//! paper.
//!
//! "This component replacement required ripping up specific existing
//! components, along with the segments of the nets connected to the pins
//! of those components. The ripped up net segments were then rerouted to
//! the pins of the replacement components symbols. The number of ripped
//! up net segments was minimized, and the resulting schematic with the
//! replaced components appeared graphically very similar to the
//! original."

use std::collections::BTreeSet;

use schematic::design::Design;
use schematic::geom::{Point, Transform};
use schematic::sheet::{Sheet, Wire};

use crate::config::SymbolMapEntry;
use crate::stages::edit_where;

/// How ripped-up connections are redrawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RerouteStrategy {
    /// Move only the affected wire endpoint, inserting at most one jog —
    /// the minimized rip-up the paper describes.
    #[default]
    MinimalRipUp,
    /// Rip the whole attached wire and redraw it as a fresh L-route —
    /// the naive baseline for the ablation bench.
    FullRedraw,
}

/// Counters from one replacement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaceOutcome {
    /// Instances whose symbol was swapped.
    pub replaced: usize,
    /// Pin attachment points that moved.
    pub pins_moved: usize,
    /// Wire segments ripped up (modified or deleted).
    pub segments_ripped: usize,
    /// Jog bend points inserted to keep routing orthogonal.
    pub jogs_added: usize,
    /// Issues (unmapped pins, missing symbols).
    pub issues: usize,
}

impl std::ops::AddAssign for ReplaceOutcome {
    fn add_assign(&mut self, rhs: Self) {
        self.replaced += rhs.replaced;
        self.pins_moved += rhs.pins_moved;
        self.segments_ripped += rhs.segments_ripped;
        self.jogs_added += rhs.jogs_added;
        self.issues += rhs.issues;
    }
}

/// Moves every wire attachment at `from` to `to` on one sheet, keeping
/// routing orthogonal where it was orthogonal.
///
/// Only wires through `from` (or holding a repeated vertex, which the
/// move cleans up) are written; when there are none, the sheet's wire
/// list is not reached through `&mut` at all.
///
/// Returns `(segments_ripped, jogs_added, endpoints_moved)`.
pub fn move_attachment(
    sheet: &mut Sheet,
    from: Point,
    to: Point,
    strategy: RerouteStrategy,
) -> (usize, usize, usize) {
    let mut total = (0, 0, 0);
    edit_where(
        &mut sheet.wires,
        |wire| {
            wire.points.contains(&from)
                || (wire.points.len() > 2 && wire.points.windows(2).any(|w| w[0] == w[1]))
        },
        |wire| {
            let (ripped, jogs, moved) = move_wire_attachment(wire, from, to, strategy);
            total.0 += ripped;
            total.1 += jogs;
            total.2 += moved;
        },
    );
    total
}

/// [`move_attachment`] for one wire.
fn move_wire_attachment(
    wire: &mut Wire,
    from: Point,
    to: Point,
    strategy: RerouteStrategy,
) -> (usize, usize, usize) {
    let mut ripped = 0usize;
    let mut jogs = 0usize;
    let mut moved = 0usize;

    let n = wire.points.len();
    // Endpoint moves (with jog preservation).
    for end in [0usize, 1] {
        let idx = if end == 0 { 0 } else { n - 1 };
        if wire.points[idx] != from {
            continue;
        }
        moved += 1;
        match strategy {
            RerouteStrategy::MinimalRipUp => {
                ripped += 1;
                let neighbor_idx = if end == 0 { 1 } else { n - 2 };
                let v = wire.points[neighbor_idx];
                let was_horizontal = v.y == from.y;
                let was_vertical = v.x == from.x;
                wire.points[idx] = to;
                if was_horizontal && to.y != v.y && to.x != v.x {
                    let bend = Point::new(to.x, v.y);
                    if end == 0 {
                        wire.points.insert(1, bend);
                    } else {
                        wire.points.insert(n - 1, bend);
                    }
                    jogs += 1;
                } else if was_vertical && to.x != v.x && to.y != v.y {
                    let bend = Point::new(v.x, to.y);
                    if end == 0 {
                        wire.points.insert(1, bend);
                    } else {
                        wire.points.insert(n - 1, bend);
                    }
                    jogs += 1;
                }
            }
            RerouteStrategy::FullRedraw => {
                // Rip the whole wire; redraw from the far end.
                ripped += wire.points.len() - 1;
                let far = if end == 0 {
                    *wire.points.last().expect("wire has points")
                } else {
                    wire.points[0]
                };
                let mut path = vec![far];
                if far.x != to.x && far.y != to.y {
                    path.push(Point::new(to.x, far.y));
                    jogs += 1;
                }
                path.push(to);
                wire.points = path;
            }
        }
        break; // a wire attaches at most once per pass
    }
    // Interior vertices coinciding with the pin: translate them.
    for i in 1..wire.points.len().saturating_sub(1) {
        if wire.points[i] == from {
            wire.points[i] = to;
            ripped += 2;
            moved += 1;
        }
    }
    // Drop consecutive duplicate vertices the move may have created
    // (a zero-length segment would spuriously "touch" everything).
    if wire.points.len() > 2 {
        wire.points.dedup();
    }
    (ripped, jogs, moved)
}

/// Replaces every mapped instance across the design, rerouting attached
/// nets. The replacement symbols must already be resolvable (add the
/// target libraries to the design first).
pub fn replace_components(
    design: &mut Design,
    entries: &[SymbolMapEntry],
    strategy: RerouteStrategy,
) -> ReplaceOutcome {
    let mut out = ReplaceOutcome::default();
    let cell_names: Vec<String> = design.cells().map(|(n, _)| n.to_string()).collect();

    for cell_name in &cell_names {
        let page_count = design.cell(cell_name).map(|c| c.sheets.len()).unwrap_or(0);
        for sheet_idx in 0..page_count {
            // Collect the replacement plan for this sheet first
            // (immutable pass), then apply it (mutable pass).
            struct Plan {
                inst_idx: usize,
                entry_idx: usize,
                moves: Vec<(Point, Point)>,
                new_place: Transform,
            }
            let mut plans: Vec<Plan> = Vec::new();
            {
                let cell = design.cell(cell_name).expect("cell exists");
                let sheet = &cell.sheets[sheet_idx];
                for (inst_idx, inst) in sheet.instances.iter().enumerate() {
                    let Some((entry_idx, entry)) = entries
                        .iter()
                        .enumerate()
                        .find(|(_, e)| e.from == inst.symbol)
                    else {
                        continue;
                    };
                    let Some(old_sym) = design.resolve_symbol(&entry.from) else {
                        out.issues += 1;
                        continue;
                    };
                    let Some(new_sym) = design.resolve_symbol(&entry.to) else {
                        out.issues += 1;
                        continue;
                    };
                    let new_place = Transform::new(
                        inst.place
                            .origin
                            .offset(entry.origin_offset.x, entry.origin_offset.y),
                        inst.place.orient.compose(entry.rotation),
                    );
                    let mut moves = Vec::new();
                    for pin in &old_sym.pins {
                        let target_name = entry.map_pin(&pin.name);
                        let Some(new_pin) = new_sym.pin(target_name) else {
                            out.issues += 1;
                            continue;
                        };
                        let old_at = inst.place.apply(pin.at);
                        let new_at = new_place.apply(new_pin.at);
                        if old_at != new_at {
                            moves.push((old_at, new_at));
                        }
                    }
                    plans.push(Plan {
                        inst_idx,
                        entry_idx,
                        moves,
                        new_place,
                    });
                }
            }

            let cell = design.cell_mut(cell_name).expect("cell exists");
            let sheet = &mut cell.sheets[sheet_idx];
            for plan in &plans {
                let entry = &entries[plan.entry_idx];
                let inst = &mut sheet.instances[plan.inst_idx];
                inst.symbol = entry.to.clone();
                inst.place = plan.new_place;
                out.replaced += 1;
                for (from, to) in &plan.moves {
                    let (r, j, _moved) = move_attachment(sheet, *from, *to, strategy);
                    out.segments_ripped += r;
                    out.jogs_added += j;
                }
                out.pins_moved += plan.moves.len();
            }
        }
    }
    out
}

/// Graphical similarity between two designs in `[0, 1]`: the Jaccard
/// index over instance placements and wire segments, per sheet.
///
/// Used to quantify Figure 1's "appeared graphically very similar"
/// claim.
pub fn similarity(a: &Design, b: &Design) -> f64 {
    fn features(d: &Design) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for (cell, cs) in d.cells() {
            for sheet in &cs.sheets {
                for inst in &sheet.instances {
                    set.insert(format!(
                        "i:{cell}:{}:{}:{}:{}",
                        sheet.page, inst.name, inst.place.origin, inst.place.orient
                    ));
                }
                for wire in &sheet.wires {
                    for (p, q) in wire.segments() {
                        let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
                        set.insert(format!("w:{cell}:{}:{lo}:{hi}", sheet.page));
                    }
                }
            }
        }
        set
    }
    let fa = features(a);
    let fb = features(b);
    if fa.is_empty() && fb.is_empty() {
        return 1.0;
    }
    let inter = fa.intersection(&fb).count() as f64;
    let union = fa.union(&fb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::design::{CellSchematic, Library};
    use schematic::dialect::DialectId;
    use schematic::geom::Orient;
    use schematic::sheet::{Instance, Wire};
    use schematic::symbol::{PinDir, SymbolDef, SymbolRef};

    fn two_symbol_design() -> Design {
        let mut d = Design::new("t", DialectId::Viewstar);
        let mut lib = Library::new("src");
        lib.add(
            SymbolDef::new(SymbolRef::new("src", "inv", "symbol"), 16)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(64, 0), PinDir::Output),
        );
        d.add_library(lib);
        let mut tgt = Library::new("dst");
        tgt.add(
            SymbolDef::new(SymbolRef::new("dst", "inv_c", "symbol"), 16)
                .with_pin("IN", Point::new(0, 0), PinDir::Input)
                // Output pin sits closer to the body than the source's.
                .with_pin("OUT", Point::new(48, 0), PinDir::Output),
        );
        d.add_library(tgt);

        let mut cell = CellSchematic::new("top");
        let mut s = schematic::sheet::Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("src", "inv", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        // Wire from I1.Y (64,0) east then north.
        s.wires.push(Wire::new(vec![
            Point::new(64, 0),
            Point::new(128, 0),
            Point::new(128, 64),
        ]));
        cell.sheets.push(s);
        d.add_cell(cell);
        d
    }

    fn entry() -> SymbolMapEntry {
        SymbolMapEntry::new(
            SymbolRef::new("src", "inv", "symbol"),
            SymbolRef::new("dst", "inv_c", "symbol"),
        )
        .with_pin("A", "IN")
        .with_pin("Y", "OUT")
    }

    #[test]
    fn minimal_replacement_moves_one_endpoint() {
        let mut d = two_symbol_design();
        let out = replace_components(&mut d, &[entry()], RerouteStrategy::MinimalRipUp);
        assert_eq!(out.replaced, 1);
        assert_eq!(out.issues, 0);
        assert_eq!(out.pins_moved, 1, "only Y moved (A stayed at origin)");
        let sheet = &d.cell("top").unwrap().sheets[0];
        assert_eq!(sheet.instances[0].symbol.cell, "inv_c");
        // Wire endpoint now at the new OUT position (48,0).
        assert_eq!(sheet.wires[0].points[0], Point::new(48, 0));
        // Straight horizontal move: no jog needed.
        assert_eq!(out.jogs_added, 0);
        assert_eq!(out.segments_ripped, 1);
    }

    #[test]
    fn jog_preserves_orthogonality() {
        let mut s = schematic::sheet::Sheet::new(1);
        s.wires
            .push(Wire::new(vec![Point::new(64, 0), Point::new(128, 0)]));
        // Move the attachment up and left: needs a bend.
        let (ripped, jogs, moved) = move_attachment(
            &mut s,
            Point::new(64, 0),
            Point::new(48, 16),
            RerouteStrategy::MinimalRipUp,
        );
        assert_eq!((ripped, jogs, moved), (1, 1, 1));
        let w = &s.wires[0];
        assert_eq!(
            w.points,
            vec![Point::new(48, 16), Point::new(48, 0), Point::new(128, 0)]
        );
        // Every segment is orthogonal.
        for (a, b) in w.segments() {
            assert!(a.x == b.x || a.y == b.y);
        }
    }

    #[test]
    fn full_redraw_rips_more_segments() {
        let mut d1 = two_symbol_design();
        let minimal = replace_components(&mut d1, &[entry()], RerouteStrategy::MinimalRipUp);
        let mut d2 = two_symbol_design();
        let naive = replace_components(&mut d2, &[entry()], RerouteStrategy::FullRedraw);
        assert!(naive.segments_ripped > minimal.segments_ripped);
    }

    #[test]
    fn similarity_decreases_with_more_rip_up() {
        let original = two_symbol_design();
        let mut minimal = two_symbol_design();
        replace_components(&mut minimal, &[entry()], RerouteStrategy::MinimalRipUp);
        let mut naive = two_symbol_design();
        replace_components(&mut naive, &[entry()], RerouteStrategy::FullRedraw);
        let sim_min = similarity(&original, &minimal);
        let sim_naive = similarity(&original, &naive);
        assert!(sim_min >= sim_naive, "{sim_min} vs {sim_naive}");
        assert!(similarity(&original, &original) == 1.0);
    }

    #[test]
    fn missing_target_symbol_counts_as_issue() {
        let mut d = two_symbol_design();
        let bad = SymbolMapEntry::new(
            SymbolRef::new("src", "inv", "symbol"),
            SymbolRef::new("dst", "ghost", "symbol"),
        );
        let out = replace_components(&mut d, &[bad], RerouteStrategy::MinimalRipUp);
        assert_eq!(out.replaced, 0);
        assert_eq!(out.issues, 1);
    }

    #[test]
    fn interior_vertex_attachment_is_translated() {
        let mut s = schematic::sheet::Sheet::new(1);
        s.wires.push(Wire::new(vec![
            Point::new(0, 0),
            Point::new(64, 0),
            Point::new(128, 0),
        ]));
        let (ripped, _jogs, moved) = move_attachment(
            &mut s,
            Point::new(64, 0),
            Point::new(64, 16),
            RerouteStrategy::MinimalRipUp,
        );
        assert_eq!(moved, 1);
        assert_eq!(ripped, 2);
        assert_eq!(s.wires[0].points[1], Point::new(64, 16));
    }
}
