//! Dialect rule tables and conformance checking.
//!
//! A *dialect* bundles every tool-specific convention Section 2 of the
//! paper lists: grid pitch, pin pitch, bus-syntax grammar, font metrics,
//! implicit-vs-explicit page connection, and connector requirements.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use interop_core::intern::IStr;

use crate::bus::BusSyntax;
use crate::design::Design;
use crate::property::FontMetrics;
use crate::sheet::ConnectorKind;

/// Identifies one of the two built-in schematic dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DialectId {
    /// The Viewlogic-Viewdraw-like source dialect.
    Viewstar,
    /// The Cadence-Composer-like target dialect.
    Cascade,
}

impl fmt::Display for DialectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DialectId::Viewstar => f.write_str("viewstar"),
            DialectId::Cascade => f.write_str("cascade"),
        }
    }
}

/// The complete convention table for one dialect.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectRules {
    /// Which dialect this is.
    pub id: DialectId,
    /// Drawing grid pitch in DBU.
    pub grid: i64,
    /// Required pin-to-pin pitch for library symbols in DBU.
    pub pin_pitch: i64,
    /// Bus-syntax grammar.
    pub bus: BusSyntax,
    /// Font used for labels.
    pub font: FontMetrics,
    /// True when same-named nets join across pages implicitly.
    pub implicit_page_nets: bool,
    /// True when nets spanning pages must carry off-page connectors.
    pub requires_offpage_connectors: bool,
    /// True when hierarchy ports must be marked with hierarchy connectors.
    pub requires_hier_connectors: bool,
}

impl DialectRules {
    /// The Viewstar rule table: 1/10-inch grid, 2/10-inch pin pitch,
    /// condensed bus syntax, implicit page connection, optional
    /// connectors, small offset-origin font.
    pub fn viewstar() -> Self {
        DialectRules {
            id: DialectId::Viewstar,
            grid: 16,      // 1/10 inch in DBU (160 DBU per inch)
            pin_pitch: 32, // 2/10 inch
            bus: BusSyntax::Viewstar,
            font: FontMetrics::VIEWSTAR,
            implicit_page_nets: true,
            requires_offpage_connectors: false,
            requires_hier_connectors: false,
        }
    }

    /// The Cascade rule table: 1/16-inch grid, 2/16-inch pin pitch,
    /// explicit bus syntax, explicit page connection via off-page
    /// connectors, mandatory hierarchy connectors, baseline font.
    pub fn cascade() -> Self {
        DialectRules {
            id: DialectId::Cascade,
            grid: 10,      // 1/16 inch in DBU
            pin_pitch: 20, // 2/16 inch
            bus: BusSyntax::Cascade,
            font: FontMetrics::CASCADE,
            implicit_page_nets: false,
            requires_offpage_connectors: true,
            requires_hier_connectors: true,
        }
    }

    /// Looks up the rule table for an id.
    pub fn for_id(id: DialectId) -> Self {
        match id {
            DialectId::Viewstar => Self::viewstar(),
            DialectId::Cascade => Self::cascade(),
        }
    }

    /// The exact rational scale factor `(num, den)` converting geometry
    /// from this dialect's grid to `target`'s grid.
    pub fn scale_to(&self, target: &DialectRules) -> (i64, i64) {
        // pin_pitch_src * num/den == pin_pitch_dst
        let g = gcd(target.pin_pitch, self.pin_pitch);
        (target.pin_pitch / g, self.pin_pitch / g)
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// A single conformance violation found by [`check_conformance`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An instance origin is off the dialect grid.
    OffGridInstance {
        /// Cell containing the instance.
        cell: String,
        /// Page number.
        page: u32,
        /// Instance name.
        inst: String,
    },
    /// A wire vertex is off the dialect grid.
    OffGridWire {
        /// Cell containing the wire.
        cell: String,
        /// Page number.
        page: u32,
        /// The offending vertex as `(x, y)`.
        at: (i64, i64),
    },
    /// A net label fails to parse under the dialect's bus grammar.
    BadNetName {
        /// Cell containing the label.
        cell: String,
        /// Page number.
        page: u32,
        /// Label text.
        name: String,
        /// Parser message.
        reason: String,
    },
    /// A net spans multiple pages without off-page connectors although
    /// the dialect requires them.
    MissingOffPage {
        /// Cell name.
        cell: String,
        /// Net name.
        net: String,
    },
    /// A hierarchy port has no hierarchy connector although the dialect
    /// requires one.
    MissingHierConnector {
        /// Cell name.
        cell: String,
        /// Port name.
        port: String,
    },
    /// A label uses font metrics other than the dialect's.
    WrongFont {
        /// Cell name.
        cell: String,
        /// Page number.
        page: u32,
        /// Label text.
        text: String,
    },
    /// An instance references a symbol that does not exist in any
    /// library of the design.
    DanglingSymbol {
        /// Cell name.
        cell: String,
        /// Instance name.
        inst: String,
        /// The unresolved reference, rendered as `lib/cell/view`.
        symbol: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OffGridInstance { cell, page, inst } => {
                write!(f, "{cell} p{page}: instance {inst} off grid")
            }
            Violation::OffGridWire { cell, page, at } => {
                write!(
                    f,
                    "{cell} p{page}: wire vertex ({},{}) off grid",
                    at.0, at.1
                )
            }
            Violation::BadNetName {
                cell,
                page,
                name,
                reason,
            } => write!(f, "{cell} p{page}: net name `{name}`: {reason}"),
            Violation::MissingOffPage { cell, net } => {
                write!(
                    f,
                    "{cell}: net `{net}` spans pages without off-page connectors"
                )
            }
            Violation::MissingHierConnector { cell, port } => {
                write!(f, "{cell}: port `{port}` lacks a hierarchy connector")
            }
            Violation::WrongFont { cell, page, text } => {
                write!(f, "{cell} p{page}: label `{text}` uses a foreign font")
            }
            Violation::DanglingSymbol { cell, inst, symbol } => {
                write!(
                    f,
                    "{cell}: instance {inst} references missing symbol {symbol}"
                )
            }
        }
    }
}

/// Checks a design against a dialect rule table, returning every
/// violation found. An empty result means the design is conformant —
/// the acceptance criterion the migration pipeline must meet.
pub fn check_conformance(design: &Design, rules: &DialectRules) -> Vec<Violation> {
    let mut out = Vec::new();

    for (cell_name, cell) in design.cells() {
        // Net-name labels per page, used for page-span analysis.
        let mut names_on_page: BTreeMap<IStr, BTreeSet<u32>> = BTreeMap::new();
        let mut offpage_names: BTreeSet<IStr> = BTreeSet::new();
        let mut hier_names: BTreeSet<IStr> = BTreeSet::new();

        for sheet in &cell.sheets {
            for inst in &sheet.instances {
                if !inst.place.origin.on_grid(rules.grid) {
                    out.push(Violation::OffGridInstance {
                        cell: cell_name.to_string(),
                        page: sheet.page,
                        inst: inst.name.as_str().to_string(),
                    });
                }
                if design.resolve_symbol(&inst.symbol).is_none() {
                    out.push(Violation::DanglingSymbol {
                        cell: cell_name.to_string(),
                        inst: inst.name.as_str().to_string(),
                        symbol: inst.symbol.to_string(),
                    });
                }
            }
            for wire in &sheet.wires {
                for p in &wire.points {
                    if !p.on_grid(rules.grid) {
                        out.push(Violation::OffGridWire {
                            cell: cell_name.to_string(),
                            page: sheet.page,
                            at: (p.x, p.y),
                        });
                    }
                }
                if let Some(label) = &wire.label {
                    match rules.bus.parse_ref(&label.text, &cell.buses) {
                        Ok(_) => {
                            names_on_page
                                .entry(label.text.clone())
                                .or_default()
                                .insert(sheet.page);
                        }
                        Err(e) => out.push(Violation::BadNetName {
                            cell: cell_name.to_string(),
                            page: sheet.page,
                            name: label.text.as_str().to_string(),
                            reason: e.to_string(),
                        }),
                    }
                    if label.font != rules.font {
                        out.push(Violation::WrongFont {
                            cell: cell_name.to_string(),
                            page: sheet.page,
                            text: label.text.as_str().to_string(),
                        });
                    }
                }
            }
            for conn in &sheet.connectors {
                match conn.kind {
                    ConnectorKind::OffPage => {
                        offpage_names.insert(conn.name.clone());
                    }
                    k if k.is_hierarchy() => {
                        hier_names.insert(conn.name.clone());
                    }
                    _ => {}
                }
            }
            for ann in &sheet.annotations {
                if ann.font != rules.font {
                    out.push(Violation::WrongFont {
                        cell: cell_name.to_string(),
                        page: sheet.page,
                        text: ann.text.as_str().to_string(),
                    });
                }
            }
        }

        if rules.requires_offpage_connectors {
            for (name, pages) in &names_on_page {
                if pages.len() > 1
                    && !offpage_names.contains(name)
                    && !design.globals().contains(name)
                {
                    out.push(Violation::MissingOffPage {
                        cell: cell_name.to_string(),
                        net: name.as_str().to_string(),
                    });
                }
            }
        }
        if rules.requires_hier_connectors {
            for port in &cell.ports {
                if !hier_names.contains(&port.name) {
                    out.push(Violation::MissingHierConnector {
                        cell: cell_name.to_string(),
                        port: port.name.as_str().to_string(),
                    });
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_tables_match_the_paper() {
        let v = DialectRules::viewstar();
        let c = DialectRules::cascade();
        // 1/10" grid with 2/10" pin spacing; 1/16" grid with 2/16".
        assert_eq!(v.grid * 10, crate::geom::DBU_PER_INCH);
        assert_eq!(c.grid * 16, crate::geom::DBU_PER_INCH);
        assert_eq!(v.pin_pitch, 2 * v.grid);
        assert_eq!(c.pin_pitch, 2 * c.grid);
        assert!(v.implicit_page_nets && !c.implicit_page_nets);
        assert!(c.requires_hier_connectors && !v.requires_hier_connectors);
    }

    #[test]
    fn scale_factor_is_five_eighths_viewstar_to_cascade() {
        let v = DialectRules::viewstar();
        let c = DialectRules::cascade();
        assert_eq!(v.scale_to(&c), (5, 8));
        assert_eq!(c.scale_to(&v), (8, 5));
        assert_eq!(v.scale_to(&v), (1, 1));
    }
}

#[cfg(test)]
mod violation_tests {
    use super::*;
    use crate::design::{CellSchematic, Design};
    use crate::geom::Point;
    use crate::property::{FontMetrics, Label};
    use crate::sheet::{Sheet, Wire};

    #[test]
    fn violations_render_readably() {
        let samples = vec![
            Violation::OffGridInstance {
                cell: "top".into(),
                page: 1,
                inst: "I1".into(),
            },
            Violation::OffGridWire {
                cell: "top".into(),
                page: 2,
                at: (3, 7),
            },
            Violation::BadNetName {
                cell: "top".into(),
                page: 1,
                name: "9x".into(),
                reason: "bad".into(),
            },
            Violation::MissingOffPage {
                cell: "top".into(),
                net: "sig".into(),
            },
            Violation::MissingHierConnector {
                cell: "top".into(),
                port: "IN".into(),
            },
            Violation::WrongFont {
                cell: "top".into(),
                page: 1,
                text: "n1".into(),
            },
            Violation::DanglingSymbol {
                cell: "top".into(),
                inst: "I1".into(),
                symbol: "l/c/v".into(),
            },
        ];
        for v in samples {
            let text = v.to_string();
            assert!(text.contains("top"), "{text}");
        }
    }

    #[test]
    fn conformance_flags_bad_names_and_fonts() {
        let mut d = Design::new("t", DialectId::Cascade);
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(10, 0)]).with_label(Label::new(
                "9bad",
                Point::new(0, 4),
                FontMetrics::VIEWSTAR, // wrong font for Cascade too
            )),
        );
        cell.sheets.push(s);
        d.add_cell(cell);
        let violations = check_conformance(&d, &DialectRules::cascade());
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::BadNetName { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongFont { .. })));
    }
}
