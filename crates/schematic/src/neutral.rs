//! A vendor-neutral schematic interchange format.
//!
//! The paper's long-term answer to point-to-point translation is
//! standardization ("in spite of vendor initiatives such as CFI, the
//! glue was unique to each vendor"). This module is that standard, in
//! miniature: an EDIF-like neutral form that any dialect can export to
//! and import from, turning `N·(N-1)` pairwise translators into `2·N`
//! converters.
//!
//! The neutral form normalizes what the dialects disagree on:
//!
//! * geometry is carried in **DBU** (grid-independent),
//! * net names are carried in **explicit** bus syntax with postfix
//!   indicators encoded as a separate attribute,
//! * page connections are always **explicit** (off-page markers),
//! * fonts are not carried at all — cosmetics are the importing
//!   dialect's business.
//!
//! Connectivity survives the round trip exactly (see the crate tests);
//! cosmetic information (fonts, exact label anchors) is normalized, the
//! deliberate loss every real neutral format accepts.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use interop_core::intern::IStr;

use crate::bus::BusSyntax;
use crate::design::{CellSchematic, Design, Library};
use crate::dialect::{DialectId, DialectRules};
use crate::geom::Point;
use crate::property::{Label, PropValue};
use crate::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use crate::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};
use crate::token::{tokenize_into, Quoted, QuotedValue};
use crate::viewstar::{write_cell_head, write_head};

/// Error importing neutral text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNeutralError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseNeutralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "neutral line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNeutralError {}

/// Exports a design to neutral text. Net names are normalized through
/// the design dialect's bus grammar: explicit form, with a postfix
/// indicator as a separate attribute. The explicit form is written
/// without quoting: a parsed name holds only identifier characters,
/// `!`, `<`, `>`, `:`, `-` and digits, never a space or a `"`.
///
/// # Errors
///
/// Returns a message naming any label that fails to parse under the
/// design's own grammar (such a design is malformed for its dialect).
pub fn export(design: &Design) -> Result<String, String> {
    let mut out = String::new();
    export_into(&mut out, design).map_err(|e| e.to_string())?;
    Ok(out)
}

/// The body of [`export`]. Its errors are the label messages; writing to
/// the `String` itself cannot fail.
fn export_into(o: &mut String, design: &Design) -> Result<(), Box<dyn std::error::Error>> {
    let rules = DialectRules::for_id(design.dialect);
    o.push_str("NEUTRAL 1\n");
    writeln!(o, "DESIGN {} FROM {}", Quoted(&design.name), design.dialect)?;
    write_head(o, design)?;
    for (name, cell) in design.cells() {
        write_cell_head(o, name, cell)?;
        for sheet in &cell.sheets {
            writeln!(o, "PAGE {}", sheet.page)?;
            for inst in &sheet.instances {
                let name = Quoted(&inst.name);
                writeln!(
                    o,
                    "INST {name} {} {} {} {} {} {}",
                    Quoted(&inst.symbol.library),
                    Quoted(&inst.symbol.cell),
                    Quoted(&inst.symbol.view),
                    inst.place.origin.x,
                    inst.place.origin.y,
                    inst.place.orient.code()
                )?;
                for (k, v) in inst.props.iter() {
                    writeln!(o, "PROP {name} {} {}", Quoted(k), QuotedValue(v))?;
                }
            }
            for wire in &sheet.wires {
                write!(o, "WIRE {}", wire.points.len())?;
                for p in &wire.points {
                    write!(o, " {} {}", p.x, p.y)?;
                }
                if let Some(l) = &wire.label {
                    let (net, postfix) = rules
                        .bus
                        .parse_ref(&l.text, &cell.buses)
                        .map_err(|e| format!("{name} p{}: `{}`: {e}", sheet.page, l.text))?;
                    write!(o, " NET {net} {} {}", l.at.x, l.at.y)?;
                    if let Some(c) = postfix {
                        write!(o, " POSTFIX {c}")?;
                    }
                }
                o.push('\n');
            }
            for c in &sheet.connectors {
                let (net, _) = rules
                    .bus
                    .parse_ref(&c.name, &cell.buses)
                    .map_err(|e| format!("{name} p{}: `{}`: {e}", sheet.page, c.name))?;
                writeln!(
                    o,
                    "CONN {} {net} {} {} {}",
                    c.kind.keyword(),
                    c.at.x,
                    c.at.y,
                    c.orient.code()
                )?;
            }
            for t in &sheet.annotations {
                writeln!(o, "NOTE {} {} {}", Quoted(&t.text), t.at.x, t.at.y)?;
            }
            o.push_str("ENDPAGE\n");
        }
        o.push_str("ENDCELL\n");
    }
    o.push_str("END\n");
    Ok(())
}

/// Imports neutral text into a design drawn for `target`. Labels take
/// the target dialect's font; postfix attributes are re-attached when
/// the target grammar supports them, folded into the base name (`_n`
/// suffix) otherwise.
///
/// # Errors
///
/// Returns [`ParseNeutralError`] with line numbers on malformed input.
pub fn import(text: &str, target: DialectId) -> Result<Design, ParseNeutralError> {
    let rules = DialectRules::for_id(target);
    let mut design = Design::new("", target);
    let mut cur_lib: Option<Library> = None;
    let mut cur_sym: Option<SymbolDef> = None;
    let mut cur_cell: Option<CellSchematic> = None;
    let mut cur_sheet: Option<Sheet> = None;
    let mut top = String::new();

    // One token vector for the whole text: tokens borrow from `text`.
    let mut toks: Vec<Cow<'_, str>> = Vec::new();

    let err = |line: usize, message: String| ParseNeutralError { line, message };
    let int = |line: usize, t: &str| -> Result<i64, ParseNeutralError> {
        t.parse::<i64>()
            .map_err(|_| err(line, format!("expected integer, got `{t}`")))
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        tokenize_into(raw, &mut toks);
        if toks.is_empty() {
            continue;
        }
        let need = |n: usize| -> Result<(), ParseNeutralError> {
            if toks.len() > n {
                Ok(())
            } else {
                Err(err(line, format!("record `{}` truncated", toks[0])))
            }
        };
        match &*toks[0] {
            "NEUTRAL" | "END" => {}
            "DESIGN" => {
                need(1)?;
                design.name = toks[1].to_string();
            }
            "TOP" => {
                need(1)?;
                top = toks[1].to_string();
            }
            "GLOBAL" => {
                need(1)?;
                design.add_global(&*toks[1]);
            }
            "LIBRARY" => {
                need(1)?;
                cur_lib = Some(Library::new(&*toks[1]));
            }
            "ENDLIBRARY" => {
                let lib = cur_lib
                    .take()
                    .ok_or_else(|| err(line, "ENDLIBRARY without LIBRARY".into()))?;
                design.add_library(lib);
            }
            "SYMBOL" => {
                need(4)?;
                let lib = cur_lib
                    .as_ref()
                    .ok_or_else(|| err(line, "SYMBOL outside LIBRARY".into()))?;
                cur_sym = Some(SymbolDef::new(
                    SymbolRef::new(lib.name.clone(), &*toks[1], &*toks[2]),
                    int(line, &toks[4])?,
                ));
            }
            "ENDSYMBOL" => {
                let sym = cur_sym
                    .take()
                    .ok_or_else(|| err(line, "ENDSYMBOL without SYMBOL".into()))?;
                cur_lib
                    .as_mut()
                    .ok_or_else(|| err(line, "ENDSYMBOL outside LIBRARY".into()))?
                    .add(sym);
            }
            "PIN" => {
                need(4)?;
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| err(line, "PIN outside SYMBOL".into()))?;
                let dir = PinDir::parse(&toks[4])
                    .ok_or_else(|| err(line, format!("bad direction `{}`", toks[4])))?;
                sym.pins.push(SymbolPin::new(
                    &*toks[1],
                    Point::new(int(line, &toks[2])?, int(line, &toks[3])?),
                    dir,
                ));
            }
            "BODY" => {
                need(4)?;
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| err(line, "BODY outside SYMBOL".into()))?;
                sym.body.push((
                    Point::new(int(line, &toks[1])?, int(line, &toks[2])?),
                    Point::new(int(line, &toks[3])?, int(line, &toks[4])?),
                ));
            }
            "SPROP" => {
                need(2)?;
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| err(line, "SPROP outside SYMBOL".into()))?;
                sym.default_props
                    .set(&*toks[1], PropValue::from_text(&toks[2]));
            }
            "CELL" => {
                need(1)?;
                cur_cell = Some(CellSchematic::new(&*toks[1]));
            }
            "ENDCELL" => {
                let cell = cur_cell
                    .take()
                    .ok_or_else(|| err(line, "ENDCELL without CELL".into()))?;
                design.add_cell(cell);
            }
            "BUS" => {
                need(1)?;
                cur_cell
                    .as_mut()
                    .ok_or_else(|| err(line, "BUS outside CELL".into()))?
                    .buses
                    .insert(IStr::from(&*toks[1]));
            }
            "PORT" => {
                need(4)?;
                let cell = cur_cell
                    .as_mut()
                    .ok_or_else(|| err(line, "PORT outside CELL".into()))?;
                let dir = PinDir::parse(&toks[4])
                    .ok_or_else(|| err(line, format!("bad direction `{}`", toks[4])))?;
                cell.ports.push(SymbolPin::new(
                    &*toks[1],
                    Point::new(int(line, &toks[2])?, int(line, &toks[3])?),
                    dir,
                ));
            }
            "PAGE" => {
                need(1)?;
                cur_sheet = Some(Sheet::new(int(line, &toks[1])? as u32));
            }
            "ENDPAGE" => {
                let sheet = cur_sheet
                    .take()
                    .ok_or_else(|| err(line, "ENDPAGE without PAGE".into()))?;
                cur_cell
                    .as_mut()
                    .ok_or_else(|| err(line, "ENDPAGE outside CELL".into()))?
                    .sheets
                    .push(sheet);
            }
            "INST" => {
                need(7)?;
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| err(line, "INST outside PAGE".into()))?;
                let orient = crate::geom::Orient::parse(&toks[7])
                    .ok_or_else(|| err(line, format!("bad orientation `{}`", toks[7])))?;
                sheet.instances.push(Instance::new(
                    &*toks[1],
                    SymbolRef::new(&*toks[2], &*toks[3], &*toks[4]),
                    Point::new(int(line, &toks[5])?, int(line, &toks[6])?),
                    orient,
                ));
            }
            "PROP" => {
                need(3)?;
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| err(line, "PROP outside PAGE".into()))?;
                let inst = sheet
                    .instances
                    .iter_mut()
                    .find(|i| i.name == *toks[1])
                    .ok_or_else(|| err(line, format!("PROP for unknown instance `{}`", toks[1])))?;
                inst.props.set(&*toks[2], PropValue::from_text(&toks[3]));
            }
            "WIRE" => {
                need(1)?;
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| err(line, "WIRE outside PAGE".into()))?;
                let n = int(line, &toks[1])? as usize;
                if n < 2 || toks.len() < 2 + 2 * n {
                    return Err(err(line, "WIRE needs at least 2 points".into()));
                }
                let mut pts = Vec::with_capacity(n);
                for k in 0..n {
                    pts.push(Point::new(
                        int(line, &toks[2 + 2 * k])?,
                        int(line, &toks[3 + 2 * k])?,
                    ));
                }
                let mut wire = Wire::new(pts);
                let mut rest = 2 + 2 * n;
                if rest < toks.len() && toks[rest] == "NET" {
                    if toks.len() < rest + 4 {
                        return Err(err(line, "NET attribute truncated".into()));
                    }
                    let mut name = toks[rest + 1].to_string();
                    let at = Point::new(int(line, &toks[rest + 2])?, int(line, &toks[rest + 3])?);
                    rest += 4;
                    if rest + 1 < toks.len() && toks[rest] == "POSTFIX" {
                        let c = toks[rest + 1]
                            .chars()
                            .next()
                            .ok_or_else(|| err(line, "empty POSTFIX".into()))?;
                        // Re-attach when the target grammar can express
                        // it; fold into the base otherwise.
                        if rules.bus == BusSyntax::Viewstar {
                            name.push(c);
                        } else {
                            name = fold_postfix(&name, c);
                        }
                    }
                    wire = wire.with_label(Label::new(name, at, rules.font));
                }
                sheet.wires.push(wire);
            }
            "CONN" => {
                need(5)?;
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| err(line, "CONN outside PAGE".into()))?;
                let kind = ConnectorKind::parse(&toks[1])
                    .ok_or_else(|| err(line, format!("bad connector `{}`", toks[1])))?;
                let orient = crate::geom::Orient::parse(&toks[5])
                    .ok_or_else(|| err(line, format!("bad orientation `{}`", toks[5])))?;
                let mut conn = Connector::new(
                    kind,
                    &*toks[2],
                    Point::new(int(line, &toks[3])?, int(line, &toks[4])?),
                );
                conn.orient = orient;
                sheet.connectors.push(conn);
            }
            "NOTE" => {
                need(3)?;
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| err(line, "NOTE outside PAGE".into()))?;
                sheet.annotations.push(Label::new(
                    &*toks[1],
                    Point::new(int(line, &toks[2])?, int(line, &toks[3])?),
                    rules.font,
                ));
            }
            other => return Err(err(line, format!("unknown record `{other}`"))),
        }
    }
    if !top.is_empty() {
        design.set_top(top);
    }
    Ok(design)
}

/// Folds a postfix indicator into a base name for grammars that cannot
/// carry it (`rst` + `-` → `rst_n`).
fn fold_postfix(name: &str, c: char) -> String {
    let suffix = match c {
        '-' => "_n",
        '*' => "_s",
        '+' => "_p",
        '~' => "_t",
        _ => "_x",
    };
    match name.find('<') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// The translator-count argument for a neutral format: direct pairwise
/// translation needs `n·(n-1)` converters; a neutral hub needs `2·n`.
pub fn translator_counts(n_tools: usize) -> (usize, usize) {
    (n_tools * n_tools.saturating_sub(1), 2 * n_tools)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::extract_design;
    use crate::gen::{generate, GenConfig};
    use crate::netlist::compare;

    #[test]
    fn viewstar_exports_and_reimports_with_connectivity_preserved() {
        let design = generate(&GenConfig::default());
        let text = export(&design).expect("exports");
        let back = import(&text, DialectId::Viewstar).expect("imports");
        let rules = DialectRules::viewstar();
        let (a, ea) = extract_design(&design, &rules);
        let (b, eb) = extract_design(&back, &rules);
        assert!(ea.is_empty() && eb.is_empty(), "{ea:?} {eb:?}");
        let report = compare(&a, &b);
        assert!(
            report.is_equivalent(),
            "{:?}",
            &report.diffs[..report.diffs.len().min(6)]
        );
    }

    #[test]
    fn neutral_normalizes_condensed_and_postfix_names() {
        let design = generate(&GenConfig::default());
        let text = export(&design).expect("exports");
        // Condensed taps were normalized to explicit syntax.
        assert!(text.contains("D<1>"), "condensed D1 normalized");
        // Postfix indicators travel as attributes, not name characters.
        assert!(text.contains("POSTFIX -"));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("WIRE") {
                assert!(!rest.contains(">-"), "raw postfix leaked: {line}");
            }
        }
    }

    #[test]
    fn postfix_folding_into_cascade_names() {
        assert_eq!(fold_postfix("rst", '-'), "rst_n");
        assert_eq!(fold_postfix("bus<0:3>", '-'), "bus_n<0:3>");
        assert_eq!(fold_postfix("q", '*'), "q_s");
    }

    #[test]
    fn import_errors_carry_line_numbers() {
        assert!(
            import("NEUTRAL 1\nBOGUS x\n", DialectId::Cascade)
                .unwrap_err()
                .line
                == 2
        );
        assert!(import("CELL c\nPAGE 1\nWIRE 1 0 0\n", DialectId::Cascade).is_err());
    }

    #[test]
    fn translator_count_crossover() {
        // 3 tools: 6 direct vs 6 via hub — break-even.
        assert_eq!(translator_counts(3), (6, 6));
        // 10 tools: 90 vs 20 — the standardization argument.
        assert_eq!(translator_counts(10), (90, 20));
        assert_eq!(translator_counts(0), (0, 0));
    }
}
