//! The Viewstar on-disk schematic format: a line-oriented keyword format
//! in the style of late-80s workstation CAD databases.
//!
//! ```text
//! VIEWSTAR 1
//! DESIGN adder
//! GLOBAL VDD
//! LIBRARY basiclib
//! SYMBOL inv symbol GRID 16
//! PIN A 0 0 input
//! BODY 16 -16 16 16
//! ENDSYMBOL
//! ENDLIBRARY
//! CELL top
//! BUS D
//! PORT OUT 0 0 output
//! PAGE 1
//! I I1 basiclib inv symbol 0 0 R0
//! IPROP I1 SIZE 4
//! W 2 64 0 160 0 LABEL mid 96 4
//! C offpage sig 160 0 R0
//! T "title block" 0 0
//! ENDPAGE
//! ENDCELL
//! END
//! ```

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{self, Write as _};

use interop_core::hash::{FNV_OFFSET, FNV_PRIME};
use interop_core::intern::{intern, IStr};

use crate::design::{CellSchematic, Design, Library};
use crate::dialect::DialectId;
use crate::geom::{Orient, Point};
use crate::parse::ParseError;
use crate::property::{FontMetrics, Label, PropValue};
use crate::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use crate::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};
use crate::token::{tokenize_into, Quoted, QuotedValue};

/// Former Viewstar-specific error type, now the shared [`ParseError`].
#[deprecated(note = "use `schematic::ParseError`")]
pub type ParseViewstarError = ParseError;

/// Serializes a design to Viewstar text.
pub fn write(design: &Design) -> String {
    let mut out = String::new();
    write_into(&mut out, design).expect("writing to a String cannot fail");
    // Callers often keep the text (a library of designs), so give back
    // the slack the buffer's doublings left.
    out.shrink_to_fit();
    out
}

fn write_into(o: &mut String, design: &Design) -> fmt::Result {
    o.push_str("VIEWSTAR 1\n");
    writeln!(o, "DESIGN {}", Quoted(&design.name))?;
    write_head(o, design)?;
    for (name, cell) in design.cells() {
        write_cell_head(o, name, cell)?;
        for sheet in &cell.sheets {
            writeln!(o, "PAGE {}", sheet.page)?;
            for inst in &sheet.instances {
                let name = Quoted(&inst.name);
                writeln!(
                    o,
                    "I {name} {} {} {} {} {} {}",
                    Quoted(&inst.symbol.library),
                    Quoted(&inst.symbol.cell),
                    Quoted(&inst.symbol.view),
                    inst.place.origin.x,
                    inst.place.origin.y,
                    inst.place.orient.code()
                )?;
                for (k, v) in inst.props.iter() {
                    writeln!(o, "IPROP {name} {} {}", Quoted(k), QuotedValue(v))?;
                }
            }
            for wire in &sheet.wires {
                write!(o, "W {}", wire.points.len())?;
                for p in &wire.points {
                    write!(o, " {} {}", p.x, p.y)?;
                }
                if let Some(l) = &wire.label {
                    write!(o, " LABEL {} {} {}", Quoted(&l.text), l.at.x, l.at.y)?;
                }
                o.push('\n');
            }
            for c in &sheet.connectors {
                writeln!(
                    o,
                    "C {} {} {} {} {}",
                    c.kind.keyword(),
                    Quoted(&c.name),
                    c.at.x,
                    c.at.y,
                    c.orient.code()
                )?;
            }
            for t in &sheet.annotations {
                writeln!(o, "T {} {} {}", Quoted(&t.text), t.at.x, t.at.y)?;
            }
            o.push_str("ENDPAGE\n");
        }
        o.push_str("ENDCELL\n");
    }
    o.push_str("END\n");
    Ok(())
}

/// The records after the `DESIGN` line that Viewstar shares with the
/// neutral format: the top cell, the globals and every library.
pub(crate) fn write_head(o: &mut String, design: &Design) -> fmt::Result {
    writeln!(o, "TOP {}", Quoted(&design.top))?;
    for g in design.globals() {
        writeln!(o, "GLOBAL {}", Quoted(g))?;
    }
    for lib in design.libraries() {
        writeln!(o, "LIBRARY {}", Quoted(&lib.name))?;
        for sym in lib.iter() {
            writeln!(
                o,
                "SYMBOL {} {} GRID {}",
                Quoted(&sym.reference.cell),
                Quoted(&sym.reference.view),
                sym.grid
            )?;
            for pin in &sym.pins {
                writeln!(
                    o,
                    "PIN {} {} {} {}",
                    Quoted(&pin.name),
                    pin.at.x,
                    pin.at.y,
                    pin.dir.keyword()
                )?;
            }
            for (a, b) in &sym.body {
                writeln!(o, "BODY {} {} {} {}", a.x, a.y, b.x, b.y)?;
            }
            for (k, v) in sym.default_props.iter() {
                writeln!(o, "SPROP {} {}", Quoted(k), QuotedValue(v))?;
            }
            o.push_str("ENDSYMBOL\n");
        }
        o.push_str("ENDLIBRARY\n");
    }
    Ok(())
}

/// A cell's `CELL`, `BUS` and `PORT` records, shared with the neutral
/// format.
pub(crate) fn write_cell_head(o: &mut String, name: &str, cell: &CellSchematic) -> fmt::Result {
    writeln!(o, "CELL {}", Quoted(name))?;
    for b in &cell.buses {
        writeln!(o, "BUS {}", Quoted(b))?;
    }
    for p in &cell.ports {
        writeln!(
            o,
            "PORT {} {} {} {}",
            Quoted(&p.name),
            p.at.x,
            p.at.y,
            p.dir.keyword()
        )?;
    }
    Ok(())
}

struct Cursor<'t, 'a> {
    toks: &'t [Cow<'a, str>],
    line: usize,
    idx: usize,
}

impl<'t> Cursor<'t, '_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at_line("viewstar", msg, self.line)
    }
    fn next(&mut self) -> Result<&'t str, ParseError> {
        let t = self
            .toks
            .get(self.idx)
            .ok_or_else(|| self.err("unexpected end of line"))?;
        self.idx += 1;
        Ok(t)
    }
    fn name(&mut self, names: &mut Names) -> Result<IStr, ParseError> {
        Ok(names.get(self.next()?))
    }
    fn int(&mut self) -> Result<i64, ParseError> {
        let t = self.next()?;
        t.parse::<i64>()
            .map_err(|_| self.err(format!("expected integer, got `{t}`")))
    }
    fn orient(&mut self) -> Result<Orient, ParseError> {
        let t = self.next()?;
        Orient::parse(t).ok_or_else(|| self.err(format!("bad orientation `{t}`")))
    }
    fn dir(&mut self) -> Result<PinDir, ParseError> {
        let t = self.next()?;
        PinDir::parse(t).ok_or_else(|| self.err(format!("bad pin direction `{t}`")))
    }
}

/// A per-parse memo of interned names, so that a name which recurs (a
/// library, a property key, a net label) takes the global intern table's
/// lock about once per parse rather than once per line. It is a small
/// direct-mapped table: a slot keeps the last name that hashed to it, and
/// a colliding name replaces it, so crafted input can cost intern calls
/// but never a scan.
struct Names {
    slots: [Option<IStr>; 256],
}

impl Names {
    fn new() -> Self {
        Names {
            slots: [const { None }; 256],
        }
    }

    fn get(&mut self, s: &str) -> IStr {
        let mut h = FNV_OFFSET;
        for &b in s.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        let slot = &mut self.slots[(h >> 56) as usize];
        match slot {
            Some(name) if name.as_str() == s => name.clone(),
            _ => slot.insert(intern(s)).clone(),
        }
    }
}

/// Parses Viewstar text into a [`Design`].
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    parse_inner(text)
}

/// Like [`parse`], but traced: emits a `schematic.parse` span (dialect
/// and design-size attributes), a `schematic.parse.objects` counter,
/// and a `schematic.parse.error` event with the source position on
/// failure.
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse_recorded(text: &str, recorder: &dyn obs::Recorder) -> Result<Design, ParseError> {
    crate::parse::traced_parse(text, "viewstar", recorder, parse_inner)
}

fn parse_inner(text: &str) -> Result<Design, ParseError> {
    let mut design = Design::new("", DialectId::Viewstar);
    let mut cur_lib: Option<Library> = None;
    let mut cur_sym: Option<SymbolDef> = None;
    let mut cur_cell: Option<CellSchematic> = None;
    let mut cur_sheet: Option<Sheet> = None;
    let mut top = String::new();
    let font = FontMetrics::VIEWSTAR;
    // One token vector for the whole text: tokens borrow from `text`.
    let mut toks = Vec::new();
    let mut names = Names::new();
    // Names of the current page's instances, and whether the last one
    // was the first of its name there; see `IPROP`.
    let mut page_names: HashSet<IStr> = HashSet::new();
    let mut last_is_first = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        tokenize_into(raw, &mut toks);
        if toks.is_empty() || toks[0].starts_with(';') {
            continue;
        }
        let mut c = Cursor {
            toks: &toks,
            line,
            idx: 1,
        };
        match &*toks[0] {
            "VIEWSTAR" | "END" => {}
            "DESIGN" => design.name = c.next()?.to_string(),
            "TOP" => top = c.next()?.to_string(),
            "GLOBAL" => design.add_global(c.name(&mut names)?),
            "LIBRARY" => cur_lib = Some(Library::new(c.name(&mut names)?)),
            "ENDLIBRARY" => {
                let lib = cur_lib
                    .take()
                    .ok_or_else(|| c.err("ENDLIBRARY without LIBRARY"))?;
                design.add_library(lib);
            }
            "SYMBOL" => {
                let lib = cur_lib
                    .as_ref()
                    .ok_or_else(|| c.err("SYMBOL outside LIBRARY"))?;
                let cell = c.name(&mut names)?;
                let view = c.name(&mut names)?;
                let kw = c.next()?;
                if kw != "GRID" {
                    return Err(c.err("expected GRID"));
                }
                let grid = c.int()?;
                cur_sym = Some(SymbolDef::new(
                    SymbolRef::new(lib.name.clone(), cell, view),
                    grid,
                ));
            }
            "ENDSYMBOL" => {
                let sym = cur_sym
                    .take()
                    .ok_or_else(|| c.err("ENDSYMBOL without SYMBOL"))?;
                cur_lib
                    .as_mut()
                    .ok_or_else(|| c.err("ENDSYMBOL outside LIBRARY"))?
                    .add(sym);
            }
            "PIN" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("PIN outside SYMBOL"))?;
                let name = c.name(&mut names)?;
                let (x, y) = (c.int()?, c.int()?);
                let dir = c.dir()?;
                sym.pins.push(SymbolPin::new(name, Point::new(x, y), dir));
            }
            "BODY" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("BODY outside SYMBOL"))?;
                let a = Point::new(c.int()?, c.int()?);
                let b = Point::new(c.int()?, c.int()?);
                sym.body.push((a, b));
            }
            "SPROP" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("SPROP outside SYMBOL"))?;
                let k = c.name(&mut names)?;
                let v = c.next()?;
                sym.default_props.set(k, PropValue::from_text(v));
            }
            "CELL" => cur_cell = Some(CellSchematic::new(c.next()?)),
            "ENDCELL" => {
                let cell = cur_cell
                    .take()
                    .ok_or_else(|| c.err("ENDCELL without CELL"))?;
                design.add_cell(cell);
            }
            "BUS" => {
                cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("BUS outside CELL"))?
                    .buses
                    .insert(c.name(&mut names)?);
            }
            "PORT" => {
                let cell = cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("PORT outside CELL"))?;
                let name = c.name(&mut names)?;
                let (x, y) = (c.int()?, c.int()?);
                let dir = c.dir()?;
                cell.ports.push(SymbolPin::new(name, Point::new(x, y), dir));
            }
            "PAGE" => {
                let page = c.int()? as u32;
                cur_sheet = Some(Sheet::new(page));
                page_names.clear();
            }
            "ENDPAGE" => {
                let sheet = cur_sheet
                    .take()
                    .ok_or_else(|| c.err("ENDPAGE without PAGE"))?;
                cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("ENDPAGE outside CELL"))?
                    .sheets
                    .push(sheet);
            }
            "I" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("I outside PAGE"))?;
                let name = c.name(&mut names)?;
                let lib = c.name(&mut names)?;
                let cell = c.name(&mut names)?;
                let view = c.name(&mut names)?;
                let (x, y) = (c.int()?, c.int()?);
                let o = c.orient()?;
                let inst =
                    Instance::new(name, SymbolRef::new(lib, cell, view), Point::new(x, y), o);
                last_is_first = page_names.insert(inst.name.clone());
                sheet.instances.push(inst);
            }
            "IPROP" => {
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| c.err("IPROP outside PAGE"))?;
                let inst = c.next()?;
                let k = c.name(&mut names)?;
                let v = c.next()?;
                // The property goes to the page's first instance of that
                // name. Writers emit an instance's IPROP lines right after
                // its `I`, so that is almost always the last instance; scan
                // (through `&`, so the list is not touched) only otherwise.
                let last = sheet.instances.len().wrapping_sub(1);
                let at = match sheet.instances.last() {
                    Some(i) if last_is_first && i.name == inst => last,
                    _ => sheet
                        .instances
                        .iter()
                        .position(|i| i.name == inst)
                        .ok_or_else(|| c.err(format!("IPROP for unknown instance `{inst}`")))?,
                };
                sheet.instances[at].props.set(k, PropValue::from_text(v));
            }
            "W" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("W outside PAGE"))?;
                let n = c.int()? as usize;
                if n < 2 {
                    return Err(c.err("wire needs at least 2 points"));
                }
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    pts.push(Point::new(c.int()?, c.int()?));
                }
                let mut wire = Wire::new(pts);
                if c.idx < toks.len() {
                    let kw = c.next()?;
                    if kw != "LABEL" {
                        return Err(c.err(format!("expected LABEL, got `{kw}`")));
                    }
                    let text = c.name(&mut names)?;
                    let (x, y) = (c.int()?, c.int()?);
                    wire = wire.with_label(Label::new(text, Point::new(x, y), font));
                }
                sheet.wires.push(wire);
            }
            "C" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("C outside PAGE"))?;
                let kw = c.next()?;
                let kind = ConnectorKind::parse(kw)
                    .ok_or_else(|| c.err(format!("bad connector kind `{kw}`")))?;
                let name = c.name(&mut names)?;
                let (x, y) = (c.int()?, c.int()?);
                let o = c.orient()?;
                let mut conn = Connector::new(kind, name, Point::new(x, y));
                conn.orient = o;
                sheet.connectors.push(conn);
            }
            "T" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("T outside PAGE"))?;
                let text = c.name(&mut names)?;
                let (x, y) = (c.int()?, c.int()?);
                sheet
                    .annotations
                    .push(Label::new(text, Point::new(x, y), font));
            }
            other => {
                return Err(ParseError::at_line(
                    "viewstar",
                    format!("unknown record `{other}`"),
                    line,
                ))
            }
        }
    }
    if !top.is_empty() {
        design.set_top(top);
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Orient;

    fn sample() -> Design {
        let mut d = Design::new("adder", DialectId::Viewstar);
        d.add_global("VDD");
        let mut lib = Library::new("basiclib");
        lib.add(
            SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(64, 0), PinDir::Output)
                .with_body_segment(Point::new(16, -16), Point::new(16, 16)),
        );
        d.add_library(lib);
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        cell.ports
            .push(SymbolPin::new("OUT", Point::new(0, 0), PinDir::Output));
        let mut s = Sheet::new(1);
        let mut inst = Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(160, 320),
            Orient::MXR90,
        );
        inst.props.set("SIZE", 4i64);
        s.instances.push(inst);
        s.wires.push(
            Wire::new(vec![
                Point::new(0, 0),
                Point::new(64, 0),
                Point::new(64, 32),
            ])
            .with_label(Label::new("n 1", Point::new(8, 4), FontMetrics::VIEWSTAR)),
        );
        let mut conn = Connector::new(ConnectorKind::OffPage, "sig", Point::new(64, 32));
        conn.orient = Orient::R90;
        s.connectors.push(conn);
        s.annotations.push(Label::new(
            "page \"one\"",
            Point::new(0, 100),
            FontMetrics::VIEWSTAR,
        ));
        cell.sheets.push(s);
        d.add_cell(cell);
        d.set_top("top");
        d
    }

    #[test]
    fn round_trip_preserves_design() {
        let d = sample();
        let text = write(&d);
        let back = parse(&text).expect("parse ok");
        assert_eq!(back, d);
    }

    #[test]
    fn iprop_goes_to_the_first_instance_of_its_name() {
        let text = "CELL c\nPAGE 1\nI a l c v 0 0 R0\nI b l c v 0 0 R0\n\
                    I a l c v 0 0 R0\nIPROP a k 1\nIPROP b k 2\nENDPAGE\nENDCELL\n";
        let d = parse(text).expect("parses");
        let insts = &d.cell("c").unwrap().sheets[0].instances;
        let ks: Vec<_> = insts.iter().map(|i| i.props.get("k").cloned()).collect();
        assert_eq!(ks, [Some(PropValue::Int(1)), Some(PropValue::Int(2)), None]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "VIEWSTAR 1\nBOGUS record\n";
        let err = parse(bad).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.message.contains("BOGUS"));
        assert!(err
            .to_string()
            .starts_with("viewstar parse error at line 2"));
    }

    #[test]
    fn iprop_for_unknown_instance_fails() {
        let bad = "CELL c\nPAGE 1\nIPROP I9 k v\n";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("unknown instance"));
    }

    #[test]
    fn wire_with_too_few_points_fails() {
        let bad = "CELL c\nPAGE 1\nW 1 0 0\n";
        assert!(parse(bad).is_err());
    }
}
