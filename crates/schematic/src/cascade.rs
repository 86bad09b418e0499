//! The Cascade on-disk schematic format: an s-expression database in the
//! style of Lisp-scripted frameworks.
//!
//! ```text
//! (cascade 1
//!  (design "adder") (top "top") (global "VDD")
//!  (library "stdlib"
//!   (symbol "inv" "symbol" (grid 10)
//!    (pin "A" (at 0 0) (dir input))))
//!  (cell "top"
//!   (page 1
//!    (inst "I1" (of "stdlib" "inv" "symbol") (at 0 0) (orient R0)))))
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::design::{CellSchematic, Design, Library};
use crate::dialect::DialectId;
use crate::geom::{Orient, Point};
use crate::parse::ParseError;
use crate::property::{FontMetrics, Label, PropValue};
use crate::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use crate::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};
use crate::token::space_at;

/// Former Cascade-specific error type, now the shared [`ParseError`].
#[deprecated(note = "use `schematic::ParseError`")]
pub type ParseCascadeError = ParseError;

/// A structural error after lexing; the record context goes in the
/// message since s-expression positions are not tracked past the lexer.
fn perr(message: impl Into<String>) -> ParseError {
    ParseError::new("cascade", message)
}

/// A parsed s-expression. Atoms, and strings without escapes, borrow
/// from the input text.
#[derive(Debug, Clone, PartialEq)]
enum Sx<'a> {
    Atom(&'a str),
    Str(Cow<'a, str>),
    Int(i64),
    List(Vec<Sx<'a>>),
}

impl Sx<'_> {
    fn tag(&self) -> Option<&str> {
        match self {
            Sx::List(items) => match items.first() {
                Some(Sx::Atom(a)) => Some(a),
                _ => None,
            },
            _ => None,
        }
    }
    fn items(&self) -> &[Self] {
        match self {
            Sx::List(items) => items,
            _ => &[],
        }
    }
    fn as_str(&self) -> Result<&str, ParseError> {
        match self {
            Sx::Atom(s) => Ok(s),
            Sx::Str(s) => Ok(s),
            other => Err(perr(format!("expected string, got {other:?}"))),
        }
    }
    fn as_int(&self) -> Result<i64, ParseError> {
        match self {
            Sx::Int(i) => Ok(*i),
            other => Err(perr(format!("expected integer, got {other:?}"))),
        }
    }
}

/// A lexer error at byte `at` of `text`, positioned by 1-based line and
/// column (in characters).
fn lex_err(text: &str, at: usize, message: &str) -> ParseError {
    let before = &text[..at];
    let line_start = before.rfind('\n').map_or(0, |k| k + 1);
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let column = before[line_start..].chars().count() + 1;
    ParseError::at("cascade", message, line, column)
}

/// One open list under construction, remembering where its `(` was so
/// an unclosed paren can be reported at its source position.
struct Frame<'a> {
    items: Vec<Sx<'a>>,
    open: usize,
}

fn lex_parse(text: &str) -> Result<Vec<Sx<'_>>, ParseError> {
    let bytes = text.as_bytes();
    let mut stack = vec![Frame {
        items: Vec::new(),
        open: 0,
    }];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => {
                stack.push(Frame {
                    items: Vec::new(),
                    open: i,
                });
                i += 1;
            }
            b')' => {
                if stack.len() < 2 {
                    return Err(lex_err(text, i, "unbalanced `)`"));
                }
                i += 1;
                let done = stack.pop().expect("checked depth").items;
                stack
                    .last_mut()
                    .expect("checked depth")
                    .items
                    .push(Sx::List(done));
            }
            b'"' => {
                let (s, next) = string(text, i)?;
                stack
                    .last_mut()
                    .expect("stack nonempty")
                    .items
                    .push(Sx::Str(s));
                i = next;
            }
            b';' => {
                // Comment to end of line.
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| i + k + 1);
            }
            _ => {
                let (space, len) = space_at(text, i);
                if space {
                    i += len;
                    continue;
                }
                let start = i;
                i += len;
                while i < bytes.len() {
                    let b = bytes[i];
                    if matches!(b, b'(' | b')' | b'"') {
                        break;
                    }
                    // Every ASCII whitespace byte is at most b' '.
                    if b > b' ' && b.is_ascii() {
                        i += 1;
                        continue;
                    }
                    let (space, len) = space_at(text, i);
                    if space {
                        break;
                    }
                    i += len;
                }
                let tok = &text[start..i];
                let sx = tok.parse::<i64>().map_or(Sx::Atom(tok), Sx::Int);
                stack.last_mut().expect("stack nonempty").items.push(sx);
            }
        }
    }
    if stack.len() != 1 {
        let unclosed = stack.last().expect("stack nonempty").open;
        return Err(lex_err(text, unclosed, "unbalanced `(`"));
    }
    Ok(stack.pop().expect("single frame").items)
}

/// Reads the string whose opening `"` is at byte `open` and returns it
/// with the index just past its closing `"`. `\n` stands for a newline
/// and `\` before any other character for that character; only a string
/// with an escape is copied.
fn string(text: &str, open: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = text.as_bytes();
    let unterminated = || lex_err(text, open, "unterminated string");
    let mut unescaped: Option<String> = None;
    let mut i = open + 1;
    loop {
        let at = i + bytes[i..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(unterminated)?;
        let run = &text[i..at];
        if bytes[at] == b'"' {
            let s = match unescaped {
                Some(mut s) => {
                    s.push_str(run);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(run),
            };
            return Ok((s, at + 1));
        }
        let c = text[at + 1..].chars().next().ok_or_else(unterminated)?;
        let s = unescaped.get_or_insert_with(String::new);
        s.push_str(run);
        s.push(if c == 'n' { '\n' } else { c });
        i = at + 1 + c.len_utf8();
    }
}

/// Formats a text as a Cascade string: quoted, with `\"`, `\\` and `\n`
/// escapes.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        let mut rest = self.0;
        // All three escaped characters are ASCII, so a byte scan finds
        // them and slicing at them keeps to char boundaries.
        while let Some(k) = rest.bytes().position(|b| matches!(b, b'"' | b'\\' | b'\n')) {
            f.write_str(&rest[..k])?;
            f.write_str(match rest.as_bytes()[k] {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                _ => "\\n",
            })?;
            rest = &rest[k + 1..];
        }
        f.write_str(rest)?;
        f.write_str("\"")
    }
}

/// Formats a property value as a Cascade string. Only text can need
/// escapes: no number or flag renders a `"`, `\\` or newline.
struct EscapedValue<'a>(&'a PropValue);

impl fmt::Display for EscapedValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            PropValue::Text(s) => Escaped(s).fmt(f),
            other => write!(f, "\"{other}\""),
        }
    }
}

/// Serializes a design to Cascade text.
pub fn write(design: &Design) -> String {
    let mut out = String::new();
    write_into(&mut out, design).expect("writing to a String cannot fail");
    // Callers often keep the text (a reference output), so give back the
    // slack the buffer's doublings left.
    out.shrink_to_fit();
    out
}

fn write_into(o: &mut String, design: &Design) -> fmt::Result {
    o.push_str("(cascade 1\n");
    writeln!(o, " (design {})", Escaped(&design.name))?;
    writeln!(o, " (top {})", Escaped(&design.top))?;
    for g in design.globals() {
        writeln!(o, " (global {})", Escaped(g))?;
    }
    for lib in design.libraries() {
        writeln!(o, " (library {}", Escaped(&lib.name))?;
        for sym in lib.iter() {
            writeln!(
                o,
                "  (symbol {} {} (grid {})",
                Escaped(&sym.reference.cell),
                Escaped(&sym.reference.view),
                sym.grid
            )?;
            for p in &sym.pins {
                writeln!(
                    o,
                    "   (pin {} (at {} {}) (dir {}))",
                    Escaped(&p.name),
                    p.at.x,
                    p.at.y,
                    p.dir.keyword()
                )?;
            }
            for (a, b) in &sym.body {
                writeln!(o, "   (body {} {} {} {})", a.x, a.y, b.x, b.y)?;
            }
            for (k, v) in sym.default_props.iter() {
                writeln!(o, "   (prop {} {})", Escaped(k), EscapedValue(v))?;
            }
            o.push_str("  )\n");
        }
        o.push_str(" )\n");
    }
    for (name, cell) in design.cells() {
        writeln!(o, " (cell {}", Escaped(name))?;
        for b in &cell.buses {
            writeln!(o, "  (bus {})", Escaped(b))?;
        }
        for p in &cell.ports {
            writeln!(
                o,
                "  (port {} (at {} {}) (dir {}))",
                Escaped(&p.name),
                p.at.x,
                p.at.y,
                p.dir.keyword()
            )?;
        }
        for sheet in &cell.sheets {
            writeln!(o, "  (page {}", sheet.page)?;
            for inst in &sheet.instances {
                write!(
                    o,
                    "   (inst {} (of {} {} {}) (at {} {}) (orient {})",
                    Escaped(&inst.name),
                    Escaped(&inst.symbol.library),
                    Escaped(&inst.symbol.cell),
                    Escaped(&inst.symbol.view),
                    inst.place.origin.x,
                    inst.place.origin.y,
                    inst.place.orient.code()
                )?;
                for (k, v) in inst.props.iter() {
                    write!(o, " (prop {} {})", Escaped(k), EscapedValue(v))?;
                }
                o.push_str(")\n");
            }
            for w in &sheet.wires {
                o.push_str("   (wire (pts");
                for p in &w.points {
                    write!(o, " {} {}", p.x, p.y)?;
                }
                o.push(')');
                if let Some(l) = &w.label {
                    write!(
                        o,
                        " (label {} (at {} {}))",
                        Escaped(&l.text),
                        l.at.x,
                        l.at.y
                    )?;
                }
                o.push_str(")\n");
            }
            for c in &sheet.connectors {
                writeln!(
                    o,
                    "   (conn {} {} (at {} {}) (orient {}))",
                    c.kind.keyword(),
                    Escaped(&c.name),
                    c.at.x,
                    c.at.y,
                    c.orient.code()
                )?;
            }
            for t in &sheet.annotations {
                writeln!(
                    o,
                    "   (text {} (at {} {}))",
                    Escaped(&t.text),
                    t.at.x,
                    t.at.y
                )?;
            }
            o.push_str("  )\n");
        }
        o.push_str(" )\n");
    }
    o.push_str(")\n");
    Ok(())
}

fn find<'s, 'a>(items: &'s [Sx<'a>], tag: &str) -> Option<&'s Sx<'a>> {
    items.iter().find(|s| s.tag() == Some(tag))
}

fn find_all<'s, 'a>(items: &'s [Sx<'a>], tag: &'s str) -> impl Iterator<Item = &'s Sx<'a>> {
    items.iter().filter(move |s| s.tag() == Some(tag))
}

fn get_at(items: &[Sx<'_>]) -> Result<Point, ParseError> {
    let at = find(items, "at").ok_or_else(|| perr("missing (at ...)"))?;
    let it = at.items();
    if it.len() != 3 {
        return Err(perr("(at x y) needs two coordinates"));
    }
    Ok(Point::new(it[1].as_int()?, it[2].as_int()?))
}

fn get_orient(items: &[Sx<'_>]) -> Result<Orient, ParseError> {
    match find(items, "orient") {
        Some(o) => {
            let code = o.items().get(1).map(|s| s.as_str()).transpose()?;
            let code = code.ok_or_else(|| perr("empty (orient)"))?;
            Orient::parse(code).ok_or_else(|| perr(format!("bad orientation `{code}`")))
        }
        None => Ok(Orient::R0),
    }
}

fn get_dir(items: &[Sx<'_>]) -> Result<PinDir, ParseError> {
    let d = find(items, "dir").ok_or_else(|| perr("missing (dir ...)"))?;
    let kw = d
        .items()
        .get(1)
        .ok_or_else(|| perr("empty (dir)"))?
        .as_str()?;
    PinDir::parse(kw).ok_or_else(|| perr(format!("bad direction `{kw}`")))
}

/// Parses Cascade text into a [`Design`].
///
/// # Errors
///
/// Returns the first structural error encountered.
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
/// Returns the first structural error encountered.
pub fn parse_recorded(text: &str, recorder: &dyn obs::Recorder) -> Result<Design, ParseError> {
    crate::parse::traced_parse(text, "cascade", recorder, parse_inner)
}

fn parse_inner(text: &str) -> Result<Design, ParseError> {
    let top_forms = lex_parse(text)?;
    let root = top_forms
        .iter()
        .find(|f| f.tag() == Some("cascade"))
        .ok_or_else(|| perr("no (cascade ...) form"))?;
    let mut design = Design::new("", DialectId::Cascade);
    let font = FontMetrics::CASCADE;
    let mut top = String::new();

    for form in &root.items()[1..] {
        match form.tag() {
            Some("design") => {
                design.name = form.items()[1].as_str()?.to_string();
            }
            Some("top") => {
                top = form.items()[1].as_str()?.to_string();
            }
            Some("global") => {
                design.add_global(form.items()[1].as_str()?);
            }
            Some("library") => {
                let items = form.items();
                let mut lib = Library::new(items[1].as_str()?);
                for sform in find_all(items, "symbol") {
                    let si = sform.items();
                    let cell = si[1].as_str()?;
                    let view = si[2].as_str()?;
                    let grid = find(si, "grid")
                        .ok_or_else(|| perr("symbol missing (grid)"))?
                        .items()[1]
                        .as_int()?;
                    let mut sym =
                        SymbolDef::new(SymbolRef::new(lib.name.clone(), cell, view), grid);
                    for p in find_all(si, "pin") {
                        let pi = p.items();
                        sym.pins
                            .push(SymbolPin::new(pi[1].as_str()?, get_at(pi)?, get_dir(pi)?));
                    }
                    for b in find_all(si, "body") {
                        let bi = b.items();
                        if bi.len() != 5 {
                            return Err(perr("(body ax ay bx by)"));
                        }
                        sym.body.push((
                            Point::new(bi[1].as_int()?, bi[2].as_int()?),
                            Point::new(bi[3].as_int()?, bi[4].as_int()?),
                        ));
                    }
                    for pr in find_all(si, "prop") {
                        let pi = pr.items();
                        sym.default_props
                            .set(pi[1].as_str()?, PropValue::from_text(pi[2].as_str()?));
                    }
                    lib.add(sym);
                }
                design.add_library(lib);
            }
            Some("cell") => {
                let items = form.items();
                let mut cell = CellSchematic::new(items[1].as_str()?);
                for b in find_all(items, "bus") {
                    cell.buses.insert(b.items()[1].as_str()?.into());
                }
                for p in find_all(items, "port") {
                    let pi = p.items();
                    cell.ports
                        .push(SymbolPin::new(pi[1].as_str()?, get_at(pi)?, get_dir(pi)?));
                }
                for pform in find_all(items, "page") {
                    let pi = pform.items();
                    let page = pi[1].as_int()? as u32;
                    let mut sheet = Sheet::new(page);
                    for inst in find_all(pi, "inst") {
                        let ii = inst.items();
                        let name = ii[1].as_str()?;
                        let of = find(ii, "of").ok_or_else(|| perr("inst missing (of)"))?;
                        let oi = of.items();
                        let sref =
                            SymbolRef::new(oi[1].as_str()?, oi[2].as_str()?, oi[3].as_str()?);
                        let mut i = Instance::new(name, sref, get_at(ii)?, get_orient(ii)?);
                        for pr in find_all(ii, "prop") {
                            let pri = pr.items();
                            i.props
                                .set(pri[1].as_str()?, PropValue::from_text(pri[2].as_str()?));
                        }
                        sheet.instances.push(i);
                    }
                    for w in find_all(pi, "wire") {
                        let wi = w.items();
                        let pts = find(wi, "pts").ok_or_else(|| perr("wire missing (pts)"))?;
                        let coords = &pts.items()[1..];
                        if coords.len() < 4 || coords.len() % 2 != 0 {
                            return Err(perr("wire needs >= 2 points"));
                        }
                        let mut points = Vec::with_capacity(coords.len() / 2);
                        for pair in coords.chunks(2) {
                            points.push(Point::new(pair[0].as_int()?, pair[1].as_int()?));
                        }
                        let mut wire = Wire::new(points);
                        if let Some(l) = find(wi, "label") {
                            let li = l.items();
                            wire = wire.with_label(Label::new(li[1].as_str()?, get_at(li)?, font));
                        }
                        sheet.wires.push(wire);
                    }
                    for cform in find_all(pi, "conn") {
                        let ci = cform.items();
                        let kw = ci[1].as_str()?;
                        let kind = ConnectorKind::parse(kw)
                            .ok_or_else(|| perr(format!("bad connector kind `{kw}`")))?;
                        let mut conn = Connector::new(kind, ci[2].as_str()?, get_at(ci)?);
                        conn.orient = get_orient(ci)?;
                        sheet.connectors.push(conn);
                    }
                    for t in find_all(pi, "text") {
                        let ti = t.items();
                        sheet
                            .annotations
                            .push(Label::new(ti[1].as_str()?, get_at(ti)?, font));
                    }
                    cell.sheets.push(sheet);
                }
                design.add_cell(cell);
            }
            _ => {}
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
        let mut d = Design::new("adder", DialectId::Cascade);
        d.add_global("VDD");
        let mut lib = Library::new("stdlib");
        lib.add(
            SymbolDef::new(SymbolRef::new("stdlib", "inv", "symbol"), 10)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(40, 0), PinDir::Output)
                .with_body_segment(Point::new(10, -10), Point::new(10, 10)),
        );
        d.add_library(lib);
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        cell.ports
            .push(SymbolPin::new("OUT", Point::new(0, 0), PinDir::Output));
        let mut s = Sheet::new(1);
        let mut inst = Instance::new(
            "I1",
            SymbolRef::new("stdlib", "inv", "symbol"),
            Point::new(100, 200),
            Orient::R270,
        );
        inst.props.set("SIZE", "x4");
        s.instances.push(inst);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(40, 0)]).with_label(Label::new(
                "net \"a\"",
                Point::new(8, 4),
                FontMetrics::CASCADE,
            )),
        );
        s.connectors.push(Connector::new(
            ConnectorKind::HierOutput,
            "OUT",
            Point::new(40, 0),
        ));
        s.annotations.push(Label::new(
            "multi\nline",
            Point::new(0, 100),
            FontMetrics::CASCADE,
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
    fn comments_and_whitespace_are_skipped() {
        let text = "; header comment\n(cascade 1 (design \"x\") (top \"t\"))";
        let d = parse(text).unwrap();
        assert_eq!(d.name, "x");
    }

    #[test]
    fn unbalanced_parens_fail() {
        assert!(parse("(cascade 1 (design \"x\")").is_err());
        assert!(parse("(cascade 1))").is_err());
    }

    #[test]
    fn missing_root_form_fails() {
        assert!(parse("(viewstar 1)").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "say \"hi\"\\now";
        let text = format!("(cascade 1 (design {}))", Escaped(s));
        let d = parse(&text).unwrap();
        assert_eq!(d.name, s);
    }
}
