//! Pinned bytes of the dialect readers and writers.
//!
//! For the two loadbench design sizes (the generator configs whose
//! hashes `crates/migrate/tests/cache.rs` pins) and one hand-built design
//! full of quoting and escaping edge cases, this pins an FNV-1a digest
//! and byte count of every text the writers emit and of the `Debug`
//! rendering of every design (or error) the readers return. A change to
//! how the dialect I/O is implemented must leave all of them as they are.

use std::borrow::Cow;

use migrate::{presets, Migrator};
use proptest::prelude::*;
use schematic::design::{CellSchematic, Design, Library};
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};
use schematic::geom::{Orient, Point};
use schematic::property::{FontMetrics, Label};
use schematic::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use schematic::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};
use schematic::token::tokenize_into;
use schematic::{cascade, neutral, viewstar};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pin(text: &str) -> (u64, usize) {
    (fnv(text.as_bytes()), text.len())
}

/// A design at one of the two loadbench sizes: 16 gates × 4 pages at
/// depth 1, or 32 × 8 at depth 2.
fn loadbench_design(seed: u64, large: bool) -> Design {
    let (gates, pages, depth) = if large { (32, 8, 2) } else { (16, 4, 1) };
    generate(
        &GenConfig::builder()
            .seed(seed)
            .gates_per_page(gates)
            .pages(pages)
            .depth(depth)
            .bus_width(4)
            .build()
            .expect("valid generator config"),
    )
}

/// Names and values that need quoting or escaping in one dialect or the
/// other, yet still read back from Viewstar text: empty text, spaces,
/// quotes, backslashes, a trailing carriage return, ideographic space
/// and multibyte names, plus every property value kind.
fn edge_design() -> Design {
    let mut d = Design::new("edge \"case\"", DialectId::Viewstar);
    d.add_global("VDD");
    d.add_global("two words");
    let mut lib = Library::new("lib\\one");
    let mut sym = SymbolDef::new(SymbolRef::new("lib\\one", "名前", "sym bol"), 16)
        .with_pin("", Point::new(0, 0), PinDir::Input)
        .with_pin("q\"", Point::new(64, -16), PinDir::Output)
        .with_body_segment(Point::new(16, -16), Point::new(16, 16));
    sym.default_props.set("empty", "");
    sym.default_props.set("real", 2.5);
    sym.default_props.set("big", 1e21);
    sym.default_props.set("neg zero", -0.0);
    sym.default_props.set("flag", true);
    lib.add(sym);
    d.add_library(lib);
    let mut cell = CellSchematic::new("top cell");
    cell.buses.insert("D".into());
    cell.ports
        .push(SymbolPin::new("OUT", Point::new(0, 0), PinDir::Output));
    let mut s = Sheet::new(3);
    for (k, name) in ["I1", "I 2", "\u{3000}I3"].into_iter().enumerate() {
        let mut inst = Instance::new(
            name,
            SymbolRef::new("lib\\one", "名前", "sym bol"),
            Point::new(160 * k as i64, -320),
            Orient::MXR90,
        );
        inst.props.set("SIZE", -42i64);
        inst.props.set("model", "say \"hi\"");
        inst.props.set("w", "1.2u\r");
        inst.props.set("off", false);
        s.instances.push(inst);
    }
    s.wires.push(
        Wire::new(vec![
            Point::new(0, 0),
            Point::new(64, 0),
            Point::new(64, 32),
        ])
        .with_label(Label::new("n 1", Point::new(8, 4), FontMetrics::VIEWSTAR)),
    );
    s.wires
        .push(Wire::new(vec![Point::new(-5, 7), Point::new(-5, 9)]));
    let mut conn = Connector::new(ConnectorKind::OffPage, "", Point::new(64, 32));
    conn.orient = Orient::R90;
    s.connectors.push(conn);
    s.annotations.push(Label::new(
        "line \\ \"quoted\"",
        Point::new(0, 100),
        FontMetrics::VIEWSTAR,
    ));
    s.annotations
        .push(Label::new("", Point::new(1, 2), FontMetrics::VIEWSTAR));
    cell.sheets.push(s);
    d.add_cell(cell);
    d.set_top("top cell");
    d
}

/// Every pinned text for `source`, labelled: Viewstar text of the source
/// and its reparse, the Cascade text of its Exar-style migration and
/// that text's reparse, the migrated design's Viewstar text, and the
/// source's neutral export and reimport.
fn texts(source: &Design) -> Vec<(&'static str, String)> {
    let vs = viewstar::write(source);
    let parsed = viewstar::parse(&vs);
    let migrated = Migrator::new(presets::exar_style_config(4, 0))
        .migrate(parsed.as_ref().unwrap_or(source), DialectId::Cascade)
        .design;
    let cs = cascade::write(&migrated);
    let cs_parsed = cascade::parse(&cs);
    let vs_migrated = viewstar::write(&migrated);
    let vs_migrated_parsed = viewstar::parse(&vs_migrated);
    let nt = neutral::export(source);
    let nt_parsed = nt
        .as_ref()
        .map(|text| neutral::import(text, DialectId::Cascade));
    vec![
        ("viewstar::write", vs),
        ("viewstar::parse", format!("{parsed:?}")),
        ("cascade::write", cs),
        ("cascade::parse", format!("{cs_parsed:?}")),
        ("viewstar::write(migrated)", vs_migrated),
        (
            "viewstar::parse(migrated)",
            format!("{vs_migrated_parsed:?}"),
        ),
        ("neutral::export", format!("{nt:?}")),
        ("neutral::import", format!("{nt_parsed:?}")),
    ]
}

/// `(seed, large)` of each generated design, in the order of `PINNED`.
const DESIGNS: [(u64, bool); 4] = [(1, false), (2, false), (3, true), (4, true)];

/// `(digest, bytes)` of each text of [`texts`], one row per generated
/// design and a last row for [`edge_design`].
const PINNED: [[(u64, usize); 8]; 5] = [
    [
        (0x8c8ddb998bb86000, 16118),
        (0x74932e4b1423d750, 76878),
        (0x6b31ca4cfc97d601, 31281),
        (0xb29858de80017d03, 84530),
        (0xcb8cfae658ddc953, 21091),
        (0x6d7a1d4bc261b63f, 85255),
        (0x56807ba3e7aa7fa8, 17410),
        (0xdbeca884bd28b283, 76186),
    ],
    [
        (0x10eeb5c215873148, 16168),
        (0x1be29ed73cea8dc7, 76926),
        (0x044f1b084cd3eccb, 31337),
        (0xfec8c042fa9b494f, 84590),
        (0x46b034fd85426c6b, 21147),
        (0xd2cb39caea16f203, 85315),
        (0x438842bd87ab8e06, 17446),
        (0xf10284bad79846a2, 76232),
    ],
    [
        (0x1581c6e52dda8fa8, 93241),
        (0x76366d867245dc2b, 430654),
        (0xdbd2475877777ca3, 172434),
        (0x5fd01b4f10660ccd, 462576),
        (0x9e86ffe59e27ff16, 119625),
        (0x6be227ceb0b2d0e7, 466669),
        (0x084700315065a529, 100516),
        (0xb0fc314f3eef6470, 426734),
    ],
    [
        (0xe6c55837ac21a8fd, 93075),
        (0x942520184a6eb216, 431505),
        (0x0d614fdd6eacf3d0, 172365),
        (0x3125f9e168b5a1ea, 463367),
        (0x970ef42ea2b7469f, 119447),
        (0x1c0618d8b0fd1d93, 467480),
        (0xef45ecec0b0966af, 100106),
        (0x746db5d116539bc8, 427539),
    ],
    [
        (0x7dc58cc68116e39e, 893),
        (0xd9be2663a7e2f39b, 2517),
        (0x8cc3350aab4f2938, 1778),
        (0xec3cdd346a10447e, 3904),
        (0x1a11c933269345a6, 1318),
        (0xe26e7f0b0a7c8cae, 3917),
        (0x43934b6b516e444b, 51),
        (0x43934b6b516e444b, 51),
    ],
];

fn check(row: usize, source: &Design) {
    let texts = texts(source);
    let got: Vec<(u64, usize)> = texts.iter().map(|(_, t)| pin(t)).collect();
    for (k, (label, text)) in texts.iter().enumerate() {
        assert_eq!(
            got[k],
            PINNED[row][k],
            "row {row}: {label} changed; all of this row: {got:#x?}; text starts {:?}",
            text.chars().take(200).collect::<String>()
        );
    }
}

#[test]
fn texts_of_loadbench_designs_are_pinned() {
    for (row, (seed, large)) in DESIGNS.into_iter().enumerate() {
        check(row, &loadbench_design(seed, large));
    }
}

#[test]
fn texts_of_the_quoting_edge_design_are_pinned() {
    check(DESIGNS.len(), &edge_design());
}

/// Hand-written Viewstar text: tab, carriage-return and U+3000
/// separators, an embedded `""`, an empty `""` token, a token glued to a
/// closing quote, an unterminated quote, a comment line and a multibyte
/// name.
const VIEWSTAR_TEXT: &str = "VIEWSTAR 1\r\n; comment \"x\r\nDESIGN\t\"a \"\"b\"\"\"\r\n\
GLOBAL\u{3000}全局\nCELL \"\"\nPAGE 2\nI\tU1 lib\"x\" cell view 0\t0 R0\r\n\
IPROP U1 \"k\"v \"\"\nGLOBAL \"open\tend\nW 2 0 0 5 0 LABEL \"n\"\"\" 1 1\n\
ENDPAGE\nENDCELL\nEND\n";

/// Hand-written Cascade text: comments, every string escape, a quoted
/// integer, atoms beside strings and a multibyte name.
const CASCADE_TEXT: &str = "; head\n(cascade 1 ; tail\n (design \"a\\\"b\\\\c\\nd\\q\")\n\
 (top \"t\")(global G)(global \"名\")\n (cell \"t\" (bus \"D\")\n\
  (page +2 (inst \"I1\" (of \"l\" c v) (at -1 2) (prop \"k\" \"7\"))\n\
   (text \"x\\ty\" (at 3 4)))))\n";

/// Viewstar and Cascade inputs that fail, each with its error position.
const BAD_TEXTS: [(&str, &str); 7] = [
    ("viewstar", "VIEWSTAR 1\nBOGUS x\n"),
    ("viewstar", "CELL c\nPAGE 1\nIPROP I9 k v\n"),
    ("viewstar", "CELL c\nPAGE 1\nI a l c v 0 x R0\n"),
    ("cascade", "(cascade 1\n  (design \"x\")"),
    ("cascade", "(cascade 1))\n"),
    ("cascade", "(cascade 1\n (design \"名前\n"),
    ("cascade", "(cascade 1 (cell \"c\" (page x)))"),
];

#[test]
fn reads_of_hand_written_texts_are_pinned() {
    let mut got = vec![
        format!("{:?}", viewstar::parse(VIEWSTAR_TEXT)),
        format!("{:?}", cascade::parse(CASCADE_TEXT)),
    ];
    for (dialect, text) in BAD_TEXTS {
        got.push(match dialect {
            "viewstar" => format!("{:?}", viewstar::parse(text)),
            _ => format!("{:?}", cascade::parse(text)),
        });
    }
    let pins: Vec<(u64, usize)> = got.iter().map(|t| pin(t)).collect();
    assert_eq!(pins, HAND_WRITTEN, "{got:#?}");
}

/// `(digest, bytes)` of each `Debug` rendering the test collects.
const HAND_WRITTEN: [(u64, usize); 9] = [
    (0xc00eda7a06b31ee1, 760),
    (0x6c40ab019b64cacb, 663),
    (0xa58e165065f79245, 118),
    (0xdfebdae44cf3542b, 127),
    (0x4ae61460793b5b8b, 121),
    (0x3deacec1411e32b3, 109),
    (0xd892020eb2f1dc6a, 110),
    (0xd350ff4f3d735b8c, 115),
    (0xe84f3c75070bbaac, 94),
];

/// The char-by-char Viewstar tokenizer the borrowing one replaced, kept
/// as the differential oracle: one `String` per token.
fn reference_tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut tok = String::new();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            tok.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(ch) => tok.push(ch),
                    None => break,
                }
            }
            out.push(tok);
        } else {
            let mut tok = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() {
                    break;
                }
                tok.push(ch);
                chars.next();
            }
            out.push(tok);
        }
    }
    out
}

/// Line fragments: quotes alone, doubled and empty, ASCII and Unicode
/// whitespace (tab, CR, VT, FF, NEL, NBSP, U+2028, U+3000), multibyte
/// names, a non-whitespace control character and plain tokens.
const FRAGMENTS: [&str; 22] = [
    "\"",
    "\"\"",
    "\"\"\"",
    " ",
    "  ",
    "\t",
    "\r",
    "\u{b}",
    "\u{c}",
    "\u{85}",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "名前",
    "é",
    "\u{1F600}",
    "\u{1}",
    "a",
    "x1",
    "-42",
    ";",
    "IPROP",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn borrowing_tokenizer_matches_the_reference(
        parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..24)
    ) {
        let line = parts.concat();
        let mut toks: Vec<Cow<'_, str>> = Vec::new();
        tokenize_into(&line, &mut toks);
        let reference = reference_tokenize(&line);
        prop_assert_eq!(&toks, &reference, "line {:?}", line);
        // Only a token that needed unescaping owns its text.
        for t in &toks {
            if let Cow::Owned(s) = t {
                prop_assert!(s.contains('"') && line.contains("\"\""), "{:?} in {:?}", s, line);
            }
        }
    }
}
