//! Golden verification corpus.
//!
//! Digests of the verifier's observable output — both extractions
//! (`format!("{:?}", extract_design(..))`: netlist plus errors, in
//! order), the normalized source netlist and the full `VerifyReport` —
//! over seeded designs at the load benchmark's sizes, the E-S2-MIG
//! skip-one-stage ablations (failing reports with diffs, extraction
//! errors and conformance violations) and hand-built edge cases.
//!
//! The digests were recorded with the original scan-based extractor.
//! Any rewrite of extraction, normalization or comparison must
//! reproduce every one of them byte for byte. On a mismatch the test
//! prints the full table it computed, so a deliberate change of the
//! output format can be re-recorded in one step.

use interop_core::hash::StableHasher;
use migrate::verify::{normalize_source, verify};
use migrate::{presets, MigrationConfig, Migrator, StageId};
use schematic::connectivity::extract_design;
use schematic::design::{CellSchematic, Design, Library};
use schematic::dialect::{DialectId, DialectRules};
use schematic::gen::{generate, GenConfig, PRIMITIVE_LIB};
use schematic::geom::{Orient, Point};
use schematic::property::{FontMetrics, Label};
use schematic::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use schematic::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};

fn digest(text: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(text);
    format!("{:016x}", h.finish())
}

/// Extracts, normalizes and verifies one migration, returning the four
/// digests under `name`.
fn digests(name: &str, source: &Design, config: MigrationConfig) -> Vec<(String, String)> {
    let src_rules = DialectRules::for_id(DialectId::Viewstar);
    let dst_rules = DialectRules::for_id(DialectId::Cascade);
    let target = Migrator::new(config.clone())
        .migrate(source, DialectId::Cascade)
        .design;
    let src = extract_design(source, &src_rules);
    let dst = extract_design(&target, &dst_rules);
    let normalized = normalize_source(&src.0, &config);
    let report = verify(source, &src_rules, &target, &dst_rules, &config);
    vec![
        (format!("{name}/source"), digest(&format!("{src:?}"))),
        (format!("{name}/target"), digest(&format!("{dst:?}"))),
        (
            format!("{name}/normalized"),
            digest(&format!("{normalized:?}")),
        ),
        (format!("{name}/verify"), digest(&format!("{report:?}"))),
    ]
}

fn seeded(seed: u64, gates: usize, pages: u32, depth: usize) -> Design {
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

fn label(text: &str, x: i64, y: i64) -> Label {
    Label::new(text, Point::new(x, y), FontMetrics::VIEWSTAR)
}

fn wire(points: &[(i64, i64)]) -> Wire {
    Wire::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

fn inst(name: &str, cell: &str, x: i64, y: i64) -> Instance {
    Instance::new(
        name,
        SymbolRef::new(PRIMITIVE_LIB, cell, "symbol"),
        Point::new(x, y),
        Orient::R0,
    )
}

/// A one-cell Viewstar design over a primitive library shaped like the
/// generator's (16-DBU grid), so the preset symbol map applies.
fn hand_built(sheets: Vec<Sheet>, buses: &[&str]) -> Design {
    let g = 16;
    let mut lib = Library::new(PRIMITIVE_LIB);
    lib.add(
        SymbolDef::new(SymbolRef::new(PRIMITIVE_LIB, "inv", "symbol"), g)
            .with_pin("A", Point::new(0, 0), PinDir::Input)
            .with_pin("Y", Point::new(4 * g, 0), PinDir::Output),
    );
    let mut reg = SymbolDef::new(SymbolRef::new(PRIMITIVE_LIB, "reg4", "symbol"), g);
    for i in 0..4 {
        reg.pins.push(SymbolPin::new(
            format!("D<{i}>"),
            Point::new(0, 2 * g * i),
            PinDir::Input,
        ));
    }
    lib.add(reg);
    let mut d = Design::new("edge", DialectId::Viewstar);
    d.add_library(lib);
    let mut cell = CellSchematic::new("top");
    for b in buses {
        cell.buses.insert((*b).into());
    }
    cell.sheets = sheets;
    d.add_cell(cell);
    d
}

/// Builds one hand-drawn edge-case design.
type EdgeCase = fn() -> Design;

fn edge_diagonal() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("I1", "inv", 0, 0));
    s.instances.push(inst("I2", "inv", 160, 96));
    // I3.A lands mid-way along the 45-degree wire.
    s.instances.push(inst("I3", "inv", 112, 48));
    s.wires
        .push(wire(&[(64, 0), (160, 96)]).with_label(label("diag", 100, 40)));
    // A shallow diagonal (slope 1/3): I4.A on it, I5.A just off it.
    s.instances.push(inst("I4", "inv", 48, 176));
    s.instances.push(inst("I5", "inv", 64, 176));
    s.wires.push(wire(&[(0, 160), (96, 192)]));
    hand_built(vec![s], &[])
}

fn edge_t_junction() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("I1", "inv", 0, 0));
    s.instances.push(inst("I2", "inv", 128, -64));
    s.wires.push(wire(&[(64, 0), (192, 0)]));
    // T into the middle of the horizontal run.
    s.wires
        .push(wire(&[(128, -64), (128, 0)]).with_label(label("tee", 132, -32)));
    // A plain crossing with no vertex at the crossing point: no join.
    s.wires
        .push(wire(&[(160, -32), (160, 32)]).with_label(label("cross", 164, 16)));
    hand_built(vec![s], &[])
}

fn edge_pin_on_endpoint() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("I1", "inv", 0, 0));
    s.instances.push(inst("I2", "inv", 96, 64));
    // Ends exactly on I1.Y.
    s.wires.push(wire(&[(32, -32), (64, -32), (64, 0)]));
    // Interior vertex on I2.A, far end on I2.Y.
    s.wires.push(wire(&[(96, 0), (96, 64), (160, 64)]));
    // A zero-length first segment.
    s.wires
        .push(wire(&[(200, 0), (200, 0), (240, 0)]).with_label(label("stub", 210, 4)));
    hand_built(vec![s], &[])
}

fn edge_two_pages() -> Design {
    let page = |n: u32, inst_name: &str| {
        let mut s = Sheet::new(n);
        s.instances.push(inst(inst_name, "inv", 0, 0));
        s.wires
            .push(wire(&[(64, 0), (128, 0)]).with_label(label("a", 80, 4)));
        // Identical unlabelled dangling geometry on both pages.
        s.wires.push(wire(&[(0, 64), (64, 64)]));
        s
    };
    let mut p1 = page(1, "I1");
    p1.connectors.push(Connector::new(
        ConnectorKind::OffPage,
        "a",
        Point::new(128, 0),
    ));
    let p2 = page(2, "I2");
    hand_built(vec![p1, p2], &[])
}

fn edge_bus_tap() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("R1", "reg4", 160, 0));
    // The bundle touches D<0>, D<1> and D<2>; only bits 0..1 are in range.
    s.wires
        .push(wire(&[(160, 0), (160, 64)]).with_label(label("D<0:1>", 164, 16)));
    // A scalar pin on the bundle.
    s.instances.push(inst("I1", "inv", 160, 48));
    // A scalar name tapped onto the bundle.
    s.wires
        .push(wire(&[(160, 16), (224, 16)]).with_label(label("X", 200, 20)));
    // A condensed tap elsewhere joins D<1> by name.
    s.wires
        .push(wire(&[(320, 0), (352, 0)]).with_label(label("D1", 330, 4)));
    hand_built(vec![s], &["D"])
}

/// Two faulty bundles whose cluster order (by union-find root, which
/// follows drawing order) differs from their geometric order: the
/// right-hand bundle is drawn first, and a later wire T-joins it.
fn edge_two_bundles() -> Design {
    let mut s = Sheet::new(1);
    s.wires
        .push(wire(&[(480, 0), (480, 64)]).with_label(label("D<0:1>", 484, 16)));
    s.wires
        .push(wire(&[(0, 0), (0, 64)]).with_label(label("E<0:1>", 4, 16)));
    s.wires.push(wire(&[(544, 32), (480, 32)]));
    // A scalar pin on each bundle.
    s.instances.push(inst("I1", "inv", 480, 16));
    s.instances.push(inst("I2", "inv", 0, 16));
    hand_built(vec![s], &["D", "E"])
}

fn edge_unresolved() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("I1", "inv", 0, 0));
    s.instances.push(Instance::new(
        "G1",
        SymbolRef::new("ghostlib", "none", "symbol"),
        Point::new(64, 0),
        Orient::R0,
    ));
    s.wires
        .push(wire(&[(64, 0), (128, 0)]).with_label(label("n", 80, 4)));
    hand_built(vec![s], &[])
}

fn edge_postfix() -> Design {
    let mut s = Sheet::new(1);
    s.instances.push(inst("I1", "inv", 0, 0));
    s.instances.push(inst("I2", "inv", 0, 64));
    s.wires
        .push(wire(&[(64, 0), (128, 0)]).with_label(label("RST-", 80, 4)));
    s.wires
        .push(wire(&[(64, 64), (128, 64)]).with_label(label("EN*", 80, 68)));
    // A postfixed bundle and an unparsable label.
    s.wires
        .push(wire(&[(256, 0), (256, 64)]).with_label(label("Q<0:1>-", 260, 16)));
    s.wires
        .push(wire(&[(320, 0), (384, 0)]).with_label(label("Q<x>", 330, 4)));
    s.connectors.push(Connector::new(
        ConnectorKind::OffPage,
        "RST-",
        Point::new(128, 0),
    ));
    hand_built(vec![s], &["Q"])
}

fn corpus() -> Vec<(String, String)> {
    let exar = || presets::exar_style_config(4, 0);
    let mut out = Vec::new();
    for seed in 1..=6 {
        out.extend(digests(
            &format!("small/{seed}"),
            &seeded(seed, 16, 4, 1),
            exar(),
        ));
    }
    for seed in 1..=3 {
        out.extend(digests(
            &format!("large/{seed}"),
            &seeded(seed, 32, 8, 2),
            exar(),
        ));
    }
    // The E-S2-MIG pipeline rows (pin-shifted target library).
    for (gates, pages, depth) in [(8, 2, 0), (12, 2, 1), (24, 3, 2)] {
        let source = generate(&GenConfig {
            gates_per_page: gates,
            pages,
            depth,
            ..GenConfig::default()
        });
        out.extend(digests(
            &format!("pipeline/{gates}x{pages}d{depth}"),
            &source,
            presets::exar_style_config(4, 10),
        ));
    }
    // The E-S2-MIG ablations: one stage skipped at a time.
    let ablated = generate(&GenConfig {
        gates_per_page: 8,
        ..GenConfig::default()
    });
    for stage in StageId::ALL {
        let mut config = exar();
        config.skip_stages = vec![stage];
        if stage == StageId::Scale {
            config.skip_stages.push(StageId::Symbols);
        }
        out.extend(digests(&format!("skip-{}", stage.name()), &ablated, config));
    }
    let edges: [(&str, EdgeCase); 8] = [
        ("diagonal", edge_diagonal),
        ("t-junction", edge_t_junction),
        ("pin-on-endpoint", edge_pin_on_endpoint),
        ("two-pages", edge_two_pages),
        ("bus-tap", edge_bus_tap),
        ("two-bundles", edge_two_bundles),
        ("unresolved", edge_unresolved),
        ("postfix", edge_postfix),
    ];
    for (name, build) in edges {
        out.extend(digests(&format!("edge/{name}"), &build(), exar()));
    }
    out
}

const GOLDEN: &[(&str, &str)] = &[
    ("small/1/source", "6e74bca8d51f8bf0"),
    ("small/1/target", "698d23decbccfd18"),
    ("small/1/normalized", "2ecc6d8d3b0fe04d"),
    ("small/1/verify", "79d2d764f67a7fa4"),
    ("small/2/source", "1c6aee9dfc3db5f0"),
    ("small/2/target", "4463db29e267954a"),
    ("small/2/normalized", "f6456586a574cd7d"),
    ("small/2/verify", "625dd7611b4c6d54"),
    ("small/3/source", "92c0700d1db3addf"),
    ("small/3/target", "0903a6c62c8aed79"),
    ("small/3/normalized", "cfa82e33d12780a7"),
    ("small/3/verify", "0369806b72887c0a"),
    ("small/4/source", "ebea6a5027b1c5b6"),
    ("small/4/target", "3a73b79ff3d9a008"),
    ("small/4/normalized", "201075b362180c7d"),
    ("small/4/verify", "b44455f58cf23640"),
    ("small/5/source", "e3144e367edbf028"),
    ("small/5/target", "57d68adaf9afbf7c"),
    ("small/5/normalized", "95ea313e7fa82b81"),
    ("small/5/verify", "5582c9b4eab36fb8"),
    ("small/6/source", "649560099a94a061"),
    ("small/6/target", "1ca952d9ef2703c9"),
    ("small/6/normalized", "6f99a2bd3cd62804"),
    ("small/6/verify", "346461b7a28a7b81"),
    ("large/1/source", "ac5620407ad0d25f"),
    ("large/1/target", "d6258decb3298625"),
    ("large/1/normalized", "db28298815184231"),
    ("large/1/verify", "c8c5b39bcd1253d2"),
    ("large/2/source", "1dc58e581706bd71"),
    ("large/2/target", "d55447443f3e3a7c"),
    ("large/2/normalized", "0e762b43c5d5f52b"),
    ("large/2/verify", "efdfbe3df7cdec76"),
    ("large/3/source", "62e0bcf5616d434c"),
    ("large/3/target", "1e6ae7195de1fd98"),
    ("large/3/normalized", "68ecd3df8c69ac43"),
    ("large/3/verify", "c1856e492472c20c"),
    ("pipeline/8x2d0/source", "143d62ed5571961f"),
    ("pipeline/8x2d0/target", "b4d3fce89fc4e0a6"),
    ("pipeline/8x2d0/normalized", "fad70b4286ffd429"),
    ("pipeline/8x2d0/verify", "a20e0e18d620cfff"),
    ("pipeline/12x2d1/source", "896882231a35bc59"),
    ("pipeline/12x2d1/target", "74ef6ee52f631094"),
    ("pipeline/12x2d1/normalized", "2a4a6dfd77854041"),
    ("pipeline/12x2d1/verify", "a782d7a6437e6cdd"),
    ("pipeline/24x3d2/source", "e4fb8476d2f738c1"),
    ("pipeline/24x3d2/target", "4bb2bd44d01299bb"),
    ("pipeline/24x3d2/normalized", "4c95c90fff3ba2b6"),
    ("pipeline/24x3d2/verify", "3db98d4e78d2b660"),
    ("skip-scale/source", "ac2d4ad5aa7e6400"),
    ("skip-scale/target", "63a49ae2f0abaeaa"),
    ("skip-scale/normalized", "46fecb752a1a0d8e"),
    ("skip-scale/verify", "0950d4032195b969"),
    ("skip-symbols/source", "ac2d4ad5aa7e6400"),
    ("skip-symbols/target", "63a49ae2f0abaeaa"),
    ("skip-symbols/normalized", "46fecb752a1a0d8e"),
    ("skip-symbols/verify", "1287f53ece0e8ab9"),
    ("skip-props/source", "ac2d4ad5aa7e6400"),
    ("skip-props/target", "6b5f41907ee3136f"),
    ("skip-props/normalized", "46fecb752a1a0d8e"),
    ("skip-props/verify", "6244cdd65fca920e"),
    ("skip-callbacks/source", "ac2d4ad5aa7e6400"),
    ("skip-callbacks/target", "6b5f41907ee3136f"),
    ("skip-callbacks/normalized", "46fecb752a1a0d8e"),
    ("skip-callbacks/verify", "6244cdd65fca920e"),
    ("skip-bus/source", "ac2d4ad5aa7e6400"),
    ("skip-bus/target", "503d170a17f7e857"),
    ("skip-bus/normalized", "46fecb752a1a0d8e"),
    ("skip-bus/verify", "3a3d8c6dd429fd82"),
    ("skip-connectors/source", "ac2d4ad5aa7e6400"),
    ("skip-connectors/target", "7bf881809f890a38"),
    ("skip-connectors/normalized", "46fecb752a1a0d8e"),
    ("skip-connectors/verify", "51ae038b88ec63ae"),
    ("skip-globals/source", "ac2d4ad5aa7e6400"),
    ("skip-globals/target", "b3b807457356192f"),
    ("skip-globals/normalized", "46fecb752a1a0d8e"),
    ("skip-globals/verify", "646748e8b4ff823a"),
    ("skip-text/source", "ac2d4ad5aa7e6400"),
    ("skip-text/target", "6b5f41907ee3136f"),
    ("skip-text/normalized", "46fecb752a1a0d8e"),
    ("skip-text/verify", "95ecf1c5e0b9a1f5"),
    ("edge/diagonal/source", "e2a6e28cce93f789"),
    ("edge/diagonal/target", "9456ff9fc162bd05"),
    ("edge/diagonal/normalized", "19872f27f44f81d4"),
    ("edge/diagonal/verify", "8a30fb60271e06ee"),
    ("edge/t-junction/source", "9514c49d1a8ec1fb"),
    ("edge/t-junction/target", "44a7b897ae3ca0cb"),
    ("edge/t-junction/normalized", "5d0a296ebe16404c"),
    ("edge/t-junction/verify", "931950118f1f4bee"),
    ("edge/pin-on-endpoint/source", "3b17a216bdb7a771"),
    ("edge/pin-on-endpoint/target", "05ada329034f9831"),
    ("edge/pin-on-endpoint/normalized", "90bc316ecca83f38"),
    ("edge/pin-on-endpoint/verify", "47cf811282a88b19"),
    ("edge/two-pages/source", "a4b3db354aa2cc02"),
    ("edge/two-pages/target", "0ef7d725eb9c85f8"),
    ("edge/two-pages/normalized", "f29273636f113385"),
    ("edge/two-pages/verify", "a155a473db48af40"),
    ("edge/bus-tap/source", "2721c27726e570e0"),
    ("edge/bus-tap/target", "3f6b95c23b352bcc"),
    ("edge/bus-tap/normalized", "fd7545ba85472ec7"),
    ("edge/bus-tap/verify", "4c703999634ea7a5"),
    ("edge/two-bundles/source", "2f0d7a64fbbf0b11"),
    ("edge/two-bundles/target", "2bb83c552b24dd7d"),
    ("edge/two-bundles/normalized", "1b80caf709ca36cc"),
    ("edge/two-bundles/verify", "1629440ebc09af47"),
    ("edge/unresolved/source", "5959082627d53872"),
    ("edge/unresolved/target", "542281f060c08fce"),
    ("edge/unresolved/normalized", "8cd489f8fe527b61"),
    ("edge/unresolved/verify", "c2835cfc1aca6062"),
    ("edge/postfix/source", "2ca5cf7ed734ecc9"),
    ("edge/postfix/target", "dc7e691ab0ae9ff0"),
    ("edge/postfix/normalized", "fd42149c79e8c2aa"),
    ("edge/postfix/verify", "876e219775c96069"),
];

#[test]
fn verifier_output_matches_the_golden_corpus() {
    let got = corpus();
    let expected: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n"))
            .collect();
        panic!("verifier output drifted from the golden corpus; computed:\n{table}");
    }
}

/// The corpus exercises what it claims to: failing reports with
/// diffs, extraction errors of every kind and conformance violations.
#[test]
fn golden_corpus_covers_failures_and_errors() {
    let src_rules = DialectRules::viewstar();
    let ablated = generate(&GenConfig {
        gates_per_page: 8,
        ..GenConfig::default()
    });
    let mut diffs = 0;
    let mut conformance = 0;
    for stage in StageId::ALL {
        let mut config = presets::exar_style_config(4, 0);
        config.skip_stages = vec![stage];
        let (_, report) = Migrator::new(config)
            .migrate_and_verify(&ablated, DialectId::Cascade)
            .expect("valid config");
        diffs += report.compare.diffs.len();
        conformance += report.conformance.len();
    }
    assert!(diffs > 0 && conformance > 0);

    let errors: Vec<String> = [edge_bus_tap(), edge_unresolved(), edge_postfix()]
        .iter()
        .flat_map(|d| extract_design(d, &src_rules).1)
        .map(|(_, e)| format!("{e:?}"))
        .collect();
    for kind in ["UnparsedLabel", "BusTapMismatch", "UnresolvedSymbol"] {
        assert!(
            errors.iter().any(|e| e.starts_with(kind)),
            "no {kind} in {errors:?}"
        );
    }
}
