//! Property-based tests for the schematic substrate's core invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;
use schematic::bus::{BusSyntax, NetExpr, NetName};
use schematic::connectivity::extract_design;
use schematic::dialect::{check_conformance, DialectId, DialectRules};
use schematic::gen::{generate, GenConfig};
use schematic::geom::{Orient, Point, Transform};

fn arb_point() -> impl Strategy<Value = Point> {
    (-2000i64..2000, -2000i64..2000).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_orient() -> impl Strategy<Value = Orient> {
    prop::sample::select(Orient::ALL.to_vec())
}

proptest! {
    #[test]
    fn orientations_form_a_group(a in arb_orient(), b in arb_orient(), c in arb_orient(), p in arb_point()) {
        // Closure + associativity observed through action on points.
        let left = c.apply(b.apply(a.apply(p)));
        let composed = a.compose(b).compose(c);
        prop_assert_eq!(composed.apply(p), left);
        // Inverse really inverts.
        prop_assert_eq!(a.inverse().apply(a.apply(p)), p);
        // Orientation preserves Manhattan distance from the origin.
        prop_assert_eq!(
            a.apply(p).manhattan(Point::new(0, 0)),
            p.manhattan(Point::new(0, 0))
        );
    }

    #[test]
    fn transforms_round_trip(origin in arb_point(), o in arb_orient(), p in arb_point()) {
        let t = Transform::new(origin, o);
        prop_assert_eq!(t.inverse().apply(t.apply(p)), p);
        // Composition law: (t2 . t1)(p) == t2(t1(p)).
        let t2 = Transform::new(Point::new(-origin.y, origin.x), o.inverse());
        prop_assert_eq!(t.then(t2).apply(p), t2.apply(t.apply(p)));
    }

    #[test]
    fn snapping_is_idempotent_and_on_grid(p in arb_point(), pitch in 1i64..64) {
        let s = p.snapped(pitch);
        prop_assert!(s.on_grid(pitch));
        prop_assert_eq!(s.snapped(pitch), s);
        // Snap moves each coordinate by at most pitch/2 (round-half-up).
        prop_assert!((s.x - p.x).abs() * 2 <= pitch);
        prop_assert!((s.y - p.y).abs() * 2 <= pitch);
    }

    #[test]
    fn viewstar_to_cascade_scaling_is_exact_on_grid(gx in -200i64..200, gy in -200i64..200) {
        // Any point on the Viewstar grid lands exactly on the Cascade
        // grid under the 5/8 factor, and scales back exactly.
        let v = DialectRules::viewstar();
        let c = DialectRules::cascade();
        let p = Point::new(gx * v.grid, gy * v.grid);
        let (num, den) = v.scale_to(&c);
        let q = p.scaled(num, den);
        prop_assert!(q.on_grid(c.grid));
        let (num2, den2) = c.scale_to(&v);
        prop_assert_eq!(q.scaled(num2, den2), p);
    }
}

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,10}"
}

fn arb_netname() -> impl Strategy<Value = NetName> {
    (
        arb_ident(),
        prop::option::of(-64i64..64),
        prop::option::of(0usize..4),
    )
        .prop_map(|(base, idx, postfix)| {
            let expr = match idx {
                Some(i) => NetExpr::Bit(base, i),
                None => NetExpr::Scalar(base),
            };
            let mut n = NetName {
                expr,
                postfix: None,
            };
            if let Some(k) = postfix {
                n = n.with_postfix(schematic::bus::VIEWSTAR_POSTFIXES[k]);
            }
            n
        })
}

proptest! {
    #[test]
    fn viewstar_format_parse_round_trips(name in arb_netname()) {
        let text = BusSyntax::Viewstar.format(&name);
        // Parse with the name's own base in scope so condensed forms
        // resolve the same way.
        let scope: BTreeSet<interop_core::IStr> = [name.expr.base().into()].into();
        let back = BusSyntax::Viewstar.parse(&text, &scope).expect("round trip parses");
        // Condensation may canonicalize `A0` -> Bit, so compare formats.
        prop_assert_eq!(BusSyntax::Viewstar.format(&back), text);
    }

    #[test]
    fn range_expansion_counts(base in arb_ident(), a in -32i64..32, b in -32i64..32) {
        let r = NetExpr::Range(base, a, b);
        let bits = r.bits();
        prop_assert_eq!(bits.len(), r.bit_count());
        prop_assert_eq!(bits.len() as i64, (a - b).abs() + 1);
        // Endpoints come out in declaration order.
        prop_assert!(matches!(&bits[0], NetExpr::Bit(_, i) if *i == a));
        prop_assert!(matches!(bits.last().expect("nonempty"), NetExpr::Bit(_, i) if *i == b));
    }
}

fn arb_gen_config() -> impl Strategy<Value = GenConfig> {
    (
        1u64..5000,
        2usize..16,
        1u32..4,
        0usize..3,
        prop::sample::select(vec![0usize, 2, 4]),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(seed, gates, pages, depth, bus, xp, postfix, analog, globals)| GenConfig {
                seed,
                gates_per_page: gates,
                pages,
                depth,
                bus_width: bus,
                cross_page_nets: xp,
                postfix_nets: postfix,
                analog_props: analog,
                globals,
                dialect: DialectId::Viewstar,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_designs_are_conformant_and_round_trip(cfg in arb_gen_config()) {
        let design = generate(&cfg);
        // Conformant under its own dialect.
        let violations = check_conformance(&design, &DialectRules::viewstar());
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Extraction is clean.
        let (_, errors) = extract_design(&design, &DialectRules::viewstar());
        prop_assert!(errors.is_empty(), "{errors:?}");
        // The Viewstar format is lossless.
        let text = schematic::viewstar::write(&design);
        let back = schematic::viewstar::parse(&text).expect("parses");
        prop_assert_eq!(back, design);
    }

    #[test]
    fn cascade_designs_round_trip_their_format(seed in 1u64..2000) {
        let design = generate(&GenConfig {
            seed,
            dialect: DialectId::Cascade,
            postfix_nets: false,
            gates_per_page: 8,
            ..GenConfig::default()
        });
        let text = schematic::cascade::write(&design);
        let back = schematic::cascade::parse(&text).expect("parses");
        prop_assert_eq!(back, design);
    }

    /// Reversing the drawing order of wires and instances changes
    /// nothing extraction reports: the netlist and the error list are
    /// equal, not just structurally equivalent, on flat and
    /// hierarchical designs of 2 to 8 pages.
    #[test]
    fn extraction_is_stable_under_wire_reordering(
        seed in 1u64..2000,
        pages in prop::sample::select(vec![2u32, 4, 8]),
        depth in 0usize..3
    ) {
        let design = generate(&GenConfig {
            seed,
            gates_per_page: 8,
            pages,
            depth,
            ..GenConfig::default()
        });
        let mut shuffled = design.clone();
        for cell in shuffled.cells_mut() {
            for sheet in &mut cell.sheets {
                sheet.wires.reverse();
                sheet.instances.reverse();
            }
        }
        let rules = DialectRules::viewstar();
        let (a, ea) = extract_design(&design, &rules);
        let (b, eb) = extract_design(&shuffled, &rules);
        prop_assert!(ea.is_empty(), "{ea:?}");
        prop_assert_eq!(ea, eb);
        prop_assert_eq!(a, b);
    }
}

mod fuzz_safety {
    use super::*;
    use schematic::{cascade, neutral, viewstar};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// All three on-disk parsers return errors instead of
        /// panicking on arbitrary input.
        #[test]
        fn format_parsers_are_panic_free(src in ".{0,300}") {
            let _ = viewstar::parse(&src);
            let _ = cascade::parse(&src);
            let _ = neutral::import(&src, DialectId::Cascade);
        }

        /// Keyword soup through the line-based formats.
        #[test]
        fn format_parsers_survive_record_soup(
            toks in prop::collection::vec(
                prop::sample::select(vec![
                    "VIEWSTAR", "DESIGN", "CELL", "PAGE", "W", "I", "C", "T",
                    "ENDPAGE", "ENDCELL", "LIBRARY", "SYMBOL", "PIN", "GRID",
                    "0", "16", "-5", "R0", "input", "\"q\"", "NEUTRAL", "WIRE",
                    "NET", "POSTFIX",
                ]),
                0..40,
            ),
            newlines in prop::collection::vec(any::<bool>(), 0..40)
        ) {
            let mut src = String::new();
            for (t, nl) in toks.iter().zip(newlines.iter().chain(std::iter::repeat(&false))) {
                src.push_str(t);
                src.push(if *nl { '\n' } else { ' ' });
            }
            let _ = viewstar::parse(&src);
            let _ = neutral::import(&src, DialectId::Viewstar);
        }
    }
}
