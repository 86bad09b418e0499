//! Property-based tests for logic values and kernel invariants.

use proptest::prelude::*;
use sim::logic::{Logic, Std9, Value};

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop::sample::select(Logic::ALL.to_vec())
}

fn arb_value(max_width: usize) -> impl Strategy<Value = Value> {
    prop::collection::vec(arb_logic(), 1..=max_width).prop_map(|bits| {
        let s: String = bits.iter().rev().map(|b| b.to_char()).collect();
        Value::from_str_msb(&s).expect("valid chars")
    })
}

proptest! {
    #[test]
    fn numeric_round_trip(v in 0u64..=u64::MAX, width in 1usize..64) {
        let value = Value::from_u64(v, width);
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        prop_assert_eq!(value.as_u64(), Some(v & mask));
    }

    #[test]
    fn string_round_trip(value in arb_value(16)) {
        let s = value.to_string_msb();
        prop_assert_eq!(Value::from_str_msb(&s).expect("parses"), value);
    }

    #[test]
    fn bitwise_ops_match_u64_on_known_values(a in 0u64..1u64<<16, b in 0u64..1u64<<16) {
        let (va, vb) = (Value::from_u64(a, 16), Value::from_u64(b, 16));
        prop_assert_eq!(va.and(&vb).as_u64(), Some(a & b));
        prop_assert_eq!(va.or(&vb).as_u64(), Some(a | b));
        prop_assert_eq!(va.xor(&vb).as_u64(), Some(a ^ b));
        prop_assert_eq!(va.not().as_u64(), Some(!a & 0xffff));
    }

    #[test]
    fn gate_algebra_laws(a in arb_logic(), b in arb_logic()) {
        // Commutativity.
        prop_assert_eq!(a.and(b), b.and(a));
        prop_assert_eq!(a.or(b), b.or(a));
        prop_assert_eq!(a.xor(b), b.xor(a));
        // De Morgan holds in the 4-value algebra (z as x).
        prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
        // Double negation (modulo z-collapse).
        prop_assert_eq!(a.not().not(), a.not().not().not().not());
        // Domination.
        prop_assert_eq!(a.and(Logic::Zero), Logic::Zero);
        prop_assert_eq!(a.or(Logic::One), Logic::One);
    }

    #[test]
    fn logic_eq_is_reflexive_and_symmetric(a in arb_value(12), b in arb_value(12)) {
        // Reflexive up to unknowns: a value with x/z compares X to
        // itself, otherwise One.
        let self_eq = a.logic_eq(&a);
        if a.has_unknown() {
            prop_assert_eq!(self_eq, Logic::X);
        } else {
            prop_assert_eq!(self_eq, Logic::One);
        }
        prop_assert_eq!(a.logic_eq(&b), b.logic_eq(&a));
    }

    #[test]
    fn merge_is_idempotent_and_commutative(a in arb_value(12), b in arb_value(12)) {
        let w = a.width().max(b.width());
        prop_assert_eq!(a.merge(&a), a.resized(w.min(a.width())).resized(a.width()));
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        // Merging never invents a known bit that the operands disagree on.
        let m = a.merge(&b);
        for i in 0..m.width() {
            let (ba, bb) = (a.resized(m.width()).get(i), b.resized(m.width()).get(i));
            if ba != bb {
                prop_assert_eq!(m.get(i), Logic::X);
            }
        }
    }

    #[test]
    fn std9_full_translation_refines_naive(l in arb_logic(), weak in any::<bool>()) {
        // Encoding then decoding with the full table is the identity on
        // logic levels; the naive table agrees except on weak levels.
        let encoded = Std9::from_logic(l, weak);
        prop_assert_eq!(encoded.to_logic_full(), l);
        let naive = encoded.to_logic_naive();
        if weak && matches!(l, Logic::Zero | Logic::One) {
            prop_assert_eq!(naive, Logic::X);
        } else {
            prop_assert_eq!(naive, l);
        }
    }
}

/// Differential tests: every packed plane-arithmetic op must agree
/// with the retained per-bit reference path, across the width spectrum
/// the packed representation cares about — 1 (degenerate), 63/64 (word
/// boundary from below), 65 (first spill to the wide repr), 128 (exact
/// two words).
mod packed_vs_reference {
    use super::*;
    use sim::logic::reference;

    const WIDTHS: &[usize] = &[1, 63, 64, 65, 128];

    fn arb_value_spectrum() -> impl Strategy<Value = Value> {
        prop::sample::select(WIDTHS.to_vec()).prop_flat_map(|w| {
            prop::collection::vec(arb_logic(), w..=w).prop_map(|bits| Value::from_bits(&bits))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn binary_ops_match_per_bit_reference(
            a in arb_value_spectrum(),
            b in arb_value_spectrum(),
        ) {
            let packed = (
                a.and(&b), a.or(&b), a.xor(&b), a.merge(&b), a.logic_eq(&b),
            );
            let reference = {
                let _guard = reference::force();
                (a.and(&b), a.or(&b), a.xor(&b), a.merge(&b), a.logic_eq(&b))
            };
            prop_assert_eq!(&packed.0, &reference.0, "and: {} {}", a, b);
            prop_assert_eq!(&packed.1, &reference.1, "or: {} {}", a, b);
            prop_assert_eq!(&packed.2, &reference.2, "xor: {} {}", a, b);
            prop_assert_eq!(&packed.3, &reference.3, "merge: {} {}", a, b);
            prop_assert_eq!(packed.4, reference.4, "logic_eq: {} {}", a, b);
        }

        #[test]
        fn unary_ops_match_per_bit_reference(a in arb_value_spectrum()) {
            let packed = (a.not(), a.reduce_and(), a.reduce_or());
            let reference = {
                let _guard = reference::force();
                (a.not(), a.reduce_and(), a.reduce_or())
            };
            prop_assert_eq!(&packed.0, &reference.0, "not: {}", a);
            prop_assert_eq!(packed.1, reference.1, "reduce_and: {}", a);
            prop_assert_eq!(packed.2, reference.2, "reduce_or: {}", a);
        }

        #[test]
        fn packed_bit_access_round_trips(a in arb_value_spectrum()) {
            // from_bits(to_bits) is the identity, and string rendering
            // (the old representation's native form) agrees bit by bit.
            let bits = a.to_bits();
            prop_assert_eq!(&Value::from_bits(&bits), &a);
            prop_assert_eq!(
                Value::from_str_msb(&a.to_string_msb()).expect("parses"),
                a.clone()
            );
            // Resize through the width spectrum and back never corrupts
            // surviving bits.
            for &w in WIDTHS {
                let r = a.resized(w);
                for i in 0..w.min(a.width()) {
                    prop_assert_eq!(r.get(i), a.get(i), "width {} bit {}", w, i);
                }
            }
        }

        #[test]
        fn concat_matches_per_bit_construction(
            parts in prop::collection::vec(arb_value_spectrum(), 1..4)
        ) {
            let refs: Vec<&Value> = parts.iter().collect();
            let packed = Value::concat_msb(&refs);
            // Reference: gather LSB-first bits of the last operand
            // first, as Verilog {a, b} places b in the low bits.
            let mut bits: Vec<Logic> = Vec::new();
            for p in parts.iter().rev() {
                bits.extend(p.to_bits());
            }
            prop_assert_eq!(packed, Value::from_bits(&bits));
        }
    }
}

mod kernel_props {
    use super::*;
    use sim::elab::compile_unit;
    use sim::kernel::{Kernel, SchedulerPolicy};

    /// A combinational mux is policy-independent (no races by
    /// construction): property over random stimulus sequences.
    fn mux_kernel(policy: SchedulerPolicy) -> Kernel {
        let unit = hdl::parse(
            "module m(input s, input a, input b, output y, output n);
               assign y = s ? a : b;
               assign n = ~y;
             endmodule",
        )
        .expect("parses");
        Kernel::new(compile_unit(&unit, "m").expect("elab"), policy)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn combinational_logic_is_policy_independent(
            stimulus in prop::collection::vec((0usize..3, any::<bool>()), 1..24)
        ) {
            let run = |policy: SchedulerPolicy| -> (String, String) {
                let mut k = mux_kernel(policy);
                let mut t = 0u64;
                for (sig, level) in &stimulus {
                    t += 1;
                    let name = ["s", "a", "b"][*sig];
                    let v = Value::bit(if *level { Logic::One } else { Logic::Zero });
                    k.poke_name(name, v).expect("poke");
                    k.run_until(t).expect("run");
                }
                (
                    k.peek_name("y").expect("y").to_string_msb(),
                    k.peek_name("n").expect("n").to_string_msb(),
                )
            };
            let results: Vec<_> = SchedulerPolicy::all().into_iter().map(run).collect();
            for w in results.windows(2) {
                prop_assert_eq!(&w[0], &w[1]);
            }
            // And the inverter output is consistent with y.
            let (y, n) = &results[0];
            if y == "1" { prop_assert_eq!(n.as_str(), "0"); }
            if y == "0" { prop_assert_eq!(n.as_str(), "1"); }
        }
    }
}

/// The tentpole's correctness pin: on randomized circuits, the packed
/// kernel's waveform must be byte-identical (as VCD text) to the same
/// run routed through the per-bit reference path — under every policy.
mod waveform_identity {
    use super::*;
    use sim::elab::compile_unit;
    use sim::kernel::{Kernel, SchedulerPolicy};
    use sim::logic::reference;
    use sim::race::clocked_testbench;

    /// Renders a random combinational network as Verilog: `gates[i]`
    /// defines wire `wi` as a unary/binary op over earlier signals,
    /// then a 70-bit concat bus and 140/280-bit buses built from it run
    /// wide ops through the spilled representation at one, three and
    /// five words, reductions and bit-select continuous drivers bring
    /// them back to scalars, a blocking-assign `always` block writes
    /// through a moving bit-select lvalue, and a clocked register
    /// closes the loop.
    fn random_src(gates: &[(u8, u8, u8)]) -> String {
        let mut pool = vec!["d".to_string()];
        let mut body = String::new();
        let mut decls = String::new();
        for (i, (op, a, b)) in gates.iter().enumerate() {
            let name = format!("w{i}");
            let lhs = &pool[*a as usize % pool.len()];
            let rhs = &pool[*b as usize % pool.len()];
            decls.push_str(&format!("  wire {name};\n"));
            body.push_str(&match op % 4 {
                0 => format!("  assign {name} = {lhs} & {rhs};\n"),
                1 => format!("  assign {name} = {lhs} | {rhs};\n"),
                2 => format!("  assign {name} = {lhs} ^ {rhs};\n"),
                _ => format!("  assign {name} = ~{lhs};\n"),
            });
            pool.push(name);
        }
        // A 70-term concat pushes past one word so wide-plane ops run.
        let terms: Vec<String> = (0..70).map(|i| pool[i % pool.len()].clone()).collect();
        decls.push_str("  wire [69:0] bus;\n  wire [69:0] busn;\n  wire [69:0] busm;\n");
        body.push_str(&format!("  assign bus = {{{}}};\n", terms.join(", ")));
        body.push_str("  assign busn = ~bus;\n");
        body.push_str("  assign busm = bus ^ busn;\n");
        // 140- and 280-bit ops: three and five words per plane.
        decls.push_str(
            "  wire [139:0] wide;\n  wire [139:0] widen;\n  wire [139:0] widem;\n\
             \x20 wire [279:0] huge;\n  wire [279:0] hugen;\n  wire [279:0] hugem;\n\
             \x20 wire [3:0] flags;\n",
        );
        body.push_str(
            "  assign wide = {busm, bus};\n\
             \x20 assign widen = ~wide;\n\
             \x20 assign widem = (wide & widen) | (wide ^ {busn, busm});\n\
             \x20 assign huge = {widem, widen};\n\
             \x20 assign hugen = ~huge;\n\
             \x20 assign hugem = (huge | {wide, busn, bus}) ^ hugen;\n\
             \x20 assign flags[0] = &hugem;\n\
             \x20 assign flags[1] = |widem;\n\
             \x20 assign flags[3] = hugen[7] ? flags[0] : flags[1];\n",
        );
        let last = pool.last().unwrap();
        format!(
            "module r(input clk, input d, output reg q, output reg [7:0] bits);\n\
             {decls}  reg [2:0] k;\n{body}\
             \x20 initial begin\n\
             \x20   q = 0;\n\
             \x20   bits = 0;\n\
             \x20   k = 0;\n\
             \x20 end\n\
             \x20 always @(posedge clk) q <= {last};\n\
             \x20 always @(posedge clk) begin\n\
             \x20   bits[k] = {last} ^ flags[0];\n\
             \x20   k = k + 1;\n\
             \x20   bits[0] = flags[1] & bits[7];\n\
             \x20 end\n\
             endmodule\n"
        )
    }

    fn run_vcd(src: &str, policy: SchedulerPolicy) -> String {
        let unit = hdl::parse(src).expect("random source parses");
        let mut k = Kernel::new(compile_unit(&unit, "r").expect("elab"), policy);
        clocked_testbench(&mut k, 3).expect("run");
        sim::vcd::from_kernel(&k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn packed_waveforms_are_byte_identical_to_reference(
            gates in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..8)
        ) {
            let src = random_src(&gates);
            for policy in SchedulerPolicy::all() {
                let packed = run_vcd(&src, policy);
                let referenced = {
                    let _guard = reference::force();
                    run_vcd(&src, policy)
                };
                prop_assert_eq!(&packed, &referenced, "policy {}", policy.name);
            }
        }
    }
}

/// Sweep determinism: the parallel grid must equal the sequential one
/// for any stimulus set and thread count.
mod sweep_props {
    use super::*;
    use sim::elab::compile_unit;
    use sim::race::{models, sweep, sweep_parallel, Stim};
    use sim::SchedulerPolicy;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn parallel_sweep_is_deterministic(
            cycle_counts in prop::collection::vec(1u64..6, 1..6),
            threads in 1usize..9,
        ) {
            let unit = hdl::parse(models::ORDER_RACE).expect("parses");
            let circuit = Arc::new(compile_unit(&unit, "order").expect("elab"));
            let stims: Vec<Stim> = cycle_counts
                .iter()
                .enumerate()
                .map(|(i, &c)| Stim::clocked(format!("s{i}x{c}"), c))
                .collect();
            let policies = SchedulerPolicy::all();
            let sequential = sweep(&circuit, &policies, &stims).expect("sweep");
            let parallel =
                sweep_parallel(&circuit, &policies, &stims, threads).expect("sweep");
            prop_assert_eq!(parallel, sequential);
        }
    }
}
