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

/// Differential test of the compiled expression executor: random
/// expression trees over the width spectrum, compiled from Verilog
/// source and run by the kernel, must equal the same trees evaluated
/// with the per-bit reference operators — in packed and in reference
/// mode.
mod compiled_vs_reference {
    use super::*;
    use sim::elab::compile_unit;
    use sim::kernel::{Kernel, SchedulerPolicy};
    use sim::logic::reference;

    /// One input signal `i{k}` per width.
    const WIDTHS: [usize; 7] = [1, 7, 63, 64, 65, 140, 280];

    /// A small deterministic generator driven by one proptest seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A value of `width` bits: fully known four times in five —
        /// random, all ones (carries run through every word) or one-hot
        /// — so arithmetic sees known operands; otherwise salted with x
        /// and z.
        fn value(&mut self, width: usize) -> Value {
            let mode = self.below(5);
            let hot = self.below(width);
            let bits: Vec<Logic> = (0..width)
                .map(|i| match mode {
                    0 => [Logic::Zero, Logic::One, Logic::X, Logic::Z][self.below(4)],
                    1 => Logic::One,
                    2 if i == hot => Logic::One,
                    2 => Logic::Zero,
                    _ => [Logic::Zero, Logic::One][self.below(2)],
                })
                .collect();
            Value::from_bits(&bits)
        }

        /// A small constant, for shift amounts and bit indices: usually
        /// in range, sometimes beyond every width, sometimes x.
        fn small(&mut self) -> Value {
            match self.below(8) {
                0 => Value::from_str_msb("1x0").expect("valid"),
                1 => Value::from_u64(300 + self.next() % 200, 10),
                _ => Value::from_u64(self.next() % 70, 8),
            }
        }
    }

    #[derive(Debug)]
    enum Tree {
        Input(usize),
        Const(Value),
        Unary(&'static str, Box<Tree>),
        Binary(&'static str, Box<Tree>, Box<Tree>),
        Ternary(Box<Tree>, Box<Tree>, Box<Tree>),
        Concat(Vec<Tree>),
        Bit(usize, Box<Tree>),
    }

    const UNARY: [&str; 5] = ["~", "!", "-", "&", "|"];
    const BINARY: [&str; 18] = [
        "&", "|", "^", "&&", "||", "==", "!=", "<", ">", "<=", ">=", "+", "-", "<<", ">>", "*",
        "/", "%",
    ];

    fn tree(g: &mut Gen, depth: usize) -> Tree {
        if depth == 0 || g.below(5) == 0 {
            return match g.below(4) {
                0 | 1 => Tree::Input(g.below(WIDTHS.len())),
                2 => {
                    let w = WIDTHS[g.below(WIDTHS.len())];
                    Tree::Const(g.value(w))
                }
                _ => Tree::Const(g.small()),
            };
        }
        let sub = |g: &mut Gen| Box::new(tree(g, depth - 1));
        match g.below(7) {
            0 => Tree::Unary(UNARY[g.below(UNARY.len())], sub(g)),
            1..=3 => {
                let op = BINARY[g.below(BINARY.len())];
                let a = sub(g);
                // Shift amounts are mostly small constants.
                let b = if op.starts_with(['<', '>']) && op.len() == 2 && g.below(2) == 0 {
                    Box::new(Tree::Const(g.small()))
                } else {
                    sub(g)
                };
                Tree::Binary(op, a, b)
            }
            4 => Tree::Ternary(sub(g), sub(g), sub(g)),
            5 => Tree::Concat((0..2 + g.below(2)).map(|_| tree(g, depth - 1)).collect()),
            _ => {
                let index = if g.below(3) == 0 {
                    sub(g)
                } else {
                    Box::new(Tree::Const(g.small()))
                };
                Tree::Bit(g.below(WIDTHS.len()), index)
            }
        }
    }

    /// Fully parenthesized Verilog.
    fn render(t: &Tree) -> String {
        match t {
            Tree::Input(k) => format!("i{k}"),
            Tree::Const(v) => format!("{}'b{}", v.width(), v.to_string_msb()),
            Tree::Unary(op, a) => format!("{op}({})", render(a)),
            Tree::Binary(op, a, b) => format!("({}) {op} ({})", render(a), render(b)),
            Tree::Ternary(c, a, b) => {
                format!("({}) ? ({}) : ({})", render(c), render(a), render(b))
            }
            Tree::Concat(parts) => {
                let parts: Vec<String> = parts.iter().map(render).collect();
                format!("{{{}}}", parts.join(", "))
            }
            Tree::Bit(k, i) => format!("i{k}[{}]", render(i)),
        }
    }

    fn bit(b: Option<bool>) -> Value {
        Value::bit(match b {
            Some(true) => Logic::One,
            Some(false) => Logic::Zero,
            None => Logic::X,
        })
    }

    /// Verilog's expression semantics restated over the public
    /// [`Value`] operators, which run per-bit under the reference guard.
    fn oracle(t: &Tree, inputs: &[Value]) -> Value {
        let eval = |t: &Tree| oracle(t, inputs);
        match t {
            Tree::Input(k) => inputs[*k].clone(),
            Tree::Const(v) => v.clone(),
            Tree::Unary(op, a) => {
                let a = eval(a);
                match *op {
                    "~" => a.not(),
                    "!" => bit(a.truthy().map(|b| !b)),
                    "-" => a.neg(),
                    "&" => Value::bit(a.reduce_and()),
                    _ => Value::bit(a.reduce_or()),
                }
            }
            Tree::Binary(op, a, b) => {
                let (a, b) = (eval(a), eval(b));
                let w = a.width().max(b.width());
                let order = |f: fn(std::cmp::Ordering) -> bool| bit(a.cmp_known(&b).map(f));
                match *op {
                    "&" => a.and(&b),
                    "|" => a.or(&b),
                    "^" => a.xor(&b),
                    "&&" => match (a.truthy(), b.truthy()) {
                        (Some(false), _) | (_, Some(false)) => bit(Some(false)),
                        (Some(true), Some(true)) => bit(Some(true)),
                        _ => bit(None),
                    },
                    "||" => match (a.truthy(), b.truthy()) {
                        (Some(true), _) | (_, Some(true)) => bit(Some(true)),
                        (Some(false), Some(false)) => bit(Some(false)),
                        _ => bit(None),
                    },
                    "==" => Value::bit(a.logic_eq(&b)),
                    "!=" => Value::bit(a.logic_eq(&b).not()),
                    "<" => order(|o| o.is_lt()),
                    ">" => order(|o| o.is_gt()),
                    "<=" => order(|o| o.is_le()),
                    ">=" => order(|o| o.is_ge()),
                    "+" => a.add(&b),
                    "-" => a.sub(&b),
                    "<<" => a.shl(&b),
                    ">>" => a.shr(&b),
                    _ => {
                        let r = match (a.as_u64(), b.as_u64()) {
                            (Some(x), Some(y)) => match *op {
                                "*" => Some(x.wrapping_mul(y)),
                                "/" => x.checked_div(y),
                                _ => x.checked_rem(y),
                            },
                            _ => None,
                        };
                        r.map_or_else(|| Value::unknown(w), |v| Value::from_u64(v, w))
                    }
                }
            }
            Tree::Ternary(c, a, b) => {
                let (a, b) = (eval(a), eval(b));
                let w = a.width().max(b.width());
                match eval(c).truthy() {
                    Some(true) => a.resized(w),
                    Some(false) => b.resized(w),
                    None => a.merge(&b),
                }
            }
            Tree::Concat(parts) => {
                let parts: Vec<Value> = parts.iter().map(eval).collect();
                Value::concat_msb(&parts)
            }
            Tree::Bit(k, i) => match eval(i).as_u64() {
                Some(i) => Value::bit(inputs[*k].get(usize::try_from(i).unwrap_or(usize::MAX))),
                None => bit(None),
            },
        }
    }

    /// Compiles `assign o = expr;` and reads `o` after one settle.
    fn simulate(expr: &str, width: usize, inputs: &[Value]) -> Value {
        let ports: Vec<String> = WIDTHS
            .iter()
            .enumerate()
            .map(|(k, w)| format!("input [{}:0] i{k}", w - 1))
            .collect();
        let src = format!(
            "module t({}, output [{}:0] o);\n  assign o = {expr};\nendmodule",
            ports.join(", "),
            width - 1
        );
        let unit = hdl::parse(&src).expect("generated source parses");
        let mut k = Kernel::new(
            compile_unit(&unit, "t").expect("elab"),
            SchedulerPolicy::sim_a(),
        );
        for (i, v) in inputs.iter().enumerate() {
            k.poke_name(&format!("i{i}"), v.clone()).expect("input");
        }
        k.run_until(0).expect("settles");
        k.peek_name("o").expect("o").clone()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn compiled_expressions_match_the_per_bit_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let t = tree(&mut g, 3);
            let inputs: Vec<Value> = WIDTHS.iter().map(|&w| g.value(w)).collect();
            let want = {
                let _guard = reference::force();
                oracle(&t, &inputs)
            };
            let expr = render(&t);
            let packed = simulate(&expr, want.width(), &inputs);
            prop_assert_eq!(&packed, &want, "packed: {}", expr);
            let per_bit = {
                let _guard = reference::force();
                simulate(&expr, want.width(), &inputs)
            };
            prop_assert_eq!(&per_bit, &want, "reference mode: {}", expr);
        }
    }
    /// Word-boundary operands the random trees rarely produce together:
    /// all ones (a carry or borrow through every word), one-hot at
    /// either end, zero, and salted with unknowns — for every width
    /// pair and every word-wise operator.
    #[test]
    fn word_edge_operands_match_the_per_bit_reference() {
        let patterns = |w: usize| {
            let with_top = |v: &Value, b: Logic| {
                let mut v = v.clone();
                v.set_bit(w - 1, b);
                v
            };
            let zero = Value::from_u64(0, w);
            [
                Value::from_bits(&vec![Logic::One; w]),
                Value::from_u64(1, w),
                with_top(&zero, Logic::One),
                zero,
                Value::from_u64(3, w),
                with_top(&Value::from_u64(5, w), Logic::Z),
            ]
        };
        for op in ["+", "-", "<<", ">>", "<", ">=", "==", "*", "%", "&", "^"] {
            for &wa in &WIDTHS {
                for &wb in &WIDTHS {
                    let src = format!(
                        "module t(input [{}:0] a, input [{}:0] b, output [{}:0] o);\n\
                         \x20 assign o = a {op} b;\nendmodule",
                        wa - 1,
                        wb - 1,
                        wa.max(wb) - 1
                    );
                    let unit = hdl::parse(&src).expect("parses");
                    let circuit = compile_unit(&unit, "t").expect("elab");
                    let mut k = Kernel::new(circuit, SchedulerPolicy::sim_a());
                    let mut t = 0;
                    for a in patterns(wa) {
                        for b in patterns(wb) {
                            let tree = Tree::Binary(
                                op,
                                Box::new(Tree::Const(a.clone())),
                                Box::new(Tree::Const(b.clone())),
                            );
                            let want = {
                                let _guard = reference::force();
                                oracle(&tree, &[])
                            };
                            k.poke_name("a", a.clone()).expect("a");
                            k.poke_name("b", b.clone()).expect("b");
                            t += 1;
                            k.run_until(t).expect("settles");
                            let got = k.peek_name("o").expect("o").resized(want.width());
                            assert_eq!(got, want, "{a} {op} {b}");
                        }
                    }
                }
            }
        }
    }
}

/// `race::compare` over borrowed kernels and the consuming sweep share
/// one history walk: on every model and stimulus length the golden
/// tests pin, their reports must be equal.
mod compare_matches_sweep {
    use sim::elab::compile_unit;
    use sim::race::{compare, models, sweep, Stim};
    use sim::{Kernel, SchedulerPolicy};
    use std::sync::Arc;

    #[test]
    fn borrowed_compare_equals_the_consuming_sweep() {
        let golden = [
            (models::PAPER_RACE, "race"),
            (models::ORDER_RACE, "order"),
            (models::RACE_FREE, "clean"),
            (models::BUSY, "busy"),
            (models::BITS, "bits"),
        ];
        let policies = SchedulerPolicy::all();
        for (src, top) in golden {
            let unit = hdl::parse(src).expect("parses");
            let circuit = Arc::new(compile_unit(&unit, top).expect("elab"));
            for cycles in [1, 3, 8] {
                let stim = Stim::clocked(format!("c{cycles}"), cycles);
                let kernels: Vec<Kernel> = policies
                    .iter()
                    .map(|&p| {
                        let mut k = Kernel::new_shared(Arc::clone(&circuit), p);
                        stim.apply(&mut k).expect("runs");
                        k
                    })
                    .collect();
                let swept =
                    sweep(&circuit, &policies, std::slice::from_ref(&stim)).expect("sweeps");
                assert_eq!(compare(&kernels), swept[0].report, "{top} × {cycles}");
            }
        }
    }
}

/// The waveform's word arena and the flat per-signal histories read
/// back exactly what was recorded, at every width class the planes have
/// (one word, a full word, a word and a bit, two words, five words).
mod arena {
    use proptest::prelude::*;
    use sim::{History, Logic, Value, Waveform};

    const WIDTHS: [usize; 6] = [1, 63, 64, 65, 128, 280];

    /// A value of `width` bits drawn from `seed`, with x and z bits.
    fn value(width: usize, seed: u64) -> Value {
        let bits: Vec<Logic> = (0..width as u64)
            .map(|i| {
                let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                Logic::ALL[(z >> 60) as usize % 4]
            })
            .collect();
        Value::from_bits(&bits)
    }

    /// `(time, value)` pairs with consecutive equal values collapsed,
    /// the first time kept: the reference for [`History`].
    fn collapse(entries: &[(u64, Value)]) -> Vec<(u64, Value)> {
        let mut out: Vec<(u64, Value)> = Vec::new();
        for (t, v) in entries {
            if out.last().map(|(_, last)| last) != Some(v) {
                out.push((*t, v.clone()));
            }
        }
        out
    }

    /// Signal 0's history of a log holding `entries`.
    fn history(entries: &[(u64, Value)]) -> History {
        let mut w = Waveform::default();
        for (t, v) in entries {
            w.push(*t, 0, v);
        }
        w.history(0)
    }

    fn entries(width: usize, picks: &[(u64, u64)]) -> Vec<(u64, Value)> {
        picks.iter().map(|&(t, s)| (t, value(width, s))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn push_and_changes_round_trip(
            picks in prop::collection::vec((0usize..6, any::<u64>(), 0usize..4), 0..48)
        ) {
            let want: Vec<(u64, usize, Value)> = picks
                .iter()
                .enumerate()
                .map(|(t, &(w, seed, sig))| (t as u64 / 3, sig, value(WIDTHS[w], seed)))
                .collect();
            let mut wave = Waveform::default();
            for (t, sig, v) in &want {
                wave.push(*t, *sig, v);
            }
            prop_assert_eq!(wave.len(), want.len());
            prop_assert_eq!(wave.changes().len(), want.len());
            for ((t, sig, got), (wt, wsig, wv)) in wave.changes().zip(&want) {
                prop_assert_eq!((t, sig), (*wt, *wsig));
                prop_assert_eq!(got.width(), wv.width());
                prop_assert!(got == *wv);
                prop_assert_eq!(&got.to_value(), wv);
                prop_assert_eq!(got.to_string_msb(), wv.to_string_msb());
                prop_assert!((0..wv.width()).all(|i| got.get(i) == wv.get(i)));
            }
        }

        #[test]
        fn history_equality_is_elementwise_value_equality(
            wa in 0usize..6,
            wb in 0usize..6,
            a in prop::collection::vec((0u64..3, 0u64..3), 0..6),
            b in prop::collection::vec((0u64..3, 0u64..3), 0..6),
        ) {
            for (wb, b) in [(wb, &b), (wa, &b), (wa, &a)] {
                let (ea, eb) = (entries(WIDTHS[wa], &a), entries(WIDTHS[wb], b));
                let (ha, hb) = (history(&ea), history(&eb));
                prop_assert_eq!(ha == hb, collapse(&ea) == collapse(&eb));
            }
        }

        #[test]
        fn consecutive_duplicates_collapse(
            w in 0usize..6,
            picks in prop::collection::vec((0u64..4, 0u64..3), 0..24),
            other in prop::collection::vec((0u64..4, 0u64..3), 0..24),
        ) {
            // Two signals interleaved in one log: each collapses alone.
            let (mine, theirs) = (entries(WIDTHS[w], &picks), entries(WIDTHS[5 - w], &other));
            let mut wave = Waveform::default();
            let (mut i, mut j) = (0, 0);
            while i < mine.len() || j < theirs.len() {
                if i < mine.len() && (j >= theirs.len() || (i + j) % 3 != 0) {
                    wave.push(mine[i].0, 0, &mine[i].1);
                    i += 1;
                } else {
                    wave.push(theirs[j].0, 1, &theirs[j].1);
                    j += 1;
                }
            }
            let indexed = wave.indexed(2);
            for (sig, want) in [(0, collapse(&mine)), (1, collapse(&theirs))] {
                let got: Vec<(u64, Value)> =
                    wave.history(sig).iter().map(|(t, v)| (t, v.to_value())).collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(indexed.history(sig), wave.history(sig));
                prop_assert_eq!(wave.history(sig).len(), want.len());
            }
        }
    }
}
