//! Expression evaluation and the in-place store, over circuit state.
//!
//! [`eval`] borrows where it can: a signal or constant operand is read
//! in place (`Cow::Borrowed`), so an operator allocates only its own
//! result, and a bare signal or constant on the right of an assignment
//! costs nothing until it is stored. [`store`] compares the new value
//! against the stored one without cloning and moves it into place.
//!
//! Arithmetic (`+`, `-`, unary `-`, shifts, `<`, `>`, `<=`, `>=`) is
//! computed word-wise at any width for fully known operands, truncated
//! to the wider operand's width as Verilog does. `*`, `/` and `%` stay
//! 64-bit: above 64 bits they give all-x.

use std::borrow::Cow;

use hdl::ast::{BinOp, UnOp};

use crate::elab::{SExpr, SigId, SignalDef};
use crate::logic::{Logic, Value};

/// Evaluates an expression against the current state. Signal and
/// constant leaves come back borrowed; everything else is a fresh value.
pub fn eval<'a>(e: &'a SExpr, state: &'a [Value], defs: &[SignalDef]) -> Cow<'a, Value> {
    let owned = match e {
        SExpr::Sig(s) => return Cow::Borrowed(&state[*s]),
        SExpr::Const(v) => return Cow::Borrowed(v),
        SExpr::Bit(s, idx) => match eval(idx, state, defs).as_u64() {
            Some(i) => {
                let rel = i as i64 - defs[*s].lsb;
                if rel < 0 {
                    Value::bit(Logic::X)
                } else {
                    Value::bit(state[*s].get(rel as usize))
                }
            }
            None => Value::bit(Logic::X),
        },
        SExpr::Unary(op, x) => {
            let v = eval(x, state, defs);
            match op {
                UnOp::Not => v.not(),
                UnOp::LNot => match v.truthy() {
                    Some(b) => Value::bit(if b { Logic::Zero } else { Logic::One }),
                    None => Value::bit(Logic::X),
                },
                UnOp::Neg => v.neg(),
                UnOp::RedAnd => Value::bit(v.reduce_and()),
                UnOp::RedOr => Value::bit(v.reduce_or()),
            }
        }
        SExpr::Binary(op, a, b) => binary(*op, &eval(a, state, defs), &eval(b, state, defs)),
        SExpr::Ternary(c, a, b) => match eval(c, state, defs).truthy() {
            Some(true) => return eval(a, state, defs),
            Some(false) => return eval(b, state, defs),
            None => eval(a, state, defs).merge(&eval(b, state, defs)),
        },
        SExpr::Concat(items) => {
            // MSB-first operand order: the first item occupies the top
            // bits. Parts are read by reference and blitted word-wise.
            let parts: Vec<Cow<'_, Value>> = items.iter().map(|i| eval(i, state, defs)).collect();
            Value::concat_msb(&parts)
        }
    };
    Cow::Owned(owned)
}

/// Takes an evaluated value at exactly `width` bits: an owned value of
/// the right width moves through, anything else costs one copy.
pub fn sized(v: Cow<'_, Value>, width: usize) -> Value {
    match v {
        Cow::Borrowed(v) => v.resized(width),
        Cow::Owned(v) => v.into_resized(width),
    }
}

fn binary(op: BinOp, a: &Value, b: &Value) -> Value {
    let w = a.width().max(b.width());
    match op {
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::LAnd => match (a.truthy(), b.truthy()) {
            (Some(false), _) | (_, Some(false)) => Value::bit(Logic::Zero),
            (Some(true), Some(true)) => Value::bit(Logic::One),
            _ => Value::bit(Logic::X),
        },
        BinOp::LOr => match (a.truthy(), b.truthy()) {
            (Some(true), _) | (_, Some(true)) => Value::bit(Logic::One),
            (Some(false), Some(false)) => Value::bit(Logic::Zero),
            _ => Value::bit(Logic::X),
        },
        BinOp::Eq => Value::bit(a.logic_eq(b)),
        BinOp::Ne => Value::bit(a.logic_eq(b).not()),
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => match a.cmp_known(b) {
            Some(o) => {
                let r = match op {
                    BinOp::Lt => o.is_lt(),
                    BinOp::Gt => o.is_gt(),
                    BinOp::Le => o.is_le(),
                    _ => o.is_ge(),
                };
                Value::bit(if r { Logic::One } else { Logic::Zero })
            }
            None => Value::bit(Logic::X),
        },
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Shl => a.shl(b),
        BinOp::Shr => a.shr(b),
        BinOp::Mul | BinOp::Div | BinOp::Mod => {
            // 64-bit only: wider operands give all-x.
            let r = match (a.as_u64(), b.as_u64()) {
                (Some(x), Some(y)) => match op {
                    BinOp::Mul => Some(x.wrapping_mul(y)),
                    BinOp::Div => x.checked_div(y),
                    _ => x.checked_rem(y),
                },
                _ => None,
            };
            match r {
                Some(v) => Value::from_u64(v, w),
                None => Value::unknown(w),
            }
        }
    }
}

/// A resolved non-blocking update.
#[derive(Debug, Clone, PartialEq)]
pub struct NbaUpdate {
    /// Target signal.
    pub sig: SigId,
    /// Resolved bit index (relative, after lsb adjustment), if any.
    pub bit: Option<i64>,
    /// Value to apply.
    pub value: Value,
}

/// Writes `value` into `state[sig]` in place: the whole signal (resized
/// to its width), or bit 0 of `value` into bit `rel` when `bit` is
/// `Some(rel)`. The comparison against the stored value clones nothing,
/// and a whole-signal value is moved in.
///
/// Returns bit 0 of the old and of the new contents — all that edge
/// detection reads — when the stored value changed, and `None` when it
/// did not (including an out-of-range bit write, which is a no-op).
pub fn store(
    state: &mut [Value],
    defs: &[SignalDef],
    sig: SigId,
    bit: Option<i64>,
    value: Value,
) -> Option<(Logic, Logic)> {
    let slot = &mut state[sig];
    let old0 = slot.get(0);
    match bit {
        None => {
            let value = value.into_resized(defs[sig].width);
            if *slot == value {
                return None;
            }
            *slot = value;
        }
        Some(rel) => {
            if rel < 0 || rel as usize >= defs[sig].width {
                return None;
            }
            let b = value.get(0);
            if slot.get(rel as usize) == b {
                return None;
            }
            slot.set_bit(rel as usize, b);
        }
    }
    Some((old0, slot.get(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs2() -> Vec<SignalDef> {
        vec![
            SignalDef {
                name: "a".into(),
                width: 1,
                lsb: 0,
                is_input: true,
            },
            SignalDef {
                name: "v".into(),
                width: 4,
                lsb: 0,
                is_input: false,
            },
        ]
    }

    #[test]
    fn eval_bit_select_and_ops() {
        let defs = defs2();
        let state = vec![Value::bit(Logic::One), Value::from_u64(0b1010, 4)];
        let e = SExpr::Bit(1, Box::new(SExpr::Const(Value::from_u64(3, 8))));
        assert_eq!(eval(&e, &state, &defs).get(0), Logic::One);
        let and = SExpr::Binary(
            BinOp::And,
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::bit(Logic::X))),
        );
        assert_eq!(eval(&and, &state, &defs).get(0), Logic::X);
    }

    #[test]
    fn arithmetic_and_compare() {
        let defs = defs2();
        let state = vec![Value::bit(Logic::Zero), Value::from_u64(7, 4)];
        let add = SExpr::Binary(
            BinOp::Add,
            Box::new(SExpr::Sig(1)),
            Box::new(SExpr::Const(Value::from_u64(2, 4))),
        );
        assert_eq!(eval(&add, &state, &defs).as_u64(), Some(9 & 0xf));
        let lt = SExpr::Binary(
            BinOp::Lt,
            Box::new(SExpr::Sig(1)),
            Box::new(SExpr::Const(Value::from_u64(9, 4))),
        );
        assert_eq!(eval(&lt, &state, &defs).get(0), Logic::One);
        let div0 = SExpr::Binary(
            BinOp::Div,
            Box::new(SExpr::Sig(1)),
            Box::new(SExpr::Const(Value::from_u64(0, 4))),
        );
        assert!(eval(&div0, &state, &defs).has_unknown());
    }

    #[test]
    fn ternary_merges_on_unknown_condition() {
        let defs = defs2();
        let state = vec![Value::bit(Logic::X), Value::from_u64(0, 4)];
        let t = SExpr::Ternary(
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::from_u64(0b1100, 4))),
            Box::new(SExpr::Const(Value::from_u64(0b1010, 4))),
        );
        assert_eq!(eval(&t, &state, &defs).to_string_msb(), "1xx0");
    }

    #[test]
    fn concat_is_msb_first() {
        let defs = defs2();
        let state = vec![Value::bit(Logic::One), Value::from_u64(0b10, 4)];
        let c = SExpr::Concat(vec![SExpr::Sig(0), SExpr::Sig(1)]);
        // {1'b1, 4'b0010} = 5'b10010
        assert_eq!(eval(&c, &state, &defs).to_string_msb(), "10010");
    }

    #[test]
    fn store_whole_and_bit() {
        let defs = defs2();
        let mut state = vec![Value::bit(Logic::Zero), Value::from_u64(0, 4)];
        // Whole write: reports bit 0 of the old and new contents.
        let ch = store(&mut state, &defs, 1, None, Value::from_u64(0b101, 4));
        assert_eq!(ch, Some((Logic::Zero, Logic::One)));
        assert_eq!(state[1].as_u64(), Some(5));
        // Bit write.
        let ch2 = store(&mut state, &defs, 1, Some(1), Value::bit(Logic::One));
        assert_eq!(ch2, Some((Logic::One, Logic::One)));
        assert_eq!(state[1].as_u64(), Some(7));
        // Same value: no change.
        assert!(store(&mut state, &defs, 1, Some(1), Value::bit(Logic::One)).is_none());
        assert!(store(&mut state, &defs, 1, None, Value::from_u64(7, 4)).is_none());
        // Out of range: no-op.
        assert!(store(&mut state, &defs, 1, Some(9), Value::bit(Logic::One)).is_none());
        assert!(store(&mut state, &defs, 1, Some(-1), Value::bit(Logic::Zero)).is_none());
        assert_eq!(state[1].as_u64(), Some(7));
        // A whole write is resized to the signal's width.
        let ch3 = store(&mut state, &defs, 1, None, Value::from_u64(0b1_0010, 5));
        assert_eq!(ch3, Some((Logic::One, Logic::Zero)));
        assert_eq!(state[1], Value::from_u64(0b0010, 4));
    }

    #[test]
    fn leaves_are_borrowed_and_sized_moves_owned_values() {
        let defs = defs2();
        let state = vec![Value::bit(Logic::One), Value::from_u64(0b1010, 4)];
        assert!(matches!(
            eval(&SExpr::Sig(1), &state, &defs),
            Cow::Borrowed(_)
        ));
        let k = SExpr::Const(Value::from_u64(3, 4));
        assert!(matches!(eval(&k, &state, &defs), Cow::Borrowed(_)));
        let not = SExpr::Unary(UnOp::Not, Box::new(SExpr::Sig(1)));
        assert!(matches!(eval(&not, &state, &defs), Cow::Owned(_)));
        assert_eq!(sized(eval(&not, &state, &defs), 4).as_u64(), Some(0b0101));
        assert_eq!(
            sized(eval(&SExpr::Sig(1), &state, &defs), 2).as_u64(),
            Some(0b10)
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn defs1(width: usize) -> Vec<SignalDef> {
        vec![SignalDef {
            name: "v".into(),
            width,
            lsb: 0,
            is_input: false,
        }]
    }

    #[test]
    fn shifts_and_logic_short_circuit() {
        let defs = defs1(8);
        let state = vec![Value::from_u64(0b0000_0110, 8)];
        let shl = SExpr::Binary(
            BinOp::Shl,
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::from_u64(2, 4))),
        );
        assert_eq!(eval(&shl, &state, &defs).as_u64(), Some(0b0001_1000));
        let shr = SExpr::Binary(
            BinOp::Shr,
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::from_u64(1, 4))),
        );
        assert_eq!(eval(&shr, &state, &defs).as_u64(), Some(0b0000_0011));
        // Logical AND short-circuits on a known false even with an
        // unknown on the other side.
        let land = SExpr::Binary(
            BinOp::LAnd,
            Box::new(SExpr::Const(Value::from_u64(0, 1))),
            Box::new(SExpr::Const(Value::bit(Logic::X))),
        );
        assert_eq!(eval(&land, &state, &defs).get(0), Logic::Zero);
        let lor = SExpr::Binary(
            BinOp::LOr,
            Box::new(SExpr::Const(Value::bit(Logic::X))),
            Box::new(SExpr::Const(Value::from_u64(1, 1))),
        );
        assert_eq!(eval(&lor, &state, &defs).get(0), Logic::One);
        // Both unknown: X.
        let both_x = SExpr::Binary(
            BinOp::LOr,
            Box::new(SExpr::Const(Value::bit(Logic::X))),
            Box::new(SExpr::Const(Value::bit(Logic::Z))),
        );
        assert_eq!(eval(&both_x, &state, &defs).get(0), Logic::X);
    }

    #[test]
    fn unknown_shift_amount_and_huge_shift() {
        let defs = defs1(8);
        let state = vec![Value::from_u64(0xff, 8)];
        let sx = SExpr::Binary(
            BinOp::Shl,
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::bit(Logic::X))),
        );
        assert!(eval(&sx, &state, &defs).has_unknown());
        let far = SExpr::Binary(
            BinOp::Shr,
            Box::new(SExpr::Sig(0)),
            Box::new(SExpr::Const(Value::from_u64(70, 8))),
        );
        assert_eq!(eval(&far, &state, &defs).as_u64(), Some(0));
    }

    #[test]
    fn reduction_and_logical_not() {
        let defs = defs1(4);
        let state = vec![Value::from_u64(0b1111, 4)];
        let red = SExpr::Unary(UnOp::RedAnd, Box::new(SExpr::Sig(0)));
        assert_eq!(eval(&red, &state, &defs).get(0), Logic::One);
        let lnot = SExpr::Unary(UnOp::LNot, Box::new(SExpr::Sig(0)));
        assert_eq!(eval(&lnot, &state, &defs).get(0), Logic::Zero);
        let neg = SExpr::Unary(UnOp::Neg, Box::new(SExpr::Sig(0)));
        // -15 mod 2^4 = 1.
        assert_eq!(eval(&neg, &state, &defs).as_u64(), Some(1));
    }

    #[test]
    fn wide_arithmetic_is_word_wise_on_known_operands() {
        let defs = defs1(70);
        let low_ones = Value::from_u64(u64::MAX, 70);
        let state = vec![low_ones.clone()];
        let run = |op, k: Value| {
            let e = SExpr::Binary(op, Box::new(SExpr::Sig(0)), Box::new(SExpr::Const(k)));
            eval(&e, &state, &defs).into_owned()
        };
        // The carry crosses into the second word.
        let add = run(BinOp::Add, Value::from_u64(1, 64));
        assert_eq!(add.width(), 70);
        assert_eq!(add.get(64), Logic::One);
        assert!((0..64).all(|i| add.get(i) == Logic::Zero));
        let sub = run(BinOp::Sub, Value::from_u64(u64::MAX, 64));
        assert_eq!(sub, Value::from_u64(0, 70));
        let shl = run(BinOp::Shl, Value::from_u64(6, 4));
        assert_eq!(shl.get(69), Logic::One);
        assert_eq!(shl.get(5), Logic::Zero);
        assert_eq!(
            run(BinOp::Shr, Value::from_u64(63, 8)),
            Value::from_u64(1, 70)
        );
        let neg = SExpr::Unary(UnOp::Neg, Box::new(SExpr::Sig(0)));
        assert_eq!(
            eval(&neg, &state, &defs).add(&low_ones),
            Value::from_u64(0, 70)
        );
        for (op, want) in [
            (BinOp::Lt, Logic::Zero),
            (BinOp::Gt, Logic::One),
            (BinOp::Le, Logic::Zero),
            (BinOp::Ge, Logic::One),
        ] {
            assert_eq!(run(op, Value::from_u64(5, 64)).get(0), want);
        }
        // Multiplication, division and remainder stay 64-bit: x above.
        for op in [BinOp::Mul, BinOp::Div, BinOp::Mod] {
            assert_eq!(run(op, Value::from_u64(3, 64)), Value::unknown(70));
        }
    }

    #[test]
    fn out_of_range_and_unknown_bit_selects() {
        let defs = defs1(4);
        let state = vec![Value::from_u64(0b1010, 4)];
        let far = SExpr::Bit(0, Box::new(SExpr::Const(Value::from_u64(9, 8))));
        assert_eq!(eval(&far, &state, &defs).get(0), Logic::X);
        let unknown = SExpr::Bit(0, Box::new(SExpr::Const(Value::bit(Logic::X))));
        assert_eq!(eval(&unknown, &state, &defs).get(0), Logic::X);
    }
}
