//! Expression evaluation: every expression of a circuit is lowered
//! once, at elaboration, to a flat list of word-level instructions over
//! registers — a compiled program — which this module executes, and
//! `store` commits a result into a signal in place.
//!
//! Each instruction writes one register of static width, read by later
//! instructions of the same expression. Operands are read in place from
//! a signal's state slot, a constant of the program, or an earlier
//! register — never copied. Register `i` is the destination of
//! instruction `i`, laid out at a fixed offset of one register file, so
//! an instruction's operands always sit below its destination and the
//! executor splits the file in two to read one part while writing the
//! other. The program lives in the [`Circuit`](crate::Circuit),
//! shared by every kernel through its `Arc`; each kernel owns one
//! preallocated register file (`Vec<u64>`), so evaluating an expression
//! allocates nothing at any width.
//!
//! Every expression has a static width, Verilog's:
//!
//! | expression | width |
//! |------------|-------|
//! | signal, constant | its own |
//! | `a[i]`, reductions, `!`, `&&`, `\|\|`, comparisons | 1 |
//! | `~a`, `-a` | `a`'s |
//! | `a op b` for `& \| ^ + - * / % << >>` | the wider operand's |
//! | `c ? a : b` | the wider arm's (IEEE 1364-2005 §5.4.1) |
//! | `{a, b, ...}` | the sum |
//!
//! Arithmetic is computed word-wise at any width for fully known
//! operands and truncated to the result width. `*`, `/` and `%` stay
//! 64-bit: with an operand above 64 bits they give all-x.
//!
//! In reference mode ([`crate::logic::reference::force`], checked once
//! per settle by the kernel) the executor computes each instruction
//! through the per-bit reference operators instead of the word kernels,
//! so the two paths stay independent implementations of the same
//! instruction semantics.

use std::cmp::Ordering;

use hdl::ast::{BinOp, UnOp};

use crate::elab::SigId;
use crate::logic::{word_count, Bits, BitsMut, Logic, Value};

/// Where an instruction reads an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// A signal's state slot.
    Sig(SigId),
    /// A constant of the program.
    Const(u32),
    /// The destination register of an earlier instruction.
    Reg(u32),
}

/// An instruction's operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    Unary(UnOp, Operand),
    Binary(BinOp, Operand, Operand),
    /// `c ? a : b`.
    Mux(Operand, Operand, Operand),
    /// The `len` operands at `parts[first..]`, MSB-first.
    Concat {
        first: u32,
        len: u32,
    },
    /// `sig[index]`, the index relative to the declared `lsb`.
    Bit {
        sig: SigId,
        lsb: i64,
        index: Operand,
    },
}

/// One instruction and its destination register: `width` bits at
/// `regs[off..]`, the val words followed by the unknown words.
#[derive(Debug, Clone, PartialEq)]
struct Instr {
    op: Op,
    off: usize,
    width: usize,
}

/// A compiled expression: the instructions `start..end` of its
/// circuit's compiled program, whose result is read from one operand — a
/// bare signal or constant compiles to no instruction at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expr {
    start: u32,
    end: u32,
    out: Operand,
    width: u32,
}

impl Expr {
    /// The expression's static width in bits.
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Instructions the expression executes.
    #[cfg(test)]
    pub(crate) fn instr_count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// The operand holding the result.
    pub(crate) fn out(&self) -> Operand {
        self.out
    }
}

/// Every compiled expression of one circuit: instructions, constants,
/// concatenation operand lists, and the size of the register file a
/// kernel allocates to run them.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Program {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    parts: Vec<Operand>,
    reg_words: usize,
}

impl Program {
    /// Instructions over all expressions.
    #[cfg(test)]
    pub(crate) fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Words of the register file (both planes of every register).
    pub(crate) fn register_words(&self) -> usize {
        self.reg_words
    }

    /// Adds a constant operand.
    pub(crate) fn constant(&mut self, v: Value) -> Operand {
        self.consts.push(v);
        Operand::Const((self.consts.len() - 1) as u32)
    }

    /// Adds a concatenation's operand list, MSB-first.
    pub(crate) fn concat(&mut self, parts: &[Operand]) -> Op {
        let first = self.parts.len() as u32;
        self.parts.extend_from_slice(parts);
        Op::Concat {
            first,
            len: parts.len() as u32,
        }
    }

    /// Appends an instruction with a fresh `width`-bit destination
    /// register, allocated above every register its operands name.
    pub(crate) fn emit(&mut self, op: Op, width: usize) -> Operand {
        let off = self.reg_words;
        self.reg_words += 2 * word_count(width);
        self.instrs.push(Instr { op, off, width });
        Operand::Reg((self.instrs.len() - 1) as u32)
    }

    /// Position of the next instruction: the start of an expression.
    pub(crate) fn mark(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Closes the expression begun at `start`, with result `out`.
    pub(crate) fn finish(&self, start: u32, out: Operand, width: usize) -> Expr {
        Expr {
            start,
            end: self.mark(),
            out,
            width: width as u32,
        }
    }

    /// Signals the expression reads.
    pub(crate) fn reads(&self, e: &Expr, out: &mut Vec<SigId>) {
        let mut read = |o: &Operand| {
            if let Operand::Sig(s) = o {
                out.push(*s);
            }
        };
        read(&e.out);
        for ins in &self.instrs[e.start as usize..e.end as usize] {
            match &ins.op {
                Op::Unary(_, a) => read(a),
                Op::Binary(_, a, b) => {
                    read(a);
                    read(b);
                }
                Op::Mux(c, a, b) => {
                    read(c);
                    read(a);
                    read(b);
                }
                Op::Concat { first, len } => {
                    self.parts[*first as usize..(first + len) as usize]
                        .iter()
                        .for_each(&mut read);
                }
                Op::Bit { sig, index, .. } => {
                    read(&Operand::Sig(*sig));
                    read(index);
                }
            }
        }
    }

    /// Reads an operand in place. `regs` needs to hold only the
    /// registers below the reader's own.
    #[inline]
    pub(crate) fn operand<'a>(
        &'a self,
        o: Operand,
        state: &'a [Value],
        regs: &'a [u64],
    ) -> Bits<'a> {
        match o {
            Operand::Sig(s) => state[s].bits(),
            _ => self.scratch(o, regs),
        }
    }

    /// Reads a constant or register operand in place.
    ///
    /// # Panics
    ///
    /// Panics on a signal operand, which lives in the state.
    #[inline]
    pub(crate) fn scratch<'a>(&'a self, o: Operand, regs: &'a [u64]) -> Bits<'a> {
        match o {
            Operand::Const(c) => self.consts[c as usize].bits(),
            Operand::Reg(r) => {
                let ins = &self.instrs[r as usize];
                Bits::from_words(
                    &regs[ins.off..ins.off + 2 * word_count(ins.width)],
                    ins.width,
                )
            }
            Operand::Sig(_) => unreachable!("signal operands are read from the state"),
        }
    }

    /// The result of an expression already run by [`Program::run`].
    #[inline]
    pub(crate) fn result<'a>(&'a self, e: &Expr, state: &'a [Value], regs: &'a [u64]) -> Bits<'a> {
        self.operand(e.out, state, regs)
    }

    /// Runs an expression's instructions against `state`, leaving the
    /// result where [`Program::result`] reads it. `reference` selects
    /// the per-bit reference operators.
    pub(crate) fn run(&self, e: &Expr, state: &[Value], regs: &mut [u64], reference: bool) {
        for ins in &self.instrs[e.start as usize..e.end as usize] {
            let (below, rest) = regs.split_at_mut(ins.off);
            let mut out = BitsMut::from_words(&mut rest[..2 * word_count(ins.width)], ins.width);
            if reference {
                let v = self.reference(ins, state, below);
                out.copy(v.bits());
            } else {
                self.exec(ins, state, below, &mut out);
            }
        }
    }

    /// One instruction through the word kernels.
    #[inline]
    fn exec(&self, ins: &Instr, state: &[Value], regs: &[u64], out: &mut BitsMut<'_>) {
        let arg = |o: Operand| self.operand(o, state, regs);
        match ins.op {
            Op::Unary(op, a) => {
                let a = arg(a);
                match op {
                    UnOp::Not => out.not(a),
                    UnOp::Neg => out.neg(a),
                    UnOp::LNot => out.set_logic(lnot(a.truthy())),
                    UnOp::RedAnd => out.set_logic(a.reduce_and()),
                    UnOp::RedOr => out.set_logic(a.reduce_or()),
                }
            }
            Op::Binary(op, a, b) => {
                let (a, b) = (arg(a), arg(b));
                match op {
                    BinOp::And => out.and(a, b),
                    BinOp::Or => out.or(a, b),
                    BinOp::Xor => out.xor(a, b),
                    BinOp::LAnd => out.set_logic(land(a.truthy(), b.truthy())),
                    BinOp::LOr => out.set_logic(lor(a.truthy(), b.truthy())),
                    BinOp::Eq => out.set_logic(a.logic_eq(b)),
                    BinOp::Ne => out.set_logic(a.logic_eq(b).not()),
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                        out.set_logic(ordering(op, a.cmp_known(b)))
                    }
                    BinOp::Add => out.add(a, b),
                    BinOp::Sub => out.sub(a, b),
                    BinOp::Shl => out.shl(a, b),
                    BinOp::Shr => out.shr(a, b),
                    BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        match narrow_arith(op, a.as_u64(), b.as_u64()) {
                            Some(v) => out.set_u64(v),
                            None => out.unknown(),
                        }
                    }
                }
            }
            Op::Mux(c, a, b) => match arg(c).truthy() {
                Some(true) => out.copy(arg(a)),
                Some(false) => out.copy(arg(b)),
                None => out.merge(arg(a), arg(b)),
            },
            Op::Concat { first, len } => {
                out.clear();
                let mut offset = 0;
                for &p in self.parts[first as usize..(first + len) as usize]
                    .iter()
                    .rev()
                {
                    let p = arg(p);
                    out.blit(p, offset);
                    offset += p.width();
                }
            }
            Op::Bit { sig, lsb, index } => {
                let v = state[sig].bits();
                out.set_logic(bit_select(lsb, arg(index).as_u64(), |i| v.get(i)))
            }
        }
    }

    /// One instruction through the per-bit reference operators: the
    /// operands are copied into [`Value`]s, whose operators route
    /// per-bit while reference mode is on.
    fn reference(&self, ins: &Instr, state: &[Value], regs: &[u64]) -> Value {
        let arg = |o: Operand| Value::from_view(self.operand(o, state, regs));
        let bit = |l: Logic| Value::bit(l);
        match ins.op {
            Op::Unary(op, a) => {
                let a = arg(a);
                match op {
                    UnOp::Not => a.not(),
                    UnOp::Neg => a.neg(),
                    UnOp::LNot => bit(lnot(a.truthy())),
                    UnOp::RedAnd => bit(a.reduce_and()),
                    UnOp::RedOr => bit(a.reduce_or()),
                }
            }
            Op::Binary(op, a, b) => {
                let (a, b) = (arg(a), arg(b));
                match op {
                    BinOp::And => a.and(&b),
                    BinOp::Or => a.or(&b),
                    BinOp::Xor => a.xor(&b),
                    BinOp::LAnd => bit(land(a.truthy(), b.truthy())),
                    BinOp::LOr => bit(lor(a.truthy(), b.truthy())),
                    BinOp::Eq => bit(a.logic_eq(&b)),
                    BinOp::Ne => bit(a.logic_eq(&b).not()),
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                        bit(ordering(op, a.cmp_known(&b)))
                    }
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Shl => a.shl(&b),
                    BinOp::Shr => a.shr(&b),
                    BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        match narrow_arith(op, a.as_u64(), b.as_u64()) {
                            Some(v) => Value::from_u64(v, ins.width),
                            None => Value::unknown(ins.width),
                        }
                    }
                }
            }
            Op::Mux(c, a, b) => match arg(c).truthy() {
                Some(true) => arg(a).resized(ins.width),
                Some(false) => arg(b).resized(ins.width),
                None => arg(a).merge(&arg(b)),
            },
            Op::Concat { first, len } => {
                let parts: Vec<Value> = self.parts[first as usize..(first + len) as usize]
                    .iter()
                    .map(|&p| arg(p))
                    .collect();
                Value::concat_msb(&parts)
            }
            Op::Bit { sig, lsb, index } => {
                let v = &state[sig];
                bit(bit_select(lsb, arg(index).as_u64(), |i| v.get(i)))
            }
        }
    }
}

/// `!a` from `a`'s truthiness.
fn lnot(a: Option<bool>) -> Logic {
    match a {
        Some(b) => Logic::from_planes(!b, false),
        None => Logic::X,
    }
}

/// `a && b`: a known false on either side decides it.
fn land(a: Option<bool>, b: Option<bool>) -> Logic {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Logic::Zero,
        (Some(true), Some(true)) => Logic::One,
        _ => Logic::X,
    }
}

/// `a || b`: a known true on either side decides it.
fn lor(a: Option<bool>, b: Option<bool>) -> Logic {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Logic::One,
        (Some(false), Some(false)) => Logic::Zero,
        _ => Logic::X,
    }
}

/// A relational operator's bit from the operands' ordering.
fn ordering(op: BinOp, o: Option<Ordering>) -> Logic {
    let Some(o) = o else {
        return Logic::X;
    };
    let r = match op {
        BinOp::Lt => o.is_lt(),
        BinOp::Gt => o.is_gt(),
        BinOp::Le => o.is_le(),
        _ => o.is_ge(),
    };
    Logic::from_planes(r, false)
}

/// `*`, `/` and `%` on operands of at most 64 bits; `None` (all-x)
/// otherwise, or on division by zero.
fn narrow_arith(op: BinOp, a: Option<u64>, b: Option<u64>) -> Option<u64> {
    let (x, y) = (a?, b?);
    match op {
        BinOp::Mul => Some(x.wrapping_mul(y)),
        BinOp::Div => x.checked_div(y),
        _ => x.checked_rem(y),
    }
}

/// `sig[index]` with `sig`'s bits read through `get`: x for an unknown
/// index or one outside the signal.
fn bit_select(lsb: i64, index: Option<u64>, get: impl Fn(usize) -> Logic) -> Logic {
    match index {
        Some(i) => {
            let rel = i as i64 - lsb;
            if rel < 0 {
                Logic::X
            } else {
                get(rel as usize)
            }
        }
        None => Logic::X,
    }
}

/// Writes `src` into `slot` in place: the whole signal (resized to its
/// width), or bit 0 of `src` into bit `rel` when `bit` is `Some(rel)`.
/// Nothing is allocated or freed: a changed value's words are copied
/// into the slot's existing storage.
///
/// Returns bit 0 of the old and of the new contents — all that edge
/// detection reads — when the stored value changed, and `None` when it
/// did not (including an out-of-range bit write, which is a no-op).
pub(crate) fn store(slot: &mut Value, bit: Option<i64>, src: Bits<'_>) -> Option<(Logic, Logic)> {
    let old0 = slot.get(0);
    match bit {
        None => {
            if !slot.bits_mut().assign(src) {
                return None;
            }
        }
        Some(rel) => {
            if rel < 0 || rel as usize >= slot.width() {
                return None;
            }
            let b = src.get(0);
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
    use crate::elab::{compile, Circuit, Proc};

    /// A circuit with inputs `a` (1 bit) and `v` (`width` bits) and one
    /// continuous assignment of `expr`, as source text.
    fn circuit(width: usize, expr: &str) -> Circuit {
        let src = format!(
            "module m(input a, input [{}:0] v, output o);\n  assign o = {expr};\nendmodule",
            width - 1
        );
        let unit = hdl::parse(&src).expect("parses");
        compile(unit.module("m").expect("module")).expect("elaborates")
    }

    fn rhs(c: &Circuit) -> Expr {
        match &c.procs[0] {
            Proc::Continuous { rhs, .. } => *rhs,
            Proc::Always { .. } => unreachable!("one continuous assignment"),
        }
    }

    /// Evaluates `expr` with `a` and `v` set to `a` and `v`.
    fn eval(expr: &str, a: Value, v: Value) -> Value {
        let c = circuit(v.width(), expr);
        let e = rhs(&c);
        let state = [a, v, Value::unknown(1)];
        let mut regs = vec![0; c.program().register_words()];
        c.program().run(&e, &state, &mut regs, false);
        Value::from_view(c.program().result(&e, &state, &regs))
    }

    #[test]
    fn eval_bit_select_and_ops() {
        let (a, v) = (Value::bit(Logic::One), Value::from_u64(0b1010, 4));
        assert_eq!(eval("v[3]", a.clone(), v.clone()), Value::bit(Logic::One));
        assert_eq!(eval("a & 1'bx", a, v), Value::bit(Logic::X));
    }

    #[test]
    fn arithmetic_and_compare() {
        let (a, v) = (Value::bit(Logic::Zero), Value::from_u64(7, 4));
        assert_eq!(eval("v + 4'd2", a.clone(), v.clone()).as_u64(), Some(9));
        assert_eq!(eval("v < 4'd9", a.clone(), v.clone()).get(0), Logic::One);
        assert!(eval("v / 4'd0", a, v).has_unknown());
    }

    #[test]
    fn ternary_merges_on_unknown_condition() {
        let r = eval(
            "a ? 4'b1100 : 4'b1010",
            Value::bit(Logic::X),
            Value::from_u64(0, 4),
        );
        assert_eq!(r.to_string_msb(), "1xx0");
    }

    #[test]
    fn concat_is_msb_first() {
        // {1'b1, 4'b0010} = 5'b10010
        let r = eval("{a, v}", Value::bit(Logic::One), Value::from_u64(0b10, 4));
        assert_eq!(r.to_string_msb(), "10010");
    }

    #[test]
    fn store_whole_and_bit() {
        let mut slot = Value::from_u64(0, 4);
        // Whole write: reports bit 0 of the old and new contents.
        let five = Value::from_u64(0b101, 4);
        assert_eq!(
            store(&mut slot, None, five.bits()),
            Some((Logic::Zero, Logic::One))
        );
        assert_eq!(slot.as_u64(), Some(5));
        // Bit write.
        let one = Value::bit(Logic::One);
        assert_eq!(
            store(&mut slot, Some(1), one.bits()),
            Some((Logic::One, Logic::One))
        );
        assert_eq!(slot.as_u64(), Some(7));
        // Same value: no change.
        assert!(store(&mut slot, Some(1), one.bits()).is_none());
        assert!(store(&mut slot, None, Value::from_u64(7, 4).bits()).is_none());
        // Out of range: no-op.
        assert!(store(&mut slot, Some(9), one.bits()).is_none());
        assert!(store(&mut slot, Some(-1), Value::bit(Logic::Zero).bits()).is_none());
        assert_eq!(slot.as_u64(), Some(7));
        // A whole write is resized to the signal's width.
        let wider = Value::from_u64(0b1_0010, 5);
        assert_eq!(
            store(&mut slot, None, wider.bits()),
            Some((Logic::One, Logic::Zero))
        );
        assert_eq!(slot, Value::from_u64(0b0010, 4));
        // A wide slot keeps its storage: the new words are copied in.
        let mut wide = Value::unknown(140);
        let before = wide.bits().as_ptr();
        assert!(store(&mut wide, None, Value::from_u64(3, 140).bits()).is_some());
        assert_eq!(wide, Value::from_u64(3, 140));
        assert_eq!(wide.bits().as_ptr(), before);
    }

    #[test]
    fn leaves_are_read_in_place_and_stores_resize() {
        let c = circuit(4, "v");
        assert_eq!(rhs(&c).instr_count(), 0, "a signal compiles to nothing");
        assert_eq!(c.program().register_words(), 0);
        let state = [Value::bit(Logic::One), Value::from_u64(0b1010, 4)];
        let read = c.program().result(&rhs(&c), &state, &[]);
        assert_eq!(read.as_ptr(), state[1].bits().as_ptr(), "no copy");
        assert_eq!(rhs(&circuit(4, "4'd3")).instr_count(), 0);
        let not = circuit(4, "~v");
        assert_eq!(rhs(&not).instr_count(), 1);
        assert_eq!(rhs(&not).width(), 4);
        let n = eval("~v", Value::bit(Logic::One), Value::from_u64(0b1010, 4));
        let mut narrow = Value::from_u64(0, 2);
        store(&mut narrow, None, n.bits());
        assert_eq!(narrow.as_u64(), Some(0b01));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::elab::{compile, Proc};

    /// Evaluates `expr` over one input `v` set to `v`, through the
    /// word kernels and through the per-bit reference operators,
    /// demanding both agree.
    fn eval(expr: &str, v: Value) -> Value {
        let src = format!(
            "module m(input [{}:0] v, output o);\n  assign o = {expr};\nendmodule",
            v.width() - 1
        );
        let unit = hdl::parse(&src).expect("parses");
        let c = compile(unit.module("m").expect("module")).expect("elaborates");
        let Proc::Continuous { rhs, .. } = &c.procs[0] else {
            unreachable!("one continuous assignment")
        };
        let state = [v, Value::unknown(1)];
        let run = |reference: bool| {
            let _guard = reference.then(crate::logic::reference::force);
            let mut regs = vec![0; c.program().register_words()];
            c.program().run(rhs, &state, &mut regs, reference);
            Value::from_view(c.program().result(rhs, &state, &regs))
        };
        let packed = run(false);
        assert_eq!(packed, run(true), "{expr}");
        packed
    }

    #[test]
    fn shifts_and_logic_short_circuit() {
        let v = Value::from_u64(0b0000_0110, 8);
        assert_eq!(eval("v << 4'd2", v.clone()).as_u64(), Some(0b0001_1000));
        assert_eq!(eval("v >> 4'd1", v.clone()).as_u64(), Some(0b0000_0011));
        // Logical AND short-circuits on a known false even with an
        // unknown on the other side.
        assert_eq!(eval("1'b0 && 1'bx", v.clone()).get(0), Logic::Zero);
        assert_eq!(eval("1'bx || 1'b1", v.clone()).get(0), Logic::One);
        // Both unknown: X.
        assert_eq!(eval("1'bx || 1'bz", v).get(0), Logic::X);
    }

    #[test]
    fn unknown_shift_amount_and_huge_shift() {
        let v = Value::from_u64(0xff, 8);
        assert!(eval("v << 1'bx", v.clone()).has_unknown());
        assert_eq!(eval("v >> 8'd70", v).as_u64(), Some(0));
    }

    #[test]
    fn reduction_and_logical_not() {
        let v = Value::from_u64(0b1111, 4);
        assert_eq!(eval("&v", v.clone()).get(0), Logic::One);
        assert_eq!(eval("!v", v.clone()).get(0), Logic::Zero);
        // -15 mod 2^4 = 1.
        assert_eq!(eval("-v", v).as_u64(), Some(1));
    }

    #[test]
    fn wide_arithmetic_is_word_wise_on_known_operands() {
        let low_ones = Value::from_u64(u64::MAX, 70);
        let run = |expr: &str| eval(expr, low_ones.clone());
        // The carry crosses into the second word.
        let add = run("v + 64'd1");
        assert_eq!(add.width(), 70);
        assert_eq!(add.get(64), Logic::One);
        assert!((0..64).all(|i| add.get(i) == Logic::Zero));
        assert_eq!(run("v - 64'hffffffffffffffff"), Value::from_u64(0, 70));
        let shl = run("v << 4'd6");
        assert_eq!(shl.get(69), Logic::One);
        assert_eq!(shl.get(5), Logic::Zero);
        assert_eq!(run("v >> 8'd63"), Value::from_u64(1, 70));
        assert_eq!(run("-v").add(&low_ones), Value::from_u64(0, 70));
        for (op, want) in [
            ("<", Logic::Zero),
            (">", Logic::One),
            ("<=", Logic::Zero),
            (">=", Logic::One),
        ] {
            assert_eq!(run(&format!("v {op} 64'd5")).get(0), want, "{op}");
        }
        // Multiplication, division and remainder stay 64-bit: x above.
        for op in ["*", "/", "%"] {
            assert_eq!(run(&format!("v {op} 64'd3")), Value::unknown(70), "{op}");
        }
    }

    #[test]
    fn out_of_range_and_unknown_bit_selects() {
        let v = Value::from_u64(0b1010, 4);
        assert_eq!(eval("v[8'd9]", v.clone()).get(0), Logic::X);
        assert_eq!(eval("v[1'bx]", v).get(0), Logic::X);
    }
}
