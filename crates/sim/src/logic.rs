//! Four-value logic and packed two-bitplane vectors, plus the
//! nine-value co-simulation alphabet.
//!
//! Section 3.1: "Inconsistencies in the signal value set (e.g. 0, 1, x,
//! and z) ... are common sources of problems" in co-simulation. The
//! Verilog-side set is [`Logic`]; the VHDL-side set is [`Std9`]; the
//! translation (or mistranslation) between them lives in
//! [`crate::cosim`].
//!
//! ## Representation
//!
//! A [`Value`] stores its bits in **two bitplanes** — a *val* plane and
//! an *unknown* plane — so the four-value alphabet packs to two machine
//! bits per logic bit:
//!
//! | logic | val | unknown |
//! |-------|-----|---------|
//! | `0`   |  0  |    0    |
//! | `1`   |  1  |    0    |
//! | `x`   |  0  |    1    |
//! | `z`   |  1  |    1    |
//!
//! Widths up to 64 live inline as two `u64` words (cloning is a 16-byte
//! copy, no heap traffic); wider vectors spill to one boxed slice
//! holding the val words followed by the unknown words. The [`Logic`]
//! truth tables become word-parallel plane arithmetic: an AND over a
//! 64-bit vector is a handful of `u64` ops instead of 64 `match`
//! dispatches.
//!
//! The original per-bit implementation is retained in [`mod@reference`] and
//! can be forced for a thread with [`reference::force`]; kernel-level
//! tests pin the packed path by demanding byte-identical waveforms
//! between the two.

use std::fmt;

/// One Verilog-style logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Logic {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown.
    #[default]
    X,
    /// High impedance.
    Z,
}

impl Logic {
    /// The four values.
    pub const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// Character form (`0`, `1`, `x`, `z`).
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Parses a character form.
    pub fn from_char(c: char) -> Option<Logic> {
        match c.to_ascii_lowercase() {
            '0' => Some(Logic::Zero),
            '1' => Some(Logic::One),
            'x' => Some(Logic::X),
            'z' => Some(Logic::Z),
            _ => None,
        }
    }

    /// True for `x` or `z`.
    pub fn is_unknown(self) -> bool {
        matches!(self, Logic::X | Logic::Z)
    }

    /// The two-plane encoding `(val, unknown)`.
    #[inline]
    pub fn planes(self) -> (bool, bool) {
        match self {
            Logic::Zero => (false, false),
            Logic::One => (true, false),
            Logic::X => (false, true),
            Logic::Z => (true, true),
        }
    }

    /// Decodes the two-plane encoding.
    #[inline]
    pub fn from_planes(val: bool, unknown: bool) -> Logic {
        match (val, unknown) {
            (false, false) => Logic::Zero,
            (true, false) => Logic::One,
            (false, true) => Logic::X,
            (true, true) => Logic::Z,
        }
    }

    /// Verilog AND table (z behaves as x).
    pub fn and(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Verilog OR table.
    pub fn or(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Verilog XOR table.
    pub fn xor(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::Zero, b) => b,
            (Logic::One, Logic::Zero) => Logic::One,
            (Logic::One, Logic::One) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Verilog NOT table.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self.norm() {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Z collapses to X for gate inputs.
    fn norm(self) -> Logic {
        if self == Logic::Z {
            Logic::X
        } else {
            self
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Words needed for `width` bits.
#[inline]
fn word_count(width: usize) -> usize {
    width.div_ceil(64)
}

/// Mask of the valid bits in the last (topmost) word.
#[inline]
fn top_mask(width: usize) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// Bitplane storage. `Small` covers widths 1..=64 inline; `Wide` holds
/// `[val words.., unknown words..]` in one allocation. The constructors
/// keep the choice canonical (`Small` iff width ≤ 64) and every bit at
/// or above `width` zero in both planes, so derived `Eq`/`Hash` are
/// semantic equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small { val: u64, unk: u64 },
    Wide(Box<[u64]>),
}

/// A logic vector, LSB first (bit 0 is the least significant bit),
/// packed as two bitplanes (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Value {
    width: u32,
    repr: Repr,
}

impl Value {
    /// Builds a canonical value from already-masked planes.
    #[inline]
    fn from_planes_small(width: usize, val: u64, unk: u64) -> Value {
        debug_assert!((1..=64).contains(&width));
        let m = top_mask(width);
        Value {
            width: width as u32,
            repr: Repr::Small {
                val: val & m,
                unk: unk & m,
            },
        }
    }

    /// Builds a wide value from per-word planes (masked here).
    fn from_planes_wide(width: usize, mut val: Vec<u64>, mut unk: Vec<u64>) -> Value {
        debug_assert!(width > 64);
        let n = word_count(width);
        val.resize(n, 0);
        unk.resize(n, 0);
        let m = top_mask(width);
        val[n - 1] &= m;
        unk[n - 1] &= m;
        val.extend_from_slice(&unk);
        Value {
            width: width as u32,
            repr: Repr::Wide(val.into_boxed_slice()),
        }
    }

    /// All-zero planes of the given width.
    fn zeros(width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        if width <= 64 {
            Value::from_planes_small(width, 0, 0)
        } else {
            Value::from_planes_wide(
                width,
                vec![0; word_count(width)],
                vec![0; word_count(width)],
            )
        }
    }

    /// Word `i` of the val plane (zero beyond storage).
    #[inline]
    fn val_word(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Small { val, .. } => {
                if i == 0 {
                    *val
                } else {
                    0
                }
            }
            Repr::Wide(w) => *w.get(i).unwrap_or(&0),
        }
    }

    /// Word `i` of the unknown plane (zero beyond storage).
    #[inline]
    fn unk_word(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Small { unk, .. } => {
                if i == 0 {
                    *unk
                } else {
                    0
                }
            }
            Repr::Wide(w) => {
                let n = w.len() / 2;
                *w.get(n + i).unwrap_or(&0)
            }
        }
    }

    /// All-X value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn unknown(width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        if width <= 64 {
            Value::from_planes_small(width, 0, u64::MAX)
        } else {
            let n = word_count(width);
            Value::from_planes_wide(width, vec![0; n], vec![u64::MAX; n])
        }
    }

    /// All-Z value of the given width.
    pub fn high_z(width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        if width <= 64 {
            Value::from_planes_small(width, u64::MAX, u64::MAX)
        } else {
            let n = word_count(width);
            Value::from_planes_wide(width, vec![u64::MAX; n], vec![u64::MAX; n])
        }
    }

    /// From an unsigned integer, truncated/zero-extended to `width`.
    pub fn from_u64(v: u64, width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        if width <= 64 {
            Value::from_planes_small(width, v, 0)
        } else {
            let n = word_count(width);
            let mut val = vec![0; n];
            val[0] = v;
            Value::from_planes_wide(width, val, vec![0; n])
        }
    }

    /// A single-bit value.
    pub fn bit(b: Logic) -> Value {
        let (v, u) = b.planes();
        Value::from_planes_small(1, v as u64, u as u64)
    }

    /// From a bit slice, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[Logic]) -> Value {
        assert!(!bits.is_empty(), "zero-width value");
        let mut out = Value::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            out.set_bit(i, *b);
        }
        out
    }

    /// From a character string, MSB first (e.g. `"10xz"`).
    pub fn from_str_msb(s: &str) -> Option<Value> {
        if s.is_empty() {
            return None;
        }
        let mut out = Value::zeros(s.chars().count());
        for (i, c) in s.chars().rev().enumerate() {
            out.set_bit(i, Logic::from_char(c)?);
        }
        Some(out)
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Bit `i` (LSB = 0); X when out of range.
    pub fn get(&self, i: usize) -> Logic {
        if i >= self.width() {
            return Logic::X;
        }
        let (w, b) = (i / 64, i % 64);
        Logic::from_planes(
            (self.val_word(w) >> b) & 1 == 1,
            (self.unk_word(w) >> b) & 1 == 1,
        )
    }

    /// Sets bit `i`; out-of-range writes are ignored.
    pub fn set_bit(&mut self, i: usize, b: Logic) {
        if i >= self.width() {
            return;
        }
        let (v, u) = b.planes();
        let (w, bit) = (i / 64, i % 64);
        let m = 1u64 << bit;
        match &mut self.repr {
            Repr::Small { val, unk } => {
                *val = (*val & !m) | if v { m } else { 0 };
                *unk = (*unk & !m) | if u { m } else { 0 };
            }
            Repr::Wide(words) => {
                let n = words.len() / 2;
                words[w] = (words[w] & !m) | if v { m } else { 0 };
                words[n + w] = (words[n + w] & !m) | if u { m } else { 0 };
            }
        }
    }

    /// The bits as a vector, LSB first (materialized; the packed planes
    /// are the primary representation).
    pub fn to_bits(&self) -> Vec<Logic> {
        (0..self.width()).map(|i| self.get(i)).collect()
    }

    /// Iterates the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Logic> + '_ {
        (0..self.width()).map(|i| self.get(i))
    }

    /// Returns a copy resized to `width` (zero-extended — or truncated).
    pub fn resized(&self, width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        if width == self.width() {
            return self.clone();
        }
        if width <= 64 {
            Value::from_planes_small(width, self.val_word(0), self.unk_word(0))
        } else {
            let n = word_count(width);
            let val: Vec<u64> = (0..n).map(|i| self.val_word(i)).collect();
            let unk: Vec<u64> = (0..n).map(|i| self.unk_word(i)).collect();
            Value::from_planes_wide(width, val, unk)
        }
    }

    /// True when any bit is x or z.
    pub fn has_unknown(&self) -> bool {
        match &self.repr {
            Repr::Small { unk, .. } => *unk != 0,
            Repr::Wide(w) => w[w.len() / 2..].iter().any(|x| *x != 0),
        }
    }

    /// Numeric interpretation, if fully known.
    pub fn as_u64(&self) -> Option<u64> {
        if self.has_unknown() || self.width() > 64 {
            return None;
        }
        Some(self.val_word(0))
    }

    /// Verilog truthiness: `Some(true)` when any bit is 1,
    /// `Some(false)` when all bits are 0, `None` (unknown) otherwise.
    pub fn truthy(&self) -> Option<bool> {
        let n = word_count(self.width());
        let mut any_unknown = false;
        for i in 0..n {
            let (v, u) = (self.val_word(i), self.unk_word(i));
            if v & !u != 0 {
                return Some(true); // a known 1 decides it
            }
            any_unknown |= u != 0;
        }
        if any_unknown {
            None
        } else {
            Some(false)
        }
    }

    /// Applies a word-parallel binary op after zero-extending both
    /// operands to the wider width. `f` maps `(val_a, unk_a, val_b,
    /// unk_b)` to `(val_out, unk_out)`; out-of-range words read as
    /// known-zero, matching the per-bit zero-extension semantics.
    #[inline]
    fn bitwise(&self, other: &Value, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) -> Value {
        let w = self.width().max(other.width());
        if w <= 64 {
            let (v, u) = f(
                self.val_word(0),
                self.unk_word(0),
                other.val_word(0),
                other.unk_word(0),
            );
            Value::from_planes_small(w, v, u)
        } else {
            let n = word_count(w);
            let mut val = Vec::with_capacity(n);
            let mut unk = Vec::with_capacity(n);
            for i in 0..n {
                let (v, u) = f(
                    self.val_word(i),
                    self.unk_word(i),
                    other.val_word(i),
                    other.unk_word(i),
                );
                val.push(v);
                unk.push(u);
            }
            Value::from_planes_wide(w, val, unk)
        }
    }

    /// Bitwise AND (widths zero-extended to match).
    pub fn and(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::and);
        }
        self.bitwise(other, |va, ua, vb, ub| {
            // Known 1 where both known-1; known 0 where either known-0;
            // X everywhere else (z collapses to x through the unknown
            // plane).
            let one = (va & !ua) & (vb & !ub);
            let zero = (!va & !ua) | (!vb & !ub);
            (one, !(one | zero))
        })
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::or);
        }
        self.bitwise(other, |va, ua, vb, ub| {
            let one = (va & !ua) | (vb & !ub);
            let zero = (!va & !ua) & (!vb & !ub);
            (one, !(one | zero))
        })
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::xor);
        }
        self.bitwise(other, |va, ua, vb, ub| {
            let known = !ua & !ub;
            ((va ^ vb) & known, !known)
        })
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Value {
        if reference::active() {
            return Value::from_bits(&self.to_bits().iter().map(|b| b.not()).collect::<Vec<_>>());
        }
        let w = self.width();
        if w <= 64 {
            let (v, u) = (self.val_word(0), self.unk_word(0));
            Value::from_planes_small(w, !v & !u, u)
        } else {
            let n = word_count(w);
            let val: Vec<u64> = (0..n)
                .map(|i| !self.val_word(i) & !self.unk_word(i))
                .collect();
            let unk: Vec<u64> = (0..n).map(|i| self.unk_word(i)).collect();
            Value::from_planes_wide(w, val, unk)
        }
    }

    /// Case/logic equality returning a 1-bit value: `1` when equal, `0`
    /// when a known bit differs, `x` when unknowns block the decision.
    pub fn logic_eq(&self, other: &Value) -> Logic {
        if reference::active() {
            return reference::logic_eq(self, other);
        }
        let w = self.width().max(other.width());
        let n = word_count(w);
        let mut any_unknown = false;
        for i in 0..n {
            let (va, ua) = (self.val_word(i), self.unk_word(i));
            let (vb, ub) = (other.val_word(i), other.unk_word(i));
            if (va ^ vb) & !(ua | ub) != 0 {
                return Logic::Zero; // a known mismatch decides it
            }
            any_unknown |= (ua | ub) != 0;
        }
        if any_unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction AND.
    pub fn reduce_and(&self) -> Logic {
        if reference::active() {
            return self.to_bits().into_iter().fold(Logic::One, Logic::and);
        }
        let n = word_count(self.width());
        let mut any_unknown = false;
        for i in 0..n {
            let (v, u) = (self.val_word(i), self.unk_word(i));
            let in_range = if i == n - 1 {
                top_mask(self.width())
            } else {
                u64::MAX
            };
            if !v & !u & in_range != 0 {
                return Logic::Zero; // a known 0 dominates
            }
            any_unknown |= u != 0;
        }
        if any_unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction OR.
    pub fn reduce_or(&self) -> Logic {
        if reference::active() {
            return self.to_bits().into_iter().fold(Logic::Zero, Logic::or);
        }
        match self.truthy() {
            Some(true) => Logic::One,
            Some(false) => Logic::Zero,
            None => Logic::X,
        }
    }

    /// The conditional-merge used when a ternary condition is unknown:
    /// positions where both arms agree keep their value, others go X.
    pub fn merge(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, |a, b| if a == b { a } else { Logic::X });
        }
        self.bitwise(other, |va, ua, vb, ub| {
            // Bits identical in both planes survive; disagreement is X
            // (val 0, unknown 1).
            let same = !((va ^ vb) | (ua ^ ub));
            (va & same, (ua & same) | !same)
        })
    }

    /// Concatenation, MSB-first operand order (the first item occupies
    /// the top bits), matching Verilog `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn concat_msb(items: &[&Value]) -> Value {
        let width: usize = items.iter().map(|v| v.width()).sum();
        assert!(width > 0, "zero-width concatenation");
        let mut out = Value::zeros(width);
        // Walk from the last operand (lowest bits) upward, OR-ing each
        // operand's words in at its bit offset.
        let mut offset = 0usize;
        for item in items.iter().rev() {
            out.blit(item, offset);
            offset += item.width();
        }
        out
    }

    /// ORs `src`'s planes into `self` starting at bit `offset`. The
    /// destination bits must be zero (fresh from [`Value::zeros`]).
    fn blit(&mut self, src: &Value, offset: usize) {
        let (shift, word0) = (offset % 64, offset / 64);
        let src_words = word_count(src.width());
        for i in 0..src_words {
            let (v, u) = (src.val_word(i), src.unk_word(i));
            self.or_word(word0 + i, v << shift, u << shift);
            if shift != 0 {
                self.or_word(word0 + i + 1, v >> (64 - shift), u >> (64 - shift));
            }
        }
    }

    /// ORs one word into both planes at word index `w` (ignoring
    /// out-of-range spill).
    fn or_word(&mut self, w: usize, v: u64, u: u64) {
        match &mut self.repr {
            Repr::Small { val, unk } => {
                if w == 0 {
                    *val |= v & top_mask(self.width as usize);
                    *unk |= u & top_mask(self.width as usize);
                }
            }
            Repr::Wide(words) => {
                let n = words.len() / 2;
                if w < n {
                    let m = if w == n - 1 {
                        top_mask(self.width as usize)
                    } else {
                        u64::MAX
                    };
                    words[w] |= v & m;
                    words[n + w] |= u & m;
                }
            }
        }
    }

    /// MSB-first rendering (`4'b10xz` prints as `10xz`).
    pub fn to_string_msb(&self) -> String {
        (0..self.width())
            .rev()
            .map(|i| self.get(i).to_char())
            .collect()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_msb())
    }
}

/// The retained per-bit reference path.
///
/// Every packed truth-table op ([`Value::and`], [`Value::or`],
/// [`Value::xor`], [`Value::not`], [`Value::logic_eq`],
/// [`Value::merge`], the reductions) checks a thread-local flag and,
/// when [`reference::force`] is active on the calling thread, routes
/// through the original per-bit [`Logic`]-table implementation instead
/// of the plane arithmetic. Tests use this to demand byte-identical
/// waveforms from the two paths; benches use it as the baseline for the
/// packed speedup.
pub mod reference {
    use super::{Logic, Value};
    use std::cell::Cell;

    thread_local! {
        static FORCED: Cell<bool> = const { Cell::new(false) };
    }

    /// True while the calling thread is inside a [`force`] guard.
    #[inline]
    pub fn active() -> bool {
        FORCED.with(|f| f.get())
    }

    /// RAII guard returned by [`force`]; restores the previous mode on
    /// drop.
    pub struct Guard {
        prev: bool,
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            FORCED.with(|f| f.set(self.prev));
        }
    }

    /// Forces the per-bit reference implementation for all [`Value`]
    /// truth-table ops on the current thread until the guard drops.
    pub fn force() -> Guard {
        let prev = FORCED.with(|f| f.replace(true));
        Guard { prev }
    }

    /// Per-bit zip over zero-extended operands — the original
    /// `Vec<Logic>` implementation.
    pub(super) fn zip(a: &Value, b: &Value, f: fn(Logic, Logic) -> Logic) -> Value {
        let w = a.width().max(b.width());
        let av = a.resized(w);
        let bv = b.resized(w);
        let bits: Vec<Logic> = (0..w).map(|i| f(av.get(i), bv.get(i))).collect();
        Value::from_bits(&bits)
    }

    /// Per-bit case equality — the original scan.
    pub(super) fn logic_eq(a: &Value, b: &Value) -> Logic {
        let w = a.width().max(b.width());
        let av = a.resized(w);
        let bv = b.resized(w);
        let mut unknown = false;
        for i in 0..w {
            let (x, y) = (av.get(i), bv.get(i));
            if x.is_unknown() || y.is_unknown() {
                unknown = true;
            } else if x != y {
                return Logic::Zero;
            }
        }
        if unknown {
            Logic::X
        } else {
            Logic::One
        }
    }
}

/// One VHDL-style `std_logic` value (the nine-value alphabet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Std9 {
    /// Uninitialized.
    U,
    /// Forcing unknown.
    X,
    /// Forcing zero.
    Zero,
    /// Forcing one.
    One,
    /// High impedance.
    Z,
    /// Weak unknown.
    W,
    /// Weak zero.
    L,
    /// Weak one.
    H,
    /// Don't care.
    DontCare,
}

impl Std9 {
    /// Character form (`U X 0 1 Z W L H -`).
    pub fn to_char(self) -> char {
        match self {
            Std9::U => 'U',
            Std9::X => 'X',
            Std9::Zero => '0',
            Std9::One => '1',
            Std9::Z => 'Z',
            Std9::W => 'W',
            Std9::L => 'L',
            Std9::H => 'H',
            Std9::DontCare => '-',
        }
    }

    /// Parses a character form.
    pub fn from_char(c: char) -> Option<Std9> {
        match c {
            'U' => Some(Std9::U),
            'X' => Some(Std9::X),
            '0' => Some(Std9::Zero),
            '1' => Some(Std9::One),
            'Z' => Some(Std9::Z),
            'W' => Some(Std9::W),
            'L' => Some(Std9::L),
            'H' => Some(Std9::H),
            '-' => Some(Std9::DontCare),
            _ => None,
        }
    }

    /// The *correct* translation into the four-value set: weak levels
    /// resolve to their strong levels, everything unknown-ish to X.
    pub fn to_logic_full(self) -> Logic {
        match self {
            Std9::Zero | Std9::L => Logic::Zero,
            Std9::One | Std9::H => Logic::One,
            Std9::Z => Logic::Z,
            Std9::U | Std9::X | Std9::W | Std9::DontCare => Logic::X,
        }
    }

    /// The *naive* translation that only understands the characters the
    /// Verilog set shares (`0 1 X Z`) and maps everything else to X —
    /// losing weak levels, the classic co-simulation defect.
    pub fn to_logic_naive(self) -> Logic {
        match self {
            Std9::Zero => Logic::Zero,
            Std9::One => Logic::One,
            Std9::Z => Logic::Z,
            _ => Logic::X,
        }
    }

    /// Encodes a four-value logic level into the nine-value set;
    /// `weak` drives the weak levels `L`/`H` instead of `0`/`1` (a
    /// pulled-up/down VHDL output).
    pub fn from_logic(l: Logic, weak: bool) -> Std9 {
        match (l, weak) {
            (Logic::Zero, false) => Std9::Zero,
            (Logic::One, false) => Std9::One,
            (Logic::Zero, true) => Std9::L,
            (Logic::One, true) => Std9::H,
            (Logic::Z, _) => Std9::Z,
            (Logic::X, _) => Std9::X,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_tables_match_verilog() {
        use Logic::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(Z.and(One), X, "z behaves as x");
        assert_eq!(One.xor(Zero), One);
        assert_eq!(One.xor(X), X);
    }

    #[test]
    fn plane_encoding_round_trips() {
        for l in Logic::ALL {
            let (v, u) = l.planes();
            assert_eq!(Logic::from_planes(v, u), l);
        }
    }

    #[test]
    fn value_numeric_round_trip() {
        let v = Value::from_u64(0b1010, 4);
        assert_eq!(v.to_string_msb(), "1010");
        assert_eq!(v.as_u64(), Some(10));
        assert_eq!(v.get(1), Logic::One);
        assert_eq!(v.get(9), Logic::X, "out of range reads x");
    }

    #[test]
    fn string_parsing_handles_unknowns() {
        let v = Value::from_str_msb("1x0z").unwrap();
        assert!(v.has_unknown());
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.get(3), Logic::One);
        assert_eq!(v.get(0), Logic::Z);
        assert!(Value::from_str_msb("10q1").is_none());
        assert!(Value::from_str_msb("").is_none());
    }

    #[test]
    fn truthiness_is_three_valued() {
        assert_eq!(Value::from_u64(4, 3).truthy(), Some(true));
        assert_eq!(Value::from_u64(0, 3).truthy(), Some(false));
        assert_eq!(Value::from_str_msb("0x0").unwrap().truthy(), None);
        assert_eq!(Value::from_str_msb("1x0").unwrap().truthy(), Some(true));
        // A lone z is unknown, not true.
        assert_eq!(Value::bit(Logic::Z).truthy(), None);
    }

    #[test]
    fn logic_eq_three_valued() {
        let a = Value::from_u64(5, 3);
        assert_eq!(a.logic_eq(&Value::from_u64(5, 3)), Logic::One);
        assert_eq!(a.logic_eq(&Value::from_u64(4, 3)), Logic::Zero);
        assert_eq!(a.logic_eq(&Value::from_str_msb("1x1").unwrap()), Logic::X);
        // A known mismatch beats an unknown elsewhere.
        assert_eq!(
            Value::from_str_msb("0x1")
                .unwrap()
                .logic_eq(&Value::from_str_msb("1x1").unwrap()),
            Logic::Zero
        );
    }

    #[test]
    fn widths_extend_with_zero() {
        let a = Value::from_u64(1, 1);
        let b = Value::from_u64(0b10, 2);
        assert_eq!(a.or(&b).as_u64(), Some(0b11));
        assert_eq!(a.and(&b).as_u64(), Some(0));
    }

    #[test]
    fn reductions() {
        assert_eq!(Value::from_u64(0b111, 3).reduce_and(), Logic::One);
        assert_eq!(Value::from_u64(0b110, 3).reduce_and(), Logic::Zero);
        assert_eq!(Value::from_u64(0, 3).reduce_or(), Logic::Zero);
        assert_eq!(Value::from_str_msb("x1").unwrap().reduce_or(), Logic::One);
    }

    #[test]
    fn merge_keeps_agreement() {
        let a = Value::from_u64(0b1100, 4);
        let b = Value::from_u64(0b1010, 4);
        assert_eq!(a.merge(&b).to_string_msb(), "1xx0");
        // z only merges with z.
        let z = Value::from_str_msb("z1").unwrap();
        let x = Value::from_str_msb("x1").unwrap();
        assert_eq!(z.merge(&z).to_string_msb(), "z1");
        assert_eq!(z.merge(&x).to_string_msb(), "x1");
    }

    #[test]
    fn wide_values_cross_the_word_boundary() {
        // 65-bit value with the top bit set: exercises the Wide repr.
        let s = format!("1{}", "0".repeat(64));
        let v = Value::from_str_msb(&s).unwrap();
        assert_eq!(v.width(), 65);
        assert_eq!(v.get(64), Logic::One);
        assert_eq!(v.get(63), Logic::Zero);
        assert_eq!(v.as_u64(), None, "wider than 64 bits");
        assert_eq!(v.truthy(), Some(true));
        assert_eq!(v.not().get(64), Logic::Zero);
        assert_eq!(v.not().get(0), Logic::One);
        // Resize down to 64 collapses to the inline repr and drops the
        // top bit.
        let narrow = v.resized(64);
        assert_eq!(narrow.as_u64(), Some(0));
        assert_eq!(narrow, Value::from_u64(0, 64));
    }

    #[test]
    fn equality_is_semantic_across_resize_paths() {
        // Same 64-bit value reached inline vs truncated from wide.
        let wide = Value::from_str_msb(&format!("x{}", "1".repeat(64)))
            .unwrap()
            .resized(64);
        let small = Value::from_u64(u64::MAX, 64);
        assert_eq!(wide, small);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&wide), h(&small));
    }

    #[test]
    fn concat_packs_msb_first() {
        let a = Value::from_u64(0b1, 1);
        let b = Value::from_u64(0b0010, 4);
        let c = Value::concat_msb(&[&a, &b]);
        assert_eq!(c.to_string_msb(), "10010");
        // Crossing the word boundary: 1'b1 on top of 64 zeros.
        let wide = Value::concat_msb(&[&a, &Value::from_u64(0, 64)]);
        assert_eq!(wide.width(), 65);
        assert_eq!(wide.get(64), Logic::One);
        // Unknowns travel through concatenation.
        let withx = Value::concat_msb(&[&Value::bit(Logic::X), &a]);
        assert_eq!(withx.to_string_msb(), "x1");
    }

    #[test]
    fn reference_mode_matches_packed_ops() {
        let a = Value::from_str_msb("10xz01").unwrap();
        let b = Value::from_str_msb("zx1010").unwrap();
        let packed = (
            a.and(&b),
            a.or(&b),
            a.xor(&b),
            a.not(),
            a.merge(&b),
            a.logic_eq(&b),
            a.reduce_and(),
            a.reduce_or(),
        );
        let guard = reference::force();
        let per_bit = (
            a.and(&b),
            a.or(&b),
            a.xor(&b),
            a.not(),
            a.merge(&b),
            a.logic_eq(&b),
            a.reduce_and(),
            a.reduce_or(),
        );
        drop(guard);
        assert_eq!(packed, per_bit);
        assert!(!reference::active(), "guard restored the packed path");
    }

    #[test]
    fn std9_translations_differ_exactly_on_weak_levels() {
        for s in [
            Std9::U,
            Std9::X,
            Std9::Zero,
            Std9::One,
            Std9::Z,
            Std9::W,
            Std9::L,
            Std9::H,
            Std9::DontCare,
        ] {
            let full = s.to_logic_full();
            let naive = s.to_logic_naive();
            match s {
                Std9::L | Std9::H => {
                    assert_ne!(full, naive, "{s:?} must be lost by the naive table");
                    assert_eq!(naive, Logic::X);
                }
                _ => assert_eq!(full, naive),
            }
        }
    }

    #[test]
    fn std9_char_round_trip() {
        for c in ['U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'] {
            assert_eq!(Std9::from_char(c).unwrap().to_char(), c);
        }
        assert!(Std9::from_char('q').is_none());
    }
}
