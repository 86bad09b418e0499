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
//! ## What allocates
//!
//! The word loops are slice kernels that read operands through borrowed
//! plane views and write into borrowed `&mut [u64]` planes; none of them
//! allocates. [`Value`]'s operators are thin wrappers over them: each
//! allocates its result once (nothing at 64 bits or below, one
//! `Box<[u64]>` of `2n` words above) and runs a kernel into it.
//! [`Value::into_resized`] moves a value of the right width through
//! without copying it. The simulation kernel does not use the wrappers:
//! its compiled expression executor ([`crate::eval`]) runs the same
//! kernels into a preallocated register file, and a committed value is
//! copied into the signal's existing storage, so evaluating and storing
//! allocate nothing at any width.
//!
//! A per-bit implementation of every operator is retained in
//! [`mod@reference`] and can be forced for a thread with
//! [`reference::force`]; kernel-level tests pin the packed path by
//! demanding byte-identical waveforms between the two.

use std::cmp::Ordering;
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
pub(crate) fn word_count(width: usize) -> usize {
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

/// A read-only view of `width` bits held as two planes of
/// `word_count(width)` words each, canonical (every bit at or above
/// `width` zero). A [`Value`] lends one out, and so does a register of
/// the compiled expression executor ([`crate::eval`]). The word
/// kernels read operands through it, so an operand is never copied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bits<'a> {
    val: &'a [u64],
    unk: &'a [u64],
    width: usize,
}

impl<'a> Bits<'a> {
    /// Views `words` — the val words followed by as many unknown words
    /// — as `width` bits.
    #[inline]
    pub(crate) fn from_words(words: &'a [u64], width: usize) -> Bits<'a> {
        let (val, unk) = words.split_at(words.len() / 2);
        Bits { val, unk, width }
    }
}

impl Bits<'_> {
    /// A known zero of `width` bits, backed by no storage.
    fn zero(width: usize) -> Bits<'static> {
        Bits {
            val: &[],
            unk: &[],
            width,
        }
    }

    /// Width in bits.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Where the val plane lives: tests use it to check that a read or
    /// a store made no copy.
    #[cfg(test)]
    pub(crate) fn as_ptr(&self) -> *const u64 {
        self.val.as_ptr()
    }

    /// Word `i` of both planes; words beyond storage read as known zero,
    /// which is zero extension.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> (u64, u64) {
        (
            self.val.get(i).copied().unwrap_or(0),
            self.unk.get(i).copied().unwrap_or(0),
        )
    }

    /// Bit `i` (LSB = 0); X when out of range.
    pub(crate) fn get(&self, i: usize) -> Logic {
        if i >= self.width {
            return Logic::X;
        }
        let (v, u) = self.word(i / 64);
        let b = i % 64;
        Logic::from_planes((v >> b) & 1 == 1, (u >> b) & 1 == 1)
    }

    /// True when any bit is x or z.
    pub(crate) fn has_unknown(&self) -> bool {
        self.unk.iter().any(|w| *w != 0)
    }

    /// Numeric interpretation of a fully known value of at most 64 bits.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        if self.width > 64 || self.has_unknown() {
            return None;
        }
        Some(self.word(0).0)
    }

    /// Verilog truthiness: a known 1 anywhere decides `Some(true)`; all
    /// known 0 is `Some(false)`; otherwise unknown.
    pub(crate) fn truthy(&self) -> Option<bool> {
        let mut any_unknown = false;
        for i in 0..word_count(self.width) {
            let (v, u) = self.word(i);
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

    /// Case/logic equality over zero-extended operands.
    pub(crate) fn logic_eq(&self, other: Bits<'_>) -> Logic {
        let n = word_count(self.width.max(other.width));
        let mut any_unknown = false;
        for i in 0..n {
            let (va, ua) = self.word(i);
            let (vb, ub) = other.word(i);
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
    pub(crate) fn reduce_and(&self) -> Logic {
        let n = word_count(self.width);
        let mut any_unknown = false;
        for i in 0..n {
            let (v, u) = self.word(i);
            let in_range = if i == n - 1 {
                top_mask(self.width)
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
    pub(crate) fn reduce_or(&self) -> Logic {
        match self.truthy() {
            Some(true) => Logic::One,
            Some(false) => Logic::Zero,
            None => Logic::X,
        }
    }

    /// Unsigned comparison of zero-extended operands; `None` when any
    /// bit of either is x or z.
    pub(crate) fn cmp_known(&self, other: Bits<'_>) -> Option<Ordering> {
        if self.has_unknown() || other.has_unknown() {
            return None;
        }
        let n = word_count(self.width.max(other.width));
        Some(
            (0..n)
                .rev()
                .map(|i| self.word(i).0.cmp(&other.word(i).0))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal),
        )
    }

    /// Identical width and bits: equality of canonical views, word by
    /// word. Every view compared holds all its words (only
    /// [`Bits::zero`] is shorter, and it is never compared).
    #[inline]
    fn same(&self, other: Bits<'_>) -> bool {
        // A word loop: values are a few words long, too short to pay
        // for a call to `memcmp`.
        let words = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x == y);
        self.width == other.width && words(self.val, other.val) && words(self.unk, other.unk)
    }

    /// Appends the val words, then the unknown words: the planes as a
    /// word arena stores them. Like [`Bits::same`], for full views.
    #[inline]
    pub(crate) fn append_to(&self, words: &mut Vec<u64>) {
        words.extend(self.val.iter().chain(self.unk).copied());
    }

    /// Appends the bits MSB first (`4'b10xz` as `10xz`).
    pub(crate) fn push_msb(&self, out: &mut String) {
        out.extend((0..self.width).rev().map(|i| self.get(i).to_char()));
    }

    /// The value of a fully known shift amount, saturated to
    /// `usize::MAX` when it does not fit.
    fn shift_amount(&self) -> usize {
        if (1..word_count(self.width)).any(|i| self.word(i).0 != 0) {
            return usize::MAX;
        }
        usize::try_from(self.word(0).0).unwrap_or(usize::MAX)
    }
}

/// A writable view of `width` bits as two planes of
/// `word_count(width)` words. Every writer sets all words and masks the
/// top one, so the view stays canonical, and none of them allocates:
/// these are the word kernels behind both [`Value`]'s operators and the
/// compiled expression executor.
#[derive(Debug)]
pub(crate) struct BitsMut<'a> {
    val: &'a mut [u64],
    unk: &'a mut [u64],
    width: usize,
}

impl<'a> BitsMut<'a> {
    /// Views `words` — the val words followed by as many unknown words
    /// — as `width` writable bits.
    #[inline]
    pub(crate) fn from_words(words: &'a mut [u64], width: usize) -> BitsMut<'a> {
        let (val, unk) = words.split_at_mut(words.len() / 2);
        BitsMut { val, unk, width }
    }
}

impl BitsMut<'_> {
    /// Writes word `i` of both planes from `word(i)`, called once per
    /// word in ascending order (so it may carry state, e.g. an adder's
    /// carry), then masks the top word.
    #[inline]
    fn fill(&mut self, mut word: impl FnMut(usize) -> (u64, u64)) {
        for (i, (v, u)) in self.val.iter_mut().zip(self.unk.iter_mut()).enumerate() {
            (*v, *u) = word(i);
        }
        let (n, m) = (self.val.len(), top_mask(self.width));
        self.val[n - 1] &= m;
        self.unk[n - 1] &= m;
    }

    /// Sets bit `i`; out-of-range writes are ignored.
    pub(crate) fn set(&mut self, i: usize, b: Logic) {
        if i >= self.width {
            return;
        }
        let (v, u) = b.planes();
        let (w, m) = (i / 64, 1u64 << (i % 64));
        self.val[w] = (self.val[w] & !m) | if v { m } else { 0 };
        self.unk[w] = (self.unk[w] & !m) | if u { m } else { 0 };
    }

    /// Writes a one-bit result.
    #[inline]
    pub(crate) fn set_logic(&mut self, b: Logic) {
        let (v, u) = b.planes();
        self.fill(|i| if i == 0 { (v as u64, u as u64) } else { (0, 0) });
    }

    /// Copies `a`, zero-extended or truncated to this width.
    pub(crate) fn copy(&mut self, a: Bits<'_>) {
        self.fill(|i| a.word(i));
    }

    /// Copies `a` like [`BitsMut::copy`], reporting whether any bit
    /// changed: the in-place store of a committed value.
    pub(crate) fn assign(&mut self, a: Bits<'_>) -> bool {
        let (n, m) = (self.val.len(), top_mask(self.width));
        let mut changed = false;
        for i in 0..n {
            let (mut v, mut u) = a.word(i);
            if i == n - 1 {
                v &= m;
                u &= m;
            }
            changed |= self.val[i] != v || self.unk[i] != u;
            self.val[i] = v;
            self.unk[i] = u;
        }
        changed
    }

    /// Every bit `b`.
    pub(crate) fn splat(&mut self, b: Logic) {
        let (v, u) = b.planes();
        let plane = |bit: bool| if bit { u64::MAX } else { 0 };
        self.fill(|_| (plane(v), plane(u)));
    }

    /// All x.
    pub(crate) fn unknown(&mut self) {
        self.fill(|_| (0, u64::MAX));
    }

    /// All z.
    fn high_z(&mut self) {
        self.fill(|_| (u64::MAX, u64::MAX));
    }

    /// Known zero.
    pub(crate) fn clear(&mut self) {
        self.fill(|_| (0, 0));
    }

    /// An unsigned integer, truncated or zero-extended.
    pub(crate) fn set_u64(&mut self, v: u64) {
        self.fill(|i| (if i == 0 { v } else { 0 }, 0));
    }

    /// A word-parallel gate over zero-extended operands: `f` maps
    /// `(val_a, unk_a, val_b, unk_b)` to `(val_out, unk_out)`.
    #[inline]
    fn zip(&mut self, a: Bits<'_>, b: Bits<'_>, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) {
        self.fill(|i| {
            let ((va, ua), (vb, ub)) = (a.word(i), b.word(i));
            f(va, ua, vb, ub)
        });
    }

    /// Bitwise AND.
    pub(crate) fn and(&mut self, a: Bits<'_>, b: Bits<'_>) {
        self.zip(a, b, |va, ua, vb, ub| {
            // Known 1 where both known-1; known 0 where either known-0;
            // X everywhere else (z collapses to x through the unknown
            // plane).
            let one = (va & !ua) & (vb & !ub);
            let zero = (!va & !ua) | (!vb & !ub);
            (one, !(one | zero))
        });
    }

    /// Bitwise OR.
    pub(crate) fn or(&mut self, a: Bits<'_>, b: Bits<'_>) {
        self.zip(a, b, |va, ua, vb, ub| {
            let one = (va & !ua) | (vb & !ub);
            let zero = (!va & !ua) & (!vb & !ub);
            (one, !(one | zero))
        });
    }

    /// Bitwise XOR.
    pub(crate) fn xor(&mut self, a: Bits<'_>, b: Bits<'_>) {
        self.zip(a, b, |va, ua, vb, ub| {
            let known = !ua & !ub;
            ((va ^ vb) & known, !known)
        });
    }

    /// The unknown-condition merge: bits identical in both planes
    /// survive, disagreement is X (val 0, unknown 1).
    pub(crate) fn merge(&mut self, a: Bits<'_>, b: Bits<'_>) {
        self.zip(a, b, |va, ua, vb, ub| {
            let same = !((va ^ vb) | (ua ^ ub));
            (va & same, (ua & same) | !same)
        });
    }

    /// Bitwise NOT.
    pub(crate) fn not(&mut self, a: Bits<'_>) {
        self.fill(|i| {
            let (v, u) = a.word(i);
            (!v & !u, u)
        });
    }

    /// A word-wise arithmetic op on fully known operands: `f` sees the
    /// val words in ascending order, so it may carry state. Any x or z
    /// bit in either operand makes the whole result x.
    fn arith(&mut self, a: Bits<'_>, b: Bits<'_>, mut f: impl FnMut(u64, u64) -> u64) {
        if a.has_unknown() || b.has_unknown() {
            return self.unknown();
        }
        self.fill(|i| (f(a.word(i).0, b.word(i).0), 0));
    }

    /// Addition modulo 2^width.
    pub(crate) fn add(&mut self, a: Bits<'_>, b: Bits<'_>) {
        let mut carry = false;
        self.arith(a, b, |x, y| {
            let (s, c1) = x.overflowing_add(y);
            let (s, c2) = s.overflowing_add(carry as u64);
            carry = c1 | c2;
            s
        });
    }

    /// Subtraction modulo 2^width (`a + !b + 1`).
    pub(crate) fn sub(&mut self, a: Bits<'_>, b: Bits<'_>) {
        let mut carry = true;
        self.arith(a, b, |x, y| {
            let (s, c1) = x.overflowing_add(!y);
            let (s, c2) = s.overflowing_add(carry as u64);
            carry = c1 | c2;
            s
        });
    }

    /// Two's-complement negation.
    pub(crate) fn neg(&mut self, a: Bits<'_>) {
        self.sub(Bits::zero(self.width), a);
    }

    /// Shifts `a` by a fully known `amount`; `left` picks the
    /// direction. Vacated bits fill with zero, and an x or z anywhere in
    /// either operand makes the result all-x.
    fn shift(&mut self, a: Bits<'_>, amount: Bits<'_>, left: bool) {
        if a.has_unknown() || amount.has_unknown() {
            return self.unknown();
        }
        let s = amount.shift_amount();
        if s >= self.width {
            return self.clear();
        }
        let (ws, bs) = (s / 64, s % 64);
        // Source word `i - k` (left) or `i + k` (right); words outside
        // the operand read as zero.
        let src = |i: usize, k: usize| -> u64 {
            if left {
                i.checked_sub(k).map_or(0, |j| a.word(j).0)
            } else {
                a.word(i + k).0
            }
        };
        self.fill(|i| {
            // The source word and its neighbour on the far side of the
            // shift, joined so one u128 shift moves bits across the seam.
            let (near, far) = (src(i, ws), src(i, ws + 1));
            let word = if left {
                (((u128::from(near) << 64) | u128::from(far)) << bs >> 64) as u64
            } else {
                (((u128::from(far) << 64) | u128::from(near)) >> bs) as u64
            };
            (word, 0)
        });
    }

    /// Logical left shift.
    pub(crate) fn shl(&mut self, a: Bits<'_>, amount: Bits<'_>) {
        self.shift(a, amount, true);
    }

    /// Logical right shift.
    pub(crate) fn shr(&mut self, a: Bits<'_>, amount: Bits<'_>) {
        self.shift(a, amount, false);
    }

    /// ORs `src`'s planes in starting at bit `offset`; bits landing at
    /// or above this width are dropped. Concatenation clears the
    /// destination, then blits each part at its offset.
    pub(crate) fn blit(&mut self, src: Bits<'_>, offset: usize) {
        let (shift, word0) = (offset % 64, offset / 64);
        let n = self.val.len();
        let m = top_mask(self.width);
        let mut or_word = |w: usize, v: u64, u: u64| {
            if w < n {
                let m = if w == n - 1 { m } else { u64::MAX };
                self.val[w] |= v & m;
                self.unk[w] |= u & m;
            }
        };
        for i in 0..word_count(src.width) {
            let (v, u) = src.word(i);
            or_word(word0 + i, v << shift, u << shift);
            // Bits of this source word that spill into the next
            // destination word, if any.
            let bits = (src.width - 64 * i).min(64);
            if shift + bits > 64 {
                or_word(word0 + i + 1, v >> (64 - shift), u >> (64 - shift));
            }
        }
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
    /// All-zero planes of the given width: the one allocation a wide
    /// value costs.
    fn zeros(width: usize) -> Value {
        assert!(width > 0, "zero-width value");
        let repr = if width <= 64 {
            Repr::Small { val: 0, unk: 0 }
        } else {
            Repr::Wide(vec![0u64; 2 * word_count(width)].into_boxed_slice())
        };
        Value {
            width: width as u32,
            repr,
        }
    }

    /// A fresh value of `width` bits written by one word kernel.
    #[inline]
    fn build(width: usize, write: impl FnOnce(&mut BitsMut<'_>)) -> Value {
        let mut out = Value::zeros(width);
        write(&mut out.bits_mut());
        out
    }

    /// A copy of the bits behind a view.
    pub(crate) fn from_view(bits: Bits<'_>) -> Value {
        Value::build(bits.width(), |o| o.copy(bits))
    }

    /// Borrows the planes.
    #[inline]
    pub(crate) fn bits(&self) -> Bits<'_> {
        let width = self.width();
        match &self.repr {
            Repr::Small { val, unk } => Bits {
                val: std::slice::from_ref(val),
                unk: std::slice::from_ref(unk),
                width,
            },
            Repr::Wide(words) => Bits::from_words(words, width),
        }
    }

    /// Borrows the planes for writing in place.
    #[inline]
    pub(crate) fn bits_mut(&mut self) -> BitsMut<'_> {
        let width = self.width();
        match &mut self.repr {
            Repr::Small { val, unk } => BitsMut {
                val: std::slice::from_mut(val),
                unk: std::slice::from_mut(unk),
                width,
            },
            Repr::Wide(words) => BitsMut::from_words(words, width),
        }
    }

    /// All-X value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn unknown(width: usize) -> Value {
        Value::build(width, |o| o.unknown())
    }

    /// All-Z value of the given width.
    pub fn high_z(width: usize) -> Value {
        Value::build(width, |o| o.high_z())
    }

    /// From an unsigned integer, truncated/zero-extended to `width`.
    pub fn from_u64(v: u64, width: usize) -> Value {
        Value::build(width, |o| o.set_u64(v))
    }

    /// A single-bit value.
    pub fn bit(b: Logic) -> Value {
        let (v, u) = b.planes();
        Value {
            width: 1,
            repr: Repr::Small {
                val: v as u64,
                unk: u as u64,
            },
        }
    }

    /// From a bit slice, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[Logic]) -> Value {
        Value::build(bits.len(), |o| {
            for (i, b) in bits.iter().enumerate() {
                o.set(i, *b);
            }
        })
    }

    /// From a character string, MSB first (e.g. `"10xz"`).
    pub fn from_str_msb(s: &str) -> Option<Value> {
        let bits = s
            .chars()
            .rev()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()?;
        if bits.is_empty() {
            return None;
        }
        Some(Value::from_bits(&bits))
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Bit `i` (LSB = 0); X when out of range.
    pub fn get(&self, i: usize) -> Logic {
        self.bits().get(i)
    }

    /// Sets bit `i`; out-of-range writes are ignored.
    pub fn set_bit(&mut self, i: usize, b: Logic) {
        self.bits_mut().set(i, b);
    }

    /// The bits as a vector, LSB first (materialized; the packed planes
    /// are the primary representation).
    pub fn to_bits(&self) -> Vec<Logic> {
        self.iter_bits().collect()
    }

    /// Iterates the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Logic> + '_ {
        (0..self.width()).map(|i| self.get(i))
    }

    /// Returns a copy resized to `width` (zero-extended — or truncated).
    pub fn resized(&self, width: usize) -> Value {
        if width == self.width() {
            return self.clone();
        }
        Value::build(width, |o| o.copy(self.bits()))
    }

    /// [`Value::resized`] for an owned value: moves it through untouched
    /// when the width already matches, so no copy is made.
    pub fn into_resized(self, width: usize) -> Value {
        if width == self.width() {
            self
        } else {
            self.resized(width)
        }
    }

    /// True when any bit is x or z.
    pub fn has_unknown(&self) -> bool {
        self.bits().has_unknown()
    }

    /// Numeric interpretation, if fully known.
    pub fn as_u64(&self) -> Option<u64> {
        if reference::active() {
            return reference::as_u64(self);
        }
        self.bits().as_u64()
    }

    /// Verilog truthiness: `Some(true)` when any bit is 1,
    /// `Some(false)` when all bits are 0, `None` (unknown) otherwise.
    pub fn truthy(&self) -> Option<bool> {
        if reference::active() {
            return reference::truthy(self);
        }
        self.bits().truthy()
    }

    /// A binary word kernel at the wider operand's width.
    #[inline]
    fn binary(
        &self,
        other: &Value,
        op: impl FnOnce(&mut BitsMut<'_>, Bits<'_>, Bits<'_>),
    ) -> Value {
        Value::build(self.width().max(other.width()), |o| {
            op(o, self.bits(), other.bits())
        })
    }

    /// Bitwise AND (widths zero-extended to match).
    pub fn and(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::and);
        }
        self.binary(other, |o, a, b| o.and(a, b))
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::or);
        }
        self.binary(other, |o, a, b| o.or(a, b))
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, Logic::xor);
        }
        self.binary(other, |o, a, b| o.xor(a, b))
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Value {
        if reference::active() {
            return reference::map(self, Logic::not);
        }
        Value::build(self.width(), |o| o.not(self.bits()))
    }

    /// Case/logic equality returning a 1-bit value: `1` when equal, `0`
    /// when a known bit differs, `x` when unknowns block the decision.
    pub fn logic_eq(&self, other: &Value) -> Logic {
        if reference::active() {
            return reference::logic_eq(self, other);
        }
        self.bits().logic_eq(other.bits())
    }

    /// Reduction AND.
    pub fn reduce_and(&self) -> Logic {
        if reference::active() {
            return self.iter_bits().fold(Logic::One, Logic::and);
        }
        self.bits().reduce_and()
    }

    /// Reduction OR.
    pub fn reduce_or(&self) -> Logic {
        if reference::active() {
            return self.iter_bits().fold(Logic::Zero, Logic::or);
        }
        self.bits().reduce_or()
    }

    /// The conditional-merge used when a ternary condition is unknown:
    /// positions where both arms agree keep their value, others go X.
    pub fn merge(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::zip(self, other, |a, b| if a == b { a } else { Logic::X });
        }
        self.binary(other, |o, a, b| o.merge(a, b))
    }

    /// Addition modulo 2^w, `w` the wider operand's width (Verilog's
    /// truncation); all-x when any operand bit is x or z.
    pub fn add(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::add(self, other, false);
        }
        self.binary(other, |o, a, b| o.add(a, b))
    }

    /// Subtraction modulo 2^w (`a + !b + 1`), `w` as for
    /// [`Value::add`]; all-x when any operand bit is x or z.
    pub fn sub(&self, other: &Value) -> Value {
        if reference::active() {
            return reference::add(self, other, true);
        }
        self.binary(other, |o, a, b| o.sub(a, b))
    }

    /// Two's-complement negation at this value's width; all-x when any
    /// bit is x or z.
    pub fn neg(&self) -> Value {
        if reference::active() {
            return reference::add(&Value::from_u64(0, self.width()), self, true);
        }
        Value::build(self.width(), |o| o.neg(self.bits()))
    }

    /// Logical left shift by `amount`, at the wider operand's width.
    /// Vacated bits fill with zero; an x or z anywhere in either operand
    /// makes the result all-x.
    pub fn shl(&self, amount: &Value) -> Value {
        if reference::active() {
            return reference::shift(self, amount, true);
        }
        self.binary(amount, |o, a, b| o.shl(a, b))
    }

    /// Logical right shift by `amount`, at the wider operand's width.
    pub fn shr(&self, amount: &Value) -> Value {
        if reference::active() {
            return reference::shift(self, amount, false);
        }
        self.binary(amount, |o, a, b| o.shr(a, b))
    }

    /// Unsigned comparison of zero-extended operands; `None` when any
    /// bit of either is x or z.
    pub fn cmp_known(&self, other: &Value) -> Option<Ordering> {
        if reference::active() {
            return reference::cmp_known(self, other);
        }
        self.bits().cmp_known(other.bits())
    }

    /// Concatenation, MSB-first operand order (the first item occupies
    /// the top bits), matching Verilog `{a, b}`. Items are read by
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn concat_msb<V: AsRef<Value>>(items: &[V]) -> Value {
        if reference::active() {
            let bits: Vec<Logic> = items
                .iter()
                .rev()
                .flat_map(|v| v.as_ref().iter_bits())
                .collect();
            return Value::from_bits(&bits);
        }
        let width: usize = items.iter().map(|v| v.as_ref().width()).sum();
        Value::build(width, |o| {
            // Walk from the last operand (lowest bits) upward.
            let mut offset = 0;
            for item in items.iter().rev() {
                o.blit(item.as_ref().bits(), offset);
                offset += item.as_ref().width();
            }
        })
    }

    /// MSB-first rendering (`4'b10xz` prints as `10xz`).
    pub fn to_string_msb(&self) -> String {
        ValueRef::from(self).to_string_msb()
    }
}

/// A borrowed logic vector: `width` bits held elsewhere — in a
/// waveform's word arena, a [`History`](crate::kernel::History) or a
/// [`Value`] — read in place. Equality is semantic, as for [`Value`]:
/// the same width and the same bits.
#[derive(Clone, Copy)]
pub struct ValueRef<'a>(Bits<'a>);

impl<'a> ValueRef<'a> {
    /// Views canonical planes.
    #[inline]
    pub(crate) fn new(bits: Bits<'a>) -> ValueRef<'a> {
        ValueRef(bits)
    }

    /// The planes behind the view.
    #[inline]
    pub(crate) fn bits(self) -> Bits<'a> {
        self.0
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.0.width()
    }

    /// Bit `i` (LSB = 0); X when out of range.
    pub fn get(&self, i: usize) -> Logic {
        self.0.get(i)
    }

    /// MSB-first rendering (`4'b10xz` prints as `10xz`).
    pub fn to_string_msb(&self) -> String {
        let mut out = String::with_capacity(self.width());
        self.0.push_msb(&mut out);
        out
    }

    /// An owned copy.
    pub fn to_value(&self) -> Value {
        Value::from_view(self.0)
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(value: &'a Value) -> ValueRef<'a> {
        ValueRef(value.bits())
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &ValueRef<'_>) -> bool {
        self.0.same(other.0)
    }
}

impl Eq for ValueRef<'_> {}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        self.0.same(other.bits())
    }
}

impl PartialEq<ValueRef<'_>> for Value {
    fn eq(&self, other: &ValueRef<'_>) -> bool {
        self.bits().same(other.0)
    }
}

impl fmt::Debug for ValueRef<'_> {
    /// Verilog literal form: `4'b10xz`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width(), self.to_string_msb())
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_msb())
    }
}

impl AsRef<Value> for Value {
    fn as_ref(&self) -> &Value {
        self
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_msb())
    }
}

/// The retained per-bit reference path.
///
/// Every [`Value`] operator — the truth-table ops, the reductions,
/// truthiness, the arithmetic, shifts, comparisons and concatenation —
/// checks a thread-local flag and, while [`reference::force`] is active
/// on the calling thread, routes through a per-bit implementation over
/// [`Logic`] values instead of the plane arithmetic. The kernel's
/// expression executor checks the flag once per settle and then runs
/// every instruction through those operators. Tests use this to demand
/// byte-identical waveforms from the two paths; benches use it as the
/// baseline for the packed speedup.
pub mod reference {
    use super::{Logic, Value};
    use std::cell::Cell;
    use std::cmp::Ordering;

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
    /// operators on the current thread until the guard drops.
    pub fn force() -> Guard {
        let prev = FORCED.with(|f| f.replace(true));
        Guard { prev }
    }

    /// Bit `i` of `v` zero-extended.
    fn bit(v: &Value, i: usize) -> Logic {
        if i < v.width() {
            v.get(i)
        } else {
            Logic::Zero
        }
    }

    fn known(v: &Value) -> bool {
        v.iter_bits().all(|b| !b.is_unknown())
    }

    fn from_bools(w: usize, f: impl Fn(usize) -> bool) -> Value {
        let bits: Vec<Logic> = (0..w)
            .map(|i| if f(i) { Logic::One } else { Logic::Zero })
            .collect();
        Value::from_bits(&bits)
    }

    /// Per-bit zip over zero-extended operands.
    pub(super) fn zip(a: &Value, b: &Value, f: fn(Logic, Logic) -> Logic) -> Value {
        let w = a.width().max(b.width());
        let bits: Vec<Logic> = (0..w).map(|i| f(bit(a, i), bit(b, i))).collect();
        Value::from_bits(&bits)
    }

    /// Per-bit map.
    pub(super) fn map(a: &Value, f: fn(Logic) -> Logic) -> Value {
        Value::from_bits(&a.iter_bits().map(f).collect::<Vec<_>>())
    }

    /// Per-bit case equality.
    pub(super) fn logic_eq(a: &Value, b: &Value) -> Logic {
        let mut unknown = false;
        for i in 0..a.width().max(b.width()) {
            let (x, y) = (bit(a, i), bit(b, i));
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

    /// Per-bit truthiness.
    pub(super) fn truthy(a: &Value) -> Option<bool> {
        if a.iter_bits().any(|b| b == Logic::One) {
            Some(true)
        } else if known(a) {
            Some(false)
        } else {
            None
        }
    }

    /// Per-bit numeric reading: `None` for unknowns or above 64 bits.
    pub(super) fn as_u64(a: &Value) -> Option<u64> {
        if a.width() > 64 || !known(a) {
            return None;
        }
        Some(
            a.iter_bits()
                .enumerate()
                .fold(0, |acc, (i, b)| acc | (u64::from(b == Logic::One) << i)),
        )
    }

    /// Ripple-carry `a + b` (or `a - b` as `a + !b + 1` when
    /// `subtract`) at the wider width; all-x on any unknown bit.
    pub(super) fn add(a: &Value, b: &Value, subtract: bool) -> Value {
        let w = a.width().max(b.width());
        if !known(a) || !known(b) {
            return Value::from_bits(&vec![Logic::X; w]);
        }
        let mut carry = subtract;
        let sum: Vec<bool> = (0..w)
            .map(|i| {
                let x = bit(a, i) == Logic::One;
                let y = (bit(b, i) == Logic::One) != subtract;
                let s = x ^ y ^ carry;
                carry = (x & y) | (carry & (x ^ y));
                s
            })
            .collect();
        from_bools(w, |i| sum[i])
    }

    /// Per-bit logical shift at the wider width; all-x on any unknown.
    pub(super) fn shift(a: &Value, amount: &Value, left: bool) -> Value {
        let w = a.width().max(amount.width());
        if !known(a) || !known(amount) {
            return Value::from_bits(&vec![Logic::X; w]);
        }
        // The amount, `None` when it does not fit a `usize`.
        let s = amount
            .iter_bits()
            .enumerate()
            .filter(|(_, b)| *b == Logic::One)
            .try_fold(0usize, |acc, (i, _)| {
                u32::try_from(i)
                    .ok()
                    .and_then(|i| 1usize.checked_shl(i))
                    .map(|m| acc | m)
            });
        from_bools(w, |i| {
            let src = match s {
                Some(s) if left => i.checked_sub(s),
                Some(s) => i.checked_add(s),
                None => None,
            };
            src.is_some_and(|j| bit(a, j) == Logic::One)
        })
    }

    /// Per-bit unsigned comparison, most significant bit first.
    pub(super) fn cmp_known(a: &Value, b: &Value) -> Option<Ordering> {
        if !known(a) || !known(b) {
            return None;
        }
        Some(
            (0..a.width().max(b.width()))
                .rev()
                .map(|i| bit(a, i).cmp(&bit(b, i)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal),
        )
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

    /// Test helpers: a fully known value from / to a `u128`.
    fn v128(x: u128, w: usize) -> Value {
        let bits: Vec<Logic> = (0..w)
            .map(|i| {
                if (x >> i) & 1 == 1 {
                    Logic::One
                } else {
                    Logic::Zero
                }
            })
            .collect();
        Value::from_bits(&bits)
    }

    fn mask128(w: usize) -> u128 {
        if w >= 128 {
            u128::MAX
        } else {
            (1u128 << w) - 1
        }
    }

    #[test]
    fn wide_arithmetic_matches_u128() {
        let m70 = mask128(70);
        let cases: [(usize, u128, u128); 8] = [
            (70, 0, 1),
            (70, m70, 1),                // wraps to zero
            (70, u64::MAX as u128, 1),   // carry across the word boundary
            (128, u128::MAX, u128::MAX), // carry out of the top word
            (100, 5, 7),                 // borrow through every word
            (65, 1 << 64, 3),
            (128, 1 << 64, 1), // borrow across the word boundary
            (
                128,
                0x1234_5678_9abc_def0_0fed_cba9_8765_4321,
                0xffff_0000_ffff_0000_1111,
            ),
        ];
        for (w, a, b) in cases {
            let (va, vb) = (v128(a, w), v128(b, w));
            let m = mask128(w);
            assert_eq!(
                va.add(&vb),
                v128(a.wrapping_add(b) & m, w),
                "{a:#x} + {b:#x} @{w}"
            );
            assert_eq!(
                va.sub(&vb),
                v128(a.wrapping_sub(b) & m, w),
                "{a:#x} - {b:#x} @{w}"
            );
            assert_eq!(va.neg(), v128(a.wrapping_neg() & m, w), "-{a:#x} @{w}");
            assert_eq!(va.cmp_known(&vb), Some(a.cmp(&b)), "{a:#x} <=> {b:#x} @{w}");
        }
        // Operands of different widths zero-extend to the wider one.
        let narrow = Value::from_u64(1, 3);
        assert_eq!(v128(m70, 70).add(&narrow), Value::from_u64(0, 70));
        assert_eq!(narrow.sub(&v128(2, 70)), v128(m70, 70));
        assert_eq!(
            narrow.cmp_known(&v128(1 << 66, 70)),
            Some(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn wide_shifts_match_u128() {
        let x = 0x8000_0000_0000_0001_c000_0000_0000_0003u128;
        for w in [70usize, 128] {
            let v = v128(x & mask128(w), w);
            for s in [0usize, 1, 5, 63, 64, 65, 69, 70, 127, 128, 200] {
                let amount = Value::from_u64(s as u64, 8);
                let (l, r) = if s >= w {
                    (0, 0)
                } else {
                    ((x << s) & mask128(w), (x & mask128(w)) >> s)
                };
                assert_eq!(v.shl(&amount), v128(l, w), "{x:#x} << {s} @{w}");
                assert_eq!(v.shr(&amount), v128(r, w), "{x:#x} >> {s} @{w}");
            }
        }
        // A shift amount wider than one word that does not fit shifts
        // everything out.
        let huge = v128(1 << 64, 70);
        assert_eq!(Value::from_u64(1, 8).shl(&huge), Value::from_u64(0, 70));
    }

    #[test]
    fn wide_arithmetic_on_unknowns_is_all_x() {
        let mut a = v128(7, 70);
        a.set_bit(68, Logic::Z);
        let b = v128(1, 70);
        for r in [a.add(&b), b.sub(&a), a.neg(), a.shl(&b), b.shr(&a)] {
            assert_eq!(r, Value::unknown(70));
        }
        assert_eq!(a.cmp_known(&b), None);
        assert_eq!(b.cmp_known(&a), None);
    }

    #[test]
    fn one_allocation_constructors_are_canonical() {
        // Every wide constructor masks the top word, so equality and
        // hashing stay semantic whichever path built the value.
        for w in [65usize, 70, 128, 140, 280] {
            let via_bits = Value::from_bits(&vec![Logic::X; w]);
            assert_eq!(Value::unknown(w), via_bits, "unknown @{w}");
            assert_eq!(Value::high_z(w), Value::from_bits(&vec![Logic::Z; w]));
            assert_eq!(
                Value::from_u64(0, w).not(),
                Value::from_bits(&vec![Logic::One; w])
            );
            assert_eq!(
                Value::unknown(w).resized(w + 3).resized(w),
                Value::unknown(w)
            );
            assert_eq!(Value::high_z(w).into_resized(64), Value::high_z(64));
            assert_eq!(Value::high_z(w).into_resized(w), Value::high_z(w));
        }
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
