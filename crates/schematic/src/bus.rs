//! Net-name and bus-syntax grammar.
//!
//! The paper's Section 2 "Bus syntax translation" issue: Viewlogic allows
//! *condensed* syntax (`A0` ≡ bit 0 of bus `A<0:15>`) and postfix
//! indicators (`myBus<0:15>-`), while Cadence requires explicit syntax
//! (`A<0>`) and understands neither condensation nor postfixes. The two
//! dialects here — [`BusSyntax::Viewstar`] and [`BusSyntax::Cascade`] —
//! reproduce exactly that asymmetry.

use std::collections::BTreeSet;
use std::fmt;

use interop_core::intern::IStr;

/// A structured net reference: a scalar, one bit of a bus, or a bus range.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetExpr {
    /// A scalar net such as `CLK`.
    Scalar(String),
    /// A single bus bit such as `A<3>`.
    Bit(String, i64),
    /// A bus slice `base<from:to>`; either endpoint may be larger.
    Range(String, i64, i64),
}

impl NetExpr {
    /// The base identifier (`A` for `A<0:15>`).
    pub fn base(&self) -> &str {
        match self {
            NetExpr::Scalar(s) | NetExpr::Bit(s, _) | NetExpr::Range(s, _, _) => s,
        }
    }

    /// Number of individual bits this expression denotes.
    pub fn bit_count(&self) -> usize {
        match self {
            NetExpr::Scalar(_) | NetExpr::Bit(_, _) => 1,
            NetExpr::Range(_, a, b) => ((a - b).unsigned_abs() + 1) as usize,
        }
    }

    /// Expands to the individual bits, in declaration order. A scalar
    /// expands to itself.
    ///
    /// ```
    /// use schematic::bus::NetExpr;
    /// let bits = NetExpr::Range("A".into(), 1, 0).bits();
    /// assert_eq!(bits, vec![NetExpr::Bit("A".into(), 1), NetExpr::Bit("A".into(), 0)]);
    /// ```
    pub fn bits(&self) -> Vec<NetExpr> {
        match self {
            NetExpr::Scalar(_) | NetExpr::Bit(_, _) => vec![self.clone()],
            NetExpr::Range(b, from, to) => {
                let step: i64 = if from <= to { 1 } else { -1 };
                let mut out = Vec::with_capacity(self.bit_count());
                let mut i = *from;
                loop {
                    out.push(NetExpr::Bit(b.clone(), i));
                    if i == *to {
                        break;
                    }
                    i += step;
                }
                out
            }
        }
    }
}

/// A parsed net name: the structured expression plus an optional Viewstar
/// postfix indicator character.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetName {
    /// The structured reference.
    pub expr: NetExpr,
    /// A trailing indicator such as `-` (active low) permitted by the
    /// Viewstar grammar only. `None` for Cascade names.
    pub postfix: Option<char>,
}

impl NetName {
    /// A scalar net with no postfix.
    pub fn scalar(name: impl Into<String>) -> Self {
        NetName {
            expr: NetExpr::Scalar(name.into()),
            postfix: None,
        }
    }

    /// One bit of a bus.
    pub fn bit(base: impl Into<String>, idx: i64) -> Self {
        NetName {
            expr: NetExpr::Bit(base.into(), idx),
            postfix: None,
        }
    }

    /// A bus range.
    pub fn range(base: impl Into<String>, from: i64, to: i64) -> Self {
        NetName {
            expr: NetExpr::Range(base.into(), from, to),
            postfix: None,
        }
    }

    /// Returns the same name with a postfix indicator attached.
    pub fn with_postfix(mut self, c: char) -> Self {
        self.postfix = Some(c);
        self
    }
}

impl fmt::Display for NetName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&BusSyntax::Viewstar.format(self))
    }
}

/// Error parsing a net name under a dialect grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNetError {
    /// The name was empty or contained no identifier.
    Empty,
    /// Malformed `<...>` index or range.
    BadIndex(String),
    /// A postfix indicator appeared under a grammar that forbids them.
    PostfixForbidden(String),
    /// Characters invalid in an identifier under this grammar.
    BadIdentifier(String),
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNetError::Empty => write!(f, "empty net name"),
            ParseNetError::BadIndex(s) => write!(f, "malformed bus index in `{s}`"),
            ParseNetError::PostfixForbidden(s) => {
                write!(f, "postfix indicator not allowed in this dialect: `{s}`")
            }
            ParseNetError::BadIdentifier(s) => write!(f, "invalid identifier `{s}`"),
        }
    }
}

impl std::error::Error for ParseNetError {}

/// Postfix indicator characters the Viewstar grammar accepts.
pub const VIEWSTAR_POSTFIXES: &[char] = &['-', '*', '+', '~'];

/// The two bus-syntax grammars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusSyntax {
    /// Condensed syntax allowed, postfix indicators allowed.
    Viewstar,
    /// Explicit syntax only; `A0` is a scalar distinct from `A<0>`.
    Cascade,
}

impl BusSyntax {
    /// Parses `text` as a net name under this grammar.
    ///
    /// `known_buses` supplies scope context for Viewstar's condensed
    /// syntax: `A0` resolves to `A<0>` only when a bus with base `A` is in
    /// scope; otherwise it stays the scalar `A0`. Cascade ignores the set.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNetError`] for empty names, malformed ranges,
    /// identifiers containing reserved punctuation, or (Cascade only)
    /// postfix indicators.
    pub fn parse(self, text: &str, known_buses: &BTreeSet<IStr>) -> Result<NetName, ParseNetError> {
        let (expr, postfix) = self.parse_ref(text, known_buses)?;
        Ok(NetName {
            expr: expr.into_owned(),
            postfix,
        })
    }

    /// [`Self::parse`] without copying: the expression borrows its base
    /// from `text`, and only an error allocates.
    pub(crate) fn parse_ref<'a>(
        self,
        text: &'a str,
        known_buses: &BTreeSet<IStr>,
    ) -> Result<(NetExprRef<'a>, Option<char>), ParseNetError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(ParseNetError::Empty);
        }

        // Split off a postfix indicator if the grammar permits one.
        let (body, postfix) = match text.chars().last() {
            Some(c) if VIEWSTAR_POSTFIXES.contains(&c) => match self {
                BusSyntax::Viewstar => (&text[..text.len() - c.len_utf8()], Some(c)),
                BusSyntax::Cascade => {
                    return Err(ParseNetError::PostfixForbidden(text.to_string()))
                }
            },
            _ => (text, None),
        };
        if body.is_empty() {
            return Err(ParseNetError::Empty);
        }

        let expr = if let Some(open) = body.find('<') {
            let Some(stripped) = body.ends_with('>').then(|| &body[open + 1..body.len() - 1])
            else {
                return Err(ParseNetError::BadIndex(body.to_string()));
            };
            let base = &body[..open];
            Self::check_ident(base)?;
            if let Some((a, b)) = stripped.split_once(':') {
                let from = a
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| ParseNetError::BadIndex(body.to_string()))?;
                let to = b
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| ParseNetError::BadIndex(body.to_string()))?;
                NetExprRef::Range(base, from, to)
            } else {
                let idx = stripped
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| ParseNetError::BadIndex(body.to_string()))?;
                NetExprRef::Bit(base, idx)
            }
        } else {
            Self::check_ident(body)?;
            match self {
                BusSyntax::Viewstar => Self::condense(body, known_buses),
                BusSyntax::Cascade => NetExprRef::Scalar(body),
            }
        };

        Ok((expr, postfix))
    }

    /// Formats a net name under this grammar.
    ///
    /// Under Cascade, a postfix indicator is folded into the identifier
    /// (dropped from display) because the grammar cannot express it — the
    /// migration engine is responsible for renaming before formatting.
    pub fn format(self, name: &NetName) -> String {
        let mut s = match &name.expr {
            NetExpr::Scalar(b) => b.clone(),
            NetExpr::Bit(b, i) => format!("{b}<{i}>"),
            NetExpr::Range(b, f, t) => format!("{b}<{f}:{t}>"),
        };
        if let (BusSyntax::Viewstar, Some(c)) = (self, name.postfix) {
            s.push(c);
        }
        s
    }

    /// True when this grammar can express `name` without loss.
    pub fn can_express(self, name: &NetName) -> bool {
        match self {
            BusSyntax::Viewstar => true,
            BusSyntax::Cascade => name.postfix.is_none(),
        }
    }

    fn check_ident(s: &str) -> Result<(), ParseNetError> {
        if s.is_empty() {
            return Err(ParseNetError::Empty);
        }
        // A single trailing `!` marks a global net (the `vdd!`
        // convention) and is part of the identifier in both grammars.
        let s_body = s.strip_suffix('!').unwrap_or(s);
        if s_body.is_empty() {
            return Err(ParseNetError::BadIdentifier(s.to_string()));
        }
        let mut chars = s_body.chars();
        let first = chars.next().expect("nonempty");
        let head_ok = first.is_ascii_alphabetic() || first == '_';
        let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
        if head_ok && tail_ok {
            Ok(())
        } else {
            Err(ParseNetError::BadIdentifier(s.to_string()))
        }
    }

    /// Viewstar condensed resolution: `A0` ≡ `A<0>` when bus `A` is in
    /// scope. The digits must form a maximal numeric suffix.
    fn condense<'a>(body: &'a str, known_buses: &BTreeSet<IStr>) -> NetExprRef<'a> {
        let digits_at = body
            .char_indices()
            .rev()
            .take_while(|(_, c)| c.is_ascii_digit())
            .last()
            .map(|(i, _)| i);
        if let Some(i) = digits_at {
            if i > 0 {
                let (base, digits) = body.split_at(i);
                if known_buses.contains(base) {
                    if let Ok(idx) = digits.parse::<i64>() {
                        return NetExprRef::Bit(base, idx);
                    }
                }
            }
        }
        NetExprRef::Scalar(body)
    }
}

/// A [`NetExpr`] whose base borrows from the text it was parsed from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetExprRef<'a> {
    Scalar(&'a str),
    Bit(&'a str, i64),
    Range(&'a str, i64, i64),
}

impl NetExprRef<'_> {
    fn into_owned(self) -> NetExpr {
        match self {
            NetExprRef::Scalar(b) => NetExpr::Scalar(b.to_string()),
            NetExprRef::Bit(b, i) => NetExpr::Bit(b.to_string(), i),
            NetExprRef::Range(b, f, t) => NetExpr::Range(b.to_string(), f, t),
        }
    }
}

/// Writes the explicit form: what [`BusSyntax::Cascade`] formats for
/// the same expression with no postfix. A scalar is its text as it is.
impl fmt::Display for NetExprRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NetExprRef::Scalar(b) => f.write_str(b),
            NetExprRef::Bit(b, i) => write!(f, "{b}<{i}>"),
            NetExprRef::Range(b, from, to) => write!(f, "{b}<{from}:{to}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buses(names: &[&str]) -> BTreeSet<IStr> {
        names.iter().map(|s| IStr::from(*s)).collect()
    }

    #[test]
    fn explicit_bit_and_range_parse_in_both_dialects() {
        for syn in [BusSyntax::Viewstar, BusSyntax::Cascade] {
            let n = syn.parse("A<3>", &buses(&[])).unwrap();
            assert_eq!(n.expr, NetExpr::Bit("A".into(), 3));
            let r = syn.parse("DATA<0:15>", &buses(&[])).unwrap();
            assert_eq!(r.expr, NetExpr::Range("DATA".into(), 0, 15));
        }
    }

    #[test]
    fn condensed_syntax_resolves_only_in_viewstar_with_bus_in_scope() {
        let scope = buses(&["A"]);
        let v = BusSyntax::Viewstar.parse("A0", &scope).unwrap();
        assert_eq!(v.expr, NetExpr::Bit("A".into(), 0));
        // Without the bus in scope, A0 stays scalar.
        let v2 = BusSyntax::Viewstar.parse("A0", &buses(&[])).unwrap();
        assert_eq!(v2.expr, NetExpr::Scalar("A0".into()));
        // Cascade never condenses: A0 is a distinct scalar.
        let c = BusSyntax::Cascade.parse("A0", &scope).unwrap();
        assert_eq!(c.expr, NetExpr::Scalar("A0".into()));
    }

    #[test]
    fn postfix_indicators_only_in_viewstar() {
        let v = BusSyntax::Viewstar
            .parse("myBus<0:15>-", &buses(&[]))
            .unwrap();
        assert_eq!(v.postfix, Some('-'));
        assert_eq!(v.expr, NetExpr::Range("myBus".into(), 0, 15));
        let err = BusSyntax::Cascade
            .parse("myBus<0:15>-", &buses(&[]))
            .unwrap_err();
        assert!(matches!(err, ParseNetError::PostfixForbidden(_)));
    }

    #[test]
    fn format_round_trips() {
        let scope = buses(&["A"]);
        for text in ["CLK", "A<7>", "D<15:0>", "n_rst-"] {
            let n = BusSyntax::Viewstar.parse(text, &scope).unwrap();
            assert_eq!(BusSyntax::Viewstar.format(&n), text);
        }
    }

    #[test]
    fn range_bit_expansion_handles_both_directions() {
        let up = NetExpr::Range("A".into(), 0, 2);
        assert_eq!(
            up.bits(),
            vec![
                NetExpr::Bit("A".into(), 0),
                NetExpr::Bit("A".into(), 1),
                NetExpr::Bit("A".into(), 2)
            ]
        );
        let down = NetExpr::Range("A".into(), 2, 0);
        assert_eq!(down.bit_count(), 3);
        assert_eq!(down.bits()[0], NetExpr::Bit("A".into(), 2));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let empty = BTreeSet::new();
        assert!(BusSyntax::Cascade.parse("", &empty).is_err());
        assert!(BusSyntax::Cascade.parse("A<", &empty).is_err());
        assert!(BusSyntax::Cascade.parse("A<x>", &empty).is_err());
        assert!(BusSyntax::Cascade.parse("9net", &empty).is_err());
        assert!(BusSyntax::Viewstar.parse("-", &empty).is_err());
    }

    #[test]
    fn cascade_cannot_express_postfixed_names() {
        let n = NetName::range("b", 0, 3).with_postfix('-');
        assert!(BusSyntax::Viewstar.can_express(&n));
        assert!(!BusSyntax::Cascade.can_express(&n));
    }
}
