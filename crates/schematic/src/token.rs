//! The token grammar shared by the line-oriented formats, Viewstar and
//! the neutral interchange form.
//!
//! A line is a sequence of tokens separated by whitespace (any Unicode
//! whitespace). A token is either bare (it runs to the next whitespace)
//! or quoted: `"` opens it, `""` inside stands for one `"`, and the next
//! lone `"` or the end of the line closes it. Writers quote a text that
//! is empty or contains a space or a `"`.
//!
//! The reader borrows: [`tokenize_into`] fills a reused vector with
//! slices of the line, and copies only a quoted token that contains a
//! `""` escape. The writers' quoting adapters format in place.

use std::borrow::Cow;
use std::fmt;

use crate::property::PropValue;

/// Splits `line` into its tokens, replacing the contents of `out`.
///
/// Tokens borrow from `line`, except a quoted token with a `""` escape,
/// which is unescaped into its own `String`. The scan is bytewise; a
/// non-ASCII character is decoded only to ask whether it is whitespace.
///
/// ```
/// use schematic::token::tokenize_into;
///
/// let mut toks = Vec::new();
/// tokenize_into("IPROP \"I 1\" model \"say \"\"hi\"\"\"", &mut toks);
/// assert_eq!(toks, ["IPROP", "I 1", "model", "say \"hi\""]);
/// ```
pub fn tokenize_into<'a>(line: &'a str, out: &mut Vec<Cow<'a, str>>) {
    out.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            i = quoted(line, i + 1, out);
            continue;
        }
        let (space, len) = space_at(line, i);
        if space {
            i += len;
            continue;
        }
        let start = i;
        i += len;
        while i < bytes.len() {
            let b = bytes[i];
            // Every ASCII whitespace byte is at most b' '.
            if b > b' ' && b.is_ascii() {
                i += 1;
                continue;
            }
            let (space, len) = space_at(line, i);
            if space {
                break;
            }
            i += len;
        }
        out.push(Cow::Borrowed(&line[start..i]));
    }
}

/// Whether the character starting at byte `i` is whitespace, and its
/// length in bytes.
#[inline]
pub(crate) fn space_at(line: &str, i: usize) -> (bool, usize) {
    let b = line.as_bytes()[i];
    if b.is_ascii() {
        (matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r'), 1)
    } else {
        let c = line[i..].chars().next().expect("`i` is a char boundary");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// Reads the quoted token whose text starts at byte `i`, just past its
/// opening `"`, and returns the index just past its closing `"` (or the
/// line's length when it is unterminated).
fn quoted<'a>(line: &'a str, mut i: usize, out: &mut Vec<Cow<'a, str>>) -> usize {
    let bytes = line.as_bytes();
    let mut unescaped: Option<String> = None;
    loop {
        let (end, next) = match bytes[i..].iter().position(|&b| b == b'"') {
            Some(k) if bytes.get(i + k + 1) == Some(&b'"') => {
                // `""`: keep the text up to and including one quote.
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&line[i..=i + k]);
                i += k + 2;
                continue;
            }
            Some(k) => (i + k, i + k + 1),
            None => (bytes.len(), bytes.len()),
        };
        out.push(match unescaped {
            Some(mut s) => {
                s.push_str(&line[i..end]);
                Cow::Owned(s)
            }
            None => Cow::Borrowed(&line[i..end]),
        });
        return next;
    }
}

/// Formats a text as a token: as it is, or quoted with `""` escapes when
/// it is empty or contains a space or a `"`.
pub(crate) struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if !s.is_empty() && !s.bytes().any(|b| b == b' ' || b == b'"') {
            return f.write_str(s);
        }
        f.write_str("\"")?;
        for (k, part) in s.split('"').enumerate() {
            if k > 0 {
                f.write_str("\"\"")?;
            }
            f.write_str(part)?;
        }
        f.write_str("\"")
    }
}

/// Formats a property value as a token. Only text can need quoting: no
/// number or flag renders empty or with a space or a `"`.
pub(crate) struct QuotedValue<'a>(pub &'a PropValue);

impl fmt::Display for QuotedValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            PropValue::Text(s) => Quoted(s).fmt(f),
            other => other.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(line: &str) -> Vec<Cow<'_, str>> {
        let mut out = Vec::new();
        tokenize_into(line, &mut out);
        out
    }

    #[test]
    fn quoting_handles_spaces_and_quotes() {
        assert_eq!(Quoted("plain").to_string(), "plain");
        assert_eq!(Quoted("").to_string(), "\"\"");
        assert_eq!(Quoted("two words").to_string(), "\"two words\"");
        assert_eq!(Quoted("say \"hi\"").to_string(), "\"say \"\"hi\"\"\"");
        assert_eq!(tokens("\"say \"\"hi\"\"\" x"), ["say \"hi\"", "x"]);
    }

    #[test]
    fn only_escaped_tokens_are_copied() {
        let toks = tokens("a \"b c\" \"d\"\"e\" \"\"");
        assert_eq!(toks, ["a", "b c", "d\"e", ""]);
        let owned: Vec<bool> = toks.iter().map(|t| matches!(t, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, false, true, false]);
    }

    #[test]
    fn separators_include_unicode_whitespace() {
        assert_eq!(tokens("\ta\u{3000}名前\r b\u{85}"), ["a", "名前", "b"]);
        assert_eq!(tokens("\"x\"y \"open end"), ["x", "y", "open end"]);
        assert!(tokens(" \t\u{2028} ").is_empty());
    }

    #[test]
    fn value_quoting_matches_text_quoting() {
        for v in [
            PropValue::Text(String::new()),
            PropValue::Text("a \"b\"".into()),
            PropValue::Int(-3),
            PropValue::Real(-0.0),
            PropValue::Real(1e21),
            PropValue::Flag(false),
        ] {
            assert_eq!(
                QuotedValue(&v).to_string(),
                Quoted(&v.to_text()).to_string()
            );
        }
    }
}
