//! VCD waveform interchange.
//!
//! Waveforms are themselves interchange artifacts between tools (the
//! paper's CovMeter-style analyzers consume simulator dumps). This
//! module writes and reads the classic Value Change Dump text format so
//! two kernels — or a kernel and an external viewer — can exchange
//! results.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::elab::{Circuit, SigId};
use crate::kernel::{ChangeIndex, History, Waveform};
use crate::logic::{word_count, Logic};

/// The widest signal a VCD may declare. A change is stored at its
/// signal's declared width, so the width is bounded before anything is
/// allocated for it.
const MAX_WIDTH: usize = 1 << 20;

/// Arena words a VCD's changes may store per byte of its text, on top
/// of [`WORD_ALLOWANCE`]. A short vector is stored at its signal's
/// declared width, so without a bound a five-byte `b0 !` line on a wide
/// signal could make the parser store thousands of times the text's
/// size. Four words per byte admits every change written out in full
/// and short vectors on signals up to about 640 bits wide.
const WORDS_PER_BYTE: usize = 4;

/// Arena words every VCD may store whatever its length: two changes of
/// a [`MAX_WIDTH`]-bit signal.
const WORD_ALLOWANCE: usize = 4 * (MAX_WIDTH / 64);

/// A parsed VCD: declared signals and time-ordered changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VcdData {
    /// `(name, width)` per declared signal.
    pub signals: Vec<(String, usize)>,
    /// The changes in file order, each at its signal's declared width,
    /// with the signal's declaration index as its id.
    pub changes: Waveform,
}

impl VcdData {
    /// The collapsed history of one signal by name (empty for an
    /// undeclared name). Scans the whole change log; [`diff`] indexes
    /// it once instead.
    pub fn history(&self, name: &str) -> History {
        match self.signals.iter().position(|(n, _)| n == name) {
            Some(sig) => self.changes.history(sig),
            None => History::default(),
        }
    }
}

/// Error parsing VCD text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVcdError {
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseVcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcd: {}", self.message)
    }
}

impl std::error::Error for ParseVcdError {}

/// Appends signal `n`'s identifier code: printable characters, VCD
/// style, `!` `"` `#` ... (33..=126), least significant digit first.
fn push_id_code(out: &mut String, mut n: usize) {
    loop {
        out.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
}

/// Exports a recorded waveform as VCD text.
pub fn export(circuit: &Circuit, waveform: &Waveform) -> String {
    let mut o = String::new();
    export_into(&mut o, circuit, waveform).expect("writing to a String cannot fail");
    o
}

fn export_into(o: &mut String, circuit: &Circuit, waveform: &Waveform) -> fmt::Result {
    o.push_str("$date reproduction run $end\n");
    o.push_str("$version cad-interop sim $end\n");
    o.push_str("$timescale 1ns $end\n");
    o.push_str("$scope module top $end\n");
    for (i, sig) in circuit.signals.iter().enumerate() {
        write!(o, "$var wire {} ", sig.width)?;
        push_id_code(o, i);
        writeln!(o, " {} $end", sig.name)?;
    }
    o.push_str("$upscope $end\n$enddefinitions $end\n");

    let mut time: Option<u64> = None;
    for (t, sig, value) in waveform.changes() {
        if time != Some(t) {
            writeln!(o, "#{t}")?;
            time = Some(t);
        }
        if value.width() == 1 {
            o.push(value.get(0).to_char());
        } else {
            o.push('b');
            value.bits().push_msb(o);
            o.push(' ');
        }
        push_id_code(o, sig);
        o.push('\n');
    }
    Ok(())
}

/// Appends a change of signal `sig`, declared `width` bits wide, from
/// its MSB-first `bits`. Fewer bits than the width are left-extended as
/// VCD specifies: with the leftmost bit when that is x or z, else with 0.
/// The arena words the change stores are taken from `budget`.
fn push_change(
    changes: &mut Waveform,
    budget: &mut usize,
    time: u64,
    sig: usize,
    width: usize,
    bits: &str,
) -> Result<(), String> {
    let levels = bits.as_bytes();
    let Some(&first) = levels.first() else {
        return Err("empty value".into());
    };
    if !levels
        .iter()
        .all(|&c| Logic::from_char(c as char).is_some())
    {
        return Err(format!("bad bits `{bits}`"));
    }
    if levels.len() > width {
        return Err(format!("`{bits}` is wider than its {width}-bit signal"));
    }
    let stored = if width > 64 { 2 * word_count(width) } else { 0 };
    *budget = budget.checked_sub(stored).ok_or_else(|| {
        format!("storing a {width}-bit change goes past {WORDS_PER_BYTE} words per byte of text")
    })?;
    let fill = match Logic::from_char(first as char) {
        Some(l) if l.is_unknown() => l,
        _ => Logic::Zero,
    };
    changes.push_with(time, sig, width, |o| {
        o.splat(fill);
        for (i, &c) in levels.iter().rev().enumerate() {
            o.set(i, Logic::from_char(c as char).expect("checked above"));
        }
    });
    Ok(())
}

/// Parses VCD text.
///
/// # Errors
///
/// Returns [`ParseVcdError`] on malformed declarations or change
/// records, and when the changes, stored at their signals' declared
/// widths, would take more than four arena words per byte of `text`
/// beyond a fixed allowance.
pub fn parse(text: &str) -> Result<VcdData, ParseVcdError> {
    let mut data = VcdData::default();
    let mut by_code: BTreeMap<String, usize> = BTreeMap::new();
    let mut time = 0u64;
    let mut budget = WORD_ALLOWANCE.saturating_add(WORDS_PER_BYTE.saturating_mul(text.len()));
    let err = |m: String| ParseVcdError { message: m };

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("$var") {
            // $var wire <width> <code> <name> $end
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() < 6 {
                return Err(err(format!("bad $var: `{line}`")));
            }
            let width = toks[2]
                .parse()
                .ok()
                .filter(|w| (1..=MAX_WIDTH).contains(w))
                .ok_or_else(|| err(format!("bad width in `{line}`")))?;
            by_code.insert(toks[3].to_string(), data.signals.len());
            data.signals.push((toks[4].to_string(), width));
            continue;
        }
        if line.starts_with('$') {
            continue; // other metadata
        }
        if let Some(t) = line.strip_prefix('#') {
            time = t
                .parse()
                .map_err(|_| err(format!("bad timestamp `{line}`")))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix('b') {
            let (bits, code) = rest
                .split_once(' ')
                .ok_or_else(|| err(format!("bad vector change `{line}`")))?;
            let idx = *by_code
                .get(code.trim())
                .ok_or_else(|| err(format!("unknown id `{code}`")))?;
            push_change(
                &mut data.changes,
                &mut budget,
                time,
                idx,
                data.signals[idx].1,
                bits,
            )
            .map_err(|m| err(format!("{m} in `{line}`")))?;
            continue;
        }
        // Scalar change: <value><code>.
        let mut chars = line.chars();
        let v = chars.next().ok_or_else(|| err("empty change".into()))?;
        let code = chars.as_str();
        let idx = *by_code
            .get(code)
            .ok_or_else(|| err(format!("unknown id `{code}`")))?;
        if Logic::from_char(v).is_none() {
            return Err(err(format!("bad scalar value `{v}`")));
        }
        push_change(
            &mut data.changes,
            &mut budget,
            time,
            idx,
            data.signals[idx].1,
            &line[..v.len_utf8()],
        )
        .map_err(|m| err(format!("{m} in `{line}`")))?;
    }
    Ok(data)
}

/// Compares two VCDs signal-by-signal (collapsed histories must match
/// for every name present in both). Returns the diverging names. Both
/// change logs are indexed once up front and the histories compared in
/// place, so the comparison is linear in total changes rather than
/// signals × changes, and copies no value.
pub fn diff(a: &VcdData, b: &VcdData) -> Vec<String> {
    let ia = ChangeIndex::new(&a.changes, a.signals.len());
    let ib = ChangeIndex::new(&b.changes, b.signals.len());
    let mut out = Vec::new();
    for (sa, (name, _)) in a.signals.iter().enumerate() {
        let Some(sb) = b.signals.iter().position(|(n, _)| n == name) else {
            continue;
        };
        let mut ha = ia.history(&a.changes, sa);
        let mut hb = ib.history(&b.changes, sb);
        let same = loop {
            match (ha.next(), hb.next()) {
                (None, None) => break true,
                (Some(i), Some(j)) if a.changes.same_change(i, &b.changes, j) => {}
                _ => break false,
            }
        };
        if !same {
            out.push(name.clone());
        }
    }
    out
}

/// Exports the kernel's waveform back through its own signal id space —
/// a convenience over [`export`].
pub fn from_kernel(kernel: &crate::kernel::Kernel) -> String {
    export(kernel.circuit(), kernel.waveform())
}

/// Hidden helper keeping `SigId` referenced in docs.
#[doc(hidden)]
pub type _SigIdAlias = SigId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::compile_unit;
    use crate::kernel::{Kernel, SchedulerPolicy};
    use crate::logic::Value;
    use hdl::parser::parse as hparse;

    fn run_counter() -> Kernel {
        let unit = hparse(
            "module m(input clk, output reg [3:0] q, output w);
               assign w = q[0];
               initial q = 0;
               always @(posedge clk) q <= q + 1;
             endmodule",
        )
        .expect("parses");
        let mut k = Kernel::new(
            compile_unit(&unit, "m").expect("elab"),
            SchedulerPolicy::sim_a(),
        );
        let mut t = 0u64;
        k.poke_name("clk", Value::bit(Logic::Zero)).expect("clk");
        k.run_until(t).expect("run");
        for _ in 0..5 {
            t += 1;
            k.poke_name("clk", Value::bit(Logic::One)).expect("clk");
            k.run_until(t).expect("run");
            t += 1;
            k.poke_name("clk", Value::bit(Logic::Zero)).expect("clk");
            k.run_until(t).expect("run");
        }
        k
    }

    #[test]
    fn export_parse_round_trips_histories() {
        let k = run_counter();
        let text = from_kernel(&k);
        let vcd = parse(&text).expect("parses");
        // Same signal set.
        assert_eq!(vcd.signals.len(), k.circuit().signal_count());
        // The counter's history survives the text round trip.
        let q = k.circuit().signal("q").expect("q");
        assert_eq!(vcd.history("q"), k.waveform().history(q));
        assert_eq!(
            vcd.history("q").iter().last().map(|(_, v)| v.to_value()),
            Some(Value::from_u64(5, 4))
        );
        // The whole log survives too: same order, same values.
        assert_eq!(&vcd.changes, k.waveform());
    }

    #[test]
    fn diff_detects_divergence_between_tools() {
        // Two kernels under *different* policies on a racy model give
        // VCDs whose diff names the racy signal — cross-tool waveform
        // comparison, as a verification engineer would do it.
        let unit = hparse(crate::race::models::ORDER_RACE).expect("parses");
        let circuit = compile_unit(&unit, "order").expect("elab");
        let run = |policy| {
            let mut k = Kernel::new(circuit.clone(), policy);
            crate::race::clocked_testbench(&mut k, 4).expect("run");
            parse(&from_kernel(&k)).expect("parses")
        };
        let a = run(SchedulerPolicy::sim_a());
        let d = run(SchedulerPolicy {
            name: "SimD",
            order: crate::kernel::OrderPolicy::Lifo,
            eager_continuous: false,
        });
        let diverging = diff(&a, &d);
        assert!(diverging.contains(&"y".to_string()), "{diverging:?}");
        // Same policy twice: no diff.
        let a2 = run(SchedulerPolicy::sim_a());
        assert!(diff(&a, &a2).is_empty());
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let mut code = String::new();
            push_id_code(&mut code, i);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code));
        }
    }

    #[test]
    fn malformed_vcd_is_rejected() {
        assert!(parse("$var wire x ! q $end").is_err());
        assert!(parse("#notatime").is_err());
        assert!(parse("1%").is_err(), "unknown id code");
        assert!(parse("b10x1 %").is_err(), "unknown vector id");
        assert!(parse("$var wire 0 ! q $end").is_err(), "zero width");
        assert!(
            parse("$var wire 99999999999 ! q $end").is_err(),
            "width beyond the bound"
        );
        let q4 = "$var wire 4 ! q $end\n";
        assert!(
            parse(&format!("{q4}b10x10 !")).is_err(),
            "wider than declared"
        );
        assert!(parse(&format!("{q4}b1y !")).is_err(), "bad bit");
        assert!(parse(&format!("{q4}b !")).is_err(), "no bits");
    }

    #[test]
    fn short_vectors_extend_to_the_declared_width() {
        let vcd = parse("$var wire 4 ! q $end\n#0\nb1 !\n#1\nbx1 !\n#2\nz!\n#3\nb0101 !")
            .expect("parses");
        let got: Vec<String> = vcd
            .history("q")
            .iter()
            .map(|(_, v)| v.to_string_msb())
            .collect();
        assert_eq!(got, ["0001", "xxx1", "zzzz", "0101"]);
    }

    /// `lines` copies of `change` on one signal `width` bits wide.
    fn repeated_changes(width: usize, change: &str, lines: usize) -> String {
        let mut text = format!("$var wire {width} ! q $end\n#0\n");
        for _ in 0..lines {
            text.push_str(change);
            text.push('\n');
        }
        text
    }

    #[test]
    fn stored_words_are_bounded_by_the_text() {
        // Each five-byte line would store 2^15 words: the allowance
        // takes two, the text's own bytes not one more.
        let widest = repeated_changes(MAX_WIDTH, "b0 !", 3);
        assert_eq!(
            parse(&repeated_changes(MAX_WIDTH, "b0 !", 2)).map(|v| v.changes.len()),
            Ok(2)
        );
        let e = parse(&widest).expect_err("a third change is past the bound");
        assert!(e.message.contains("words per byte of text"), "{e}");
        let e = parse(&repeated_changes(MAX_WIDTH, "b0 !", 100_000)).expect_err("rejected");
        assert!(e.message.contains("words per byte of text"), "{e}");
        // Short vectors on a 280-bit signal, the busy model's widest,
        // store two words per byte: well inside the bound.
        let busy = parse(&repeated_changes(280, "b1 !", 100_000)).expect("parses");
        assert_eq!(busy.changes.len(), 100_000);
        let last = busy.changes.changes().last().map(|(_, _, v)| v.to_value());
        assert_eq!(last, Some(Value::from_u64(1, 280)));
        // Full-width changes store far less than their text.
        let full = format!("b{}x !", "z".repeat(MAX_WIDTH - 1));
        assert_eq!(
            parse(&repeated_changes(MAX_WIDTH, &full, 8)).map(|v| v.changes.len()),
            Ok(8)
        );
    }
}
