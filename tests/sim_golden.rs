//! Golden kernel digests: the simulation kernel's observable output,
//! pinned per model, scheduling policy and stimulus length.
//!
//! Each row fixes the waveform (every committed change, in order), the
//! final state of every signal, the activation and delta-cycle counts
//! reported through a counting recorder, and — per model — the full
//! `race::sweep` result. A kernel change that only makes things faster
//! must leave every row untouched; scheduling order, commit order and
//! NBA handling all show up here.
//!
//! The corpus keeps to operations whose results do not depend on
//! arithmetic wider than 64 bits, so the table describes the kernel,
//! not the arithmetic rules for wide operands.
//!
//! On a mismatch the test prints the complete recomputed tables in
//! source form.

use std::sync::Arc;

use interop_bench::sim_exp::BUSY_MODEL;
use interop_core::hash::StableHasher;
use obs::MemoryRecorder;
use sim::elab::compile_unit;
use sim::kernel::{Kernel, SchedulerPolicy};
use sim::race::{models, sweep, Stim, SweepResult};
use sim::{Circuit, ValueRef};

/// Bit-select writes and blocking assignments: a shift register filled
/// one bit at a time through a moving index, an index read in a
/// continuous assignment, a bit-select continuous driver, and a second
/// process that reads (with a blocking write) what the first writes.
const BITS_MODEL: &str = r#"
    module bits(input clk, input d, output reg [7:0] sh, output reg [2:0] i,
                output reg seen, output [3:0] nib);
      wire [7:0] inv;
      wire pick;
      assign inv = ~sh;
      assign pick = sh[i];
      assign nib[2] = pick ^ inv[0];
      initial begin
        sh = 0;
        i = 0;
        seen = 0;
      end
      always @(posedge clk) begin
        sh[i] = d;
        i = i + 1;
        if (i == 4)
          sh[7] = ~d;
      end
      always @(posedge clk) seen = pick;
      always @(negedge clk) begin
        case (i)
          1: sh[6] = sh[0];
          5: sh[1] = inv[2];
          default: seen = ~seen;
        endcase
      end
    endmodule
"#;

const MODELS: [(&str, &str, &str); 5] = [
    ("paper_race", models::PAPER_RACE, "race"),
    ("order_race", models::ORDER_RACE, "order"),
    ("race_free", models::RACE_FREE, "clean"),
    ("busy", BUSY_MODEL, "busy"),
    ("bits", BITS_MODEL, "bits"),
];

const CYCLES: [u64; 3] = [1, 3, 8];

/// `(model, policy, cycles, waveform digest, final-state digest,
/// changes, events, delta cycles)`.
type KernelRow = (&'static str, &'static str, u64, u64, u64, usize, u64, u64);

/// `(model, sweep digest, diverging signals summed over stimuli)`.
type SweepRow = (&'static str, u64, usize);

/// `(model, digest of every VCD export, their bytes summed)` over all
/// policies and stimulus lengths.
type VcdRow = (&'static str, u64, usize);

#[rustfmt::skip]
const KERNEL_GOLDEN: &[KernelRow] = &[
    ("paper_race", "SimA", 1, 0x4128677bb1ac2f46, 0xc41f23dfa8896244, 12, 5, 0),
    ("paper_race", "SimA", 3, 0xef8168568dbf394c, 0xc41f23dfa8896244, 22, 9, 0),
    ("paper_race", "SimA", 8, 0x9af298287b2930cb, 0x1fb684dabf38cc5f, 47, 19, 0),
    ("paper_race", "SimB", 1, 0xef4e29c5c17b0ffa, 0xecad6f76c8f4e52f, 11, 5, 0),
    ("paper_race", "SimB", 3, 0x3cd0908c37c930b8, 0xecad6f76c8f4e52f, 21, 9, 0),
    ("paper_race", "SimB", 8, 0x9c4626d7b694bec7, 0x64a3bfe12b6fa5d8, 46, 19, 0),
    ("paper_race", "SimC", 1, 0xef4e29c5c17b0ffa, 0xecad6f76c8f4e52f, 11, 5, 0),
    ("paper_race", "SimC", 3, 0x3cd0908c37c930b8, 0xecad6f76c8f4e52f, 21, 9, 0),
    ("paper_race", "SimC", 8, 0x9c4626d7b694bec7, 0x64a3bfe12b6fa5d8, 46, 19, 0),
    ("paper_race", "SimD", 1, 0x4128677bb1ac2f46, 0xc41f23dfa8896244, 12, 6, 0),
    ("paper_race", "SimD", 3, 0xef8168568dbf394c, 0xc41f23dfa8896244, 22, 10, 0),
    ("paper_race", "SimD", 8, 0x9af298287b2930cb, 0x1fb684dabf38cc5f, 47, 20, 0),
    ("order_race", "SimA", 1, 0x4f883548406ce167, 0x5fdc0998af31ba84, 9, 2, 0),
    ("order_race", "SimA", 3, 0x63e7a00c1090a993, 0x5fdc0998af31ba84, 19, 6, 0),
    ("order_race", "SimA", 8, 0xad6e3f506a30ae35, 0x9699fde775833bf9, 44, 16, 0),
    ("order_race", "SimB", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 0),
    ("order_race", "SimB", 3, 0x86ebdcc7295791d7, 0x5fdc0a98af31bc37, 18, 6, 0),
    ("order_race", "SimB", 8, 0xd261edf7011e6274, 0x9699fce775833a46, 43, 16, 0),
    ("order_race", "SimC", 1, 0x4f883548406ce167, 0x5fdc0998af31ba84, 9, 2, 0),
    ("order_race", "SimC", 3, 0x63e7a00c1090a993, 0x5fdc0998af31ba84, 19, 6, 0),
    ("order_race", "SimC", 8, 0xad6e3f506a30ae35, 0x9699fde775833bf9, 44, 16, 0),
    ("order_race", "SimD", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 0),
    ("order_race", "SimD", 3, 0x86ebdcc7295791d7, 0x5fdc0a98af31bc37, 18, 6, 0),
    ("order_race", "SimD", 8, 0xd261edf7011e6274, 0x9699fce775833a46, 43, 16, 0),
    ("race_free", "SimA", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 1),
    ("race_free", "SimA", 3, 0x5faeca6b5eb7f1d7, 0x5fdc0a98af31bc37, 18, 6, 3),
    ("race_free", "SimA", 8, 0xc766c09c0ca4f274, 0x9699fce775833a46, 43, 16, 8),
    ("race_free", "SimB", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 1),
    ("race_free", "SimB", 3, 0x86ebdcc7295791d7, 0x5fdc0a98af31bc37, 18, 6, 3),
    ("race_free", "SimB", 8, 0xd261edf7011e6274, 0x9699fce775833a46, 43, 16, 8),
    ("race_free", "SimC", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 1),
    ("race_free", "SimC", 3, 0x5faeca6b5eb7f1d7, 0x5fdc0a98af31bc37, 18, 6, 3),
    ("race_free", "SimC", 8, 0xc766c09c0ca4f274, 0x9699fce775833a46, 43, 16, 8),
    ("race_free", "SimD", 1, 0xb7af03fa745c995d, 0x5fdc0a98af31bc37, 8, 2, 1),
    ("race_free", "SimD", 3, 0x86ebdcc7295791d7, 0x5fdc0a98af31bc37, 18, 6, 3),
    ("race_free", "SimD", 8, 0xd261edf7011e6274, 0x9699fce775833a46, 43, 16, 8),
    ("busy", "SimA", 1, 0x6f82bc3a29de5b1e, 0x6303b6ee247803cf, 66, 82, 1),
    ("busy", "SimA", 3, 0x75365137e49faf23, 0xc951960aadfbedca, 140, 196, 3),
    ("busy", "SimA", 8, 0x09dd25658dbbea50, 0xdcf37f3a7eb337e4, 325, 481, 8),
    ("busy", "SimB", 1, 0x81628bb3fbc3ada5, 0x6303b6ee247803cf, 266, 481, 1),
    ("busy", "SimB", 3, 0x19cd486a8290030e, 0xc951960aadfbedca, 700, 1225, 3),
    ("busy", "SimB", 8, 0x8f58dea7f9bc468e, 0xdcf37f3a7eb337e4, 1791, 3094, 8),
    ("busy", "SimC", 1, 0x86ecd4457bbf399b, 0x6303b6ee247803cf, 240, 435, 1),
    ("busy", "SimC", 3, 0xdb26f6816dfb4420, 0xc951960aadfbedca, 674, 1179, 3),
    ("busy", "SimC", 8, 0xcb7cd8dec9cbe094, 0xdcf37f3a7eb337e4, 1765, 3048, 8),
    ("busy", "SimD", 1, 0x27651a058026ddfe, 0x6303b6ee247803cf, 4296, 5526, 1),
    ("busy", "SimD", 3, 0x1344b0113b4579b5, 0xc951960aadfbedca, 11714, 14790, 3),
    ("busy", "SimD", 8, 0x2f7422ec39736de3, 0xdcf37f3a7eb337e4, 29998, 37625, 8),
    ("bits", "SimA", 1, 0x13ace926136e91aa, 0xf2897422e1405cc8, 17, 16, 0),
    ("bits", "SimA", 3, 0x98b539c5552c63fd, 0x36d26b5f117eafa4, 30, 26, 0),
    ("bits", "SimA", 8, 0xeb9ae96f3038d947, 0x0186667008d99b00, 65, 53, 0),
    ("bits", "SimB", 1, 0xe29db376a6222d58, 0xf2897422e1405cc8, 21, 16, 0),
    ("bits", "SimB", 3, 0x17c31375d452145f, 0x36d26b5f117eafa4, 38, 29, 0),
    ("bits", "SimB", 8, 0x37861bd4bb50203d, 0x0186667008d99b00, 81, 63, 0),
    ("bits", "SimC", 1, 0xe29db376a6222d58, 0xf2897422e1405cc8, 21, 16, 0),
    ("bits", "SimC", 3, 0xfebd95ae0bcb5df5, 0x36d26b5f117eafa4, 38, 29, 0),
    ("bits", "SimC", 8, 0xcd031e2543f09ba9, 0x0186667008d99b00, 83, 63, 0),
    ("bits", "SimD", 1, 0xcbc959e142e4d69a, 0xf2897422e1405cc8, 17, 17, 0),
    ("bits", "SimD", 3, 0x7ed2500af9357817, 0x36d26b5f117eafa4, 30, 27, 0),
    ("bits", "SimD", 8, 0xb0b20e60865d9ba3, 0x0186667008d99b00, 65, 54, 0),
];

#[rustfmt::skip]
const SWEEP_GOLDEN: &[SweepRow] = &[
    ("paper_race", 0x630ad2eb6ebcbe62, 3),
    ("order_race", 0xdc16e785a1a7ae36, 3),
    ("race_free", 0x65e2a9d870c65c9e, 0),
    ("busy", 0xc7a4a88ccfe7c189, 63),
    ("bits", 0x4a2e339d4dcd9946, 7),
];

fn circuit(src: &str, top: &str) -> Arc<Circuit> {
    Arc::new(compile_unit(&hdl::parse(src).expect("model parses"), top).expect("elab"))
}

fn hash_value(h: &mut StableHasher, v: ValueRef<'_>) {
    h.write_str(&v.to_string_msb());
}

fn kernel_row(
    model: &'static str,
    circuit: &Arc<Circuit>,
    policy: SchedulerPolicy,
    cycles: u64,
) -> KernelRow {
    let rec = Arc::new(MemoryRecorder::new());
    let mut k = Kernel::new_shared(Arc::clone(circuit), policy);
    k.set_recorder(rec.clone());
    Stim::clocked("golden", cycles)
        .apply(&mut k)
        .expect("simulation runs");
    let mut wave = StableHasher::new();
    for (t, sig, v) in k.waveform().changes() {
        wave.write_u64(t);
        wave.write_usize(sig);
        hash_value(&mut wave, v);
    }
    let mut state = StableHasher::new();
    for sig in 0..circuit.signal_count() {
        hash_value(&mut state, k.peek(sig).into());
    }
    (
        model,
        policy.name,
        cycles,
        wave.finish(),
        state.finish(),
        k.waveform().len(),
        rec.counter("sim.events"),
        rec.counter("sim.delta_cycles"),
    )
}

fn sweep_row(model: &'static str, circuit: &Arc<Circuit>) -> SweepRow {
    let stims: Vec<Stim> = CYCLES
        .iter()
        .map(|&c| Stim::clocked(format!("c{c}"), c))
        .collect();
    let results: Vec<SweepResult> =
        sweep(circuit, &SchedulerPolicy::all(), &stims).expect("sweep runs");
    let mut h = StableHasher::new();
    let mut diverging = 0;
    for r in &results {
        h.write_str(&r.stim);
        for p in &r.report.policies {
            h.write_str(p);
        }
        diverging += r.report.diverging.len();
        for d in &r.report.diverging {
            h.write_str(&d.signal);
            for (policy, history) in &d.histories {
                h.write_str(policy);
                h.write_usize(history.len());
                for (t, v) in history.iter() {
                    h.write_u64(t);
                    hash_value(&mut h, v);
                }
            }
        }
    }
    (model, h.finish(), diverging)
}

#[rustfmt::skip]
const VCD_GOLDEN: &[VcdRow] = &[
    ("paper_race", 0x17462fa8a1bf9c55, 4774),
    ("order_race", 0xfa2fa8bf34000d9f, 4078),
    ("race_free", 0x294c27c969435d3d, 4060),
    ("busy", 0xbe06b139bf02aef7, 9215122),
    ("bits", 0x23f00bb8d8619212, 7418),
];

fn vcd_row(model: &'static str, circuit: &Arc<Circuit>) -> VcdRow {
    let mut h = StableHasher::new();
    let mut bytes = 0;
    for policy in SchedulerPolicy::all() {
        for cycles in CYCLES {
            let mut k = Kernel::new_shared(Arc::clone(circuit), policy);
            Stim::clocked("golden", cycles)
                .apply(&mut k)
                .expect("simulation runs");
            let text = sim::vcd::from_kernel(&k);
            h.write_str(&text);
            bytes += text.len();
        }
    }
    (model, h.finish(), bytes)
}

/// The VCD writer's exact bytes: a change to how waveforms are stored
/// or rendered must leave every export as pinned.
#[test]
fn vcd_export_matches_the_golden_digests() {
    let rows: Vec<VcdRow> = MODELS
        .iter()
        .map(|&(model, src, top)| vcd_row(model, &circuit(src, top)))
        .collect();
    if rows != VCD_GOLDEN {
        println!("const VCD_GOLDEN: &[VcdRow] = &[");
        for (m, h, n) in &rows {
            println!("    ({m:?}, {h:#018x}, {n}),");
        }
        println!("];");
    }
    assert_eq!(rows, VCD_GOLDEN, "vcd rows");
}

#[test]
fn kernel_output_matches_the_golden_digests() {
    let mut kernel_rows = Vec::new();
    let mut sweep_rows = Vec::new();
    for (model, src, top) in MODELS {
        let c = circuit(src, top);
        for policy in SchedulerPolicy::all() {
            for cycles in CYCLES {
                kernel_rows.push(kernel_row(model, &c, policy, cycles));
            }
        }
        sweep_rows.push(sweep_row(model, &c));
    }
    if kernel_rows != KERNEL_GOLDEN || sweep_rows != SWEEP_GOLDEN {
        println!("const KERNEL_GOLDEN: &[KernelRow] = &[");
        for (m, p, c, w, s, n, e, d) in &kernel_rows {
            println!("    ({m:?}, {p:?}, {c}, {w:#018x}, {s:#018x}, {n}, {e}, {d}),");
        }
        println!("];\n\nconst SWEEP_GOLDEN: &[SweepRow] = &[");
        for (m, h, d) in &sweep_rows {
            println!("    ({m:?}, {h:#018x}, {d}),");
        }
        println!("];");
    }
    for (got, want) in kernel_rows.iter().zip(KERNEL_GOLDEN) {
        assert_eq!(got, want, "kernel row");
    }
    assert_eq!(kernel_rows.len(), KERNEL_GOLDEN.len(), "kernel row count");
    assert_eq!(sweep_rows, SWEEP_GOLDEN, "sweep rows");
}
