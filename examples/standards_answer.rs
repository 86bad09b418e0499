//! The conclusion's promise: "Current research may allow seamless
//! interoperation of future tools."
//!
//! This example exercises the three standardization mechanisms the
//! workbench adds on top of the paper's problem catalogue:
//!
//! 1. a **neutral schematic interchange format** (2·N converters
//!    instead of N·(N−1) pairwise translators),
//! 2. **keyword-safe cross-language HDL emission** (Verilog → VHDL
//!    with a rename plan),
//! 3. **standard waveform dumps** (VCD) that make cross-simulator
//!    comparison a text diff.
//!
//! ```sh
//! cargo run --example standards_answer
//! ```

use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};
use schematic::neutral;
use sim::elab::compile_unit;
use sim::kernel::{Kernel, SchedulerPolicy};
use sim::race::{clocked_testbench, models};
use sim::vcd;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Neutral interchange ---
    let design = generate(&GenConfig::default());
    let text = neutral::export(&design).map_err(std::io::Error::other)?;
    println!("--- neutral format (first lines) ---");
    for line in text.lines().take(6) {
        println!("{line}");
    }
    let back = neutral::import(&text, DialectId::Viewstar)?;
    println!(
        "re-imported: {} (connectivity preserved; see EXPERIMENTS.md E-EXT-NEUTRAL)",
        back.stats()
    );
    println!("\ntranslators needed (direct vs neutral hub):");
    for n in [3usize, 5, 8] {
        let (direct, hub) = neutral::translator_counts(n);
        println!("  {n} tools: {direct:>2} direct vs {hub:>2} via hub");
    }

    // --- 2. Cross-language emission ---
    let unit = hdl::parse(
        "module filter(input clk, input in, output reg out);
           always @(posedge clk) out <= in;
         endmodule",
    )?;
    let emit = hdl::emit::to_vhdl(&unit.modules[0])?;
    println!("\n--- VHDL emission (renames: {:?}) ---", emit.renamed);
    for line in emit.text.lines().take(12) {
        println!("{line}");
    }

    // --- 3. Waveform interchange ---
    let circuit = compile_unit(&hdl::parse(models::ORDER_RACE)?, "order")?;
    let dump = |policy: SchedulerPolicy| -> Result<vcd::VcdData, Box<dyn std::error::Error>> {
        let mut k = Kernel::new(circuit.clone(), policy);
        clocked_testbench(&mut k, 4)?;
        Ok(vcd::parse(&vcd::from_kernel(&k))?)
    };
    let policies = SchedulerPolicy::all();
    let a = dump(policies[0])?;
    let d = dump(policies[3])?;
    let diverging = vcd::diff(&a, &d);
    assert_eq!(diverging, ["y"], "the order race shows on `y` alone");
    println!("\n--- VCD cross-simulator diff ---");
    println!(
        "SimA vs SimD on the order-race model: {} diverging signal(s): {:?}",
        diverging.len(),
        diverging
    );
    println!("\n=> formats standardized, names made safe, results comparable.");
    Ok(())
}
