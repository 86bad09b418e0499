//! Section 3.1 end to end: legal simulator disagreement.
//!
//! "Different Verilog simulators can legitimately disagree on the
//! outcome of the same simulation." This example runs the paper's
//! `assign a = b & c` race, an inter-process order race, and a
//! race-free control under four legal scheduling policies, then shows
//! the timing-check drift the `+pre_16a_path` switch exists for.
//!
//! ```sh
//! cargo run --example race_detection
//! ```

use sim::elab::compile_unit;
use sim::kernel::SchedulerPolicy;
use sim::race::{clocked_testbench, detect, models};
use sim::timing::{check, CompatMode, SetupHoldCheck};
use sim::{Kernel, Logic, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- cross-policy race detection ---");
    for (name, src, top, racy) in [
        ("paper example ", models::PAPER_RACE, "race", true),
        ("order race    ", models::ORDER_RACE, "order", true),
        ("race-free     ", models::RACE_FREE, "clean", false),
    ] {
        let circuit = compile_unit(&hdl::parse(src)?, top)?;
        let report = detect(&circuit, &SchedulerPolicy::all(), |k| {
            clocked_testbench(k, 4)
        })?;
        assert_eq!(report.has_race(), racy, "{name}");
        println!(
            "{name}: {}",
            if report.has_race() {
                "DIVERGES — race in the model"
            } else {
                "all simulators agree"
            }
        );
        for d in &report.diverging {
            println!("    signal `{}`:", d.signal);
            for (policy, hist) in &d.histories {
                let trace: Vec<String> = hist
                    .iter()
                    .map(|(t, v)| format!("{t}:{}", v.to_string_msb()))
                    .collect();
                println!("      {policy:<5} {}", trace.join(" "));
            }
        }
    }

    println!("\n--- timing-check drift (+pre_16a_path) ---");
    let unit = hdl::parse(
        "module dff(input clk, input d, output reg q);
           always @(posedge clk) q <= d;
         endmodule",
    )?;
    let circuit = compile_unit(&unit, "dff")?;
    let mut k = Kernel::new(circuit, SchedulerPolicy::sim_a());
    k.poke_name("clk", Value::bit(Logic::Zero))?;
    k.poke_name("d", Value::bit(Logic::Zero))?;
    k.run_until(1)?;
    // Data edge exactly at edge-setup: the boundary case.
    k.run_until(7)?;
    k.poke_name("d", Value::bit(Logic::One))?;
    k.run_until(10)?;
    k.poke_name("clk", Value::bit(Logic::One))?;
    k.run_until(20)?;
    let spec = SetupHoldCheck {
        clk: k.circuit().signal("clk").expect("clk"),
        data: k.circuit().signal("d").expect("d"),
        setup: 3,
        hold: 2,
    };
    let old = check(k.waveform(), &spec, CompatMode::Pre16a);
    let new = check(k.waveform(), &spec, CompatMode::Post16a);
    assert_eq!(
        (old.len(), new.len()),
        (0, 1),
        "only the new semantics flag the boundary"
    );
    println!("pre-1.6a semantics : {} violation(s)", old.len());
    println!("current semantics  : {} violation(s)", new.len());
    println!("=> results drift across simulator versions; +pre_16a_path restores the old count");
    Ok(())
}
