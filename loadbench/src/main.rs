//! `loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints run facts and metrics, then one JSON result line. Exits 1 when
//! any output mismatched its reference, 2 on a usage or set-up error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match loadbench::driver::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!("usage: loadbench --workload <migrate_cold|migrate_incremental|race_sweep> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match loadbench::driver::run(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::from(2)
        }
    }
}
