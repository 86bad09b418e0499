//! Experiments E-S31-RACE, E-S31-COMPAT, E-S31-COSIM, E-S32-SENS:
//! the Section 3.1/3.2 simulator phenomena.

use std::time::Instant;

use hdl::parser::parse;
use sim::elab::compile_unit;
use sim::kernel::{Kernel, SchedulerPolicy};
use sim::logic::{Logic, Value};
use sim::race::{clocked_testbench, detect, models};
use sim::timing::{check, CompatMode, SetupHoldCheck};

/// One race-detection data point.
#[derive(Debug, Clone)]
pub struct RaceRow {
    /// Model name.
    pub model: &'static str,
    /// Cycles simulated.
    pub cycles: u64,
    /// Signals diverging across the four policies.
    pub diverging: usize,
    /// Verdict.
    pub has_race: bool,
}

/// Runs the three canonical models under all four policies.
pub fn race_detection(cycles: u64) -> Vec<RaceRow> {
    let cases = [
        ("paper-race", models::PAPER_RACE, "race"),
        ("order-race", models::ORDER_RACE, "order"),
        ("race-free", models::RACE_FREE, "clean"),
    ];
    let mut out = Vec::new();
    for (name, src, top) in cases {
        let circuit = compile_unit(&parse(src).expect("model parses"), top).expect("elab");
        let report = detect(&circuit, &SchedulerPolicy::all(), |k| {
            clocked_testbench(k, cycles)
        })
        .expect("simulation");
        out.push(RaceRow {
            model: name,
            cycles,
            diverging: report.diverging.len(),
            has_race: report.has_race(),
        });
    }
    out
}

/// Renders the race table.
pub fn race_table(rows: &[RaceRow]) -> String {
    let mut s = String::from("E-S31-RACE scheduler divergence across 4 legal policies\n");
    s.push_str(&format!(
        "{:<12} {:>7} {:>10} {:>6}\n",
        "model", "cycles", "diverging", "race"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>7} {:>10} {:>6}\n",
            r.model, r.cycles, r.diverging, r.has_race
        ));
    }
    s
}

/// One backward-compatibility data point: violation counts per mode.
#[derive(Debug, Clone)]
pub struct CompatRow {
    /// Description of the stimulus.
    pub stimulus: &'static str,
    /// Violations under pre-1.6a semantics (`+pre_16a_path`).
    pub pre_16a: usize,
    /// Violations under current semantics.
    pub post_16a: usize,
}

/// Runs the timing-check drift experiment: a DFF with data edges at
/// interior, boundary, and safe positions relative to a setup/hold
/// window.
pub fn compat_mode() -> Vec<CompatRow> {
    let src = r#"
        module dff(input clk, input d, output reg q);
          always @(posedge clk) q <= d;
        endmodule
    "#;
    let spec_for = |k: &Kernel| SetupHoldCheck {
        clk: k.circuit().signal("clk").expect("clk"),
        data: k.circuit().signal("d").expect("d"),
        setup: 3,
        hold: 2,
    };
    // Stimulus: clock edge at t=10; data toggles at the listed times.
    let run = |data_times: &[u64]| -> (usize, usize) {
        let unit = parse(src).expect("parses");
        let circuit = compile_unit(&unit, "dff").expect("elab");
        let mut k = Kernel::new(circuit, SchedulerPolicy::sim_a());
        k.poke_name("clk", Value::bit(Logic::Zero)).expect("clk");
        k.poke_name("d", Value::bit(Logic::Zero)).expect("d");
        k.run_until(1).expect("run");
        let mut level = Logic::Zero;
        for &t in data_times {
            k.run_until(t).expect("run");
            level = level.not();
            k.poke_name("d", Value::bit(level)).expect("d");
        }
        k.run_until(10).expect("run");
        k.poke_name("clk", Value::bit(Logic::One)).expect("clk");
        k.run_until(20).expect("run");
        let spec = spec_for(&k);
        (
            check(k.waveform(), &spec, CompatMode::Pre16a).len(),
            check(k.waveform(), &spec, CompatMode::Post16a).len(),
        )
    };

    let cases: [(&'static str, &[u64]); 3] = [
        ("interior (t=9)", &[9]),
        ("boundary (t=7, edge-setup)", &[7]),
        ("safe (t=2)", &[2]),
    ];
    cases
        .into_iter()
        .map(|(name, times)| {
            let (pre, post) = run(times);
            CompatRow {
                stimulus: name,
                pre_16a: pre,
                post_16a: post,
            }
        })
        .collect()
}

/// Renders the compat table.
pub fn compat_table(rows: &[CompatRow]) -> String {
    let mut s =
        String::from("E-S31-COMPAT timing-check drift (violations per semantics version)\n");
    s.push_str(&format!(
        "{:<30} {:>10} {:>10} {:>7}\n",
        "data stimulus", "+pre_16a", "post-16a", "drift"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<30} {:>10} {:>10} {:>7}\n",
            r.stimulus,
            r.pre_16a,
            r.post_16a,
            r.pre_16a != r.post_16a
        ));
    }
    s
}

/// One co-simulation data point.
#[derive(Debug, Clone)]
pub struct CosimRow {
    /// Translation mode.
    pub translation: &'static str,
    /// Final gated output value (`1` expected).
    pub y: String,
    /// Values that crossed the bridge.
    pub bridge_events: usize,
    /// True when the result matches the single-kernel reference.
    pub correct: bool,
}

/// Runs the value-set translation experiment: a VHDL-side weak enable
/// gating a Verilog-side data path, bridged with full vs naive tables.
pub fn cosim_value_sets() -> Vec<CosimRow> {
    use sim::cosim::{CoSim, Link, Translation};
    let side_a = r#"
        module side_a(input d, input en_in, output y);
          assign y = d & en_in;
        endmodule
    "#;
    let side_b = r#"
        module side_b(input tick, output en);
          assign en = 1;
        endmodule
    "#;
    let build = |tr: Translation| {
        let a = Kernel::new(
            compile_unit(&parse(side_a).expect("a"), "side_a").expect("elab a"),
            SchedulerPolicy::sim_a(),
        );
        let b = Kernel::new(
            compile_unit(&parse(side_b).expect("b"), "side_b").expect("elab b"),
            SchedulerPolicy::sim_a(),
        );
        let mut cs = CoSim::new(a, b, tr);
        cs.link_b_to_a(Link::new("en", "en_in").weak());
        cs
    };
    let mut out = Vec::new();
    for (name, tr, expect) in [
        ("full-table", Translation::Full, Logic::One),
        ("naive-table", Translation::Naive, Logic::X),
    ] {
        let mut cs = build(tr);
        cs.a.poke_name("d", Value::bit(Logic::One)).expect("d");
        cs.run_until(10).expect("cosim run");
        let y = cs.a.peek_name("y").expect("y").clone();
        out.push(CosimRow {
            translation: name,
            y: y.to_string_msb(),
            bridge_events: cs.trace.len(),
            correct: y.get(0) == Logic::One && expect == Logic::One
                || (expect == Logic::X && y.get(0) != Logic::One),
        });
    }
    out
}

/// Renders the cosim table.
pub fn cosim_table(rows: &[CosimRow]) -> String {
    let mut s = String::from("E-S31-COSIM value-set bridge (weak `H` enable)\n");
    s.push_str(&format!(
        "{:<12} {:>4} {:>8} {:>14}\n",
        "translation", "y", "events", "delivers-1"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>4} {:>8} {:>14}\n",
            r.translation,
            r.y,
            r.bridge_events,
            r.y == "1"
        ));
    }
    s
}

/// One sensitivity-mismatch data point.
#[derive(Debug, Clone)]
pub struct SensRow {
    /// Which interpretation was simulated.
    pub view: &'static str,
    /// Output history length (distinct values seen on `out`).
    pub out_changes: usize,
    /// Final `out` value after the stimulus.
    pub final_out: String,
}

/// Runs the paper's `always @(a or b) out = a & b & c` example under
/// the simulator's interpretation (list as written) and the synthesis
/// interpretation (list completed to the full read set), with a
/// stimulus that toggles only `c` last.
pub fn sensitivity_mismatch() -> (Vec<SensRow>, bool) {
    let src = r#"
        module s(input a, input b, input c, output reg out);
          always @(a or b)
            out = a & b & c;
        endmodule
    "#;
    let run = |complete: bool| -> SensRow {
        let mut unit = parse(src).expect("parses");
        if complete {
            hdl::sens::complete_lists(&mut unit.modules[0]);
        }
        let circuit = compile_unit(&unit, "s").expect("elab");
        let mut k = Kernel::new(circuit, SchedulerPolicy::sim_a());
        for (t, sig, v) in [
            // c settles first so the a/b events compute out = 1.
            (1u64, "c", Logic::One),
            (2, "a", Logic::One),
            (3, "b", Logic::One),
            // Now only c toggles: simulation (as written) must NOT see it.
            (4, "c", Logic::Zero),
        ] {
            k.poke_name(sig, Value::bit(v)).expect("poke");
            k.run_until(t).expect("run");
        }
        let out_sig = k.circuit().signal("out").expect("out");
        SensRow {
            view: if complete {
                "synthesis (completed)"
            } else {
                "simulation (as written)"
            },
            out_changes: k.waveform().history(out_sig).len(),
            final_out: k.peek_name("out").expect("out").to_string_msb(),
        }
    };
    let sim_view = run(false);
    let synth_view = run(true);
    let mismatch = sim_view.final_out != synth_view.final_out;
    (vec![sim_view, synth_view], mismatch)
}

/// Renders the sensitivity table.
pub fn sens_table(rows: &[SensRow], mismatch: bool) -> String {
    let mut s = String::from(
        "E-S32-SENS sensitivity reinterpretation (`always @(a or b) out = a & b & c`)\n",
    );
    s.push_str(&format!(
        "{:<26} {:>12} {:>10}\n",
        "interpretation", "out changes", "final out"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<26} {:>12} {:>10}\n",
            r.view, r.out_changes, r.final_out
        ));
    }
    s.push_str(&format!("simulation/synthesis mismatch: {mismatch}\n"));
    s
}

/// The deliberately busy model of the kernel-throughput experiment
/// ([`sim::race::models::BUSY`]).
pub const BUSY_MODEL: &str = models::BUSY;

/// Builds a [`BUSY_MODEL`] kernel.
pub fn busy_kernel(policy: SchedulerPolicy) -> Kernel {
    let circuit = compile_unit(&parse(BUSY_MODEL).expect("model parses"), "busy").expect("elab");
    Kernel::new(circuit, policy)
}

/// One settle-throughput data point.
#[derive(Debug, Clone)]
pub struct SettleRow {
    /// `packed` (plane arithmetic) or `per-bit` (reference path).
    pub path: &'static str,
    /// Clock cycles driven.
    pub cycles: u64,
    /// Wall-clock milliseconds for the whole run.
    pub millis: f64,
    /// Speedup relative to the per-bit baseline (1.0 for the baseline
    /// itself).
    pub speedup: f64,
}

/// Times the same [`BUSY_MODEL`] run through the packed planes and the
/// per-bit reference path, asserting the waveforms stay byte-identical
/// before reporting the speedup.
pub fn settle_throughput(cycles: u64) -> Vec<SettleRow> {
    let run = || {
        let mut k = busy_kernel(SchedulerPolicy::sim_a());
        clocked_testbench(&mut k, cycles).expect("run");
        k
    };
    // Warm up both paths, then take the best of three timed runs each:
    // the minimum filters out scheduler noise on busy hosts, which
    // single-shot wall-clock absorbs wholesale.
    let timed = |f: &dyn Fn() -> Kernel| -> (f64, Kernel) {
        let _ = f();
        let mut best_ms = f64::INFINITY;
        let mut kernel = None;
        for _ in 0..3 {
            let start = Instant::now();
            let k = f();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if ms < best_ms {
                best_ms = ms;
            }
            kernel = Some(k);
        }
        (best_ms, kernel.expect("ran"))
    };
    let (reference_ms, reference_kernel) = timed(&|| {
        let _guard = sim::logic::reference::force();
        run()
    });
    let (packed_ms, packed_kernel) = timed(&run);

    assert_eq!(
        sim::vcd::from_kernel(&packed_kernel),
        sim::vcd::from_kernel(&reference_kernel),
        "packed and per-bit waveforms must be byte-identical"
    );
    vec![
        SettleRow {
            path: "per-bit",
            cycles,
            millis: reference_ms,
            speedup: 1.0,
        },
        SettleRow {
            path: "packed",
            cycles,
            millis: packed_ms,
            speedup: reference_ms / packed_ms,
        },
    ]
}

/// Renders the settle-throughput table.
pub fn settle_table(rows: &[SettleRow]) -> String {
    let mut s = String::from("E-S31-KERNEL settle throughput (packed planes vs per-bit)\n");
    s.push_str(&format!(
        "{:<10} {:>8} {:>10} {:>9}\n",
        "path", "cycles", "millis", "speedup"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>8} {:>10.3} {:>8.2}x\n",
            r.path, r.cycles, r.millis, r.speedup
        ));
    }
    s
}

/// One divergence-sweep scaling data point.
#[derive(Debug, Clone)]
pub struct SweepScaleRow {
    /// Worker threads (0 marks the sequential `sweep` baseline).
    pub threads: usize,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Speedup vs the sequential baseline.
    pub speedup: f64,
    /// True when results match the sequential sweep exactly.
    pub identical: bool,
}

/// Times the 4-policy divergence sweep over `stim_count` stimulus sets
/// sequentially and at each thread count, verifying identical results.
pub fn sweep_scaling(stim_count: usize, cycles: u64, threads: &[usize]) -> Vec<SweepScaleRow> {
    use sim::race::{sweep, sweep_parallel, Stim};
    use std::sync::Arc;
    let circuit =
        Arc::new(compile_unit(&parse(BUSY_MODEL).expect("model parses"), "busy").expect("elab"));
    let stims: Vec<Stim> = (0..stim_count)
        .map(|i| Stim::clocked(format!("s{i}"), cycles + (i as u64 % 3)))
        .collect();
    let policies = SchedulerPolicy::all();

    // Warm-up so the sequential baseline doesn't absorb cold-start
    // costs (page faults, lazy allocator arenas) that the parallel
    // runs then skip; best-of-three filters scheduler noise.
    let _ = sweep(&circuit, &policies, &stims[..1.min(stims.len())]).expect("sweep");
    let best_of =
        |f: &dyn Fn() -> Vec<sim::race::SweepResult>| -> (f64, Vec<sim::race::SweepResult>) {
            let mut best_ms = f64::INFINITY;
            let mut out = None;
            for _ in 0..3 {
                let start = Instant::now();
                let r = f();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if ms < best_ms {
                    best_ms = ms;
                }
                out = Some(r);
            }
            (best_ms, out.expect("ran"))
        };

    let (base_ms, sequential) = best_of(&|| sweep(&circuit, &policies, &stims).expect("sweep"));

    let mut rows = vec![SweepScaleRow {
        threads: 0,
        millis: base_ms,
        speedup: 1.0,
        identical: true,
    }];
    for &t in threads {
        let (ms, parallel) =
            best_of(&|| sweep_parallel(&circuit, &policies, &stims, t).expect("sweep"));
        rows.push(SweepScaleRow {
            threads: t,
            millis: ms,
            speedup: base_ms / ms,
            identical: parallel == sequential,
        });
    }
    rows
}

/// Renders the sweep-scaling table.
pub fn sweep_table(rows: &[SweepScaleRow]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::from("E-S31-SWEEP 4-policy divergence sweep scaling\n");
    s.push_str(&format!("host parallelism: {host} (speedup ceiling)\n"));
    s.push_str(&format!(
        "{:<12} {:>10} {:>9} {:>10}\n",
        "threads", "millis", "speedup", "identical"
    ));
    for r in rows {
        let label = if r.threads == 0 {
            "sequential".to_string()
        } else {
            r.threads.to_string()
        };
        s.push_str(&format!(
            "{:<12} {:>10.3} {:>8.2}x {:>10}\n",
            label, r.millis, r.speedup, r.identical
        ));
    }
    s
}

/// Timing of one busy `race_sweep` request, or of one of its kernels.
#[derive(Debug, Clone)]
pub struct BusyRequestRow {
    /// A policy name (one kernel over one stimulus), `sequential`
    /// (`race::sweep` over the whole request) or `parallel_2`
    /// (`sweep_parallel` on 2 threads).
    pub mode: &'static str,
    /// Median wall-clock milliseconds.
    pub median_ms: f64,
    /// Lower quartile.
    pub p25_ms: f64,
    /// Upper quartile.
    pub p75_ms: f64,
    /// Timed runs.
    pub samples: usize,
}

fn time_runs<T>(mode: &'static str, samples: usize, f: impl Fn() -> T) -> BusyRequestRow {
    let mut ms: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    BusyRequestRow {
        mode,
        median_ms: at(0.5),
        p25_ms: at(0.25),
        p75_ms: at(0.75),
        samples: ms.len(),
    }
}

/// Times the `race_sweep` workload's busy request — `stims` ×
/// `Stim::clocked(cycles)` over [`BUSY_MODEL`] across every policy:
/// first one kernel per policy over one stimulus (the per-policy
/// breakdown), then the whole request sequentially and through
/// `sweep_parallel` on 2 threads. The two sweeps are asserted equal
/// first, which also warms both up. Median and quartiles over `samples`
/// runs each.
pub fn busy_request(stims: usize, cycles: u64, samples: usize) -> Vec<BusyRequestRow> {
    use sim::race::{sweep, sweep_parallel, Stim};
    let circuit = busy_kernel(SchedulerPolicy::sim_a()).circuit_arc();
    let stims: Vec<Stim> = (0..stims)
        .map(|i| Stim::clocked(format!("busy{i}"), cycles))
        .collect();
    let policies = SchedulerPolicy::all();
    let sequential = || sweep(&circuit, &policies, &stims).expect("sweep");
    let parallel = || sweep_parallel(&circuit, &policies, &stims, 2).expect("sweep");
    assert_eq!(parallel(), sequential(), "busy sweeps must agree");
    let mut rows: Vec<BusyRequestRow> = policies
        .iter()
        .map(|&policy| {
            time_runs(policy.name, samples, || {
                let mut k = Kernel::new_shared(std::sync::Arc::clone(&circuit), policy);
                stims[0].apply(&mut k).expect("run");
                k
            })
        })
        .collect();
    rows.push(time_runs("sequential", samples, sequential));
    rows.push(time_runs("parallel_2", samples, parallel));
    rows
}

/// Renders the busy-request table.
pub fn busy_request_table(rows: &[BusyRequestRow]) -> String {
    let mut s =
        String::from("E-S31-KERNEL busy race-sweep request (per-policy kernel; whole request)\n");
    s.push_str(&format!(
        "{:<12} {:>10} {:>8} {:>8} {:>8}\n",
        "mode", "median ms", "p25", "p75", "samples"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>10.3} {:>8.3} {:>8.3} {:>8}\n",
            r.mode, r.median_ms, r.p25_ms, r.p75_ms, r.samples
        ));
    }
    s
}

/// Serializes the three experiments as the `BENCH_sim.json` record (no
/// external JSON dependency — hand-rendered).
pub fn kernel_bench_json(
    settle: &[SettleRow],
    busy: &[BusyRequestRow],
    sweeps: &[SweepScaleRow],
) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = format!(
        "{{\n  \"experiment\": \"s31_kernel\",\n  \"host_parallelism\": {host},\n  \"settle_throughput\": [\n"
    );
    for (i, r) in settle.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"cycles\": {}, \"millis\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.path,
            r.cycles,
            r.millis,
            r.speedup,
            if i + 1 < settle.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"busy_request\": [\n");
    for (i, r) in busy.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mode\": \"{}\", \"median_ms\": {:.3}, \"p25_ms\": {:.3}, \"p75_ms\": {:.3}, \"samples\": {}}}{}\n",
            r.mode,
            r.median_ms,
            r.p25_ms,
            r.p75_ms,
            r.samples,
            if i + 1 < busy.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"sweep_scaling\": [\n");
    for (i, r) in sweeps.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"millis\": {:.3}, \"speedup\": {:.2}, \"identical\": {}}}{}\n",
            r.threads,
            r.millis,
            r.speedup,
            r.identical,
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn races_detected_and_control_clean() {
        let rows = race_detection(4);
        assert!(
            rows.iter()
                .find(|r| r.model == "paper-race")
                .unwrap()
                .has_race
        );
        assert!(
            rows.iter()
                .find(|r| r.model == "order-race")
                .unwrap()
                .has_race
        );
        assert!(
            !rows
                .iter()
                .find(|r| r.model == "race-free")
                .unwrap()
                .has_race
        );
    }

    #[test]
    fn compat_drifts_only_on_boundary() {
        let rows = compat_mode();
        let interior = &rows[0];
        assert_eq!(interior.pre_16a, interior.post_16a);
        assert!(interior.pre_16a > 0);
        let boundary = &rows[1];
        assert_eq!(boundary.pre_16a, 0);
        assert!(boundary.post_16a > 0);
        let safe = &rows[2];
        assert_eq!((safe.pre_16a, safe.post_16a), (0, 0));
    }

    #[test]
    fn cosim_naive_table_corrupts() {
        let rows = cosim_value_sets();
        assert_eq!(rows[0].y, "1");
        assert_ne!(rows[1].y, "1");
    }

    #[test]
    fn kernel_throughput_pins_byte_identity() {
        // settle_throughput asserts VCD byte-identity internally; a
        // small run exercises that assertion plus the row shape.
        let rows = settle_throughput(8);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].path, "per-bit");
        assert_eq!(rows[1].path, "packed");
        assert!(rows.iter().all(|r| r.millis > 0.0));
    }

    #[test]
    fn sweep_scaling_stays_identical_and_serializes() {
        let rows = sweep_scaling(4, 3, &[2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.identical));
        let busy = busy_request(2, 1, 3);
        assert_eq!(busy.len(), 6);
        assert!(busy.iter().all(|r| r.samples == 3 && r.p25_ms <= r.p75_ms));
        let json = kernel_bench_json(&settle_throughput(4), &busy, &rows);
        obs::json::validate_json(&json).expect("well-formed JSON");
        assert!(json.contains("\"settle_throughput\""));
        assert!(json.contains("\"busy_request\""));
        assert!(json.contains("\"sweep_scaling\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn sensitivity_views_disagree() {
        let (rows, mismatch) = sensitivity_mismatch();
        assert!(mismatch);
        // As written: out stays 1 after c falls (list misses c).
        assert_eq!(rows[0].final_out, "1");
        // Completed list: out follows c down.
        assert_eq!(rows[1].final_out, "0");
    }
}
