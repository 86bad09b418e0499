//! E-S31-KERNEL: packed two-plane kernel throughput and the parallel
//! divergence sweep.
//!
//! Measures (1) settle throughput of the packed plane-arithmetic value
//! path against the retained per-bit reference path on the same busy
//! model — waveforms are asserted byte-identical before any number is
//! reported — (2) one busy race-sweep request as the `race_sweep`
//! workload serves it (4 × `Stim::clocked(8)` across every policy),
//! sequential and through `sweep_parallel` at 2 threads, after
//! asserting both give equal results, and (3) wall-clock scaling of the
//! 4-policy divergence sweep at 1/2/8 worker threads. Prints the tables
//! and records the numbers as `BENCH_sim.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::sim_exp::{
    busy_kernel, busy_request, busy_request_table, kernel_bench_json, settle_table,
    settle_throughput, sweep_scaling, sweep_table,
};
use sim::kernel::SchedulerPolicy;
use sim::race::{clocked_testbench, sweep, sweep_parallel, Stim};
use std::sync::Arc;

const CYCLES: u64 = 12;
const STIMS: usize = 8;
/// The busy request of the `race_sweep` workload: stimuli × cycles.
const BUSY_STIMS: usize = 4;
const BUSY_CYCLES: u64 = 8;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("s31_kernel_settle");
    g.sample_size(10);
    g.bench_function("packed", |b| {
        b.iter(|| {
            let mut k = busy_kernel(SchedulerPolicy::sim_a());
            clocked_testbench(&mut k, CYCLES).expect("run");
            k.time()
        })
    });
    g.bench_function("per_bit", |b| {
        b.iter(|| {
            let _guard = sim::logic::reference::force();
            let mut k = busy_kernel(SchedulerPolicy::sim_a());
            clocked_testbench(&mut k, CYCLES).expect("run");
            k.time()
        })
    });
    g.finish();

    let circuit = busy_kernel(SchedulerPolicy::sim_a()).circuit_arc();
    let policies = SchedulerPolicy::all();
    let busy: Vec<Stim> = (0..BUSY_STIMS)
        .map(|i| Stim::clocked(format!("busy{i}"), BUSY_CYCLES))
        .collect();
    assert_eq!(
        sweep_parallel(&circuit, &policies, &busy, 2).expect("sweep"),
        sweep(&circuit, &policies, &busy).expect("sweep"),
        "parallel and sequential busy sweeps must agree"
    );
    let mut g = c.benchmark_group("s31_kernel");
    g.sample_size(10);
    g.bench_function("busy_request_sequential", |b| {
        b.iter(|| sweep(&circuit, &policies, &busy).expect("sweep"))
    });
    g.bench_function("busy_request_parallel_2", |b| {
        b.iter(|| sweep_parallel(&circuit, &policies, &busy, 2).expect("sweep"))
    });
    g.finish();

    let stims: Vec<Stim> = (0..STIMS)
        .map(|i| Stim::clocked(format!("s{i}"), CYCLES))
        .collect();
    let mut g = c.benchmark_group("s31_kernel_sweep");
    g.sample_size(10);
    for threads in [1usize, 2, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| sweep_parallel(&Arc::clone(&circuit), &policies, &stims, t).expect("sweep"))
        });
    }
    g.finish();

    let settle = settle_throughput(2048);
    let busy_rows = busy_request(BUSY_STIMS, BUSY_CYCLES, 60);
    let sweeps = sweep_scaling(STIMS, CYCLES, &[1, 2, 8]);
    println!();
    print!("{}", settle_table(&settle));
    println!();
    print!("{}", busy_request_table(&busy_rows));
    println!();
    print!("{}", sweep_table(&sweeps));

    let json = kernel_bench_json(&settle, &busy_rows, &sweeps);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded {path}"),
        Err(e) => println!("\ncould not record {path}: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
