//! Command line, closed-loop clients, metrics and the result line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{NullRecorder, Recorder};

use crate::layers::{CounterRecorder, LayerRecorder};
use crate::stats::{median, percentile};
use crate::{Load, WorkloadKind};

/// End-to-end metrics of an untraced run, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with units. Layers a workload
/// does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("schematic.viewstar_parse.ms", "ms"),
    ("schematic.viewstar_parse.mb_per_s", "MB/s"),
    ("schematic.cascade_write.ms", "ms"),
    ("migrate.migrate.ms", "ms"),
    ("migrate.stage.scale.ms", "ms"),
    ("migrate.stage.props.ms", "ms"),
    ("migrate.stage.callbacks.ms", "ms"),
    ("migrate.stage.symbols.ms", "ms"),
    ("migrate.stage.bus.ms", "ms"),
    ("migrate.stage.connectors.ms", "ms"),
    ("migrate.stage.globals.ms", "ms"),
    ("migrate.stage.text.ms", "ms"),
    ("migrate.cache.inserts_per_req", "count"),
    ("migrate.cache.evictions_per_req", "count"),
    ("migrate.cache.bytes_mb", "MB"),
    ("migrate.cache.lookup.ms", "ms"),
    ("migrate.cache.hit_ratio", "ratio"),
    ("migrate.cache.prefix_hit_ratio", "ratio"),
    ("migrate.verify.ms", "ms"),
    ("hdl.parse.ms", "ms"),
    ("sim.elab.ms", "ms"),
    ("sim.sweep.ms", "ms"),
    ("sim.sweep.parallel_efficiency", "ratio"),
    ("sim.kernel.ms", "ms"),
    ("sim.compare.ms", "ms"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events_per_req", "count"),
    ("sim.delta_cycles_per_req", "count"),
    ("trace.requests_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Warm-up before the measured phase, as a share of `--seconds`: caches
/// fill, lazy set-up finishes and the heap reaches its working size
/// before timing.
const WARMUP_SHARE: f64 = 0.25;
/// Share of the run spent untraced before the traced phase of a traced
/// run, to measure the tracing overhead.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// Windows the measured phase is split into: `requests_per_s` and
/// `latency_p50_ms` are medians over them, so a burst of load from
/// outside the benchmark moves few windows and not the result.
const WINDOWS: usize = 10;
/// Successful requests the measured phase needs for a p99 with 10
/// samples beyond it.
const MIN_P99_SAMPLES: u64 = 1000;
/// Most failure messages printed.
const MAX_ERRORS_SHOWN: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One closed-loop phase.
#[derive(Default)]
pub struct Phase {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored or mismatched their reference.
    pub failed: u64,
    /// Latency of every successful request, in ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// `(completion time in s since the phase began, latency in ms)` of
    /// every successful request, unordered.
    pub samples: Vec<(f64, f64)>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Layer totals of a traced phase (empty otherwise).
    pub layers: LayerRecorder,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Completed requests per second of wall time.
    pub fn requests_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }

    /// Completed requests per second and median latency in each of
    /// `count` equal windows of the phase, by completion time.
    pub fn windows(&self, count: usize) -> Vec<(f64, f64)> {
        let width = self.elapsed.as_secs_f64() / count as f64;
        let mut buckets = vec![Vec::new(); count];
        for &(done, ms) in &self.samples {
            buckets[((done / width) as usize).min(count - 1)].push(ms);
        }
        buckets
            .iter()
            .map(|b| {
                let p50 = if b.is_empty() { f64::NAN } else { median(b) };
                (b.len() as f64 / width, p50)
            })
            .collect()
    }
}

/// Runs `load`'s clients in a closed loop for `duration`: each client
/// sends its next request only after the previous one completed.
/// Request indices come from `next`, so consecutive phases continue one
/// request stream. On a host too slow to complete `min_done` requests in
/// `duration`, the phase runs on until it has, for at most three times
/// `duration` in all.
pub fn closed_loop(
    load: &Load,
    next: &AtomicU64,
    duration: Duration,
    min_done: u64,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let hard_deadline = start + duration * 3;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..load.clients())
            .map(|_| {
                scope.spawn(|| {
                    let layers = LayerRecorder::new();
                    let rec: &dyn Recorder = if traced { &layers } else { &NullRecorder };
                    let mut mine = Phase::default();
                    loop {
                        let now = Instant::now();
                        if now >= hard_deadline
                            || (now >= deadline && done.load(Ordering::Relaxed) >= min_done)
                        {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let result = load.serve(index, rec);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        mine.attempted += 1;
                        match result {
                            Ok(digest) => {
                                std::hint::black_box(digest);
                                done.fetch_add(1, Ordering::Relaxed);
                                mine.samples.push((start.elapsed().as_secs_f64(), ms));
                            }
                            Err(e) => {
                                mine.failed += 1;
                                if mine.errors.len() < MAX_ERRORS_SHOWN {
                                    mine.errors.push(e);
                                }
                            }
                        }
                    }
                    mine.layers = layers;
                    mine
                })
            })
            .collect();
        // Joined one by one rather than left to the scope: a join returns
        // only once the thread has exited, so the allocator has released
        // the thread's arena before the next phase's clients start and
        // reuse it. Left to the scope, a client may still be exiting, and
        // the next phase's clients get fresh arenas: on some runs only,
        // about 16 MB more resident memory on `migrate_cold`.
        for client in clients {
            let mut mine = client.join().expect("client thread panicked");
            phase.attempted += mine.attempted;
            phase.failed += mine.failed;
            phase.samples.append(&mut mine.samples);
            phase.errors.append(&mut mine.errors);
            phase.layers.merge(&mine.layers);
        }
    });
    phase.elapsed = start.elapsed();
    phase.latencies_ms = phase.samples.iter().map(|&(_, ms)| ms).collect();
    phase.latencies_ms.sort_by(f64::total_cmp);
    phase.errors.truncate(MAX_ERRORS_SHOWN);
    phase
}

/// A memory figure of this process in MB from `/proc/self/status`:
/// `VmHWM` is the peak resident set, `VmRSS` the current one.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// `(steal, total)` CPU time of the host so far, in clock ticks, from
/// the `cpu` line of `/proc/stat`; `None` where it cannot be read.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs had work: a figure that rises with it measures the host, not the
/// program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Steal as a share of all CPU time between two [`cpu_ticks`] readings.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    /// Lines printed before the result line.
    pub lines: Vec<String>,
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that failed, warm-up included.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &'static str) -> Metric {
    let unit = table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is declared");
    Metric {
        name,
        value: 0.0,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one workload end to end and collects what it reports.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut load = None;
    for _ in 0..SETUPS {
        drop(load.take()); // free the previous set-up before timing the next
        let start = Instant::now();
        load = Some(Load::build(args.workload, args.seed, nproc)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let load = load.expect("at least one set-up");
    let setup_s = median(&setups);
    let mut rss = vec![("setup", status_mb("VmRSS")?)];

    let next = AtomicU64::new(0);
    let warm_up = Duration::from_secs_f64(args.seconds * WARMUP_SHARE);
    let warm = closed_loop(&load, &next, warm_up, 0, false);
    let measured = Duration::from_secs_f64(args.seconds);
    rss.push(("warm-up", status_mb("VmRSS")?));

    let mut lines = vec![
        format!(
            "workload={} seed={} seconds={} trace={} nproc={} clients={} sweep_threads={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc,
            load.clients(),
            match &load {
                Load::Race(r) => r.threads().to_string(),
                Load::Migrate(_) => "-".to_string(),
            }
        ),
        format!(
            "inputs: {}",
            load.facts()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("setup_s per set-up: {setups:?}"),
        format!(
            "warm-up: {} requests in {:.3} s",
            warm.attempted,
            warm.elapsed.as_secs_f64()
        ),
    ];
    let mut phases = vec![warm];
    let mut metrics = Vec::new();

    if !args.trace {
        let ticks = cpu_ticks();
        let phase = closed_loop(&load, &next, measured, MIN_P99_SAMPLES, false);
        let steal = steal_share(ticks, cpu_ticks());
        let p50 = percentile(&phase.latencies_ms, 50.0);
        let p99 = percentile(&phase.latencies_ms, 99.0);
        lines.push(format!(
            "measured: {} requests ({} failed) in {:.3} s: {:.3} req/s overall, p50 {:.4} ms overall",
            phase.attempted,
            phase.failed,
            phase.elapsed.as_secs_f64(),
            phase.requests_per_s(),
            p50.map_or(f64::NAN, |p| p.value)
        ));
        lines.push(format!(
            "host steal while measuring: {}",
            steal.map_or("unknown".to_string(), |s| format!(
                "{:.2}% of CPU time",
                100.0 * s
            ))
        ));
        let windows = phase.windows(WINDOWS);
        lines.push(format!(
            "windows req/s: {:?}",
            windows.iter().map(|w| w.0.round()).collect::<Vec<_>>()
        ));
        lines.push(format!(
            "windows p50 ms: {:?}",
            windows
                .iter()
                .map(|w| (w.1 * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        for (name, p) in [("latency_p50_ms", p50), ("latency_p99_ms", p99)] {
            match p {
                Some(p) => lines.push(format!(
                    "{name}: {} samples, {} beyond",
                    p.samples, p.beyond
                )),
                None => {
                    return Err(format!(
                        "{name}: refused, fewer than 10 of {} samples lie beyond it; \
                         run longer",
                        phase.latencies_ms.len()
                    ))
                }
            }
        }
        let window_rates: Vec<f64> = windows.iter().map(|w| w.0).collect();
        let window_p50s: Vec<f64> = windows
            .iter()
            .map(|w| w.1)
            .filter(|v| v.is_finite())
            .collect();
        let values = [
            median(&window_rates),
            median(&window_p50s),
            p99.map_or(0.0, |p| p.value),
            setup_s,
            status_mb("VmHWM")?,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric { name, value, unit });
        }
        phases.push(phase);
    } else {
        let untraced = closed_loop(&load, &next, measured.mul_f64(UNTRACED_SHARE), 0, false);
        let before = match &load {
            Load::Migrate(m) => Some(m.cache().stats()),
            Load::Race(_) => None,
        };
        let traced = closed_loop(
            &load,
            &next,
            measured.mul_f64(1.0 - UNTRACED_SHARE),
            0,
            true,
        );
        let after = match &load {
            Load::Migrate(m) => Some(m.cache().stats()),
            Load::Race(_) => None,
        };
        let counts = Arc::new(CounterRecorder::default());
        let replay = match &load {
            Load::Race(r) => Some(r.replay(&traced.layers, &counts)?),
            Load::Migrate(_) => None,
        };
        let layers = &traced.layers;
        let reqs = (traced.attempted - traced.failed) as f64;
        let per_req_ms = |name: &str| ratio(layers.span(name).self_ns as f64 / 1e6, reqs);
        let mut values: Vec<Metric> = PER_LAYER
            .iter()
            .map(|(n, _)| unit_of(&PER_LAYER, n))
            .collect();
        let mut set = |name: &str, value: f64| {
            let m = values
                .iter_mut()
                .find(|m| m.name == name)
                .expect("metric is declared");
            m.value = value;
        };
        for (name, _) in PER_LAYER.iter() {
            if let Some(span) = name.strip_suffix(".ms") {
                if !matches!(span, "sim.kernel" | "sim.compare") {
                    set(name, per_req_ms(span));
                }
            }
        }
        let parse = layers.span("schematic.viewstar_parse");
        set(
            "schematic.viewstar_parse.mb_per_s",
            ratio(
                layers.counter("loadbench.viewstar_bytes") as f64 / 1e6,
                parse.total_ns as f64 / 1e9,
            ),
        );
        if let (Some(b), Some(a)) = (before, after) {
            let lookups = (a.hits + a.prefix_hits + a.misses) - (b.hits + b.prefix_hits + b.misses);
            set(
                "migrate.cache.inserts_per_req",
                ratio((a.inserts - b.inserts) as f64, reqs),
            );
            set(
                "migrate.cache.evictions_per_req",
                ratio((a.evictions - b.evictions) as f64, reqs),
            );
            set("migrate.cache.bytes_mb", a.bytes as f64 / (1 << 20) as f64);
            set(
                "migrate.cache.hit_ratio",
                ratio((a.hits - b.hits) as f64, lookups as f64),
            );
            set(
                "migrate.cache.prefix_hit_ratio",
                ratio((a.prefix_hits - b.prefix_hits) as f64, lookups as f64),
            );
        }
        if let (Some(replay), Load::Race(r)) = (replay, &load) {
            let kernel = layers.span("sim.kernel");
            let events = counts.events() as f64;
            let n = replay.requests as f64;
            set("sim.kernel.ms", ratio(kernel.total_ns as f64 / 1e6, n));
            set(
                "sim.compare.ms",
                ratio(layers.span("sim.compare").total_ns as f64 / 1e6, n),
            );
            set(
                "sim.sweep.parallel_efficiency",
                ratio(
                    kernel.total_ns as f64,
                    r.threads() as f64 * replay.sweep_ns as f64,
                ),
            );
            set(
                "sim.host_ns_per_event",
                ratio(kernel.total_ns as f64, events),
            );
            set("sim.events_per_req", ratio(events, n));
            set(
                "sim.delta_cycles_per_req",
                ratio(counts.delta_cycles() as f64, n),
            );
            lines.push(format!(
                "replay: {} requests, {} events, {} delta cycles",
                replay.requests,
                events,
                counts.delta_cycles()
            ));
        }
        let traced_rps = traced.requests_per_s();
        let untraced_rps = untraced.requests_per_s();
        set("trace.requests_per_s", traced_rps);
        set(
            "trace.overhead_frac",
            ratio(untraced_rps - traced_rps, untraced_rps),
        );
        lines.push(format!(
            "tracing overhead: untraced {:.2} req/s ({} requests), traced {:.2} req/s ({} requests), overhead {:+.2}%",
            untraced_rps,
            untraced.attempted,
            traced_rps,
            traced.attempted,
            100.0 * ratio(untraced_rps - traced_rps, untraced_rps)
        ));
        lines.push(format!(
            "{:<32} {:>8} {:>12} {:>12}",
            "layer span", "count", "total ms/req", "self ms/req"
        ));
        for (name, t) in layers.spans() {
            let per = if name.starts_with("sim.kernel") || name.starts_with("sim.compare") {
                replay.map_or(0.0, |r| r.requests as f64)
            } else {
                reqs
            };
            lines.push(format!(
                "{:<32} {:>8} {:>12.4} {:>12.4}",
                name,
                t.count,
                ratio(t.total_ns as f64 / 1e6, per),
                ratio(t.self_ns as f64 / 1e6, per)
            ));
        }
        metrics = values;
        phases.push(untraced);
        phases.push(traced);
    }

    rss.push(("end", status_mb("VmRSS")?));
    lines.push(format!(
        "resident MB after {}; peak {:.1}",
        rss.iter()
            .map(|(at, mb)| format!("{at} {mb:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        status_mb("VmHWM")?
    ));
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    lines.push(format!(
        "failed_frac: {} ({failed} of {attempted} requests)",
        ratio(failed as f64, attempted as f64)
    ));
    for p in &phases {
        lines.extend(p.errors.iter().map(|e| format!("failure: {e}")));
    }
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
