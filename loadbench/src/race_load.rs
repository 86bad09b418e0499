//! The race-sweep workload: each request is HDL source text plus a set
//! of clocked stimuli, served by `hdl::parser::parse` →
//! `sim::elab::compile_unit` → `race::sweep_parallel` across every
//! scheduler policy.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use interop_bench::sim_exp::BUSY_MODEL;
use obs::{Recorder, Span};
use sim::race::{self, models, Stim, SweepResult};
use sim::{Circuit, Kernel, SchedulerPolicy};

use crate::layers::{CounterRecorder, LayerRecorder};
use crate::Rng;

/// Distinct requests per seed; the stream cycles through them.
pub const POOL: usize = 256;
/// One request in this many uses `BUSY_MODEL`: above 1%, so the busy
/// requests set `latency_p99_ms`. The other slots rotate through the
/// three small models, so the model mix is the same for every seed;
/// only the stimuli are seeded.
const BUSY_EVERY: usize = 32;
/// Stimuli × cycles of a busy request. Fixed, so the busy share of the
/// run's time does not drift with the seed.
const BUSY_STIMS: usize = 4;
const BUSY_CYCLES: u64 = 8;

/// The models a request can carry, with the top module and the verdict
/// the model is known to give (`None`: no known answer).
const SMALL: [(&str, &str, &str, Option<bool>); 3] = [
    ("paper_race", models::PAPER_RACE, "race", Some(true)),
    ("order_race", models::ORDER_RACE, "order", Some(true)),
    ("race_free", models::RACE_FREE, "clean", Some(false)),
];

struct Request {
    model: &'static str,
    source: &'static str,
    top: &'static str,
    stims: Vec<Stim>,
    expect_race: Option<bool>,
    reference: Vec<SweepResult>,
    digest: u64,
}

/// Facts from the traced replay of every pooled request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Summed wall time of their parallel sweeps.
    pub sweep_ns: u64,
}

/// A built race-sweep workload.
pub struct RaceLoad {
    pool: Vec<Request>,
    threads: usize,
    policies: Vec<SchedulerPolicy>,
}

fn compile(source: &str, top: &str) -> Result<Circuit, String> {
    let unit = hdl::parser::parse(source).map_err(|e| format!("hdl parse: {e}"))?;
    sim::elab::compile_unit(&unit, top).map_err(|e| format!("elaboration: {e}"))
}

impl RaceLoad {
    /// Generates `pool` requests for `seed` and computes each one's
    /// reference with the sequential `race::sweep`. Sweeps run on
    /// `threads` threads.
    pub fn build(seed: u64, threads: usize, pool: usize) -> Result<RaceLoad, String> {
        let policies = SchedulerPolicy::all();
        let mut requests = Vec::with_capacity(pool);
        for slot in 0..pool {
            let mut rng = Rng::new(seed, slot as u64);
            let (model, source, top, expect_race, stims) = if slot % BUSY_EVERY == BUSY_EVERY - 1 {
                let stims = (0..BUSY_STIMS)
                    .map(|i| Stim::clocked(format!("busy{i}"), BUSY_CYCLES))
                    .collect::<Vec<_>>();
                ("busy", BUSY_MODEL, "busy", None, stims)
            } else {
                let (model, source, top, expect) = SMALL[slot % SMALL.len()];
                let count = 4 + rng.below(5);
                let stims = (0..count)
                    .map(|i| Stim::clocked(format!("s{i}"), 16 + rng.below(49)))
                    .collect::<Vec<_>>();
                (model, source, top, expect, stims)
            };
            let circuit = Arc::new(compile(source, top)?);
            let reference = race::sweep(&circuit, &policies, &stims)
                .map_err(|e| format!("reference sweep: {e}"))?;
            let mut h = DefaultHasher::new();
            h.write(format!("{reference:?}").as_bytes());
            requests.push(Request {
                model,
                source,
                top,
                stims,
                expect_race,
                reference,
                digest: h.finish(),
            });
        }
        Ok(RaceLoad {
            pool: requests,
            threads: threads.max(1),
            policies,
        })
    }

    /// Threads each sweep fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn request(&self, index: u64) -> &Request {
        &self.pool[(index % self.pool.len() as u64) as usize]
    }

    /// Serves request `index` and checks it: the sweep must equal the
    /// sequential reference, and each verdict the model's known answer.
    pub fn serve(&self, index: u64, rec: &dyn Recorder) -> Result<u64, String> {
        let req = self.request(index);
        let unit = {
            let _span = Span::enter(rec, "hdl.parse");
            hdl::parser::parse(req.source).map_err(|e| format!("hdl parse: {e}"))?
        };
        let circuit = {
            let _span = Span::enter(rec, "sim.elab");
            Arc::new(sim::elab::compile_unit(&unit, req.top).map_err(|e| format!("elab: {e}"))?)
        };
        let results = {
            let _span = Span::enter(rec, "sim.sweep");
            race::sweep_parallel(&circuit, &self.policies, &req.stims, self.threads)
                .map_err(|e| format!("request {index}: sweep: {e}"))?
        };
        if results != req.reference {
            return Err(format!("request {index}: sweep differs from the reference"));
        }
        if let Some(expect) = req.expect_race {
            if let Some(bad) = results.iter().find(|r| r.report.has_race() != expect) {
                return Err(format!(
                    "request {index}: {} under {} gave has_race={}",
                    req.model, bad.stim, !expect
                ));
            }
        }
        Ok(req.digest)
    }

    /// Replays every pooled request once, one policy at a time:
    /// `Kernel::new_shared` → `set_recorder(counts)` → `Stim::apply`
    /// under a `sim.kernel` span in `rec`, then `race::compare` under
    /// `sim.compare`. The kernels report into a counter-only sink, so
    /// the kernel's own per-settle spans cost little. Also times one
    /// parallel sweep per request, for the sweep's parallel efficiency.
    /// The replay covers the fixed pool, so the kernel's event and delta
    /// counts repeat exactly for a seed.
    pub fn replay(
        &self,
        rec: &LayerRecorder,
        counts: &Arc<CounterRecorder>,
    ) -> Result<Replay, String> {
        let mut replay = Replay::default();
        for req in &self.pool {
            let circuit = Arc::new(compile(req.source, req.top)?);
            let start = Instant::now();
            let swept = race::sweep_parallel(&circuit, &self.policies, &req.stims, self.threads)
                .map_err(|e| format!("replay sweep: {e}"))?;
            replay.sweep_ns += start.elapsed().as_nanos() as u64;
            if swept != req.reference {
                return Err(format!("replay of {}: sweep differs", req.model));
            }
            for (stim, want) in req.stims.iter().zip(&req.reference) {
                let mut kernels = Vec::with_capacity(self.policies.len());
                for policy in &self.policies {
                    let _span = Span::enter(rec, "sim.kernel");
                    let mut kernel = Kernel::new_shared(Arc::clone(&circuit), *policy);
                    kernel.set_recorder(counts.clone());
                    stim.apply(&mut kernel)
                        .map_err(|e| format!("replay of {}: {e}", req.model))?;
                    kernels.push(kernel);
                }
                let report = {
                    let _span = Span::enter(rec, "sim.compare");
                    race::compare(&kernels)
                };
                if report != want.report {
                    return Err(format!("replay of {}: verdict differs", req.model));
                }
            }
            replay.requests += 1;
        }
        Ok(replay)
    }

    /// Model and stimulus shape of request `index`.
    pub fn describe(&self, index: u64) -> String {
        let req = self.request(index);
        let cycles: Vec<u64> = req.stims.iter().map(|s| (s.run_to - 5) / 15).collect();
        format!("{} cycles={cycles:?}", req.model)
    }

    /// Pool composition.
    pub fn facts(&self) -> Vec<(&'static str, String)> {
        let busy = self.pool.iter().filter(|r| r.model == "busy").count();
        let stims: usize = self.pool.iter().map(|r| r.stims.len()).sum();
        vec![
            ("pool_requests", self.pool.len().to_string()),
            ("busy_requests", busy.to_string()),
            ("pool_stimuli", stims.to_string()),
            ("policies", self.policies.len().to_string()),
        ]
    }
}
