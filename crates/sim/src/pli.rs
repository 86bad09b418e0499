//! PLI-style user extensions.
//!
//! Section 3.4: "Verilog simulators provide a PLI (programming language
//! interface), which allows the user to link custom C language modules
//! to the simulator." Here the custom module is a Rust closure hooked
//! to signal changes — same shape, no linker involved.
//!
//! Callbacks are `Send` (shared through `Arc<Mutex<..>>`), which keeps
//! a [`Kernel`] with registered hooks movable across threads — a
//! requirement of [`crate::race::sweep_parallel`].

use std::sync::{Arc, Mutex};

use crate::elab::SigId;
use crate::kernel::{History, Kernel, SimError};
use crate::logic::Value;

/// A user callback: `(time, new value)`.
pub type PliCallback = Arc<Mutex<dyn FnMut(u64, &Value) + Send>>;

/// A monitor that records every change of one signal — the classic
/// `$monitor` system task built on the PLI hook.
#[derive(Clone, Default)]
pub struct Monitor {
    log: Arc<Mutex<Vec<(u64, Value)>>>,
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// The hook to register with [`Kernel::on_change`].
    pub fn callback(&self) -> PliCallback {
        let log = Arc::clone(&self.log);
        Arc::new(Mutex::new(move |t: u64, v: &Value| {
            log.lock().expect("monitor log").push((t, v.clone()));
        }))
    }

    /// The recorded `(time, value)` pairs.
    pub fn log(&self) -> Vec<(u64, Value)> {
        self.log.lock().expect("monitor log").clone()
    }

    /// The recorded history with consecutive duplicates collapsed, in
    /// the form [`crate::kernel::Waveform::history`] returns.
    pub fn history(&self) -> History {
        let log = self.log.lock().expect("monitor log");
        let mut out = History::default();
        let mut last = None;
        for (t, v) in log.iter() {
            if last != Some(v) {
                out.push(*t, v.into());
                last = Some(v);
            }
        }
        out
    }
}

/// Registers a change callback on a named signal.
///
/// # Errors
///
/// Fails when the signal name is unknown.
pub fn on_change_name(
    kernel: &mut Kernel,
    name: &str,
    callback: PliCallback,
) -> Result<SigId, SimError> {
    let sig = kernel
        .circuit()
        .signal(name)
        .ok_or_else(|| SimError::NoSuchSignal {
            name: name.to_string(),
        })?;
    kernel.on_change(sig, callback);
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::compile_unit;
    use crate::kernel::SchedulerPolicy;
    use crate::logic::Logic;

    #[test]
    fn monitor_matches_waveform_history() {
        let unit = hdl::parse(
            "module m(input a, output w);
               assign w = ~a;
             endmodule",
        )
        .expect("parses");
        let mut k = Kernel::new(
            compile_unit(&unit, "m").expect("elab"),
            SchedulerPolicy::sim_a(),
        );
        let mon = Monitor::new();
        on_change_name(&mut k, "w", mon.callback()).expect("register");

        for (t, v) in [(1u64, Logic::One), (2, Logic::Zero), (3, Logic::One)] {
            k.poke_name("a", Value::bit(v)).expect("poke");
            k.run_until(t).expect("run");
        }
        let w = k.circuit().signal("w").expect("w");
        assert_eq!(mon.history(), k.waveform().history(w));
        assert_eq!(mon.history().len(), 3, "x->0, 0->1, 1->0");
    }

    #[test]
    fn callbacks_fire_for_mid_process_blocking_updates() {
        // The PLI sees blocking assignments as they commit, not only at
        // activation end — just like a real simulator's VPI callbacks.
        let unit = hdl::parse(
            "module m(input clk, input d, output reg x, output reg y);
               initial begin x = 0; y = 0; end
               always @(posedge clk) begin
                 x = d;
                 y = x;
               end
             endmodule",
        )
        .expect("parses");
        let mut k = Kernel::new(
            compile_unit(&unit, "m").expect("elab"),
            SchedulerPolicy::sim_a(),
        );
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        for name in ["x", "y"] {
            let log = Arc::clone(&seen);
            let tag = name.to_string();
            on_change_name(
                &mut k,
                name,
                Arc::new(Mutex::new(move |_t: u64, v: &Value| {
                    log.lock()
                        .expect("log")
                        .push(format!("{tag}={}", v.to_string_msb()));
                })),
            )
            .expect("register");
        }
        k.poke_name("clk", Value::bit(Logic::Zero)).expect("clk");
        k.poke_name("d", Value::bit(Logic::One)).expect("d");
        k.run_until(1).expect("run");
        k.poke_name("clk", Value::bit(Logic::One)).expect("clk");
        k.run_until(2).expect("run");
        let log = seen.lock().expect("log");
        // Initial zeros, then x=1 strictly before y=1 within one activation.
        let x1 = log.iter().position(|e| e == "x=1").expect("x=1 seen");
        let y1 = log.iter().position(|e| e == "y=1").expect("y=1 seen");
        assert!(x1 < y1, "{log:?}");
    }

    #[test]
    fn unknown_signal_is_rejected() {
        let unit =
            hdl::parse("module m(input a, output w); assign w = a; endmodule").expect("parses");
        let mut k = Kernel::new(
            compile_unit(&unit, "m").expect("elab"),
            SchedulerPolicy::sim_a(),
        );
        let mon = Monitor::new();
        assert!(on_change_name(&mut k, "zz", mon.callback()).is_err());
    }
}
