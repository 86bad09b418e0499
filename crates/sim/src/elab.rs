//! Elaboration: HDL AST → simulatable circuit IR.
//!
//! Statements stay a small tree (blocks, `if`, `case`, assignments);
//! every expression in them — continuous right-hand sides, conditions,
//! case comparisons, assignment sources and bit-select indices — is
//! lowered here, once per circuit, into the circuit's compiled
//! program (see [`crate::eval`]).

use std::collections::BTreeMap;
use std::fmt;

use hdl::ast::{self, BinOp, Edge, Item, Module, Sensitivity};

use crate::eval::{Expr, Op, Operand, Program};
use crate::logic::{Logic, Value};

/// Signal identifier within a [`Circuit`].
pub type SigId = usize;

/// A simulated signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalDef {
    /// Signal name (flat).
    pub name: String,
    /// Bit width.
    pub width: usize,
    /// Declared LSB index (bit selects are relative to it).
    pub lsb: i64,
    /// True for top-level input ports (drivable from outside).
    pub is_input: bool,
}

/// Elaborated assignment target.
#[derive(Debug, Clone, PartialEq)]
pub struct LRef {
    /// Target signal.
    pub sig: SigId,
    /// Bit select, if any.
    pub index: Option<Expr>,
}

/// Elaborated statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SStmt {
    /// Sequence.
    Block(Vec<SStmt>),
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_s: Box<SStmt>,
        /// Else branch.
        else_s: Option<Box<SStmt>>,
    },
    /// Assignment.
    Assign {
        /// Target.
        lhs: LRef,
        /// Source.
        rhs: Expr,
        /// Blocking (`=`) vs non-blocking (`<=`).
        blocking: bool,
    },
    /// Case dispatch.
    Case {
        /// Subject, evaluated once per dispatch.
        subject: Expr,
        /// Arms: each label compiled as `subject == label` over the
        /// subject's result, so the first arm with a label evaluating
        /// to 1 runs.
        arms: Vec<(Vec<Expr>, SStmt)>,
        /// Default arm.
        default: Option<Box<SStmt>>,
    },
    /// No-op.
    Nop,
}

/// A process.
#[derive(Debug, Clone, PartialEq)]
pub enum Proc {
    /// Continuous assignment: re-evaluated whenever an operand changes.
    Continuous {
        /// Target.
        lhs: LRef,
        /// Source.
        rhs: Expr,
    },
    /// Always block with an event list.
    Always {
        /// `(edge, signal)` trigger terms.
        events: Vec<(Edge, SigId)>,
        /// Body, executed atomically per trigger.
        body: SStmt,
    },
}

/// A scheduled stimulus from an `initial` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    /// Absolute activation time.
    pub at: u64,
    /// Statement to run.
    pub body: SStmt,
}

/// An elaborated, simulatable circuit.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Circuit name (from the module).
    pub name: String,
    /// Signals.
    pub signals: Vec<SignalDef>,
    by_name: BTreeMap<String, SigId>,
    /// Processes.
    pub procs: Vec<Proc>,
    /// Initial-block stimuli, time-sorted.
    pub stimuli: Vec<Stimulus>,
    /// Every expression above, compiled.
    program: Program,
    /// Per signal, the `(edge, process)` pairs it triggers, in process
    /// order.
    watchers: Vec<Vec<(Edge, usize)>>,
}

impl Circuit {
    /// Looks a signal up by name.
    pub fn signal(&self, name: &str) -> Option<SigId> {
        self.by_name.get(name).copied()
    }

    /// Signal count.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// The compiled expressions.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The `(edge, process)` pairs a change of `sig` may trigger.
    pub(crate) fn watchers(&self, sig: SigId) -> &[(Edge, usize)] {
        &self.watchers[sig]
    }
}

/// An elaboration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabError {
    /// An expression references an undeclared signal.
    UnknownSignal {
        /// Signal name.
        name: String,
    },
    /// The module still contains instances — flatten first.
    HierarchyPresent {
        /// Instance name.
        inst: String,
    },
    /// Free-running `always` blocks are not simulatable here.
    FreeRunningAlways {
        /// Source line.
        line: usize,
    },
    /// `#` delays are only supported in `initial` blocks.
    DelayOutsideInitial {
        /// Source line.
        line: usize,
    },
    /// A based literal could not be decoded.
    BadLiteral {
        /// The literal's digit text.
        digits: String,
    },
    /// A concatenation with no operands.
    EmptyConcat,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
            ElabError::HierarchyPresent { inst } => {
                write!(f, "instance `{inst}` present; flatten before simulation")
            }
            ElabError::FreeRunningAlways { line } => {
                write!(f, "line {line}: free-running always not supported")
            }
            ElabError::DelayOutsideInitial { line } => {
                write!(f, "line {line}: # delay outside initial block")
            }
            ElabError::BadLiteral { digits } => write!(f, "bad literal digits `{digits}`"),
            ElabError::EmptyConcat => write!(f, "empty concatenation"),
        }
    }
}

impl std::error::Error for ElabError {}

/// Decodes a based literal into a [`Value`] of the declared width.
pub fn decode_based(width: u32, digits: &str, base: char) -> Result<Value, ElabError> {
    let w = width.max(1) as usize;
    let bad = || ElabError::BadLiteral {
        digits: digits.to_string(),
    };
    let mut bits: Vec<Logic> = Vec::new(); // MSB-first while building
    match base {
        'b' => {
            for c in digits.chars() {
                bits.push(Logic::from_char(c).ok_or_else(bad)?);
            }
        }
        'h' => {
            for c in digits.chars() {
                match c {
                    'x' => bits.extend([Logic::X; 4]),
                    'z' => bits.extend([Logic::Z; 4]),
                    _ => {
                        let v = c.to_digit(16).ok_or_else(bad)?;
                        for i in (0..4).rev() {
                            bits.push(if (v >> i) & 1 == 1 {
                                Logic::One
                            } else {
                                Logic::Zero
                            });
                        }
                    }
                }
            }
        }
        'd' => {
            let v: u64 = digits.parse().map_err(|_| bad())?;
            return Ok(Value::from_u64(v, w));
        }
        _ => return Err(bad()),
    }
    // Convert MSB-first build order to LSB-first and fit the width.
    bits.reverse();
    bits.resize(w, Logic::Zero);
    bits.truncate(w);
    Ok(Value::from_bits(&bits))
}

struct Elab {
    circuit: Circuit,
}

impl Elab {
    fn sig(&self, name: &str) -> Result<SigId, ElabError> {
        self.circuit
            .signal(name)
            .ok_or_else(|| ElabError::UnknownSignal {
                name: name.to_string(),
            })
    }

    /// Compiles one expression into the circuit's program.
    fn expr(&mut self, e: &ast::Expr) -> Result<Expr, ElabError> {
        let start = self.circuit.program.mark();
        let (out, width) = self.lower(e)?;
        Ok(self.circuit.program.finish(start, out, width))
    }

    /// Lowers `e` to instructions, operands first, returning the operand
    /// holding its result and its static width.
    fn lower(&mut self, e: &ast::Expr) -> Result<(Operand, usize), ElabError> {
        Ok(match e {
            ast::Expr::Ident(n) => {
                let sig = self.sig(n)?;
                (Operand::Sig(sig), self.circuit.signals[sig].width)
            }
            ast::Expr::Index(n, i) => {
                let sig = self.sig(n)?;
                let (index, _) = self.lower(i)?;
                let lsb = self.circuit.signals[sig].lsb;
                (self.circuit.program.emit(Op::Bit { sig, lsb, index }, 1), 1)
            }
            ast::Expr::Int(v) => (self.circuit.program.constant(Value::from_u64(*v, 64)), 64),
            ast::Expr::Based {
                width,
                digits,
                base,
            } => {
                let v = decode_based(*width, digits, *base)?;
                let w = v.width();
                (self.circuit.program.constant(v), w)
            }
            ast::Expr::Unary(op, x) => {
                let (a, wa) = self.lower(x)?;
                let w = match op {
                    ast::UnOp::Not | ast::UnOp::Neg => wa,
                    ast::UnOp::LNot | ast::UnOp::RedAnd | ast::UnOp::RedOr => 1,
                };
                (self.circuit.program.emit(Op::Unary(*op, a), w), w)
            }
            ast::Expr::Binary(op, a, b) => {
                let (a, wa) = self.lower(a)?;
                let (b, wb) = self.lower(b)?;
                let w = match op {
                    BinOp::LAnd
                    | BinOp::LOr
                    | BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Gt
                    | BinOp::Le
                    | BinOp::Ge => 1,
                    _ => wa.max(wb),
                };
                (self.circuit.program.emit(Op::Binary(*op, a, b), w), w)
            }
            ast::Expr::Ternary(c, a, b) => {
                let (c, _) = self.lower(c)?;
                let (a, wa) = self.lower(a)?;
                let (b, wb) = self.lower(b)?;
                let w = wa.max(wb);
                (self.circuit.program.emit(Op::Mux(c, a, b), w), w)
            }
            ast::Expr::Concat(items) => {
                let mut parts = Vec::with_capacity(items.len());
                let mut w = 0;
                for item in items {
                    let (p, wp) = self.lower(item)?;
                    parts.push(p);
                    w += wp;
                }
                if parts.is_empty() {
                    return Err(ElabError::EmptyConcat);
                }
                let op = self.circuit.program.concat(&parts);
                (self.circuit.program.emit(op, w), w)
            }
        })
    }

    fn lref(&mut self, l: &ast::LValue) -> Result<LRef, ElabError> {
        Ok(LRef {
            sig: self.sig(&l.name)?,
            index: l.index.as_ref().map(|i| self.expr(i)).transpose()?,
        })
    }

    fn stmt(&mut self, s: &ast::Stmt) -> Result<SStmt, ElabError> {
        Ok(match s {
            ast::Stmt::Block(items) => SStmt::Block(
                items
                    .iter()
                    .map(|x| self.stmt(x))
                    .collect::<Result<_, _>>()?,
            ),
            ast::Stmt::If {
                cond,
                then_s,
                else_s,
            } => SStmt::If {
                cond: self.expr(cond)?,
                then_s: Box::new(self.stmt(then_s)?),
                else_s: else_s
                    .as_ref()
                    .map(|e| self.stmt(e).map(Box::new))
                    .transpose()?,
            },
            ast::Stmt::Assign {
                lhs, rhs, blocking, ..
            } => SStmt::Assign {
                lhs: self.lref(lhs)?,
                rhs: self.expr(rhs)?,
                blocking: *blocking,
            },
            ast::Stmt::Delay { stmt, .. } => {
                // Reaching here means a delay outside initial.
                let line = first_line(stmt).unwrap_or(0);
                return Err(ElabError::DelayOutsideInitial { line });
            }
            ast::Stmt::Case {
                subject,
                arms,
                default,
            } => {
                let subject = self.expr(subject)?;
                let mut compiled = Vec::with_capacity(arms.len());
                for (labels, body) in arms {
                    let labels = labels
                        .iter()
                        .map(|l| self.case_label(&subject, l))
                        .collect::<Result<Vec<_>, ElabError>>()?;
                    compiled.push((labels, self.stmt(body)?));
                }
                SStmt::Case {
                    subject,
                    arms: compiled,
                    default: default
                        .as_ref()
                        .map(|d| self.stmt(d).map(Box::new))
                        .transpose()?,
                }
            }
            ast::Stmt::Nop => SStmt::Nop,
        })
    }

    /// Compiles a case label as `subject == label`, reading the
    /// subject's already-computed result.
    fn case_label(&mut self, subject: &Expr, label: &ast::Expr) -> Result<Expr, ElabError> {
        let start = self.circuit.program.mark();
        let (l, _) = self.lower(label)?;
        let eq = self
            .circuit
            .program
            .emit(Op::Binary(BinOp::Eq, subject.out(), l), 1);
        Ok(self.circuit.program.finish(start, eq, 1))
    }

    /// Unrolls an initial body into time-stamped stimuli.
    fn unroll_initial(
        &mut self,
        body: &ast::Stmt,
        t: &mut u64,
        out: &mut Vec<Stimulus>,
    ) -> Result<(), ElabError> {
        match body {
            ast::Stmt::Block(items) => {
                for s in items {
                    self.unroll_initial(s, t, out)?;
                }
            }
            ast::Stmt::Delay { amount, stmt } => {
                *t += amount;
                self.unroll_initial(stmt, t, out)?;
            }
            other => out.push(Stimulus {
                at: *t,
                body: self.stmt(other)?,
            }),
        }
        Ok(())
    }
}

fn first_line(s: &ast::Stmt) -> Option<usize> {
    match s {
        ast::Stmt::Assign { line, .. } => Some(*line),
        ast::Stmt::Block(items) => items.iter().find_map(first_line),
        ast::Stmt::If { then_s, .. } => first_line(then_s),
        ast::Stmt::Delay { stmt, .. } => first_line(stmt),
        ast::Stmt::Case { arms, .. } => arms.iter().find_map(|(_, b)| first_line(b)),
        ast::Stmt::Nop => None,
    }
}

/// Elaborates a flat module into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ElabError`] when the module still contains hierarchy,
/// free-running always blocks, delays outside initial blocks, unknown
/// signals, or undecodable literals.
pub fn compile(module: &Module) -> Result<Circuit, ElabError> {
    let mut circuit = Circuit {
        name: module.name.clone(),
        ..Circuit::default()
    };
    for net in &module.nets {
        let id = circuit.signals.len();
        let is_input = module
            .port(&net.name)
            .is_some_and(|p| p.dir == ast::PortDir::Input);
        circuit.signals.push(SignalDef {
            name: net.name.clone(),
            width: net.width() as usize,
            lsb: net.range.map(|(m, l)| m.min(l)).unwrap_or(0),
            is_input,
        });
        circuit.by_name.insert(net.name.clone(), id);
    }

    let mut elab = Elab { circuit };
    let mut procs = Vec::new();
    let mut stimuli = Vec::new();

    for item in &module.items {
        match item {
            Item::Assign { lhs, rhs, .. } => {
                procs.push(Proc::Continuous {
                    lhs: elab.lref(lhs)?,
                    rhs: elab.expr(rhs)?,
                });
            }
            Item::Always {
                trigger,
                body,
                line,
            } => {
                let events: Vec<(Edge, SigId)> = match trigger {
                    Sensitivity::List(list) => list
                        .iter()
                        .map(|e| Ok((e.edge, elab.sig(&e.signal)?)))
                        .collect::<Result<_, ElabError>>()?,
                    Sensitivity::Star => {
                        let reads = body.reads();
                        reads
                            .iter()
                            .map(|s| Ok((Edge::Any, elab.sig(s)?)))
                            .collect::<Result<_, ElabError>>()?
                    }
                    Sensitivity::FreeRunning => {
                        return Err(ElabError::FreeRunningAlways { line: *line })
                    }
                };
                procs.push(Proc::Always {
                    events,
                    body: elab.stmt(body)?,
                });
            }
            Item::Initial { body, .. } => {
                let mut t = 0u64;
                elab.unroll_initial(body, &mut t, &mut stimuli)?;
            }
            Item::Instance { name, .. } => {
                return Err(ElabError::HierarchyPresent { inst: name.clone() })
            }
        }
    }

    let mut circuit = elab.circuit;
    circuit.watchers = watchers(&circuit, &procs);
    circuit.procs = procs;
    stimuli.sort_by_key(|s| s.at);
    circuit.stimuli = stimuli;
    Ok(circuit)
}

/// Each signal's watchers: every continuous assignment reading it
/// (right-hand side or target index), and every always block triggered
/// by it, in process order.
fn watchers(circuit: &Circuit, procs: &[Proc]) -> Vec<Vec<(Edge, usize)>> {
    let mut watchers: Vec<Vec<(Edge, usize)>> = vec![Vec::new(); circuit.signals.len()];
    let mut reads = Vec::new();
    for (pid, proc_) in procs.iter().enumerate() {
        match proc_ {
            Proc::Continuous { lhs, rhs } => {
                reads.clear();
                circuit.program.reads(rhs, &mut reads);
                if let Some(i) = &lhs.index {
                    circuit.program.reads(i, &mut reads);
                }
                reads.sort_unstable();
                reads.dedup();
                for &r in &reads {
                    watchers[r].push((Edge::Any, pid));
                }
            }
            Proc::Always { events, .. } => {
                for (edge, sig) in events {
                    watchers[*sig].push((*edge, pid));
                }
            }
        }
    }
    watchers
}

/// Flattens `top` within `unit` and compiles the result.
///
/// # Errors
///
/// Propagates flattening and elaboration errors as strings.
pub fn compile_unit(unit: &hdl::SourceUnit, top: &str) -> Result<Circuit, String> {
    let flat = hdl::flatten(unit, top, "_").map_err(|e| e.to_string())?;
    compile(&flat.module).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::parser::parse;

    #[test]
    fn compile_simple_module() {
        let unit = parse(
            r#"
            module m(input a, input b, output w, output reg q);
              assign w = a & b;
              always @(posedge a) q <= b;
              initial begin
                #5 q = 0;
              end
            endmodule
            "#,
        )
        .unwrap();
        let c = compile(unit.module("m").unwrap()).unwrap();
        assert_eq!(c.signal_count(), 4);
        assert_eq!(c.procs.len(), 2);
        assert_eq!(c.stimuli.len(), 1);
        assert_eq!(c.stimuli[0].at, 5);
        assert!(c.signals[c.signal("a").unwrap()].is_input);
        assert!(!c.signals[c.signal("w").unwrap()].is_input);
    }

    #[test]
    fn star_sensitivity_expands_to_reads() {
        let unit = parse(
            r#"
            module m(input a, input b, input c, output reg o);
              always @* o = a ? b : c;
            endmodule
            "#,
        )
        .unwrap();
        let c = compile(unit.module("m").unwrap()).unwrap();
        let Proc::Always { events, .. } = &c.procs[0] else {
            panic!()
        };
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn unsupported_constructs_error() {
        let unit = parse(
            r#"
            module f(input d, output reg b);
              always begin b = d; end
            endmodule
            "#,
        )
        .unwrap();
        assert!(matches!(
            compile(unit.module("f").unwrap()),
            Err(ElabError::FreeRunningAlways { .. })
        ));

        let unit2 = parse(
            r#"
            module g(input d, output reg b);
              always @(d) #3 b = d;
            endmodule
            "#,
        )
        .unwrap();
        assert!(matches!(
            compile(unit2.module("g").unwrap()),
            Err(ElabError::DelayOutsideInitial { .. })
        ));

        let unit3 = parse(
            r#"
            module h(input d, output w);
              assign w = ghost;
            endmodule
            "#,
        )
        .unwrap();
        assert!(matches!(
            compile(unit3.module("h").unwrap()),
            Err(ElabError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn based_literal_decoding() {
        assert_eq!(decode_based(4, "1010", 'b').unwrap().as_u64(), Some(10));
        assert_eq!(decode_based(8, "ff", 'h').unwrap().as_u64(), Some(255));
        assert_eq!(decode_based(8, "12", 'd').unwrap().as_u64(), Some(12));
        let x = decode_based(4, "1x10", 'b').unwrap();
        assert!(x.has_unknown());
        assert_eq!(x.to_string_msb(), "1x10");
        let hx = decode_based(8, "fx", 'h').unwrap();
        assert_eq!(hx.to_string_msb(), "1111xxxx");
        assert!(decode_based(4, "10", 'q').is_err());
        assert!(decode_based(4, "weird", 'd').is_err());
        // Truncation to width.
        assert_eq!(decode_based(2, "1111", 'b').unwrap().as_u64(), Some(3));
    }

    #[test]
    fn compile_unit_flattens_hierarchy() {
        let unit = parse(
            r#"
            module leaf(input i, output o);
              assign o = ~i;
            endmodule
            module top(input x, output y);
              wire m;
              leaf u1 (.i(x), .o(m));
              leaf u2 (.i(m), .o(y));
            endmodule
            "#,
        )
        .unwrap();
        let c = compile_unit(&unit, "top").unwrap();
        assert_eq!(c.procs.len(), 2);
    }
}
