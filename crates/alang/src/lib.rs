//! # alang — the a/L migration-callback language
//!
//! A small Lisp dialect reproducing the "Access Language (a/L)" the
//! paper's Section 2 describes: an interpreted language whose callbacks
//! handle non-standard property mapping during schematic migration,
//! "set up so that a user can interact with the entire design hierarchy
//! during the migration process."
//!
//! The design side is abstracted behind the [`host::Host`] trait; the
//! migration engine implements it over whatever object is currently
//! being translated, and scripts call `prop-get` / `prop-set!` /
//! `prop-remove!` / `prop-names` / `ctx` to rewrite properties.
//!
//! ## Example
//!
//! ```
//! use alang::{Interpreter, host::MapHost};
//!
//! # fn main() -> Result<(), alang::AlangError> {
//! let mut interp = Interpreter::new();
//! let mut host = MapHost::new().with_prop("SPICE", "w=1.2u l=0.4u");
//! // Split the compound analog property into two Cascade-style props.
//! interp.eval_src(
//!     r#"
//!     (define (split-spice)
//!       (let ((parts (string-split (prop-get "SPICE") " ")))
//!         (prop-set! "W" (substring (nth 0 parts) 2 (length (nth 0 parts))))
//!         (prop-set! "L" (substring (nth 1 parts) 2 (length (nth 1 parts))))
//!         (prop-remove! "SPICE")))
//!     (split-spice)
//!     "#,
//!     &mut host,
//! )?;
//! assert_eq!(host.props["W"].as_str(), Some("1.2u"));
//! assert_eq!(host.props["L"].as_str(), Some("0.4u"));
//! assert!(!host.props.contains_key("SPICE"));
//! # Ok(())
//! # }
//! ```

pub mod builtins;
pub mod env;
pub mod eval;
pub mod host;
pub mod reader;
pub mod value;

use std::fmt;

use env::Env;
use eval::Ctx;
use host::Host;
use value::Value;

/// Any a/L failure: read errors, unbound symbols, type/arity errors,
/// or fuel exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlangError {
    message: String,
}

impl AlangError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        AlangError {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for AlangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a/L: {}", self.message)
    }
}

impl std::error::Error for AlangError {}

/// Default per-evaluation step budget.
pub const DEFAULT_FUEL: u64 = 1_000_000;

/// An a/L interpreter holding a persistent global environment.
///
/// Definitions survive across [`Interpreter::eval_src`] calls, so a
/// migration configuration can load a callback library once and invoke
/// entry points per design object via [`Interpreter::call`].
pub struct Interpreter {
    root: Env,
    /// Lines produced by `(print ...)` across all evaluations.
    pub output: Vec<String>,
    /// Step budget applied to each top-level evaluation.
    pub fuel: u64,
}

/// Clears the global environment, whose functions capture it: without
/// this every interpreter that defined a function would leak its
/// globals. A clone of [`Interpreter::globals`], or a function value,
/// kept past the interpreter sees no globals afterwards.
impl Drop for Interpreter {
    fn drop(&mut self) {
        self.root.clear();
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with all builtins installed.
    pub fn new() -> Self {
        let root = Env::new();
        builtins::install(&root);
        Interpreter {
            root,
            output: Vec::new(),
            fuel: DEFAULT_FUEL,
        }
    }

    /// The global environment (for advanced host embedding).
    pub fn globals(&self) -> &Env {
        &self.root
    }

    /// Evaluates every form in `src` against `host`, returning the last
    /// result.
    ///
    /// # Errors
    ///
    /// Returns the first read or evaluation error.
    pub fn eval_src(&mut self, src: &str, host: &mut dyn Host) -> Result<Value, AlangError> {
        let forms = reader::read_all(src)?;
        let mut result = Value::Nil;
        let mut ctx = Ctx {
            host,
            output: &mut self.output,
            fuel: self.fuel,
        };
        for form in &forms {
            result = eval::eval(form, &self.root, &mut ctx)?;
        }
        Ok(result)
    }

    /// Evaluates a single already-read form.
    ///
    /// # Errors
    ///
    /// Returns any evaluation error.
    pub fn eval_form(&mut self, form: &Value, host: &mut dyn Host) -> Result<Value, AlangError> {
        let mut ctx = Ctx {
            host,
            output: &mut self.output,
            fuel: self.fuel,
        };
        eval::eval(form, &self.root, &mut ctx)
    }

    /// Calls a globally-defined function by name.
    ///
    /// # Errors
    ///
    /// Fails when `name` is unbound, not callable, or the body fails.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        host: &mut dyn Host,
    ) -> Result<Value, AlangError> {
        let func = self
            .root
            .lookup(name)
            .ok_or_else(|| AlangError::new(format!("unbound function `{name}`")))?;
        let mut ctx = Ctx {
            host,
            output: &mut self.output,
            fuel: self.fuel,
        };
        eval::apply(&func, args, &mut ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use host::{MapHost, NoHost};

    #[test]
    fn dropping_an_interpreter_frees_its_functions() {
        let mut interp = Interpreter::new();
        interp
            .eval_src("(define (f x) (+ x 1))", &mut NoHost)
            .unwrap();
        let f = match interp.globals().lookup("f") {
            Some(Value::Lambda(f)) => std::rc::Rc::downgrade(&f),
            _ => panic!("f is a function"),
        };
        drop(interp);
        assert!(f.upgrade().is_none(), "the global environment leaked");
    }

    fn run(src: &str) -> Result<Value, AlangError> {
        Interpreter::new().eval_src(src, &mut NoHost)
    }

    #[test]
    fn arithmetic() {
        assert!(run("(+ 1 2 3)").unwrap().equals(&Value::Int(6)));
        assert!(run("(- 10 4)").unwrap().equals(&Value::Int(6)));
        assert!(run("(- 5)").unwrap().equals(&Value::Int(-5)));
        assert!(run("(* 2 3 4)").unwrap().equals(&Value::Int(24)));
        assert!(run("(/ 10 2)").unwrap().equals(&Value::Int(5)));
        assert!(run("(/ 7 2)").unwrap().equals(&Value::Real(3.5)));
        assert!(run("(mod 7 3)").unwrap().equals(&Value::Int(1)));
        assert!(run("(mod -1 3)").unwrap().equals(&Value::Int(2)));
        assert!(run("(/ 1 0)").is_err());
        assert!(run("(+ 1 \"x\")").is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert!(run("(< 1 2)").unwrap().is_truthy());
        assert!(!run("(> 1 2)").unwrap().is_truthy());
        assert!(run("(= 2 2.0)").unwrap().is_truthy());
        assert!(run("(and #t 1 \"s\")").unwrap().is_truthy());
        assert!(!run("(and #t #f)").unwrap().is_truthy());
        assert!(run("(or #f nil 3)").unwrap().equals(&Value::Int(3)));
        assert!(run("(not nil)").unwrap().is_truthy());
    }

    #[test]
    fn special_forms() {
        assert!(run("(if (> 2 1) 'yes 'no)")
            .unwrap()
            .equals(&Value::Sym("yes".into())));
        assert!(run("(if #f 1)").unwrap().equals(&Value::Nil));
        assert!(run("(cond ((= 1 2) 'a) ((= 1 1) 'b) (else 'c))")
            .unwrap()
            .equals(&Value::Sym("b".into())));
        assert!(run("(cond ((= 1 2) 'a) (else 'c))")
            .unwrap()
            .equals(&Value::Sym("c".into())));
        assert!(run("(begin 1 2 3)").unwrap().equals(&Value::Int(3)));
        assert!(run("(let ((x 2) (y 3)) (* x y))")
            .unwrap()
            .equals(&Value::Int(6)));
    }

    #[test]
    fn define_and_call_functions() {
        let v = run("(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1))))) (fact 6)").unwrap();
        assert!(v.equals(&Value::Int(720)));
        let v = run("(define x 5) (set! x (+ x 1)) x").unwrap();
        assert!(v.equals(&Value::Int(6)));
        assert!(run("(set! nope 1)").is_err());
    }

    #[test]
    fn lambdas_capture_lexically() {
        let v = run("(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)").unwrap();
        assert!(v.equals(&Value::Int(15)));
    }

    #[test]
    fn while_loops_with_fuel_guard() {
        let v = run("(define i 0) (while (< i 10) (set! i (+ i 1))) i").unwrap();
        assert!(v.equals(&Value::Int(10)));
        // Infinite loop hits the fuel limit instead of hanging.
        let mut interp = Interpreter::new();
        interp.fuel = 10_000;
        let err = interp.eval_src("(while #t 1)", &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn list_operations() {
        assert!(run("(car '(1 2 3))").unwrap().equals(&Value::Int(1)));
        assert_eq!(run("(cdr '(1 2 3))").unwrap().to_string(), "(2 3)");
        assert_eq!(run("(cons 0 '(1))").unwrap().to_string(), "(0 1)");
        assert!(run("(length '(a b c))").unwrap().equals(&Value::Int(3)));
        assert!(run("(nth 1 '(a b c))")
            .unwrap()
            .equals(&Value::Sym("b".into())));
        assert_eq!(run("(append '(1) '(2 3))").unwrap().to_string(), "(1 2 3)");
        assert_eq!(run("(reverse '(1 2))").unwrap().to_string(), "(2 1)");
        assert_eq!(
            run("(map (lambda (x) (* x x)) '(1 2 3))")
                .unwrap()
                .to_string(),
            "(1 4 9)"
        );
        assert_eq!(
            run("(filter (lambda (x) (> x 1)) '(0 1 2 3))")
                .unwrap()
                .to_string(),
            "(2 3)"
        );
        assert!(run("(car '())").is_err());
    }

    #[test]
    fn string_operations() {
        assert!(run("(string-append \"a\" \"b\" 3)")
            .unwrap()
            .equals(&Value::Str("ab3".into())));
        assert!(run("(substring \"hello\" 1 3)")
            .unwrap()
            .equals(&Value::Str("el".into())));
        assert!(run("(string-index \"hello\" \"ll\")")
            .unwrap()
            .equals(&Value::Int(2)));
        assert!(run("(string-index \"hello\" \"z\")")
            .unwrap()
            .equals(&Value::Int(-1)));
        assert_eq!(
            run("(string-split \"a,b,c\" \",\")").unwrap().to_string(),
            "(\"a\" \"b\" \"c\")"
        );
        assert!(run("(string-replace \"a-b\" \"-\" \"_\")")
            .unwrap()
            .equals(&Value::Str("a_b".into())));
        assert!(run("(string->number \"42\")")
            .unwrap()
            .equals(&Value::Int(42)));
        assert!(run("(string->number \"x\")").unwrap().equals(&Value::Nil));
        assert!(run("(string-upcase \"ab\")")
            .unwrap()
            .equals(&Value::Str("AB".into())));
        assert!(run("(substring \"ab\" 1 9)").is_err());
    }

    #[test]
    fn predicates() {
        assert!(run("(null? '())").unwrap().is_truthy());
        assert!(run("(null? nil)").unwrap().is_truthy());
        assert!(!run("(null? '(1))").unwrap().is_truthy());
        assert!(run("(list? '(1))").unwrap().is_truthy());
        assert!(run("(string? \"s\")").unwrap().is_truthy());
        assert!(run("(number? 2.5)").unwrap().is_truthy());
    }

    #[test]
    fn print_collects_output() {
        let mut interp = Interpreter::new();
        interp
            .eval_src("(print \"hello\" 42)", &mut NoHost)
            .unwrap();
        assert_eq!(interp.output, vec!["hello 42"]);
    }

    #[test]
    fn host_property_access() {
        let mut interp = Interpreter::new();
        let mut host = MapHost::new()
            .with_prop("NAME", "old")
            .with_context("inst", "I7");
        interp
            .eval_src(
                r#"(prop-set! "NAME" (string-append (prop-get "NAME") "_" (ctx "inst")))"#,
                &mut host,
            )
            .unwrap();
        assert_eq!(host.props["NAME"].as_str(), Some("old_I7"));
        let names = interp.eval_src("(prop-names)", &mut host).unwrap();
        assert_eq!(names.to_string(), "(\"NAME\")");
    }

    #[test]
    fn definitions_persist_across_eval_calls() {
        let mut interp = Interpreter::new();
        interp
            .eval_src("(define (double x) (* 2 x))", &mut NoHost)
            .unwrap();
        let v = interp
            .call("double", &[Value::Int(21)], &mut NoHost)
            .unwrap();
        assert!(v.equals(&Value::Int(42)));
        assert!(interp.call("missing", &[], &mut NoHost).is_err());
        assert!(interp
            .call("double", &[Value::Int(1), Value::Int(2)], &mut NoHost)
            .is_err());
    }

    #[test]
    fn error_paths_are_reported() {
        assert!(run("unbound-name").is_err());
        assert!(run("(1 2 3)").is_err()); // not callable
        assert!(run("(quote)").is_err());
        assert!(run("(lambda)").is_err());
        assert!(run("(let (bad) 1)").is_err());
    }
}

#[cfg(test)]
mod more_builtin_tests {
    use super::*;
    use host::NoHost;

    fn run(src: &str) -> Result<Value, AlangError> {
        Interpreter::new().eval_src(src, &mut NoHost)
    }

    #[test]
    fn min_max_abs() {
        assert!(run("(min 3 1 2)").unwrap().equals(&Value::Int(1)));
        assert!(run("(max 3 1 2)").unwrap().equals(&Value::Int(3)));
        assert!(run("(min 1.5 2)").unwrap().equals(&Value::Real(1.5)));
        assert!(run("(abs -7)").unwrap().equals(&Value::Int(7)));
        assert!(run("(abs -2.5)").unwrap().equals(&Value::Real(2.5)));
        assert!(run("(min)").is_err());
        assert!(run("(abs \"x\")").is_err());
    }

    #[test]
    fn assoc_finds_pairs() {
        let v = run("(assoc 'b '((a 1) (b 2) (c 3)))").unwrap();
        assert_eq!(v.to_string(), "(b 2)");
        assert!(run("(assoc 'z '((a 1)))").unwrap().equals(&Value::Nil));
        assert!(run("(assoc 'z 5)").is_err());
    }
}
