//! Lexical environments.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::value::Value;

#[derive(Default)]
struct Frame {
    vars: HashMap<String, Value>,
    parent: Option<Env>,
}

/// A shared, mutable lexical environment frame with an optional parent.
#[derive(Clone, Default)]
pub struct Env {
    frame: Rc<RefCell<Frame>>,
}

impl Env {
    /// Creates an empty root environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Creates a child environment whose lookups fall back to `self`.
    pub fn child(&self) -> Env {
        Env {
            frame: Rc::new(RefCell::new(Frame {
                vars: HashMap::new(),
                parent: Some(self.clone()),
            })),
        }
    }

    /// Drops every binding of this frame. A function defined in a frame
    /// captures that frame, so the two form a reference cycle that only
    /// dropping the frame's bindings frees.
    pub(crate) fn clear(&self) {
        // Taken out first: dropping a binding may drop other frames.
        let vars = std::mem::take(&mut self.frame.borrow_mut().vars);
        drop(vars);
    }

    /// Defines (or redefines) a variable in this frame.
    pub fn define(&self, name: impl Into<String>, value: Value) {
        self.frame.borrow_mut().vars.insert(name.into(), value);
    }

    /// Looks a variable up through the parent chain.
    pub fn lookup(&self, name: &str) -> Option<Value> {
        let frame = self.frame.borrow();
        if let Some(v) = frame.vars.get(name) {
            return Some(v.clone());
        }
        frame.parent.as_ref().and_then(|p| p.lookup(name))
    }

    /// Assigns to an existing variable (innermost binding wins).
    /// Returns `false` when the variable is not bound anywhere.
    pub fn assign(&self, name: &str, value: Value) -> bool {
        let mut frame = self.frame.borrow_mut();
        if frame.vars.contains_key(name) {
            frame.vars.insert(name.to_string(), value);
            return true;
        }
        match &frame.parent {
            Some(p) => p.assign(name, value),
            None => false,
        }
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let frame = self.frame.borrow();
        write!(
            f,
            "Env({} vars{})",
            frame.vars.len(),
            if frame.parent.is_some() {
                ", chained"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup_chain() {
        let root = Env::new();
        root.define("x", Value::Int(1));
        let child = root.child();
        child.define("y", Value::Int(2));
        assert_eq!(child.lookup("x").unwrap().as_int(), Some(1));
        assert_eq!(child.lookup("y").unwrap().as_int(), Some(2));
        assert!(root.lookup("y").is_none());
    }

    #[test]
    fn shadowing_and_assignment() {
        let root = Env::new();
        root.define("x", Value::Int(1));
        let child = root.child();
        child.define("x", Value::Int(10));
        assert_eq!(child.lookup("x").unwrap().as_int(), Some(10));
        assert!(child.assign("x", Value::Int(11)));
        assert_eq!(root.lookup("x").unwrap().as_int(), Some(1));
        // Assignment through the chain reaches the root binding.
        assert!(child.assign("x", Value::Int(12)));
        let fresh = root.child();
        assert!(fresh.assign("x", Value::Int(99)));
        assert_eq!(root.lookup("x").unwrap().as_int(), Some(99));
        assert!(!fresh.assign("zzz", Value::Nil));
    }
}
