//! # ndlog — Network Datalog front-end
//!
//! This crate implements the language layer of the NetTrails platform: the
//! *Network Datalog* (NDlog) language used by declarative networking engines
//! such as RapidNet. NDlog is a distributed, recursive query language over
//! network graphs: every relation carries a **location specifier** (an address
//! attribute written `@X`) that determines on which node each tuple lives, and
//! rules whose head location differs from the body location imply
//! communication between nodes.
//!
//! The crate provides:
//!
//! * a [`lexer`] and [`parser`] for NDlog programs (rules, `materialize`
//!   declarations, aggregates such as `min<C>`, assignments `X := expr`,
//!   selection predicates, and the *maybe* rules `?-` used to describe
//!   possible causal relationships in legacy applications),
//! * a typed [`ast`] with pretty-printing,
//! * semantic [`validate`] checks (safety, location well-formedness,
//!   aggregates, builtins, safe negation),
//! * [`localize`]: where every rule runs ([`exec_location`]) and the
//!   rewrite that splits link-restricted rules into single-location ones
//!   ([`localize_program`]), which also enforces the link restriction, and
//! * a registry of [`builtins`] (`f_isExtend`, `f_concat`, ...) shared with the
//!   runtime.
//!
//! The runtime crate (`nt-runtime`) compiles the localized program; the
//! `provenance` crate rewrites it to capture network provenance as described in
//! the ExSPAN/NetTrails papers.
//!
//! ## Example
//!
//! ```
//! use ndlog::parse_program;
//!
//! let src = r#"
//!     materialize(link, infinity, infinity, keys(1,2)).
//!     materialize(minCost, infinity, infinity, keys(1,2)).
//!
//!     r1 cost(@S,D,C) :- link(@S,D,C).
//!     r2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2.
//!     r3 minCost(@S,D,min<C>) :- cost(@S,D,C).
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.rules.len(), 3);
//! assert!(program.rules[2].head.aggregate_column().is_some());
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod lexer;
pub mod localize;
pub mod parser;
pub mod pretty;
pub mod validate;

pub use ast::{
    Aggregate, AggregateFunc, BinOp, BodyElem, Expr, Literal, Materialize, Predicate, Program,
    Rule, RuleKind, Term, UnOp,
};
pub use error::{NdlogError, Result};
pub use localize::{exec_location, localize_program};
pub use parser::{parse_program, parse_rule};
pub use validate::validate_program;

/// Convenience: parse **and** validate a program in one call.
///
/// This is what most embedders (the runtime, the provenance rewriter, the
/// protocol library) should use, so that invalid programs are rejected before
/// they reach execution.
pub fn compile(src: &str) -> Result<Program> {
    let program = parse_program(src)?;
    validate_program(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_unsafe_rule() {
        // Head variable X never appears in the body.
        let err = compile("r1 out(@A,X) :- link(@A,B).").unwrap_err();
        assert!(matches!(err, NdlogError::Validation { .. }), "{err}");
    }

    #[test]
    fn compile_accepts_mincost() {
        let program = compile(
            "r1 cost(@S,D,C) :- link(@S,D,C).\n\
             r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.\n\
             r3 minCost(@S,D,min<C>) :- cost(@S,D,C).",
        )
        .unwrap();
        assert_eq!(program.rules.len(), 3);
    }
}
