//! # nt-runtime — the per-node NDlog runtime of NetTrails
//!
//! This crate implements the execution engine that RapidNet provides in the
//! original system: every simulated node runs one [`engine::NodeEngine`] that
//! stores that node's partition of every relation, evaluates the localized
//! NDlog rules incrementally (generation-based semi-naive evaluation with
//! derivation-counted deletions) and hands tuples destined for other nodes
//! to the network layer.
//!
//! The main types are:
//!
//! * [`value::Value`] / [`tuple::Tuple`] / [`tuple::Delta`] — the data model;
//! * [`catalog::Catalog`] — relation schemas inferred from a program;
//! * [`store::Database`] — per-node tables with derivation tracking, the
//!   outbox of remote heads and the reverse dependency index;
//! * [`compile::CompiledProgram`] — a validated, localized, executable program:
//!   join plans plus one [`eval::SlotProgram`] per rule;
//! * [`eval::Frame`] / [`eval::SlotExpr`] — the slot-program interpreter (the
//!   only expression evaluator in the tree);
//! * [`engine::NodeEngine`] — the incremental evaluator;
//! * [`engine::Firing`] — the rule-execution events consumed by the
//!   provenance layer (crate `provenance`).
pub mod catalog;
pub mod compile;
pub mod engine;
pub mod error;
pub mod eval;
#[doc(hidden)]
pub mod fence;
pub mod few;
mod kernel;
pub mod store;
pub mod tuple;
pub mod value;

pub use catalog::{Catalog, RelationSchema};
pub use compile::{CompiledProgram, CompiledRule};
pub use engine::{
    DeltaBatch, DeltaRecord, EngineConfig, EngineStats, Firing, NodeEngine, RemoteDelta, StepOutput,
};
pub use error::{Result, RuntimeError};
pub use few::Few;
pub use nt_intern::heap::{self, Census, Heap};
pub use store::{
    base_rule_sym, tuple_materializations, Database, Dependent, Derivation, Membership,
    OutboxEntry, Probe, Table, TableSpec, TupleRef, BASE_RULE,
};
pub use tuple::{Delta, Tuple, TupleId};
pub use value::{
    codec, dict_entry_wire_size, dict_wire_size, rule_exec_digest, Addr, Dictionary, IdHasher,
    IdMap, IdSet, Interner, NodeId, StableHasher, Sym, Value,
};
