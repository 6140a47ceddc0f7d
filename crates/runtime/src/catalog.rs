//! Relation catalog: schemas inferred from an NDlog program.
//!
//! The catalog records, for every relation mentioned by a program, its arity,
//! the column that carries the location specifier, its primary-key columns
//! (from `materialize` declarations; defaulting to *all* columns, i.e. set
//! semantics) and whether the relation is a base (extensional) or derived
//! (intensional) relation.

use crate::error::{Result, RuntimeError};
use ndlog::{Predicate, Program};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema of a single relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Number of attributes.
    pub arity: usize,
    /// Zero-based index of the location-specifier column.
    pub location_col: usize,
    /// Zero-based primary-key column indices. Tuples agreeing on these columns
    /// replace each other (update-in-place semantics of `materialize`).
    pub key_cols: Vec<usize>,
    /// True when no rule derives this relation (it is populated externally).
    pub is_base: bool,
    /// Tuple lifetime in (simulated) seconds; `None` = infinite.
    pub lifetime: Option<f64>,
}

impl RelationSchema {
    /// Whether the key covers every column (pure set semantics).
    pub fn set_semantics(&self) -> bool {
        self.key_cols.len() == self.arity
    }
}

/// The catalog of every relation used by a program. A schema is allocated
/// once and shared from here: every engine's table of the relation points at
/// the same one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<RelationSchema>>,
}

impl Catalog {
    /// Build a catalog from a validated program.
    ///
    /// Fails when a relation is used with inconsistent arity or with the
    /// location specifier in different columns.
    pub fn from_program(program: &Program) -> Result<Catalog> {
        let mut catalog = Catalog::default();
        let derived = program.derived_relations();

        let mut record = |pred: &Predicate| -> Result<()> {
            let loc = pred.location_index().ok_or_else(|| {
                RuntimeError::schema(format!(
                    "relation `{}` used without a location specifier",
                    pred.relation
                ))
            })?;
            let entry = catalog.relations.entry(pred.relation.clone());
            match entry {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(Arc::new(RelationSchema {
                        name: pred.relation.clone(),
                        arity: pred.arity(),
                        location_col: loc,
                        key_cols: (0..pred.arity()).collect(),
                        is_base: !derived.contains(&pred.relation),
                        lifetime: None,
                    }));
                }
                std::collections::btree_map::Entry::Occupied(o) => {
                    let existing = o.get();
                    if existing.arity != pred.arity() {
                        return Err(RuntimeError::schema(format!(
                            "relation `{}` used with arity {} and {}",
                            pred.relation,
                            existing.arity,
                            pred.arity()
                        )));
                    }
                    if existing.location_col != loc {
                        return Err(RuntimeError::schema(format!(
                            "relation `{}` has its location specifier in different columns",
                            pred.relation
                        )));
                    }
                }
            }
            Ok(())
        };

        for rule in &program.rules {
            record(&rule.head)?;
            for atom in rule.body_atoms() {
                record(atom)?;
            }
        }

        // Apply materialize declarations (keys are 1-based in source).
        for m in &program.materializations {
            if let Some(schema) = catalog.relations.get_mut(&m.relation) {
                let schema = Arc::make_mut(schema);
                schema.key_cols = m.keys.iter().map(|k| k - 1).collect();
                schema.lifetime = m.lifetime;
            } else {
                // Materialized relation never used by a rule: still register it
                // so the platform can insert base tuples into it.
                catalog.register(RelationSchema {
                    name: m.relation.clone(),
                    arity: *m.keys.iter().max().unwrap_or(&1),
                    location_col: 0,
                    key_cols: m.keys.iter().map(|k| k - 1).collect(),
                    is_base: true,
                    lifetime: m.lifetime,
                });
            }
        }
        Ok(catalog)
    }

    /// Look up a relation schema.
    pub fn schema(&self, relation: &str) -> Option<&RelationSchema> {
        self.relations.get(relation).map(|schema| &**schema)
    }

    /// Iterate over all schemas in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &RelationSchema> {
        self.shared_schemas().map(|schema| &**schema)
    }

    /// [`Catalog::schemas`], as the shared allocations.
    pub fn shared_schemas(&self) -> impl Iterator<Item = &Arc<RelationSchema>> {
        self.relations.values()
    }

    /// Register an externally defined relation (used by the provenance layer
    /// for its `prov` / `ruleExec` tables and by tests).
    pub fn register(&mut self, schema: RelationSchema) {
        self.relations.insert(schema.name.clone(), Arc::new(schema));
    }

    /// Number of relations known.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog::parse_program;

    const MINCOST: &str = "materialize(link, infinity, infinity, keys(1,2)).\n\
         materialize(cost, infinity, infinity, keys(1,2,3)).\n\
         materialize(minCost, infinity, infinity, keys(1,2)).\n\
         r1 cost(@S,D,C) :- link(@S,D,C).\n\
         r2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2.\n\
         r3 minCost(@S,D,min<C>) :- cost(@S,D,C).";

    #[test]
    fn builds_mincost_catalog() {
        let program = parse_program(MINCOST).unwrap();
        let catalog = Catalog::from_program(&program).unwrap();
        let link = catalog.schema("link").unwrap();
        assert!(link.is_base);
        assert_eq!(link.arity, 3);
        assert_eq!(link.key_cols, vec![0, 1]);
        let cost = catalog.schema("cost").unwrap();
        assert!(!cost.is_base);
        assert!(cost.set_semantics());
        let min_cost = catalog.schema("minCost").unwrap();
        assert_eq!(min_cost.key_cols, vec![0, 1]);
        assert_eq!(catalog.len(), 3);
    }

    #[test]
    fn default_keys_are_all_columns() {
        let program = parse_program("r1 reach(@S,D) :- link(@S,D,C).").unwrap();
        let catalog = Catalog::from_program(&program).unwrap();
        assert_eq!(catalog.schema("reach").unwrap().key_cols, vec![0, 1]);
        assert_eq!(catalog.schema("link").unwrap().key_cols, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_inconsistent_arity() {
        let program = parse_program(
            "r1 a(@X) :- link(@X,Y).\n\
             r2 b(@X) :- link(@X,Y,Z).",
        )
        .unwrap();
        assert!(Catalog::from_program(&program).is_err());
    }

    #[test]
    fn rejects_moving_location_column() {
        let program = parse_program(
            "r1 a(@X,Y) :- link(@X,Y).\n\
             r2 a(X,@Y) :- link(@Y,X).",
        )
        .unwrap();
        assert!(Catalog::from_program(&program).is_err());
    }

    #[test]
    fn lifetime_is_propagated() {
        let program = parse_program(
            "materialize(hello, 30, infinity, keys(1)).\n\
             r1 seen(@N) :- hello(@N).",
        )
        .unwrap();
        let catalog = Catalog::from_program(&program).unwrap();
        assert_eq!(catalog.schema("hello").unwrap().lifetime, Some(30.0));
    }
}
