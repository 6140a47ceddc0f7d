//! Relation catalog: schemas inferred from an NDlog program.
//!
//! The catalog records, for every relation mentioned by a program, its arity,
//! the column that carries the location specifier, its address columns, its
//! primary-key columns (from `materialize` declarations; defaulting to *all*
//! columns, i.e. set semantics) and whether the relation is a base
//! (extensional) or derived (intensional) relation.
//!
//! A column is an **address column** when it is a location (`@`) column or
//! when a rule variable ties it to one — by appearing in both, directly or
//! through `V := W` and `V == W` — closed to a fixpoint across the rules. It
//! holds [`Value::Addr`] and nothing else: the compiler turns the texts
//! written there into addresses, a base fact that puts anything else there is
//! refused, and a head that would is not derived.

use crate::error::{Result, RuntimeError};
use crate::value::Value;
use ndlog::{BinOp, BodyElem, Expr, Predicate, Program, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Schema of a single relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Number of attributes.
    pub arity: usize,
    /// Zero-based index of the location-specifier column.
    pub location_col: usize,
    /// The address columns (module documentation), bit `c` for column `c`.
    pub addr_cols: u64,
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

    /// Whether `col` is an address column.
    pub fn is_addr(&self, col: usize) -> bool {
        is_addr_col(self.addr_cols, col)
    }

    /// `Ok` when `values` have the relation's arity and an address in every
    /// address column; [`RuntimeError::BadTuple`] otherwise.
    pub fn check(&self, values: &[Value]) -> Result<()> {
        if values.len() == self.arity && fits(self.addr_cols, values) {
            return Ok(());
        }
        Err(RuntimeError::bad_tuple(format!(
            "`{}` cannot hold {values:?}",
            self.name
        )))
    }
}

/// Whether `col` is in `addr_cols` ([`RelationSchema::addr_cols`]).
fn is_addr_col(addr_cols: u64, col: usize) -> bool {
    col < 64 && addr_cols >> col & 1 == 1
}

/// Whether `values` hold an address in every column of `addr_cols`.
pub(crate) fn fits(addr_cols: u64, values: &[Value]) -> bool {
    (0..)
        .zip(values)
        .all(|(c, v)| !is_addr_col(addr_cols, c) || matches!(v, Value::Addr(_)))
}

/// The head and every body atom of a rule.
fn atoms(rule: &Rule) -> impl Iterator<Item = &Predicate> {
    std::iter::once(&rule.head).chain(rule.body_atoms())
}

/// The catalog of every relation used by a program. A schema is allocated
/// once and shared from here: every engine's table of the relation points at
/// the same one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<RelationSchema>>,
}

impl Catalog {
    /// Build a catalog from a validated (and, for the engine, localized)
    /// program, address columns included (module documentation).
    ///
    /// Fails when a relation is used with inconsistent arity or with the
    /// location specifier in different columns.
    pub fn from_program(program: &Program) -> Result<Catalog> {
        let mut catalog = Catalog::default();
        let derived = program.derived_relations();

        for pred in program.rules.iter().flat_map(atoms) {
            let (name, arity) = (&pred.relation, pred.arity());
            let loc = pred.location_index().ok_or_else(|| {
                RuntimeError::schema(format!(
                    "relation `{name}` used without a location specifier"
                ))
            })?;
            let why = match catalog.relations.get(name) {
                Some(s) if s.arity != arity => format!("used with arity {} and {arity}", s.arity),
                Some(s) if s.location_col != loc => {
                    "has its location specifier in different columns".to_string()
                }
                Some(_) => continue,
                None => {
                    catalog.register(RelationSchema {
                        name: name.clone(),
                        arity,
                        location_col: loc,
                        addr_cols: 0,
                        key_cols: (0..arity).collect(),
                        is_base: !derived.contains(name),
                        lifetime: None,
                    });
                    continue;
                }
            };
            return Err(RuntimeError::schema(format!("relation `{name}` {why}")));
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
                    addr_cols: 1,
                    key_cols: m.keys.iter().map(|k| k - 1).collect(),
                    is_base: true,
                    lifetime: m.lifetime,
                });
            }
        }

        // Address columns: the location columns, then every column a rule
        // variable in one appears in, until no rule adds any.
        loop {
            let mut tied = Vec::new();
            for rule in &program.rules {
                let vars = catalog.address_vars(rule);
                for atom in atoms(rule) {
                    for (col, term) in atom.terms.iter().enumerate() {
                        let var = term.as_variable();
                        if term.is_location() || var.is_some_and(|v| vars.contains(v)) {
                            tied.push((&atom.relation, col));
                        }
                    }
                }
            }
            let mut grew = false;
            for (relation, col) in tied {
                let bit = 1u64.checked_shl(col as u32).ok_or_else(|| {
                    RuntimeError::schema(format!("`{relation}`.{col}: address past column 64"))
                })?;
                let schema = catalog.relations.get_mut(relation).expect("recorded above");
                grew |= schema.addr_cols & bit == 0;
                Arc::make_mut(schema).addr_cols |= bit;
            }
            if !grew {
                return Ok(catalog);
            }
        }
    }

    /// The variables of `rule` that hold addresses: those in an address
    /// column of any of its atoms, and those `V := W` or `V == W` equates
    /// with one.
    pub(crate) fn address_vars<'r>(&self, rule: &'r Rule) -> BTreeSet<&'r str> {
        let mut vars = BTreeSet::new();
        for atom in atoms(rule) {
            let schema = &self.relations[&atom.relation];
            for (col, term) in atom.terms.iter().enumerate() {
                vars.extend(term.as_variable().filter(|_| schema.is_addr(col)));
            }
        }
        let var = |e: &'r Expr| match e {
            Expr::Var(v) => Some(v.as_str()),
            _ => None,
        };
        let equated: Vec<(&str, &str)> = (rule.body.iter())
            .filter_map(|elem| match elem {
                BodyElem::Assign { var: v, expr } => Some((v.as_str(), var(expr)?)),
                BodyElem::Filter(Expr::Binary { op, lhs, rhs }) if *op == BinOp::Eq => {
                    Some((var(lhs)?, var(rhs)?))
                }
                _ => None,
            })
            .collect();
        while let Some((v, w)) = (equated.iter())
            .find(|(v, w)| vars.contains(v) != vars.contains(w))
            .copied()
        {
            vars.extend([v, w]);
        }
        vars
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

    fn addr_cols(catalog: &Catalog, relation: &str) -> Vec<usize> {
        let schema = catalog.schema(relation).unwrap();
        (0..schema.arity).filter(|c| schema.is_addr(*c)).collect()
    }

    #[test]
    fn address_columns_follow_variables_across_rules() {
        // Localized MINCOST: `link.1` is an address because `mc2_s1` ships
        // it as `mc2_aux`'s location; `cost.1` and `minCost.1` only through
        // the rules that copy it, one of which comes before `mc2_s1`.
        let program = parse_program(MINCOST).unwrap();
        let localized = ndlog::localize_program(&program).unwrap();
        let catalog = Catalog::from_program(&localized).unwrap();
        for relation in ["link", "cost", "minCost"] {
            assert_eq!(addr_cols(&catalog, relation), [0, 1], "{relation}");
        }
        assert_eq!(addr_cols(&catalog, "r2_aux"), [0, 2]);
        assert!(!catalog.schema("cost").unwrap().is_addr(2));
    }

    #[test]
    fn assignments_and_equalities_tie_addresses_other_terms_do_not() {
        let program = parse_program(
            "r1 hop(@S,N) :- link(@S,D,C), N := D.\n\
             r2 far(@N,S) :- hop(@S,N).\n\
             r3 pair(@S,A,B) :- e(@S,A,B,T), A == T.\n\
             r4 low(@S,min<A>) :- pair(@S,A,B).\n\
             r5 cnt(@S,count<A>) :- pair(@S,A,B).\n\
             r6 cheap(@S,X) :- e(@S,A,B,T), X := f_tostr(T).\n\
             r7 back(@T) :- e(@S,A,B,T).",
        )
        .unwrap();
        let catalog = Catalog::from_program(&program).unwrap();
        // r2 makes `hop.1` an address, r1 ties `link.1` to it through `:=`.
        assert_eq!(addr_cols(&catalog, "hop"), [0, 1]);
        assert_eq!(addr_cols(&catalog, "link"), [0, 1]);
        // r7 makes `e.3` one, `==` reaches `e.1`, r3 carries it on.
        assert_eq!(addr_cols(&catalog, "e"), [0, 1, 3]);
        assert_eq!(addr_cols(&catalog, "pair"), [0, 1]);
        // Aggregates and computed values are not addresses.
        assert_eq!(addr_cols(&catalog, "low"), [0]);
        assert_eq!(addr_cols(&catalog, "cnt"), [0]);
        assert_eq!(addr_cols(&catalog, "cheap"), [0]);
    }

    #[test]
    fn check_refuses_another_arity_and_non_addresses_in_address_columns() {
        let program = parse_program("r1 reach(@D,S) :- link(@S,D,C).").unwrap();
        let catalog = Catalog::from_program(&program).unwrap();
        let link = catalog.schema("link").unwrap();
        let (n1, n2) = (Value::addr("n1"), Value::addr("n2"));
        assert!(link.check(&[n1.clone(), n2.clone(), Value::Int(1)]).is_ok());
        // The cost column takes anything.
        assert!(link
            .check(&[n1.clone(), n2.clone(), Value::str("x")])
            .is_ok());
        for bad in [
            vec![n1.clone(), n2.clone()],
            vec![Value::str("n1"), n2.clone(), Value::Int(1)],
            vec![n1, Value::Int(2), Value::Int(1)],
        ] {
            let err = link.check(&bad).unwrap_err();
            assert!(matches!(err, RuntimeError::BadTuple(_)), "{err}");
        }
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
