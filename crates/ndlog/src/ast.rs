//! Abstract syntax tree for NDlog programs.
//!
//! The grammar follows the NDlog dialect used by RapidNet / ExSPAN / NetTrails:
//!
//! ```text
//! program     := (materialize | rule)*
//! materialize := "materialize" "(" ident "," lifetime "," size "," "keys" "(" ints ")" ")" "."
//! rule        := [name] head ( ":-" | "?-" ) body "."
//! head        := ident "(" headterm ("," headterm)* ")"
//! headterm    := term | aggfunc "<" var ">"
//! body        := bodyelem ("," bodyelem)*
//! bodyelem    := [ "!" ] atom | var ":=" expr | expr cmp expr
//! atom        := ident "(" term ("," term)* ")"
//! term        := ["@"] var | literal | expr
//! ```
//!
//! Location specifiers are written `@X`; by convention each relation has
//! exactly one location attribute, and a tuple of that relation is stored at
//! the node named by that attribute.

use std::fmt;

/// A literal constant appearing in a program.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Signed integer literal, e.g. `42` or `-3`.
    Int(i64),
    /// Floating point literal, e.g. `1.5`.
    Double(f64),
    /// Quoted string literal, e.g. `"n1"`.
    Str(String),
    /// Boolean literal `true` / `false`.
    Bool(bool),
    /// The distinguished `infinity` constant used in `materialize` clauses and
    /// occasionally as a cost sentinel.
    Infinity,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Double(v) => write!(f, "{v}"),
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Infinity => write!(f, "infinity"),
        }
    }
}

/// Binary operators usable inside expressions and selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Source-level spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Boolean negation `!x`.
    Not,
}

/// Expressions: the right-hand side of assignments, arguments of functions and
/// selection predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference, e.g. `C1`.
    Var(String),
    /// A constant.
    Const(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Builtin function call, e.g. `f_concat(P, D)`.
    Call {
        /// Function name (conventionally `f_*`).
        func: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Collect every variable mentioned by the expression into `out`.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.variables(out);
                rhs.variables(out);
            }
            Expr::Unary { expr, .. } => expr.variables(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Convenience constructor for an integer constant.
    pub fn int(v: i64) -> Self {
        Expr::Const(Literal::Int(v))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "(-{expr})"),
                UnOp::Not => write!(f, "(!{expr})"),
            },
            Expr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A term appearing as an argument of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A plain variable, e.g. `D`. The boolean marks a location specifier
    /// (`@D`).
    Variable {
        /// Variable name.
        name: String,
        /// True when the variable carries the `@` location marker.
        location: bool,
    },
    /// A constant argument.
    Constant {
        /// The literal value.
        value: Literal,
        /// True when the constant carries the `@` location marker
        /// (e.g. `@"n1"` pins a tuple to a concrete node).
        location: bool,
    },
    /// An aggregate head term, e.g. `min<C>`. Only valid in rule heads.
    Aggregate(Aggregate),
    /// The anonymous "don't care" variable `_`.
    Wildcard,
}

impl Term {
    /// Construct a non-location variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Variable {
            name: name.into(),
            location: false,
        }
    }

    /// Construct a location variable term (`@X`).
    pub fn loc_var(name: impl Into<String>) -> Self {
        Term::Variable {
            name: name.into(),
            location: true,
        }
    }

    /// The variable name if the term is a variable.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            Term::Variable { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Whether the term carries the location specifier marker `@`.
    pub fn is_location(&self) -> bool {
        match self {
            Term::Variable { location, .. } | Term::Constant { location, .. } => *location,
            _ => false,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Variable { name, location } => {
                if *location {
                    write!(f, "@{name}")
                } else {
                    write!(f, "{name}")
                }
            }
            Term::Constant { value, location } => {
                if *location {
                    write!(f, "@{value}")
                } else {
                    write!(f, "{value}")
                }
            }
            Term::Aggregate(a) => write!(f, "{a}"),
            Term::Wildcard => write!(f, "_"),
        }
    }
}

/// Aggregate functions allowed in rule heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    /// `min<X>`
    Min,
    /// `max<X>`
    Max,
    /// `count<X>` (or `count<*>`)
    Count,
    /// `sum<X>`
    Sum,
}

impl AggregateFunc {
    /// Keyword used in source programs.
    pub fn keyword(self) -> &'static str {
        match self {
            AggregateFunc::Min => "min",
            AggregateFunc::Max => "max",
            AggregateFunc::Count => "count",
            AggregateFunc::Sum => "sum",
        }
    }

    /// Parse the keyword, if it names an aggregate.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        match kw {
            "min" => Some(AggregateFunc::Min),
            "max" => Some(AggregateFunc::Max),
            "count" => Some(AggregateFunc::Count),
            "sum" => Some(AggregateFunc::Sum),
            _ => None,
        }
    }
}

/// An aggregate head term: function plus aggregated variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Which aggregate to compute.
    pub func: AggregateFunc,
    /// Variable being aggregated (`*` is represented as `"*"` for `count<*>`).
    pub var: String,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<{}>", self.func.keyword(), self.var)
    }
}

/// A predicate (atom): relation name plus argument terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Relation name, e.g. `link`.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
    /// True when the predicate is negated (`!p(...)`) in a rule body.
    pub negated: bool,
}

impl Predicate {
    /// Create a positive predicate.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Predicate {
            relation: relation.into(),
            terms,
            negated: false,
        }
    }

    /// Index of the location-specifier column, if any.
    pub fn location_index(&self) -> Option<usize> {
        self.terms.iter().position(|t| t.is_location())
    }

    /// The location variable name, if the location specifier is a variable.
    pub fn location_variable(&self) -> Option<&str> {
        self.terms
            .iter()
            .find(|t| t.is_location())
            .and_then(|t| t.as_variable())
    }

    /// Index and aggregate of the (single) aggregate term, if present.
    pub fn aggregate_column(&self) -> Option<(usize, &Aggregate)> {
        self.terms.iter().enumerate().find_map(|(i, t)| match t {
            Term::Aggregate(a) => Some((i, a)),
            _ => None,
        })
    }

    /// Arity of the predicate.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Every variable mentioned by the predicate, in order of first occurrence.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.terms {
            match t {
                Term::Variable { name, .. } if !out.contains(name) => {
                    out.push(name.clone());
                }
                Term::Aggregate(a) if a.var != "*" && !out.contains(&a.var) => {
                    out.push(a.var.clone());
                }
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "!")?;
        }
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyElem {
    /// A (possibly negated) relational atom.
    Atom(Predicate),
    /// An assignment `Var := Expr`.
    Assign {
        /// Variable being bound.
        var: String,
        /// Expression computing the value.
        expr: Expr,
    },
    /// A boolean selection predicate, e.g. `C1 < C2` or `f_isExtend(R2,R1,AS) == 1`.
    Filter(Expr),
}

impl BodyElem {
    /// The atom, if this element is one.
    pub fn as_atom(&self) -> Option<&Predicate> {
        match self {
            BodyElem::Atom(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for BodyElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyElem::Atom(p) => write!(f, "{p}"),
            BodyElem::Assign { var, expr } => write!(f, "{var} := {expr}"),
            BodyElem::Filter(e) => write!(f, "{e}"),
        }
    }
}

/// Whether a rule is an ordinary derivation rule or a *maybe* rule.
///
/// Maybe rules (written `?-`) describe **possible** causal relationships
/// between the inputs and outputs of a legacy (black-box) application; their
/// heads are observed rather than derived, and the rule is used by the proxy to
/// attribute provenance to the observation (Section 2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Ordinary derivation rule (`:-`).
    Derive,
    /// Maybe rule (`?-`), used for legacy application provenance.
    Maybe,
}

/// A single NDlog rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (e.g. `r1`, `br1`). Auto-generated (`rule_<n>`) when the
    /// source omits it.
    pub name: String,
    /// Head predicate.
    pub head: Predicate,
    /// Body elements, in source order.
    pub body: Vec<BodyElem>,
    /// Derivation vs maybe rule.
    pub kind: RuleKind,
}

impl Rule {
    /// The body atoms (ignoring assignments and filters).
    pub fn body_atoms(&self) -> impl Iterator<Item = &Predicate> {
        self.body.iter().filter_map(|b| b.as_atom())
    }

    /// Positive body atoms only.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Predicate> {
        self.body_atoms().filter(|p| !p.negated)
    }

    /// True when the head contains an aggregate term.
    pub fn is_aggregate(&self) -> bool {
        self.head.aggregate_column().is_some()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.name, self.head)?;
        match self.kind {
            RuleKind::Derive => write!(f, ":- ")?,
            RuleKind::Maybe => write!(f, "?- ")?,
        }
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ".")
    }
}

/// A `materialize(rel, lifetime, size, keys(..))` declaration.
///
/// NetTrails/RapidNet use these to declare which relations are stored tables
/// (as opposed to event streams), how long tuples live and which columns form
/// the primary key. The runtime uses the key columns for update-in-place
/// semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Materialize {
    /// Relation being declared.
    pub relation: String,
    /// Lifetime in seconds; `None` means `infinity`.
    pub lifetime: Option<f64>,
    /// Maximum table size; `None` means `infinity`.
    pub max_size: Option<u64>,
    /// 1-based primary-key column indices, as written in the program.
    pub keys: Vec<usize>,
}

impl fmt::Display for Materialize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lt = self
            .lifetime
            .map(|v| v.to_string())
            .unwrap_or_else(|| "infinity".to_string());
        let sz = self
            .max_size
            .map(|v| v.to_string())
            .unwrap_or_else(|| "infinity".to_string());
        let keys: Vec<String> = self.keys.iter().map(|k| k.to_string()).collect();
        write!(
            f,
            "materialize({}, {}, {}, keys({})).",
            self.relation,
            lt,
            sz,
            keys.join(",")
        )
    }
}

/// A full NDlog program: declarations plus rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// `materialize` declarations, in source order.
    pub materializations: Vec<Materialize>,
    /// Rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Find a rule by name.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Find the materialization declaration for a relation.
    pub fn materialization(&self, relation: &str) -> Option<&Materialize> {
        self.materializations
            .iter()
            .find(|m| m.relation == relation)
    }

    /// Names of relations derived by at least one rule (intensional database).
    pub fn derived_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if !out.contains(&rule.head.relation) {
                out.push(rule.head.relation.clone());
            }
        }
        out
    }

    /// Merge another program into this one (declarations first, then rules).
    /// Used by the provenance rewriter to append capture rules.
    pub fn extend(&mut self, other: Program) {
        self.materializations.extend(other.materializations);
        self.rules.extend(other.rules);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.materializations {
            writeln!(f, "{m}")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rule() -> Rule {
        Rule {
            name: "r1".into(),
            head: Predicate::new(
                "cost",
                vec![Term::loc_var("S"), Term::var("D"), Term::var("C")],
            ),
            body: vec![
                BodyElem::Atom(Predicate::new(
                    "link",
                    vec![Term::loc_var("S"), Term::var("Z"), Term::var("C1")],
                )),
                BodyElem::Atom(Predicate::new(
                    "cost",
                    vec![Term::loc_var("Z"), Term::var("D"), Term::var("C2")],
                )),
                BodyElem::Assign {
                    var: "C".into(),
                    expr: Expr::Binary {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::var("C1")),
                        rhs: Box::new(Expr::var("C2")),
                    },
                },
            ],
            kind: RuleKind::Derive,
        }
    }

    #[test]
    fn predicate_location_index() {
        let p = Predicate::new("link", vec![Term::loc_var("S"), Term::var("D")]);
        assert_eq!(p.location_index(), Some(0));
        assert_eq!(p.location_variable(), Some("S"));
        let q = Predicate::new("x", vec![Term::var("A")]);
        assert_eq!(q.location_index(), None);
    }

    #[test]
    fn rule_display_round_trips_through_parser() {
        let rule = sample_rule();
        let text = rule.to_string();
        let reparsed = crate::parse_rule(&text).unwrap();
        assert_eq!(reparsed, rule);
    }

    #[test]
    fn program_base_and_derived_relations() {
        let program = crate::parse_program(
            "r1 cost(@S,D,C) :- link(@S,D,C).\n\
             r2 minCost(@S,D,min<C>) :- cost(@S,D,C).",
        )
        .unwrap();
        assert_eq!(
            program.derived_relations(),
            vec!["cost".to_string(), "minCost".to_string()]
        );
    }

    #[test]
    fn expr_variables_deduplicated() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::var("A")),
            rhs: Box::new(Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(Expr::var("A")),
                rhs: Box::new(Expr::var("B")),
            }),
        };
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(vars, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn aggregate_helpers() {
        let head = Predicate::new(
            "minCost",
            vec![
                Term::loc_var("S"),
                Term::var("D"),
                Term::Aggregate(Aggregate {
                    func: AggregateFunc::Min,
                    var: "C".into(),
                }),
            ],
        );
        let (idx, agg) = head.aggregate_column().unwrap();
        assert_eq!(idx, 2);
        assert_eq!(agg.func, AggregateFunc::Min);
        assert_eq!(AggregateFunc::from_keyword("sum"), Some(AggregateFunc::Sum));
        assert_eq!(AggregateFunc::from_keyword("avg"), None);
    }

    #[test]
    fn materialize_display() {
        let m = Materialize {
            relation: "link".into(),
            lifetime: None,
            max_size: Some(100),
            keys: vec![1, 2],
        };
        assert_eq!(
            m.to_string(),
            "materialize(link, infinity, 100, keys(1,2))."
        );
    }
}
