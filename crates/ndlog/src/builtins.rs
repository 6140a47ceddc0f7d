//! Registry of builtin functions (`f_*`) known to the NDlog dialect.
//!
//! The front-end only needs names and arities for validation; the actual
//! semantics live in the runtime (`nt-runtime::eval`) where values are
//! available. Keeping the registry here lets the validator reject calls to
//! unknown functions or calls with the wrong arity before execution, which is
//! the behaviour of the RapidNet compiler.

/// A builtin function as compiled code refers to it: resolved from its name
/// once ([`BuiltinFn::lookup`]), then a `Copy` tag the evaluator switches on.
/// Declared in the order of [`BUILTINS`], so a tag indexes its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    /// `f_concat(A, B)` — concatenate lists (a non-list counts as one item).
    Concat,
    /// `f_append(List, X)`.
    Append,
    /// `f_prepend(X, List)` — the path-vector idiom `P := f_prepend(S, P2)`.
    Prepend,
    /// `f_initlist(X)` — the singleton list.
    InitList,
    /// `f_initlist2(X, Y)` — a two-element list.
    InitList2,
    /// `f_member(List, X)` — 1 when `X` is in the list, else 0.
    Member,
    /// `f_last(List)`.
    Last,
    /// `f_first(List)`.
    First,
    /// `f_size(List)`.
    Size,
    /// `f_isExtend(Route2, Route1, N)` — 1 when `Route2` is `N` prepended to `Route1`.
    IsExtend,
    /// `f_min(A, B)`.
    Min,
    /// `f_max(A, B)`.
    Max,
    /// `f_abs(X)`.
    Abs,
    /// `f_sha1(X)` — stable 64-bit digest.
    Sha1,
    /// `f_tostr(X)`.
    ToStr,
}

impl BuiltinFn {
    /// Resolve a builtin by the name programs write.
    pub fn lookup(name: &str) -> Option<BuiltinFn> {
        lookup(name).map(|b| b.func)
    }

    /// The builtin's row of [`BUILTINS`]: name, arity, description.
    pub fn info(self) -> &'static Builtin {
        &BUILTINS[self as usize]
    }
}

/// Description of one builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtin {
    /// The tag compiled code carries.
    pub func: BuiltinFn,
    /// Function name as written in programs, e.g. `f_isExtend`.
    pub name: &'static str,
    /// Number of arguments the function expects.
    pub arity: usize,
    /// Short human-readable description (used in docs and error messages).
    pub description: &'static str,
}

/// The table of builtins supported by NetTrails — the one list: the
/// validator checks names and arities against it, the runtime resolves calls
/// through it, and a runtime test evaluates every row.
///
/// * Path / list manipulation (`f_concat`, `f_append`, `f_prepend`,
///   `f_initlist`, `f_initlist2`, `f_member`, `f_last`, `f_first`, `f_size`)
///   is what path-vector, DSR and BGP programs use to build AS paths and
///   source routes.
/// * `f_isExtend` is the function used by the paper's `maybe` rule `br1` to
///   detect that an outgoing BGP route extends an incoming one by exactly one
///   AS hop.
/// * `f_min`, `f_max`, `f_abs`, `f_sha1`, `f_tostr` are general utilities.
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        func: BuiltinFn::Concat,
        name: "f_concat",
        arity: 2,
        description: "concatenate two lists (or value onto list)",
    },
    Builtin {
        func: BuiltinFn::Append,
        name: "f_append",
        arity: 2,
        description: "append a value to the end of a list",
    },
    Builtin {
        func: BuiltinFn::Prepend,
        name: "f_prepend",
        arity: 2,
        description: "prepend a value to the front of a list",
    },
    Builtin {
        func: BuiltinFn::InitList,
        name: "f_initlist",
        arity: 1,
        description: "create a singleton list",
    },
    Builtin {
        func: BuiltinFn::InitList2,
        name: "f_initlist2",
        arity: 2,
        description: "create a two-element list",
    },
    Builtin {
        func: BuiltinFn::Member,
        name: "f_member",
        arity: 2,
        description: "1 if the value is a member of the list, else 0",
    },
    Builtin {
        func: BuiltinFn::Last,
        name: "f_last",
        arity: 1,
        description: "last element of a list",
    },
    Builtin {
        func: BuiltinFn::First,
        name: "f_first",
        arity: 1,
        description: "first element of a list",
    },
    Builtin {
        func: BuiltinFn::Size,
        name: "f_size",
        arity: 1,
        description: "length of a list",
    },
    Builtin {
        func: BuiltinFn::IsExtend,
        name: "f_isExtend",
        arity: 3,
        description: "1 if route A extends route B by appending node N",
    },
    Builtin {
        func: BuiltinFn::Min,
        name: "f_min",
        arity: 2,
        description: "minimum of two values",
    },
    Builtin {
        func: BuiltinFn::Max,
        name: "f_max",
        arity: 2,
        description: "maximum of two values",
    },
    Builtin {
        func: BuiltinFn::Abs,
        name: "f_abs",
        arity: 1,
        description: "absolute value",
    },
    Builtin {
        func: BuiltinFn::Sha1,
        name: "f_sha1",
        arity: 1,
        description: "stable 64-bit digest of a value (used for identifiers)",
    },
    Builtin {
        func: BuiltinFn::ToStr,
        name: "f_tostr",
        arity: 1,
        description: "render a value as a string",
    },
];

/// Look up a builtin by name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// True when `name` follows the builtin naming convention (`f_` prefix).
pub fn is_builtin_name(name: &str) -> bool {
    name.starts_with("f_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_is_extend() {
        let b = lookup("f_isExtend").unwrap();
        assert_eq!(b.arity, 3);
    }

    #[test]
    fn lookup_unknown_is_none() {
        assert!(lookup("f_unknown").is_none());
        assert!(is_builtin_name("f_unknown"));
        assert!(!is_builtin_name("link"));
    }

    #[test]
    fn all_builtins_have_unique_names() {
        for (i, a) in BUILTINS.iter().enumerate() {
            for b in &BUILTINS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            // A tag indexes its own row.
            assert_eq!(a.func as usize, i, "{}", a.name);
            assert_eq!(a.func.info(), a);
            assert_eq!(BuiltinFn::lookup(a.name), Some(a.func));
        }
    }
}
