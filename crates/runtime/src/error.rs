//! Runtime error type.

use std::fmt;

/// Result alias for the runtime crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors raised while compiling a program to the runtime representation or
/// while executing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The program references relations inconsistently (arity / location).
    Schema(String),
    /// A rule cannot be compiled (unsupported shape, bad localization, ...).
    Compile {
        /// Rule the problem was found in, if known.
        rule: Option<String>,
        /// Human-readable description.
        message: String,
    },
    /// An expression failed to evaluate (type error, unknown variable, ...).
    Eval(String),
    /// A tuple does not match the schema of its relation.
    BadTuple(String),
    /// A configuration field holds a value the runtime refuses.
    Config {
        /// The refused field.
        field: &'static str,
        /// Why it is refused.
        message: String,
    },
}

impl RuntimeError {
    /// Construct a schema error.
    pub fn schema(msg: impl Into<String>) -> Self {
        RuntimeError::Schema(msg.into())
    }

    /// Construct a compilation error.
    pub fn compile(rule: Option<&str>, msg: impl Into<String>) -> Self {
        RuntimeError::Compile {
            rule: rule.map(str::to_string),
            message: msg.into(),
        }
    }

    /// Construct an evaluation error.
    pub fn eval(msg: impl Into<String>) -> Self {
        RuntimeError::Eval(msg.into())
    }

    /// Construct a bad-tuple error.
    pub fn bad_tuple(msg: impl Into<String>) -> Self {
        RuntimeError::BadTuple(msg.into())
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Schema(m) => write!(f, "schema error: {m}"),
            RuntimeError::Compile { rule, message } => match rule {
                Some(r) => write!(f, "cannot compile rule `{r}`: {message}"),
                None => write!(f, "cannot compile program: {message}"),
            },
            RuntimeError::Eval(m) => write!(f, "evaluation error: {m}"),
            RuntimeError::BadTuple(m) => write!(f, "bad tuple: {m}"),
            RuntimeError::Config { field, message } => write!(f, "config `{field}`: {message}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ndlog::NdlogError> for RuntimeError {
    fn from(e: ndlog::NdlogError) -> Self {
        RuntimeError::Compile {
            rule: None,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RuntimeError::schema("x").to_string().contains("schema"));
        assert!(RuntimeError::compile(Some("r1"), "y")
            .to_string()
            .contains("r1"));
        assert!(RuntimeError::eval("z").to_string().contains("evaluation"));
        assert!(RuntimeError::bad_tuple("w")
            .to_string()
            .contains("bad tuple"));
    }

    #[test]
    fn converts_ndlog_errors() {
        let e: RuntimeError = ndlog::NdlogError::validation(Some("r9"), "boom").into();
        assert!(e.to_string().contains("boom"));
    }
}
