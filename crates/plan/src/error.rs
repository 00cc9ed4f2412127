//! Planning errors.

use std::fmt;

use ysmart_rel::RelError;
use ysmart_sql::ParseError;

/// Errors raised while building a plan from an AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// SQL text (a `CREATE TABLE` statement) that does not parse.
    Parse(ParseError),
    /// A `FROM` table is not in the catalog.
    UnknownTable(String),
    /// A column reference could not be resolved in the current scope.
    UnknownColumn(String),
    /// A column reference matched more than one column in scope.
    AmbiguousColumn(String),
    /// The same binding (alias/table name) appears twice in one `FROM`.
    DuplicateBinding(String),
    /// The query shape is outside the supported subset.
    Unsupported(String),
    /// A non-aggregated select item references columns outside `GROUP BY`.
    NotGrouped(String),
    /// An error bubbled up from the relational layer.
    Rel(RelError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse(e) => write!(f, "{e}"),
            PlanError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            PlanError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            PlanError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            PlanError::DuplicateBinding(b) => {
                write!(f, "duplicate relation binding `{b}` in FROM")
            }
            PlanError::Unsupported(what) => write!(f, "unsupported query shape: {what}"),
            PlanError::NotGrouped(c) => write!(
                f,
                "column `{c}` must appear in GROUP BY or be used in an aggregate"
            ),
            PlanError::Rel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Parse(e) => Some(e),
            PlanError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError::Parse(e)
    }
}

impl From<RelError> for PlanError {
    fn from(e: RelError) -> Self {
        match e {
            RelError::UnknownColumn(c) => PlanError::UnknownColumn(c),
            RelError::AmbiguousColumn(c) => PlanError::AmbiguousColumn(c),
            other => PlanError::Rel(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_errors_map_to_column_errors() {
        let e: PlanError = RelError::UnknownColumn("x".into()).into();
        assert_eq!(e, PlanError::UnknownColumn("x".into()));
        let e: PlanError = RelError::DivideByZero.into();
        assert!(matches!(e, PlanError::Rel(_)));
    }

    #[test]
    fn display_nonempty() {
        assert!(!PlanError::Unsupported("x".into()).to_string().is_empty());
    }
}
