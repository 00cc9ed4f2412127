//! # ysmart-sql — SQL front-end
//!
//! Lexer, recursive-descent parser and AST for the SQL subset the paper
//! targets (§IV): selection, projection, aggregation (with or without
//! grouping, including `count(distinct …)` and `HAVING`), sorting, and
//! equi-joins (inner and left/right/full outer), plus subqueries in `FROM`
//! — the form produced by flattening nested TPC-H queries with the
//! first-aggregation-then-join algorithm the paper uses.
//!
//! The parser is deliberately independent of the relational layer: it
//! resolves nothing, producing a purely syntactic [`ast::Query`]. Name
//! resolution and typing happen in `ysmart-plan`.
//!
//! ```
//! use ysmart_sql::parse;
//! let q = parse("SELECT cid, count(*) FROM clicks GROUP BY cid").unwrap();
//! assert_eq!(q.group_by.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::{
    AstExpr, FromItem, Join, JoinType, Literal, Query, SelectItem, TableRef, TableSource,
};
pub use error::ParseError;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::Parser;

/// Parses a single SQL query.
///
/// The parser is recursive descent, so the stack it needs grows with the
/// query's nesting, which [`parser::MAX_DEPTH`] bounds. Parsing 255 nested
/// parentheses or derived tables takes 2.1–2.6 MB of stack in a debug
/// build (255 nested `IN` lists: 1.7–2.1 MB) and 0.4–0.5 MB in a release
/// build. A debug caller that may be handed input nested near the limit
/// should parse on a thread with more than the 2 MB a spawned or test
/// thread gets by default; a main thread's 8 MB is enough.
///
/// # Errors
///
/// Returns [`ParseError`] with the byte offset of the offending token.
pub fn parse(sql: &str) -> Result<Query, ParseError> {
    Parser::new(sql)?.parse_query_eof()
}
