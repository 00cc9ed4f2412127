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
    AstExpr, CreateTable, FromItem, Join, JoinType, Literal, Query, SelectItem, TableRef,
    TableSource,
};
pub use error::ParseError;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::Parser;

/// Parses `CREATE TABLE` statements, as a schema file holds them.
///
/// ```
/// let tables = ysmart_sql::parse_ddl("CREATE TABLE t (k INT, v DECIMAL(15, 2));").unwrap();
/// assert_eq!(tables[0].columns[1], ("v".to_string(), "decimal".to_string()));
/// ```
///
/// # Errors
///
/// Returns [`ParseError`] with the position of the offending token.
pub fn parse_ddl(ddl: &str) -> Result<Vec<CreateTable>, ParseError> {
    Parser::new(ddl)?.parse_ddl_eof()
}

/// Parses a single SQL query.
///
/// The parser is recursive descent, so the stack it needs grows with the
/// query's nesting, which [`parser::MAX_DEPTH`] bounds. At the deepest
/// input accepted, a debug build needs 0.9 MB of stack for 253 nested
/// parentheses, 0.45 MB for a chain of 253 `NOT`s or unary minuses, 1.7 MB
/// for 253 nested `IN` lists and 0.8 MB for 254 nested derived tables; a
/// release build needs at most 0.4 MB for any of them. Every shape fits the
/// 2 MB a spawned or test thread gets by default.
///
/// # Errors
///
/// Returns [`ParseError`] with the byte offset of the offending token.
pub fn parse(sql: &str) -> Result<Query, ParseError> {
    Parser::new(sql)?.parse_query_eof()
}
