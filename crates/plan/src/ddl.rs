//! Minimal DDL: `CREATE TABLE` statements for building a [`Catalog`] from
//! text — what the stand-alone translator binary reads as its schema file.
//!
//! ```text
//! CREATE TABLE lineitem (
//!     l_orderkey INT,
//!     l_quantity DOUBLE,
//!     l_comment  STRING
//! );
//! ```
//!
//! Type names map onto the four runtime types: `INT`/`BIGINT`/`INTEGER`/
//! `TIMESTAMP` → `Int`; `FLOAT`/`DOUBLE`/`DECIMAL`/`REAL` → `Float`;
//! `STRING`/`VARCHAR`/`CHAR`/`TEXT` → `Str`; `BOOL`/`BOOLEAN` → `Bool`.

use ysmart_rel::{DataType, Schema};
use ysmart_sql::lexer::{Lexer, Token, TokenKind};
use ysmart_sql::ParseError;

use crate::catalog::Catalog;
use crate::error::PlanError;

impl Catalog {
    /// Parses a sequence of `CREATE TABLE` statements into a catalog.
    ///
    /// # Errors
    ///
    /// [`PlanError::Unsupported`] with a description of the syntax problem
    /// (wrapping the lexer's positioned errors), or naming a table or a
    /// column defined twice.
    pub fn parse_ddl(ddl: &str) -> Result<Catalog, PlanError> {
        let tokens = Lexer::new(ddl)
            .tokenize()
            .map_err(|e: ParseError| PlanError::Unsupported(format!("DDL: {e}")))?;
        let mut p = DdlParser { tokens, pos: 0 };
        let mut catalog = Catalog::new();
        while !p.at_eof() {
            let (name, schema) = p.parse_create_table()?;
            if catalog.table(&name).is_ok() {
                return Err(PlanError::Unsupported(format!(
                    "DDL: table `{name}` defined twice"
                )));
            }
            catalog.add_table(&name, schema);
        }
        Ok(catalog)
    }
}

struct DdlParser {
    tokens: Vec<Token>,
    pos: usize,
}

impl DdlParser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), PlanError> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.advance();
                Ok(())
            }
            other => Err(PlanError::Unsupported(format!(
                "DDL: expected `{}`, found {other}",
                kw.to_uppercase()
            ))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, PlanError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(PlanError::Unsupported(format!(
                "DDL: expected an identifier, found {other}"
            ))),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), PlanError> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(PlanError::Unsupported(format!(
                "DDL: expected `{kind}`, found {}",
                self.peek()
            )))
        }
    }

    fn parse_create_table(&mut self) -> Result<(String, Schema), PlanError> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut cols: Vec<(String, DataType)> = Vec::new();
        loop {
            let col = self.expect_ident()?;
            if cols.iter().any(|(c, _)| *c == col) {
                return Err(PlanError::Unsupported(format!(
                    "DDL: column `{col}` defined twice in `{name}`"
                )));
            }
            let ty_name = self.expect_ident()?;
            let ty = type_of(&ty_name)?;
            // Optional precision like DECIMAL(15, 2).
            if self.peek() == &TokenKind::LParen {
                while self.peek() != &TokenKind::RParen && !self.at_eof() {
                    self.advance();
                }
                self.expect(&TokenKind::RParen)?;
            }
            cols.push((col, ty));
            match self.peek() {
                TokenKind::Comma => self.advance(),
                TokenKind::RParen => {
                    self.advance();
                    break;
                }
                other => {
                    return Err(PlanError::Unsupported(format!(
                        "DDL: expected `,` or `)`, found {other}"
                    )))
                }
            }
        }
        if self.peek() == &TokenKind::Semicolon {
            self.advance();
        }
        let refs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Ok((name.clone(), Schema::of(&name, &refs)))
    }
}

fn type_of(name: &str) -> Result<DataType, PlanError> {
    Ok(match name {
        "int" | "bigint" | "integer" | "smallint" | "timestamp" | "date" => DataType::Int,
        "float" | "double" | "decimal" | "real" | "numeric" => DataType::Float,
        "string" | "varchar" | "char" | "text" => DataType::Str,
        "bool" | "boolean" => DataType::Bool,
        other => {
            return Err(PlanError::Unsupported(format!(
                "DDL: unknown column type `{other}`"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiple_tables() {
        let ddl = "
            CREATE TABLE clicks (uid INT, page STRING, ts TIMESTAMP);
            CREATE TABLE prices (item INT, price DECIMAL(15,2));
        ";
        let c = Catalog::parse_ddl(ddl).unwrap();
        assert!(c.contains("clicks"));
        let s = c.table("prices").unwrap();
        assert_eq!(s.field(1).data_type, DataType::Float);
        assert_eq!(c.table("clicks").unwrap().field(2).data_type, DataType::Int);
    }

    #[test]
    fn case_insensitive_keywords_and_types() {
        let c = Catalog::parse_ddl("create table T (A Int, B Varchar(10))").unwrap();
        assert_eq!(c.table("t").unwrap().len(), 2);
    }

    #[test]
    fn unknown_type_rejected() {
        let e = Catalog::parse_ddl("CREATE TABLE t (a BLOB)").unwrap_err();
        assert!(e.to_string().contains("unknown column type"));
    }

    #[test]
    fn syntax_errors_positioned() {
        assert!(Catalog::parse_ddl("CREATE VIEW v (a INT)").is_err());
        assert!(Catalog::parse_ddl("CREATE TABLE t a INT").is_err());
    }

    #[test]
    fn a_table_defined_twice_is_named() {
        let e = Catalog::parse_ddl("CREATE TABLE t (a INT, b INT); CREATE TABLE T (z STRING);")
            .unwrap_err();
        assert!(
            e.to_string().ends_with("DDL: table `t` defined twice"),
            "{e}"
        );
    }

    #[test]
    fn a_column_defined_twice_is_named() {
        let e = Catalog::parse_ddl("CREATE TABLE t (a INT, b INT, A STRING)").unwrap_err();
        assert!(
            e.to_string()
                .ends_with("DDL: column `a` defined twice in `t`"),
            "{e}"
        );
    }

    #[test]
    fn empty_input_gives_empty_catalog() {
        let c = Catalog::parse_ddl("   ").unwrap();
        assert_eq!(c.iter().count(), 0);
    }
}
