//! Minimal DDL: `CREATE TABLE` statements for building a [`Catalog`] from
//! text — what the stand-alone translator binary reads as its schema file.
//! The statements parse through the query parser ([`ysmart_sql::parse_ddl`]);
//! this module maps their type names and refuses a name defined twice.
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

use std::collections::BTreeSet;

use ysmart_rel::{DataType, Schema};
use ysmart_sql::CreateTable;

use crate::catalog::Catalog;
use crate::error::PlanError;

impl Catalog {
    /// Parses a sequence of `CREATE TABLE` statements into a catalog.
    ///
    /// # Errors
    ///
    /// [`PlanError::Parse`] for a syntax error, with its line and column;
    /// [`PlanError::Unsupported`] for an unknown type name, or naming a
    /// table or a column defined twice.
    pub fn parse_ddl(ddl: &str) -> Result<Catalog, PlanError> {
        let mut catalog = Catalog::new();
        for CreateTable { name, columns } in ysmart_sql::parse_ddl(ddl)? {
            let mut seen = BTreeSet::new();
            let mut fields = Vec::with_capacity(columns.len());
            for (column, type_name) in &columns {
                if !seen.insert(column) {
                    return Err(PlanError::Unsupported(format!(
                        "DDL: column `{column}` defined twice in `{name}`"
                    )));
                }
                fields.push((column.as_str(), type_of(type_name)?));
            }
            if catalog.table(&name).is_ok() {
                return Err(PlanError::Unsupported(format!(
                    "DDL: table `{name}` defined twice"
                )));
            }
            catalog.add_table(&name, Schema::of(&name, &fields));
        }
        Ok(catalog)
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
        for (ddl, line, column, message) in [
            (
                "CREATE VIEW v (a INT)",
                1,
                8,
                "expected keyword `TABLE`, found `view`",
            ),
            ("CREATE TABLE t a INT", 1, 16, "expected `(`, found `a`"),
            (
                "CREATE TABLE t (a INT);\nCREATE TABLE u (b INT;",
                2,
                22,
                "expected `,` or `)`, found ;",
            ),
            (
                "CREATE TABLE t (\n  a DECIMAL(15, 2\n",
                3,
                1,
                "expected `)`, found <eof>",
            ),
        ] {
            let Err(PlanError::Parse(e)) = Catalog::parse_ddl(ddl) else {
                panic!("{ddl:?} is no syntax error");
            };
            assert_eq!(
                (e.line, e.column, e.message.as_str()),
                (line, column, message)
            );
        }
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
