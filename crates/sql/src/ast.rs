//! The abstract syntax tree produced by the parser.
//!
//! Everything here is purely syntactic: column references are unresolved
//! `[qualifier.]name` pairs, aggregate calls are ordinary nodes, and `FROM`
//! items may be base tables or parenthesised subqueries with aliases.
//! `Display` implementations render the AST back to SQL text, which the
//! tests use for round-trip checks.

use std::fmt;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `NULL`
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            // Whole floats keep their decimal point so the rendered SQL
            // re-parses as a float (`7.0`, not `7`).
            Literal::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                write!(f, "{x:.1}")
            }
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// Binary operators (syntactic; precedence already applied by the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for AstBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AstBinOp::Eq => "=",
            AstBinOp::NotEq => "<>",
            AstBinOp::Lt => "<",
            AstBinOp::LtEq => "<=",
            AstBinOp::Gt => ">",
            AstBinOp::GtEq => ">=",
            AstBinOp::And => "AND",
            AstBinOp::Or => "OR",
            AstBinOp::Add => "+",
            AstBinOp::Sub => "-",
            AstBinOp::Mul => "*",
            AstBinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Aggregate function names of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstAggFunc {
    /// `count`
    Count,
    /// `sum`
    Sum,
    /// `avg`
    Avg,
    /// `min`
    Min,
    /// `max`
    Max,
}

impl AstAggFunc {
    /// Parses a (lower-case) function name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "count" => AstAggFunc::Count,
            "sum" => AstAggFunc::Sum,
            "avg" => AstAggFunc::Avg,
            "min" => AstAggFunc::Min,
            "max" => AstAggFunc::Max,
            _ => return None,
        })
    }
}

impl fmt::Display for AstAggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AstAggFunc::Count => "count",
            AstAggFunc::Sum => "sum",
            AstAggFunc::Avg => "avg",
            AstAggFunc::Min => "min",
            AstAggFunc::Max => "max",
        };
        f.write_str(s)
    }
}

/// A scalar (or aggregate) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `[qualifier.]name`
    Column {
        /// Optional relation qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal constant.
    Literal(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: AstBinOp,
        /// Left operand.
        lhs: Box<AstExpr>,
        /// Right operand.
        rhs: Box<AstExpr>,
    },
    /// `NOT expr`
    Not(Box<AstExpr>),
    /// `- expr`
    Neg(Box<AstExpr>),
    /// `expr IS NULL`
    IsNull(Box<AstExpr>),
    /// `expr IS NOT NULL`
    IsNotNull(Box<AstExpr>),
    /// Aggregate call, e.g. `count(*)`, `count(distinct x)`, `sum(a*b)`.
    Agg {
        /// The function.
        func: AstAggFunc,
        /// `DISTINCT` modifier (only meaningful for `count`).
        distinct: bool,
        /// Argument; `None` is `count(*)`.
        arg: Option<Box<AstExpr>>,
    },
}

impl AstExpr {
    /// Unqualified column reference.
    #[must_use]
    pub fn col(name: &str) -> AstExpr {
        AstExpr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Calls `f` on this expression, then on its operands left to right
    /// (an aggregate call's argument included), descending below a node
    /// only when `f` returns `true` for it.
    pub fn visit(&self, f: &mut impl FnMut(&AstExpr) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            AstExpr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            AstExpr::Not(e) | AstExpr::Neg(e) | AstExpr::IsNull(e) | AstExpr::IsNotNull(e) => {
                e.visit(f);
            }
            AstExpr::Agg { arg: Some(a), .. } => a.visit(f),
            AstExpr::Agg { arg: None, .. } | AstExpr::Column { .. } | AstExpr::Literal(_) => {}
        }
    }

    /// Splits a predicate on top-level `AND`s into its conjuncts.
    #[must_use]
    pub fn conjuncts(&self) -> Vec<&AstExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a AstExpr, out: &mut Vec<&'a AstExpr>) {
            match e {
                AstExpr::Binary {
                    op: AstBinOp::And,
                    lhs,
                    rhs,
                } => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for AstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstExpr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => f.write_str(name),
            },
            AstExpr::Literal(l) => write!(f, "{l}"),
            AstExpr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            AstExpr::Not(e) => write!(f, "(NOT {e})"),
            AstExpr::Neg(e) => write!(f, "(-{e})"),
            AstExpr::IsNull(e) => write!(f, "({e} IS NULL)"),
            AstExpr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            AstExpr::Agg {
                func,
                distinct,
                arg,
            } => match arg {
                None => write!(f, "{func}(*)"),
                Some(a) if *distinct => write!(f, "{func}(DISTINCT {a})"),
                Some(a) => write!(f, "{func}({a})"),
            },
        }
    }
}

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: AstExpr,
        /// Optional output name.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

/// The source of a `FROM` item: a base table or a subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// A named base table.
    Table(String),
    /// A parenthesised subquery.
    Subquery(Box<Query>),
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base table or subquery.
    pub source: TableSource,
    /// `AS alias`. Required for subqueries by the parser.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this reference binds in scope: the alias when present, else
    /// the base-table name.
    #[must_use]
    pub fn binding(&self) -> &str {
        if let Some(a) = &self.alias {
            return a;
        }
        match &self.source {
            TableSource::Table(t) => t,
            TableSource::Subquery(_) => "", // parser enforces alias presence
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            TableSource::Table(t) => f.write_str(t)?,
            TableSource::Subquery(q) => write!(f, "({q})")?,
        }
        if let Some(a) = &self.alias {
            write!(f, " AS {a}")?;
        }
        Ok(())
    }
}

/// Join kinds of the supported subset (equi-joins; §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    LeftOuter,
    /// `RIGHT [OUTER] JOIN`
    RightOuter,
    /// `FULL [OUTER] JOIN`
    FullOuter,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinType::Inner => "JOIN",
            JoinType::LeftOuter => "LEFT OUTER JOIN",
            JoinType::RightOuter => "RIGHT OUTER JOIN",
            JoinType::FullOuter => "FULL OUTER JOIN",
        };
        f.write_str(s)
    }
}

/// An explicit `JOIN … ON …` clause chained onto a `FROM` item.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub join_type: JoinType,
    /// Right-hand table reference.
    pub table: TableRef,
    /// The `ON` condition.
    pub on: AstExpr,
}

/// One comma-separated item of the `FROM` clause: a base reference plus any
/// chained explicit joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The leading table reference.
    pub base: TableRef,
    /// Chained `JOIN` clauses, in source order.
    pub joins: Vec<Join>,
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for j in &self.joins {
            write!(f, " {} {} ON {}", j.join_type, j.table, j.on)?;
        }
        Ok(())
    }
}

/// A full `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The `SELECT` list.
    pub select: Vec<SelectItem>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Comma-separated `FROM` items.
    pub from: Vec<FromItem>,
    /// `WHERE` predicate.
    pub where_clause: Option<AstExpr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<AstExpr>,
    /// `HAVING` predicate.
    pub having: Option<AstExpr>,
    /// `ORDER BY` items; `true` = ascending.
    pub order_by: Vec<(AstExpr, bool)>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str(" FROM ")?;
        for (i, item) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, (e, asc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}{}", if *asc { "" } else { " DESC" })?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

/// A `CREATE TABLE` statement: the table's name and each column's name
/// and type name, in order. A type's precision suffix, like the `(15, 2)`
/// of `DECIMAL(15, 2)`, is dropped; mapping type names onto runtime types
/// is the planner's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// The table name.
    pub name: String,
    /// `(column name, type name)` pairs.
    pub columns: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_split_on_and_only() {
        let e = AstExpr::Binary {
            op: AstBinOp::And,
            lhs: Box::new(AstExpr::col("a")),
            rhs: Box::new(AstExpr::Binary {
                op: AstBinOp::Or,
                lhs: Box::new(AstExpr::col("b")),
                rhs: Box::new(AstExpr::col("c")),
            }),
        };
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0], &AstExpr::col("a"));
    }

    #[test]
    fn visit_walks_pre_order_and_prunes() {
        let sum = AstExpr::Agg {
            func: AstAggFunc::Sum,
            distinct: false,
            arg: Some(Box::new(AstExpr::col("a"))),
        };
        let e = AstExpr::Binary {
            op: AstBinOp::Sub,
            lhs: Box::new(AstExpr::Not(Box::new(sum))),
            rhs: Box::new(AstExpr::Literal(Literal::Int(2))),
        };
        let mut all = Vec::new();
        e.visit(&mut |n| {
            all.push(n.to_string());
            true
        });
        assert_eq!(
            all,
            ["((NOT sum(a)) - 2)", "(NOT sum(a))", "sum(a)", "a", "2"]
        );
        let mut above_aggs = Vec::new();
        e.visit(&mut |n| {
            above_aggs.push(n.to_string());
            !matches!(n, AstExpr::Agg { .. })
        });
        assert_eq!(
            above_aggs,
            ["((NOT sum(a)) - 2)", "(NOT sum(a))", "sum(a)", "2"]
        );
    }

    #[test]
    fn display_agg_variants() {
        let c = AstExpr::Agg {
            func: AstAggFunc::Count,
            distinct: true,
            arg: Some(Box::new(AstExpr::col("s"))),
        };
        assert_eq!(c.to_string(), "count(DISTINCT s)");
    }

    #[test]
    fn binding_prefers_alias() {
        let t = TableRef {
            source: TableSource::Table("clicks".into()),
            alias: Some("c1".into()),
        };
        assert_eq!(t.binding(), "c1");
        let t2 = TableRef {
            source: TableSource::Table("clicks".into()),
            alias: None,
        };
        assert_eq!(t2.binding(), "clicks");
    }

    #[test]
    fn string_literal_display_escapes() {
        assert_eq!(Literal::Str("a'b".into()).to_string(), "'a''b'");
    }
}
