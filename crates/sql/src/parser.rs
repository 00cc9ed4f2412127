//! Recursive-descent SQL parser, with one precedence-climbing loop for
//! expressions.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query      := SELECT [DISTINCT] select_list FROM from_list
//!               [WHERE expr] [GROUP BY expr_list] [HAVING expr]
//!               [ORDER BY order_list] [LIMIT int]
//! select_list:= '*' | select_item (',' select_item)*
//! select_item:= expr [[AS] ident]
//! from_list  := from_item (',' from_item)*
//! from_item  := table_ref (join_clause)*
//! table_ref  := ident [[AS] ident] | '(' query ')' [AS] ident
//! join_clause:= [INNER | LEFT [OUTER] | RIGHT [OUTER] | FULL [OUTER]]
//!               JOIN table_ref ON expr
//! primary    := literal | agg_call | column | '(' expr ')'
//! agg_call   := (count|sum|avg|min|max) '(' ('*' | [DISTINCT] expr) ')'
//! column     := ident ['.' ident]
//! ddl        := (CREATE TABLE ident '(' column_def (',' column_def)* ')' [;])*
//! column_def := ident ident ['(' ... ')']
//! ```
//!
//! An `expr` is `primary`s joined by these operators, tighter ones binding
//! first and equal ones grouping to the left:
//!
//! | strength | operators                                            |
//! |----------|------------------------------------------------------|
//! | 1        | `OR`                                                 |
//! | 2        | `AND`                                                |
//! | 3        | prefix `NOT`                                         |
//! | 4        | `= <> < <= > >=`, `IS [NOT] NULL`, `[NOT] BETWEEN a AND b`, `[NOT] IN (e, …)` |
//! | 5        | `+ -`                                                |
//! | 6        | `* /`                                                |
//! | 7        | prefix `-`                                           |
//!
//! Strength 4 does not chain: `a = b = c` is an error. A prefix reads its
//! operand at its own strength, so `NOT` is a prefix only where an operand
//! of strength 3 or looser may start (`NOT a = b` negates the comparison;
//! `a + NOT b` is an error). `BETWEEN`'s bounds are strength 5 expressions.
//! A clause keyword is never a column name: where an operand must start,
//! it is an error.
//!
//! Nesting is bounded by [`MAX_DEPTH`], counted as the tree is built.

use crate::ast::{
    AstAggFunc, AstBinOp, AstExpr, CreateTable, FromItem, Join, JoinType, Literal, Query,
    SelectItem, TableRef, TableSource,
};
use crate::error::ParseError;
use crate::lexer::{Lexer, Token, TokenKind};

/// The deepest nesting the parser accepts. A subquery, a parenthesised
/// expression, a `NOT` and a unary minus each open a level, and every tree
/// it returns reaches at most this deep, loop-built `a + b + …` chains
/// included. Past it parsing fails with a [`ParseError`], so every later
/// recursive walk of the tree is bounded by construction.
pub const MAX_DEPTH: usize = 256;

/// An expression and the height of its tree, counted as it is built.
type Tree = (AstExpr, usize);

/// A one-operand node's constructor: `AstExpr::Not`, `AstExpr::Neg`, ….
type Wrap = fn(Box<AstExpr>) -> AstExpr;

// Operator strengths (the table in the module doc).
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const SUM: u8 = 5;
const PRODUCT: u8 = 6;
const NEG: u8 = 7;

/// The recursive-descent parser. Usually invoked through [`crate::parse`].
#[derive(Debug)]
pub struct Parser {
    src: String,
    tokens: Vec<Token>,
    pos: usize,
    /// Levels opened above the current token (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Lexes `src` and prepares a parser over its tokens.
    ///
    /// # Errors
    ///
    /// Propagates lexer errors.
    pub fn new(src: &str) -> Result<Self, ParseError> {
        let tokens = Lexer::new(src).tokenize()?;
        Ok(Parser {
            src: src.to_string(),
            tokens,
            pos: 0,
            depth: 0,
        })
    }

    /// Parses one query and requires the rest of the input to be empty
    /// (a trailing semicolon is allowed).
    ///
    /// # Errors
    ///
    /// Any syntax error, or trailing tokens after the query.
    pub fn parse_query_eof(mut self) -> Result<Query, ParseError> {
        let q = *self.parse_query()?;
        if self.peek_kind() == &TokenKind::Semicolon {
            self.advance();
        }
        if self.peek_kind() != &TokenKind::Eof {
            return Err(self.unexpected("end of input"));
        }
        Ok(q)
    }

    /// Parses `CREATE TABLE` statements up to the end of the input (see
    /// `ddl` in the module doc). Names may be any word, clause keywords
    /// included.
    ///
    /// # Errors
    ///
    /// Any syntax error.
    pub fn parse_ddl_eof(mut self) -> Result<Vec<CreateTable>, ParseError> {
        let mut tables = Vec::new();
        while self.peek_kind() != &TokenKind::Eof {
            self.expect_kw("create")?;
            self.expect_kw("table")?;
            let name = self.expect_word()?;
            self.expect(TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                let column = self.expect_word()?;
                let type_name = self.expect_word()?;
                if self.peek_kind() == &TokenKind::LParen {
                    while !matches!(self.peek_kind(), TokenKind::RParen | TokenKind::Eof) {
                        self.advance();
                    }
                    self.expect(TokenKind::RParen)?;
                }
                columns.push((column, type_name));
                match self.peek_kind() {
                    TokenKind::Comma => self.advance(),
                    TokenKind::RParen => {
                        self.advance();
                        break;
                    }
                    _ => return Err(self.unexpected("`,` or `)`")),
                }
            }
            if self.peek_kind() == &TokenKind::Semicolon {
                self.advance();
            }
            tables.push(CreateTable { name, columns });
        }
        Ok(tables)
    }

    /// Boxed: what each level of nested derived tables passes up is one
    /// pointer.
    fn parse_query(&mut self) -> Result<Box<Query>, ParseError> {
        self.nested(Self::parse_query_body)
    }

    /// Only `FROM` nests a query (a derived table is one), so the clauses
    /// before and after it are parsed apart: their locals are not on the
    /// stack while a derived table nests.
    fn parse_query_body(&mut self) -> Result<Box<Query>, ParseError> {
        let (distinct, select) = self.parse_select_clause()?;
        let from = self.parse_from_list()?;
        self.parse_query_tail(distinct, select, from)
    }

    /// `SELECT [DISTINCT] select_list FROM`.
    fn parse_select_clause(&mut self) -> Result<(bool, Vec<SelectItem>), ParseError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let select = self.parse_select_list()?;
        self.expect_kw("from")?;
        Ok((distinct, select))
    }

    /// The clauses after the `FROM` list.
    fn parse_query_tail(
        &mut self,
        distinct: bool,
        select: Vec<SelectItem>,
        from: Vec<FromItem>,
    ) -> Result<Box<Query>, ParseError> {
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?.0)
        } else {
            None
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            self.parse_expr_list()?
        } else {
            Vec::new()
        };
        let having = if self.eat_kw("having") {
            Some(self.parse_expr()?.0)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            self.parse_sort_keys()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_kw("limit") {
            match self.peek_kind().clone() {
                TokenKind::Int(n) if n >= 0 => {
                    self.advance();
                    Some(n as u64)
                }
                _ => return Err(self.unexpected("a non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(Box::new(Query {
            select,
            distinct,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        }))
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            if self.peek_kind() == &TokenKind::Star {
                self.advance();
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?.0;
                let alias = self.parse_alias()?;
                items.push(SelectItem::Expr { expr, alias });
            }
            if self.peek_kind() == &TokenKind::Comma {
                self.advance();
            } else {
                return Ok(items);
            }
        }
    }

    /// `[AS] ident` — an alias after a select item or table reference. Bare
    /// identifiers that are clause keywords are not treated as aliases.
    fn parse_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("as") {
            return Ok(Some(self.expect_ident()?));
        }
        if let TokenKind::Ident(name) = self.peek_kind() {
            if !is_clause_keyword(name) {
                let name = name.clone();
                self.advance();
                return Ok(Some(name));
            }
        }
        Ok(None)
    }

    fn parse_from_list(&mut self) -> Result<Vec<FromItem>, ParseError> {
        let mut items = vec![self.parse_from_item()?];
        while self.peek_kind() == &TokenKind::Comma {
            self.advance();
            items.push(self.parse_from_item()?);
        }
        Ok(items)
    }

    fn parse_from_item(&mut self) -> Result<FromItem, ParseError> {
        let base = self.parse_table_ref()?;
        self.parse_joins(base)
    }

    /// The join clauses after `base`.
    fn parse_joins(&mut self, base: TableRef) -> Result<FromItem, ParseError> {
        let mut joins = Vec::new();
        while let Some(join_type) = self.parse_join_type()? {
            let table = self.parse_table_ref()?;
            self.expect_kw("on")?;
            let on = self.parse_expr()?.0;
            joins.push(Join {
                join_type,
                table,
                on,
            });
        }
        Ok(FromItem { base, joins })
    }

    fn parse_join_type(&mut self) -> Result<Option<JoinType>, ParseError> {
        let jt = if self.eat_kw("inner") {
            self.expect_kw("join")?;
            JoinType::Inner
        } else if self.eat_kw("left") {
            self.eat_kw("outer");
            self.expect_kw("join")?;
            JoinType::LeftOuter
        } else if self.eat_kw("right") {
            self.eat_kw("outer");
            self.expect_kw("join")?;
            JoinType::RightOuter
        } else if self.eat_kw("full") {
            self.eat_kw("outer");
            self.expect_kw("join")?;
            JoinType::FullOuter
        } else if self.eat_kw("join") {
            JoinType::Inner
        } else {
            return Ok(None);
        };
        Ok(Some(jt))
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let source = if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            let q = self.parse_query()?;
            self.expect(TokenKind::RParen)?;
            TableSource::Subquery(q)
        } else {
            TableSource::Table(self.expect_ident()?)
        };
        self.parse_table_alias(source)
    }

    /// The alias after a table reference, which a subquery requires.
    fn parse_table_alias(&mut self, source: TableSource) -> Result<TableRef, ParseError> {
        let alias = self.parse_alias()?;
        if alias.is_none() && matches!(source, TableSource::Subquery(_)) {
            return Err(self.error_here("a subquery in FROM requires an alias"));
        }
        Ok(TableRef { source, alias })
    }

    fn parse_expr_list(&mut self) -> Result<Vec<AstExpr>, ParseError> {
        let mut out = vec![self.parse_expr()?.0];
        while self.peek_kind() == &TokenKind::Comma {
            self.advance();
            out.push(self.parse_expr()?.0);
        }
        Ok(out)
    }

    fn parse_sort_keys(&mut self) -> Result<Vec<(AstExpr, bool)>, ParseError> {
        let mut out = Vec::new();
        loop {
            let e = self.parse_expr()?.0;
            let asc = if self.eat_kw("desc") {
                false
            } else {
                self.eat_kw("asc");
                true
            };
            out.push((e, asc));
            if self.peek_kind() == &TokenKind::Comma {
                self.advance();
            } else {
                return Ok(out);
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Tree, ParseError> {
        self.nested(|p| p.parse_binary(OR))
    }

    /// Parses an operand and every infix operator after it that binds at
    /// least as tightly as `min` (precedence climbing over the table in the
    /// module doc). An operator of strength `s` reads its right operand at
    /// `s + 1`, and only operators no tighter than `s` may follow it, so
    /// equal strengths group to the left and what the right operand refused
    /// is refused here too. After a comparison or a prefix of strength `s`,
    /// only looser operators may follow: `a = b = c` stops at the second
    /// `=`, and `NOT a = b` negates the whole comparison.
    fn parse_binary(&mut self, min: u8) -> Result<Tree, ParseError> {
        let prefix = match self.peek_kind() {
            TokenKind::Ident(w) if w == "not" && min <= NOT => Some((AstExpr::Not as Wrap, NOT)),
            TokenKind::Minus => Some((AstExpr::Neg as Wrap, NEG)),
            _ => None,
        };
        let (lhs, max) = match prefix {
            Some((wrap, strength)) => {
                self.advance();
                let operand = self.nested(|p| p.parse_binary(strength))?;
                (self.unary(wrap, operand)?, strength - 1)
            }
            None => (self.parse_primary()?, PRODUCT),
        };
        self.parse_infixes(lhs, min, max)
    }

    /// The operators after `lhs` of strength `min..=max`. Kept apart from
    /// [`Self::parse_binary`] so that its locals are not on the stack while
    /// a prefix's operand or a parenthesised expression nests: a debug
    /// build then takes 25–40 % less stack per nesting level.
    fn parse_infixes(&mut self, mut lhs: Tree, min: u8, mut max: u8) -> Result<Tree, ParseError> {
        while let Some((op, strength)) = self.infix() {
            if strength < min || strength > max {
                break;
            }
            lhs = match op {
                Some(op) => {
                    self.advance();
                    let rhs = self.parse_binary(strength + 1)?;
                    self.bin(op, lhs, rhs)?
                }
                None => self.parse_tail(lhs)?,
            };
            max = if strength == CMP { CMP - 1 } else { strength };
        }
        Ok(lhs)
    }

    /// The infix operator at the cursor and its strength: a binary
    /// operator, or `None` for a predicate tail, which binds as a
    /// comparison.
    fn infix(&self) -> Option<(Option<AstBinOp>, u8)> {
        let (op, strength) = match self.peek_kind() {
            TokenKind::Eq => (AstBinOp::Eq, CMP),
            TokenKind::NotEq => (AstBinOp::NotEq, CMP),
            TokenKind::Lt => (AstBinOp::Lt, CMP),
            TokenKind::LtEq => (AstBinOp::LtEq, CMP),
            TokenKind::Gt => (AstBinOp::Gt, CMP),
            TokenKind::GtEq => (AstBinOp::GtEq, CMP),
            TokenKind::Plus => (AstBinOp::Add, SUM),
            TokenKind::Minus => (AstBinOp::Sub, SUM),
            TokenKind::Star => (AstBinOp::Mul, PRODUCT),
            TokenKind::Slash => (AstBinOp::Div, PRODUCT),
            TokenKind::Ident(w) => match w.as_str() {
                "or" => (AstBinOp::Or, OR),
                "and" => (AstBinOp::And, AND),
                "is" | "between" | "in" => return Some((None, CMP)),
                "not" => {
                    let next = self.peek_kind_at(1);
                    let tail =
                        matches!(next, Some(TokenKind::Ident(w)) if w == "between" || w == "in");
                    return tail.then_some((None, CMP));
                }
                _ => return None,
            },
            _ => return None,
        };
        Some((Some(op), strength))
    }

    /// `IS [NOT] NULL`, `[NOT] BETWEEN lo AND hi` or `[NOT] IN (v, …)` after
    /// `lhs`. `BETWEEN` and `IN` desugar while parsing (TPC-H's original
    /// Q17/Q19 forms use both): `lhs >= lo AND lhs <= hi`, and `lhs = v OR …`
    /// as a balanced tree with the leaves in list order, so a long list
    /// stays shallow (`OR` is associative under three-valued logic, so the
    /// shape does not change a result). `NOT` negates the desugared
    /// predicate.
    fn parse_tail(&mut self, lhs: Tree) -> Result<Tree, ParseError> {
        if self.eat_kw("is") {
            let wrap = if self.eat_kw("not") {
                AstExpr::IsNotNull
            } else {
                AstExpr::IsNull
            };
            self.expect_kw("null")?;
            return self.unary(wrap, lhs);
        }
        let negated = self.eat_kw("not");
        let tree = if self.eat_kw("between") {
            self.parse_between(lhs)?
        } else {
            self.expect_kw("in")?;
            self.parse_in(lhs)?
        };
        if negated {
            self.unary(AstExpr::Not, tree)
        } else {
            Ok(tree)
        }
    }

    fn parse_between(&mut self, lhs: Tree) -> Result<Tree, ParseError> {
        let lo = self.parse_binary(SUM)?;
        self.expect_kw("and")?;
        let hi = self.parse_binary(SUM)?;
        let ge = self.bin(AstBinOp::GtEq, lhs.clone(), lo)?;
        let le = self.bin(AstBinOp::LtEq, lhs, hi)?;
        self.bin(AstBinOp::And, ge, le)
    }

    fn parse_in(&mut self, lhs: Tree) -> Result<Tree, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut terms = Vec::new();
        loop {
            let item = self.parse_expr()?;
            terms.push(self.bin(AstBinOp::Eq, lhs.clone(), item)?);
            match self.peek_kind() {
                TokenKind::Comma => self.advance(),
                _ => break,
            }
        }
        self.expect(TokenKind::RParen)?;
        while terms.len() > 1 {
            let mut level = terms.into_iter();
            terms = Vec::new();
            while let Some(a) = level.next() {
                terms.push(match level.next() {
                    Some(b) => self.bin(AstBinOp::Or, a, b)?,
                    None => a,
                });
            }
        }
        Ok(terms.pop().expect("IN list has at least one item"))
    }

    fn parse_primary(&mut self) -> Result<Tree, ParseError> {
        let leaf = match self.peek_kind().clone() {
            TokenKind::Int(i) => AstExpr::Literal(Literal::Int(i)),
            TokenKind::Float(x) => AstExpr::Literal(Literal::Float(x)),
            TokenKind::Str(s) => AstExpr::Literal(Literal::Str(s)),
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            TokenKind::Ident(name) => {
                if name == "null" {
                    self.advance();
                    return Ok((AstExpr::Literal(Literal::Null), 0));
                }
                if is_clause_keyword(&name) {
                    return Err(self.unexpected("an expression"));
                }
                // Aggregate call?
                if let Some(func) = AstAggFunc::from_name(&name) {
                    if self.peek_kind_at(1) == Some(&TokenKind::LParen) {
                        self.advance(); // name
                        self.advance(); // (
                        return self.parse_agg_tail(func);
                    }
                }
                self.advance();
                let (qualifier, name) = if self.peek_kind() == &TokenKind::Dot {
                    self.advance();
                    (Some(name), self.expect_ident()?)
                } else {
                    (None, name)
                };
                return Ok((AstExpr::Column { qualifier, name }, 0));
            }
            _ => return Err(self.unexpected("an expression")),
        };
        self.advance();
        Ok((leaf, 0))
    }

    fn parse_agg_tail(&mut self, func: AstAggFunc) -> Result<Tree, ParseError> {
        if self.peek_kind() == &TokenKind::Star {
            self.advance();
            self.expect(TokenKind::RParen)?;
            if func != AstAggFunc::Count {
                return Err(self.error_here("only count(*) may take `*`"));
            }
            let count = AstExpr::Agg {
                func,
                distinct: false,
                arg: None,
            };
            return Ok((count, 0));
        }
        let distinct = self.eat_kw("distinct");
        if distinct && func != AstAggFunc::Count {
            return Err(self.error_here("DISTINCT is only supported with count()"));
        }
        let (arg, height) = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let call = AstExpr::Agg {
            func,
            distinct,
            arg: Some(Box::new(arg)),
        };
        self.node(call, height)
    }

    // --- nesting budget ----------------------------------------------------

    /// Parses one level deeper, refusing past [`MAX_DEPTH`] before the
    /// recursion goes any further.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error_here(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// `expr` over children `below` tall, refused when its leaves would
    /// reach past [`MAX_DEPTH`].
    fn node(&self, expr: AstExpr, below: usize) -> Result<Tree, ParseError> {
        if self.depth + below >= MAX_DEPTH {
            return Err(self.error_here(&format!("expression deeper than {MAX_DEPTH} levels")));
        }
        Ok((expr, below + 1))
    }

    fn bin(&self, op: AstBinOp, (lhs, lh): Tree, (rhs, rh): Tree) -> Result<Tree, ParseError> {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        self.node(AstExpr::Binary { op, lhs, rhs }, lh.max(rh))
    }

    fn unary(&self, wrap: Wrap, (e, h): Tree) -> Result<Tree, ParseError> {
        self.node(wrap(Box::new(e)), h)
    }

    // --- token helpers -----------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_kind_at(&self, ahead: usize) -> Option<&TokenKind> {
        self.tokens.get(self.pos + ahead).map(|t| &t.kind)
    }

    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword `{}`", kw.to_ascii_uppercase())))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.peek_kind() == &kind {
            self.advance();
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{kind}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek_kind() {
            TokenKind::Ident(s) if is_clause_keyword(s) => Err(self.unexpected("an identifier")),
            _ => self.expect_word(),
        }
    }

    /// An identifier, clause keywords included.
    fn expect_word(&mut self) -> Result<String, ParseError> {
        match self.peek_kind() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        let tok = self.peek();
        ParseError::at(
            &self.src,
            tok.offset,
            format!("expected {wanted}, found {}", tok.kind),
        )
    }

    fn error_here(&self, message: &str) -> ParseError {
        ParseError::at(&self.src, self.peek().offset, message)
    }
}

/// Reserved words of a query: never a name, an operand or an implicit
/// alias. A bare identifier in alias position is an alias unless it is one
/// of these.
fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "having"
            | "order"
            | "limit"
            | "join"
            | "inner"
            | "left"
            | "right"
            | "full"
            | "outer"
            | "on"
            | "and"
            | "or"
            | "not"
            | "as"
            | "is"
            | "null"
            | "between"
            | "in"
            | "distinct"
            | "asc"
            | "desc"
            | "union"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn minimal_select() {
        let q = parse("SELECT a FROM t").unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.from.len(), 1);
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn select_star() {
        let q = parse("SELECT * FROM t").unwrap();
        assert_eq!(q.select, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse("SELECT a AS x, b y FROM t u").unwrap();
        match &q.select[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("x")),
            SelectItem::Wildcard => panic!(),
        }
        match &q.select[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("y")),
            SelectItem::Wildcard => panic!(),
        }
        assert_eq!(q.from[0].base.alias.as_deref(), Some("u"));
    }

    #[test]
    fn comma_join_with_where() {
        let q = parse(
            "SELECT c1.uid FROM clicks AS c1, clicks AS c2 \
             WHERE c1.uid = c2.uid AND c1.ts < c2.ts",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        let w = q.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn explicit_joins_all_kinds() {
        for (sql, jt) in [
            ("JOIN", JoinType::Inner),
            ("INNER JOIN", JoinType::Inner),
            ("LEFT JOIN", JoinType::LeftOuter),
            ("LEFT OUTER JOIN", JoinType::LeftOuter),
            ("RIGHT OUTER JOIN", JoinType::RightOuter),
            ("FULL OUTER JOIN", JoinType::FullOuter),
        ] {
            let q = parse(&format!("SELECT a FROM t {sql} u ON t.k = u.k")).unwrap();
            assert_eq!(q.from[0].joins[0].join_type, jt, "{sql}");
        }
    }

    #[test]
    fn subquery_in_from_requires_alias() {
        assert!(parse("SELECT a FROM (SELECT b FROM t)").is_err());
        let q = parse("SELECT a FROM (SELECT b FROM t) AS s").unwrap();
        match &q.from[0].base.source {
            TableSource::Subquery(inner) => assert_eq!(inner.from.len(), 1),
            TableSource::Table(_) => panic!("expected subquery"),
        }
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = parse(
            "SELECT cid, count(*) AS n FROM clicks GROUP BY cid \
             HAVING count(*) > 10 ORDER BY n DESC, cid LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].1, "DESC");
        assert!(q.order_by[1].1, "default ASC");
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn count_distinct() {
        let q = parse("SELECT count(distinct l_suppkey) FROM lineitem").unwrap();
        match &q.select[0] {
            SelectItem::Expr { expr, .. } => match expr {
                AstExpr::Agg { distinct, .. } => assert!(distinct),
                other => panic!("unexpected {other:?}"),
            },
            SelectItem::Wildcard => panic!(),
        }
    }

    #[test]
    fn distinct_only_with_count() {
        assert!(parse("SELECT sum(distinct x) FROM t").is_err());
    }

    #[test]
    fn star_only_with_count() {
        assert!(parse("SELECT max(*) FROM t").is_err());
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT a + b * c FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.select[0] else {
            panic!()
        };
        // + at the root, * nested
        match expr {
            AstExpr::Binary { op, rhs, .. } => {
                assert_eq!(*op, AstBinOp::Add);
                assert!(matches!(
                    rhs.as_ref(),
                    AstExpr::Binary {
                        op: AstBinOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        match q.where_clause.unwrap() {
            AstExpr::Binary { op, .. } => assert_eq!(op, AstBinOp::Or),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn is_null_and_is_not_null() {
        let q = parse("SELECT a FROM t WHERE (b IS NULL) OR (c IS NOT NULL)").unwrap();
        let w = q.where_clause.unwrap();
        assert!(w.to_string().contains("IS NULL"));
        assert!(w.to_string().contains("IS NOT NULL"));
    }

    #[test]
    fn not_and_negation() {
        let q = parse("SELECT a FROM t WHERE NOT (a = -1)").unwrap();
        assert!(matches!(q.where_clause.unwrap(), AstExpr::Not(_)));
    }

    #[test]
    fn expression_aliases_with_computation() {
        let q = parse("SELECT (count(*) - 2) AS pageview_count FROM t GROUP BY uid").unwrap();
        let SelectItem::Expr { expr, alias } = &q.select[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("pageview_count"));
        assert_eq!(expr.to_string(), "(count(*) - 2)");
    }

    #[test]
    fn q_csa_parses() {
        // The paper's Fig. 1 query, verbatim modulo whitespace.
        let sql = "SELECT avg(pageview_count) FROM
            (SELECT c.uid, mp.ts1, (count(*)-2) AS pageview_count
             FROM clicks AS c,
                  (SELECT uid, max(ts1) AS ts1, ts2
                   FROM (SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2
                         FROM clicks AS c1, clicks AS c2
                         WHERE c1.uid = c2.uid AND c1.ts < c2.ts
                           AND c1.cid = 10 AND c2.cid = 20
                         GROUP BY c1.uid, c1.ts) AS cp
                   GROUP BY uid, ts2) AS mp
             WHERE c.uid = mp.uid AND c.ts >= mp.ts1 AND c.ts <= mp.ts2
             GROUP BY c.uid, mp.ts1) AS pageview_counts";
        let q = parse(sql).unwrap();
        assert_eq!(q.from.len(), 1);
    }

    #[test]
    fn q17_parses() {
        let sql = "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
            FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
                  FROM lineitem GROUP BY l_partkey) AS inner_t,
                 (SELECT l_partkey, l_quantity, l_extendedprice
                  FROM lineitem, part
                  WHERE p_partkey = l_partkey) AS outer_t
            WHERE outer_t.l_partkey = inner_t.l_partkey
              AND outer_t.l_quantity < inner_t.t1";
        let q = parse(sql).unwrap();
        assert_eq!(q.from.len(), 2);
    }

    #[test]
    fn q21_subtree_parses() {
        // Appendix code of the paper (with the missing commas of the listing
        // repaired).
        let sql = "SELECT sq12.l_suppkey FROM
            (SELECT sq1.l_orderkey, sq1.l_suppkey FROM
                (SELECT l_suppkey, l_orderkey FROM lineitem, orders
                 WHERE o_orderkey = l_orderkey
                   AND l_receiptdate > l_commitdate
                   AND o_orderstatus = 'F') AS sq1,
                (SELECT l_orderkey, count(distinct l_suppkey) AS cs,
                        max(l_suppkey) AS ms
                 FROM lineitem GROUP BY l_orderkey) AS sq2
             WHERE sq1.l_orderkey = sq2.l_orderkey
               AND ((sq2.cs > 1) OR ((sq2.cs = 1) AND (sq1.l_suppkey <> sq2.ms)))
            ) AS sq12
            LEFT OUTER JOIN
            (SELECT l_orderkey, count(distinct l_suppkey) AS cs,
                    max(l_suppkey) AS ms
             FROM lineitem WHERE l_receiptdate > l_commitdate
             GROUP BY l_orderkey) AS sq3
            ON sq12.l_orderkey = sq3.l_orderkey
            WHERE (sq3.cs IS NULL) OR ((sq3.cs = 1) AND (sq12.l_suppkey = sq3.ms))";
        let q = parse(sql).unwrap();
        assert_eq!(q.from[0].joins.len(), 1);
        assert_eq!(q.from[0].joins[0].join_type, JoinType::LeftOuter);
    }

    #[test]
    fn display_round_trip_reparses() {
        let sql = "SELECT a, count(*) AS n FROM t AS x JOIN u ON x.k = u.k \
                   WHERE x.v > 3 GROUP BY a HAVING count(*) > 1 ORDER BY n DESC LIMIT 7";
        let q1 = parse(sql).unwrap();
        let q2 = parse(&q1.to_string()).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn trailing_semicolon_ok_trailing_garbage_not() {
        assert!(parse("SELECT a FROM t;").is_ok());
        let e = parse("SELECT a FROM t garbage extra").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }

    #[test]
    fn error_position_points_at_token() {
        let e = parse("SELECT FROM t").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.column >= 8);
    }

    #[test]
    fn between_desugars() {
        let q = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5").unwrap();
        let w = q.where_clause.unwrap();
        assert_eq!(w.to_string(), "((a >= 1) AND (a <= 5))");
        let q = parse("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 5").unwrap();
        assert!(matches!(q.where_clause.unwrap(), AstExpr::Not(_)));
    }

    #[test]
    fn in_list_desugars() {
        let q = parse("SELECT a FROM t WHERE a IN (1, 2, 3)").unwrap();
        let w = q.where_clause.unwrap();
        assert_eq!(w.to_string(), "(((a = 1) OR (a = 2)) OR (a = 3))");
        let q = parse("SELECT a FROM t WHERE b NOT IN ('x', 'y')").unwrap();
        assert!(matches!(q.where_clause.unwrap(), AstExpr::Not(_)));
    }

    #[test]
    fn long_in_list_is_a_balanced_or_tree() {
        let q = parse("SELECT a FROM t WHERE a IN (1, 2, 3, 4)").unwrap();
        assert_eq!(
            q.where_clause.unwrap().to_string(),
            "(((a = 1) OR (a = 2)) OR ((a = 3) OR (a = 4)))"
        );
        let list: Vec<String> = (0..20_000).map(|i| i.to_string()).collect();
        let sql = format!("SELECT a FROM t WHERE a NOT IN ({})", list.join(", "));
        assert!(parse(&sql).is_ok(), "a 20 000-item list is 16 levels deep");
    }

    /// Every expression shape nested past the budget is a typed error. On
    /// the 2 MB test thread: at the deepest input accepted, a debug build
    /// needs 0.9 MB of stack for parentheses, 0.45 MB for `NOT` or `-`
    /// chains and 1.7 MB for nested `IN` lists.
    #[test]
    fn expressions_nested_past_the_budget_are_typed_errors() {
        let shapes: [fn(usize) -> String; 5] = [
            |n| format!("{}a = 1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}a = 1", "NOT ".repeat(n)),
            |n| format!("a = {}1", "- ".repeat(n)),
            |n| format!("a = 1{}", " + a".repeat(n)),
            |n| format!("a IN ({}1{})", "a IN (".repeat(n), ")".repeat(n)),
        ];
        for shape in shapes {
            let sql = |n| format!("SELECT a FROM t WHERE {}", shape(n));
            assert!(parse(&sql(MAX_DEPTH / 2 - 8)).is_ok(), "{}", sql(1));
            let e = parse(&sql(MAX_DEPTH)).unwrap_err();
            assert!(e.message.contains("deeper than 256 levels"), "{e}");
        }
    }

    /// On the 2 MB test thread: derived tables nested to the budget take
    /// 0.8 MB of stack in a debug build.
    #[test]
    fn derived_tables_nested_past_the_budget_are_typed_errors() {
        let derived = |n| {
            format!(
                "SELECT a FROM {}t{}",
                "(SELECT a FROM ".repeat(n),
                ") AS s".repeat(n)
            )
        };
        assert!(parse(&derived(MAX_DEPTH - 8)).is_ok());
        assert!(parse(&derived(MAX_DEPTH)).is_err());
    }

    #[test]
    fn between_binds_tighter_than_and() {
        let q = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b = 2").unwrap();
        let w = q.where_clause.unwrap();
        // top-level AND with the desugared BETWEEN on the left
        assert_eq!(w.conjuncts().len(), 3);
    }

    #[test]
    fn not_prefix_still_works() {
        let q = parse("SELECT a FROM t WHERE NOT a = 1 AND NOT (b IN (2))").unwrap();
        assert_eq!(q.where_clause.unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn nested_parens_in_predicates() {
        let q = parse("SELECT a FROM t WHERE ((a = 1) AND ((b = 2) OR (c = 3)))").unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn clause_keywords_are_not_column_names() {
        for word in ["select", "from", "where", "and", "in", "desc", "union"] {
            let e = parse(&format!("SELECT {word} FROM t")).unwrap_err();
            let want = format!("expected an expression, found `{word}`");
            assert_eq!((e.message, e.column), (want, 8));
        }
        let e = parse("SELECT a FROM t WHERE a = 1 AND or").unwrap_err();
        assert_eq!(e.message, "expected an expression, found `or`");
    }

    #[test]
    fn keyword_not_taken_as_alias() {
        let q = parse("SELECT a FROM t WHERE a = 1").unwrap();
        assert!(q.from[0].base.alias.is_none());
    }
}
