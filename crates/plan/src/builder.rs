//! Builds a logical [`Plan`] from a parsed [`Query`].
//!
//! The builder performs name resolution, equi-join extraction and predicate
//! pushdown:
//!
//! * `FROM a, b, c WHERE …` comma-joins are combined left-deep in `FROM`
//!   order; `WHERE` conjuncts of the form `x.col = y.col` across two sides
//!   become equi-join keys, single-relation conjuncts are pushed into the
//!   relation (a [`Operator::Scan`] predicate for base tables, a
//!   [`Operator::Filter`] above subqueries), and remaining multi-relation
//!   conjuncts become join *residual* predicates evaluated inside the join
//!   job itself (§V-A).
//! * `GROUP BY` items may reference select-list aliases (`GROUP BY uid,
//!   ts1` where `ts1` aliases `c1.ts`), as the paper's Q-CSA does.
//! * Aggregation produces an [`Operator::Aggregate`] whose output is group
//!   columns followed by aggregate results; scalar computation over those
//!   (e.g. `0.2 * avg(l_quantity)`, `count(*) - 2`) lands in a
//!   [`Operator::Project`] above, which the translator later folds into the
//!   aggregation's job.

use std::collections::BTreeSet;

use ysmart_rel::{AggFunc, BinOp, DataType, Expr, Field, Schema, SortKey, SortOrder, UnOp, Value};
use ysmart_sql::ast::{AstAggFunc, AstBinOp, AstExpr, Literal, SelectItem, TableSource};
use ysmart_sql::{Query, TableRef};

use crate::catalog::Catalog;
use crate::error::PlanError;
use crate::node::{AggCall, JoinKind, NodeId, Operator, Plan, PlanArena};

/// Builds the logical plan for `query` against `catalog`.
///
/// # Examples
///
/// ```
/// use ysmart_plan::{analyze, build_plan, Catalog};
/// use ysmart_rel::{DataType, Schema};
///
/// let mut catalog = Catalog::new();
/// catalog.add_table("t", Schema::of("t", &[
///     ("k", DataType::Int), ("v", DataType::Int),
/// ]));
/// let query = ysmart_sql::parse("SELECT k, sum(v) FROM t GROUP BY k").unwrap();
/// let plan = build_plan(&catalog, &query).unwrap();
/// let report = analyze(&plan);
/// assert_eq!(report.nodes.len(), 1); // one shuffle node: the aggregation
/// ```
///
/// # Errors
///
/// Any name-resolution failure, unsupported query shape (cross joins
/// without equi predicates, aggregates in `WHERE`, …) or grouping violation.
pub fn build_plan(catalog: &Catalog, query: &Query) -> Result<Plan, PlanError> {
    let mut arena = PlanArena::new();
    let rel = build_query(catalog, &mut arena, query)?;
    Ok(arena.finish(rel.node))
}

/// A relation under construction: the arena node plus the schema used for
/// name resolution (requalified by binding aliases; positionally identical
/// to the node's own schema).
#[derive(Debug, Clone)]
struct Rel {
    node: NodeId,
    schema: Schema,
    bindings: BTreeSet<String>,
}

fn build_query(catalog: &Catalog, arena: &mut PlanArena, query: &Query) -> Result<Rel, PlanError> {
    // ---- FROM ----------------------------------------------------------
    let mut items: Vec<Rel> = Vec::new();
    let mut seen_bindings: BTreeSet<String> = BTreeSet::new();
    for item in &query.from {
        let mut rel = build_table_ref(catalog, arena, &item.base)?;
        for join in &item.joins {
            let right = build_table_ref(catalog, arena, &join.table)?;
            let kind = match join.join_type {
                ysmart_sql::JoinType::Inner => JoinKind::Inner,
                ysmart_sql::JoinType::LeftOuter => JoinKind::LeftOuter,
                ysmart_sql::JoinType::RightOuter => JoinKind::RightOuter,
                ysmart_sql::JoinType::FullOuter => JoinKind::FullOuter,
            };
            rel = build_join(arena, rel, right, kind, join.on.conjuncts())?;
        }
        for b in &rel.bindings {
            if !seen_bindings.insert(b.clone()) {
                return Err(PlanError::DuplicateBinding(b.clone()));
            }
        }
        items.push(rel);
    }

    // ---- WHERE: split conjuncts, push down, extract join keys -----------
    let where_conjuncts: Vec<AstExpr> = query
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    for c in &where_conjuncts {
        if has_aggregate(c) {
            return Err(PlanError::Unsupported(
                "aggregate function in WHERE clause".into(),
            ));
        }
    }

    // Push single-relation conjuncts into their relation; a base table's
    // are merged into its scan once, as one balanced conjunction.
    let mut pending: Vec<AstExpr> = Vec::new();
    let mut scan_preds: Vec<Vec<Expr>> = items.iter().map(|_| Vec::new()).collect();
    for conj in where_conjuncts {
        let refs = binding_refs(&conj, &items)?;
        match items
            .iter()
            .position(|r| !refs.is_empty() && refs.iter().all(|b| r.bindings.contains(b)))
        {
            Some(i) => push_filter(arena, &mut items[i], &conj, &mut scan_preds[i])?,
            None => pending.push(conj),
        }
    }
    for (rel, preds) in items.iter().zip(scan_preds) {
        if let Some(pred) = Expr::conjunction(preds) {
            arena.merge_scan_predicate(rel.node, pred);
        }
    }

    // Combine comma items left-deep, pulling join keys from `pending`.
    let mut current = items.remove(0);
    while !items.is_empty() {
        // Prefer the next item (FROM order) that has an equi conjunct with
        // the current tree; fall back to FROM order.
        let pick = items
            .iter()
            .position(|cand| {
                pending
                    .iter()
                    .any(|c| equi_between(c, &current, cand).is_some())
            })
            .unwrap_or(0);
        let right = items.remove(pick);
        let (on, rest): (Vec<AstExpr>, Vec<AstExpr>) = pending.into_iter().partition(|c| {
            let refs = binding_refs_ok(c, &current, &right);
            refs.is_some()
        });
        pending = rest;
        if on
            .iter()
            .all(|c| equi_between(c, &current, &right).is_none())
        {
            return Err(PlanError::Unsupported(format!(
                "no equi-join predicate between {{{}}} and {{{}}}",
                join_names(&current),
                join_names(&right)
            )));
        }
        current = build_join(arena, current, right, JoinKind::Inner, on.iter().collect())?;
    }
    if let Some(c) = pending.first() {
        return Err(PlanError::UnknownColumn(format!(
            "predicate `{c}` references no known relation"
        )));
    }

    // ---- SELECT / GROUP BY / HAVING -------------------------------------
    let select_items = expand_wildcards(&query.select, &current.schema);
    let has_aggs = select_items.iter().any(|(e, _)| has_aggregate(e))
        || !query.group_by.is_empty()
        || query.having.as_ref().is_some_and(has_aggregate);

    let mut rel = if has_aggs {
        build_aggregate(arena, current, &select_items, query)?
    } else {
        if query.having.is_some() {
            return Err(PlanError::Unsupported("HAVING without aggregation".into()));
        }
        build_projection(arena, current, &select_items)?
    };

    // ---- DISTINCT --------------------------------------------------------
    if query.distinct {
        let schema = rel.schema.clone();
        let node = arena.add(Operator::Distinct, schema.clone(), vec![rel.node]);
        rel = Rel {
            node,
            schema,
            bindings: rel.bindings,
        };
    }

    // ---- ORDER BY / LIMIT -------------------------------------------------
    if !query.order_by.is_empty() {
        let mut keys = Vec::new();
        for (ast, asc) in &query.order_by {
            let expr = scalar(ast, &rel.schema)?;
            keys.push(SortKey {
                expr,
                order: if *asc {
                    SortOrder::Asc
                } else {
                    SortOrder::Desc
                },
            });
        }
        let schema = rel.schema.clone();
        let node = arena.add(Operator::Sort { keys }, schema.clone(), vec![rel.node]);
        rel = Rel {
            node,
            schema,
            bindings: rel.bindings,
        };
    }
    if let Some(n) = query.limit {
        let schema = rel.schema.clone();
        let node = arena.add(Operator::Limit { n }, schema.clone(), vec![rel.node]);
        rel = Rel {
            node,
            schema,
            bindings: rel.bindings,
        };
    }
    Ok(rel)
}

fn join_names(rel: &Rel) -> String {
    rel.bindings.iter().cloned().collect::<Vec<_>>().join(",")
}

fn build_table_ref(
    catalog: &Catalog,
    arena: &mut PlanArena,
    tref: &TableRef,
) -> Result<Rel, PlanError> {
    match &tref.source {
        TableSource::Table(name) => {
            let base = catalog.table(name)?.clone();
            let binding = tref.alias.clone().unwrap_or_else(|| name.clone());
            let schema = base.requalified(&binding);
            let node = arena.add(
                Operator::Scan {
                    table: name.clone(),
                    binding: binding.clone(),
                    predicate: None,
                },
                schema.clone(),
                vec![],
            );
            Ok(Rel {
                node,
                schema,
                bindings: BTreeSet::from([binding]),
            })
        }
        TableSource::Subquery(q) => {
            let inner = build_query(catalog, arena, q)?;
            let alias = tref
                .alias
                .clone()
                .expect("parser enforces subquery aliases");
            let schema = inner.schema.requalified(&alias);
            Ok(Rel {
                node: inner.node,
                schema,
                bindings: BTreeSet::from([alias]),
            })
        }
    }
}

/// Returns the set of bindings referenced by a predicate. Unqualified
/// columns are attributed to the unique relation that has the column.
fn binding_refs(expr: &AstExpr, items: &[Rel]) -> Result<BTreeSet<String>, PlanError> {
    let mut out = BTreeSet::new();
    let mut err = None;
    expr.visit(&mut |e| {
        let AstExpr::Column { qualifier, name } = e else {
            return true;
        };
        match qualifier.as_deref() {
            Some(q) => {
                if items
                    .iter()
                    .any(|r| r.schema.resolve(Some(q), name).is_ok())
                {
                    out.insert(q.to_string());
                } else if err.is_none() {
                    err = Some(PlanError::UnknownColumn(format!("{q}.{name}")));
                }
            }
            None => {
                let owners: Vec<&Rel> = items
                    .iter()
                    .filter(|r| r.schema.resolve(None, name).is_ok())
                    .collect();
                match owners.len() {
                    1 => {
                        // attribute to the single binding of that relation if
                        // unique, else to all its bindings (conservative).
                        out.extend(owners[0].bindings.iter().cloned());
                    }
                    0 => err = Some(PlanError::UnknownColumn(name.to_string())),
                    _ => err = Some(PlanError::AmbiguousColumn(name.to_string())),
                }
            }
        }
        true
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// If every column of `expr` resolves within `left` ∪ `right` (and at least
/// one side is touched), returns the reference set.
fn binding_refs_ok(expr: &AstExpr, left: &Rel, right: &Rel) -> Option<BTreeSet<String>> {
    let both = [left.clone(), right.clone()];
    binding_refs(expr, &both).ok()
}

/// Checks whether `conj` is `l.col = r.col` across the two relations;
/// returns the (left index, right index) pair when it is.
fn equi_between(conj: &AstExpr, left: &Rel, right: &Rel) -> Option<(usize, usize)> {
    let AstExpr::Binary {
        op: AstBinOp::Eq,
        lhs,
        rhs,
    } = conj
    else {
        return None;
    };
    let col = |e: &AstExpr, rel: &Rel| -> Option<usize> {
        let AstExpr::Column { qualifier, name } = e else {
            return None;
        };
        rel.schema.resolve(qualifier.as_deref(), name).ok()
    };
    if let (Some(l), Some(r)) = (col(lhs, left), col(rhs, right)) {
        return Some((l, r));
    }
    if let (Some(l), Some(r)) = (col(rhs, left), col(lhs, right)) {
        return Some((l, r));
    }
    None
}

/// Pushes a single-relation predicate into the relation: collected into
/// `scan_preds` for a base table, whose scan predicate the caller merges
/// them into; a `Filter` node otherwise.
fn push_filter(
    arena: &mut PlanArena,
    rel: &mut Rel,
    conj: &AstExpr,
    scan_preds: &mut Vec<Expr>,
) -> Result<(), PlanError> {
    let resolved = scalar(conj, &rel.schema)?;
    if matches!(arena.node(rel.node).op, Operator::Scan { .. }) {
        scan_preds.push(resolved);
    } else {
        let schema = rel.schema.clone();
        let node = arena.add(
            Operator::Filter {
                predicate: resolved,
            },
            arena.node(rel.node).schema.clone(),
            vec![rel.node],
        );
        rel.node = node;
        rel.schema = schema;
    }
    Ok(())
}

fn build_join(
    arena: &mut PlanArena,
    left: Rel,
    right: Rel,
    kind: JoinKind,
    conjuncts: Vec<&AstExpr>,
) -> Result<Rel, PlanError> {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    let combined = left.schema.concat(&right.schema);
    for conj in conjuncts {
        if has_aggregate(conj) {
            return Err(PlanError::Unsupported("aggregate in join condition".into()));
        }
        if let Some((l, r)) = equi_between(conj, &left, &right) {
            left_keys.push(l);
            right_keys.push(r);
        } else {
            residual.push(scalar(conj, &combined)?);
        }
    }
    if left_keys.is_empty() {
        return Err(PlanError::Unsupported(format!(
            "join between {{{}}} and {{{}}} has no equi predicate",
            join_names(&left),
            join_names(&right)
        )));
    }
    let node = arena.add(
        Operator::Join {
            kind,
            left_keys,
            right_keys,
            residual: Expr::conjunction(residual),
        },
        combined.clone(),
        vec![left.node, right.node],
    );
    let mut bindings = left.bindings;
    bindings.extend(right.bindings);
    Ok(Rel {
        node,
        schema: combined,
        bindings,
    })
}

/// Expands `*` into one `(expr, alias)` per scope column.
fn expand_wildcards(items: &[SelectItem], schema: &Schema) -> Vec<(AstExpr, Option<String>)> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for f in schema.fields() {
                    out.push((
                        AstExpr::Column {
                            qualifier: if f.qualifier.is_empty() {
                                None
                            } else {
                                Some(f.qualifier.clone())
                            },
                            name: f.name.clone(),
                        },
                        None,
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => out.push((expr.clone(), alias.clone())),
        }
    }
    out
}

/// Lowers an AST expression to an [`Expr`]. `leaf` sees every node first,
/// parents before operands: `Some` stands for the whole node, `None` lowers
/// the node's operator over its lowered operands. Columns and aggregate
/// calls have no operator to lower, so `leaf` decides them.
fn lower(
    ast: &AstExpr,
    leaf: &mut impl FnMut(&AstExpr) -> Result<Option<Expr>, PlanError>,
) -> Result<Expr, PlanError> {
    if let Some(e) = leaf(ast)? {
        return Ok(e);
    }
    Ok(match ast {
        AstExpr::Literal(l) => Expr::Literal(literal_value(l)),
        AstExpr::Binary { op, lhs, rhs } => {
            Expr::binary(binop(*op), lower(lhs, leaf)?, lower(rhs, leaf)?)
        }
        AstExpr::Not(e) => unary(UnOp::Not, lower(e, leaf)?),
        AstExpr::Neg(e) => unary(UnOp::Neg, lower(e, leaf)?),
        AstExpr::IsNull(e) => unary(UnOp::IsNull, lower(e, leaf)?),
        AstExpr::IsNotNull(e) => unary(UnOp::IsNotNull, lower(e, leaf)?),
        AstExpr::Column { .. } | AstExpr::Agg { .. } => {
            unreachable!("`leaf` decides columns and aggregate calls")
        }
    })
}

/// Lowers a scalar (aggregate-free) expression, resolving its columns in
/// `schema`.
fn scalar(ast: &AstExpr, schema: &Schema) -> Result<Expr, PlanError> {
    lower(ast, &mut |e| match e {
        AstExpr::Column { qualifier, name } => Ok(Some(Expr::Column(
            schema.resolve(qualifier.as_deref(), name)?,
        ))),
        AstExpr::Agg { .. } => Err(PlanError::Unsupported(
            "aggregate function in scalar context".into(),
        )),
        _ => Ok(None),
    })
}

/// Whether `ast` calls an aggregate function anywhere.
fn has_aggregate(ast: &AstExpr) -> bool {
    let mut found = false;
    ast.visit(&mut |e| {
        found |= matches!(e, AstExpr::Agg { .. });
        !found
    });
    found
}

fn unary(op: UnOp, operand: Expr) -> Expr {
    Expr::Unary {
        op,
        operand: Box::new(operand),
    }
}

fn binop(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::NotEq => BinOp::NotEq,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::LtEq => BinOp::LtEq,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::GtEq => BinOp::GtEq,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    }
}

/// Infers a (loose) output type for a resolved expression.
fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(i) => schema.field(*i).data_type,
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Binary { op, lhs, rhs } => {
            if op.is_predicate() {
                DataType::Bool
            } else {
                let lt = infer_type(lhs, schema);
                let rt = infer_type(rhs, schema);
                if lt == DataType::Float || rt == DataType::Float || *op == BinOp::Div {
                    DataType::Float
                } else {
                    lt
                }
            }
        }
        Expr::Unary { op, operand } => match op {
            UnOp::Neg => infer_type(operand, schema),
            _ => DataType::Bool,
        },
    }
}

/// A name for a projected expression: its alias, the column's own name for
/// bare columns, or a synthesised `colN`.
fn output_field(
    ast: &AstExpr,
    alias: &Option<String>,
    schema: &Schema,
    idx: usize,
    expr: &Expr,
) -> Field {
    if let Some(a) = alias {
        return Field::unqualified(a, infer_type(expr, schema));
    }
    if let AstExpr::Column { name, .. } = ast {
        if let Expr::Column(i) = expr {
            let f = schema.field(*i);
            return Field::new(&f.qualifier, name, f.data_type);
        }
    }
    Field::unqualified(&format!("col{idx}"), infer_type(expr, schema))
}

fn build_projection(
    arena: &mut PlanArena,
    input: Rel,
    select: &[(AstExpr, Option<String>)],
) -> Result<Rel, PlanError> {
    let mut exprs = Vec::new();
    let mut fields = Vec::new();
    for (idx, (ast, alias)) in select.iter().enumerate() {
        let e = scalar(ast, &input.schema)?;
        fields.push(output_field(ast, alias, &input.schema, idx, &e));
        exprs.push(e);
    }
    // Identity projection (same columns in order, no renames) is a no-op.
    let identity = exprs.len() == input.schema.len()
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, Expr::Column(c) if *c == i))
        && fields
            .iter()
            .zip(input.schema.fields())
            .all(|(a, b)| a.name == b.name);
    if identity {
        return Ok(input);
    }
    let schema = Schema::new(fields);
    let node = arena.add(
        Operator::Project { exprs },
        schema.clone(),
        vec![input.node],
    );
    Ok(Rel {
        node,
        schema,
        bindings: input.bindings,
    })
}

/// Builds `Aggregate` (+ `Project`) for a grouped or global aggregation.
fn build_aggregate(
    arena: &mut PlanArena,
    input: Rel,
    select: &[(AstExpr, Option<String>)],
    query: &Query,
) -> Result<Rel, PlanError> {
    // Resolve GROUP BY items: select aliases first, then scope columns.
    let mut group_exprs: Vec<Expr> = Vec::new();
    let mut group_asts: Vec<AstExpr> = Vec::new();
    for g in &query.group_by {
        let ast = dealias(g, select);
        if has_aggregate(&ast) {
            return Err(PlanError::Unsupported("aggregate in GROUP BY".into()));
        }
        group_exprs.push(scalar(&ast, &input.schema)?);
        group_asts.push(ast);
    }

    // Computed group expressions need a Project below the aggregate that
    // appends them as real columns.
    let needs_pre = group_exprs.iter().any(|e| !matches!(e, Expr::Column(_)));
    let (child, group_cols) = if needs_pre {
        let mut exprs: Vec<Expr> = (0..input.schema.len()).map(Expr::Column).collect();
        let mut fields: Vec<Field> = input.schema.fields().to_vec();
        let mut cols = Vec::new();
        for (i, e) in group_exprs.iter().enumerate() {
            match e {
                Expr::Column(c) => cols.push(*c),
                other => {
                    cols.push(exprs.len());
                    fields.push(Field::unqualified(
                        &format!("group{i}"),
                        infer_type(other, &input.schema),
                    ));
                    exprs.push(other.clone());
                }
            }
        }
        let schema = Schema::new(fields);
        let node = arena.add(
            Operator::Project { exprs },
            schema.clone(),
            vec![input.node],
        );
        (
            Rel {
                node,
                schema,
                bindings: input.bindings.clone(),
            },
            cols,
        )
    } else {
        let cols = group_exprs
            .iter()
            .map(|e| match e {
                Expr::Column(c) => *c,
                _ => unreachable!("checked above"),
            })
            .collect();
        (input, cols)
    };

    // The aggregate calls of SELECT, then HAVING, each identity once.
    let mut calls = Vec::new();
    for ast in select.iter().map(|(ast, _)| ast).chain(&query.having) {
        ast.visit(&mut |e| match agg_key(e, &child.schema) {
            Some(key) => {
                calls.push(key);
                false
            }
            None => true,
        });
    }
    let mut aggs: Vec<AggKey> = Vec::new();
    for key in calls {
        let key = key?;
        if !aggs.contains(&key) {
            aggs.push(key);
        }
    }

    // Aggregate output schema: group columns, then aggregate results.
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| child.schema.field(c).clone())
        .collect();
    for (i, (func, arg)) in aggs.iter().enumerate() {
        let ty = match func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg
                .as_ref()
                .map_or(DataType::Int, |a| infer_type(a, &child.schema)),
        };
        // Name the aggregate output after the select item that is exactly
        // this call, so an aggregate-only projection is an identity and no
        // extra Project node is needed.
        let name = select
            .iter()
            .enumerate()
            .find_map(|(k, (ast, alias))| {
                let (f, a) = agg_key(ast, &child.schema)?.ok()?;
                (f == *func && a == *arg)
                    .then(|| alias.clone().unwrap_or_else(|| format!("col{k}")))
            })
            .unwrap_or_else(|| format!("agg{i}"));
        fields.push(Field::unqualified(&name, ty));
    }
    let agg_schema = Schema::new(fields);

    // HAVING over the aggregate output.
    let grouped = Grouped {
        child: &child.schema,
        groups: group_asts
            .iter()
            .map(|g| scalar(g, &child.schema).ok())
            .collect(),
        group_cols: &group_cols,
        aggs: &aggs,
        select,
    };
    let having = query
        .having
        .as_ref()
        .map(|h| grouped.lower(h))
        .transpose()?;

    let agg_node = arena.add(
        Operator::Aggregate {
            group_by: group_cols.clone(),
            aggs: aggs
                .iter()
                .map(|(func, arg)| AggCall {
                    func: *func,
                    arg: arg.clone(),
                })
                .collect(),
            having,
        },
        agg_schema.clone(),
        vec![child.node],
    );
    let agg_rel = Rel {
        node: agg_node,
        schema: agg_schema.clone(),
        bindings: child.bindings.clone(),
    };

    // Final projection: select expressions over the aggregate output.
    let mut exprs = Vec::new();
    let mut out_fields = Vec::new();
    for (idx, (ast, alias)) in select.iter().enumerate() {
        let e = grouped.lower(ast)?;
        out_fields.push(output_field(ast, alias, &agg_schema, idx, &e));
        exprs.push(e);
    }
    let identity = exprs.len() == agg_schema.len()
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, Expr::Column(c) if *c == i));
    if identity {
        // Keep aliases: rename aggregate-output fields in place by wrapping
        // in a Project only when names differ.
        let renames_needed = out_fields
            .iter()
            .zip(agg_schema.fields())
            .any(|(a, b)| a.name != b.name);
        if !renames_needed {
            return Ok(agg_rel);
        }
    }
    let schema = Schema::new(out_fields);
    let node = arena.add(Operator::Project { exprs }, schema.clone(), vec![agg_node]);
    Ok(Rel {
        node,
        schema,
        bindings: agg_rel.bindings,
    })
}

/// Substitutes a bare identifier that names a select alias with the aliased
/// expression (`GROUP BY ts1` → `GROUP BY c1.ts`).
fn dealias(g: &AstExpr, select: &[(AstExpr, Option<String>)]) -> AstExpr {
    if let AstExpr::Column {
        qualifier: None,
        name,
    } = g
    {
        for (expr, alias) in select {
            if alias.as_deref() == Some(name.as_str()) && !has_aggregate(expr) {
                return expr.clone();
            }
        }
    }
    g.clone()
}

/// An aggregate call's identity: its function and resolved argument.
/// Calls with one identity share one aggregate output column.
type AggKey = (AggFunc, Option<Expr>);

/// The identity of `ast` when it is an aggregate call, its argument
/// resolved in `child`; `None` for any other node.
fn agg_key(ast: &AstExpr, child: &Schema) -> Option<Result<AggKey, PlanError>> {
    let AstExpr::Agg {
        func,
        distinct,
        arg,
    } = ast
    else {
        return None;
    };
    let func = match (func, distinct) {
        (AstAggFunc::Count, true) => AggFunc::CountDistinct,
        (AstAggFunc::Count, false) => AggFunc::Count,
        (AstAggFunc::Sum, _) => AggFunc::Sum,
        (AstAggFunc::Avg, _) => AggFunc::Avg,
        (AstAggFunc::Min, _) => AggFunc::Min,
        (AstAggFunc::Max, _) => AggFunc::Max,
    };
    let arg = arg.as_deref().map(|a| scalar(a, child)).transpose();
    Some(arg.map(|arg| (func, arg)))
}

/// What a post-aggregation expression (a select item or `HAVING`) lowers
/// onto: the aggregate's output, group items first, then its calls.
struct Grouped<'a> {
    /// The aggregate's input.
    child: &'a Schema,
    /// Each `GROUP BY` item resolved in `child`, `None` where it does not
    /// resolve.
    groups: Vec<Option<Expr>>,
    group_cols: &'a [usize],
    aggs: &'a [AggKey],
    select: &'a [(AstExpr, Option<String>)],
}

impl Grouped<'_> {
    /// Group items map to their output position and aggregate calls to
    /// theirs; anything else must be built from those.
    fn lower(&self, ast: &AstExpr) -> Result<Expr, PlanError> {
        lower(ast, &mut |e| self.leaf(e))
    }

    fn leaf(&self, ast: &AstExpr) -> Result<Option<Expr>, PlanError> {
        // A whole-expression match against a GROUP BY item?
        if let Ok(resolved) = scalar(ast, self.child) {
            if let Some(pos) = self
                .groups
                .iter()
                .position(|g| g.as_ref() == Some(&resolved))
            {
                return Ok(Some(Expr::Column(pos)));
            }
            // A bare column that happens to be one of the group columns by
            // index.
            if let Expr::Column(c) = resolved {
                if let Some(pos) = self.group_cols.iter().position(|&gc| gc == c) {
                    return Ok(Some(Expr::Column(pos)));
                }
            }
        }
        if let Some(key) = agg_key(ast, self.child) {
            let key = key?;
            let pos = self
                .aggs
                .iter()
                .position(|k| *k == key)
                .expect("aggregate was collected");
            return Ok(Some(Expr::Column(self.group_cols.len() + pos)));
        }
        let AstExpr::Column { qualifier, name } = ast else {
            return Ok(None);
        };
        // Select-alias reference (HAVING n > 1 with `count(*) AS n`).
        // Self-referential aliases (`a AS a`) must not recurse.
        if qualifier.is_none() {
            for (expr, alias) in self.select {
                if alias.as_deref() == Some(name.as_str()) && expr != ast {
                    return self.lower(expr).map(Some);
                }
            }
        }
        Err(PlanError::NotGrouped(name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Operator;
    use ysmart_sql::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "clicks",
            Schema::of(
                "clicks",
                &[
                    ("uid", DataType::Int),
                    ("page_id", DataType::Int),
                    ("cid", DataType::Int),
                    ("ts", DataType::Int),
                ],
            ),
        );
        c.add_table(
            "lineitem",
            Schema::of(
                "lineitem",
                &[
                    ("l_orderkey", DataType::Int),
                    ("l_partkey", DataType::Int),
                    ("l_suppkey", DataType::Int),
                    ("l_quantity", DataType::Float),
                    ("l_extendedprice", DataType::Float),
                    ("l_receiptdate", DataType::Int),
                    ("l_commitdate", DataType::Int),
                ],
            ),
        );
        c.add_table(
            "part",
            Schema::of(
                "part",
                &[("p_partkey", DataType::Int), ("p_name", DataType::Str)],
            ),
        );
        c.add_table(
            "orders",
            Schema::of(
                "orders",
                &[
                    ("o_orderkey", DataType::Int),
                    ("o_orderstatus", DataType::Str),
                    ("o_totalprice", DataType::Float),
                ],
            ),
        );
        c
    }

    fn plan_of(sql: &str) -> Plan {
        build_plan(&catalog(), &parse(sql).unwrap()).unwrap()
    }

    fn count_ops(plan: &Plan, name: &str) -> usize {
        plan.ids()
            .filter(|&id| plan.node(id).op.name() == name)
            .count()
    }

    #[test]
    fn simple_agg_plan() {
        let p = plan_of("SELECT cid, count(*) FROM clicks GROUP BY cid");
        assert_eq!(count_ops(&p, "Scan"), 1);
        assert_eq!(count_ops(&p, "Aggregate"), 1);
        // identity projection elided
        assert_eq!(count_ops(&p, "Project"), 0);
    }

    #[test]
    fn where_pushed_into_scan() {
        let p = plan_of("SELECT uid FROM clicks WHERE cid = 5 AND ts > 100");
        let scan = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Scan { .. }))
            .unwrap();
        match &p.node(scan).op {
            Operator::Scan { predicate, .. } => {
                let pred = predicate.as_ref().expect("predicate pushed down");
                assert!(pred.to_string().contains("AND"));
            }
            _ => unreachable!(),
        }
        assert_eq!(count_ops(&p, "Filter"), 0);
    }

    /// `(a AND b) AND (c AND ...)` over `n` terms `cid >= 0`,
    /// `cid >= 1`, ..., parenthesised as a balanced tree.
    fn balanced_where(lo: usize, hi: usize) -> String {
        if hi - lo == 1 {
            return format!("cid >= {lo}");
        }
        let mid = lo + (hi - lo) / 2;
        format!(
            "({} AND {})",
            balanced_where(lo, mid),
            balanced_where(mid, hi)
        )
    }

    /// A balanced `WHERE` stays balanced in the scan predicate: ⌈log₂ n⌉
    /// `AND` levels over the terms in their order. A left-deep fold was n
    /// tall, and 100 000 terms overflowed the stack of the walks over it.
    #[test]
    fn pushed_conjuncts_merge_into_a_balanced_scan_predicate() {
        fn height(e: &Expr) -> usize {
            match e {
                Expr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                } => 1 + height(lhs).max(height(rhs)),
                _ => 1,
            }
        }
        fn leaves(e: &Expr, out: &mut Vec<String>) {
            match e {
                Expr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                } => {
                    leaves(lhs, out);
                    leaves(rhs, out);
                }
                other => out.push(other.to_string()),
            }
        }
        for n in [1, 2, 3, 4, 5, 8, 1_000, 5_000] {
            let p = plan_of(&format!(
                "SELECT uid FROM clicks WHERE {}",
                balanced_where(0, n)
            ));
            let pred = p
                .ids()
                .find_map(|id| match &p.node(id).op {
                    Operator::Scan { predicate, .. } => predicate.clone(),
                    _ => None,
                })
                .expect("predicate pushed down");
            let tall = n.next_power_of_two().trailing_zeros() as usize + 1;
            assert_eq!(height(&pred), tall, "{n} terms");
            let mut got = Vec::new();
            leaves(&pred, &mut got);
            let want: Vec<String> = (0..n)
                .map(|i| Expr::binary(BinOp::GtEq, Expr::col(2), Expr::lit(i as i64)).to_string())
                .collect();
            assert_eq!(got, want, "{n} terms");
        }
    }

    #[test]
    fn comma_join_extracts_equi_keys() {
        let p = plan_of("SELECT l_extendedprice FROM lineitem, part WHERE p_partkey = l_partkey");
        assert_eq!(count_ops(&p, "Join"), 1);
        let join = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Join { .. }))
            .unwrap();
        match &p.node(join).op {
            Operator::Join {
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                assert_eq!(left_keys, &vec![1]); // lineitem.l_partkey
                assert_eq!(right_keys, &vec![0]); // part.p_partkey
                assert!(residual.is_none());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_equi_becomes_residual() {
        let p = plan_of(
            "SELECT c1.uid FROM clicks AS c1, clicks AS c2 \
             WHERE c1.uid = c2.uid AND c1.ts < c2.ts",
        );
        let join = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Join { .. }))
            .unwrap();
        match &p.node(join).op {
            Operator::Join { residual, .. } => assert!(residual.is_some()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cross_join_rejected() {
        let e =
            build_plan(&catalog(), &parse("SELECT uid FROM clicks, part").unwrap()).unwrap_err();
        assert!(matches!(e, PlanError::Unsupported(_)));
    }

    #[test]
    fn duplicate_binding_rejected() {
        let e = build_plan(
            &catalog(),
            &parse("SELECT 1 FROM clicks AS a, part AS a WHERE a.uid = a.p_partkey").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, PlanError::DuplicateBinding(_)));
    }

    #[test]
    fn group_by_select_alias() {
        // Q-CSA inner shape: GROUP BY c1.uid, ts1 where ts1 aliases c1.ts.
        let p = plan_of(
            "SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2 \
             FROM clicks AS c1, clicks AS c2 \
             WHERE c1.uid = c2.uid AND c1.ts < c2.ts \
             GROUP BY c1.uid, ts1",
        );
        let agg = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Aggregate { .. }))
            .unwrap();
        match &p.node(agg).op {
            Operator::Aggregate { group_by, aggs, .. } => {
                assert_eq!(group_by.len(), 2);
                assert_eq!(aggs.len(), 1);
            }
            _ => unreachable!(),
        }
        // Output field names: uid, ts1, ts2.
        let root = p.node(p.root());
        let names: Vec<&str> = root
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["uid", "ts1", "ts2"]);
    }

    #[test]
    fn global_aggregation_without_group() {
        let p = plan_of("SELECT avg(ts) FROM clicks");
        let agg = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Aggregate { .. }))
            .unwrap();
        match &p.node(agg).op {
            Operator::Aggregate { group_by, .. } => assert!(group_by.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn scalar_over_aggregate_lands_in_project() {
        let p = plan_of("SELECT sum(l_extendedprice) / 7.0 AS avg_yearly FROM lineitem");
        assert_eq!(count_ops(&p, "Project"), 1);
        let root = p.node(p.root());
        assert_eq!(root.schema.field(0).name, "avg_yearly");
        assert_eq!(root.schema.field(0).data_type, DataType::Float);
    }

    #[test]
    fn having_resolves_aggregates_and_aliases() {
        let p = plan_of("SELECT cid, count(*) AS n FROM clicks GROUP BY cid HAVING count(*) > 10");
        let agg = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Aggregate { .. }))
            .unwrap();
        match &p.node(agg).op {
            Operator::Aggregate { having, .. } => assert!(having.is_some()),
            _ => unreachable!(),
        }
        // alias form
        let p2 = plan_of("SELECT cid, count(*) AS n FROM clicks GROUP BY cid HAVING n > 10");
        assert_eq!(count_ops(&p2, "Aggregate"), 1);
    }

    #[test]
    fn not_grouped_error() {
        let e = build_plan(
            &catalog(),
            &parse("SELECT uid, count(*) FROM clicks GROUP BY cid").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, PlanError::NotGrouped(_)));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let e = build_plan(
            &catalog(),
            &parse("SELECT uid FROM clicks WHERE count(*) > 1").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, PlanError::Unsupported(_)));
    }

    #[test]
    fn explicit_left_outer_join() {
        let p = plan_of(
            "SELECT l_orderkey FROM lineitem LEFT OUTER JOIN orders \
             ON o_orderkey = l_orderkey WHERE o_orderstatus IS NULL",
        );
        let join = p
            .ids()
            .find(|&id| matches!(p.node(id).op, Operator::Join { .. }))
            .unwrap();
        match &p.node(join).op {
            Operator::Join { kind, .. } => assert_eq!(*kind, JoinKind::LeftOuter),
            _ => unreachable!(),
        }
        // IS NULL over the join output cannot be pushed into a scan: it
        // lands in a Filter above the join.
        assert_eq!(count_ops(&p, "Filter"), 1);
    }

    #[test]
    fn subquery_alias_scopes() {
        let p = plan_of(
            "SELECT i.l_partkey FROM \
             (SELECT l_partkey, avg(l_quantity) AS aq FROM lineitem GROUP BY l_partkey) AS i \
             WHERE i.aq > 10",
        );
        assert_eq!(count_ops(&p, "Aggregate"), 1);
        assert!(count_ops(&p, "Filter") >= 1);
    }

    #[test]
    fn order_by_and_limit() {
        let p = plan_of("SELECT uid, ts FROM clicks ORDER BY ts DESC LIMIT 10");
        assert_eq!(count_ops(&p, "Sort"), 1);
        assert_eq!(count_ops(&p, "Limit"), 1);
        // Limit sits above Sort.
        assert!(matches!(p.node(p.root()).op, Operator::Limit { .. }));
    }

    #[test]
    fn distinct_node() {
        let p = plan_of("SELECT DISTINCT cid FROM clicks");
        assert_eq!(count_ops(&p, "Distinct"), 1);
    }

    #[test]
    fn q17_builds() {
        let p = plan_of(
            "SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
             FROM (SELECT l_partkey, 0.2 * avg(l_quantity) AS t1
                   FROM lineitem GROUP BY l_partkey) AS inner_t,
                  (SELECT l_partkey, l_quantity, l_extendedprice
                   FROM lineitem, part
                   WHERE p_partkey = l_partkey) AS outer_t
             WHERE outer_t.l_partkey = inner_t.l_partkey
               AND outer_t.l_quantity < inner_t.t1",
        );
        assert_eq!(count_ops(&p, "Join"), 2);
        assert_eq!(count_ops(&p, "Aggregate"), 2);
        assert_eq!(count_ops(&p, "Scan"), 3);
    }

    #[test]
    fn q_csa_builds() {
        let p = plan_of(
            "SELECT avg(pageview_count) FROM
            (SELECT c.uid, mp.ts1, (count(*)-2) AS pageview_count
             FROM clicks AS c,
                  (SELECT uid, max(ts1) AS ts1, ts2
                   FROM (SELECT c1.uid, c1.ts AS ts1, min(c2.ts) AS ts2
                         FROM clicks AS c1, clicks AS c2
                         WHERE c1.uid = c2.uid AND c1.ts < c2.ts
                           AND c1.cid = 1 AND c2.cid = 2
                         GROUP BY c1.uid, c1.ts) AS cp
                   GROUP BY uid, ts2) AS mp
             WHERE c.uid = mp.uid AND c.ts >= mp.ts1 AND c.ts <= mp.ts2
             GROUP BY c.uid, mp.ts1) AS pageview_counts",
        );
        // Plan shape of Fig. 2(a): JOIN1 (self-join), AGG1, AGG2, JOIN2, AGG3
        // and the final AGG4.
        assert_eq!(count_ops(&p, "Join"), 2);
        assert_eq!(count_ops(&p, "Aggregate"), 4);
        assert_eq!(count_ops(&p, "Scan"), 3);
    }

    #[test]
    fn computed_group_by_inserts_pre_project() {
        let p = plan_of("SELECT ts / 100, count(*) FROM clicks GROUP BY ts / 100");
        // one pre-Project (computing ts/100) and the Aggregate; final
        // projection may or may not be identity.
        assert!(count_ops(&p, "Project") >= 1);
        assert_eq!(count_ops(&p, "Aggregate"), 1);
    }
}
