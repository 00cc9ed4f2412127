//! Schemas: ordered lists of named, typed fields.
//!
//! Field names are *qualified* (`lineitem.l_orderkey`, `c1.ts`) so that
//! self-joins — central to the paper's Q-CSA workload — can distinguish the
//! two instances of the same table. Lookup accepts either the full qualified
//! name or the bare column name when it is unambiguous.

use std::fmt;
use std::sync::Arc;

use crate::error::RelError;
use crate::value::DataType;

/// One named, typed column of a schema. Its names are shared, so copying a
/// schema — which planning and pruning do for every node — copies no
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Qualifier — usually the relation alias the column came from. Empty
    /// for computed columns without a source relation.
    pub qualifier: Arc<str>,
    /// The bare column name.
    pub name: Arc<str>,
    /// The column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a qualified field.
    #[must_use]
    pub fn new(qualifier: &str, name: &str, data_type: DataType) -> Self {
        Field {
            qualifier: qualifier.into(),
            name: name.into(),
            data_type,
        }
    }

    /// Creates an unqualified field (for derived/computed columns).
    #[must_use]
    pub fn unqualified(name: &str, data_type: DataType) -> Self {
        Field::new("", name, data_type)
    }

    /// The `qualifier.name` rendering, or just `name` when unqualified.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        if self.qualifier.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.qualifier, self.name)
        }
    }

    /// Whether a reference `[qualifier.]name` matches this field.
    #[must_use]
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        match qualifier {
            Some(q) => *self.qualifier == *q && *self.name == *name,
            None => *self.name == *name,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.qualified_name(), self.data_type)
    }
}

/// An ordered collection of [`Field`]s describing a row layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from a list of fields.
    #[must_use]
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs, all sharing one
    /// qualifier.
    #[must_use]
    pub fn of(qualifier: &str, cols: &[(&str, DataType)]) -> Self {
        Schema {
            fields: cols
                .iter()
                .map(|(n, t)| Field::new(qualifier, n, *t))
                .collect(),
        }
    }

    /// The fields in order.
    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `i`.
    #[must_use]
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Resolves `[qualifier.]name` to a column index.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownColumn`] when nothing matches;
    /// [`RelError::AmbiguousColumn`] when a bare name matches several fields.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, RelError> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(qualifier, name) {
                if found.is_some() {
                    return Err(RelError::AmbiguousColumn(render(qualifier, name)));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| RelError::UnknownColumn(render(qualifier, name)))
    }

    /// Resolves a dotted string (`alias.col` or `col`) to a column index.
    pub fn resolve_str(&self, reference: &str) -> Result<usize, RelError> {
        match reference.split_once('.') {
            Some((q, n)) => self.resolve(Some(q), n),
            None => self.resolve(None, reference),
        }
    }

    /// Concatenates two schemas (join output layout: left columns then
    /// right columns).
    #[must_use]
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Returns a copy of the schema with every qualifier replaced, used when
    /// a subquery result is given an alias (`(...) AS inner`).
    #[must_use]
    pub fn requalified(&self, qualifier: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field::new(qualifier, &f.name, f.data_type))
                .collect(),
        }
    }

    /// Projects a subset of columns by index.
    #[must_use]
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

fn render(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(
            "t",
            &[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ],
        )
    }

    #[test]
    fn resolve_bare_and_qualified() {
        let s = sample();
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("t"), "c").unwrap(), 2);
        assert_eq!(s.resolve_str("t.a").unwrap(), 0);
        assert_eq!(s.resolve_str("a").unwrap(), 0);
    }

    #[test]
    fn unknown_column() {
        let e = sample().resolve(None, "zz").unwrap_err();
        assert_eq!(e, RelError::UnknownColumn("zz".into()));
    }

    #[test]
    fn ambiguity_across_self_join() {
        let s = Schema::of("c1", &[("uid", DataType::Int)])
            .concat(&Schema::of("c2", &[("uid", DataType::Int)]));
        assert!(matches!(
            s.resolve(None, "uid"),
            Err(RelError::AmbiguousColumn(_))
        ));
        assert_eq!(s.resolve(Some("c2"), "uid").unwrap(), 1);
    }

    #[test]
    fn requalify_for_subquery_alias() {
        let s = sample().requalified("inner");
        assert_eq!(&*s.field(0).qualifier, "inner");
        assert_eq!(s.resolve(Some("inner"), "a").unwrap(), 0);
    }

    #[test]
    fn concat_preserves_order() {
        let s = sample().concat(&Schema::of("u", &[("d", DataType::Int)]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.field(3).qualified_name(), "u.d");
    }

    #[test]
    fn project_subset() {
        let s = sample().project(&[2, 0]);
        assert_eq!(&*s.field(0).name, "c");
        assert_eq!(&*s.field(1).name, "a");
    }

    #[test]
    fn display_format() {
        let s = Schema::of("t", &[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(t.a: INT)");
    }
}
