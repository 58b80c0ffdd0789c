//! Schemas: ordered, named, typed fields — discovered at read time.
//!
//! In a schema-on-read lake, a [`Schema`] is *descriptive* metadata inferred
//! from raw data rather than a prescriptive contract. Schemas therefore
//! support unification (widening merges) and fingerprinting (for schema-
//! evolution tracking, §6.6 of the survey).

use crate::value::{fnv1a, DataType};
use std::collections::HashSet;
use std::fmt;

/// One named, typed field of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field (column/attribute) name.
    pub name: String,
    /// Inferred logical type.
    pub dtype: DataType,
    /// Whether null values were observed (or are permitted).
    pub nullable: bool,
}

impl Field {
    /// A nullable field of the given name and type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype, nullable: true }
    }

    /// A non-nullable field.
    pub fn required(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype, nullable: false }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}{}", self.name, self.dtype, if self.nullable { "?" } else { "" })
    }
}

/// An ordered collection of [`Field`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Duplicate names are allowed here (raw
    /// data has them); [`Schema::dedup_names`] can disambiguate.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// The empty schema.
    pub fn empty() -> Schema {
        Schema::default()
    }

    /// Fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of the field named `name`, if any (first match).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field named `name`, if any.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Append a field.
    pub fn push(&mut self, field: Field) {
        self.fields.push(field);
    }

    /// Field names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Rename duplicate field names as [`dedup_names`] does.
    pub fn dedup_names(&mut self) {
        let mut names: Vec<String> = self.fields.iter().map(|f| f.name.clone()).collect();
        dedup_names(&mut names);
        for (f, name) in self.fields.iter_mut().zip(names) {
            f.name = name;
        }
    }

    /// Widening merge: fields present in both schemas unify their types;
    /// fields present in only one become nullable. Order: `self`'s fields
    /// first, then `other`'s new fields.
    ///
    /// This is the merge used when successive batches of a raw source are
    /// profiled (schema evolution, §6.6).
    pub fn unify(&self, other: &Schema) -> Schema {
        let mut out = self.clone();
        for f in &mut out.fields {
            match other.field(&f.name) {
                Some(of) => {
                    f.dtype = f.dtype.unify(of.dtype);
                    f.nullable = f.nullable || of.nullable;
                }
                None => f.nullable = true,
            }
        }
        for of in &other.fields {
            if out.field(&of.name).is_none() {
                let mut nf = of.clone();
                nf.nullable = true;
                out.fields.push(nf);
            }
        }
        out
    }

    /// A stable fingerprint of the schema (names + types + nullability),
    /// used to detect schema versions cheaply.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x1234_5678_9abc_def0;
        for f in &self.fields {
            h ^= fnv1a(f.name.as_bytes())
                .wrapping_mul(31)
                .wrapping_add(f.dtype as u64)
                .wrapping_add(if f.nullable { 1 } else { 0 });
            h = h.rotate_left(17);
        }
        h
    }
}

/// Make `names` distinct in place. A name an earlier entry already has
/// gets the smallest suffix `_n` (n ≥ 2) that no entry and no earlier
/// rename uses: `a, a, a` becomes `a, a_2, a_3`, and `a, a, a_2` becomes
/// `a, a_3, a_2`.
pub fn dedup_names(names: &mut [String]) {
    let mut taken: HashSet<String> = names.iter().cloned().collect();
    let mut kept: HashSet<String> = HashSet::with_capacity(names.len());
    for name in names.iter_mut() {
        if kept.insert(name.clone()) {
            continue;
        }
        let mut n = 2;
        let renamed = loop {
            let candidate = format!("{name}_{n}");
            if !taken.contains(&candidate) {
                break candidate;
            }
            n += 1;
        };
        // No entry has the new name, so no later one can repeat it.
        taken.insert(renamed.clone());
        *name = renamed;
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

impl FromIterator<Field> for Schema {
    fn from_iter<T: IntoIterator<Item = Field>>(iter: T) -> Self {
        Schema::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType::*;

    fn s(fields: &[(&str, DataType)]) -> Schema {
        fields.iter().map(|(n, t)| Field::new(*n, *t)).collect()
    }

    #[test]
    fn index_and_lookup() {
        let sc = s(&[("a", Int), ("b", Str)]);
        assert_eq!(sc.index_of("b"), Some(1));
        assert_eq!(sc.field("a").unwrap().dtype, Int);
        assert!(sc.field("z").is_none());
        assert_eq!(sc.names(), vec!["a", "b"]);
    }

    #[test]
    fn unify_widens_types_and_adds_fields() {
        let a = s(&[("x", Int), ("y", Str)]);
        let b = s(&[("x", Float), ("z", Bool)]);
        let u = a.unify(&b);
        assert_eq!(u.field("x").unwrap().dtype, Float);
        assert!(u.field("y").unwrap().nullable);
        assert!(u.field("z").unwrap().nullable);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn fingerprint_changes_with_schema() {
        let a = s(&[("x", Int)]);
        let b = s(&[("x", Float)]);
        let c = s(&[("y", Int)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), s(&[("x", Int)]).fingerprint());
    }

    #[test]
    fn dedup_names_suffixes() {
        let mut sc = s(&[("a", Int), ("a", Str), ("a", Bool)]);
        sc.dedup_names();
        assert_eq!(sc.names(), vec!["a", "a_2", "a_3"]);
    }

    #[test]
    fn dedup_names_skips_suffixes_a_header_already_uses() {
        let mut sc = s(&[("a", Int), ("a", Str), ("a_2", Bool)]);
        sc.dedup_names();
        assert_eq!(sc.names(), vec!["a", "a_3", "a_2"]);
        let mut names: Vec<String> = ["x_2", "x", "x", "x_3", "x"].map(String::from).to_vec();
        dedup_names(&mut names);
        assert_eq!(names, ["x_2", "x", "x_4", "x_3", "x_5"]);
    }

    #[test]
    fn display_renders() {
        let sc = s(&[("a", Int)]);
        assert_eq!(sc.to_string(), "(a: int?)");
    }
}
