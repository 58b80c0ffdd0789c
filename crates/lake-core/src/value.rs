//! The dynamic value and type system shared by every store and algorithm.
//!
//! A data lake ingests raw data whose types are unknown at compile time, so
//! the platform manipulates [`Value`]s — a small dynamically typed algebra
//! with total ordering (needed by sorted stores and top-k search) and
//! schema-on-read type inference ([`Value::parse_infer`]).

use std::cmp::Ordering;
use std::fmt;

/// The logical type of a [`Value`].
///
/// `DataType` deliberately mirrors what schema-on-read systems can infer
/// from raw text: booleans, integers, floats, strings, and null. Richer
/// types (timestamps, decimals) are represented as annotated strings by the
/// profiling layers rather than being baked into the core algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// The absence of a value.
    Null,
    /// `true` / `false`.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Human-readable name, as printed in schema listings.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Null => "null",
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
        }
    }

    /// The least general type that can represent both `self` and `other`.
    ///
    /// Used when inferring a column type from heterogeneous raw values:
    /// `int ∪ float = float`, anything incompatible widens to `str`, and
    /// `null` is the identity.
    pub fn unify(self, other: DataType) -> DataType {
        use DataType::{Float, Int, Null, Str};
        match (self, other) {
            (Null, t) | (t, Null) => t,
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            _ => Str,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed value.
///
/// `Value` implements a *total* order (`Ord`): `Null < Bool < numbers <
/// Str`, with ints and floats compared numerically against each other and
/// `NaN` sorting above every other float. This makes values usable as keys
/// in sorted stores and as sort keys in top-k result ranking.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats as `f64`, everything else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view (does not render non-strings; use `to_string` for that).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Schema-on-read inference: parse a raw text token into the most
    /// specific [`Value`].
    ///
    /// Empty strings and the common null spellings (`null`, `NULL`, `NA`,
    /// `N/A`, `-`) become [`Value::Null`]; `true`/`false` become booleans;
    /// integer- and float-shaped tokens become numbers; everything else
    /// stays a string.
    pub fn parse_infer(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() || matches!(t, "null" | "NULL" | "NA" | "N/A" | "-" | "None" | "nil") {
            return Value::Null;
        }
        match t {
            "true" | "TRUE" | "True" => return Value::Bool(true),
            "false" | "FALSE" | "False" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        // Reject tokens like "1e" that f64::parse would accept leniently via
        // inf/nan keywords; require a digit to be present.
        if t.bytes().any(|b| b.is_ascii_digit()) {
            if let Ok(f) = t.parse::<f64>() {
                return Value::Float(f);
            }
        }
        Value::Str(t.to_string())
    }

    /// Render this value as the canonical raw text token, the inverse of
    /// [`Value::parse_infer`] for non-lossy cases.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => s.clone(),
        }
    }

    /// A stable 64-bit hash of the value, used by sketches and indexes.
    ///
    /// Unlike `std::hash::Hash` with the default hasher, this is stable
    /// across processes and runs, which benchmark reproducibility needs.
    pub fn stable_hash(&self) -> u64 {
        match self {
            Value::Null => 0x9e37_79b9_7f4a_7c15,
            Value::Bool(false) => 0x2545_f491_4f6c_dd1d,
            Value::Bool(true) => 0x27d4_eb2f_1656_67c5,
            Value::Int(i) => fnv1a(&i.to_le_bytes()) ^ 0x11,
            Value::Float(f) => {
                // Hash ints and whole floats identically so 3 and 3.0 join.
                if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    fnv1a(&(*f as i64).to_le_bytes()) ^ 0x11
                } else {
                    fnv1a(&f.to_bits().to_le_bytes()) ^ 0x22
                }
            }
            Value::Str(s) => fnv1a(s.as_bytes()),
        }
    }
}

/// FNV-1a, a tiny stable hash adequate for sketch seeding and bucketing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.stable_hash());
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::{Bool, Float, Int, Null, Str};
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Total order on `f64`: `-inf < … < inf < NaN`.
fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // `total_cmp` agrees with `partial_cmp` on non-NaN values except
        // ±0.0, which must stay Equal here (domain dedup relies on it).
        (false, false) if a == b => Ordering::Equal,
        (false, false) => a.total_cmp(&b),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("∅"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_parses_each_type() {
        assert_eq!(Value::parse_infer(""), Value::Null);
        assert_eq!(Value::parse_infer("NA"), Value::Null);
        assert_eq!(Value::parse_infer("true"), Value::Bool(true));
        assert_eq!(Value::parse_infer("42"), Value::Int(42));
        assert_eq!(Value::parse_infer("-3"), Value::Int(-3));
        assert_eq!(Value::parse_infer("2.5"), Value::Float(2.5));
        assert_eq!(Value::parse_infer("1e3"), Value::Float(1000.0));
        assert_eq!(Value::parse_infer("abc"), Value::str("abc"));
        // "inf" must not become a float: no digits present.
        assert_eq!(Value::parse_infer("inf"), Value::str("inf"));
    }

    #[test]
    fn render_roundtrips() {
        for raw in ["true", "42", "2.5", "hello"] {
            let v = Value::parse_infer(raw);
            assert_eq!(Value::parse_infer(&v.render()), v, "raw={raw}");
        }
    }

    #[test]
    fn ordering_is_total_and_cross_type() {
        let mut vs = [
            Value::str("b"),
            Value::Float(f64::NAN),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("a"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(2.5));
        assert_eq!(vs[3], Value::Int(3));
        assert!(matches!(vs[4], Value::Float(f) if f.is_nan()));
        assert_eq!(vs[5], Value::str("a"));
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::Int(3).stable_hash(), Value::Float(3.0).stable_hash());
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn unify_widens() {
        use DataType::*;
        assert_eq!(Int.unify(Float), Float);
        assert_eq!(Null.unify(Int), Int);
        assert_eq!(Bool.unify(Int), Str);
        assert_eq!(Str.unify(Str), Str);
    }

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(Value::str("x").stable_hash(), Value::str("x").stable_hash());
        assert_ne!(Value::str("x").stable_hash(), Value::str("y").stable_hash());
    }
}
