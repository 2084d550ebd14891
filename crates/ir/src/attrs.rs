//! Attributes: immutable metadata attached to operations.
//!
//! Unlike values, attributes are compile-time constants (tile sizes, symbol
//! names, unroll factors, …). They are stored by value on each operation;
//! the enum is cheap to clone for the sizes that occur in practice.

use crate::types::TypeId;
use std::fmt;
use td_support::Symbol;

/// A float wrapper with total equality/hashing via its bit pattern, so
/// [`Attribute`] can be `Eq + Hash` (needed by CSE and the canonicalizer).
#[derive(Clone, Copy, Debug)]
pub struct FloatVal(pub f64);

impl FloatVal {
    /// The wrapped value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl PartialEq for FloatVal {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for FloatVal {}
impl std::hash::Hash for FloatVal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl fmt::Display for FloatVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.is_finite() && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// An operation attribute.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Attribute {
    /// Presence-only attribute (`unit`).
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer (also used for `index`-typed constants).
    Int(i64),
    /// Double-precision float.
    Float(FloatVal),
    /// UTF-8 string.
    String(String),
    /// Reference to a symbol (`@foo`).
    SymbolRef(Symbol),
    /// A type used as an attribute.
    Type(TypeId),
    /// Homogeneous or heterogeneous array.
    Array(Vec<Attribute>),
    /// Dense floating-point data with a shape (weights, constants).
    DenseF64 {
        /// Row-major dimension extents.
        shape: Vec<i64>,
        /// Flattened elements, one per logical element (or a single splat).
        data: Vec<FloatVal>,
    },
}

impl Attribute {
    /// Convenience constructor for float attributes.
    pub fn float(v: f64) -> Attribute {
        Attribute::Float(FloatVal(v))
    }

    /// Convenience constructor for arrays of integers.
    pub fn int_array(values: impl IntoIterator<Item = i64>) -> Attribute {
        Attribute::Array(values.into_iter().map(Attribute::Int).collect())
    }

    /// Returns the integer payload, if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, if this is an [`Attribute::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v) => Some(v.0),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is an [`Attribute::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is an [`Attribute::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the referenced symbol, if this is an [`Attribute::SymbolRef`].
    pub fn as_symbol(&self) -> Option<Symbol> {
        match self {
            Attribute::SymbolRef(s) => Some(*s),
            _ => None,
        }
    }

    /// Returns the elements, if this is an [`Attribute::Array`].
    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the array as a vector of integers if every element is an int.
    pub fn as_int_array(&self) -> Option<Vec<i64>> {
        self.as_array()?.iter().map(Attribute::as_int).collect()
    }
}

impl From<i64> for Attribute {
    fn from(v: i64) -> Self {
        Attribute::Int(v)
    }
}
impl From<bool> for Attribute {
    fn from(v: bool) -> Self {
        Attribute::Bool(v)
    }
}
impl From<f64> for Attribute {
    fn from(v: f64) -> Self {
        Attribute::float(v)
    }
}
impl From<&str> for Attribute {
    fn from(v: &str) -> Self {
        Attribute::String(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Attribute::Int(4).as_int(), Some(4));
        assert_eq!(Attribute::Int(4).as_float(), None);
        assert_eq!(Attribute::float(2.5).as_float(), Some(2.5));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::from("hi").as_str(), Some("hi"));
        let arr = Attribute::int_array([32, 32]);
        assert_eq!(arr.as_int_array(), Some(vec![32, 32]));
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Attribute::float(1.0), Attribute::float(1.0));
        assert_ne!(Attribute::float(0.0), Attribute::float(-0.0));
        assert_eq!(Attribute::float(f64::NAN), Attribute::float(f64::NAN));
    }

    #[test]
    fn mixed_array_is_not_int_array() {
        let arr = Attribute::Array(vec![Attribute::Int(1), Attribute::Bool(true)]);
        assert_eq!(arr.as_int_array(), None);
    }

    #[test]
    fn float_display() {
        assert_eq!(FloatVal(1.0).to_string(), "1.0");
        assert_eq!(FloatVal(2.5).to_string(), "2.5");
    }
}
