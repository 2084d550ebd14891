//! Source locations attached to IR entities and diagnostics.

use crate::interner::Symbol;
use std::fmt;

/// A source location.
///
/// Mirrors MLIR's location attributes: either unknown, a file/line/column
/// triple, a named location (useful for synthesized IR), or a location fused
/// from several others (e.g. after fusion transformations). File and
/// synthesized names are interned, so a location is 24 bytes, copying one
/// touches no reference count, and every op carries one inline.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Location {
    /// No location information.
    Unknown,
    /// `file:line:column`.
    File {
        /// File name (interned).
        file: Symbol,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        column: u32,
    },
    /// A synthesized entity identified by name. Interned: synthesized IR
    /// reuses a handful of names, so a named location allocates nothing.
    Name(Symbol),
    /// A location derived from several source locations.
    Fused(Box<[Location]>),
}

impl Location {
    /// The unknown location.
    pub fn unknown() -> Location {
        Location::Unknown
    }

    /// A `file:line:column` location.
    pub fn file(file: impl AsRef<str>, line: u32, column: u32) -> Location {
        Location::File {
            file: Symbol::new(file.as_ref()),
            line,
            column,
        }
    }

    /// A named location for synthesized IR.
    pub fn name(name: impl AsRef<str>) -> Location {
        Location::Name(Symbol::new(name.as_ref()))
    }

    /// Fuses multiple locations into one; a single location stays itself.
    pub fn fused(locations: Vec<Location>) -> Location {
        match locations.len() {
            0 => Location::Unknown,
            1 => locations.into_iter().next().expect("len checked"),
            _ => Location::Fused(locations.into_boxed_slice()),
        }
    }
}

impl Default for Location {
    fn default() -> Self {
        Location::Unknown
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Unknown => f.write_str("<unknown>"),
            Location::File { file, line, column } => write!(f, "{file}:{line}:{column}"),
            Location::Name(name) => write!(f, "<{name}>"),
            Location::Fused(locs) => {
                f.write_str("fused[")?;
                for (i, loc) in locs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{loc}")?;
                }
                f.write_str("]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Location::unknown().to_string(), "<unknown>");
        assert_eq!(Location::file("a.mlir", 3, 7).to_string(), "a.mlir:3:7");
        assert_eq!(Location::name("tiled").to_string(), "<tiled>");
        let fused = Location::fused(vec![Location::file("a", 1, 1), Location::name("x")]);
        assert_eq!(fused.to_string(), "fused[a:1:1, <x>]");
    }

    #[test]
    fn a_location_is_three_words() {
        assert_eq!(std::mem::size_of::<Location>(), 24);
    }

    #[test]
    fn fused_collapses_trivial_cases() {
        assert_eq!(Location::fused(vec![]), Location::Unknown);
        let single = Location::file("a", 1, 2);
        assert_eq!(Location::fused(vec![single.clone()]), single);
    }
}
