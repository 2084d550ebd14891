//! The type system: interned, immutable types referenced by cheap
//! [`TypeId`]s.
//!
//! The set of types is a closed enum covering everything the payload
//! dialects (`arith`, `memref`, `llvm`, …) and the Transform dialect need,
//! plus an [`TypeKind::Opaque`] escape hatch for dialect-defined types (used
//! by IRDL). Types are interned in the [`TypeStore`] owned by the IR
//! context, so equality is a single integer comparison.

use std::collections::HashMap;
use std::fmt;
use td_support::Symbol;

/// Interned handle to a [`TypeKind`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

/// The placeholder id: interns no type (resolving it panics). It fills the
/// unused slots of inline lists of types.
impl Default for TypeId {
    fn default() -> Self {
        TypeId(u32::MAX)
    }
}

impl TypeId {
    /// Raw index into the store, useful as a dense map key.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// A dimension extent that is either statically known or dynamic (`?`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Extent {
    /// Statically known extent.
    Static(i64),
    /// Dynamic extent, printed as `?`.
    Dynamic,
}

impl Extent {
    /// The static value, if any.
    pub fn as_static(self) -> Option<i64> {
        match self {
            Extent::Static(v) => Some(v),
            Extent::Dynamic => None,
        }
    }

    /// Whether this extent is dynamic.
    pub fn is_dynamic(self) -> bool {
        matches!(self, Extent::Dynamic)
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Extent::Static(v) => write!(f, "{v}"),
            Extent::Dynamic => f.write_str("?"),
        }
    }
}

impl From<i64> for Extent {
    fn from(v: i64) -> Self {
        Extent::Static(v)
    }
}

/// The structural description of a type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// Signless integer of the given bit width (`i1`, `i32`, …).
    Integer(u32),
    /// Target-width index type (`index`).
    Index,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// `none` type.
    None,
    /// Function type `(inputs) -> (results)`.
    Function {
        /// Input types.
        inputs: Vec<TypeId>,
        /// Result types.
        results: Vec<TypeId>,
    },
    /// A strided memory reference: `memref<4x4xf32, offset: ?, strides: [4, 1]>`.
    MemRef {
        /// Dimension extents.
        shape: Vec<Extent>,
        /// Element type.
        element: TypeId,
        /// Static or dynamic offset into the underlying allocation.
        offset: Extent,
        /// Per-dimension strides; empty means the identity (row-major) layout.
        strides: Vec<Extent>,
    },
    /// A value tensor: `tensor<2x?xf32>`.
    Tensor {
        /// Dimension extents.
        shape: Vec<Extent>,
        /// Element type.
        element: TypeId,
    },
    /// An opaque LLVM pointer (`!llvm.ptr`).
    LlvmPtr,
    /// An LLVM struct (`!llvm.struct<(i64, ptr)>`).
    LlvmStruct(Vec<TypeId>),
    /// Transform-dialect handle to any payload operation (`!transform.any_op`).
    TransformAnyOp,
    /// Transform-dialect handle constrained to one payload op kind
    /// (`!transform.op<"scf.for">`).
    TransformOp(Symbol),
    /// Transform-dialect parameter (`!transform.param`).
    TransformParam,
    /// Transform-dialect handle to a payload value (`!transform.any_value`).
    TransformAnyValue,
    /// A dialect-defined opaque type, e.g. `!mydialect.mytype`.
    Opaque(Symbol),
}

/// Interning store for types. Owned by the IR context.
#[derive(Debug, Default)]
pub struct TypeStore {
    kinds: Vec<TypeKind>,
    map: HashMap<TypeKind, TypeId>,
}

impl TypeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `kind`, returning the canonical id.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.map.get(&kind) {
            return id;
        }
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.map.insert(kind, id);
        id
    }

    /// Resolves a type id to its structural description.
    ///
    /// # Panics
    /// Panics if the id does not belong to this store.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.0 as usize]
    }

    /// Number of distinct types interned so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no type has been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut store = TypeStore::new();
        let a = store.intern(TypeKind::Integer(32));
        let b = store.intern(TypeKind::Integer(32));
        let c = store.intern(TypeKind::Integer(64));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn nested_types() {
        let mut store = TypeStore::new();
        let f32 = store.intern(TypeKind::F32);
        let m1 = store.intern(TypeKind::MemRef {
            shape: vec![Extent::Static(4), Extent::Static(4)],
            element: f32,
            offset: Extent::Static(0),
            strides: vec![],
        });
        let m2 = store.intern(TypeKind::MemRef {
            shape: vec![Extent::Static(4), Extent::Static(4)],
            element: f32,
            offset: Extent::Dynamic,
            strides: vec![],
        });
        assert_ne!(m1, m2, "offset is part of the type identity");
    }

    #[test]
    fn extent_accessors() {
        assert_eq!(Extent::Static(7).as_static(), Some(7));
        assert_eq!(Extent::Dynamic.as_static(), None);
        assert!(Extent::Dynamic.is_dynamic());
        assert_eq!(Extent::from(3), Extent::Static(3));
    }
}
