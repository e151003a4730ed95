//! The Lift type system (Section 5.1).
//!
//! Types are scalars, fixed-width vectors, tuples and arrays. Array types carry their length as
//! a symbolic [`ArithExpr`], which is what makes the type system *dependent*: applying `split m`
//! to an array of type `[float]_n` yields `[[float]_m]_{n/m}`, and the compiler later exploits
//! these symbolic lengths for memory allocation and index simplification.

use std::fmt;

use lift_arith::ArithExpr;

/// The scalar element kinds supported by the Lift IL.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// `bool`
    Bool,
    /// 32-bit signed integer (`int`)
    Int,
    /// 32-bit float (`float`)
    Float,
    /// 64-bit float (`double`)
    Double,
}

impl ScalarKind {
    /// The OpenCL C name of this scalar type.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarKind::Bool => "bool",
            ScalarKind::Int => "int",
            ScalarKind::Float => "float",
            ScalarKind::Double => "double",
        }
    }

    /// Size of a value of this kind in bytes.
    pub fn size_in_bytes(self) -> i64 {
        match self {
            ScalarKind::Bool => 1,
            ScalarKind::Int | ScalarKind::Float => 4,
            ScalarKind::Double => 8,
        }
    }
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// A Lift type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar value.
    Scalar(ScalarKind),
    /// An OpenCL vector value such as `float4`.
    Vector(ScalarKind, usize),
    /// A tuple, represented as a struct in OpenCL.
    Tuple(Vec<Type>),
    /// An array with a symbolic length.
    Array(Box<Type>, ArithExpr),
}

impl Type {
    /// The `float` scalar type.
    pub fn float() -> Type {
        Type::Scalar(ScalarKind::Float)
    }

    /// The `int` scalar type.
    pub fn int() -> Type {
        Type::Scalar(ScalarKind::Int)
    }

    /// The `bool` scalar type.
    pub fn bool() -> Type {
        Type::Scalar(ScalarKind::Bool)
    }

    /// The `double` scalar type.
    pub fn double() -> Type {
        Type::Scalar(ScalarKind::Double)
    }

    /// An array of `elem` with length `len`.
    pub fn array(elem: Type, len: impl Into<ArithExpr>) -> Type {
        Type::Array(Box::new(elem), len.into())
    }

    /// A vector of `width` elements of scalar kind `kind` (e.g. `float4`).
    pub fn vector(kind: ScalarKind, width: usize) -> Type {
        Type::Vector(kind, width)
    }

    /// A pair type.
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Tuple(vec![a, b])
    }

    /// A tuple type.
    pub fn tuple(elems: Vec<Type>) -> Type {
        Type::Tuple(elems)
    }

    /// Returns `true` if this is a scalar type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// Returns `true` if this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(_, _))
    }

    /// Returns the element type and length if this is an array type.
    pub fn as_array(&self) -> Option<(&Type, &ArithExpr)> {
        match self {
            Type::Array(elem, len) => Some((elem, len)),
            _ => None,
        }
    }

    /// Returns the component types if this is a tuple type.
    pub fn as_tuple(&self) -> Option<&[Type]> {
        match self {
            Type::Tuple(elems) => Some(elems),
            _ => None,
        }
    }

    /// The innermost non-array type (the element type of a possibly multi-dimensional array).
    pub fn innermost(&self) -> &Type {
        match self {
            Type::Array(elem, _) => elem.innermost(),
            other => other,
        }
    }

    /// Number of array dimensions (0 for non-arrays).
    pub fn array_depth(&self) -> usize {
        match self {
            Type::Array(elem, _) => 1 + elem.array_depth(),
            _ => 0,
        }
    }

    /// The total number of *scalar* elements in a value of this type, as a symbolic expression.
    ///
    /// This is the quantity the memory allocator multiplies by the scalar size to compute
    /// buffer sizes (Section 5.2).
    pub fn element_count(&self) -> ArithExpr {
        match self {
            Type::Scalar(_) => ArithExpr::cst(1),
            Type::Vector(_, w) => ArithExpr::cst(*w as i64),
            Type::Tuple(elems) => ArithExpr::sum(elems.iter().map(|t| t.element_count())),
            Type::Array(elem, len) => elem.element_count() * len.clone(),
        }
    }

    /// The size of a value of this type in bytes, as a symbolic expression.
    pub fn size_in_bytes(&self) -> ArithExpr {
        match self {
            Type::Scalar(k) => ArithExpr::cst(k.size_in_bytes()),
            Type::Vector(k, w) => ArithExpr::cst(k.size_in_bytes() * *w as i64),
            Type::Tuple(elems) => ArithExpr::sum(elems.iter().map(|t| t.size_in_bytes())),
            Type::Array(elem, len) => elem.size_in_bytes() * len.clone(),
        }
    }

    /// The OpenCL C type used to store one *scalar element* of this type (tuples become
    /// structs, arrays decay to their innermost element).
    pub fn c_element_name(&self) -> String {
        match self.innermost() {
            Type::Scalar(k) => k.c_name().to_string(),
            Type::Vector(k, w) => format!("{}{}", k.c_name(), w),
            Type::Tuple(elems) => {
                let names: Vec<String> = elems.iter().map(|t| t.c_element_name()).collect();
                format!("Tuple_{}", names.join("_"))
            }
            Type::Array(_, _) => unreachable!("innermost is never an array"),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(k) => write!(f, "{k}"),
            Type::Vector(k, w) => write!(f, "{k}{w}"),
            Type::Tuple(elems) => {
                write!(f, "(")?;
                for (i, t) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Type::Array(elem, len) => write!(f, "[{elem}]_{{{len}}}"),
        }
    }
}

/// The OpenCL address spaces of the Lift IL (Section 3.2, "Address Space Patterns").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressSpace {
    /// `__global` memory, visible to all work items.
    Global,
    /// `__local` memory, shared within a work group.
    Local,
    /// `__private` memory (registers), per work item.
    Private,
}

impl AddressSpace {
    /// The OpenCL qualifier keyword.
    pub fn c_qualifier(self) -> &'static str {
        match self {
            AddressSpace::Global => "global",
            AddressSpace::Local => "local",
            AddressSpace::Private => "private",
        }
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_qualifier())
    }
}

/// The parallelism level at which a piece of code executes (or a buffer is owned).
///
/// The OpenCL execution model gives every buffer a natural owner: `__local` arrays belong
/// to the *work group* and must be written cooperatively (each work item writing its own
/// slice, as `toLocal(mapLcl id)` does), `__private` values belong to the single *work
/// item*, and purely sequential code executes within whatever level encloses it. The
/// codegen ownership pass annotates each expression with the level of its evaluation site
/// and rejects writes that alias across work items — e.g. a `toLocal` staging buffer
/// produced *inside* a `mapLcl` body, where every work item would write the whole
/// group-shared array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParallelismLevel {
    /// Work-group level: code executed uniformly by a whole work group (kernel top level
    /// or a `mapWrg` body), where cooperative `mapLcl` writes are legal.
    WorkGroup,
    /// Work-item level: code inside a `mapLcl`/`mapGlb` body, executed per work item with
    /// work-item-varying data.
    WorkItem,
    /// A sequential lane: code inside `mapSeq`/`reduceSeq`/`iterate` at work-item level —
    /// still per work item, but with no further parallelism below it.
    Sequential,
}

impl ParallelismLevel {
    /// Stable lower-kebab-case label used in rendered errors and serialized reports.
    pub fn label(self) -> &'static str {
        match self {
            ParallelismLevel::WorkGroup => "work-group",
            ParallelismLevel::WorkItem => "work-item",
            ParallelismLevel::Sequential => "sequential-lane",
        }
    }

    /// The level that owns buffers allocated in `space`: local memory belongs to the work
    /// group, private memory to the work item. Global memory is owned above the work
    /// group (the host partitions it); it reports as work-group-owned here because that is
    /// the coarsest level a kernel can write from.
    pub fn owner_of(space: AddressSpace) -> ParallelismLevel {
        match space {
            AddressSpace::Global | AddressSpace::Local => ParallelismLevel::WorkGroup,
            AddressSpace::Private => ParallelismLevel::WorkItem,
        }
    }

    /// Whether this level is per-work-item (writes from it alias across work items when
    /// the target is shared at a coarser level).
    pub fn is_work_item(self) -> bool {
        matches!(
            self,
            ParallelismLevel::WorkItem | ParallelismLevel::Sequential
        )
    }
}

impl fmt::Display for ParallelismLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_changes_nested_lengths() {
        let n = ArithExpr::size_var("N");
        let t = Type::array(Type::float(), n.clone());
        let (elem, len) = t.as_array().expect("array");
        assert_eq!(*elem, Type::float());
        assert_eq!(*len, n);
    }

    #[test]
    fn element_count_multiplies_dimensions() {
        let n = ArithExpr::size_var("N");
        let m = ArithExpr::size_var("M");
        let t = Type::array(Type::array(Type::float(), m.clone()), n.clone());
        assert_eq!(t.element_count(), n.clone() * m.clone());
        assert_eq!(t.size_in_bytes(), n * m * 4);
    }

    #[test]
    fn tuple_sizes_add() {
        let t = Type::pair(Type::float(), Type::float());
        assert_eq!(t.size_in_bytes(), ArithExpr::cst(8));
        assert_eq!(t.element_count(), ArithExpr::cst(2));
    }

    #[test]
    fn vector_types_display_like_opencl() {
        let t = Type::vector(ScalarKind::Float, 4);
        assert_eq!(t.to_string(), "float4");
        assert_eq!(t.c_element_name(), "float4");
        assert_eq!(t.size_in_bytes(), ArithExpr::cst(16));
    }

    #[test]
    fn innermost_and_depth() {
        let n = ArithExpr::size_var("N");
        let t = Type::array(Type::array(Type::float(), n.clone()), n);
        assert_eq!(t.array_depth(), 2);
        assert_eq!(*t.innermost(), Type::float());
        assert!(t.is_array());
        assert!(!t.is_scalar());
    }

    #[test]
    fn display_of_arrays_and_tuples() {
        let n = ArithExpr::size_var("N");
        let t = Type::array(Type::pair(Type::float(), Type::int()), n);
        let s = t.to_string();
        assert!(s.contains("(float, int)"));
        assert!(s.contains("N"));
    }

    #[test]
    fn address_space_qualifiers() {
        assert_eq!(AddressSpace::Global.c_qualifier(), "global");
        assert_eq!(AddressSpace::Local.c_qualifier(), "local");
        assert_eq!(AddressSpace::Private.c_qualifier(), "private");
    }

    #[test]
    fn scalar_kind_sizes() {
        assert_eq!(ScalarKind::Float.size_in_bytes(), 4);
        assert_eq!(ScalarKind::Double.size_in_bytes(), 8);
        assert_eq!(ScalarKind::Bool.size_in_bytes(), 1);
        assert_eq!(ScalarKind::Int.c_name(), "int");
    }
}
