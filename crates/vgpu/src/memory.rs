//! Runtime values and memory objects of the virtual GPU.

use lift_ocl::AddrSpace;

/// An argument passed to a kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelArg {
    /// A global-memory buffer of `float` elements. Buffers are returned (possibly modified)
    /// after the launch.
    Buffer(Vec<f32>),
    /// A scalar `int` argument (array sizes, iteration counts, …).
    Int(i64),
    /// A scalar `float` argument.
    Float(f32),
}

impl KernelArg {
    /// Convenience constructor for a buffer of zeros (output buffers).
    pub fn zeros(len: usize) -> KernelArg {
        KernelArg::Buffer(vec![0.0; len])
    }
}

/// A pointer value: an address space, a buffer id within that space and an element offset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Ptr {
    /// The address space of the pointee.
    pub(crate) space: AddrSpace,
    /// Index into the buffer table of that space.
    pub(crate) buffer: usize,
    /// Offset in elements from the start of the buffer.
    pub(crate) offset: i64,
}

/// A runtime value manipulated by the kernel interpreter.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum GpuValue {
    /// A floating-point value.
    Float(f64),
    /// An integer value.
    Int(i64),
    /// A boolean value.
    Bool(bool),
    /// A pointer into global, local or private memory.
    Ptr(Ptr),
    /// A short vector of values (OpenCL `float4` and friends).
    Vector(Vec<GpuValue>),
    /// A struct value used for tuples.
    Struct(Vec<GpuValue>),
}

impl GpuValue {
    /// The value in scalar position: an aggregate reads as [`Scalar::None`].
    pub(crate) fn scalar(&self) -> Scalar {
        match *self {
            GpuValue::Float(v) => Scalar::Float(v),
            GpuValue::Int(v) => Scalar::Int(v),
            GpuValue::Bool(b) => Scalar::Bool(b),
            GpuValue::Ptr(p) => Scalar::Ptr(p),
            GpuValue::Vector(_) | GpuValue::Struct(_) => Scalar::None,
        }
    }
}

impl From<Scalar> for GpuValue {
    /// `None` becomes an empty struct, which reads back as `None`.
    fn from(v: Scalar) -> GpuValue {
        match v {
            Scalar::Float(v) => GpuValue::Float(v),
            Scalar::Int(v) => GpuValue::Int(v),
            Scalar::Bool(b) => GpuValue::Bool(b),
            Scalar::Ptr(p) => GpuValue::Ptr(p),
            Scalar::None => GpuValue::Struct(Vec::new()),
        }
    }
}

/// A scalar runtime value: a register of the bytecode tier, and a [`GpuValue`] read in
/// scalar position. `None` is a cell that holds no value yet, or an aggregate; it converts
/// as an aggregate does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Scalar {
    /// No scalar: reading an unset cell as a variable is [`crate::VgpuError::UnknownVariable`].
    None,
    Float(f64),
    Int(i64),
    Bool(bool),
    Ptr(Ptr),
}

impl Scalar {
    /// The value as a float (`NaN` for a pointer or `None`).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Scalar::Float(v) => v,
            Scalar::Int(v) => v as f64,
            Scalar::Bool(b) => f64::from(u8::from(b)),
            Scalar::Ptr(_) | Scalar::None => f64::NAN,
        }
    }

    /// The value as an integer, truncating a float (0 for a pointer or `None`).
    pub(crate) fn as_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v as i64,
            Scalar::Bool(b) => i64::from(b),
            Scalar::Ptr(_) | Scalar::None => 0,
        }
    }

    /// The value as a condition: non-zero is true (a pointer or `None` is false).
    pub(crate) fn as_bool(self) -> bool {
        match self {
            Scalar::Bool(b) => b,
            Scalar::Int(v) => v != 0,
            Scalar::Float(v) => v != 0.0,
            Scalar::Ptr(_) | Scalar::None => false,
        }
    }

    /// The pointer, if the value is one.
    pub(crate) fn as_ptr(self) -> Option<Ptr> {
        match self {
            Scalar::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// Whether the value is a number (float, int or bool): what an array element stores.
    pub(crate) fn is_number(self) -> bool {
        matches!(self, Scalar::Float(_) | Scalar::Int(_) | Scalar::Bool(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_between_scalar_kinds() {
        assert_eq!(GpuValue::Float(2.5).scalar().as_f64(), 2.5);
        assert_eq!(GpuValue::Int(3).scalar().as_f64(), 3.0);
        assert_eq!(GpuValue::Bool(true).scalar().as_f64(), 1.0);
        assert_eq!(GpuValue::Float(2.9).scalar().as_i64(), 2);
        assert!(GpuValue::Int(1).scalar().as_bool());
        assert!(!GpuValue::Float(0.0).scalar().as_bool());
        assert!(GpuValue::Bool(true).scalar().is_number());
        // An aggregate converts like `None`.
        let pair = GpuValue::Struct(vec![GpuValue::Int(1), GpuValue::Int(2)]);
        assert_eq!(pair.scalar(), Scalar::None);
        assert!(Scalar::None.as_f64().is_nan());
        assert_eq!((Scalar::None.as_i64(), Scalar::None.as_bool()), (0, false));
        assert_eq!(GpuValue::from(Scalar::None).scalar(), Scalar::None);
    }

    #[test]
    fn pointer_round_trip() {
        let p = Ptr {
            space: AddrSpace::Local,
            buffer: 1,
            offset: 16,
        };
        let v = GpuValue::Ptr(p).scalar();
        assert_eq!(v.as_ptr(), Some(p));
        assert!(!v.is_number());
        assert_eq!(GpuValue::Int(0).scalar().as_ptr(), None);
    }

    #[test]
    fn zeros_creates_an_output_buffer() {
        match KernelArg::zeros(4) {
            KernelArg::Buffer(b) => assert_eq!(b, vec![0.0; 4]),
            other => panic!("expected buffer, got {other:?}"),
        }
    }
}
