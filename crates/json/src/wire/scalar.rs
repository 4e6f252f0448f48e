//! The scalar and container forms every table is built from: unsigned
//! integers (range-checked on the way in), `f64`, `bool`, `String`,
//! `Vec<T>` and `Option<T>`.

use super::{read_items, refuse, DecodeError, Wire, WireError};
use crate::{Kind, Reader, Writer};
use std::borrow::Cow;

const NOT_UINT: &str = "expected a non-negative integer";

/// A non-negative integer no larger than `max`; `range` is the refusal
/// of one that is larger.
fn read_uint(r: &mut Reader<'_>, max: u64, range: &str) -> Result<u64, DecodeError> {
    if r.kind()? != Kind::Num {
        return refuse(r, NOT_UINT);
    }
    let n = r.number()?;
    match n.as_u64() {
        Some(u) if u <= max => Ok(u),
        None if !n.is_past_u64() => Err(WireError::new(NOT_UINT).into()),
        _ => Err(WireError::new(range).into()),
    }
}

impl Wire for u64 {
    fn write(&self, w: &mut Writer) {
        w.uint(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
        read_uint(r, u64::MAX, "out of range for u64")
    }
}

/// The narrower unsigned integers travel as `u64` and are range-checked
/// coming back.
macro_rules! wire_narrow_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn write(&self, w: &mut Writer) {
                w.uint(*self as u64);
            }

            fn read(r: &mut Reader<'_>) -> Result<$ty, DecodeError> {
                let max = <$ty>::MAX as u64;
                let range = concat!("out of range for ", stringify!($ty));
                read_uint(r, max, range).map(|u| u as $ty)
            }
        }
    )*};
}
wire_narrow_uint!(u32, usize);

impl Wire for f64 {
    fn write(&self, w: &mut Writer) {
        w.float(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
        match r.kind()? {
            Kind::Num => Ok(r.number()?.as_f64().expect("a number reads as one")),
            _ => refuse(r, "expected a number"),
        }
    }
}

impl Wire for bool {
    fn write(&self, w: &mut Writer) {
        w.bool(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match r.kind()? {
            Kind::Bool => Ok(r.bool()?),
            _ => refuse(r, "expected a boolean"),
        }
    }
}

/// A string, borrowed from the text when it has no escapes.
pub fn read_str<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, DecodeError> {
    match r.kind()? {
        Kind::Str => Ok(r.str()?),
        _ => refuse(r, "expected a string"),
    }
}

impl Wire for String {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }

    fn read(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        read_str(r).map(Cow::into_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, w: &mut Writer) {
        w.begin_array();
        for x in self {
            x.write(w);
        }
        w.end_array();
    }

    fn read(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        read_items(r, T::read)
    }
}

/// `None` is `null`; an absent key also reads as `None`.
impl<T: Wire> Wire for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(x) => x.write(w),
            None => w.null(),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        if r.kind()? == Kind::Null {
            r.null()?;
            Ok(None)
        } else {
            T::read(r).map(Some)
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}
