//! How a field sits in its object: the [`Codec`] trait and the codecs
//! the tables name.

use super::{missing, read_items, shaped, DecodeError, Fields, Wire, WireError};
use crate::{Kind, Mark, ParseError, Reader, Writer};

/// How one field of a table sits in its object. A table names a codec
/// per field (`=> codec`); without one the field is [`Plain`].
pub trait Codec<T> {
    /// The field's part of a decode in progress.
    type Slot;

    /// Writes the field into the open object: usually `key` and the
    /// field's value, possibly nothing, or several keys of its own.
    fn put(&self, key: &str, field: &T, w: &mut Writer);

    /// The slot before any key is read.
    fn slot(&self) -> Self::Slot;

    /// Offers the object's key `name`, with the reader at its value: see
    /// [`Fields::offer`].
    fn offer(
        &self,
        key: &str,
        slot: &mut Self::Slot,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError>;

    /// The field, taken out of its slot once the whole object is read.
    fn finish(&self, key: &str, slot: &mut Self::Slot) -> Result<T, WireError>;
}

/// The slot of a field that is the value of one key: empty until the
/// key comes, then what reading the value gave.
pub type One<T> = Option<Result<T, WireError>>;

/// Offers `name` to a one-key field: the key's first copy is read with
/// `read`, later copies are skipped. Kept out of line, like
/// [`finish_one`], so a field type has one copy, not one per field: the
/// tables' decoders are half the code that way.
#[inline(never)]
pub fn offer_one<'a, T>(
    slot: &mut One<T>,
    key: &str,
    name: &str,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<bool, ParseError> {
    if name != key {
        return Ok(false);
    }
    match slot {
        Some(_) => r.skip_value()?,
        None => *slot = Some(shaped(read(r))?),
    }
    Ok(true)
}

/// A one-key field's value: `absent` when the key never came, a shape
/// error under the key's name.
#[inline(never)]
pub fn finish_one<T>(slot: &mut One<T>, key: &str, absent: Option<T>) -> Result<T, WireError> {
    match slot.take() {
        Some(read) => read.map_err(|e| e.in_field(key)),
        None => absent.ok_or_else(|| missing(key)),
    }
}

/// The field's own [`Wire`] form under `key`, always written. An
/// `Option` writes `null` for `None` and reads an absent key as `None`.
pub struct Plain;

impl<T: Wire> Codec<T> for Plain {
    type Slot = One<T>;

    fn put(&self, key: &str, field: &T, w: &mut Writer) {
        field.write(w.key(key));
    }

    fn slot(&self) -> One<T> {
        None
    }

    fn offer(
        &self,
        key: &str,
        slot: &mut One<T>,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError> {
        offer_one(slot, key, name, r, T::read)
    }

    fn finish(&self, key: &str, slot: &mut One<T>) -> Result<T, WireError> {
        finish_one(slot, key, T::absent())
    }
}

/// An `Option` whose key is left out when it is `None` (where [`Plain`]
/// writes `null`). Reading is the same: absent and `null` are `None`,
/// anything else must decode.
pub struct Omit;

impl<T: Wire> Codec<Option<T>> for Omit {
    type Slot = One<Option<T>>;

    fn put(&self, key: &str, field: &Option<T>, w: &mut Writer) {
        if let Some(x) = field {
            x.write(w.key(key));
        }
    }

    fn slot(&self) -> One<Option<T>> {
        None
    }

    fn offer(
        &self,
        key: &str,
        slot: &mut One<Option<T>>,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError> {
        Plain.offer(key, slot, name, r)
    }

    fn finish(&self, key: &str, slot: &mut One<Option<T>>) -> Result<Option<T>, WireError> {
        Plain.finish(key, slot)
    }
}

/// A list of pairs as a list of two-key objects, the key names given
/// per site: `Pairs("vnf", "container")` is
/// `[{"vnf": …, "container": …}, …]`.
pub struct Pairs(pub &'static str, pub &'static str);

impl Pairs {
    /// One two-key object. Anything else has neither key.
    fn read_pair<A: Wire, B: Wire>(&self, r: &mut Reader<'_>) -> Result<(A, B), DecodeError> {
        let (mut a, mut b) = (None, None);
        if r.kind()? == Kind::Obj {
            r.begin_object()?;
            while let Some(name) = r.next_key()? {
                if !(offer_one(&mut a, self.0, &name, r, A::read)?
                    || offer_one(&mut b, self.1, &name, r, B::read)?)
                {
                    r.skip_value()?;
                }
            }
        } else {
            r.skip_value()?;
        }
        let a = finish_one(&mut a, self.0, A::absent())?;
        Ok((a, finish_one(&mut b, self.1, B::absent())?))
    }
}

impl<A: Wire, B: Wire> Codec<Vec<(A, B)>> for Pairs {
    type Slot = One<Vec<(A, B)>>;

    fn put(&self, key: &str, field: &Vec<(A, B)>, w: &mut Writer) {
        w.key(key).begin_array();
        for (a, b) in field {
            w.begin_object();
            a.write(w.key(self.0));
            b.write(w.key(self.1));
            w.end_object();
        }
        w.end_array();
    }

    fn slot(&self) -> Self::Slot {
        None
    }

    fn offer(
        &self,
        key: &str,
        slot: &mut Self::Slot,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError> {
        offer_one(slot, key, name, r, |r| read_items(r, |r| self.read_pair(r)))
    }

    fn finish(&self, key: &str, slot: &mut Self::Slot) -> Result<Vec<(A, B)>, WireError> {
        finish_one(slot, key, None)
    }
}

/// An object-shaped field whose keys sit *beside* its siblings instead
/// of under a key of their own (the field's key is not used).
pub struct Flat;

impl<T: Fields> Codec<T> for Flat {
    type Slot = T::Slots;

    fn put(&self, _key: &str, field: &T, w: &mut Writer) {
        field.put_fields(w);
    }

    fn slot(&self) -> T::Slots {
        T::slots()
    }

    fn offer(
        &self,
        _key: &str,
        slot: &mut T::Slots,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError> {
        T::offer(slot, name, r)
    }

    fn finish(&self, _key: &str, slot: &mut T::Slots) -> Result<T, WireError> {
        T::finish(slot)
    }
}

/// The keys a tagged enum's object held before its discriminator, kept
/// to be read again once the variant is known.
#[doc(hidden)]
pub type Pending = Vec<Mark>;
