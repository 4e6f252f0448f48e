//! The wire layer: every JSON document type in the workspace declares
//! its shape once, and encode and decode are both read off that one
//! declaration.
//!
//! A type that travels as JSON implements [`Wire`]: it writes itself
//! straight into a [`Writer`] and reads itself back from a [`Reader`] in
//! the same pass that checks the text, so no [`Value`](crate::Value) tree is built
//! either way. The scalar and container impls live here; message types
//! get theirs from one of three declaration macros, each of which
//! *defines* the type and its codec from the same field list, so a wire
//! key is written once:
//!
//! * [`wire_struct!`](crate::wire_struct) — a struct that is an object;
//! * [`wire_enum!`](crate::wire_enum) — a C-like enum that is a string;
//! * [`wire_tagged!`](crate::wire_tagged) — an enum that is an object
//!   with a discriminator key.
//!
//! A field's key defaults to its name (`as "key"` renames it) and its
//! encoding to [`Plain`]; `=> codec` picks another [`Codec`] for the
//! formats' standing quirks ([`Omit`], [`Pairs`], [`Flat`]). A codec is
//! named by its type, with its arguments after it
//! (`=> Pairs("vnf", "container")`): the type names the field's decode
//! slot, the value writes and reads it.
//!
//! An object is read key by key, in whatever order its keys come: each
//! key is offered to the fields in declaration order, and the one that
//! claims it reads its value into its slot. Unknown keys are skipped, and
//! of a repeated key the first copy wins. A discriminator that is not the
//! first key still decodes: the keys before it are marked, and read again
//! once the variant is known. Decoding fails with a [`DecodeError`]: a
//! syntax error anywhere in the text wins, and otherwise the first field
//! in declaration order that is missing or mistyped is named by its path:
//! `events[3].loss: expected a number`.

use crate::{Kind, ParseError, Reader, Writer};
use std::borrow::Cow;

mod codec;
mod error;
mod scalar;

pub use codec::{finish_one, offer_one, Codec, Flat, Omit, One, Pairs, Pending, Plain};
pub use error::{DecodeError, WireError};
pub use scalar::read_str;

/// Splits a decode's result: a syntax error stops the whole document,
/// a shape error is kept while the rest of the text is checked.
pub fn shaped<T>(read: Result<T, DecodeError>) -> Result<Result<T, WireError>, ParseError> {
    match read {
        Ok(x) => Ok(Ok(x)),
        Err(DecodeError::Shape(e)) => Ok(Err(e)),
        Err(DecodeError::Syntax(e)) => Err(e),
    }
}

/// Steps over a value of the wrong kind and refuses it with `message`.
pub fn refuse<T>(r: &mut Reader<'_>, message: &str) -> Result<T, DecodeError> {
    r.skip_value()?;
    Err(WireError::new(message).into())
}

/// A type with one JSON form.
pub trait Wire: Sized {
    fn write(&self, w: &mut Writer);

    /// Reads one value. On a shape error, as on success, the reader is
    /// past the value, so the rest of the document is still checked.
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// What an absent key decodes to. Only `Option` has an answer
    /// (`None`); for everything else an absent key is an error.
    fn absent() -> Option<Self> {
        None
    }
}

/// A type whose JSON form is an object. The declaration macros
/// implement this; [`Wire`] follows from it, and so does flattening one
/// object's keys into another's ([`Flat`]).
///
/// An object is decoded into [`Fields::Slots`], one slot per field, by
/// offering it each key; [`Fields::finish`] then builds the value.
pub trait Fields: Sized {
    /// A decode in progress.
    type Slots;

    /// Writes the keys and values, inside an object the caller opened.
    fn put_fields(&self, w: &mut Writer);

    /// The slots before any key is read.
    fn slots() -> Self::Slots;

    /// Offers the key `name`, with the reader at its value. True when a
    /// field claimed the key and the reader is past the value; false
    /// leaves the value to the caller.
    fn offer(slots: &mut Self::Slots, name: &str, r: &mut Reader<'_>) -> Result<bool, ParseError>;

    /// The value, or the error of the first field in declaration order
    /// that is missing or did not decode. Each field's value is taken
    /// out of its slot; the slots themselves stay with the caller, so an
    /// early error drops only the fields already built.
    fn finish(slots: &mut Self::Slots) -> Result<Self, WireError>;
}

impl<T: Fields> Wire for T {
    fn write(&self, w: &mut Writer) {
        w.begin_object();
        self.put_fields(w);
        w.end_object();
    }

    fn read(r: &mut Reader<'_>) -> Result<T, DecodeError> {
        if r.kind()? != Kind::Obj {
            return refuse(r, "expected an object");
        }
        let mut slots = T::slots();
        r.begin_object()?;
        while let Some(name) = r.next_key()? {
            if !T::offer(&mut slots, &name, r)? {
                r.skip_value()?;
            }
        }
        Ok(T::finish(&mut slots)?)
    }
}

/// `x` as one line of compact JSON.
pub fn to_json<T: Wire>(x: &T) -> String {
    let mut w = Writer::compact();
    x.write(&mut w);
    w.finish()
}

/// `x` as 2-space indented JSON.
pub fn to_json_pretty<T: Wire>(x: &T) -> String {
    let mut w = Writer::pretty();
    x.write(&mut w);
    w.finish()
}

/// Reads `src` as one `T` in a single pass over the text.
pub fn decode<T: Wire>(src: &str) -> Result<T, DecodeError> {
    let mut r = Reader::new(src);
    let x = T::read(&mut r);
    if let Err(DecodeError::Syntax(_)) = x {
        return x;
    }
    r.end()?;
    x
}

/// [`decode`] with both failures as text, the way the file-format
/// loaders report them.
pub fn from_json<T: Wire>(src: &str) -> Result<T, String> {
    Ok(decode(src)?)
}

/// The string under `key` in the object `src` holds, when it is one and
/// the document is well formed: how a caller tells an unknown label from
/// the other shape errors after a decode failed.
pub fn root_label(src: &str, key: &str) -> Option<String> {
    let mut r = Reader::new(src);
    r.begin_object().ok()?;
    while let Some(name) = r.next_key().ok()? {
        if name == key {
            return match r.kind().ok()? {
                Kind::Str => r.str().ok().map(Cow::into_owned),
                _ => None,
            };
        }
        r.skip_value().ok()?;
    }
    None
}

/// Reads every element of an array; the first one that fails is named
/// by its index, and the elements after it are only checked.
pub fn read_items<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    if r.kind()? != Kind::Arr {
        return refuse(r, "expected an array");
    }
    r.begin_array()?;
    let mut items = Vec::new();
    let mut failed = None;
    while r.next_item()? {
        if failed.is_some() {
            r.skip_value()?;
        } else if let Err(e) = shaped(item(r))?.map(|x| items.push(x)) {
            failed = Some(e.in_item(items.len()));
        }
    }
    match failed {
        Some(e) => Err(e.into()),
        None => Ok(items),
    }
}

#[doc(hidden)]
pub fn missing(key: &str) -> WireError {
    WireError::new("missing field").in_field(key)
}

/// The error for a label no variant carries; `key` is the discriminator
/// it was read from (`None` for a bare string enum).
pub fn unknown_label(key: Option<&str>, label: &str, known: &[&str]) -> WireError {
    let what = key.map_or("value".to_string(), |k| format!("{k:?}"));
    WireError::new(format!(
        "unknown {what} {label:?} (expected one of: {})",
        known.join(", ")
    ))
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_key {
    ($default:expr) => {
        $default
    };
    ($default:expr, $key:literal) => {
        $key
    };
}

/// A field's codec as a value.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec {
    () => {
        $crate::wire::Plain
    };
    ($codec:ident $(($($arg:expr),*))?) => {
        $codec $(($($arg),*))?
    };
}

/// A field's codec as a type.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec_ty {
    () => {
        $crate::wire::Plain
    };
    ($codec:ident) => {
        $codec
    };
}

/// Expands to its first argument: lets a tuple variant's payload binding
/// sit inside the repetition that knows the variant has a payload.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_bind {
    ($binding:pat, $ty:ty) => {
        $binding
    };
}

/// Declares a struct whose wire form is an object with one key per
/// field, in field order:
///
/// ```
/// use escape_json::wire::{to_json, Omit};
///
/// escape_json::wire_struct! {
///     #[derive(Debug, PartialEq)]
///     pub struct Hop {
///         pub node: String,
///         pub delay_us: u64 as "delay",
///         pub note: Option<String> => Omit,
///     }
/// }
/// let hop = Hop { node: "s0".into(), delay_us: 50, note: None };
/// assert_eq!(to_json(&hop), r#"{"node":"s0","delay":50}"#);
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $key:literal)?
                    $(=> $codec:ident $(($($carg:expr),*))?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::Fields for $name {
            type Slots = ($(
                <$crate::__wire_codec_ty!($($codec)?) as $crate::wire::Codec<$ty>>::Slot,
            )*);

            fn put_fields(&self, w: &mut $crate::Writer) {
                $(
                    <_ as $crate::wire::Codec<$ty>>::put(
                        &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                        &self.$field,
                        w,
                    );
                )*
            }

            fn slots() -> Self::Slots {
                ($(
                    <_ as $crate::wire::Codec<$ty>>::slot(
                        &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                    ),
                )*)
            }

            fn offer(
                slots: &mut Self::Slots,
                name: &str,
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<bool, $crate::ParseError> {
                let ($($field,)*) = slots;
                $(
                    if <_ as $crate::wire::Codec<$ty>>::offer(
                        &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                        $field,
                        name,
                        r,
                    )? {
                        return Ok(true);
                    }
                )*
                Ok(false)
            }

            fn finish(
                slots: &mut Self::Slots,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                let ($($field,)*) = slots;
                Ok($name {
                    $(
                        $field: <_ as $crate::wire::Codec<$ty>>::finish(
                            &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                            $crate::__wire_key!(stringify!($field) $(, $key)?),
                            $field,
                        )?,
                    )*
                })
            }
        }
    };
}

/// Declares a C-like enum whose wire form is a string, one label per
/// variant. Besides [`Wire`](crate::wire::Wire) the enum gets `ALL`
/// (every variant in order), `label()` and `from_label()`:
///
/// ```
/// escape_json::wire_enum! {
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub enum Mode {
///         Fast = "fast",
///         Safe = "safe",
///     }
/// }
/// assert_eq!(Mode::Safe.label(), "safe");
/// assert_eq!(Mode::from_label("fast"), Some(Mode::Fast));
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($label),*].len()] = [$($name::$variant),*];

            /// The variant's wire string.
            pub fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )*
                }
            }

            /// The variant a wire string names.
            pub fn from_label(label: &str) -> Option<$name> {
                match label {
                    $( $label => Some($name::$variant), )*
                    _ => None,
                }
            }
        }

        impl $crate::wire::Wire for $name {
            fn write(&self, w: &mut $crate::Writer) {
                w.str(self.label());
            }

            fn read(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::DecodeError> {
                let label = $crate::wire::read_str(r)?;
                $name::from_label(&label).ok_or_else(|| {
                    $crate::wire::unknown_label(None, &label, &[$($label),*]).into()
                })
            }
        }
    };
}

/// Declares an enum whose wire form is an object: a discriminator key
/// (`as "key"` after the enum's name) holding the variant's label,
/// followed by the variant's fields. A one-payload tuple variant puts
/// its payload under the variant's label unless told otherwise. Besides
/// [`Wire`](crate::wire::Wire) the enum gets `LABEL_KEY`, `LABELS`
/// (every label in order) and `label()`:
///
/// ```
/// escape_json::wire_tagged! {
///     #[derive(Debug, PartialEq)]
///     pub enum Shape as "kind" {
///         "dot" => Dot,
///         "box" => Box { w: u64, h: u64 },
///         "path" => Path(Vec<u64> as "points"),
///     }
/// }
/// use escape_json::wire::{from_json, to_json};
/// assert_eq!(to_json(&Shape::Dot), r#"{"kind":"dot"}"#);
/// assert_eq!(
///     to_json(&Shape::Path(vec![1, 2])),
///     r#"{"kind":"path","points":[1,2]}"#
/// );
/// assert_eq!(Shape::LABELS, ["dot", "box", "path"]);
/// // The label need not come first.
/// assert_eq!(
///     from_json::<Shape>(r#"{"h":2,"kind":"box","w":1}"#),
///     Ok(Shape::Box { w: 1, h: 2 })
/// );
/// ```
#[macro_export]
macro_rules! wire_tagged {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident as $label_key:literal {
            $(
                $(#[$vmeta:meta])*
                $label:literal => $variant:ident
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $(as $key:literal)?
                            $(=> $codec:ident $(($($carg:expr),*))?)?
                    ),* $(,)?
                })?
                $((
                    $pty:ty $(as $pkey:literal)?
                        $(=> $pcodec:ident $(($($pcarg:expr),*))?)?
                ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $({ $( $(#[$fmeta])* $field: $ty, )* })?
                $(( $pty ))?,
            )*
        }

        impl $name {
            /// The key the variant's label travels under.
            pub const LABEL_KEY: &'static str = $label_key;

            /// Every variant's label, in declaration order.
            pub const LABELS: &'static [&'static str] = &[$($label),*];

            /// This variant's wire label.
            pub fn label(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $label, )*
                }
            }
        }

        const _: () = {
            /// A decode in progress: the keys before the label, a
            /// refused label, or the chosen variant's slots.
            pub enum __Slots {
                __Pending($crate::wire::Pending),
                __Refused($crate::wire::WireError),
                $(
                    $variant
                    $((($(
                        <$crate::__wire_codec_ty!($($codec)?) as $crate::wire::Codec<$ty>>::Slot,
                    )*)))?
                    $((
                        <$crate::__wire_codec_ty!($($pcodec)?) as $crate::wire::Codec<$pty>>::Slot
                    ))?,
                )*
            }

            impl $crate::wire::Fields for $name {
                type Slots = __Slots;

                fn put_fields(&self, w: &mut $crate::Writer) {
                    w.key($label_key).str(self.label());
                    match self {
                        $(
                            $name::$variant
                                $({ $($field),* })?
                                $({ 0: $crate::__wire_bind!(payload, $pty) })? =>
                            {
                                $($(
                                    <_ as $crate::wire::Codec<$ty>>::put(
                                        &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                                        $field,
                                        w,
                                    );
                                )*)?
                                $(
                                    <_ as $crate::wire::Codec<$pty>>::put(
                                        &$crate::__wire_codec!($($pcodec $(($($pcarg),*))?)?),
                                        $crate::__wire_key!($label $(, $pkey)?),
                                        payload,
                                        w,
                                    );
                                )?
                            }
                        )*
                    }
                }

                fn slots() -> __Slots {
                    __Slots::__Pending(::std::vec::Vec::new())
                }

                fn offer(
                    slots: &mut __Slots,
                    name: &str,
                    r: &mut $crate::Reader<'_>,
                ) -> ::std::result::Result<bool, $crate::ParseError> {
                    if name == $label_key {
                        if !matches!(slots, __Slots::__Pending(_)) {
                            // The first label wins.
                            r.skip_value()?;
                            return Ok(true);
                        }
                        let chosen = match $crate::wire::shaped($crate::wire::read_str(r))? {
                            Ok(label) => match &*label {
                                $(
                                    $label => __Slots::$variant
                                        $((($(
                                            <_ as $crate::wire::Codec<$ty>>::slot(
                                                &$crate::__wire_codec!(
                                                    $($codec $(($($carg),*))?)?
                                                ),
                                            ),
                                        )*)))?
                                        $((
                                            <_ as $crate::wire::Codec<$pty>>::slot(
                                                &$crate::__wire_codec!(
                                                    $($pcodec $(($($pcarg),*))?)?
                                                ),
                                            )
                                        ))?,
                                )*
                                other => __Slots::__Refused($crate::wire::unknown_label(
                                    Some($label_key),
                                    other,
                                    $name::LABELS,
                                )),
                            },
                            Err(e) => __Slots::__Refused(e.in_field($label_key)),
                        };
                        if let __Slots::__Pending(marks) = ::std::mem::replace(slots, chosen) {
                            for mark in marks {
                                r.reread(mark, |name, r| {
                                    <$name as $crate::wire::Fields>::offer(slots, name, r)
                                })?;
                            }
                        }
                        return Ok(true);
                    }
                    match slots {
                        __Slots::__Pending(marks) => {
                            marks.push(r.mark());
                            Ok(false)
                        }
                        __Slots::__Refused(_) => Ok(false),
                        $(
                            __Slots::$variant
                                $((($($field,)*)))?
                                $(($crate::__wire_bind!(payload, $pty)))? =>
                            {
                                $($(
                                    if <_ as $crate::wire::Codec<$ty>>::offer(
                                        &$crate::__wire_codec!($($codec $(($($carg),*))?)?),
                                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                                        $field,
                                        name,
                                        r,
                                    )? {
                                        return Ok(true);
                                    }
                                )*)?
                                $(
                                    if <_ as $crate::wire::Codec<$pty>>::offer(
                                        &$crate::__wire_codec!($($pcodec $(($($pcarg),*))?)?),
                                        $crate::__wire_key!($label $(, $pkey)?),
                                        payload,
                                        name,
                                        r,
                                    )? {
                                        return Ok(true);
                                    }
                                )?
                                Ok(false)
                            }
                        )*
                    }
                }

                fn finish(
                    slots: &mut __Slots,
                ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                    match slots {
                        __Slots::__Pending(_) => Err($crate::wire::missing($label_key)),
                        __Slots::__Refused(e) => Err(e.clone()),
                        $(
                            __Slots::$variant
                                $((($($field,)*)))?
                                $(($crate::__wire_bind!(payload, $pty)))? =>
                            {
                                Ok($name::$variant
                                    $({$(
                                        $field: <_ as $crate::wire::Codec<$ty>>::finish(
                                            &$crate::__wire_codec!(
                                                $($codec $(($($carg),*))?)?
                                            ),
                                            $crate::__wire_key!(stringify!($field) $(, $key)?),
                                            $field,
                                        )?,
                                    )*})?
                                    $((
                                        <_ as $crate::wire::Codec<$pty>>::finish(
                                            &$crate::__wire_codec!(
                                                $($pcodec $(($($pcarg),*))?)?
                                            ),
                                            $crate::__wire_key!($label $(, $pkey)?),
                                            payload,
                                        )?
                                    ))?
                                )
                            }
                        )*
                    }
                }
            }
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    wire_enum! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Colour {
            Red = "red",
            DarkBlue = "dark-blue",
        }
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Inner {
            colour: Colour,
            weight: Option<f64>,
        }
    }

    wire_tagged! {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape as "kind" {
            "dot" => Dot,
            "box" => Box { w: u64, h: u32 as "height" },
            "nested" => Nested(Inner),
            "beside" => Beside(Inner => Flat),
            "list" => List(Vec<Inner> as "items"),
        }
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Doc {
            name: String,
            at: usize as "offset",
            note: Option<String> => Omit,
            labels: Vec<(String, u64)> => Pairs("k", "v"),
            shape: Shape => Flat,
        }
    }

    fn doc(shape: Shape) -> Doc {
        Doc {
            name: "d".into(),
            at: 3,
            note: None,
            labels: vec![("a".into(), 1)],
            shape,
        }
    }

    fn inner() -> Inner {
        Inner {
            colour: Colour::DarkBlue,
            weight: None,
        }
    }

    #[test]
    fn every_table_form_round_trips_in_declaration_order() {
        let cases = [
            (
                doc(Shape::Dot),
                r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1}],"kind":"dot"}"#,
            ),
            (
                doc(Shape::Box { w: 2, h: 5 }),
                r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1}],"kind":"box","w":2,"height":5}"#,
            ),
            (
                doc(Shape::Nested(inner())),
                r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1}],"kind":"nested","nested":{"colour":"dark-blue","weight":null}}"#,
            ),
            (
                doc(Shape::Beside(inner())),
                r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1}],"kind":"beside","colour":"dark-blue","weight":null}"#,
            ),
            (
                doc(Shape::List(vec![inner()])),
                r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1}],"kind":"list","items":[{"colour":"dark-blue","weight":null}]}"#,
            ),
        ];
        for (value, text) in cases {
            assert_eq!(to_json(&value), text);
            assert_eq!(from_json::<Doc>(text), Ok(value));
        }
        let noted = Doc {
            note: Some("n".into()),
            ..doc(Shape::Dot)
        };
        let text = to_json(&noted);
        assert!(text.contains(r#""offset":3,"note":"n","labels""#), "{text}");
        assert_eq!(from_json::<Doc>(&text), Ok(noted));
    }

    #[test]
    fn enums_enumerate_their_labels() {
        assert_eq!(Colour::ALL, [Colour::Red, Colour::DarkBlue]);
        assert_eq!(Colour::DarkBlue.label(), "dark-blue");
        assert_eq!(Colour::from_label("red"), Some(Colour::Red));
        assert_eq!(Colour::from_label("green"), None);
        assert_eq!(Shape::LABEL_KEY, "kind");
        assert_eq!(Shape::LABELS, ["dot", "box", "nested", "beside", "list"]);
        assert_eq!(Shape::Box { w: 1, h: 1 }.label(), "box");
    }

    #[test]
    fn absent_and_null_options_are_none_but_a_mistyped_one_is_refused() {
        let with =
            |extra: &str| format!(r#"{{"name":"d","offset":3,"labels":[],"kind":"dot"{extra}}}"#);
        assert_eq!(from_json::<Doc>(&with("")).unwrap().note, None);
        assert_eq!(
            from_json::<Doc>(&with(r#","note":null"#)).unwrap().note,
            None
        );
        assert_eq!(
            from_json::<Doc>(&with(r#","note":7"#)).unwrap_err(),
            "note: expected a string"
        );
        let nested =
            r#"{"name":"d","offset":3,"labels":[],"kind":"nested","nested":{"colour":"red"}}"#;
        assert_eq!(
            from_json::<Doc>(nested).unwrap().shape,
            Shape::Nested(Inner {
                colour: Colour::Red,
                weight: None
            })
        );
    }

    #[test]
    fn errors_carry_the_path_to_the_offending_value() {
        let err = |text: &str| from_json::<Doc>(text).unwrap_err();
        assert_eq!(err("[]"), "expected an object");
        assert_eq!(err("{}"), "name: missing field");
        assert_eq!(
            err(r#"{"name":"d","offset":-1}"#),
            "offset: expected a non-negative integer"
        );
        assert_eq!(
            err(r#"{"name":"d","offset":3,"labels":[{"k":"a","v":1},{"k":"b"}]}"#),
            "labels[1].v: missing field"
        );
        assert_eq!(
            err(r#"{"name":"d","offset":3,"labels":[],"kind":"blob"}"#),
            "unknown \"kind\" \"blob\" (expected one of: dot, box, nested, beside, list)"
        );
        assert_eq!(
            err(r#"{"name":"d","offset":3,"labels":[],"kind":"box","w":1,"height":4294967296}"#),
            "height: out of range for u32"
        );
        assert_eq!(
            err(
                r#"{"name":"d","offset":3,"labels":[],"kind":"list","items":[{"colour":"red"},{"colour":"mauve"}]}"#
            ),
            "items[1].colour: unknown value \"mauve\" (expected one of: red, dark-blue)"
        );
        assert_eq!(
            from_json::<Vec<Vec<bool>>>("[[true],[false,1]]").unwrap_err(),
            "[1][1]: expected a boolean"
        );
        assert!(from_json::<Doc>("{nope").unwrap_err().contains("at byte 1"));
    }

    #[test]
    fn keys_come_in_any_order_and_the_first_copy_wins() {
        let text = r#"{"height":5,"w":2,"zz":{"kind":"dot"},"kind":"box","labels":[{"v":1,"k":"a"}],
            "offset":3,"name":"d","w":9,"kind":"dot","name":7}"#;
        assert_eq!(from_json::<Doc>(text), Ok(doc(Shape::Box { w: 2, h: 5 })));
        // A label after its fields that no variant carries is still refused.
        assert_eq!(
            from_json::<Shape>(r#"{"w":1,"kind":"blob"}"#).unwrap_err(),
            "unknown \"kind\" \"blob\" (expected one of: dot, box, nested, beside, list)"
        );
    }

    #[test]
    fn a_syntax_error_beats_an_earlier_shape_error() {
        let err = |text: &str| from_json::<Doc>(text).unwrap_err();
        assert_eq!(err(r#"{"name":7}"#), "name: expected a string");
        assert_eq!(err(r#"{"name":7,"offset":nope}"#), "bad literal at byte 19");
        assert_eq!(err(r#"{"name":7} x"#), "trailing garbage at byte 11");
        assert_eq!(
            decode::<Doc>(r#"[{"name":7}"#),
            Err(DecodeError::Syntax(crate::ParseError {
                offset: 11,
                message: "expected ',' or ']'".into()
            }))
        );
    }

    #[test]
    fn integers_past_u64_are_out_of_range_not_saturated() {
        let err = |text: &str| from_json::<u64>(text).unwrap_err();
        assert_eq!(from_json::<u64>("5.0"), Ok(5));
        assert_eq!(from_json::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(err("18446744073709551616"), "out of range for u64");
        assert_eq!(err("1e30"), "out of range for u64");
        assert_eq!(err("-1"), "expected a non-negative integer");
        assert_eq!(err("0.5"), "expected a non-negative integer");
        assert_eq!(
            from_json::<u32>("1e30").unwrap_err(),
            "out of range for u32"
        );
        assert_eq!(crate::Value::Float(1e30).as_u64(), None);
    }
}
