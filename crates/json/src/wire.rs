//! The wire layer: every JSON document type in the workspace declares
//! its shape once, and encode and decode are both read off that one
//! declaration.
//!
//! A type that travels as JSON implements [`Wire`]. The scalar and
//! container impls live here; message types get theirs from one of
//! three declaration macros, each of which *defines* the type and its
//! codec from the same field list, so a wire key is written once:
//!
//! * [`wire_struct!`](crate::wire_struct) — a struct that is an object;
//! * [`wire_enum!`](crate::wire_enum) — a C-like enum that is a string;
//! * [`wire_tagged!`](crate::wire_tagged) — an enum that is an object
//!   with a discriminator key.
//!
//! A field's key defaults to its name (`as "key"` renames it) and its
//! encoding to [`Plain`]; `=> codec` picks another [`Codec`] for the
//! formats' standing quirks ([`Omit`], [`Pairs`], [`Flat`]). Decoding
//! fails with a [`WireError`] that carries the path to the offending
//! value: `events[3].loss: expected a number`.

use crate::Value;

/// The fields of a JSON object under construction, in wire order.
pub type Obj = Vec<(String, Value)>;

/// A document of the wrong shape: what is wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Path from the document root to the offending value, e.g.
    /// `events[3].loss`; empty when the root itself is wrong.
    pub path: String,
    pub message: String,
}

impl WireError {
    pub fn new(message: impl Into<String>) -> WireError {
        WireError {
            path: String::new(),
            message: message.into(),
        }
    }

    fn under(mut self, step: std::fmt::Arguments<'_>) -> WireError {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{step}{dot}{}", self.path);
        self
    }

    /// The error, seen from the object whose field `key` it is in.
    pub fn in_field(self, key: &str) -> WireError {
        self.under(format_args!("{key}"))
    }

    /// The error, seen from the array whose element `index` it is in.
    pub fn in_item(self, index: usize) -> WireError {
        self.under(format_args!("[{index}]"))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// A type with one JSON form.
pub trait Wire: Sized {
    fn to_value(&self) -> Value;

    fn from_value(v: &Value) -> Result<Self, WireError>;

    /// What an absent key decodes to. Only `Option` has an answer
    /// (`None`); for everything else an absent key is an error.
    fn absent() -> Option<Self> {
        None
    }
}

/// A type whose JSON form is an object. The declaration macros
/// implement this; [`Wire`] follows from it, and so does flattening one
/// object's keys into another's ([`Flat`]).
pub trait Fields: Sized {
    fn put_fields(&self, out: &mut Obj);

    fn take_fields(obj: &Value) -> Result<Self, WireError>;
}

impl<T: Fields> Wire for T {
    fn to_value(&self) -> Value {
        let mut out = Vec::new();
        self.put_fields(&mut out);
        Value::Obj(out)
    }

    fn from_value(v: &Value) -> Result<T, WireError> {
        match v {
            Value::Obj(_) => T::take_fields(v),
            _ => Err(WireError::new("expected an object")),
        }
    }
}

impl Wire for u64 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }

    fn from_value(v: &Value) -> Result<u64, WireError> {
        v.as_u64()
            .ok_or_else(|| WireError::new("expected a non-negative integer"))
    }
}

/// The narrower unsigned integers travel as `u64` and are range-checked
/// coming back.
macro_rules! wire_narrow_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn to_value(&self) -> Value {
                Value::from(*self as u64)
            }

            fn from_value(v: &Value) -> Result<$ty, WireError> {
                <$ty>::try_from(u64::from_value(v)?)
                    .map_err(|_| WireError::new(concat!("out of range for ", stringify!($ty))))
            }
        }
    )*};
}
wire_narrow_uint!(u32, usize);

impl Wire for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    fn from_value(v: &Value) -> Result<f64, WireError> {
        v.as_f64()
            .ok_or_else(|| WireError::new("expected a number"))
    }
}

impl Wire for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_value(v: &Value) -> Result<bool, WireError> {
        v.as_bool()
            .ok_or_else(|| WireError::new("expected a boolean"))
    }
}

impl Wire for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_value(v: &Value) -> Result<String, WireError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| WireError::new("expected a string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_value).collect())
    }

    fn from_value(v: &Value) -> Result<Vec<T>, WireError> {
        decode_items(v, T::from_value)
    }
}

/// `None` is `null`; an absent key also reads as `None`.
impl<T: Wire> Wire for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }

    fn from_value(v: &Value) -> Result<Option<T>, WireError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

/// Decodes every element of an array, naming the index of the first
/// one that fails.
pub fn decode_items<T>(
    v: &Value,
    item: impl Fn(&Value) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    v.as_arr()
        .ok_or_else(|| WireError::new("expected an array"))?
        .iter()
        .enumerate()
        .map(|(i, x)| item(x).map_err(|e| e.in_item(i)))
        .collect()
}

fn missing(key: &str) -> WireError {
    WireError::new("missing field").in_field(key)
}

/// The string under an enum's discriminator `key`.
pub fn label_of<'v>(obj: &'v Value, key: &str) -> Result<&'v str, WireError> {
    obj.get(key)
        .ok_or_else(|| missing(key))?
        .as_str()
        .ok_or_else(|| WireError::new("expected a string").in_field(key))
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

/// How one field of a table sits in its object. A table names a codec
/// per field (`=> codec`); without one the field is [`Plain`].
pub trait Codec<T> {
    fn put(&self, key: &str, field: &T, out: &mut Obj);

    fn take(&self, key: &str, obj: &Value) -> Result<T, WireError>;
}

/// The field's own [`Wire`] form under `key`, always written. An
/// `Option` writes `null` for `None` and reads an absent key as `None`.
pub struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn put(&self, key: &str, field: &T, out: &mut Obj) {
        out.push((key.to_string(), field.to_value()));
    }

    fn take(&self, key: &str, obj: &Value) -> Result<T, WireError> {
        match obj.get(key) {
            Some(v) => T::from_value(v).map_err(|e| e.in_field(key)),
            None => T::absent().ok_or_else(|| missing(key)),
        }
    }
}

/// An `Option` whose key is left out when it is `None` (where [`Plain`]
/// writes `null`). Reading is the same: absent and `null` are `None`,
/// anything else must decode.
pub struct Omit;

impl<T: Wire> Codec<Option<T>> for Omit {
    fn put(&self, key: &str, field: &Option<T>, out: &mut Obj) {
        if let Some(x) = field {
            out.push((key.to_string(), x.to_value()));
        }
    }

    fn take(&self, key: &str, obj: &Value) -> Result<Option<T>, WireError> {
        Plain.take(key, obj)
    }
}

/// A list of pairs as a list of two-key objects, the key names given
/// per site: `Pairs("vnf", "container")` is
/// `[{"vnf": …, "container": …}, …]`.
pub struct Pairs(pub &'static str, pub &'static str);

impl<A: Wire, B: Wire> Codec<Vec<(A, B)>> for Pairs {
    fn put(&self, key: &str, field: &Vec<(A, B)>, out: &mut Obj) {
        let items = field
            .iter()
            .map(|(a, b)| {
                Value::Obj(vec![
                    (self.0.to_string(), a.to_value()),
                    (self.1.to_string(), b.to_value()),
                ])
            })
            .collect();
        out.push((key.to_string(), Value::Arr(items)));
    }

    fn take(&self, key: &str, obj: &Value) -> Result<Vec<(A, B)>, WireError> {
        decode_items(obj.get(key).ok_or_else(|| missing(key))?, |item| {
            Ok((Plain.take(self.0, item)?, Plain.take(self.1, item)?))
        })
        .map_err(|e| e.in_field(key))
    }
}

/// An object-shaped field whose keys sit *beside* its siblings instead
/// of under a key of their own (the field's key is not used).
pub struct Flat;

impl<T: Fields> Codec<T> for Flat {
    fn put(&self, _key: &str, field: &T, out: &mut Obj) {
        field.put_fields(out);
    }

    fn take(&self, _key: &str, obj: &Value) -> Result<T, WireError> {
        T::take_fields(obj)
    }
}

/// Parses `src` and decodes it as a `T`; both failures as text, the way
/// the file-format loaders report them.
pub fn from_json<T: Wire>(src: &str) -> Result<T, String> {
    Ok(T::from_value(&Value::parse(src)?)?)
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

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_codec {
    () => {
        $crate::wire::Plain
    };
    ($codec:expr) => {
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
/// escape_json::wire_struct! {
///     #[derive(Debug, PartialEq)]
///     pub struct Hop {
///         pub node: String,
///         pub delay_us: u64 as "delay",
///         pub note: Option<String> => escape_json::wire::Omit,
///     }
/// }
/// use escape_json::wire::Wire;
/// let hop = Hop { node: "s0".into(), delay_us: 50, note: None };
/// assert_eq!(hop.to_value().to_string(), r#"{"node":"s0","delay":50}"#);
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $key:literal)? $(=> $codec:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::Fields for $name {
            fn put_fields(&self, out: &mut $crate::wire::Obj) {
                $(
                    <_ as $crate::wire::Codec<$ty>>::put(
                        &$crate::__wire_codec!($($codec)?),
                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                        &self.$field,
                        out,
                    );
                )*
            }

            fn take_fields(
                obj: &$crate::Value,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $(
                        $field: <_ as $crate::wire::Codec<$ty>>::take(
                            &$crate::__wire_codec!($($codec)?),
                            $crate::__wire_key!(stringify!($field) $(, $key)?),
                            obj,
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
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Str(self.label().to_string())
            }

            fn from_value(
                v: &$crate::Value,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                let label = v
                    .as_str()
                    .ok_or_else(|| $crate::wire::WireError::new("expected a string"))?;
                $name::from_label(label)
                    .ok_or_else(|| $crate::wire::unknown_label(None, label, &[$($label),*]))
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
/// use escape_json::wire::Wire;
/// assert_eq!(Shape::Dot.to_value().to_string(), r#"{"kind":"dot"}"#);
/// assert_eq!(
///     Shape::Path(vec![1, 2]).to_value().to_string(),
///     r#"{"kind":"path","points":[1,2]}"#
/// );
/// assert_eq!(Shape::LABELS, ["dot", "box", "path"]);
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
                        $field:ident : $ty:ty $(as $key:literal)? $(=> $codec:expr)?
                    ),* $(,)?
                })?
                $(( $pty:ty $(as $pkey:literal)? $(=> $pcodec:expr)? ))?
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

        impl $crate::wire::Fields for $name {
            fn put_fields(&self, out: &mut $crate::wire::Obj) {
                out.push((
                    $label_key.to_string(),
                    $crate::Value::Str(self.label().to_string()),
                ));
                match self {
                    $(
                        $name::$variant
                            $({ $($field),* })?
                            $({ 0: $crate::__wire_bind!(payload, $pty) })? =>
                        {
                            $($(
                                <_ as $crate::wire::Codec<$ty>>::put(
                                    &$crate::__wire_codec!($($codec)?),
                                    $crate::__wire_key!(stringify!($field) $(, $key)?),
                                    $field,
                                    out,
                                );
                            )*)?
                            $(
                                <_ as $crate::wire::Codec<$pty>>::put(
                                    &$crate::__wire_codec!($($pcodec)?),
                                    $crate::__wire_key!($label $(, $pkey)?),
                                    payload,
                                    out,
                                );
                            )?
                        }
                    )*
                }
            }

            fn take_fields(
                obj: &$crate::Value,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                match $crate::wire::label_of(obj, $label_key)? {
                    $(
                        $label => Ok($name::$variant
                            $({
                                $(
                                    $field: <_ as $crate::wire::Codec<$ty>>::take(
                                        &$crate::__wire_codec!($($codec)?),
                                        $crate::__wire_key!(stringify!($field) $(, $key)?),
                                        obj,
                                    )?,
                                )*
                            })?
                            $((
                                <_ as $crate::wire::Codec<$pty>>::take(
                                    &$crate::__wire_codec!($($pcodec)?),
                                    $crate::__wire_key!($label $(, $pkey)?),
                                    obj,
                                )?
                            ))?
                        ),
                    )*
                    other => Err($crate::wire::unknown_label(
                        Some($label_key),
                        other,
                        $name::LABELS,
                    )),
                }
            }
        }
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
            assert_eq!(value.to_value().to_string(), text);
            assert_eq!(from_json::<Doc>(text), Ok(value));
        }
        let noted = Doc {
            note: Some("n".into()),
            ..doc(Shape::Dot)
        };
        let text = noted.to_value().to_string();
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
}
