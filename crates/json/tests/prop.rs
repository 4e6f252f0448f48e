//! Property tests for the JSON codec: strings and whole documents
//! survive encode → parse whatever they contain, in compact and pretty
//! output, the parser never panics, string parsing is linear in the
//! length of the string, and a table type reads back from every form of
//! its text.

use escape_json::wire::{from_json, to_json, Flat, Omit, Pairs};
use escape_json::{wire_enum, wire_struct, wire_tagged, Value, Writer};
use proptest::prelude::*;
use std::time::{Duration, Instant};

mod forms;

/// Any Unicode scalar, weighted towards what the codec treats specially:
/// control characters (escaped as `\u00XX` or a short escape), the quote
/// and the backslash, and multi-byte sequences.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just('"' as u32),
        Just('\\' as u32),
        0x20u32..0x7f,
        0x7fu32..0xd800,
        0xe000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("ranges exclude surrogates"))
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
}

/// Floats the printer treats specially — both zeros, the extremes, the
/// non-finite ones it writes as `null` — and arbitrary bit patterns.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1e300),
        Just(-1e-300),
        Just(5e-324),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -1e6f64..1e6,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Floats around the edges of `Writer::float`'s integral fast path:
/// integers near ±2^53 (where `f64` stops holding every integer) and
/// near ±10^16 (where `{:?}` turns to exponents), any integer that
/// fits, subnormals, both zeros and arbitrary bit patterns.
fn arb_float_edge() -> impl Strategy<Value = f64> {
    let magnitude = prop_oneof![
        Just(0.0),
        Just(9_999_999_999_999_998.0),
        Just(1e16),
        ((1u64 << 53) - 4_096..(1u64 << 53) + 4_096).prop_map(|u| u as f64),
        (9_999_999_999_990_000u64..10_000_000_000_010_000).prop_map(|u| u as f64),
        any::<u64>().prop_map(|u| u as f64),
        any::<u32>().prop_map(f64::from),
        (1u64..1 << 52).prop_map(f64::from_bits),
        any::<u64>().prop_map(f64::from_bits),
    ];
    (magnitude, any::<bool>()).prop_map(|(f, negative)| if negative { -f } else { f })
}

/// Any document: every scalar kind (`u64` above `i64::MAX` among them)
/// under arrays and objects nested four deep, empty ones included.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        ((1u64 << 63)..=u64::MAX).prop_map(Value::UInt),
        arb_float().prop_map(Value::Float),
        arb_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            inner.clone(),
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Arr),
            prop::collection::vec((arb_string(), inner), 0..6).prop_map(Value::Obj),
        ]
    })
}

/// What `v` reads back as: JSON has no NaN or infinity, so non-finite
/// floats are written, and read, as `null`.
fn printable(v: &Value) -> Value {
    match v {
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Arr(items) => Value::Arr(items.iter().map(printable).collect()),
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), printable(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Bytes that look enough like JSON to get past the first token.
fn arb_jsonish_byte() -> impl Strategy<Value = u8> {
    const STRUCTURAL: &[u8] = b"{}[]\",:\\u0123456789abcdeftrnl-+.E \n";
    prop_oneof![
        any::<u8>(),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(s in arb_string()) {
        let compact = Value::Str(s.clone()).to_string();
        prop_assert_eq!(Value::parse(&compact), Ok(Value::Str(s.clone())));
        // As an object key and inside pretty output too.
        let doc = Value::obj().set(&s, vec![s.as_str()]);
        prop_assert_eq!(Value::parse(&doc.to_string_pretty()), Ok(doc));
    }

    /// Every scalar written as UTF-16 `\uXXXX` escapes (a surrogate
    /// pair above the BMP) parses to itself, alone and between literal
    /// runs, in either case of hex digit.
    #[test]
    fn unicode_escapes_decode(s in arb_string()) {
        let lower: String = s.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
        let upper: String = s.encode_utf16().map(|u| format!("\\u{u:04X}")).collect();
        for escaped in [lower, upper] {
            prop_assert_eq!(
                Value::parse(&format!("\"{escaped}\"")),
                Ok(Value::Str(s.clone()))
            );
            prop_assert_eq!(
                Value::parse(&format!("\"é{escaped}→\"")),
                Ok(Value::Str(format!("é{s}→")))
            );
        }
    }

    /// Any document re-parses from both renderings, and the two
    /// renderings differ only in whitespace outside strings.
    #[test]
    fn documents_round_trip_compact_and_pretty(v in arb_value()) {
        let expected = printable(&v);
        let compact = v.to_string();
        let pretty = v.to_string_pretty();
        prop_assert!(!compact.contains('\n'), "{}", compact);
        prop_assert_eq!(Value::parse(&compact), Ok(expected.clone()));
        prop_assert_eq!(Value::parse(&pretty), Ok(expected.clone()));
        prop_assert_eq!(Value::parse(&pretty).map(|p| p.to_string()), Ok(compact));
    }

    /// The writer prints a float exactly as `{:?}` does.
    #[test]
    fn floats_print_as_debug_does(f in arb_float_edge()) {
        let mut w = Writer::compact();
        w.float(f);
        let want = if f.is_finite() { format!("{f:?}") } else { "null".into() };
        prop_assert_eq!(w.finish(), want, "bits {:#x}", f.to_bits());
    }

    #[test]
    fn parse_never_panics(bytes in prop::collection::vec(arb_jsonish_byte(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = Value::parse_detailed(&text) {
            prop_assert!(e.offset <= text.len(), "offset {} past the input", e.offset);
        }
    }
}

// Every form a table can take: the same types the wire layer's unit
// tests declare.

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

fn arb_inner() -> impl Strategy<Value = Inner> {
    let colour = prop_oneof![Just(Colour::Red), Just(Colour::DarkBlue)];
    (colour, proptest::option::of(-1e6f64..1e6))
        .prop_map(|(colour, weight)| Inner { colour, weight })
}

fn arb_doc() -> impl Strategy<Value = Doc> {
    let shape = prop_oneof![
        Just(Shape::Dot),
        (any::<u64>(), any::<u32>()).prop_map(|(w, h)| Shape::Box { w, h }),
        arb_inner().prop_map(Shape::Nested),
        arb_inner().prop_map(Shape::Beside),
        prop::collection::vec(arb_inner(), 0..4).prop_map(Shape::List),
    ];
    let labels = prop::collection::vec((arb_string(), any::<u64>()), 0..4);
    (
        arb_string(),
        any::<u32>(),
        proptest::option::of(arb_string()),
        labels,
        shape,
    )
        .prop_map(|(name, at, note, labels, shape)| Doc {
            name,
            at: at as usize,
            note,
            labels,
            shape,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact, pretty, keys permuted (the discriminator among them),
    /// padded with unknown keys, one key repeated: the same value.
    #[test]
    fn a_table_reads_back_from_every_form(doc in arb_doc(), seed in any::<u64>()) {
        let tree = Value::parse(&to_json(&doc)).expect("the writer writes JSON");
        for (form, text) in forms::forms(&tree, seed) {
            prop_assert_eq!(from_json::<Doc>(&text), Ok(doc.clone()), "{}: {}", form, text);
        }
    }
}

/// Fastest of five parses of a document that is one string of `len`
/// bytes, a quarter of them in multi-byte characters, with an escape
/// every 1 kB.
fn parse_time(len: usize) -> Duration {
    let unit = format!("{}é→\\n", "x".repeat(1018));
    let doc = format!("\"{}\"", unit.repeat(len / unit.len()));
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let v = Value::parse(std::hint::black_box(&doc)).expect("parses");
            let took = start.elapsed();
            assert!(v.as_str().is_some_and(|s| s.len() > len / 2));
            took
        })
        .min()
        .expect("five runs")
}

/// A 16× longer string may take 16× as long — not the 250× it took when
/// every character re-validated the rest of the document.
#[test]
fn string_parsing_is_linear_in_its_length() {
    let small = parse_time(64 << 10);
    let large = parse_time(1 << 20);
    assert!(
        large < small * 40,
        "64 kB string: {small:?}, 1 MB string: {large:?}"
    );
}
