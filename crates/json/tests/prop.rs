//! Property tests for the JSON codec: strings survive encode → parse
//! whatever they contain, the parser never panics, and string parsing
//! is linear in the length of the string.

use escape_json::Value;
use proptest::prelude::*;
use std::time::{Duration, Instant};

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

    /// Every BMP scalar written as a `\uXXXX` escape parses to itself,
    /// alone and between literal runs.
    #[test]
    fn unicode_escapes_decode(s in arb_string()) {
        let bmp: String = s.chars().filter(|c| (*c as u32) < 0x1_0000).collect();
        let escaped: String = bmp.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
        prop_assert_eq!(
            Value::parse(&format!("\"{escaped}\"")),
            Ok(Value::Str(bmp.clone()))
        );
        prop_assert_eq!(
            Value::parse(&format!("\"é{escaped}→\"")),
            Ok(Value::Str(format!("é{bmp}→")))
        );
    }

    #[test]
    fn parse_never_panics(bytes in prop::collection::vec(arb_jsonish_byte(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = Value::parse_detailed(&text) {
            prop_assert!(e.offset <= text.len(), "offset {} past the input", e.offset);
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
