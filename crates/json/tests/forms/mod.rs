//! Five texts of one JSON document that a typed decode must read as the
//! same value: compact, pretty, every object's keys permuted, padded
//! with unknown keys, and one key repeated after itself with another
//! value (the first copy wins). Shared by the wire layer's own property
//! test and the control plane's corpus test (`#[path]`-included there).

use escape_json::Value;
use escape_witness::SplitMix64;

type Fields = Vec<(String, Value)>;

/// Rebuilds `v` bottom-up, handing every object's fields to `f`.
fn each_object(v: &Value, f: &mut dyn FnMut(&mut Fields)) -> Value {
    match v {
        Value::Obj(fields) => {
            let mut fields: Fields = fields
                .iter()
                .map(|(k, x)| (k.clone(), each_object(x, f)))
                .collect();
            f(&mut fields);
            Value::Obj(fields)
        }
        Value::Arr(items) => Value::Arr(items.iter().map(|x| each_object(x, f)).collect()),
        other => other.clone(),
    }
}

/// Values an unknown key may hold: every kind, nested ones with keys
/// the documents use as discriminators, and an escaped string.
fn padding(rng: &mut SplitMix64) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::from(-7.5),
        2 => Value::from("a \"quoted\"\nline"),
        3 => Value::parse(r#"[1, {"kind": "status", "verb": [true]}, []]"#).expect("JSON"),
        _ => Value::parse(r#"{"rec": "meta", "event": {"code": null}}"#).expect("JSON"),
    }
}

/// A value of another kind than `v`, for the repeated key.
fn other_than(v: &Value) -> Value {
    match v {
        Value::Str(_) => Value::from(7u64),
        _ => Value::from("second"),
    }
}

/// The five forms of `doc`, named, drawn with `seed`.
pub fn forms(doc: &Value, seed: u64) -> Vec<(&'static str, String)> {
    let mut rng = SplitMix64(seed);
    let permuted = each_object(doc, &mut |fields| {
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i + 1));
        }
    });
    let mut pads = 0;
    let padded = each_object(doc, &mut |fields| {
        if rng.below(2) == 0 {
            pads += 1;
            let at = rng.below(fields.len() + 1);
            fields.insert(at, (format!("x-pad-{pads}"), padding(&mut rng)));
        }
    });
    let mut objects = 0;
    each_object(doc, &mut |fields| {
        objects += usize::from(!fields.is_empty())
    });
    let mut pick = rng.below(objects.max(1));
    let duplicated = each_object(doc, &mut |fields| {
        if fields.is_empty() {
            return;
        }
        if pick == 0 {
            let (key, first) = fields[rng.below(fields.len())].clone();
            let after = fields.iter().position(|(k, _)| *k == key).expect("the key") + 1;
            let at = after + rng.below(fields.len() - after + 1);
            fields.insert(at, (key, other_than(&first)));
        }
        pick = pick.wrapping_sub(1);
    });
    vec![
        ("compact", doc.to_string()),
        ("pretty", doc.to_string_pretty()),
        ("permuted", permuted.to_string()),
        ("padded", padded.to_string()),
        ("duplicated", duplicated.to_string()),
    ]
}
