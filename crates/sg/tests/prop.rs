//! `never_panics` for the DSL: arbitrary text, and the example files with
//! one token damaged, into `parse_topology` and `parse_service_graph`.
//! The answer is a model or a `DslError` with its line — and whatever
//! parses also survives `validate` and a JSON round trip.

use escape_sg::{parse_service_graph, parse_topology, ResourceTopology, ServiceGraph};
use proptest::prelude::*;

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data/");

/// The DSL files shipped as examples.
fn corpus() -> Vec<String> {
    [
        "demo.topo",
        "demo.sg",
        "multidomain.topo",
        "multidomain.sg",
        "scale.sg",
    ]
    .iter()
    .map(|f| std::fs::read_to_string(format!("{DATA}{f}")).expect("an example file"))
    .collect()
}

/// Whitespace-separated words, with the whitespace kept as tokens so the
/// line structure survives; the tokens concatenate back to the text.
fn tokens(doc: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in doc.chars() {
        match out.last_mut() {
            Some(tok) if !c.is_whitespace() && !tok.ends_with(char::is_whitespace) => tok.push(c),
            _ => out.push(c.to_string()),
        }
    }
    out
}

/// What a damaged token is replaced with: keywords in the wrong place,
/// options with missing halves, numbers at and past every boundary.
const POOL: &[&str] = &[
    "",
    " ",
    "\n",
    "#",
    "=",
    "->",
    "chain",
    "vnf",
    "sap",
    "link",
    "switch",
    "container",
    "chain=",
    "= ->",
    "-> ->",
    "cpu=",
    "=4",
    "cpu=-1",
    "cpu=nan",
    "cpu=inf",
    "cpu=1e999",
    "mem=-1",
    "mem=18446744073709551616",
    "bw=1e308",
    "delay=",
    "delay=ms",
    "delay=-5ms",
    "delay=1e30s",
    "delay=18446744073709551615s",
    "rate_bps=x",
    "type=",
    "max_loss=2",
    "\u{0}",
    "é→",
];

fn arb_damaged_doc() -> impl Strategy<Value = String> {
    let docs: Vec<Vec<String>> = corpus().iter().map(|d| tokens(d)).collect();
    (0..docs.len(), any::<u32>(), any::<u32>(), 0..POOL.len() + 3).prop_map(
        move |(doc, at, other, op)| {
            let mut toks = docs[doc].clone();
            let at = at as usize % toks.len();
            match op.checked_sub(POOL.len()) {
                None => toks[at] = POOL[op].to_string(),
                Some(0) => drop(toks.remove(at)),
                Some(1) => toks.insert(at, toks[at].clone()),
                Some(_) => toks[at] = toks[other as usize % toks.len()].clone(),
            }
            toks.concat()
        },
    )
}

/// Lines built from the DSL's own vocabulary in no particular order.
fn arb_dslish_text() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        (0..POOL.len()).prop_map(|i| POOL[i].to_string()),
        "[a-z0-9=>#-]{0,6}".prop_map(|s| s),
        "\\PC{0,4}".prop_map(|s| s),
    ];
    proptest::collection::vec(word, 0..40).prop_map(|words| words.join(" "))
}

/// Both parsers over `text`; what parses is then pushed through every
/// consumer a loaded document meets.
fn parse_everything(text: &str) {
    if let Ok(topo) = parse_topology(text) {
        let _ = topo.validate();
        let _ = ResourceTopology::from_json(&topo.to_json());
    }
    if let Ok(sg) = parse_service_graph(text) {
        let _ = sg.validate();
        let _ = ServiceGraph::from_json(&sg.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dsl_never_panics_on_arbitrary_text(text in arb_dslish_text()) {
        parse_everything(&text);
    }

    #[test]
    fn dsl_never_panics_on_a_damaged_file(text in arb_damaged_doc()) {
        parse_everything(&text);
    }
}

/// The damage above starts from documents that parse.
#[test]
fn the_corpus_itself_parses() {
    let docs = corpus();
    assert_eq!(docs.iter().filter(|d| parse_topology(d).is_ok()).count(), 2);
    let graphs = docs.iter().filter(|d| parse_service_graph(d).is_ok());
    assert_eq!(graphs.count(), 3);
    for d in &docs {
        assert_eq!(tokens(d).concat(), *d);
    }
}
