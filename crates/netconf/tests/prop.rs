//! Property tests for NETCONF: XML round trips, framing reassembly under
//! arbitrary splits, envelope round trips, backoff schedule invariants,
//! and `never_panics` for the parser and both session ends under
//! arbitrary bytes and single-token damage of a valid dialogue.

use escape_netconf::agent::{Agent, VnfInstrumentation, VnfStatusInfo};
use escape_netconf::client::Client;
use escape_netconf::framing::Framer;
use escape_netconf::message::{Rpc, RpcReply};
use escape_netconf::retry::RetryPolicy;
use escape_netconf::xml::{escape, XmlElement};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,10}".prop_map(|s| s)
}

fn arb_text() -> impl Strategy<Value = String> {
    // Any printable content; entities must round-trip.
    "[ -~]{0,30}".prop_map(|s| s.trim().to_string())
}

fn arb_xml() -> impl Strategy<Value = XmlElement> {
    let leaf = (
        arb_name(),
        arb_text(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
    )
        .prop_map(|(name, text, attrs)| {
            let mut el = XmlElement::text_node(name, text);
            // Attribute keys must be unique for round-trip equality.
            let mut seen = std::collections::BTreeSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    el.attrs.push((k, v));
                }
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (arb_name(), proptest::collection::vec(inner, 0..4)).prop_map(|(name, children)| {
            let mut el = XmlElement::new(name);
            if children.is_empty() {
                el.text = "x".into();
            }
            el.children = children;
            el.text = if el.children.is_empty() {
                el.text
            } else {
                String::new()
            };
            el
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xml_roundtrip(el in arb_xml()) {
        let text = el.to_xml();
        let back = XmlElement::parse(&text).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn xml_parser_never_panics(src in "\\PC{0,300}") {
        let _ = XmlElement::parse(&src);
    }

    #[test]
    fn escape_roundtrips_through_parse(text in "[ -~]{0,60}") {
        let doc = format!("<t>{}</t>", escape(&text));
        let el = XmlElement::parse(&doc).unwrap();
        prop_assert_eq!(el.text, text.trim());
    }

    /// Framer reassembles messages regardless of how the byte stream is
    /// split into feeds.
    #[test]
    fn framer_reassembles_any_split(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..6),
        cuts in proptest::collection::vec(1usize..20, 0..30),
    ) {
        // Messages must not contain the EOM marker themselves.
        let msgs: Vec<Vec<u8>> = msgs
            .into_iter()
            .map(|m| m.into_iter().filter(|&b| b != b']').collect())
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(Framer::frame(m));
        }
        let mut f = Framer::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cuts = cuts.into_iter();
        while pos < wire.len() {
            let step = cuts.next().unwrap_or(7).min(wire.len() - pos);
            got.extend(f.feed(&wire[pos..pos + step]));
            pos += step;
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(f.pending(), 0);
    }

    #[test]
    fn rpc_envelope_roundtrip(id in any::<u64>(), op in arb_xml()) {
        let rpc = Rpc::new(id, op);
        let text = rpc.to_xml().to_xml();
        let back = Rpc::from_xml(&XmlElement::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, rpc);
    }

    #[test]
    fn reply_roundtrip(id in any::<u64>(), data in proptest::collection::vec(arb_xml(), 0..3)) {
        // `ok` and `rpc-error` element names are reserved by the reply
        // parser; rename any children that collide.
        let data: Vec<XmlElement> = data
            .into_iter()
            .map(|mut e| {
                if e.name == "ok" || e.name == "rpc-error" {
                    e.name = format!("x{}", e.name);
                }
                e
            })
            .collect();
        let reply = RpcReply::data(id, data);
        let text = reply.to_xml().to_xml();
        let back = RpcReply::from_xml(&XmlElement::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, reply);
    }

    /// Backoff schedules are monotone non-decreasing: later retries never
    /// wait less than earlier ones, jitter notwithstanding.
    #[test]
    fn backoff_is_monotone_non_decreasing(
        base in 1u64..1_000_000,
        cap_mult in 1u64..1_000,
        jitter in 0.0f64..1.0,
        retries in 1u32..40,
        seed in any::<u64>(),
    ) {
        let p = RetryPolicy::new(base, base.saturating_mul(cap_mult), jitter, retries, seed);
        let s = p.schedule();
        prop_assert_eq!(s.len(), retries as usize);
        prop_assert!(s.windows(2).all(|w| w[0] <= w[1]), "not monotone: {:?}", s);
    }

    /// Every delay respects the cap, and jitter only stretches upward by
    /// at most the jitter fraction of the raw exponential delay.
    #[test]
    fn backoff_is_capped_with_bounded_jitter(
        base in 1u64..1_000_000,
        cap_mult in 1u64..1_000,
        jitter in 0.0f64..1.0,
        attempt in 0u32..80,
        seed in any::<u64>(),
    ) {
        let p = RetryPolicy::new(base, base.saturating_mul(cap_mult), jitter, 4, seed);
        let raw = p.raw_delay_ns(attempt);
        let d = p.delay_ns(attempt);
        prop_assert!(d <= p.max_ns, "delay {d} above cap {}", p.max_ns);
        prop_assert!(d >= raw.min(p.max_ns), "jitter shrank the delay");
        let ceiling = raw.saturating_add((raw as f64 * p.jitter).ceil() as u64).min(p.max_ns);
        prop_assert!(d <= ceiling, "delay {d} above jitter ceiling {ceiling}");
    }

    /// The schedule is a pure function of the policy: same parameters,
    /// same delays — the determinism guard for recovery runs.
    #[test]
    fn backoff_is_deterministic_per_seed(
        base in 1u64..1_000_000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mk = || RetryPolicy::new(base, base * 8, jitter, 6, seed).schedule();
        prop_assert_eq!(mk(), mk());
    }

    /// Seeds only shake delays within the jitter band: the raw
    /// exponential schedule is seed-free, any two seeds' delays differ
    /// by at most the jitter fraction of the raw delay (cap
    /// notwithstanding), and with zero jitter every seed agrees exactly.
    /// This is what makes backoff tunable per-environment without
    /// breaking cross-seed comparability of soak/chaos runs.
    #[test]
    fn backoff_seed_divergence_is_bounded_by_jitter(
        base in 1u64..1_000_000,
        cap_mult in 1u64..1_000,
        jitter in 0.0f64..1.0,
        retries in 1u32..20,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let cap = base.saturating_mul(cap_mult);
        let a = RetryPolicy::new(base, cap, jitter, retries, seed_a);
        let b = RetryPolicy::new(base, cap, jitter, retries, seed_b);
        for attempt in 0..retries {
            let raw = a.raw_delay_ns(attempt);
            prop_assert_eq!(raw, b.raw_delay_ns(attempt), "raw schedule must be seed-free");
            let band = (raw as f64 * jitter).ceil() as u64;
            let (da, db) = (a.delay_ns(attempt), b.delay_ns(attempt));
            prop_assert!(
                da.abs_diff(db) <= band,
                "attempt {}: seeds diverge by {} > jitter band {}",
                attempt, da.abs_diff(db), band
            );
            prop_assert!(da <= a.max_ns && db <= b.max_ns, "cap still binds under any seed");
        }
        let zero_a = RetryPolicy::new(base, cap, 0.0, retries, seed_a).schedule();
        let zero_b = RetryPolicy::new(base, cap, 0.0, retries, seed_b).schedule();
        prop_assert_eq!(zero_a, zero_b, "zero jitter must erase the seed entirely");
    }
}

// ---------------------------------------------------------------------
// Decoders never panic
// ---------------------------------------------------------------------

/// Instrumentation that says yes to everything.
struct Yes;

impl VnfInstrumentation for Yes {
    fn initiate(
        &mut self,
        _vnf_type: &str,
        _click_config: Option<&str>,
        _options: &[(String, String)],
    ) -> Result<String, String> {
        Ok("vnf1".into())
    }
    fn start(&mut self, _vnf_id: &str) -> Result<(), String> {
        Ok(())
    }
    fn stop(&mut self, _vnf_id: &str) -> Result<(), String> {
        Ok(())
    }
    fn connect(&mut self, _vnf_id: &str, vnf_port: u16, _switch_id: &str) -> Result<u16, String> {
        Ok(vnf_port)
    }
    fn disconnect(&mut self, _vnf_id: &str, _vnf_port: u16) -> Result<(), String> {
        Ok(())
    }
    fn info(&self, _vnf_id: Option<&str>) -> Vec<VnfStatusInfo> {
        vec![VnfStatusInfo {
            id: "vnf1".into(),
            vnf_type: "firewall".into(),
            status: "running".into(),
            ports: vec![(0, "s1".into())],
            handlers: vec![("fw.passed".into(), "12".into())],
        }]
    }
}

/// One valid dialogue: every message the client sends and every message
/// the agent answers with, unframed XML text in order.
fn dialogue() -> (Vec<String>, Vec<String>) {
    let mut client = Client::new();
    let mut agent = Agent::new(7, Yes);
    let options = [("rate_bps".to_string(), "20000000".to_string())];
    let requests = [
        client.start(),
        client.initiate_vnf("firewall", None, &options).1,
        client.connect_vnf("vnf1", 0, "s1").1,
        client.start_vnf("vnf1").1,
        client.get_vnf_info(Some("vnf1")).1,
        client.stop_vnf("vnf1").1,
        client.close().1,
    ];
    let mut replies = vec![agent.start()];
    replies.extend(requests.iter().map(|r| agent.on_bytes(r)));
    let unframe = |wire: &Vec<u8>| -> Vec<String> {
        let mut framer = Framer::new();
        let msgs = framer.feed(wire);
        assert_eq!(framer.pending(), 0, "the dialogue is whole frames");
        msgs.into_iter()
            .map(|m| String::from_utf8(m).expect("the dialogue is UTF-8"))
            .collect()
    };
    let requests: Vec<String> = requests.iter().flat_map(unframe).collect();
    let replies: Vec<String> = replies.iter().flat_map(unframe).collect();
    assert_eq!(requests.len(), 7);
    assert_eq!(replies.len(), 7, "every request was answered");
    (requests, replies)
}

/// Splits XML text into markup characters, quoted strings and runs of
/// everything else; the tokens concatenate back to the text.
fn xml_tokens(doc: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut chars = doc.chars().peekable();
    while let Some(c) = chars.next() {
        let mut tok = String::from(c);
        if c == '"' {
            for c in chars.by_ref() {
                tok.push(c);
                if c == '"' {
                    break;
                }
            }
        } else if !"<>/=".contains(c) && !c.is_whitespace() {
            while let Some(c) = chars.next_if(|c| !"<>/=\"".contains(*c) && !c.is_whitespace()) {
                tok.push(c);
            }
        }
        out.push(tok);
    }
    out
}

/// What a damaged token is replaced with: loose markup, entities, the
/// names the session layer looks for, numbers at the integer boundaries
/// and the frame delimiter itself.
const XML_POOL: &[&str] = &[
    "<",
    ">",
    "/",
    "=",
    "\"",
    "'",
    "&",
    "&amp;",
    "&#x;",
    "&#99999999;",
    "<!--",
    "<?",
    "<![CDATA[",
    "rpc",
    "rpc-reply",
    "hello",
    "ok",
    "rpc-error",
    "message-id",
    "session-id",
    "capability",
    "-1",
    "18446744073709551616",
    "",
    " ",
    "\u{0}",
    "]]>]]>",
];

/// One message of `msgs` with one token replaced, deleted, doubled or
/// swapped for another of its own.
fn arb_damaged(msgs: Vec<String>) -> impl Strategy<Value = String> {
    let docs: Vec<Vec<String>> = msgs.iter().map(|d| xml_tokens(d)).collect();
    (
        0..docs.len(),
        any::<u32>(),
        any::<u32>(),
        0..XML_POOL.len() + 3,
    )
        .prop_map(move |(doc, at, other, op)| {
            let mut toks = docs[doc].clone();
            let at = at as usize % toks.len();
            match op.checked_sub(XML_POOL.len()) {
                None => toks[at] = XML_POOL[op].to_string(),
                Some(0) => drop(toks.remove(at)),
                Some(1) => toks.insert(at, toks[at].clone()),
                Some(_) => toks[at] = toks[other as usize % toks.len()].clone(),
            }
            toks.concat()
        })
}

/// Bytes that look enough like XML to get past the first character.
fn arb_xmlish_bytes() -> impl Strategy<Value = Vec<u8>> {
    const MARKUP: &[u8] = b"<>/=\"'&;#! ?-[]abcrpxmlns:0123456789\n";
    let byte = prop_oneof![
        any::<u8>(),
        (0..MARKUP.len()).prop_map(|i| MARKUP[i]),
        (0..MARKUP.len()).prop_map(|i| MARKUP[i]),
    ];
    proptest::collection::vec(byte, 0..200)
}

/// A session past its hello, fed `bytes` as a frame of their own and
/// then raw: the answer is events / reply bytes, so returning is the
/// property. Afterwards the session still takes a good message.
fn feed_agent(bytes: &[u8]) {
    let (requests, _) = dialogue();
    let mut agent = Agent::new(7, Yes);
    agent.on_bytes(&Framer::frame(requests[0].as_bytes()));
    agent.on_bytes(&Framer::frame(bytes));
    agent.on_bytes(bytes);
    agent.on_bytes(&Framer::frame(requests[4].as_bytes()));
}

fn feed_client(bytes: &[u8]) {
    let (_, replies) = dialogue();
    let mut client = Client::new();
    client.on_bytes(&Framer::frame(replies[0].as_bytes()));
    client.get_vnf_info(None);
    client.on_bytes(&Framer::frame(bytes));
    client.on_bytes(bytes);
    client.on_bytes(&Framer::frame(replies[4].as_bytes()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn xml_parser_never_panics_on_markup_soup(bytes in arb_xmlish_bytes()) {
        let _ = XmlElement::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn xml_parser_never_panics_on_a_damaged_message(
        text in arb_damaged([dialogue().0, dialogue().1].concat()),
    ) {
        let _ = XmlElement::parse(&text);
    }

    #[test]
    fn agent_never_panics_on_arbitrary_bytes(bytes in arb_xmlish_bytes()) {
        feed_agent(&bytes);
    }

    #[test]
    fn agent_never_panics_on_a_damaged_request(text in arb_damaged(dialogue().0)) {
        feed_agent(text.as_bytes());
    }

    #[test]
    fn client_never_panics_on_arbitrary_bytes(bytes in arb_xmlish_bytes()) {
        feed_client(&bytes);
    }

    #[test]
    fn client_never_panics_on_a_damaged_reply(text in arb_damaged(dialogue().1)) {
        feed_client(text.as_bytes());
    }
}
