//! Chrome trace-event JSON export.
//!
//! Renders a list of [`ChromeEvent`]s as the Trace Event Format that
//! `chrome://tracing` and Perfetto load: a top-level object with a
//! `traceEvents` array of complete (`ph: "X"`) and instant (`ph: "I"`)
//! events. Timestamps are microseconds; since ours come from the virtual
//! clock, the rendered document is byte-identical across same-seed runs
//! as long as the caller supplies events in a stable order.

use escape_json::Writer;

/// One trace event. `dur_us` present ⇒ a complete event (`ph: "X"`),
/// absent ⇒ an instant event (`ph: "I"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event label (shown on the slice).
    pub name: String,
    /// Category (used by trace viewers for filtering/coloring).
    pub cat: String,
    /// Start timestamp in microseconds of virtual time.
    pub ts_us: u64,
    /// Duration in microseconds; `None` renders an instant event.
    pub dur_us: Option<u64>,
    /// Process id lane.
    pub pid: u64,
    /// Thread id lane (one row per tid within a pid).
    pub tid: u64,
    /// Free-form arguments shown in the detail pane. A repeated key is
    /// rendered once, at its first position, with its last value.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    fn write(&self, w: &mut Writer) {
        w.begin_object();
        w.key("name").str(&self.name);
        w.key("cat").str(&self.cat);
        w.key("ph")
            .str(if self.dur_us.is_some() { "X" } else { "I" });
        w.key("ts").uint(self.ts_us);
        match self.dur_us {
            Some(d) => w.key("dur").uint(d),
            // Instant events need a scope; "t" = thread-scoped tick.
            None => w.key("s").str("t"),
        }
        w.key("pid").uint(self.pid);
        w.key("tid").uint(self.tid);
        w.key("args").begin_object();
        for (i, (k, first)) in self.args.iter().enumerate() {
            if self.args[..i].iter().any(|(seen, _)| seen == k) {
                continue;
            }
            let later = self.args[i + 1..].iter().rfind(|(key, _)| key == k);
            w.key(k).str(later.map_or(first, |(_, v)| v));
        }
        w.end_object();
        w.end_object();
    }
}

/// Renders events as a Trace Event Format document. The caller is
/// responsible for a deterministic event order.
pub fn render(events: &[ChromeEvent]) -> String {
    let mut w = Writer::pretty();
    w.begin_object();
    w.key("traceEvents").begin_array();
    for e in events {
        e.write(&mut w);
    }
    w.end_array();
    w.key("displayTimeUnit").str("ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_json::Value;

    fn ev(ts: u64, dur: Option<u64>) -> ChromeEvent {
        ChromeEvent {
            name: "hop".into(),
            cat: "demo".into(),
            ts_us: ts,
            dur_us: dur,
            pid: 1,
            tid: 42,
            args: vec![("node".into(), "s0".into())],
        }
    }

    #[test]
    fn rendered_document_parses_and_round_trips_fields() {
        let doc = render(&[ev(10, Some(5)), ev(20, None)]);
        let v = Value::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("dur").unwrap().as_u64(), Some(5));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("I"));
        assert_eq!(events[1].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(
            events[0].get("args").unwrap().get("node").unwrap().as_str(),
            Some("s0")
        );
    }

    #[test]
    fn a_repeated_arg_keeps_its_first_place_and_last_value() {
        let mut e = ev(10, None);
        e.args = [("detail", "a"), ("node", "s0"), ("detail", "b")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .to_vec();
        let doc = render(&[e]);
        assert!(
            doc.contains(
                "\"args\": {\n        \"detail\": \"b\",\n        \"node\": \"s0\"\n      }"
            ),
            "{doc}"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let events = vec![ev(10, Some(5)), ev(20, None), ev(30, Some(1))];
        assert_eq!(render(&events), render(&events));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = render(&[]);
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
