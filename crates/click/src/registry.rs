//! The element class registry: maps Click class names to factories.

use crate::element::Element;
use crate::lang::ConfigError;
use std::collections::HashMap;

/// A factory building an element instance from its textual arguments.
pub type Factory = fn(&[String]) -> Result<Box<dyn Element>, String>;

/// Maps class names to element factories. [`Registry::standard`] contains
/// the built-in library; VNF developers register their own classes on top
/// (see the `custom_vnf` example in the workspace).
#[derive(Default)]
pub struct Registry {
    factories: HashMap<String, Factory>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The registry with every standard element installed.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        crate::elements::install_standard(&mut r);
        r
    }

    /// Registers (or replaces) a class.
    pub fn register(&mut self, class: &str, factory: Factory) {
        self.factories.insert(class.to_string(), factory);
    }

    /// True if `class` is known.
    pub fn contains(&self, class: &str) -> bool {
        self.factories.contains_key(class)
    }

    /// Instantiates `class` with `args`; `line` contextualizes errors.
    pub fn build(
        &self,
        class: &str,
        args: &[String],
        line: usize,
    ) -> Result<Box<dyn Element>, ConfigError> {
        let f = self.factories.get(class).ok_or_else(|| ConfigError {
            line,
            message: format!("unknown element class '{class}'"),
        })?;
        f(args).map_err(|message| ConfigError {
            line,
            message: format!("{class}: {message}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElemCtx;
    use escape_packet::Packet;

    struct Dummy;
    impl Element for Dummy {
        fn class_name(&self) -> &'static str {
            "Dummy"
        }
        fn ports(&self) -> (usize, usize) {
            (1, 1)
        }
        fn push(&mut self, _ctx: &mut ElemCtx<'_>, _port: usize, _pkt: Packet) {}
    }

    fn dummy_factory(args: &[String]) -> Result<Box<dyn Element>, String> {
        if args.len() > 1 {
            return Err("too many arguments".into());
        }
        Ok(Box::new(Dummy))
    }

    #[test]
    fn register_and_build() {
        let mut r = Registry::new();
        assert!(!r.contains("Dummy"));
        r.register("Dummy", dummy_factory);
        assert!(r.contains("Dummy"));
        let e = r.build("Dummy", &[], 1).unwrap();
        assert_eq!(e.class_name(), "Dummy");
    }

    #[test]
    fn unknown_class_errors_with_line() {
        let r = Registry::new();
        let err = r.build("Nope", &[], 42).err().unwrap();
        assert_eq!(err.line, 42);
        assert!(err.message.contains("Nope"));
    }

    #[test]
    fn factory_errors_are_prefixed_with_class() {
        let mut r = Registry::new();
        r.register("Dummy", dummy_factory);
        let err = r
            .build("Dummy", &["a".into(), "b".into()], 3)
            .err()
            .unwrap();
        assert!(err.message.starts_with("Dummy:"));
    }

    /// The standard library is exactly the classes the VNF catalog's
    /// templates use, plus `Tee` (the one element that copies frames).
    #[test]
    fn standard_registry_is_well_stocked() {
        let r = Registry::standard();
        let mut classes: Vec<&str> = r.factories.keys().map(String::as_str).collect();
        classes.sort_unstable();
        assert_eq!(
            classes,
            [
                "BandwidthShaper",
                "CheckIPHeader",
                "Counter",
                "DecIPTTL",
                "DelayShaper",
                "Discard",
                "FromDevice",
                "HashSwitch",
                "IPFilter",
                "IPRewriter",
                "RandomSample",
                "SetIPDSCP",
                "StringMatcher",
                "Tee",
                "ToDevice",
            ]
        );
    }
}
