//! `expected.json`: the virtual-clock outputs this benchmark pins.
//!
//! Host time is what the benchmark measures; virtual cycles are the
//! simulator's *result* and must not move. Four kinds of pin:
//!
//! * `fingerprints` — sixteen bits per point of `SpaceSpec::full(20,
//!   200)`. A point's result depends on the point alone, so the table
//!   checks every point `explore-exhaustive` visits, under any seed.
//! * per workload, `any_seed` — outputs no seed changes (the SMP images'
//!   `(ops, cycles)`).
//! * per workload, `pinned_seed` — outputs of the first unit under
//!   [`DEFAULT_SEED`](crate::workloads::DEFAULT_SEED). Under any other
//!   seed the workloads' structural checks stand alone.
//! * `probes` — the exact outputs of the trace run's probes: virtual
//!   cycles per gate kind and the paper-error figure.
//!
//! Only a change to the benchmark may re-bless this file (`-- bless`).

use crate::json::{self, Value};
use crate::workloads::DEFAULT_SEED;

/// The parsed pins.
#[derive(Debug, Clone)]
pub struct Expected(Value);

impl Expected {
    /// The `expected.json` the binary was built with.
    ///
    /// # Errors
    ///
    /// A syntax error in the file.
    pub fn committed() -> Result<Expected, String> {
        json::parse(include_str!("../expected.json")).map(Expected)
    }

    /// The per-point fingerprint table, if blessed.
    pub fn fingerprints(&self) -> Option<Vec<u16>> {
        let hex = self.0.get("fingerprints")?.as_str()?;
        (0..hex.len() / 4)
            .map(|i| u16::from_str_radix(hex.get(4 * i..4 * i + 4)?, 16).ok())
            .collect()
    }

    /// Compares a run's deterministic section with the pins: the
    /// workload's for an untraced run, the probes' for a trace run.
    /// Returns the discrepancies in words (empty when every pin holds).
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        deterministic: &Value,
    ) -> Vec<String> {
        let pins = if trace {
            self.0.get("probes")
        } else {
            self.0.get("workloads").and_then(|w| w.get(workload))
        };
        let Some(pins) = pins else {
            return vec![format!("expected.json pins nothing for `{workload}`")];
        };
        let mut problems = Vec::new();
        let mut compare = |section: &str, pinned: Option<&Value>| {
            let got = deterministic.get(section);
            for (key, want) in pinned.map_or(&[][..], Value::entries) {
                if got.and_then(|g| g.get(key)) != Some(want) {
                    problems.push(format!(
                        "{workload}: {section}.{key} is {}, expected.json pins {want}",
                        got.and_then(|g| g.get(key)).unwrap_or(&Value::Null),
                    ));
                }
            }
        };
        if trace {
            compare("any_seed", Some(pins));
        } else {
            compare("any_seed", pins.get("any_seed"));
            if seed == DEFAULT_SEED {
                compare("this_seed", pins.get("pinned_seed"));
            }
        }
        problems
    }
}

/// Builds the text of a freshly blessed `expected.json`.
///
/// `sections` holds, per workload, the `any_seed` and `this_seed` values
/// of a default-seed run; `probes` the `any_seed` value of a trace run.
pub fn blessed(
    fingerprints: &[u16],
    sections: &[(String, Value, Value)],
    probes: &Value,
) -> String {
    let hex: String = fingerprints.iter().map(|f| format!("{f:04x}")).collect();
    let mut workloads = Value::obj();
    for (name, any_seed, this_seed) in sections {
        workloads.set(
            name,
            Value::obj()
                .with("any_seed", any_seed.clone())
                .with("pinned_seed", this_seed.clone()),
        );
    }
    Value::obj()
        .with("pinned_seed_is", DEFAULT_SEED)
        .with("workloads", workloads)
        .with("probes", probes.clone())
        .with("fingerprints", hex)
        .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_only_pinned_keys_that_differ() {
        let text = blessed(
            &[0x00ab, 0xffff],
            &[(
                "w".to_string(),
                Value::obj().with("a", 1u64),
                Value::obj().with("b", "x"),
            )],
            &Value::obj().with("p", 5u64),
        );
        let expected = Expected(json::parse(&text).unwrap());
        assert_eq!(expected.fingerprints(), Some(vec![0x00ab, 0xffff]));
        let good = Value::obj()
            .with("any_seed", Value::obj().with("a", 1u64).with("extra", 2u64))
            .with("this_seed", Value::obj().with("b", "x"));
        assert!(expected.check("w", DEFAULT_SEED, false, &good).is_empty());
        let bad = Value::obj()
            .with("any_seed", Value::obj().with("a", 3u64))
            .with("this_seed", Value::obj().with("b", "y"));
        assert_eq!(expected.check("w", DEFAULT_SEED, false, &bad).len(), 2);
        // Another seed: only the seed-independent pin applies.
        assert_eq!(expected.check("w", DEFAULT_SEED + 1, false, &bad).len(), 1);
        assert_eq!(
            expected.check("missing", DEFAULT_SEED, false, &good).len(),
            1
        );
        // A trace run is held to the probe pins, whatever the workload.
        let probed = Value::obj().with("any_seed", Value::obj().with("p", 5u64));
        assert!(expected.check("w", 9, true, &probed).is_empty());
        assert_eq!(expected.check("w", 9, true, &good).len(), 1);
    }
}
