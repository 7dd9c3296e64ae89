//! Golden outputs, keyed by workload and seed: one fingerprint per op
//! and the deterministic counters, stored as tab-separated lines
//! `workload  seed  key  value` in `goldens.tsv`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::workloads::Op;

/// `key → value` for one (workload, seed). Op keys are `op.<name>` with
/// a hex fingerprint; counter keys are `counter.<name>` with a decimal
/// count.
pub type Entry = BTreeMap<String, String>;

#[derive(Debug, Clone, Default)]
pub struct Goldens {
    entries: BTreeMap<(String, u64), Entry>,
}

impl Goldens {
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut g = Goldens::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, seed, key, value] = f[..] else {
                return Err(format!("goldens line {}: expected 4 fields", n + 1));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("goldens line {}: seed: {e}", n + 1))?;
            g.entries
                .entry((workload.to_string(), seed))
                .or_default()
                .insert(key.to_string(), value.to_string());
        }
        Ok(g)
    }

    pub fn load(path: &Path) -> Result<Goldens, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Goldens::parse(&text)
    }

    pub fn get(&self, workload: &str, seed: u64) -> Option<&Entry> {
        self.entries.get(&(workload.to_string(), seed))
    }

    pub fn remove(&mut self, workload: &str, seed: u64) {
        self.entries.remove(&(workload.to_string(), seed));
    }

    pub fn set(&mut self, workload: &str, seed: u64, entry: Entry) {
        self.entries.insert((workload.to_string(), seed), entry);
    }

    pub fn render(&self) -> String {
        let mut out = String::from("# workload\tseed\tkey\tvalue\n");
        for ((w, s), entry) in &self.entries {
            for (k, v) in entry {
                writeln!(out, "{w}\t{s}\t{k}\t{v}").expect("write to String");
            }
        }
        out
    }
}

pub fn op_key(name: &str) -> String {
    format!("op.{name}")
}

pub fn counter_key(name: &str) -> String {
    format!("counter.{name}")
}

pub fn fp_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Ops attempted and failed in one repetition. An op fails when it
/// produced no output (panicked or quarantined), when its fingerprint
/// differs from the golden (if one is stored for this seed) or else from
/// the first repetition of the run; a golden op the repetition did not
/// produce counts as attempted and failed.
pub fn check_ops(ops: &[Op], golden: Option<&Entry>, reference: Option<&[Op]>) -> (u64, u64) {
    let mut attempted = ops.len() as u64;
    let mut failed = 0;
    for (name, fp) in ops {
        let ok = match (fp, golden, reference) {
            (None, _, _) => false,
            (Some(fp), Some(g), _) => g.get(&op_key(name)) == Some(&fp_hex(*fp)),
            (Some(fp), None, Some(r)) => r.iter().any(|(n, f)| n == name && f == &Some(*fp)),
            (Some(_), None, None) => true,
        };
        failed += u64::from(!ok);
    }
    if let Some(g) = golden {
        let missing = g
            .keys()
            .filter_map(|k| k.strip_prefix("op."))
            .filter(|k| !ops.iter().any(|(n, _)| n == k))
            .count() as u64;
        attempted += missing;
        failed += missing;
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<Op> {
        vec![("a".into(), Some(1)), ("b".into(), Some(2))]
    }

    fn golden_of(ops: &[Op]) -> Entry {
        ops.iter()
            .map(|(n, fp)| (op_key(n), fp_hex(fp.expect("op output"))))
            .collect()
    }

    #[test]
    fn matching_golden_has_no_failures() {
        assert_eq!(check_ops(&ops(), Some(&golden_of(&ops())), None), (2, 0));
    }

    #[test]
    fn wrong_missing_and_failed_ops_are_counted() {
        let mut g = golden_of(&ops());
        g.insert(op_key("b"), fp_hex(3));
        assert_eq!(check_ops(&ops(), Some(&g), None), (2, 1));
        g.insert(op_key("c"), fp_hex(4));
        assert_eq!(check_ops(&ops(), Some(&g), None), (3, 2));
        let quarantined = vec![("a".into(), Some(1)), ("b".into(), None)];
        assert_eq!(
            check_ops(&quarantined, Some(&golden_of(&ops())), None),
            (2, 1)
        );
    }

    #[test]
    fn without_golden_the_first_repetition_is_the_reference() {
        let drifted = vec![("a".into(), Some(1)), ("b".into(), Some(5))];
        assert_eq!(check_ops(&drifted, None, Some(&ops())), (2, 1));
        assert_eq!(check_ops(&ops(), None, None), (2, 0));
    }

    #[test]
    fn render_round_trips() {
        let mut g = Goldens::default();
        g.set("w", 7, golden_of(&ops()));
        let back = Goldens::parse(&g.render()).expect("parse rendered goldens");
        assert_eq!(back.get("w", 7), Some(&golden_of(&ops())));
        assert_eq!(back.get("w", 8), None);
    }
}
