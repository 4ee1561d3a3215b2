//! `perf agree A/ B/`: do two sets of timed results agree within the
//! benchmark's own bounds?
//!
//! Each directory holds `perf run --out` files. For every workload and
//! end-to-end metric the command prints each set's median and quartiles
//! and flags the metric when the medians differ by more than its bound,
//! as a share of set A's median. Run on two sets of the same code this
//! checks the benchmark is steady; with A = parent and B = change, a flag
//! in the metric's worse direction is a regression.

use crate::stats::{median, quartiles};
use gqed_campaign::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Allowed worsening, as a share of the reference median.
    pub bound: f64,
}

/// Reads one JSON document (`BENCHMARK.json` or a result file).
pub fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(text.trim()).ok_or_else(|| format!("{}: not valid JSON", path.display()))
}

/// A list-of-objects field of `BENCHMARK.json`.
pub fn spec_list<'a>(spec: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match spec.get(key) {
        Some(JsonValue::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list '{key}'")),
    }
}

/// The end-to-end metrics and bounds of a parsed `BENCHMARK.json`.
pub fn bounds(spec: &JsonValue) -> Result<Vec<Bound>, String> {
    spec_list(spec, "end_to_end")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: end_to_end entry missing '{k}'"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry missing 'bound'")?,
            })
        })
        .collect()
}

/// Values per `(workload, metric)` over every `*.json` result in `dir`.
pub fn load_results(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let doc = read_json(&path)?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: no 'workload'", path.display()))?;
        let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no 'metrics'", path.display()));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The comparison table, and whether every metric agreed.
pub fn agree(
    bounds: &[Bound],
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
) -> (String, bool) {
    let mut table = String::from(
        "workload  metric  A median [q1, q3] (n)  B median [q1, q3] (n)  change  bound  verdict\n",
    );
    let mut all_ok = true;
    let workloads: std::collections::BTreeSet<&String> = a.keys().map(|(w, _)| w).collect();
    for w in workloads {
        for bound in bounds {
            let key = (w.clone(), bound.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                table.push_str(&format!("{w}  {}  missing in one set  FLAG\n", bound.name));
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let ok = change.abs() <= bound.bound;
            all_ok &= ok;
            let worse = (change > 0.0) == (bound.better == "lower");
            let verdict = match (ok, worse) {
                (true, _) => "ok",
                (false, true) => "FLAG (worse)",
                (false, false) => "FLAG (better)",
            };
            let (qa1, qa3) = quartiles(va);
            let (qb1, qb3) = quartiles(vb);
            table.push_str(&format!(
                "{w}  {}  {ma:.6} [{qa1:.6}, {qa3:.6}] ({})  {mb:.6} [{qb1:.6}, {qb3:.6}] ({})  {:+.2}%  {:.0}%  {verdict}\n",
                bound.name,
                va.len(),
                vb.len(),
                change * 100.0,
                bound.bound * 100.0,
            ));
        }
    }
    (table, all_ok)
}
