//! `agree`: compare two result sets of the same commit against the
//! benchmark's own bounds, and `list --manifest`: compare `BENCHMARK.json`
//! against the metric registry.

use crate::metrics::{self, Better, MetricDef};
use crate::result::{Json, RunResult};
use crate::workload::Workload;
use std::path::Path;

/// By how much `candidate` is worse than `baseline`, as a share of
/// `baseline` (negative when it is better).
pub fn worse_by(def: &MetricDef, baseline: f64, candidate: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if baseline == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / baseline.abs()
    }
}

/// Disagreements between two results of one workload. With `exact`, only the
/// metrics that must repeat exactly are compared, bit for bit; otherwise
/// every end-to-end metric must be within its bound in both directions.
pub fn disagreements(a: &RunResult, b: &RunResult, exact: bool) -> Vec<String> {
    let mut out = Vec::new();
    for def in metrics::END_TO_END {
        let (Some(&va), Some(&vb)) = (a.metrics.get(def.name), b.metrics.get(def.name)) else {
            out.push(format!("{} is missing from a result", def.name));
            continue;
        };
        if def.exact && va.to_bits() != vb.to_bits() {
            out.push(format!(
                "{} must repeat exactly: {va:?} vs {vb:?}",
                def.name
            ));
        } else if !exact {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let worst = worse_by(def, va, vb).max(worse_by(def, vb, va));
            if worst > bound {
                out.push(format!(
                    "{}: {va:?} vs {vb:?} differ by {:.1}% (bound {:.1}%)",
                    def.name,
                    100.0 * worst,
                    100.0 * bound
                ));
            }
        }
    }
    out
}

/// Compare the `run_<workload>.json` files of two result directories.
pub fn agree(dir_a: &Path, dir_b: &Path, exact: bool) -> Result<(), String> {
    let mut compared = 0;
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        let file = format!("run_{}.json", workload.name());
        let (path_a, path_b) = (dir_a.join(&file), dir_b.join(&file));
        if !path_a.exists() && !path_b.exists() {
            continue;
        }
        let (a, b) = (RunResult::read(&path_a)?, RunResult::read(&path_b)?);
        compared += 1;
        for problem in disagreements(&a, &b, exact) {
            problems.push(format!("{}: {problem}", workload.name()));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no run_<workload>.json in {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }
    if problems.is_empty() {
        println!("agree: {compared} workloads agree");
        Ok(())
    } else {
        Err(format!(
            "result sets disagree:\n  {}",
            problems.join("\n  ")
        ))
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> Option<&'a Json> {
    entry.as_object().and_then(|obj| obj.get(key))
}

fn text<'a>(entry: &'a Json, key: &str) -> Option<&'a str> {
    match field(entry, key) {
        Some(Json::String(s)) => Some(s),
        _ => None,
    }
}

fn entries<'a>(root: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(root, key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("manifest has no `{key}` list")),
    }
}

/// Check that the manifest names exactly the registry's workloads and
/// metrics, with the same units, directions and bounds.
pub fn check_manifest(path: &Path) -> Result<(), String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let root = Json::parse(&source)?;
    let mut problems = Vec::new();

    let listed: Vec<&str> = entries(&root, "workloads")?
        .iter()
        .filter_map(|w| text(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if listed != known {
        problems.push(format!(
            "workloads {listed:?} are not the benchmark's {known:?}"
        ));
    }
    for (key, table) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let items = entries(&root, key)?;
        for def in table {
            let Some(item) = items.iter().find(|m| text(m, "name") == Some(def.name)) else {
                problems.push(format!("{key} lacks {}", def.name));
                continue;
            };
            if text(item, "unit") != Some(def.unit) {
                problems.push(format!("{}: unit is not {}", def.name, def.unit));
            }
            if text(item, "better") != Some(def.better.as_str()) {
                problems.push(format!(
                    "{}: better is not {}",
                    def.name,
                    def.better.as_str()
                ));
            }
            if field(item, "bound") != def.bound.map(Json::Number).as_ref() {
                problems.push(format!("{}: bound is not {:?}", def.name, def.bound));
            }
        }
        for item in items {
            let name = text(item, "name").unwrap_or("<unnamed>");
            if !table.iter().any(|def| def.name == name) {
                problems.push(format!(
                    "{key} names {name}, which the benchmark does not emit"
                ));
            }
        }
    }
    if problems.is_empty() {
        println!(
            "manifest: {} workloads, {} end-to-end and {} per-layer metrics match the registry",
            known.len(),
            metrics::END_TO_END.len(),
            metrics::PER_LAYER.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{} disagrees with the registry:\n  {}",
            path.display(),
            problems.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    fn result(pairs: &[(&'static str, f64)]) -> RunResult {
        let mut base: Values = metrics::END_TO_END
            .iter()
            .map(|d| (d.name, 100.0))
            .collect();
        for &(name, value) in pairs {
            base.insert(name, value);
        }
        RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: base,
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let lower = metrics::find("run_wall_cu").expect("registered");
        let higher = metrics::find("containment_acc_pct").expect("registered");
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 97.0) - 0.03).abs() < 1e-12);
        assert_eq!(worse_by(lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn noisy_metrics_agree_within_their_bound_only() {
        let base = result(&[]);
        let close = result(&[("run_wall_cu", 108.0), ("peak_rss_mb", 95.0)]);
        assert!(disagreements(&base, &close, false).is_empty());
        let far = result(&[("run_wall_cu", 130.0)]);
        let problems = disagreements(&base, &far, false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("run_wall_cu"));
        // Symmetric: the better side is not a free pass.
        assert_eq!(disagreements(&far, &base, false).len(), 1);
    }

    #[test]
    fn exact_metrics_must_be_bit_identical() {
        let base = result(&[]);
        let drift = result(&[("containment_acc_pct", 100.000_000_1)]);
        assert_eq!(disagreements(&base, &drift, true).len(), 1);
        assert_eq!(disagreements(&base, &drift, false).len(), 1);
        // Exact mode ignores the metrics that may wobble.
        let noisy = result(&[("run_wall_cu", 500.0), ("setup_s", 1.0)]);
        assert!(disagreements(&base, &noisy, true).is_empty());
    }
}
