//! `run.sh --check A.json B.json`: applies each end-to-end metric's bound to
//! two result files and prints one row per (metric, workload).

use crate::json::{parse, Json};
use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats::median;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the files cannot
    /// settle the question either way.
    Unresolved,
}

/// Every value of `metric` on `workload` among a result file's runs.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `(max − min) ÷ median`; `None` for fewer than two runs.
fn spread(values: &[f64]) -> Option<f64> {
    let mid = median(&mut values.to_vec())?;
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (values.len() >= 2).then_some((hi - lo) / mid)
}

pub struct Row {
    pub base: f64,
    pub new: f64,
    /// By how much of `base` the new median is worse (negative: better).
    pub worse_by: f64,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Compares the runs of one metric on one workload. `base` and `new` hold
/// one value per run.
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Option<Row> {
    let bound = def.bound?;
    let base_mid = median(&mut base.to_vec())?;
    let new_mid = median(&mut new.to_vec())?;
    let lower_is_better = def.better == "lower";
    let worse_by = if lower_is_better {
        new_mid / base_mid - 1.0
    } else {
        1.0 - new_mid / base_mid
    };
    let spread = match (spread(base), spread(new)) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    // Every new run better than every base run settles it even when the
    // spread is wide.
    let all_better = new.iter().all(|&n| {
        base.iter()
            .all(|&b| if lower_is_better { n < b } else { n > b })
    });
    let verdict = if spread.is_some_and(|s| s > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row {
        base: base_mid,
        new: new_mid,
        worse_by,
        spread,
        verdict,
    })
}

/// Prints the comparison; `Ok(true)` when no row regressed.
pub fn check(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "metric", "workload", "base", "new", "new/base", "bound", "spread"
    );
    let mut clean = true;
    for def in &END_TO_END {
        for (workload, _) in WORKLOADS {
            let (b, n) = (
                values(&base, workload, def.name),
                values(&new, workload, def.name),
            );
            let Some(row) = judge(def, &b, &n) else {
                println!(
                    "{:<16} {:<20} missing from one of the files",
                    def.name, workload
                );
                clean = false;
                continue;
            };
            clean &= row.verdict != Verdict::Regressed;
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>6.0}% {:>8}  {}",
                def.name,
                workload,
                row.base,
                row.new,
                row.new / row.base,
                def.bound.unwrap_or(0.0) * 100.0,
                row.spread
                    .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                match row.verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed =>
                        format!("regressed (worse by {:.1}% of base)", row.worse_by * 100.0),
                    Verdict::Unresolved => "unresolved (spread wider than the bound)".to_string(),
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_directions_and_spread_decide_the_verdict() {
        let metric = |better: &'static str| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        };
        let (rps, p50) = (&metric("higher"), &metric("lower"));
        assert_eq!(judge(rps, &[100.0], &[95.0]).unwrap().verdict, Verdict::Ok);
        assert_eq!(
            judge(rps, &[100.0], &[85.0]).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(rps, &[100.0], &[150.0]).unwrap().verdict, Verdict::Ok);
        assert_eq!(judge(p50, &[10.0], &[10.5]).unwrap().verdict, Verdict::Ok);
        assert_eq!(
            judge(p50, &[10.0], &[11.5]).unwrap().verdict,
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, whichever way the medians
        // point …
        let row = judge(p50, &[10.0, 12.0, 14.0], &[10.0, 12.5, 14.0]).unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread.unwrap() > 0.3);
        // … unless every new run beats every base run.
        assert_eq!(
            judge(p50, &[10.0, 12.0, 14.0], &[5.0, 7.0, 9.0])
                .unwrap()
                .verdict,
            Verdict::Ok
        );
        assert!(judge(p50, &[], &[1.0]).is_none());
    }
}
