//! Aggregation of campaign event streams and bench baselines.
//!
//! Pure data shaping — no I/O, no rendering. [`crate::report`] turns these
//! structures into terminal and HTML views; the `safedm-sim report` and
//! `bench --history` subcommands drive both. Everything here is
//! deterministic: aggregation orders follow sorted keys (kernel names,
//! config points, baseline dates), never input arrival order.

use crate::events::CellEvent;
use crate::json::{parse, JsonValue};

/// Per-kernel totals across a campaign's cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSummary {
    /// Kernel name.
    pub kernel: String,
    /// Number of cells.
    pub cells: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total guarded cycles.
    pub guarded: u64,
    /// Total cycles with zero staggering.
    pub zero_stag: u64,
    /// Total cycles without diversity.
    pub no_div: u64,
    /// Total completed no-diversity episodes.
    pub episodes: u64,
    /// Total violations.
    pub violations: u64,
    /// Cells that failed their self-check.
    pub failed: u64,
}

/// Folds events into per-kernel summaries, sorted by kernel name.
#[must_use]
pub fn summarize_by_kernel(events: &[CellEvent]) -> Vec<KernelSummary> {
    let mut out: Vec<KernelSummary> = Vec::new();
    for ev in events {
        let row = match out.iter_mut().find(|r| r.kernel == ev.kernel) {
            Some(row) => row,
            None => {
                out.push(KernelSummary {
                    kernel: ev.kernel.clone(),
                    cells: 0,
                    cycles: 0,
                    guarded: 0,
                    zero_stag: 0,
                    no_div: 0,
                    episodes: 0,
                    violations: 0,
                    failed: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        row.cells += 1;
        row.cycles += ev.cycles;
        row.guarded += ev.guarded;
        row.zero_stag += ev.zero_stag;
        row.no_div += ev.no_div;
        row.episodes += ev.episodes;
        row.violations += ev.violations;
        row.failed += u64::from(!ev.ok);
    }
    out.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    out
}

/// A kernel × config-point matrix of no-diversity density.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Row labels: kernel names, sorted.
    pub kernels: Vec<String>,
    /// Column labels: config points, sorted (numerically when they look
    /// like `key=NUMBER`, lexically otherwise).
    pub configs: Vec<String>,
    /// `values[row][col]`: mean no-diversity fraction of guarded cycles
    /// across that (kernel, config)'s cells; `None` when the combination
    /// has no cells.
    pub values: Vec<Vec<Option<f64>>>,
}

/// Sort key for config points: `nops=1000`-style labels order by their
/// numeric tail, everything else lexically after them.
fn config_key(s: &str) -> (String, u64, String) {
    if let Some((prefix, num)) = s.rsplit_once('=') {
        if let Ok(n) = num.trim_end_matches('%').parse::<u64>() {
            return (prefix.to_owned(), n, String::new());
        }
    }
    (String::new(), u64::MAX, s.to_owned())
}

/// Builds the no-diversity heatmap from a campaign's events.
#[must_use]
pub fn heatmap(events: &[CellEvent]) -> Heatmap {
    let mut kernels: Vec<String> = events.iter().map(|e| e.kernel.clone()).collect();
    kernels.sort();
    kernels.dedup();
    let mut configs: Vec<String> = events.iter().map(|e| e.config.clone()).collect();
    configs.sort_by_key(|c| config_key(c));
    configs.dedup();

    // Sum and count per (kernel, config) cell, then average.
    let mut sums = vec![vec![(0f64, 0u64); configs.len()]; kernels.len()];
    for ev in events {
        let r = kernels.iter().position(|k| *k == ev.kernel).expect("kernel collected above");
        let c = configs.iter().position(|k| *k == ev.config).expect("config collected above");
        #[allow(clippy::cast_precision_loss)]
        let frac = if ev.guarded == 0 { 0.0 } else { ev.no_div as f64 / ev.guarded as f64 };
        sums[r][c].0 += frac;
        sums[r][c].1 += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let values = sums
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(sum, n)| if n == 0 { None } else { Some(sum / n as f64) })
                .collect()
        })
        .collect();
    Heatmap { kernels, configs, values }
}

/// The `n` slowest cells: by `wall_us` when the stream carries timing,
/// by simulated cycles otherwise (ties broken by cell index, so the order
/// is total and deterministic).
#[must_use]
pub fn slowest_cells(events: &[CellEvent], n: usize) -> Vec<&CellEvent> {
    let mut sorted: Vec<&CellEvent> = events.iter().collect();
    let has_timing = events.iter().any(|e| e.wall_us.is_some());
    sorted.sort_by_key(|e| {
        let cost = if has_timing { e.wall_us.unwrap_or(0) } else { e.cycles };
        (std::cmp::Reverse(cost), e.index)
    });
    sorted.truncate(n);
    sorted
}

/// One stall cause with its attributed cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallCause {
    /// Cause name (`mem`, `ex`, `operand`, `fetch`, …).
    pub cause: String,
    /// Cycles attributed to it, summed across cores.
    pub cycles: u64,
}

/// Extracts the stall-cause Pareto from a metrics-snapshot JSON document
/// (the `stats --metrics-out` format): every `core<i>.stall_<cause>_cycles`
/// counter, summed across cores, sorted by cycles descending (name
/// ascending on ties).
///
/// # Errors
///
/// Returns a message when the document is not a metrics snapshot.
pub fn stall_pareto(snapshot_json: &str) -> Result<Vec<StallCause>, String> {
    let doc = parse(snapshot_json).map_err(|e| format!("metrics snapshot: {e}"))?;
    let Some(JsonValue::Obj(counters)) = doc.get("counters") else {
        return Err("metrics snapshot has no `counters` object".to_owned());
    };
    let mut causes: Vec<StallCause> = Vec::new();
    for (name, value) in counters {
        let Some(rest) = name.split_once('.').map(|(_, r)| r) else { continue };
        let Some(cause) = rest.strip_prefix("stall_").and_then(|r| r.strip_suffix("_cycles"))
        else {
            continue;
        };
        let cycles = value.as_u64().ok_or_else(|| format!("counter `{name}` is not an integer"))?;
        match causes.iter_mut().find(|c| c.cause == cause) {
            Some(c) => c.cycles += cycles,
            None => causes.push(StallCause { cause: cause.to_owned(), cycles }),
        }
    }
    causes.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.cause.cmp(&b.cause)));
    Ok(causes)
}

/// One metric of a bench baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: String,
    /// `"higher"` or `"lower"` — which direction is better.
    pub better: String,
}

/// One parsed `BENCH_<date>.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// File name the baseline came from.
    pub file: String,
    /// The baseline's date string.
    pub date: String,
    /// Metrics in document order.
    pub metrics: Vec<BenchMetric>,
}

/// Parses and validates one baseline document against the `safedm-bench/1`
/// schema.
///
/// # Errors
///
/// Returns a message naming the file and the violated constraint — never
/// panics on malformed input.
pub fn parse_bench_doc(file: &str, text: &str) -> Result<BenchDoc, String> {
    let doc = parse(text).map_err(|e| format!("{file}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("safedm-bench/1") => {}
        Some(other) => return Err(format!("{file}: unsupported schema `{other}`")),
        None => return Err(format!("{file}: missing `schema` field")),
    }
    let date = doc
        .get("date")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{file}: missing `date` field"))?
        .to_owned();
    let Some(JsonValue::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{file}: missing `metrics` object"));
    };
    let mut metrics = Vec::new();
    for (name, m) in members {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{file}: metric `{name}` has no numeric `value`"))?;
        let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("").to_owned();
        let better = match m.get("better").and_then(JsonValue::as_str) {
            Some(b @ ("higher" | "lower")) => b.to_owned(),
            Some(other) => {
                return Err(format!(
                    "{file}: metric `{name}` has invalid `better` direction `{other}`"
                ))
            }
            None => return Err(format!("{file}: metric `{name}` is missing `better`")),
        };
        metrics.push(BenchMetric { name: name.clone(), value, unit, better });
    }
    Ok(BenchDoc { file: file.to_owned(), date, metrics })
}

/// Whether a baseline document declares a `safedm-bench/N` schema newer
/// than this binary's `safedm-bench/1` — i.e. a forward baseline written
/// by a newer toolchain. Such files are tolerable (skip them), unlike
/// malformed ones (error).
fn forward_schema(text: &str) -> Option<String> {
    let schema = parse(text).ok()?.get("schema")?.as_str()?.to_owned();
    let version: u64 = schema.strip_prefix("safedm-bench/")?.parse().ok()?;
    (version > 1).then_some(schema)
}

/// Loads every `BENCH_*.json` baseline in `dir`, sorted by file name (the
/// dated naming convention makes that chronological order).
///
/// Baselines whose schema is a *newer* `safedm-bench/N` than this binary
/// understands are skipped, not fatal — old binaries must tolerate forward
/// baselines checked in by newer ones. Each skip produces a warning string
/// in the second tuple element for the caller to surface.
///
/// # Errors
///
/// Returns a message on unreadable directories or files and on any
/// same-or-unknown-schema baseline that fails [`parse_bench_doc`]
/// validation.
pub fn load_bench_history(dir: &str) -> Result<(Vec<BenchDoc>, Vec<String>), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut files: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {dir}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(name);
        }
    }
    files.sort();
    let mut docs = Vec::new();
    let mut warnings = Vec::new();
    for name in files {
        let path = std::path::Path::new(dir).join(&name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if let Some(schema) = forward_schema(&text) {
            warnings.push(format!(
                "skipping {name}: baseline schema `{schema}` is newer than this binary's \
                 `safedm-bench/1`"
            ));
            continue;
        }
        docs.push(parse_bench_doc(&name, &text)?);
    }
    Ok((docs, warnings))
}

/// The trend of one metric across a baseline history: its values in
/// baseline order and the relative change of the newest step, signed so
/// that **positive means regression** for that metric's direction.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTrend {
    /// Metric name.
    pub name: String,
    /// Unit label (from the newest baseline that has the metric).
    pub unit: String,
    /// Better direction (`"higher"`/`"lower"`).
    pub better: String,
    /// The metric's value per baseline (`None` where absent).
    pub values: Vec<Option<f64>>,
    /// Relative change of the last value vs the previous one, in the *bad*
    /// direction (`> 0` is a regression); `None` with fewer than two
    /// observations.
    pub last_delta: Option<f64>,
}

impl MetricTrend {
    /// Whether the newest baseline no longer has the metric: the suite
    /// stopped measuring it, so its last step cannot be a regression.
    #[must_use]
    pub fn retired(&self) -> bool {
        self.values.last().is_some_and(Option::is_none)
    }
}

/// Computes per-metric trends across a baseline history (metrics ordered
/// by first appearance).
#[must_use]
pub fn metric_trends(history: &[BenchDoc]) -> Vec<MetricTrend> {
    let mut trends: Vec<MetricTrend> = Vec::new();
    for (i, doc) in history.iter().enumerate() {
        for m in &doc.metrics {
            let t = match trends.iter_mut().find(|t| t.name == m.name) {
                Some(t) => t,
                None => {
                    trends.push(MetricTrend {
                        name: m.name.clone(),
                        unit: m.unit.clone(),
                        better: m.better.clone(),
                        values: vec![None; history.len()],
                        last_delta: None,
                    });
                    trends.last_mut().expect("just pushed")
                }
            };
            t.values[i] = Some(m.value);
            t.unit = m.unit.clone();
            t.better = m.better.clone();
        }
    }
    for t in &mut trends {
        let present: Vec<f64> = t.values.iter().filter_map(|v| *v).collect();
        if present.len() >= 2 {
            let (prev, last) = (present[present.len() - 2], present[present.len() - 1]);
            if prev != 0.0 {
                let delta =
                    if t.better == "higher" { (prev - last) / prev } else { (last - prev) / prev };
                t.last_delta = Some(delta);
            }
        }
    }
    trends
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kernel: &str, config: &str, guarded: u64, no_div: u64) -> CellEvent {
        CellEvent {
            index: 0,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            run: 0,
            seed: 1,
            cycles: guarded + 10,
            guarded,
            zero_stag: 0,
            no_div,
            episodes: 1,
            violations: 0,
            ok: true,
            wall_us: None,
        }
    }

    #[test]
    fn kernel_summaries_fold_and_sort() {
        let events =
            vec![ev("z", "nops=0", 100, 10), ev("a", "nops=0", 50, 5), ev("z", "nops=100", 100, 0)];
        let sums = summarize_by_kernel(&events);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].kernel, "a");
        assert_eq!(sums[1].cells, 2);
        assert_eq!(sums[1].no_div, 10);
        assert_eq!(sums[1].guarded, 200);
    }

    #[test]
    fn heatmap_orders_configs_numerically() {
        let events = vec![
            ev("k", "nops=1000", 100, 1),
            ev("k", "nops=0", 100, 50),
            ev("k", "nops=100", 100, 10),
            ev("k", "nops=10000", 100, 0),
        ];
        let h = heatmap(&events);
        assert_eq!(h.configs, vec!["nops=0", "nops=100", "nops=1000", "nops=10000"]);
        assert_eq!(h.values[0][0], Some(0.5));
        assert_eq!(h.values[0][3], Some(0.0));
    }

    #[test]
    fn heatmap_averages_runs_and_marks_holes() {
        let events = vec![
            ev("k", "nops=0", 100, 20),
            ev("k", "nops=0", 100, 40),
            ev("j", "nops=100", 100, 0),
        ];
        let h = heatmap(&events);
        // j row, nops=0 column never ran.
        let jr = h.kernels.iter().position(|k| k == "j").unwrap();
        let c0 = h.configs.iter().position(|c| c == "nops=0").unwrap();
        assert_eq!(h.values[jr][c0], None);
        let kr = h.kernels.iter().position(|k| k == "k").unwrap();
        let mean = h.values[kr][c0].unwrap();
        assert!((mean - 0.3).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn slowest_prefers_wall_clock_then_cycles() {
        let mut a = ev("a", "c", 10, 0);
        a.index = 0;
        a.cycles = 999;
        let mut b = ev("b", "c", 10, 0);
        b.index = 1;
        b.cycles = 5;
        // Without timing: by cycles.
        let untimed = [a.clone(), b.clone()];
        assert_eq!(slowest_cells(&untimed, 1)[0].kernel, "a");
        // With timing on any event: by wall_us (missing = 0).
        b.wall_us = Some(10_000);
        let timed = [a, b];
        assert_eq!(slowest_cells(&timed, 1)[0].kernel, "b");
    }

    #[test]
    fn stall_pareto_sums_cores_and_sorts() {
        let snap = r#"{"counters":{"core0.stall_mem_cycles":30,"core1.stall_mem_cycles":20,
            "core0.stall_fetch_cycles":5,"core1.stall_fetch_cycles":5,
            "core0.retired":1000,"bus.transactions":7},"gauges":{},"histograms":{}}"#;
        let causes = stall_pareto(snap).unwrap();
        assert_eq!(causes.len(), 2);
        assert_eq!(causes[0], StallCause { cause: "mem".to_owned(), cycles: 50 });
        assert_eq!(causes[1], StallCause { cause: "fetch".to_owned(), cycles: 10 });
        assert!(stall_pareto("{}").is_err());
        assert!(stall_pareto("not json").is_err());
    }

    fn bench_doc(date: &str, value: f64) -> String {
        format!(
            r#"{{"schema":"safedm-bench/1","date":"{date}","reps":3,"metrics":{{
               "sim_mcps_fac":{{"value":{value},"unit":"Mcyc/s","better":"higher"}}}}}}"#
        )
    }

    #[test]
    fn bench_docs_validate_cleanly() {
        let ok = parse_bench_doc("BENCH_a.json", &bench_doc("2026-01-01", 1.5)).unwrap();
        assert_eq!(ok.date, "2026-01-01");
        assert_eq!(ok.metrics.len(), 1);
        // Malformed inputs are errors, not panics.
        assert!(parse_bench_doc("f", "{").is_err());
        assert!(parse_bench_doc("f", "{}").is_err());
        assert!(parse_bench_doc("f", r#"{"schema":"other/9"}"#).is_err());
        let bad_better = r#"{"schema":"safedm-bench/1","date":"d","metrics":
            {"m":{"value":1,"unit":"x","better":"sideways"}}}"#;
        assert!(parse_bench_doc("f", bad_better).unwrap_err().contains("sideways"));
        let no_value = r#"{"schema":"safedm-bench/1","date":"d","metrics":{"m":{"unit":"x"}}}"#;
        assert!(parse_bench_doc("f", no_value).is_err());
    }

    #[test]
    fn trends_flag_regressions_in_the_bad_direction() {
        let history = vec![
            parse_bench_doc("BENCH_1.json", &bench_doc("1", 2.0)).unwrap(),
            parse_bench_doc("BENCH_2.json", &bench_doc("2", 1.0)).unwrap(),
        ];
        let trends = metric_trends(&history);
        assert_eq!(trends.len(), 1);
        // higher-is-better halved → +50% regression.
        assert_eq!(trends[0].last_delta, Some(0.5));
        assert_eq!(trends[0].values, vec![Some(2.0), Some(1.0)]);
        // Improvement is a negative delta.
        let up = vec![
            parse_bench_doc("BENCH_1.json", &bench_doc("1", 1.0)).unwrap(),
            parse_bench_doc("BENCH_2.json", &bench_doc("2", 2.0)).unwrap(),
        ];
        assert_eq!(metric_trends(&up)[0].last_delta, Some(-1.0));
    }

    #[test]
    fn single_baseline_has_no_delta() {
        let history = vec![parse_bench_doc("BENCH_1.json", &bench_doc("1", 2.0)).unwrap()];
        assert_eq!(metric_trends(&history)[0].last_delta, None);
    }
}
