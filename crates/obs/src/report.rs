//! Renderers for campaign telemetry: terminal tables, unicode heatmaps and
//! sparklines, and a self-contained HTML report.
//!
//! All renderers are pure functions of [`crate::aggregate`] structures and
//! format floats with fixed precision, so identical inputs produce
//! byte-identical output (the `report` golden test pins this).

use std::fmt::Write as _;

use crate::aggregate::{BenchDoc, Heatmap, KernelSummary, MetricTrend, StallCause};
use crate::events::CellEvent;

/// Unicode shade for a 0..=1 density (5 levels).
#[must_use]
pub fn shade(frac: f64) -> char {
    let f = frac.clamp(0.0, 1.0);
    match (f * 4.0).round() as u8 {
        0 => ' ',
        1 => '\u{2591}', // ░
        2 => '\u{2592}', // ▒
        3 => '\u{2593}', // ▓
        _ => '\u{2588}', // █
    }
}

/// A sparkline over an optionally-sparse series (`·` marks holes), scaled
/// to the series' own min..max.
#[must_use]
pub fn sparkline(values: &[Option<f64>]) -> String {
    const RAMP: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    values
        .iter()
        .map(|v| match v {
            None => '\u{00b7}', // ·
            Some(v) => {
                let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                RAMP[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// The per-kernel summary table.
#[must_use]
pub fn render_kernel_table(rows: &[KernelSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>14} {:>14} {:>10} {:>9} {:>6} {:>5}",
        "kernel", "cells", "cycles", "guarded", "no-div", "episodes", "viol", "fail"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>14} {:>14} {:>10} {:>9} {:>6} {:>5}",
            r.kernel, r.cells, r.cycles, r.guarded, r.no_div, r.episodes, r.violations, r.failed
        );
    }
    out
}

/// The kernel × config no-diversity heatmap (percent of guarded cycles,
/// one shaded cell per combination).
#[must_use]
pub fn render_heatmap(h: &Heatmap) -> String {
    let kw = h.kernels.iter().map(String::len).max().unwrap_or(6).max(6);
    let cw = h.configs.iter().map(String::len).max().unwrap_or(7).max(7);
    let mut out = String::new();
    let _ = write!(out, "{:<kw$}", "kernel");
    for c in &h.configs {
        let _ = write!(out, " {c:>cw$}");
    }
    out.push('\n');
    for (r, k) in h.kernels.iter().enumerate() {
        let _ = write!(out, "{k:<kw$}");
        for cell in &h.values[r] {
            match cell {
                None => {
                    let _ = write!(out, " {:>cw$}", "-");
                }
                Some(frac) => {
                    let body = format!("{:.1}%{}", frac * 100.0, shade(*frac));
                    let _ = write!(out, " {body:>cw$}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// The slowest-cells table (cost column is wall-clock µs when the stream
/// carries timing, simulated cycles otherwise).
#[must_use]
pub fn render_slowest(cells: &[&CellEvent]) -> String {
    let has_timing = cells.iter().any(|e| e.wall_us.is_some());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<16} {:<14} {:>4} {:>14} {:>12}",
        "cell",
        "kernel",
        "config",
        "run",
        "cycles",
        if has_timing { "wall-us" } else { "(no timing)" }
    );
    for e in cells {
        let cost = e.wall_us.map_or_else(|| "-".to_owned(), |us| us.to_string());
        let _ = writeln!(
            out,
            "{:>6} {:<16} {:<14} {:>4} {:>14} {:>12}",
            e.index,
            e.kernel,
            e.config,
            e.run,
            e.cycles,
            if has_timing { cost } else { "-".to_owned() }
        );
    }
    out
}

/// The stall-cause Pareto: cycles, share and cumulative share per cause.
#[must_use]
pub fn render_pareto(causes: &[StallCause]) -> String {
    #[allow(clippy::cast_precision_loss)]
    let total = causes.iter().map(|c| c.cycles).sum::<u64>() as f64;
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:>14} {:>7} {:>7}", "cause", "cycles", "%", "cum%");
    let mut cum = 0.0;
    for c in causes {
        #[allow(clippy::cast_precision_loss)]
        let share = if total > 0.0 { c.cycles as f64 / total } else { 0.0 };
        cum += share;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>6.1}% {:>6.1}%  {bar}",
            c.cause,
            c.cycles,
            share * 100.0,
            cum * 100.0
        );
    }
    out
}

/// The bench-trend table: per metric a sparkline over the history, the
/// newest value, and the delta vs the previous baseline; deltas beyond
/// `tolerance` in the bad direction are flagged. Returns the rendered
/// table and the names of regressed metrics.
#[must_use]
pub fn render_trend(
    history: &[BenchDoc],
    trends: &[MetricTrend],
    tolerance: f64,
) -> (String, Vec<String>) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench history: {} baseline(s), {} .. {}",
        history.len(),
        history.first().map_or("-", |d| d.date.as_str()),
        history.last().map_or("-", |d| d.date.as_str()),
    );
    let nw = trends.iter().map(|t| t.name.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        out,
        "{:<nw$}  {:<12} {:>12} {:>8} {:>9}  verdict",
        "metric", "trend", "latest", "unit", "delta"
    );
    let mut regressed = Vec::new();
    for t in trends {
        let spark = sparkline(&t.values);
        let latest = t
            .values
            .iter()
            .rev()
            .find_map(|v| *v)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}"));
        let (delta_txt, verdict) = match t.last_delta {
            _ if t.retired() => ("-".to_owned(), "retired".to_owned()),
            None => ("-".to_owned(), "new".to_owned()),
            Some(d) => {
                // `d` is signed toward "bad": positive = regression.
                let txt = format!("{:+.1}%", -d * 100.0 * sign_for_display(&t.better));
                if d > tolerance {
                    regressed.push(t.name.clone());
                    (txt, "REGRESSED".to_owned())
                } else if d < -tolerance {
                    (txt, "improved".to_owned())
                } else {
                    (txt, "ok".to_owned())
                }
            }
        };
        let _ = writeln!(
            out,
            "{:<nw$}  {:<12} {:>12} {:>8} {:>9}  {verdict}",
            t.name, spark, latest, t.unit, delta_txt
        );
    }
    (out, regressed)
}

/// Display sign so the delta column always shows the *raw* relative change
/// of the value (positive = value went up), regardless of direction.
fn sign_for_display(better: &str) -> f64 {
    if better == "higher" {
        1.0
    } else {
        -1.0
    }
}

/// Escapes text for HTML bodies.
#[must_use]
pub fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Wraps pre-rendered section bodies into a self-contained HTML page
/// (inline CSS, no external assets).
#[must_use]
pub fn html_page(title: &str, sections: &[(String, String)]) -> String {
    let mut body = String::new();
    for (heading, html) in sections {
        let _ = writeln!(body, "<section><h2>{}</h2>{html}</section>", html_escape(heading));
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>{}</title>\n<style>\n\
         body{{font-family:ui-monospace,monospace;margin:2em;background:#fafafa;color:#222}}\n\
         h1{{font-size:1.4em}} h2{{font-size:1.1em;margin-top:1.5em}}\n\
         table{{border-collapse:collapse}} td,th{{border:1px solid #ccc;padding:2px 8px;\
         text-align:right}} th{{background:#eee}} td.l,th.l{{text-align:left}}\n\
         td.hot{{color:#fff}} .spark{{font-size:1.2em;letter-spacing:1px}}\n\
         .regressed{{color:#b00020;font-weight:bold}} .ok{{color:#1b5e20}}\n\
         </style></head><body>\n<h1>{}</h1>\n{body}</body></html>\n",
        html_escape(title),
        html_escape(title)
    )
}

/// The heatmap as an HTML table with background-shaded cells.
#[must_use]
pub fn html_heatmap(h: &Heatmap) -> String {
    let mut out = String::from("<table><tr><th class=\"l\">kernel</th>");
    for c in &h.configs {
        let _ = write!(out, "<th>{}</th>", html_escape(c));
    }
    out.push_str("</tr>\n");
    for (r, k) in h.kernels.iter().enumerate() {
        let _ = write!(out, "<tr><td class=\"l\">{}</td>", html_escape(k));
        for cell in &h.values[r] {
            match cell {
                None => out.push_str("<td>-</td>"),
                Some(frac) => {
                    // White → deep red with increasing no-diversity density.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let level = (frac.clamp(0.0, 1.0) * 255.0).round() as u8;
                    let (g, b) = (255 - level, 255 - level);
                    let class = if level > 128 { " class=\"hot\"" } else { "" };
                    let _ = write!(
                        out,
                        "<td{class} style=\"background:rgb(255,{g},{b})\">{:.1}%</td>",
                        frac * 100.0
                    );
                }
            }
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>");
    out
}

/// The per-kernel summary as an HTML table.
#[must_use]
pub fn html_kernel_table(rows: &[KernelSummary]) -> String {
    let mut out = String::from(
        "<table><tr><th class=\"l\">kernel</th><th>cells</th><th>cycles</th><th>guarded</th>\
         <th>no-div</th><th>episodes</th><th>violations</th><th>failed</th></tr>\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>",
            html_escape(&r.kernel),
            r.cells,
            r.cycles,
            r.guarded,
            r.no_div,
            r.episodes,
            r.violations,
            r.failed
        );
    }
    out.push_str("</table>");
    out
}

/// A pre-rendered monospace block (slowest cells, Pareto) as HTML.
#[must_use]
pub fn html_pre(text: &str) -> String {
    format!("<pre>{}</pre>", html_escape(text))
}

/// The bench trend as an HTML table with sparklines and verdict colours.
#[must_use]
pub fn html_trend(trends: &[MetricTrend], tolerance: f64) -> String {
    let mut out = String::from(
        "<table><tr><th class=\"l\">metric</th><th>trend</th><th>latest</th><th>unit</th>\
         <th>delta</th><th>verdict</th></tr>\n",
    );
    for t in trends {
        let latest = t
            .values
            .iter()
            .rev()
            .find_map(|v| *v)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}"));
        let (delta_txt, verdict, class) = match t.last_delta {
            _ if t.retired() => ("-".to_owned(), "retired", ""),
            None => ("-".to_owned(), "new", ""),
            Some(d) => {
                let txt = format!("{:+.1}%", -d * 100.0 * sign_for_display(&t.better));
                if d > tolerance {
                    (txt, "REGRESSED", " class=\"regressed\"")
                } else if d < -tolerance {
                    (txt, "improved", " class=\"ok\"")
                } else {
                    (txt, "ok", " class=\"ok\"")
                }
            }
        };
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td class=\"spark\">{}</td><td>{latest}</td>\
             <td>{}</td><td>{delta_txt}</td><td{class}>{verdict}</td></tr>",
            html_escape(&t.name),
            sparkline(&t.values),
            html_escape(&t.unit),
        );
    }
    out.push_str("</table>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{heatmap, metric_trends, parse_bench_doc, summarize_by_kernel};

    fn ev(kernel: &str, config: &str, guarded: u64, no_div: u64) -> CellEvent {
        CellEvent {
            index: 0,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            run: 0,
            seed: 1,
            cycles: guarded,
            guarded,
            zero_stag: 0,
            no_div,
            episodes: 0,
            violations: 0,
            ok: true,
            wall_us: None,
        }
    }

    #[test]
    fn shade_and_sparkline_cover_the_range() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(1.0), '\u{2588}');
        assert_eq!(shade(2.5), '\u{2588}'); // clamped
        let s = sparkline(&[Some(0.0), Some(1.0), None, Some(0.5)]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().nth(2), Some('\u{00b7}'));
        assert_eq!(s.chars().next(), Some('\u{2581}'));
        assert_eq!(s.chars().nth(1), Some('\u{2588}'));
        // Flat series sits mid-ramp rather than dividing by zero.
        assert_eq!(sparkline(&[Some(3.0), Some(3.0)]).chars().next(), Some('\u{2585}'));
    }

    #[test]
    fn heatmap_render_contains_every_axis_label() {
        let h = heatmap(&[ev("fac", "nops=0", 100, 50), ev("fac", "nops=100", 100, 0)]);
        let text = render_heatmap(&h);
        assert!(text.contains("fac"));
        assert!(text.contains("nops=0"));
        assert!(text.contains("50.0%"));
        let html = html_heatmap(&h);
        assert!(html.contains("<table>"));
        assert!(html.contains("rgb(255,"));
    }

    #[test]
    fn trend_render_flags_regressions() {
        let mk = |v: f64| {
            parse_bench_doc(
                "BENCH_x.json",
                &format!(
                    r#"{{"schema":"safedm-bench/1","date":"d","metrics":
                       {{"m":{{"value":{v},"unit":"ms","better":"lower"}}}}}}"#
                ),
            )
            .unwrap()
        };
        let history = vec![mk(100.0), mk(150.0)];
        let trends = metric_trends(&history);
        let (text, regressed) = render_trend(&history, &trends, 0.10);
        assert!(text.contains("REGRESSED"), "{text}");
        assert_eq!(regressed, vec!["m".to_owned()]);
        // +50% raw change on a lower-is-better metric.
        assert!(text.contains("+50.0%"), "{text}");
        let html = html_trend(&trends, 0.10);
        assert!(html.contains("regressed"));
        // Within tolerance → ok, nothing regressed.
        let (_, none) = render_trend(&history, &metric_trends(&[mk(100.0), mk(105.0)]), 0.10);
        assert!(none.is_empty());
    }

    #[test]
    fn a_metric_missing_from_the_newest_baseline_is_retired_not_gated() {
        let doc = |metrics: &str| {
            parse_bench_doc(
                "BENCH_x.json",
                &format!(r#"{{"schema":"safedm-bench/1","date":"d","metrics":{{{metrics}}}}}"#),
            )
            .unwrap()
        };
        let m = |name: &str, v: f64| {
            format!(r#""{name}":{{"value":{v},"unit":"x","better":"higher"}}"#)
        };
        // `gone` regresses by half, then the suite stops measuring it.
        let history = vec![
            doc(&format!("{},{}", m("kept", 1.0), m("gone", 10.0))),
            doc(&format!("{},{}", m("kept", 1.0), m("gone", 5.0))),
            doc(&m("kept", 1.0)),
        ];
        let trends = metric_trends(&history);
        let (text, regressed) = render_trend(&history, &trends, 0.10);
        assert!(regressed.is_empty(), "{text}");
        let gone = text.lines().find(|l| l.starts_with("gone")).unwrap();
        assert!(gone.ends_with("retired"), "{text}");
        assert!(!html_trend(&trends, 0.10).contains("regressed"));
        // Still measured in the newest baseline: the same step gates.
        let (_, regressed) = render_trend(&history[..2], &metric_trends(&history[..2]), 0.10);
        assert_eq!(regressed, vec!["gone".to_owned()]);
    }

    #[test]
    fn page_and_tables_are_wellformed_enough() {
        let sums = summarize_by_kernel(&[ev("fac", "nops=0", 10, 1)]);
        let page =
            html_page("campaign report", &[("kernels".to_owned(), html_kernel_table(&sums))]);
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<h2>kernels</h2>"));
        assert!(page.ends_with("</html>\n"));
        assert_eq!(html_escape("a<b&c"), "a&lt;b&amp;c");
        assert!(html_pre("x<y").contains("x&lt;y"));
    }

    #[test]
    fn pareto_and_slowest_render() {
        let causes = vec![
            StallCause { cause: "mem".to_owned(), cycles: 75 },
            StallCause { cause: "fetch".to_owned(), cycles: 25 },
        ];
        let text = render_pareto(&causes);
        assert!(text.contains("75.0%"));
        assert!(text.contains("100.0%"));
        let a = ev("fac", "nops=0", 10, 0);
        let slowest = render_slowest(&[&a]);
        assert!(slowest.contains("fac"));
        assert!(slowest.contains("(no timing)"));
    }
}
