//! Integration tests of the campaign telemetry pipeline: property-based
//! round-trips of the event JSONL codec (including cycle counts past
//! 2^53, where a float-only JSON layer would corrupt them), byte-identity
//! of the event stream across worker counts, `safedm-bench/1` baseline
//! validation behind `bench --history`, HTML report structure, and a
//! golden pin of the terminal report sections.
//!
//! Regenerate the golden fixture deliberately with
//! `BLESS_GOLDEN=1 cargo test --test telemetry`.

use std::path::PathBuf;

use proptest::prelude::*;
use safedm::monitor::SafeDmConfig;
use safedm::obs::aggregate::{
    heatmap, load_bench_history, metric_trends, parse_bench_doc, slowest_cells, summarize_by_kernel,
};
use safedm::obs::events::{parse_jsonl, to_jsonl, CellEvent, Timing};
use safedm::obs::report::{
    html_escape, html_heatmap, html_page, render_heatmap, render_kernel_table, render_slowest,
    render_trend, sparkline,
};
use safedm::tacle::kernels;
use safedm_bench::experiments::{table1_cells, table1_events, table1_run_cells};

/// A strategy over arbitrary event records: adversarial counter values
/// (the full `u64` range) on a small vocabulary of kernel/config names.
fn any_event() -> impl Strategy<Value = CellEvent> {
    (
        (any::<u64>(), 0usize..4, 0usize..3),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::bool::weighted(0.5),
        proptest::bool::weighted(0.5),
        any::<u64>(),
    )
        .prop_map(|((index, ki, ci), a, b, ok, timed, wall)| {
            let kernel = ["fac", "bitcount", "pm", "md5"][ki].to_owned();
            let config = ["nops=0", "nops=100", "fifo=8"][ci].to_owned();
            CellEvent {
                index,
                kernel,
                config,
                run: a.0,
                seed: a.1,
                cycles: a.2,
                guarded: a.3,
                zero_stag: b.0,
                no_div: b.1,
                episodes: b.2,
                violations: b.3,
                ok,
                wall_us: timed.then_some(wall),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keep-timing serialisation is lossless for any event stream,
    /// including counters past 2^53 that would round under an f64 codec.
    #[test]
    fn event_jsonl_round_trips_losslessly(
        events in proptest::collection::vec(any_event(), 0..20)
    ) {
        let text = to_jsonl(&events, Timing::Keep);
        let back = parse_jsonl(&text).expect("round-trip parse");
        prop_assert_eq!(&back, &events);
    }

    /// Strip-timing serialisation round-trips everything except
    /// `wall_us`, which must come back as `None` for every cell.
    #[test]
    fn stripped_jsonl_round_trips_modulo_timing(
        events in proptest::collection::vec(any_event(), 0..20)
    ) {
        let text = to_jsonl(&events, Timing::Strip);
        let back = parse_jsonl(&text).expect("round-trip parse");
        prop_assert_eq!(back.len(), events.len());
        for (b, e) in back.iter().zip(&events) {
            prop_assert_eq!(b.wall_us, None);
            let mut stripped = e.clone();
            stripped.wall_us = None;
            prop_assert_eq!(b, &stripped);
        }
    }
}

#[test]
fn empty_campaign_serializes_to_empty_stream() {
    assert_eq!(to_jsonl(&[], Timing::Keep), "");
    assert_eq!(parse_jsonl("").expect("empty stream"), Vec::<CellEvent>::new());
    assert_eq!(parse_jsonl("\n\n").expect("blank lines"), Vec::<CellEvent>::new());
}

#[test]
fn parse_errors_name_the_line() {
    let err = parse_jsonl("{\"index\":0}\nnot json\n").expect_err("malformed");
    assert!(err.starts_with("line 1:"), "first bad line wins: {err}");
}

/// The tentpole determinism claim, at the library layer: the serialized
/// event stream of a Table-I-protocol campaign is byte-identical for
/// every worker count once timing is stripped.
#[test]
fn event_stream_is_byte_identical_across_jobs() {
    let ks: Vec<&safedm::tacle::Kernel> =
        ["fac", "bitcount"].iter().map(|n| kernels::by_name(n).expect("kernel")).collect();
    let dm = SafeDmConfig::default();
    let cells = table1_cells(&ks, Some(7));
    let (runs1, times1) = table1_run_cells(&cells, dm, 1, None);
    let (runs4, times4) = table1_run_cells(&cells, dm, 4, None);
    let stream1 = to_jsonl(&table1_events(&cells, &runs1, &times1), Timing::Strip);
    let stream4 = to_jsonl(&table1_events(&cells, &runs4, &times4), Timing::Strip);
    assert!(!stream1.is_empty());
    assert_eq!(stream1, stream4, "event stream differs between --jobs 1 and --jobs 4");
}

#[test]
fn bench_history_rejects_malformed_baselines() {
    for (text, needle) in [
        ("not json", "JSON error"),
        ("{\"date\":\"2026-01-01\",\"metrics\":{}}", "missing `schema`"),
        ("{\"schema\":\"safedm-bench/9\",\"date\":\"x\",\"metrics\":{}}", "unsupported schema"),
        (
            "{\"schema\":\"safedm-bench/1\",\"date\":\"x\",\"metrics\":{\"m\":{\"value\":1,\
             \"better\":\"sideways\"}}}",
            "invalid `better`",
        ),
        (
            "{\"schema\":\"safedm-bench/1\",\"date\":\"x\",\"metrics\":{\"m\":{\"value\":\"hi\",\
             \"better\":\"higher\"}}}",
            "no numeric `value`",
        ),
    ] {
        let err = parse_bench_doc("BENCH_x.json", text).expect_err(text);
        assert!(err.contains("BENCH_x.json"), "error must name the file: {err}");
        assert!(err.contains(needle), "`{needle}` not in: {err}");
    }
}

/// A throwaway directory under the target dir (kept out of the repo tree,
/// unique per test to survive parallel execution).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("telemetry-scratch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench_doc(date: &str, value: f64) -> String {
    format!(
        "{{\"schema\":\"safedm-bench/1\",\"date\":\"{date}\",\"metrics\":{{\
         \"sim_mcps\":{{\"value\":{value},\"unit\":\"Mcyc/s\",\"better\":\"higher\"}}}}}}"
    )
}

#[test]
fn bench_history_trend_flags_only_real_regressions() {
    let dir = scratch_dir("trend");
    for (date, value) in [("2026-01-01", 10.0), ("2026-01-02", 10.4), ("2026-01-03", 8.0)] {
        std::fs::write(dir.join(format!("BENCH_{date}.json")), bench_doc(date, value))
            .expect("write baseline");
    }
    let (history, warnings) =
        load_bench_history(dir.to_str().expect("utf-8 path")).expect("load history");
    assert_eq!(history.len(), 3, "chronological scan of BENCH_*.json");
    assert!(warnings.is_empty(), "no forward baselines here: {warnings:?}");
    let trends = metric_trends(&history);

    // 10.4 -> 8.0 on a higher-is-better metric is a 23% regression.
    let (table, regressed) = render_trend(&history, &trends, 0.10);
    assert_eq!(regressed, vec!["sim_mcps".to_owned()]);
    assert!(table.contains("REGRESSED"), "verdict rendered: {table}");

    // A looser tolerance accepts the same history.
    let (_, regressed) = render_trend(&history, &trends, 0.30);
    assert!(regressed.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_history_load_fails_cleanly_on_a_bad_file() {
    let dir = scratch_dir("badfile");
    std::fs::write(dir.join("BENCH_2026-01-01.json"), "{").expect("write baseline");
    let err =
        load_bench_history(dir.to_str().expect("utf-8 path")).expect_err("malformed baseline");
    assert!(err.contains("BENCH_2026-01-01.json"), "error names the file: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_history_skips_forward_schema_baselines_with_a_warning() {
    let dir = scratch_dir("forward");
    std::fs::write(dir.join("BENCH_2026-01-01.json"), bench_doc("2026-01-01", 10.0))
        .expect("write baseline");
    // A baseline from a future toolchain: schema bumped, body shape
    // unknown to this binary. Must be skipped, not fatal.
    std::fs::write(
        dir.join("BENCH_2026-01-02.json"),
        "{\"schema\":\"safedm-bench/2\",\"date\":\"2026-01-02\",\"metrics\":7}",
    )
    .expect("write forward baseline");
    // But an *unknown* (non-versioned) schema is still a hard error.
    let (history, warnings) =
        load_bench_history(dir.to_str().expect("utf-8 path")).expect("forward baseline tolerated");
    assert_eq!(history.len(), 1, "only the understood baseline loads");
    assert_eq!(warnings.len(), 1);
    assert!(
        warnings[0].contains("BENCH_2026-01-02.json") && warnings[0].contains("safedm-bench/2"),
        "warning names file and schema: {}",
        warnings[0]
    );

    std::fs::write(
        dir.join("BENCH_2026-01-03.json"),
        "{\"schema\":\"other/9\",\"date\":\"2026-01-03\",\"metrics\":{}}",
    )
    .expect("write alien baseline");
    let err = load_bench_history(dir.to_str().expect("utf-8 path"))
        .expect_err("alien schema still errors");
    assert!(err.contains("other/9"), "error names the schema: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small synthetic event stream with fixed counters: machine-independent
/// input for the golden report fixture below.
fn fixture_events() -> Vec<CellEvent> {
    let mut events = Vec::new();
    for (i, (kernel, config, cycles, no_div, episodes, wall)) in [
        ("fac", "nops=0", 66_581u64, 383u64, 7u64, 1_200u64),
        ("fac", "nops=100", 66_774, 49, 1, 900),
        ("bitcount", "nops=0", 46_570, 354, 3, 700),
        ("bitcount", "nops=100", 46_726, 12, 1, 2_400),
    ]
    .into_iter()
    .enumerate()
    {
        events.push(CellEvent {
            index: i as u64,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            run: 0,
            seed: 1000 + i as u64,
            cycles,
            guarded: cycles - 40,
            zero_stag: no_div + 50,
            no_div,
            episodes,
            violations: 0,
            ok: true,
            wall_us: Some(wall),
        });
    }
    events
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n(run `BLESS_GOLDEN=1 cargo test --test telemetry` \
             to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture\n(if the change is intentional, regenerate with \
         `BLESS_GOLDEN=1 cargo test --test telemetry`)"
    );
}

/// Pins the terminal rendering of every machine-independent report
/// section (the synthetic fixture has fixed wall-clocks, so even the
/// slowest-cells table is stable).
#[test]
fn report_sections_match_golden() {
    let events = fixture_events();
    let mut doc = String::new();
    doc.push_str(&render_kernel_table(&summarize_by_kernel(&events)));
    doc.push('\n');
    doc.push_str(&render_heatmap(&heatmap(&events)));
    doc.push('\n');
    doc.push_str(&render_slowest(&slowest_cells(&events, 3)));
    check_golden("report_summary.txt", &doc);
}

#[test]
fn html_report_is_a_self_contained_page() {
    let events = fixture_events();
    let sections = vec![
        ("No-diversity heatmap".to_owned(), html_heatmap(&heatmap(&events))),
        ("A <script> title".to_owned(), "<pre>body</pre>".to_owned()),
    ];
    let page = html_page("SafeDM campaign report", &sections);
    assert!(page.starts_with("<!DOCTYPE html>"), "self-contained page");
    assert!(page.contains("<style>"), "inline CSS, no external assets");
    assert!(!page.contains("http://") && !page.contains("https://"), "no external references");
    assert!(page.contains("A &lt;script&gt; title"), "section titles are escaped");
    for kernel in ["fac", "bitcount"] {
        assert!(page.contains(kernel), "heatmap row for {kernel}");
    }
    assert_eq!(html_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
}

#[test]
fn sparkline_spans_the_ramp_and_marks_holes() {
    let line = sparkline(&[Some(0.0), None, Some(1.0)]);
    assert_eq!(line.chars().count(), 3);
    assert!(line.contains('·'), "holes render as ·: {line}");
}
