//! Structured per-cell campaign events.
//!
//! Every campaign cell — one (kernel, config point, seed) simulation —
//! produces one [`CellEvent`]: a compact, structured record of what the
//! cell was and what the monitor saw. Events serialise as JSONL (one JSON
//! object per line, via the [`crate::json`] layer) so campaign telemetry
//! can be streamed, concatenated and grepped.
//!
//! ## Determinism
//!
//! Everything in an event is a pure function of the cell's inputs — except
//! `wall_us`, the host wall-clock, which varies run to run. Serialisation
//! therefore **strips timing by default** ([`Timing::Strip`]): a campaign's
//! `--events-out` file is byte-identical for every `--jobs N`, the same
//! contract the campaign engine gives every other artefact. Opting in to
//! [`Timing::Keep`] (`--events-timing`) trades that guarantee for per-cell
//! latency data.
//!
//! Counter fields are `u64` and survive the round-trip exactly (the JSON
//! layer keeps unsigned integer literals at full precision, see
//! [`crate::json::JsonValue::Uint`]), so multi-billion-cycle campaigns
//! do not silently lose bits.

use crate::json::{parse, JsonError, JsonValue};

/// Whether serialised events carry the host wall-clock field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Omit `wall_us`: output is deterministic (byte-identical across
    /// worker counts). The default for `--events-out`.
    Strip,
    /// Include `wall_us` when present: useful for latency analysis, not
    /// byte-stable across runs.
    Keep,
}

/// One campaign cell's telemetry record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellEvent {
    /// Dense cell index in the campaign's canonical enumeration.
    pub index: u64,
    /// Kernel (or workload) name.
    pub kernel: String,
    /// Config-point description (e.g. `nops=100`, `fifo=8`, `mem=20%`).
    pub config: String,
    /// Repeat-run number within the config point.
    pub run: u64,
    /// The cell's derived seed.
    pub seed: u64,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Monitor-guarded (observed) cycles.
    pub guarded: u64,
    /// Cycles with zero staggering.
    pub zero_stag: u64,
    /// Cycles without diversity.
    pub no_div: u64,
    /// Completed no-diversity episodes.
    pub episodes: u64,
    /// Violations (failed self-checks, refuted certificates, mismatches).
    pub violations: u64,
    /// Monitor/self-check verdict: did the cell pass?
    pub ok: bool,
    /// Host wall-clock microseconds (measurement, not input — see module
    /// docs; stripped from serialisation unless [`Timing::Keep`]).
    pub wall_us: Option<u64>,
}

impl CellEvent {
    /// The event as a JSON object with a fixed field order. Every event
    /// comes from the cycle-accurate monitored model, and the line carries
    /// that as a constant `"engine":"cycle"` between `config` and `run`, so
    /// streams stay byte-identical to those written when the key varied.
    #[must_use]
    pub fn to_json(&self, timing: Timing) -> JsonValue {
        let mut members = vec![
            ("index".to_owned(), JsonValue::Uint(self.index)),
            ("kernel".to_owned(), JsonValue::Str(self.kernel.clone())),
            ("config".to_owned(), JsonValue::Str(self.config.clone())),
            ("engine".to_owned(), JsonValue::Str("cycle".to_owned())),
            ("run".to_owned(), JsonValue::Uint(self.run)),
            ("seed".to_owned(), JsonValue::Uint(self.seed)),
            ("cycles".to_owned(), JsonValue::Uint(self.cycles)),
            ("guarded".to_owned(), JsonValue::Uint(self.guarded)),
            ("zero_stag".to_owned(), JsonValue::Uint(self.zero_stag)),
            ("no_div".to_owned(), JsonValue::Uint(self.no_div)),
            ("episodes".to_owned(), JsonValue::Uint(self.episodes)),
            ("violations".to_owned(), JsonValue::Uint(self.violations)),
            ("ok".to_owned(), JsonValue::Bool(self.ok)),
        ];
        if timing == Timing::Keep {
            if let Some(us) = self.wall_us {
                members.push(("wall_us".to_owned(), JsonValue::Uint(us)));
            }
        }
        JsonValue::Obj(members)
    }

    /// Reconstructs an event from a parsed JSON object. The `engine` key is
    /// ignored, so streams without it and streams that name another engine
    /// parse alike.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(v: &JsonValue) -> Result<CellEvent, String> {
        let uint = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("event is missing `{key}`"))?
                .as_u64()
                .ok_or_else(|| format!("event field `{key}` is not an unsigned integer"))
        };
        let string = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("event is missing `{key}`"))?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("event field `{key}` is not a string"))
        };
        Ok(CellEvent {
            index: uint("index")?,
            kernel: string("kernel")?,
            config: string("config")?,
            run: uint("run")?,
            seed: uint("seed")?,
            cycles: uint("cycles")?,
            guarded: uint("guarded")?,
            zero_stag: uint("zero_stag")?,
            no_div: uint("no_div")?,
            episodes: uint("episodes")?,
            violations: uint("violations")?,
            ok: v
                .get("ok")
                .ok_or_else(|| "event is missing `ok`".to_owned())?
                .as_bool()
                .ok_or_else(|| "event field `ok` is not a boolean".to_owned())?,
            wall_us: match v.get("wall_us") {
                None => None,
                Some(w) => Some(w.as_u64().ok_or_else(|| {
                    "event field `wall_us` is not an unsigned integer".to_owned()
                })?),
            },
        })
    }
}

/// Serialises events as JSONL: one object per line, in input order, each
/// line newline-terminated. An empty campaign is the empty string.
#[must_use]
pub fn to_jsonl(events: &[CellEvent], timing: Timing) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json(timing).render());
        out.push('\n');
    }
    out
}

/// Parses an event JSONL document. Blank lines are skipped; any malformed
/// line is an error (with its 1-based line number), never a panic.
///
/// # Errors
///
/// Returns `line N: <what went wrong>` for the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<CellEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e: JsonError| format!("line {}: {e}", i + 1))?;
        events.push(CellEvent::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellEvent {
        CellEvent {
            index: 3,
            kernel: "bitcount".to_owned(),
            config: "nops=100".to_owned(),
            run: 1,
            seed: 0xdead_beef_cafe_f00d,
            cycles: u64::MAX - 1,
            guarded: (1 << 60) + 7,
            zero_stag: 123,
            no_div: 45,
            episodes: 6,
            violations: 0,
            ok: true,
            wall_us: Some(1_234),
        }
    }

    #[test]
    fn roundtrip_without_timing_is_exact_and_stable() {
        let evs = vec![sample(), CellEvent { index: 4, ok: false, wall_us: None, ..sample() }];
        let doc = to_jsonl(&evs, Timing::Strip);
        let back = parse_jsonl(&doc).unwrap();
        // wall_us was stripped; everything else survives exactly.
        let stripped: Vec<CellEvent> =
            evs.iter().map(|e| CellEvent { wall_us: None, ..e.clone() }).collect();
        assert_eq!(back, stripped);
        // Serialisation is stable under re-serialisation.
        assert_eq!(to_jsonl(&back, Timing::Strip), doc);
    }

    #[test]
    fn timing_kept_only_on_request() {
        let ev = sample();
        let strip = to_jsonl(std::slice::from_ref(&ev), Timing::Strip);
        let keep = to_jsonl(std::slice::from_ref(&ev), Timing::Keep);
        assert!(!strip.contains("wall_us"));
        assert!(keep.contains("\"wall_us\":1234"));
        assert_eq!(parse_jsonl(&keep).unwrap()[0], ev);
    }

    #[test]
    fn empty_campaign_is_empty_document() {
        assert_eq!(to_jsonl(&[], Timing::Strip), "");
        assert_eq!(parse_jsonl("").unwrap(), Vec::new());
        assert_eq!(parse_jsonl("\n  \n").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let good = to_jsonl(&[sample()], Timing::Strip);
        let doc = format!("{good}{{\"index\":1}}\n");
        let err = parse_jsonl(&doc).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // Ill-typed field.
        let doc = good.replace("\"cycles\":18446744073709551614", "\"cycles\":\"many\"");
        let err = parse_jsonl(&doc).unwrap_err();
        assert!(err.contains("cycles"), "{err}");
    }

    #[test]
    fn event_line_bytes_are_pinned() {
        let line = to_jsonl(&[sample()], Timing::Strip);
        assert_eq!(
            line,
            "{\"index\":3,\"kernel\":\"bitcount\",\"config\":\"nops=100\",\"engine\":\"cycle\",\
             \"run\":1,\"seed\":16045690984503111693,\"cycles\":18446744073709551614,\
             \"guarded\":1152921504606846983,\"zero_stag\":123,\"no_div\":45,\"episodes\":6,\
             \"violations\":0,\"ok\":true}\n"
        );
        // Streams written without the key, or naming another engine, parse
        // to the same event.
        let expected = CellEvent { wall_us: None, ..sample() };
        let no_engine = line.replace("\"engine\":\"cycle\",", "");
        assert!(!no_engine.contains("engine"));
        for doc in [
            line.clone(),
            no_engine,
            line.replace("\"engine\":\"cycle\"", "\"engine\":\"hybrid\""),
            line.replace("\"engine\":\"cycle\"", "\"engine\":\"fast\""),
        ] {
            assert_eq!(parse_jsonl(&doc).unwrap(), vec![expected.clone()], "{doc}");
        }
    }

    #[test]
    fn large_counters_do_not_lose_precision() {
        let ev = CellEvent { cycles: u64::MAX, guarded: (1 << 53) + 1, ..sample() };
        let back = &parse_jsonl(&to_jsonl(std::slice::from_ref(&ev), Timing::Strip)).unwrap()[0];
        assert_eq!(back.cycles, u64::MAX);
        assert_eq!(back.guarded, (1 << 53) + 1);
    }
}
