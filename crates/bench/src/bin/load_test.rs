//! Load test for the campaign service: N concurrent SDK clients against
//! `safedm-sim serve`, mixed cache hit/miss grids, throughput and latency
//! percentiles (see EXPERIMENTS.md, "Campaign service load test").
//!
//! Three phases over one server:
//!
//! 1. **cold** — one client submits a `--cells`-cell grid nobody has run:
//!    every cell simulates (all cache misses);
//! 2. **warm** — `--clients` concurrent clients each resubmit the same
//!    grid 3 times: every cell replays from the content-addressed cache;
//! 3. **mixed** — the grid doubled in `runs`: the original half hits, the
//!    new half simulates.
//!
//! The run *fails* (exit 1) on any SDK/HTTP error, on a cache-consistency
//! mismatch (warm hits/misses not exactly all-hit, streamed bytes not
//! identical to the cold stream), or if the warm/cold throughput ratio
//! falls below the 5x acceptance floor — so CI can gate on it directly.
//!
//! Usage: `cargo run -p safedm-bench --bin load_test --release --
//! [--clients N] [--cells N] [--addr HOST:PORT] [--json PATH]`
//!
//! Without `--addr` an in-process server on an ephemeral port is used.

use std::time::{Duration, Instant};

use safedm_bench::args;
use safedm_bench::http::{ServeConfig, Server};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_sdk::Client;

/// A grid with exactly `cells` cells whose identity prefix survives a
/// `runs` extension: one kernel, one stagger, `cells` runs — cell index
/// equals run index, so doubling `runs` keeps the first half's digests.
fn grid_spec(cells: u64) -> CampaignSpec {
    CampaignSpec {
        protocol: Protocol::Grid,
        kernels: vec!["bitcount".to_owned()],
        staggers: vec![0],
        runs: cells.max(1),
        root_seed: Some(0x10ad_7e57),
        engine: "cycle".to_owned(),
        jobs: None,
        keep_timing: false,
    }
}

/// Per-client warm-phase tally: (hits, misses, per-request latencies).
type ClientTally = Result<(u64, u64, Vec<Duration>), String>;

struct Phase {
    label: &'static str,
    wall: Duration,
    cells: u64,
    hits: u64,
    misses: u64,
    /// Per-request submit→stream-complete latencies.
    latencies: Vec<Duration>,
}

impl Phase {
    fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `spec` once on `client`, checking status and stream shape.
fn one_request(
    client: &Client,
    spec: &CampaignSpec,
    expect_cells: u64,
) -> Result<(Vec<String>, u64, u64, Duration), String> {
    let t = Instant::now();
    let run = client.run(spec).map_err(|e| e.to_string())?;
    let dt = t.elapsed();
    if run.result.status != "done" || !run.result.ok {
        return Err(format!(
            "campaign {} ended {} (ok={})",
            run.submission.id, run.result.status, run.result.ok
        ));
    }
    if run.lines.len() as u64 != expect_cells {
        return Err(format!("expected {expect_cells} event lines, got {}", run.lines.len()));
    }
    Ok((run.lines, run.result.cache_hits, run.result.cache_misses, dt))
}

const USAGE: &str = "usage: load_test [--clients N] [--cells N] [--addr HOST:PORT] [--json PATH]";
const VALUED: &[&str] = &["--clients", "--cells", "--addr", "--json"];
const BARE: &[&str] = &[];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    args::check_or_exit(&argv, USAGE, VALUED, BARE);
    let clients = args::or_exit(args::parsed_or::<usize>(&argv, "--clients", 4)).max(1);
    let cells = args::or_exit(args::u64_or(&argv, "--cells", 32)).max(1);
    let json_out = args::value(&argv, "--json");

    // An explicit --addr targets a running server; otherwise serve
    // in-process on an ephemeral port (the accept loop thread is detached
    // and dies with the process).
    let addr = match args::value(&argv, "--addr") {
        Some(a) => a,
        None => {
            let server = args::or_exit(Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServeConfig::default()
            }));
            let addr = args::or_exit(server.local_addr());
            std::thread::spawn(move || server.run());
            addr
        }
    };
    let client = Client::new(addr.clone()).with_deadline(Duration::from_secs(600));
    args::or_exit(client.healthz().map_err(|e| format!("server not reachable at {addr}: {e}")));

    let spec = grid_spec(cells);
    eprintln!("load_test: {cells}-cell grid, {clients} client(s), server {addr}");

    // Phase 1: cold — every cell simulates.
    let t = Instant::now();
    let (cold_lines, cold_hits, cold_misses, cold_lat) =
        args::or_exit(one_request(&client, &spec, cells));
    let cold = Phase {
        label: "cold",
        wall: t.elapsed(),
        cells,
        hits: cold_hits,
        misses: cold_misses,
        latencies: vec![cold_lat],
    };

    // Phase 2: warm — N concurrent clients, 3 resubmissions each, every
    // cell a cache hit, every stream byte-identical to the cold one.
    const WARM_REPS: usize = 3;
    let t = Instant::now();
    let warm_results: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let spec = &spec;
                let cold_lines = &cold_lines;
                let addr = addr.clone();
                scope.spawn(move || {
                    let client = Client::new(addr).with_deadline(Duration::from_secs(600));
                    let (mut hits, mut misses) = (0u64, 0u64);
                    let mut lats = Vec::with_capacity(WARM_REPS);
                    for _ in 0..WARM_REPS {
                        let (lines, h, m, dt) = one_request(&client, spec, cells)?;
                        if &lines != cold_lines {
                            return Err("warm stream differs from cold stream (cache served \
                                     different bytes)"
                                .to_owned());
                        }
                        hits += h;
                        misses += m;
                        lats.push(dt);
                    }
                    Ok((hits, misses, lats))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut warm =
        Phase { label: "warm", wall: t.elapsed(), cells: 0, hits: 0, misses: 0, latencies: vec![] };
    for r in warm_results {
        let (h, m, lats) = args::or_exit(r);
        warm.hits += h;
        warm.misses += m;
        warm.latencies.extend(lats);
    }
    warm.cells = cells * (clients * WARM_REPS) as u64;

    // Phase 3: mixed — double the runs: the original half hits, the
    // extension simulates.
    let mixed_spec = CampaignSpec { runs: cells * 2, ..spec.clone() };
    let t = Instant::now();
    let (mixed_lines, mixed_hits, mixed_misses, mixed_lat) =
        args::or_exit(one_request(&client, &mixed_spec, cells * 2));
    let mixed = Phase {
        label: "mixed",
        wall: t.elapsed(),
        cells: cells * 2,
        hits: mixed_hits,
        misses: mixed_misses,
        latencies: vec![mixed_lat],
    };

    // Cache-consistency gates.
    let mut failures = Vec::new();
    if cold.hits != 0 || cold.misses != cells {
        failures.push(format!(
            "cold phase expected 0/{cells} hit/miss, got {}/{}",
            cold.hits, cold.misses
        ));
    }
    let warm_total = cells * (clients * WARM_REPS) as u64;
    if warm.hits != warm_total || warm.misses != 0 {
        failures.push(format!(
            "warm phase expected {warm_total}/0 hit/miss, got {}/{}",
            warm.hits, warm.misses
        ));
    }
    if mixed.hits != cells || mixed.misses != cells {
        failures.push(format!(
            "mixed phase expected {cells}/{cells} hit/miss, got {}/{}",
            mixed.hits, mixed.misses
        ));
    }
    if mixed_lines[..cells as usize] != cold_lines[..] {
        failures.push("mixed stream's cached prefix differs from the cold stream".to_owned());
    }

    let speedup = warm.cells_per_s() / cold.cells_per_s().max(1e-9);
    println!("LOAD TEST: campaign service ({cells}-cell grid, {clients} concurrent client(s))");
    println!();
    println!(
        "{:<7} {:>9} {:>6} {:>6} {:>12} {:>10} {:>10} {:>10}",
        "phase", "cells", "hits", "miss", "cells/s", "p50 ms", "p90 ms", "p99 ms"
    );
    for phase in [&cold, &warm, &mixed] {
        let mut sorted = phase.latencies.clone();
        sorted.sort();
        println!(
            "{:<7} {:>9} {:>6} {:>6} {:>12.1} {:>10.1} {:>10.1} {:>10.1}",
            phase.label,
            phase.cells,
            phase.hits,
            phase.misses,
            phase.cells_per_s(),
            percentile(&sorted, 0.50).as_secs_f64() * 1e3,
            percentile(&sorted, 0.90).as_secs_f64() * 1e3,
            percentile(&sorted, 0.99).as_secs_f64() * 1e3,
        );
    }
    println!();
    println!("warm/cold throughput: {speedup:.1}x (acceptance floor 5x)");

    if let Some(path) = &json_out {
        // A `safedm-bench/1` baseline document, so the serve metrics ride
        // the same trend/regression tooling as the simulator benches.
        let mut sorted = warm.latencies.clone();
        sorted.sort();
        let doc = format!(
            "{{\"schema\":\"safedm-bench/1\",\"date\":\"-\",\"reps\":{WARM_REPS},\"metrics\":{{\
             \"serve_cold_cells_per_s\":{{\"value\":{:.3},\"unit\":\"cells/s\",\"better\":\"higher\"}},\
             \"serve_warm_cells_per_s\":{{\"value\":{:.3},\"unit\":\"cells/s\",\"better\":\"higher\"}},\
             \"serve_cache_speedup\":{{\"value\":{:.3},\"unit\":\"x\",\"better\":\"higher\"}},\
             \"serve_warm_p99_ms\":{{\"value\":{:.3},\"unit\":\"ms\",\"better\":\"lower\"}}}}}}",
            cold.cells_per_s(),
            warm.cells_per_s(),
            speedup,
            percentile(&sorted, 0.99).as_secs_f64() * 1e3,
        );
        args::write_file_or_exit(path, &doc);
    }

    if speedup < 5.0 {
        failures.push(format!("warm/cold speedup {speedup:.1}x below the 5x acceptance floor"));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("cache consistency: ok (hits replay byte-identical streams, misses simulate)");
}
