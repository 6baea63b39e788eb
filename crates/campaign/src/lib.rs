//! # safedm-campaign — deterministic parallel campaign engine
//!
//! The SafeDM evaluation (Table I, the fault-injection campaigns, every
//! ablation sweep) is embarrassingly parallel across configuration cells:
//! each (kernel, stagger, seed, monitor-config) combination is an
//! independent simulation. This crate is the engine the bench binaries run
//! those campaigns through:
//!
//! * [`grid::ConfigGrid`] — an enumerable cartesian grid of campaign cells
//!   with a canonical dense order;
//! * [`seed::derive_cell_seed`] — per-cell seeds as a pure function of
//!   `(root seed, cell index)`, so a cell's inputs never depend on
//!   scheduling;
//! * [`pool::par_map`] / [`pool::par_map_timed`] — a `std::thread` chunked
//!   work-stealing pool with **ordered result collection**: outputs come
//!   back in cell order, byte-identical for any `--jobs N`;
//! * [`pool::par_map_timed_observed`] + [`progress::Progress`] — a
//!   completion observer (fires per cell on the worker thread, in
//!   scheduling order) driving a throttled stderr progress line; the
//!   observer sees only measurement, so outputs stay deterministic;
//! * [`spec::CampaignSpec`] — the kernel × stagger × run grid request
//!   `safedm-sim campaign` builds from its flags.
//!
//! The determinism contract, spelled out: for a fixed item list and cell
//! function, `par_map(j, items, f)` returns the same `Vec` for every `j`,
//! because (1) each cell computes from only its index and item, (2) cells
//! share nothing mutable, and (3) results are re-ordered by index after the
//! join. Timings ([`pool::par_map_timed`]) are the one exception — they are
//! measurements of the host machine, reported separately and never mixed
//! into metric snapshots (the same separation `safedm-obs` draws for its
//! wall-clock self-profiler).
//!
//! The crate depends only on std, so every layer of the workspace can use
//! it, including `safedm-faults`.
//!
//! ## Example
//!
//! ```
//! use safedm_campaign::grid::ConfigGrid;
//! use safedm_campaign::pool::par_map;
//!
//! let grid = ConfigGrid {
//!     kernels: vec!["fac", "bitcount"],
//!     staggers: vec![0usize, 100],
//!     configs: vec![()],
//!     runs: 2,
//!     root_seed: 2024,
//! };
//! let cells = grid.cells();
//! let results = par_map(4, &cells, |_, cell| {
//!     // run the simulation for `cell` — here just echo its identity
//!     (cell.kernel, cell.stagger, cell.seed)
//! });
//! // Ordered, deterministic: results[i] belongs to cells[i].
//! assert_eq!(results.len(), grid.len());
//! assert_eq!(results, par_map(1, &cells, |_, c| (c.kernel, c.stagger, c.seed)));
//! ```

#![warn(missing_docs)]

pub mod grid;
pub mod pool;
pub mod progress;
pub mod seed;
pub mod spec;

pub use grid::{Cell, ConfigGrid};
pub use pool::{default_jobs, par_map, par_map_timed, par_map_timed_observed};
pub use progress::Progress;
pub use seed::{derive_cell_seed, SplitMix64};
pub use spec::CampaignSpec;

/// Parses a `--jobs`-style value: `None` means the machine default, and an
/// explicit value must be a positive integer.
///
/// # Errors
///
/// Returns a human-readable message for non-numeric or zero values.
///
/// # Examples
///
/// ```
/// use safedm_campaign::parse_jobs;
///
/// assert_eq!(parse_jobs(Some("3")), Ok(3));
/// assert!(parse_jobs(None).unwrap() >= 1);
/// assert!(parse_jobs(Some("zero")).is_err());
/// assert!(parse_jobs(Some("0")).is_err());
/// ```
pub fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(default_jobs()),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err("invalid value for --jobs: must be >= 1".to_owned()),
            Err(_) => Err(format!("invalid value for --jobs: `{v}` is not a number")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_defaults_and_positives() {
        assert!(parse_jobs(None).unwrap() >= 1);
        assert_eq!(parse_jobs(Some("8")), Ok(8));
        assert!(parse_jobs(Some("-1")).is_err());
        assert!(parse_jobs(Some("0")).is_err());
        assert!(parse_jobs(Some("four")).is_err());
    }
}
