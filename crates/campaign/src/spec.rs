//! The campaign grid request: [`CampaignSpec`].
//!
//! `safedm-sim campaign` builds one of these from its flags and hands it to
//! the grid runner (`safedm_bench::service`). The spec is the whole grid:
//! kernels, staggering axis, repeat runs, the root seed every cell seed
//! derives from, and a scheduling hint. Kernel names are checked by the
//! runner against the built-in registry; this crate stays registry-agnostic.

/// A kernel × stagger × run campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Kernel names (the `--kernels` axis).
    pub kernels: Vec<String>,
    /// Staggering axis in nops.
    pub staggers: Vec<u64>,
    /// Repeat runs per configuration point.
    pub runs: u64,
    /// Root seed for per-cell seed derivation.
    pub root_seed: u64,
    /// Worker count. Scheduling only: results are byte-identical for
    /// every worker count.
    pub jobs: usize,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            kernels: vec!["bitcount".to_owned(), "fac".to_owned()],
            staggers: vec![0, 100],
            runs: 2,
            root_seed: 2024,
            jobs: 1,
        }
    }
}

impl CampaignSpec {
    /// Structural validation (kernel-name existence is the runner's job).
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.kernels.is_empty() {
            return Err("spec needs at least one kernel".to_owned());
        }
        if self.staggers.is_empty() {
            return Err("grid spec needs at least one stagger".to_owned());
        }
        if self.runs == 0 {
            return Err("spec field `runs` must be >= 1".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert!(CampaignSpec::default().validate().is_ok());
    }

    #[test]
    fn empty_axes_and_zero_runs_are_rejected() {
        let err = CampaignSpec { kernels: Vec::new(), ..CampaignSpec::default() }.validate();
        assert!(err.unwrap_err().contains("kernel"));
        let err = CampaignSpec { staggers: Vec::new(), ..CampaignSpec::default() }.validate();
        assert!(err.unwrap_err().contains("stagger"));
        let err = CampaignSpec { runs: 0, ..CampaignSpec::default() }.validate();
        assert!(err.unwrap_err().contains("runs"));
    }
}
