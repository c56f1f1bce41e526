//! The validating sweep-grid builder: a (glitch × load-failure) grid
//! of noisy [`SessionSpec`]s plus the labels that identify each cell.
//!
//! `noise-sweep` submits every cell to a [`Fleet`](super::Fleet) with
//! its label as the idempotency token. The grid goes through the same
//! typed validation as a single session: every cell spec is built by
//! [`SessionSpecBuilder`](super::session::SessionSpecBuilder), and an
//! empty axis or an out-of-range rate is a [`ConfigError`], not a
//! panic three cells into a sweep.

use super::session::{ConfigError, SessionSpec};

/// One cell of a sweep: its label and the validated session spec that
/// runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The label identifying the cell: the fleet submit token that
    /// dedups a rerun. It carries everything trace-determining: rates,
    /// seed, votes and container mode.
    pub label: String,
    /// The per-bit keystream glitch rate of this cell.
    pub glitch: f64,
    /// The transient load-failure rate of this cell.
    pub load_fail: f64,
    /// The validated spec.
    pub spec: SessionSpec,
}

/// A validated sweep grid, cells in row-major (glitch-outer) order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    cells: Vec<SweepCell>,
}

impl SweepGrid {
    /// A fresh builder with the standard noise-sweep axes
    /// (glitch ∈ {0, 0.5%, 1%, 2%} × load-fail ∈ {0, 10%, 25%}),
    /// seed 7, 5 votes.
    #[must_use]
    pub fn builder() -> SweepGridBuilder {
        SweepGridBuilder::default()
    }

    /// The cells, in grid order.
    #[must_use]
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty (it never is — the builder rejects
    /// empty axes — but clippy insists `len` has a partner).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Builds a [`SweepGrid`], validating on [`SweepGridBuilder::build`].
#[derive(Debug, Clone)]
pub struct SweepGridBuilder {
    glitches: Vec<f64>,
    load_fails: Vec<f64>,
    seed: u64,
    votes: u32,
    encrypted: bool,
}

impl Default for SweepGridBuilder {
    fn default() -> Self {
        Self {
            glitches: vec![0.0, 0.005, 0.01, 0.02],
            load_fails: vec![0.0, 0.10, 0.25],
            seed: 7,
            votes: 5,
            encrypted: false,
        }
    }
}

impl SweepGridBuilder {
    /// Replaces the glitch axis.
    #[must_use]
    pub fn glitches(mut self, glitches: &[f64]) -> Self {
        self.glitches = glitches.to_vec();
        self
    }

    /// Replaces the load-failure axis.
    #[must_use]
    pub fn load_fails(mut self, load_fails: &[f64]) -> Self {
        self.load_fails = load_fails.to_vec();
        self
    }

    /// Collapses the grid to the single acceptance-floor cell
    /// (1% glitch, 10% load failure) — the `--smoke` mode.
    #[must_use]
    pub fn smoke(mut self) -> Self {
        self.glitches = vec![0.01];
        self.load_fails = vec![0.10];
        self
    }

    /// The fault/jitter seed shared by every cell.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Majority-vote ballots per oracle query.
    #[must_use]
    pub fn votes(mut self, votes: u32) -> Self {
        self.votes = votes;
        self
    }

    /// Runs every cell over the Fig. 1 encrypted container: each
    /// candidate load is patch-sealed through the CBC patch oracle
    /// and device-verified before the noisy board sees it.
    #[must_use]
    pub fn encrypted(mut self, encrypted: bool) -> Self {
        self.encrypted = encrypted;
        self
    }

    /// Validates and produces the grid: each axis must be non-empty,
    /// and every cell spec passes full session validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyAxis`] for an empty axis, plus any
    /// per-cell spec validation error (out-of-range rate, even
    /// votes, …).
    pub fn build(self) -> Result<SweepGrid, ConfigError> {
        if self.glitches.is_empty() {
            return Err(ConfigError::EmptyAxis("glitch"));
        }
        if self.load_fails.is_empty() {
            return Err(ConfigError::EmptyAxis("load_fail"));
        }
        let mut cells = Vec::with_capacity(self.glitches.len() * self.load_fails.len());
        for &glitch in &self.glitches {
            for &load_fail in &self.load_fails {
                let spec = SessionSpec::builder()
                    .noisy(true)
                    .seed(self.seed)
                    .glitch(glitch)
                    .load_fail(load_fail)
                    .votes(self.votes)
                    .encrypted(self.encrypted)
                    .build()?;
                // The label carries everything trace-determining;
                // `encrypted` changes the journal contents (SCA
                // accounting), so it must split the cells.
                let container = if self.encrypted { " encrypted" } else { "" };
                cells.push(SweepCell {
                    label: format!(
                        "glitch={glitch} load_fail={load_fail} seed={} votes={}{container}",
                        self.seed, self.votes
                    ),
                    glitch,
                    load_fail,
                    spec,
                });
            }
        }
        Ok(SweepGrid { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_grid_matches_the_noise_sweep_table() {
        let grid = SweepGrid::builder().build().expect("valid");
        assert_eq!(grid.len(), 12);
        assert_eq!(grid.cells()[0].label, "glitch=0 load_fail=0 seed=7 votes=5");
        assert_eq!(grid.cells()[11].label, "glitch=0.02 load_fail=0.25 seed=7 votes=5");
        assert!(grid.cells().iter().all(|c| c.spec.is_noisy()));
    }

    #[test]
    fn smoke_collapses_to_the_acceptance_floor_cell() {
        let grid = SweepGrid::builder().smoke().build().expect("valid");
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.cells()[0].glitch, 0.01);
        assert_eq!(grid.cells()[0].load_fail, 0.10);
    }

    #[test]
    fn encrypted_grids_mark_every_cell_and_label() {
        let grid = SweepGrid::builder().smoke().encrypted(true).build().expect("valid");
        assert!(grid.cells().iter().all(|c| c.spec.is_encrypted()));
        assert!(grid.cells()[0].label.ends_with(" encrypted"));
        // Plaintext labels are untouched — fleet roots from earlier
        // sweeps keep deduping.
        let plain = SweepGrid::builder().smoke().build().expect("valid");
        assert!(!plain.cells()[0].label.contains("encrypted"));
    }

    #[test]
    fn invalid_axes_and_rates_are_typed_errors() {
        let err = SweepGrid::builder().glitches(&[]).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyAxis("glitch"));
        let err = SweepGrid::builder().load_fails(&[]).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyAxis("load_fail"));
        let err = SweepGrid::builder().glitches(&[2.0]).build().unwrap_err();
        assert!(matches!(err, ConfigError::RateOutOfRange { name: "glitch", .. }));
        let err = SweepGrid::builder().votes(2).build().unwrap_err();
        assert_eq!(err, ConfigError::BadVotes(2));
    }
}
