//! `key_ms.floor`: the key latency rebuilt from the fastest run of
//! each stage.
//!
//! Sessions that do the same work pass through the same stages. A
//! local headline session is cut into stages where its oracle calls
//! enter and leave the container layer (see [`crate::shim::Stamps`]);
//! a fleet headline session into its attack-phase spans plus
//! everything outside them. The floor of a run is the sum, over the
//! stages, of the stage's shortest time in any of the run's sessions.
//!
//! A contended host slows stretches of tens of milliseconds to seconds
//! by up to 2×. A whole session rarely runs uncontended, but each
//! short stage is uncontended in some session, so the floor follows
//! the program's own speed and not the host's share of contended time.
//! Sessions are grouped by their number of stages; the floor is taken
//! over the largest group.

use std::collections::BTreeMap;
use std::time::Instant;

/// The per-stage fastest times of a run's sessions.
#[derive(Debug, Clone, Default)]
pub struct StageFloor {
    /// Per stage count: the sessions seen and each stage's minimum.
    groups: BTreeMap<usize, (usize, Vec<f64>)>,
}

impl StageFloor {
    /// Folds in one session's stage times, ms.
    pub fn add(&mut self, stages: &[f64]) {
        let (sessions, best) =
            self.groups.entry(stages.len()).or_insert_with(|| (0, stages.to_vec()));
        *sessions += 1;
        for (b, s) in best.iter_mut().zip(stages) {
            *b = b.min(*s);
        }
    }

    /// Folds in one session cut at `cuts`, from its start to its end.
    pub fn add_cuts(&mut self, cuts: &[Instant]) {
        let stages: Vec<f64> = cuts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3).collect();
        self.add(&stages);
    }

    /// The floor, ms, and the number of sessions behind it.
    #[must_use]
    pub fn value(&self) -> Option<(f64, usize)> {
        let (sessions, best) = self.groups.values().max_by_key(|(sessions, _)| *sessions)?;
        Some((best.iter().sum(), *sessions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_sums_each_stage_minimum_over_the_largest_group() {
        let mut f = StageFloor::default();
        assert_eq!(f.value(), None);
        f.add(&[5.0, 1.0, 9.0]);
        f.add(&[2.0, 4.0, 9.5]);
        f.add(&[100.0]);
        assert_eq!(f.value(), Some((12.0, 2)));
    }
}
