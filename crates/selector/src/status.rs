//! Node status covariates.

use anubis_hwsim::fault::IncidentCategory;

/// Real-time status of a node, the covariate vector of the survival models.
///
/// The paper lists "total up time, historical incident count, MTBI of
/// different incident types, etc." as the statuses the Selector queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStatus {
    /// Total hours the node has been in service.
    pub uptime_hours: f64,
    /// Hours since the node's last incident (uptime when none).
    pub hours_since_last_incident: f64,
    /// Total incidents observed on this node.
    pub incident_count: u32,
    /// Incidents per category, indexed by [`IncidentCategory::ALL`].
    pub category_counts: [u32; 9],
}

impl NodeStatus {
    /// A brand-new node.
    pub fn fresh() -> Self {
        Self {
            uptime_hours: 0.0,
            hours_since_last_incident: 0.0,
            incident_count: 0,
            category_counts: [0; 9],
        }
    }

    /// Records an incident of a category, resetting the last-incident
    /// clock.
    pub fn record_incident(&mut self, category: IncidentCategory) {
        self.incident_count += 1;
        self.category_counts[category.index()] += 1;
        self.hours_since_last_incident = 0.0;
    }

    /// Advances the clocks by `hours`.
    pub fn advance(&mut self, hours: f64) {
        let hours = hours.max(0.0);
        self.uptime_hours += hours;
        self.hours_since_last_incident += hours;
    }

    /// Mean time between incidents so far (total uptime when no incidents).
    pub fn mtbi_hours(&self) -> f64 {
        if self.incident_count == 0 {
            self.uptime_hours
        } else {
            self.uptime_hours / f64::from(self.incident_count)
        }
    }

    /// Dense feature vector for the survival models: uptime, recency,
    /// count, MTBI, then per-category counts.
    pub fn features(&self) -> Vec<f64> {
        self.feature_array().to_vec()
    }

    /// [`NodeStatus::features`] on the stack, for callers that must not
    /// allocate per node.
    pub fn feature_array(&self) -> [f64; Self::FEATURE_DIM] {
        let head = [
            self.uptime_hours,
            self.hours_since_last_incident,
            f64::from(self.incident_count),
            self.mtbi_hours(),
        ];
        let counts = self.category_counts.iter().map(|&c| f64::from(c));
        let mut features = [0.0; Self::FEATURE_DIM];
        for (slot, value) in features.iter_mut().zip(head.into_iter().chain(counts)) {
            *slot = value;
        }
        features
    }

    /// Length of [`NodeStatus::features`].
    pub const FEATURE_DIM: usize = 13;
}

impl Default for NodeStatus {
    fn default() -> Self {
        Self::fresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_all_zero() {
        let s = NodeStatus::fresh();
        assert_eq!(s.features(), vec![0.0; NodeStatus::FEATURE_DIM]);
        assert_eq!(s.mtbi_hours(), 0.0);
    }

    #[test]
    fn incident_updates_counts_and_resets_clock() {
        let mut s = NodeStatus::fresh();
        s.advance(100.0);
        s.record_incident(IncidentCategory::GpuCompute);
        assert_eq!(s.incident_count, 1);
        assert_eq!(s.hours_since_last_incident, 0.0);
        assert_eq!(s.uptime_hours, 100.0);
        s.advance(20.0);
        s.record_incident(IncidentCategory::IbLink);
        assert_eq!(s.incident_count, 2);
        assert_eq!(s.category_counts[0], 1, "GPU compute count");
        assert_eq!(s.category_counts[3], 1, "IB link count");
        assert_eq!(s.mtbi_hours(), 60.0);
    }

    #[test]
    fn feature_vector_has_documented_shape() {
        let mut s = NodeStatus::fresh();
        s.advance(10.0);
        s.record_incident(IncidentCategory::Disk);
        s.advance(5.0);
        let f = s.features();
        assert_eq!(f.len(), NodeStatus::FEATURE_DIM);
        assert_eq!(f[0], 15.0); // uptime
        assert_eq!(f[1], 5.0); // since last incident
        assert_eq!(f[2], 1.0); // count
        assert_eq!(f[3], 15.0); // mtbi
        assert_eq!(f[4 + 7], 1.0); // disk category index
    }

    #[test]
    fn negative_advance_is_ignored() {
        let mut s = NodeStatus::fresh();
        s.advance(-5.0);
        assert_eq!(s.uptime_hours, 0.0);
    }
}
