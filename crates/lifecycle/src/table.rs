//! Bulk per-node lifecycle state tables for fleet-scale coordinators.
//!
//! A control plane over 100k+ nodes cannot afford a `BTreeMap<NodeId,
//! NodeLifecycle>` on its hot loop, and it *cannot* hold raw
//! [`NodeState`]s it sets by hand — outside this crate the type is
//! opaque and no state can be constructed. [`LifecycleTable`] is the
//! sanctioned middle ground: a flat `Vec<NodeState>` indexed by node, where every change
//! still routes through the one [`transition`] function, per-state
//! population counts are maintained incrementally (`O(1)` snapshots for
//! per-tick summaries), a bitset of the healthy nodes lets a placer jump
//! to the next free node ([`LifecycleTable::next_healthy`]) instead of
//! walking the states, and an optional journal records every applied
//! transition so tests can replay the whole history through
//! [`transition`] and prove the discipline held.

use crate::machine::{transition, LifecycleEvent, NodeState, State, TransitionError};

/// One applied transition, as recorded by the table's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Node index in the table.
    pub node: u32,
    /// State before the event.
    pub from: NodeState,
    /// The applied event.
    pub event: LifecycleEvent,
    /// State after the event.
    pub to: NodeState,
}

/// Per-state population counts of a table, taken in `O(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateCounts {
    /// Nodes in `Healthy`.
    pub healthy: usize,
    /// Nodes in `Busy`.
    pub busy: usize,
    /// Nodes in `Suspect`.
    pub suspect: usize,
    /// Nodes in `Validating`.
    pub validating: usize,
    /// Nodes in `Quarantined`.
    pub quarantined: usize,
    /// Nodes in `Repaired`.
    pub repaired: usize,
}

impl StateCounts {
    /// Nodes counting toward serving capacity (healthy + busy + suspect).
    pub fn in_service(&self) -> usize {
        self.healthy + self.busy + self.suspect
    }

    /// Total nodes across every state.
    pub fn total(&self) -> usize {
        self.healthy + self.busy + self.suspect + self.validating + self.quarantined + self.repaired
    }
}

/// A bulk per-node lifecycle table: flat state storage, incremental
/// per-state counts, a healthy-node bitset, and an optional transition
/// journal.
///
/// # Examples
///
/// ```
/// use anubis_lifecycle::{LifecycleEvent, LifecycleTable};
///
/// let mut table = LifecycleTable::new(4);
/// assert!(table.apply_if_legal(2, LifecycleEvent::RiskCrossed));
/// assert!(!table.apply_if_legal(2, LifecycleEvent::JobAssigned)); // suspect: no new work
/// assert_eq!(table.counts().suspect, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LifecycleTable {
    states: Vec<NodeState>,
    counts: StateCounts,
    /// Bit `node % 64` of word `node / 64` is set exactly when `node` is
    /// healthy; bits past the last node stay clear.
    healthy: Vec<u64>,
    journal: Option<Vec<TransitionRecord>>,
}

/// Adjusts one state's population count by `delta` (`+1`/`-1`).
fn bump(counts: &mut StateCounts, state: NodeState, delta: isize) {
    let slot = match state.0 {
        State::Healthy => &mut counts.healthy,
        State::Busy => &mut counts.busy,
        State::Suspect => &mut counts.suspect,
        State::Validating => &mut counts.validating,
        State::Quarantined => &mut counts.quarantined,
        State::Repaired => &mut counts.repaired,
    };
    *slot = slot.wrapping_add_signed(delta);
}

impl LifecycleTable {
    /// A table of `nodes` fresh (healthy) nodes with the journal off.
    pub fn new(nodes: usize) -> Self {
        let mut healthy = Vec::with_capacity(nodes.div_ceil(64));
        healthy.resize(nodes / 64, u64::MAX);
        let tail = nodes % 64;
        if tail > 0 {
            healthy.push((1 << tail) - 1);
        }
        Self {
            states: vec![NodeState::HEALTHY; nodes],
            counts: StateCounts {
                healthy: nodes,
                ..StateCounts::default()
            },
            healthy,
            journal: None,
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the table tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Read-only view of every node's state, indexed by node. Handing
    /// out the slice is safe: consumers can interrogate states (the
    /// predicate methods) but all mutation still comes back through
    /// [`LifecycleTable::apply`].
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// One node's state, or `None` when `node` is out of range.
    pub fn state(&self, node: usize) -> Option<NodeState> {
        self.states.get(node).copied()
    }

    /// Per-state population counts (maintained incrementally).
    pub fn counts(&self) -> StateCounts {
        self.counts
    }

    /// The first healthy node at or after `from`, or `None` when there is
    /// none. Scans the healthy bitset a 64-node word at a time.
    pub fn next_healthy(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.healthy.get(word)? & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.healthy.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Shared implementation of [`LifecycleTable::apply`] /
    /// [`LifecycleTable::apply_if_legal`]. Uniquely named on purpose: the
    /// A001 pass walks a name-based call graph from the public surface,
    /// and a generic method name here would alias unrelated `apply`s
    /// elsewhere in the workspace.
    fn apply_inner(
        &mut self,
        node: usize,
        event: LifecycleEvent,
    ) -> Result<NodeState, TransitionError> {
        let Some(slot) = self.states.get_mut(node) else {
            return Err(TransitionError {
                from: NodeState::HEALTHY,
                event,
            });
        };
        let from = *slot;
        let to = transition(from, event)?;
        *slot = to;
        bump(&mut self.counts, from, -1);
        bump(&mut self.counts, to, 1);
        if from.is_healthy() != to.is_healthy() {
            if let Some(word) = self.healthy.get_mut(node / 64) {
                *word ^= 1 << (node % 64);
            }
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.push(TransitionRecord {
                node: node.min(u32::MAX as usize) as u32,
                from,
                event,
                to,
            });
        }
        Ok(to)
    }

    /// Applies `event` to `node` through [`transition`].
    ///
    /// # Errors
    ///
    /// Returns the [`TransitionError`] (table unchanged) when the event
    /// is illegal in the node's current state or `node` is out of range
    /// (reported as an illegal transition from `Healthy`).
    pub fn apply(
        &mut self,
        node: usize,
        event: LifecycleEvent,
    ) -> Result<NodeState, TransitionError> {
        self.apply_inner(node, event)
    }

    /// Applies `event` when it is legal in the node's current state,
    /// returning whether it was applied. The gated twin of
    /// [`LifecycleTable::apply`] for coordinators whose proposals may
    /// legitimately race a state change (e.g. an incident report for a
    /// node that already left `Busy`).
    pub fn apply_if_legal(&mut self, node: usize, event: LifecycleEvent) -> bool {
        self.apply_inner(node, event).is_ok()
    }

    /// Whether `event` is legal in `node`'s current state.
    pub fn can(&self, node: usize, event: LifecycleEvent) -> bool {
        self.states
            .get(node)
            .is_some_and(|state| transition(*state, event).is_ok())
    }

    /// Turns the transition journal on (empty) — subsequent applies are
    /// recorded.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// The recorded transitions (empty when the journal is off).
    pub fn journal(&self) -> &[TransitionRecord] {
        self.journal.as_deref().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_applies_incrementally() {
        let mut table = LifecycleTable::new(3);
        assert_eq!(table.counts().healthy, 3);
        assert!(table.apply_if_legal(0, LifecycleEvent::RiskCrossed));
        assert!(table.apply_if_legal(0, LifecycleEvent::ValidationStarted));
        assert!(table.apply_if_legal(1, LifecycleEvent::JobAssigned));
        let counts = table.counts();
        assert_eq!(
            (counts.healthy, counts.busy, counts.validating),
            (1, 1, 1),
            "incremental counts must match the applied transitions"
        );
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.in_service(), 2);
    }

    #[test]
    fn illegal_events_leave_the_table_unchanged() {
        let mut table = LifecycleTable::new(1);
        assert!(table.apply(0, LifecycleEvent::ValidationPassed).is_err());
        assert!(table.apply(7, LifecycleEvent::RiskCrossed).is_err());
        assert_eq!(table.counts().healthy, 1);
        assert!(table.state(0).is_some_and(NodeState::is_healthy));
        assert_eq!(table.state(7), None);
    }

    #[test]
    fn journal_records_every_applied_transition() {
        let mut table = LifecycleTable::new(2);
        table.enable_journal();
        assert!(table.apply_if_legal(1, LifecycleEvent::RiskCrossed));
        assert!(!table.apply_if_legal(1, LifecycleEvent::JobAssigned)); // illegal: not recorded
        assert!(table.apply_if_legal(1, LifecycleEvent::ValidationStarted));
        let journal = table.journal();
        assert_eq!(journal.len(), 2);
        for record in journal {
            assert_eq!(
                transition(record.from, record.event),
                Ok(record.to),
                "journal must replay through the single transition function"
            );
        }
    }
}
