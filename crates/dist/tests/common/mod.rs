//! The one strict outcome comparison shared by the bit-identity suites.
//!
//! [`assert_identical`] compares every deterministic field of a
//! [`DistributedOutcome`] — all of them except `inference_wall`. A suite
//! whose two runs legitimately differ in one field says so by name through
//! [`assert_identical_except`], with the reason next to it.

use rfid_dist::{DistributedOutcome, MessageKind};

/// A deterministic part of a [`DistributedOutcome`] a comparison can exempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // each suite names only the exemptions it needs
pub enum Field {
    /// `transport`: envelopes, retransmissions, acks, dedup drops, ….
    Transport,
    /// `ledgers`: the per-edge conservation ledgers.
    Ledgers,
}

/// Every deterministic field of `other` equals `reference`'s.
pub fn assert_identical(reference: &DistributedOutcome, other: &DistributedOutcome, label: &str) {
    assert_identical_except(reference, other, label, &[]);
}

/// [`assert_identical`] minus the fields named in `exempt`, each with the
/// one-line reason the two runs may differ there.
pub fn assert_identical_except(
    reference: &DistributedOutcome,
    other: &DistributedOutcome,
    label: &str,
    exempt: &[(Field, &str)],
) {
    let checked = |field: Field| exempt.iter().all(|&(exempted, _)| exempted != field);
    assert_eq!(
        reference.containment, other.containment,
        "{label}: containment diverged"
    );
    for kind in MessageKind::ALL {
        assert_eq!(
            reference.comm.bytes_of_kind(kind),
            other.comm.bytes_of_kind(kind),
            "{label}: bytes of {kind:?} diverged"
        );
        assert_eq!(
            reference.comm.messages_of_kind(kind),
            other.comm.messages_of_kind(kind),
            "{label}: message count of {kind:?} diverged"
        );
    }
    assert_eq!(reference.alerts, other.alerts, "{label}: alerts diverged");
    assert_eq!(
        reference.query_state_shared_bytes, other.query_state_shared_bytes,
        "{label}: shared query-state bytes diverged"
    );
    assert_eq!(
        reference.query_state_unshared_bytes, other.query_state_unshared_bytes,
        "{label}: unshared query-state bytes diverged"
    );
    assert_eq!(reference.ons, other.ons, "{label}: ONS custody diverged");
    assert_eq!(
        reference.inference_runs, other.inference_runs,
        "{label}: inference-run count diverged"
    );
    assert_eq!(
        reference.inference_stats, other.inference_stats,
        "{label}: dirty-set and reuse counters diverged"
    );
    if checked(Field::Transport) {
        assert_eq!(
            reference.transport, other.transport,
            "{label}: transport counters diverged"
        );
    }
    assert_eq!(
        reference.quarantine, other.quarantine,
        "{label}: quarantine ledger diverged"
    );
    assert_eq!(
        reference.memory, other.memory,
        "{label}: memory counters diverged"
    );
    if checked(Field::Ledgers) {
        assert_eq!(
            reference.ledgers, other.ledgers,
            "{label}: per-edge conservation ledgers diverged"
        );
    }
}
