//! Invariant oracles: post-run audits that every distributed outcome must
//! pass, chaotic or not.
//!
//! A chaos soak is only as good as its oracles: injecting crashes, loss,
//! corruption and skew proves nothing unless something checks that the
//! system degraded *accountably*. [`audit`] runs the full battery against a
//! finished [`DistributedOutcome`]:
//!
//! * **envelope conservation** — every envelope the transport accepted is
//!   abandoned, accepted or dark (receiver down through the horizon); every
//!   transmitted copy is received or left undelivered; byte-for-byte, per
//!   directed edge ([`EdgeLedger`](crate::EdgeLedger)'s doc equations),
//!   the Centralized uplink's site → server edges included. The ledgers are
//!   the only transport book: the outcome's
//!   [`TransportStats`](crate::TransportStats) is derived from them, so
//!   balanced ledgers are balanced transport counters;
//! * **quarantine accounting** — every poisoned payload is in the
//!   quarantine list, once, and the list's length equals the ledgers'
//!   `quarantined` sum;
//! * **ONS custody** — the custody registry equals the one recomputed from
//!   the static transfer schedule (custody never depends on inference);
//! * **containment sanity** — only the chain's objects are reported, never
//!   containers or unknown tags.
//!
//! The two-run oracles ("a zero-downtime crash-restore at any chaos point
//! is bit-identical to the uncrashed run", "1 and N workers agree") compare
//! outcomes field by field with [`assert_identical`]; the test suites and
//! the bench runners supply the two runs.

use crate::comm::MessageKind;
use crate::driver::DistributedOutcome;
use crate::ons::Ons;
use rfid_sim::ChainTrace;
use std::collections::BTreeSet;
use std::fmt;

/// One failed invariant: which oracle fired and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// Human-readable account of the imbalance.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: String) -> Violation {
        Violation { oracle, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle `{}` violated: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Audit a finished run against every invariant oracle. Returns the first
/// violation found, or `Ok(())` when the outcome is fully accountable.
pub fn audit(chain: &ChainTrace, outcome: &DistributedOutcome) -> Result<(), Violation> {
    edge_conservation(outcome)?;
    quarantine_accounting(outcome)?;
    ons_custody(chain, outcome)?;
    containment_sanity(chain, outcome)
}

/// The four per-edge ledger equations (see [`rfid_wire::EdgeLedger`]).
fn edge_conservation(outcome: &DistributedOutcome) -> Result<(), Violation> {
    for ledger in &outcome.ledgers {
        let edge = (ledger.from, ledger.to);
        if ledger.envelopes != ledger.abandoned + ledger.accepted + ledger.dark_envelopes {
            return Err(Violation::new(
                "edge-conservation",
                format!(
                    "edge {edge:?}: envelopes {} != abandoned {} + accepted {} + dark {}",
                    ledger.envelopes, ledger.abandoned, ledger.accepted, ledger.dark_envelopes
                ),
            ));
        }
        if ledger.sent_copies != ledger.recv_copies + ledger.undelivered {
            return Err(Violation::new(
                "edge-conservation",
                format!(
                    "edge {edge:?}: sent copies {} != received {} + undelivered {}",
                    ledger.sent_copies, ledger.recv_copies, ledger.undelivered
                ),
            ));
        }
        if ledger.sent_bytes != ledger.recv_bytes + ledger.undelivered_bytes {
            return Err(Violation::new(
                "edge-conservation",
                format!(
                    "edge {edge:?}: sent bytes {} != received {} + undelivered {}",
                    ledger.sent_bytes, ledger.recv_bytes, ledger.undelivered_bytes
                ),
            ));
        }
        if ledger.accepted != ledger.imported + ledger.stale + ledger.quarantined {
            return Err(Violation::new(
                "edge-conservation",
                format!(
                    "edge {edge:?}: accepted {} != imported {} + stale {} + quarantined {}",
                    ledger.accepted, ledger.imported, ledger.stale, ledger.quarantined
                ),
            ));
        }
    }
    Ok(())
}

/// Every quarantined envelope appears exactly once in the merged quarantine
/// list, whose length matches the ledgers' `quarantined` sum.
fn quarantine_accounting(outcome: &DistributedOutcome) -> Result<(), Violation> {
    let listed = outcome.quarantine.len() as u64;
    if listed != outcome.transport.quarantined {
        return Err(Violation::new(
            "quarantine-accounting",
            format!(
                "{listed} quarantine entries != transport counter {}",
                outcome.transport.quarantined
            ),
        ));
    }
    let mut seen = BTreeSet::new();
    for (site, entry) in &outcome.quarantine {
        if !seen.insert((*site, entry.from, entry.seq)) {
            return Err(Violation::new(
                "quarantine-accounting",
                format!(
                    "envelope (from {}, seq {}) quarantined twice at site {}",
                    entry.from, entry.seq, site.0
                ),
            ));
        }
    }
    Ok(())
}

/// Custody is a pure function of the static transfer schedule; the outcome's
/// registry must equal the recomputation.
fn ons_custody(chain: &ChainTrace, outcome: &DistributedOutcome) -> Result<(), Violation> {
    let mut expected = Ons::new();
    for tr in &chain.transfers {
        expected.register(tr.tag, tr.to_site);
    }
    if expected != outcome.ons {
        let diff = expected
            .iter()
            .find(|&(tag, site)| outcome.ons.lookup(tag) != Some(site))
            .map(|(tag, site)| {
                format!(
                    "tag {tag:?}: schedule says site {}, registry says {:?}",
                    site.0,
                    outcome.ons.lookup(tag)
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "registry has {} entries, schedule implies {}",
                    outcome.ons.len(),
                    expected.len()
                )
            });
        return Err(Violation::new("ons-custody", diff));
    }
    Ok(())
}

/// The reported containment only ever mentions the chain's objects.
fn containment_sanity(chain: &ChainTrace, outcome: &DistributedOutcome) -> Result<(), Violation> {
    let objects: BTreeSet<_> = chain.objects().into_iter().collect();
    for (object, _container) in outcome.containment.iter() {
        if !objects.contains(&object) {
            return Err(Violation::new(
                "containment-sanity",
                format!("containment reports {object:?}, which is not a chain object"),
            ));
        }
    }
    Ok(())
}

/// Convenience: audit and panic with the violation on failure. For tests and
/// bench runners, where an unaccountable run should abort loudly.
pub fn assert_audit(chain: &ChainTrace, outcome: &DistributedOutcome) {
    if let Err(violation) = audit(chain, outcome) {
        panic!("{violation}");
    }
}

/// A deterministic part of a [`DistributedOutcome`] a comparison can exempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `transport`: envelopes, retransmissions, acks, dedup drops, ….
    Transport,
    /// `ledgers`: the per-edge conservation ledgers.
    Ledgers,
}

/// The one strict outcome comparison: every deterministic field of `other`
/// equals `reference`'s — all of them except `inference_wall`. Panics with
/// `label` and the first field that diverged.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistributedConfig, MigrationStrategy};
    use crate::driver::DistributedDriver;
    use rfid_sim::{presets, FaultPlan};
    use rfid_types::SiteId;

    fn outcome_under(plan: Option<rfid_sim::FaultPlan>) -> (ChainTrace, DistributedOutcome) {
        let chain = presets::smoke_chain(900, 3, None);
        let mut config = DistributedConfig {
            strategy: MigrationStrategy::CollapsedWeights,
            inference: rfid_core::InferenceConfig::default().without_change_detection(),
            ..DistributedConfig::default()
        };
        config.faults = plan;
        let outcome = DistributedDriver::new(config).run(&chain);
        (chain, outcome)
    }

    #[test]
    fn a_fault_free_run_passes_every_oracle() {
        let (chain, outcome) = outcome_under(None);
        assert!(
            !outcome.ledgers.is_empty(),
            "every run books per-edge ledgers"
        );
        for ledger in &outcome.ledgers {
            // Nothing lost, duplicated, stale or poisoned: each half of the
            // edge's books equals the other.
            assert!(ledger.envelopes > 0, "{ledger:?}");
            assert_eq!(ledger.envelopes, ledger.accepted, "{ledger:?}");
            assert_eq!(ledger.accepted, ledger.imported, "{ledger:?}");
            assert_eq!(ledger.sent_copies, ledger.recv_copies, "{ledger:?}");
            assert_eq!(ledger.sent_bytes, ledger.recv_bytes, "{ledger:?}");
        }
        audit(&chain, &outcome).unwrap();
    }

    #[test]
    fn a_chaotic_run_passes_every_oracle() {
        let chain = presets::smoke_chain(900, 3, None);
        let horizon = chain.sites[0].meta.length;
        let plan = FaultPlan::soak(41, chain.sites.len() as u16, horizon);
        let (chain, outcome) = outcome_under(Some(plan));
        assert!(
            !outcome.ledgers.is_empty(),
            "a chaotic run books per-edge ledgers"
        );
        audit(&chain, &outcome).unwrap();
    }

    #[test]
    fn a_cooked_ledger_is_caught() {
        let chain = presets::smoke_chain(900, 3, None);
        let horizon = chain.sites[0].meta.length;
        let plan = FaultPlan::soak(41, chain.sites.len() as u16, horizon);
        let (chain, mut outcome) = outcome_under(Some(plan));
        let ledger = outcome
            .ledgers
            .iter_mut()
            .find(|l| l.envelopes > 0)
            .expect("a chaotic run sends envelopes");
        ledger.envelopes += 1; // one envelope silently lost
        let violation = audit(&chain, &outcome).unwrap_err();
        assert_eq!(violation.oracle, "edge-conservation");
        assert!(violation.detail.contains("envelopes"));
        assert!(!format!("{violation}").is_empty());
    }

    /// The Centralized uplink books one site → server ledger per forwarding
    /// site, so the conservation oracle covers its batches too.
    #[test]
    fn a_cooked_uplink_ledger_is_caught() {
        let chain = presets::smoke_chain(900, 3, None);
        let horizon = chain.sites[0].meta.length;
        let config = DistributedConfig {
            strategy: MigrationStrategy::Centralized,
            inference: rfid_core::InferenceConfig::default().without_change_detection(),
            faults: Some(FaultPlan::soak(41, chain.sites.len() as u16, horizon)),
            ..DistributedConfig::default()
        };
        let mut outcome = DistributedDriver::new(config).run(&chain);
        // One uplink per site that read anything; the server is site 3.
        let forwarding: Vec<(u16, u16)> = (0..3u16)
            .filter(|&s| !chain.sites[usize::from(s)].readings.is_empty())
            .map(|s| (s, 3))
            .collect();
        let edges: Vec<(u16, u16)> = outcome.ledgers.iter().map(|l| (l.from, l.to)).collect();
        assert_eq!(edges, forwarding);
        audit(&chain, &outcome).unwrap();
        outcome.ledgers[0].recv_copies += 1; // one batch ingested twice
        let violation = audit(&chain, &outcome).unwrap_err();
        assert_eq!(violation.oracle, "edge-conservation");
        assert!(violation.detail.contains("copies"), "{violation}");
    }

    #[test]
    fn a_cooked_custody_registry_is_caught() {
        let (chain, mut outcome) = outcome_under(None);
        let (tag, site) = outcome.ons.iter().next().expect("transfers registered");
        outcome.ons.register(tag, SiteId(site.0 + 1));
        let violation = audit(&chain, &outcome).unwrap_err();
        assert_eq!(violation.oracle, "ons-custody");
    }

    #[test]
    fn a_dropped_quarantine_entry_is_caught() {
        let chain = presets::smoke_chain(900, 3, None);
        let horizon = chain.sites[0].meta.length;
        // Corruption-heavy plan so at least one envelope is quarantined.
        let mut config = rfid_sim::FaultPlanConfig::quiet(
            presets::SMOKE_SEED,
            chain.sites.len() as u16,
            horizon,
        );
        config.corruption_probability = 1.0;
        let plan = rfid_sim::FaultPlan::generate(&config);
        let (chain, mut outcome) = outcome_under(Some(plan));
        assert!(
            outcome.transport.quarantined > 0,
            "a fully corrupted link quarantines every envelope"
        );
        outcome.quarantine.pop();
        let violation = audit(&chain, &outcome).unwrap_err();
        assert_eq!(violation.oracle, "quarantine-accounting");
    }
}
