//! Golden outcome of the monitoring pipeline.
//!
//! A federated CollapsedWeights run with change detection on, Q1 and Q2
//! registered and anomalies injected feeds every site's query processor from
//! the enriched event stream, migrates each object's automata with it and
//! compresses them with centroid sharing. These literals pin what that path
//! produces — the alert count, the first alerts, the shared and unshared
//! query-state bytes and the QueryState wire bytes — at one worker and at
//! two, so a change to the event feed, the processor or the sharing pass
//! that alters an alert or a byte fails here before the BENCH rerun does.

use rfid_dist::{DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind};
use rfid_dist::{MigrationStrategy, WireFormat};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, TemperatureModel};
use rfid_types::{Epoch, LocationId, TagId};
use std::collections::BTreeMap;

const HORIZON: u32 = 1800;
const SITES: u32 = 3;
const ANOMALY_EVERY: u32 = 300;

fn chain() -> ChainTrace {
    presets::smoke_chain(HORIZON, SITES, Some(ANOMALY_EVERY))
}

/// Q1 over a freezer shelf at location 2 and Q2 at 10 °C, both shortened so
/// they fire inside the horizon; the product class alternates by serial.
fn config(chain: &ChainTrace, workers: usize) -> DistributedConfig {
    let properties: BTreeMap<TagId, String> = chain
        .objects()
        .into_iter()
        .map(|object| {
            let class = if object.serial() % 2 == 0 {
                "temperature-sensitive"
            } else {
                "frozen-food"
            };
            (object, class.to_string())
        })
        .collect();
    DistributedConfig {
        strategy: MigrationStrategy::CollapsedWeights,
        wire_format: WireFormat::Binary,
        queries: vec![
            ExposureQuery {
                duration_secs: 300,
                ..ExposureQuery::q1([])
            },
            ExposureQuery {
                duration_secs: 400,
                temp_threshold: 10.0,
                ..ExposureQuery::q2()
            },
        ],
        product_properties: properties,
        temperature: Some(TemperatureModel::new([LocationId(2)])),
        ..Default::default()
    }
    .with_workers(workers)
}

/// The first alerts of a run as `(query, tag, since, at)`.
type AlertKey = (String, TagId, Epoch, Epoch);

/// FNV-1a over every alert's query, tag, run bounds and collected readings,
/// in report order.
fn alerts_hash(outcome: &DistributedOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for alert in &outcome.alerts {
        eat(alert.query.as_bytes());
        eat(&alert.tag.raw().to_le_bytes());
        eat(&alert.since.0.to_le_bytes());
        eat(&alert.at.0.to_le_bytes());
        for (time, value) in &alert.readings {
            eat(&time.0.to_le_bytes());
            eat(&value.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Everything the monitoring path decides.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    alerts: usize,
    alerts_hash: u64,
    first_alerts: Vec<AlertKey>,
    shared_bytes: usize,
    unshared_bytes: usize,
    /// `(bytes, messages)` of [`MessageKind::QueryState`].
    query_state_comm: (usize, usize),
}

fn observe(outcome: &DistributedOutcome) -> Golden {
    Golden {
        alerts: outcome.alerts.len(),
        alerts_hash: alerts_hash(outcome),
        first_alerts: outcome
            .alerts
            .iter()
            .take(4)
            .map(|a| (a.query.clone(), a.tag, a.since, a.at))
            .collect(),
        shared_bytes: outcome.query_state_shared_bytes,
        unshared_bytes: outcome.query_state_unshared_bytes,
        query_state_comm: (
            outcome.comm.bytes_of_kind(MessageKind::QueryState),
            outcome.comm.messages_of_kind(MessageKind::QueryState),
        ),
    }
}

fn expected() -> Golden {
    let alert = |query: &str, serial: u64, since: u32, at: u32| {
        (
            query.to_string(),
            TagId::item(serial),
            Epoch(since),
            Epoch(at),
        )
    };
    Golden {
        alerts: 186,
        alerts_hash: 0x4cd2_3cca_a2b7_583c,
        first_alerts: vec![
            alert("Q1", 4, 0, 310),
            alert("Q1", 6, 0, 310),
            alert("Q2", 5, 0, 410),
            alert("Q1", 8, 300, 610),
        ],
        shared_bytes: 39_323,
        unshared_bytes: 57_602,
        query_state_comm: (39_323, 15),
    }
}

#[test]
fn monitoring_outcome_is_pinned_at_one_worker() {
    let chain = chain();
    let outcome = DistributedDriver::new(config(&chain, 1)).run(&chain);
    assert_eq!(observe(&outcome), expected());
}

#[test]
fn monitoring_outcome_is_pinned_at_two_workers() {
    let chain = chain();
    let outcome = DistributedDriver::new(config(&chain, 2)).run(&chain);
    assert_eq!(observe(&outcome), expected());
}
