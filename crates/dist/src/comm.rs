//! Communication-cost accounting (Table 5 and Section 5.3).
//!
//! Every byte that crosses a site boundary is charged to one of a small set
//! of [`MessageKind`]s, so experiments can report both the total
//! communication cost of a migration strategy and its breakdown (raw
//! readings vs collapsed inference state vs query state vs ONS updates).

/// The kinds of inter-site messages the distributed system exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    /// Raw readings shipped to a central server (the Centralized baseline)
    /// or inside critical-region migration state.
    RawReadings,
    /// Collapsed or critical-region inference state moving with an object.
    InferenceState,
    /// Migrated per-object query state (possibly centroid-compressed).
    QueryState,
    /// Object-name-service custody updates (which site holds which tag).
    OnsUpdate,
    /// Transport control traffic: acks and anti-entropy resync requests.
    /// Only charged when the run's fault plan can lose a payload (loss,
    /// corruption or partitions), which is what switches the ack/retransmit
    /// exchange on; every other run sends none.
    Control,
}

impl MessageKind {
    /// Number of message kinds — the arity of every per-kind array,
    /// including the checkpoint form.
    pub const KINDS: usize = 5;

    /// All message kinds, in a fixed order.
    pub const ALL: [MessageKind; MessageKind::KINDS] = [
        MessageKind::RawReadings,
        MessageKind::InferenceState,
        MessageKind::QueryState,
        MessageKind::OnsUpdate,
        MessageKind::Control,
    ];

    fn index(self) -> usize {
        match self {
            MessageKind::RawReadings => 0,
            MessageKind::InferenceState => 1,
            MessageKind::QueryState => 2,
            MessageKind::OnsUpdate => 3,
            MessageKind::Control => 4,
        }
    }
}

/// Byte tallies per [`MessageKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommCost {
    bytes: [usize; MessageKind::KINDS],
    messages: [usize; MessageKind::KINDS],
}

impl CommCost {
    /// An empty tally.
    pub fn new() -> CommCost {
        CommCost::default()
    }

    /// Charge one message of `kind` costing `bytes` bytes.
    pub fn record(&mut self, kind: MessageKind, bytes: usize) {
        self.bytes[kind.index()] += bytes;
        self.messages[kind.index()] += 1;
    }

    /// Total bytes transferred across all message kinds.
    pub fn total_bytes(&self) -> usize {
        self.bytes.iter().sum()
    }

    /// Bytes transferred by one message kind.
    pub fn bytes_of_kind(&self, kind: MessageKind) -> usize {
        self.bytes[kind.index()]
    }

    /// Number of messages of one kind.
    pub fn messages_of_kind(&self, kind: MessageKind) -> usize {
        self.messages[kind.index()]
    }

    /// Total number of messages across all kinds.
    pub fn total_messages(&self) -> usize {
        self.messages.iter().sum()
    }

    /// The tally as `(bytes, messages)` arrays in [`MessageKind::ALL`]
    /// order — the form a [`SiteCheckpoint`](rfid_wire::SiteCheckpoint)
    /// carries.
    pub fn to_parts(&self) -> ([u64; MessageKind::KINDS], [u64; MessageKind::KINDS]) {
        (
            self.bytes.map(|b| b as u64),
            self.messages.map(|m| m as u64),
        )
    }

    /// Rebuild a tally from [`Self::to_parts`] arrays, the restore path of a
    /// checkpointed site. Round-trips exactly: `CommCost::from_parts(a, b)`
    /// of `c.to_parts()` equals `c`.
    pub fn from_parts(
        bytes: [u64; MessageKind::KINDS],
        messages: [u64; MessageKind::KINDS],
    ) -> CommCost {
        CommCost {
            bytes: bytes.map(|b| b as usize),
            messages: messages.map(|m| m as usize),
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &CommCost) {
        for i in 0..self.bytes.len() {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
        }
    }

    /// Merge many tallies — one per site worker, typically — into one.
    /// Addition is commutative, so the result is independent of the order in
    /// which workers finished.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a CommCost>) -> CommCost {
        let mut total = CommCost::new();
        for part in parts {
            total.merge(part);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_kind_tallies_sum_to_the_total() {
        let mut cost = CommCost::new();
        cost.record(MessageKind::RawReadings, 140);
        cost.record(MessageKind::InferenceState, 33);
        cost.record(MessageKind::InferenceState, 17);
        cost.record(MessageKind::QueryState, 256);
        cost.record(MessageKind::OnsUpdate, 10);
        let by_kind: usize = MessageKind::ALL
            .iter()
            .map(|&k| cost.bytes_of_kind(k))
            .sum();
        assert_eq!(by_kind, cost.total_bytes());
        assert_eq!(cost.total_bytes(), 456);
        assert_eq!(cost.messages_of_kind(MessageKind::InferenceState), 2);
        assert_eq!(cost.total_messages(), 5);
    }

    #[test]
    fn merge_adds_up() {
        let mut a = CommCost::new();
        a.record(MessageKind::QueryState, 5);
        let mut b = CommCost::new();
        b.record(MessageKind::QueryState, 7);
        b.record(MessageKind::OnsUpdate, 10);
        a.merge(&b);
        assert_eq!(a.bytes_of_kind(MessageKind::QueryState), 12);
        assert_eq!(a.total_bytes(), 22);
        assert_eq!(a.total_messages(), 3);
    }

    #[test]
    fn merged_aggregates_per_worker_tallies() {
        let mut a = CommCost::new();
        a.record(MessageKind::InferenceState, 100);
        let mut b = CommCost::new();
        b.record(MessageKind::InferenceState, 25);
        b.record(MessageKind::RawReadings, 14);
        let c = CommCost::new();
        let forward = CommCost::merged([&a, &b, &c]);
        let backward = CommCost::merged([&c, &b, &a]);
        assert_eq!(forward, backward);
        assert_eq!(forward.total_bytes(), 139);
        assert_eq!(forward.messages_of_kind(MessageKind::InferenceState), 2);
        assert_eq!(
            CommCost::merged(std::iter::empty::<&CommCost>()).total_bytes(),
            0
        );
    }

    #[test]
    fn parts_round_trip_the_tally() {
        let mut cost = CommCost::new();
        cost.record(MessageKind::RawReadings, 140);
        cost.record(MessageKind::InferenceState, 33);
        cost.record(MessageKind::QueryState, 256);
        cost.record(MessageKind::QueryState, 4);
        cost.record(MessageKind::OnsUpdate, 10);
        cost.record(MessageKind::Control, 6);
        let (bytes, messages) = cost.to_parts();
        assert_eq!(CommCost::from_parts(bytes, messages), cost);
        assert_eq!(bytes[2], 260, "kind order must match MessageKind::ALL");
        assert_eq!(messages[2], 2);
        assert_eq!(bytes[4], 6, "control is the fifth kind");
        assert_eq!(bytes.len(), MessageKind::KINDS);
    }

    #[test]
    fn empty_cost_is_zero() {
        let cost = CommCost::new();
        assert_eq!(cost.total_bytes(), 0);
        assert_eq!(cost.total_messages(), 0);
        for k in MessageKind::ALL {
            assert_eq!(cost.bytes_of_kind(k), 0);
        }
    }
}
