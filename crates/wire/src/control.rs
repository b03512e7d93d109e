//! Transport control messages: acks and anti-entropy resync requests.
//!
//! The reliable-delivery transport of `rfid-dist` pairs every cross-site
//! payload with a sequence number on its directed edge; the receiver
//! acknowledges each arrival with an [`ControlMsg::Ack`], and a site
//! rejoining after downtime announces itself with a [`ControlMsg::Resync`]
//! per in-edge. Control messages ride the same versioned wire as every other
//! payload (kind `0x08`), so their bytes are charged and visible in the
//! communication tables.

use crate::codec::{message, parse, WireCodec, KIND_CONTROL};
use crate::layout::{wire_enum, TagRefs, Wire};
use crate::primitives::{Reader, Writer};
use crate::WireError;
use rfid_types::Epoch;

/// One transport control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Acknowledges receipt of the payload carrying sequence number `seq` on
    /// the directed edge `from → to` (sent back `to → from`).
    Ack {
        /// Sender of the acknowledged payload.
        from: u16,
        /// Receiver of the acknowledged payload (the ack's sender).
        to: u16,
        /// Acknowledged per-edge sequence number.
        seq: u64,
    },
    /// Anti-entropy resync request: `site` rejoined after downtime and asks
    /// `peer` to re-deliver anything unacked since `since`.
    Resync {
        /// The rejoining site.
        site: u16,
        /// The peer being asked to re-deliver.
        peer: u16,
        /// First epoch the rejoining site may have missed.
        since: Epoch,
    },
}

wire_enum!(ControlMsg {
    0 = Ack { from, to, seq },
    1 = Resync { site, peer, since }
});

impl WireCodec {
    /// Encode a transport control message.
    pub fn encode_control(&self, msg: &ControlMsg) -> Vec<u8> {
        message(KIND_CONTROL, msg, TagRefs::Raw)
    }

    /// Decode a [`Self::encode_control`] message.
    pub fn decode_control(&self, bytes: &[u8]) -> Result<ControlMsg, WireError> {
        parse(bytes, KIND_CONTROL, TagRefs::Raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireFormat;

    #[test]
    fn control_messages_round_trip_in_both_formats() {
        let msgs = [
            ControlMsg::Ack {
                from: 0,
                to: 7,
                seq: 0,
            },
            ControlMsg::Ack {
                from: u16::MAX,
                to: 0,
                seq: u64::MAX,
            },
            ControlMsg::Resync {
                site: 3,
                peer: 5,
                since: Epoch(0),
            },
            ControlMsg::Resync {
                site: 1,
                peer: 2,
                since: Epoch(u32::MAX),
            },
        ];
        let codec = WireCodec::new(WireFormat::Binary);
        for msg in &msgs {
            let bytes = codec.encode_control(msg);
            assert_eq!(&codec.decode_control(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn binary_acks_are_a_handful_of_bytes() {
        let binary = WireCodec::new(WireFormat::Binary);
        let bytes = binary.encode_control(&ControlMsg::Ack {
            from: 2,
            to: 5,
            seq: 17,
        });
        assert!(
            bytes.len() <= 8,
            "an ack should cost a handful of bytes, got {}",
            bytes.len()
        );
    }

    #[test]
    fn corrupted_control_messages_are_rejected() {
        let binary = WireCodec::new(WireFormat::Binary);
        let bytes = binary.encode_control(&ControlMsg::Ack {
            from: 1,
            to: 2,
            seq: 3,
        });
        for cut in 0..bytes.len() {
            assert!(binary.decode_control(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(binary.decode_control(&trailing).is_err());
        let mut bad_variant = bytes;
        bad_variant[2] = 9;
        assert!(binary.decode_control(&bad_variant).is_err());
    }
}
