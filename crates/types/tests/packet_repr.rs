//! Representation oracle for `Packet`: whatever the struct stores
//! internally, the by-value API gives back exactly the key, timestamp and
//! wire length it was built from, over the whole domain of each.

use hashflow_types::{FlowKey, Packet, FLOW_KEY_BYTES};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Any 13 key bytes, with the all-zero and all-ones keys drawn often.
fn key() -> impl Strategy<Value = FlowKey> {
    (0u8..8, prop::collection::vec(any::<u8>(), FLOW_KEY_BYTES)).prop_map(|(pick, bytes)| {
        let bytes: [u8; FLOW_KEY_BYTES] = match pick {
            0 => [0; FLOW_KEY_BYTES],
            1 => [0xff; FLOW_KEY_BYTES],
            _ => bytes.try_into().expect("13 bytes"),
        };
        FlowKey::from_bytes(bytes)
    })
}

/// Any `u64`, with both ends of the range drawn often.
fn timestamp() -> impl Strategy<Value = u64> {
    (0u8..8, any::<u64>()).prop_map(|(pick, t)| match pick {
        0 => 0,
        1 => u64::MAX,
        _ => t,
    })
}

/// Any `u16`, with both ends of the range drawn often.
fn wire_len() -> impl Strategy<Value = u16> {
    (0u8..8, any::<u16>()).prop_map(|(pick, l)| match pick {
        0 => 0,
        1 => u16::MAX,
        _ => l,
    })
}

fn hash_of(p: &Packet) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `new` then the accessors is the identity on all three components.
    #[test]
    fn new_gives_back_its_components(k in key(), t in timestamp(), l in wire_len()) {
        let p = Packet::new(k, t, l);
        prop_assert_eq!(p.key(), k);
        prop_assert_eq!(p.key().to_bytes(), k.to_bytes());
        prop_assert_eq!(p.timestamp_ns(), t);
        prop_assert_eq!(p.wire_len(), l);
    }

    /// `with_timestamp` moves the timestamp and nothing else.
    #[test]
    fn with_timestamp_changes_only_the_timestamp(
        k in key(),
        t in timestamp(),
        l in wire_len(),
        t2 in timestamp(),
    ) {
        let p = Packet::new(k, t, l);
        let q = p.with_timestamp(t2);
        prop_assert_eq!(q, Packet::new(k, t2, l));
        prop_assert_eq!(q.key(), k);
        prop_assert_eq!(q.wire_len(), l);
        prop_assert_eq!(q.timestamp_ns(), t2);
        prop_assert_eq!(p.with_timestamp(t), p);
    }

    /// Two packets are equal iff their three components are, and equal
    /// packets hash alike. `same` picks per component whether the second
    /// packet shares it, so every combination of agreeing parts is drawn.
    #[test]
    fn equality_is_componentwise(
        (k1, k2) in (key(), key()),
        (t1, t2) in (timestamp(), timestamp()),
        (l1, l2) in (wire_len(), wire_len()),
        same in 0u8..8,
    ) {
        let k2 = if same & 1 != 0 { k1 } else { k2 };
        let t2 = if same & 2 != 0 { t1 } else { t2 };
        let l2 = if same & 4 != 0 { l1 } else { l2 };
        let p = Packet::new(k1, t1, l1);
        let q = Packet::new(k2, t2, l2);
        prop_assert_eq!(p == q, k1 == k2 && t1 == t2 && l1 == l2);
        if p == q {
            prop_assert_eq!(hash_of(&p), hash_of(&q));
        }
    }
}
