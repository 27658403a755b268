//! Representation oracles for `Packet`, `FlowKey` and `FlowRecord`:
//! whatever the structs store internally, the by-value API gives back
//! exactly what each was built from, over the whole domain of each field,
//! and a key orders as its five-tuple does.

use hashflow_types::{FlowKey, FlowRecord, Ipv4Addr, Packet, FLOW_KEY_BYTES};
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

/// Any `u32`, with both ends and the top bit alone drawn often.
fn word() -> impl Strategy<Value = u32> {
    (0u8..8, any::<u32>()).prop_map(|(pick, w)| match pick {
        0 => 0,
        1 => u32::MAX,
        2 => 1 << 31,
        _ => w,
    })
}

/// Any `u8`, with both ends drawn often.
fn byte() -> impl Strategy<Value = u8> {
    (0u8..8, any::<u8>()).prop_map(|(pick, b)| match pick {
        0 => 0,
        1 => u8::MAX,
        _ => b,
    })
}

/// A five-tuple `(src_ip, dst_ip, src_port, dst_port, protocol)`.
type Tuple = (u32, u32, u16, u16, u8);

fn tuple() -> impl Strategy<Value = Tuple> {
    (word(), word(), wire_len(), wire_len(), byte())
}

fn key_of((s, d, sp, dp, p): Tuple) -> FlowKey {
    FlowKey::new(Ipv4Addr::new(s), Ipv4Addr::new(d), sp, dp, p)
}

/// A record count: 0, 1, 2³¹ and `u32::MAX` drawn often, else any.
fn count() -> impl Strategy<Value = u32> {
    (0u8..8, any::<u32>()).prop_map(|(pick, c)| match pick {
        0 => 0,
        1 => 1,
        2 => 1 << 31,
        3 => u32::MAX,
        _ => c,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `FlowKey::new` then the accessors is the identity on all five fields.
    #[test]
    fn key_gives_back_its_five_tuple(t in tuple()) {
        let k = key_of(t);
        prop_assert_eq!(
            (k.src_ip().to_bits(), k.dst_ip().to_bits(), k.src_port(), k.dst_port(), k.protocol()),
            t
        );
    }

    /// The byte form and the text form both round-trip, and the words are
    /// the byte form read little-endian.
    #[test]
    fn key_forms_round_trip(k in key()) {
        let bytes = k.to_bytes();
        prop_assert_eq!(FlowKey::from_bytes(bytes), k);
        prop_assert_eq!(k.to_string().parse::<FlowKey>().unwrap(), k);
        let (lo, hi) = k.to_words();
        let mut high = [0u8; 8];
        high[..FLOW_KEY_BYTES - 8].copy_from_slice(&bytes[8..]);
        prop_assert_eq!(lo, u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        prop_assert_eq!(hi, u64::from_le_bytes(high));
    }

    /// Keys order as their five-tuples do, field by field. `same` picks a
    /// prefix of fields the second tuple shares with the first, so every
    /// field gets to be the one that decides.
    #[test]
    fn key_order_is_the_five_tuple_order(a in tuple(), b in tuple(), same in 0u8..6) {
        let b = (
            if same > 0 { a.0 } else { b.0 },
            if same > 1 { a.1 } else { b.1 },
            if same > 2 { a.2 } else { b.2 },
            if same > 3 { a.3 } else { b.3 },
            if same > 4 { a.4 } else { b.4 },
        );
        prop_assert_eq!(key_of(a).cmp(&key_of(b)), a.cmp(&b));
        prop_assert_eq!(key_of(a) == key_of(b), a == b);
    }

    /// A record gives back its key and count, and `increment` adds one up
    /// to `u32::MAX` and stays there.
    #[test]
    fn record_gives_back_key_and_count(k in key(), c in count()) {
        let mut r = FlowRecord::new(k, c);
        prop_assert_eq!(r.key(), k);
        prop_assert_eq!(*r.key_ref(), k);
        prop_assert_eq!(r.count(), c);
        r.increment();
        prop_assert_eq!(r.key(), k);
        prop_assert_eq!(r.count(), c.saturating_add(1));
        r.set_count(u32::MAX);
        r.increment();
        prop_assert_eq!(r.count(), u32::MAX);
        prop_assert_eq!(r.key(), k);
    }
}
