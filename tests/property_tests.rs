//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use hashflow_suite::core::scheme::MainTable;
use hashflow_suite::core::{model, TableScheme};
use hashflow_suite::prelude::*;
use hashflow_suite::primitives::{BloomFilter, CountMinSketch, CounterArray};
use hashflow_suite::types::Packet;
use proptest::prelude::*;
use std::collections::HashMap;

fn packets(flows: u64, packets: usize) -> impl Strategy<Value = Vec<Packet>> {
    prop::collection::vec(0..flows, 1..packets).prop_map(|ids| {
        ids.into_iter()
            .map(|f| Packet::new(FlowKey::from_index(f), 0, 64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow keys serialize bijectively.
    #[test]
    fn flow_key_round_trip(a in any::<u32>(), b in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(), proto in any::<u8>()) {
        let key = FlowKey::new(a.into(), b.into(), sp, dp, proto);
        prop_assert_eq!(FlowKey::from_bytes(key.to_bytes()), key);
    }

    /// The canonical text form (`10.0.0.1:80->10.0.0.2:443/6`) round-trips
    /// through Display/FromStr for every five-tuple.
    #[test]
    fn flow_key_display_round_trip(a in any::<u32>(), b in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(), proto in any::<u8>()) {
        let key = FlowKey::new(a.into(), b.into(), sp, dp, proto);
        let text = key.to_string();
        let parsed: FlowKey = text.parse().expect("canonical form parses");
        prop_assert_eq!(parsed, key, "text was {}", text);
    }

    /// XOR of keys is an abelian group operation with identity zero.
    #[test]
    fn flow_key_xor_group(x in any::<u64>(), y in any::<u64>()) {
        let a = FlowKey::from_index(x);
        let b = FlowKey::from_index(y);
        prop_assert_eq!(a.xor(&b), b.xor(&a));
        prop_assert!(a.xor(&a).is_zero());
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    /// Packed counters behave like a Vec<u64> with clamping.
    #[test]
    fn counter_array_matches_reference(width in 1u32..=32, ops in prop::collection::vec((0usize..50, 0u64..1_000_000), 1..200)) {
        let mut packed = CounterArray::new(50, width).unwrap();
        let mut reference = vec![0u64; 50];
        let max = packed.max_value();
        for (idx, delta) in ops {
            packed.add(idx, delta);
            reference[idx] = (reference[idx].saturating_add(delta)).min(max);
        }
        for (i, &want) in reference.iter().enumerate() {
            prop_assert_eq!(packed.get(i), want, "cell {}", i);
        }
    }

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_no_false_negatives(keys in prop::collection::hash_set(0u64..100_000, 1..200)) {
        let mut bf = BloomFilter::new(8192, 4, 9).unwrap();
        for &k in &keys {
            bf.insert(&FlowKey::from_index(k));
        }
        for &k in &keys {
            prop_assert!(bf.contains(&FlowKey::from_index(k)));
        }
    }

    /// Count-min sketches never underestimate (32-bit counters, no
    /// saturation at these magnitudes).
    #[test]
    fn count_min_overestimates(stream in prop::collection::vec(0u64..100, 1..500)) {
        let mut cm = CountMinSketch::new(3, 128, 32, 4).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &f in &stream {
            cm.add(&FlowKey::from_index(f), 1);
            *truth.entry(f).or_insert(0) += 1;
        }
        for (f, t) in truth {
            prop_assert!(cm.query(&FlowKey::from_index(f)) >= t);
        }
    }

    /// The main table's collision resolution never splits or loses an
    /// inserted record: a record, once present, retains a count equal to
    /// the number of packets that actually reached it (<= truth), and no
    /// key appears in two buckets.
    #[test]
    fn main_table_records_unique_and_bounded(stream in packets(64, 400)) {
        let mut table = MainTable::new(TableScheme::MultiHash { depth: 3 }, 32, 5).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for p in &stream {
            table.probe(&p.key());
            *truth.entry(p.key()).or_insert(0) += 1;
        }
        let records: Vec<FlowRecord> = table.records().collect();
        let mut seen = std::collections::HashSet::new();
        for rec in &records {
            prop_assert!(seen.insert(rec.key()), "key stored twice");
            prop_assert!(rec.count() <= truth[&rec.key()], "overcount");
            prop_assert!(rec.count() >= 1);
        }
    }

    /// HashFlow's estimates never exceed the true size when digests are
    /// wide enough to avoid aliasing in a tiny key universe, and records
    /// reported from the main table agree with the estimate API.
    #[test]
    fn hashflow_consistent_under_arbitrary_streams(stream in packets(128, 600)) {
        let config = HashFlowConfig::builder()
            .main_cells(48)
            .ancillary_cells(256)
            .digest_bits(24)
            .seed(8)
            .build()
            .unwrap();
        let mut hf = HashFlow::new(config).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for p in &stream {
            hf.process_packet(p);
            *truth.entry(p.key()).or_insert(0) += 1;
        }
        for rec in hf.flow_records() {
            prop_assert_eq!(hf.estimate_size(&rec.key()), rec.count());
            prop_assert!(rec.count() <= truth[&rec.key()]);
        }
        // Cost identity: every packet accounted once.
        prop_assert_eq!(hf.cost().packets as usize, stream.len());
    }

    /// FlowRadar's decode, when it recovers a flow, recovers the exact
    /// packet count.
    #[test]
    fn flowradar_decode_exact(stream in packets(80, 400)) {
        let mut fr = FlowRadar::new(512, 6).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for p in &stream {
            fr.process_packet(p);
            *truth.entry(p.key()).or_insert(0) += 1;
        }
        for rec in fr.flow_records() {
            prop_assert_eq!(Some(&rec.count()), truth.get(&rec.key()));
        }
    }

    /// HashPipe never overcounts a flow (fragments sum to at most truth).
    #[test]
    fn hashpipe_never_overcounts(stream in packets(96, 500)) {
        let mut hp = HashPipe::new(4, 16, 7).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for p in &stream {
            hp.process_packet(p);
            *truth.entry(p.key()).or_insert(0) += 1;
        }
        for rec in hp.flow_records() {
            prop_assert!(rec.count() <= truth[&rec.key()]);
        }
    }

    /// ElasticSketch never *under*-estimates flows whose packets all hit
    /// 32-bit-counter paths... its light part uses 8-bit counters, so we
    /// assert the weaker invariant: every true flow has a positive
    /// estimate (nothing is forgotten entirely).
    #[test]
    fn elastic_never_forgets(stream in packets(64, 300)) {
        let mut es = ElasticSketch::new(3, 32, 96, 8, 3).unwrap();
        let mut flows = std::collections::HashSet::new();
        for p in &stream {
            es.process_packet(p);
            flows.insert(p.key());
        }
        for f in flows {
            prop_assert!(es.estimate_size(&f) > 0, "flow {:?} forgotten", f);
        }
    }

    /// The analytic model is a proper probability for arbitrary inputs.
    #[test]
    fn model_outputs_are_probabilities(load in 0.0f64..8.0, depth in 1usize..12, alpha_pct in 5u32..=100) {
        let alpha = f64::from(alpha_pct) / 100.0;
        let u1 = model::multi_hash_utilization(load, depth);
        let u2 = model::pipelined_utilization(load, depth, alpha);
        prop_assert!((0.0..=1.0).contains(&u1), "multi {}", u1);
        prop_assert!((0.0..=1.0).contains(&u2), "piped {}", u2);
    }

    /// Trace generation is deterministic and ground truth always matches
    /// the emitted packet stream.
    #[test]
    fn trace_ground_truth_consistency(flows in 1usize..300, seed in 0u64..50) {
        let trace = TraceGenerator::new(TraceProfile::Isp2, seed).generate(flows);
        let counted = GroundTruth::from_packets(trace.packets());
        prop_assert_eq!(counted.flow_count(), trace.flow_count());
        for rec in trace.ground_truth() {
            prop_assert_eq!(counted.size_of(&rec.key()), Some(rec.count()));
        }
    }
}

// Robustness: the wire-format parsers must never panic on arbitrary bytes,
// and the HTTP layer's percent decoding holds its laws on any text.
mod parser_robustness {
    use hashflow_server::http::percent_decode;
    use hashflow_server::wire::{self, DATAGRAM_RECORDS, MAGIC};
    use hashflow_suite::netflow_export::decode_datagram;
    use hashflow_suite::trace::read_pcap;
    use hashflow_suite::types::{FlowKey, Packet, FLOW_KEY_BYTES};
    use proptest::prelude::*;

    /// A packet from any 13 key bytes, any timestamp and any length.
    fn packet() -> impl Strategy<Value = Packet> {
        (
            prop::collection::vec(any::<u8>(), FLOW_KEY_BYTES),
            any::<u64>(),
            any::<u16>(),
        )
            .prop_map(|(key, ts, len)| {
                Packet::new(FlowKey::from_bytes(key.try_into().unwrap()), ts, len)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary bytes through the pcap reader: errors are fine,
        /// panics are not, and a valid prefix may parse.
        #[test]
        fn pcap_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2_000)) {
            let _ = read_pcap(&bytes[..]);
        }

        /// Arbitrary bytes through the NetFlow v5 decoder.
        #[test]
        fn netflow_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2_000)) {
            let _ = decode_datagram(&bytes);
        }

        /// Bytes that *start* with a valid pcap header but carry garbage
        /// records must error, not panic or loop.
        #[test]
        fn pcap_garbage_after_header(bytes in prop::collection::vec(any::<u8>(), 0..500)) {
            let mut buf = Vec::new();
            hashflow_suite::trace::write_pcap(&mut buf, &[]).unwrap();
            buf.extend_from_slice(&bytes);
            let _ = read_pcap(&buf[..]);
        }

        /// Arbitrary bytes through the HFW1 decoder the daemon runs on
        /// every UDP datagram.
        #[test]
        fn hfw1_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2_000)) {
            let _ = wire::decode_datagram(&bytes);
        }

        /// Bytes after a valid `HFW1` magic, so the record count and the
        /// records are garbage: errors are fine, panics are not.
        #[test]
        fn hfw1_garbage_after_header(bytes in prop::collection::vec(any::<u8>(), 0..2_000)) {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&bytes);
            let _ = wire::decode_datagram(&buf);
        }

        /// Encoding then decoding is the identity, empty, single-record,
        /// odd-sized and full datagrams alike.
        #[test]
        fn hfw1_round_trips(
            pick in 0usize..4,
            packets in prop::collection::vec(packet(), DATAGRAM_RECORDS),
        ) {
            let n = [0, 1, 255, DATAGRAM_RECORDS][pick];
            let packets = &packets[..n];
            let decoded = wire::decode_datagram(&wire::encode_datagram(packets)).unwrap();
            prop_assert_eq!(decoded.as_slice(), packets);
        }
    }

    /// Text from escape-shaped pieces — `%`, signs, hex and non-hex
    /// digits, escapes of multi-byte characters cut short — and any
    /// character at all, so escapes, near-escapes and escapes truncated
    /// by the end of the input all occur.
    fn url_text() -> impl Strategy<Value = String> {
        const PIECES: [&str; 12] = [
            "%", "+", "-", "0", "7", "a", "F", "g", "/", "%2F", "%e2%82", "%ff",
        ];
        let piece = (0..PIECES.len() + 2, any::<u32>());
        prop::collection::vec(piece, 0..40).prop_map(|picks| {
            let pick = |(i, c): (usize, u32)| match PIECES.get(i) {
                Some(piece) => (*piece).to_string(),
                None => char::from_u32(c % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
            };
            picks.into_iter().map(pick).collect()
        })
    }

    /// Starts of the text after a `%` that make it no escape: the next
    /// two characters are not both hex digits, or the input ends first.
    const NOT_AN_ESCAPE: [&str; 13] = [
        "+1", "+f", "-1", "g0", "0g", "%4", "F%", "0/", " 0", "\u{e9}0", "", "0", "F",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Request paths and query strings are untrusted text: decoding
        /// never panics and never grows it (an escape is three bytes for
        /// one, and an escaped byte that is not valid UTF-8 becomes at
        /// most one three-byte replacement character).
        #[test]
        fn percent_decoding_never_panics_or_grows(text in url_text()) {
            let decoded = percent_decode(&text);
            prop_assert!(decoded.len() <= text.len(), "{text:?} -> {decoded:?}");
        }

        /// Escaping every byte of a string, in either case of hex
        /// digit, decodes back to the string.
        #[test]
        fn percent_encoded_text_decodes_back(text in url_text(), upper in any::<bool>()) {
            let encoded: String = text
                .bytes()
                .map(|b| if upper { format!("%{b:02X}") } else { format!("%{b:02x}") })
                .collect();
            prop_assert_eq!(percent_decode(&encoded), text);
        }

        /// A `%` not followed by two hex digits is kept as it is, and
        /// the text on either side decodes as it would alone.
        #[test]
        fn a_percent_without_two_hex_digits_passes_through(
            (head, start, rest) in (url_text(), 0..NOT_AN_ESCAPE.len(), url_text()),
        ) {
            let start = NOT_AN_ESCAPE[start];
            // The one- and zero-character starts only hold at the end.
            let tail = if start.chars().count() < 2 {
                start.to_string()
            } else {
                format!("{start}{rest}")
            };
            let whole = percent_decode(&format!("{head}%{tail}"));
            prop_assert_eq!(whole, format!("{}%{}", percent_decode(&head), percent_decode(&tail)));
        }
    }
}

// The plan parser reads untrusted `POST /queries` bodies: arbitrary text
// must never panic it, and every valid plan must survive its text form.
mod plan_parser {
    use hashflow_suite::query::{Aggregate, CmpOp, Field, Predicate, Projection, QueryPlan};
    use proptest::prelude::*;
    use std::str::FromStr;

    /// Grammar words, operators, numbers and odd characters: strings built
    /// from them get past the first word and into every branch of the
    /// parser, which uniformly random text almost never does.
    const TOKENS: [&str; 34] = [
        "filter",
        "map",
        "distinct",
        "reduce",
        "threshold",
        "|",
        " ",
        " | ",
        "src",
        "dst",
        "srcport",
        "dstport",
        "proto",
        "count",
        "flow",
        "srcdst",
        "sum",
        "max",
        "=",
        "!=",
        "<",
        "<=",
        ">",
        ">=",
        "10.0.0.1",
        "256.1.1.1",
        "6",
        "65536",
        "18446744073709551616",
        "-1",
        "+7",
        "\t",
        "\u{e9}",
        "\u{1F600}",
    ];

    const FIELDS: [Field; 5] = [
        Field::SrcIp,
        Field::DstIp,
        Field::SrcPort,
        Field::DstPort,
        Field::Protocol,
    ];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const AGGREGATES: [Aggregate; 3] = [Aggregate::Sum, Aggregate::Count, Aggregate::Max];

    /// Grammar tokens interleaved with arbitrary characters.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec((0..TOKENS.len() + 8, any::<u32>()), 0..24).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(i, c)| match TOKENS.get(i) {
                    Some(token) => (*token).to_owned(),
                    None => char::from_u32(c % 0x11_0000)
                        .unwrap_or(char::REPLACEMENT_CHARACTER)
                        .to_string(),
                })
                .collect()
        })
    }

    /// Any key or count predicate the grammar can express (addresses are
    /// 32-bit; everything else takes any `u64`).
    fn predicate() -> impl Strategy<Value = Predicate> {
        (0..FIELDS.len() + 1, 0..OPS.len(), any::<u64>()).prop_map(|(f, op, value)| {
            match FIELDS.get(f) {
                Some(field @ (Field::SrcIp | Field::DstIp)) => {
                    Predicate::key(*field, OPS[op], value & 0xffff_ffff)
                }
                Some(field) => Predicate::key(*field, OPS[op], value),
                None => Predicate::count(OPS[op], value),
            }
        })
    }

    /// Any plan in normal form: optional filters, map, distinct and
    /// threshold around the mandatory reduce.
    fn plan() -> impl Strategy<Value = QueryPlan> {
        let n = Projection::ALL.len();
        (
            prop::collection::vec(predicate(), 0..4),
            (0..n + 1, 0..n + 1),
            0..AGGREGATES.len(),
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(
                |(filters, (map, distinct), aggregate, thresholded, bound)| {
                    let mut builder = QueryPlan::builder();
                    for predicate in filters {
                        builder = builder.filter(predicate);
                    }
                    if let Some(projection) = Projection::ALL.get(map) {
                        builder = builder.map(*projection);
                    }
                    if let Some(projection) = Projection::ALL.get(distinct) {
                        builder = builder.distinct(*projection);
                    }
                    builder = builder.reduce(AGGREGATES[aggregate]);
                    if thresholded {
                        builder = builder.threshold(bound);
                    }
                    builder.build().expect("stages given in normal-form order")
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary text: an error is fine, a panic is not, and whatever
        /// does parse prints back to a text that parses to the same plan.
        #[test]
        fn arbitrary_text_never_panics_the_plan_parser(text in text()) {
            if let Ok(plan) = QueryPlan::from_str(&text) {
                prop_assert_eq!(plan.to_string().parse::<QueryPlan>().ok(), Some(plan), "{:?}", text);
            }
        }

        /// Every valid plan round-trips through `to_string().parse()`.
        #[test]
        fn valid_plans_round_trip_through_text(plan in plan()) {
            let text = plan.to_string();
            prop_assert_eq!(text.parse::<QueryPlan>().ok(), Some(plan), "{}", text);
        }
    }
}
