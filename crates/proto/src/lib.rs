//! # netsolve-proto
//!
//! The NetSolve wire protocol: typed [`message::Message`]s marshaled with
//! the hand-written XDR codec from `netsolve-xdr`, wrapped in
//! length-delimited, CRC-checked [`frame`]s.
//!
//! One enum covers all three conversations in a NetSolve domain
//! (server↔agent registration and workload reports, client↔agent server
//! queries and failure reports, client↔server request submission), so a
//! transport only ever moves `Message` values.

#![warn(missing_docs)]

pub mod frame;
pub mod message;

pub use frame::{
    encode_frame_into, frame_bytes, frame_bytes_versioned, mirror_version_downgrades, parse_frame,
    read_message, version_downgrades, write_message_into, write_message_streamed, FrameReader,
    DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_THRESHOLD, MAX_FRAME_PAYLOAD, MIN_VERSION, VERSION,
};
pub use message::{Candidate, GossipEntry, Message, QueryShape, ServerDescriptor, ServerInfo};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            Just(Message::Ping),
            Just(Message::Pong),
            Just(Message::ListProblems),
            (any::<u64>(), 0.0..200.0f64)
                .prop_map(|(id, w)| Message::WorkloadReport { server_id: id, workload: w }),
            (any::<u32>(), "[ -~]{0,60}")
                .prop_map(|(code, detail)| Message::Error { code, detail }),
            (
                "[a-z]{1,12}",
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u128>(),
                any::<u64>()
            )
                .prop_map(|(problem, n, bi, bo, client_host, trace_id, parent_span)| {
                    Message::ServerQuery(QueryShape {
                        client_host,
                        problem,
                        n,
                        bytes_in: bi,
                        bytes_out: bo,
                        trace_id,
                        parent_span,
                    })
                }),
            prop::collection::vec(
                (any::<u64>(), "[ -~]{0,20}", 0.0..1e6f64),
                0..10
            )
            .prop_map(|tuples| Message::ServerList {
                candidates: tuples
                    .into_iter()
                    .map(|(server_id, address, predicted_secs)| Candidate {
                        server_id,
                        address,
                        predicted_secs,
                    })
                    .collect(),
            }),
            prop::collection::vec("[a-z_]{1,12}", 0..20)
                .prop_map(|names| Message::ProblemCatalogue { names }),
            (
                any::<u64>(),
                "[ -~]{0,30}",
                "[ -~]{0,30}",
                0.0..1e4f64,
                prop::collection::vec("[a-z]{1,10}", 0..8),
                "[ -~\\n]{0,200}"
            )
                .prop_map(|(id, host, address, mflops, problems, pdl)| {
                    Message::RegisterServer(ServerDescriptor {
                        server_id: id,
                        host,
                        address,
                        mflops,
                        problems,
                        pdl_source: pdl,
                    })
                }),
            (any::<u64>(), any::<u64>(), any::<u128>(), any::<u64>(), "[a-z]{1,10}", prop::collection::vec(
                prop::collection::vec(-1e9..1e9f64, 0..32).prop_map(netsolve_core::DataObject::Vector),
                0..4
            ))
                .prop_map(|(request_id, deadline_ms, trace_id, parent_span, problem, inputs)| Message::RequestSubmit {
                    request_id,
                    deadline_ms,
                    trace_id,
                    parent_span,
                    problem,
                    inputs,
                }),
            (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(merged, refreshed, conflicts)| {
                Message::GossipAck { merged, refreshed, conflicts }
            }),
            (
                "[ -~]{0,24}",
                prop::collection::vec(
                    (
                        "[ -~]{0,24}",
                        "[ -~]{0,16}",
                        "[ -~]{0,24}",
                        0.0..1e4f64,
                        prop::collection::vec("[a-z]{1,10}", 0..4),
                        "[ -~\\n]{0,80}",
                        0.0..200.0f64,
                        0.0..1e5f64,
                    ),
                    0..4,
                ),
            )
                .prop_map(|(from_agent, entries)| Message::GossipSync {
                    from_agent,
                    entries: entries
                        .into_iter()
                        .map(
                            |(origin, host, address, mflops, problems, pdl, workload, age)| {
                                GossipEntry {
                                    origin_agent: origin,
                                    host,
                                    address,
                                    mflops,
                                    problems,
                                    pdl_source: pdl,
                                    workload,
                                    age_secs: age,
                                }
                            },
                        )
                        .collect(),
                    digests: vec![],
                }),
            (
                prop::collection::vec(
                    (
                        "[ -~]{0,24}",
                        "[a-z]{1,8}",
                        0.0..1e4f64,
                        0.0..600.0f64,
                        prop::collection::vec(("[a-z._]{1,16}", 0.0..1e6f64), 0..4),
                        prop::collection::vec(("[a-z._]{1,16}", any::<i64>()), 0..4),
                        prop::collection::vec(
                            ("[a-z._]{1,16}", any::<u64>(), 0.0..60.0f64, any::<u128>()),
                            0..3,
                        ),
                    ),
                    0..4,
                ),
            )
                .prop_map(|(digests,)| Message::FleetStatsReply {
                    digests: digests
                        .into_iter()
                        .map(|(origin, component, age, window, counters, gauges, quants)| {
                            netsolve_obs::StatsDigest {
                                origin,
                                component,
                                age_secs: age,
                                window_secs: window,
                                counters,
                                gauges,
                                quantiles: quants
                                    .into_iter()
                                    .map(|(name, count, p, exemplar)| {
                                        netsolve_obs::DigestQuantiles {
                                            name,
                                            count,
                                            p50_secs: p,
                                            p95_secs: p * 2.0,
                                            p99_secs: p * 4.0,
                                            p99_exemplar: exemplar,
                                        }
                                    })
                                    .collect(),
                            }
                        })
                        .collect(),
                }),
            Just(Message::StatsQuery),
            any::<u128>().prop_map(|trace_id| Message::TraceQuery { trace_id }),
            (
                "[a-z]{1,8}",
                prop::collection::vec(
                    (
                        any::<u128>(),
                        any::<u64>(),
                        any::<u64>(),
                        any::<u64>(),
                        "[a-z]{1,8}",
                        "[a-z_]{1,12}",
                        any::<u64>(),
                        any::<u64>(),
                        "[ -~]{0,24}",
                    ),
                    0..6,
                ),
            )
                .prop_map(|(component, spans)| Message::TraceReply {
                    component,
                    spans: spans
                        .into_iter()
                        .map(
                            |(trace_id, span_id, parent_span, request_id, comp, phase, start, end, detail)| {
                                netsolve_obs::SpanRecord {
                                    trace_id,
                                    span_id,
                                    parent_span,
                                    request_id,
                                    component: comp,
                                    phase,
                                    start_unix_nanos: start,
                                    end_unix_nanos: end,
                                    detail,
                                }
                            },
                        )
                        .collect(),
                }),
            (
                "[a-z]{1,8}",
                prop::collection::vec(("[a-z._]{1,16}", any::<u64>()), 0..6),
                prop::collection::vec(("[a-z._]{1,16}", any::<i64>()), 0..4),
                prop::collection::vec(
                    (
                        "[a-z._]{1,16}",
                        any::<u64>(),
                        0.0..1e6f64,
                        prop::collection::vec(any::<u64>(), 0..30),
                        prop::collection::vec(any::<u128>(), 0..30),
                        any::<u128>(),
                    ),
                    0..3,
                ),
            )
                .prop_map(|(component, counters, gauges, hists)| {
                    Message::StatsReply(netsolve_obs::StatsSnapshot {
                        component,
                        counters,
                        gauges,
                        histograms: hists
                            .into_iter()
                            .map(|(name, count, sum_secs, buckets, exemplars, max_exemplar)| {
                                netsolve_obs::HistogramSnapshot {
                                    name,
                                    count,
                                    sum_secs,
                                    buckets,
                                    exemplars,
                                    max_exemplar,
                                }
                            })
                            .collect(),
                    })
                }),
        ]
    }

    proptest! {
        #[test]
        fn message_roundtrip(msg in arb_message()) {
            let bytes = msg.encode();
            prop_assert_eq!(Message::decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn frame_roundtrip(msg in arb_message()) {
            let bytes = frame_bytes(&msg).unwrap();
            let (back, used) = parse_frame(&bytes).unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(used, bytes.len());
        }

        #[test]
        fn single_pass_frame_matches_legacy(msg in arb_message()) {
            // The zero-copy writer must agree byte-for-byte with the
            // legacy route on arbitrary messages, not just fixtures.
            let legacy = frame_bytes(&msg).unwrap();
            let mut single = Vec::new();
            encode_frame_into(&msg, &mut single).unwrap();
            prop_assert_eq!(single, legacy);
        }

        #[test]
        fn all_decode_routes_agree(msg in arb_message()) {
            // The borrowed route (aligned and deliberately misaligned) and
            // the chunked streaming route must all decode bit-identically
            // to the message that was encoded.
            let bytes = frame_bytes(&msg).unwrap();
            let (borrowed, used) = parse_frame(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(&borrowed, &msg);

            // Shift by one byte so every f64/u64 view inside the payload
            // lands on an odd address and the alignment fallback runs.
            let mut shifted = Vec::with_capacity(bytes.len() + 1);
            shifted.push(0u8);
            shifted.extend_from_slice(&bytes);
            let (unaligned, _) = parse_frame(&shifted[1..]).unwrap();
            prop_assert_eq!(&unaligned, &msg);

            // Streaming route, threshold 0 so every frame streams, with a
            // chunk size that never lands on an 8-byte element boundary.
            let mut rdr = FrameReader::new(0, 97);
            let streamed = rdr.read_from(&mut &bytes[..]).unwrap();
            prop_assert_eq!(rdr.streamed_frames(), 1);
            prop_assert_eq!(&streamed, &msg);
        }

        #[test]
        fn frame_bit_flips_never_decode_silently(msg in arb_message(),
                                                 byte in any::<prop::sample::Index>(),
                                                 bit in 0u8..8) {
            // Any single-bit corruption must either fail to parse or decode
            // to the identical message (flips in ignored padding cannot
            // occur because the codec validates padding).
            let bytes = frame_bytes(&msg).unwrap();
            let mut bad = bytes.clone();
            let idx = byte.index(bad.len());
            bad[idx] ^= 1 << bit;
            if let Ok((decoded, _)) = parse_frame(&bad) { prop_assert_eq!(decoded, msg) }
        }

        #[test]
        fn garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_frame(&data);
        }
    }
}
