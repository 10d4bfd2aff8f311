//! Property tests of the `mc-net` wire protocol: random frames round-trip
//! through encode/decode bit for bit, every truncation of a valid frame is
//! rejected (never mis-decoded, never panicking), corrupt headers are
//! rejected before any allocation, and random garbage never decodes into a
//! `Results`/`HelloAck` frame a client would trust. A golden-bytes table
//! pins the encoding of every frame type to the bytes the parent commit
//! produced.

use proptest::collection::vec;
use proptest::prelude::*;

use mc_net::protocol::{
    decode_classify_into, encode_candidate_results_into, encode_candidates, encode_classify_packed,
    encode_results_into, read_frame, ErrorCode, Frame, NetError, ProtocolError, ResultEntry,
    BUSY_CONNECTION, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use mc_seqio::SequenceRecord;
use metacache::Candidate;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..max_len,
    )
}

/// DNA with the full mess the packed encoding must carry byte-exactly:
/// upper/lower case, `N` runs, `U`, and stray garbage bytes (ACGT-biased
/// by repetition so most draws stay packable).
fn messy_dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![
            Just(b'A'),
            Just(b'C'),
            Just(b'G'),
            Just(b'T'),
            Just(b'A'),
            Just(b'C'),
            Just(b'G'),
            Just(b'T'),
            Just(b'N'),
            Just(b'N'),
            Just(b'a'),
            Just(b't'),
            Just(b'U'),
            Just(b'-'),
            Just(0xFFu8),
        ],
        0..max_len,
    )
}

/// Build a random `SequenceRecord` from primitive draws (optionally paired).
fn record_from(
    header_bytes: &[u8],
    sequence: Vec<u8>,
    quality: Vec<u8>,
    mate_sequence: Option<Vec<u8>>,
) -> SequenceRecord {
    // Headers are arbitrary UTF-8; map raw bytes into a printable subset.
    let header: String = header_bytes
        .iter()
        .map(|b| (b' ' + (b % 64)) as char)
        .collect();
    let mut record = SequenceRecord::with_quality(header, sequence, quality);
    if let Some(mate) = mate_sequence {
        record.mate = Some(Box::new(SequenceRecord::new("mate", mate)));
    }
    record
}

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = frame.encode().expect("encodable frame");
    // The envelope is exactly [len][type][payload].
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    assert_eq!(len as usize, bytes.len() - 4);
    assert!((1..=MAX_FRAME_LEN).contains(&len));
    Frame::decode(bytes[4], &bytes[5..]).expect("decodable frame")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn classify_frames_roundtrip(
        request_id in any::<u64>(),
        headers in vec(vec(any::<u8>(), 0..12), 0..8),
        paired in any::<bool>(),
        seq_len in 0usize..200,
    ) {
        let reads: Vec<SequenceRecord> = headers
            .iter()
            .enumerate()
            .map(|(i, header)| {
                let mut rng_len = (seq_len + i * 7) % 200;
                if i % 3 == 0 {
                    rng_len = 0; // empty reads must survive the wire too
                }
                let sequence = vec![b"ACGT"[i % 4]; rng_len];
                let quality = if i % 2 == 0 { vec![b'I'; rng_len] } else { Vec::new() };
                let mate = (paired && i % 4 == 1).then(|| vec![b'T'; (i * 13) % 90]);
                record_from(header, sequence, quality, mate)
            })
            .collect();
        let frame = Frame::ClassifyPacked { request_id, reads };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    /// The direct oracle: for any record set — `N` runs, lower case,
    /// garbage bytes, empty reads, mates, qualities, so both the 2-bit
    /// packed and the verbatim-fallback record bodies occur — decoding the
    /// encoded frame gives back exactly the reads that went in, whether
    /// through `Frame::decode` or through the server's buffer-reusing
    /// `decode_classify_into`.
    #[test]
    fn packed_and_verbatim_roundtrip_bit_identically(
        request_id in any::<u64>(),
        sequences in vec(messy_dna(180), 0..8),
        with_quality in any::<bool>(),
        with_mates in any::<bool>(),
    ) {
        let reads: Vec<SequenceRecord> = sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| {
                let quality = if with_quality && i % 2 == 0 {
                    vec![b'I'; seq.len()]
                } else {
                    Vec::new()
                };
                let mut record =
                    SequenceRecord::with_quality(format!("read {i}"), seq.clone(), quality);
                if with_mates && i % 3 == 1 {
                    let mate_seq: Vec<u8> = seq.iter().rev().copied().collect();
                    record.mate = Some(Box::new(SequenceRecord::new("mate", mate_seq)));
                }
                record
            })
            .collect();

        let packed = encode_classify_packed(request_id, &reads).unwrap();
        let candidates = encode_candidates(request_id, &reads).unwrap();

        for (bytes, expect_type) in [(&packed, 7u8), (&candidates, 11u8)] {
            prop_assert_eq!(bytes[4], expect_type);
            // Through the owned decoder …
            let (decoded_id, decoded) = match Frame::decode(bytes[4], &bytes[5..]).unwrap() {
                Frame::ClassifyPacked { request_id, reads }
                | Frame::Candidates { request_id, reads } => (request_id, reads),
                other => panic!("unexpected frame {other:?}"),
            };
            prop_assert_eq!(decoded_id, request_id);
            prop_assert_eq!(&decoded, &reads);
            // … and through the zero-copy decoder over a dirty buffer.
            let mut buffer = vec![
                SequenceRecord::with_quality("stale", vec![b'T'; 64], vec![b'#'; 64])
                    .with_mate(SequenceRecord::new("stale mate", vec![b'A'; 32]));
                3
            ];
            let got_id = decode_classify_into(bytes[4], &bytes[5..], &mut buffer).unwrap();
            prop_assert_eq!(got_id, request_id);
            prop_assert_eq!(&buffer, &reads);
        }
    }

    /// On ACGT-only payloads the packed frame shrinks towards 4× (bounded
    /// by headers and framing); it never grows beyond the raw record bytes
    /// plus the fixed framing (17 bytes per frame, 8 per record), whatever
    /// the input.
    #[test]
    fn packed_frames_never_inflate(
        sequences in vec(messy_dna(300), 1..6),
    ) {
        let reads: Vec<SequenceRecord> = sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| SequenceRecord::new(format!("r{i}"), seq.clone()))
            .collect();
        let raw: usize = reads.iter().map(SequenceRecord::heap_bytes).sum();
        let packed = encode_classify_packed(1, &reads).unwrap();
        prop_assert!(packed.len() <= 17 + raw + 8 * reads.len());
    }

    /// A FASTQ record whose quality length differs from its sequence length
    /// must be rejected at encode time — for the read and for its mate. (The
    /// wire cannot express the mismatch: a quality string is exactly
    /// `seq_len` bytes or absent.)
    #[test]
    fn quality_length_mismatch_frames_are_rejected(
        seq in dna(60),
        qual_delta in 1usize..20,
        in_mate in any::<bool>(),
    ) {
        let quality = vec![b'I'; seq.len() + qual_delta];
        let bad = SequenceRecord::with_quality("bad", seq, quality);
        let record = if in_mate {
            SequenceRecord::new("carrier", b"ACGT".to_vec()).with_mate(bad)
        } else {
            bad
        };
        let reads = vec![record];
        prop_assert_eq!(
            encode_classify_packed(0, &reads),
            Err(ProtocolError::Malformed("quality/sequence length mismatch"))
        );
    }

    #[test]
    fn results_frames_roundtrip(
        request_id in any::<u64>(),
        raw in vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..40),
        tag in any::<bool>(),
        tag_value in any::<u64>(),
    ) {
        let generation = tag.then_some(tag_value);
        let entries: Vec<ResultEntry> = raw
            .iter()
            .map(|&(status, taxon, hits)| ResultEntry {
                status: status & 0b111,
                taxon,
                rank: status.rotate_left(3),
                best_target: taxon ^ 0xABCD,
                best_hits: hits,
            })
            .collect();
        let frame = Frame::Results { request_id, entries, generation };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn hello_and_error_frames_roundtrip(
        magic in any::<u32>(),
        version in any::<u16>(),
        batch in any::<u32>(),
        credit in any::<u32>(),
    ) {
        let hello = Frame::Hello {
            magic,
            version,
            batch_records: batch,
            max_in_flight: credit,
            auth_token: None,
        };
        prop_assert_eq!(roundtrip(&hello), hello);
        let ack = Frame::HelloAck {
            version,
            credits: credit,
            batch_records: batch,
            backend: format!("backend-{}", magic % 1000),
        };
        prop_assert_eq!(roundtrip(&ack), ack);
        let error = Frame::Error {
            code: ErrorCode::from_u16(version),
            message: format!("error {version}"),
        };
        prop_assert_eq!(roundtrip(&error), error);
        prop_assert_eq!(roundtrip(&Frame::Goodbye), Frame::Goodbye);
    }

    /// Every strict prefix of a valid frame is rejected by the stream
    /// reader: either a clean "no frame yet" at offset 0, a disconnect, or
    /// a protocol error — never a successfully decoded frame, never a
    /// panic.
    #[test]
    fn truncations_never_decode(
        sequence in messy_dna(120),
        cut_fraction in 0u32..1000,
        candidates in any::<bool>(),
    ) {
        let reads = vec![
            SequenceRecord::new("a read", sequence.clone()),
            SequenceRecord::with_quality("q", sequence, b"".to_vec()),
        ];
        let bytes = if candidates {
            Frame::Candidates { request_id: 7, reads }.encode().unwrap()
        } else {
            Frame::ClassifyPacked { request_id: 7, reads }.encode().unwrap()
        };
        let cut = (cut_fraction as usize * (bytes.len() - 1)) / 1000;
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        match read_frame(&mut cursor) {
            // The clean-EOF boundary is exactly 0 bytes: a partial length
            // prefix reads as a disconnect (regression for the
            // `read_exact`-maps-everything-to-EOF bug).
            Ok(None) => prop_assert!(cut == 0, "EOF-at-boundary only with 0 bytes, not {cut}"),
            Ok(Some(_)) => prop_assert!(false, "decoded a truncated frame ({cut} bytes)"),
            Err(NetError::Disconnected) | Err(NetError::Protocol(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Corrupting the length header never panics and never silently
    /// succeeds with a different payload length than announced.
    #[test]
    fn corrupt_headers_are_rejected(len_word in any::<u32>()) {
        let valid = Frame::Goodbye.encode().unwrap();
        let mut corrupted = valid.clone();
        corrupted[0..4].copy_from_slice(&len_word.to_le_bytes());
        let mut cursor = std::io::Cursor::new(corrupted);
        match read_frame(&mut cursor) {
            // Only the true length may decode the original frame.
            Ok(Some(frame)) => {
                prop_assert_eq!(len_word, 1);
                prop_assert_eq!(frame, Frame::Goodbye);
            }
            Ok(None) => prop_assert!(false, "corrupt header read as clean EOF"),
            Err(NetError::Protocol(ProtocolError::FrameTooLarge(l))) => {
                prop_assert!(l == 0 || l > MAX_FRAME_LEN);
            }
            Err(NetError::Disconnected) => prop_assert!(len_word > 1),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Random garbage payloads never decode into a frame (for any type tag)
    /// without an explicit error — i.e. the decoder never panics and
    /// trailing bytes are always rejected.
    #[test]
    fn random_payloads_never_panic(
        frame_type in any::<u8>(),
        payload in vec(any::<u8>(), 0..300),
    ) {
        // Either a clean decode (possible: some garbage is a valid frame)
        // or a typed error; the property is "no panic, no partial reads".
        if let Ok(frame) = Frame::decode(frame_type, &payload) {
            // Whatever decoded must re-encode to an equivalent frame.
            let reencoded = frame.encode().unwrap();
            prop_assert_eq!(Frame::decode(reencoded[4], &reencoded[5..]).unwrap(), frame);
        }
    }
}

/// The request-bandwidth bar of the packed encoding: on a serving-shaped
/// corpus — compact ids, 200-base ACGT-only reads — the raw `header +
/// sequence` bytes are at least 3× the `ClassifyPacked` frame that carries
/// them (2 bits per base against 8, less the per-record framing).
#[test]
fn acgt_reads_pack_at_least_three_to_one() {
    let mut state = 0x5EED_u64;
    let reads: Vec<SequenceRecord> = (0..1024)
        .map(|i| {
            let sequence: Vec<u8> = (0..200)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect();
            SequenceRecord::new(format!("r{i}"), sequence)
        })
        .collect();
    let raw: usize = reads
        .iter()
        .map(|r| r.header.len() + r.sequence.len())
        .sum();
    let packed = encode_classify_packed(1, &reads).unwrap().len();
    let ratio = raw as f64 / packed as f64;
    assert!(
        ratio >= 3.0,
        "ACGT wire compression {ratio:.2}x below the 3x bar ({raw} raw bytes, {packed} on the wire)"
    );
}

/// Reads the wire cannot carry fail in the encoder, before any byte moves:
/// a mate with a mate, a quality string of the wrong length, a header over
/// the str16 limit.
#[test]
fn unencodable_reads_fail_to_encode() {
    let nested = SequenceRecord::new("r", b"ACGT".to_vec()).with_mate(
        SequenceRecord::new("m1", b"GT".to_vec())
            .with_mate(SequenceRecord::new("m2", b"AC".to_vec())),
    );
    let mismatched = SequenceRecord::with_quality("r", b"ACGTACGT".to_vec(), b"III".to_vec());
    let oversize = SequenceRecord::new("h".repeat(usize::from(u16::MAX) + 1), b"ACGT".to_vec());
    for (read, want) in [
        (nested, ProtocolError::NestedMate),
        (
            mismatched,
            ProtocolError::Malformed("quality/sequence length mismatch"),
        ),
        (oversize, ProtocolError::Malformed("string too long")),
    ] {
        let reads = [SequenceRecord::new("ok", b"ACGT".to_vec()), read];
        assert_eq!(encode_classify_packed(1, &reads), Err(want.clone()));
        assert_eq!(encode_candidates(1, &reads), Err(want));
    }
}

/// One fixed instance of every frame type, with the bytes the **parent
/// commit** (five negotiated versions, verbatim `Classify` still present)
/// encoded it to. The literals were printed there by running this very
/// fixture list; making v5 the only dialect must not move one of them.
fn golden_frames() -> Vec<(Frame, &'static str)> {
    let packed_reads = vec![
        // 2-bit packed, no exceptions.
        SequenceRecord::new("acgt", b"ACGTACGTACGTACGTTTGA".to_vec()),
        // Packed with an exception list (two `N`s and a lower-case base).
        SequenceRecord::new("ns", b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTNNGt".to_vec()),
        // Exception-dense: the encoder falls back to verbatim bytes.
        SequenceRecord::new("alln", b"NNNNNNNN".to_vec()),
        // A paired read with a quality string.
        SequenceRecord::with_quality("p/1", b"ACGTACGT".to_vec(), b"IIIIHHHH".to_vec())
            .with_mate(SequenceRecord::new("p/2", b"GGTTAACC".to_vec())),
        SequenceRecord::new("", Vec::new()),
    ];
    vec![
        (
            Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                batch_records: 64,
                max_in_flight: 4,
                auth_token: None,
            },
            "0f00000001544e434d05004000000004000000",
        ),
        (
            Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                batch_records: 0,
                max_in_flight: 0,
                auth_token: Some("hunter2".into()),
            },
            "1800000001544e434d05000000000000000000070068756e74657232",
        ),
        (
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
                credits: 8,
                batch_records: 1024,
                backend: "host".into(),
            },
            "1100000002050008000000000400000400686f7374",
        ),
        (
            Frame::ClassifyPacked {
                request_id: 42,
                reads: packed_reads.clone(),
            },
            "83000000072a00000000000000050000000400616367741400000001e4e4e4e42f0002006e732800000005e4e4e4e4e4e4e4e4e42003000000240000004e250000004e2700000074000400616c6c6e08000000004e4e4e4e4e4e4e4e000300702f310800000003e4e44949494948484848010300702f320800000001fa50000000000000000000",
        ),
        (
            Frame::Results {
                request_id: 42,
                entries: vec![
                    ResultEntry {
                        status: 0b111,
                        taxon: 100,
                        rank: 2,
                        best_target: 3,
                        best_hits: 17,
                    },
                    ResultEntry {
                        status: 0,
                        taxon: 0,
                        rank: 0,
                        best_target: 0,
                        best_hits: 0,
                    },
                ],
                generation: Some(7),
            },
            "31000000042a0000000000000002000000076400000002030000001100000000000000000000000000000000000700000000000000",
        ),
        (
            Frame::CandidateResults {
                request_id: 43,
                candidates: vec![
                    vec![
                        Candidate {
                            target: 2,
                            window_begin: 10,
                            window_end: 14,
                            hits: 31,
                        },
                        Candidate {
                            target: 0,
                            window_begin: 0,
                            window_end: 4,
                            hits: 30,
                        },
                    ],
                    Vec::new(),
                ],
                generation: Some(0x0102_0304_0506_0708),
            },
            "3d0000000c2b000000000000000200000002000000020000000a0000000e0000001f0000000000000000000000040000001e000000000000000807060504030201",
        ),
        (
            Frame::Error {
                code: ErrorCode::UnsupportedVersion,
                message: "bad payload".into(),
            },
            "100000000502000b00626164207061796c6f6164",
        ),
        (Frame::Goodbye, "0100000006"),
        (
            Frame::Ping {
                nonce: 0x0123_4567_89AB_CDEF,
            },
            "0900000008efcdab8967452301",
        ),
        (Frame::Pong { nonce: u64::MAX }, "0900000009ffffffffffffffff"),
        (
            Frame::Busy {
                request_id: 3,
                retry_after_ms: 250,
            },
            "0d0000000a0300000000000000fa000000",
        ),
        (
            Frame::Busy {
                request_id: BUSY_CONNECTION,
                retry_after_ms: 100,
            },
            "0d0000000affffffffffffffff64000000",
        ),
        (
            Frame::Candidates {
                request_id: 43,
                reads: packed_reads[1..4].to_vec(),
            },
            "6a0000000b2b000000000000000300000002006e732800000005e4e4e4e4e4e4e4e4e42003000000240000004e250000004e2700000074000400616c6c6e08000000004e4e4e4e4e4e4e4e000300702f310800000003e4e44949494948484848010300702f320800000001fa5000",
        ),
        (Frame::Reload, "010000000d"),
        (Frame::ReloadAck { generation: 3 }, "090000000e0300000000000000"),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn golden_bytes_did_not_move() {
    for (frame, hex) in golden_frames() {
        let golden = unhex(hex);
        assert_eq!(frame.encode().unwrap(), golden, "encode moved: {frame:?}");
        assert_eq!(
            Frame::decode(golden[4], &golden[5..]).unwrap(),
            frame,
            "decode moved: {hex}"
        );
        // The borrowed hot-path encoders produce the same bytes.
        let mut hot = Vec::new();
        match &frame {
            Frame::ClassifyPacked { request_id, reads } => {
                hot = encode_classify_packed(*request_id, reads).unwrap();
            }
            Frame::Candidates { request_id, reads } => {
                hot = encode_candidates(*request_id, reads).unwrap();
            }
            Frame::Results {
                request_id,
                entries,
                generation,
            } => {
                let classifications: Vec<_> =
                    entries.iter().map(|e| e.to_classification()).collect();
                encode_results_into(&mut hot, *request_id, &classifications, *generation).unwrap();
            }
            Frame::CandidateResults {
                request_id,
                candidates,
                generation,
            } => {
                encode_candidate_results_into(&mut hot, *request_id, candidates, *generation)
                    .unwrap();
            }
            _ => continue,
        }
        assert_eq!(hot, golden, "hot-path encoder moved: {frame:?}");
    }
}
