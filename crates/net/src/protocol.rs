//! The `mc-net` wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌────────────┬──────────┬───────────────────────┐
//! │ len: u32le │ type: u8 │ payload (len − 1 B)   │
//! └────────────┴──────────┴───────────────────────┘
//! ```
//!
//! where `len` counts the type byte plus the payload (so `len ≥ 1`) and is
//! capped at [`MAX_FRAME_LEN`] — a reader can reject a corrupt or hostile
//! header before allocating anything. All integers are little-endian. The
//! full frame catalogue, the connection state machine and the error codes
//! are specified in `docs/SERVING.md`; this module is the single source of
//! truth for the encoding itself.
//!
//! A connection starts with a handshake ([`Frame::Hello`] →
//! [`Frame::HelloAck`]), then carries any number of pipelined
//! [`Frame::ClassifyPacked`] requests answered in order by
//! [`Frame::Results`] frames. Fatal conditions (bad magic, malformed payload,
//! a worker panic) are reported with a [`Frame::Error`] frame before the
//! connection closes.
//!
//! There is one dialect: every peer speaks [`PROTOCOL_VERSION`] and the whole
//! frame catalogue. A `Hello` announcing less is refused with
//! [`ErrorCode::UnsupportedVersion`]; one announcing more is answered with
//! [`PROTOCOL_VERSION`].
//!
//! Encoding and decoding are pure functions over byte buffers
//! ([`Frame::encode`] / [`Frame::decode`]) so they can be property-tested
//! without sockets; [`write_frame`] and [`read_frame`] adapt them to
//! `std::io` streams.

use std::io::{self, Read, Write};

use mc_seqio::SequenceRecord;
use mc_taxonomy::Rank;
use metacache::{Candidate, Classification};

/// Protocol magic carried by the [`Frame::Hello`] frame: `"MCNT"`.
pub const MAGIC: u32 = 0x4D43_4E54;

/// The protocol version — the only one. A server refuses a `Hello`
/// announcing less with [`ErrorCode::UnsupportedVersion`] and answers one
/// announcing more with this value; a client accepts no other ack.
pub const PROTOCOL_VERSION: u16 = 5;

/// The `request_id` a [`Frame::Busy`] carries when the *connection* (not an
/// individual request) was refused — the server closes right after sending
/// it. Any other id means "this one request was shed; the connection stays
/// open, retry after the hinted delay".
pub const BUSY_CONNECTION: u64 = u64::MAX;

/// Upper bound on `len` (type byte + payload) of any frame: 64 MiB. A header
/// announcing more is rejected as [`ProtocolError::FrameTooLarge`] without
/// reading (or allocating) the payload.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame type tags (the byte after the length prefix). Tag 3 (the verbatim
/// `Classify` request of protocol v1) is retired: it is never reused and
/// decodes as [`super::ProtocolError::UnknownFrameType`].
pub mod frame_type {
    /// Client → server: connection handshake.
    pub const HELLO: u8 = 1;
    /// Server → client: handshake accepted, credits granted.
    pub const HELLO_ACK: u8 = 2;
    /// Server → client: ordered classifications of one request.
    pub const RESULTS: u8 = 4;
    /// Either direction: fatal error; the connection closes after it.
    pub const ERROR: u8 = 5;
    /// Client → server: graceful end of stream (equivalent to a clean EOF).
    pub const GOODBYE: u8 = 6;
    /// Client → server: one classification request (a batch of reads,
    /// sequences 2-bit packed).
    pub const CLASSIFY_PACKED: u8 = 7;
    /// Client → server: liveness probe.
    pub const PING: u8 = 8;
    /// Server → client: answer to a [`PING`], echoing its nonce.
    pub const PONG: u8 = 9;
    /// Server → client: the request (or connection) was shed under
    /// overload; retry after the hinted delay.
    pub const BUSY: u8 = 10;
    /// Client → server: one candidate query (a batch of reads whose merged
    /// top-hit candidate lists, not final classifications, are wanted) —
    /// the scatter leg of a router. The payload is identical to
    /// [`CLASSIFY_PACKED`].
    pub const CANDIDATES: u8 = 11;
    /// Server → client: per-read candidate lists answering a
    /// [`CANDIDATES`] request.
    pub const CANDIDATE_RESULTS: u8 = 12;
    /// Client → server: hot-swap the serving database (admin request).
    pub const RELOAD: u8 = 13;
    /// Server → client: answer to a [`RELOAD`], carrying the new database
    /// generation.
    pub const RELOAD_ACK: u8 = 14;
}

/// Per-record flag bits of the packed read encoding
/// (inside [`Frame::ClassifyPacked`]).
pub mod record_flags {
    /// The sequence is 2-bit packed (otherwise it follows verbatim — the
    /// encoder's fallback when an exception-dense sequence would grow).
    pub const PACKED: u8 = 1 << 0;
    /// A quality string of exactly `seq_len` bytes follows the sequence.
    pub const HAS_QUALITY: u8 = 1 << 1;
    /// An exception list follows the packed bytes (only valid with
    /// [`PACKED`]).
    pub const HAS_EXCEPTIONS: u8 = 1 << 2;
    /// Every currently defined flag; any other bit is a `Malformed` error.
    pub const ALL: u8 = PACKED | HAS_QUALITY | HAS_EXCEPTIONS;
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The `Hello` magic did not match [`MAGIC`].
    BadMagic = 1,
    /// The peer speaks an unsupported protocol version.
    UnsupportedVersion = 2,
    /// A frame payload could not be decoded.
    Malformed = 3,
    /// An unknown frame type tag.
    UnknownFrameType = 4,
    /// A frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge = 5,
    /// The server failed internally while classifying (e.g. a backend
    /// worker panic); the request's results are lost.
    Internal = 6,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown = 7,
    /// The `Hello` auth token was missing or wrong for a server that
    /// requires one.
    Unauthorized = 8,
    /// The peer stalled past a connection deadline (handshake, mid-frame
    /// read, or idle without a [`Frame::Ping`]); the connection closes.
    TimedOut = 9,
}

impl ErrorCode {
    /// Decode a wire error code (unknown values map to `Malformed`).
    pub fn from_u16(value: u16) -> Self {
        match value {
            1 => Self::BadMagic,
            2 => Self::UnsupportedVersion,
            4 => Self::UnknownFrameType,
            5 => Self::FrameTooLarge,
            6 => Self::Internal,
            7 => Self::ShuttingDown,
            8 => Self::Unauthorized,
            9 => Self::TimedOut,
            _ => Self::Malformed,
        }
    }
}

/// A decoding failure: the bytes do not form a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The `Hello` magic was wrong.
    BadMagic(u32),
    /// The peer's protocol version is not supported.
    UnsupportedVersion(u16),
    /// A frame announced a length over [`MAX_FRAME_LEN`] (or zero).
    FrameTooLarge(u32),
    /// Unknown frame type tag.
    UnknownFrameType(u8),
    /// The payload ended early or had trailing garbage.
    Truncated,
    /// A structurally invalid payload field.
    Malformed(&'static str),
    /// A read carried a mate that itself had a mate; the wire format only
    /// supports read pairs.
    NestedMate,
}

impl ProtocolError {
    /// The wire error code a server reports for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::BadMagic(_) => ErrorCode::BadMagic,
            Self::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            Self::FrameTooLarge(_) => ErrorCode::FrameTooLarge,
            Self::UnknownFrameType(_) => ErrorCode::UnknownFrameType,
            Self::Truncated | Self::Malformed(_) | Self::NestedMate => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(got) => write!(f, "bad protocol magic {got:#010x}"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            Self::FrameTooLarge(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            Self::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            Self::Truncated => write!(f, "truncated frame payload"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
            Self::NestedMate => write!(f, "read mate must not itself carry a mate"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Any failure of a networked operation: transport, encoding, or an error
/// frame reported by the remote peer.
#[derive(Debug)]
pub enum NetError {
    /// A socket-level failure.
    Io(io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(ProtocolError),
    /// The peer reported a fatal error frame and closed the connection.
    Remote {
        /// The reported error code.
        code: ErrorCode,
        /// Human-readable detail from the peer.
        message: String,
    },
    /// The connection closed before the expected response arrived.
    Disconnected,
    /// The peer shed the request (or refused the connection) under
    /// overload and hinted when to retry. Retryable by construction —
    /// [`crate::RetryClient`] backs off at least this long and resends.
    Busy {
        /// Server-suggested minimum delay before retrying, milliseconds.
        retry_after_ms: u32,
    },
}

impl NetError {
    /// Whether retrying the same operation (possibly on a fresh
    /// connection) can succeed. Transient transport conditions — socket
    /// failures, disconnects, timeouts, overload sheds, a draining server —
    /// are retryable; protocol violations and rejections (bad magic,
    /// version, auth) are permanent and retrying would only repeat them.
    /// This is the classification [`crate::RetryClient`] acts on.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Io(_) | Self::Disconnected | Self::Busy { .. } => true,
            Self::Remote { code, .. } => {
                matches!(code, ErrorCode::ShuttingDown | ErrorCode::TimedOut)
            }
            Self::Protocol(_) => false,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
            Self::Remote { code, message } => {
                write!(f, "remote error {code:?}: {message}")
            }
            Self::Disconnected => write!(f, "connection closed mid-exchange"),
            Self::Busy { retry_after_ms } => {
                write!(f, "peer overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Per-read status flags in a [`Frame::Results`] entry.
pub mod status {
    /// The read was assigned a taxon.
    pub const CLASSIFIED: u8 = 1 << 0;
    /// The entry carries a rank byte that is meaningful.
    pub const HAS_RANK: u8 = 1 << 1;
    /// The entry carries a best-target id that is meaningful.
    pub const HAS_TARGET: u8 = 1 << 2;
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake (client → server).
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// The client's protocol version.
        version: u16,
        /// Requested records per engine batch (`0` = server default).
        batch_records: u32,
        /// Requested in-flight request credit (`0` = server default).
        max_in_flight: u32,
        /// Optional pre-shared auth token: one trailing str16, absent
        /// (not empty) when `None`.
        auth_token: Option<String>,
    },
    /// Handshake accepted (server → client).
    HelloAck {
        /// The server's protocol version.
        version: u16,
        /// Granted credit: the client may keep at most this many requests
        /// unanswered.
        credits: u32,
        /// Records per engine batch the session was opened with.
        batch_records: u32,
        /// The serving backend's label (`"host"`, `"gpu-sim"`, …).
        backend: String,
    },
    /// One classification request (client → server), sequences 2-bit
    /// packed. The packing is byte-exact — non-ACGT bytes ride in an
    /// exception side list, and an exception-dense record falls back to
    /// verbatim bytes — at roughly a quarter of the raw bytes for
    /// ACGT-dominated payloads.
    ClassifyPacked {
        /// Client-chosen id echoed by the matching [`Frame::Results`].
        /// Must increase strictly monotonically within a connection.
        request_id: u64,
        /// The reads to classify.
        reads: Vec<SequenceRecord>,
    },
    /// Ordered classifications of one request (server → client).
    Results {
        /// The id of the request these results answer.
        request_id: u64,
        /// One entry per read, in the request's read order.
        entries: Vec<ResultEntry>,
        /// The database generation the whole request was classified
        /// against: one trailing u64. A server always sends it and a client
        /// rejects a `Results` without it; the codec alone still carries
        /// the untagged form (`None`). A server never answers one request
        /// with mixed generations — a request caught mid-swap is replayed
        /// entirely on the new epoch.
        generation: Option<u64>,
    },
    /// Fatal error; the sender closes the connection after this frame.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Graceful end of stream (client → server).
    Goodbye,
    /// Liveness probe (client → server): an
    /// idle-but-alive streaming session pings within the server's idle
    /// timeout to keep its connection off the idle reaper.
    Ping {
        /// Client-chosen value echoed by the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Answer to a [`Frame::Ping`] (server → client), echoing its nonce.
    /// Ordered with `Results` frames: the server answers every frame of a
    /// connection in receive order.
    Pong {
        /// The nonce of the `Ping` this answers.
        nonce: u64,
    },
    /// Overload answer (server → client): the
    /// request identified by `request_id` was shed instead of queued —
    /// or, with [`BUSY_CONNECTION`], the whole connection was refused and
    /// closes after this frame.
    Busy {
        /// The shed request's id, or [`BUSY_CONNECTION`].
        request_id: u64,
        /// Server-suggested minimum delay before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// One candidate query (client → server): like
    /// [`Frame::ClassifyPacked`] — the payload encoding is byte-identical —
    /// but the server answers with each read's merged top-hit candidate
    /// list ([`Frame::CandidateResults`]) instead of final classifications.
    /// This is the scatter leg of the shard router: candidate lists from
    /// disjoint shards merge losslessly, final classifications do not.
    Candidates {
        /// Client-chosen id echoed by the matching
        /// [`Frame::CandidateResults`]. Must increase strictly
        /// monotonically within a connection.
        request_id: u64,
        /// The reads to query.
        reads: Vec<SequenceRecord>,
    },
    /// Ordered candidate lists of one [`Frame::Candidates`] request
    /// (server → client).
    CandidateResults {
        /// The id of the request these lists answer.
        request_id: u64,
        /// One candidate list per read, in the request's read order; each
        /// list is sorted hits-descending with the classifier's
        /// deterministic tie-break and truncated to the server database's
        /// `top_candidates` capacity.
        candidates: Vec<Vec<Candidate>>,
        /// The database generation the lists were produced from (trailing,
        /// mandatory above the codec exactly like [`Frame::Results`]). A
        /// router refuses to merge legs reporting different generations —
        /// that would be a torn mixed-epoch merge.
        generation: Option<u64>,
    },
    /// Hot-swap request (client → server): rebuild /
    /// reload the serving database and swap it in with zero downtime.
    /// Answered — in receive order, after every earlier request of the
    /// connection — by a [`Frame::ReloadAck`] carrying the new generation,
    /// or by [`Frame::Error`] if the server has no reload hook configured
    /// or the reload failed (the swap is all-or-nothing; on failure the old
    /// epoch keeps serving).
    Reload,
    /// Answer to a [`Frame::Reload`] (server → client).
    ReloadAck {
        /// The database generation now serving.
        generation: u64,
    },
}

/// One read's classification on the wire (fixed 14 bytes:
/// status + taxon + rank + best_target + best_hits = 1+4+1+4+4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultEntry {
    /// [`status`] flag bits.
    pub status: u8,
    /// Assigned taxon (`0` when unclassified).
    pub taxon: u32,
    /// Rank level (see `mc_taxonomy::Rank::level`); meaningful only with
    /// [`status::HAS_RANK`].
    pub rank: u8,
    /// Best candidate target id; meaningful only with [`status::HAS_TARGET`].
    pub best_target: u32,
    /// Hit count of the best candidate.
    pub best_hits: u32,
}

impl ResultEntry {
    /// Encode a [`Classification`] as a wire entry.
    pub fn from_classification(c: &Classification) -> Self {
        let mut status = 0u8;
        if c.is_classified() {
            status |= status::CLASSIFIED;
        }
        if c.rank.is_some() {
            status |= status::HAS_RANK;
        }
        if c.best_target.is_some() {
            status |= status::HAS_TARGET;
        }
        Self {
            status,
            taxon: c.taxon,
            rank: c.rank.map_or(0, Rank::level),
            best_target: c.best_target.unwrap_or(0),
            best_hits: c.best_hits,
        }
    }

    /// Decode a wire entry back into a [`Classification`].
    pub fn to_classification(self) -> Classification {
        Classification {
            taxon: self.taxon,
            rank: (self.status & status::HAS_RANK != 0).then(|| Rank::from_level(self.rank)),
            best_target: (self.status & status::HAS_TARGET != 0).then_some(self.best_target),
            best_hits: self.best_hits,
        }
    }
}

impl Frame {
    /// The frame's type tag.
    pub fn frame_type(&self) -> u8 {
        match self {
            Self::Hello { .. } => frame_type::HELLO,
            Self::HelloAck { .. } => frame_type::HELLO_ACK,
            Self::ClassifyPacked { .. } => frame_type::CLASSIFY_PACKED,
            Self::Results { .. } => frame_type::RESULTS,
            Self::Error { .. } => frame_type::ERROR,
            Self::Goodbye => frame_type::GOODBYE,
            Self::Ping { .. } => frame_type::PING,
            Self::Pong { .. } => frame_type::PONG,
            Self::Busy { .. } => frame_type::BUSY,
            Self::Candidates { .. } => frame_type::CANDIDATES,
            Self::CandidateResults { .. } => frame_type::CANDIDATE_RESULTS,
            Self::Reload => frame_type::RELOAD,
            Self::ReloadAck { .. } => frame_type::RELOAD_ACK,
        }
    }

    /// Append the frame's *payload* (everything after the type byte) to
    /// `out`. The envelope (length prefix + type byte) is written by
    /// [`Frame::encode`].
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        match self {
            Self::Hello {
                magic,
                version,
                batch_records,
                max_in_flight,
                auth_token,
            } => {
                put_u32(out, *magic);
                put_u16(out, *version);
                put_u32(out, *batch_records);
                put_u32(out, *max_in_flight);
                if let Some(token) = auth_token {
                    put_str16(out, token)?;
                }
            }
            Self::HelloAck {
                version,
                credits,
                batch_records,
                backend,
            } => {
                put_u16(out, *version);
                put_u32(out, *credits);
                put_u32(out, *batch_records);
                put_str16(out, backend)?;
            }
            Self::ClassifyPacked { request_id, reads } | Self::Candidates { request_id, reads } => {
                encode_classify_packed_payload(out, *request_id, reads)?;
            }
            Self::Results {
                request_id,
                entries,
                generation,
            } => {
                encode_results_payload(out, *request_id, entries.iter().copied(), *generation)?;
            }
            Self::Error { code, message } => {
                put_u16(out, *code as u16);
                put_str16(out, message)?;
            }
            Self::Goodbye => {}
            Self::Ping { nonce } | Self::Pong { nonce } => put_u64(out, *nonce),
            Self::Busy {
                request_id,
                retry_after_ms,
            } => {
                put_u64(out, *request_id);
                put_u32(out, *retry_after_ms);
            }
            Self::CandidateResults {
                request_id,
                candidates,
                generation,
            } => {
                encode_candidate_results_payload(out, *request_id, candidates, *generation)?;
            }
            Self::Reload => {}
            Self::ReloadAck { generation } => put_u64(out, *generation),
        }
        Ok(())
    }

    /// Encode the full frame (length prefix, type byte, payload) into a
    /// fresh buffer. Fails if the frame cannot be represented (payload over
    /// [`MAX_FRAME_LEN`], oversized strings, a nested mate).
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = vec![0, 0, 0, 0, self.frame_type()];
        self.encode_payload(&mut out)?;
        seal_frame(&mut out)?;
        Ok(out)
    }

    /// Decode a frame from its type tag and payload bytes (the envelope has
    /// already been stripped by [`read_frame`]). Rejects trailing garbage.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let frame = match frame_type {
            frame_type::HELLO => Self::Hello {
                magic: cursor.u32()?,
                version: cursor.u16()?,
                batch_records: cursor.u32()?,
                max_in_flight: cursor.u32()?,
                // The auth token is one optional trailing str16.
                auth_token: if cursor.is_empty() {
                    None
                } else {
                    Some(cursor.str16()?)
                },
            },
            frame_type::HELLO_ACK => Self::HelloAck {
                version: cursor.u16()?,
                credits: cursor.u32()?,
                batch_records: cursor.u32()?,
                backend: cursor.str16()?,
            },
            frame_type::CLASSIFY_PACKED | frame_type::CANDIDATES => {
                let mut reads = Vec::new();
                let request_id = decode_classify_into(frame_type, payload, &mut reads)?;
                return Ok(if frame_type == frame_type::CLASSIFY_PACKED {
                    Self::ClassifyPacked { request_id, reads }
                } else {
                    Self::Candidates { request_id, reads }
                });
            }
            frame_type::RESULTS => {
                let request_id = cursor.u64()?;
                let count = cursor.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(payload.len() / 14 + 1));
                for _ in 0..count {
                    entries.push(ResultEntry {
                        status: cursor.u8()?,
                        taxon: cursor.u32()?,
                        rank: cursor.u8()?,
                        best_target: cursor.u32()?,
                        best_hits: cursor.u32()?,
                    });
                }
                Self::Results {
                    request_id,
                    entries,
                    generation: cursor.trailing_generation()?,
                }
            }
            frame_type::ERROR => Self::Error {
                code: ErrorCode::from_u16(cursor.u16()?),
                message: cursor.str16()?,
            },
            frame_type::GOODBYE => Self::Goodbye,
            frame_type::PING => Self::Ping {
                nonce: cursor.u64()?,
            },
            frame_type::PONG => Self::Pong {
                nonce: cursor.u64()?,
            },
            frame_type::BUSY => Self::Busy {
                request_id: cursor.u64()?,
                retry_after_ms: cursor.u32()?,
            },
            frame_type::CANDIDATE_RESULTS => {
                let request_id = cursor.u64()?;
                let read_count = cursor.u32()? as usize;
                // Grown per read, never by the announced count: a lying
                // count fails as `Truncated` before memory balloons.
                let mut candidates = Vec::new();
                for _ in 0..read_count {
                    let entry_count = cursor.u32()? as usize;
                    let mut list = Vec::with_capacity(entry_count.min(payload.len() / 16 + 1));
                    for _ in 0..entry_count {
                        list.push(Candidate {
                            target: cursor.u32()?,
                            window_begin: cursor.u32()?,
                            window_end: cursor.u32()?,
                            hits: cursor.u32()?,
                        });
                    }
                    candidates.push(list);
                }
                Self::CandidateResults {
                    request_id,
                    candidates,
                    generation: cursor.trailing_generation()?,
                }
            }
            frame_type::RELOAD => Self::Reload,
            frame_type::RELOAD_ACK => Self::ReloadAck {
                generation: cursor.u64()?,
            },
            other => return Err(ProtocolError::UnknownFrameType(other)),
        };
        cursor.finish()?;
        Ok(frame)
    }
}

/// Write the length prefix of an assembled `[0u8; 4] + type + payload`
/// buffer, validating the frame cap.
fn seal_frame(out: &mut [u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(out.len() - 4).map_err(|_| ProtocolError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    out[0..4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encode a read-carrying request (`tag` is [`frame_type::CLASSIFY_PACKED`]
/// or [`frame_type::CANDIDATES`] — the payloads are identical) directly
/// from a borrowed read slice: sequences are 2-bit packed straight into the
/// frame buffer, with no intermediate encoded copy per read.
pub(crate) fn encode_request(
    tag: u8,
    request_id: u64,
    reads: &[SequenceRecord],
) -> Result<Vec<u8>, ProtocolError> {
    let mut out = vec![0, 0, 0, 0, tag];
    encode_classify_packed_payload(&mut out, request_id, reads)?;
    seal_frame(&mut out)?;
    Ok(out)
}

/// Encode a [`Frame::ClassifyPacked`] directly from a borrowed read slice —
/// the client hot path. Decoding the frame reproduces the reads byte for
/// byte.
pub fn encode_classify_packed(
    request_id: u64,
    reads: &[SequenceRecord],
) -> Result<Vec<u8>, ProtocolError> {
    encode_request(frame_type::CLASSIFY_PACKED, request_id, reads)
}

/// Encode a [`Frame::Candidates`] directly from a borrowed read slice — the
/// router's scatter hot path. The payload is byte-identical to
/// [`encode_classify_packed`]'s; only the type tag differs.
pub fn encode_candidates(
    request_id: u64,
    reads: &[SequenceRecord],
) -> Result<Vec<u8>, ProtocolError> {
    encode_request(frame_type::CANDIDATES, request_id, reads)
}

/// The read-request payload encoder, shared by [`Frame::encode`] and
/// [`encode_request`].
fn encode_classify_packed_payload(
    out: &mut Vec<u8>,
    request_id: u64,
    reads: &[SequenceRecord],
) -> Result<(), ProtocolError> {
    put_u64(out, request_id);
    put_u32(
        out,
        u32::try_from(reads.len()).map_err(|_| ProtocolError::Malformed("read count"))?,
    );
    // One exception scratch for the whole frame (cleared per sequence);
    // records themselves are packed straight into `out`.
    let mut exceptions: Vec<(u32, u8)> = Vec::new();
    for read in reads {
        encode_record_packed(out, read, true, &mut exceptions)?;
    }
    Ok(())
}

/// A read on the wire: `header` (str16), `seq_len` (u32), a
/// [`record_flags`] byte, the sequence body, a quality string of exactly
/// `seq_len` bytes iff [`record_flags::HAS_QUALITY`], then a mate flag byte
/// and — for paired reads — the mate encoded the same way (mates must not
/// nest further). A non-empty quality string must match the sequence length
/// (FASTQ semantics); a mismatch fails to encode.
///
/// With [`record_flags::PACKED`] the body is `seq_len.div_ceil(4)` bytes of
/// 2-bit codes ([`mc_kmer::pack_2bit`] layout) followed — iff
/// [`record_flags::HAS_EXCEPTIONS`] — by `count: u32` and `count` strictly
/// position-ascending `(pos: u32, byte: u8)` exceptions restoring the bytes
/// (`N`, lower case, anything non-ACGT) that 2-bit codes cannot represent.
/// Without `PACKED` the body is `seq_len` verbatim bytes — the encoder's
/// fallback when the exception list would outweigh the packing (chosen per
/// record, so a hostile all-`N` payload never inflates).
fn encode_record_packed(
    out: &mut Vec<u8>,
    record: &SequenceRecord,
    allow_mate: bool,
    exceptions: &mut Vec<(u32, u8)>,
) -> Result<(), ProtocolError> {
    if !record.quality.is_empty() && record.quality.len() != record.sequence.len() {
        return Err(ProtocolError::Malformed("quality/sequence length mismatch"));
    }
    put_str16(out, &record.header)?;
    let seq = record.sequence.as_slice();
    put_u32(
        out,
        u32::try_from(seq.len()).map_err(|_| ProtocolError::Malformed("bytes too long"))?,
    );
    let mut flags = if record.quality.is_empty() {
        0u8
    } else {
        record_flags::HAS_QUALITY
    };
    let flags_at = out.len();
    out.push(0); // patched below once the exception count is known
                 // Pack optimistically in one pass over the sequence; only an
                 // exception-dense record pays the rewind to verbatim.
    let packed_at = out.len();
    exceptions.clear();
    mc_kmer::pack_2bit(seq, out, exceptions);
    let packed_body = (out.len() - packed_at)
        + if exceptions.is_empty() {
            0
        } else {
            4 + 5 * exceptions.len()
        };
    if packed_body < seq.len() {
        flags |= record_flags::PACKED;
        if !exceptions.is_empty() {
            flags |= record_flags::HAS_EXCEPTIONS;
            put_u32(out, exceptions.len() as u32);
            for &(pos, byte) in exceptions.iter() {
                put_u32(out, pos);
                out.push(byte);
            }
        }
    } else {
        out.truncate(packed_at);
        out.extend_from_slice(seq);
    }
    out[flags_at] = flags;
    out.extend_from_slice(&record.quality);
    match (&record.mate, allow_mate) {
        (None, _) => out.push(0),
        (Some(_), false) => return Err(ProtocolError::NestedMate),
        (Some(mate), true) => {
            out.push(1);
            encode_record_packed(out, mate, false, exceptions)?;
        }
    }
    Ok(())
}

/// Decode a `ClassifyPacked` / `Candidates` payload straight into a reusable
/// record vector, returning the request id. Existing records (and their
/// header/sequence/quality buffers, and mate boxes) are refilled in place;
/// the vector is truncated or grown to the decoded read count. This is the
/// server's zero-copy ingest path — after the first few requests of a
/// connection, decoding allocates nothing.
///
/// The whole payload must be consumed (trailing bytes are rejected), so the
/// result is exactly [`Frame::decode`]'s, without the per-request
/// allocations.
pub fn decode_classify_into(
    frame_type: u8,
    payload: &[u8],
    records: &mut Vec<SequenceRecord>,
) -> Result<u64, ProtocolError> {
    // A `Candidates` request carries the exact `ClassifyPacked` payload, so
    // the server's zero-copy ingest handles both tags.
    if !matches!(
        frame_type,
        frame_type::CLASSIFY_PACKED | frame_type::CANDIDATES
    ) {
        return Err(ProtocolError::UnknownFrameType(frame_type));
    }
    let mut cursor = Cursor::new(payload);
    let request_id = cursor.u64()?;
    let count = cursor.u32()? as usize;
    // No pre-allocation by the announced count: records are grown one by
    // one and every read consumes payload bytes, so a lying count fails
    // with `Truncated` before memory balloons.
    for i in 0..count {
        if records.len() <= i {
            records.push(SequenceRecord::default());
        }
        decode_record_into(&mut cursor, true, &mut records[i])?;
    }
    records.truncate(count);
    cursor.finish()?;
    Ok(request_id)
}

fn decode_record_into(
    cursor: &mut Cursor<'_>,
    allow_mate: bool,
    record: &mut SequenceRecord,
) -> Result<(), ProtocolError> {
    let spare_mate = record.clear_for_reuse();
    cursor.str16_into(&mut record.header)?;
    decode_packed_sequence(cursor, record)?;
    match cursor.u8()? {
        0 => {}
        1 if allow_mate => {
            let mut mate = spare_mate.unwrap_or_default();
            decode_record_into(cursor, false, &mut mate)?;
            record.mate = Some(mate);
        }
        1 => return Err(ProtocolError::NestedMate),
        _ => return Err(ProtocolError::Malformed("mate flag")),
    }
    Ok(())
}

/// Decode the `seq_len`/flags/body/quality block of a packed record into
/// `record.sequence` / `record.quality` (both already cleared).
fn decode_packed_sequence(
    cursor: &mut Cursor<'_>,
    record: &mut SequenceRecord,
) -> Result<(), ProtocolError> {
    let len = cursor.u32()? as usize;
    let flags = cursor.u8()?;
    if flags & !record_flags::ALL != 0 {
        return Err(ProtocolError::Malformed("record flags"));
    }
    if flags & record_flags::PACKED != 0 {
        // Take the packed bytes before reserving the expansion: a lying
        // length fails as `Truncated` before any allocation.
        let packed = cursor.take(len.div_ceil(4))?;
        mc_kmer::unpack_2bit(packed, len, &mut record.sequence);
        if flags & record_flags::HAS_EXCEPTIONS != 0 {
            let count = cursor.u32()? as usize;
            if count == 0 || count > len {
                return Err(ProtocolError::Malformed("exception count"));
            }
            let mut previous: Option<usize> = None;
            for _ in 0..count {
                let pos = cursor.u32()? as usize;
                let byte = cursor.u8()?;
                if pos >= len || previous.is_some_and(|p| pos <= p) {
                    return Err(ProtocolError::Malformed("exception position"));
                }
                record.sequence[pos] = byte;
                previous = Some(pos);
            }
        }
    } else {
        if flags & record_flags::HAS_EXCEPTIONS != 0 {
            return Err(ProtocolError::Malformed("record flags"));
        }
        record.sequence.extend_from_slice(cursor.take(len)?);
    }
    if flags & record_flags::HAS_QUALITY != 0 {
        record.quality.extend_from_slice(cursor.take(len)?);
    }
    Ok(())
}

/// The `Results` payload encoder, shared by [`Frame::encode`] (owned entry
/// vector) and [`encode_results_into`] (entries derived on the fly).
fn encode_results_payload(
    out: &mut Vec<u8>,
    request_id: u64,
    entries: impl ExactSizeIterator<Item = ResultEntry>,
    generation: Option<u64>,
) -> Result<(), ProtocolError> {
    put_u64(out, request_id);
    put_u32(
        out,
        u32::try_from(entries.len()).map_err(|_| ProtocolError::Malformed("entry count"))?,
    );
    for e in entries {
        out.push(e.status);
        put_u32(out, e.taxon);
        out.push(e.rank);
        put_u32(out, e.best_target);
        put_u32(out, e.best_hits);
    }
    if let Some(generation) = generation {
        put_u64(out, generation);
    }
    Ok(())
}

/// Encode a complete [`Frame::Results`] (envelope included) straight from a
/// classification slice into a reusable buffer — the server's response hot
/// path, byte-identical to building the frame's entry vector and calling
/// [`Frame::encode`], with zero allocations once `out` has grown.
pub fn encode_results_into(
    out: &mut Vec<u8>,
    request_id: u64,
    classifications: &[Classification],
    generation: Option<u64>,
) -> Result<(), ProtocolError> {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0, frame_type::RESULTS]);
    let entries = classifications.iter().map(ResultEntry::from_classification);
    encode_results_payload(out, request_id, entries, generation)?;
    seal_frame(out)
}

/// The `CandidateResults` payload encoder, shared by [`Frame::encode`] and
/// [`encode_candidate_results_into`]. Generic over the per-read list type so
/// the server encodes straight from borrowed [`metacache::CandidateList`]
/// slices while owned frames hold `Vec<Candidate>`.
fn encode_candidate_results_payload<L: AsRef<[Candidate]>>(
    out: &mut Vec<u8>,
    request_id: u64,
    reads: &[L],
    generation: Option<u64>,
) -> Result<(), ProtocolError> {
    put_u64(out, request_id);
    put_u32(
        out,
        u32::try_from(reads.len()).map_err(|_| ProtocolError::Malformed("read count"))?,
    );
    for list in reads {
        let list = list.as_ref();
        put_u32(
            out,
            u32::try_from(list.len()).map_err(|_| ProtocolError::Malformed("candidate count"))?,
        );
        for c in list {
            put_u32(out, c.target);
            put_u32(out, c.window_begin);
            put_u32(out, c.window_end);
            put_u32(out, c.hits);
        }
    }
    if let Some(generation) = generation {
        put_u64(out, generation);
    }
    Ok(())
}

/// Encode a complete [`Frame::CandidateResults`] (envelope included)
/// straight from per-read candidate slices into a reusable buffer — the
/// server's candidates response hot path, byte-identical to building the
/// frame's nested vectors and calling [`Frame::encode`], with zero
/// allocations once `out` has grown.
pub fn encode_candidate_results_into<L: AsRef<[Candidate]>>(
    out: &mut Vec<u8>,
    request_id: u64,
    reads: &[L],
    generation: Option<u64>,
) -> Result<(), ProtocolError> {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0, frame_type::CANDIDATE_RESULTS]);
    encode_candidate_results_payload(out, request_id, reads, generation)?;
    seal_frame(out)
}

/// Write one frame to a stream. Does not flush — callers batch frames and
/// flush at message boundaries.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes)?;
    Ok(())
}

/// Read one frame from a stream. Returns `Ok(None)` on a clean EOF at a
/// frame boundary; EOF inside a frame is [`NetError::Disconnected`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, NetError> {
    let mut payload = Vec::new();
    match read_frame_buf(r, &mut payload)? {
        None => Ok(None),
        Some(frame_type) => Ok(Some(Frame::decode(frame_type, &payload)?)),
    }
}

/// Read one frame's envelope into a reusable payload buffer, returning the
/// frame's type tag (`Ok(None)` on a clean EOF at a frame boundary). The
/// server's reader threads use this with one long-lived buffer per
/// connection so steady-state frame ingest allocates nothing; pair it with
/// [`Frame::decode`] or [`decode_classify_into`].
///
/// A peer that disappears after sending *part* of the 4-byte length prefix
/// is a torn connection ([`NetError::Disconnected`]), not a clean EOF —
/// only 0 bytes before EOF count as a frame boundary.
pub fn read_frame_buf(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Option<u8>, NetError> {
    payload.clear();
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(NetError::Disconnected),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len).into());
    }
    let mut frame_type = [0u8; 1];
    read_exact_or_disconnect(r, &mut frame_type)?;
    payload.resize(len as usize - 1, 0);
    read_exact_or_disconnect(r, payload)?;
    Ok(Some(frame_type[0]))
}

fn read_exact_or_disconnect(r: &mut impl Read, buf: &mut [u8]) -> Result<(), NetError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            NetError::Disconnected
        } else {
            NetError::Io(e)
        }
    })
}

/// Compare two byte strings in time independent of where they differ —
/// the auth-token check must not leak the matching prefix length through
/// timing. (Length still leaks; tokens are not secrets of varying length.)
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

// ---- little-endian primitives -------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let len = u16::try_from(s.len()).map_err(|_| ProtocolError::Malformed("string too long"))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A checked payload reader: every accessor fails with
/// [`ProtocolError::Truncated`] instead of panicking on short input.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.rest.len() < n {
            return Err(ProtocolError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, ProtocolError> {
        let mut out = String::new();
        self.str16_into(&mut out)?;
        Ok(out)
    }

    /// Decode a str16 into a reusable (already cleared) `String`.
    fn str16_into(&mut self, out: &mut String) -> Result<(), ProtocolError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        let text =
            std::str::from_utf8(bytes).map_err(|_| ProtocolError::Malformed("invalid utf-8"))?;
        out.push_str(text);
        Ok(())
    }

    /// The trailing database-generation tag: exactly 8 trailing bytes
    /// (optional at the codec level only — see [`Frame::Results`]).
    /// Any other non-empty remainder is left for [`Cursor::finish`] to
    /// reject as trailing bytes — a complete untagged frame followed by
    /// garbage is malformed, not truncated.
    fn trailing_generation(&mut self) -> Result<Option<u64>, ProtocolError> {
        if self.rest.len() == 8 {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Require that the whole payload was consumed.
    fn finish(self) -> Result<(), ProtocolError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode().unwrap();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        let decoded = Frame::decode(bytes[4], &bytes[5..]).unwrap();
        assert_eq!(decoded, frame);
        // And through the io adapters.
        let mut cursor = io::Cursor::new(&bytes);
        let read = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read, frame);
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            batch_records: 64,
            max_in_flight: 0,
            auth_token: None,
        });
        roundtrip(Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            batch_records: 64,
            max_in_flight: 8,
            auth_token: Some("hunter2".into()),
        });
        roundtrip(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            credits: 8,
            batch_records: 1024,
            backend: "host".into(),
        });
        let mut paired =
            SequenceRecord::with_quality("r1 pair", b"ACGT".to_vec(), b"IIII".to_vec());
        paired.mate = Some(Box::new(SequenceRecord::new("r1/2", b"GGTA".to_vec())));
        roundtrip(Frame::ClassifyPacked {
            request_id: 42,
            reads: vec![
                SequenceRecord::new("plain", b"ACGTACGTACGTACGTACGTACGT".to_vec()),
                SequenceRecord::new("", Vec::new()),
                SequenceRecord::new("ns", b"ACGTNNACGTNNacgtACGTACGT".to_vec()),
                SequenceRecord::new("all n", b"NNNNNNNN".to_vec()),
                paired,
            ],
        });
        roundtrip(Frame::Results {
            request_id: 42,
            entries: vec![
                ResultEntry {
                    status: status::CLASSIFIED | status::HAS_RANK | status::HAS_TARGET,
                    taxon: 100,
                    rank: Rank::Species.level(),
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
            generation: None,
        });
        roundtrip(Frame::Results {
            request_id: 43,
            entries: Vec::new(),
            generation: Some(7),
        });
        roundtrip(Frame::Reload);
        roundtrip(Frame::ReloadAck { generation: 3 });
        roundtrip(Frame::Error {
            code: ErrorCode::Malformed,
            message: "bad payload".into(),
        });
        roundtrip(Frame::Goodbye);
        roundtrip(Frame::Ping { nonce: 7 });
        roundtrip(Frame::Pong { nonce: u64::MAX });
        roundtrip(Frame::Busy {
            request_id: 3,
            retry_after_ms: 250,
        });
        roundtrip(Frame::Busy {
            request_id: BUSY_CONNECTION,
            retry_after_ms: 100,
        });
        roundtrip(Frame::Candidates {
            request_id: 43,
            reads: vec![
                SequenceRecord::new("plain", b"ACGTACGTACGTACGTACGTACGT".to_vec()),
                SequenceRecord::new("", Vec::new()),
                SequenceRecord::new("ns", b"ACGTNNACGTNNacgtACGTACGT".to_vec()),
            ],
        });
        roundtrip(Frame::CandidateResults {
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
                vec![Candidate {
                    target: u32::MAX,
                    window_begin: u32::MAX,
                    window_end: u32::MAX,
                    hits: u32::MAX,
                }],
            ],
            generation: None,
        });
        roundtrip(Frame::CandidateResults {
            request_id: 0,
            candidates: Vec::new(),
            generation: Some(u64::MAX),
        });
    }

    /// A `Candidates` frame must be byte-identical to the `ClassifyPacked`
    /// frame for the same reads except for its type tag: routers reuse the
    /// packed encoder and servers reuse the packed zero-copy decoder.
    #[test]
    fn candidates_payload_matches_classify_packed() {
        let reads = vec![
            SequenceRecord::new("a", b"ACGTACGTACGTNNACGT".to_vec()),
            SequenceRecord::with_quality("q", b"ACGTACGT".to_vec(), b"IIIIIIII".to_vec()),
        ];
        let packed = encode_classify_packed(9, &reads).unwrap();
        let cand = encode_candidates(9, &reads).unwrap();
        assert_eq!(cand[4], frame_type::CANDIDATES);
        assert_eq!(packed[4], frame_type::CLASSIFY_PACKED);
        assert_eq!(&cand[..4], &packed[..4]);
        assert_eq!(&cand[5..], &packed[5..]);
        // The owned-frame encoder and the borrowed hot path agree.
        let owned = Frame::Candidates {
            request_id: 9,
            reads: reads.clone(),
        }
        .encode()
        .unwrap();
        assert_eq!(owned, cand);
        // The server's zero-copy ingest accepts the CANDIDATES tag as packed.
        let mut records = Vec::new();
        let id = decode_classify_into(frame_type::CANDIDATES, &cand[5..], &mut records).unwrap();
        assert_eq!(id, 9);
        assert_eq!(records, reads);
    }

    /// The borrowed-slice `CandidateResults` hot path is byte-identical to
    /// encoding the owned frame.
    #[test]
    fn encode_candidate_results_into_matches_frame_encode() {
        let lists: Vec<Vec<Candidate>> = vec![
            vec![
                Candidate {
                    target: 1,
                    window_begin: 3,
                    window_end: 7,
                    hits: 12,
                },
                Candidate {
                    target: 4,
                    window_begin: 0,
                    window_end: 4,
                    hits: 12,
                },
            ],
            Vec::new(),
        ];
        let owned = Frame::CandidateResults {
            request_id: 77,
            candidates: lists.clone(),
            generation: None,
        }
        .encode()
        .unwrap();
        let mut hot = vec![0xAA; 3]; // stale contents must be cleared
        let borrowed: Vec<&[Candidate]> = lists.iter().map(Vec::as_slice).collect();
        encode_candidate_results_into(&mut hot, 77, &borrowed, None).unwrap();
        assert_eq!(hot, owned);
        // The tagged form also agrees with the owned encoder.
        let owned_tagged = Frame::CandidateResults {
            request_id: 77,
            candidates: lists.clone(),
            generation: Some(9),
        }
        .encode()
        .unwrap();
        encode_candidate_results_into(&mut hot, 77, &borrowed, Some(9)).unwrap();
        assert_eq!(hot, owned_tagged);
    }

    /// A truncated `CandidateResults` payload (count promising more entries
    /// than present) fails as `Truncated`, and trailing bytes are rejected.
    #[test]
    fn candidate_results_rejects_truncation_and_trailing_bytes() {
        let frame = Frame::CandidateResults {
            request_id: 5,
            candidates: vec![vec![Candidate {
                target: 1,
                window_begin: 0,
                window_end: 4,
                hits: 9,
            }]],
            generation: None,
        };
        let bytes = frame.encode().unwrap();
        let payload = &bytes[5..];
        assert_eq!(
            Frame::decode(frame_type::CANDIDATE_RESULTS, &payload[..payload.len() - 1]),
            Err(ProtocolError::Truncated)
        );
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert_eq!(
            Frame::decode(frame_type::CANDIDATE_RESULTS, &trailing),
            Err(ProtocolError::Malformed("trailing bytes"))
        );
    }

    /// A `Hello` without a token is the fixed 14-byte payload the protocol
    /// has carried since v1: an absent token adds no bytes.
    #[test]
    fn tokenless_hello_is_bit_compatible_with_v1() {
        let bytes = Frame::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            batch_records: 32,
            max_in_flight: 4,
            auth_token: None,
        }
        .encode()
        .unwrap();
        assert_eq!(bytes.len(), 4 + 1 + 14);
        let mut expected = Vec::new();
        put_u32(&mut expected, MAGIC);
        put_u16(&mut expected, PROTOCOL_VERSION);
        put_u32(&mut expected, 32);
        put_u32(&mut expected, 4);
        assert_eq!(&bytes[5..], expected.as_slice());
    }

    #[test]
    fn hello_with_truncated_token_is_rejected() {
        let mut payload = Vec::new();
        put_u32(&mut payload, MAGIC);
        put_u16(&mut payload, PROTOCOL_VERSION);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        put_u16(&mut payload, 40); // token claims 40 bytes …
        payload.extend_from_slice(b"short"); // … but only 5 follow
        assert_eq!(
            Frame::decode(frame_type::HELLO, &payload),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn constant_time_eq_matches_plain_equality() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"a", b""),
            (b"", b"a"),
            (b"token", b"token"),
            (b"token", b"tokex"),
            (b"token", b"toke"),
            (b"aaaaaaaa", b"aaaaaaab"),
        ];
        for (a, b) in cases {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn borrowed_classify_encoding_matches_owned() {
        let reads = vec![
            SequenceRecord::new("r0", b"ACGTACGT".to_vec()),
            SequenceRecord::with_quality("r1", b"GGTA".to_vec(), b"IIII".to_vec()),
        ];
        let borrowed_packed = encode_classify_packed(99, &reads).unwrap();
        let owned_packed = Frame::ClassifyPacked {
            request_id: 99,
            reads,
        }
        .encode()
        .unwrap();
        assert_eq!(borrowed_packed, owned_packed);
    }

    /// Σ `header + sequence + quality` bytes over reads and mates — what the
    /// records weigh before any framing.
    fn raw_bytes(reads: &[SequenceRecord]) -> usize {
        reads.iter().map(SequenceRecord::heap_bytes).sum()
    }

    /// Flag byte of the first record of a read-request frame whose first
    /// header is `header_len` bytes long.
    fn first_record_flags(frame: &[u8], header_len: usize) -> u8 {
        frame[5 + 8 + 4 + 2 + header_len + 4]
    }

    fn decode_packed(frame: &[u8]) -> Vec<SequenceRecord> {
        match Frame::decode(frame[4], &frame[5..]).unwrap() {
            Frame::ClassifyPacked { reads, .. } => reads,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The headline property: both per-record body forms — 2-bit packed and
    /// the verbatim fallback — decode to exactly the reads that went in,
    /// and the packed frame is about 4× smaller than the raw records on
    /// ACGT-heavy payloads.
    #[test]
    fn packed_and_verbatim_decode_identically_and_packed_is_smaller() {
        let genome: Vec<u8> = (0..4000).map(|i| b"ACGT"[(i * 31 + 1) % 4]).collect();
        let acgt: Vec<SequenceRecord> = (0..16)
            .map(|i| SequenceRecord::new(format!("r{i}"), genome[i * 200..i * 200 + 200].to_vec()))
            .collect();
        let packed = encode_classify_packed(7, &acgt).unwrap();
        assert_eq!(first_record_flags(&packed, 2), record_flags::PACKED);
        assert_eq!(decode_packed(&packed), acgt);
        assert!(
            packed.len() * 3 < raw_bytes(&acgt),
            "packed {} bytes vs raw {} bytes",
            packed.len(),
            raw_bytes(&acgt)
        );
        let all_n = vec![SequenceRecord::new("n0", vec![b'N'; 200])];
        let verbatim = encode_classify_packed(7, &all_n).unwrap();
        assert_eq!(first_record_flags(&verbatim, 2), 0);
        assert_eq!(decode_packed(&verbatim), all_n);
    }

    /// Exception-dense sequences fall back to verbatim bytes per record:
    /// the packed frame never grows past the raw records plus the fixed
    /// framing (17 bytes per frame, 8 per record).
    #[test]
    fn packed_encoding_never_inflates_on_hostile_payloads() {
        let reads: Vec<SequenceRecord> = (0..8)
            .map(|i| SequenceRecord::new(format!("n{i}"), vec![b'N'; 100 + i]))
            .collect();
        let packed = encode_classify_packed(1, &reads).unwrap();
        assert!(packed.len() <= 17 + raw_bytes(&reads) + 8 * reads.len());
        assert_eq!(decode_packed(&packed), reads);
    }

    #[test]
    fn decode_classify_into_reuses_buffers_and_matches_frame_decode() {
        let reads = vec![
            SequenceRecord::with_quality("q0", b"ACGTNACGT".to_vec(), b"IIIIIIIII".to_vec()),
            SequenceRecord::new("q1", b"GGTAGGTAGGTA".to_vec())
                .with_mate(SequenceRecord::new("q1/2", b"TTACNN".to_vec())),
        ];
        for bytes in [
            encode_classify_packed(5, &reads).unwrap(),
            encode_candidates(5, &reads).unwrap(),
        ] {
            // Pre-populate the reusable buffer with stale garbage records.
            let mut buffer: Vec<SequenceRecord> = (0..4)
                .map(|i| {
                    SequenceRecord::with_quality(
                        format!("stale{i}"),
                        vec![b'G'; 500],
                        vec![b'#'; 500],
                    )
                    .with_mate(SequenceRecord::new("stale mate", vec![b'T'; 100]))
                })
                .collect();
            let capacity_before = buffer[0].sequence.capacity();
            let request_id = decode_classify_into(bytes[4], &bytes[5..], &mut buffer).unwrap();
            assert_eq!(request_id, 5);
            assert_eq!(buffer, reads);
            assert!(
                buffer[0].sequence.capacity() >= capacity_before.min(500),
                "reused buffer lost its capacity"
            );
        }
    }

    /// Encoding refuses a record whose quality length differs from its
    /// sequence length — as the read itself and hidden in a mate. (The wire
    /// format cannot express the mismatch: a quality string is exactly
    /// `seq_len` bytes or absent.)
    #[test]
    fn quality_length_mismatch_is_rejected_both_ways() {
        let bad = SequenceRecord::with_quality("r", b"ACGTACGT".to_vec(), b"III".to_vec());
        let carrier = SequenceRecord::new("ok", b"ACGT".to_vec()).with_mate(bad.clone());
        for record in [bad, carrier] {
            assert_eq!(
                encode_classify_packed(1, std::slice::from_ref(&record)),
                Err(ProtocolError::Malformed("quality/sequence length mismatch"))
            );
        }
    }

    #[test]
    fn packed_exception_lists_are_validated() {
        // 40 bases, two exceptions at 36/37 — sparse enough that the
        // encoder picks the packed representation.
        let reads = vec![SequenceRecord::new(
            "n",
            b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTNNGT".to_vec(),
        )];
        let bytes = encode_classify_packed(3, &reads).unwrap();
        let payload = bytes[5..].to_vec();
        // Locate the exception count: header(2+1) + seq_len(4) + flags(1)
        // + packed(ceil(40/4)=10) bytes into the record, which starts after
        // request id (8) + count (4).
        let exc_count_at = 8 + 4 + 3 + 4 + 1 + 10;
        assert_eq!(
            u32::from_le_bytes(payload[exc_count_at..exc_count_at + 4].try_into().unwrap()),
            2
        );
        // Out-of-range position.
        let mut corrupt = payload.clone();
        corrupt[exc_count_at + 4..exc_count_at + 8].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            Frame::decode(frame_type::CLASSIFY_PACKED, &corrupt),
            Err(ProtocolError::Malformed("exception position"))
        );
        // Non-increasing positions.
        let mut corrupt = payload.clone();
        let second = exc_count_at + 4 + 5;
        corrupt[second..second + 4].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Frame::decode(frame_type::CLASSIFY_PACKED, &corrupt),
            Err(ProtocolError::Malformed("exception position"))
        );
        // Undefined record flag bits.
        let flags_at = 8 + 4 + 3 + 4;
        let mut corrupt = payload;
        corrupt[flags_at] |= 0x80;
        assert_eq!(
            Frame::decode(frame_type::CLASSIFY_PACKED, &corrupt),
            Err(ProtocolError::Malformed("record flags"))
        );
    }

    #[test]
    fn encode_results_into_matches_frame_encode() {
        let classifications = vec![
            Classification {
                taxon: 101,
                rank: Some(Rank::Genus),
                best_target: Some(7),
                best_hits: 21,
            },
            Classification::unclassified(),
        ];
        let entries: Vec<ResultEntry> = classifications
            .iter()
            .map(ResultEntry::from_classification)
            .collect();
        let framed = Frame::Results {
            request_id: 31,
            entries: entries.clone(),
            generation: None,
        }
        .encode()
        .unwrap();
        let mut reused = vec![0xAB; 64]; // stale content must be overwritten
        encode_results_into(&mut reused, 31, &classifications, None).unwrap();
        assert_eq!(reused, framed);
        // The tagged form also agrees with the owned encoder.
        let framed_tagged = Frame::Results {
            request_id: 31,
            entries,
            generation: Some(4),
        }
        .encode()
        .unwrap();
        encode_results_into(&mut reused, 31, &classifications, Some(4)).unwrap();
        assert_eq!(reused, framed_tagged);
        // The trailing tag is exactly eight bytes.
        assert_eq!(framed_tagged.len(), framed.len() + 8);
    }

    #[test]
    fn classification_entry_roundtrips() {
        let classified = Classification {
            taxon: 101,
            rank: Some(Rank::Genus),
            best_target: Some(7),
            best_hits: 21,
        };
        let entry = ResultEntry::from_classification(&classified);
        assert_eq!(entry.to_classification(), classified);
        let unclassified = Classification::unclassified();
        let entry = ResultEntry::from_classification(&unclassified);
        assert_eq!(entry.status, 0);
        assert_eq!(entry.to_classification(), unclassified);
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let mut cursor = io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol(ProtocolError::FrameTooLarge(0)))
        ));
        let mut cursor = io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol(ProtocolError::FrameTooLarge(_)))
        ));
    }

    #[test]
    fn eof_at_boundary_is_none_mid_frame_is_disconnect() {
        let mut empty = io::Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut empty), Ok(None)));
        let frame = Frame::Goodbye.encode().unwrap();
        let mut cut = io::Cursor::new(frame[..4].to_vec());
        assert!(matches!(read_frame(&mut cut), Err(NetError::Disconnected)));
    }

    /// Regression: a peer dropping after 1–3 bytes of the length prefix is
    /// a torn connection, not a clean EOF (`read_exact` reports
    /// `UnexpectedEof` for both, so the prefix must be read byte-counted).
    #[test]
    fn partial_length_prefix_is_disconnect_not_clean_eof() {
        let frame = Frame::Goodbye.encode().unwrap();
        for cut in 1..4 {
            let mut cursor = io::Cursor::new(frame[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(NetError::Disconnected)),
                "{cut}-byte prefix must be a disconnect"
            );
        }
    }

    /// An interrupted-then-resumed prefix read still assembles the frame.
    #[test]
    fn fragmented_length_prefix_still_reads() {
        struct OneByteAtATime(io::Cursor<Vec<u8>>);
        impl Read for OneByteAtATime {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(1);
                self.0.read(&mut buf[..n])
            }
        }
        let frame = Frame::Goodbye.encode().unwrap();
        let mut reader = OneByteAtATime(io::Cursor::new(frame));
        assert_eq!(read_frame(&mut reader).unwrap(), Some(Frame::Goodbye));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let bytes = Frame::ClassifyPacked {
            request_id: 9,
            reads: vec![SequenceRecord::new("r", b"ACGT".to_vec())],
        }
        .encode()
        .unwrap();
        // Every strict prefix of the payload fails to decode.
        for cut in 0..bytes.len() - 5 {
            let result = Frame::decode(bytes[4], &bytes[5..5 + cut]);
            assert!(result.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let bytes = Frame::Goodbye.encode().unwrap();
        let mut payload = bytes[5..].to_vec();
        payload.push(0xAB);
        assert_eq!(
            Frame::decode(bytes[4], &payload),
            Err(ProtocolError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        assert_eq!(
            Frame::decode(200, &[]),
            Err(ProtocolError::UnknownFrameType(200))
        );
        // Tag 3, the retired verbatim `Classify`, is unknown to both decoders.
        assert_eq!(
            Frame::decode(3, &[]),
            Err(ProtocolError::UnknownFrameType(3))
        );
        assert_eq!(
            decode_classify_into(3, &[], &mut Vec::new()),
            Err(ProtocolError::UnknownFrameType(3))
        );
    }

    #[test]
    fn nested_mate_fails_to_encode() {
        let inner = SequenceRecord::new("m2", b"AC".to_vec());
        let mut mate = SequenceRecord::new("m1", b"GT".to_vec());
        mate.mate = Some(Box::new(inner));
        let mut read = SequenceRecord::new("r", b"ACGT".to_vec());
        read.mate = Some(Box::new(mate));
        assert_eq!(
            Frame::ClassifyPacked {
                request_id: 1,
                reads: vec![read]
            }
            .encode(),
            Err(ProtocolError::NestedMate)
        );
    }
}
