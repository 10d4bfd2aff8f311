//! The blocking client of the `mc-net` protocol.
//!
//! [`NetClient`] is deliberately synchronous — one blocking connection per
//! caller thread — and mirrors the engine's
//! [`Session`](metacache::serving::Session) API: [`NetClient::classify_batch`]
//! for one request/response exchange, [`NetClient::classify_iter`] for a
//! record stream pipelined over the connection's credit window.
//!
//! Results over the network are **bit-identical, including order,** to an
//! in-process session on the same engine (asserted by `tests/net.rs`): the
//! wire protocol adds framing, never semantics.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use mc_seqio::SequenceRecord;
use metacache::{Candidate, Classification};

use crate::protocol::{
    encode_request, frame_type, read_frame, write_frame, Frame, NetError, ProtocolError,
    BUSY_CONNECTION, MAGIC, PROTOCOL_VERSION,
};

/// Connection preferences sent in the handshake. The server may shrink but
/// never grow them; `0` means "use the server's default".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Requested records per engine batch.
    pub batch_records: u32,
    /// Requested credit (simultaneously unanswered requests).
    pub max_in_flight: u32,
    /// Deadline for establishing the TCP connection (`None` = the OS
    /// default, typically tens of seconds).
    pub connect_timeout: Option<Duration>,
    /// Per-request deadline: the longest any single blocking receive may
    /// wait for server bytes. A stalled server surfaces as an
    /// [`std::io::ErrorKind::TimedOut`] I/O error (retryable) instead of a
    /// hang. `None` waits forever.
    pub request_timeout: Option<Duration>,
    /// Pre-shared token sent in `Hello`.
    pub auth_token: Option<String>,
}

/// Counters of one [`NetClient::classify_iter`] stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Reads classified.
    pub reads: u64,
    /// Requests the stream was split into.
    pub requests: u64,
    /// High-water mark of simultaneously unanswered requests (bounded by
    /// the granted credit).
    pub peak_in_flight: u64,
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
///
/// One client maps to one engine session on the server: results of each
/// request come back in read order, and distinct clients are fully isolated
/// from each other (a disconnecting or misbehaving client cannot affect
/// another's stream).
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use mc_net::{NetClient, NetServer};
/// # use mc_seqio::SequenceRecord;
/// # use mc_taxonomy::{Rank, Taxonomy};
/// # use metacache::serving::{EngineConfig, ServingEngine};
/// # use metacache::{build::CpuBuilder, HostBackend, MetaCacheConfig};
/// # let mut taxonomy = Taxonomy::with_root();
/// # taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
/// # let mut state = 11u64;
/// # let genome: Vec<u8> = (0..8000).map(|_| {
/// #     state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
/// #     b"ACGT"[(state >> 33) as usize % 4]
/// # }).collect();
/// # let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
/// # builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
/// # let backend = HostBackend::new(Arc::new(builder.finish()));
/// # let engine = ServingEngine::new(backend, EngineConfig::default());
/// # let server = NetServer::bind(&engine, "127.0.0.1:0").unwrap();
/// # let handle = server.handle();
/// # std::thread::scope(|scope| {
/// #     scope.spawn(|| server.run());
/// let mut client = NetClient::connect(handle.local_addr()).unwrap();
/// // One request/response exchange …
/// let reads = vec![SequenceRecord::new("r0", genome[300..450].to_vec())];
/// assert_eq!(client.classify_batch(&reads).unwrap()[0].taxon, 100);
/// // … or a pipelined stream over the connection's credit window.
/// let (classifications, summary) = client
///     .classify_iter((0..40).map(|i| {
///         SequenceRecord::new(format!("r{i}"), genome[i * 100..i * 100 + 150].to_vec())
///     }))
///     .unwrap();
/// assert_eq!(classifications.len(), 40);
/// assert!(summary.peak_in_flight <= u64::from(client.credits()));
/// #     drop(client);
/// #     handle.shutdown();
/// # });
/// # engine.shutdown();
/// ```
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    credits: u32,
    batch_records: u32,
    backend: String,
    next_request: u64,
    /// Set once the connection is unusable (error frame seen or I/O
    /// failure); later calls fail fast instead of deadlocking.
    dead: bool,
    /// The database generation tag of the most recent `Results` /
    /// `CandidateResults` / `ReloadAck` (`None` before the first one).
    last_generation: Option<u64>,
}

impl NetClient {
    /// Connect and handshake with default preferences.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect and handshake with explicit preferences.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NetError> {
        let stream = connect_stream(addr, config.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        // The per-request deadline rides on the socket: every blocking
        // receive wakes within it, turning a stalled server into a
        // retryable TimedOut error instead of a wedged client.
        stream.set_read_timeout(config.request_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                batch_records: config.batch_records,
                max_in_flight: config.max_in_flight,
                auth_token: config.auth_token,
            },
        )?;
        writer.flush()?;
        let mut client = Self {
            reader,
            writer,
            credits: 1,
            batch_records: 1,
            backend: String::new(),
            next_request: 0,
            dead: false,
            last_generation: None,
        };
        match client.read_reply()? {
            Frame::HelloAck {
                version,
                credits,
                batch_records,
                backend,
            } => {
                // There is one dialect: any other ack is a broken peer.
                if version != PROTOCOL_VERSION {
                    return Err(ProtocolError::UnsupportedVersion(version).into());
                }
                client.credits = credits.max(1);
                client.batch_records = batch_records.max(1);
                client.backend = backend;
                Ok(client)
            }
            other => Err(ProtocolError::Malformed(unexpected(&other)).into()),
        }
    }

    /// The credit granted by the server: how many requests
    /// [`NetClient::classify_iter`] keeps in flight.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// The server session's records-per-batch (also the request size
    /// [`NetClient::classify_iter`] uses).
    pub fn batch_records(&self) -> u32 {
        self.batch_records
    }

    /// The serving backend's label, as reported in the handshake.
    pub fn backend(&self) -> &str {
        self.backend.as_str()
    }

    /// The database generation reported by the most recent `Results`,
    /// `CandidateResults` or `ReloadAck` of this connection — `None` until
    /// the first one arrives. A streaming client watches this move to
    /// detect a mid-stream reference upgrade.
    pub fn database_generation(&self) -> Option<u64> {
        self.last_generation
    }

    /// Ask the server to hot-swap its database (rebuild / re-read its
    /// reference set) and block until the swap is published, returning the
    /// new generation. Requires **no requests in flight** — the ack must be
    /// the next frame on the wire. A server without a configured reload
    /// hook answers with an `Error` frame ([`NetError::Remote`]); the old
    /// database keeps serving in that case.
    pub fn reload(&mut self) -> Result<u64, NetError> {
        self.send_frame(&Frame::Reload)?;
        match self.read_reply()? {
            Frame::ReloadAck { generation } => {
                self.last_generation = Some(generation);
                Ok(generation)
            }
            other => Err(self.violation(unexpected(&other))),
        }
    }

    /// Probe connection liveness with a `Ping`/`Pong` round trip (also
    /// resets the server's idle-reaping clock). Requires **no requests in
    /// flight** — the pong must be the next frame on the wire.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let nonce = self.next_request ^ 0x6d63_7069_6e67; // "mcping"
        self.send_frame(&Frame::Ping { nonce })?;
        match self.read_reply()? {
            Frame::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            Frame::Pong { .. } => Err(self.violation("pong nonce mismatch")),
            other => Err(self.violation(unexpected(&other))),
        }
    }

    /// Classify a batch of reads in one request/response exchange. Returns
    /// one [`Classification`] per read, in read order.
    pub fn classify_batch(
        &mut self,
        reads: &[SequenceRecord],
    ) -> Result<Vec<Classification>, NetError> {
        let id = self.send_request(frame_type::CLASSIFY_PACKED, reads)?;
        self.recv_results(id)
    }

    /// Fetch each read's merged top-hit candidate list in one
    /// request/response exchange — the scatter leg a shard router drives
    /// against its shard servers. Returns one list per read, in read
    /// order, sorted by the classifier's deterministic candidate order,
    /// plus the database generation the lists were computed under — the
    /// router uses it to refuse a torn merge of legs answering from
    /// different epochs.
    pub fn candidates_batch_tagged(
        &mut self,
        reads: &[SequenceRecord],
    ) -> Result<(Vec<Vec<Candidate>>, u64), NetError> {
        let id = self.send_request(frame_type::CANDIDATES, reads)?;
        self.recv_tagged(id, |frame| match frame {
            Frame::CandidateResults {
                request_id,
                candidates,
                generation,
            } => Ok((request_id, candidates, generation)),
            other => Err(other),
        })
    }

    /// Stream reads through the connection, pipelining up to the granted
    /// credit of requests, and collect the classifications in input order.
    ///
    /// Reads are grouped into requests of [`NetClient::batch_records`]
    /// reads — each request is exactly one engine batch on the server, so
    /// the connection's credit window is the engine's per-session
    /// `max_in_flight` bound seen from the outside.
    pub fn classify_iter(
        &mut self,
        reads: impl IntoIterator<Item = SequenceRecord>,
    ) -> Result<(Vec<Classification>, NetSummary), NetError> {
        let chunk = self.batch_records as usize;
        let mut summary = NetSummary::default();
        let mut out = Vec::new();
        // Request ids are monotone and responses come back in request
        // order, so a simple count of unanswered requests is the window.
        let mut oldest_pending: u64 = self.next_request;
        let mut in_flight: u64 = 0;
        // Cap the eager allocation: `chunk` is server-announced and may be
        // saturated to u32::MAX by a server with huge configured batches.
        let mut current: Vec<SequenceRecord> = Vec::with_capacity(chunk.min(64 * 1024));
        let mut send_error: Option<NetError> = None;
        for read in reads {
            current.push(read);
            if current.len() >= chunk {
                if let Err(e) = self.pipeline_send(
                    &current,
                    &mut oldest_pending,
                    &mut in_flight,
                    &mut summary,
                    &mut out,
                ) {
                    send_error = Some(e);
                    break;
                }
                current.clear();
            }
        }
        if send_error.is_none() && !current.is_empty() {
            if let Err(e) = self.pipeline_send(
                &current,
                &mut oldest_pending,
                &mut in_flight,
                &mut summary,
                &mut out,
            ) {
                send_error = Some(e);
            }
        }
        // Drain everything still owed — also after a send error, so a
        // purely local failure (e.g. an unencodable read) leaves the
        // connection in sync and usable for the next request. If the
        // connection itself is dead, the drain fails fast and the original
        // error wins.
        while in_flight > 0 {
            match self.recv_results(oldest_pending) {
                Ok(results) => {
                    out.extend(results);
                    oldest_pending += 1;
                    in_flight -= 1;
                }
                Err(e) => return Err(send_error.unwrap_or(e)),
            }
        }
        if let Some(e) = send_error {
            return Err(e);
        }
        summary.reads = out.len() as u64;
        Ok((out, summary))
    }

    fn pipeline_send(
        &mut self,
        reads: &[SequenceRecord],
        oldest_pending: &mut u64,
        in_flight: &mut u64,
        summary: &mut NetSummary,
        out: &mut Vec<Classification>,
    ) -> Result<(), NetError> {
        while *in_flight >= u64::from(self.credits) {
            out.extend(self.recv_results(*oldest_pending)?);
            *oldest_pending += 1;
            *in_flight -= 1;
        }
        self.send_request(frame_type::CLASSIFY_PACKED, reads)?;
        *in_flight += 1;
        summary.requests += 1;
        summary.peak_in_flight = summary.peak_in_flight.max(*in_flight);
        Ok(())
    }

    /// Send a `Goodbye` and half-close the write side; the server finishes
    /// any in-flight work and closes. Called implicitly on drop.
    pub fn close(mut self) -> Result<(), NetError> {
        self.close_inner()?;
        self.dead = true; // drop must not send a second goodbye
        Ok(())
    }

    fn close_inner(&mut self) -> Result<(), NetError> {
        write_frame(&mut self.writer, &Frame::Goodbye)?;
        self.writer.flush()?;
        self.writer.get_ref().shutdown(Shutdown::Write)?;
        Ok(())
    }

    /// Whether the connection has been marked unusable (crate-internal:
    /// `RetryClient` decides between resend and reconnect with this).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Send one read-carrying request (`tag` is `CLASSIFY_PACKED` or
    /// `CANDIDATES`), returning its id.
    pub(crate) fn send_request(
        &mut self,
        tag: u8,
        reads: &[SequenceRecord],
    ) -> Result<u64, NetError> {
        self.check_alive()?;
        // Encode straight from the borrowed slice — no clone of the reads;
        // sequences pack 2-bit directly into the frame buffer. An encode
        // failure is purely local (nothing reached the socket): report it
        // without burning the request id or killing the connection, which
        // stays usable for well-formed requests.
        let bytes = encode_request(tag, self.next_request, reads)?;
        if let Err(e) = self
            .writer
            .write_all(&bytes)
            .and_then(|()| self.writer.flush())
        {
            self.dead = true;
            return Err(e.into());
        }
        let request_id = self.next_request;
        self.next_request += 1;
        Ok(request_id)
    }

    pub(crate) fn recv_results(&mut self, expect_id: u64) -> Result<Vec<Classification>, NetError> {
        let (entries, _) = self.recv_tagged(expect_id, |frame| match frame {
            Frame::Results {
                request_id,
                entries,
                generation,
            } => Ok((request_id, entries, generation)),
            other => Err(other),
        })?;
        Ok(entries.iter().map(|e| e.to_classification()).collect())
    }

    /// Receive the in-order answer to request `expect_id`: `open` takes the
    /// expected frame kind apart into `(request id, body, generation)` or
    /// hands any other frame back. A response out of order, of the wrong
    /// kind or without its generation tag kills the connection.
    fn recv_tagged<T>(
        &mut self,
        expect_id: u64,
        open: impl FnOnce(Frame) -> Result<(u64, T, Option<u64>), Frame>,
    ) -> Result<(T, u64), NetError> {
        self.check_alive()?;
        match open(self.read_reply()?) {
            Ok((request_id, _, _)) if request_id != expect_id => {
                Err(self.violation("response out of order"))
            }
            Ok((_, body, Some(generation))) => {
                self.last_generation = Some(generation);
                Ok((body, generation))
            }
            Ok((_, _, None)) => Err(self.violation("response without a generation tag")),
            Err(other) => Err(self.violation(unexpected(&other))),
        }
    }

    /// Write and flush one control frame; a failure kills the connection.
    fn send_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.check_alive()?;
        write_frame(&mut self.writer, frame)
            .and_then(|()| self.writer.flush().map_err(NetError::from))
            .inspect_err(|_| self.dead = true)
    }

    /// The peer broke the protocol: the connection is out of sync for good.
    fn violation(&mut self, what: &'static str) -> NetError {
        self.dead = true;
        ProtocolError::Malformed(what).into()
    }

    /// Read one frame, mapping `Error` frames and dead connections to
    /// client-side errors.
    fn read_reply(&mut self) -> Result<Frame, NetError> {
        match read_frame(&mut self.reader) {
            Ok(Some(Frame::Error { code, message })) => {
                self.dead = true;
                Err(NetError::Remote { code, message })
            }
            Ok(Some(Frame::Busy {
                request_id,
                retry_after_ms,
            })) => {
                // A request-level Busy is that request's (in-order) answer:
                // the connection stays usable. A connection-level Busy means
                // the server refused to serve this connection at all.
                if request_id == BUSY_CONNECTION {
                    self.dead = true;
                }
                Err(NetError::Busy { retry_after_ms })
            }
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => {
                self.dead = true;
                Err(NetError::Disconnected)
            }
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    fn check_alive(&self) -> Result<(), NetError> {
        if self.dead {
            return Err(NetError::Disconnected);
        }
        Ok(())
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        if !self.dead {
            let _ = self.close_inner();
        }
    }
}

/// Connect with an optional per-address deadline. `connect_timeout`
/// requires resolved addresses, so resolution happens here either way.
fn connect_stream(
    addr: impl ToSocketAddrs,
    timeout: Option<Duration>,
) -> Result<TcpStream, NetError> {
    let Some(timeout) = timeout else {
        return Ok(TcpStream::connect(addr)?);
    };
    let mut last: Option<std::io::Error> = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
        })
        .into())
}

/// Resolve `addr` once, for reuse across reconnects (`RetryPolicy` needs a
/// stable target that does not re-hit DNS on every attempt).
pub(crate) fn resolve_addrs(addr: impl ToSocketAddrs) -> Result<Vec<SocketAddr>, NetError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved").into(),
        );
    }
    Ok(addrs)
}

fn unexpected(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "unexpected Hello",
        Frame::HelloAck { .. } => "unexpected HelloAck",
        Frame::ClassifyPacked { .. } => "unexpected ClassifyPacked",
        Frame::Results { .. } => "unexpected Results",
        Frame::Error { .. } => "unexpected Error",
        Frame::Goodbye => "unexpected Goodbye",
        Frame::Ping { .. } => "unexpected Ping",
        Frame::Pong { .. } => "unexpected Pong",
        Frame::Busy { .. } => "unexpected Busy",
        Frame::Candidates { .. } => "unexpected Candidates",
        Frame::CandidateResults { .. } => "unexpected CandidateResults",
        Frame::Reload => "unexpected Reload",
        Frame::ReloadAck { .. } => "unexpected ReloadAck",
    }
}
