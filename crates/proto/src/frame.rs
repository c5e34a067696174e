//! Frame layer: length-delimited, checksummed envelopes around message
//! payloads, written to / read from any `io::Write` / `io::Read`.
//!
//! Wire layout (all big-endian):
//!
//! ```text
//! +---------+---------+-----------+----------------+-----------+
//! | magic   | version | length    | payload        | crc32     |
//! | 4 bytes | 4 bytes | 4 bytes   | length bytes   | 4 bytes   |
//! +---------+---------+-----------+----------------+-----------+
//! ```
//!
//! The CRC covers the payload only; magic and version mismatches are
//! reported as protocol errors before any allocation happens, and the
//! length field is capped so a corrupt peer cannot force a huge buffer.
//! The same cap is enforced on the *send* side — an oversize message is
//! rejected before any bytes hit the wire, never silently truncated
//! through the `u32` length field.
//!
//! Three writer paths exist, and every one takes its buffer from the
//! caller (there is no buffer-less writer):
//!
//! * [`encode_frame_into`] / [`write_message_into`] — the hot path: the
//!   message is marshaled **directly into the frame buffer** (header
//!   reserved up front, length backfilled) with the CRC folded in
//!   incrementally while encoding, so a frame costs exactly one pass over
//!   the payload and zero intermediate copies, and a per-connection
//!   scratch buffer amortizes the allocation away entirely;
//! * [`write_message_streamed`] — the bounded-memory route for huge
//!   operands: a counting pass computes the exact payload length (O(1)
//!   per bulk array), the header goes out first, then the payload is
//!   marshaled through a chunk buffer straight onto the wire with the
//!   CRC folded in per chunk — the frame never exists in memory;
//! * [`frame_bytes`] — the legacy three-pass route (encode to a payload
//!   vector, copy into a frame vector, scan again for the CRC), kept as
//!   the baseline the `r1_wire_path` benchmark measures the hot path
//!   against and for callers that want a self-contained buffer.
//!
//! Reading mirrors this: [`parse_frame`] decodes **borrowed** straight
//! from an in-memory frame (no payload allocation or copy at all), and
//! [`FrameReader`] gives each connection a bounded-memory reader that
//! keeps small frames on a reused whole-frame buffer but switches large
//! ones onto a chunked [`netsolve_xdr::StreamDecoder`] — decode begins
//! before the operand has fully arrived and per-connection buffering
//! stays far below the payload size. On either route the CRC still
//! covers every payload byte; a mismatch is reported as
//! [`NetSolveError::Corrupt`] even when a decode error surfaced first,
//! so flipped bits on the chunked route are never misclassified.
//!
//! Reading is version-tolerant: any frame whose version is in
//! `1..=VERSION` is accepted and its payload decoded under the sender's
//! version (older versions are additive subsets), so old peers keep
//! interoperating; downgraded decodes are counted and surfaced as the
//! `proto.version_downgrade` counter in daemon stats.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use netsolve_core::error::{NetSolveError, Result};
use netsolve_xdr::{crc32, Encoder, StreamDecoder, XdrSource, STREAM_INIT_ALLOC};

use crate::message::Message;

/// Frame magic: `"NSRV"`.
pub const MAGIC: u32 = 0x4E53_5256;
/// Protocol version spoken by this implementation.
///
/// History: v1 — initial protocol; v2 — `RequestSubmit` carries a
/// `deadline_ms` budget so servers can shed expired work, and the
/// `StatsQuery`/`StatsReply` pair exists; v3 — `RequestSubmit` and
/// `ServerQuery` carry a 128-bit `trace_id` plus parent span id for
/// distributed tracing, and the `TraceQuery`/`TraceReply` pair exists;
/// v4 — the `GossipSync`/`GossipAck` pair exists for agent federation
/// (anti-entropy replication of server registrations between peer
/// agents). v3 agents reject the unknown tag with their generic `Error`
/// reply, which gossiping peers count as *unsupported* and tolerate;
/// v5 — `RequestReply` carries a `cached` marker (the server satisfied
/// the request from its solve cache), and `CompletionReport` /
/// `FailureReport` carry the server's `server_address` so agents can
/// credit reports by address instead of per-agent id numbering after a
/// client fails over between agents. v4 decodes see the defaults
/// (`cached = false`, empty address → fall back to the raw id);
/// v6 — fleet telemetry: `StatsReply` histograms carry per-bucket trace
/// exemplars, the `FleetStatsQuery`/`FleetStatsReply` pair exists
/// (windowed per-daemon `StatsDigest` summaries), and `GossipSync`
/// piggybacks a digest leg so agents replicate the fleet's recent
/// stats history alongside registry entries. v5 decodes see the
/// defaults (no exemplars, empty digest legs); v5 peers answer the new
/// tags with their generic `Error` reply, counted *unsupported*.
pub const VERSION: u32 = 6;
/// Oldest protocol version this implementation still decodes.
pub const MIN_VERSION: u32 = 1;
/// Maximum payload size accepted (512 MiB), matching the largest
/// experiment matrices with headroom. Enforced on both send and receive.
pub const MAX_FRAME_PAYLOAD: usize = 512 * 1024 * 1024;
/// Bytes of frame header before the payload (magic, version, length).
pub const HEADER_LEN: usize = 12;
/// Default chunk size for the streaming read/write routes (64 KiB): the
/// per-connection memory bound while a large frame is in flight.
pub const DEFAULT_STREAM_CHUNK: usize = 64 * 1024;
/// Frames with payloads at or below this stay on the whole-frame borrowed
/// decode route (fastest); larger ones stream through bounded chunks.
pub const DEFAULT_STREAM_THRESHOLD: usize = 1024 * 1024;

/// Process-wide count of frames accepted at a version below [`VERSION`].
static VERSION_DOWNGRADES: AtomicU64 = AtomicU64::new(0);

/// How many frames this process has accepted from older-version peers
/// (decoded under the sender's version). Daemons mirror this into their
/// metrics registry as `proto.version_downgrade` when answering
/// `StatsQuery`.
pub fn version_downgrades() -> u64 {
    VERSION_DOWNGRADES.load(Ordering::Relaxed)
}

/// Catch `metrics`' `proto.version_downgrade` counter up with
/// [`version_downgrades`]. Monotone: the counter may lag between calls,
/// never run backwards. Daemons call this before answering a stats or
/// trace pull, so a pull from an old peer already shows in the counter.
pub fn mirror_version_downgrades(metrics: &netsolve_obs::MetricsRegistry) {
    let c = metrics.counter("proto.version_downgrade");
    let (global, seen) = (version_downgrades(), c.get());
    if global > seen {
        c.add(global - seen);
    }
}

fn oversize(len: usize) -> NetSolveError {
    NetSolveError::Protocol(format!(
        "frame payload {len} exceeds cap {MAX_FRAME_PAYLOAD}"
    ))
}

/// Serialize a message into one self-contained frame buffer (legacy
/// multi-pass route; see the module docs). Fails — before any bytes could
/// reach a wire — if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn frame_bytes(msg: &Message) -> Result<Vec<u8>> {
    frame_bytes_versioned(msg, VERSION)
}

/// [`frame_bytes`] at an explicit protocol version — compatibility tests
/// use this to speak as an older peer.
pub fn frame_bytes_versioned(msg: &Message, version: u32) -> Result<Vec<u8>> {
    let payload = msg.encode_versioned(version);
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(oversize(payload.len()));
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    Ok(out)
}

/// Single-pass frame writer: clears `buf` and builds the complete frame
/// in it — header reserved up front, payload marshaled directly into
/// place with the CRC folded in as bytes are produced, then the length
/// field backfilled and the CRC appended. No intermediate payload buffer,
/// no second scan. Reusing `buf` across calls (the per-connection scratch
/// pattern) also amortizes the allocation to zero.
///
/// Fails without side effects beyond `buf`'s contents if the payload
/// exceeds [`MAX_FRAME_PAYLOAD`]; `buf` is left cleared in that case.
pub fn encode_frame_into(msg: &Message, buf: &mut Vec<u8>) -> Result<()> {
    buf.clear();
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.extend_from_slice(&VERSION.to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]); // length, backfilled below
    let crc = {
        let mut e = Encoder::borrowing(buf).with_crc();
        msg.encode_into(&mut e);
        e.crc().expect("crc tracking enabled")
    };
    let payload_len = buf.len() - HEADER_LEN;
    if payload_len > MAX_FRAME_PAYLOAD {
        buf.clear();
        return Err(oversize(payload_len));
    }
    buf[8..12].copy_from_slice(&(payload_len as u32).to_be_bytes());
    buf.extend_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// Write one framed message through a caller-owned scratch buffer
/// (single-pass; see [`encode_frame_into`]). Connections keep one scratch
/// per stream so steady-state sends allocate nothing.
pub fn write_message_into(
    w: &mut impl Write,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> Result<()> {
    encode_frame_into(msg, scratch)?;
    w.write_all(scratch)?;
    w.flush()?;
    Ok(())
}

/// Write one framed message through a bounded chunk buffer — the frame
/// never exists contiguously in memory, so a 64 MiB operand costs `chunk`
/// bytes of sender memory instead of 64 MiB. A counting pass (O(1) per
/// bulk array) computes the length field the header must carry before
/// the payload; the CRC is folded in chunk by chunk as bytes leave.
/// Returns the total bytes written (header + payload + CRC).
pub fn write_message_streamed(
    w: &mut impl Write,
    msg: &Message,
    chunk: usize,
) -> Result<u64> {
    let payload_len = msg.encoded_len(VERSION);
    if payload_len as usize > MAX_FRAME_PAYLOAD {
        return Err(oversize(payload_len as usize));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_be_bytes());
    header[4..8].copy_from_slice(&VERSION.to_be_bytes());
    header[8..12].copy_from_slice(&(payload_len as u32).to_be_bytes());
    w.write_all(&header)?;
    let (crc, written) = {
        let mut e = Encoder::streaming(w, chunk).with_crc();
        msg.encode_into(&mut e);
        let crc = e.crc().expect("crc tracking enabled");
        (crc, e.finish_stream()?)
    };
    if written != payload_len {
        // Would desync the stream against the announced length; the
        // counting and streaming sinks share encode_body, so this can
        // only mean memory corruption — fail loudly.
        return Err(NetSolveError::Internal(format!(
            "streamed payload wrote {written} bytes, counted {payload_len}"
        )));
    }
    w.write_all(&crc.to_be_bytes())?;
    w.flush()?;
    Ok(HEADER_LEN as u64 + written + 4)
}

/// Validate a frame header: magic, version window (counting downgrades),
/// and the payload-length cap. Returns the sender's version and payload
/// length. Shared by every read route so the three cannot drift.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(u32, usize)> {
    let magic = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(NetSolveError::Protocol(format!(
            "bad frame magic {magic:#010x}"
        )));
    }
    let version = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(NetSolveError::Protocol(format!(
            "unsupported protocol version {version} (supported {MIN_VERSION}..={VERSION})"
        )));
    }
    if version < VERSION {
        VERSION_DOWNGRADES.fetch_add(1, Ordering::Relaxed);
    }
    let len = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(oversize(len));
    }
    Ok((version, len))
}

fn read_header(r: &mut impl Read) -> Result<(u32, usize)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetSolveError::Transport("peer closed connection".into())
        } else {
            NetSolveError::from(e)
        }
    })?;
    validate_header(&header)
}

/// Read one framed message, validating magic, version, length cap and CRC.
///
/// Versions `MIN_VERSION..=VERSION` are accepted; the payload is decoded
/// under the sender's version so additive fields degrade gracefully
/// instead of hard-rejecting older peers.
pub fn read_message(r: &mut impl Read) -> Result<Message> {
    let (version, len) = read_header(r)?;
    // The header's length field is untrusted: allocate at most
    // STREAM_INIT_ALLOC up front and let the buffer grow only as payload
    // bytes actually arrive, so a forged 12-byte header cannot commit
    // hundreds of megabytes per connection.
    let mut payload = Vec::with_capacity(len.min(STREAM_INIT_ALLOC));
    let got_len = r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if got_len < len {
        return Err(NetSolveError::Transport(
            "peer closed connection mid-frame".into(),
        ));
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expect = u32::from_be_bytes(crc_bytes);
    let got = crc32(&payload);
    if got != expect {
        // Corrupt, not Protocol: a damaged frame is a transient link
        // fault and the request is safe to retry elsewhere.
        return Err(NetSolveError::Corrupt(format!(
            "frame checksum mismatch: computed {got:#010x}, expected {expect:#010x}"
        )));
    }
    Message::decode_versioned(&payload, version)
}

/// Parse one frame **borrowed** from an in-memory buffer, returning the
/// message and how many bytes were consumed. The payload is never copied
/// into an intermediate buffer: the header is validated in place, the
/// CRC scans the slice, and the message decodes straight from it — this
/// is the receive-side mirror of the single-pass writer, and the route
/// the in-process transport (which hands over whole frames) rides.
pub fn parse_frame(buf: &[u8]) -> Result<(Message, usize)> {
    if buf.len() < HEADER_LEN {
        return Err(NetSolveError::Transport("peer closed connection".into()));
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("12 bytes");
    let (version, len) = validate_header(header)?;
    let total = HEADER_LEN + len + 4;
    if buf.len() < total {
        return Err(NetSolveError::Transport(
            "peer closed connection mid-frame".into(),
        ));
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let expect = u32::from_be_bytes(
        buf[HEADER_LEN + len..total].try_into().expect("4 bytes"),
    );
    let got = crc32(payload);
    if got != expect {
        return Err(NetSolveError::Corrupt(format!(
            "frame checksum mismatch: computed {got:#010x}, expected {expect:#010x}"
        )));
    }
    let msg = Message::decode_versioned(payload, version)?;
    Ok((msg, total))
}

/// Per-connection frame reader with bounded memory. Small frames (payload
/// ≤ `stream_threshold`) land in a reused whole-frame buffer and decode
/// borrowed — the steady-state hot path, allocation-free once warm. Large
/// frames switch to the chunked streaming route: the payload flows
/// through a `chunk`-byte [`StreamDecoder`] window, decode begins before
/// the operand has fully arrived, and per-connection buffering stays at
/// the chunk size (plus the decoded message itself) instead of the
/// payload size.
///
/// On the streaming route a decode error drains the rest of the frame so
/// the connection stays framed, and the CRC verdict is still rendered
/// over every payload byte: checksum mismatch reports
/// [`NetSolveError::Corrupt`] *in preference to* whatever decode error
/// the garbled bytes produced, exactly like the whole-frame routes.
#[derive(Debug)]
pub struct FrameReader {
    /// Reused whole-frame buffer for the small-frame borrowed route.
    buf: Vec<u8>,
    /// Payloads larger than this stream through chunks.
    stream_threshold: usize,
    /// Chunk-buffer size for the streaming route.
    chunk: usize,
    /// Frames this reader decoded via the streaming route.
    streamed: u64,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new(DEFAULT_STREAM_THRESHOLD, DEFAULT_STREAM_CHUNK)
    }
}

impl FrameReader {
    /// Reader that streams payloads above `stream_threshold` through a
    /// `chunk`-byte window. `stream_threshold = 0` streams everything;
    /// `stream_threshold = MAX_FRAME_PAYLOAD` always buffers whole frames.
    pub fn new(stream_threshold: usize, chunk: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            stream_threshold,
            chunk: chunk.max(64),
            streamed: 0,
        }
    }

    /// Read one framed message from `r`.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Message> {
        let (version, len) = read_header(r)?;
        if len <= self.stream_threshold {
            self.read_buffered(r, version, len)
        } else {
            self.streamed += 1;
            read_streamed(r, version, len, self.chunk)
        }
    }

    /// Small-frame route: payload into the reused buffer (grown only as
    /// bytes arrive — the untrusted length commits no memory), then CRC
    /// and a borrowed decode straight from the buffer.
    fn read_buffered(&mut self, r: &mut impl Read, version: u32, len: usize) -> Result<Message> {
        self.buf.clear();
        if self.buf.capacity() < len.min(STREAM_INIT_ALLOC) {
            self.buf.reserve(len.min(STREAM_INIT_ALLOC));
        }
        let got_len = r.by_ref().take(len as u64).read_to_end(&mut self.buf)?;
        if got_len < len {
            return Err(NetSolveError::Transport(
                "peer closed connection mid-frame".into(),
            ));
        }
        let mut crc_bytes = [0u8; 4];
        r.read_exact(&mut crc_bytes)?;
        let expect = u32::from_be_bytes(crc_bytes);
        let got = crc32(&self.buf);
        if got != expect {
            return Err(NetSolveError::Corrupt(format!(
                "frame checksum mismatch: computed {got:#010x}, expected {expect:#010x}"
            )));
        }
        Message::decode_versioned(&self.buf, version)
    }

    /// Frames this reader has decoded via the chunked streaming route.
    pub fn streamed_frames(&self) -> u64 {
        self.streamed
    }

    /// Upper bound on this reader's own buffering: the retained small-
    /// frame buffer or the streaming chunk window, whichever is larger.
    pub fn buffered_capacity(&self) -> usize {
        self.buf.capacity().max(self.chunk)
    }
}

/// Streaming route body: decode directly off the wire through a bounded
/// chunk window, then render the CRC verdict over the whole payload.
fn read_streamed(r: &mut impl Read, version: u32, len: usize, chunk: usize) -> Result<Message> {
    let (outcome, got, drained) = {
        let mut sd = StreamDecoder::new(r, len, chunk);
        let outcome = Message::decode_body(&mut sd, version).and_then(|msg| {
            if sd.remaining() == 0 {
                Ok(msg)
            } else {
                Err(NetSolveError::Protocol(format!(
                    "{} trailing bytes after decode",
                    sd.remaining()
                )))
            }
        });
        // Whatever decode did, pull the rest of the payload so the
        // stream stays framed and the CRC covers every byte.
        let drained = sd.drain();
        (outcome, sd.crc(), drained)
    };
    drained?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expect = u32::from_be_bytes(crc_bytes);
    if got != expect {
        // The CRC verdict outranks any decode error: garbled bytes that
        // happened to also break decoding are corruption, not a protocol
        // violation — same classification as the whole-frame routes.
        return Err(NetSolveError::Corrupt(format!(
            "frame checksum mismatch: computed {got:#010x}, expected {expect:#010x}"
        )));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand: frame a message that is known to fit the cap.
    fn frame_ok(msg: &Message) -> Vec<u8> {
        frame_bytes(msg).unwrap()
    }

    #[test]
    fn roundtrip_through_buffer() {
        let msgs = vec![
            Message::Ping,
            Message::WorkloadReport { server_id: 3, workload: 55.0 },
            Message::Error { code: 7, detail: "x".into() },
        ];
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for m in &msgs {
            write_message_into(&mut buf, m, &mut scratch).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let got = read_message(&mut cursor).unwrap();
            assert_eq!(&got, m);
        }
        // Stream exhausted → transport error, not a hang or panic.
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = frame_ok(&Message::Ping);
        bytes[0] = b'X';
        assert!(matches!(
            parse_frame(&bytes),
            Err(NetSolveError::Protocol(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = frame_ok(&Message::Ping);
        bytes[7] = 99;
        assert!(matches!(
            parse_frame(&bytes),
            Err(NetSolveError::Protocol(m)) if m.contains("version")
        ));
    }

    #[test]
    fn corrupt_payload_caught_by_crc() {
        let msg = Message::ProblemCatalogue { names: vec!["dgesv".into()] };
        let mut bytes = frame_ok(&msg);
        let payload_start = 12;
        bytes[payload_start + 5] ^= 0x40;
        assert!(matches!(
            parse_frame(&bytes),
            Err(NetSolveError::Corrupt(m)) if m.contains("checksum")
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = frame_ok(&Message::Ping);
        bytes[8..12].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            parse_frame(&bytes),
            Err(NetSolveError::Protocol(m)) if m.contains("cap")
        ));
    }

    #[test]
    fn truncated_frame_is_transport_error() {
        let bytes = frame_ok(&Message::ProblemCatalogue {
            names: vec!["a".into(), "b".into()],
        });
        for cut in [1, 6, 13, bytes.len() - 1] {
            assert!(parse_frame(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Seeded-random fuzz of the frame reader: whatever bytes arrive, the
    /// reader must return a clean error or the original message — never
    /// panic, hang, or hand back a silently different message.
    mod fuzz {
        use super::*;
        use netsolve_core::rng::Rng64;

        fn subjects() -> Vec<Message> {
            vec![
                Message::Ping,
                Message::WorkloadReport { server_id: 9, workload: 12.5 },
                Message::RequestSubmit {
                    request_id: 77,
                    deadline_ms: 1_500,
                    trace_id: 0x1111_2222_3333_4444_5555_6666_7777_8888,
                    parent_span: 12,
                    problem: "dgesv".into(),
                    inputs: vec![vec![1.0f64, -2.0, 3.5].into()],
                },
                Message::ProblemCatalogue {
                    names: vec!["dgesv".into(), "dgemm".into(), "integrate".into()],
                },
                Message::Error { code: 4, detail: "execution failed".into() },
            ]
        }

        #[test]
        fn truncations_always_error_cleanly() {
            let mut rng = Rng64::new(0xF0A2);
            for msg in subjects() {
                let bytes = frame_ok(&msg);
                for _ in 0..200 {
                    let cut = rng.below(bytes.len()); // strictly short
                    assert!(
                        parse_frame(&bytes[..cut]).is_err(),
                        "truncated frame (cut={cut}) parsed as valid"
                    );
                }
            }
        }

        #[test]
        fn byte_flips_anywhere_never_yield_a_different_message() {
            let mut rng = Rng64::new(0xBEEF);
            for msg in subjects() {
                let clean = frame_ok(&msg);
                for _ in 0..300 {
                    let mut bytes = clean.clone();
                    let idx = rng.below(bytes.len());
                    let flip = 1u8 << rng.below(8);
                    bytes[idx] ^= flip;
                    match parse_frame(&bytes) {
                        // A flip may only be invisible if the decoded
                        // message is unchanged. Payload flips can't get
                        // here (CRC, short of a collision); a version-byte
                        // flip can land inside the tolerance window
                        // (3 → 2 or 1) where the header is legitimately
                        // accepted, but then the payload must still decode
                        // to the identical message or fail.
                        Ok((got, _)) if got == msg => {}
                        Ok((got, _)) => panic!(
                            "flipped bit {flip:#04x} at byte {idx} escaped \
                             validation, decoded {got:?}"
                        ),
                        Err(
                            NetSolveError::Protocol(_)
                            | NetSolveError::Corrupt(_)
                            | NetSolveError::Transport(_),
                        ) => {}
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                }
            }
        }

        #[test]
        fn oversized_lengths_rejected_without_allocation() {
            let mut rng = Rng64::new(0x51CE);
            let clean = frame_ok(&Message::Ping);
            for _ in 0..200 {
                let mut bytes = clean.clone();
                let len = MAX_FRAME_PAYLOAD as u64
                    + 1
                    + rng.below((u32::MAX as usize) - MAX_FRAME_PAYLOAD) as u64;
                bytes[8..12].copy_from_slice(&(len as u32).to_be_bytes());
                assert!(matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("cap")
                ));
            }
        }

        #[test]
        fn random_garbage_never_panics() {
            let mut rng = Rng64::new(0x6A12_0B4D);
            for _ in 0..500 {
                let len = rng.below(256);
                let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                // Valid garbage would need magic, version and a CRC match.
                assert!(parse_frame(&garbage).is_err());
            }
        }

        #[test]
        fn garbage_magic_with_valid_tail_rejected() {
            let mut rng = Rng64::new(0xA117);
            let clean = frame_ok(&Message::Pong);
            for _ in 0..200 {
                let mut bytes = clean.clone();
                let magic = rng.next_u64() as u32;
                if magic == MAGIC {
                    continue;
                }
                bytes[0..4].copy_from_slice(&magic.to_be_bytes());
                assert!(matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("magic")
                ));
            }
        }
    }

    #[test]
    fn parse_frame_reports_consumed_bytes() {
        let m1 = frame_ok(&Message::Ping);
        let m2 = frame_ok(&Message::Pong);
        let mut joined = m1.clone();
        joined.extend_from_slice(&m2);
        let (msg, used) = parse_frame(&joined).unwrap();
        assert_eq!(msg, Message::Ping);
        assert_eq!(used, m1.len());
        let (msg2, used2) = parse_frame(&joined[used..]).unwrap();
        assert_eq!(msg2, Message::Pong);
        assert_eq!(used2, m2.len());
    }

    /// The single-pass writer must be byte-for-byte identical to the
    /// legacy multi-pass route for every message shape — same header,
    /// same payload, same CRC. This is the invariant that lets the two
    /// paths coexist (and be benchmarked against each other).
    #[test]
    fn single_pass_writer_matches_legacy_frame_bytes() {
        let subjects = vec![
            Message::Ping,
            Message::Pong,
            Message::ListProblems,
            Message::WorkloadReport { server_id: 9, workload: 12.5 },
            Message::RequestSubmit {
                request_id: 77,
                deadline_ms: 1_500,
                trace_id: 0x9999_0000_0000_0001,
                parent_span: 6,
                problem: "dgesv".into(),
                inputs: vec![
                    vec![1.0f64, -2.0, 3.5].into(),
                    netsolve_core::DataObject::Text("rhs".into()),
                ],
            },
            Message::ProblemCatalogue {
                names: vec!["dgesv".into(), "dgemm".into(), "integrate".into()],
            },
            Message::Error { code: 4, detail: "execution failed".into() },
        ];
        let mut scratch = Vec::new();
        for msg in &subjects {
            let legacy = frame_ok(msg);
            encode_frame_into(msg, &mut scratch).unwrap();
            assert_eq!(scratch, legacy, "frame mismatch for {msg:?}");

            let mut wire = Vec::new();
            write_message_into(&mut wire, msg, &mut scratch).unwrap();
            assert_eq!(wire, legacy, "writer output mismatch for {msg:?}");
        }
    }

    /// A reused scratch buffer keeps its allocation across sends instead
    /// of reallocating per frame.
    #[test]
    fn scratch_buffer_is_reused_across_sends() {
        let big = Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgemm".into(),
            inputs: vec![vec![0.5f64; 4096].into()],
        };
        let mut scratch = Vec::new();
        encode_frame_into(&big, &mut scratch).unwrap();
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        for _ in 0..5 {
            encode_frame_into(&big, &mut scratch).unwrap();
            assert_eq!(scratch.capacity(), cap);
            assert_eq!(scratch.as_ptr(), ptr);
        }
        // A smaller message also fits without shrinking the buffer.
        encode_frame_into(&Message::Ping, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap);
    }

    /// Regression: the payload cap is enforced on the send side, before
    /// any bytes could hit a wire. Previously `payload.len() as u32`
    /// silently truncated the length field for huge payloads.
    #[test]
    fn oversize_payload_rejected_on_send() {
        // A PDL string one byte past the cap: string framing adds a
        // 4-byte length + padding on top, guaranteeing payload > cap.
        let msg = Message::ProblemDescription {
            pdl: "y".repeat(MAX_FRAME_PAYLOAD + 1),
        };
        assert!(matches!(
            frame_bytes(&msg),
            Err(NetSolveError::Protocol(m)) if m.contains("cap")
        ));
        let mut scratch = Vec::new();
        assert!(matches!(
            encode_frame_into(&msg, &mut scratch),
            Err(NetSolveError::Protocol(m)) if m.contains("cap")
        ));
        // The failed frame must not leave a half-built header behind.
        assert!(scratch.is_empty());
        let mut wire = Vec::new();
        assert!(write_message_into(&mut wire, &msg, &mut scratch).is_err());
        assert!(wire.is_empty(), "no bytes may reach the wire");
    }

    /// Regression (lying header): a forged 12-byte header announcing a
    /// near-cap payload must not commit the announced allocation before
    /// payload bytes actually arrive. Previously `read_message` did
    /// `vec![0u8; len]` straight from the untrusted length — 512 MiB of
    /// zeroed memory per connection for 12 bytes of attacker traffic.
    #[test]
    fn lying_length_header_cannot_commit_memory_upfront() {
        // Header claims 256 MiB; only 40 bytes of payload follow.
        let claimed: usize = 256 * 1024 * 1024;
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_be_bytes());
        wire.extend_from_slice(&VERSION.to_be_bytes());
        wire.extend_from_slice(&(claimed as u32).to_be_bytes());
        wire.extend_from_slice(&[0xAB; 40]);

        struct CountingReader<'a> {
            inner: std::io::Cursor<&'a [u8]>,
        }
        impl Read for CountingReader<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.inner.read(buf)
            }
        }

        let mut r = CountingReader { inner: std::io::Cursor::new(&wire) };
        let err = read_message(&mut r).unwrap_err();
        assert!(
            matches!(err, NetSolveError::Transport(_)),
            "truncated lying frame must be a transport error, got {err:?}"
        );

        // The same header through the per-connection reader: its retained
        // buffer must stay near the bytes that actually arrived, nowhere
        // near the claimed 256 MiB.
        let mut fr = FrameReader::default();
        let mut cur = std::io::Cursor::new(&wire[..]);
        assert!(fr.read_from(&mut cur).is_err());
        assert!(
            fr.buffered_capacity() <= 2 * STREAM_INIT_ALLOC,
            "lying header grew the reader buffer to {} bytes",
            fr.buffered_capacity()
        );
    }

    /// The streamed writer must produce byte-identical frames to the
    /// single-pass writer for every message shape: same header (exact
    /// counted length), same payload, same CRC.
    #[test]
    fn streamed_writer_matches_single_pass_bytes() {
        let subjects = vec![
            Message::Ping,
            Message::WorkloadReport { server_id: 9, workload: 12.5 },
            Message::RequestSubmit {
                request_id: 77,
                deadline_ms: 1_500,
                trace_id: 0x9999_0000_0000_0001,
                parent_span: 6,
                problem: "dgesv".into(),
                inputs: vec![
                    vec![0.25f64; 10_000].into(),
                    netsolve_core::DataObject::Text("rhs".into()),
                ],
            },
            Message::Error { code: 4, detail: "execution failed".into() },
        ];
        for msg in &subjects {
            let reference = frame_ok(msg);
            let mut wire = Vec::new();
            // A small chunk forces many flushes mid-payload.
            let n = write_message_streamed(&mut wire, msg, 128).unwrap();
            assert_eq!(n as usize, wire.len());
            assert_eq!(wire, reference, "streamed frame mismatch for {}", msg.name());
        }
    }

    /// A multi-megabyte operand round-trips through the chunked streaming
    /// read route with bounded buffering, and the reader's route counter
    /// proves the streaming path (not the whole-frame path) handled it.
    #[test]
    fn large_frame_streams_with_bounded_buffering() {
        let elems = 4 * 1024 * 1024 / 8; // 4 MiB operand
        let msg = Message::RequestSubmit {
            request_id: 5,
            deadline_ms: 0,
            trace_id: 1,
            parent_span: 0,
            problem: "dgesv".into(),
            inputs: vec![(0..elems).map(|i| i as f64 * 0.5).collect::<Vec<f64>>().into()],
        };
        let mut wire = Vec::new();
        write_message_streamed(&mut wire, &msg, DEFAULT_STREAM_CHUNK).unwrap();

        let mut fr = FrameReader::default();
        let mut cur = std::io::Cursor::new(&wire[..]);
        let got = fr.read_from(&mut cur).unwrap();
        assert_eq!(got, msg);
        assert_eq!(fr.streamed_frames(), 1, "large frame must take the streaming route");
        let payload = wire.len() - HEADER_LEN - 4;
        assert!(
            fr.buffered_capacity() < payload,
            "reader buffered {} bytes for a {} byte payload",
            fr.buffered_capacity(),
            payload
        );

        // A small frame on the same reader takes the buffered route.
        let ping = frame_ok(&Message::Ping);
        let mut cur = std::io::Cursor::new(&ping[..]);
        assert_eq!(fr.read_from(&mut cur).unwrap(), Message::Ping);
        assert_eq!(fr.streamed_frames(), 1);
    }

    /// Corruption anywhere in a streamed frame's payload must surface as
    /// `Corrupt` — even when the garbled bytes also break field decoding,
    /// the CRC verdict outranks the decode error (the chaos-transport
    /// guarantee, preserved on the chunked route).
    #[test]
    fn streamed_route_reports_corruption_over_decode_errors() {
        use netsolve_core::rng::Rng64;
        let msg = Message::RequestSubmit {
            request_id: 8,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgemm".into(),
            inputs: vec![vec![1.5f64; 64 * 1024].into()], // 512 KiB operand
        };
        let mut clean = Vec::new();
        write_message_streamed(&mut clean, &msg, 4096).unwrap();
        let payload_len = clean.len() - HEADER_LEN - 4;

        let mut rng = Rng64::new(0xC0FF_EE00);
        for _ in 0..50 {
            let mut wire = clean.clone();
            let idx = HEADER_LEN + rng.below(payload_len);
            wire[idx] ^= 1u8 << rng.below(8);
            // Stream threshold 0: force every frame onto the chunked route.
            let mut fr = FrameReader::new(0, 4096);
            let mut cur = std::io::Cursor::new(&wire[..]);
            match fr.read_from(&mut cur) {
                Err(NetSolveError::Corrupt(_)) => {}
                other => panic!(
                    "flip at payload byte {} escaped the CRC verdict: {other:?}",
                    idx - HEADER_LEN
                ),
            }
        }
    }

    /// A streamed frame truncated mid-chunk errors cleanly as a transport
    /// fault (peer died), never a hang, panic, or silent partial decode.
    #[test]
    fn streamed_route_handles_truncated_chunks() {
        use netsolve_core::rng::Rng64;
        let msg = Message::RequestSubmit {
            request_id: 9,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgesv".into(),
            inputs: vec![vec![2.5f64; 32 * 1024].into()],
        };
        let mut clean = Vec::new();
        write_message_streamed(&mut clean, &msg, 4096).unwrap();
        let mut rng = Rng64::new(0x7121_CA7E);
        for _ in 0..40 {
            let cut = HEADER_LEN + rng.below(clean.len() - HEADER_LEN);
            let mut fr = FrameReader::new(0, 4096);
            let mut cur = std::io::Cursor::new(&clean[..cut]);
            assert!(
                fr.read_from(&mut cur).is_err(),
                "truncated streamed frame (cut={cut}) parsed as valid"
            );
        }
    }

    /// Version tolerance: a v1 peer's `RequestSubmit` (no `deadline_ms`
    /// field) decodes cleanly with the deadline defaulted, and the
    /// downgrade is counted.
    #[test]
    fn v1_frames_decode_with_defaulted_fields() {
        let msg = Message::RequestSubmit {
            request_id: 42,
            deadline_ms: 9_999, // dropped by the v1 encoding
            trace_id: 0xdead_beef, // likewise
            parent_span: 17,
            problem: "dgesv".into(),
            inputs: vec![vec![1.0f64, 2.0].into()],
        };
        let v1 = frame_bytes_versioned(&msg, 1).unwrap();
        let before = version_downgrades();
        let (decoded, used) = parse_frame(&v1).unwrap();
        assert_eq!(used, v1.len());
        assert!(version_downgrades() > before, "downgrade not counted");
        match decoded {
            Message::RequestSubmit { request_id, deadline_ms, trace_id, parent_span, problem, inputs } => {
                assert_eq!(request_id, 42);
                assert_eq!(deadline_ms, 0, "v1 has no deadline; defaults to 0");
                assert_eq!(trace_id, 0, "v1 has no trace context");
                assert_eq!(parent_span, 0);
                assert_eq!(problem, "dgesv");
                assert_eq!(inputs, vec![vec![1.0f64, 2.0].into()]);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        // Version-independent messages round-trip exactly at v1.
        let ping_v1 = frame_bytes_versioned(&Message::Ping, 1).unwrap();
        assert_eq!(parse_frame(&ping_v1).unwrap().0, Message::Ping);
    }

    /// Version tolerance one step back: a v2 peer's `RequestSubmit`
    /// keeps its deadline but decodes with zeroed trace context, and
    /// the downgrade is counted.
    #[test]
    fn v2_frames_decode_with_zeroed_trace_context() {
        let msg = Message::RequestSubmit {
            request_id: 43,
            deadline_ms: 1_500,
            trace_id: 0xfeed_f00d, // dropped by the v2 encoding
            parent_span: 21,
            problem: "ddot".into(),
            inputs: vec![vec![4.0f64].into()],
        };
        let v2 = frame_bytes_versioned(&msg, 2).unwrap();
        let before = version_downgrades();
        let (decoded, _) = parse_frame(&v2).unwrap();
        assert!(version_downgrades() > before, "downgrade not counted");
        match decoded {
            Message::RequestSubmit { deadline_ms, trace_id, parent_span, .. } => {
                assert_eq!(deadline_ms, 1_500, "v2 keeps the deadline");
                assert_eq!(trace_id, 0, "v2 has no trace context");
                assert_eq!(parent_span, 0);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    /// v3 frames still round-trip exactly (deadline and trace context
    /// preserved), and versions outside `MIN_VERSION..=VERSION` are
    /// rejected.
    #[test]
    fn version_window_enforced() {
        let msg = Message::RequestSubmit {
            request_id: 7,
            deadline_ms: 1_234,
            trace_id: 0xabc0_0000_0000_0000_0000_0000_0000_0007,
            parent_span: 3,
            problem: "dgemm".into(),
            inputs: vec![],
        };
        let v3 = frame_ok(&msg);
        assert_eq!(parse_frame(&v3).unwrap().0, msg);

        for bad in [0u32, VERSION + 1, 99] {
            let mut bytes = frame_ok(&Message::Ping);
            bytes[4..8].copy_from_slice(&bad.to_be_bytes());
            assert!(
                matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("version")
                ),
                "version {bad} must be rejected"
            );
        }
    }
}
