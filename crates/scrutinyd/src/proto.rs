//! The `scrutinyd` wire protocol: length-prefixed binary frames over a
//! byte stream (TCP or Unix socket). `docs/PROTOCOL.md` is the normative
//! spec; this module is its only implementation — both the daemon and
//! [`crate::RemoteBackend`] encode and decode through the same
//! [`Request`]/[`Response`] types, so the two sides cannot drift.
//!
//! Framing: `u32` little-endian payload length, then the payload; the
//! payload's first byte is an opcode ([`Request`]) or status byte
//! ([`Response`]), the rest is body. Strings are `u16` length + UTF-8;
//! blobs are `u32` length + bytes; integers are little-endian. Encoding
//! produces a whole [`Frame`] (prefix included), which [`write_frame`]
//! sends in one write. A length prefix above [`MAX_FRAME`] is rejected
//! *before* any allocation, and a valid one only grows the receive
//! buffer as payload bytes actually arrive — garbage on the wire becomes
//! a typed [`std::io::ErrorKind::InvalidData`] or
//! [`std::io::ErrorKind::UnexpectedEof`] error, not an OOM.

use std::io::{self, Read, Write};

/// Protocol version a client states in [`Request::Hello`]; the daemon
/// refuses anything else ([`RejectReason::BadProto`]).
pub const PROTO_VERSION: u16 = 1;

/// Largest legal frame payload (length prefix bound): 256 MiB. Large
/// enough for any checkpoint shard the engine produces, small enough
/// that a corrupted length prefix fails fast.
pub const MAX_FRAME: u32 = 1 << 28;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Why the daemon refused an operation, as a closed set with stable
/// lower-snake wire codes (the codes are the wire format — see
/// `docs/PROTOCOL.md` — and the prefix of the
/// [`CkptError::Rejected`](scrutiny_ckpt::CkptError#variant.Rejected) string a
/// client surfaces).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Per-tenant inflight-byte budget exhausted; retry after inflight
    /// work drains.
    InflightBytes,
    /// The tenant is at its committed-version quota.
    VersionQuota,
    /// One object larger than the per-object cap.
    ObjectTooLarge,
    /// The daemon is draining for shutdown; no new work.
    Draining,
    /// Malformed object name (namespace escape, invalid field key).
    BadName,
    /// Malformed tenant id in HELLO.
    BadTenant,
    /// Client spoke an unsupported protocol version.
    BadProto,
    /// A non-HELLO request arrived before HELLO on this connection.
    NoHello,
}

impl RejectReason {
    /// The stable wire code.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::InflightBytes => "inflight_bytes",
            RejectReason::VersionQuota => "version_quota",
            RejectReason::ObjectTooLarge => "object_too_large",
            RejectReason::Draining => "draining",
            RejectReason::BadName => "bad_name",
            RejectReason::BadTenant => "bad_tenant",
            RejectReason::BadProto => "bad_proto",
            RejectReason::NoHello => "no_hello",
        }
    }

    /// Parse a wire code.
    pub fn from_code(code: &str) -> Option<RejectReason> {
        Some(match code {
            "inflight_bytes" => RejectReason::InflightBytes,
            "version_quota" => RejectReason::VersionQuota,
            "object_too_large" => RejectReason::ObjectTooLarge,
            "draining" => RejectReason::Draining,
            "bad_name" => RejectReason::BadName,
            "bad_tenant" => RejectReason::BadTenant,
            "bad_proto" => RejectReason::BadProto,
            "no_hello" => RejectReason::NoHello,
            _ => return None,
        })
    }
}

/// Per-tenant accounting the daemon reports for [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Committed checkpoint versions currently in the tenant's namespace.
    pub versions: u64,
    /// Objects currently in the tenant's namespace.
    pub objects: u64,
    /// Cumulative payload bytes accepted from this tenant (lifetime of
    /// the daemon, survives deletes).
    pub accepted_bytes: u64,
    /// Payload bytes currently being written on the tenant's behalf.
    pub inflight_bytes: u64,
}

/// A client→daemon frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// First frame on every connection: protocol version + tenant id
    /// (empty string = the default tenant, the un-prefixed pool root).
    Hello {
        /// Client's protocol version ([`PROTO_VERSION`]).
        version: u16,
        /// Tenant id; empty for the default tenant.
        tenant: String,
    },
    /// Store an object under a tenant-local grammar name.
    Put {
        /// Tenant-local object name (no `/`).
        name: String,
        /// Object payload.
        bytes: Vec<u8>,
    },
    /// Fetch a whole object.
    Get {
        /// Tenant-local object name.
        name: String,
    },
    /// List the tenant's object names.
    List,
    /// Delete an object (idempotent).
    Delete {
        /// Tenant-local object name.
        name: String,
    },
    /// Drop a client-correlated marker event into the daemon's obs log,
    /// so client-side phases (a recovery walk, a fault injection) are
    /// reconstructable from the daemon's single JSONL log.
    Mark {
        /// Marker label (must fit the obs naming scheme for a field
        /// *value* it is free-form; it is stored as a string field).
        label: String,
        /// Extra string fields; keys must fit the obs naming scheme.
        fields: Vec<(String, String)>,
    },
    /// Ask for this tenant's [`TenantStats`].
    Stats,
    /// Liveness probe.
    Ping,
    /// Control frame: drain and stop the daemon. In-flight operations
    /// finish; new connections and further frames are refused.
    Shutdown,
}

/// A daemon→client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success, no payload.
    Ok,
    /// Success with an object payload ([`Request::Get`]).
    Bytes(Vec<u8>),
    /// Success with a name listing ([`Request::List`]).
    Names(Vec<String>),
    /// Success with tenant accounting ([`Request::Stats`]).
    Stats(TenantStats),
    /// The object does not exist (maps to
    /// [`std::io::ErrorKind::NotFound`] client-side — the signal layout
    /// probing relies on).
    NotFound(String),
    /// Refused by policy — quota, backpressure, drain, or a malformed
    /// request. The daemon stays healthy; the tenant's stored bytes are
    /// untouched.
    Rejected {
        /// Typed reason.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon failed to execute the operation (e.g. storage I/O
    /// error). Unlike [`Response::Rejected`] this is a failure, not a
    /// policy decision.
    Err(String),
}

// Opcodes (request payload byte 0).
const OP_HELLO: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_GET: u8 = 0x03;
const OP_LIST: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_MARK: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_PING: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;

// Status bytes (response payload byte 0).
const ST_OK: u8 = 0x80;
const ST_BYTES: u8 = 0x81;
const ST_NAMES: u8 = 0x82;
const ST_STATS: u8 = 0x83;
const ST_NOT_FOUND: u8 = 0x90;
const ST_REJECTED: u8 = 0x91;
const ST_ERR: u8 = 0x92;

// --------------------------------------------------------------------------
// Primitive encoding.
// --------------------------------------------------------------------------

/// One encoded frame: the `u32` LE length prefix followed by the
/// payload, ready for [`write_frame`] to send in a single write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

impl Frame {
    /// The payload (the bytes after the length prefix) — what
    /// [`read_frame`] returns on the receiving side.
    pub fn payload(&self) -> &[u8] {
        &self.0[4..]
    }
}

/// Frame builder: reserves the length prefix up front and patches it in
/// [`Enc::finish`], so a frame is one contiguous buffer.
struct Enc(Vec<u8>);

impl Enc {
    fn new(op: u8) -> Enc {
        Enc::with_capacity(op, 0)
    }
    /// `body` is the expected body size, so a PUT's data is copied once
    /// into a buffer that never reallocates.
    fn with_capacity(op: u8, body: usize) -> Enc {
        let mut buf = Vec::with_capacity(5 + body);
        buf.extend_from_slice(&[0, 0, 0, 0, op]);
        Enc(buf)
    }
    fn finish(mut self) -> Frame {
        let n = self.0.len() - 4;
        debug_assert!(n as u64 <= MAX_FRAME as u64, "frame above MAX_FRAME");
        self.0[..4].copy_from_slice(&(n as u32).to_le_bytes());
        Frame(self.0)
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
        self.u16(s.len().min(u16::MAX as usize) as u16);
        self.0
            .extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
    }
    fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad(format!(
                "frame truncated: wanted {n} more bytes, have {}",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| bad("string field is not UTF-8"))
    }
    fn blob(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn done(self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "frame has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Framing.
// --------------------------------------------------------------------------

/// Write one whole frame with a single `write_all` — the length prefix
/// never leaves in a segment of its own, which on TCP would wait for the
/// peer's delayed ACK.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.0)?;
    w.flush()
}

/// Read one frame's payload. A length prefix above [`MAX_FRAME`] is
/// [`std::io::ErrorKind::InvalidData`] — a garbage or corrupted prefix
/// must not drive an allocation — and a valid prefix grows the buffer
/// only with the bytes received (at most twice them, or 64 KiB), so a
/// peer that announces 256 MiB and then stops costs kilobytes. A clean
/// EOF before any byte of the prefix is
/// [`std::io::ErrorKind::UnexpectedEof`] with message
/// `"connection closed"` so callers can tell orderly close from a torn
/// frame, which is also `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    // First byte separately: distinguishes "peer closed between frames"
    // from "frame torn mid-way".
    let mut first = [0u8; 1];
    if r.read(&mut first)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    read_frame_after(first[0], r)
}

/// Bytes reserved for a payload before any of it has arrived; beyond
/// this the buffer doubles with the bytes actually received.
const RECV_CHUNK: usize = 64 * 1024;

/// [`read_frame`] for a frame whose first prefix byte, `first`, the
/// caller already read (the daemon polls for it between frames).
pub(crate) fn read_frame_after(first: u8, r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let n = u32::from_le_bytes([first, rest[0], rest[1], rest[2]]);
    if n > MAX_FRAME {
        return Err(bad(format!(
            "frame length {n:#x} exceeds the {MAX_FRAME:#x}-byte cap (corrupt length prefix?)"
        )));
    }
    let n = n as usize;
    let mut payload = Vec::new();
    while payload.len() < n {
        // Grow with the bytes received: double, never past `n` (exact
        // reservations, so a whole frame costs `n` bytes, not up to 2n).
        let start = payload.len();
        let grow = (n - start).min(start.max(RECV_CHUNK));
        payload.reserve_exact(grow);
        payload.resize(start + grow, 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok(payload)
}

// --------------------------------------------------------------------------
// Request codec.
// --------------------------------------------------------------------------

impl Request {
    /// Encode into a whole frame (length prefix + payload).
    pub fn encode(&self) -> Frame {
        match self {
            Request::Hello { version, tenant } => {
                let mut e = Enc::new(OP_HELLO);
                e.u16(*version);
                e.str(tenant);
                e.finish()
            }
            Request::Put { name, bytes } => Request::encode_put(name, bytes),
            Request::Get { name } => {
                let mut e = Enc::new(OP_GET);
                e.str(name);
                e.finish()
            }
            Request::List => Enc::new(OP_LIST).finish(),
            Request::Delete { name } => {
                let mut e = Enc::new(OP_DELETE);
                e.str(name);
                e.finish()
            }
            Request::Mark { label, fields } => {
                let mut e = Enc::new(OP_MARK);
                e.str(label);
                e.u16(fields.len().min(u16::MAX as usize) as u16);
                for (k, v) in fields {
                    e.str(k);
                    e.str(v);
                }
                e.finish()
            }
            Request::Stats => Enc::new(OP_STATS).finish(),
            Request::Ping => Enc::new(OP_PING).finish(),
            Request::Shutdown => Enc::new(OP_SHUTDOWN).finish(),
        }
    }

    /// Encode a PUT frame straight from borrowed data: the payload is
    /// copied once, into the frame, instead of first into a
    /// [`Request::Put`].
    pub(crate) fn encode_put(name: &str, bytes: &[u8]) -> Frame {
        let mut e = Enc::with_capacity(OP_PUT, 2 + name.len() + 4 + bytes.len());
        e.str(name);
        e.blob(bytes);
        e.finish()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            OP_HELLO => Request::Hello {
                version: d.u16()?,
                tenant: d.str()?,
            },
            OP_PUT => Request::Put {
                name: d.str()?,
                bytes: d.blob()?,
            },
            OP_GET => Request::Get { name: d.str()? },
            OP_LIST => Request::List,
            OP_DELETE => Request::Delete { name: d.str()? },
            OP_MARK => {
                let label = d.str()?;
                let n = d.u16()? as usize;
                let mut fields = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    fields.push((d.str()?, d.str()?));
                }
                Request::Mark { label, fields }
            }
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            op => return Err(bad(format!("unknown request opcode {op:#04x}"))),
        };
        d.done()?;
        Ok(req)
    }
}

// --------------------------------------------------------------------------
// Response codec.
// --------------------------------------------------------------------------

impl Response {
    /// Encode into a whole frame (length prefix + payload).
    pub fn encode(&self) -> Frame {
        match self {
            Response::Ok => Enc::new(ST_OK).finish(),
            Response::Bytes(b) => {
                let mut e = Enc::with_capacity(ST_BYTES, 4 + b.len());
                e.blob(b);
                e.finish()
            }
            Response::Names(names) => {
                let mut e = Enc::new(ST_NAMES);
                e.u32(names.len() as u32);
                for n in names {
                    e.str(n);
                }
                e.finish()
            }
            Response::Stats(s) => {
                let mut e = Enc::new(ST_STATS);
                e.u64(s.versions);
                e.u64(s.objects);
                e.u64(s.accepted_bytes);
                e.u64(s.inflight_bytes);
                e.finish()
            }
            Response::NotFound(m) => {
                let mut e = Enc::new(ST_NOT_FOUND);
                e.str(m);
                e.finish()
            }
            Response::Rejected { reason, message } => {
                let mut e = Enc::new(ST_REJECTED);
                e.str(reason.code());
                e.str(message);
                e.finish()
            }
            Response::Err(m) => {
                let mut e = Enc::new(ST_ERR);
                e.str(m);
                e.finish()
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut d = Dec::new(payload);
        let resp = match d.u8()? {
            ST_OK => Response::Ok,
            ST_BYTES => Response::Bytes(d.blob()?),
            ST_NAMES => {
                let n = d.u32()? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(d.str()?);
                }
                Response::Names(names)
            }
            ST_STATS => Response::Stats(TenantStats {
                versions: d.u64()?,
                objects: d.u64()?,
                accepted_bytes: d.u64()?,
                inflight_bytes: d.u64()?,
            }),
            ST_NOT_FOUND => Response::NotFound(d.str()?),
            ST_REJECTED => {
                let code = d.str()?;
                let reason = RejectReason::from_code(&code)
                    .ok_or_else(|| bad(format!("unknown reject reason {code:?}")))?;
                Response::Rejected {
                    reason,
                    message: d.str()?,
                }
            }
            ST_ERR => Response::Err(d.str()?),
            st => return Err(bad(format!("unknown response status {st:#04x}"))),
        };
        d.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTO_VERSION,
            tenant: "t1".into(),
        });
        roundtrip_req(Request::Put {
            name: "ckpt_000001.data".into(),
            bytes: vec![0, 1, 2, 255],
        });
        roundtrip_req(Request::Get {
            name: "ckpt_000001.aux".into(),
        });
        roundtrip_req(Request::List);
        roundtrip_req(Request::Delete { name: "x".into() });
        roundtrip_req(Request::Mark {
            label: "recovery_start".into(),
            fields: vec![("phase".into(), "walk".into())],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Bytes(vec![9; 1000]));
        roundtrip_resp(Response::Names(vec!["a".into(), "b".into()]));
        roundtrip_resp(Response::Stats(TenantStats {
            versions: 3,
            objects: 7,
            accepted_bytes: 12345,
            inflight_bytes: 42,
        }));
        roundtrip_resp(Response::NotFound("no object".into()));
        roundtrip_resp(Response::Rejected {
            reason: RejectReason::VersionQuota,
            message: "at 8 versions".into(),
        });
        roundtrip_resp(Response::Err("disk on fire".into()));
    }

    #[test]
    fn garbage_length_prefix_is_invalid_data_not_an_allocation() {
        let wire = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn torn_frames_are_unexpected_eof() {
        // EOF before any byte: orderly close.
        let err = read_frame(&mut [].as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("connection closed"));
        // Frame cut mid-payload: torn.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Bytes(vec![7; 64]).encode()).unwrap();
        wire.truncate(wire.len() - 10);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_or_truncated_payloads_are_rejected() {
        let mut p = Request::Ping.encode().payload().to_vec();
        p.push(0);
        assert!(Request::decode(&p).is_err());
        let f = Request::Put {
            name: "x".into(),
            bytes: vec![1, 2, 3],
        }
        .encode();
        let p = f.payload();
        assert!(Request::decode(&p[..p.len() - 1]).is_err());
        assert!(Request::decode(&[0x7F]).is_err());
        assert!(Response::decode(&[0x00]).is_err());
    }

    /// A writer that records how many `write` calls a frame took.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_per_frame() {
        let frames = [
            Request::Ping.encode(),
            Request::encode_put("ckpt_000001.data", &[5; 70_000]),
            Response::Bytes(vec![6; 3]).encode(),
            Response::Ok.encode(),
        ];
        for frame in &frames {
            let mut w = CountingWriter::default();
            write_frame(&mut w, frame).unwrap();
            assert_eq!(w.writes, 1, "one write per frame");
            let payload = read_frame(&mut w.bytes.as_slice()).unwrap();
            assert_eq!(payload, frame.payload());
        }
    }

    #[test]
    fn borrowed_put_encodes_like_an_owned_put() {
        let owned = Request::Put {
            name: "ckpt_000002.aux".into(),
            bytes: vec![1, 2, 3, 4],
        };
        assert_eq!(
            Request::encode_put("ckpt_000002.aux", &[1, 2, 3, 4]),
            owned.encode()
        );
    }
}
