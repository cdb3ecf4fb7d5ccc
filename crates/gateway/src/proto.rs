//! Client-facing wire protocol.
//!
//! Framed by the peer protocol's own code (`fc_cluster::wire`'s
//! [`write_frame`] / [`split_frame`], so the same `MAX_FRAME` cap and the
//! same [`FrameError`]s):
//!
//! ```text
//! [u32 LE: payload length][u32 LE: CRC-32 of payload][u8: message tag][payload…]
//! ```
//!
//! The protocol is *versioned*: every session opens with
//! [`Request::Hello`] carrying [`PROTO_VERSION`]; the gateway serves that
//! one version and refuses any other with [`ErrorCode::BadVersion`] before
//! serving any I/O, so the format can evolve without silently misreading
//! old clients.
//!
//! Requests carry a client-chosen `id` that the gateway echoes in the
//! matching reply, which is what makes pipelining possible: a client may
//! have many requests in flight and correlate replies by id, in order —
//! the gateway always replies in receive order per session.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fc_cluster::wire::{need, split_frame, write_frame, Frame, FrameError};

/// The protocol version, sent in [`Request::Hello`] and checked by the
/// gateway before any I/O is served: a session at any other version is
/// refused with [`ErrorCode::BadVersion`]. Version 2 added
/// [`Reply::Unavailable`] (typed back-pressure when every replica of a
/// shard is down); version 1 clients, which lack that tag, are refused.
pub const PROTO_VERSION: u16 = 2;

/// Why the gateway refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Shed by admission control (rate limit or queue-depth cap). The
    /// request was *not* executed; the client may retry after backoff.
    Busy,
    /// The client's [`Request::Hello`] carried an unsupported version.
    BadVersion,
    /// Malformed request: zero pages, oversized run, or I/O before Hello.
    BadRequest,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Busy => 0,
            ErrorCode::BadVersion => 1,
            ErrorCode::BadRequest => 2,
        }
    }

    fn from_u8(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(ErrorCode::Busy),
            1 => Ok(ErrorCode::BadVersion),
            2 => Ok(ErrorCode::BadRequest),
            other => Err(FrameError::BadTag(other)),
        }
    }

    /// Static label used in obs events and loadgen tables.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::BadRequest => "bad_request",
        }
    }
}

/// Client → gateway messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Session handshake: protocol version + the caller's client id (used
    /// for per-client admission and stats attribution on the node).
    Hello { version: u16, client: u64 },
    /// Read `pages` consecutive logical pages starting at `lpn`.
    Read { id: u64, lpn: u64, pages: u32 },
    /// Write consecutive logical pages starting at `lpn`, one payload per
    /// page.
    Write {
        id: u64,
        lpn: u64,
        pages: Vec<Bytes>,
    },
    /// Discard `pages` consecutive logical pages starting at `lpn`.
    Trim { id: u64, lpn: u64, pages: u32 },
    /// Durability barrier: destage every dirty buffered page to the SSD.
    Flush { id: u64 },
}

impl Request {
    /// The request id echoed by the matching reply (0 for Hello).
    pub fn id(&self) -> u64 {
        match self {
            Request::Hello { .. } => 0,
            Request::Read { id, .. }
            | Request::Write { id, .. }
            | Request::Trim { id, .. }
            | Request::Flush { id } => *id,
        }
    }
}

/// Gateway → client messages. Every reply echoes the request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Handshake accepted; echoes the negotiated version and the gateway's
    /// global in-flight cap (a pipelining hint).
    HelloOk { version: u16, max_inflight: u32 },
    /// One entry per requested page, in lpn order; `None` for pages never
    /// written (or trimmed).
    ReadOk { id: u64, pages: Vec<Option<Bytes>> },
    /// All pages durable. `replicated` is true when every page landed in
    /// the peer's remote buffer (false ⇒ at least one wrote through).
    WriteOk {
        id: u64,
        pages: u32,
        replicated: bool,
    },
    /// Trim applied.
    TrimOk { id: u64, pages: u32 },
    /// Flush barrier complete; `flushed` is the number of pages destaged.
    FlushOk { id: u64, flushed: u64 },
    /// Request refused; see [`ErrorCode`].
    Error { id: u64, code: ErrorCode },
    /// Every replica of a shard this request touches is down (v2+). The
    /// request may have partially applied; retrying the same request ids
    /// after `retry_after_ms` is safe — the node-side dedup window makes
    /// resent write runs exactly-once.
    Unavailable { id: u64, retry_after_ms: u32 },
}

impl Reply {
    /// The id of the request this reply answers (0 for HelloOk).
    pub fn id(&self) -> u64 {
        match self {
            Reply::HelloOk { .. } => 0,
            Reply::ReadOk { id, .. }
            | Reply::WriteOk { id, .. }
            | Reply::TrimOk { id, .. }
            | Reply::FlushOk { id, .. }
            | Reply::Error { id, .. }
            | Reply::Unavailable { id, .. } => *id,
        }
    }
}

const TAG_HELLO: u8 = 1;
const TAG_READ: u8 = 2;
const TAG_WRITE: u8 = 3;
const TAG_TRIM: u8 = 4;
const TAG_FLUSH: u8 = 5;

const TAG_HELLO_OK: u8 = 129;
const TAG_READ_OK: u8 = 130;
const TAG_WRITE_OK: u8 = 131;
const TAG_TRIM_OK: u8 = 132;
const TAG_FLUSH_OK: u8 = 133;
const TAG_ERROR: u8 = 134;
const TAG_UNAVAILABLE: u8 = 135;

/// Append one framed request to `out`.
pub fn encode_request(req: &Request, out: &mut BytesMut) {
    let payload = match req {
        Request::Write { pages, .. } => pages.iter().map(|p| 4 + p.len()).sum(),
        _ => 0,
    };
    write_frame(out, payload, |out| match req {
        Request::Hello { version, client } => {
            out.put_u8(TAG_HELLO);
            out.put_u16_le(*version);
            out.put_u64_le(*client);
        }
        Request::Read { id, lpn, pages } => {
            out.put_u8(TAG_READ);
            out.put_u64_le(*id);
            out.put_u64_le(*lpn);
            out.put_u32_le(*pages);
        }
        Request::Write { id, lpn, pages } => {
            out.put_u8(TAG_WRITE);
            out.put_u64_le(*id);
            out.put_u64_le(*lpn);
            out.put_u32_le(pages.len() as u32);
            for p in pages {
                out.put_u32_le(p.len() as u32);
                out.put_slice(p);
            }
        }
        Request::Trim { id, lpn, pages } => {
            out.put_u8(TAG_TRIM);
            out.put_u64_le(*id);
            out.put_u64_le(*lpn);
            out.put_u32_le(*pages);
        }
        Request::Flush { id } => {
            out.put_u8(TAG_FLUSH);
            out.put_u64_le(*id);
        }
    });
}

/// Append one framed reply to `out`.
pub fn encode_reply(reply: &Reply, out: &mut BytesMut) {
    let payload = match reply {
        Reply::ReadOk { pages, .. } => pages
            .iter()
            .map(|p| 5 + p.as_ref().map_or(0, Bytes::len))
            .sum(),
        _ => 0,
    };
    write_frame(out, payload, |out| match reply {
        Reply::HelloOk {
            version,
            max_inflight,
        } => {
            out.put_u8(TAG_HELLO_OK);
            out.put_u16_le(*version);
            out.put_u32_le(*max_inflight);
        }
        Reply::ReadOk { id, pages } => {
            out.put_u8(TAG_READ_OK);
            out.put_u64_le(*id);
            out.put_u32_le(pages.len() as u32);
            for p in pages {
                match p {
                    Some(data) => {
                        out.put_u8(1);
                        out.put_u32_le(data.len() as u32);
                        out.put_slice(data);
                    }
                    None => out.put_u8(0),
                }
            }
        }
        Reply::WriteOk {
            id,
            pages,
            replicated,
        } => {
            out.put_u8(TAG_WRITE_OK);
            out.put_u64_le(*id);
            out.put_u32_le(*pages);
            out.put_u8(u8::from(*replicated));
        }
        Reply::TrimOk { id, pages } => {
            out.put_u8(TAG_TRIM_OK);
            out.put_u64_le(*id);
            out.put_u32_le(*pages);
        }
        Reply::FlushOk { id, flushed } => {
            out.put_u8(TAG_FLUSH_OK);
            out.put_u64_le(*id);
            out.put_u64_le(*flushed);
        }
        Reply::Error { id, code } => {
            out.put_u8(TAG_ERROR);
            out.put_u64_le(*id);
            out.put_u8(code.to_u8());
        }
        Reply::Unavailable { id, retry_after_ms } => {
            out.put_u8(TAG_UNAVAILABLE);
            out.put_u64_le(*id);
            out.put_u32_le(*retry_after_ms);
        }
    });
}

/// Decode one request from `buf`, if a complete frame is present.
/// Consumed bytes are removed from `buf`; `Ok(None)` means "wait for more".
pub fn decode_request(buf: &mut BytesMut) -> Result<Option<Request>, FrameError> {
    let Some(mut body) = split_frame(buf)? else {
        return Ok(None);
    };
    need(&body, 1)?;
    let tag = body.get_u8();
    let req = match tag {
        TAG_HELLO => {
            need(&body, 2 + 8)?;
            Request::Hello {
                version: body.get_u16_le(),
                client: body.get_u64_le(),
            }
        }
        TAG_READ => {
            need(&body, 8 + 8 + 4)?;
            Request::Read {
                id: body.get_u64_le(),
                lpn: body.get_u64_le(),
                pages: body.get_u32_le(),
            }
        }
        TAG_WRITE => {
            need(&body, 8 + 8 + 4)?;
            let id = body.get_u64_le();
            let lpn = body.get_u64_le();
            let n = body.get_u32_le() as usize;
            let mut pages = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&body, 4)?;
                let dl = body.get_u32_le() as usize;
                need(&body, dl)?;
                pages.push(body.split_to(dl));
            }
            Request::Write { id, lpn, pages }
        }
        TAG_TRIM => {
            need(&body, 8 + 8 + 4)?;
            Request::Trim {
                id: body.get_u64_le(),
                lpn: body.get_u64_le(),
                pages: body.get_u32_le(),
            }
        }
        TAG_FLUSH => {
            need(&body, 8)?;
            Request::Flush {
                id: body.get_u64_le(),
            }
        }
        other => return Err(FrameError::BadTag(other)),
    };
    Ok(Some(req))
}

/// Decode one reply from `buf`, if a complete frame is present.
pub fn decode_reply(buf: &mut BytesMut) -> Result<Option<Reply>, FrameError> {
    let Some(mut body) = split_frame(buf)? else {
        return Ok(None);
    };
    need(&body, 1)?;
    let tag = body.get_u8();
    let reply = match tag {
        TAG_HELLO_OK => {
            need(&body, 2 + 4)?;
            Reply::HelloOk {
                version: body.get_u16_le(),
                max_inflight: body.get_u32_le(),
            }
        }
        TAG_READ_OK => {
            need(&body, 8 + 4)?;
            let id = body.get_u64_le();
            let n = body.get_u32_le() as usize;
            let mut pages = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&body, 1)?;
                match body.get_u8() {
                    0 => pages.push(None),
                    1 => {
                        need(&body, 4)?;
                        let dl = body.get_u32_le() as usize;
                        need(&body, dl)?;
                        pages.push(Some(body.split_to(dl)));
                    }
                    other => return Err(FrameError::BadTag(other)),
                }
            }
            Reply::ReadOk { id, pages }
        }
        TAG_WRITE_OK => {
            need(&body, 8 + 4 + 1)?;
            Reply::WriteOk {
                id: body.get_u64_le(),
                pages: body.get_u32_le(),
                replicated: body.get_u8() != 0,
            }
        }
        TAG_TRIM_OK => {
            need(&body, 8 + 4)?;
            Reply::TrimOk {
                id: body.get_u64_le(),
                pages: body.get_u32_le(),
            }
        }
        TAG_FLUSH_OK => {
            need(&body, 8 + 8)?;
            Reply::FlushOk {
                id: body.get_u64_le(),
                flushed: body.get_u64_le(),
            }
        }
        TAG_ERROR => {
            need(&body, 8 + 1)?;
            Reply::Error {
                id: body.get_u64_le(),
                code: ErrorCode::from_u8(body.get_u8())?,
            }
        }
        TAG_UNAVAILABLE => {
            need(&body, 8 + 4)?;
            Reply::Unavailable {
                id: body.get_u64_le(),
                retry_after_ms: body.get_u32_le(),
            }
        }
        other => return Err(FrameError::BadTag(other)),
    };
    Ok(Some(reply))
}

impl Frame for Request {
    fn encode(&self, out: &mut BytesMut) {
        encode_request(self, out);
    }

    fn decode(buf: &mut BytesMut) -> Result<Option<Request>, FrameError> {
        decode_request(buf)
    }
}

impl Frame for Reply {
    fn encode(&self, out: &mut BytesMut) {
        encode_reply(self, out);
    }

    fn decode(buf: &mut BytesMut) -> Result<Option<Reply>, FrameError> {
        decode_reply(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_cluster::{resync_entry, Message};

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTO_VERSION,
                client: 7,
            },
            Request::Read {
                id: 1,
                lpn: 42,
                pages: 8,
            },
            Request::Write {
                id: 2,
                lpn: 100,
                pages: vec![Bytes::from_static(b"page-a"), Bytes::from_static(b"page-b")],
            },
            Request::Trim {
                id: 3,
                lpn: 5,
                pages: 2,
            },
            Request::Flush { id: 4 },
        ]
    }

    fn all_replies() -> Vec<Reply> {
        vec![
            Reply::HelloOk {
                version: PROTO_VERSION,
                max_inflight: 64,
            },
            Reply::ReadOk {
                id: 1,
                pages: vec![Some(Bytes::from_static(b"hit")), None],
            },
            Reply::WriteOk {
                id: 2,
                pages: 2,
                replicated: true,
            },
            Reply::TrimOk { id: 3, pages: 2 },
            Reply::FlushOk { id: 4, flushed: 17 },
            Reply::Error {
                id: 5,
                code: ErrorCode::Busy,
            },
            Reply::Unavailable {
                id: 6,
                retry_after_ms: 250,
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        let mut buf = BytesMut::new();
        for r in all_requests() {
            encode_request(&r, &mut buf);
        }
        for want in all_requests() {
            let got = decode_request(&mut buf).unwrap().unwrap();
            assert_eq!(got, want);
        }
        assert!(decode_request(&mut buf).unwrap().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn replies_roundtrip() {
        let mut buf = BytesMut::new();
        for r in all_replies() {
            encode_reply(&r, &mut buf);
        }
        for want in all_replies() {
            let got = decode_reply(&mut buf).unwrap().unwrap();
            assert_eq!(got, want);
        }
        assert!(decode_reply(&mut buf).unwrap().is_none());
    }

    fn hex(frame: &[u8]) -> String {
        frame.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The bytes on both wires, pinned: one replication batch, one write
    /// request and one read reply, each encoded through its [`Frame`] impl
    /// — the codec a TCP link runs.
    #[test]
    fn frames_match_their_pinned_bytes() {
        fn framed(msg: &impl Frame) -> String {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            hex(&buf)
        }
        let batch = Message::WriteReplBatch {
            epoch: 3,
            seq: 7,
            entries: vec![
                resync_entry(42, 9, Bytes::from_static(b"flash")),
                resync_entry(43, 10, Bytes::from_static(b"coop")),
            ],
        };
        assert_eq!(
            framed(&batch),
            "4a00000051b5ef620e030000000700000000000000020000002a00000000000000\
             0900000000000000035fceaf05000000666c6173682b000000000000000a000000\
             00000000b80d3cf904000000636f6f70"
        );
        let write = Request::Write {
            id: 5,
            lpn: 128,
            pages: vec![Bytes::from_static(b"page-a"), Bytes::from_static(b"pg-b")],
        };
        assert_eq!(
            framed(&write),
            "27000000594a7d0003050000000000000080000000000000000200000006000000\
             706167652d610400000070672d62"
        );
        let read_ok = Reply::ReadOk {
            id: 6,
            pages: vec![Some(Bytes::from_static(b"hit")), None],
        };
        assert_eq!(
            framed(&read_ok),
            "160000003309c63482060000000000000002000000010300000068697400"
        );
    }

    #[test]
    fn ids_are_echoed() {
        for r in all_requests() {
            let id = r.id();
            match r {
                Request::Hello { .. } => assert_eq!(id, 0),
                _ => assert!(id > 0),
            }
        }
        assert_eq!(
            Reply::Error {
                id: 77,
                code: ErrorCode::BadRequest
            }
            .id(),
            77
        );
    }
}
