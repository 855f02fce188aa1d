//! One closed-loop connection to the server.
//!
//! Untraced requests go through [`RemoteClient::request`]. Traced ones
//! make the same calls `RemoteClient` makes for one round trip —
//! `wire::encode_request`, `net::write_frame`, `net::read_frame`,
//! `wire::decode_reply` — on a clone of the same socket, each inside a
//! span. Requests on a connection are strictly sequential, so the two
//! paths never interleave on the wire.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use intext_serve::{net, wire, RemoteClient, Request, Response, RetryPolicy, ServeError};

use crate::trace::Tracer;

/// How long a request may go unanswered before the run gives up on it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Request ids on the traced path start here, so they never collide
/// with `RemoteClient`'s own counter on the same socket.
const TRACED_ID_BASE: u64 = 1 << 40;

pub struct Conn {
    remote: RemoteClient<TcpStream>,
    raw: TcpStream,
    next_traced_id: u64,
}

/// A server verdict, or why the round trip failed.
pub type Reply = Result<Result<Response, ServeError>, String>;

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let raw = stream.try_clone()?;
        Ok(Conn {
            // No redial: a lost connection is a failure to report, not
            // to hide behind a retry.
            remote: RemoteClient::new(stream).with_retry(RetryPolicy::none()),
            raw,
            next_traced_id: TRACED_ID_BASE,
        })
    }

    pub fn request(&mut self, req: &Request) -> Reply {
        self.remote.request(req).map_err(|e| e.to_string())
    }

    /// The traced round trip: spans `client.request` ⊃ `net.encode`,
    /// `net.write`, `net.wait`, `net.decode`. Also returns the bytes
    /// both frames took on the wire (length prefixes included).
    pub fn request_traced(
        &mut self,
        req: &Request,
        tracer: &mut Tracer,
        request_id: u64,
    ) -> (Reply, u64) {
        let id = self.next_traced_id;
        self.next_traced_id += 1;
        let root = tracer.open("client.request", None, request_id);
        let frame = tracer.time("net.encode", Some(root), request_id, || {
            wire::encode_request(id, req)
        });
        let mut bytes = 4 + frame.len() as u64;
        let reply = (|| {
            tracer
                .time("net.write", Some(root), request_id, || {
                    net::write_frame(&mut self.raw, &frame)
                })
                .map_err(|e| format!("write: {e}"))?;
            let payload = tracer
                .time("net.wait", Some(root), request_id, || {
                    net::read_frame(&mut self.raw)
                })
                .map_err(|e| format!("read: {e}"))?
                .ok_or("server closed the connection")?;
            bytes += 4 + payload.len() as u64;
            let (reply_id, reply) = tracer
                .time("net.decode", Some(root), request_id, || {
                    wire::decode_reply(&payload)
                })
                .map_err(|e| format!("decode: {e}"))?;
            if reply_id != id {
                return Err(format!("reply id {reply_id} for request {id}"));
            }
            Ok(reply)
        })();
        tracer.close(root);
        (reply, bytes)
    }
}
