//! The benchmark's own framed-TCP client for the protocol of
//! `docs/protocol.md`: a 4-byte big-endian length, then UTF-8 JSON. Requests
//! are encoded once, before timing; the timed path is one `write_all`, two
//! `read_exact`s and a scan of the reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{self, push_string, Reply};

/// Frames larger than this are a protocol violation, not a bigger buffer.
const MAX_FRAME: usize = 64 << 20;

/// A request, encoded and length-prefixed, ready to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

impl Frame {
    fn from_payload(payload: &str) -> Frame {
        let mut bytes = Vec::with_capacity(4 + payload.len());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        Frame(bytes)
    }

    pub fn query(id: u64, text: &str, limit: u64) -> Frame {
        let mut p = format!("{{\"v\":1,\"type\":\"query\",\"id\":{id},\"query\":");
        push_string(&mut p, text);
        p.push_str(&format!(",\"limit\":{limit}}}"));
        Frame::from_payload(&p)
    }

    pub fn mutate(id: u64, script: &str) -> Frame {
        let mut p = format!("{{\"v\":1,\"type\":\"mutate\",\"id\":{id},\"script\":");
        push_string(&mut p, script);
        p.push_str(",\"return_delta\":false}");
        Frame::from_payload(&p)
    }

    pub fn stats(id: u64) -> Frame {
        Frame::from_payload(&format!("{{\"v\":1,\"type\":\"stats\",\"id\":{id}}}"))
    }

    pub fn shutdown(id: u64) -> Frame {
        Frame::from_payload(&format!("{{\"v\":1,\"type\":\"shutdown\",\"id\":{id}}}"))
    }

    /// The JSON payload, without its length prefix.
    #[cfg(any(test, feature = "ladder"))]
    pub fn payload(&self) -> &str {
        std::str::from_utf8(&self.0[4..]).expect("frames are built from strings")
    }

    /// The bytes as written to the socket.
    #[cfg(any(test, feature = "ladder"))]
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// One connection. Requests are synchronous: write a frame, read one back.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a hung server, not a slow one: the
        // run fails instead of outliving the harness's time limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream.write_all(&frame.0)
    }

    /// Reads one frame and returns its payload bytes (valid until the next
    /// call). Timing stops here; [`json::read_reply`] comes after.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes"),
            ));
        }
        self.buf.resize(len, 0);
        self.stream.read_exact(&mut self.buf)?;
        Ok(&self.buf)
    }

    /// Untimed convenience: one request, one decoded reply.
    pub fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        self.send(frame)?;
        let payload = self.recv()?;
        json::read_reply(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_carry_a_length_prefix_and_escaped_text() {
        let frame = Frame::query(9, "SELECT ?x WHERE { ?x <p> \"q\" . }", 16);
        let len = u32::from_be_bytes(frame.bytes()[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.payload().len());
        let echoed = json::read_reply(frame.payload().as_bytes()).unwrap();
        assert_eq!(echoed.kind(), "query");
        assert_eq!(echoed.number("id"), Some(9));
        assert_eq!(echoed.number("limit"), Some(16));
        assert_eq!(
            echoed.text("query"),
            Some("SELECT ?x WHERE { ?x <p> \"q\" . }")
        );
        let script = Frame::mutate(1, "+ a p b\n");
        assert_eq!(
            json::read_reply(script.payload().as_bytes())
                .unwrap()
                .text("script"),
            Some("+ a p b\n")
        );
    }

    #[test]
    fn call_round_trips_against_an_echo_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut prefix = [0u8; 4];
            s.read_exact(&mut prefix).unwrap();
            let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
            s.read_exact(&mut body).unwrap();
            s.write_all(&prefix).unwrap();
            s.write_all(&body).unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        let reply = conn.call(&Frame::stats(4)).unwrap();
        assert_eq!(reply.kind(), "stats");
        assert_eq!(reply.number("id"), Some(4));
        peer.join().unwrap();
    }
}
