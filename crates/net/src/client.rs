//! A blocking, framed request/response client over TCP.
//!
//! One [`Client`] owns one connection and speaks strict
//! request/response: `request` frames the payload, writes it, and waits
//! for exactly one answer frame under the client's deadline. Protocol
//! layers (the `afd-serve` front door's typed client, the `afd connect`
//! CLI) wrap this with their own encode/decode.

use std::net::SocketAddr;
use std::time::Duration;

use afd_wire::write_frame;

use crate::error::NetError;
use crate::transport::{TcpTransport, Transport};

/// Default per-request deadline, matching afd-stream's worker deadline.
pub const DEFAULT_CLIENT_DEADLINE: Duration = Duration::from_millis(30_000);

/// A blocking framed TCP client with a deadline on every request.
///
/// After a request fails on the connection (write, read, deadline, or
/// a bad answer frame) the client is severed: every later request fails
/// with [`NetError::Write`] until the caller connects a new client.
#[derive(Debug)]
pub struct Client {
    transport: TcpTransport,
    deadline: Duration,
}

impl Client {
    /// Dials `addr` (an `IP:PORT` literal).
    ///
    /// # Errors
    /// [`NetError::Connect`] on a malformed address or failed dial.
    pub fn connect(addr: &str, deadline: Duration) -> Result<Self, NetError> {
        Ok(Client {
            transport: TcpTransport::connect(addr)?,
            deadline,
        })
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.transport.addr()
    }

    /// The per-request deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Replaces the per-request deadline.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Sends one framed request and waits for the single answer frame.
    ///
    /// A failure here severs the connection: the server may still answer
    /// a timed-out request, and that answer must not reach the next one.
    ///
    /// # Errors
    /// [`NetError::Write`]/[`NetError::Read`] when the connection
    /// dropped (or an earlier request severed it),
    /// [`NetError::Timeout`] when no answer arrived in time.
    pub fn request(&mut self, kind: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), NetError> {
        let mut frame = Vec::with_capacity(payload.len() + 32);
        write_frame(kind, payload, &mut frame)
            .map_err(|e| NetError::Decode(format!("request frame: {e}")))?;
        let answer = self
            .transport
            .send(&frame)
            .and_then(|()| self.transport.recv(self.deadline));
        if answer.is_err() {
            self.transport.sever();
        }
        answer
    }

    /// Closes the connection gracefully.
    pub fn close(mut self) {
        let _ = self.transport.finish(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_wire::{read_frame_from, write_frame_to, StreamFrame};
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn client_round_trip_under_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(StreamFrame::Frame(kind, payload)) = read_frame_from(&mut reader) {
                write_frame_to(&mut writer, kind, &payload).unwrap();
            }
        });
        let mut client = Client::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let (kind, payload) = client.request(42, b"ping").unwrap();
        assert_eq!((kind, payload.as_slice()), (42, b"ping".as_slice()));
        client.close();
        server.join().unwrap();
    }

    #[test]
    fn timed_out_request_severs_instead_of_leaking_its_late_answer() {
        // The server holds its answer to the first request until the
        // client has timed out, then answers and echoes from there on.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (answered_tx, answered_rx) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            if let Ok(StreamFrame::Frame(kind, _)) = read_frame_from(&mut reader) {
                release_rx.recv().unwrap();
                let _ = write_frame_to(&mut writer, kind, b"first");
                answered_tx.send(()).unwrap();
            }
            while let Ok(StreamFrame::Frame(kind, payload)) = read_frame_from(&mut reader) {
                if write_frame_to(&mut writer, kind, &payload).is_err() {
                    break;
                }
            }
        });
        let mut client = Client::connect(&addr.to_string(), Duration::from_millis(50)).unwrap();
        match client.request(1, b"slow") {
            Err(NetError::Timeout { millis: 50 }) => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        // The late answer is on the wire before the next request goes
        // out, and the next request waits long enough to receive it.
        release_tx.send(()).unwrap();
        answered_rx.recv().unwrap();
        client.set_deadline(Duration::from_secs(5));
        match client.request(2, b"next") {
            Err(NetError::Write(_)) => {}
            other => panic!("expected a severed connection, got {other:?}"),
        }
        client.close();
        server.join().unwrap();
    }
}
