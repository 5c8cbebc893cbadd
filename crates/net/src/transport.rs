//! The [`Transport`] trait and its two implementations.
//!
//! A transport is a bidirectional channel that carries whole afd-wire
//! frames: `send` writes one already-framed message, `recv` hands back
//! the next `(kind, payload)` within a deadline. Frames are *read on a
//! dedicated thread* and handed over a channel, so a peer that stops
//! answering surfaces as [`NetError::Timeout`] instead of a caller
//! stuck in `read(2)` forever — the property afd-stream's supervisor
//! deadlines are built on.
//!
//! * [`StdioTransport`] — a child process's stdin/stdout (the original
//!   `afd shard-worker` topology). `reconnect` relaunches the child
//!   from its retained [`WorkerCommand`]; the child's stderr is
//!   ring-buffered and surfaced through [`Transport::diagnostics`].
//! * [`TcpTransport`] — a TCP connection to a listener that may live on
//!   another machine. `reconnect` redials the same address with
//!   exponential backoff ([`ReconnectPolicy`]); a worker listener that
//!   survived the connection loss accepts the new connection and the
//!   supervisor's restore/replay brings the fresh session back.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use afd_wire::{read_frame_from, FrameReadError, StreamFrame};

use crate::command::WorkerCommand;
use crate::error::NetError;

/// How many trailing child stderr lines [`StdioTransport`] retains.
const STDERR_TAIL_LINES: usize = 12;

/// A bidirectional framed channel to one peer.
///
/// Implementations own whatever machinery keeps the channel alive (a
/// child process, a socket, reader threads); the caller owns the
/// protocol spoken over it and the per-request deadline policy.
pub trait Transport: Send + std::fmt::Debug {
    /// Writes one complete, already-framed message to the peer.
    ///
    /// # Errors
    /// [`NetError::Write`] when the channel is closed.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// The next frame from the peer, or a typed error within `deadline`.
    ///
    /// # Errors
    /// [`NetError::Timeout`] when nothing arrived in time;
    /// [`NetError::Read`]/[`NetError::Decode`] when the peer closed the
    /// channel or sent bytes that fail the frame checksum.
    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError>;

    /// Tears the channel down and establishes a fresh one to the same
    /// peer recipe (relaunch the child; redial the address with
    /// backoff). The caller owns re-running any protocol handshake and
    /// restoring peer state afterwards.
    ///
    /// # Errors
    /// [`NetError::Spawn`]/[`NetError::Connect`] when no fresh channel
    /// could be brought up.
    fn reconnect(&mut self) -> Result<(), NetError>;

    /// True when [`Transport::reconnect`] can plausibly succeed — the
    /// hook afd-stream's supervisor keys recovery on.
    fn supports_reconnect(&self) -> bool {
        false
    }

    /// Out-of-band diagnostics for error attribution (the child's
    /// stderr tail for stdio transports). `likely_dead` says the channel
    /// is gone, so the implementation may end the peer first (a stdio
    /// child is killed and reaped) and include everything it wrote,
    /// panic messages that raced the failure among them.
    fn diagnostics(&mut self, likely_dead: bool) -> Vec<String> {
        let _ = likely_dead;
        Vec::new()
    }

    /// Closes the channel gracefully after the protocol said goodbye:
    /// close the write side and (for child processes) await the exit
    /// within `deadline`.
    ///
    /// # Errors
    /// [`NetError::Timeout`] when the peer did not wind down in time.
    fn finish(&mut self, deadline: Duration) -> Result<(), NetError>;

    /// A short human-readable peer identity (program path, socket
    /// address) for error messages.
    fn peer(&self) -> String;
}

// -------------------------------------------------------- frame reading

type FrameResult = Result<(u8, Vec<u8>), NetError>;

/// The receiving half of a transport: a reader thread decoding frames
/// off the channel, handing them over an mpsc so `recv` can time out.
#[derive(Debug)]
struct FrameRx {
    frames: mpsc::Receiver<FrameResult>,
    reader: Option<JoinHandle<()>>,
}

impl FrameRx {
    fn spawn<R: Read + Send + 'static>(source: R, peer: &'static str) -> Self {
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || reader_loop(source, peer, &tx));
        FrameRx {
            frames: rx,
            reader: Some(reader),
        }
    }

    fn recv(&self, deadline: Duration) -> FrameResult {
        match self.frames.recv_timeout(deadline) {
            Ok(item) => item,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
                millis: deadline.as_millis() as u64,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Read(
                "transport reader thread ended (peer gone)".into(),
            )),
        }
    }

    fn join(&mut self) {
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop<R: Read>(source: R, peer: &'static str, tx: &mpsc::Sender<FrameResult>) {
    let mut source = BufReader::new(source);
    loop {
        let item = match read_frame_from(&mut source) {
            Ok(StreamFrame::Frame(kind, payload)) => Ok((kind, payload)),
            Ok(StreamFrame::Eof) => Err(NetError::Read(format!(
                "{peer} closed the channel (crashed, killed, or exited)"
            ))),
            Err(FrameReadError::Io(e)) => Err(NetError::Read(format!("read from {peer}: {e}"))),
            Err(FrameReadError::Decode(e)) => Err(NetError::Decode(format!("{peer} frame: {e}"))),
        };
        let done = item.is_err();
        if tx.send(item).is_err() || done {
            return;
        }
    }
}

// --------------------------------------------------------------- stdio

/// One live child incarnation: the process plus the threads shuttling
/// its stdout frames and stderr lines back.
///
/// Owning I/O in a separate struct makes reconnect a `mem::replace`:
/// the old incarnation's drop kills the child and joins both threads.
#[derive(Debug)]
struct StdioIo {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    rx: FrameRx,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    stderr_reader: Option<JoinHandle<()>>,
}

impl StdioIo {
    fn launch(cmd: &WorkerCommand) -> Result<Self, NetError> {
        let mut child = Command::new(cmd.program())
            .args(cmd.args())
            .envs(cmd.envs().iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| NetError::Spawn(format!("spawn {}: {e}", cmd.program().display())))?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let rx = FrameRx::spawn(stdout, "worker");
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail_writer = Arc::clone(&tail);
        let stderr_reader = std::thread::spawn(move || stderr_loop(stderr, &tail_writer));
        Ok(StdioIo {
            child,
            stdin: Some(stdin),
            rx,
            stderr_tail: tail,
            stderr_reader: Some(stderr_reader),
        })
    }

    /// The captured stderr tail. When the channel is dead (`reap`), the
    /// child is killed and reaped and the stderr thread joined first:
    /// once the child is gone its stderr pipe closes, so the thread
    /// drains every line the child wrote before it failed, and panic
    /// messages that raced the error are included deterministically.
    fn stderr_snapshot(&mut self, reap: bool) -> Vec<String> {
        if reap {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr_reader.take() {
                let _ = h.join();
            }
        }
        self.stderr_tail
            .lock()
            .map(|tail| tail.iter().cloned().collect())
            .unwrap_or_default()
    }
}

impl Drop for StdioIo {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.rx.join();
        if let Some(h) = self.stderr_reader.take() {
            let _ = h.join();
        }
    }
}

fn stderr_loop(stderr: ChildStderr, tail: &Arc<Mutex<VecDeque<String>>>) {
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { return };
        if let Ok(mut tail) = tail.lock() {
            if tail.len() == STDERR_TAIL_LINES {
                tail.pop_front();
            }
            tail.push_back(line);
        }
    }
}

/// A framed channel over a child process's stdin/stdout.
///
/// The spawn recipe is retained, so [`Transport::reconnect`] kills the
/// old incarnation and launches a fresh child from the same command —
/// minus any environment keys registered via
/// [`StdioTransport::strip_env_on_reconnect`] (afd-stream strips its
/// fault-injection hook so an injected fault fires once per plan, not
/// once per incarnation).
#[derive(Debug)]
pub struct StdioTransport {
    cmd: WorkerCommand,
    strip_on_reconnect: Vec<String>,
    io: StdioIo,
}

impl StdioTransport {
    /// Launches the child with piped stdin/stdout/stderr.
    ///
    /// # Errors
    /// [`NetError::Spawn`] when the program cannot be started.
    pub fn launch(cmd: &WorkerCommand) -> Result<Self, NetError> {
        Ok(StdioTransport {
            cmd: cmd.clone(),
            strip_on_reconnect: Vec::new(),
            io: StdioIo::launch(cmd)?,
        })
    }

    /// Registers an environment key to drop from the command before any
    /// reconnect relaunch (the running child is untouched).
    #[must_use]
    pub fn strip_env_on_reconnect(mut self, key: impl Into<String>) -> Self {
        self.strip_on_reconnect.push(key.into());
        self
    }

    /// The child's process id (fault-injection tests kill it by pid).
    pub fn pid(&self) -> u32 {
        self.io.child.id()
    }

    /// Kills the child outright — the fault every transport error path
    /// must survive.
    pub fn kill(&mut self) {
        let _ = self.io.child.kill();
        let _ = self.io.child.wait();
    }

    /// Replaces the command future reconnects use. The running child is
    /// untouched; fault tests point this at a broken program to make
    /// every recovery attempt fail.
    pub fn set_command(&mut self, cmd: WorkerCommand) {
        self.cmd = cmd;
    }

    /// The retained spawn recipe.
    pub fn command(&self) -> &WorkerCommand {
        &self.cmd
    }
}

impl Transport for StdioTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        match self.io.stdin.as_mut() {
            None => Err(NetError::Write("worker stdin already closed".into())),
            Some(stdin) => stdin
                .write_all(frame)
                .and_then(|()| stdin.flush())
                .map_err(|e| NetError::Write(format!("write to worker: {e}"))),
        }
    }

    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        self.io.rx.recv(deadline)
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        for key in &self.strip_on_reconnect {
            self.cmd.remove_env(key);
        }
        let io = StdioIo::launch(&self.cmd)?;
        // The old incarnation's drop kills its child and joins threads.
        let _old = std::mem::replace(&mut self.io, io);
        drop(_old);
        Ok(())
    }

    fn supports_reconnect(&self) -> bool {
        true
    }

    fn diagnostics(&mut self, likely_dead: bool) -> Vec<String> {
        self.io.stderr_snapshot(likely_dead)
    }

    fn finish(&mut self, deadline: Duration) -> Result<(), NetError> {
        drop(self.io.stdin.take());
        let start = Instant::now();
        loop {
            match self.io.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if start.elapsed() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    return Err(NetError::Timeout {
                        millis: deadline.as_millis() as u64,
                    })
                }
                Err(e) => return Err(NetError::Read(format!("wait for worker exit: {e}"))),
            }
        }
    }

    fn peer(&self) -> String {
        self.cmd.program().display().to_string()
    }
}

// ----------------------------------------------------------------- tcp

/// Redial schedule for [`TcpTransport::reconnect`]: exponentially
/// backed-off attempts against the same address. The defaults
/// (8 attempts, 10 ms doubling to a 250 ms cap, ~1.3 s total) ride
/// *inside* afd-stream's per-respawn retry budget, so one supervisor
/// retry absorbs a worker listener that needs a moment to come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Dial attempts before giving up (at least 1).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles per attempt after.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
        }
    }
}

/// What one live TCP incarnation owns: the write half plus the reader
/// thread decoding frames off a clone of the stream.
#[derive(Debug)]
struct TcpIo {
    writer: TcpStream,
    rx: FrameRx,
}

impl TcpIo {
    fn open(addr: SocketAddr) -> Result<Self, NetError> {
        let writer =
            TcpStream::connect(addr).map_err(|e| NetError::Connect(format!("dial {addr}: {e}")))?;
        let _ = writer.set_nodelay(true);
        let read_half = writer
            .try_clone()
            .map_err(|e| NetError::Connect(format!("clone stream to {addr}: {e}")))?;
        Ok(TcpIo {
            writer,
            rx: FrameRx::spawn(read_half, "peer"),
        })
    }
}

impl Drop for TcpIo {
    fn drop(&mut self) {
        // Unblock the reader thread so its join cannot hang.
        let _ = self.writer.shutdown(Shutdown::Both);
        self.rx.join();
    }
}

/// A framed channel over a TCP connection.
///
/// The address is retained, so [`Transport::reconnect`] redials it
/// under the [`ReconnectPolicy`] — the TCP analogue of respawning a
/// child. What that recovers: a dropped connection to a listener that
/// is still (or again) accepting. What it cannot: a listener that never
/// comes back within the backoff schedule — that surfaces as
/// [`NetError::Connect`] and, through afd-stream's retry budget,
/// eventually poisons the session like an unspawnable worker would.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    policy: ReconnectPolicy,
    io: Option<TcpIo>,
}

impl TcpTransport {
    /// Dials `addr` (an `IP:PORT` literal) once.
    ///
    /// # Errors
    /// [`NetError::Connect`] on a malformed address or a failed dial.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let addr = parse_listen_addr(addr)?;
        Ok(TcpTransport {
            addr,
            policy: ReconnectPolicy::default(),
            io: Some(TcpIo::open(addr)?),
        })
    }

    /// Overrides the redial schedule.
    #[must_use]
    pub fn with_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops the connection without redialing — the test hook that
    /// simulates losing a remote worker (the peer sees EOF and its
    /// session state is gone; the next request errors and recovery
    /// redials).
    pub fn sever(&mut self) {
        self.io = None;
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        match self.io.as_mut() {
            None => Err(NetError::Write(format!("not connected to {}", self.addr))),
            Some(io) => io
                .writer
                .write_all(frame)
                .and_then(|()| io.writer.flush())
                .map_err(|e| NetError::Write(format!("write to {}: {e}", self.addr))),
        }
    }

    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
        match self.io.as_ref() {
            None => Err(NetError::Read(format!("not connected to {}", self.addr))),
            Some(io) => io.rx.recv(deadline),
        }
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.io = None;
        let mut backoff = self.policy.initial_backoff;
        let mut last = String::from("no attempts configured");
        let attempts = self.policy.attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.policy.max_backoff);
            }
            match TcpIo::open(self.addr) {
                Ok(io) => {
                    self.io = Some(io);
                    return Ok(());
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(NetError::Connect(format!(
            "reconnect to {}: {attempts} attempt(s) failed, last: {last}",
            self.addr
        )))
    }

    fn supports_reconnect(&self) -> bool {
        true
    }

    fn finish(&mut self, _deadline: Duration) -> Result<(), NetError> {
        if let Some(io) = self.io.take() {
            drop(io);
        }
        Ok(())
    }

    fn peer(&self) -> String {
        self.addr.to_string()
    }
}

// ----------------------------------------------------------- addresses

/// Parses a listen address (`IP:PORT` literal; port 0 binds an
/// ephemeral port).
///
/// # Errors
/// [`NetError::Connect`] when the literal does not parse.
pub fn parse_listen_addr(s: &str) -> Result<SocketAddr, NetError> {
    s.parse::<SocketAddr>()
        .map_err(|e| NetError::Connect(format!("bad socket address {s:?}: {e}")))
}

/// Parses a connect address: like [`parse_listen_addr`] but port 0 is
/// rejected — nothing can be dialed on the ephemeral wildcard.
///
/// # Errors
/// [`NetError::Connect`] for a malformed literal or a zero port.
pub fn parse_connect_addr(s: &str) -> Result<SocketAddr, NetError> {
    let addr = parse_listen_addr(s)?;
    if addr.port() == 0 {
        return Err(NetError::Connect(format!(
            "bad socket address {s:?}: port 0 is bind-only (the listener prints its real port)"
        )));
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_wire::write_frame_to;
    use std::net::TcpListener;

    fn echo_listener() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve up to two connections so reconnect tests pass.
            for _ in 0..2 {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(StreamFrame::Frame(kind, payload)) = read_frame_from(&mut reader) {
                    if write_frame_to(&mut writer, kind.wrapping_add(1), &payload).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        afd_wire::write_frame(kind, payload, &mut out).unwrap();
        out
    }

    #[test]
    fn tcp_round_trip_and_reconnect() {
        let (addr, handle) = echo_listener();
        let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
        assert!(t.supports_reconnect());
        t.send(&framed(7, b"hello")).unwrap();
        let (kind, payload) = t.recv(Duration::from_secs(5)).unwrap();
        assert_eq!((kind, payload.as_slice()), (8, b"hello".as_slice()));

        // Severing simulates a lost worker: requests fail typed, and
        // reconnect dials a fresh connection to the same listener.
        t.sever();
        assert!(matches!(t.send(&framed(7, b"x")), Err(NetError::Write(_))));
        t.reconnect().unwrap();
        t.send(&framed(9, b"again")).unwrap();
        let (kind, _) = t.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(kind, 10);
        t.finish(Duration::from_millis(100)).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn tcp_recv_deadline_is_typed() {
        // A listener that accepts but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
        match t.recv(Duration::from_millis(50)) {
            Err(NetError::Timeout { millis: 50 }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        drop(t);
        let _ = hold.join();
    }

    /// A port nothing listens on: port 1 is outside the ephemeral range,
    /// so no test's `bind("127.0.0.1:0")` can be handed it.
    const DEAD_ADDR: &str = "127.0.0.1:1";

    #[test]
    fn tcp_connect_failure_is_typed() {
        match TcpTransport::connect(DEAD_ADDR) {
            Err(NetError::Connect(_)) => {}
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn reconnect_backoff_gives_up_with_attempt_count() {
        let (live, handle) = echo_listener();
        let mut t = TcpTransport::connect(&live.to_string())
            .unwrap()
            .with_policy(ReconnectPolicy {
                attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            });
        t.addr = DEAD_ADDR.parse().unwrap(); // Redirect reconnects at the dead port.
        match t.reconnect() {
            Err(NetError::Connect(msg)) => assert!(msg.contains("3 attempt(s)"), "{msg}"),
            other => panic!("expected connect error, got {other:?}"),
        }
        drop(t);
        // The echo thread serves two connections and this test opened
        // only one — poke the second accept so join cannot hang.
        drop(std::net::TcpStream::connect(live));
        let _ = handle.join();
    }

    #[test]
    fn address_parsing_is_typed() {
        assert!(parse_listen_addr("127.0.0.1:0").is_ok());
        assert!(parse_listen_addr("not-an-address").is_err());
        assert!(parse_listen_addr("127.0.0.1").is_err());
        assert!(parse_connect_addr("127.0.0.1:4100").is_ok());
        match parse_connect_addr("127.0.0.1:0") {
            Err(NetError::Connect(msg)) => assert!(msg.contains("port 0"), "{msg}"),
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn stdio_spawn_failure_is_typed() {
        let cmd = WorkerCommand::new("/definitely/not/a/binary");
        match StdioTransport::launch(&cmd) {
            Err(NetError::Spawn(_)) => {}
            other => panic!("expected spawn error, got {other:?}"),
        }
    }
}
