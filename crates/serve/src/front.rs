//! The socket front door: [`AfdServe`] behind a TCP accept loop, plus
//! the typed [`ServeClient`] that drives it.
//!
//! The library API ([`AfdServe`]) is a single-process, single-owner
//! object. This module puts a wire protocol in front of it so remote
//! tenants can register, enqueue, tick and read scores over a socket:
//!
//! * **Framing is reused, not reinvented.** Every request travels as
//!   one standard afd-wire frame of kind
//!   [`afd_wire::KIND_SERVE_REQUEST`]; every request is answered by
//!   exactly one frame of kind [`afd_wire::KIND_SERVE_RESPONSE`]. The
//!   magic/version/FNV-1a checksum layer is the same one snapshots and
//!   shard workers use, so a torn or bit-flipped request is a typed
//!   decode error, never a misparsed command.
//! * **Errors are answers.** A bad token, a stale handle, a queue at
//!   cap — all are encoded [`ServeError`]s sent in-band
//!   ([`ServeResponse::Err`]); the connection stays open and may retry.
//!   Only a connection-cap rejection closes the socket, and even that
//!   is answered with one typed
//!   [`ServeError::Backpressure`]/[`BackpressureScope::Connections`]
//!   frame first.
//! * **Auth is a protocol concern, not a transport one.** When
//!   [`FrontConfig::auth_token`] is set, a connection must open with
//!   [`ServeRequest::Hello`] carrying the shared secret (plus a tenant
//!   label for attribution) before any stateful request; failures are
//!   typed [`ServeError::Auth`] answers. The transport itself is
//!   plaintext TCP — TLS is a recorded follow-up, so tokens must only
//!   cross trusted networks.
//! * **A dropped connection is a deterministic event.** The server
//!   tracks which handles each connection registered. When the
//!   connection ends with handles still held, the configured
//!   [`DisconnectPolicy`] applies: `Release` frees them (slots reusable,
//!   handles stale), `Park` evicts them to spill (cold but addressable —
//!   the tenant may reconnect and resume via the same handle). Either
//!   way the registry never leaks a session to a vanished client, and
//!   the event is counted in `connections_dropped`.
//!
//! Engines cross the wire as their framed snapshot bytes (the same
//! `SessionSnapshot` format `afd save` writes): [`ServeRequest::Register`]
//! restores them into a resident engine on the server's configured
//! backend; [`ServeRequest::RegisterSnapshot`] validates and parks them
//! cold — the cheap path to a large registry.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use afd_engine::{AfdEngine, RestoreRequest};
use afd_net::{parse_listen_addr, Client, NetError};
use afd_relation::Fd;
use afd_stream::{RowDelta, StreamScores};
use afd_wire::{
    write_frame_to, Decode, DecodeError, Encode, Reader, StreamFrame, KIND_SERVE_REQUEST,
    KIND_SERVE_RESPONSE,
};

use crate::error::{BackpressureScope, ServeError};
use crate::registry::SessionHandle;
use crate::serve::{AfdServe, ServeStats, TickReport};

// ---------------------------------------------------------------------
// Protocol vocabulary

/// One request to a serving front door. Travels as the payload of a
/// [`afd_wire::KIND_SERVE_REQUEST`] frame; every variant is answered by
/// exactly one [`ServeResponse`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Opens the session: presents the shared-secret token and a tenant
    /// label. Required before any stateful request when the server has
    /// [`FrontConfig::auth_token`] configured; a no-op courtesy
    /// otherwise. A refused `Hello` leaves the connection open.
    Hello {
        /// The shared secret; compared verbatim.
        token: String,
        /// Who this connection is, for attribution in logs/audits.
        tenant: String,
    },
    /// Registers a session from framed snapshot bytes and makes it
    /// resident (restored on the server's configured backend).
    /// Answered with [`ServeResponse::Handle`].
    Register {
        /// `SessionSnapshot` bytes (what `AfdEngine::save` produces).
        snapshot: Vec<u8>,
    },
    /// Registers a session from framed snapshot bytes *cold*: validated
    /// and spilled, no engine built until first touch. Answered with
    /// [`ServeResponse::Handle`].
    RegisterSnapshot {
        /// `SessionSnapshot` bytes.
        snapshot: Vec<u8>,
    },
    /// Queues one delta for the session. Answered with
    /// [`ServeResponse::Pending`] (the session's queue depth after).
    Enqueue {
        /// The target session.
        handle: SessionHandle,
        /// The delta to queue.
        delta: RowDelta,
    },
    /// Runs one budgeted tick. Answered with [`ServeResponse::Tick`].
    Tick,
    /// Adds a scored subscription. Answered with
    /// [`ServeResponse::Subscribed`] (the candidate id).
    Subscribe {
        /// The target session.
        handle: SessionHandle,
        /// The FD to maintain scores for.
        fd: Fd,
    },
    /// Reads a candidate's scores. Answered with
    /// [`ServeResponse::Scores`].
    Scores {
        /// The target session.
        handle: SessionHandle,
        /// The candidate id from `Subscribe`.
        candidate: usize,
    },
    /// Releases the session (handle stale forever after). Answered with
    /// [`ServeResponse::Ok`].
    Release {
        /// The session to release.
        handle: SessionHandle,
    },
    /// Reads the server census (connection counters included). Answered
    /// with [`ServeResponse::Stats`].
    Stats,
    /// Asks the whole front door to stop accepting and shut down.
    /// Answered with [`ServeResponse::Ok`], then the connection closes.
    Shutdown,
}

impl Encode for ServeRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeRequest::Hello { token, tenant } => {
                out.push(0);
                token.encode(out);
                tenant.encode(out);
            }
            ServeRequest::Register { snapshot } => {
                out.push(1);
                snapshot.encode(out);
            }
            ServeRequest::RegisterSnapshot { snapshot } => {
                out.push(2);
                snapshot.encode(out);
            }
            ServeRequest::Enqueue { handle, delta } => {
                out.push(3);
                handle.encode(out);
                delta.encode(out);
            }
            ServeRequest::Tick => out.push(4),
            ServeRequest::Subscribe { handle, fd } => {
                out.push(5);
                handle.encode(out);
                fd.encode(out);
            }
            ServeRequest::Scores { handle, candidate } => {
                out.push(6);
                handle.encode(out);
                candidate.encode(out);
            }
            ServeRequest::Release { handle } => {
                out.push(7);
                handle.encode(out);
            }
            ServeRequest::Stats => out.push(8),
            ServeRequest::Shutdown => out.push(9),
        }
    }
}

impl Decode for ServeRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ServeRequest::Hello {
                token: String::decode(r)?,
                tenant: String::decode(r)?,
            },
            1 => ServeRequest::Register {
                snapshot: Vec::<u8>::decode(r)?,
            },
            2 => ServeRequest::RegisterSnapshot {
                snapshot: Vec::<u8>::decode(r)?,
            },
            3 => ServeRequest::Enqueue {
                handle: SessionHandle::decode(r)?,
                delta: RowDelta::decode(r)?,
            },
            4 => ServeRequest::Tick,
            5 => ServeRequest::Subscribe {
                handle: SessionHandle::decode(r)?,
                fd: Fd::decode(r)?,
            },
            6 => ServeRequest::Scores {
                handle: SessionHandle::decode(r)?,
                candidate: usize::decode(r)?,
            },
            7 => ServeRequest::Release {
                handle: SessionHandle::decode(r)?,
            },
            8 => ServeRequest::Stats,
            9 => ServeRequest::Shutdown,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "ServeRequest",
                    tag,
                })
            }
        })
    }
}

/// One answer from a serving front door — the payload of a
/// [`afd_wire::KIND_SERVE_RESPONSE`] frame.
#[derive(Debug)]
pub enum ServeResponse {
    /// The request succeeded with nothing to return.
    Ok,
    /// A registration succeeded; this names the session from now on.
    Handle(SessionHandle),
    /// An enqueue succeeded; the session's pending-queue depth after.
    Pending(u64),
    /// A tick ran.
    Tick(TickReport),
    /// A subscription was added; the candidate id for `Scores`.
    Subscribed(u64),
    /// A score read.
    Scores(StreamScores),
    /// A census, with the front door's connection counters overlaid.
    Stats(ServeStats),
    /// The request failed; the connection stays open (except at the
    /// connection cap, which closes after this answer).
    Err(ServeError),
}

impl Encode for ServeResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeResponse::Ok => out.push(0),
            ServeResponse::Handle(h) => {
                out.push(1);
                h.encode(out);
            }
            ServeResponse::Pending(n) => {
                out.push(2);
                n.encode(out);
            }
            ServeResponse::Tick(report) => {
                out.push(3);
                report.encode(out);
            }
            ServeResponse::Subscribed(cid) => {
                out.push(4);
                cid.encode(out);
            }
            ServeResponse::Scores(scores) => {
                out.push(5);
                scores.encode(out);
            }
            ServeResponse::Stats(stats) => {
                out.push(6);
                stats.encode(out);
            }
            ServeResponse::Err(e) => {
                out.push(7);
                e.encode(out);
            }
        }
    }
}

impl Decode for ServeResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ServeResponse::Ok,
            1 => ServeResponse::Handle(SessionHandle::decode(r)?),
            2 => ServeResponse::Pending(u64::decode(r)?),
            3 => ServeResponse::Tick(TickReport::decode(r)?),
            4 => ServeResponse::Subscribed(u64::decode(r)?),
            5 => ServeResponse::Scores(StreamScores::decode(r)?),
            6 => ServeResponse::Stats(ServeStats::decode(r)?),
            7 => ServeResponse::Err(ServeError::decode(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "ServeResponse",
                    tag,
                })
            }
        })
    }
}

impl Encode for SessionHandle {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
        self.generation().encode(out);
    }
}

impl Decode for SessionHandle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SessionHandle::from_raw(u32::decode(r)?, u32::decode(r)?))
    }
}

impl Encode for BackpressureScope {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            BackpressureScope::Session => 0,
            BackpressureScope::Global => 1,
            BackpressureScope::Disk => 2,
            BackpressureScope::Connections => 3,
        });
    }
}

impl Decode for BackpressureScope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => BackpressureScope::Session,
            1 => BackpressureScope::Global,
            2 => BackpressureScope::Disk,
            3 => BackpressureScope::Connections,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "BackpressureScope",
                    tag,
                })
            }
        })
    }
}

/// The wire form of [`ServeError`] is **lossy for server-side faults**:
/// [`ServeError::Engine`], [`ServeError::Io`], [`ServeError::CorruptSpill`]
/// and the injected-crash variant carry types that do not cross the
/// wire, so they travel as [`ServeError::Remote`] with their display
/// string. The admission vocabulary (stale handle, backpressure,
/// capacity, config, auth) round-trips exactly.
impl Encode for ServeError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeError::StaleHandle(h) => {
                out.push(0);
                h.encode(out);
            }
            ServeError::Backpressure {
                scope,
                cap,
                pending,
            } => {
                out.push(1);
                scope.encode(out);
                cap.encode(out);
                pending.encode(out);
            }
            ServeError::AtCapacity { cap } => {
                out.push(2);
                cap.encode(out);
            }
            ServeError::Config(msg) => {
                out.push(3);
                msg.encode(out);
            }
            ServeError::Auth(msg) => {
                out.push(4);
                msg.encode(out);
            }
            ServeError::Remote(msg) => {
                out.push(5);
                msg.encode(out);
            }
            lossy => {
                out.push(5);
                lossy.to_string().encode(out);
            }
        }
    }
}

impl Decode for ServeError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ServeError::StaleHandle(SessionHandle::decode(r)?),
            1 => ServeError::Backpressure {
                scope: BackpressureScope::decode(r)?,
                cap: usize::decode(r)?,
                pending: usize::decode(r)?,
            },
            2 => ServeError::AtCapacity {
                cap: usize::decode(r)?,
            },
            3 => ServeError::Config(String::decode(r)?),
            4 => ServeError::Auth(String::decode(r)?),
            5 => ServeError::Remote(String::decode(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "ServeError",
                    tag,
                })
            }
        })
    }
}

impl Encode for TickReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.deltas_applied.encode(out);
        self.deltas_failed.encode(out);
        self.sessions_visited.encode(out);
        self.restores.encode(out);
        self.evictions.encode(out);
        self.restore_failed.encode(out);
        self.spill_backpressure.encode(out);
        self.budget_exhausted.encode(out);
        self.remaining.encode(out);
    }
}

impl Decode for TickReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TickReport {
            deltas_applied: usize::decode(r)?,
            deltas_failed: usize::decode(r)?,
            sessions_visited: usize::decode(r)?,
            restores: usize::decode(r)?,
            evictions: usize::decode(r)?,
            restore_failed: usize::decode(r)?,
            spill_backpressure: bool::decode(r)?,
            budget_exhausted: bool::decode(r)?,
            remaining: usize::decode(r)?,
        })
    }
}

impl Encode for ServeStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sessions.encode(out);
        self.resident.encode(out);
        self.pending.encode(out);
        self.spill_bytes.encode(out);
        self.ticks.encode(out);
        self.deltas_applied.encode(out);
        self.deltas_failed.encode(out);
        self.evictions.encode(out);
        self.restores.encode(out);
        self.rejected_session.encode(out);
        self.rejected_global.encode(out);
        self.spill_remove_failed.encode(out);
        self.restore_failed.encode(out);
        self.journal_appends.encode(out);
        self.journal_compactions.encode(out);
        self.connections_accepted.encode(out);
        self.connections_rejected.encode(out);
        self.connections_dropped.encode(out);
    }
}

impl Decode for ServeStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ServeStats {
            sessions: usize::decode(r)?,
            resident: usize::decode(r)?,
            pending: usize::decode(r)?,
            spill_bytes: u64::decode(r)?,
            ticks: u64::decode(r)?,
            deltas_applied: u64::decode(r)?,
            deltas_failed: u64::decode(r)?,
            evictions: u64::decode(r)?,
            restores: u64::decode(r)?,
            rejected_session: u64::decode(r)?,
            rejected_global: u64::decode(r)?,
            spill_remove_failed: u64::decode(r)?,
            restore_failed: u64::decode(r)?,
            journal_appends: u64::decode(r)?,
            journal_compactions: u64::decode(r)?,
            connections_accepted: u64::decode(r)?,
            connections_rejected: u64::decode(r)?,
            connections_dropped: u64::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Server

/// What happens to the handles a connection registered when that
/// connection ends without releasing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectPolicy {
    /// Release them: slots are freed for reuse, the handles are typed
    /// stale forever. The default — a vanished client's sessions do not
    /// occupy the registry.
    Release,
    /// Park them: evict to spill (cold but addressable). A tenant that
    /// reconnects can resume through the same handle; the sessions
    /// occupy registry slots (and disk) until someone releases them.
    Park,
}

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// When set, every connection must open with a matching
    /// [`ServeRequest::Hello`] before any stateful request.
    pub auth_token: Option<String>,
    /// Most concurrently admitted connections; the excess are answered
    /// with one typed [`BackpressureScope::Connections`] frame and
    /// closed. At least 1.
    pub max_connections: usize,
    /// What happens to a dropped connection's registered handles.
    pub disconnect: DisconnectPolicy,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            auth_token: None,
            max_connections: 64,
            disconnect: DisconnectPolicy::Release,
        }
    }
}

struct Shared {
    cfg: FrontConfig,
    addr: SocketAddr,
    serve: Mutex<AfdServe>,
    stop: AtomicBool,
    open: AtomicUsize,
    accepted: AtomicU64,
    rejected: AtomicU64,
    dropped: AtomicU64,
    /// Read halves of live connections, so `stop()` can unblock their
    /// handler threads with a socket shutdown. Entries remove
    /// themselves when the handler exits — churn does not leak fds.
    conns: Mutex<HashMap<u64, TcpStream>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Locks the server, riding out a poisoned mutex (a panicking
    /// handler must not take the whole front door down).
    fn serve(&self) -> MutexGuard<'_, AfdServe> {
        self.serve
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A census with the front door's connection counters overlaid.
    fn stats_overlaid(&self, serve: &AfdServe) -> ServeStats {
        let mut stats = serve.stats();
        stats.connections_accepted = self.accepted.load(Ordering::Relaxed);
        stats.connections_rejected = self.rejected.load(Ordering::Relaxed);
        stats.connections_dropped = self.dropped.load(Ordering::Relaxed);
        stats
    }

    /// Connects to our own listener to unblock a blocking `accept`.
    fn poke(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    /// Answers one request. `authed`/`tenant`/`handles` are the
    /// connection's state: whether `Hello` succeeded, who the tenant
    /// says it is, and which handles this connection still owns.
    fn answer(
        &self,
        req: ServeRequest,
        authed: &mut bool,
        tenant: &mut String,
        handles: &mut HashSet<SessionHandle>,
    ) -> ServeResponse {
        if let ServeRequest::Hello { token, tenant: who } = req {
            return match &self.cfg.auth_token {
                Some(expect) if !tokens_match(expect, &token) => {
                    ServeResponse::Err(ServeError::Auth("bad token".to_string()))
                }
                _ => {
                    *authed = true;
                    *tenant = who;
                    ServeResponse::Ok
                }
            };
        }
        if !*authed {
            return ServeResponse::Err(ServeError::Auth(
                "hello with a valid token required first".to_string(),
            ));
        }
        match req {
            ServeRequest::Hello { .. } => unreachable!("handled above"),
            ServeRequest::Register { snapshot } => {
                let mut serve = self.serve();
                let backend = serve.config().backend.clone();
                let registered =
                    AfdEngine::restore_with_backend(&RestoreRequest::new(snapshot), backend)
                        .map_err(ServeError::from)
                        .and_then(|engine| serve.register(engine));
                match registered {
                    Ok(h) => {
                        handles.insert(h);
                        ServeResponse::Handle(h)
                    }
                    Err(e) => ServeResponse::Err(e),
                }
            }
            ServeRequest::RegisterSnapshot { snapshot } => {
                match self.serve().register_snapshot(&snapshot) {
                    Ok(h) => {
                        handles.insert(h);
                        ServeResponse::Handle(h)
                    }
                    Err(e) => ServeResponse::Err(e),
                }
            }
            ServeRequest::Enqueue { handle, delta } => match self.serve().enqueue(handle, delta) {
                Ok(pending) => ServeResponse::Pending(pending as u64),
                Err(e) => ServeResponse::Err(e),
            },
            ServeRequest::Tick => match self.serve().tick() {
                Ok(report) => ServeResponse::Tick(report),
                Err(e) => ServeResponse::Err(e),
            },
            ServeRequest::Subscribe { handle, fd } => match self.serve().subscribe(handle, fd) {
                Ok(cid) => ServeResponse::Subscribed(cid as u64),
                Err(e) => ServeResponse::Err(e),
            },
            ServeRequest::Scores { handle, candidate } => {
                match self.serve().scores(handle, candidate) {
                    Ok(scores) => ServeResponse::Scores(scores),
                    Err(e) => ServeResponse::Err(e),
                }
            }
            ServeRequest::Release { handle } => match self.serve().release(handle) {
                Ok(()) => {
                    handles.remove(&handle);
                    ServeResponse::Ok
                }
                Err(e) => ServeResponse::Err(e),
            },
            ServeRequest::Stats => {
                let serve = self.serve();
                ServeResponse::Stats(self.stats_overlaid(&serve))
            }
            // The stop flag is raised by the connection handler *after*
            // this answer is on the wire — raising it here would race
            // the front door's teardown against the response write and
            // the client could see a dead socket instead of its Ok.
            ServeRequest::Shutdown => ServeResponse::Ok,
        }
    }
}

/// Token equality whose running time does not depend on where the
/// first differing byte is: every byte of `expect` is compared, with no
/// early exit, and a length mismatch is folded into the same result.
fn tokens_match(expect: &str, got: &str) -> bool {
    let (expect, got) = (expect.as_bytes(), got.as_bytes());
    let mut diff = expect.len() ^ got.len();
    for (i, &b) in expect.iter().enumerate() {
        diff |= usize::from(b ^ got.get(i).copied().unwrap_or(0));
    }
    diff == 0
}

fn respond(stream: &mut TcpStream, resp: &ServeResponse) -> std::io::Result<()> {
    write_frame_to(stream, KIND_SERVE_RESPONSE, &resp.encode_to_vec()).map_err(|e| match e {
        afd_wire::FrameReadError::Io(e) => e,
        afd_wire::FrameReadError::Decode(e) => std::io::Error::other(e.to_string()),
    })
}

/// One admitted connection, to completion. Requests are answered
/// in order; protocol garbage is answered in-band where possible and
/// otherwise ends the connection; the disconnect policy runs on exit.
fn handle_conn(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let mut write = stream;
    let mut authed = shared.cfg.auth_token.is_none();
    let mut tenant = String::new();
    let mut handles: HashSet<SessionHandle> = HashSet::new();
    if let Ok(mut read) = write.try_clone() {
        // Eof and read errors both end the connection.
        while let Ok(StreamFrame::Frame(kind, payload)) = afd_wire::read_frame_from(&mut read) {
            if kind != KIND_SERVE_REQUEST {
                let resp = ServeResponse::Err(ServeError::Config(format!(
                    "unexpected frame kind {kind} (want {KIND_SERVE_REQUEST})"
                )));
                if respond(&mut write, &resp).is_err() {
                    break;
                }
                continue;
            }
            let req = match ServeRequest::decode_exact(&payload) {
                Ok(req) => req,
                Err(e) => {
                    let resp =
                        ServeResponse::Err(ServeError::Config(format!("bad request frame: {e}")));
                    if respond(&mut write, &resp).is_err() {
                        break;
                    }
                    continue;
                }
            };
            let closing = matches!(req, ServeRequest::Shutdown);
            let resp = shared.answer(req, &mut authed, &mut tenant, &mut handles);
            let answered = respond(&mut write, &resp).is_ok();
            if closing {
                // Only now — with the Ok answered — wake the accept
                // loop so teardown cannot race the response write.
                shared.stop.store(true, Ordering::SeqCst);
                shared.poke();
            }
            if !answered || closing {
                break;
            }
        }
    }
    // The disconnect policy: never leak a vanished client's sessions.
    if !handles.is_empty() {
        let mut serve = shared.serve();
        for h in handles.drain() {
            match shared.cfg.disconnect {
                DisconnectPolicy::Release => {
                    let _ = serve.release(h);
                }
                DisconnectPolicy::Park => {
                    let _ = serve.evict(h);
                }
            }
        }
        drop(serve);
        shared.dropped.fetch_add(1, Ordering::Relaxed);
        if !tenant.is_empty() {
            eprintln!("afd-serve: tenant {tenant:?} disconnected holding handles");
        }
    }
    shared
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&conn_id);
    shared.open.fetch_sub(1, Ordering::SeqCst);
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut next_conn = 0u64;
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match conn {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let open = shared.open.load(Ordering::SeqCst);
        if open >= shared.cfg.max_connections {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            // One typed answer, then the drop closes the socket.
            let resp = ServeResponse::Err(ServeError::Backpressure {
                scope: BackpressureScope::Connections,
                cap: shared.cfg.max_connections,
                pending: open,
            });
            let _ = respond(&mut stream, &resp);
            continue;
        }
        shared.open.fetch_add(1, Ordering::SeqCst);
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let conn_id = next_conn;
        next_conn += 1;
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(conn_id, clone);
        }
        let worker_shared = Arc::clone(shared);
        let worker = std::thread::spawn(move || handle_conn(&worker_shared, stream, conn_id));
        shared
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(worker);
    }
}

/// The accept-loop server: owns an [`AfdServe`] behind a mutex, admits
/// connections up to [`FrontConfig::max_connections`], and serves each
/// on its own thread until a [`ServeRequest::Shutdown`] (or
/// [`ServeFront::stop`]) ends it.
pub struct ServeFront {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl ServeFront {
    /// Binds `addr` (e.g. `127.0.0.1:0` — port 0 picks a free port;
    /// read the real one back from [`ServeFront::addr`]) and starts
    /// accepting.
    ///
    /// # Errors
    /// [`ServeError::Config`] on an unparseable address or a zero
    /// connection cap; [`ServeError::Io`] when the bind fails.
    pub fn bind(serve: AfdServe, cfg: FrontConfig, addr: &str) -> Result<Self, ServeError> {
        if cfg.max_connections == 0 {
            return Err(ServeError::Config(
                "max_connections: 0 would refuse every connection; want at least 1".to_string(),
            ));
        }
        let addr = parse_listen_addr(addr).map_err(|e| ServeError::Config(e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            addr,
            serve: Mutex::new(serve),
            stop: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&loop_shared, &listener));
        Ok(ServeFront {
            shared,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (real port even when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A census with connection counters overlaid — what a remote
    /// [`ServeRequest::Stats`] would see.
    pub fn stats(&self) -> ServeStats {
        let serve = self.shared.serve();
        self.shared.stats_overlaid(&serve)
    }

    /// Blocks until a client's [`ServeRequest::Shutdown`] (or a
    /// concurrent [`ServeFront::stop`]) ends the accept loop — how
    /// `afd serve --listen` parks its main thread.
    pub fn wait_shutdown(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting, unblocks and joins every connection handler,
    /// and returns the server plus its final census (connection
    /// counters included).
    pub fn stop(mut self) -> (AfdServe, ServeStats) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.poke();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Shut down live connections so blocked handler reads return.
        let conns: Vec<TcpStream> = {
            let mut map = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.drain().map(|(_, s)| s).collect()
        };
        for conn in conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut list = self
                .shared
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            list.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
        let stats = self.shared.stats_overlaid(&self.shared.serve());
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| unreachable!("all front-door threads joined"));
        let serve = shared
            .serve
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (serve, stats)
    }
}

// ---------------------------------------------------------------------
// Client

/// The typed client for a [`ServeFront`]: a blocking, framed,
/// deadline-bounded request/response wrapper over [`afd_net::Client`].
/// Every method sends one request frame and decodes one response frame;
/// a server-side failure comes back as the typed [`ServeError`] the
/// server answered with. A transport failure ([`ServeError::Io`]: a
/// missed deadline, a dropped connection) severs the connection, as
/// [`afd_net::Client`] does: every later request fails with
/// [`ServeError::Io`] until the caller connects a new client.
#[derive(Debug)]
pub struct ServeClient {
    client: Client,
}

fn from_net(e: NetError) -> ServeError {
    ServeError::Io(std::io::Error::other(e.to_string()))
}

impl ServeClient {
    /// Connects to a front door. `deadline` bounds every request's
    /// round-trip ([`afd_net::DEFAULT_CLIENT_DEADLINE`] is a sane
    /// default).
    ///
    /// # Errors
    /// [`ServeError::Config`] on an unparseable address,
    /// [`ServeError::Io`] when the dial fails.
    pub fn connect(addr: &str, deadline: Duration) -> Result<Self, ServeError> {
        // Parse first so a malformed address is a typed Config error,
        // distinct from a refused dial.
        afd_net::parse_connect_addr(addr).map_err(|e| ServeError::Config(e.to_string()))?;
        let client = Client::connect(addr, deadline).map_err(from_net)?;
        Ok(ServeClient { client })
    }

    /// The server address this client dialed.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.client.addr()
    }

    fn request(&mut self, req: &ServeRequest) -> Result<ServeResponse, ServeError> {
        let (kind, payload) = self
            .client
            .request(KIND_SERVE_REQUEST, &req.encode_to_vec())
            .map_err(from_net)?;
        if kind != KIND_SERVE_RESPONSE {
            return Err(ServeError::Remote(format!(
                "unexpected response frame kind {kind} (want {KIND_SERVE_RESPONSE})"
            )));
        }
        Ok(ServeResponse::decode_exact(&payload)?)
    }

    /// Authenticates the connection ([`ServeRequest::Hello`]).
    ///
    /// # Errors
    /// [`ServeError::Auth`] on a bad token (the connection stays usable
    /// — retry with the right one); transport errors as
    /// [`ServeError::Io`].
    pub fn hello(&mut self, token: &str, tenant: &str) -> Result<(), ServeError> {
        match self.request(&ServeRequest::Hello {
            token: token.to_string(),
            tenant: tenant.to_string(),
        })? {
            ServeResponse::Ok => Ok(()),
            other => Err(unexpected("hello", &other)),
        }
    }

    /// Registers snapshot bytes as a resident session.
    pub fn register(&mut self, snapshot: Vec<u8>) -> Result<SessionHandle, ServeError> {
        match self.request(&ServeRequest::Register { snapshot })? {
            ServeResponse::Handle(h) => Ok(h),
            other => Err(unexpected("register", &other)),
        }
    }

    /// Registers snapshot bytes cold (validated, spilled, no engine
    /// until first touch).
    pub fn register_snapshot(&mut self, snapshot: Vec<u8>) -> Result<SessionHandle, ServeError> {
        match self.request(&ServeRequest::RegisterSnapshot { snapshot })? {
            ServeResponse::Handle(h) => Ok(h),
            other => Err(unexpected("register-snapshot", &other)),
        }
    }

    /// Queues one delta; returns the session's pending depth after.
    pub fn enqueue(&mut self, handle: SessionHandle, delta: RowDelta) -> Result<usize, ServeError> {
        match self.request(&ServeRequest::Enqueue { handle, delta })? {
            ServeResponse::Pending(n) => Ok(n as usize),
            other => Err(unexpected("enqueue", &other)),
        }
    }

    /// Runs one budgeted tick on the server.
    pub fn tick(&mut self) -> Result<TickReport, ServeError> {
        match self.request(&ServeRequest::Tick)? {
            ServeResponse::Tick(report) => Ok(report),
            other => Err(unexpected("tick", &other)),
        }
    }

    /// Adds a scored subscription; returns the candidate id.
    pub fn subscribe(&mut self, handle: SessionHandle, fd: Fd) -> Result<usize, ServeError> {
        match self.request(&ServeRequest::Subscribe { handle, fd })? {
            ServeResponse::Subscribed(cid) => Ok(cid as usize),
            other => Err(unexpected("subscribe", &other)),
        }
    }

    /// Reads a candidate's scores (bit-exact across the wire — scores
    /// travel as IEEE-754 bit patterns).
    pub fn scores(
        &mut self,
        handle: SessionHandle,
        candidate: usize,
    ) -> Result<StreamScores, ServeError> {
        match self.request(&ServeRequest::Scores { handle, candidate })? {
            ServeResponse::Scores(scores) => Ok(scores),
            other => Err(unexpected("scores", &other)),
        }
    }

    /// Releases a session.
    pub fn release(&mut self, handle: SessionHandle) -> Result<(), ServeError> {
        match self.request(&ServeRequest::Release { handle })? {
            ServeResponse::Ok => Ok(()),
            other => Err(unexpected("release", &other)),
        }
    }

    /// Reads the server census, connection counters included.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        match self.request(&ServeRequest::Stats)? {
            ServeResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the server to shut down, then closes this connection.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        match self.request(&ServeRequest::Shutdown)? {
            ServeResponse::Ok => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}

fn unexpected(what: &str, resp: &ServeResponse) -> ServeError {
    match resp {
        ServeResponse::Err(e) => {
            // Round-trip the typed error out of the generic answer.
            let bytes = e.encode_to_vec();
            ServeError::decode_exact(&bytes)
                .unwrap_or_else(|_| ServeError::Remote(format!("{what}: undecodable error")))
        }
        other => ServeError::Remote(format!("{what}: unexpected response {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use afd_engine::{AfdEngine, SnapshotRequest, SubscribeRequest};
    use afd_relation::{AttrId, Relation, Value};
    use std::path::PathBuf;

    struct SpillDir(PathBuf);

    impl SpillDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("afd-front-test-{tag}-{}", std::process::id()));
            SpillDir(dir)
        }
    }

    impl Drop for SpillDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn engine_bytes(seed: u64) -> (AfdEngine, Vec<u8>) {
        let rel = Relation::from_pairs([(seed, 10), (seed, 10), (seed + 1, 20)]);
        let mut engine = AfdEngine::from_relation(rel);
        engine
            .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
            .unwrap();
        let bytes = engine.save(&SnapshotRequest::default()).unwrap().bytes;
        (engine, bytes)
    }

    fn insert(x: i64, y: i64) -> RowDelta {
        RowDelta {
            inserts: vec![vec![Value::Int(x), Value::Int(y)]],
            deletes: vec![],
        }
    }

    fn front(tag: &str, cfg: FrontConfig) -> (SpillDir, ServeFront) {
        let dir = SpillDir::new(tag);
        let serve = AfdServe::new(ServeConfig::new(&dir.0)).unwrap();
        let front = ServeFront::bind(serve, cfg, "127.0.0.1:0").unwrap();
        (dir, front)
    }

    fn client(front: &ServeFront) -> ServeClient {
        ServeClient::connect(&front.addr().to_string(), Duration::from_secs(10)).unwrap()
    }

    #[test]
    fn protocol_round_trips_and_rejects_bad_tags() {
        let reqs = [
            ServeRequest::Hello {
                token: "s3cret".into(),
                tenant: "t".into(),
            },
            ServeRequest::Register {
                snapshot: vec![1, 2, 3],
            },
            ServeRequest::Enqueue {
                handle: SessionHandle::from_raw(3, 7),
                delta: insert(1, 2),
            },
            ServeRequest::Tick,
            ServeRequest::Scores {
                handle: SessionHandle::from_raw(0, 0),
                candidate: 2,
            },
            ServeRequest::Shutdown,
        ];
        for req in reqs {
            let bytes = req.encode_to_vec();
            assert_eq!(ServeRequest::decode_exact(&bytes).unwrap(), req);
        }
        assert!(matches!(
            ServeRequest::decode_exact(&[200]),
            Err(DecodeError::BadTag {
                what: "ServeRequest",
                ..
            })
        ));
        // Typed errors round-trip; server-side faults go lossy-Remote.
        let err = ServeError::Backpressure {
            scope: BackpressureScope::Connections,
            cap: 4,
            pending: 4,
        };
        let back = ServeError::decode_exact(&err.encode_to_vec()).unwrap();
        assert!(matches!(
            back,
            ServeError::Backpressure {
                scope: BackpressureScope::Connections,
                cap: 4,
                pending: 4
            }
        ));
        let io = ServeError::Io(std::io::Error::other("disk gone"));
        match ServeError::decode_exact(&io.encode_to_vec()).unwrap() {
            ServeError::Remote(msg) => assert!(msg.contains("disk gone")),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn front_door_serves_bit_identically_to_the_library() {
        let (_dir, front) = front("serve", FrontConfig::default());
        let mut cli = client(&front);
        let (mut twin, bytes) = engine_bytes(0);
        let pre_delta = twin.scores(0).unwrap();
        let h = cli.register(bytes.clone()).unwrap();
        assert_eq!(cli.enqueue(h, insert(5, 5)).unwrap(), 1);
        let report = cli.tick().unwrap();
        assert_eq!(report.deltas_applied, 1);
        twin.delta(&afd_engine::DeltaRequest::new(insert(5, 5)))
            .unwrap();
        let remote = cli.scores(h, 0).unwrap();
        assert!(remote.bits_eq(&twin.scores(0).unwrap()));
        // Cold registration works over the wire too: the snapshot was
        // taken before the delta, so it reads the pre-delta scores.
        let h2 = cli.register_snapshot(bytes).unwrap();
        let cold = cli.scores(h2, 0).unwrap();
        assert!(cold.bits_eq(&pre_delta));
        // Clean release: no handles held at disconnect.
        cli.release(h).unwrap();
        cli.release(h2).unwrap();
        let stats = cli.stats().unwrap();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.sessions, 0);
        drop(cli);
        let (_serve, stats) = front.stop();
        assert_eq!(stats.connections_dropped, 0);
    }

    #[test]
    fn auth_is_required_and_refusals_keep_the_connection() {
        let (_dir, front) = front(
            "auth",
            FrontConfig {
                auth_token: Some("s3cret".to_string()),
                ..FrontConfig::default()
            },
        );
        let mut cli = client(&front);
        // Stateful before hello: typed Auth, in-band.
        assert!(matches!(cli.tick(), Err(ServeError::Auth(_))));
        // Bad token: typed Auth, connection still usable.
        assert!(matches!(cli.hello("wrong", "t"), Err(ServeError::Auth(_))));
        // Right token on the same connection.
        cli.hello("s3cret", "tenant-a").unwrap();
        cli.tick().unwrap();
        drop(cli);
        front.stop();
    }

    #[test]
    fn stale_and_fabricated_handles_answer_in_band() {
        let (_dir, front) = front("stale", FrontConfig::default());
        let mut cli = client(&front);
        let fake = SessionHandle::from_raw(42, 9);
        assert!(matches!(
            cli.scores(fake, 0),
            Err(ServeError::StaleHandle(h)) if h == fake
        ));
        // The connection survived the error.
        cli.tick().unwrap();
        drop(cli);
        front.stop();
    }

    #[test]
    fn connection_cap_answers_typed_backpressure() {
        let (_dir, front) = front(
            "cap",
            FrontConfig {
                max_connections: 1,
                ..FrontConfig::default()
            },
        );
        let mut first = client(&front);
        first.tick().unwrap();
        let mut second = client(&front);
        match second.tick() {
            Err(ServeError::Backpressure {
                scope: BackpressureScope::Connections,
                cap: 1,
                ..
            }) => {}
            other => panic!("expected connection backpressure, got {other:?}"),
        }
        drop(second);
        drop(first);
        let (_serve, stats) = front.stop();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_rejected, 1);
    }

    #[test]
    fn dropped_connections_release_their_handles() {
        let (_dir, front) = front("drop", FrontConfig::default());
        let (_twin, bytes) = engine_bytes(2);
        let mut cli = client(&front);
        let h = cli.register(bytes).unwrap();
        assert_eq!(cli.stats().unwrap().sessions, 1);
        drop(cli); // vanish without releasing
                   // The handler notices the EOF and applies the policy; poll the
                   // census until it lands (the disconnect is asynchronous).
        let mut released = false;
        for _ in 0..200 {
            let stats = front.stats();
            if stats.sessions == 0 && stats.connections_dropped == 1 {
                released = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(released, "disconnect policy did not release the handle");
        let (mut serve, _) = front.stop();
        assert!(matches!(
            serve.scores(h, 0),
            Err(ServeError::StaleHandle(_))
        ));
    }

    #[test]
    fn park_policy_keeps_sessions_addressable() {
        let (_dir, front) = front(
            "park",
            FrontConfig {
                disconnect: DisconnectPolicy::Park,
                ..FrontConfig::default()
            },
        );
        let (twin, bytes) = engine_bytes(3);
        let mut cli = client(&front);
        let h = cli.register(bytes).unwrap();
        drop(cli);
        let mut parked = false;
        for _ in 0..200 {
            if front.stats().connections_dropped == 1 {
                parked = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(parked);
        // A reconnecting tenant resumes through the same handle.
        let mut cli = client(&front);
        let scores = cli.scores(h, 0).unwrap();
        assert!(scores.bits_eq(&twin.scores(0).unwrap()));
        cli.release(h).unwrap();
        drop(cli);
        front.stop();
    }

    #[test]
    fn shutdown_request_stops_the_front_door() {
        let (_dir, mut front) = front("shutdown", FrontConfig::default());
        let cli = client(&front);
        cli.shutdown().unwrap();
        front.wait_shutdown(); // returns because the accept loop ended
        let (_serve, stats) = front.stop();
        assert_eq!(stats.connections_accepted, 1);
    }

    #[test]
    fn token_comparison_checks_every_byte_and_the_length() {
        assert!(tokens_match("s3cret", "s3cret"));
        assert!(tokens_match("", ""));
        assert!(!tokens_match("s3cret", "s3creT"));
        assert!(!tokens_match("s3cret", "s3cr"));
        assert!(!tokens_match("s3cr", "s3cret"));
        assert!(!tokens_match("s3cret", ""));
        assert!(!tokens_match("", "s3cret"));
    }

    #[test]
    fn zero_connection_cap_is_a_config_error() {
        let dir = SpillDir::new("zerocap");
        let serve = AfdServe::new(ServeConfig::new(&dir.0)).unwrap();
        let cfg = FrontConfig {
            max_connections: 0,
            ..FrontConfig::default()
        };
        assert!(matches!(
            ServeFront::bind(serve, cfg, "127.0.0.1:0"),
            Err(ServeError::Config(_))
        ));
        // And so is a garbage address (typed at the serve boundary too).
        let serve = AfdServe::new(ServeConfig::new(dir.0.join("b"))).unwrap();
        match ServeFront::bind(serve, FrontConfig::default(), "not-an-addr") {
            Err(ServeError::Config(msg)) => assert!(msg.contains("bad socket address")),
            other => panic!("expected Config, got {:?}", other.map(|_| ())),
        }
    }
}
