//! Pluggable shard backends: where a [`crate::ShardedSession`]'s shards
//! actually live.
//!
//! The coordinator ([`crate::ShardedSession`]) only ever talks to shards
//! through [`ShardBackend`] — subscribe, send a routed delta slice and
//! take its answer, read the candidate's [`IncTable`], Y side keys and
//! the Y columns the last apply touched, take a snapshot, compact. Three
//! topologies exist:
//!
//! * [`InProcShard`] — a [`StreamSession`] in the coordinator's address
//!   space (the original topology; zero overhead).
//! * [`RemoteShard`] — a worker session on the far side of an `afd-net`
//!   [`Transport`], speaking the checksummed `afd-wire` protocol.
//!   [`ProcessShard`] (= `RemoteShard<StdioTransport>`) is an
//!   `afd shard-worker` **child process** over stdin/stdout;
//!   [`TcpShard`] (= `RemoteShard<TcpTransport>`) is an
//!   `afd shard-worker --listen` session over a **TCP connection**,
//!   possibly on another machine. A subscribe or a compaction ships the
//!   worker's full per-candidate state back, and every apply ships a
//!   [`ShardPatch`] of what it changed, which the coordinator writes
//!   into its copy of that state. The patch's Y column ids are the
//!   columns the coordinator re-sums into its merged Y margins, so
//!   remote reads are **bit-identical** to the in-process path (every
//!   maintained aggregate is an integer, so the codec round-trip is
//!   exact).
//!
//! A sharded apply is pipelined: the coordinator
//! [`send_apply`](ShardBackend::send_apply)s every shard its slice
//! before it [`recv_apply`](ShardBackend::recv_apply)s any answer, so
//! remote workers apply their slices concurrently with no coordinator
//! thread per shard. Every transport reads frames on its own reader
//! thread, so an answer never blocks behind the next send.
//!
//! # Fault model and the recovery lifecycle
//!
//! A dead, hung, or corrupted worker never panics or blocks the
//! coordinator:
//!
//! * Every [`RemoteShard`] request carries a **deadline**: responses
//!   are read by a dedicated reader thread inside the transport, so a
//!   worker that stops answering surfaces as a typed
//!   [`TransportError`] ([`TransportErrorKind::Timeout`]) instead of a
//!   coordinator stuck in `read(2)` forever.
//! * The stdio worker's **stderr is captured** (piped, ring-buffered);
//!   its last lines ride along on every [`TransportError`], so a worker
//!   panic is diagnosable from the coordinator's error.
//! * Backends that report [`ShardBackend::supports_recovery`] can be
//!   [`respawn`](ShardBackend::respawn)ed: the supervisor in
//!   [`crate::ShardedSession`] tears the incarnation down, brings up a
//!   fresh one (relaunch the child; **redial with backoff** over TCP),
//!   restores the shard's last checkpoint, replays the post-checkpoint
//!   delta log, and retries the in-flight request — see
//!   [`crate::RecoveryConfig`] for the cadence/budget knobs. The
//!   supervisor path is identical across transports; only what
//!   "respawn" means differs.
//! * Poisoning still happens, but only as the *last* resort: when the
//!   retry budget is exhausted (over TCP: the listener never came
//!   back), when a backend cannot be respawned, or when a non-transport
//!   invariant breaks mid-fan-out. A poisoned session keeps serving its
//!   last consistent reads and refuses mutation with
//!   [`StreamError::Poisoned`].

use std::time::{Duration, Instant};

use afd_net::{NetError, StdioTransport, TcpTransport, Transport};
use afd_relation::{Fd, Relation, Schema, Value};
use afd_wire::encode_framed;

use crate::delta::{RowDelta, StreamError, TransportError, TransportErrorKind};
use crate::fault::AFD_WORKER_FAULTS_ENV;
use crate::session::{CompactionReport, StreamSession};
use crate::table::IncTable;
use crate::wire::{
    ShardPatch, ShardState, WorkerRequestRef, WorkerResponse, KIND_REQUEST, KIND_RESPONSE,
};

pub use afd_net::WorkerCommand;

/// Default per-request deadline for remote shards; override via
/// [`ShardBackend::configure`] (the engine plumbs
/// [`crate::RecoveryConfig::request_timeout_ms`] through).
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_millis(30_000);

/// One shard of a [`crate::ShardedSession`], wherever it lives.
///
/// The coordinator routes deltas and owns the cross-shard Y-id space and
/// merged Y margins; the backend owns one shard's rows and per-candidate
/// state. Contract: after any `Ok` from a mutating call (an apply's `Ok`
/// being its [`ShardBackend::recv_apply`]), [`ShardBackend::table`],
/// [`ShardBackend::n_y_side_ids`] and [`ShardBackend::y_side_values`]
/// reflect the post-call state, and after an apply
/// [`ShardBackend::touched_y_ids`] names every Y column whose total it
/// changed.
pub trait ShardBackend: Send {
    /// Subscribes a candidate FD (validated by the coordinator first).
    ///
    /// # Errors
    /// [`StreamError`] — for [`RemoteShard`], transport failures too.
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError>;

    /// Applies one router-validated delta slice.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the worker died or sent garbage
    /// (in-process shards cannot fail here — the router validated).
    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError>;

    /// The first half of a pipelined [`ShardBackend::apply`]: hands the
    /// slice to the shard without awaiting its answer. A remote shard
    /// sends the `Apply` frame and returns; the default applies the
    /// slice inline.
    ///
    /// # Errors
    /// As [`ShardBackend::apply`]; after an `Err` there is no answer to
    /// receive.
    fn send_apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.apply(delta)
    }

    /// The second half of a pipelined apply: awaits the answer to the
    /// last [`ShardBackend::send_apply`] and takes it in, as `apply`
    /// does. A remote shard's deadline runs from that send. The default
    /// has nothing to await.
    ///
    /// # Errors
    /// As [`ShardBackend::apply`].
    fn recv_apply(&mut self) -> Result<(), StreamError> {
        Ok(())
    }

    /// The candidate's current [`IncTable`].
    fn table(&self, cid: usize) -> &IncTable;

    /// The local Y side ids whose column totals candidate `cid`'s last
    /// apply changed (repeats allowed) — the columns the coordinator
    /// re-sums into its merged Y margins.
    fn touched_y_ids(&self, cid: usize) -> &[u32];

    /// Live rows in this shard.
    fn n_live(&self) -> usize;

    /// Y side ids assigned for candidate `cid` (dense, `0..n`).
    fn n_y_side_ids(&self, cid: usize) -> usize;

    /// The value-level Y key of side id `id` for candidate `cid`.
    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value>;

    /// The shard's live rows as a compact relation, local arrival order.
    ///
    /// # Errors
    /// [`StreamError::Transport`] for a remote shard whose channel failed.
    fn snapshot(&mut self) -> Result<Relation, StreamError>;

    /// Compacts with batch-kernel verification.
    ///
    /// # Errors
    /// [`StreamError::Diverged`] / [`StreamError::Transport`].
    fn compact(&mut self) -> Result<CompactionReport, StreamError>;

    /// Coordinator-assigned identity and request deadline. Remote
    /// backends use both (error attribution and the recv timeout);
    /// in-process shards ignore the call.
    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        let _ = (shard_index, deadline);
    }

    /// True when the supervisor may tear this backend down and rebuild
    /// it (a fresh, *empty* incarnation restored via checkpoint +
    /// replay). Defaults to `false`: failures poison the session as
    /// before.
    fn supports_recovery(&self) -> bool {
        false
    }

    /// Replaces the backend with a fresh, empty incarnation (for
    /// [`ProcessShard`]: kill the old child, spawn and re-init a new
    /// one; for [`TcpShard`]: redial the listener with backoff). The
    /// caller owns restoring the shard's state afterwards.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when respawning is unsupported or the
    /// new incarnation cannot be brought up.
    fn respawn(&mut self) -> Result<(), StreamError> {
        Err(StreamError::Transport(TransportError::spawn(
            "backend does not support respawn".to_string(),
        )))
    }

    /// Asks the backend to exit cleanly within the request deadline.
    /// In-process shards have nothing to do; remote shards send a
    /// `Shutdown` request and wind the channel down.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the worker did not acknowledge
    /// or exit in time (a stdio child is still killed on drop).
    fn shutdown(&mut self) -> Result<(), StreamError> {
        Ok(())
    }
}

// ------------------------------------------------------------ in-process

/// The original topology: one [`StreamSession`] per shard, in the
/// coordinator's address space.
#[derive(Debug, Clone)]
pub struct InProcShard(StreamSession);

impl InProcShard {
    /// An empty in-process shard over `schema`.
    pub fn new(schema: Schema) -> Self {
        InProcShard(StreamSession::new(schema))
    }

    /// The wrapped session (tests and benches inspect it).
    pub fn session(&self) -> &StreamSession {
        &self.0
    }
}

impl ShardBackend for InProcShard {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        self.0.subscribe(fd.clone())
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.0.apply(delta).map(|_| ())
    }

    fn table(&self, cid: usize) -> &IncTable {
        self.0.table(cid)
    }

    fn touched_y_ids(&self, cid: usize) -> &[u32] {
        self.0.touched_y_ids(cid)
    }

    fn n_live(&self) -> usize {
        self.0.relation().n_live()
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.0.n_y_side_ids(cid)
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.0.y_side_values(cid, id)
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        Ok(self.0.relation().snapshot())
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        self.0.compact()
    }
}

// --------------------------------------------------------------- remote

/// Maps a channel-level `afd-net` error into this crate's wire-codable
/// transport error kind. A failed (re)connect is classified as a spawn
/// failure: to the supervisor, "nobody listens there" and "the program
/// would not start" are the same unrecoverable-incarnation signal.
fn net_kind(e: NetError) -> TransportErrorKind {
    match e {
        NetError::Spawn(m) => TransportErrorKind::Spawn(m),
        NetError::Connect(m) => TransportErrorKind::Spawn(m),
        NetError::Write(m) => TransportErrorKind::Write(m),
        NetError::Read(m) => TransportErrorKind::Read(m),
        NetError::Timeout { millis } => TransportErrorKind::Timeout { millis },
        NetError::Decode(m) => TransportErrorKind::Decode(m),
    }
}

/// A shard session on the far side of an `afd-net` [`Transport`],
/// driven with checksummed wire frames.
///
/// The protocol is strict request/response, but responses arrive via
/// the transport's reader thread so every request carries a deadline
/// ([`ShardBackend::configure`]) that runs from its own send; a hung
/// worker surfaces as [`TransportErrorKind::Timeout`] instead of
/// blocking the coordinator. An apply is split in two
/// ([`ShardBackend::send_apply`], [`ShardBackend::recv_apply`]), so the
/// coordinator can have every shard's slice in flight at once.
/// The coordinator keeps a mirror of the worker's per-candidate state
/// ([`ShardState`]): `Subscribed` and `Compacted` answers replace it
/// whole, and each `Applied` answer's [`ShardPatch`] is written into it
/// in O(patch), after bounds checks, so the mirror stays equal to the
/// worker's state. [`ShardBackend::table`] &co read the mirror, so
/// score reads never block on the worker between deltas, and
/// [`ShardBackend::touched_y_ids`] reports the Y columns of the last
/// accepted patch. The transport retains its recipe (spawn command /
/// socket address), so the supervisor can
/// [`respawn`](ShardBackend::respawn) a failed incarnation.
#[derive(Debug)]
pub struct RemoteShard<T: Transport> {
    transport: T,
    schema: Schema,
    shard_index: Option<u32>,
    deadline: Duration,
    /// When the last request was sent: its answer's deadline runs from
    /// here.
    sent_at: Instant,
    state: ShardState,
    /// Per candidate, the Y column ids of the last accepted patch.
    touched: Vec<Vec<u32>>,
}

/// A shard in an `afd shard-worker` child process over stdin/stdout.
pub type ProcessShard = RemoteShard<StdioTransport>;

/// A shard served by an `afd shard-worker --listen` process over TCP.
pub type TcpShard = RemoteShard<TcpTransport>;

impl<T: Transport> RemoteShard<T> {
    /// Wraps an established transport and initialises the worker's
    /// session over `schema` (the Init handshake).
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the handshake fails or times out.
    pub fn from_transport(transport: T, schema: &Schema) -> Result<Self, StreamError> {
        let mut shard = RemoteShard {
            transport,
            schema: schema.clone(),
            shard_index: None,
            deadline: DEFAULT_REQUEST_TIMEOUT,
            sent_at: Instant::now(),
            state: ShardState {
                n_live: 0,
                candidates: Vec::new(),
            },
            touched: Vec::new(),
        };
        match shard.request(&WorkerRequestRef::Init(schema))? {
            WorkerResponse::Ok => Ok(shard),
            other => Err(shard.unexpected("Init", &other)),
        }
    }

    /// The underlying transport (tests reach through for fault hooks).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Builds the typed transport error for a failed protocol step:
    /// shard attribution plus the transport's diagnostics (the worker
    /// stderr tail over stdio). The channel itself still works here.
    fn fail(&mut self, kind: TransportErrorKind) -> StreamError {
        self.fail_channel(kind, false)
    }

    /// As [`Self::fail`] for a channel-level error. A read, a write or a
    /// frame that fails to decode all end the channel (the transport's
    /// reader stops at the first bad frame), so the worker is treated as
    /// dead and its last stderr lines are collected after it exits.
    fn fail_net(&mut self, e: NetError) -> StreamError {
        let dead = matches!(
            e,
            NetError::Read(_) | NetError::Write(_) | NetError::Decode(_)
        );
        self.fail_channel(net_kind(e), dead)
    }

    fn fail_channel(&mut self, kind: TransportErrorKind, dead: bool) -> StreamError {
        let stderr = self.transport.diagnostics(dead);
        let mut err = TransportError::of_kind(kind).with_stderr(stderr);
        err.shard = self.shard_index;
        StreamError::Transport(err)
    }

    fn unexpected(&mut self, req: &str, resp: &WorkerResponse) -> StreamError {
        match resp {
            WorkerResponse::Err(e) => e.clone(),
            other => self.fail(TransportErrorKind::Decode(format!(
                "unexpected worker response to {req}: {other:?}"
            ))),
        }
    }

    fn request(&mut self, req: &WorkerRequestRef<'_>) -> Result<WorkerResponse, StreamError> {
        self.send(req)?;
        self.recv()
    }

    fn send(&mut self, req: &WorkerRequestRef<'_>) -> Result<(), StreamError> {
        let frame = match encode_framed(KIND_REQUEST, req) {
            Ok(frame) => frame,
            Err(e) => {
                return Err(self.fail(TransportErrorKind::Decode(format!("request encode: {e}"))))
            }
        };
        self.sent_at = Instant::now();
        if let Err(e) = self.transport.send(&frame) {
            return Err(self.fail_net(e));
        }
        Ok(())
    }

    /// The answer to the last request sent, within what is left of its
    /// deadline. A timeout reports the configured deadline.
    fn recv(&mut self) -> Result<WorkerResponse, StreamError> {
        let left = self.deadline.saturating_sub(self.sent_at.elapsed());
        match self.transport.recv(left) {
            Ok((KIND_RESPONSE, payload)) => {
                use afd_wire::Decode;
                WorkerResponse::decode_exact(&payload).map_err(|e| {
                    self.fail(TransportErrorKind::Decode(format!("response decode: {e}")))
                })
            }
            Ok((kind, _)) => Err(self.fail(TransportErrorKind::Decode(format!(
                "worker sent unexpected frame kind {kind}"
            )))),
            Err(NetError::Timeout { .. }) => Err(self.fail_net(NetError::Timeout {
                millis: self.deadline.as_millis() as u64,
            })),
            Err(e) => Err(self.fail_net(e)),
        }
    }

    /// Accepts a decoded worker state only after bounds-checking its
    /// structure — the coordinator indexes into it, and this module's
    /// fault model says a corrupted worker must surface as a typed
    /// error, never a coordinator panic.
    fn accept_state(&mut self, state: ShardState, expected: usize) -> Result<(), StreamError> {
        let ys = state
            .candidates
            .iter()
            .map(|c| (c.table.max_y_id(), c.y_keys.len()));
        if let Some(why) = refusal("state", state.candidates.len(), expected, ys) {
            return Err(self.fail(TransportErrorKind::Decode(why)));
        }
        self.state = state;
        self.touched.clear();
        Ok(())
    }

    /// Writes a worker's [`ShardPatch`] into the state mirror after the
    /// same checks as [`Self::accept_state`], counting the patch's new
    /// Y keys, and keeps its Y column ids as the touched columns. A
    /// refused patch leaves the mirror as it was.
    fn accept_patch(&mut self, patch: ShardPatch) -> Result<(), StreamError> {
        let tracked = self.state.candidates.len();
        let ys = self
            .state
            .candidates
            .iter()
            .zip(&patch.candidates)
            .map(|(c, p)| (p.table.max_y_id(), c.y_keys.len() + p.new_y_keys.len()));
        if let Some(why) = refusal("patch", patch.candidates.len(), tracked, ys) {
            return Err(self.fail(TransportErrorKind::Decode(why)));
        }
        self.touched = patch
            .candidates
            .iter()
            .map(|p| p.table.col_ids().collect())
            .collect();
        self.state.apply_patch(patch);
        Ok(())
    }
}

/// Why a worker's `what` (state or patch) must be refused: it carries
/// `got` candidates where the coordinator tracks `tracked`, or, per
/// candidate, its largest Y id is not below the Y keys the coordinator
/// would hold after accepting it (`ys` yields both, in candidate order).
fn refusal(
    what: &str,
    got: usize,
    tracked: usize,
    ys: impl Iterator<Item = (Option<u32>, usize)>,
) -> Option<String> {
    if got != tracked {
        return Some(format!(
            "worker {what} carries {got} candidate(s), coordinator tracks {tracked}"
        ));
    }
    ys.enumerate().find_map(|(cid, (max, keys))| {
        let max = max?;
        (max as usize >= keys).then(|| {
            format!(
                "worker {what} for candidate {cid} references Y id {max} beyond its {keys} Y \
                 key(s)"
            )
        })
    })
}

impl ProcessShard {
    /// Spawns one worker and initialises its session over `schema`.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the program cannot be spawned or
    /// the Init handshake fails (or times out).
    pub fn spawn(cmd: &WorkerCommand, schema: &Schema) -> Result<Self, StreamError> {
        // Strip the fault-injection hook before any respawn so an
        // injected fault fires at most once per plan, not once per
        // incarnation.
        let transport = StdioTransport::launch(cmd)
            .map_err(|e| StreamError::Transport(TransportError::of_kind(net_kind(e))))?
            .strip_env_on_reconnect(AFD_WORKER_FAULTS_ENV);
        Self::from_transport(transport, schema)
    }

    /// The worker's process id (fault-injection tests kill it by pid).
    pub fn pid(&self) -> u32 {
        self.transport.pid()
    }

    /// Kills the worker outright — the fault every transport error path
    /// must survive. Used by tests; a killed shard's next request
    /// returns [`StreamError::Transport`] (and a recovery-enabled
    /// session respawns it).
    pub fn kill(&mut self) {
        self.transport.kill();
    }

    /// Replaces the command future respawns use. The running worker is
    /// untouched; fault tests point this at a broken program to make
    /// every recovery attempt fail and exhaust the retry budget.
    pub fn set_command(&mut self, cmd: WorkerCommand) {
        self.transport.set_command(cmd);
    }
}

impl TcpShard {
    /// Dials an `afd shard-worker --listen` address and initialises a
    /// worker session over `schema`.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when the address is malformed, nobody
    /// accepts, or the Init handshake fails.
    pub fn connect(addr: &str, schema: &Schema) -> Result<Self, StreamError> {
        let transport = TcpTransport::connect(addr)
            .map_err(|e| StreamError::Transport(TransportError::of_kind(net_kind(e))))?;
        Self::from_transport(transport, schema)
    }

    /// Drops the connection without redialing — the test hook that
    /// simulates losing a remote worker mid-stream.
    pub fn sever(&mut self) {
        self.transport.sever();
    }
}

impl<T: Transport> ShardBackend for RemoteShard<T> {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        let expected = self.state.candidates.len() + 1;
        match self.request(&WorkerRequestRef::Subscribe(fd))? {
            WorkerResponse::Subscribed { cid, state } => {
                self.accept_state(state, expected)?;
                Ok(cid as usize)
            }
            other => Err(self.unexpected("Subscribe", &other)),
        }
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.send_apply(delta)?;
        self.recv_apply()
    }

    fn send_apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.send(&WorkerRequestRef::Apply(delta))
    }

    fn recv_apply(&mut self) -> Result<(), StreamError> {
        match self.recv()? {
            WorkerResponse::Applied(patch) => self.accept_patch(patch),
            other => Err(self.unexpected("Apply", &other)),
        }
    }

    fn table(&self, cid: usize) -> &IncTable {
        &self.state.candidates[cid].table
    }

    fn touched_y_ids(&self, cid: usize) -> &[u32] {
        self.touched.get(cid).map_or(&[], Vec::as_slice)
    }

    fn n_live(&self) -> usize {
        self.state.n_live as usize
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.state.candidates[cid].y_keys.len()
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.state.candidates[cid].y_keys[id as usize].clone()
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        match self.request(&WorkerRequestRef::Snapshot)? {
            WorkerResponse::Snapshot(rel) => Ok(rel),
            other => Err(self.unexpected("Snapshot", &other)),
        }
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        let expected = self.state.candidates.len();
        match self.request(&WorkerRequestRef::Compact)? {
            WorkerResponse::Compacted { report, state } => {
                self.accept_state(state, expected)?;
                Ok(report)
            }
            other => Err(self.unexpected("Compact", &other)),
        }
    }

    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        self.shard_index = Some(shard_index);
        self.deadline = deadline;
    }

    fn supports_recovery(&self) -> bool {
        self.transport.supports_reconnect()
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        if let Err(e) = self.transport.reconnect() {
            let mut te = TransportError::of_kind(net_kind(e));
            te.shard = self.shard_index;
            return Err(StreamError::Transport(te));
        }
        self.state = ShardState {
            n_live: 0,
            candidates: Vec::new(),
        };
        self.touched.clear();
        let schema = self.schema.clone();
        match self.request(&WorkerRequestRef::Init(&schema))? {
            WorkerResponse::Ok => Ok(()),
            other => Err(self.unexpected("Init", &other)),
        }
    }

    fn shutdown(&mut self) -> Result<(), StreamError> {
        match self.request(&WorkerRequestRef::Shutdown) {
            Ok(WorkerResponse::Ok) => {}
            Ok(other) => {
                let e = self.unexpected("Shutdown", &other);
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        let deadline = self.deadline;
        if let Err(e) = self.transport.finish(deadline) {
            return Err(self.fail_net(e));
        }
        Ok(())
    }
}

impl<T: Transport> Drop for RemoteShard<T> {
    fn drop(&mut self) {
        // Best-effort graceful exit: ask, then let the transport's drop
        // close the channel (a stdio child is killed and reaped; a TCP
        // worker sees EOF and ends its session).
        if let Ok(frame) = encode_framed(KIND_REQUEST, &WorkerRequestRef::Shutdown) {
            let _ = self.transport.send(&frame);
        }
    }
}

// ------------------------------------------------------------- dispatch

/// Runtime-selected backend — what `AfdEngine` holds when the topology
/// is a configuration choice rather than a compile-time one.
#[derive(Debug)]
pub enum AnyShard {
    /// An in-process shard.
    InProc(InProcShard),
    /// An out-of-process worker over stdin/stdout.
    Process(ProcessShard),
    /// A worker on the far side of a TCP connection.
    Tcp(TcpShard),
}

impl ShardBackend for AnyShard {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        match self {
            AnyShard::InProc(s) => s.subscribe(fd),
            AnyShard::Process(s) => s.subscribe(fd),
            AnyShard::Tcp(s) => s.subscribe(fd),
        }
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        match self {
            AnyShard::InProc(s) => s.apply(delta),
            AnyShard::Process(s) => s.apply(delta),
            AnyShard::Tcp(s) => s.apply(delta),
        }
    }

    fn send_apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        match self {
            AnyShard::InProc(s) => s.send_apply(delta),
            AnyShard::Process(s) => s.send_apply(delta),
            AnyShard::Tcp(s) => s.send_apply(delta),
        }
    }

    fn recv_apply(&mut self) -> Result<(), StreamError> {
        match self {
            AnyShard::InProc(s) => s.recv_apply(),
            AnyShard::Process(s) => s.recv_apply(),
            AnyShard::Tcp(s) => s.recv_apply(),
        }
    }

    fn table(&self, cid: usize) -> &IncTable {
        match self {
            AnyShard::InProc(s) => s.table(cid),
            AnyShard::Process(s) => s.table(cid),
            AnyShard::Tcp(s) => s.table(cid),
        }
    }

    fn touched_y_ids(&self, cid: usize) -> &[u32] {
        match self {
            AnyShard::InProc(s) => s.touched_y_ids(cid),
            AnyShard::Process(s) => s.touched_y_ids(cid),
            AnyShard::Tcp(s) => s.touched_y_ids(cid),
        }
    }

    fn n_live(&self) -> usize {
        match self {
            AnyShard::InProc(s) => s.n_live(),
            AnyShard::Process(s) => s.n_live(),
            AnyShard::Tcp(s) => s.n_live(),
        }
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        match self {
            AnyShard::InProc(s) => s.n_y_side_ids(cid),
            AnyShard::Process(s) => s.n_y_side_ids(cid),
            AnyShard::Tcp(s) => s.n_y_side_ids(cid),
        }
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        match self {
            AnyShard::InProc(s) => s.y_side_values(cid, id),
            AnyShard::Process(s) => s.y_side_values(cid, id),
            AnyShard::Tcp(s) => s.y_side_values(cid, id),
        }
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        match self {
            AnyShard::InProc(s) => s.snapshot(),
            AnyShard::Process(s) => s.snapshot(),
            AnyShard::Tcp(s) => s.snapshot(),
        }
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        match self {
            AnyShard::InProc(s) => s.compact(),
            AnyShard::Process(s) => s.compact(),
            AnyShard::Tcp(s) => s.compact(),
        }
    }

    fn configure(&mut self, shard_index: u32, deadline: Duration) {
        match self {
            AnyShard::InProc(s) => s.configure(shard_index, deadline),
            AnyShard::Process(s) => s.configure(shard_index, deadline),
            AnyShard::Tcp(s) => s.configure(shard_index, deadline),
        }
    }

    fn supports_recovery(&self) -> bool {
        match self {
            AnyShard::InProc(s) => s.supports_recovery(),
            AnyShard::Process(s) => s.supports_recovery(),
            AnyShard::Tcp(s) => s.supports_recovery(),
        }
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        match self {
            AnyShard::InProc(s) => s.respawn(),
            AnyShard::Process(s) => s.respawn(),
            AnyShard::Tcp(s) => s.respawn(),
        }
    }

    fn shutdown(&mut self) -> Result<(), StreamError> {
        match self {
            AnyShard::InProc(s) => s.shutdown(),
            AnyShard::Process(s) => s.shutdown(),
            AnyShard::Tcp(s) => s.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::AttrId;

    #[test]
    fn in_proc_shard_round_trip() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut shard = InProcShard::new(schema);
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let cid = shard.subscribe(&fd).unwrap();
        shard
            .apply(&RowDelta::insert_only([
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(11)],
            ]))
            .unwrap();
        assert_eq!(shard.n_live(), 2);
        assert_eq!(shard.table(cid).n(), 2);
        assert_eq!(shard.n_y_side_ids(cid), 2);
        assert_eq!(shard.y_side_values(cid, 0), vec![Value::Int(10)]);
        let snap = shard.snapshot().unwrap();
        assert_eq!(snap.n_rows(), 2);
        let report = shard.compact().unwrap();
        assert_eq!(report.n_live, 2);
        // In-process shards neither recover nor need shutting down.
        assert!(!shard.supports_recovery());
        assert!(shard.respawn().is_err());
        assert!(shard.shutdown().is_ok());
    }

    #[test]
    fn spawn_failure_is_typed() {
        let cmd = WorkerCommand::new("/definitely/not/a/binary");
        let schema = Schema::new(["X", "Y"]).unwrap();
        match ProcessShard::spawn(&cmd, &schema) {
            Err(StreamError::Transport(te)) => {
                assert!(matches!(te.kind, TransportErrorKind::Spawn(_)));
            }
            other => panic!("expected spawn transport error, got {other:?}"),
        }
    }

    #[test]
    fn tcp_connect_failure_is_typed_spawn() {
        // Port 1 is outside the ephemeral range, so no test's
        // `bind("127.0.0.1:0")` can be listening there; the refused dial
        // must classify as a spawn-stage failure.
        let schema = Schema::new(["X", "Y"]).unwrap();
        match TcpShard::connect("127.0.0.1:1", &schema) {
            Err(StreamError::Transport(te)) => {
                assert!(matches!(te.kind, TransportErrorKind::Spawn(_)), "{te:?}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn sibling_binary_misses_cleanly() {
        assert!(WorkerCommand::sibling_binary("no-such-binary-here").is_none());
    }

    /// A transport that answers each request with the next scripted
    /// response, as a (possibly broken) worker would, and records the
    /// deadline every `recv` was handed.
    #[derive(Debug)]
    struct Scripted {
        script: std::collections::VecDeque<WorkerResponse>,
        deadlines: Vec<Duration>,
    }

    impl Scripted {
        fn new(script: Vec<WorkerResponse>) -> Self {
            Scripted {
                script: script.into(),
                deadlines: Vec::new(),
            }
        }
    }

    impl Transport for Scripted {
        fn send(&mut self, _frame: &[u8]) -> Result<(), NetError> {
            Ok(())
        }

        fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), NetError> {
            use afd_wire::Encode;
            self.deadlines.push(deadline);
            let resp = self
                .script
                .pop_front()
                .ok_or(NetError::Read("script ended".into()))?;
            Ok((KIND_RESPONSE, resp.encode_to_vec()))
        }

        fn reconnect(&mut self) -> Result<(), NetError> {
            Err(NetError::Connect("scripted".into()))
        }

        fn finish(&mut self, _deadline: Duration) -> Result<(), NetError> {
            Ok(())
        }

        fn peer(&self) -> String {
            "scripted".into()
        }
    }

    fn schema() -> Schema {
        Schema::new(["X", "Y"]).unwrap()
    }

    fn rows(pairs: &[(i64, i64)]) -> RowDelta {
        RowDelta::insert_only(
            pairs
                .iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]),
        )
    }

    /// A worker-side session with one candidate over three rows.
    fn worker_session() -> StreamSession {
        let mut session = StreamSession::new(schema());
        session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        session.apply(&rows(&[(1, 10), (1, 11), (2, 20)])).unwrap();
        session
    }

    /// A remote shard whose mirror holds [`worker_session`]'s state from
    /// the subscribe answer, scripted to answer `then` next.
    fn scripted(then: Vec<WorkerResponse>) -> RemoteShard<Scripted> {
        let mut script = vec![
            WorkerResponse::Ok,
            WorkerResponse::Subscribed {
                cid: 0,
                state: crate::worker::shard_state(&worker_session()),
            },
        ];
        script.extend(then);
        let mut shard = RemoteShard::from_transport(Scripted::new(script), &schema()).unwrap();
        assert_eq!(
            shard.subscribe(&Fd::linear(AttrId(0), AttrId(1))).unwrap(),
            0
        );
        shard
    }

    fn assert_decode_error(r: Result<impl std::fmt::Debug, StreamError>) {
        match r {
            Err(StreamError::Transport(te)) => {
                assert!(matches!(te.kind, TransportErrorKind::Decode(_)), "{te:?}");
            }
            other => panic!("expected a decode transport error, got {other:?}"),
        }
    }

    #[test]
    fn patches_keep_the_mirror_equal_to_the_worker() {
        let mut session = StreamSession::new(schema());
        session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let subscribed = crate::worker::shard_state(&session);
        let mut script = vec![
            WorkerResponse::Ok,
            WorkerResponse::Subscribed {
                cid: 0,
                state: subscribed,
            },
        ];
        let deltas = [
            rows(&[(1, 10), (1, 11), (2, 20)]),
            RowDelta::delete_only([1]),
            rows(&[(3, 30), (1, 11)]),
        ];
        let mut states = Vec::new();
        for d in &deltas {
            session.apply(d).unwrap();
            script.push(WorkerResponse::Applied(crate::worker::shard_patch(
                &session,
            )));
            states.push(crate::worker::shard_state(&session));
        }
        let mut shard = RemoteShard::from_transport(Scripted::new(script), &schema()).unwrap();
        shard.subscribe(&Fd::linear(AttrId(0), AttrId(1))).unwrap();
        for (d, state) in deltas.iter().zip(states) {
            shard.apply(d).unwrap();
            assert_eq!(shard.state, state);
        }
    }

    #[test]
    fn patch_naming_a_y_id_past_the_keys_is_refused_untouched() {
        // The worker's next apply assigns Y id 3; the patch drops its key.
        let mut worker = worker_session();
        worker.apply(&rows(&[(3, 30)])).unwrap();
        let mut patch = crate::worker::shard_patch(&worker);
        assert_eq!(patch.candidates[0].new_y_keys.len(), 1);
        patch.candidates[0].new_y_keys.clear();
        let mut shard = scripted(vec![WorkerResponse::Applied(patch)]);
        let (before, keys) = (shard.table(0).clone(), shard.n_y_side_ids(0));
        assert_decode_error(shard.apply(&rows(&[(3, 30)])));
        assert_eq!(shard.table(0), &before);
        assert_eq!(shard.n_y_side_ids(0), keys);
        assert_eq!(shard.n_live(), 3);
    }

    #[test]
    fn patch_with_the_wrong_candidate_count_is_refused_untouched() {
        let mut worker = worker_session();
        worker.apply(&rows(&[(1, 12)])).unwrap();
        let mut patch = crate::worker::shard_patch(&worker);
        patch.candidates.push(patch.candidates[0].clone());
        let mut shard = scripted(vec![WorkerResponse::Applied(patch)]);
        let before = shard.table(0).clone();
        assert_decode_error(shard.apply(&rows(&[(1, 12)])));
        assert_eq!(shard.table(0), &before);
        assert_eq!(shard.n_live(), 3);
    }

    #[test]
    fn full_state_naming_a_y_id_past_its_keys_is_refused_untouched() {
        // A second subscribe answered with a state whose new candidate's
        // table references Y ids it ships no key for.
        let worker = worker_session();
        let mut bad = crate::worker::shard_state(&worker);
        let mut cand = bad.candidates[0].clone();
        cand.y_keys.truncate(1);
        bad.candidates.push(cand);
        let mut shard = scripted(vec![WorkerResponse::Subscribed { cid: 1, state: bad }]);
        let (before, keys) = (shard.table(0).clone(), shard.n_y_side_ids(0));
        assert_decode_error(shard.subscribe(&Fd::linear(AttrId(1), AttrId(0))));
        assert_eq!(shard.table(0), &before);
        assert_eq!(shard.n_y_side_ids(0), keys);
    }

    #[test]
    fn pipelined_fan_out_takes_every_answer_before_handling_a_failure() {
        // Two scripted workers, each answering as a worker holding its
        // routed slice would. Shard 0 fails the second apply; shard 1
        // answers it.
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let key = afd_relation::AttrSet::single(AttrId(0));
        let seed = rows(&[(1, 10), (1, 11), (2, 20), (3, 30), (4, 40), (5, 50)]);
        let next = rows(&[(1, 12), (2, 21), (3, 31), (4, 41), (5, 51), (6, 60)]);
        let mut router = crate::shard::DeltaRouter::new(key.clone(), 2, 2).unwrap();
        let seed_slices = router.route(&seed).unwrap();
        let next_slices = router.route(&next).unwrap();
        assert!(next_slices.iter().all(|slice| !slice.is_empty()));
        let shards: Vec<RemoteShard<Scripted>> = (0..2)
            .map(|s| {
                let mut worker = StreamSession::new(schema());
                worker.subscribe(fd.clone()).unwrap();
                let mut script = vec![
                    WorkerResponse::Ok,
                    WorkerResponse::Subscribed {
                        cid: 0,
                        state: crate::worker::shard_state(&worker),
                    },
                ];
                worker.apply(&seed_slices[s]).unwrap();
                script.push(WorkerResponse::Applied(crate::worker::shard_patch(&worker)));
                script.push(if s == 0 {
                    WorkerResponse::Err(StreamError::Transport(TransportError::read(
                        "worker lost the slice",
                    )))
                } else {
                    worker.apply(&next_slices[s]).unwrap();
                    WorkerResponse::Applied(crate::worker::shard_patch(&worker))
                });
                RemoteShard::from_transport(Scripted::new(script), &schema()).unwrap()
            })
            .collect();
        let mut session = crate::ShardedSession::with_backends(schema(), key, shards).unwrap();
        assert!(!session.recovery_enabled(), "Scripted cannot reconnect");
        let cid = session.subscribe(fd).unwrap();
        session.apply(&seed).unwrap();
        let before = session.scores(cid);
        let err = session.apply(&next).unwrap_err();
        assert!(matches!(err, StreamError::Transport(_)), "{err}");
        assert!(matches!(
            session.apply(&next),
            Err(StreamError::Poisoned(_))
        ));
        assert!(session.scores(cid).bits_eq(&before));
        // Shard 1's answer was taken off its channel, not left there to
        // be read as the answer to its next request.
        assert!(session.backend_mut(1).transport_mut().script.is_empty());
    }

    #[test]
    fn an_answer_waits_only_for_what_is_left_of_its_deadline() {
        let mut worker = worker_session();
        worker.apply(&rows(&[(3, 30)])).unwrap();
        let mut shard = scripted(vec![WorkerResponse::Applied(crate::worker::shard_patch(
            &worker,
        ))]);
        let deadline = Duration::from_secs(5);
        let pause = Duration::from_millis(30);
        shard.configure(0, deadline);
        let start = Instant::now();
        shard.send_apply(&rows(&[(3, 30)])).unwrap();
        std::thread::sleep(pause);
        shard.recv_apply().unwrap();
        let since_send_at_most = start.elapsed();
        let handed = *shard.transport_mut().deadlines.last().unwrap();
        assert!(handed <= deadline - pause, "{handed:?}");
        assert!(handed >= deadline - since_send_at_most, "{handed:?}");
        // The patch's Y columns are what the shard reports as touched.
        assert_eq!(shard.touched_y_ids(0), &[3]);
    }
}
