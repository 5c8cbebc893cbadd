//! The shard-worker loop: one [`StreamSession`] driven by wire frames.
//!
//! `afd shard-worker` calls [`run_worker`] over its stdin/stdout; a
//! [`crate::ProcessShard`] on the coordinator side speaks the other end.
//! The loop is strict request/response — read one [`WorkerRequest`]
//! frame, act, write exactly one [`WorkerResponse`] frame — and exits
//! cleanly on `Shutdown` or a closed stdin (the coordinator dropping the
//! shard). Request-level failures (an FD outside the schema, a
//! compaction divergence) are *answered* as typed
//! [`WorkerResponse::Err`]s; only transport-level failures (corrupt
//! frames, broken pipes) abort the worker.

use std::io::{Read, Write};

use afd_wire::{encode_framed, read_frame_from, Decode, FrameReadError, StreamFrame};

use crate::delta::{StreamError, TransportError};
use crate::fault::{WorkerFault, WorkerFaultKind, AFD_WORKER_FAULTS_ENV};
use crate::session::StreamSession;
#[cfg(doc)]
use crate::table::IncTable;
use crate::wire::{
    CandidatePatch, CandidateState, ShardPatch, ShardState, WorkerRequest, WorkerResponse,
    KIND_REQUEST, KIND_RESPONSE,
};

/// The full coordinator-visible state of a worker's session: live row
/// count plus every candidate's table and Y side keys.
pub fn shard_state(session: &StreamSession) -> ShardState {
    ShardState {
        n_live: session.relation().n_live() as u64,
        candidates: (0..session.n_candidates())
            .map(|cid| CandidateState {
                table: session.table(cid).clone(),
                y_keys: (0..session.n_y_side_ids(cid))
                    .map(|id| session.y_side_values(cid, id as u32))
                    .collect(),
            })
            .collect(),
    }
}

/// What the session's last apply changed, as the worker answers it: live
/// row count plus, per candidate, the [`IncTable::patch`] of the X groups
/// and Y columns the apply counted rows in or out of, and the keys of
/// the Y side ids it assigned. Applied to the [`shard_state`] taken just
/// before that apply, it gives `shard_state(session)` exactly.
///
/// Describes exactly one apply, so the session must not auto-compact:
/// `Init` builds worker sessions without a compaction cadence.
pub fn shard_patch(session: &StreamSession) -> ShardPatch {
    ShardPatch {
        n_live: session.relation().n_live() as u64,
        candidates: (0..session.n_candidates())
            .map(|cid| CandidatePatch {
                table: session.table_patch(cid),
                new_y_keys: session
                    .new_y_side_ids(cid)
                    .map(|id| session.y_side_values(cid, id as u32))
                    .collect(),
            })
            .collect(),
    }
}

fn handle(session: &mut Option<StreamSession>, req: WorkerRequest) -> WorkerResponse {
    match req {
        WorkerRequest::Init(schema) => {
            *session = Some(StreamSession::new(schema));
            WorkerResponse::Ok
        }
        WorkerRequest::Shutdown => WorkerResponse::Ok,
        other => {
            let Some(session) = session.as_mut() else {
                return WorkerResponse::Err(StreamError::Transport(TransportError::decode(
                    "request before Init",
                )));
            };
            match other {
                WorkerRequest::Subscribe(fd) => match session.subscribe(fd) {
                    Ok(cid) => WorkerResponse::Subscribed {
                        cid: cid as u32,
                        state: shard_state(session),
                    },
                    Err(e) => WorkerResponse::Err(e),
                },
                WorkerRequest::Apply(delta) => match session.apply(&delta) {
                    Ok(_) => WorkerResponse::Applied(shard_patch(session)),
                    Err(e) => WorkerResponse::Err(e),
                },
                WorkerRequest::Snapshot => WorkerResponse::Snapshot(session.relation().snapshot()),
                WorkerRequest::Compact => match session.compact() {
                    Ok(report) => WorkerResponse::Compacted {
                        report,
                        state: shard_state(session),
                    },
                    Err(e) => WorkerResponse::Err(e),
                },
                WorkerRequest::Init(_) | WorkerRequest::Shutdown => unreachable!("handled above"),
            }
        }
    }
}

/// Runs the worker loop until `Shutdown`, EOF on `input`, or a transport
/// failure.
///
/// Inspects [`AFD_WORKER_FAULTS_ENV`] for an injected fault — the
/// deterministic misbehaviour hook the recovery tests drive real child
/// processes with (see [`crate::fault`]).
///
/// # Errors
/// [`FrameReadError`] when a frame fails checksum/decode verification or
/// the pipes break — request-level errors are answered in-band instead.
pub fn run_worker(input: impl Read, output: impl Write) -> Result<(), FrameReadError> {
    let fault = std::env::var(AFD_WORKER_FAULTS_ENV)
        .ok()
        .and_then(|spec| WorkerFault::parse(&spec));
    run_worker_with_fault(input, output, fault)
}

/// [`run_worker`] with an explicit injected fault (`None` = behave).
///
/// The fault fires while serving the `site`-th request (1-based,
/// counting every request frame read): `Kill` exits without responding
/// (the coordinator sees EOF), `Truncate` writes half the response
/// frame then exits, `Garbage` writes non-frame bytes then exits, and
/// `Stall` sleeps before responding normally. Each firing announces
/// itself on stderr so the coordinator's stderr capture has a line to
/// attach.
///
/// # Errors
/// [`FrameReadError`] as for [`run_worker`].
pub fn run_worker_with_fault(
    mut input: impl Read,
    mut output: impl Write,
    mut fault: Option<WorkerFault>,
) -> Result<(), FrameReadError> {
    let mut session: Option<StreamSession> = None;
    let mut requests: u64 = 0;
    loop {
        let (kind, payload) = match read_frame_from(&mut input)? {
            StreamFrame::Frame(kind, payload) => (kind, payload),
            StreamFrame::Eof => return Ok(()),
        };
        if kind != KIND_REQUEST {
            return Err(FrameReadError::Decode(
                afd_wire::DecodeError::UnknownMessage { kind },
            ));
        }
        requests += 1;
        let tripped = match fault {
            Some(f) if requests >= f.site => {
                fault = None;
                eprintln!(
                    "afd-worker: injected fault {} firing at request {requests}",
                    f.to_env()
                );
                Some(f.kind)
            }
            _ => None,
        };
        if matches!(tripped, Some(WorkerFaultKind::Kill)) {
            // Exit without responding: the coordinator sees EOF, as if
            // the process had been killed mid-request.
            return Ok(());
        }
        let req = WorkerRequest::decode_exact(&payload)?;
        let shutdown = matches!(req, WorkerRequest::Shutdown);
        let resp = handle(&mut session, req);
        let frame = encode_framed(KIND_RESPONSE, &resp)?;
        match tripped {
            Some(WorkerFaultKind::Truncate) => {
                output.write_all(&frame[..frame.len() / 2])?;
                output.flush()?;
                return Ok(());
            }
            Some(WorkerFaultKind::Garbage) => {
                output.write_all(b"this is definitely not an AFDW frame")?;
                output.flush()?;
                return Ok(());
            }
            Some(WorkerFaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Some(WorkerFaultKind::Kill) | None => {}
        }
        output.write_all(&frame)?;
        output.flush()?;
        if shutdown {
            return Ok(());
        }
    }
}

/// Serves the worker protocol over TCP: one [`run_worker_with_fault`]
/// session per accepted connection, each on its own thread (so a
/// stalled or mid-teardown session never blocks a supervisor's
/// reconnect from being served).
///
/// Connection = incarnation: a dropped connection ends its session
/// exactly like a killed child process ends a stdio worker's, and the
/// coordinator's respawn-restore-replay recovery applies unchanged —
/// the fresh connection starts from `Init` and is rebuilt from the
/// checkpoint + delta log.
///
/// Inspects [`AFD_WORKER_FAULTS_ENV`] **once** at entry and arms the
/// fault on the *first* connection only, mirroring the stdio
/// supervisor's strip-on-respawn rule: an injected fault fires at most
/// once per plan, not once per incarnation.
///
/// Runs until the listener itself fails (callers that want to stop it
/// kill the process; every session is connection-scoped).
///
/// # Errors
/// The `accept(2)` failure that ended the loop.
pub fn run_worker_listener(listener: std::net::TcpListener) -> std::io::Error {
    let fault = std::sync::Mutex::new(
        std::env::var(AFD_WORKER_FAULTS_ENV)
            .ok()
            .and_then(|spec| WorkerFault::parse(&spec)),
    );
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => return e,
        };
        let fault = fault.lock().ok().and_then(|mut f| f.take());
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            // Transport-level failures (the peer vanished, a corrupt
            // frame) end this session; the listener keeps accepting.
            if let Err(e) = run_worker_with_fault(std::io::BufReader::new(read_half), stream, fault)
            {
                eprintln!("afd-worker: connection ended: {e}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::{AttrId, Fd, Schema, Value};
    use afd_wire::Encode;

    use crate::delta::RowDelta;
    use crate::table::IncTable;
    use crate::wire::WorkerRequestRef;

    fn drive(requests: &[WorkerRequest]) -> Vec<WorkerResponse> {
        let mut input = Vec::new();
        for req in requests {
            input.extend(encode_framed(KIND_REQUEST, req).unwrap());
        }
        let mut output = Vec::new();
        run_worker(input.as_slice(), &mut output).expect("worker runs");
        let mut resps = Vec::new();
        let mut cursor = std::io::Cursor::new(output);
        while let StreamFrame::Frame(kind, payload) =
            read_frame_from(&mut cursor).expect("well-formed output")
        {
            assert_eq!(kind, KIND_RESPONSE);
            resps.push(WorkerResponse::decode_exact(&payload).expect("response decodes"));
        }
        resps
    }

    fn row(x: i64, y: i64) -> Vec<Value> {
        vec![Value::Int(x), Value::Int(y)]
    }

    /// The state a coordinator mirrors: a `Subscribed` answer's full
    /// state with an `Applied` answer's patch written into it.
    fn patched_state(subscribed: &WorkerResponse, applied: &WorkerResponse) -> ShardState {
        let WorkerResponse::Subscribed { state, .. } = subscribed else {
            panic!("expected Subscribed, got {subscribed:?}");
        };
        let WorkerResponse::Applied(patch) = applied else {
            panic!("expected Applied, got {applied:?}");
        };
        let mut state = state.clone();
        state.apply_patch(patch.clone());
        state
    }

    #[test]
    fn worker_tracks_a_session_and_ships_state() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let resps = drive(&[
            WorkerRequest::Init(schema.clone()),
            WorkerRequest::Subscribe(fd.clone()),
            WorkerRequest::Apply(RowDelta::insert_only([
                row(1, 10),
                row(1, 10),
                row(2, 20),
                row(1, 11),
            ])),
            WorkerRequest::Snapshot,
            WorkerRequest::Compact,
            WorkerRequest::Shutdown,
        ]);
        assert_eq!(resps.len(), 6);
        assert_eq!(resps[0], WorkerResponse::Ok);
        // The shipped state matches a local session fed the same data.
        let mut local = StreamSession::new(schema);
        let cid = local.subscribe(fd).unwrap();
        local
            .apply(&RowDelta::insert_only([
                row(1, 10),
                row(1, 10),
                row(2, 20),
                row(1, 11),
            ]))
            .unwrap();
        // The subscribe ships full state; the apply's patch brings it
        // up to the worker's post-apply state.
        let state = patched_state(&resps[1], &resps[2]);
        assert_eq!(state.n_live, 4);
        assert_eq!(&state.candidates[cid].table, local.table(cid));
        assert_eq!(state.candidates[cid].y_keys.len(), local.n_y_side_ids(cid));
        assert!(state.candidates[cid]
            .table
            .scores()
            .bits_eq(&local.scores(cid)));
        assert_eq!(state, shard_state(&local));
        match &resps[3] {
            WorkerResponse::Snapshot(rel) => assert_eq!(rel.n_rows(), 4),
            other => panic!("expected Snapshot, got {other:?}"),
        }
        match &resps[4] {
            WorkerResponse::Compacted { report, state } => {
                assert_eq!(report.n_live, 4);
                assert_eq!(state.candidates.len(), 1);
            }
            other => panic!("expected Compacted, got {other:?}"),
        }
        assert_eq!(resps[5], WorkerResponse::Ok);
    }

    #[test]
    fn request_level_errors_are_answered_not_fatal() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let resps = drive(&[
            // Before Init: answered with a typed error, loop continues.
            WorkerRequest::Snapshot,
            WorkerRequest::Init(schema),
            // Out-of-schema FD: typed error, session stays usable.
            WorkerRequest::Subscribe(Fd::linear(AttrId(0), AttrId(9))),
            WorkerRequest::Apply(RowDelta::insert_only([row(1, 1)])),
        ]);
        assert!(matches!(
            resps[0],
            WorkerResponse::Err(StreamError::Transport(_))
        ));
        assert_eq!(resps[1], WorkerResponse::Ok);
        assert!(matches!(
            resps[2],
            WorkerResponse::Err(StreamError::UnknownAttr(9))
        ));
        assert!(matches!(&resps[3], WorkerResponse::Applied(s) if s.n_live == 1));
    }

    #[test]
    fn eof_mid_stream_is_clean_exit_corrupt_frame_is_not() {
        // Clean EOF.
        let mut out = Vec::new();
        run_worker(&[][..], &mut out).expect("empty stream is a clean exit");
        assert!(out.is_empty());
        // Corrupt frame: typed transport failure.
        let mut frame = encode_framed(
            KIND_REQUEST,
            &WorkerRequestRef::Init(&Schema::new(["A"]).unwrap()),
        )
        .unwrap();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        let mut out = Vec::new();
        assert!(run_worker(frame.as_slice(), &mut out).is_err());
    }

    fn fault_script() -> Vec<u8> {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let mut input = Vec::new();
        for req in [
            WorkerRequest::Init(schema),
            WorkerRequest::Subscribe(fd),
            WorkerRequest::Apply(RowDelta::insert_only([row(1, 10), row(2, 20)])),
            WorkerRequest::Snapshot,
        ] {
            input.extend(encode_framed(KIND_REQUEST, &req).unwrap());
        }
        input
    }

    fn response_frames(output: &[u8]) -> (usize, Option<FrameReadError>) {
        let mut cursor = std::io::Cursor::new(output);
        let mut n = 0;
        loop {
            match read_frame_from(&mut cursor) {
                Ok(StreamFrame::Frame(_, _)) => n += 1,
                Ok(StreamFrame::Eof) => return (n, None),
                Err(e) => return (n, Some(e)),
            }
        }
    }

    #[test]
    fn injected_kill_exits_without_responding() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 3,
            kind: crate::fault::WorkerFaultKind::Kill,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault))
            .expect("kill is a clean early exit");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 2, "responses before the fault site only");
        assert!(err.is_none(), "output ends cleanly at EOF");
    }

    #[test]
    fn injected_truncation_cuts_the_response_frame() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 2,
            kind: crate::fault::WorkerFaultKind::Truncate,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault)).expect("exits");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 1);
        assert!(
            err.is_some(),
            "the truncated frame must not parse as clean EOF"
        );
    }

    #[test]
    fn injected_garbage_fails_frame_verification() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 1,
            kind: crate::fault::WorkerFaultKind::Garbage,
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault)).expect("exits");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 0);
        assert!(matches!(err, Some(FrameReadError::Decode(_))), "{err:?}");
    }

    #[test]
    fn injected_stall_delays_but_answers() {
        let mut out = Vec::new();
        let fault = crate::fault::WorkerFault {
            site: 2,
            kind: crate::fault::WorkerFaultKind::Stall { millis: 1 },
        };
        run_worker_with_fault(fault_script().as_slice(), &mut out, Some(fault))
            .expect("stall only delays");
        let (n, err) = response_frames(&out);
        assert_eq!(n, 4, "every request is answered after the stall");
        assert!(err.is_none());
    }

    #[test]
    fn shipped_tables_merge_bit_identically() {
        // The end-to-end wire property on the worker loop alone: state
        // shipped through encode/decode merges exactly like local state.
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let delta = RowDelta::insert_only([row(1, 10), row(2, 20), row(1, 11)]);
        let resps = drive(&[
            WorkerRequest::Init(schema.clone()),
            WorkerRequest::Subscribe(fd.clone()),
            WorkerRequest::Apply(delta.clone()),
        ]);
        let state = &patched_state(&resps[1], &resps[2]);
        let mut local = StreamSession::new(schema);
        let cid = local.subscribe(fd).unwrap();
        local.apply(&delta).unwrap();
        let y_map: Vec<u32> = (0..local.n_y_side_ids(cid) as u32).collect();
        let from_wire = IncTable::merged_scores([(&state.candidates[cid].table, y_map.as_slice())]);
        let from_local = IncTable::merged_scores([(local.table(cid), y_map.as_slice())]);
        assert!(from_wire.bits_eq(&from_local));
        // Byte-level determinism: re-encoding the shipped table yields
        // the same canonical bytes.
        assert_eq!(
            state.candidates[cid].table.encode_to_vec(),
            local.table(cid).encode_to_vec()
        );
    }
}
