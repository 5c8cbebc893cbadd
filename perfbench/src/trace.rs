//! The traced run of the served workloads: each layer timed from
//! outside, through its public calls.
//!
//! The first round of a traced run replays every cycle the client sends
//! through the front door, right after, against nested twins that hold
//! the same sessions:
//!
//! * an in-process `AfdServe` with the same configuration (`serve`),
//! * an `AfdEngine` per session (`engine`),
//! * a hand-assembled `DeltaRouter` over N `ShardBackend`s — in-process
//!   shards, or `TcpShard`s on the same workers plus in-process mirrors
//!   of them (`stream.shard`, `net`, `wire`),
//! * an unsharded `StreamSession` (`stream.session`; with one shard the
//!   in-process shard is that session).
//!
//! A layer's self time is its calls' time minus the nested twin's time
//! for the same work. The front door is timed on its own, not as a
//! remainder: the cycle's bare `Scores` round trips, minus the twin's
//! `scores` call and the framing, give what one request costs in socket
//! and dispatch, and framing and unframing the cycle's three requests
//! and answers gives the codec cost. So the self times need not add up
//! to the round trips, and `trace.unattributed_frac` — round trips minus every self
//! time, over the round trips — shows how far off the split is: lock
//! waits, twin-vs-server differences, anything no layer accounts for.
//!
//! After the traced round the sessions are reset and untraced rounds
//! fill half the window: the reference for `trace.overhead_frac`.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use afd_engine::{AfdEngine, DeltaRequest, RestoreRequest, StreamBackend};
use afd_parallel::par_map_mut;
use afd_relation::{AttrId, AttrSet, Relation, Value};
use afd_serve::{AfdServe, ServeRequest, ServeResponse, SessionHandle, TickReport};
use afd_stream::wire::ShardState;
use afd_stream::{
    AnyShard, DeltaRouter, InProcShard, IncTable, RowDelta, SessionSnapshot, ShardBackend,
    StreamScores, StreamSession, TcpShard,
};
use afd_wire::{
    decode_framed, encode_framed, Decode, Encode, KIND_SERVE_REQUEST, KIND_SERVE_RESPONSE,
};

use crate::gen;
use crate::outcome::Outcome;
use crate::report::{metric, Metric, Report};
use crate::served::{self, Cycle, Inputs, Shape, System};
use crate::stats::{median_or_zero, Samples};

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a
/// workload never reaches reports 0.
pub const LAYERS: [(&str, &str); 33] = [
    ("front.self_us", "us"),
    ("front.scores_rtt_us", "us"),
    ("front.frame_bytes_per_delta", "bytes"),
    ("serve.tick_us", "us"),
    ("serve.tick_self_us", "us"),
    ("serve.self_us", "us"),
    ("serve.deltas_per_tick", "count"),
    ("engine.delta_us", "us"),
    ("engine.restore_us", "us"),
    ("engine.self_us", "us"),
    ("stream.route_us", "us"),
    ("stream.fanout_max_us", "us"),
    ("stream.fanout_sum_us", "us"),
    ("stream.merge_us", "us"),
    ("stream.shard_self_us", "us"),
    ("stream.session_apply_us", "us"),
    ("net.shard_rtt_us", "us"),
    ("net.transport_self_us", "us"),
    ("wire.state_bytes_per_apply", "bytes"),
    ("wire.state_decode_us", "us"),
    ("wire.snapshot_bytes", "bytes"),
    ("wire.snapshot_decode_us", "us"),
    ("discovery.candidates", "count"),
    ("discovery.pruned", "count"),
    ("discovery.emitted_frac", "ratio"),
    ("discovery.self_s", "s"),
    ("relation.encode_s", "s"),
    ("relation.refine_s", "s"),
    ("core.score_s", "s"),
    ("parallel.speedup", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.negative_self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric at 0.
pub fn zeroed_layers() -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| metric(name, 0.0, unit))
        .collect()
}

/// Sets the listed layer metric `name`.
pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    let m = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a listed layer metric"));
    m.value = value;
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// One cycle's twin timings, in microseconds (bytes where named).
#[derive(Debug, Clone, Default)]
struct CycleTrace {
    wall: f64,
    frame_bytes: f64,
    front: f64,
    twin_read: f64,
    serve_tick: f64,
    serve_total: f64,
    engine_delta: f64,
    engine_total: f64,
    route: f64,
    fan_wall: f64,
    fan: Vec<f64>,
    inproc: Vec<f64>,
    merge: f64,
    session_apply: f64,
    state_bytes: f64,
    state_decode: f64,
}

impl CycleTrace {
    fn fan_sum(&self) -> f64 {
        self.fan.iter().sum()
    }

    fn shard_total(&self) -> f64 {
        self.route + self.fan_wall + self.merge
    }

    /// The slowest shard: the fan-out's critical path.
    fn critical(&self) -> usize {
        (0..self.fan.len())
            .max_by(|&a, &b| self.fan[a].total_cmp(&self.fan[b]))
            .unwrap_or(0)
    }

    /// `TcpShard::apply` minus `InProcShard::apply` on the same slices.
    fn transport_self(&self) -> f64 {
        if self.inproc.is_empty() {
            0.0
        } else {
            self.fan_sum() - self.inproc.iter().sum::<f64>()
        }
    }

    /// Self time of every layer along the critical path — front, serve,
    /// engine, shard coordinator, transport, session.
    fn selves(&self) -> [f64; 6] {
        let k = self.critical();
        let fan = self.fan.get(k).copied().unwrap_or(0.0);
        let floor = self.inproc.get(k).copied().unwrap_or(fan);
        [
            self.front,
            self.serve_total - self.engine_total,
            self.engine_total - self.shard_total(),
            self.shard_total() - fan,
            fan - floor,
            floor,
        ]
    }

    /// The round trips no layer's self time accounts for.
    fn unattributed(&self) -> f64 {
        self.wall - self.selves().iter().sum::<f64>()
    }
}

/// The hand-assembled shard coordinator: router, backends, the
/// coordinator-owned Y-id space and (for TCP) in-process mirrors.
struct ShardTwin {
    router: DeltaRouter,
    backends: Vec<AnyShard>,
    mirrors: Vec<InProcShard>,
    y_global: HashMap<Vec<Value>, u32>,
    y_remap: Vec<Vec<u32>>,
    threads: usize,
}

impl ShardTwin {
    fn new(rows: &Relation, shards: usize, workers: &[String]) -> Result<ShardTwin, String> {
        let schema = rows.schema().clone();
        let key = if shards > 1 {
            AttrSet::single(AttrId(0))
        } else {
            AttrSet::empty()
        };
        let router = DeltaRouter::new(key, schema.arity(), shards).map_err(|e| e.to_string())?;
        let mut backends = Vec::with_capacity(shards);
        let mut mirrors = Vec::new();
        for s in 0..shards {
            if workers.is_empty() {
                backends.push(AnyShard::InProc(InProcShard::new(schema.clone())));
            } else {
                let tcp = TcpShard::connect(&workers[s], &schema).map_err(|e| e.to_string())?;
                backends.push(AnyShard::Tcp(tcp));
                mirrors.push(InProcShard::new(schema.clone()));
            }
        }
        let mut twin = ShardTwin {
            router,
            backends,
            mirrors,
            y_global: HashMap::new(),
            y_remap: vec![Vec::new(); shards],
            threads: afd_parallel::max_threads(),
        };
        for b in &mut twin.backends {
            b.subscribe(&gen::fd()).map_err(|e| e.to_string())?;
        }
        for m in &mut twin.mirrors {
            m.subscribe(&gen::fd()).map_err(|e| e.to_string())?;
        }
        let seed = RowDelta::insert_only((0..rows.n_rows()).map(|r| rows.row(r)));
        let locals = twin.router.route(&seed).map_err(|e| e.to_string())?;
        for (s, local) in locals.iter().enumerate() {
            twin.backends[s].apply(local).map_err(|e| e.to_string())?;
            if let Some(m) = twin.mirrors.get_mut(s) {
                m.apply(local).map_err(|e| e.to_string())?;
            }
        }
        twin.merged();
        Ok(twin)
    }

    /// Syncs the Y-id space and reads the merged scores, as the
    /// coordinator does after every apply.
    fn merged(&mut self) -> StreamScores {
        for (s, shard) in self.backends.iter().enumerate() {
            for id in self.y_remap[s].len()..shard.n_y_side_ids(0) {
                let key = shard.y_side_values(0, id as u32);
                let next = self.y_global.len() as u32;
                let g = *self.y_global.entry(key).or_insert(next);
                self.y_remap[s].push(g);
            }
        }
        if self.backends.len() == 1 {
            self.backends[0].table(0).scores()
        } else {
            let remap = &self.y_remap;
            IncTable::merged_scores(
                self.backends
                    .iter()
                    .enumerate()
                    .map(|(s, b)| (b.table(0), remap[s].as_slice())),
            )
        }
    }

    fn apply(&mut self, delta: &RowDelta, cyc: &mut CycleTrace) -> Result<StreamScores, String> {
        let (locals, route) = timed(|| self.router.route(delta));
        let locals = locals.map_err(|e| e.to_string())?;
        cyc.route = route;
        // The coordinator's own fan-out primitive and thread count.
        let (results, wall) = timed(|| {
            par_map_mut(&mut self.backends, self.threads, |s, shard| {
                timed(|| shard.apply(&locals[s]))
            })
        });
        cyc.fan_wall = wall;
        for (r, t) in results {
            r.map_err(|e| e.to_string())?;
            cyc.fan.push(t);
        }
        for (s, local) in locals.iter().enumerate() {
            let Some(mirror) = self.mirrors.get_mut(s) else {
                break;
            };
            let (r, t) = timed(|| mirror.apply(local));
            r.map_err(|e| e.to_string())?;
            cyc.inproc.push(t);
            // What the worker ships back after this apply, and what
            // decoding it costs the coordinator.
            let bytes = afd_stream::worker::shard_state(mirror.session()).encode_to_vec();
            cyc.state_bytes += bytes.len() as f64;
            let (state, t) = timed(|| ShardState::decode_exact(&bytes));
            state.map_err(|e| e.to_string())?;
            cyc.state_decode += t;
        }
        let (scores, merge) = timed(|| self.merged());
        cyc.merge = merge;
        Ok(scores)
    }
}

/// The nested twins of every session.
struct Twins {
    serve: AfdServe,
    serve_handles: Vec<SessionHandle>,
    engines: Vec<AfdEngine>,
    shards: Vec<ShardTwin>,
    /// Unsharded sessions, when the shards are remote.
    sessions: Vec<StreamSession>,
    restore_at_setup: Vec<f64>,
    snapshot_at_setup: Vec<(f64, f64)>,
}

impl Twins {
    fn new(shape: &Shape, inputs: &Inputs, system: &System, dir: &Path) -> Result<Self, String> {
        let workers: Vec<String> = system.workers.iter().map(|w| w.addr.clone()).collect();
        let backend = || {
            if workers.is_empty() {
                StreamBackend::InProcess
            } else {
                StreamBackend::Tcp(workers.clone())
            }
        };
        let mut twins = Twins {
            serve: AfdServe::new(served::serve_config(dir, &system.workers))
                .map_err(|e| format!("twin serve: {e}"))?,
            serve_handles: Vec::new(),
            engines: Vec::new(),
            shards: Vec::new(),
            sessions: Vec::new(),
            restore_at_setup: Vec::new(),
            snapshot_at_setup: Vec::new(),
        };
        for session in &inputs.sessions {
            let bytes = &session.snapshot;
            let engine =
                AfdEngine::restore_with_backend(&RestoreRequest::new(bytes.clone()), backend())
                    .map_err(|e| format!("twin restore: {e}"))?;
            let handle = twins
                .serve
                .register(engine)
                .map_err(|e| format!("twin register: {e}"))?;
            twins.serve_handles.push(handle);
            let (snap, decode) = timed(|| SessionSnapshot::from_bytes(bytes));
            snap.map_err(|e| e.to_string())?;
            twins.snapshot_at_setup.push((bytes.len() as f64, decode));
            let (engine, restore) = timed(|| {
                AfdEngine::restore_with_backend(&RestoreRequest::new(bytes.clone()), backend())
            });
            twins
                .engines
                .push(engine.map_err(|e| format!("twin restore: {e}"))?);
            twins.restore_at_setup.push(restore);
            twins
                .shards
                .push(ShardTwin::new(&session.fixture, shape.shards, &workers)?);
            if shape.shards > 1 {
                let mut twin = StreamSession::from_relation(session.fixture.clone());
                twin.subscribe(gen::fd()).map_err(|e| e.to_string())?;
                twins.sessions.push(twin);
            }
        }
        Ok(twins)
    }

    /// Replays one front-door cycle on every twin.
    fn step(&mut self, s: usize, delta: &RowDelta, front: &Cycle) -> Result<CycleTrace, String> {
        let mut cyc = CycleTrace {
            wall: front.delta_us.ok_or("front cycle failed")?,
            ..CycleTrace::default()
        };
        let h = self.serve_handles[s];
        let copy = delta.clone();
        let (r, enq) = timed(|| self.serve.enqueue(h, copy));
        r.map_err(|e| format!("twin enqueue: {e}"))?;
        let (report, tick) = timed(|| self.serve.tick());
        let report: TickReport = report.map_err(|e| format!("twin tick: {e}"))?;
        if report.deltas_applied != 1 || report.deltas_failed + report.restore_failed > 0 {
            return Err(format!(
                "twin tick did not apply exactly the delta: {report:?}"
            ));
        }
        let (r, read) = timed(|| self.serve.scores(h, 0));
        let served = r.map_err(|e| format!("twin scores: {e}"))?;
        cyc.serve_tick = tick;
        cyc.serve_total = enq + tick + read;
        cyc.twin_read = read;

        let engine = &mut self.engines[s];
        let copy = DeltaRequest::new(delta.clone());
        let (r, t) = timed(|| engine.delta(&copy));
        r.map_err(|e| format!("twin engine delta: {e}"))?;
        cyc.engine_delta = t;
        let (r, read) = timed(|| engine.scores(0));
        r.map_err(|e| format!("twin engine scores: {e}"))?;
        cyc.engine_total = t + read;

        let shard_scores = self.shards[s].apply(delta, &mut cyc)?;
        if let Some(session) = self.sessions.get_mut(s) {
            let (r, t) = timed(|| session.apply(delta));
            r.map_err(|e| format!("twin session apply: {e}"))?;
            cyc.session_apply = t;
        } else {
            cyc.session_apply = cyc.fan_sum();
        }
        let want = front.answers.first().ok_or("front cycle has no answer")?;
        if !served.bits_eq(want) || !shard_scores.bits_eq(want) {
            return Err("a twin's scores differ from the served answer".to_string());
        }
        Ok(cyc)
    }
}

/// Bytes on the wire for one cycle's enqueue, tick and reflecting read;
/// the time to frame and unframe each of those requests and answers once
/// (the client frames a request and unframes its answer, the front the
/// reverse); and that time for the `Scores` request and answer alone.
fn frames(
    handle: SessionHandle,
    delta: &RowDelta,
    front: &Cycle,
) -> Result<(f64, f64, f64), String> {
    let scores = front
        .answers
        .first()
        .copied()
        .unwrap_or_else(StreamScores::exact);
    let pairs = [
        (
            ServeRequest::Enqueue {
                handle,
                delta: delta.clone(),
            },
            ServeResponse::Pending(1),
        ),
        (
            ServeRequest::Tick,
            ServeResponse::Tick(TickReport::default()),
        ),
        (
            ServeRequest::Scores {
                handle,
                candidate: 0,
            },
            ServeResponse::Scores(scores),
        ),
    ];
    let (mut bytes, mut codec, mut pair) = (0.0, 0.0, 0.0);
    for (req, resp) in &pairs {
        pair = 0.0;
        let (framed, enc) = timed(|| encode_framed(KIND_SERVE_REQUEST, req));
        let framed = framed.map_err(|e| e.to_string())?;
        let (back, dec) = timed(|| decode_framed::<ServeRequest>(KIND_SERVE_REQUEST, &framed));
        back.map_err(|e| e.to_string())?;
        bytes += framed.len() as f64;
        pair += enc + dec;
        let (framed, enc) = timed(|| encode_framed(KIND_SERVE_RESPONSE, resp));
        let framed = framed.map_err(|e| e.to_string())?;
        let (back, dec) = timed(|| decode_framed::<ServeResponse>(KIND_SERVE_RESPONSE, &framed));
        back.map_err(|e| e.to_string())?;
        bytes += framed.len() as f64;
        pair += enc + dec;
        codec += pair;
    }
    Ok((bytes, codec, pair))
}

/// What the traced round produced.
struct Traced {
    cycles: Vec<Cycle>,
    traces: Vec<CycleTrace>,
    restore_at_setup: Vec<f64>,
    snapshot_at_setup: Vec<(f64, f64)>,
    deltas_per_tick: f64,
}

/// Runs one round through the front door, replaying each cycle on the
/// twins. The front door's own cost per request is the median bare
/// `Scores` round trip of the cycle minus the twin's `scores` call and
/// the `Scores` framing: what socket and dispatch add to a request that
/// follows another back to back, as the cycle's requests do.
fn traced_round(
    shape: &Shape,
    system: &mut System,
    inputs: &Inputs,
    dir: &Path,
    acct: &mut Outcome,
) -> Result<Traced, String> {
    let mut twins = Twins::new(shape, inputs, system, dir)?;
    let before = acct
        .call(system.client.stats())
        .ok_or("stats before the traced round")?;
    let mut cycles = Vec::with_capacity(inputs.plan.len());
    let mut traces = Vec::with_capacity(inputs.plan.len());
    for (s, delta) in &inputs.plan {
        let h = system.handles[*s];
        let cycle = served::front_cycle(
            &mut system.client,
            acct,
            h,
            *s,
            delta.clone(),
            shape.bare_reads,
        );
        let mut cyc = twins.step(*s, delta, &cycle)?;
        let (bytes, codec, scores_codec) = frames(h, delta, &cycle)?;
        let bare = median_or_zero(cycle.read_us.get(1..).unwrap_or_default().to_vec());
        cyc.frame_bytes = bytes;
        cyc.front = 3.0 * (bare - cyc.twin_read - scores_codec) + codec;
        traces.push(cyc);
        cycles.push(cycle);
    }
    let after = acct
        .call(system.client.stats())
        .ok_or("stats after the traced round")?;
    let applied = (after.deltas_applied - before.deltas_applied) as f64;
    let ticks = (after.ticks - before.ticks) as f64;
    Ok(Traced {
        cycles,
        traces,
        restore_at_setup: twins.restore_at_setup,
        snapshot_at_setup: twins.snapshot_at_setup,
        deltas_per_tick: applied / ticks.max(1.0),
    })
}

/// The traced run of a served workload: one traced round, then
/// untraced rounds for half the window, then the correctness gate over
/// both.
pub fn run(shape: &Shape, seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    served::settings(shape, report);
    let root = served::run_dir(shape.name);
    let result = (|| {
        let served::Setup {
            mut system, inputs, ..
        } = served::setup(shape, seed, &root, 1)?;
        let mut acct = Outcome::default();
        let traced = traced_round(shape, &mut system, &inputs, &root.join("twin"), &mut acct);
        let untraced = match &traced {
            Ok(_) => system.reset(&inputs, &mut acct).and_then(|()| {
                served::closed_loop(shape, &mut system, &inputs, seconds as f64 / 2.0)
            }),
            Err(e) => Err(e.clone()),
        };
        system.shutdown();
        let traced = traced?;
        let untraced = untraced?;

        let rounds: Vec<Vec<Cycle>> = std::iter::once(traced.cycles.clone())
            .chain(untraced.rounds.iter().cloned())
            .collect();
        let mismatches = served::gate(&inputs, &rounds);
        report.correct = mismatches == 0;
        report.set_num("gate_mismatches", mismatches);
        report.outcome.absorb(&acct);
        report.outcome.absorb(&untraced.outcome);

        let traces = &traced.traces;
        report.set_num("traced_cycles", traces.len());
        let med = |f: &dyn Fn(&CycleTrace) -> f64| median_or_zero(traces.iter().map(f).collect());
        let mean = |f: &dyn Fn(&CycleTrace) -> f64| {
            Samples::new(traces.iter().map(f).collect()).map_or(0.0, |s| s.mean())
        };
        let m = &mut report.metrics;
        *m = zeroed_layers();
        set(m, "front.self_us", med(&|c| c.front));
        let reads: Vec<f64> = traced
            .cycles
            .iter()
            .flat_map(|c| c.read_us.iter().copied())
            .collect();
        set(m, "front.scores_rtt_us", median_or_zero(reads));
        set(m, "front.frame_bytes_per_delta", mean(&|c| c.frame_bytes));
        set(m, "serve.tick_us", med(&|c| c.serve_tick));
        set(
            m,
            "serve.tick_self_us",
            med(&|c| c.serve_tick - c.engine_delta),
        );
        set(m, "serve.self_us", med(&|c| c.selves()[1]));
        set(m, "serve.deltas_per_tick", traced.deltas_per_tick);
        set(m, "engine.delta_us", med(&|c| c.engine_delta));
        set(
            m,
            "engine.restore_us",
            median_or_zero(traced.restore_at_setup),
        );
        set(m, "engine.self_us", med(&|c| c.selves()[2]));
        set(m, "stream.route_us", med(&|c| c.route));
        set(
            m,
            "stream.fanout_max_us",
            med(&|c| c.fan.iter().copied().fold(0.0, f64::max)),
        );
        set(m, "stream.fanout_sum_us", med(&|c| c.fan_sum()));
        set(m, "stream.merge_us", med(&|c| c.merge));
        set(m, "stream.shard_self_us", med(&|c| c.selves()[3]));
        set(m, "stream.session_apply_us", med(&|c| c.session_apply));
        if shape.shards > 1 {
            let rtts: Vec<f64> = traces.iter().flat_map(|c| c.fan.clone()).collect();
            set(m, "net.shard_rtt_us", median_or_zero(rtts));
            set(m, "net.transport_self_us", med(&|c| c.transport_self()));
            set(m, "wire.state_bytes_per_apply", mean(&|c| c.state_bytes));
            set(m, "wire.state_decode_us", med(&|c| c.state_decode));
        }
        let snap = &traced.snapshot_at_setup;
        set(
            m,
            "wire.snapshot_bytes",
            median_or_zero(snap.iter().map(|s| s.0).collect()),
        );
        set(
            m,
            "wire.snapshot_decode_us",
            median_or_zero(snap.iter().map(|s| s.1).collect()),
        );
        let wall: f64 = traces.iter().map(|c| c.wall).sum();
        let unattributed: f64 = traces.iter().map(CycleTrace::unattributed).sum();
        set(
            m,
            "trace.unattributed_frac",
            if wall > 0.0 { unattributed / wall } else { 0.0 },
        );
        let selves: Vec<f64> = traces.iter().flat_map(|c| c.selves()).collect();
        let negative = selves.iter().filter(|&&t| t < 0.0).count();
        set(
            m,
            "trace.negative_self_frac",
            negative as f64 / selves.len().max(1) as f64,
        );
        let traced_p50 = median_or_zero(traced.cycles.iter().filter_map(|c| c.delta_us).collect());
        let untraced_p50 = median_or_zero(untraced.delta_us());
        report.set_num("traced_p50_us", format!("{traced_p50:.3}"));
        report.set_num("untraced_p50_us", format!("{untraced_p50:.3}"));
        let m = &mut report.metrics;
        set(
            m,
            "trace.overhead_frac",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
        );
        Ok(())
    })();
    served::remove_run_dir(&root);
    result
}
