//! The served workloads: a loopback `ServeFront` (what
//! `afd serve --listen` runs) driven by one closed-loop `ServeClient`.
//!
//! The client sends its next request only after the previous answer
//! arrived. One cycle is `Enqueue` of a delta, `Tick`, `Scores` (the
//! answer that reflects the delta), then the workload's bare `Scores`
//! reads.
//!
//! The timed window is a whole number of *rounds*. A round gives every
//! session the same fixed number of cycles, round robin, starting from
//! sessions freshly registered from their snapshots, with the same
//! deltas every round. Between rounds, outside the timed stretch, every
//! session is released and registered again. A session's log is
//! append-only, so without the reset the state at any moment would
//! depend on how many cycles the host had managed so far; with it, a
//! faster or slower host measures the same work.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use afd_engine::StreamBackend;
use afd_serve::{
    AfdServe, DurabilityConfig, FrontConfig, ServeClient, ServeConfig, ServeFront, SessionHandle,
};
use afd_stream::{ChurnPlanner, RowDelta, StreamScores, StreamSession};

use crate::gen::{self, ChurnSession};
use crate::outcome::Outcome;
use crate::report::{metric, rss_peak_mb, Report};
use crate::stats::{fastest, Samples};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Rounds whose samples give the latency and rate metrics: the fastest
/// of the run's (about 40 in a 40 s window on `serve_sharded_tcp`),
/// 8 192 delta samples there.
pub const FAST_ROUNDS: usize = 16;

/// `ServeConfig::resident_cap`: above every served workload's session
/// count, so nothing spills.
pub const RESIDENT_CAP: usize = 64;

/// Client-side deadline on every request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// The shape of one served workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Registered sessions.
    pub sessions: usize,
    /// Fixture rows per session.
    pub rows: usize,
    /// Rows per delta.
    pub delta_rows: usize,
    /// Cycles each session gets per round.
    pub cycles_per_session: usize,
    /// Bare `Scores` reads after each cycle's reflecting read.
    pub bare_reads: usize,
    /// Shards per session; more than one runs them on TCP workers.
    pub shards: usize,
}

impl Shape {
    /// Cycles per round.
    pub fn round(&self) -> usize {
        self.sessions * self.cycles_per_session
    }
}

/// The default served path, everything resident. 16 384-row sessions:
/// with 65 536-row ones the working set outgrew the CPU cache and the
/// run-to-run spread reached 15–21% over 10 seeds. A round is 2 048
/// cycles, so the reset between rounds stays a small share of a run.
pub const SERVE_HOT: Shape = Shape {
    name: "serve_hot",
    sessions: 8,
    rows: 16_384,
    delta_rows: 256,
    cycles_per_session: 256,
    bare_reads: 3,
    shards: 1,
};

/// Two TCP shard workers behind every session. A session's 256 applies
/// per round span four `checkpoint_every` (64) intervals.
pub const SERVE_SHARDED_TCP: Shape = Shape {
    name: "serve_sharded_tcp",
    sessions: 2,
    rows: 16_384,
    delta_rows: 64,
    cycles_per_session: 256,
    bare_reads: 3,
    shards: 2,
};

/// A workload's generated inputs.
pub struct Inputs {
    /// One fixture + snapshot per session.
    pub sessions: Vec<ChurnSession>,
    /// One round's ops, `(session, delta)`: the sessions round robin,
    /// each churned by its own `ChurnPlanner` from its fixture.
    pub plan: Vec<(usize, RowDelta)>,
}

impl Inputs {
    /// Generates `shape`'s inputs for `seed`.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let sessions = gen::churn_sessions(seed, shape.sessions, shape.rows, shape.shards);
        let mut planners: Vec<ChurnPlanner<'_>> = sessions
            .iter()
            .map(|s| ChurnPlanner::new(&s.fixture))
            .collect();
        let mut plan = Vec::with_capacity(shape.round());
        for _ in 0..shape.cycles_per_session {
            for (s, planner) in planners.iter_mut().enumerate() {
                plan.push((s, planner.next_delta(shape.delta_rows)));
            }
        }
        drop(planners);
        Inputs { sessions, plan }
    }
}

/// A shard worker child (`perfbench shard-worker --listen`, the same
/// library entry `afd shard-worker --listen` runs), killed and reaped
/// on drop. The worker also exits when its stdin closes, so it cannot
/// outlive this process.
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The address it listens on.
    pub addr: String,
}

impl Worker {
    /// Spawns a worker on an ephemeral loopback port.
    pub fn spawn() -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["shard-worker", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn shard worker: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let mut worker = Worker {
            child,
            stdin,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => {
                worker.addr = addr.to_string();
                Ok(worker)
            }
            _ => Err(format!(
                "shard worker did not announce its address: {line:?}"
            )),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A booted server with its client and registered sessions.
pub struct System {
    /// The front door.
    pub front: ServeFront,
    /// The one client connection.
    pub client: ServeClient,
    /// Handle of every session, by session index.
    pub handles: Vec<SessionHandle>,
    /// Shard workers the sessions run on (empty in-process).
    pub workers: Vec<Worker>,
    /// The spill directory.
    pub dir: PathBuf,
}

/// The server configuration, spilling to `dir`.
pub fn serve_config(dir: &Path, workers: &[Worker]) -> ServeConfig {
    ServeConfig {
        resident_cap: RESIDENT_CAP,
        durability: DurabilityConfig::ephemeral(),
        backend: if workers.is_empty() {
            StreamBackend::InProcess
        } else {
            StreamBackend::Tcp(workers.iter().map(|w| w.addr.clone()).collect())
        },
        ..ServeConfig::new(dir)
    }
}

/// How the configuration makes registry transitions durable.
pub const FLUSH_POLICY: &str = "ephemeral: no journal, no fsync";

impl System {
    /// Spawns workers, boots the server behind a loopback front door,
    /// connects the client and registers every session.
    pub fn boot(shape: &Shape, inputs: &Inputs, dir: PathBuf) -> Result<System, String> {
        let workers = if shape.shards > 1 {
            (0..shape.shards)
                .map(|_| Worker::spawn())
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let serve =
            AfdServe::new(serve_config(&dir, &workers)).map_err(|e| format!("serve boot: {e}"))?;
        let front = ServeFront::bind(serve, FrontConfig::default(), "127.0.0.1:0")
            .map_err(|e| format!("front bind: {e}"))?;
        let mut client = ServeClient::connect(&front.addr().to_string(), REQUEST_DEADLINE)
            .map_err(|e| format!("connect: {e}"))?;
        let handles = inputs
            .sessions
            .iter()
            .enumerate()
            .map(|(s, session)| {
                client
                    .register(session.snapshot.clone())
                    .map_err(|e| format!("register session {s}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(System {
            front,
            client,
            handles,
            workers,
            dir,
        })
    }

    /// Releases every session and registers it again from its snapshot,
    /// so the next round starts from the state the first one did.
    pub fn reset(&mut self, inputs: &Inputs, acct: &mut Outcome) -> Result<(), String> {
        for (s, session) in inputs.sessions.iter().enumerate() {
            acct.call(self.client.release(self.handles[s]));
            self.handles[s] = acct
                .call(self.client.register(session.snapshot.clone()))
                .ok_or_else(|| format!("re-register session {s}"))?;
        }
        Ok(())
    }

    /// Disconnects, stops the server, reaps the workers and removes the
    /// spill directory.
    pub fn shutdown(self) {
        drop(self.client);
        let (serve, _) = self.front.stop();
        drop(serve);
        drop(self.workers);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where a run keeps its spill directories: inside the working
/// directory, removed when the run ends.
pub fn run_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()))
}

/// Removes a run directory, and its parent once no run uses it.
pub fn remove_run_dir(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// What [`setup`] produced.
pub struct Setup {
    /// The last booted system.
    pub system: System,
    /// Its inputs.
    pub inputs: Inputs,
    /// Every set-up time, in seconds.
    pub times: Vec<f64>,
}

/// Generates inputs and boots the system `repeats` times, tearing each
/// down before the next boots (so at most one is ever alive and the
/// peak RSS does not count two), and keeping the last.
pub fn setup(shape: &Shape, seed: u64, root: &Path, repeats: usize) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for r in 0..repeats {
        if let Some((old, _)) = last.take() {
            System::shutdown(old);
        }
        let start = Instant::now();
        let inputs = Inputs::generate(shape, seed);
        let system = System::boot(shape, &inputs, root.join(format!("front-{r}")))?;
        times.push(start.elapsed().as_secs_f64());
        last = Some((system, inputs));
    }
    let (system, inputs) = last.expect("at least one set-up");
    Ok(Setup {
        system,
        inputs,
        times,
    })
}

/// One cycle as the client saw it.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The session it addressed.
    pub session: usize,
    /// The `Enqueue` was accepted.
    pub enqueued: bool,
    /// Every `Scores` answer of the cycle, reflecting read first.
    pub answers: Vec<StreamScores>,
    /// Enqueue → reflecting `Scores` answer, when every step succeeded.
    pub delta_us: Option<f64>,
    /// Round trip of each `Scores` request that succeeded.
    pub read_us: Vec<f64>,
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one cycle through the front door, counting every request.
pub fn front_cycle(
    client: &mut ServeClient,
    acct: &mut Outcome,
    handle: SessionHandle,
    session: usize,
    delta: RowDelta,
    bare_reads: usize,
) -> Cycle {
    let t0 = Instant::now();
    let enqueued = acct.call(client.enqueue(handle, delta)).is_some();
    let ticked = match acct.call(client.tick()) {
        Some(report) => {
            acct.tick(&report);
            true
        }
        None => false,
    };
    let t1 = Instant::now();
    let first = acct.call(client.scores(handle, 0));
    let t2 = Instant::now();
    let mut cycle = Cycle {
        session,
        enqueued,
        answers: Vec::with_capacity(1 + bare_reads),
        delta_us: None,
        read_us: Vec::with_capacity(1 + bare_reads),
    };
    if let Some(scores) = first {
        cycle.answers.push(scores);
        cycle.read_us.push(us(t2 - t1));
        if enqueued && ticked {
            cycle.delta_us = Some(us(t2 - t0));
        }
    }
    for _ in 0..bare_reads {
        let t = Instant::now();
        if let Some(scores) = acct.call(client.scores(handle, 0)) {
            cycle.read_us.push(us(t.elapsed()));
            cycle.answers.push(scores);
        }
    }
    cycle
}

/// What the client did in a timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every round's cycles, in order.
    pub rounds: Vec<Vec<Cycle>>,
    /// Its operations, the resets between rounds included.
    pub outcome: Outcome,
    /// Time spent in rounds, resets excluded, in seconds.
    pub timed_s: f64,
    /// Time spent resetting between rounds, in seconds.
    pub reset_s: f64,
    /// Peak RSS (MiB) at the end of the first round. Later readings
    /// would grow with the number of register/release cycles the
    /// allocator has seen, that is, with throughput.
    pub rss_mb: f64,
    /// Each round's time, in seconds.
    pub round_s: Vec<f64>,
}

impl Window {
    /// The [`FAST_ROUNDS`] fastest rounds, pooled: their
    /// enqueue → reflecting-answer latencies, their cycles and their
    /// seconds. Every round does the same work, so the slower rounds
    /// are the ones other load on the machine disturbed most.
    pub fn fast_rounds(&self) -> (Vec<f64>, usize, f64) {
        let fast = fastest(&self.round_s, FAST_ROUNDS);
        let deltas = fast
            .iter()
            .flat_map(|&r| self.rounds[r].iter().filter_map(|c| c.delta_us))
            .collect();
        let cycles = fast.iter().map(|&r| self.rounds[r].len()).sum();
        let seconds = fast.iter().map(|&r| self.round_s[r]).sum();
        (deltas, cycles, seconds)
    }

    /// Enqueue → reflecting-answer latencies, in order.
    pub fn delta_us(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flatten()
            .filter_map(|c| c.delta_us)
            .collect()
    }
}

/// Runs whole rounds in a closed loop, resetting the sessions between
/// them, until at least `seconds` of round time has passed. `system`
/// must hold freshly registered sessions.
pub fn closed_loop(
    shape: &Shape,
    system: &mut System,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Window, String> {
    let mut w = Window::default();
    loop {
        let start = Instant::now();
        let round = inputs
            .plan
            .iter()
            .map(|(s, delta)| {
                front_cycle(
                    &mut system.client,
                    &mut w.outcome,
                    system.handles[*s],
                    *s,
                    delta.clone(),
                    shape.bare_reads,
                )
            })
            .collect();
        let took = start.elapsed().as_secs_f64();
        w.timed_s += took;
        w.round_s.push(took);
        if w.rounds.is_empty() {
            w.rss_mb = rss_peak_mb();
        }
        w.rounds.push(round);
        if w.timed_s >= seconds {
            return Ok(w);
        }
        let start = Instant::now();
        system.reset(inputs, &mut w.outcome)?;
        w.reset_s += start.elapsed().as_secs_f64();
    }
}

/// Replays one round on in-process `StreamSession` twins fresh from the
/// fixtures, applying cycle `i`'s delta only when `enqueued(i)`; returns
/// the twins' scores after each cycle. A delta a twin rejects leaves it
/// unchanged, as a failed delta leaves a served session (the server
/// counts it in `deltas_failed`).
pub fn twin_round(inputs: &Inputs, enqueued: impl Fn(usize) -> bool) -> Vec<StreamScores> {
    let mut twins: HashMap<usize, StreamSession> = HashMap::new();
    let mut out = Vec::with_capacity(inputs.plan.len());
    for (i, (s, delta)) in inputs.plan.iter().enumerate() {
        let twin = twins.entry(*s).or_insert_with(|| {
            let mut twin = StreamSession::from_relation(inputs.sessions[*s].fixture.clone());
            twin.subscribe(gen::fd()).expect("X -> Y fits the fixture");
            twin
        });
        if enqueued(i) {
            let _ = twin.apply(delta);
        }
        out.push(twin.scores(0));
    }
    out
}

/// Counts the served answers that are not bit-identical to the twins.
/// Rounds whose deltas were all accepted share one replay; a round with
/// a refused delta is replayed on its own.
pub fn gate(inputs: &Inputs, rounds: &[Vec<Cycle>]) -> u64 {
    let mut clean = None;
    let mut mismatches = 0u64;
    for (r, round) in rounds.iter().enumerate() {
        if round.len() != inputs.plan.len() {
            eprintln!(
                "gate: round {r} has {} cycles, not a full round",
                round.len()
            );
            mismatches += round.len().max(1) as u64;
            continue;
        }
        let own;
        let want = if round.iter().all(|c| c.enqueued) {
            clean.get_or_insert_with(|| twin_round(inputs, |_| true))
        } else {
            own = twin_round(inputs, |i| round[i].enqueued);
            &own
        };
        for ((cycle, (s, _)), want) in round.iter().zip(&inputs.plan).zip(want) {
            if cycle.session != *s {
                mismatches += cycle.answers.len().max(1) as u64;
            } else {
                mismatches += cycle.answers.iter().filter(|a| !a.bits_eq(want)).count() as u64;
            }
        }
    }
    mismatches
}

/// Records the workload's settings.
pub fn settings(shape: &Shape, report: &mut Report) {
    report.set_num("sessions", shape.sessions);
    report.set_num("fixture_rows", shape.rows);
    report.set_num("delta_rows", shape.delta_rows);
    report.set_num("cycles_per_round", shape.round());
    report.set_num("connections", 1);
    report.set_num("client_threads", 1);
    report.set_num("bare_reads_per_cycle", shape.bare_reads);
    report.set_num("shards", shape.shards);
    report.set_str(
        "backend",
        if shape.shards > 1 {
            "tcp shard workers"
        } else {
            "in-process"
        },
    );
    report.set_str("durability", FLUSH_POLICY);

    report.set_num("resident_cap", RESIDENT_CAP);
    report.set_num("setup_repeats", SETUP_REPEATS);
}

/// The untraced run: set-up, whole rounds for the timed window, then
/// the correctness gate outside it.
pub fn run(shape: &Shape, seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    settings(shape, report);
    let root = run_dir(shape.name);
    let result = (|| {
        let Setup {
            mut system,
            inputs,
            times,
        } = setup(shape, seed, &root, SETUP_REPEATS)?;
        let window = closed_loop(shape, &mut system, &inputs, seconds as f64);
        system.shutdown();
        let window = window?;

        let mismatches = gate(&inputs, &window.rounds);
        report.correct = mismatches == 0;
        report.set_num("gate_mismatches", mismatches);
        report.outcome.absorb(&window.outcome);

        let delta = Samples::new(window.delta_us()).ok_or("no delta completed in the window")?;
        let (fast, fast_cycles, fast_s) = window.fast_rounds();
        let fast = Samples::new(fast).ok_or("no delta completed in the fastest rounds")?;
        let (tail_pct, tail) = fast.tail().ok_or("too few deltas for a tail percentile")?;
        let reads = window
            .rounds
            .iter()
            .flatten()
            .flat_map(|c| c.read_us.iter().copied())
            .collect();
        let reads = Samples::new(reads).ok_or("no read completed in the window")?;
        let setup = Samples::new(times).expect("repeats >= 1");
        let cycles: usize = window.rounds.iter().map(Vec::len).sum();
        report.set_num("rounds", window.rounds.len());
        report.set_num("fast_rounds", FAST_ROUNDS.min(window.rounds.len()));
        report.set_num("fast_delta_samples", fast.len());
        report.set_num("delta_samples", delta.len());
        report.set_num("read_samples", reads.len());
        report.set_num("read_p50_us", format!("{:.3}", reads.median()));
        report.set_num("tail_percentile", format!("{:.4}", tail_pct * 100.0));
        let (q1, q3) = delta.quartiles();
        report.set_num("request_q1_us", format!("{q1:.3}"));
        report.set_num("request_q3_us", format!("{q3:.3}"));
        report.set_num("window_s", format!("{:.4}", window.timed_s));
        report.set_num("reset_s", format!("{:.4}", window.reset_s));
        report.set_num("cycles", cycles);
        report.set_num("window_p50_us", format!("{:.3}", delta.median()));
        report.set_num(
            "window_requests_per_s",
            format!("{:.3}", cycles as f64 / window.timed_s),
        );
        report.metrics = vec![
            metric("setup_s", setup.median(), "s"),
            metric("request_p50_us", fast.median(), "us"),
            metric("request_tail_us", tail, "us"),
            metric("requests_per_s", fast_cycles as f64 / fast_s, "1/s"),
            metric("rss_peak_mb", window.rss_mb, "MiB"),
        ];
        Ok(())
    })();
    remove_run_dir(&root);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        name: "small",
        sessions: 3,
        rows: 256,
        delta_rows: 16,
        cycles_per_session: 8,
        bare_reads: 1,
        shards: 1,
    };

    /// A served round answered by honest twins, with `refused` cycles'
    /// deltas refused by the server.
    fn honest_round(inputs: &Inputs, refused: &[usize]) -> Vec<Cycle> {
        let scores = twin_round(inputs, |i| !refused.contains(&i));
        inputs
            .plan
            .iter()
            .zip(scores)
            .enumerate()
            .map(|(i, ((s, _), scores))| Cycle {
                session: *s,
                enqueued: !refused.contains(&i),
                answers: vec![scores, scores],
                delta_us: None,
                read_us: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn a_round_gives_every_session_its_cycles_round_robin() {
        let inputs = Inputs::generate(&SMALL, 5);
        assert_eq!(inputs.plan.len(), SMALL.round());
        let sessions: Vec<usize> = inputs.plan.iter().map(|(s, _)| *s).take(6).collect();
        assert_eq!(sessions, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn honest_rounds_pass_the_gate() {
        let inputs = Inputs::generate(&SMALL, 5);
        let clean = honest_round(&inputs, &[]);
        let refused = honest_round(&inputs, &[4]);
        assert_eq!(gate(&inputs, &[clean.clone(), refused, clean]), 0);
    }

    #[test]
    fn perturbed_twin_trips_the_gate() {
        let inputs = Inputs::generate(&SMALL, 5);
        let log = honest_round(&inputs, &[]);
        // Twins built from other rows disagree with the served log.
        let other = Inputs::generate(&SMALL, 6);
        assert!(gate(&other, std::slice::from_ref(&log)) > 0);
        // So does one served answer with one flipped bit, in any round.
        let mut flipped = log.clone();
        let rho = flipped[10].answers[1].rho;
        flipped[10].answers[1].rho = f64::from_bits(rho.to_bits() ^ 1);
        assert_eq!(gate(&inputs, &[log.clone(), flipped]), 1);
        // And a served delta the server claims it refused but applied.
        let mut lied = log.clone();
        lied[4].enqueued = false;
        assert!(gate(&inputs, &[lied]) > 0);
        // And a cut-short round.
        assert!(gate(&inputs, &[log[..5].to_vec()]) > 0);
    }
}
