//! # perfbench — the end-to-end benchmark of the AFD system
//!
//! The paper compares AFD measures so that people can discover and rank
//! approximate FDs in real data. This system offers that two ways:
//! batch discovery over a relation, and score reads kept fresh per delta
//! and served over a socket. This benchmark measures both as a user sees
//! them, and splits each figure across the layers (crates) beneath.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--seed` generates every input (fixtures, snapshots, deltas); the
//! server only ever receives generated inputs, and one seed replays the
//! same bytes. `--seconds` is the timed window. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones. The last line of
//! standard output is one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`; a `settings` line before it
//! records the host and every knob of the run (core count, CPU, source
//! revision, seed, sample counts, thread counts, fixture sizes, flush
//! policy, `resident_cap`, tail percentile). A failed correctness gate
//! still prints the result, with `"correct": false`, and exits 1.
//!
//! ## Workloads
//!
//! All load comes from this one process, over one client connection.
//! Served workloads are closed loops: the client sends its next request
//! only after the previous answer arrived. One served cycle is `Enqueue`
//! of a delta, `Tick`, `Scores` (the answer that reflects the delta),
//! then three bare `Scores` reads. The timed window is a whole number of
//! *rounds*: every session gets a fixed number of cycles per round, from
//! a fresh registration, with the same deltas every round, and between
//! rounds (outside the timed stretch) every session is released and
//! registered again from its snapshot. A session's log is append-only,
//! so without the reset the state at any moment of the window would
//! depend on how fast the host had been so far.
//!
//! | workload | what it runs | why |
//! |---|---|---|
//! | `serve_hot` (not in `BENCHMARK.json`) | loopback `ServeFront` over an in-process `AfdServe` (1 shard, ephemeral durability — what `afd serve --listen` runs); 8 sessions `Register`ed from snapshots of 16 384-row fixtures subscribed to X→Y; 256-row `ChurnPlanner` deltas; a round is 256 cycles per session, round robin | the default served path; everything fits `resident_cap` (64), so session apply and the front door dominate, and the reads beside the writes expose cost moved from apply to read. Not run by the driver: on the shared 2-vCPU VM it was measured on, its speed moved with other load on the machine far more than the other workloads did — two sets of 10 seeds minutes apart gave medians of 274 and 478 µs (`request_p50_us`) and 3 001 and 1 598/s, while `serve_sharded_tcp` moved 6% and `discover_rwd` 14–19% — so no bound of 25% holds for it there; run it by hand, where the host is quiet |
//! | `serve_sharded_tcp` | same front and cycle; `StreamBackend::Tcp` over two shard-worker children (`perfbench shard-worker --listen`, the library entry `afd shard-worker --listen` runs); 2 sessions, each a 2-shard snapshot (key X) of a 16 384-row fixture; 64-row deltas; a round is 256 cycles per session, which spans four `checkpoint_every` (64) intervals, so checkpoint pulls land in the tail | isolates the sharding taxes: route, fan-out, full-state shipping and re-merge |
//! | `discover_rwd` | `AfdEngine::discover` (`max_lhs` 2, ε 0.9) for μ⁺ and g3′ over the ten simulated RWD relations (`RwdBenchmark::generate_scaled(0.005)`, the paper's Table II shapes), six seeded draws of each, at `nproc` threads, pass after pass | the paper's own use case; bypasses every served layer and is the only load on `discovery`, `relation`, `core` and `parallel` |
//!
//! Served fixtures have the shape of the repository's bench fixture
//! (|dom(X)| = n/8, |dom(Y)| = n/32, 1% errors) with both value
//! distributions fixed to uniform, so a seed changes the values but not
//! the cost of the data.
//!
//! There is no workload on the serve layer's persistence path (spill,
//! restore, journal). A registry far larger than `resident_cap` makes
//! every cycle evict and restore, and every spill write fsyncs its file
//! and directory whatever the durability setting, so such a workload is
//! bound by the disk: its figures spread 14–62% between seeds, too wide
//! for a regression bound.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Every workload reports the same five, so each has a value on each
//! workload. A *request* is the unit a user waits for: on a served
//! workload one delta (time from sending `Enqueue` to receiving the
//! `Scores` answer that reflects it), on `discover_rwd` one `discover`
//! call (one relation, one measure).
//!
//! A served round, and a discovery pass, is the same work every time,
//! so how much rounds of one run differ is how much other load on the
//! machine disturbed them; on a shared 2-vCPU VM, rounds minutes apart
//! differed by up to 1.9×. The latency and rate metrics are therefore
//! taken from the requests of the run's *fastest units*, pooled: its 16
//! fastest rounds (8 192 deltas on `serve_sharded_tcp`) or 3 fastest
//! passes (360 `discover` calls). Those are the units other load
//! disturbed least, so what they measure is what a change to the code
//! moves, and pooling several keeps enough samples for a steady median
//! and tail. The whole window's median and rate are in `settings` as
//! `window_p50_us` and `window_requests_per_s`.
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `setup_s` | s | lower | median of the run's set-ups: on a served workload 15 before the window, each data generation, server boot, worker spawn and registration (the previous system torn down first); on `discover_rwd` relation generation and engine construction, 5 before the window and 3 between passes, outside it, each replacing the set-up the next pass runs on (one takes a tenth of a second, so set-ups spread over the run follow the machine's drifting speed less than a bunch at its start); correctness oracles excluded |
//! | `request_p50_us` | us | lower | median request latency over the fastest units |
//! | `request_tail_us` | us | lower | over the fastest units, the highest percentile up to p99 with at least 10 samples beyond it: p99 on a served workload, about p97 on `discover_rwd` (the percentile is in `settings`) |
//! | `requests_per_s` | 1/s | higher | requests the fastest units completed, per second of their time |
//! | `rss_peak_mb` | MiB | lower | `VmHWM` of this process, which hosts the server: served workloads read it after the first round (every round holds the same state, but the allocator's footprint creeps with each register/release cycle, so a later reading would track throughput), `discover_rwd` right after the window |
//!
//! Failures are counted, not averaged away: `attempted` counts every
//! request sent (every `discover` call), and `failed` counts every
//! refusal class — typed `ServeError` answers such as a stale handle or
//! backpressure, plus each tick's in-band `deltas_failed` and
//! `restore_failed`. `failed / attempted` is the failure fraction; it is
//! printed on its own line and is 0 on every workload. A failed request
//! contributes no latency sample. The bare reads' round trip is printed
//! as `read_p50_us` in `settings`, and one discovery pass as
//! `discover_pass_s`.
//!
//! ## Correctness gates
//!
//! Checked outside the timed window and outside `setup_s`:
//!
//! * every served `Scores` answer must be `bits_eq` to an in-process
//!   `StreamSession` twin fed the same deltas;
//! * `discover_rwd`'s output (FDs, order and every score's
//!   `f64::to_bits`) must equal `afd_discovery::naive_lattice`, once
//!   per run, for the ten relations of draw `seed % 6` (the reference
//!   search over all six draws would add about 12 s to every run).
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The traced run replays one round against nested twins and times each
//! public call from outside (see `trace.rs`); a layer's self time is its
//! call time minus the nested call's, and the front door is timed on its
//! own, from the cycle's bare reads and the framing cost. Layers are
//! named after the crates. A layer a workload never reaches reports 0.
//! Each metric below should move the listed end-to-end metrics on the
//! listed workload:
//!
//! | layer | metrics | should move | on |
//! |---|---|---|---|
//! | `front` (`ServeFront`/`ServeClient`) | `front.self_us` (3 × (bare `Scores` round trip − the twin's `scores` call − its framing) + framing of the cycle's requests and answers: socket, dispatch, codec), `front.scores_rtt_us`, `front.frame_bytes_per_delta` | `request_p50_us`, `requests_per_s` | `serve_sharded_tcp` (most on `serve_hot`, run by hand) |
//! | `serve` (`serve.rs`) | `serve.tick_us`, `serve.tick_self_us`, `serve.self_us`, `serve.deltas_per_tick` | `request_p50_us`, `request_tail_us` | `serve_sharded_tcp` |
//! | `engine` | `engine.delta_us`, `engine.restore_us` (restore from the registration snapshot), `engine.self_us` | `request_p50_us`, `setup_s` | `serve_sharded_tcp` |
//! | `stream.shard` (`DeltaRouter`, fan-out, `IncTable` merge) | `stream.route_us`, `stream.fanout_max_us`, `stream.fanout_sum_us`, `stream.merge_us` (Y-id sync + merged score read), `stream.shard_self_us` | `request_p50_us` | `serve_sharded_tcp`; on `serve_hot` the N=1 router tax |
//! | `stream.session` (`StreamSession`/`InProcShard`) | `stream.session_apply_us`, the floor every served delta pays (on `serve_sharded_tcp` an unsharded twin of each session) | `request_p50_us` | `serve_sharded_tcp` |
//! | `net` (`TcpShard`) | `net.shard_rtt_us`, `net.transport_self_us` (`TcpShard::apply` − `InProcShard::apply` on the same slices) | `request_p50_us`, `request_tail_us` | `serve_sharded_tcp` only |
//! | `wire` | `wire.state_bytes_per_apply`, `wire.state_decode_us`, `wire.snapshot_bytes`, `wire.snapshot_decode_us` | `request_p50_us` (state), `setup_s` (snapshot) | `serve_sharded_tcp` |
//! | `discovery` | `discovery.candidates`, `discovery.pruned` (per pass), `discovery.emitted_frac`, `discovery.self_s` (one-thread pass minus the kernel split below) | `request_p50_us`, `requests_per_s`, `rss_peak_mb` | `discover_rwd` only |
//! | `relation` / `core` | `relation.encode_s` (per-attribute `group_encode` + PLI), `relation.refine_s` (level-2 refines), `core.score_s` (the measures over the level-1 tables), per pass | `requests_per_s` | `discover_rwd` only |
//! | `parallel` | `parallel.speedup` (pass at 1 thread ÷ pass at `nproc` threads) | `requests_per_s` | `discover_rwd` |
//! | `trace` | `trace.unattributed_frac` ((end-to-end − Σ self times) ÷ end-to-end; on `discover_rwd` only the loop around the calls), `trace.negative_self_frac` (share of per-cycle self times below 0), `trace.overhead_frac` (traced ÷ untraced − 1) | none: checks the split itself | every workload |

mod discover;
mod gen;
mod outcome;
mod report;
mod served;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_sharded_tcp|discover_rwd> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The workloads: `BENCHMARK.json`'s, and `serve_hot`, which is run by
/// hand (see the module docs).
const WORKLOADS: [&str; 3] = ["serve_hot", "serve_sharded_tcp", "discover_rwd"];

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = num()?,
            "--seconds" => opts.seconds = num()?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(opts)
}

/// `perfbench shard-worker --listen ADDR`: the TCP shard worker the
/// sharded workload spawns — the library entry `afd shard-worker
/// --listen` runs. It exits when its stdin closes, so a worker never
/// outlives the benchmark that started it.
fn shard_worker(args: &[String]) -> ExitCode {
    let [flag, addr] = args else {
        eprintln!("usage: perfbench shard-worker --listen ADDR");
        return ExitCode::FAILURE;
    };
    if flag != "--listen" {
        eprintln!("usage: perfbench shard-worker --listen ADDR");
        return ExitCode::FAILURE;
    }
    let listener = match std::net::TcpListener::bind(addr.as_str()) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("shard-worker: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(local) => {
            println!("listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("shard-worker: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    let err = afd_stream::run_worker_listener(listener);
    eprintln!("shard-worker: accept loop failed: {err}");
    ExitCode::FAILURE
}

fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    report.set_str("workload", &opts.workload);
    report.set_num("seed", opts.seed);
    report.set_num("seconds", opts.seconds);
    report.set_num("trace", u8::from(opts.trace));
    report::host_settings(&mut report);
    let shape = match opts.workload.as_str() {
        "serve_hot" => Some(served::SERVE_HOT),
        "serve_sharded_tcp" => Some(served::SERVE_SHARDED_TCP),
        _ => None,
    };
    match (shape, opts.trace) {
        (Some(shape), false) => served::run(&shape, opts.seed, opts.seconds, &mut report)?,
        (Some(shape), true) => trace::run(&shape, opts.seed, opts.seconds, &mut report)?,
        (None, trace) => discover::run(opts.seed, opts.seconds, trace, &mut report)?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-worker") {
        return shard_worker(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(report) => {
            if report::print(&report) {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let opts = parse(&args(
            "--workload serve_sharded_tcp --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            opts,
            Opts {
                workload: "serve_sharded_tcp".into(),
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_cold --seed 1 --seconds 1 --trace 0",
            "--workload serve_hot --seed x --seconds 1 --trace 0",
            "--workload serve_hot --seed 1 --seconds 0 --trace 0",
            "--workload serve_hot --trace 2",
            "--workload serve_hot --seed",
            "--bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
