//! `discover_rwd`: the paper's own use case. `AfdEngine::discover`
//! (lattice search, `max_lhs` 2, ε 0.9) for μ⁺ and g3′ over all ten
//! simulated RWD relations (the shapes of the paper's Table II), at
//! `nproc` threads. It bypasses every served layer and is the only load
//! on `discovery`, `relation`, `core` and `parallel`.

use std::time::{Duration, Instant};

use afd_core::{measure_by_name, Measure};
use afd_discovery::{naive_lattice, Discovered, LatticeConfig};
use afd_engine::{AfdEngine, DiscoverRequest, EngineConfig};
use afd_relation::{AttrId, AttrSet, ContingencyTable, Pli, Relation};
use afd_rwd::RwdBenchmark;

use crate::gen::sub_seed;
use crate::report::{metric, rss_peak_mb, Report};
use crate::stats::{fastest, median_or_zero, Samples};
use crate::trace::set;

/// Row scale of the paper's relation sizes.
pub const SCALE: f64 = 0.005;

/// Independently seeded draws of the ten relations per run, so a
/// request's median spans several draws of each relation rather than
/// one draw's data.
pub const DRAWS: u64 = 6;

/// The measures discovered for, by paper name.
pub const MEASURES: [&str; 2] = ["mu+", "g3'"];

/// Maximum LHS size.
pub const MAX_LHS: usize = 2;

/// Score threshold.
pub const EPSILON: f64 = 0.9;

fn request(measure: &str) -> DiscoverRequest {
    DiscoverRequest {
        measure: measure.to_string(),
        epsilon: EPSILON,
        max_lhs: MAX_LHS,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Passes whose requests give the latency and rate metrics: the fastest
/// of the run's (about five in a 40 s window), 360 requests.
pub const FAST_PASSES: usize = 3;

/// Set-ups before the window; [`SETUPS_PER_GAP`] more run between
/// passes.
pub const SETUPS_BEFORE: usize = 5;

/// Set-ups between two passes, each replacing the one the next pass
/// runs on. A set-up takes a fraction of a second and the machine's
/// speed drifts over seconds, so set-ups bunched at the start of a run
/// would measure that one moment; spread over the run, their median
/// follows the whole run.
pub const SETUPS_PER_GAP: usize = 3;

/// The generated relations and one engine per relation per thread
/// count.
#[derive(Default)]
struct Setup {
    relations: Vec<Relation>,
    engines: Vec<AfdEngine>,
}

fn setup_once(seed: u64, threads: usize) -> Setup {
    let relations: Vec<Relation> = (0..DRAWS)
        .flat_map(|d| RwdBenchmark::generate_scaled(SCALE, sub_seed(seed, d)).relations)
        .map(|r| r.relation)
        .collect();
    let engines = engines(&relations, threads);
    Setup { relations, engines }
}

/// Replaces `setup` with a fresh one for `seed` (the old one is dropped
/// first, so only one is ever alive) and records how long that took.
fn timed_setup(setup: &mut Setup, seed: u64, threads: usize, times: &mut Vec<f64>) {
    *setup = Setup::default();
    let start = Instant::now();
    *setup = setup_once(seed, threads);
    times.push(start.elapsed().as_secs_f64());
}

fn engines(relations: &[Relation], threads: usize) -> Vec<AfdEngine> {
    relations
        .iter()
        .map(|rel| {
            AfdEngine::from_relation(rel.clone())
                .with_config(EngineConfig {
                    threads: Some(threads),
                    ..EngineConfig::default()
                })
                .expect("threads >= 1")
        })
        .collect()
}

/// One pass: every relation × measure. Returns per-request seconds and
/// the pass wall time; discovered output and lattice statistics go to
/// `sink` when given.
fn pass(
    engines: &mut [AfdEngine],
    report: &mut Report,
    mut sink: Option<&mut Found>,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(engines.len() * MEASURES.len());
    for engine in engines.iter_mut() {
        for m in MEASURES {
            let req = request(m);
            let t = Instant::now();
            let resp = engine.discover(&req);
            times.push(t.elapsed().as_secs_f64());
            report.outcome.attempt(resp.is_ok(), "discover_error");
            if let (Some(sink), Ok(resp)) = (sink.as_deref_mut(), resp) {
                sink.push((resp.found, resp.lattice.unwrap_or_default()));
            }
        }
    }
    (times, start.elapsed().as_secs_f64())
}

/// Output of one pass: per call, the discovered FDs and lattice
/// statistics.
type Found = Vec<(Vec<Discovered>, afd_discovery::LatticeStats)>;

/// Passes until `window` of pass time is spent (at least one), calling
/// `between` with the set-up between passes, outside the window.
/// Returns per-request seconds, per-pass seconds, the pass time and the
/// last pass's output.
fn passes(
    setup: &mut Setup,
    window: Duration,
    report: &mut Report,
    between: &mut dyn FnMut(&mut Setup),
) -> (Vec<f64>, Vec<f64>, f64, Found) {
    let mut requests = Vec::new();
    let mut walls = Vec::new();
    let mut timed = 0.0;
    let mut found = Vec::new();
    loop {
        found.clear();
        let (t, wall) = pass(&mut setup.engines, report, Some(&mut found));
        requests.extend(t);
        walls.push(wall);
        timed += wall;
        if timed >= window.as_secs_f64() {
            break;
        }
        between(setup);
    }
    (requests, walls, timed, found)
}

/// The correctness gate: the engine's output (FDs, order and every
/// score's bits) must equal the reference `naive_lattice` search, for
/// all ten relations of draw `seed % DRAWS` (the reference search is
/// slower than a pass, so one draw per run, a different one per seed).
fn gate(relations: &[Relation], found: &Found, seed: u64) -> u64 {
    let cfg = LatticeConfig {
        max_lhs: MAX_LHS,
        epsilon: EPSILON,
    };
    let per_draw = relations.len() / DRAWS as usize;
    let first = (seed % DRAWS) as usize * per_draw;
    let mut mismatches = 0;
    for (r, rel) in relations.iter().enumerate().skip(first).take(per_draw) {
        for (k, m) in MEASURES.iter().enumerate() {
            let measure = measure_by_name(m).expect("known measure");
            let want = naive_lattice::discover_all_threaded(rel, measure.as_ref(), cfg, nproc());
            let got = &found[r * MEASURES.len() + k].0;
            let i = r + 1;
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.fd == w.fd && g.score.to_bits() == w.score.to_bits());
            if !same {
                eprintln!("gate: relation {i} measure {m}: discover disagrees with naive_lattice");
                mismatches += 1;
            }
        }
    }
    mismatches
}

fn settings(report: &mut Report, threads: usize) {
    report.set_num("relations", 10);
    report.set_num("draws", DRAWS);
    report.set_num("scale", SCALE);
    report.set_str("measures", &MEASURES.join(","));
    report.set_num("max_lhs", MAX_LHS);
    report.set_num("epsilon", EPSILON);
    report.set_num("threads", threads);
    report.set_num("setups_before_window", SETUPS_BEFORE);
    report.set_num("setups_between_passes", SETUPS_PER_GAP);
}

/// The untraced run (`trace == false`) or the traced one.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) -> Result<(), String> {
    let threads = nproc();
    settings(report, threads);
    let window = Duration::from_secs(seconds);
    let mut setup_times = Vec::new();
    let mut setup = Setup::default();
    for _ in 0..if trace { 1 } else { SETUPS_BEFORE } {
        timed_setup(&mut setup, seed, threads, &mut setup_times);
    }
    report.set_num(
        "rows",
        format!(
            "{:?}",
            setup
                .relations
                .iter()
                .map(Relation::n_rows)
                .collect::<Vec<_>>()
        ),
    );
    if trace {
        return traced(&mut setup, window, seed, report);
    }
    let (requests, walls, elapsed, found) = passes(&mut setup, window, report, &mut |s| {
        for _ in 0..SETUPS_PER_GAP {
            timed_setup(s, seed, threads, &mut setup_times);
        }
    });
    let rss = rss_peak_mb();
    let mismatches = gate(&setup.relations, &found, seed);
    report.correct = mismatches == 0;
    report.set_num("gate_mismatches", mismatches);

    let n_requests = requests.len();
    let per_call = MEASURES.len() * setup.relations.len();
    let by_relation: Vec<String> = (0..setup.relations.len())
        .map(|r| {
            let mine = requests
                .iter()
                .enumerate()
                .filter(|(i, _)| (i % per_call) / MEASURES.len() == r)
                .map(|(_, t)| t * 1e6)
                .collect();
            format!("{:.0}", median_or_zero(mine))
        })
        .collect();
    report.set_num(
        "request_us_by_relation",
        format!("[{}]", by_relation.join(", ")),
    );
    let fast_passes = fastest(&walls, FAST_PASSES);
    let fast = fast_passes
        .iter()
        .flat_map(|&p| &requests[p * per_call..(p + 1) * per_call])
        .copied()
        .collect();
    let fast = Samples::new(fast).ok_or("no discover request completed")?;
    let fast_s: f64 = fast_passes.iter().map(|&p| walls[p]).sum();
    let (tail_pct, tail) = fast
        .tail()
        .ok_or("too few requests for a tail percentile")?;
    let req = Samples::new(requests).ok_or("no discover request completed")?;
    report.set_num("request_samples", n_requests);
    report.set_num("fast_passes", fast_passes.len());
    report.set_num("fast_request_samples", fast.len());
    report.set_num("tail_percentile", format!("{:.4}", tail_pct * 100.0));
    let (q1, q3) = req.quartiles();
    report.set_num("request_q1_us", format!("{:.3}", q1 * 1e6));
    report.set_num("request_q3_us", format!("{:.3}", q3 * 1e6));
    report.set_num("passes", walls.len());
    report.set_num("setups", setup_times.len());
    report.set_num("discover_pass_s", format!("{:.6}", median_or_zero(walls)));
    report.set_num("window_p50_us", format!("{:.3}", req.median() * 1e6));
    report.set_num(
        "window_requests_per_s",
        format!("{:.3}", n_requests as f64 / elapsed),
    );
    report.metrics = vec![
        metric(
            "setup_s",
            Samples::new(setup_times).expect(">= 1 set-up").median(),
            "s",
        ),
        metric("request_p50_us", fast.median() * 1e6, "us"),
        metric("request_tail_us", tail * 1e6, "us"),
        metric("requests_per_s", fast.len() as f64 / fast_s, "1/s"),
        metric("rss_peak_mb", rss, "MiB"),
    ];
    Ok(())
}

/// Outside-in timings of the kernels one relation's search runs on:
/// per-attribute encodes, level-2 refines, and the measures over the
/// level-1 contingency tables.
fn kernel_split(rel: &Relation, measures: &[Box<dyn Measure>]) -> (f64, f64, f64) {
    let attrs: Vec<AttrId> = rel.schema().attrs().collect();
    let t = Instant::now();
    let encs: Vec<_> = attrs
        .iter()
        .map(|&a| rel.group_encode(&AttrSet::single(a)))
        .collect();
    let plis: Vec<Pli> = encs
        .iter()
        .map(|e| Pli::from_encoding(e, rel.n_rows()))
        .collect();
    let encode = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut clusters = 0usize;
    for (a, pli) in plis.iter().enumerate() {
        for enc in &encs[a + 1..] {
            clusters += pli.refine(&enc.codes).n_clusters();
        }
    }
    std::hint::black_box(clusters);
    let refine = t.elapsed().as_secs_f64();
    let mut score = 0.0;
    let mut sum = 0.0;
    for x in 0..attrs.len() {
        for y in 0..attrs.len() {
            if x == y {
                continue;
            }
            let table = ContingencyTable::from_codes(&encs[x].codes, &encs[y].codes);
            let t = Instant::now();
            for m in measures {
                sum += m.score_table(&table);
            }
            score += t.elapsed().as_secs_f64();
        }
    }
    std::hint::black_box(sum);
    (encode, refine, score)
}

/// The traced run: half the window untraced (the reference pass time),
/// half traced — a pass at `nproc` threads timed per request, the same
/// pass at one thread, and the kernel split beside it.
fn traced(
    setup: &mut Setup,
    window: Duration,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let (_, walls, _, _) = passes(setup, window / 2, report, &mut |_| {});
    let untraced = median_or_zero(walls);
    let mut single = engines(&setup.relations, 1);
    let measures: Vec<Box<dyn Measure>> = MEASURES
        .iter()
        .map(|m| measure_by_name(m).expect("known measure"))
        .collect();
    let start = Instant::now();
    let mut traced_walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut single_walls = Vec::new();
    let (mut encode, mut refine, mut score) = (Vec::new(), Vec::new(), Vec::new());
    let mut found = Vec::new();
    let mut traced_passes = 0usize;
    loop {
        traced_passes += 1;
        found.clear();
        let (times, wall) = pass(&mut setup.engines, report, Some(&mut found));
        unattributed.push((wall - times.iter().sum::<f64>()) / wall);
        traced_walls.push(wall);
        let (_, wall1) = pass(&mut single, report, None);
        single_walls.push(wall1);
        let (mut e, mut r, mut s) = (0.0, 0.0, 0.0);
        for rel in &setup.relations {
            let (de, dr, ds) = kernel_split(rel, &measures);
            e += de;
            r += dr;
            s += ds;
        }
        encode.push(e);
        refine.push(r);
        score.push(s);
        if start.elapsed() >= window / 2 {
            break;
        }
    }
    let mismatches = gate(&setup.relations, &found, seed);
    report.correct = mismatches == 0;
    report.set_num("gate_mismatches", mismatches);

    let mut candidates = 0usize;
    let mut pruned = 0usize;
    let mut emitted = 0usize;
    for (_, stats) in &found {
        candidates += stats.total_candidates();
        pruned += stats.levels.iter().map(|l| l.pruned).sum::<usize>();
        emitted += stats.levels.iter().map(|l| l.emitted).sum::<usize>();
    }
    let pass1 = median_or_zero(single_walls);
    let (encode, refine, score) = (
        median_or_zero(encode),
        median_or_zero(refine),
        median_or_zero(score),
    );
    let traced_pass = median_or_zero(traced_walls);
    report.set_num("traced_passes", traced_passes);
    report.metrics = crate::trace::zeroed_layers();
    let m = &mut report.metrics;
    set(m, "discovery.candidates", candidates as f64);
    set(m, "discovery.pruned", pruned as f64);
    set(
        m,
        "discovery.emitted_frac",
        emitted as f64 / candidates.max(1) as f64,
    );
    set(m, "discovery.self_s", pass1 - encode - refine - score);
    set(m, "relation.encode_s", encode);
    set(m, "relation.refine_s", refine);
    set(m, "core.score_s", score);
    set(m, "parallel.speedup", pass1 / untraced);
    set(m, "trace.unattributed_frac", median_or_zero(unattributed));
    set(m, "trace.overhead_frac", traced_pass / untraced - 1.0);
    Ok(())
}
