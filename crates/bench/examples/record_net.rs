//! Records the cost of carrying the worker protocol and the serve
//! protocol over loopback TCP into `BENCH_net.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_net [--smoke] [out.json]
//! ```
//!
//! Three sections:
//!
//! 1. **Shard apply transport tax** — the same churn deltas applied
//!    through a 2-shard session on each transport (in-process shards,
//!    stdio child processes, TCP loopback listeners), reporting p50/p99
//!    apply latency per topology over 1 024 deltas, so the p99 has ten
//!    samples beyond it. The correctness gate asserts all three read
//!    bit-identical scores after every delta.
//! 2. **Serve round-trip latency** — p50/p99 of a `Scores` request
//!    through `ServeClient` against a loopback `ServeFront`.
//! 3. **Connection churn** — connect/hello/census/disconnect cycles per
//!    second through the front door's accept loop, with the server's
//!    own counters audited against the loop count.
//!
//! `--smoke` shrinks every section so CI exercises the full path in
//! seconds.

use afd_bench::{fixture_relation, Host};
use afd_engine::{AfdEngine, SnapshotRequest, SubscribeRequest};
use afd_relation::{AttrId, AttrSet, Fd, Relation, Schema};
use afd_serve::{AfdServe, DurabilityConfig, ServeClient, ServeConfig, ServeFront};
use afd_stream::{ChurnPlanner, ProcessShard, RowDelta, ShardedSession, TcpShard, WorkerCommand};
use std::fmt::Write as _;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn pct(samples: &mut [Duration], p: f64) -> Duration {
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// A live `afd shard-worker --listen` child, killed on drop.
struct TcpWorker {
    child: Child,
    addr: String,
}

impl TcpWorker {
    fn spawn(afd: &WorkerCommand) -> TcpWorker {
        let mut child = Command::new(afd.program())
            .args(["shard-worker", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("worker listener spawns");
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut line)
            .expect("worker announces its address");
        assert!(line.starts_with("listening on"), "unexpected: {line:?}");
        let addr = line.trim().rsplit(' ').next().unwrap().to_string();
        TcpWorker { child, addr }
    }
}

impl Drop for TcpWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let afd = WorkerCommand::sibling_binary("afd").unwrap_or_else(|| {
        eprintln!(
            "FAIL: could not find the `afd` binary next to this example; \
             run `cargo build --release` (or --profile matching this run) first"
        );
        std::process::exit(1);
    });

    let (n, deltas, rtts, churns) = if smoke {
        (2_048, 6, 16, 8)
    } else {
        (16_384, 1_024, 512, 200)
    };
    let fixture = fixture_relation(n, 7);
    let schema = Schema::new(["X", "Y"]).unwrap();
    let key = AttrSet::single(AttrId(0));
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let k = (n / 256).max(4);

    // ------------------------- section 1: shard apply transport tax
    let workers = [TcpWorker::spawn(&afd), TcpWorker::spawn(&afd)];
    let mut inproc = ShardedSession::new(schema.clone(), key.clone(), 2).expect("valid topology");
    let mut stdio: ShardedSession<ProcessShard> =
        ShardedSession::spawn(schema.clone(), key.clone(), 2, &afd).expect("stdio workers spawn");
    let mut tcp: ShardedSession<TcpShard> = ShardedSession::with_backends(
        schema.clone(),
        key.clone(),
        workers
            .iter()
            .map(|w| TcpShard::connect(&w.addr, &schema).expect("dial worker"))
            .collect(),
    )
    .expect("valid topology");
    let ci = inproc.subscribe(fd.clone()).expect("2-attr fixture");
    let cs = stdio.subscribe(fd.clone()).expect("2-attr fixture");
    let ct = tcp.subscribe(fd.clone()).expect("2-attr fixture");
    let seed = RowDelta::insert_only((0..fixture.n_rows()).map(|r| fixture.row(r)));
    inproc.apply(&seed).expect("seed applies");
    stdio.apply(&seed).expect("seed applies");
    tcp.apply(&seed).expect("seed applies");

    let mut planner = ChurnPlanner::new(&fixture);
    let mut t_inproc = Vec::with_capacity(deltas);
    let mut t_stdio = Vec::with_capacity(deltas);
    let mut t_tcp = Vec::with_capacity(deltas);
    for _ in 0..deltas {
        let delta = planner.next_delta(k);
        let start = Instant::now();
        inproc.apply(&delta).expect("valid planned delta");
        t_inproc.push(start.elapsed());
        let start = Instant::now();
        stdio.apply(&delta).expect("valid planned delta");
        t_stdio.push(start.elapsed());
        let start = Instant::now();
        tcp.apply(&delta).expect("valid planned delta");
        t_tcp.push(start.elapsed());
        let want = inproc.scores(ci);
        assert!(stdio.scores(cs).bits_eq(&want), "stdio diverged");
        assert!(tcp.scores(ct).bits_eq(&want), "tcp diverged");
    }
    assert!(stdio.shutdown().clean());
    assert!(tcp.shutdown().clean());
    let apply_rows = [
        ("in_process", &mut t_inproc),
        ("stdio", &mut t_stdio),
        ("tcp", &mut t_tcp),
    ];
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (name, samples) in apply_rows {
        let (p50, p99) = (pct(samples, 0.5), pct(samples, 0.99));
        let _ = writeln!(
            json,
            "    {{\"workload\": \"shard_apply_2x\", \"transport\": \"{name}\", \"rows\": {n}, \
             \"delta_rows\": {k}, \"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}}},",
            samples.len(),
            p50.as_nanos(),
            p99.as_nanos()
        );
        println!("apply 2x {name:>10}  p50 {p50:>12?}  p99 {p99:>12?}");
    }

    // --------------------------- section 2: serve round-trip latency
    let spill = std::env::temp_dir().join(format!("afd-bench-net-{}", std::process::id()));
    let serve = AfdServe::new(ServeConfig {
        durability: DurabilityConfig::ephemeral(),
        ..ServeConfig::new(&spill)
    })
    .expect("serve boots");
    let front = ServeFront::bind(serve, Default::default(), "127.0.0.1:0").expect("front binds");
    let addr = front.addr().to_string();
    let mut engine = AfdEngine::from_relation(Relation::from_pairs(
        (0..256u64).map(|i| (i % 16, (i % 16) * 3)),
    ));
    engine
        .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
        .unwrap();
    let bytes = engine.save(&SnapshotRequest::default()).unwrap().bytes;
    let mut client = ServeClient::connect(&addr, Duration::from_secs(30)).expect("client connects");
    let handle = client.register(bytes).expect("register over the wire");
    let mut rtt = Vec::with_capacity(rtts);
    for _ in 0..rtts {
        let start = Instant::now();
        let scores = client.scores(handle, 0).expect("scores round trip");
        rtt.push(start.elapsed());
        assert!(scores.bits_eq(&engine.scores(0).unwrap()), "serve diverged");
    }
    client.release(handle).expect("clean release");
    let (p50, p99) = (pct(&mut rtt, 0.5), pct(&mut rtt, 0.99));
    let _ = writeln!(
        json,
        "    {{\"workload\": \"serve_scores_rtt\", \"samples\": {rtts}, \"p50_ns\": {}, \
         \"p99_ns\": {}}},",
        p50.as_nanos(),
        p99.as_nanos()
    );
    println!("serve rtt            p50 {p50:>12?}  p99 {p99:>12?}");

    // ------------------------------- section 3: connection churn rate
    let start = Instant::now();
    for i in 0..churns {
        let mut probe =
            ServeClient::connect(&addr, Duration::from_secs(30)).expect("churn connect");
        probe.hello("", &format!("churn-{i}")).expect("hello");
        probe.stats().expect("census");
    }
    let churn_elapsed = start.elapsed();
    let stats = front.stats();
    assert_eq!(
        stats.connections_accepted,
        churns as u64 + 1,
        "register client + churn probes all accepted"
    );
    assert_eq!(stats.connections_rejected, 0);
    assert_eq!(stats.connections_dropped, 0, "no probe held handles");
    drop(client);
    let per_sec = churns as f64 / churn_elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        json,
        "    {{\"workload\": \"connection_churn\", \"connections\": {churns}, \
         \"elapsed_ns\": {}, \"accepts_per_sec\": {per_sec:.1}, \"samples\": 1}}",
        churn_elapsed.as_nanos()
    );
    println!("connection churn     {churns} conns in {churn_elapsed:?} ({per_sec:.1}/s)");
    let (_, final_stats) = front.stop();
    assert_eq!(final_stats.sessions, 0, "released session lingered");
    let _ = std::fs::remove_dir_all(&spill);

    json.push_str("  ],\n");
    json.push_str(&Host::detect().json_fields());
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"loopback TCP; samples = timed runs behind each \
         figure (connection_churn times all its connections in one run); shard_apply_2x = one churn delta \
         through a 2-shard session per transport (scores asserted bit-identical across all \
         three every delta); serve_scores_rtt = framed request/response through ServeFront; \
         connection_churn = connect+hello+census+disconnect cycles against the accept loop \
         with server-side counters audited\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");
}
