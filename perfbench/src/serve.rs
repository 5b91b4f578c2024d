//! The `serve_warm` workload: an in-process `Server` (2 workers) whose
//! set-up memoizes swim × the 13 study mechanisms, then a closed loop of
//! 2 clients, each sending the next single-cell `POST /campaign` only
//! after the previous reply completes. Every query is a memo read.

use std::sync::Arc;
use std::time::{Duration, Instant};

use microlib::ArtifactStore;
use microlib_mech::MechanismKind;
use microlib_serve::{run_cell, CampaignOutcome, CampaignSpec, Client, Server, ServerConfig};

use crate::campaign::{prepare, run_prepared, Pass};
use crate::check::Expected;
use crate::procfs::Region;
use crate::{median, percentile, shuffle, Args, Outcome, THREADS};

/// Set-ups per untraced run; the timed loop is split evenly across them.
const ROUNDS: usize = 3;

/// Length of the traced probe's closed loop: about 2000 queries, so 20
/// lie beyond its p99.
const PROBE_SECONDS: f64 = 5.0;

/// The query bodies: swim × each study mechanism at the run's window and
/// workload seed, in an order drawn from `--seed`.
pub fn query_bodies(args: &Args) -> Vec<String> {
    let mut mechs = MechanismKind::study_set().to_vec();
    shuffle(&mut mechs, args.seed);
    mechs
        .iter()
        .map(|m| {
            format!(
                "{{\"benchmarks\":[\"swim\"],\"mechanisms\":[\"{m}\"],\
                 \"window\":{{\"skip\":{},\"simulate\":{}}},\"seed\":\"{:#x}\"}}",
                args.window.skip, args.window.simulate, args.workload_seed
            )
        })
        .collect()
}

/// A started daemon whose memo holds every query's cell.
pub struct Daemon {
    pub server: Server,
    pub addr: String,
    pub bodies: Vec<String>,
    /// Each body's reply line as `run_cell` renders it on a local store.
    pub expected: Vec<String>,
    /// The memoizing campaign (checked against the digests).
    pub pass: Pass,
    pub setup_s: f64,
}

/// Starts the daemon, memoizes the queries' cells through a `Campaign`
/// on the daemon's own store, and renders every expected reply locally.
pub fn set_up(args: &Args, digests: &Expected) -> Result<Daemon, String> {
    let started = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: THREADS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    if !Client::new(addr.clone()).wait_ready(Duration::from_secs(10)) {
        return Err("server never answered /healthz".into());
    }
    let prepared = prepare(args, &["swim"], Arc::clone(server.store()));
    let pass = run_prepared(prepared, digests)?;
    let bodies = query_bodies(args);
    let local = ArtifactStore::new();
    let expected = bodies
        .iter()
        .map(|body| {
            let spec = CampaignSpec::parse(body)?;
            Ok(run_cell(&local, &spec.cells()[0]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Daemon {
        server,
        addr,
        bodies,
        expected,
        pass,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Sends `body` and reports its round trip (ms) and whether the reply is
/// exactly `expected` (a rejection or I/O error counts as a mismatch).
fn query(client: &Client, body: &str, expected: &str) -> (f64, bool) {
    let started = Instant::now();
    let outcome = client.campaign(body);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = matches!(&outcome, Ok(CampaignOutcome::Completed(lines)) if lines.len() == 1 && lines[0] == expected);
    (ms, ok)
}

/// One round's closed loop: per-query latencies (ms), failures, wall.
struct Round {
    latencies: Vec<f64>,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

fn closed_loop(daemon: &Daemon, seconds: f64) -> Result<Round, String> {
    let region = Region::start()?;
    let started = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                s.spawn(move || {
                    let client = Client::new(daemon.addr.clone());
                    let n = daemon.bodies.len();
                    let mut latencies = Vec::new();
                    let mut failed = 0;
                    let mut i = c * n / THREADS;
                    while started.elapsed() < until {
                        let (ms, ok) =
                            query(&client, &daemon.bodies[i % n], &daemon.expected[i % n]);
                        latencies.push(ms);
                        failed += u64::from(!ok);
                        i += 1;
                    }
                    (latencies, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = region.finish()?;
    Ok(Round {
        latencies: per_client
            .iter()
            .flat_map(|(l, _)| l.iter().copied())
            .collect(),
        failed: per_client.iter().map(|(_, f)| f).sum(),
        wall_s,
        cpu_s,
        peak_rss_mb,
    })
}

/// The untraced workload: `ROUNDS` × (set up a daemon, run the closed
/// loop for a share of `--seconds`, shut it down).
pub fn run(args: &Args, digests: &Expected) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        let mut daemon = set_up(args, digests)?;
        out.attempted += daemon.pass.cells;
        out.failed += daemon.pass.failed;
        setups.push(daemon.setup_s);
        let round = closed_loop(&daemon, args.seconds / ROUNDS as f64)?;
        daemon.server.shutdown();
        eprintln!(
            "perfbench: round {r}: set-up {:.3} s, {} queries in {:.3} s, p50 {:.3} ms, p99 {:.3} ms, {} failed",
            daemon.setup_s,
            round.latencies.len(),
            round.wall_s,
            percentile(&round.latencies, 50.0),
            percentile(&round.latencies, 99.0),
            round.failed
        );
        out.attempted += round.latencies.len() as u64;
        out.failed += round.failed;
        rounds.push(round);
    }

    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    out.latency_samples = latencies.len();
    let queries = latencies.len() as f64;
    let qps = queries / rounds.iter().map(|r| r.wall_s).sum::<f64>();
    let ok_ratio = 1.0 - out.failed as f64 / out.attempted as f64;
    out.metric("setup_s", median(&setups), "s");
    // Every query answers one cell.
    out.metric("cells_per_s", qps, "1/s");
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    out.metric("cpu_ms_per_op", cpu_s * 1e3 / queries, "ms");
    // The first round's: later rounds start from the heap earlier ones
    // left behind.
    out.metric("peak_rss_mb", rounds[0].peak_rss_mb, "MiB");
    out.metric("ok_ratio", ok_ratio, "ratio");
    out.metric("query_p50_ms", percentile(&latencies, 50.0), "ms");
    out.metric("queries_per_s", qps, "1/s");
    Ok(out)
}

/// Times `n` calls of `f` one by one and returns the median (µs).
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// The traced service probe: `/healthz` round trips, spec parsing, memo
/// lookup + render on the warm store, and a short closed loop. Returns the
/// daemon (shut down) so the caller can read its store.
pub fn probe(args: &Args, digests: &Expected, out: &mut Outcome) -> Result<Daemon, String> {
    let mut daemon = set_up(args, digests)?;
    out.attempted += daemon.pass.cells;
    out.failed += daemon.pass.failed;
    let client = Client::new(daemon.addr.clone());

    let mut healthz_failed = 0u64;
    let healthz_ms = median_us(200, || {
        healthz_failed += u64::from(!client.healthz().unwrap_or(false))
    }) / 1e3;
    out.attempted += 200;
    out.failed += healthz_failed;

    let body = &daemon.bodies[0];
    let parse_us = median_us(2000, || {
        std::hint::black_box(CampaignSpec::parse(std::hint::black_box(body)).is_ok());
    });
    let cell = CampaignSpec::parse(body)?.cells().remove(0);
    let store = Arc::clone(daemon.server.store());
    let mut render_failed = 0u64;
    let render_us = median_us(2000, || {
        render_failed += u64::from(run_cell(&store, &cell) != daemon.expected[0]);
    });
    out.attempted += 2000;
    out.failed += render_failed;

    let round = closed_loop(&daemon, PROBE_SECONDS)?;
    out.attempted += round.latencies.len() as u64;
    out.failed += round.failed;
    let query_ms = percentile(&round.latencies, 50.0);
    daemon.server.shutdown();

    out.metric("serve.healthz_ms", healthz_ms, "ms");
    out.metric("serve.parse_us", parse_us, "us");
    out.metric("serve.memo_render_us", render_us, "us");
    out.metric(
        "serve.transport_ms",
        query_ms - (parse_us + render_us) / 1e3,
        "ms",
    );
    out.metric(
        "serve.query_p99_ms",
        percentile(&round.latencies, 99.0),
        "ms",
    );
    Ok(daemon)
}
