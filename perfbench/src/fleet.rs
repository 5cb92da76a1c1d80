//! `serve_fleet`: an in-process `bz_serve::Server` with one worker per
//! core, driven closed-loop by one client connection per core. The
//! clients stand in for building controllers, which wait for each step
//! reply before sending the next request.
//!
//! The fleet has 200 tenants. Every 10th runs the MPC office scenario;
//! the rest are trial tenants seeded from the benchmark seed. A run is a
//! sequence of epochs. Each epoch creates the fleet on fresh servers
//! (`SETUPS_PER_EPOCH` times), then drives the last one for 25 rounds. Each round steps every tenant by one minute;
//! every 5th round also pages the telemetry tap and posts one `observe`
//! for each tenant of the client's shard, and reads `setpoints` of the
//! next client's shard while that client steps it. The epoch ends with a
//! snapshot and a restore of every tenant. Connections never outnumber
//! workers, so keep-alive pinning does not show here.
//!
//! Every request is recorded, failures included: by phase (create,
//! drive, snapshot/restore, stats, mirror) and by route and status or
//! I/O error kind, so a failing run leaves evidence instead of stopping
//! at the first bad status.

use std::collections::BTreeMap;
use std::fs;
use std::io::Cursor;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use bz_serve::client::{Client, WireResponse};
use bz_serve::http::{read_request, Response};
use bz_serve::server::{ServeConfig, Server, ShutdownHandle, ShutdownReport};

use crate::metrics::ROUTES;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{durations_us, Span, Tracer};
use crate::{derive_seed, host, Checks};

/// Tenants in the fleet. Probes at 20, 200 and 1000 tenants with equal
/// requests per epoch (perfbench/README.md) put step p50 at 0.83, 1.05
/// and 1.43 ms: the per-tenant working set costs time, and 20 tenants
/// hid it. 1000 tenants left one or two epochs in a run and a peak
/// resident set that moved by a third between seeds.
const TENANTS: usize = 200;
/// Every this-many-th tenant runs the MPC office scenario.
const MPC_EVERY: usize = 10;
/// Every this-many-th round also reads.
const READ_EVERY: u64 = 5;
/// Rounds per epoch: 5000 steps over the fleet. Fixed work per epoch
/// keeps memory bounded however long the run is, and a run holds enough
/// epochs for a steady median set-up time.
const EPOCH_ROUNDS: u64 = 25;
/// Times the fleet is created on a fresh server per epoch; only the last
/// is driven. The extra set-ups give the set-up median more samples
/// than a run has epochs.
const SETUPS_PER_EPOCH: usize = 8;
/// Scenario length of every tenant, longer than an epoch, so no tenant
/// finishes mid-epoch.
const TENANT_MINUTES: u64 = 14_400;
/// Length of the wire-vs-offline mirror probe.
const MIRROR_MINUTES: u64 = 10;
/// Iterations of each in-process HTTP codec probe.
const CODEC_PROBES: usize = 1_000;

/// The fleet the seed generates.
struct Plan {
    names: Vec<String>,
    bodies: Vec<String>,
    mpc: Vec<bool>,
    observed: Vec<f64>,
}

fn plan(seed: u64) -> Plan {
    let mut plan = Plan {
        names: Vec::new(),
        bodies: Vec::new(),
        mpc: Vec::new(),
        observed: Vec::new(),
    };
    for i in 0..TENANTS {
        let name = format!("t{i:03}");
        let mpc = i % MPC_EVERY == MPC_EVERY - 1;
        let body = if mpc {
            // The bundled office scenario, lengthened to the fleet's
            // scenario length so MPC tenants keep planning all run.
            let windows: Vec<String> = (0..4)
                .map(|s| format!("{{\"subspace\":{s},\"start_s\":0,\"end_s\":2700,\"count\":2}}"))
                .collect();
            format!(
                "{{\"name\":\"{name}\",\"scenario\":\"mpc\",\"strategy\":\"mpc\",\"seed\":7,\
                 \"duration_min\":{TENANT_MINUTES},\"period_s\":5400,\"windows\":[{}]}}",
                windows.join(",")
            )
        } else {
            format!(
                "{{\"name\":\"{name}\",\"scenario\":\"trial\",\"seed\":{},\"minutes\":{TENANT_MINUTES}}}",
                derive_seed(seed, 100 + i as u64)
            )
        };
        plan.names.push(name);
        plan.bodies.push(body);
        plan.mpc.push(mpc);
        plan.observed
            .push(24.0 + (derive_seed(seed, 200 + i as u64) % 200) as f64 / 100.0);
    }
    plan
}

/// Attempts and failures of one phase.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    succeeded: u64,
    /// `"<route> status <code>"`, `"<route> io <kind>"` or another
    /// `"<route> <what went wrong>"` → count.
    failures: BTreeMap<String, u64>,
}

impl Ledger {
    /// Records one operation; `Err` names its failure class.
    fn record(&mut self, route: &'static str, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.succeeded += 1,
            Err(class) => *self.failures.entry(format!("{route} {class}")).or_default() += 1,
        }
    }

    /// Turns a recorded success into a failure: the reply had the
    /// expected status but the wrong content.
    fn reject(&mut self, route: &'static str, what: &str) {
        self.succeeded -= 1;
        *self.failures.entry(format!("{route} {what}")).or_default() += 1;
    }

    fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    /// Failures of `route`, whatever their class.
    fn failed_on(&self, route: &str) -> u64 {
        self.failures
            .iter()
            .filter(|(key, _)| {
                key.strip_prefix(route)
                    .is_some_and(|rest| rest.starts_with(' '))
            })
            .map(|(_, n)| n)
            .sum()
    }

    fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
    }

    fn json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"attempted\":{},\"succeeded\":{},\"failed\":{},\"failures\":{{{}}}}}",
            self.attempted,
            self.succeeded,
            self.failed(),
            failures.join(",")
        )
    }
}

/// Phases of a run, in report order.
const PHASES: [&str; 5] = ["create", "drive", "snapshot_restore", "stats", "mirror"];

/// What client threads record: latencies by route, outcomes by phase.
#[derive(Debug, Default)]
struct Recorder {
    phases: BTreeMap<&'static str, Ledger>,
    latencies: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    fn ledger(&mut self, phase: &'static str) -> &mut Ledger {
        self.phases.entry(phase).or_default()
    }

    fn merge(&mut self, other: Recorder) {
        for (phase, ledger) in other.phases {
            self.ledger(phase).merge(ledger);
        }
        for (route, samples) in other.latencies {
            self.latencies.entry(route).or_default().extend(samples);
        }
    }

    fn latencies(&self, route: &str) -> &[f64] {
        self.latencies.get(route).map_or(&[], Vec::as_slice)
    }
}

/// A client connection that reconnects after a transport error, so one
/// torn connection costs one recorded failure, not the run.
struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

impl Conn {
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<WireResponse, String> {
        if self.client.is_none() {
            let client = Client::connect(self.addr).map_err(|e| format!("io {:?}", e.kind()))?;
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connected above");
        client.request(method, path, body).map_err(|e| {
            self.client = None;
            format!("io {:?}", e.kind())
        })
    }
}

/// One client thread's view of one phase: its connection, its tracer
/// and what it recorded.
struct Caller<'t> {
    conn: Conn,
    tracer: Option<&'t mut Tracer>,
    /// Whether requests are traced now (the drive traces odd rounds).
    tracing: bool,
    phase: &'static str,
    rec: Recorder,
}

impl<'t> Caller<'t> {
    fn new(addr: SocketAddr, tracer: Option<&'t mut Tracer>, phase: &'static str) -> Self {
        Self {
            conn: Conn { addr, client: None },
            tracer,
            tracing: true,
            phase,
            rec: Recorder::default(),
        }
    }

    /// Sends one request, timed on the client and under a span when
    /// tracing. Returns the reply if it has the expected status.
    fn call(
        &mut self,
        route: &'static str,
        expected: u16,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Option<WireResponse> {
        let tracer = if self.tracing {
            self.tracer.as_deref_mut()
        } else {
            None
        };
        let span = tracer.map(|t| (t.begin_request("serve", route), t));
        let begin = Instant::now();
        let result = self.conn.call(method, path, body);
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        if let Some((span, tracer)) = span {
            tracer.end(span);
        }
        self.rec.latencies.entry(route).or_default().push(ms);
        let checked = result.and_then(|reply| {
            if reply.status == expected {
                Ok(reply)
            } else {
                Err(format!("status {}", reply.status))
            }
        });
        let ledger = self.rec.ledger(self.phase);
        ledger.record(route, checked.as_ref().map(|_| ()).map_err(Clone::clone));
        checked.ok()
    }

    fn reject(&mut self, route: &'static str, what: &str) {
        self.rec.ledger(self.phase).reject(route, what);
    }
}

/// A running server and the thread that runs it.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ShutdownReport>>,
}

fn start_server(threads: usize) -> Running {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads,
        max_inflight: 4,
        checkpoint_dir: None,
        quiet: true,
    })
    .expect("binding a loopback port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        shutdown,
        thread,
    }
}

/// Drains and stops the server, checking how many tenants it held.
fn stop_server(running: Running, tenants: usize, checks: &mut Checks) {
    running.shutdown.request_shutdown();
    match running.thread.join() {
        Ok(Ok(report)) => checks.expect(report.tenants == tenants, || {
            format!(
                "server ended with {} tenants, not {tenants}",
                report.tenants
            )
        }),
        Ok(Err(e)) => checks.fail(format!("server failed: {e}")),
        Err(_) => checks.fail("server thread panicked"),
    }
}

/// Tenants served by client `shard` of `shards`.
fn shard_of(shard: usize, shards: usize) -> Vec<usize> {
    (0..TENANTS).filter(|i| i % shards == shard).collect()
}

/// Runs `work(shard, tracer)` on one thread per shard and collects the
/// results in shard order.
fn fan_out<T: Send>(
    tracers: &mut [Option<Tracer>],
    work: impl Fn(usize, Option<&mut Tracer>) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(shard, tracer)| scope.spawn(move || work(shard, tracer.as_mut())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet client thread"))
            .collect()
    })
}

fn field_u64(text: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a restore reply puts the tenant back at minute `expected`.
/// A reply without a `minute` field does not.
fn restored_at(reply: &str, expected: u64) -> bool {
    field_u64(reply, "minute") == Some(expected)
}

/// What one client thread saw while driving its shard.
#[derive(Default)]
struct DriveLog {
    /// Minutes stepped per tenant of the shard.
    minutes: BTreeMap<usize, u64>,
    /// Telemetry cursor per tenant after its last tap page.
    cursors: BTreeMap<usize, u64>,
    /// Sum over the shard of the minutes each tenant had run when its
    /// tap was last paged.
    tapped_minutes: u64,
    tap_bytes: u64,
    /// `(traced, seconds)` of each round without reads.
    step_rounds: Vec<(bool, f64)>,
}

/// Drives `shard` for one epoch. Read rounds also read the setpoints of
/// `neighbour`, the shard another client is stepping at the same time,
/// so reads and writes meet on the same tenants.
fn drive_shard(
    caller: &mut Caller<'_>,
    plan: &Plan,
    shard: &[usize],
    neighbour: &[usize],
) -> DriveLog {
    let mut log = DriveLog::default();
    for round in 1..=EPOCH_ROUNDS {
        let reads = round % READ_EVERY == 0;
        // Odd rounds run under spans, even rounds without, so the two
        // kinds of round give the tracing overhead side by side.
        caller.tracing = round % 2 == 1;
        let round_begin = Instant::now();
        let round_span = match (&mut caller.tracer, caller.tracing) {
            (Some(t), true) => Some(t.begin("bench", "bench.round")),
            _ => None,
        };
        for &i in shard {
            let path = format!("/tenants/{}/step", plan.names[i]);
            let reply = caller.call("serve.step", 200, "POST", &path, b"{\"minutes\":1}");
            if let Some(reply) = reply {
                if field_u64(&reply.text(), "stepped") == Some(1) {
                    *log.minutes.entry(i).or_default() += 1;
                } else {
                    caller.reject("serve.step", "did not advance one minute");
                }
            }
        }
        if reads {
            for &i in shard {
                let name = &plan.names[i];
                let cursor = log.cursors.get(&i).copied().unwrap_or(0);
                let path = format!("/tenants/{name}/telemetry?from={cursor}");
                if let Some(reply) = caller.call("serve.telemetry", 200, "GET", &path, b"") {
                    match reply
                        .header("x-bz-next-cursor")
                        .and_then(|c| c.parse().ok())
                    {
                        Some(next) if next >= cursor => {
                            log.cursors.insert(i, next);
                            log.tap_bytes += reply.body.len() as u64;
                        }
                        _ => caller.reject("serve.telemetry", "bad cursor"),
                    }
                }
                let path = format!("/tenants/{name}/observe");
                let body = format!(
                    "{{\"name\":\"s1.temperature\",\"value\":{}}}",
                    plan.observed[i]
                );
                caller.call("serve.observe", 200, "POST", &path, body.as_bytes());
            }
            for &i in neighbour.iter().filter(|&&i| !plan.mpc[i]) {
                let path = format!("/tenants/{}/setpoints", plan.names[i]);
                caller.call("serve.setpoints", 200, "GET", &path, b"");
            }
            log.tapped_minutes = shard
                .iter()
                .map(|i| log.minutes.get(i).copied().unwrap_or(0))
                .sum();
        }
        if let (Some(t), Some(span)) = (&mut caller.tracer, round_span) {
            t.end(span);
        }
        if !reads {
            log.step_rounds
                .push((round % 2 == 1, round_begin.elapsed().as_secs_f64()));
        }
    }
    log
}

/// Everything a fleet run recorded, over all its epochs.
#[derive(Default)]
struct FleetRun {
    rec: Recorder,
    /// Every client thread of every epoch.
    logs: Vec<DriveLog>,
    setup_s: Vec<f64>,
    /// Per epoch: `(drive requests, simulated minutes, drive seconds)`.
    drives: Vec<(u64, u64, f64)>,
    /// Peak resident set at the end of the first epoch, MiB.
    first_epoch_peak_rss_mb: f64,
    /// Resident-set growth over the first epoch's drive phase, MiB.
    rss_growth_mb: f64,
    /// `GET /stats` of the last epoch: `(requests, shed)`.
    stats: (u64, u64),
    /// Telemetry cursors of the first epoch, which every later epoch
    /// of the same plan must reproduce.
    cursors: Option<BTreeMap<usize, u64>>,
    checks: Checks,
}

impl FleetRun {
    /// Starts a fresh server and creates the fleet on it over the wire,
    /// timed as set-up.
    fn create(&mut self, plan: &Plan, tracers: &mut [Option<Tracer>]) -> Running {
        let threads = tracers.len();
        let running = start_server(threads);
        let addr = running.addr;
        let begin = Instant::now();
        let recs = fan_out(tracers, |shard, tracer| {
            let mut caller = Caller::new(addr, tracer, "create");
            for i in shard_of(shard, threads) {
                caller.call(
                    "serve.create",
                    201,
                    "POST",
                    "/tenants",
                    plan.bodies[i].as_bytes(),
                );
            }
            caller.rec
        });
        self.setup_s.push(begin.elapsed().as_secs_f64());
        recs.into_iter().for_each(|rec| self.rec.merge(rec));
        running
    }

    /// One epoch: the fleet created `SETUPS_PER_EPOCH` times on fresh
    /// servers, the last of them driven for `EPOCH_ROUNDS` rounds, then
    /// a snapshot and a restore of every tenant, `GET /stats`, and a
    /// drained shutdown.
    fn epoch(&mut self, plan: &Plan, tracers: &mut [Option<Tracer>]) {
        for _ in 1..SETUPS_PER_EPOCH {
            let running = self.create(plan, tracers);
            stop_server(running, TENANTS, &mut self.checks);
        }
        let running = self.create(plan, tracers);
        let (addr, threads) = (running.addr, tracers.len());

        let rss_before_mb = host::rss_mb();
        let begin = Instant::now();
        let logs = fan_out(tracers, |shard, tracer| {
            let mut caller = Caller::new(addr, tracer, "drive");
            let neighbour = shard_of((shard + 1) % threads, threads);
            let log = drive_shard(&mut caller, plan, &shard_of(shard, threads), &neighbour);
            (log, caller.rec)
        });
        let drive_s = begin.elapsed().as_secs_f64();
        let first = self.logs.is_empty();
        if first {
            self.rss_growth_mb = host::rss_mb() - rss_before_mb;
        }
        let mut minutes = BTreeMap::new();
        let mut cursors = BTreeMap::new();
        let mut requests = 0;
        for (log, rec) in logs {
            requests += rec.phases.get("drive").map_or(0, |l| l.attempted);
            self.rec.merge(rec);
            minutes.extend(&log.minutes);
            cursors.extend(&log.cursors);
            self.logs.push(log);
        }
        self.drives
            .push((requests, minutes.values().sum(), drive_s));
        match &self.cursors {
            None => self.cursors = Some(cursors),
            Some(first) => self.checks.expect(*first == cursors, || {
                "tenant telemetry differs between epochs of the same plan".into()
            }),
        }

        let recs = fan_out(tracers, |shard, tracer| {
            let mut caller = Caller::new(addr, tracer, "snapshot_restore");
            for i in shard_of(shard, threads) {
                let name = &plan.names[i];
                let path = format!("/tenants/{name}/snapshot");
                let Some(snapshot) = caller.call("serve.snapshot", 200, "GET", &path, b"") else {
                    continue;
                };
                let path = format!("/tenants/{name}/restore");
                let reply = caller.call("serve.restore", 200, "POST", &path, &snapshot.body);
                let expected = minutes.get(&i).copied().unwrap_or(0);
                if reply.is_some_and(|r| !restored_at(&r.text(), expected)) {
                    caller.reject("serve.restore", "came back at another minute");
                }
            }
            caller.rec
        });
        recs.into_iter().for_each(|rec| self.rec.merge(rec));

        let mut caller = Caller::new(addr, None, "stats");
        if let Some(reply) = caller.call("serve.stats", 200, "GET", "/stats", b"") {
            let text = reply.text();
            self.stats = (
                field_u64(&text, "requests").unwrap_or(0),
                field_u64(&text, "shed").unwrap_or(0),
            );
        }
        self.rec.merge(caller.rec);
        stop_server(running, TENANTS, &mut self.checks);
        if first {
            self.first_epoch_peak_rss_mb = host::peak_rss_mb();
        }
    }

    /// Drives one mirror tenant over the wire, on a server of its own,
    /// and checks its export is byte-identical to the same trial run
    /// offline through the CLI.
    fn mirror(&mut self, seed: u64, out_dir: &Path) {
        let running = start_server(1);
        let wire =
            bz_serve::load::mirror(&running.addr.to_string(), seed, MIRROR_MINUTES, "mirror")
                .map_err(|e| format!("io {:?}", e.kind()));
        stop_server(running, 1, &mut self.checks);
        let ledger = self.rec.ledger("mirror");
        ledger.record("mirror", wire.as_ref().map(|_| ()).map_err(Clone::clone));
        let Ok(wire) = wire else {
            return;
        };
        let path = out_dir.join("mirror-offline.jsonl");
        let args = [
            "--seed".to_owned(),
            seed.to_string(),
            "--minutes".to_owned(),
            MIRROR_MINUTES.to_string(),
            "--quiet".to_owned(),
            "--metrics-out".to_owned(),
            path.display().to_string(),
        ];
        let offline = bz_cli::commands::run("trial", args.to_vec())
            .map_err(|e| e.to_string())
            .and_then(|_| fs::read(&path).map_err(|e| e.to_string()));
        let _ = fs::remove_file(&path);
        match offline {
            Ok(offline) => self.checks.expect(offline == wire, || {
                format!(
                    "mirror tenant's wire export ({} B) differs from the offline export ({} B)",
                    wire.len(),
                    offline.len()
                )
            }),
            Err(e) => self
                .checks
                .fail(format!("offline mirror trial failed: {e}")),
        }
    }

    fn sim_minutes(&self) -> u64 {
        self.logs.iter().flat_map(|l| l.minutes.values()).sum()
    }

    fn reads(&self) -> Vec<f64> {
        [
            self.rec.latencies("serve.telemetry"),
            self.rec.latencies("serve.setpoints"),
        ]
        .concat()
    }

    /// `(tap bytes, events behind them, tenant-sim-days they cover)`.
    fn tap(&self) -> (u64, u64, f64) {
        let bytes = self.logs.iter().map(|l| l.tap_bytes).sum();
        let events = self.logs.iter().flat_map(|l| l.cursors.values()).sum();
        let minutes: u64 = self.logs.iter().map(|l| l.tapped_minutes).sum();
        (bytes, events, minutes as f64 / 1440.0)
    }

    /// The result, without metrics, and the per-phase record.
    fn into_outcome(mut self, extra_attempted: u64) -> (Outcome, String) {
        let phases: Vec<String> = PHASES
            .iter()
            .map(|&phase| format!("\"{phase}\":{}", self.rec.ledger(phase).json()))
            .collect();
        let ledgers = self.rec.phases.values();
        let attempted = ledgers.clone().map(|l| l.attempted).sum::<u64>() + extra_attempted;
        let failed = ledgers.map(Ledger::failed).sum();
        (
            self.checks.into_outcome(attempted, failed),
            format!("{{{}}}", phases.join(",")),
        )
    }
}

/// The untraced run: epochs until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, out_dir: &Path) -> (Outcome, String) {
    let plan = plan(seed);
    let mut tracers: Vec<Option<Tracer>> = (0..host::nproc()).map(|_| None).collect();
    let mut fleet = FleetRun::default();
    let started = Instant::now();
    while fleet.drives.is_empty() || started.elapsed().as_secs_f64() < seconds {
        fleet.epoch(&plan, &mut tracers);
    }
    fleet.mirror(derive_seed(seed, 300), out_dir);

    let steps = fleet.rec.latencies("serve.step").to_vec();
    // Rates are medians over epochs, so one epoch slowed by the host
    // does not move them.
    let rates = |per_epoch: fn(u64, u64) -> f64| -> f64 {
        let rates: Vec<f64> = fleet
            .drives
            .iter()
            .map(|&(requests, minutes, seconds)| per_epoch(requests, minutes) / seconds)
            .collect();
        median(&rates)
    };
    let req_per_s = rates(|requests, _| requests as f64);
    let sim_s_per_wall_s = rates(|_, minutes| (minutes * 60) as f64);
    let (tap_bytes, _, tap_days) = fleet.tap();
    let (setup_s, peak_rss_mb) = (median(&fleet.setup_s), fleet.first_epoch_peak_rss_mb);
    let (mut outcome, phases) = fleet.into_outcome(0);
    outcome.put("setup_s", setup_s, "s");
    outcome.put("sim_s_per_wall_s", sim_s_per_wall_s, "s/s");
    outcome.put("peak_rss_mb", peak_rss_mb, "MB");
    outcome.put(
        "export_bytes_per_sim_day",
        tap_bytes as f64 / tap_days,
        "B/day",
    );
    outcome.put("req_per_s", req_per_s, "1/s");
    outcome.put("step_p50_ms", median(&steps), "ms");
    outcome.put("step_p90_ms", percentile(&steps, 90.0), "ms");
    (outcome, phases)
}

/// The traced run: one epoch with client-side spans, then in-process
/// probes of the calls the wire hides.
pub fn traced(seed: u64, out_dir: &Path, epoch: Instant) -> (Outcome, String, Vec<Span>) {
    let plan = plan(seed);
    let mut tracers: Vec<Option<Tracer>> = (0..host::nproc())
        .map(|t| Some(Tracer::new(epoch, t as u64 + 1)))
        .collect();
    let mut fleet = FleetRun::default();
    fleet.epoch(&plan, &mut tracers);
    fleet.mirror(derive_seed(seed, 300), out_dir);

    let mut probe = Tracer::new(epoch, 0);
    let mut save_bytes = 0.0;
    let mut built = Vec::new();
    for (name, body) in plan.names.iter().zip(&plan.bodies) {
        match probe.leaf("serve", "serve.build_tenant", || {
            bz_serve::build_tenant(body)
        }) {
            Ok(tenant) => built.push(Some(tenant)),
            Err(e) => {
                fleet
                    .checks
                    .fail(format!("building {name} in process: {}", e.message));
                built.push(None);
            }
        }
    }
    if let (Some(trial), Some(mpc)) = (built[0].take(), built[MPC_EVERY - 1].take()) {
        for _ in 0..EPOCH_ROUNDS {
            probe.leaf("serve", "serve.tenant_step", || trial.step_minutes(1));
            probe.leaf("predict", "predict.mpc_minute", || mpc.step_minutes(1));
        }
        let wire = probe.leaf("state", "state.save", || trial.snapshot().to_wire_bytes());
        let restored = probe.leaf("state", "state.load", || {
            bz_state::Checkpoint::from_wire_bytes(&wire)
                .map_err(|e| e.to_string())
                .and_then(|ck| trial.restore(&ck))
        });
        fleet
            .checks
            .expect(restored.is_ok() && trial.minute() == EPOCH_ROUNDS, || {
                format!("in-process snapshot did not restore: {restored:?}")
            });
        save_bytes = wire.len() as f64;
    }
    drop(built);

    let request: &[u8] =
        b"POST /tenants/t000/step HTTP/1.1\r\nhost: bz-serve\r\ncontent-length: 13\r\n\r\n{\"minutes\":1}";
    let response = Response::json(
        200,
        "{\"stepped\":1,\"minute\":61,\"now_ms\":3660000,\"done\":false}".to_owned(),
    );
    let mut buf = Vec::with_capacity(256);
    for _ in 0..CODEC_PROBES {
        let parsed = probe.leaf("serve", "serve.http.read_request", || {
            read_request(&mut Cursor::new(request))
        });
        fleet.checks.expect(matches!(parsed, Ok(Some(_))), || {
            "canned request did not parse".into()
        });
        buf.clear();
        let written = probe.leaf("serve", "serve.http.write_response", || {
            response.write_to(&mut buf, true)
        });
        fleet
            .checks
            .expect(written.is_ok(), || "response did not encode".into());
    }

    let spans = probe.spans();
    let us_p50 = |name| median(&durations_us(spans, name));
    let tenant_step_ms = us_p50("serve.tenant_step") / 1e3;
    let mut layer = Outcome::default();
    layer.put("serve.tenant_step_ms.p50", tenant_step_ms, "ms");
    layer.put(
        "predict.mpc_minute_ms.p50",
        us_p50("predict.mpc_minute") / 1e3 - tenant_step_ms,
        "ms",
    );
    layer.put(
        "serve.build_tenant_ms.p50",
        us_p50("serve.build_tenant") / 1e3,
        "ms",
    );
    layer.put(
        "serve.http.read_request_us.p50",
        us_p50("serve.http.read_request"),
        "us",
    );
    layer.put(
        "serve.http.write_response_us.p50",
        us_p50("serve.http.write_response"),
        "us",
    );
    layer.put("state.save_ms", us_p50("state.save") / 1e3, "ms");
    layer.put("state.load_ms", us_p50("state.load") / 1e3, "ms");
    layer.put("state.save_bytes", save_bytes, "B");

    for route in ROUTES {
        // Every call of a route leaves one latency sample.
        let samples = fleet.rec.latencies(route);
        let count = samples.len();
        let failed: u64 = fleet.rec.phases.values().map(|l| l.failed_on(route)).sum();
        layer.put(&format!("{route}.p50_ms"), median(samples), "ms");
        layer.put(&format!("{route}.p99_ms"), percentile(samples, 99.0), "ms");
        layer.put(&format!("{route}.count"), count as f64, "count");
        layer.put(&format!("{route}.failed"), failed as f64, "count");
    }
    let steps = fleet.rec.latencies("serve.step");
    let reads = fleet.reads();
    layer.put("serve.step.max_ms", percentile(steps, 100.0), "ms");
    layer.put("serve.read.p50_ms", median(&reads), "ms");
    layer.put("serve.read.p90_ms", percentile(&reads, 90.0), "ms");
    layer.put("serve.read.p99_ms", percentile(&reads, 99.0), "ms");
    layer.put("serve.read.max_ms", percentile(&reads, 100.0), "ms");
    layer.put("serve.wire_ms.p50", median(steps) - tenant_step_ms, "ms");
    layer.put("serve.stats.requests", fleet.stats.0 as f64, "count");
    layer.put("serve.stats.shed", fleet.stats.1 as f64, "count");
    let tenant_days = fleet.sim_minutes() as f64 / 1440.0;
    layer.put(
        "serve.rss_growth_mb_per_tenant_sim_day",
        fleet.rss_growth_mb / tenant_days,
        "MB/day",
    );
    let (tap_bytes, events, tap_days) = fleet.tap();
    layer.put("obs.events", events as f64, "count");
    layer.put("obs.export_bytes", tap_bytes as f64, "B");
    layer.put(
        "obs.export_s",
        fleet.rec.latencies("serve.telemetry").iter().sum::<f64>() / 1e3,
        "s",
    );
    layer.put(
        "obs.tenant_events_per_sim_day",
        events as f64 / tap_days,
        "count/day",
    );
    let rounds = |traced: bool| -> Vec<f64> {
        fleet
            .logs
            .iter()
            .flat_map(|l| &l.step_rounds)
            .filter(|(t, _)| *t == traced)
            .map(|&(_, s)| s)
            .collect()
    };
    layer.put(
        "trace.overhead_pct",
        100.0 * (median(&rounds(true)) / median(&rounds(false)) - 1.0),
        "%",
    );

    let mut all_spans = probe.into_spans();
    for tracer in tracers.into_iter().flatten() {
        all_spans.extend(tracer.into_spans());
    }
    let probes = plan.bodies.len() as u64 + 2 * EPOCH_ROUNDS + 2 + 2 * CODEC_PROBES as u64;
    let (mut outcome, phases) = fleet.into_outcome(probes);
    outcome.metrics = layer.metrics;
    (outcome, phases, all_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_restore_reply_must_name_the_expected_minute() {
        assert!(restored_at(
            "{\"ok\":true,\"minute\":120,\"now_ms\":7200000}",
            120
        ));
        assert!(!restored_at(
            "{\"ok\":true,\"minute\":119,\"now_ms\":7140000}",
            120
        ));
        assert!(!restored_at("{\"ok\":true,\"now_ms\":7200000}", 120));
        assert!(!restored_at("{\"ok\":true,\"minutes\":120}", 120));
    }

    #[test]
    fn route_failures_come_from_the_failure_classes() {
        let mut ledger = Ledger::default();
        ledger.record("serve.step", Ok(()));
        ledger.record("serve.step", Err("status 429".into()));
        ledger.record("serve.step", Err("io TimedOut".into()));
        ledger.record("serve.setpoints", Err("status 404".into()));
        ledger.record("serve.restore", Ok(()));
        ledger.reject("serve.restore", "came back at another minute");
        assert_eq!(ledger.failed_on("serve.step"), 2);
        assert_eq!(ledger.failed_on("serve.setpoints"), 1);
        assert_eq!(ledger.failed_on("serve.restore"), 1);
        assert_eq!(ledger.failed_on("serve.snapshot"), 0);
        assert_eq!(ledger.failed(), 4);
    }
}
