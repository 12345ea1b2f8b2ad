//! End-to-end smoke of the real `thriftyd` binary over its unix socket:
//! start → status → register → routable → hot-reload (one knob applied,
//! one rejected, one section refused) → telemetry reconciliation → stop
//! drains and exits 0. The full round trip runs under `--sim-clock`
//! (bulk loads take ~100 log-seconds, which `quiesce` crosses
//! instantly); a second test proves the wall-clock daemon serves and
//! rejects manual time. The rest pin the event loop: an idle daemon
//! sleeps in `poll`, `SIGHUP` wakes it, a peer that stops reading or
//! sends an over-long line costs only its own connection, and a peer
//! that hangs up does not reorder the others.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use thrifty_daemon::client::DaemonClient;
use thrifty_daemon::config::{DaemonConfig, TenantSection};
use thrifty_daemon::error::DaemonError;
use thrifty_daemon::protocol::{decode_line, encode_line, Envelope, Reply, Request};
use thrifty_daemon::server::MAX_LINE_BYTES;

/// Kills the daemon on drop so a failing assertion cannot leak a
/// process or a socket.
struct DaemonGuard {
    child: Child,
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct TestBed {
    dir: PathBuf,
    config_path: PathBuf,
    socket: PathBuf,
}

impl TestBed {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("thriftyd-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestBed {
            config_path: dir.join("thriftyd.json"),
            socket: dir.join("thriftyd.sock"),
            dir,
        }
    }

    fn write_config(&self, cfg: &DaemonConfig) {
        std::fs::write(
            &self.config_path,
            serde_json::to_string_pretty(cfg).unwrap(),
        )
        .unwrap();
    }

    fn start(&self, sim_clock: bool) -> DaemonGuard {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_thriftyd"));
        cmd.arg("start")
            .arg("--config")
            .arg(&self.config_path)
            .arg("--socket")
            .arg(&self.socket)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(self.stderr_path()).expect("stderr log"));
        if sim_clock {
            cmd.arg("--sim-clock");
        }
        DaemonGuard {
            child: cmd.spawn().expect("spawn thriftyd"),
        }
    }

    fn connect(&self) -> DaemonClient {
        DaemonClient::connect_with_retry(&self.socket, 200, 25).expect("daemon comes up")
    }

    /// A raw connection that fails any read or write stuck for 5 s.
    fn connect_raw(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.socket).expect("daemon is serving");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    fn stderr_path(&self) -> PathBuf {
        self.dir.join("stderr.log")
    }
}

/// Reads one envelope line off a raw connection.
fn read_envelope(reader: &mut impl BufRead) -> Envelope {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("answer within 5 s");
    assert!(n > 0, "daemon closed the connection before answering");
    decode_line(&line).expect("envelope line")
}

/// The daemon's voluntary context switches so far, when `/proc` has them.
fn voluntary_switches(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The daemon's CPU time so far (user + system) in clock ticks, when
/// `/proc` has it.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is the first,
    // utime the twelfth, stime the thirteenth.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The daemon's scheduler state letter (`R`, `S`, `T`, ...), when `/proc`
/// has it.
fn process_state(pid: u32) -> Option<char> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat.rsplit_once(')')?.1.trim_start().chars().next()
}

/// Sends `signal` (`HUP`, `STOP`, `CONT`, ...) to `pid`.
fn signal(pid: u32, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(pid.to_string())
        .status()
        .expect("kill runs");
    assert!(status.success());
}

impl Drop for TestBed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn base_config() -> DaemonConfig {
    let mut cfg = DaemonConfig::example();
    cfg.daemon.tick_ms = 5;
    cfg
}

/// Stops via the client and asserts the daemon process exits 0 and
/// removes its socket.
fn stop_and_reap(client: &mut DaemonClient, bed: &TestBed, mut guard: DaemonGuard) {
    client.stop().expect("stop drains");
    let status = guard.child.wait().expect("daemon reaped");
    assert!(status.success(), "daemon exit status: {status:?}");
    assert!(
        !bed.socket.exists(),
        "socket must be removed on clean shutdown"
    );
}

#[test]
fn sim_clock_full_round_trip() {
    let bed = TestBed::new("sim");
    let mut cfg = base_config();
    cfg.reconsolidation.auto = false;
    bed.write_config(&cfg);
    let guard = bed.start(true);
    let mut client = bed.connect();

    client.ping().expect("ping");
    let status = client.status().expect("status");
    assert_eq!(status.clock, "sim");
    assert_eq!(status.tenants.len(), 4);
    assert!(status.all_routable, "{status:?}");

    // Register: the tenant parks and bulk-loads; an hour of quiesced log
    // time is far beyond the Table 5.1 load latency.
    client.register(50, 2, 60.0).expect("register");
    assert!(client.status().expect("status").pending_registrations);
    client.quiesce(3_600_000).expect("quiesce");
    let status = client.status().expect("status");
    let t50 = status
        .tenants
        .iter()
        .find(|t| t.id == 50)
        .expect("tenant 50 is live");
    assert!(t50.routable, "{status:?}");
    assert!(status.all_routable);

    // The registered tenant serves queries.
    client.submit(50, 2, 30.0, 2).expect("submit");
    client.quiesce(600_000).expect("quiesce");

    // Hot-reload: sla_p is a live knob (applied), monitor_window_ms is
    // deploy-time (rejected by the service), cluster resize is a refused
    // section (rejected by the daemon).
    let mut edited = cfg.clone();
    edited.service.sla_p = 0.99;
    edited.service.monitor_window_ms = 8 * 3_600_000;
    edited.cluster.total_nodes = 40;
    bed.write_config(&edited);
    let view = client.reload().expect("reload");
    assert_eq!(view.delta.applied.len(), 1, "{view:?}");
    assert_eq!(view.delta.applied[0].knob, "sla_p");
    assert_eq!(view.delta.rejected.len(), 1, "{view:?}");
    assert_eq!(view.delta.rejected[0].change.knob, "monitor_window_ms");
    assert_eq!(view.rejected_sections.len(), 1, "{view:?}");
    assert_eq!(view.rejected_sections[0].section, "cluster");
    let knobs = client.status().expect("status").service;
    assert!((knobs.sla_p - 0.99).abs() < 1e-12);
    assert_eq!(knobs.monitor_window_ms, 4 * 3_600_000);

    // An invalid file is rejected wholesale and the daemon keeps serving
    // the previous configuration.
    let mut bad = edited.clone();
    bad.service.sla_p = 7.0;
    bed.write_config(&bad);
    match client.reload() {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "invalid-config"),
        other => panic!("invalid reload must fail remotely, got {other:?}"),
    }
    client.ping().expect("daemon survives a bad reload");
    assert!((client.status().expect("status").service.sla_p - 0.99).abs() < 1e-12);

    // Telemetry reconciles with everything this test did.
    let telemetry = client.telemetry().expect("telemetry");
    assert_eq!(telemetry.counter("config.reloads"), 1);
    assert_eq!(telemetry.counter("config.knobs_applied"), 1);
    assert_eq!(telemetry.counter("config.knobs_rejected"), 1);
    assert_eq!(telemetry.counter("tenants.registered"), 1);
    assert_eq!(telemetry.counter("queries.submitted"), 1);
    assert_eq!(telemetry.counter("queries.completed"), 1);

    let cutover = client.cutover_status().expect("cutover status");
    assert!(!cutover.active);
    assert_eq!(cutover.cycles_completed, 0);

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn wall_clock_daemon_serves_and_rejects_manual_time() {
    let bed = TestBed::new("wall");
    bed.write_config(&base_config());
    let guard = bed.start(false);
    let mut client = bed.connect();

    client.ping().expect("ping");
    let status = client.status().expect("status");
    assert_eq!(status.clock, "wall");
    assert!(status.all_routable, "{status:?}");

    match client.advance(60_000) {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "clock"),
        other => panic!("wall daemons must reject manual time, got {other:?}"),
    }

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn init_config_prints_the_example() {
    let out = Command::new(env!("CARGO_BIN_EXE_thriftyd"))
        .arg("init-config")
        .output()
        .expect("init-config runs");
    assert!(out.status.success());
    let parsed: DaemonConfig =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).expect("valid config JSON");
    assert_eq!(parsed, DaemonConfig::example());
}

#[test]
fn a_live_socket_refuses_a_second_daemon() {
    let bed = TestBed::new("claim");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut client = bed.connect();
    client.ping().expect("first daemon serves");

    let out = Command::new(env!("CARGO_BIN_EXE_thriftyd"))
        .arg("start")
        .arg("--config")
        .arg(&bed.config_path)
        .arg("--socket")
        .arg(&bed.socket)
        .arg("--sim-clock")
        .output()
        .expect("second daemon runs to completion");
    assert!(!out.status.success(), "second claim must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already has a live daemon"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    client.ping().expect("first daemon unaffected");
    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn an_idle_sim_clock_daemon_sleeps_in_poll() {
    let bed = TestBed::new("idle");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut client = bed.connect();
    client.ping().expect("ping");

    let pid = guard.child.id();
    let (Some(before), Some(cpu_before)) = (voluntary_switches(pid), cpu_ticks(pid)) else {
        eprintln!("skipping: /proc/{pid} has no voluntary_ctxt_switches or CPU times");
        stop_and_reap(&mut client, &bed, guard);
        return;
    };
    std::thread::sleep(Duration::from_millis(300));
    let after = voluntary_switches(pid).expect("the daemon is still running");
    assert!(
        after - before < 10,
        "an idle sim-clock daemon woke {} times in 300 ms",
        after - before
    );
    // The busy-poll window after the ping must end: a loop that never
    // blocks makes no voluntary switch but burns the whole 300 ms.
    let cpu = cpu_ticks(pid).expect("the daemon is still running") - cpu_before;
    assert!(
        cpu < 5,
        "an idle sim-clock daemon used {cpu} clock ticks of CPU in 300 ms"
    );
    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn sighup_wakes_an_idle_sim_clock_daemon_to_reload() {
    let bed = TestBed::new("sighup");
    let cfg = base_config();
    bed.write_config(&cfg);
    let guard = bed.start(true);
    // Connecting proves the socket is bound, and the handler is
    // installed before that; no request is sent before the signal.
    let mut client = bed.connect();

    let mut edited = cfg.clone();
    edited.service.sla_p = 0.99;
    bed.write_config(&edited);
    signal(guard.child.id(), "HUP");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let log = std::fs::read_to_string(bed.stderr_path()).unwrap_or_default();
        if log.contains("thriftyd: SIGHUP reload:") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no SIGHUP reload within 5 s; stderr: {log}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!((client.status().expect("status").service.sla_p - 0.99).abs() < 1e-12);
    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn a_peer_that_stops_reading_stalls_only_itself() {
    const PIPELINED: usize = 3_000;
    let bed = TestBed::new("stall");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut client = bed.connect();
    client.ping().expect("ping");

    // A pipelines thousands of large answers and reads none of them, so
    // its socket fills long before the daemon gets to the final ping.
    let mut a = bed.connect_raw();
    let mut lines = "\"Telemetry\"\n".repeat(PIPELINED);
    lines.push_str("\"Ping\"\n");
    a.write_all(lines.as_bytes())
        .expect("pipeline the requests");

    // A was accepted first, so the daemon services it before B.
    let b = bed.connect_raw();
    (&b).write_all(b"\"Ping\"\n").unwrap();
    let answer = read_envelope(&mut BufReader::new(&b));
    assert_eq!(answer.into_reply().expect("ok"), Reply::Pong);

    let mut reader = BufReader::new(&a);
    for i in 0..PIPELINED {
        let answer = read_envelope(&mut reader);
        assert!(
            matches!(answer.into_reply(), Ok(Reply::Telemetry(_))),
            "answer {i} must be an ok telemetry snapshot"
        );
    }
    assert_eq!(
        read_envelope(&mut reader).into_reply().expect("ok"),
        Reply::Pong
    );

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn an_over_long_line_gets_overload_and_closes_only_its_connection() {
    let bed = TestBed::new("overload");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut client = bed.connect();
    client.ping().expect("ping");

    let mut a = bed.connect_raw();
    // The daemon closes A once the line passes the cap, so the rest of
    // this write may fail with a broken pipe.
    let _ = a.write_all(&vec![b'x'; 2 * MAX_LINE_BYTES]);
    let mut reader = BufReader::new(&a);
    match read_envelope(&mut reader).into_reply() {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "overload"),
        other => panic!("an over-long line must get `overload`, got {other:?}"),
    }
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the daemon must close A after `overload`, got {other:?} {rest:?}"),
    }

    client.ping().expect("other connections keep being served");
    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn a_peer_that_hangs_up_does_not_reorder_the_others() {
    let bed = TestBed::new("hangup");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let pid = guard.child.id();
    let mut client = bed.connect();
    client.ping().expect("ping");
    if process_state(pid).is_none() {
        eprintln!("skipping: /proc/{pid}/stat is unreadable");
        stop_and_reap(&mut client, &bed, guard);
        return;
    }
    // Accepted in order: client, A, B, C.
    let ping = |conn: &UnixStream| {
        (&*conn).write_all(b"\"Ping\"\n").unwrap();
        let answer = read_envelope(&mut BufReader::new(conn));
        assert_eq!(answer.into_reply().expect("ok"), Reply::Pong);
    };
    let a = bed.connect_raw();
    ping(&a);
    let b = bed.connect_raw();
    ping(&b);
    let c = bed.connect_raw();
    ping(&c);

    // A hangs up. B's next answer proves the daemon has seen it: A's end
    // of file was pending before B's ping was sent.
    drop(a);
    ping(&b);

    // With the daemon stopped, B and then C ask to register the same
    // tenant, so one poll sees both requests and serves them in the
    // daemon's connection order: the first served wins, the other gets
    // `duplicate-tenant`.
    signal(pid, "STOP");
    let deadline = Instant::now() + Duration::from_secs(5);
    while process_state(pid) != Some('T') {
        assert!(Instant::now() < deadline, "the daemon did not stop");
        std::thread::sleep(Duration::from_millis(1));
    }
    let register = encode_line(&Request::Register(TenantSection {
        id: 77,
        nodes: 2,
        data_gb: 60.0,
    }))
    .unwrap()
        + "\n";
    (&b).write_all(register.as_bytes()).unwrap();
    (&c).write_all(register.as_bytes()).unwrap();
    signal(pid, "CONT");

    let first = read_envelope(&mut BufReader::new(&b)).into_reply();
    assert_eq!(
        first.expect("B was accepted before C, so B registers"),
        Reply::Registered { id: 77 }
    );
    match read_envelope(&mut BufReader::new(&c)).into_reply() {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "duplicate-tenant"),
        other => panic!("C is served after B and must get `duplicate-tenant`, got {other:?}"),
    }
    stop_and_reap(&mut client, &bed, guard);
}
