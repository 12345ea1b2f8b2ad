//! Single-threaded, event-driven unix-socket server.
//!
//! One `poll(2)` call multiplexes the listener, the `SIGHUP` self-pipe
//! (see [`crate::signal`]) and every operator connection — no
//! threads, so the daemon needs none of the workspace's determinism
//! waivers (lint L3) and request handling is strictly serialized:
//! requests are applied in arrival order, which the fuzz harness relies
//! on for byte-equivalence with direct library calls.
//!
//! The loop sleeps only inside `poll`. For `BUSY_POLL` (2 ms) after an fd
//! fires it polls without blocking, so a client that sends its next
//! request soon after an answer is served without waiting for the
//! kernel to wake an idle CPU; then it blocks. A `--sim-clock` daemon's
//! time moves only on requests, so it blocks with no timeout and wakes
//! only on I/O or `SIGHUP`. A wall-clock daemon times out after
//! `daemon.tick_ms`, so [`DaemonCore::tick`], which ends every turn,
//! folds in elapsed time and runs automatic re-consolidation at that
//! cadence.
//!
//! Protocol framing is one JSON line per request, one envelope line per
//! answer (see [`crate::protocol`]). Replies are written nonblocking:
//! bytes the peer has no room for wait in the connection's `out` buffer
//! and the connection is polled for `POLLOUT` instead of `POLLIN`. A
//! connection with unsent reply bytes is neither read nor answered until
//! they drain, so at most one reply is buffered per connection and a
//! peer that stops reading stalls only itself. A request line longer
//! than [`MAX_LINE_BYTES`] gets one `overload` error envelope, and then
//! its connection is closed.

use crate::error::{DaemonError, DaemonResult};
use crate::protocol::{decode_line, encode_line, Envelope, Request};
use crate::runtime::DaemonCore;
use crate::signal::{take_sighup, wake_pipe};
use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Longest request line a connection may send, newline excluded. A
/// longer one is answered with an `overload` envelope and closes the
/// connection, so a peer cannot grow the daemon's memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long the loop keeps polling without blocking after an fd fires.
/// A client's next request inside this window is picked up at once
/// instead of after the kernel wakes an idle CPU, a wake that on a
/// shared virtual machine costs more than handling most requests and
/// varies with the host's load. Between polls the loop yields the CPU,
/// so a client on the same core still runs. The cost is up to one core
/// while a client keeps sending; an idle daemon blocks.
const BUSY_POLL: Duration = Duration::from_millis(2);

/// How long the `Stop` reply may take to reach a peer that is slow to
/// read it before the daemon exits anyway.
const STOP_FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// One `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last poll reported anything (readiness, hang-up or
    /// error) for this fd.
    fn fired(&self) -> bool {
        self.revents != 0
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// `nfds_t`.
#[cfg(target_os = "linux")]
type NFds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Blocks until an fd in `fds` fires or `timeout_ms` passes (`-1`: no
/// timeout; `0`: just look) and returns whether any fired. A signal
/// (`EINTR`) ends the wait with nothing fired.
fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<bool> {
    let nfds = NFds::try_from(fds.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "too many fds to poll"))?;
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
    // `struct pollfd` values and `nfds` is its length, so `poll` reads
    // and writes only inside it.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
    Ok(rc > 0)
}

/// One connected operator.
struct Conn {
    stream: UnixStream,
    /// Bytes read and not yet consumed; `buf[head..]` is unanswered.
    buf: Vec<u8>,
    head: usize,
    /// Reply bytes the peer had no room for yet.
    out: Vec<u8>,
    /// Worth servicing this turn: the last poll fired for it, or it was
    /// just accepted.
    ready: bool,
    /// Close once `out` drains (after an `overload` envelope).
    closing: bool,
}

/// What servicing a connection left behind.
enum Serviced {
    /// Still open; poll it again.
    Open,
    /// The peer hung up, or the connection is done after `overload`.
    Closed,
    /// It asked the daemon to stop; its `Stop` reply is in `out`.
    Stopping,
}

impl Conn {
    fn new(stream: UnixStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            head: 0,
            out: Vec::new(),
            ready: true,
            closing: false,
        }
    }

    /// The events to poll for: writability while a reply is pending,
    /// readability otherwise.
    fn interest(&self) -> i16 {
        if self.out.is_empty() {
            POLLIN
        } else {
            POLLOUT
        }
    }

    /// Writes as much of `out` as the peer has room for; `true` once it
    /// is empty.
    fn flush(&mut self) -> io::Result<bool> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Queues one envelope line; the caller has drained `out` first.
    fn queue(&mut self, envelope: &Envelope) -> DaemonResult<()> {
        self.out = encode_line(envelope)?.into_bytes();
        self.out.push(b'\n');
        Ok(())
    }

    /// Flushes the pending reply, then answers buffered request lines one
    /// at a time while each reply drains, then reads once and repeats.
    /// Returns as soon as a reply cannot drain, the peer hangs up, or the
    /// core starts stopping (so later requests never meet a half-dead
    /// service). Malformed lines get a structured `parse` error instead
    /// of closing the connection.
    fn service(&mut self, core: &mut DaemonCore) -> DaemonResult<Serviced> {
        let mut chunk = [0u8; 16 * 1024];
        let mut read_once = false;
        loop {
            if !self.flush()? {
                return Ok(Serviced::Open);
            }
            if self.closing {
                return Ok(Serviced::Closed);
            }
            let unanswered = &self.buf[self.head..];
            match unanswered.iter().position(|&b| b == b'\n') {
                Some(len) if len <= MAX_LINE_BYTES => {
                    let text = String::from_utf8_lossy(&unanswered[..len]).into_owned();
                    self.head += len + 1;
                    if text.trim().is_empty() {
                        continue;
                    }
                    let envelope = match decode_line::<Request>(&text) {
                        Ok(req) => core.handle(&req),
                        Err(e) => Envelope::err("parse", format!("bad request line: {e}")),
                    };
                    self.queue(&envelope)?;
                    if core.stopping() {
                        return Ok(Serviced::Stopping);
                    }
                }
                None if unanswered.len() <= MAX_LINE_BYTES => {
                    if read_once {
                        return Ok(Serviced::Open);
                    }
                    read_once = true;
                    self.buf.drain(..self.head);
                    self.head = 0;
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Ok(Serviced::Closed),
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock | ErrorKind::Interrupted
                            ) =>
                        {
                            return Ok(Serviced::Open)
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                _ => {
                    self.buf = Vec::new();
                    self.head = 0;
                    self.closing = true;
                    self.queue(&Envelope::err(
                        "overload",
                        format!(
                            "request line longer than {MAX_LINE_BYTES} bytes; closing the connection"
                        ),
                    ))?;
                }
            }
        }
    }

    /// Sends the `Stop` reply whole before the socket is dropped, waiting
    /// at most [`STOP_FLUSH_TIMEOUT`] for the peer to take it.
    fn flush_stop_reply(mut self) -> io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_write_timeout(Some(STOP_FLUSH_TIMEOUT))?;
        self.stream.write_all(&self.out)
    }
}

/// Reads every pending wake byte off the `SIGHUP` self-pipe.
fn drain_wake(wake: &mut UnixStream) -> io::Result<()> {
    let mut sink = [0u8; 64];
    loop {
        match wake.read(&mut sink) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Removes the socket file when the server leaves scope, clean exit or
/// not.
struct SocketGuard {
    path: PathBuf,
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds `socket`, refusing to clobber a live daemon: a connectable
/// socket means one is serving; a stale file (dead daemon) is removed.
fn claim_socket(socket: &Path) -> DaemonResult<UnixListener> {
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(DaemonError::Config(format!(
                "socket {} already has a live daemon (use `thriftyd stop` first)",
                socket.display()
            )));
        }
        let _ = std::fs::remove_file(socket);
    }
    Ok(UnixListener::bind(socket)?)
}

/// Serves `core` on `socket` until a `Stop` request drains it. Prints a
/// single ready line (`thriftyd: serving on <socket>`) once the socket
/// is claimed, which harnesses use as the startup barrier.
///
/// # Errors
/// Socket claim failures and daemon-fatal stepping errors; per-request
/// failures are answered as error envelopes and never end the loop.
pub fn serve(mut core: DaemonCore, socket: &Path) -> DaemonResult<()> {
    let listener = claim_socket(socket)?;
    listener.set_nonblocking(true)?;
    let _guard = SocketGuard {
        path: socket.to_path_buf(),
    };
    let mut wake = wake_pipe()?;
    let timeout_ms = if core.is_simulated() {
        -1
    } else {
        i32::try_from(core.config().daemon.tick_ms).unwrap_or(i32::MAX)
    };
    println!("thriftyd: serving on {}", socket.display());
    std::io::stdout().flush()?;

    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let (mut listener_ready, mut wake_ready) = (true, true);
    let mut busy_until = Instant::now();
    loop {
        // Drain before taking the latch: a signal landing in between
        // leaves its byte in the pipe, which wakes the next poll.
        if wake_ready {
            drain_wake(&mut wake)?;
        }
        if take_sighup() {
            match core.reload() {
                Ok(view) => eprintln!(
                    "thriftyd: SIGHUP reload: {}",
                    encode_line(&view).unwrap_or_else(|e| e.to_string())
                ),
                Err(e) => eprintln!("thriftyd: SIGHUP reload failed (config unchanged): {e}"),
            }
        }

        while listener_ready {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => listener_ready = false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }

        let mut i = 0;
        while i < conns.len() {
            if !std::mem::take(&mut conns[i].ready) {
                i += 1;
                continue;
            }
            match conns[i].service(&mut core) {
                Ok(Serviced::Open) => i += 1,
                Ok(Serviced::Stopping) => {
                    // The peer that asked may already be gone; the daemon
                    // stops either way.
                    let _ = conns.swap_remove(i).flush_stop_reply();
                    return Ok(());
                }
                Ok(Serviced::Closed) | Err(_) => {
                    // A broken peer only costs its own connection. The
                    // removal keeps the others in accept order, so which
                    // client is served first never depends on who hung up.
                    conns.remove(i);
                }
            }
        }

        core.tick()?;

        fds.clear();
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(wake.as_raw_fd(), POLLIN));
        fds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())),
        );
        let fired = loop {
            let spinning = Instant::now() < busy_until;
            let fired = wait(&mut fds, if spinning { 0 } else { timeout_ms })?;
            if fired || !spinning {
                break fired;
            }
            std::thread::yield_now();
        };
        if fired {
            busy_until = Instant::now() + BUSY_POLL;
        }
        listener_ready = fds[0].fired();
        wake_ready = fds[1].fired();
        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            conn.ready = fd.fired();
        }
    }
}
