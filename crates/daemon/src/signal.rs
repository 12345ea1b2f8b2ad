//! Minimal `SIGHUP` latch for config hot-reload, with a self-pipe that
//! wakes the event loop.
//!
//! The workspace builds offline with no `libc`/`signal-hook` crates, so
//! the handler is registered through the C library's `signal(2)` symbol
//! directly. The handler does only async-signal-safe work: it flips an
//! atomic latch and, when the latch was clear, `write(2)`s one byte to
//! the registered wake fd. The event loop polls the read end of that
//! pipe, so a signal that lands between the loop's latch check and its
//! `poll(2)` call still wakes it. Writing only on the clear → set edge
//! keeps at most a couple of bytes in the pipe, so the write never fails
//! on a full buffer (and never clobbers the interrupted code's `errno`).

use std::io;
use std::os::unix::io::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

static SIGHUP_PENDING: AtomicBool = AtomicBool::new(false);

/// Write end of the wake pipe, or `-1` before [`wake_pipe`] runs.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// `SIGHUP`'s number on every platform this daemon targets (POSIX).
const SIGHUP: i32 = 1;

extern "C" {
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

extern "C" fn on_sighup(_signum: i32) {
    if SIGHUP_PENDING.swap(true, Ordering::SeqCst) {
        // Already pending: a wake byte is in the pipe or the loop has
        // yet to take the latch, so this signal needs no byte of its own.
        return;
    }
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: `write(2)` is async-signal-safe; the buffer is one live
        // byte on this frame and `fd` is the wake pipe's write end, which
        // `wake_pipe` keeps open for the rest of the program.
        unsafe {
            write(fd, &byte, 1);
        }
    }
}

/// Installs the `SIGHUP` → reload latch. Call once at daemon startup;
/// reload also stays available through the `reload` request.
pub fn install_sighup() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` is the C library's handler registration; the
    // handler passed is a valid `extern "C" fn(i32)` for the whole
    // program lifetime and does only async-signal-safe work.
    unsafe {
        signal(SIGHUP, on_sighup);
    }
}

/// Creates the self-pipe the `SIGHUP` handler writes to and returns its
/// nonblocking read end for the event loop to poll. The write end stays
/// open for the rest of the program (a later call leaks the earlier one
/// rather than let a racing handler write to a recycled fd).
///
/// # Errors
/// Socket-pair creation failures.
pub(crate) fn wake_pipe() -> io::Result<UnixStream> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    WAKE_FD.store(tx.into_raw_fd(), Ordering::SeqCst);
    Ok(rx)
}

/// Consumes a pending `SIGHUP`, returning whether one had arrived since
/// the last call. Drain the wake pipe *before* calling this, so a byte
/// written after the latch is taken survives to wake the next poll.
pub fn take_sighup() -> bool {
    SIGHUP_PENDING.swap(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Read};

    #[test]
    fn the_handler_latches_once_and_writes_one_wake_byte() {
        let mut rx = wake_pipe().unwrap();
        on_sighup(SIGHUP);
        // Already pending: the second signal adds no byte.
        on_sighup(SIGHUP);
        let mut buf = [0u8; 4];
        assert_eq!(rx.read(&mut buf).unwrap(), 1);
        assert_eq!(rx.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        assert!(take_sighup());
        assert!(!take_sighup());
    }
}
