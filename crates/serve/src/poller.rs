//! Raw-fd readiness polling for the event-loop I/O core.
//!
//! [`Poller`] is a `poll(2)` interest set: registrations live in a
//! `HashMap` and a `pollfd` array is rebuilt per wait, so each wait is
//! O(n) in the registered fds, which is cheap at the daemon's connection
//! counts. Readiness is level-triggered: an fd stays ready until its owner
//! drains it. The workspace is std-only, so this module declares the one
//! libc entry point it needs directly (the same idiom as the SIGTERM
//! binding in the `serve` binary) instead of pulling in `mio`/`libc`.
//!
//! The module also owns the self-pipe wake mechanism ([`wake_pipe`]):
//! worker threads finishing a job, and `ShutdownHandle::shutdown`, write a
//! byte into the pipe to interrupt a blocked wait.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Which readiness events a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// No interest: stay registered but deliver only hang-ups and errors.
    /// Used while a connection is backpressured with an empty write buffer
    /// pending a worker completion.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up so reads can observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error condition on the fd; the owner should tear it down.
    pub error: bool,
}

mod ffi {
    //! The minimal libc surface: poll(2).
    #![allow(non_camel_case_types)]

    pub type nfds_t = std::os::raw::c_ulong;

    /// `struct pollfd` from `<poll.h>`; identical layout on every unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;
    pub const POLLNVAL: i16 = 0x20;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: i32) -> i32;
    }
}

/// Cap a wait timeout to whole milliseconds for poll(2), rounding up so a
/// timer never fires early. `None` means block indefinitely (-1).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

/// Readiness poller over raw fds: the `poll(2)` interest set.
#[derive(Default)]
pub struct Poller {
    set: HashMap<RawFd, (u64, Interest)>,
    scratch: Vec<ffi::pollfd>,
}

impl Poller {
    /// An empty interest set.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Add `fd` to the interest set under `token`, or replace the token
    /// and interest of an fd already in it.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        self.set.insert(fd, (token, interest));
    }

    /// Drop an fd from the interest set. Must be called before the fd is
    /// closed, so a reused fd number cannot inherit the registration.
    pub fn deregister(&mut self, fd: RawFd) {
        self.set.remove(&fd);
    }

    /// Block for readiness, appending events to `out` (which is cleared
    /// first). A `None` timeout blocks indefinitely; EINTR returns an
    /// empty event set rather than an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        self.scratch.clear();
        // fds with Interest::NONE are still polled (events == 0) so that
        // POLLERR/POLLHUP — always reported — keep flowing.
        for (&fd, &(_, interest)) in &self.set {
            let mut events = 0i16;
            if interest.read {
                events |= ffi::POLLIN;
            }
            if interest.write {
                events |= ffi::POLLOUT;
            }
            self.scratch.push(ffi::pollfd {
                fd,
                events,
                revents: 0,
            });
        }
        let n = unsafe {
            ffi::poll(
                self.scratch.as_mut_ptr(),
                self.scratch.len() as ffi::nfds_t,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for pfd in &self.scratch {
            if pfd.revents == 0 {
                continue;
            }
            let Some(&(token, _)) = self.set.get(&pfd.fd) else {
                continue;
            };
            out.push(Event {
                token,
                readable: pfd.revents & (ffi::POLLIN | ffi::POLLHUP) != 0,
                writable: pfd.revents & ffi::POLLOUT != 0,
                error: pfd.revents & (ffi::POLLERR | ffi::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

/// Write half of the self-pipe; held in `ServerState` so workers and the
/// shutdown handle can interrupt a blocked [`Poller::wait`] from any
/// thread.
#[derive(Debug)]
pub struct WakeTx {
    stream: UnixStream,
}

impl WakeTx {
    /// Nudge the event loop. Best-effort: a full pipe already guarantees a
    /// pending wakeup, so EAGAIN is ignored.
    pub fn wake(&self) {
        let _ = (&self.stream).write(&[1]);
    }
}

/// Read half of the self-pipe, owned by the event loop.
#[derive(Debug)]
pub struct WakeRx {
    stream: UnixStream,
}

impl WakeRx {
    /// The raw fd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Drain all pending wake bytes (the pipe is nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.stream).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Create the nonblocking self-pipe pair: a connected unix socket pair,
/// which std opens close-on-exec.
///
/// # Errors
///
/// Fails if the kernel refuses the socket pair or the nonblocking flag.
pub fn wake_pipe() -> io::Result<(WakeTx, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((WakeTx { stream: tx }, WakeRx { stream: rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_pipe_interrupts_and_drains() {
        let mut poller = Poller::new();
        let (tx, rx) = wake_pipe().unwrap();
        poller.register(rx.fd(), 7, Interest::READ);
        let mut events = Vec::new();

        // Nothing pending: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "spurious event");

        tx.wake();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        rx.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "not drained");
    }

    #[test]
    fn socket_readability_and_interest_updates() {
        let mut poller = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        poller.register(server.as_raw_fd(), 42, Interest::READ);
        let mut events = Vec::new();
        client.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "no readable event"
        );

        // Masking read interest silences the (still-pending) byte.
        poller.register(server.as_raw_fd(), 42, Interest::NONE);
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 42 && e.readable),
            "masked fd still readable"
        );

        poller.deregister(server.as_raw_fd());
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregister leaked");
    }

    #[test]
    fn peer_hang_up_reaches_an_fd_with_no_interest() {
        // A backpressured connection is parked with Interest::NONE and
        // learns that its peer left only from POLLHUP, which poll(2)
        // reports whatever events were requested. A peer that closes with
        // our bytes unread resets the connection.
        let mut poller = Poller::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        server.write_all(b"unread reply").unwrap();
        poller.register(server.as_raw_fd(), 9, Interest::NONE);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "live peer: {events:?}");

        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "hang-up not delivered: {events:?}"
        );
    }
}
