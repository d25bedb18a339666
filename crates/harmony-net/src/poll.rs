//! Minimal readiness polling over raw syscalls, without a libc crate.
//!
//! `std` already links the platform C library, so — exactly like the
//! CLI's `signal(2)` handling — declaring the few entry points ourselves
//! costs a dozen lines instead of a bindings dependency. The wrapper is
//! deliberately small: level-triggered only, one `u64` token per
//! registration, and a [`Poller::wait`] that translates raw event masks
//! into a plain [`Readiness`] struct.
//!
//! [`Poller`] has two backends with the same API, and the platform —
//! never a user — picks one at build time: `epoll(7)` on Linux, `poll(2)`
//! on every other Unix. `poll(2)` hands the kernel the whole registration
//! table on each wait, which is the recorded reason `epoll` exists here
//! (the 10,000-connection row of `BENCH_c10k.json`); it is also the one
//! readiness call whose `struct pollfd` and event bits are identical on
//! Linux, macOS and the BSDs, so the daemon's reactor runs unchanged on
//! all of them. The `poll(2)` backend also builds under `cfg(test)` on
//! Linux, where the unit tests below hold both backends to one contract.

use std::io;

/// Readiness reported for one registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data (or EOF) is readable without blocking.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; a read will surface
    /// the details.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    /// The kernel ABI for one epoll event. x86-64 packs the struct so
    /// the 64-bit payload sits at offset 4; every other Linux target
    /// uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    unsafe extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
}

/// Widen an already-listening socket's accept backlog.
///
/// `std` hardcodes a backlog of 128 in `TcpListener::bind`, which a
/// burst of a few hundred simultaneous connects overflows — and an
/// overflowed SYN is silently dropped, costing that client a full
/// retransmission timeout (~1s) even if the server drains the queue
/// microseconds later. POSIX allows calling `listen(2)` again on a
/// listening socket to update the backlog; the kernel clamps the value
/// to `net.core.somaxconn`. Best-effort: a failure leaves the original
/// backlog in place.
pub fn widen_listen_backlog(listener: &std::net::TcpListener, backlog: i32) {
    use std::os::fd::AsRawFd;
    unsafe extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: `listen(2)` on a descriptor the borrowed listener keeps
    // open; it reads no memory of ours.
    let _ = unsafe { listen(listener.as_raw_fd(), backlog) };
}

/// An `epoll` instance owning its descriptor.
///
/// Registrations are level-triggered and always watch for readability;
/// `writable` interest is toggled per descriptor as send buffers fill
/// and drain. Closing a registered descriptor deregisters it in the
/// kernel automatically, but [`Poller::remove`] exists for the explicit
/// path.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// Register `fd` under `token` with the given interest set. With
    /// both flags false the descriptor still reports hangups and
    /// errors (the kernel always watches those).
    pub fn add(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Change an existing registration's interest set.
    pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Drop a registration.
    pub fn remove(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        let mut events = 0;
        if readable {
            events |= sys::EPOLLIN;
        }
        if writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout_ms` (`-1` blocks indefinitely) and append
    /// ready descriptors to `out`. Returns how many were appended; an
    /// interrupting signal reports zero rather than an error.
    pub fn wait(&self, out: &mut Vec<Readiness>, timeout_ms: i32) -> io::Result<usize> {
        const CAPACITY: usize = 1024;
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAPACITY];
        let n =
            unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            let hangup = bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0;
            out.push(Readiness {
                token: ev.data,
                // A hangup is surfaced as readable too: the owner's
                // next read observes the EOF or the pending error.
                readable: bits & sys::EPOLLIN != 0 || hangup,
                writable: bits & sys::EPOLLOUT != 0,
                hangup,
            });
        }
        Ok(n as usize)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable::Poller;

/// The `poll(2)` backend: the registration table lives in user space and
/// the kernel scans all of it on every wait.
#[cfg(any(not(target_os = "linux"), test))]
mod portable {
    use super::{io, Readiness};
    use std::sync::Mutex;

    /// `struct pollfd`, laid out identically on every Unix.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `nfds_t`, the one part of the `poll(2)` ABI that differs.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    unsafe extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// A `poll(2)` registration table.
    ///
    /// Same contract as the `epoll` backend — level-triggered, hangups
    /// and errors always watched — with two differences the kernel cannot
    /// paper over. It does not see a registered descriptor being closed,
    /// so a close without [`Poller::remove`] reports `hangup` on every
    /// wait until the registration is removed. And the table is locked
    /// for the length of a [`Poller::wait`], so a registration made from
    /// another thread queues behind the wait instead of joining it.
    #[derive(Debug, Default)]
    pub struct Poller {
        table: Mutex<Table>,
    }

    /// `fds[i]` is registered under `tokens[i]`; `poll(2)` needs the
    /// `pollfd`s contiguous, so the tokens sit in a parallel vector.
    #[derive(Debug, Default)]
    struct Table {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    fn interest(readable: bool, writable: bool) -> i16 {
        (if readable { POLLIN } else { 0 }) | (if writable { POLLOUT } else { 0 })
    }

    impl Poller {
        /// Create an empty registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        /// Register `fd` under `token` with the given interest set.
        pub fn add(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            let mut table = self.table.lock().expect("poller table poisoned");
            if table.fds.iter().any(|p| p.fd == fd) {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            table.fds.push(PollFd {
                fd,
                events: interest(readable, writable),
                revents: 0,
            });
            table.tokens.push(token);
            Ok(())
        }

        /// Change an existing registration's interest set.
        pub fn modify(
            &self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut table = self.table.lock().expect("poller table poisoned");
            let at = position(&table.fds, fd)?;
            table.fds[at].events = interest(readable, writable);
            table.tokens[at] = token;
            Ok(())
        }

        /// Drop a registration.
        pub fn remove(&self, fd: i32) -> io::Result<()> {
            let mut table = self.table.lock().expect("poller table poisoned");
            let at = position(&table.fds, fd)?;
            table.fds.swap_remove(at);
            table.tokens.swap_remove(at);
            Ok(())
        }

        /// Wait up to `timeout_ms` (`-1` blocks indefinitely) and append
        /// ready descriptors to `out`. Returns how many were appended; an
        /// interrupting signal reports zero rather than an error.
        pub fn wait(&self, out: &mut Vec<Readiness>, timeout_ms: i32) -> io::Result<usize> {
            let mut table = self.table.lock().expect("poller table poisoned");
            let Table { fds, tokens } = &mut *table;
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `pollfd`s; the kernel writes only `revents`.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            let before = out.len();
            for (p, &token) in fds.iter().zip(tokens.iter()) {
                let bits = p.revents;
                if bits == 0 {
                    continue;
                }
                let hangup = bits & (POLLHUP | POLLERR | POLLNVAL) != 0;
                out.push(Readiness {
                    token,
                    // As with epoll: the owner's next read observes the
                    // EOF or the pending error.
                    readable: bits & POLLIN != 0 || hangup,
                    writable: bits & POLLOUT != 0,
                    hangup,
                });
            }
            Ok(out.len() - before)
        }
    }

    fn position(fds: &[PollFd], fd: i32) -> io::Result<usize> {
        fds.iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| io::ErrorKind::NotFound.into())
    }
}

#[cfg(test)]
mod tests {
    /// The contract every backend meets, instantiated once per backend.
    macro_rules! backend_tests {
        ($poller:ty) => {
            use std::io::{Read, Write};
            use std::net::{TcpListener, TcpStream};
            use std::os::fd::AsRawFd;
            type Poller = $poller;

            #[test]
            fn reports_readability_when_bytes_arrive() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (rx, _) = listener.accept().unwrap();
                rx.set_nonblocking(true).unwrap();

                let poller = Poller::new().unwrap();
                poller.add(rx.as_raw_fd(), 7, true, false).unwrap();

                let mut ready = Vec::new();
                poller.wait(&mut ready, 0).unwrap();
                assert!(ready.is_empty(), "nothing written yet");

                tx.write_all(b"ping").unwrap();
                let mut ready = Vec::new();
                let n = poller.wait(&mut ready, 1000).unwrap();
                assert_eq!(n, 1);
                assert_eq!(ready[0].token, 7);
                assert!(ready[0].readable);
            }

            #[test]
            fn level_triggered_until_drained() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (mut rx, _) = listener.accept().unwrap();
                rx.set_nonblocking(true).unwrap();
                tx.write_all(b"data").unwrap();

                let poller = Poller::new().unwrap();
                poller.add(rx.as_raw_fd(), 1, true, false).unwrap();
                for _ in 0..2 {
                    let mut ready = Vec::new();
                    poller.wait(&mut ready, 1000).unwrap();
                    assert_eq!(ready.len(), 1, "level-triggered: still readable");
                }
                let mut buf = [0u8; 16];
                let _ = rx.read(&mut buf).unwrap();
                let mut ready = Vec::new();
                poller.wait(&mut ready, 0).unwrap();
                assert!(ready.is_empty(), "drained: no longer readable");
            }

            #[test]
            fn listener_wakes_on_pending_connection() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                listener.set_nonblocking(true).unwrap();
                let poller = Poller::new().unwrap();
                poller.add(listener.as_raw_fd(), 9, true, false).unwrap();
                let addr = listener.local_addr().unwrap();
                let t = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
                let start = std::time::Instant::now();
                let mut ready = Vec::new();
                poller.wait(&mut ready, 3000).unwrap();
                assert!(
                    ready.iter().any(|r| r.token == 9 && r.readable),
                    "a pending connection must wake the poller"
                );
                assert!(
                    start.elapsed() < std::time::Duration::from_millis(500),
                    "wakeup took {:?}: listener readiness did not fire",
                    start.elapsed()
                );
                t.join().unwrap();
            }

            #[test]
            fn writable_interest_toggles() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let poller = Poller::new().unwrap();
                // An idle socket with write interest is immediately writable.
                poller.add(tx.as_raw_fd(), 2, true, true).unwrap();
                let mut ready = Vec::new();
                poller.wait(&mut ready, 1000).unwrap();
                assert!(ready.iter().any(|r| r.token == 2 && r.writable));
                // Dropping write interest silences it.
                poller.modify(tx.as_raw_fd(), 2, true, false).unwrap();
                let mut ready = Vec::new();
                poller.wait(&mut ready, 0).unwrap();
                assert!(ready.is_empty());
                poller.remove(tx.as_raw_fd()).unwrap();
            }
        };
    }

    backend_tests!(super::Poller);

    /// `poll(2)` on the one target CI's Linux job has; elsewhere the
    /// instantiation above already is this backend.
    #[cfg(target_os = "linux")]
    mod portable {
        backend_tests!(crate::poll::portable::Poller);
    }

    /// The kernel forgets an epoll registration when its descriptor
    /// closes; the `poll(2)` table cannot, and must say so rather than
    /// go quiet. A number far above anything this process allocates
    /// stands in for the closed descriptor — to the kernel both are just
    /// "not open" — because a really closed one could be handed to a
    /// parallel test's socket before the wait.
    #[test]
    fn portable_reports_hangup_for_a_descriptor_closed_without_remove() {
        let poller = super::portable::Poller::new().unwrap();
        poller.add(1 << 30, 5, true, false).unwrap();
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0).unwrap(), 1);
        assert_eq!(ready[0].token, 5);
        assert!(ready[0].hangup && ready[0].readable);
    }
}
