//! Readiness polling — the one syscall boundary of the reactor.
//!
//! The workspace vendors no libc/mio crate, so the poller is declared
//! directly against the C runtime std already links, the same way
//! `saint-frozen` declares `mmap` (see `crates/frozen/src/mmap.rs`).
//! Everything outside this module sees only the safe [`Poller`]:
//! register a file descriptor with a `u64` token and an interest set,
//! wait, get back `(token, readable, writable, hangup)` triples.
//!
//! Two implementations behind one API:
//!
//! - Linux: `epoll` (level-triggered) — O(ready) wakeups, the shape
//!   a daemon with a thousand open connections needs;
//! - other Unix: `poll(2)` over the registered set — O(registered) per
//!   wait, functionally identical, so the crate still builds and the
//!   tests still pass off-Linux.
//!
//! Vectored response writes need no shim: `TcpStream::write_vectored`
//! is `writev(2)` on every Unix std supports.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What a registered descriptor is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable.
    pub read: bool,
    /// Wake when the descriptor becomes writable.
    pub write: bool,
}

/// One readiness event handed back by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (or about to EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hung up or the descriptor errored; the owner should read
    /// to EOF / surface the error and close.
    pub hangup: bool,
}

/// A level-triggered readiness poller over raw file descriptors.
pub struct Poller {
    imp: imp::Poller,
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    /// Propagates the underlying syscall failure.
    pub fn new() -> io::Result<Self> {
        Ok(Poller {
            imp: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd`, reporting events under `token`.
    ///
    /// # Errors
    /// Propagates the underlying syscall failure.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.imp.register(fd, token, interest)
    }

    /// Replaces the interest set of an already-registered `fd`.
    ///
    /// # Errors
    /// Propagates the underlying syscall failure.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.imp.reregister(fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the descriptor is
    /// closed.
    ///
    /// # Errors
    /// Propagates the underlying syscall failure.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.imp.deregister(fd)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` expires (`None` = wait forever), appending events to
    /// `out` (which is cleared first).
    ///
    /// # Errors
    /// Propagates the underlying syscall failure; `EINTR` is retried
    /// internally.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<PollEvent>) -> io::Result<()> {
        out.clear();
        self.imp.wait(timeout, out)
    }
}

/// Milliseconds for the poll syscalls: `None` → block forever (-1),
/// saturating at `i32::MAX`, and rounding any sub-millisecond remainder
/// *up* so a 100µs deadline never spins at timeout 0.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            let ms = if t.subsec_nanos() % 1_000_000 != 0 {
                ms + 1
            } else {
                ms
            };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Interest, PollEvent};
    use std::io;
    use std::os::unix::io::{FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Kernel ABI layout: packed on x86-64 (the kernel header says so),
    /// natural alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    pub struct Poller {
        /// Owned so the epoll instance is closed on drop.
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    fn events_of(interest: Interest) -> u32 {
        let mut ev = EPOLLRDHUP;
        if interest.read {
            ev |= EPOLLIN;
        }
        if interest.write {
            ev |= EPOLLOUT;
        }
        ev
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; a -1 return is checked before the
            // fd is wrapped.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                // SAFETY: `fd` is a fresh, valid descriptor we own.
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut ev = EpollEvent {
                events: events_of(interest),
                data: token,
            };
            // SAFETY: epfd and fd are valid open descriptors; `ev` is a
            // properly initialized kernel-ABI struct that outlives the
            // call.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_DEL,
                fd,
                0,
                Interest {
                    read: false,
                    write: false,
                },
            )
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let ms = timeout_ms(timeout);
            let n = loop {
                // SAFETY: the buffer is a live, writable slice of
                // `maxevents` kernel-ABI structs for the whole call.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let events = { ev.events };
                let token = { ev.data };
                out.push(PollEvent {
                    token,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{timeout_ms, Interest, PollEvent};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    /// `poll(2)` fallback: the registered set lives in user space and
    /// is handed to the kernel on every wait. O(registered) per call —
    /// fine for correctness and tests, not the benchmarked path.
    pub struct Poller {
        entries: Vec<(RawFd, u64, Interest)>,
        fds: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                entries: Vec::new(),
                fds: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.entries.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for entry in &mut self.entries {
                if entry.0 == fd {
                    entry.1 = token;
                    entry.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.entries.len();
            self.entries.retain(|(f, _, _)| *f != fd);
            if self.entries.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            self.fds.clear();
            for (fd, _, interest) in &self.entries {
                let mut events = 0_i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd: *fd,
                    events,
                    revents: 0,
                });
            }
            let ms = timeout_ms(timeout);
            loop {
                // SAFETY: `fds` is a live, writable slice of
                // kernel-ABI pollfd structs for the whole call.
                let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u32, ms) };
                if rc >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for (slot, pfd) in self.fds.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                let token = self.entries[slot].1;
                out.push(PollEvent {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    const READ: Interest = Interest {
        read: true,
        write: false,
    };

    #[test]
    fn wakes_on_readable_and_respects_tokens() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller.register(b.as_raw_fd(), 42, READ).expect("register");

        let mut out = Vec::new();
        poller
            .wait(Some(Duration::from_millis(10)), &mut out)
            .expect("idle wait");
        assert!(out.is_empty(), "nothing readable yet: {out:?}");

        a.write_all(b"x").expect("write");
        poller
            .wait(Some(Duration::from_secs(5)), &mut out)
            .expect("ready wait");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 42);
        assert!(out[0].readable);

        let mut byte = [0_u8; 1];
        b.try_clone()
            .expect("clone")
            .read_exact(&mut byte)
            .expect("drain");
        poller
            .wait(Some(Duration::from_millis(10)), &mut out)
            .expect("drained wait");
        assert!(out.is_empty(), "level-triggered: drained fd is quiet");
    }

    #[test]
    fn write_interest_and_reregister() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller.register(a.as_raw_fd(), 7, READ).expect("register");
        let mut out = Vec::new();
        poller
            .wait(Some(Duration::from_millis(10)), &mut out)
            .expect("wait");
        assert!(out.is_empty(), "no read interest satisfied");
        poller
            .reregister(
                a.as_raw_fd(),
                7,
                Interest {
                    read: false,
                    write: true,
                },
            )
            .expect("reregister");
        poller
            .wait(Some(Duration::from_secs(5)), &mut out)
            .expect("wait");
        assert_eq!(out.len(), 1);
        assert!(out[0].writable, "fresh socket buffer is writable");
        poller.deregister(a.as_raw_fd()).expect("deregister");
        poller
            .wait(Some(Duration::from_millis(10)), &mut out)
            .expect("wait");
        assert!(out.is_empty(), "deregistered fd reports nothing");
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut poller = Poller::new().expect("poller");
        poller.register(b.as_raw_fd(), 9, READ).expect("register");
        drop(a);
        let mut out = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), &mut out)
            .expect("wait");
        assert_eq!(out.len(), 1);
        assert!(
            out[0].hangup || out[0].readable,
            "peer close surfaces as hangup or EOF-readable: {:?}",
            out[0]
        );
    }

    #[test]
    fn timeout_rounds_subms_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
