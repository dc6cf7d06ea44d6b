//! A minimal safe wrapper over Linux `epoll(7)`: the readiness set the
//! HTTP frontend's workers wait on.
//!
//! The workspace is offline and std-only, so the three system calls are
//! declared by hand instead of coming from `libc`. This is the only
//! `unsafe` in the product and the only platform-specific code — the
//! frontend is Linux-only (what CI, tier-1 and `perfbench` run), and there
//! is deliberately no portable twin to keep in step with it.
//!
//! Every registration is `EPOLLIN | EPOLLRDHUP | EPOLLONESHOT`: an event
//! is delivered to exactly one waiter and the registration then stays
//! disabled until [`Poller::arm`] re-arms it. Re-arming re-checks
//! readiness, so bytes that arrived while the registration was disabled
//! raise a fresh event rather than being lost.

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only; fields
/// are copied out by value, never borrowed.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// One `epoll` instance; closed on drop.
pub(crate) struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; a negative return is
        // an error and is checked before the value is used.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it, so `OwnedFd` may close it.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd })
    }

    /// Arms a one-shot readable/hang-up registration for `fd` under
    /// `token`: `first` adds it to the set, otherwise the disabled
    /// registration is re-armed. A closed or unknown `fd` is an error
    /// (`EBADF` / `ENOENT`), never undefined behaviour. The set drops a
    /// registration by itself when the last descriptor of its socket
    /// closes.
    pub(crate) fn arm(&self, fd: RawFd, token: u64, first: bool) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | EPOLLONESHOT,
            data: token,
        };
        let op = if first { EPOLL_CTL_ADD } else { EPOLL_CTL_MOD };
        // SAFETY: `event` is a live, initialised `epoll_event` for the
        // whole call, which only reads it; `epfd` is open while `self` is.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Blocks for one event, up to `timeout` (rounded up to the
    /// millisecond `epoll_wait` counts in), and returns its token. A
    /// timeout and an interrupted wait (`EINTR`) both return `None`.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<u64> {
        let mut event = EpollEvent { events: 0, data: 0 };
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `event` is writable storage for exactly the one
        // `epoll_event` that `maxevents == 1` allows the kernel to write;
        // `epfd` is open while `self` is.
        let n = unsafe { epoll_wait(self.epfd.as_raw_fd(), &mut event, 1, ms) };
        if n == 1 {
            Some(event.data)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    const SOON: Duration = Duration::from_secs(5);

    #[test]
    fn one_shot_events_fire_once_and_rearming_rechecks_readiness() {
        let poller = Poller::new().unwrap();
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        poller.arm(rx.as_raw_fd(), 7, true).unwrap();
        assert_eq!(poller.wait(Duration::ZERO), None, "nothing readable yet");

        tx.write_all(b"ab").unwrap();
        assert_eq!(poller.wait(SOON), Some(7));
        assert_eq!(
            poller.wait(Duration::from_millis(20)),
            None,
            "one-shot: disabled until re-armed, unread bytes or not"
        );

        // Re-arming with a byte still unread raises the event again.
        let mut byte = [0u8; 1];
        rx.read_exact(&mut byte).unwrap();
        poller.arm(rx.as_raw_fd(), 8, false).unwrap();
        assert_eq!(poller.wait(SOON), Some(8), "token follows the re-arm");

        // A hang-up is an event too, and closing the socket removes it.
        rx.read_exact(&mut byte).unwrap();
        poller.arm(rx.as_raw_fd(), 9, false).unwrap();
        drop(tx);
        assert_eq!(poller.wait(SOON), Some(9));
        let fd = rx.as_raw_fd();
        drop(rx);
        assert!(poller.arm(fd, 10, false).is_err(), "closed fd is an error");
    }

    #[test]
    fn each_event_wakes_exactly_one_of_several_waiters() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        poller.arm(rx.as_raw_fd(), 1, true).unwrap();
        let woken: Vec<Option<u64>> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3)
                .map(|_| s.spawn(|| poller.wait(Duration::from_millis(300))))
                .collect();
            tx.write_all(b"x").unwrap();
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(woken.iter().flatten().count(), 1, "{woken:?}");
    }
}
