//! A minimal readiness poller: the one OS-facing corner of the event
//! loop, with a self-wake channel so other threads can interrupt a
//! blocked wait. The event loop is epoll-only (`epoll(7)`), so this crate
//! builds on Linux only.
//!
//! The abstraction is deliberately tiny — register / rearm / deregister
//! / wait / wake — because the server's event thread is the only
//! consumer. Connection sockets are registered **oneshot**: after a
//! readiness report the kernel disarms the interest, and the event loop
//! re-arms it once it has drained the socket. That gives N idle
//! connections a cost of N kernel registrations and zero syscalls per
//! poll tick, which is the whole point of the readiness rebuild (the
//! old server burned one `read` timeout per idle connection per tick).
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("the sedna-net event loop is epoll-only: it builds on Linux only");

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// The C declarations this module calls, as the system headers define
/// them (`<poll.h>`, `<sys/epoll.h>`, `<unistd.h>`); std already links
/// the C library that provides them.
#[allow(non_camel_case_types)]
mod sys {
    pub(super) use std::ffi::{c_int, c_short, c_ulong};

    pub(super) const POLLOUT: c_short = 0x4;

    #[repr(C)]
    pub(super) struct pollfd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const EPOLLIN: c_int = 0x1;
    pub(super) const EPOLLERR: c_int = 0x8;
    pub(super) const EPOLLHUP: c_int = 0x10;
    pub(super) const EPOLLRDHUP: c_int = 0x2000;
    pub(super) const EPOLLONESHOT: c_int = 0x4000_0000;
    pub(super) const EPOLL_CLOEXEC: c_int = 0x80000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;

    // The kernel packs `epoll_event` on x86 only.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct epoll_event {
        pub(super) events: u32,
        pub(super) u64: u64,
    }

    extern "C" {
        pub(super) fn close(fd: c_int) -> c_int;
        pub(super) fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut epoll_event,
        ) -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// Token the wake channel is registered under; never reported to the
/// caller and never assigned to a connection.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness report: the registered token, plus whether the kernel
/// flagged hangup/error alongside readability (the socket read will
/// surface the detail; the flag lets callers skip pointless rearms).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) hup: bool,
}

/// Clamps a timeout to the millisecond `int` `poll` and `epoll_wait` take.
fn timeout_ms(timeout: Duration) -> i32 {
    i32::try_from(timeout.as_millis())
        .unwrap_or(i32::MAX)
        .max(1)
}

/// A cloneable cross-thread handle onto a poller's wake channel, so
/// worker threads can interrupt the event thread's wait without owning
/// the poller.
#[derive(Clone)]
pub(crate) struct Waker(std::sync::Arc<UnixStream>);

impl Waker {
    /// Interrupts a blocked wait. Best-effort: a full channel or a closed
    /// peer both mean a wake is already pending (or the poller is gone),
    /// so errors are ignored.
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// Blocks until `fd` is writable or `timeout` elapses; `Ok(false)` on
/// timeout. Used by workers to pace blocking writes over the event
/// thread's nonblocking sockets.
pub(crate) fn wait_writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut p = sys::pollfd {
        fd,
        events: sys::POLLOUT,
        revents: 0,
    };
    let r = unsafe { sys::poll(&mut p, 1, timeout_ms(timeout)) };
    if r < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(e);
    }
    Ok(r > 0)
}

/// The `epoll(7)`-backed poller: one epoll instance owns every
/// registration; connection sockets use `EPOLLONESHOT`.
pub(crate) struct Poller {
    ep: RawFd,
    wake_r: UnixStream,
    wake_w: UnixStream,
}

fn cvt(r: i32) -> io::Result<i32> {
    if r < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(r)
    }
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        let (wake_r, wake_w) = UnixStream::pair()?;
        wake_r.set_nonblocking(true)?;
        wake_w.set_nonblocking(true)?;
        let ep = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        // From here on, Drop closes `ep` on every path.
        let poller = Poller { ep, wake_r, wake_w };
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            poller.wake_r.as_raw_fd(),
            sys::EPOLLIN as u32,
            WAKE_TOKEN,
        )?;
        Ok(poller)
    }

    fn ctl(&self, op: sys::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::epoll_event { events, u64: token };
        cvt(unsafe { sys::epoll_ctl(self.ep, op, fd, &mut ev) }).map(|_| ())
    }

    fn oneshot_interest() -> u32 {
        (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT) as u32
    }

    /// Registers a connection socket for exactly one readability report;
    /// [`Poller::rearm`] re-enables it.
    pub(crate) fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, Self::oneshot_interest(), token)
    }

    /// Registers a listener-style fd level-triggered: it stays armed
    /// across waits.
    pub(crate) fn register_persistent(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN as u32, token)
    }

    /// Re-enables a oneshot registration after its report was handled.
    pub(crate) fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, Self::oneshot_interest(), token)
    }

    /// Removes a registration; harmless if the fd was never added.
    pub(crate) fn deregister(&self, fd: RawFd) {
        let mut ev = sys::epoll_event { events: 0, u64: 0 };
        let _ = unsafe { sys::epoll_ctl(self.ep, sys::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits for readiness, filling `out` (wake reports are drained
    /// internally and not surfaced). An interrupted wait returns empty
    /// rather than erroring.
    pub(crate) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        const CAP: usize = 256;
        let mut buf = [sys::epoll_event { events: 0, u64: 0 }; CAP];
        let r =
            unsafe { sys::epoll_wait(self.ep, buf.as_mut_ptr(), CAP as i32, timeout_ms(timeout)) };
        if r < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &buf[..r as usize] {
            let token = ev.u64;
            let events = ev.events;
            if token == WAKE_TOKEN {
                // The channel is level-readable until empty; leaving bytes
                // behind would spin the wait.
                let mut drain = [0u8; 64];
                while matches!((&self.wake_r).read(&mut drain), Ok(n) if n > 0) {}
                continue;
            }
            let hup = events & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) as u32 != 0;
            out.push(Event { token, hup });
        }
        Ok(())
    }

    /// A cloneable wake handle for other threads.
    pub(crate) fn waker(&self) -> io::Result<Waker> {
        Ok(Waker(std::sync::Arc::new(self.wake_w.try_clone()?)))
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.ep) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn poller_reports_readiness() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();

        // Idle wait times out empty.
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());

        // A readable registered fd is reported with its token.
        let (r, w) = pair();
        poller.register(r.as_raw_fd(), 7).unwrap();
        (&w).write_all(b"x").unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);

        // Oneshot: without a rearm the same readiness is not re-reported.
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "oneshot fd reported twice");

        // Rearm re-enables the report (the byte is still unread).
        poller.rearm(r.as_raw_fd(), 9).unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);

        // Peer hangup is flagged.
        poller.rearm(r.as_raw_fd(), 9).unwrap();
        drop(w);
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].hup);

        // Deregistered fds go silent.
        poller.deregister(r.as_raw_fd());
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());

        // A wake interrupts a long wait promptly and is not surfaced as
        // an event.
        let started = Instant::now();
        poller.waker().unwrap().wake();
        poller
            .wait(&mut events, Duration::from_millis(5000))
            .unwrap();
        assert!(events.is_empty());
        assert!(started.elapsed() < Duration::from_millis(1000));
    }

    #[test]
    fn wait_writable_reports_a_writable_socket() {
        let (a, _b) = pair();
        assert!(wait_writable(a.as_raw_fd(), Duration::from_millis(100)).unwrap());
    }
}
