//! Offline stand-in for `libc`: the Linux declarations `sedna-net` and the
//! benchmark use.
//! Constants and layouts are those of the Linux kernel ABI.
#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_short = i16;
pub type nfds_t = u64;
pub type sighandler_t = usize;

pub const SIGINT: c_int = 2;
pub const SIGTERM: c_int = 15;

pub const POLLIN: c_short = 0x1;
pub const POLLOUT: c_short = 0x4;
pub const POLLERR: c_short = 0x8;
pub const POLLHUP: c_short = 0x10;

pub const EPOLLIN: c_int = 0x1;
pub const EPOLLERR: c_int = 0x8;
pub const EPOLLHUP: c_int = 0x10;
pub const EPOLLRDHUP: c_int = 0x2000;
pub const EPOLLONESHOT: c_int = 0x4000_0000;
pub const EPOLL_CLOEXEC: c_int = 0x80000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

// The kernel packs `epoll_event` on x86 only.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

extern "C" {
    pub fn close(fd: c_int) -> c_int;
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;
}

// What the benchmark itself uses, to keep a workload's threads on one
// processor: glibc's 1024-bit processor set and its accessors.
pub type pid_t = i32;
pub const CPU_SETSIZE: c_int = 1024;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; 16],
}

#[allow(non_snake_case)]
pub fn CPU_ZERO(set: &mut cpu_set_t) {
    set.bits = [0; 16];
}

#[allow(non_snake_case)]
pub fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    set.bits[cpu / 64] |= 1 << (cpu % 64);
}

#[allow(non_snake_case)]
pub fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    set.bits[cpu / 64] & (1 << (cpu % 64)) != 0
}

extern "C" {
    pub fn sched_getaffinity(pid: pid_t, cpusetsize: usize, cpuset: *mut cpu_set_t) -> c_int;
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: usize, cpuset: *const cpu_set_t) -> c_int;
}
