//! Keeping a workload's threads on one processor.
//!
//! Where the clients take turns there is one statement outstanding at any
//! moment and so one thread with work to do: the client, the server's event
//! thread or one of its workers. Left to the scheduler, the hand-overs
//! between them cross processors or not as it places the threads, and in a
//! virtual machine a wake-up that crosses is an interrupt through the
//! hypervisor, whose price depends on what else the host and the guest are
//! doing: `read_wire`'s p95 read 2.8, 4.5, 5.3 or 6.9 ms on one build, by the
//! placement and by whether the other processor had been kept awake. On one
//! processor every hand-over is a context switch, and the number is the
//! program's.
#![allow(unsafe_code)]

use std::mem::{size_of, zeroed};

/// The calling thread, and every thread it starts from now on, on one
/// processor until this is dropped.
pub struct Pinned {
    /// The processors the thread could run on before; `None` where the
    /// kernel refused and nothing was changed.
    before: Option<libc::cpu_set_t>,
}

impl Pinned {
    /// Pins to the highest-numbered processor the thread may run on: the
    /// lowest takes the devices' interrupts. Best effort: where the kernel
    /// refuses, says so on standard error and leaves the thread where it was,
    /// and the run measures the scheduler's placement again.
    pub fn to_one_cpu() -> Pinned {
        let set_size = size_of::<libc::cpu_set_t>();
        // SAFETY: a processor set is plain bits, all zero is a valid one, and
        // both calls are given its true size.
        let before = unsafe {
            let mut before: libc::cpu_set_t = zeroed();
            if libc::sched_getaffinity(0, set_size, &mut before) != 0 {
                None
            } else {
                (0..libc::CPU_SETSIZE as usize)
                    .rev()
                    .find(|&cpu| libc::CPU_ISSET(cpu, &before))
                    .and_then(|cpu| {
                        let mut one: libc::cpu_set_t = zeroed();
                        libc::CPU_ZERO(&mut one);
                        libc::CPU_SET(cpu, &mut one);
                        (libc::sched_setaffinity(0, set_size, &one) == 0).then_some(before)
                    })
            }
        };
        if before.is_none() {
            eprintln!(
                "sedna-e2e: could not pin to one processor ({}); the scheduler places the threads",
                std::io::Error::last_os_error()
            );
        }
        Pinned { before }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(before) = &self.before {
            // SAFETY: `before` is the set the kernel handed out, with its size.
            unsafe {
                libc::sched_setaffinity(0, size_of::<libc::cpu_set_t>(), before);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_and_lets_go() {
        let cores = || std::thread::available_parallelism().unwrap().get();
        let before = cores();
        {
            let _pin = Pinned::to_one_cpu();
            assert_eq!(cores(), 1);
            // A thread started while pinned stays with its parent.
            assert_eq!(std::thread::spawn(cores).join().unwrap(), 1);
        }
        assert_eq!(cores(), before);
    }
}
