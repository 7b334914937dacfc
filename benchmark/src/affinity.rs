//! Pinning load threads to CPUs of their own.
//!
//! The threaded workloads synchronise through futexes (epoch barriers,
//! parked lock waiters). Left alone, Linux's wake-affine placement may
//! stack two such threads on one CPU or spread them over two, depending
//! on what ran before — measured here as a threaded/serial ratio of 0.98
//! in one invocation and 1.59 in the next. That lottery is not a
//! property of the code under test, so each load thread pins itself to
//! one of the CPUs the process may use.

/// CPUs this process may run on: `Cpus_allowed_list` of its main thread
/// (which never pins itself), whichever thread asks.
pub fn allowed_cpus() -> Vec<usize> {
    cpus_in("/proc/self/status")
}

fn cpus_in(status_file: &str) -> Vec<usize> {
    let status = std::fs::read_to_string(status_file).unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    parse_cpu_list(list.trim())
}

/// Parse the kernel's list format, e.g. `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pin the calling thread to the `slot`-th allowed CPU (wrapping).
/// Returns whether the kernel accepted; on other platforms, or if it
/// refuses, the thread stays where the scheduler puts it.
pub fn pin_current_thread(slot: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return false;
    }
    set_affinity(cpus[slot % cpus.len()])
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(pid = 0, len, mask) reads `len` bytes at
    // `mask`, which is a live local array of exactly that size, writes no
    // memory, and affects only where the calling thread is scheduled. The
    // `syscall` instruction clobbers rcx and r11, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn pinning_moves_only_the_calling_thread() {
        let before = allowed_cpus();
        let (accepted, own_mask) =
            std::thread::spawn(|| (pin_current_thread(0), cpus_in("/proc/thread-self/status")))
                .join()
                .unwrap();
        if accepted {
            assert_eq!(own_mask, vec![before[0]]);
        }
        assert_eq!(allowed_cpus(), before, "the process kept its mask");
    }
}
