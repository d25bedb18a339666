//! The host as the benchmark sees it: CPU pinning and the `/proc`
//! counters read from outside the measured processes.
//!
//! Design rule 1 (README): one request is four thread hand-offs; spread
//! over idle vCPUs each hand-off is a VM-exit wake-up whose cost the
//! hypervisor's scheduler decides. Confined to one CPU a closed loop
//! never idles the core, so wall time per evaluation is the path's CPU
//! and syscall cost — the thing a code change moves.

use std::fs;

/// Bytes in the affinity mask handed to the kernel (1024 CPUs).
const MASK_BYTES: usize = 128;

// Declared directly, as `harmony-net/src/poll.rs` declares `epoll`: the
// symbols come from the C library `std` already links.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, in nanoseconds, over all its
/// threads — including the client threads that have already exited,
/// which `/proc/self/task` no longer lists.
pub fn own_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, laid out as the 64-bit Linux ABI defines it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the `cpusetsize`
    // bytes passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Confine the calling thread — and every thread and child process it
/// starts afterwards — to the highest-numbered allowed CPU. CPU 0
/// carries the sandbox's interrupt load (pinned there the same run was
/// bimodal), so the last CPU is the quiet one. Returns the CPU chosen,
/// or `None` when the kernel refused (the run goes on unpinned and the
/// host record says so).
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the `cpusetsize`
    // bytes passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// What the output's `host` block records.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub pinned_cpu: Option<usize>,
    pub kernel: String,
}

impl HostInfo {
    /// Pin, then describe the host. Call before any thread is spawned.
    pub fn pin_and_describe() -> HostInfo {
        let nproc = allowed_cpus().len().max(1);
        let pinned_cpu = pin_to_last_cpu();
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostInfo {
            nproc,
            pinned_cpu,
            kernel,
        }
    }
}

/// Jiffies `(stolen, total)` of one CPU (or of all, for `None`) from
/// `/proc/stat`.
fn cpu_jiffies(cpu: Option<usize>) -> Option<(u64, u64)> {
    let want = match cpu {
        Some(n) => format!("cpu{n}"),
        None => "cpu".to_string(),
    };
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(want.as_str()))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Share of a CPU's time the hypervisor gave to someone else, between
/// [`StealProbe::start`] and [`StealProbe::share`].
pub struct StealProbe {
    cpu: Option<usize>,
    before: Option<(u64, u64)>,
}

impl StealProbe {
    pub fn start(cpu: Option<usize>) -> StealProbe {
        StealProbe {
            cpu,
            before: cpu_jiffies(cpu),
        }
    }

    pub fn share(&self) -> f64 {
        match (self.before, cpu_jiffies(self.cpu)) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Counters of one daemon process, summed over its (long-lived)
/// threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Time on a CPU, from `schedstat` (nanoseconds).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> ProcSample {
        let mut sample = ProcSample::default();
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
                    sample.cpu_ns += first_number(&s);
                }
                if let Ok(s) = fs::read_to_string(dir.join("status")) {
                    sample.ctx_switches += status_field(&s, "voluntary_ctxt_switches:")
                        + status_field(&s, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        sample
    }

    /// The counters of several processes, summed.
    pub fn read_all(pids: &[u32]) -> ProcSample {
        pids.iter().fold(ProcSample::default(), |acc, &pid| {
            let one = ProcSample::read(pid);
            ProcSample {
                cpu_ns: acc.cpu_ns + one.cpu_ns,
                ctx_switches: acc.ctx_switches + one.ctx_switches,
            }
        })
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Peak resident set (`VmHWM`) of a process in MB.
pub fn rss_peak_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|s| status_field(&s, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}

fn first_number(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// The number after `key` on the `/proc` line that starts with it.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(first_number)
        .unwrap_or(0)
}
