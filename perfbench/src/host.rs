//! Host facts and clocks: kernel-accounted CPU time, the hypervisor
//! steal share from `/proc/stat`, peak RSS, and the commit under test.
//!
//! CPU time comes from `clock_gettime` on the process and thread CPU
//! clocks (the scheduler's `sum_exec_runtime`, the same basis as
//! `/proc/<pid>/schedstat`). On a paravirtualised kernel that clock runs
//! on the task clock, which excludes time stolen by the hypervisor, so a
//! CPU-time cost stays put while wall time swings with the neighbours.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux; the CPU-time clocks always exist for the caller.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, alive or exited.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_pid_stat_ticks(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14/15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Process `utime + stime` in seconds from `/proc/self/stat` (the
/// coarse, tick-granular cross-check of [`process_cpu_ns`]).
pub fn proc_stat_cpu_s() -> Option<f64> {
    let line = std::fs::read_to_string("/proc/self/stat").ok()?;
    // USER_HZ is 100 on every Linux ABI this builds for.
    Some(parse_pid_stat_ticks(&line)? as f64 / 100.0)
}

/// Aggregate host CPU ticks from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    /// user + nice + system + irq + softirq + steal.
    pub busy: u64,
    /// Time the hypervisor ran someone else while a vCPU wanted to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_ticks(proc_stat: &str) -> Option<HostTicks> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal ...
    let steal = at(7);
    Some(HostTicks {
        busy: at(0) + at(1) + at(2) + at(5) + at(6) + steal,
        steal,
    })
}

fn host_ticks() -> HostTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_ticks(&s))
        .unwrap_or_default()
}

/// CPU seconds (`utime + stime`) of each live thread of this process,
/// summed by thread name, largest first.
pub fn thread_cpu_by_name() -> Vec<(String, f64)> {
    let mut by_name: std::collections::BTreeMap<String, f64> = Default::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    for task in tasks.flatten() {
        let path = task.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let ticks = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| parse_pid_stat_ticks(&s));
        if let Some(t) = ticks {
            *by_name.entry(name.trim().to_owned()).or_default() += t as f64 / 100.0;
        }
    }
    let mut out: Vec<(String, f64)> = by_name.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` body.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Wall and CPU clocks plus host steal, read together at a phase edge.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu_ns: u64,
    host: HostTicks,
}

impl Mark {
    /// Reads all clocks now.
    pub fn now() -> Mark {
        Mark {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
            host: host_ticks(),
        }
    }

    /// What happened between `self` and now.
    pub fn phase(&self, name: &str) -> PhaseFacts {
        let end = Mark::now();
        let busy = end.host.busy.saturating_sub(self.host.busy);
        let steal = end.host.steal.saturating_sub(self.host.steal);
        PhaseFacts {
            name: name.to_owned(),
            wall_s: (end.wall - self.wall).as_secs_f64(),
            cpu_s: (end.cpu_ns - self.cpu_ns) as f64 * 1e-9,
            host_busy_s: busy as f64 / 100.0,
            steal_frac: if busy == 0 {
                0.0
            } else {
                steal as f64 / busy as f64
            },
        }
    }
}

/// Wall time, process CPU time and host steal over one phase.
#[derive(Debug, Clone)]
pub struct PhaseFacts {
    /// Phase name (`setup`, `measure`, ...).
    pub name: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Kernel-accounted process CPU seconds.
    pub cpu_s: f64,
    /// Busy vCPU seconds of the whole host (every CPU, every process).
    pub host_busy_s: f64,
    /// Share of `host_busy_s` stolen by the hypervisor.
    pub steal_frac: f64,
}

impl PhaseFacts {
    /// One report line, every duration labelled with its clock.
    pub fn line(&self) -> String {
        format!(
            "# phase {}: wall {:.3} s, process cpu {:.3} s, host busy {:.2} s, steal {:.1}% of busy",
            self.name,
            self.wall_s,
            self.cpu_s,
            self.host_busy_s,
            100.0 * self.steal_frac
        )
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git working tree.
pub fn commit_hash() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPUs the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_thread_cpu(ns: u64) {
        let start = thread_cpu_ns();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let mut x = 0u64;
        while thread_cpu_ns() - start < ns && Instant::now() < deadline {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn cpu_clocks_track_burned_cpu() {
        let p0 = process_cpu_ns();
        let t0 = thread_cpu_ns();
        let wall = Instant::now();
        spin_thread_cpu(40_000_000);
        let thread = thread_cpu_ns() - t0;
        let process = process_cpu_ns() - p0;
        assert!(thread >= 40_000_000, "thread clock advanced {thread} ns");
        assert!(process >= thread, "process {process} < thread {thread}");
        assert!(
            thread as f64 <= wall.elapsed().as_secs_f64() * 1e9 + 1e6,
            "a thread cannot burn more CPU than wall time"
        );
    }

    #[test]
    fn tick_counter_agrees_with_cpu_clock() {
        spin_thread_cpu(30_000_000);
        let ticks = proc_stat_cpu_s().expect("/proc/self/stat readable");
        let clock = process_cpu_ns() as f64 * 1e-9;
        // Ticks are 10 ms granular and read a moment apart from the clock.
        assert!(
            (ticks - clock).abs() < 0.05 + 0.05 * clock,
            "ticks {ticks} s vs clock {clock} s"
        );
    }

    #[test]
    fn pid_stat_parser_survives_odd_command_names() {
        let line = "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 1 0";
        assert_eq!(parse_pid_stat_ticks(line), Some(175));
        assert_eq!(parse_pid_stat_ticks("garbage"), None);
    }

    #[test]
    fn host_ticks_count_steal_as_busy() {
        let stat = "cpu  100 5 20 900 7 1 2 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let t = parse_host_ticks(stat).unwrap();
        assert_eq!(t.steal, 40);
        assert_eq!(t.busy, 100 + 5 + 20 + 1 + 2 + 40);
    }

    #[test]
    fn vm_hwm_is_read_from_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert!(peak_rss_mib() > 0.0);
    }
}
