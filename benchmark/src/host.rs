//! What the benchmark needs from the operating system: CPU pinning, process
//! CPU time, peak resident memory, and a description of the host.
//!
//! The four libc calls are declared by hand, as `ah_core::server::poll`
//! declares `poll(2)`: std already links libc, and the build is offline.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    pub const CPU_SET_WORDS: usize = 1024 / 64;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Pin this process to the last CPU of its allowed mask and return that
/// CPU. Threads spawned afterwards inherit the mask, so every server thread
/// shares the CPU with its one client: no cross-CPU wake-ups, which on a
/// shared 2-vCPU host cost five times the program's own work. Returns `-1`
/// where pinning is unavailable or refused; the run is then marked
/// non-comparable instead of failing.
#[cfg(target_os = "linux")]
pub fn pin_to_last_allowed_cpu() -> i32 {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, and pid 0
    // names the calling thread.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return -1;
    }
    let Some(cpu) = (0..sys::CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return -1;
    };
    let mut one = [0u64; sys::CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    if unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return -1;
    }
    cpu as i32
}

/// No affinity call off Linux: run unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_allowed_cpu() -> i32 {
    -1
}

/// Limit glibc's malloc to one arena; `false` where that is not the
/// allocator. With per-thread arenas the peak resident set depends on which
/// arena each short-lived server thread happens to be given: the same
/// `store-cold` work peaked anywhere from 52 to 72 MiB, and at 18.2 to
/// 18.3 MiB with one arena, at the same speed (everything runs on one CPU).
/// Call before the first thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() -> bool {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and only sets an allocator
    // parameter; no thread has been started yet.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Not glibc: the allocator is left as it is.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() -> bool {
    false
}

/// CPU seconds this process has consumed, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn process_cpu_seconds() -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Off Linux the clock id differs per system; wall time since the first
/// call stands in, and the host block marks the run non-comparable.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`); `0` where `/proc`
/// does not exist.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Fixed integer work: a host whose clock or load changed between two runs
/// shows here, with none of the program's code involved.
pub fn calib_cpu_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Fixed pointer chase over 32 MiB, far beyond the last-level cache share
/// of one vCPU: the host's memory latency under whatever the neighbours do.
pub fn calib_mem_ms() -> f64 {
    const SLOTS: usize = 4 << 20;
    // One cycle through every slot (Sattolo's shuffle with a fixed
    // generator), so the chase cannot settle into a cached loop.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x1234_5678_9ABC_DEF1_u64;
    for i in (1..SLOTS).rev() {
        state = ah_core::seeded::splitmix64(state);
        next.swap(i, (state % i as u64) as usize);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..2_000_000 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t0.elapsed().as_secs_f64() * 1e3
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The commit of the checkout, read from `.git` without running git; the
/// acceptance driver's checkout is not a repository and reads `unknown`.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// Filesystem type holding `path`, from the longest matching mount point.
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, t)| t.to_string())
}

/// CPUs the host has, counted from `/proc/cpuinfo`: once the process is
/// pinned, `available_parallelism` answers 1.
fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
}

/// The host block printed with every result.
pub fn describe(
    pinned_cpu: i32,
    single_arena: bool,
    scratch: &std::path::Path,
) -> serde_json::Value {
    serde_json::json!({
        "cores": host_cores(),
        "cpu_model": first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".into(), |s| s.trim().to_string()),
        "git_commit": git_commit(),
        "pinned_cpu": pinned_cpu,
        "malloc_single_arena": single_arena,
        "comparable": pinned_cpu >= 0 && single_arena,
        "scratch_dir": scratch.display().to_string(),
        "scratch_filesystem": filesystem_of(scratch),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_seconds();
        std::hint::black_box(calib_cpu_ms());
        let b = process_cpu_seconds();
        assert!(b > a, "{a} -> {b}");
    }

    #[test]
    fn host_block_names_every_field() {
        let block = describe(-1, true, std::path::Path::new("."));
        for key in [
            "cores",
            "cpu_model",
            "kernel",
            "git_commit",
            "pinned_cpu",
            "malloc_single_arena",
            "comparable",
            "scratch_dir",
            "scratch_filesystem",
        ] {
            assert!(block.get(key).is_some(), "missing {key}");
        }
        assert_eq!(block["comparable"].as_bool(), Some(false));
    }
}
