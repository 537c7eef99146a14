//! What machine and toolchain a result came from. Numbers are compared
//! only against runs on the same host; the fingerprint makes that
//! checkable.

use std::io;
use std::process::Command;

/// `(key, value)` pairs: CPU model, `nproc`, `rustc -V`, git commit.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("cpu", cpu),
        ("nproc", sim_engine::par::available_workers().to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (a source checkout need not be a git
/// repository). `output()` waits for the child.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process, MiB: its peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fresh zeroed anonymous pages, mapped for this value's life and
/// unmapped when it drops.
pub struct AnonPages {
    ptr: *mut u64,
    len: usize,
}

impl AnonPages {
    /// Map `len` zeroed `u64`s.
    pub fn new(len: usize) -> io::Result<AnonPages> {
        // SAFETY: an anonymous private mapping touches no existing memory.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len * 8,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(AnonPages {
            ptr: ptr.cast(),
            len,
        })
    }

    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `len` u64s long, readable, writable and
        // zero-filled, and lives as long as `self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AnonPages {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made.
        unsafe { munmap(self.ptr.cast(), self.len * 8) };
    }
}

/// CPU time this process has used so far, all its threads together, in
/// nanoseconds, plus that of its children once they have been waited for
/// (worker processes a campaign reaps before `Campaign::run` returns).
///
/// The end-to-end timings are CPU time, not wall time: on a host whose
/// cores are shared with other load, wall time mostly measures how much of
/// a core the scheduler granted. Time the host takes a core away (steal,
/// or another process running) does not count here.
pub fn cpu_ns() -> u64 {
    let mut now = Timespec::default();
    let mut children = Rusage::default();
    // SAFETY: both calls write only into the structs passed, which have
    // the layout the C library declares for them on 64-bit Linux.
    let (a, b) = unsafe {
        (
            clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now),
            getrusage(RUSAGE_CHILDREN, &mut children),
        )
    };
    assert!(a == 0 && b == 0, "clock_gettime/getrusage failed");
    let own = now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64;
    let reaped = [children.ru_utime, children.ru_stime]
        .iter()
        .map(|t| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000)
        .sum::<u64>();
    own + reaped
}

/// Make every thread of this process allocate from one malloc arena.
///
/// A campaign starts a worker thread per `Campaign::run` call. Whether
/// glibc handed that thread the previous worker's arena or a fresh one
/// depended on how far the previous worker had got in exiting, and that
/// moved `peak_rss_mb` by a tenth between runs of one seed. Call it
/// before any thread starts.
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` only sets an allocator parameter.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert!(ok == 1, "mallopt(M_ARENA_MAX) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench calls the 64-bit Linux GNU C library directly");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;
const M_ARENA_MAX: i32 = -8;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// The fourteen `long` counters that follow; unused here.
    _rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn mmap(
        addr: *mut std::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut std::ffi::c_void;
    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
}
