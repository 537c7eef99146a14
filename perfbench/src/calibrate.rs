//! Host-speed calibration: a fixed kernel, timed between the shards,
//! that turns the CPU time a pass took into reference CPU time.
//!
//! CPU time leaves out the time the host runs something else, but on a
//! host shared with other load it still moves with that load: neighbours
//! on the same cores and caches made a lab-tcp shard take 68 ms of CPU
//! in one minute and 108 ms in the next on a 2-core VM. The kernel below
//! slows with them. It does what the simulator does most (pop and push a
//! timer heap, draw random numbers, touch a 2 MiB table, take a square
//! root, fault in fresh pages), so a timing multiplied by
//! `KERNEL_REFERENCE_NS / kernel time` reads much the same whatever the
//! neighbours do. In minute-long runs on that VM, kernels of this shape
//! cut the interquartile spread of 4-second medians of metro-convoy shard
//! times from 0.13–0.30 of their median to 0.05–0.09; a kernel of plain
//! arithmetic left it at 0.14–0.28. The kernel is part of the benchmark's
//! definition: changing it changes every end-to-end figure.
//!
//! The kernel runs in the benchmark process, on the thread that drives
//! the campaign. Run in a child process instead, free to land on the
//! other core, it left metro-convoy's `shard_p90_ms` spread at 0.16 over
//! five runs, against 0.04–0.05 in process. Its table is mapped for each
//! run and unmapped after; `peak_rss_mb` is read before the first run
//! (see `measure::run`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::io;

use crate::host::{cpu_ns, AnonPages};
use crate::stats::median;

/// The kernel's CPU time on the reference host, about what it takes on
/// a quiet 2-core Xeon VM. Scaled timings read as CPU time on a host
/// where the kernel takes this long.
const KERNEL_REFERENCE_NS: f64 = 2.5e6;
/// Kernel runs a step's local scale is the median of.
const LOCAL_KERNELS: usize = 5;
/// Heap pops per kernel run.
const STEPS: u64 = 20_000;
/// Timers in the heap.
const TIMERS: u64 = 1024;
/// The table's length in `u64`s: 2 MiB.
const TABLE_LEN: usize = 1 << 18;

/// The kernel: a discrete-event loop over a heap of timers, each firing
/// into a random slot of a freshly mapped table of zero pages.
fn kernel() -> io::Result<u64> {
    let mut pages = AnonPages::new(TABLE_LEN)?;
    let table = pages.as_mut_slice();
    let mut heap = BinaryHeap::with_capacity(TIMERS as usize);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for id in 0..TIMERS {
        heap.push(Reverse((next() & 0xffff, id)));
    }
    for _ in 0..STEPS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let r = next();
        let slot = (r as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(t ^ id);
        let jitter = (slot as f64).sqrt() * 1.0001;
        heap.push(Reverse((t + (r & 1023) + jitter as u64, id)));
    }
    Ok(table.iter().fold(0u64, |a, &b| a.wrapping_add(b)))
}

/// Kernel timings taken since the last take.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ns: Vec<f64>,
}

impl HostSpeed {
    /// Time one kernel run.
    pub fn sample(&mut self) -> io::Result<()> {
        let t = cpu_ns();
        black_box(kernel()?);
        self.samples_ns.push((cpu_ns() - t) as f64);
        Ok(())
    }

    /// Kernel runs since the last take.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// One scale per timed step, from the median of the `LOCAL_KERNELS`
    /// kernel runs nearest it: `kernels_before[i]` is how many runs came
    /// before step `i`. Host speed moves within seconds, so a step scaled
    /// by its neighbours keeps less of that movement than one scaled by
    /// the whole pass's median. Clears the samples.
    pub fn take_local_scales(&mut self, kernels_before: &[usize]) -> Vec<f64> {
        let n = self.samples_ns.len();
        assert!(n > 0, "at least one kernel sample");
        let scales = kernels_before
            .iter()
            .map(|&k| {
                let width = LOCAL_KERNELS.min(n);
                let first = k.saturating_sub(width.div_ceil(2)).min(n - width);
                let m = median(&self.samples_ns[first..first + width]).expect("non-empty");
                KERNEL_REFERENCE_NS / m
            })
            .collect();
        self.samples_ns.clear();
        scales
    }

    /// The factor that turns CPU time measured over the samples' span
    /// into reference CPU time: `KERNEL_REFERENCE_NS` ÷ the median kernel
    /// time. Clears the samples.
    pub fn take_scale(&mut self) -> f64 {
        let m = median(&self.samples_ns).expect("at least one kernel sample");
        self.samples_ns.clear();
        KERNEL_REFERENCE_NS / m
    }
}
