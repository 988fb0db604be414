//! Host readers: process CPU time, machine-wide steal time and peak
//! resident memory, from `/proc`, and the host's speed, read from
//! reference kernels. They explain or correct for a slow host; they are
//! not the system's own figures.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// A reading of the host counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// User + system ticks of this process, all threads.
    cpu_ticks: u64,
    /// Steal ticks of the whole machine (time the hypervisor ran others).
    steal_ticks: u64,
}

impl HostSample {
    /// Reads the counters now; zeros where `/proc` is unreadable.
    #[must_use]
    pub fn now() -> HostSample {
        HostSample {
            cpu_ticks: self_cpu_ticks().unwrap_or(0),
            steal_ticks: steal_ticks().unwrap_or(0),
        }
    }

    /// `(cpu_s, steal_s)` elapsed since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &HostSample) -> (f64, f64) {
        (
            self.cpu_ticks.saturating_sub(earlier.cpu_ticks) as f64 / TICKS_PER_SEC,
            self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 / TICKS_PER_SEC,
        )
    }

    /// The share of the machine's CPU time stolen since `earlier`, which
    /// was `wall_s` seconds ago.
    #[must_use]
    pub fn steal_share_since(&self, earlier: &HostSample, wall_s: f64) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        crate::ratio(self.since(earlier).1, cpus * wall_s)
    }
}

/// `utime + stime` from `/proc/self/stat` (fields 14 and 15; the command
/// name in field 2 may hold spaces, so fields are counted after its `)`).
fn self_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs per reference sample; a sample is their median, which a timer
/// interrupt in one run does not move.
const REFERENCE_RUNS: usize = 5;

/// A fixed kernel the benchmark times beside the program to read how fast
/// the host runs at the moment. It is the benchmark's own code, so no
/// change to the measured program moves its time; only the host does.
///
/// A shared host does not slow all code alike. During minutes of a slow
/// spell on a 2-vCPU VM, a vectorized matrix product's time moved ±12%
/// from pass to pass and a chain of dependent adds' ±4%. The vgg attack's
/// pass time followed the matrix product (slope 1.00 in log time, r 0.90),
/// the mlp synthesis's followed the dependent adds (slope 0.74, r 0.70;
/// 0.26 against the matrix product). Across a switch from a fast spell to
/// a slow one, the matrix product tracked every workload within 13%; the
/// dependent adds were not timed across one. So the attack and serving
/// read [`Reference::MatMul`] and the synthesis reads both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Eight products of two 48×48 `f32` matrices (27 KiB, cache
    /// resident), which the compiler vectorizes: arithmetic-bound.
    MatMul,
    /// A `MatMul` run, then 96 dot products of length 1024 against a
    /// 384 KiB matrix read from L2, each one chain of dependent adds.
    MatMulMatVec,
}

impl Reference {
    /// Median run time, in ms, on the host all timings are reported at.
    fn nominal_ms(self) -> f64 {
        match self {
            Reference::MatMul => 0.1,
            Reference::MatMulMatVec => 0.16,
        }
    }

    /// One run of the kernel on its fixed inputs.
    fn run(self) -> f32 {
        match self {
            Reference::MatMul => matmul(),
            Reference::MatMulMatVec => matmul() + matvec(),
        }
    }

    /// One reading of the host's speed: the median time of
    /// [`REFERENCE_RUNS`] runs, in ms.
    #[must_use]
    pub fn sample(self) -> f64 {
        let mut runs: Vec<f64> = (0..REFERENCE_RUNS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(black_box(self).run());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[REFERENCE_RUNS / 2]
    }

    /// How much slower than nominal the host ran while `samples` were
    /// taken: their median over [`Reference::nominal_ms`]; 1 without
    /// samples. A timing `t` measured meanwhile reads `t / slowdown` at
    /// nominal speed, a rate `r` reads `r * slowdown`.
    #[must_use]
    pub fn slowdown(self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            1.0
        } else {
            crate::median(samples) / self.nominal_ms()
        }
    }
}

/// Eight products of two 48×48 matrices.
fn matmul() -> f32 {
    const N: usize = 48;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..8 {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                let (row, col) = (&mut c[i * N..(i + 1) * N], &b[k * N..(k + 1) * N]);
                for (cij, bkj) in row.iter_mut().zip(col) {
                    *cij += aik * bkj;
                }
            }
        }
        black_box(&mut c);
    }
    c.iter().sum()
}

/// The product of a 96×1024 matrix with a vector, both built once per
/// thread so that a run reads them from cache.
fn matvec() -> f32 {
    const COLS: usize = 1024;
    thread_local! {
        static MATRIX: Vec<f32> = (0..96 * COLS).map(|i| (i % 13) as f32 * 0.1).collect();
        static VECTOR: Vec<f32> = (0..COLS).map(|i| (i % 7) as f32 * 0.1).collect();
    }
    MATRIX.with(|w| {
        VECTOR.with(|x| {
            w.chunks_exact(COLS)
                .map(|row| black_box(row.iter().zip(x).fold(0.0f32, |s, (a, b)| s + a * b)))
                .sum()
        })
    })
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to one CPU: the highest-numbered one the process may run on. Returns
/// that CPU, or `None` where the kernel refused or the platform offers no
/// way to ask (anything but Linux on x86-64).
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SCHED_SETAFFINITY: usize = 203;
        const SCHED_GETAFFINITY: usize = 204;
        let mut allowed = [0u64; 16];
        if affinity_syscall(SCHED_GETAFFINITY, &mut allowed) <= 0 {
            return None;
        }
        let cpu = (0..allowed.len() * 64)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (affinity_syscall(SCHED_SETAFFINITY, &mut one) == 0).then_some(cpu)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

/// `sched_getaffinity` / `sched_setaffinity` of the calling thread with a
/// 1024-CPU mask; the kernel's return value (negative on error). Raw,
/// because the standard library has no affinity call and the benchmark
/// adds no dependency for one.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: usize, mask: &mut [u64; 16]) -> isize {
    let ret: isize;
    // SAFETY: both calls take (pid 0 = this thread, mask length in bytes,
    // mask pointer) and read or write at most that many bytes of `mask`,
    // which lives for the whole call. `syscall` clobbers rcx and r11 only.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}
