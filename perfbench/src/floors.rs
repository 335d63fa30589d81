//! Hardware floors measured in the same run: `memcpy` of the same byte
//! counts the bulk API calls moved, and one `mprotect` round trip (the
//! syscall the mmap backend issues per block state change).

use softmmu::sys;
use std::hint::black_box;
use std::time::Instant;

/// Floor measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floors {
    /// Host memcpy bandwidth over the bulk ops' byte counts (GB/s).
    pub memcpy_gbps: f64,
    /// One `mprotect(NONE)` + `mprotect(READ|WRITE)` pair on one 256 KiB
    /// block (µs, median of batches).
    pub mprotect_us: f64,
}

/// Copies each byte count in `sizes` once between warm buffers.
pub fn memcpy_gbps(sizes: &[usize]) -> f64 {
    let max = sizes.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 0.0;
    }
    let src: Vec<u8> = (0..max).map(|i| i as u8).collect();
    let mut dst = vec![0u8; max];
    dst.copy_from_slice(&src);
    let (mut bytes, mut ns) = (0u64, 0u64);
    for &n in sizes {
        let t = Instant::now();
        dst[..n].copy_from_slice(black_box(&src[..n]));
        black_box(&mut dst);
        ns += t.elapsed().as_nanos() as u64;
        bytes += n as u64;
    }
    crate::stats::ratio(bytes as f64, ns as f64)
}

/// Median cost of one protect/unprotect pair on a committed block; 0 when
/// the host has no mmap support.
pub fn mprotect_us() -> f64 {
    const BLOCK: u64 = 256 << 10;
    const PAIRS: usize = 200;
    let Ok(fd) = sys::memfd(BLOCK) else {
        return 0.0;
    };
    let Ok(ptr) = sys::map_view(fd, BLOCK, sys::PROT_READ | sys::PROT_WRITE) else {
        sys::close_fd(fd);
        return 0.0;
    };
    // SAFETY: `ptr` is a fresh BLOCK-byte read/write mapping owned here.
    unsafe { std::ptr::write_bytes(ptr, 1, BLOCK as usize) };
    let mut batches = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..PAIRS {
            // SAFETY: the range is this function's own mapping and no
            // reference into it is live while it is inaccessible.
            unsafe {
                sys::protect(ptr, BLOCK, sys::PROT_NONE).expect("mprotect(NONE)");
                sys::protect(ptr, BLOCK, sys::PROT_READ | sys::PROT_WRITE)
                    .expect("mprotect(READ|WRITE)");
            }
        }
        batches.push(t.elapsed().as_nanos() as f64 / PAIRS as f64 / 1e3);
    }
    // SAFETY: unmapping the mapping created above; nothing refers to it.
    unsafe { sys::unmap(ptr, BLOCK) };
    sys::close_fd(fd);
    crate::stats::median(&batches)
}

/// Both floors; `sizes` are the bulk ops' byte counts.
pub fn measure(sizes: &[usize]) -> Floors {
    Floors {
        memcpy_gbps: memcpy_gbps(sizes),
        mprotect_us: mprotect_us(),
    }
}

/// Records the floors and the bulk-path ratios to them, with their base.
pub fn emit(out: &mut crate::report::Outcome, f: Floors, write_gbps: f64, read_gbps: f64) {
    out.layer("floor.memcpy_gbps", f.memcpy_gbps);
    out.layer("floor.mprotect_us", f.mprotect_us);
    let slowdown = |gbps: f64| crate::stats::ratio(f.memcpy_gbps, gbps);
    out.layer("softmmu.bulk_write_gbps", write_gbps);
    out.layer("softmmu.bulk_read_gbps", read_gbps);
    out.layer("softmmu.bulk_write_vs_memcpy", slowdown(write_gbps));
    out.layer("softmmu.bulk_read_vs_memcpy", slowdown(read_gbps));
    out.notes.push(format!(
        "floors: memcpy {:.2} GB/s over the same byte counts, mprotect pair {:.2} us; bulk write {:.2} GB/s = memcpy/{:.2}, bulk read {:.2} GB/s = memcpy/{:.2}",
        f.memcpy_gbps,
        f.mprotect_us,
        write_gbps,
        slowdown(write_gbps),
        read_gbps,
        slowdown(read_gbps)
    ));
}
