//! Process limits the runtime's default backing needs.
//!
//! The mmap backend reserves its address space as one sparse memfd of a
//! few dozen GiB (`softmmu::backing`). `ftruncate` to that length counts
//! against `RLIMIT_FSIZE`: under a soft limit smaller than the reserve the
//! kernel sends `SIGXFSZ`, whose default action kills the process before
//! the runtime can fall back. So the benchmark raises the soft limit to the
//! hard one and ignores `SIGXFSZ`; if the hard limit is still too small,
//! `ftruncate` fails with `EFBIG` and the runtime degrades to its
//! table-walk backend (reported as `host.mmap_backend` = 0).

/// What [`lift_file_size_limit`] found and did, for the host record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileSizeLimit {
    /// No limit was set.
    Unlimited,
    /// The soft limit was raised to the (unlimited) hard limit.
    Raised,
    /// A limit of this many bytes stays in force.
    Capped(u64),
}

impl std::fmt::Display for FileSizeLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileSizeLimit::Unlimited => write!(f, "unlimited"),
            FileSizeLimit::Raised => write!(f, "raised to unlimited"),
            FileSizeLimit::Capped(b) => write!(f, "{b} bytes"),
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::FileSizeLimit;

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_FSIZE: i32 = 1;
    const RLIM_INFINITY: u64 = u64::MAX;
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn lift_file_size_limit() -> FileSizeLimit {
        // SAFETY: ignoring SIGXFSZ installs no handler code; an over-limit
        // write or ftruncate then returns EFBIG, which callers handle.
        unsafe { signal(SIGXFSZ, SIG_IGN) };
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a valid, writable rlimit for the call.
        if unsafe { getrlimit(RLIMIT_FSIZE, &mut lim) } != 0 {
            return FileSizeLimit::Capped(0);
        }
        if lim.cur == RLIM_INFINITY {
            return FileSizeLimit::Unlimited;
        }
        let raised = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `raised` is a valid rlimit; lifting a soft limit up to
        // the hard one needs no privilege.
        let ok = unsafe { setrlimit(RLIMIT_FSIZE, &raised) } == 0;
        match (ok, lim.max) {
            (true, RLIM_INFINITY) => FileSizeLimit::Raised,
            (true, max) => FileSizeLimit::Capped(max),
            (false, _) => FileSizeLimit::Capped(lim.cur),
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::FileSizeLimit;

    pub fn lift_file_size_limit() -> FileSizeLimit {
        FileSizeLimit::Unlimited
    }
}

/// Lifts the file-size limit as far as the process may and makes an
/// over-limit `ftruncate` fail with an error instead of a signal. Call it
/// before the first runtime is built.
pub fn lift_file_size_limit() -> FileSizeLimit {
    imp::lift_file_size_limit()
}
