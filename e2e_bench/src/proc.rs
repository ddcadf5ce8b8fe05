//! Child processes timed from spawn to exit, with the kernel's resource
//! accounting read through `wait4(2)`, and the free-disk check.
//!
//! `std::process::Child::wait` discards the child's `rusage`, so the
//! wait goes through libc directly. Linux on a 64-bit target only: the
//! struct layouts below are that ABI's.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the end-to-end benchmark reads rusage/statvfs with the 64-bit Linux layouts");

use std::ffi::{c_char, c_int, c_long, CString};
use std::fs::File;
use std::io;
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
pub struct Timeval {
    pub tv_sec: c_long,
    pub tv_usec: c_long,
}

impl Timeval {
    fn secs(self) -> f64 {
        self.tv_sec as f64 + self.tv_usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux (144 bytes): two `timeval`s, then
/// fourteen `long`s of which only `ru_maxrss` (KiB) is read here.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
pub struct Rusage {
    pub ru_utime: Timeval,
    pub ru_stime: Timeval,
    pub ru_maxrss: c_long,
    pub rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn statvfs(path: *const c_char, buf: *mut u64) -> c_int;
}

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Proc {
    /// Spawn to exit.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set size, MB (10^6 bytes).
    pub maxrss_mb: f64,
    /// Exit code; `-signal` when killed by a signal.
    pub code: i32,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

/// Runs `program args` in `cwd` to completion. Stdout goes to a file in
/// `cwd` (read back into [`Proc::stdout`]) and stderr to another, so no
/// pipe can fill and stall the child while it is being waited for.
pub fn run(program: &Path, args: &[&str], cwd: &Path) -> io::Result<Proc> {
    let out_path = cwd.join(".stdout");
    let err_path = cwd.join(".stderr");
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .spawn()?;
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unwaited child (std never reaps it:
        // `Child` is dropped below without `wait`), and both out-pointers
        // refer to live, properly laid out locals for the whole call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    drop(child);
    // WIFEXITED / WEXITSTATUS / WTERMSIG, spelled out.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let stdout = std::fs::read_to_string(&out_path)?;
    if code != 0 {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        eprintln!(
            "{} {} exited {code}:\n{stderr}",
            program.display(),
            args.join(" ")
        );
    }
    Ok(Proc {
        wall_s,
        user_s: usage.ru_utime.secs(),
        sys_s: usage.ru_stime.secs(),
        maxrss_mb: usage.ru_maxrss as f64 * 1024.0 / 1e6,
        code,
        stdout,
    })
}

/// Bytes available to an unprivileged writer on the filesystem holding
/// `path`.
pub fn free_disk_bytes(path: &Path) -> io::Result<u64> {
    let c_path = CString::new(path.as_os_str().as_bytes())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    // `struct statvfs` is 112 bytes on 64-bit glibc and musl; 256 bytes
    // leaves room for any layout. Fields 1 and 4 are f_frsize, f_bavail.
    let mut buf = [0u64; 32];
    // SAFETY: `c_path` is NUL-terminated and outlives the call; `buf` is
    // a writable 256-byte buffer, larger than `struct statvfs`.
    let r = unsafe { statvfs(c_path.as_ptr(), buf.as_mut_ptr()) };
    if r != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(buf[1].saturating_mul(buf[4]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_has_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        assert_eq!(std::mem::size_of::<Timeval>(), 16);
    }

    #[test]
    fn run_reports_exit_codes_and_accounting() {
        let dir = std::env::temp_dir().join(format!("e2e-bench-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c", "echo hi"], &dir).unwrap();
        assert_eq!((ok.code, ok.stdout.as_str()), (0, "hi\n"));
        assert!(ok.wall_s > 0.0 && ok.maxrss_mb > 0.0);
        assert_eq!(run(sh, &["-c", "exit 3"], &dir).unwrap().code, 3);
        assert_eq!(run(sh, &["-c", "kill -9 $$"], &dir).unwrap().code, -9);
        assert!(free_disk_bytes(&dir).unwrap() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
