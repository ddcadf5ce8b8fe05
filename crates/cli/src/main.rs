//! Thin binary wrapper; the dispatch lives in the library so the
//! commands are integration-testable.

fn main() {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ramsis_cli::run(&args));
}

/// The Rust runtime ignores `SIGPIPE`, so once a reader closes the pipe
/// (`ramsis-cli gen | grep -m3 load`) every `println!` fails with
/// `EPIPE` and panics. A command-line filter should end quietly
/// instead, as C programs do: with the default action restored, the
/// first write to a closed pipe ends the process.
#[cfg(unix)]
fn restore_default_sigpipe() {
    use std::ffi::c_int;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    // `SIGPIPE` is 13 and `SIG_DFL` is 0 on every unix Rust supports.
    const SIGPIPE: c_int = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: the libc `signal` takes an int and a pointer-sized
    // handler, and `SIG_DFL` installs no code of ours; this runs before
    // any other thread starts.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}
