//! The `ppanns-cli serve --data-dir` child process every workload is
//! served from.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Owner token the benchmark's server accepts maintenance frames under.
pub const TOKEN: u64 = 0x1ED6E7;

/// Locates `ppanns-cli` next to this executable (both are built into one
/// target directory's `release/`).
pub fn find_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli = exe.with_file_name("ppanns-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found: run `cargo build --release` at the repository root with the same \
             CARGO_TARGET_DIR as this binary (perf_ledger/run.sh does both)",
            cli.display()
        ))
    }
}

pub struct ServeOptions<'a> {
    pub cli: &'a Path,
    pub data_dir: &'a Path,
    pub workers: usize,
}

/// A running server child. Dropping it kills the process and waits for it,
/// so no run leaves one behind.
pub struct Server {
    child: Child,
    /// Held open for the child's lifetime: its later `println!`s would
    /// otherwise fail on a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `serve` on an OS-assigned loopback port with `--fsync
    /// always` (and the default `--compact-bytes`) and returns once it has
    /// printed the address it bound.
    pub fn spawn(opts: &ServeOptions) -> Result<Self, String> {
        let mut child = Command::new(opts.cli)
            .arg("serve")
            .arg("--data-dir")
            .arg(opts.data_dir)
            .args(["--addr", "127.0.0.1:0", "--fsync", "always"])
            .args(["--workers", &opts.workers.to_string()])
            .args(["--token", &TOKEN.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = parse_serving_line(&line) {
                        return Ok(Self { child, _stdout: stdout, addr });
                    }
                }
                _ => {
                    let _ = child.kill();
                    let status = child.wait().map_err(|e| e.to_string())?;
                    return Err(format!("server exited before serving: {status}"));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then reaps the child. Harmless on a child already reaped.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address out of `serving N collections (M vectors) on ADDR with …`.
fn parse_serving_line(line: &str) -> Option<String> {
    let rest = line.strip_prefix("serving ")?;
    let (_, after_on) = rest.split_once(" on ")?;
    let addr = after_on.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_line_yields_the_bound_address() {
        let line = "serving 1 collections (8000 vectors) on 127.0.0.1:40123 with 2 workers, \
                    owner maintenance enabled\n";
        assert_eq!(parse_serving_line(line).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(parse_serving_line("recovery: collection `x`: replayed 3 logged\n"), None);
        assert_eq!(parse_serving_line("  ledger   8000 vectors   128d  cloud\n"), None);
    }
}
