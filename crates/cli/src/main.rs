//! `eks` — the exhaustive-key-search command line.
//!
//! ```text
//! eks crack    --algo md5 --digest <hex> [--charset lower] [--min 1] [--max 5]
//!              [--threads 8] [--salt-prefix S] [--salt-suffix S]
//! eks hash     --algo md5 <plaintext>
//! eks mine     [--difficulty 16] [--header STR] [--threads 8]
//! eks analyze  [--algo md5] [--variant optimized] [--json] [--deny warnings]
//!              [--tolerance 0.12]
//! eks devices
//! eks simulate [--keys 5e11] [--algo md5]
//! eks tune     [--threads 4]
//! ```

mod args;
mod commands;
mod log;

use std::process::ExitCode;

use crate::log::{Level, Logger};

fn main() -> ExitCode {
    // Top-level errors go through the same leveled logger the commands
    // use (errors print at every level, so the level here is moot).
    let log = Logger::new(Level::Normal, eks_telemetry::Telemetry::disabled());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            log.error(format!("error: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let command = parsed.positional(0).unwrap_or("help").to_string();
    match commands::run(&command, &parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log.error(format!("error: {e}"));
            if commands::wants_usage_hint(&e) {
                log.error("run `eks help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}
