//! `zssd` — command-line front end for the zombie-ssd simulator.
//!
//! ```text
//! zssd list
//! zssd gen     --workload mail --out mail.trace [--scale 0.1] [--seed 42]
//! zssd run     --workload mail --system dvp [--entries 200000] [--scale 0.1]
//! zssd replay  --trace mail.trace --system dedup
//! zssd analyze --workload mail [--scale 0.1]
//! ```

use std::io::ErrorKind;
use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`zssd gen ... | head -1`) closes
        // the pipe; that ends the output, it is no failure.
        Err(err)
            if err
                .downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("run `zssd help` for usage");
            ExitCode::FAILURE
        }
    }
}
