//! Command-line entry point of the key-recovery benchmark; see the
//! library docs for the flags and output.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match keybench::parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("keybench: {e}");
            return ExitCode::from(2);
        }
    };
    match keybench::run(&args) {
        Ok((out, correct)) => {
            print!("{out}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("keybench: incorrect result (wrong key or traced/untraced mismatch)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("keybench: {e}");
            ExitCode::FAILURE
        }
    }
}
