//! `harmony-cli` entry point: parse, run, print, exit non-zero on error.

use harmony_cli::{commands, parse_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", harmony_cli::args::usage());
            std::process::exit(2);
        }
    };
    match commands::run(cli.command) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
