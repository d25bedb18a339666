#![warn(missing_docs)]

//! Command-line front end for Active Harmony.
//!
//! The paper's server tunes *external* systems: the system under tuning
//! exposes its knobs through the resource specification language and
//! reports one performance number per configuration. This crate packages
//! that contract as a CLI: `space` inspects an RSL document,
//! `sensitivity` ranks its parameters, `tune` searches them (in process or
//! against a daemon), `serve` runs the tuning daemon, `tournament` races
//! the search engines, and `stats`, `trace` and `db` inspect a daemon or an
//! experience database. `harmony-cli help` prints the synopsis, generated
//! from the same per-subcommand flag tables the parser reads (see
//! [`args`]).
//!
//! For every exploration the measurement command is run with one
//! environment variable per parameter (`HARMONY_<NAME>=<value>`); its last
//! non-empty stdout line must be the performance number (higher = better).

pub mod args;
pub mod commands;
pub mod external;
pub mod signals;

pub use args::{parse_args, Cli, CliError, Command};
