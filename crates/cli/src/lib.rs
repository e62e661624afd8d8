//! Library backing the `somrm` command-line tool.
//!
//! * [`mod@format`] — the plain-text model format and its parser;
//! * [`commands`] — the `moments` / `bounds` / `simulate` / `density` /
//!   `check` subcommands, implemented as functions returning their
//!   output as a `String` so they are unit-testable without spawning a
//!   process.
//!
//! # Model file format
//!
//! ```text
//! # ON-OFF source feeding a buffer (comments start with '#')
//! states 2
//! rate   0 1 3.0        # transition rate from state 0 to state 1
//! rate   1 0 4.0
//! reward 0 0.0  0.0     # state, drift r_i, variance sigma_i^2
//! reward 1 1.0  0.5
//! impulse 0 1 0.25      # optional impulse reward on a transition
//! init   0 1.0          # initial probability mass (must sum to 1)
//! ```

pub mod commands;
pub mod format;
