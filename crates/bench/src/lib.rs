//! Shared harness code for the experiment binaries.
//!
//! The `fig_*` binaries in `src/bin` regenerate the paper's figure-style
//! experiments F1–F5 and two extensions (the README's "Regenerating
//! Table 1 and the figures" lists them; Table 1 and Theorems 1.1–1.3
//! come from `slb validate` ladders). All of them print markdown tables
//! to stdout and drop CSVs under `target/experiments/`.
//!
//! Every binary accepts `--quick` to shrink sizes and trial counts for
//! smoke runs; without it they run the full settings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Whether the current invocation asked for a quick smoke run.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_detection_is_safe() {
        // The test harness args don't include --quick.
        let _ = is_quick();
    }
}
