//! Parse-work accounting and the per-platform cost tables.
//!
//! Every parser in this crate counts what it did ([`ParseWork`]): bytes
//! scanned, integer and float tokens converted, digits processed. A
//! [`CostModel`] then prices that work in *instructions* for a particular
//! execution platform. Two models matter:
//!
//! * [`CostModel::host_cpu`] — an out-of-order Xeon core running `scanf`-ish
//!   library code.
//! * [`CostModel::embedded_core`] — the SSD's in-order embedded core running
//!   the lean `ms_scanf` device-library loop. It has **no FPU**, so float
//!   conversions are multiplied by a soft-float penalty — the reason the
//!   paper's SpMV (33 % float tokens) barely gains from Morpheus-SSD.

/// Accumulated parsing work, platform-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseWork {
    /// Bytes the scanner advanced over (tokens + separators).
    pub bytes_scanned: u64,
    /// Integer tokens converted.
    pub int_tokens: u64,
    /// Digits across all integer tokens.
    pub int_digits: u64,
    /// Float tokens converted.
    pub float_tokens: u64,
    /// Mantissa/exponent digits across all float tokens.
    pub float_digits: u64,
}

impl ParseWork {
    /// Sums two work records.
    pub fn merge(&mut self, other: &ParseWork) {
        self.bytes_scanned += other.bytes_scanned;
        self.int_tokens += other.int_tokens;
        self.int_digits += other.int_digits;
        self.float_tokens += other.float_tokens;
        self.float_digits += other.float_digits;
    }

    /// Total tokens of any kind.
    pub fn tokens(&self) -> u64 {
        self.int_tokens + self.float_tokens
    }
}

/// Prices [`ParseWork`] in instructions for one execution platform.
///
/// Split into integer-path and float-path instruction counts because the
/// host CPU model runs them at different IPC ([`CodeClass`]) and the
/// embedded core multiplies the float path by its soft-float penalty.
///
/// [`CodeClass`]: https://docs.rs/morpheus-host
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Instructions per byte scanned (delimiter test, pointer bump, branch).
    pub scan_instr_per_byte: f64,
    /// Fixed instructions per integer token (sign, accumulate setup, store).
    pub int_instr_per_token: f64,
    /// Instructions per integer digit (multiply-add, bounds check).
    pub int_instr_per_digit: f64,
    /// Fixed instructions per float token.
    pub float_instr_per_token: f64,
    /// Instructions per float digit.
    pub float_instr_per_digit: f64,
    /// Multiplier applied to the float path (software FP emulation; 1.0 on
    /// a machine with an FPU).
    pub float_penalty: f64,
}

impl CostModel {
    /// Library `scanf`-path on the host CPU (FPU present).
    ///
    /// Calibrated so that the conversion kernel itself is a minority of the
    /// conventional path's time, matching the §II profile (≈15 % convert,
    /// the rest scanning and OS overhead).
    pub fn host_cpu() -> Self {
        CostModel {
            // The stdio scan path interprets the format string, locks the
            // FILE, and funnels every byte through getc-machinery: tens of
            // instructions per byte (vfscanf really is this heavy).
            scan_instr_per_byte: 45.0,
            int_instr_per_token: 30.0,
            int_instr_per_digit: 5.5,
            // strtod carries locale, rounding, and precision machinery.
            float_instr_per_token: 300.0,
            float_instr_per_digit: 20.0,
            float_penalty: 1.0,
        }
    }

    /// The lean `ms_scanf` loop on the SSD's embedded core (no FPU).
    ///
    /// The device loop skips the layers a general-purpose `scanf` carries
    /// (format-string interpretation, locale, wide-char paths), so its
    /// per-byte work is lower even though the core is far simpler — but
    /// every float conversion is software-emulated.
    pub fn embedded_core() -> Self {
        CostModel {
            scan_instr_per_byte: 4.2,
            int_instr_per_token: 10.0,
            int_instr_per_digit: 1.7,
            float_instr_per_token: 25.0,
            float_instr_per_digit: 5.0,
            // Soft-float mantissa assembly on the FPU-less core: a few
            // times the lean integer path (the host's strtod is bloated
            // enough that the *relative* penalty stays moderate).
            float_penalty: 4.0,
        }
    }

    /// Instructions on the integer path (scanning + integer conversion).
    pub fn int_path_instructions(&self, w: &ParseWork) -> f64 {
        w.bytes_scanned as f64 * self.scan_instr_per_byte
            + w.int_tokens as f64 * self.int_instr_per_token
            + w.int_digits as f64 * self.int_instr_per_digit
    }

    /// Instructions on the float path, after the soft-float penalty.
    pub fn float_path_instructions(&self, w: &ParseWork) -> f64 {
        (w.float_tokens as f64 * self.float_instr_per_token
            + w.float_digits as f64 * self.float_instr_per_digit)
            * self.float_penalty
    }

    /// Total instructions for the work.
    pub fn total_instructions(&self, w: &ParseWork) -> f64 {
        self.int_path_instructions(w) + self.float_path_instructions(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_work() -> ParseWork {
        ParseWork {
            bytes_scanned: 1000,
            int_tokens: 100,
            int_digits: 700,
            float_tokens: 10,
            float_digits: 80,
        }
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = sample_work();
        a.merge(&sample_work());
        assert_eq!(a.bytes_scanned, 2000);
        assert_eq!(a.tokens(), 220);
    }

    #[test]
    fn host_prices_work() {
        let m = CostModel::host_cpu();
        let w = sample_work();
        let total = m.total_instructions(&w);
        assert!(total > 0.0);
        assert_eq!(
            total,
            m.int_path_instructions(&w) + m.float_path_instructions(&w)
        );
    }

    #[test]
    fn embedded_float_penalty_dominates_float_heavy_work() {
        let m = CostModel::embedded_core();
        let int_only = ParseWork {
            bytes_scanned: 1000,
            int_tokens: 125,
            int_digits: 750,
            ..ParseWork::default()
        };
        let float_only = ParseWork {
            bytes_scanned: 1000,
            float_tokens: 125,
            float_digits: 750,
            ..ParseWork::default()
        };
        let int_cost = m.total_instructions(&int_only);
        let float_cost = m.total_instructions(&float_only);
        assert!(
            float_cost > 2.5 * int_cost,
            "soft-float should dominate: {float_cost} vs {int_cost}"
        );
    }

    #[test]
    fn embedded_integer_path_is_leaner_than_host() {
        let w = ParseWork {
            bytes_scanned: 1000,
            int_tokens: 125,
            int_digits: 750,
            ..ParseWork::default()
        };
        assert!(
            CostModel::embedded_core().int_path_instructions(&w)
                < CostModel::host_cpu().int_path_instructions(&w)
        );
    }
}
