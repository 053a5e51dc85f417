//! Output gate: the simulated results each run must reproduce.
//!
//! At a workload's default seed the outputs must equal, exactly, the
//! values `run_point` and `traffic_point` produced at the commit that
//! introduced this benchmark. At any other seed only the internal checks
//! apply: bytes moved equal bytes planned, and open-loop accounting closes.

use crate::workloads::{Outputs, Workload};

/// Recorded simulated results of `w` at its default seed.
pub fn recorded(w: Workload) -> Outputs {
    match w {
        // write 33.643 GiB/s, read 106.784 GiB/s
        Workload::DfsFppBulk => Outputs::Ior {
            total_bytes: 8 << 30,
            bytes_written: 8 << 30,
            bytes_read: 8 << 30,
            write_ns: 237_788_070,
            read_ns: 74_917_933,
        },
        // write 2.493 GiB/s, read 2.561 GiB/s
        Workload::Hdf5SharedSmall => Outputs::Ior {
            total_bytes: 512 << 20,
            bytes_written: 512 << 20,
            bytes_read: 512 << 20,
            write_ns: 200_579_384,
            read_ns: 195_228_188,
        },
        Workload::OverloadS1 => Outputs::Traffic {
            arrivals: 117_704,
            completed: 55_486,
            failed: 62_218,
            engine_sheds: 65_533,
            retries: 3_713,
            breaker_fastfail: 398,
            // 2490.367 us
            p99_ns: 2_490_367,
            chunks_read_back: 15_143,
        },
    }
}

/// Check one run's outputs: exactly against `expected` when given,
/// otherwise by the internal checks alone.
pub fn check(got: &Outputs, expected: Option<&Outputs>) -> Result<(), String> {
    match *got {
        Outputs::Ior {
            total_bytes,
            bytes_written,
            bytes_read,
            write_ns,
            read_ns,
        } => {
            if bytes_written != total_bytes || bytes_read != total_bytes {
                return Err(format!(
                    "moved {bytes_written} B written / {bytes_read} B read, planned {total_bytes} B"
                ));
            }
            if write_ns == 0 || read_ns == 0 {
                return Err("a phase took no simulated time".into());
            }
        }
        Outputs::Traffic {
            arrivals,
            completed,
            failed,
            chunks_read_back,
            ..
        } => {
            if completed + failed != arrivals {
                return Err(format!(
                    "accounting open: completed {completed} + failed {failed} != arrivals {arrivals}"
                ));
            }
            if completed == 0 {
                return Err("no request completed".into());
            }
            if chunks_read_back == 0 || chunks_read_back > completed {
                return Err(format!(
                    "read back {chunks_read_back} written chunks after {completed} completed writes"
                ));
            }
        }
    }
    match expected {
        Some(want) if want != got => Err(format!("outputs {got:?} differ from recorded {want:?}")),
        _ => Ok(()),
    }
}

/// The gate a run of `w` at `seed` must pass.
pub fn check_run(w: Workload, seed: u64, got: &Outputs) -> Result<(), String> {
    let expected = (seed == w.default_seed()).then(|| recorded(w));
    check(got, expected.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ior(write_ns: u64) -> Outputs {
        Outputs::Ior {
            total_bytes: 1 << 20,
            bytes_written: 1 << 20,
            bytes_read: 1 << 20,
            write_ns,
            read_ns: 7,
        }
    }

    #[test]
    fn exact_match_passes() {
        assert_eq!(check(&ior(5), Some(&ior(5))), Ok(()));
    }

    /// Planted failure: one wrongly recorded value must fail the gate.
    #[test]
    fn wrongly_recorded_value_fails() {
        assert!(check(&ior(5), Some(&ior(6))).is_err());
        for w in Workload::ALL {
            let mut planted = recorded(w);
            match &mut planted {
                Outputs::Ior { read_ns, .. } => *read_ns += 1,
                Outputs::Traffic { p99_ns, .. } => *p99_ns += 1,
            }
            assert!(check(&recorded(w), Some(&planted)).is_err(), "{}", w.name());
        }
    }

    #[test]
    fn internal_checks_apply_at_every_seed() {
        let short = Outputs::Ior {
            total_bytes: 1 << 20,
            bytes_written: 1 << 19,
            bytes_read: 1 << 20,
            write_ns: 5,
            read_ns: 7,
        };
        assert!(check(&short, None).is_err());
        let open = Outputs::Traffic {
            arrivals: 10,
            completed: 6,
            failed: 3,
            engine_sheds: 0,
            retries: 0,
            breaker_fastfail: 0,
            p99_ns: 1,
            chunks_read_back: 1,
        };
        assert!(check(&open, None).is_err());
        assert_eq!(check(&ior(5), None), Ok(()));
    }

    #[test]
    fn recorded_values_pass_their_own_internal_checks() {
        for w in Workload::ALL {
            assert_eq!(check_run(w, w.default_seed(), &recorded(w)), Ok(()));
        }
    }
}
