//! Fuzz-style hardening of the request-file parser: random lines built
//! from the parser's own keys, mixing in-range values with out-of-range
//! ones, duplicate sources, unknown tokens and junk. Parsing must never
//! panic, and every accepted small request must come back from the
//! batch runner as `Ok` or a structured [`ServeError`].

use proptest::prelude::*;
use scq_apps::Benchmark;
use scq_serve::{parse_request_line, BatchRunner, RequestSource, ScheduleRequest, ServeError};

/// A path no test machine has, so `qasm=` / `defect-map=` always take
/// the I/O error path.
fn missing_path(raw: u64) -> String {
    format!("scq-no-such-dir-{raw:x}/input.txt")
}

/// Picks one of `values` by `raw`.
fn pick(values: &[&str], raw: u64) -> String {
    values[(raw % values.len() as u64) as usize].to_string()
}

/// One `key=value` token. Variants below 4 are in range; the rest are
/// out of range or malformed. Keys past the parser's ten repeat
/// `backend` and `distance`, the pair that reaches the engines.
fn token(key: usize, variant: u64, raw: u64) -> String {
    let in_range = variant < 4;
    match key {
        0 => {
            let app = if in_range {
                pick(&["gse", "im", "GSE", "ising", "sq", "sha1", "im-semi"], raw)
            } else {
                pick(&["", "sha2", "gse;", "ïm", "=", "gse=gse"], raw)
            };
            format!("app={app}")
        }
        1 => {
            let scale = if in_range {
                (raw % 5).to_string()
            } else {
                pick(&["5", "4294967295", "4294967296", "-1", "0.5", ""], raw)
            };
            format!("scale={scale}")
        }
        2 | 11 => {
            let backend = if in_range {
                pick(&["braid", "planar"], raw)
            } else {
                pick(&["", "Braid", "teleport", "planar "], raw)
            };
            format!("backend={backend}")
        }
        3 => {
            let policy = if in_range {
                (raw % 7).to_string()
            } else {
                pick(&["7", "18446744073709551615", "-1", "P3", ""], raw)
            };
            format!("policy={policy}")
        }
        4 | 12 => {
            let distance = match variant {
                0 | 1 => pick(&["3", "5", "7", "9"], raw),
                // Odd distances past 2^31, where 2d - 1 leaves u32.
                2 => ((raw as u32) | 0x8000_0001).to_string(),
                3 => pick(&["2147483649", "4294967295", "2147483647"], raw),
                _ => pick(&["0", "1", "2", "4", "4294967296", "-3", "5.0", ""], raw),
            };
            format!("distance={distance}")
        }
        5 => {
            let rate = if in_range {
                format!("{}", (raw % 1000) as f64 / 10_000.0)
            } else {
                pick(
                    &["NaN", "inf", "-inf", "-0.5", "1", "1e308", "0x1", ""],
                    raw,
                )
            };
            format!("defect-rate={rate}")
        }
        6 => {
            let seed = if in_range {
                raw.to_string()
            } else {
                pick(&["-1", "18446744073709551616", "seed", ""], raw)
            };
            format!("defect-seed={seed}")
        }
        7 => format!("defect-map={}", missing_path(raw)),
        8 => format!("qasm={}", missing_path(raw)),
        9 => {
            if in_range {
                "verify".to_string()
            } else {
                pick(&["verify=1", "verify=", "VERIFY"], raw)
            }
        }
        _ => pick(
            &[
                "frobnicate=3",
                "=",
                "==",
                "app",
                "#",
                "distance",
                "\u{0}",
                "k=v=w",
            ],
            raw,
        ),
    }
}

fn arb_line() -> impl Strategy<Value = String> {
    (
        0u64..4,
        0u64..u64::MAX,
        proptest::collection::vec((0usize..13, 0u64..6, 0u64..u64::MAX), 0..5),
    )
        .prop_map(|(lead, raw, tokens)| {
            // Most lines lead with a small named source so that many
            // reach the runner; the rest rely on the random tokens.
            let mut parts: Vec<String> = match lead {
                0 => vec![pick(&["app=gse", "app=im"], raw)],
                1 => vec![pick(
                    &["app=gse backend=planar", "app=im backend=planar"],
                    raw,
                )],
                2 => vec![format!("app=gse scale={}", raw % 2)],
                _ => Vec::new(),
            };
            parts.extend(tokens.into_iter().map(|(k, v, r)| token(k, v, r)));
            parts.join(" ")
        })
}

/// Serves an accepted GSE or IM scale-0 request (anything larger is
/// too slow for a fuzz loop) and checks that any failure is a
/// structured error naming a cause.
fn serve_if_small(line: &str, request: &ScheduleRequest) {
    let RequestSource::Named { bench, scale: 0 } = request.source else {
        return;
    };
    if !matches!(bench, Benchmark::Gse | Benchmark::IsingFull) {
        return;
    }
    if let Err(e) = &BatchRunner::new(4).run_one(request).outcome {
        prop_assert!(
            !matches!(e, ServeError::Internal(_)),
            "`{line}`: serving-layer failure {e}"
        );
        prop_assert!(!e.to_string().is_empty(), "`{line}`: empty error message");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_lines_never_panic_and_small_requests_serve_structurally(line in arb_line()) {
        if let Ok(Some(request)) = parse_request_line(&line) {
            serve_if_small(&line, &request);
        }
    }
}
