//! Seed determinism: the same seed reproduces both the request digest
//! and the order-normalised response digest; another seed changes the
//! request digest. Runs every workload end to end over loopback HTTP on
//! a small incident dataset.

use std::path::PathBuf;

use grdf_perfbench::gen::{Scale, Workload};
use grdf_perfbench::run::{run, Args, Outcome};

fn run_small(workload: Workload, seed: u64) -> Outcome {
    let args = Args {
        workload,
        seed,
        seconds: 2,
        trace: false,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism"),
        scale: Scale {
            streams: 12,
            sites: 12,
            detail: 2,
        },
    };
    let outcome = run(&args).expect("run completes");
    assert!(
        outcome.correct(),
        "output checks failed: {:?}",
        outcome.failures
    );
    outcome
}

#[test]
fn same_seed_same_digests_other_seed_other_requests() {
    for workload in Workload::ALL {
        let a = run_small(workload, 7);
        let b = run_small(workload, 7);
        let c = run_small(workload, 8);
        assert_eq!(a.request_digest, b.request_digest, "{workload:?}");
        assert_eq!(a.response_digest, b.response_digest, "{workload:?}");
        assert!(!a.response_digest.is_empty(), "{workload:?}");
        assert_ne!(a.request_digest, c.request_digest, "{workload:?}");
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |v: &[&str]| Args::parse(&v.iter().map(ToString::to_string).collect::<Vec<_>>());
    let ok = parse(&[
        "--workload",
        "read_unique",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!(ok.workload, Workload::ReadUnique);
    assert_eq!(ok.scale, Workload::ReadUnique.scale());
    assert!(ok.trace);
    assert!(parse(&[
        "--workload",
        "nope",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "read_skewed",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "read_skewed",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "read_skewed",
        "--seconds",
        "10",
        "--trace",
        "0"
    ])
    .is_err());
}
