//! Threads racing the first memoized calibration of a benchmark all get
//! the same profile. This file holds a single test, so its process
//! starts with an empty calibration cache.

use std::sync::Barrier;

use scq_apps::Benchmark;
use scq_estimate::AppProfile;

#[test]
fn racing_first_calibrations_agree() {
    let start = Barrier::new(4);
    let profiles: Vec<AppProfile> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    AppProfile::calibrate(Benchmark::Sha1)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for p in &profiles {
        // `Debug` prints every float in its shortest round-trip form, so
        // equal text means equal bits, `scaling` included.
        assert_eq!(format!("{p:?}"), format!("{:?}", profiles[0]));
    }
}
