//! Measuring one workload: set-up samples, timed passes, output check.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Verdict, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Set-up is sampled this many times and the median reported.
const SETUP_SAMPLES: usize = 5;
/// One set-up sample repeats the set-up until it has lasted this share
/// of the run's `seconds` (0.2 s of a 10 s run), and reports the mean: a
/// set-up of microseconds then repeats to within a tenth instead of
/// reading as timer noise.
const SETUP_SAMPLE_SHARE: f64 = 0.02;

/// What an untraced measurement gives.
pub struct Measured {
    /// Median over the passes that fit into the run.
    pub wall_s: f64,
    pub setup_s: f64,
    /// Of the last pass; a failing pass is the last.
    pub verdict: Verdict,
}

fn time_setup<W: Workload>(w: &W, seconds: f64) -> f64 {
    let sample_min_s = seconds * SETUP_SAMPLE_SHARE;
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || start.elapsed().as_secs_f64() < sample_min_s {
            drop(black_box(w.prepare(&mut Tracer::new(false))));
            reps += 1;
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(reps));
    }
    median(&samples)
}

/// One timed pass: the set-up it needs (untimed here), the timed region,
/// and the check.
fn pass<W: Workload>(w: &W, t: &mut Tracer) -> (f64, Verdict) {
    let prepared = t.span("setup", |t| w.prepare(t));
    let start = Instant::now();
    let output = t.span("run", |t| w.execute(prepared, t));
    let wall_s = start.elapsed().as_secs_f64();
    let verdict = t.span("check", |_| w.check(&output));
    (wall_s, verdict)
}

/// Closed loop, one thread: passes run back to back for as close to
/// `seconds` of timed region as whole passes get (always at least one;
/// another is started only while more than half a pass is missing). A
/// pass whose check fails ends the run.
pub fn measure<W: Workload>(w: &W, seconds: f64) -> Measured {
    let setup_s = time_setup(w, seconds);
    let mut walls = Vec::new();
    loop {
        let (wall_s, verdict) = pass(w, &mut Tracer::new(false));
        walls.push(wall_s);
        let missing = seconds - walls.iter().sum::<f64>();
        if !verdict.failures.is_empty() || missing <= wall_s / 2.0 {
            return Measured {
                wall_s: median(&walls),
                setup_s,
                verdict,
            };
        }
    }
}

/// What the traced measurement gives: one untraced pass for the
/// overhead base, then one pass with spans on.
pub struct Traced {
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub tracer: Tracer,
    pub verdict: Verdict,
}

pub fn measure_traced<W: Workload>(w: &W) -> Traced {
    let (untraced_wall_s, _) = pass(w, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let (traced_wall_s, verdict) = tracer.span("workload", |t| pass(w, t));
    Traced {
        untraced_wall_s,
        traced_wall_s,
        tracer,
        verdict,
    }
}
