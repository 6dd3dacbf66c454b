//! Time-series tracing of queue state.
//!
//! Fig 8 of the paper plots bottleneck queue occupancy over time (with
//! packet-drop markers) as TCP cross-traffic switches on and off. The
//! [`Trace`] recorder samples configured links on a fixed period.

use crate::packet::LinkId;
use crate::time::{SimDuration, SimTime};

/// One sampled point of a link's queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// Sample time.
    pub at: SimTime,
    /// Queue occupancy in packets.
    pub packets: usize,
    /// Queue occupancy in bytes.
    pub bytes: u64,
    /// Cumulative drops at this link up to the sample time.
    pub cum_drops: u64,
}

/// Recorder configuration and storage.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Which links to sample.
    pub links: Vec<LinkId>,
    /// Sampling period.
    pub period: SimDuration,
    /// Per traced link (same order as `links`): the sampled series.
    pub series: Vec<Vec<QueueSample>>,
    /// Times at which a forward-path drop occurred (any traced link).
    pub drop_times: Vec<SimTime>,
}

impl Trace {
    /// An empty recorder sampling `links` every `period`.
    pub fn new(links: Vec<LinkId>, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "trace period must be positive");
        let n = links.len();
        Trace {
            links,
            period,
            series: vec![Vec::new(); n],
            drop_times: Vec::new(),
        }
    }

    /// Append a sample for traced-link index `idx`.
    pub fn record(&mut self, idx: usize, sample: QueueSample) {
        self.series[idx].push(sample);
    }

    /// Record a forward-path drop at `at`.
    pub fn record_drop(&mut self, at: SimTime) {
        self.drop_times.push(at);
    }

    /// The series for a given link id, if traced.
    pub fn series_for(&self, link: LinkId) -> Option<&[QueueSample]> {
        self.links
            .iter()
            .position(|&l| l == link)
            .map(|i| self.series[i].as_slice())
    }

    /// Peak queue occupancy (packets) observed on a link.
    pub fn peak_packets(&self, link: LinkId) -> usize {
        self.series_for(link)
            .map(|s| s.iter().map(|p| p.packets).max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Mean queue occupancy (packets) over a time window.
    pub fn mean_packets_in(&self, link: LinkId, from: SimTime, to: SimTime) -> f64 {
        let Some(s) = self.series_for(link) else {
            return 0.0;
        };
        let pts: Vec<usize> = s
            .iter()
            .filter(|p| p.at >= from && p.at < to)
            .map(|p| p.packets)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<usize>() as f64 / pts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: u64, packets: usize) -> QueueSample {
        QueueSample {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            packets,
            bytes: packets as u64 * 1500,
            cum_drops: 0,
        }
    }

    #[test]
    fn records_and_queries() {
        let mut tr = Trace::new(vec![LinkId(0)], SimDuration::from_millis(10));
        tr.record(0, sample(0, 5));
        tr.record(0, sample(10, 9));
        tr.record(0, sample(20, 2));
        assert_eq!(tr.series_for(LinkId(0)).unwrap().len(), 3);
        assert_eq!(tr.series_for(LinkId(1)), None);
        assert_eq!(tr.peak_packets(LinkId(0)), 9);
        assert_eq!(tr.peak_packets(LinkId(9)), 0);
    }

    #[test]
    fn mean_over_window() {
        let mut tr = Trace::new(vec![LinkId(0)], SimDuration::from_millis(10));
        for (at, p) in [(0, 2), (10, 4), (20, 6), (30, 100)] {
            tr.record(0, sample(at, p));
        }
        let from = SimTime::ZERO;
        let to = SimTime::ZERO + SimDuration::from_millis(25);
        assert!((tr.mean_packets_in(LinkId(0), from, to) - 4.0).abs() < 1e-12);
        // empty window
        let far = SimTime::from_secs_f64(100.0);
        assert_eq!(tr.mean_packets_in(LinkId(0), far, far), 0.0);
    }

    #[test]
    fn drop_times_accumulate() {
        let mut tr = Trace::new(vec![LinkId(0)], SimDuration::from_millis(1));
        tr.record_drop(SimTime::from_secs_f64(1.0));
        tr.record_drop(SimTime::from_secs_f64(2.0));
        assert_eq!(tr.drop_times.len(), 2);
    }

    #[test]
    #[should_panic(expected = "trace period must be positive")]
    fn zero_period_rejected() {
        Trace::new(vec![LinkId(0)], SimDuration::ZERO);
    }
}
