//! Detector abstraction and the sliding-window driver.
//!
//! Every method in the paper's evaluation "took a time window of x(i), …,
//! x(i+W) as its input" and "the time window moves forward every minute"
//! (§4.1). [`WindowScorer`] is that pure function; [`Persistence`] is the
//! operational policy: a declaration threshold, the 7-minute persistence
//! rule that separates level shifts and ramps from one-off events, and
//! re-arming so that one behaviour change produces one event.
//! [`DetectorRunner`] slides a scorer over a series and folds every window
//! through that rule.

use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_timeseries::window::SlidingWindows;

/// A pure window → change-score function.
pub trait WindowScorer {
    /// The window width `W` this scorer expects.
    fn window_len(&self) -> usize;

    /// Scores one window of exactly [`WindowScorer::window_len`] samples;
    /// higher means "more evidence of a behaviour change at/near the end of
    /// this window".
    fn score(&self, window: &[f64]) -> f64;

    /// A short name for tables and logs.
    fn name(&self) -> &'static str;
}

/// A declared behaviour change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    /// Absolute minute at which the change was *declared* (the decision
    /// minute of the window that completed the persistence run).
    pub declared_at: MinuteBin,
    /// Absolute minute of the first window in the persistent run — the
    /// detector's estimate of when the change became visible.
    pub first_exceeded_at: MinuteBin,
    /// Peak score observed during the persistent run.
    pub peak_score: f64,
}

/// Result of a coverage-aware detector run ([`DetectorRunner::run_masked`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedRun {
    /// Declared changes (only from windows with adequate coverage).
    pub events: Vec<ChangeEvent>,
    /// Windows skipped because their measured-minute coverage fell below
    /// the threshold. A skipped window breaks any persistence run in
    /// progress: interpolated data must not count toward the 7-minute rule.
    pub skipped_windows: usize,
    /// Total windows the series yielded.
    pub total_windows: usize,
    /// Events refused by [`DetectorRunner::run_masked_gap_aware`] because
    /// their change point fell inside — or within one window-length of —
    /// a contiguous coverage gap at least `min_gap` minutes long. Nonzero
    /// means "a change may be hiding behind an unhealed partition": the
    /// caller should report `Inconclusive` and re-assess after backfill,
    /// not declare the item clean.
    pub suppressed_events: usize,
}

impl MaskedRun {
    /// Fraction of windows that were scoreable (1.0 = nothing skipped,
    /// 0.0 when the series yielded no windows at all).
    pub fn scored_fraction(&self) -> f64 {
        if self.total_windows == 0 {
            0.0
        } else {
            1.0 - self.skipped_windows as f64 / self.total_windows as f64
        }
    }
}

/// The paper's persistence rule as one state machine (§4.1): a change is
/// declared once the score has stayed at or above the threshold for
/// `persistence` consecutive windows. After a declaration the rule stays
/// disarmed until the score dips below threshold, so one behaviour change
/// yields one event. Every detector path — batch, coverage-masked and
/// streaming — folds its scores through this type.
#[derive(Debug, Clone, PartialEq)]
pub struct Persistence {
    threshold: f64,
    persistence: usize,
    run_len: usize,
    run_start: MinuteBin,
    run_peak: f64,
    armed: bool,
}

impl Persistence {
    /// A rule declaring after `persistence` consecutive windows at or above
    /// `threshold`. `persistence` is clamped to a minimum of 1.
    pub fn new(threshold: f64, persistence: usize) -> Self {
        Self {
            threshold,
            persistence: persistence.max(1),
            run_len: 0,
            run_start: 0,
            run_peak: 0.0,
            armed: true,
        }
    }

    /// The declaration threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The persistence requirement in windows (= minutes at 1-min bins).
    pub fn persistence(&self) -> usize {
        self.persistence
    }

    /// Folds the score of the window deciding at `minute`; returns the
    /// declaration when this window completes an armed run. A score below
    /// threshold (or NaN) ends the run and re-arms the rule.
    #[inline]
    pub fn observe(&mut self, minute: MinuteBin, score: f64) -> Option<ChangeEvent> {
        if score >= self.threshold {
            if self.run_len == 0 {
                self.run_start = minute;
                self.run_peak = score;
            } else {
                self.run_peak = self.run_peak.max(score);
            }
            self.run_len += 1;
            if self.armed && self.run_len >= self.persistence {
                self.armed = false;
                return Some(ChangeEvent {
                    declared_at: minute,
                    first_exceeded_at: self.run_start,
                    peak_score: self.run_peak,
                });
            }
        } else {
            self.reset();
        }
        None
    }

    /// Breaks the run in progress without re-arming: a window that could
    /// not be scored is not evidence that a declared shift ended, so the
    /// shift resuming after the gap declares nothing new.
    #[inline]
    pub fn gap(&mut self) {
        self.run_len = 0;
    }

    /// Clears any half-built run and re-arms the rule.
    #[inline]
    pub fn reset(&mut self) {
        self.run_len = 0;
        self.armed = true;
    }
}

/// Threshold + persistence + re-arm driver around a [`WindowScorer`].
#[derive(Debug, Clone)]
pub struct DetectorRunner<S> {
    scorer: S,
    rule: Persistence,
}

impl<S: WindowScorer> DetectorRunner<S> {
    /// Creates a runner declaring a change after `persistence` consecutive
    /// windows score at or above `threshold` (see [`Persistence::new`]).
    pub fn new(scorer: S, threshold: f64, persistence: usize) -> Self {
        Self {
            scorer,
            rule: Persistence::new(threshold, persistence),
        }
    }

    /// The wrapped scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// The declaration threshold.
    pub fn threshold(&self) -> f64 {
        self.rule.threshold()
    }

    /// The persistence requirement in windows (= minutes at 1-min bins).
    pub fn persistence(&self) -> usize {
        self.rule.persistence()
    }

    /// Runs the detector over a whole series, returning every declared
    /// change. After a declaration the runner re-arms once the score falls
    /// below threshold, so a single long-lived shift yields a single event.
    pub fn run(&self, series: &TimeSeries) -> Vec<ChangeEvent> {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DETECT);
        let mut rule = self.rule.clone();
        let events: Vec<ChangeEvent> = SlidingWindows::new(series, self.scorer.window_len())
            .filter_map(|w| rule.observe(w.decision_minute, self.scorer.score(w.values)))
            .collect();
        funnel_obs::counter_add(funnel_obs::names::DETECT_CHANGE_POINTS, events.len() as u64);
        events
    }

    /// Coverage-aware [`DetectorRunner::run`]: windows whose fraction of
    /// truly measured minutes (per `mask`) falls below `min_coverage` are
    /// skipped instead of scored — forward-filled gaps carry no evidence,
    /// and scoring them manufactures both false positives (a fill plateau
    /// looks like a level shift ending) and false negatives (a real shift
    /// hidden inside a gap). A skipped window breaks the persistence run
    /// ([`Persistence::gap`]), so a declaration always rests on
    /// `persistence` consecutive *measured* windows. With a fully-present
    /// mask the events are identical to [`DetectorRunner::run`].
    pub fn run_masked(
        &self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
    ) -> MaskedRun {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DETECT);
        let width = self.scorer.window_len();
        // O(1) per-window coverage via prefix sums over the mask.
        let pfx = mask.prefix_counts();
        let coverage_of = |from: MinuteBin, to: MinuteBin| -> f64 {
            debug_assert!(from < to);
            let lo = from.clamp(mask.start(), mask.end());
            let hi = to.clamp(mask.start(), mask.end());
            let present = pfx[(hi - mask.start()) as usize] - pfx[(lo - mask.start()) as usize];
            f64::from(present) / (to - from) as f64
        };

        let mut out = MaskedRun {
            events: Vec::new(),
            skipped_windows: 0,
            total_windows: 0,
            suppressed_events: 0,
        };
        let mut rule = self.rule.clone();
        for w in SlidingWindows::new(series, width) {
            out.total_windows += 1;
            let first_minute = w.decision_minute + 1 - width as u64;
            if coverage_of(first_minute, w.decision_minute + 1) < min_coverage {
                out.skipped_windows += 1;
                rule.gap();
                continue;
            }
            out.events
                .extend(rule.observe(w.decision_minute, self.scorer.score(w.values)));
        }
        funnel_obs::counter_add(
            funnel_obs::names::DETECT_CHANGE_POINTS,
            out.events.len() as u64,
        );
        out
    }

    /// [`DetectorRunner::run_masked`] hardened against *correlated*
    /// outages: any declared change whose change point
    /// ([`ChangeEvent::first_exceeded_at`]) falls inside — or within one
    /// window-length of — a contiguous coverage gap of at least `min_gap`
    /// minutes is refused and counted in
    /// [`MaskedRun::suppressed_events`] instead of returned.
    ///
    /// Per-window coverage thresholds already handle scattered per-frame
    /// loss, but a partition leaves one long gap whose forward-filled
    /// plateau ends in a step artifact exactly where the heal lands; a
    /// change point bordering such a gap is indistinguishable from that
    /// artifact until backfill restores the span. `min_gap` distinguishes
    /// the two regimes (use the persistence length: a gap long enough to
    /// fake the persistence rule). `min_gap` is clamped to a minimum of 1.
    pub fn run_masked_gap_aware(
        &self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
        min_gap: u64,
    ) -> MaskedRun {
        let mut out = self.run_masked(series, mask, min_coverage);
        let guard = self.scorer.window_len() as u64;
        let gaps: Vec<(MinuteBin, MinuteBin)> = mask
            .gaps_in(series.start(), series.end())
            .into_iter()
            .filter(|&(s, e)| e - s >= min_gap.max(1))
            .collect();
        if gaps.is_empty() {
            return out;
        }
        let before = out.events.len();
        out.events.retain(|ev| {
            !gaps.iter().any(|&(s, e)| {
                ev.first_exceeded_at + guard >= s && ev.first_exceeded_at < e + guard
            })
        });
        out.suppressed_events = before - out.events.len();
        funnel_obs::counter_add(
            funnel_obs::names::DETECT_GAP_SUPPRESSED,
            out.suppressed_events as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores 1.0 whenever the window mean exceeds 5, else 0.
    struct MeanScorer;
    impl WindowScorer for MeanScorer {
        fn window_len(&self) -> usize {
            4
        }
        fn score(&self, window: &[f64]) -> f64 {
            let m = window.iter().sum::<f64>() / window.len() as f64;
            if m > 5.0 {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "mean"
        }
    }

    fn step_series(pre: usize, post: usize) -> TimeSeries {
        let mut v = vec![0.0; pre];
        v.extend(vec![10.0; post]);
        TimeSeries::new(0, v)
    }

    #[test]
    fn persistence_filters_short_excursions() {
        // A 4-sample bump yields exactly 3 consecutive windows with mean > 5
        // (window width 4); persistence 5 ⇒ no event.
        let mut v = vec![0.0; 10];
        v.extend(vec![10.0; 4]);
        v.extend(vec![0.0; 10]);
        let series = TimeSeries::new(0, v);
        let r = DetectorRunner::new(MeanScorer, 0.5, 5);
        assert!(r.run(&series).is_empty());
        // Persistence 1 catches it.
        let r1 = DetectorRunner::new(MeanScorer, 0.5, 1);
        assert_eq!(r1.run(&series).len(), 1);
    }

    #[test]
    fn declaration_time_includes_persistence_wait() {
        let series = step_series(10, 20);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let events = r.run(&series);
        assert_eq!(events.len(), 1);
        let e = events[0];
        // First window with mean > 5: some minutes after onset (10);
        // declaration is persistence-1 windows later.
        assert_eq!(e.declared_at, e.first_exceeded_at + 6);
        assert!(e.peak_score >= 0.5);
    }

    #[test]
    fn rearm_produces_one_event_per_excursion() {
        let mut v = vec![0.0; 10];
        v.extend(vec![10.0; 10]);
        v.extend(vec![0.0; 10]);
        v.extend(vec![10.0; 10]);
        v.extend(vec![0.0; 5]);
        let series = TimeSeries::new(0, v);
        let r = DetectorRunner::new(MeanScorer, 0.5, 3);
        assert_eq!(r.run(&series).len(), 2);
    }

    #[test]
    fn long_shift_is_single_event() {
        let series = step_series(10, 50);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert_eq!(r.run(&series).len(), 1);
    }

    #[test]
    fn quiet_series_declares_nothing() {
        let quiet = TimeSeries::new(0, vec![0.0; 30]);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert!(r.run(&quiet).is_empty());
    }

    #[test]
    fn persistence_rule_table() {
        // Steps are space-separated; step i happens at minute i. A number
        // is the score of the window deciding at that minute, `gap` a
        // window that could not be scored, `reset` a re-prime. Expected
        // events are (declared_at, first_exceeded_at, peak_score).
        type Case<'a> = (&'a str, usize, &'a str, &'a [(u64, u64, f64)]);
        let cases: &[Case] = &[
            (
                "declares at exactly `persistence` windows; first/peak span the run",
                3,
                "0.2 0.6 0.9 0.7 0.95",
                &[(3, 1, 0.9)],
            ),
            (
                "a dip re-arms",
                2,
                "1 1 0.1 1 1",
                &[(1, 0, 1.0), (4, 3, 1.0)],
            ),
            ("a NaN score is a dip", 2, "1 NaN 1", &[]),
            (
                "a gap breaks a half-built run",
                3,
                "1 1 gap 1 1 1",
                &[(5, 3, 1.0)],
            ),
            (
                "a gap does not re-arm: one shift across a skipped window, one event",
                2,
                "1 1 gap 1 1 1",
                &[(1, 0, 1.0)],
            ),
            (
                "reset clears a half-built run",
                3,
                "1 1 reset 1 0.8 1",
                &[(5, 3, 1.0)],
            ),
            (
                "reset re-arms after a declaration",
                1,
                "1 1 reset 1",
                &[(0, 0, 1.0), (3, 3, 1.0)],
            ),
            (
                "persistence 0 is clamped to 1",
                0,
                "0.1 0.5",
                &[(1, 1, 0.5)],
            ),
        ];
        for &(name, persistence, steps, expected) in cases {
            let mut rule = Persistence::new(0.5, persistence);
            let mut got = Vec::new();
            for (minute, step) in (0..).zip(steps.split(' ')) {
                match step {
                    "gap" => rule.gap(),
                    "reset" => rule.reset(),
                    score => got.extend(rule.observe(minute, score.parse().unwrap())),
                }
            }
            let expected: Vec<ChangeEvent> = expected
                .iter()
                .map(
                    |&(declared_at, first_exceeded_at, peak_score)| ChangeEvent {
                        declared_at,
                        first_exceeded_at,
                        peak_score,
                    },
                )
                .collect();
            assert_eq!(got, expected, "{name}");
        }
    }

    #[test]
    fn skipped_window_inside_a_declared_shift_does_not_refire() {
        // Step at minute 10, declared well before a 2-minute hole at
        // 26..28: the run breaks across the skipped windows but the shift
        // stays declared.
        let series = step_series(10, 30);
        let mut holed = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(26..28).contains(&minute) {
                holed.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 3);
        let degraded = r.run_masked(&series, &holed, 0.95);
        assert!(degraded.skipped_windows > 0);
        assert_eq!(degraded.events, r.run(&series));
    }

    #[test]
    fn persistence_clamped_to_one() {
        let r = DetectorRunner::new(MeanScorer, 0.5, 0);
        assert_eq!(r.persistence(), 1);
    }

    #[test]
    fn full_mask_matches_unmasked_run() {
        let series = step_series(10, 20);
        let mask = CoverageMask::all_present(0, series.len());
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let masked = r.run_masked(&series, &mask, 0.8);
        assert_eq!(masked.events, r.run(&series));
        assert_eq!(masked.skipped_windows, 0);
        assert_eq!(masked.scored_fraction(), 1.0);
    }

    #[test]
    fn low_coverage_windows_are_skipped_not_scored() {
        let series = step_series(10, 20);
        // Nothing was really measured: every window must be skipped and no
        // change declared, even though the (filled) values contain a step.
        let mask = CoverageMask::new(0);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let masked = r.run_masked(&series, &mask, 0.8);
        assert!(masked.events.is_empty());
        assert_eq!(masked.skipped_windows, masked.total_windows);
        assert_eq!(masked.scored_fraction(), 0.0);
    }

    #[test]
    fn gap_adjacent_change_point_is_suppressed() {
        // Real step at minute 30, and a 10-minute unhealed gap right before
        // it (20..30): the step's change point borders the gap, so it is
        // indistinguishable from the fill plateau ending — refused.
        let series = step_series(30, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(20..30).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let plain = r.run_masked(&series, &mask, 0.5);
        assert_eq!(plain.events.len(), 1);
        assert_eq!(plain.suppressed_events, 0);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert!(aware.events.is_empty());
        assert_eq!(aware.suppressed_events, 1);
    }

    #[test]
    fn change_point_far_from_gap_survives_gap_awareness() {
        // Gap at 5..15, step at minute 40: window-length guard (4) does not
        // reach the change point, so the event stands.
        let series = step_series(40, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(5..15).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert_eq!(aware.events.len(), 1);
        assert_eq!(aware.suppressed_events, 0);
        assert_eq!(aware.events, r.run_masked(&series, &mask, 0.5).events);
    }

    #[test]
    fn short_gaps_do_not_trigger_suppression() {
        // A 2-minute hole right before the step is ordinary frame loss, not
        // a partition: below min_gap, the event stands.
        let series = step_series(30, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(27..29).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert_eq!(aware.events.len(), 1);
        assert_eq!(aware.suppressed_events, 0);
    }

    #[test]
    fn full_mask_gap_aware_matches_run_masked() {
        let series = step_series(10, 20);
        let mask = CoverageMask::all_present(0, series.len());
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert_eq!(
            r.run_masked_gap_aware(&series, &mask, 0.8, 7),
            r.run_masked(&series, &mask, 0.8)
        );
    }

    #[test]
    fn gap_breaks_persistence_run() {
        // Step at minute 10; persistence 7 with window width 4 ⇒ declaration
        // needs 7 consecutive scoreable windows after onset. Punch a hole in
        // the middle of that run: the declaration must come later than with
        // a full mask (the run restarts after the gap).
        let series = step_series(10, 30);
        let full = CoverageMask::all_present(0, series.len());
        let mut holed = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(16..=17).contains(&minute) {
                holed.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let clean = r.run_masked(&series, &full, 0.95);
        let degraded = r.run_masked(&series, &holed, 0.95);
        assert_eq!(clean.events.len(), 1);
        assert_eq!(degraded.events.len(), 1);
        assert!(degraded.skipped_windows > 0);
        assert!(
            degraded.events[0].declared_at > clean.events[0].declared_at,
            "gap must delay the declaration ({} vs {})",
            degraded.events[0].declared_at,
            clean.events[0].declared_at
        );
    }
}
