package obs

import (
	"time"
)

// SLO tracks one service-level objective: "objective fraction of
// operations complete without error in under target". Every operation is
// either good or bad (slow or errored); the tracker exports:
//
//	slo_ops_total{slo=name}                   — operations observed
//	slo_bad_total{slo=name,reason=slow|error} — objective misses
//	slo_error_budget_remaining_ppm{slo=name}  — cumulative budget left,
//	                                            parts per million (1e6 = untouched)
//	slo_burn_rate_x1000{slo=name}             — windowed bad fraction over the
//	                                            allowed bad fraction, x1000
//	                                            (1000 = burning exactly at budget)
//
// Burn rate is computed over the registry's sliding window, so a p99
// regression shows up within seconds while the cumulative budget gauge
// keeps the long-term account.
type SLO struct {
	target    time.Duration
	objective float64

	ops    *Counter
	slow   *Counter
	errors *Counter
	winOps *WindowHistogram // windowed op latencies (count = windowed ops)
	winBad *WindowHistogram // one observation per windowed bad op
}

// NewSLO registers an SLO named name in the registry: operations should
// complete without error in under target, at least objective of the time
// (e.g. 0.999). Re-registering a name returns a tracker over the same
// counters, so packages may construct their SLO at init independent of
// daemon wiring order.
func NewSLO(r *Registry, name string, target time.Duration, objective float64) *SLO {
	if objective <= 0 || objective >= 1 {
		objective = 0.999
	}
	s := &SLO{
		target:    target,
		objective: objective,
		ops:       r.Counter("slo_ops_total", "slo", name),
		slow:      r.Counter("slo_bad_total", "slo", name, "reason", "slow"),
		errors:    r.Counter("slo_bad_total", "slo", name, "reason", "error"),
		winOps:    r.Window("slo_latency_ns", "slo", name),
		winBad:    NewWindowHistogram(DefaultWindow, defaultWindowSlices),
	}
	r.GaugeFunc("slo_error_budget_remaining_ppm", s.ErrorBudgetRemainingPPM, "slo", name)
	r.GaugeFunc("slo_burn_rate_x1000", s.BurnRateX1000, "slo", name)
	return s
}

// Observe records one operation's latency and outcome.
func (s *SLO) Observe(d time.Duration, err error) {
	if s == nil {
		return
	}
	s.ops.Inc()
	s.winOps.ObserveDuration(d)
	switch {
	case err != nil:
		s.errors.Inc()
		s.winBad.Observe(1)
	case d > s.target:
		s.slow.Inc()
		s.winBad.Observe(1)
	}
}

// ObserveSince records one operation timed from t0.
func (s *SLO) ObserveSince(t0 time.Time, err error) {
	if s == nil {
		return
	}
	s.Observe(time.Since(t0), err)
}

// ErrorBudgetRemainingPPM returns how much of the cumulative error budget
// is left, in parts per million: 1e6 with no ops or no misses, 0 once the
// bad-op count has consumed the whole (1-objective) allowance.
func (s *SLO) ErrorBudgetRemainingPPM() int64 {
	ops := float64(s.ops.Value())
	if ops == 0 {
		return 1_000_000
	}
	allowed := ops * (1 - s.objective)
	bad := float64(s.slow.Value() + s.errors.Value())
	if allowed <= 0 {
		return 0
	}
	rem := (allowed - bad) / allowed * 1_000_000
	if rem < 0 {
		return 0
	}
	if rem > 1_000_000 {
		return 1_000_000
	}
	return int64(rem)
}

// BurnRateX1000 returns the windowed burn rate times 1000: the fraction of
// recent ops that missed the objective, divided by the allowed fraction.
// 1000 means the error budget is burning exactly at the sustainable rate;
// 0 means no recent misses.
func (s *SLO) BurnRateX1000() int64 {
	ops := float64(s.winOps.Snapshot().Count)
	if ops == 0 {
		return 0
	}
	bad := float64(s.winBad.Snapshot().Count)
	allowed := 1 - s.objective
	return int64(bad / ops / allowed * 1000)
}
