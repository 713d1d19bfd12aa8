package conform

import (
	"fmt"
	"strings"
	"sync"

	"spandex"
)

// Report kinds, in failure-precedence order.
const (
	// KindPass: every configuration completed, agreed with every other and
	// with the model.
	KindPass = "pass"
	// KindRunError: at least one configuration deadlocked, timed out or
	// broke a coherence invariant.
	KindRunError = "run-error"
	// KindDivergence: configurations completed but observed different
	// values or final memory — an SC-for-DRF violation in at least one.
	KindDivergence = "divergence"
	// KindModelBug: every configuration agreed with every other but all
	// disagreed with the model identically. That unanimity points at the
	// conformance model (or a hand-edited case), not the protocols.
	KindModelBug = "model-bug"
)

// Report is the differential oracle's verdict on one case.
type Report struct {
	Case     *Case
	Configs  []string
	Outcomes []*Outcome
	// Kind classifies the verdict (KindPass..KindModelBug) and Failures
	// carries one human-readable line per finding.
	Kind     string
	Failures []string
}

// Failed reports whether the case found anything.
func (r *Report) Failed() bool { return r.Kind != KindPass }

// Err summarizes the report as an error, or nil on a pass.
func (r *Report) Err() error {
	if !r.Failed() {
		return nil
	}
	return fmt.Errorf("conform: case %s: %s:\n  %s", r.Case.Name, r.Kind, strings.Join(r.Failures, "\n  "))
}

// CheckCase runs one validated case on every named configuration (nil
// means all six) and compares the observations pairwise against the first
// configuration that completed. Runs execute concurrently — each on a
// fully isolated System — and their Results are deterministic, so the
// report is independent of scheduling.
func CheckCase(c *Case, configs []string, ro RunOpts) *Report {
	if len(configs) == 0 {
		configs = spandex.ConfigNames()
	}
	r := &Report{Case: c, Configs: configs, Outcomes: make([]*Outcome, len(configs))}
	l := c.layout()
	e := c.Expect(l)
	var wg sync.WaitGroup
	for i, cn := range configs {
		wg.Add(1)
		go func(i int, cn string) {
			defer wg.Done()
			r.Outcomes[i] = runCase(c, l, e, cn, ro)
		}(i, cn)
	}
	wg.Wait()
	classify(r, l, e)
	return r
}

// classify fills Report.Kind and Report.Failures from the outcomes of
// case r.Case with layout l and expectation e.
func classify(r *Report, l *caseLayout, e *Expectation) {
	c := r.Case

	var ref *Outcome
	for _, o := range r.Outcomes {
		if o.RunErr != nil {
			r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", o.Config, o.RunErr))
		} else if ref == nil {
			ref = o
		}
	}
	runErrors := len(r.Failures) > 0

	divergence := false
	for _, o := range r.Outcomes {
		if o.RunErr != nil || o == ref || ref == nil {
			continue
		}
		if diffs := diffOutcomes(c, l, e, ref, o); len(diffs) > 0 {
			divergence = true
			r.Failures = append(r.Failures, diffs...)
		}
	}

	// Model disagreement only matters when the configurations agree with
	// each other: any cross-config divergence already explains the self
	// errors and pins them on a protocol.
	modelBug := false
	if !runErrors && !divergence && ref != nil {
		if err := firstModelErr(ref); err != nil {
			modelBug = true
			r.Failures = append(r.Failures,
				fmt.Sprintf("all configurations agree with each other but not the model (likely a case/model bug): %v", err))
		}
	}

	switch {
	case runErrors:
		r.Kind = KindRunError
	case divergence:
		r.Kind = KindDivergence
	case modelBug:
		r.Kind = KindModelBug
	default:
		r.Kind = KindPass
	}
}

func firstModelErr(o *Outcome) error {
	if err := o.SelfErr(); err != nil {
		return err
	}
	return o.ImageErr
}

// diffOutcomes reports every observable difference between two completed
// runs of the same case: per-thread observation logs first (with the load
// located back in the case), then the final memory image (with the word
// named by region). Any non-empty result is an SC-for-DRF violation.
func diffOutcomes(c *Case, l *caseLayout, e *Expectation, a, b *Outcome) []string {
	var out []string
	for t := range c.Threads {
		la, lb := a.Logs[t], b.Logs[t]
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		diverged := false
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				ref := e.Refs[t][i]
				out = append(out, fmt.Sprintf("thread %d load #%d (phase %d, %s): %s observed %#x, %s observed %#x (model predicts %#x)",
					t, i, ref.Phase, l.describe(c, l.addrOf(c, t, ref.Op)),
					a.Config, la[i], b.Config, lb[i], e.Logs[t][i]))
				diverged = true
				break
			}
		}
		if !diverged && len(la) != len(lb) {
			out = append(out, fmt.Sprintf("thread %d: %s logged %d loads, %s logged %d",
				t, a.Config, len(la), b.Config, len(lb)))
		}
	}
	if a.Image != nil && b.Image != nil {
		for i := range a.Image {
			if a.Image[i] != b.Image[i] {
				out = append(out, fmt.Sprintf("final image: %s (%#x): %s read %#x, %s read %#x (model predicts %#x)",
					l.describe(c, l.words[i]), uint64(l.words[i]),
					a.Config, a.Image[i], b.Config, b.Image[i], e.Image[i]))
				break
			}
		}
	}
	return out
}
