package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// stateLabel returns the canonical label of a line's current LLC state —
// the vocabulary shared with the static transition graph
// (docs/transitions/core.json). Base states: I (line absent), F (present
// but data still fetching), V (valid, no sharers or owners), S (Shared),
// O (some words Owned), SO (Shared with owned words, the transient of a
// blocking ReqS(1) revocation). While a blocking transaction holds the
// line, the transaction kind is appended: e.g. "S+inv", "O+rvk",
// "I+fetch".
func (l *LLC) stateLabel(line memaddr.LineAddr) string {
	base := "I"
	if e := l.array.Peek(line); e != nil {
		st := &e.State
		switch {
		case st.fetching:
			base = "F"
		case st.shared && st.ownedMask != 0:
			base = "SO"
		case st.shared:
			base = "S"
		case st.ownedMask != 0:
			base = "O"
		default:
			base = "V"
		}
	}
	if t, ok := l.txns[line]; ok {
		base += "+" + t.kind.String()
	}
	return base
}

// transitionKey is one dynamically observed (LLC state, incoming message)
// pair.
type transitionKey struct {
	State string
	Msg   string
}

// TransitionCoverage counts the (state, message) pairs the LLC actually
// processed during a run. It is the dynamic half of the transition-graph
// cross-check: pairs recorded here but absent from the statically
// extracted graph indicate an extraction bug; static transitions never
// recorded are coverage gaps.
type TransitionCoverage struct {
	counts map[transitionKey]uint64
}

// NewTransitionCoverage returns an empty recorder.
func NewTransitionCoverage() *TransitionCoverage {
	return &TransitionCoverage{counts: make(map[transitionKey]uint64)}
}

// Record notes one processed (state, message) pair.
func (tc *TransitionCoverage) Record(state string, msg proto.MsgType) {
	tc.counts[transitionKey{State: state, Msg: msg.Ident()}]++
}

// Snapshot flattens the counts into a "State|Msg" → count map, the
// content of a coverage file (WriteCoverageFile).
func (tc *TransitionCoverage) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(tc.counts))
	for k, n := range tc.counts {
		out[k.State+"|"+k.Msg] = n
	}
	return out
}

// AddSnapshot folds a Snapshot-format map back into the recorder.
func (tc *TransitionCoverage) AddSnapshot(s map[string]uint64) {
	//spandex:maprange commutative keyed accumulation: += into counts keyed by the loop key
	for k, n := range s {
		if state, msg, ok := strings.Cut(k, "|"); ok {
			tc.counts[transitionKey{State: state, Msg: msg}] += n
		}
	}
}

// WriteCoverageFile writes a Snapshot map to path as indented JSON: the
// coverage file that spandex-bench, spandex-fuzz and spandex-mcheck
// write with -coverage-out and spandex-transgraph -diff reads back with
// ReadCoverageFile.
func WriteCoverageFile(path string, snap map[string]uint64) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCoverageFile reads a coverage file written by WriteCoverageFile back
// into its Snapshot map.
func ReadCoverageFile(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap map[string]uint64
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// SetCoverage installs a transition-coverage recorder on the LLC; nil
// disables recording.
func (l *LLC) SetCoverage(tc *TransitionCoverage) { l.coverage = tc }

// observe records the (pre-state, message) pair the LLC is about to
// process — for the dynamic coverage cross-check — and primes the
// checker's violation context with it, so any invariant broken while
// handling this message reports the cycle/line/state/msg that broke it.
func (l *LLC) observe(m *proto.Message) {
	if l.coverage == nil && l.checker == nil {
		return
	}
	st := l.stateLabel(m.Line)
	if l.checker != nil {
		l.checker.SetContext(l.eng.Now(), m.Line, st, m.Type.Ident())
	}
	if l.coverage != nil {
		l.coverage.Record(st, m.Type)
	}
}
