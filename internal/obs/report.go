package obs

// LatencyReport is the run-level latency attribution summary merged into
// a Result. All times are in ticks (1 tick = 1 ps); renderers convert to
// cycles.
type LatencyReport struct {
	// Classes holds one row per operation class that completed at least
	// one request, in OpClass order.
	Classes []ClassLatency `json:"classes"`
	// Requests is the total completed tracked requests.
	Requests uint64 `json:"requests"`
	// Unfinished counts requests issued but never completed — always
	// zero after a successful run.
	Unfinished int `json:"unfinished,omitempty"`
}

// ClassLatency is one operation class's latency aggregate.
type ClassLatency struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
	// TotalTicks is the summed end-to-end latency of all requests.
	TotalTicks uint64 `json:"totalTicks"`
	// Phases attributes TotalTicks to phases; the entries sum to
	// TotalTicks exactly (the phase machine closes every interval).
	Phases [NumPhases]uint64 `json:"phases"`
	Mean   float64           `json:"mean"`
	P50    uint64            `json:"p50"`
	P90    uint64            `json:"p90"`
	P99    uint64            `json:"p99"`
	Max    uint64            `json:"max"`
}

// PhaseSum returns the summed phase attribution, which equals
// TotalTicks by construction (tested by TestPhaseReconciliation).
func (c ClassLatency) PhaseSum() uint64 {
	var sum uint64
	for _, v := range c.Phases {
		sum += v
	}
	return sum
}
