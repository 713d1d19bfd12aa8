package obs

import "spandex/internal/sim"

// seriesDefaultBuckets caps each time series; seriesDefaultWidth is the
// initial bucket width in ticks (16 ns at 1 tick = 1 ps). When a sample
// lands past the last bucket, adjacent bucket pairs merge and the width
// doubles. The decimation is keyed by simulated time, not sample count,
// so it is deterministic and every series of one run shares a common
// time axis.
const (
	seriesDefaultBuckets = 512
	seriesDefaultWidth   = 1 << 14
)

// SeriesBucket aggregates the samples of one time window.
type SeriesBucket struct {
	// Sum is the total of sample values in the window (bytes for
	// bandwidth series, ticks for backlog series, 1-per-event for rates).
	Sum uint64 `json:"sum"`
	// Count is the number of samples.
	Count uint64 `json:"count"`
	// Max is the largest single sample.
	Max uint64 `json:"max"`
}

// SeriesPoint is one non-empty bucket of an exported series.
type SeriesPoint struct {
	// Index is the bucket index: the bucket covers simulated time
	// [Index*Width, (Index+1)*Width).
	Index int `json:"i"`
	SeriesBucket
}

// TimeSeries is the exported form of one cycle-bucketed series: a bucket
// width in ticks plus the non-empty buckets in index order. The shape is
// a deterministic function of the event stream — the rescaling schedule
// depends only on sample times, never on host state.
type TimeSeries struct {
	Width  uint64        `json:"width"`
	Points []SeriesPoint `json:"points"`
}

// Last returns the largest covered bucket index (-1 when empty).
func (s TimeSeries) Last() int {
	if len(s.Points) == 0 {
		return -1
	}
	return s.Points[len(s.Points)-1].Index
}

// Total sums every bucket's Sum.
func (s TimeSeries) Total() uint64 {
	var t uint64
	for _, p := range s.Points {
		t += p.Sum
	}
	return t
}

// Samples returns the number of samples and the largest single sample in
// the series. Both are exact: rescaling sums counts and keeps maxima.
func (s TimeSeries) Samples() (count, peak uint64) {
	for _, p := range s.Points {
		count += p.Count
		peak = max(peak, p.Max)
	}
	return count, peak
}

// tseries is the accumulating (pre-export) form of a TimeSeries.
type tseries struct {
	width   uint64
	maxBkts int
	buckets []SeriesBucket
}

func newTSeries(width uint64, maxBuckets int) *tseries {
	if width == 0 {
		width = seriesDefaultWidth
	}
	if maxBuckets <= 1 {
		maxBuckets = seriesDefaultBuckets
	}
	return &tseries{width: width, maxBkts: maxBuckets}
}

// add folds one sample into the bucket covering at, rescaling first if the
// sample lands past the cap.
func (s *tseries) add(at sim.Time, v uint64) {
	idx := uint64(at) / s.width
	for idx >= uint64(s.maxBkts) {
		s.rescale()
		idx = uint64(at) / s.width
	}
	for int(idx) >= len(s.buckets) {
		s.buckets = append(s.buckets, SeriesBucket{})
	}
	b := &s.buckets[idx]
	b.Sum += v
	b.Count++
	if v > b.Max {
		b.Max = v
	}
}

// rescale merges adjacent bucket pairs and doubles the width, halving the
// series' resolution while preserving Sum/Count totals and the Max.
func (s *tseries) rescale() {
	half := (len(s.buckets) + 1) / 2
	for i := 0; i < half; i++ {
		b := s.buckets[2*i]
		if 2*i+1 < len(s.buckets) {
			o := s.buckets[2*i+1]
			b.Sum += o.Sum
			b.Count += o.Count
			if o.Max > b.Max {
				b.Max = o.Max
			}
		}
		s.buckets[i] = b
	}
	s.buckets = s.buckets[:half]
	s.width *= 2
}

// export flattens to the sparse exported form (empty buckets dropped).
func (s *tseries) export() TimeSeries {
	out := TimeSeries{Width: s.width}
	for i, b := range s.buckets {
		if b.Count == 0 {
			continue
		}
		out.Points = append(out.Points, SeriesPoint{Index: i, SeriesBucket: b})
	}
	return out
}
