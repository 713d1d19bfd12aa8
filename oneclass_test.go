package spandex_test

import (
	"fmt"
	"strings"
	"testing"

	spandex "spandex"
)

// oneClass returns FastParams with a device list of two class-c devices.
func oneClass(c spandex.DeviceClass) spandex.SystemParams {
	p := spandex.FastParams()
	p.Devices = []spandex.DeviceSpec{{Class: c, Count: 2}}
	return p
}

// runRecovered is spandex.Run with a panic turned into an error, so a
// table test reports every crashing cell instead of dying on the first.
func runRecovered(w spandex.Workload, opt spandex.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	_, err = spandex.Run(w, opt)
	return err
}

// TestReaderWithoutCPUs validates litmus on a GPU-only machine under
// every configuration: with no CPU-class device the validation reads go
// through GPU CU 0's cache.
func TestReaderWithoutCPUs(t *testing.T) {
	w, err := spandex.WorkloadByName("litmus")
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range spandex.ConfigNames() {
		p := oneClass(spandex.ClassGPU)
		if err := runRecovered(w, spandex.Options{ConfigName: cn, Params: &p, Seed: 1, Validate: true}); err != nil {
			t.Errorf("%s: %v", cn, err)
		}
	}
}

// oneClassFailures are the workloads that need both device classes to
// do their job, keyed workload/class/config, with the error each gives
// today on a one-class machine. The workloads hand work from one class
// to the other, so with one class missing the oracle sees untouched data
// or the remaining threads wait for a partner forever.
var oneClassFailures = map[string]string{
	"indirection/gpu/SDD": "validation failed",
	"indirection/gpu/HMG": "validation failed",
	"rsct/gpu/SDD":        "exceeded",
	"rsct/gpu/HMG":        "exceeded",
	"tqh/cpu/SDD":         "validation failed",
	"tqh/cpu/HMG":         "validation failed",
	"tqh/gpu/SDD":         "exceeded",
	"tqh/gpu/HMG":         "exceeded",
}

// TestOneClassMachines runs every registered workload on a CPU-only and a
// GPU-only machine under one Spandex and one hierarchical configuration.
// No cell may panic, and each must fail exactly as oneClassFailures says
// (or not at all), so a new failure, or a fixed one, is noticed.
func TestOneClassMachines(t *testing.T) {
	for _, name := range spandex.WorkloadNames() {
		w, err := spandex.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []spandex.DeviceClass{spandex.ClassCPU, spandex.ClassGPU} {
			for _, cn := range []string{"SDD", "HMG"} {
				p := oneClass(class)
				// The longest passing cell finishes in under 0.4 ms of
				// simulated time; 10 ms keeps the stuck cells' aborts fast.
				err := runRecovered(w, spandex.Options{ConfigName: cn, Params: &p, Seed: 1,
					Validate: true, MaxTime: 10_000_000_000})
				key := fmt.Sprintf("%s/%s/%s", name, class, cn)
				want, known := oneClassFailures[key]
				switch {
				case err == nil && known:
					t.Errorf("%s: passes now; remove it from oneClassFailures", key)
				case err != nil && !known:
					t.Errorf("%s: %v", key, err)
				case err != nil && !strings.Contains(err.Error(), want):
					t.Errorf("%s: got %v, want an error containing %q", key, err, want)
				}
			}
		}
	}
}
