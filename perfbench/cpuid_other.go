//go:build !amd64

package main

import "runtime"

// cpuModel has no portable source off amd64; the architecture stands in.
func cpuModel() string { return "unknown " + runtime.GOARCH }
